"""Shared fixtures: the pinned suite (built once) and corruption helpers."""

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from gmpi.builder import (
    GmpiInstance,
    build_factors,
    build_star_complex,
    total_complex,
)
from gmpi.complexes import BettiTable, ChainMap, FreeComplex, MonomialMatrix, block_offsets
from gmpi.families import random_instance
from gmpi.monomials import divides, ideal, simple_context
from gmpi.verify import SUITE_SEEDS


def certified_total(inst: GmpiInstance):
    """The total complex of ``inst``, assembled from its certified factors,
    as ``gmpi gmpi --check`` and ``gmpi verify`` assemble it."""
    return total_complex(build_factors(inst))


def sigma_entry(tot, c: int, i: int) -> tuple[int, int]:
    """(row, column) in diffs[c + i] of the total complex of the first
    stored scalar of sigma_c in row i (``TotalComplex.sigma``), where a
    test forges an entry of sigma."""
    off = block_offsets(tot.column_ranks)
    col, scalars = next(iter(tot.sigma(c, i).cols.items()))
    return off[c + i - 1][c - 1] + next(iter(scalars)), off[c + i][c] + col


def betti_from_json(data) -> BettiTable:
    """The BettiTable of its ``to_json`` payload, built from its
    ``multigraded`` counts, whose graded sums must be its ``entries``."""
    table = BettiTable.of({(k, tuple(b)): v for k, b, v in data["multigraded"]})
    assert table.entries == {(k, j): v for k, j, v in data["entries"]}
    return table


@dataclass
class Strand:
    """Degree-b component of a complex: dimensions and dense rational maps."""

    degree: tuple[int, ...]
    alive: list[list[int]]          # per position, included basis indices
    matrices: list[list[list[Fraction]]]  # matrices[i]: position i+1 -> position i strand

    @property
    def dims(self) -> list[int]:
        return [len(a) for a in self.alive]


def strand(C: FreeComplex, b: tuple[int, ...]) -> Strand:
    """The strand of ``C`` at the multidegree ``b``, dense: the reference
    that the strand scans of the package are tested against."""
    alive = [[j for j, s in enumerate(level) if divides(s, b)] for level in C.shifts]
    mats = []
    for i in range(1, C.length + 1):
        rows, cols = alive[i - 1], alive[i]
        d = C.diffs[i].cols
        mats.append([[d.get(c, {}).get(r, 0) for c in cols] for r in rows])
    return Strand(b, alive, mats)


class SuiteItem:
    def __init__(self, seed):
        self.seed = seed
        self.instance = random_instance(seed)
        self.star = build_star_complex(self.instance)
        self.total = certified_total(self.instance)


@pytest.fixture(scope="session")
def suite():
    return [SuiteItem(seed) for seed in SUITE_SEEDS]


@st.composite
def small_ideals(draw):
    """Ideals of at most 6 generators in at most 4 variables, exponents <= 3."""
    nvars = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 3)] * nvars).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=6))
    ctx = simple_context(nvars, tuple("xyzw"[:nvars]))
    return ideal(ctx, gens)


def dense_rank(m) -> int:
    """Rank over Q of dense rows of ints and Fractions by Gauss-Jordan
    elimination in Fractions: the textbook reference for ``linalg.rank``."""
    rows = [[Fraction(x) for x in row] for row in m]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def dense_rank_mod_2(m) -> int:
    """Gauss-Jordan elimination over GF(2) on dense rows of ints, read as
    their residues."""
    residues = [[x % 2 for x in row] for row in m]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(residues)) if residues[i][c]), None)
        if piv is None:
            continue
        residues[r], residues[piv] = residues[piv], residues[r]
        for i in range(len(residues)):
            if i != r and residues[i][c]:
                residues[i] = [x ^ y for x, y in zip(residues[i], residues[r])]
        r += 1
    return r


def normal_scalar(v) -> bool:
    """The stored-scalar invariant: an int, or a Fraction that is not
    integral."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def copy_matrix(m: MonomialMatrix) -> MonomialMatrix:
    """A copy of ``m`` whose shift lists and columns are its own."""
    return MonomialMatrix(list(m.row_shifts), list(m.col_shifts),
                          {c: dict(col) for c, col in m.cols.items()})


def copy_complex(C: FreeComplex) -> FreeComplex:
    """A copy of ``C`` whose shift lists, maps and columns are its own, for
    a test to change without touching ``C``."""
    return FreeComplex(C.ctx, [list(s) for s in C.shifts],
                       [None] + [copy_matrix(d) for d in C.diffs[1:]])


def copy_chain_map(tau: ChainMap) -> ChainMap:
    """A copy of the chain map ``tau`` whose maps are its own, between the
    same complexes."""
    return ChainMap(tau.source, tau.target, [copy_matrix(m) for m in tau.mats])


def with_resolution_copy(inst: GmpiInstance) -> GmpiInstance:
    """The instance over a copy of its resolution, for a fixture to corrupt
    without touching ``inst``."""
    return dataclasses.replace(inst, resolution=copy_complex(inst.resolution))


def scale_first_scalar(m, factor) -> None:
    """Multiply the first stored scalar of the map ``m``, in column order,
    by ``factor``, in place."""
    col = next(iter(m.cols.values()))
    col[next(iter(col))] *= factor


def corrupt_lambda(inst: GmpiInstance, i: int = 2):
    """The instance over a copy of its resolution in which the first nonzero
    scalar of lam_i (in row-major order) is set to zero, and its (i, r, c)."""
    probe = with_resolution_copy(inst)
    cols = probe.resolution.diffs[i].cols
    if not cols:
        raise AssertionError("no nonzero entry to corrupt")
    r, c = min((r, c) for c, col in cols.items() for r in col)
    del cols[c][r]
    if not cols[c]:
        del cols[c]
    return probe, (i, r, c)


def raise_lambda(inst: GmpiInstance):
    """The instance over a copy of its resolution with a scalar 1 stored in
    lam_c, c >= 2, at the first (c, column j, row k) where shift k at
    position c - 1 does not divide shift j at position c, and its
    (c, j, k, block), block being the first whose degree that drop raises.
    No homogeneous resolution has such a scalar."""
    probe = with_resolution_copy(inst)
    res = probe.resolution
    c, j, k, block = next(
        (c, j, k, l) for c in range(2, res.length + 1)
        for j, sj in enumerate(res.shifts[c]) for k, sk in enumerate(res.shifts[c - 1])
        for l, (d, e) in enumerate(zip(sj, sk)) if e > d)
    res.diffs[c].cols.setdefault(j, {})[k] = 1
    return probe, (c, j, k, block)


def non_nested_instance() -> GmpiInstance:
    """Genuine nesting violation, assembled without validate_family (which
    rejects it) from the products, induced ideal and resolution that
    validate_family would give.

    Induced by (x^2, xy, y^2) over two blocks of two variables, with the
    degree-1 substitutions not containing the degree-2 ones; the star complex
    has nonvanishing first homology at a^2 c^2.
    """
    from gmpi.builder import SubstitutionFamily, induced_ideal
    from gmpi.complexes import quotient_resolution
    from gmpi.monomials import VariableContext

    S = simple_context(2, ("x", "y"))
    inducing = ideal(S, [(2, 0), (1, 1), (0, 2)])
    T = VariableContext((2, 2), ("a", "c"))
    actx = VariableContext((2,), ("a",))
    cctx = VariableContext((2,), ("c",))
    fam = SubstitutionFamily(T, {
        (0, 2): ideal(actx, [(2, 0)]),      # (a1^2)
        (0, 1): ideal(actx, [(0, 1)]),      # (a2): does not contain a1^2
        (1, 2): ideal(cctx, [(2, 0)]),
        (1, 1): ideal(cctx, [(0, 1)]),
    })
    products, induced = induced_ideal(inducing, fam)
    return GmpiInstance(
        inducing=inducing, family=fam,
        products=products, induced=induced, resolution=quotient_resolution(inducing),
        label="non-nested")


# -- corruptions of the factors, which certify_factors must refuse.  Each
# corrupts a copy of one factor and puts it in place of the original under
# one key, so a factor that several keys share (build_factors makes one per
# distinct substitution ideal) stays intact under the others.  Applied to
# certified factors just before total_complex, the tau and block
# corruptions must make total_complex refuse the map it assembles.
# corrupt_star_ideal corrupts only what the checks of verify build.

def _first_block_copy(F, length=1):
    key = next(k for k, res in F.blocks.items() if k[1] >= 1 and res.length >= length)
    F.blocks[key] = copy_complex(F.blocks[key])
    return F.blocks[key]


def corrupt_block_scalar(F, position=1):
    """Double the first entry of differential ``position`` of the first
    block resolution of positive degree that has one (a copy of it).  At
    position 1 the strands keep their ranks, but the augmentation no longer
    kills the image; at position 2 the block, and with it every column it
    is a factor of, no longer squares to zero."""
    scale_first_scalar(_first_block_copy(F, position).diffs[position], 2)
    return F


def corrupt_block_column(F):
    """Clear column 0 of the first differential of the first block resolution
    of positive degree (a copy of it), so that a strand loses rank."""
    _first_block_copy(F).diffs[1].cols.pop(0, None)
    return F


def _first_tau_copy(F, has=lambda tau: True):
    key = next(k for k, tau in F.taus_in_use().items() if has(tau))
    F.taus[key] = copy_chain_map(F.taus[key])
    return F.taus[key]


def corrupt_tau(F):
    """Double the first entry above position 0 of the first tau in use
    (``Factors.taus_in_use``) that has one (a copy of it): the tau, and
    with it sigma, no longer commutes with the differentials."""
    tau = _first_tau_copy(F, lambda t: any(m.cols for m in t.mats[1:]))
    scale_first_scalar(next(m for m in tau.mats[1:] if m.cols), 2)
    return F


def corrupt_tau_augmentation(F):
    """Add one to the first position-0 entry of the first tau in use (a
    copy of it): its column no longer sums to 1, so sigma misses the scalar
    matrices and sigma o sigma no longer vanishes (the factor counterpart
    of the sigma-star step)."""
    col = next(iter(_first_tau_copy(F).mats[0].cols.values()))
    col[next(iter(col))] += 1
    return F


def corrupt_star_ideal(star):
    """Replace the first star ideal of position 1 by the second one, in
    place.  The construction never builds the star complex, so this
    corrupts only what the checks of verify scan: product-equals-intersection
    and star-acyclicity must fail on the result."""
    star[0] = [star[0][1]] + star[0][1:]
    return star


def corrupt_star_scalars(F):
    """Double the first scalar of lam_2 in a copy of the resolution of S/I
    that the star complex reads (of a Factors), so that its maps no longer
    square to zero."""
    F.instance.resolution = copy_complex(F.instance.resolution)
    scale_first_scalar(F.instance.resolution.diffs[2], 2)
    return F
