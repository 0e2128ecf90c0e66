"""Generalized mixed product ideals and their explicit minimal resolutions.

Starting from an inducing monomial ideal I in n ambient variables and, for
every block l and every block degree d of a generator of I, a substitution
ideal generated in degree d inside block l's variables (nested along degrees),
this module constructs:

  * the induced ideal L = sum of products of substitution ideals,
  * the factors of its resolution (``build_factors``), made once and
    certified: the minimal resolution F of S/I, one block resolution per
    distinct substitution ideal and the ladder composites tau that sigma
    uses (``Factors.taus``), each a composite of the comparison maps rho
    between consecutive ladder degrees,
  * the total complex of the double complex built on those factors, which
    is the minimal multigraded free resolution of T/L whenever every
    substitution ideal has a linear resolution,

together with the Betti table of T/L read off that resolution
(``resolution_table``), from which the theorem checks of verify compute the
regularity, projective dimension and linearity.

``build_factors`` certifies the total complex on its factors as it makes
them (``certify_factors``), and under the linearity hypothesis the Betti
table is read off them (``factored_table``): the total complex is then
minimal, so its table is the multiset of the factors' shifts.  The total
complex is assembled (``total_complex``) only where something reads it:
the checks of verify, which scan it, and instances outside the hypothesis,
whose total complex is minimalized.  It is placed straight into its
anti-diagonal basis from the factors; column c of the double complex and
the sigma maps between columns are blocks of it (``TotalComplex.sigma``),
never separate objects.

The complex of ideal direct sums carried by the scalar matrices of F (the
"star complex", whose H_0 is T/L) is the first page of the double complex.
The construction never builds it: certify_factors certifies its exactness
from F on S's degree grid.  The checks of verify build its ideal lists
(``build_star_complex``) and scan them on T's grid (``star_acyclicity``),
independently of the construction.

The ladder of block l is the sorted set of block-l degrees of I's
generators (``block_ladders``); degree 0 on it is the unit ideal, which
``ideal_resolution`` resolves by the ring itself.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    _strand_scan,
    betti_table,
    BettiTable,
    block_offsets,
    ChainMap,
    ConstructionError,
    exactness_check,
    FreeComplex,
    ideal_resolution,
    identity_chain_map,
    lift_chain_map,
    minimalize_complex,
    MonomialMatrix,
    quotient_resolution,
    SIGNS,
    SizeCapError,
    tensor_chain_map,
    tensor_resolutions,
)
from .monomials import (
    MonomialIdeal,
    VariableContext,
    embed_ideal,
    intersect_many,
    total_degree,
)


class FamilyValidationError(ValueError):
    """A substitution family violates one of its defining conditions."""


@dataclass(frozen=True)
class SubstitutionFamily:
    """Substitution ideals keyed by (block index, generation degree).

    Each ideal lives in its block's local variables.  Degree 0 is implicit
    (the unit ideal); supplying it explicitly is rejected.
    """

    T: VariableContext
    ideals: dict[tuple[int, int], MonomialIdeal]

    def __post_init__(self):
        for (l, d) in self.ideals:
            if not (0 <= l < self.T.nblocks):
                raise FamilyValidationError(f"block index {l} out of range")
            if d < 0:
                raise FamilyValidationError(
                    f"substitution for block {l} has degree {d}: the degree must be positive")
            if d == 0:
                raise FamilyValidationError(
                    f"degree-0 substitution for block {l}: degree 0 is implicit")

    def local_context(self, l: int) -> VariableContext:
        return VariableContext((self.T.sizes[l],), (self.T.names[l],))

    def at(self, l: int, d: int) -> MonomialIdeal:
        if d == 0:
            ctx = self.local_context(l)
            return MonomialIdeal(ctx, ((0,) * ctx.nvars,))
        return self.ideals[(l, d)]


@dataclass
class GmpiInstance:
    """A validated instance: inducing data plus everything derived from it."""

    inducing: MonomialIdeal
    family: SubstitutionFamily
    products: list[MonomialIdeal]            # L_j, one per generator of the inducing ideal
    induced: MonomialIdeal                   # L
    resolution: FreeComplex                  # minimal resolution of S/I; its diffs
                                             # store the scalar matrices lam_i
    label: str = ""

    @property
    def T(self) -> VariableContext:
        return self.family.T

    @functools.cached_property
    def ladders(self) -> list[list[int]]:
        """Per block, the sorted distinct block degrees of the inducing
        ideal's generators (``block_ladders``)."""
        return block_ladders(self.inducing)


def block_ladders(inducing: MonomialIdeal) -> list[list[int]]:
    """Per block, the sorted distinct block degrees of the generators of
    the inducing ideal: the degrees at which a substitution ideal is read
    (0 among them where some generator skips the block)."""
    return [sorted({g[l] for g in inducing.gens}) for l in range(inducing.ctx.nblocks)]


def validate_family(
    inducing: MonomialIdeal,
    family: SubstitutionFamily,
    label: str = "",
) -> GmpiInstance:
    """Check the defining conditions and assemble a GmpiInstance.

    Raises FamilyValidationError with a witness for: a missing ladder degree,
    a substitution not generated purely in its degree, a nesting failure
    (``nesting_witness``: a higher-degree substitution not contained in a
    lower-degree one), or a substitution at a degree off its block's ladder
    (``block_ladders``), which nothing would read.  Raises ConstructionError
    where a shift of the resolution of S/I has a block degree no generator
    has (``realization_witness``); shifts are lcms of generators, so that is
    a fault of the construction, not of the input.
    """
    S_ctx = inducing.ctx
    if inducing.is_zero or inducing.is_unit:
        raise FamilyValidationError("inducing ideal must be nonzero and proper")
    if any(m != 1 for m in S_ctx.sizes):
        raise FamilyValidationError("inducing ideal must live over singleton blocks")
    n = S_ctx.nblocks
    T = family.T
    if T.nblocks != n:
        raise FamilyValidationError(
            f"{T.nblocks} substitution blocks for {n} ambient variables")

    ladders = block_ladders(inducing)
    for l, degrees in enumerate(ladders):
        for d in degrees:
            if d == 0:
                continue
            if (l, d) not in family.ideals:
                raise FamilyValidationError(f"no substitution ideal for block {l}, degree {d}")
            sub = family.ideals[(l, d)]
            if sub.ctx.nvars != T.sizes[l]:
                raise FamilyValidationError(
                    f"substitution for block {l} uses {sub.ctx.nvars} variables, "
                    f"block has {T.sizes[l]}")
            if sub.is_zero or sub.is_unit:
                raise FamilyValidationError(
                    f"substitution for block {l}, degree {d} must be nonzero and proper")
            if sub.generated_in_degree() != d:
                bad = next(g for g in sub.gens if total_degree(g) != d)
                raise FamilyValidationError(
                    f"substitution for block {l}, degree {d} has generator "
                    f"{sub.ctx.monomial_str(bad)} of degree {total_degree(bad)}")
        witness = nesting_witness(family, l, degrees)
        if witness is not None:
            hi, g = witness
            lo = degrees[degrees.index(hi) - 1]
            raise FamilyValidationError(
                f"nesting fails in block {l}: generator "
                f"{family.at(l, hi).ctx.monomial_str(g)} of the degree-{hi} ideal is not in "
                f"the degree-{lo} ideal")
    for l, d in family.ideals:
        if d not in ladders[l]:
            raise FamilyValidationError(
                f"substitution for block {l}, degree {d}: no generator of the inducing "
                f"ideal has degree {d} in block {l}")

    products, induced = induced_ideal(inducing, family)
    res = quotient_resolution(inducing)

    inst = GmpiInstance(
        inducing=inducing, family=family,
        products=products, induced=induced, resolution=res, label=label)
    witness = realization_witness(inst)
    if witness is not None:
        raise ConstructionError(
            "a shift of the resolution of S/I has a block degree no generator has "
            "(position, index, block)", witness)
    return inst


def nesting_witness(family: SubstitutionFamily, l: int, ladder: list[int]):
    """(degree, generator): a generator of the block-l substitution ideal at a
    ladder degree that lies outside the ideal one ladder step down, or None
    when the ideals along ``ladder`` are nested.  Consecutive steps suffice,
    since containment is transitive."""
    for lo, hi in zip(ladder, ladder[1:]):
        small = family.at(l, lo)
        outside = next((g for g in family.at(l, hi).gens if not small.member(g)), None)
        if outside is not None:
            return hi, outside
    return None


def realization_witness(inst: GmpiInstance):
    """(position, index, block) of a shift of the resolution of S/I whose
    degree in that block is no block degree of a generator, or None."""
    shifts = inst.resolution.shifts
    for i in range(1, len(shifts)):
        for j, s in enumerate(shifts[i]):
            for l, ladder in enumerate(inst.ladders):
                if s[l] not in ladder:
                    return i, j, l
    return None


def block_product(family: SubstitutionFamily, degrees: tuple[int, ...]) -> MonomialIdeal:
    """Product over the blocks l of the substitution ideal of degree
    degrees[l], embedded in T."""
    acc = embed_ideal(family.at(0, degrees[0]), family.T, 0)
    for l in range(1, len(degrees)):
        acc = acc * embed_ideal(family.at(l, degrees[l]), family.T, l)
    return acc


def induced_ideal(inducing: MonomialIdeal,
                  family: SubstitutionFamily) -> tuple[list[MonomialIdeal], MonomialIdeal]:
    """The products L_j, one per generator of the inducing ideal, and their
    sum L."""
    products = [block_product(family, g) for g in inducing.gens]
    induced = products[0]
    for q in products[1:]:
        induced = induced + q
    return products, induced


# ---------------------------------------------------------------------------
# the star complex, for the checks of verify (certify_factors certifies its
# exactness from the resolution of S/I without building it)

def build_star_complex(inst: GmpiInstance) -> list[list[MonomialIdeal]]:
    """The star complex of ``inst``, whose H_0 is T/L, as its ideal lists:
    item i - 1 lists the ideals of position i = 1..p, and the maps are the
    scalar matrices of the resolution of S/I.  Position 1 carries the L_j;
    deeper positions intersect along the nonzero pattern of the scalar
    matrices.  An intersection lies in each ideal it intersects, so every
    nonzero scalar maps a star ideal into its target."""
    res = inst.resolution
    levels = [list(inst.products)]
    for i in range(2, res.length + 1):
        cols = res.diffs[i].cols
        prev = levels[-1]
        level = []
        for j in range(len(res.shifts[i])):
            rows = sorted(cols.get(j, ()))
            if not rows:
                raise ConstructionError(
                    "zero column in a minimal differential (position, column)", (i, j))
            level.append(intersect_many(prev[k] for k in rows))
        levels.append(level)
    return levels


def product_formula_witness(inst: GmpiInstance, star: list[list[MonomialIdeal]]):
    """(position, index) of a star ideal of ``inst`` (``build_star_complex``)
    that differs from the product of block substitutions at the block
    degrees of its shift, or None."""
    for i, level in enumerate(star, start=1):
        for j, idl in enumerate(level):
            if block_product(inst.family, inst.resolution.shifts[i][j]) != idl:
                return i, j
    return None


# degree-grid cells beyond which star_acyclicity raises SizeCapError
STAR_SCAN_CAP = 200_000


def star_acyclicity(inst: GmpiInstance, star: list[list[MonomialIdeal]]):
    """Strand-exactness of the star complex of ``inst`` (its ideal lists
    ``star``, from ``build_star_complex``) over its degree grid.

    A strand at multidegree b has dimension 0/1 per summand (membership of
    x^b), the maps are the scalar matrices restricted to the live summands,
    position 0 is the ring (always one-dimensional), and H_0 must match
    membership in L.  Returns the first failing multidegree, or None.

    The scan presumes maps that square to zero.  If the scalar matrices of
    the resolution of S/I do not, there is no star complex to scan, and the
    witness is the resolution's (position, multidegree of S).  SizeCapError
    where T's degree grid exceeds STAR_SCAN_CAP cells.
    """
    square = inst.resolution.square_witness()
    if square is not None:
        return square
    ring = [((0,) * inst.T.nvars,)]
    summands = [ring] + [[idl.gens for idl in level] for level in star]
    return _strand_scan(summands, inst.resolution.diffs, inst.induced, STAR_SCAN_CAP)


# ---------------------------------------------------------------------------
# block resolutions and comparison maps

def block_resolutions(inst: GmpiInstance) -> dict[tuple[int, int], FreeComplex]:
    """One ideal resolution per ladder entry (at degree 0 that of the unit
    ideal, the rank-one free module), made once per distinct generator
    tuple: entries whose substitution ideals have the same exponent
    vectors, in one block or in blocks of one size, share one object.  A
    block resolution reads its context only for ``nvars``, so the first
    entry's names serve them all.  Nothing mutates a block resolution in
    place; a test that corrupts one corrupts a copy under its key."""
    made: dict[tuple[tuple[int, ...], ...], FreeComplex] = {}
    out = {}
    for l, ladder in enumerate(inst.ladders):
        for d in ladder:
            I = inst.family.at(l, d)
            if I.gens not in made:
                made[I.gens] = ideal_resolution(I)
            out[(l, d)] = made[I.gens]
    return out


def block_linearity(blocks: dict) -> dict[tuple[int, int], bool]:
    """Whether each block resolution is linear, read off its shifts: every
    shift at position i of the resolution at degree d has degree d + i (the
    unit ideal's, of degree 0, is the ring and trivially linear)."""
    return {(l, d): all(total_degree(s) == d + i
                        for i, level in enumerate(res.shifts) for s in level)
            for (l, d), res in blocks.items()}


def rho_maps(inst: GmpiInstance, blocks: dict) -> dict[tuple[int, int, int], ChainMap]:
    """Comparison maps between consecutive ladder entries of each block.

    rho[(l, d, e)] : resolution at ladder degree d -> the ladder degree e
    one step below, lifting the inclusion of the smaller ideal into the
    larger (the key of ``Factors.taus``).  One map is lifted per distinct
    (source, target) pair of block resolutions (``block_resolutions``
    shares them), and the steps between the same pair share it.  Nothing
    mutates a rho map in place; a single-step tau is the rho map itself,
    and a test that corrupts a tau corrupts a copy under its key.
    ConstructionError with (block, degree, generator) where an inclusion
    fails (``nesting_witness``, which validate_family also rules out).
    """
    lifts: dict[tuple[int, int], ChainMap] = {}
    out = {}
    for l, ladder in enumerate(inst.ladders):
        witness = nesting_witness(inst.family, l, ladder)
        if witness is not None:
            raise ConstructionError(
                "substitution ideals are not nested (block, degree, generator)", (l,) + witness)
        for e, d in zip(ladder, ladder[1:]):
            source, target = blocks[(l, d)], blocks[(l, e)]
            pair = (id(source), id(target))
            if pair not in lifts:
                lifts[pair] = lift_chain_map(source, target)
            out[(l, d, e)] = lifts[pair]
    return out


# ---------------------------------------------------------------------------
# the factors of the resolution of T/L, their certificate and Betti table

@dataclass
class Factors:
    """What the resolution of T/L is made of, made once and certified by
    ``build_factors``: the resolution F of S/I (the instance's, whose diffs
    store the scalar matrices lam_c), a block resolution per ladder degree
    (one object per distinct substitution ideal) with its linearity flag,
    and ``taus``, the ladder composites tau that sigma uses.  Column c of
    the double complex is the direct sum, over the shifts a of F at
    position c, of the tensor products of the block resolutions at the
    block degrees a_l, and sigma_c is lam_c times the tensor products of
    the taus between them.

    ``taus`` maps (block, from, to) to tau_(l, from, to) for each drop
    that a nonzero lam_c[k][j], c >= 2, puts into sigma_c: the identity
    where the degrees are equal, otherwise the composite of the rho maps
    (``rho_maps``) of block l from ladder degree ``from`` down to ``to``;
    a single step is the rho map itself.

    Keys whose substitution ideals have equal generators share their
    objects: one block resolution per distinct ideal, one rho map per
    distinct pair of block resolutions, and one identity or composite tau
    per distinct chain of rho maps.  No factor is mutated in place once
    made, so a shared one is correct for every key that holds it; the
    corruption fixtures of the tests replace a copy under one key.

    ``exactness_verified`` is what ``certify_factors`` returned: True where
    every scan of the certificate ran, False where a degree grid (of S or
    of a block) exceeds its scan cap."""

    instance: GmpiInstance
    blocks: dict[tuple[int, int], FreeComplex]
    linear_flags: dict[tuple[int, int], bool]
    taus: dict[tuple[int, int, int], ChainMap]
    exactness_verified: bool = False

    @property
    def hypothesis_linear(self) -> bool:
        return all(self.linear_flags.values())

    def taus_in_use(self) -> dict[tuple[int, int, int], ChainMap]:
        """The taus other than an identity, in the order of ``taus``."""
        return {key: tau for key, tau in self.taus.items() if key[1] != key[2]}


def build_factors(inst: GmpiInstance) -> Factors:
    """The factors of ``inst``, complete and certified: the block
    resolutions, their linearity flags and the taus that sigma uses
    (``Factors``), then ``certify_factors``, whose ConstructionError
    propagates and whose verdict is ``exactness_verified``.

    The drops are enumerated once, in order of c, then of the stored
    columns and rows of lam_c, then of the blocks: the drop of block l is
    from the block degree of shift j at position c to that of shift k at
    position c - 1.  Both are ladder degrees (validate_family's
    ``realization_witness``), and for a homogeneous F the second is at most
    the first; a stored scalar whose drop raises a block degree is a
    ConstructionError with (c, j, k, block).  A tau over several ladder
    steps is the composite of their rho maps, never a direct lift: sigma o
    sigma vanishes because a composite of ladder composites is one."""
    blocks = block_resolutions(inst)
    rhos, res = rho_maps(inst, blocks), inst.resolution
    drops = {}
    for c in range(2, res.length + 1):
        for j, col in res.diffs[c].cols.items():
            for k in col:
                for l, (d, e) in enumerate(zip(res.shifts[c][j], res.shifts[c - 1][k])):
                    if e > d:
                        raise ConstructionError(
                            "a stored scalar of lam raises a block degree "
                            "(position, column, row, block)", (c, j, k, l))
                    drops[(l, d, e)] = None
    made: dict[tuple[int, ...], ChainMap] = {}
    taus = {}
    for l, d, e in drops:
        # the rho maps from d down to e, composed from the top step down,
        # once per distinct chain of block resolution and rho maps
        ladder = inst.ladders[l]
        steps = [rhos[(l, hi, lo)] for lo, hi in zip(ladder, ladder[1:]) if e <= lo < d]
        chain = (id(blocks[(l, d)]),) + tuple(map(id, steps))
        if chain not in made:
            tau = steps.pop() if steps else identity_chain_map(blocks[(l, d)])
            while steps:
                tau = steps.pop().compose(tau)
            made[chain] = tau
        taus[(l, d, e)] = made[chain]
    factors = Factors(inst, blocks, block_linearity(blocks), taus)
    factors.exactness_verified = certify_factors(factors)
    return factors


def certify_factors(factors: Factors) -> bool:
    """Certify, on the factors alone, that the total complex of the double
    complex resolves T/L, minimally under the linearity hypothesis, and
    return whether every scan ran.  ``build_factors`` calls it on the
    factors it makes, and records the result as their
    ``exactness_verified``; it assigns nothing itself.

    Filter the total complex by columns.  Column c resolves the direct sum
    of the block products at the shifts of position c, and sigma induces
    the scalar matrices on those ideals.  The first page of the spectral
    sequence is then the star complex, and if it is exact the total complex
    resolves its H_0 = T/L (the acyclic assembly lemma, Weibel 1994, Lemma
    2.7.3).  Each column is a tensor product of block resolutions on
    disjoint variables, so it squares to zero and is exact when they do
    (Kuenneth).  Each component of sigma_c is lam_c[k][j] times the tensor
    product of the taus from the block degrees of shift j to those of shift
    k, so sigma is a chain map when the taus are, and sigma o sigma is
    (lam o lam) times a tensor product of taus (a composite of ladder
    composites is one), which vanishes because F squares to zero.

    The star complex is exact because F is.  Its summand at a shift a of F
    is the block product J_a of the substitution ideals J_(l, a_l); each
    a_l is a ladder degree (validate_family raises otherwise), and the
    ideals are nested along each ladder (rho_maps raises otherwise).  So
    x^b lies in J_a iff a <= delta(b) blockwise, where delta(b)_l is the
    largest ladder degree d with the block-l part of x^b in J_(l, d)
    (degree 0 is the unit ideal), and x^b lies in L iff x^delta(b) lies in
    I.  The strand of the star complex at b is thus F's strand at
    delta(b), live summands and scalar maps alike, and the star complex is
    exact on T's degree grid iff F resolves S/I on S's, which has one
    variable per block.

    Each step below raises ConstructionError with its witness, in this
    order:

    * under the linearity hypothesis, no unit entry in lam, in a block
      differential or in a tau in use.  An entry of a column differential is
      one of a block differential, and an entry of sigma_c is lam_c[k][j]
      times a product of entries of the taus, which is a unit only if every
      factor is one; for a nonzero lam_c[k][j] of a minimal F the shifts j
      and k differ, so some block has a drop, and its tau is in use;
    * each tau in use is a chain map (``ChainMap.commutation_witness``), so
      each sigma is one;
    * position 1 of F lists the generators of I in order, so that column 1
      is generated by the L_j; deeper columns are generated by their block
      products because each block's position 0 lists its ideal's
      generators (the last step);
    * the star complex is exact: F resolves S/I on S's degree grid
      (``exactness_check``, which checks that F squares to zero first; its
      witness is then F's (position, multidegree));
    * sigma induces the scalar matrices: the position-0 column of each tau
      in use sums to 1 (``tau_augmentation_witness``), so the row-zero sums
      of a component of sigma_c are lam_c[k][j];
    * each block resolution of positive degree resolves its substitution
      ideal (``block_witness``: position 0 lists the ideal's generators,
      the maps square to zero, and a strand scan over the block's own
      variables, with the augmentation onto the ring prepended).

    Each check of a block resolution or a tau runs once per distinct
    object (``_first_keys``), not once per key: keys that share a factor
    (``Factors``) share its verdict, and a witness names the first key that
    holds the object.  That is sound because no shared factor is mutated
    in place; a factor replaced under one key by another object, such as
    the corrupted copy a test fixture puts there, is checked on its own.

    A grid of S or of a block above its scan cap skips that scan, and the
    result is then False; the checks that need no scan still run.  Where
    the total complex is assembled (``total_complex``), its diff o diff is
    checked there; the scan of the total complex itself is the
    ``total-exactness`` check of verify.check_engine_self, and the scan of
    the star complex on T's grid its ``star-acyclicity`` check.
    """
    inst = factors.instance
    res = inst.resolution
    blocks, taus = _first_keys(factors.blocks), _first_keys(factors.taus_in_use())
    if factors.hypothesis_linear:
        unit = res.unit_witness()
        if unit is not None:
            raise ConstructionError(
                "the resolution of S/I has a unit entry under the linearity hypothesis "
                "(position, (row, column))", unit)
        for (l, d), block in blocks.items():
            unit = block.unit_witness()
            if unit is not None:
                raise ConstructionError(
                    "a block resolution has a unit entry under the linearity hypothesis "
                    "(block, degree, position, (row, column))", (l, d) + unit)
        for key, tau in taus.items():
            for i, m in enumerate(tau.mats):
                unit = m.unit_entry()
                if unit is not None:
                    raise ConstructionError(
                        "a comparison map in use has a unit entry under the linearity "
                        "hypothesis (block, from, to, position, (row, column))",
                        key + (i, unit))
    for key, tau in taus.items():
        i = tau.commutation_witness()
        if i is not None:
            raise ConstructionError(
                "a comparison map in use is not a chain map (block, from, to, position)",
                key + (i,))
    j = next((j for j, (s, g) in enumerate(
        itertools.zip_longest(res.shifts[1], inst.inducing.gens)) if s != g), None)
    if j is not None:
        raise ConstructionError(
            "a column summand is not generated by its star ideal (column, summand)", (1, j))
    verified = True
    try:
        witness = exactness_check(res, inst.inducing)
    except SizeCapError:
        verified = False
    else:
        if witness is not None:
            # exactness_check reports a multidegree alone; where F does not
            # square to zero, name its position too
            raise ConstructionError("the star complex is not exact",
                                    res.square_witness() or witness)
    witness = tau_augmentation_witness(taus)
    if witness is not None:
        raise ConstructionError(
            "sigma misses the scalar matrices: a position-0 column of a comparison map "
            "in use does not sum to 1 (block, from, to, column)", witness)
    for (l, d), block in blocks.items():
        if d == 0:
            continue
        try:
            witness = block_witness(block, inst.family.at(l, d))
        except SizeCapError:
            verified = False
        else:
            if witness is not None:
                raise ConstructionError(
                    "a block resolution does not resolve its substitution ideal "
                    "(block, degree, multidegree)", (l, d, witness))
    return verified


def _first_keys(factors: dict) -> dict:
    """The items of ``factors`` whose value is no earlier item's value:
    each distinct object once, by identity, under the first key that holds
    it."""
    first: dict[int, tuple] = {}
    for key, obj in factors.items():
        first.setdefault(id(obj), (key, obj))
    return dict(first.values())


def tau_augmentation_witness(taus: dict[tuple[int, int, int], ChainMap]):
    """(block, from, to, column) of a position-0 column of one of ``taus``
    (``Factors.taus_in_use``) whose scalars do not sum to 1, or None.  A
    component of sigma_c in position 0 is lam_c[k][j] times a Kronecker
    product of these columns, so its row-zero sums are lam_c[k][j] times a
    product of column sums."""
    for key, tau in taus.items():
        m = tau.mats[0]
        col = next((c for c in range(len(m.col_shifts))
                    if sum(m.cols.get(c, {}).values()) != 1), None)
        if col is not None:
            return key + (col,)
    return None


def factored_table(factors: Factors) -> BettiTable:
    """The graded Betti table of T/L under the linearity hypothesis, read off
    the factors.  The total complex is then minimal (``certify_factors``
    rules out its unit entries), so its table is the multiset of its
    shifts: position 0 is the ring, and a shift a of F at position c
    contributes at position c + i the shifts of position i of the tensor
    product of the block resolutions at the block degrees a_l, which
    concatenate one shift per block.  Those are convolved once per degree
    tuple, as counts by shift."""
    inst = factors.instance
    res = inst.resolution
    counts: dict[tuple[int, ...], list[Counter]] = {}
    multi: Counter = Counter({(0, (0,) * inst.T.nvars): 1})
    for c in range(1, res.length + 1):
        for a, n in Counter(res.shifts[c]).items():
            if a not in counts:
                counts[a] = _tensor_shift_counts(
                    [factors.blocks[(l, d)] for l, d in enumerate(a)])
            for i, level in enumerate(counts[a]):
                for s, m in level.items():
                    multi[(c + i, s)] += n * m
    return BettiTable.of(multi)


def _tensor_shift_counts(factors: list[FreeComplex]) -> list[Counter]:
    """Per position of the tensor product of ``factors``, its shifts with
    their multiplicities: the shifts of positions i and j of two factors
    concatenate at position i + j."""
    out = [Counter(level) for level in factors[0].shifts]
    for f in factors[1:]:
        step = [Counter() for _ in range(len(out) + f.length)]
        for j, level in enumerate(f.shifts):
            right = Counter(level)
            for i, left in enumerate(out):
                acc = step[i + j]
                for a, x in left.items():
                    for b, y in right.items():
                        acc[a + b] += x * y
        out = step
    return out


# ---------------------------------------------------------------------------
# the total complex

@dataclass
class TotalComplex:
    """The total complex of the double complex of ``factors`` (made and
    certified by ``build_factors``), with its column layout.

    Column c of the double complex is the direct sum of ``summands[c]``:
    column 0 is the ring, and column c >= 1 has one summand per shift a of
    F at position c, the tensor product of the block resolutions at the
    block degrees a_l (one object per degree tuple).  Position k of
    ``complex`` lists the columns c <= k in order, row k - c of each, and a
    column lists its summands in order; so element t of column c in row i
    has index off[c + i][c] + t, where off is ``block_offsets`` of
    ``column_ranks`` (per column, the rank of each of its rows).  The
    horizontal map sigma_c of the paper is read back by ``sigma``.

    ``exactness_verified`` is read off ``factors``: False only where the
    degree grid of S (the star step) or of a block exceeds its scan cap,
    and ``gmpi gmpi`` then reports the table as uncertified."""

    factors: Factors
    complex: FreeComplex
    summands: list[list[FreeComplex]]
    column_ranks: list[list[int]]

    @property
    def exactness_verified(self) -> bool:
        return self.factors.exactness_verified

    def sigma(self, c: int, i: int) -> MonomialMatrix:
        """sigma_c in row i, for c >= 1: the block of diffs[c + i] from
        column c to column c - 1, with the sign (-1)^i of the total
        differential undone.  Its columns are those of column c in row i,
        in ascending order, and its rows those of column c - 1 in row i."""
        off, k = block_offsets(self.column_ranks), c + i
        lo, hi, top, end = off[k][c], off[k][c + 1], off[k - 1][c - 1], off[k - 1][c]
        cx, sign = self.complex, SIGNS[i % 2]
        stored, cols = cx.diffs[k].cols, {}
        for t in range(lo, hi):
            part = {r - top: sign * v for r, v in stored.get(t, {}).items() if top <= r < end}
            if part:
                cols[t - lo] = part
        return MonomialMatrix(cx.shifts[k - 1][top:end], cx.shifts[k][lo:hi], cols)

    def sigma_square_witness(self):
        """(c, i) where sigma_{c-1} o sigma_c is nonzero in row i, or None
        when the sigma maps square to zero."""
        # beyond either column's length the composite lands in (or factors
        # through) a zero module, so only the overlap needs checking
        ranks = self.column_ranks
        for c in range(2, len(ranks)):
            for i in range(min(len(ranks[c - 1]), len(ranks[c]))):
                if self.sigma(c - 1, i).first_nonzero_column(self.sigma(c, i)) is not None:
                    return c, i
        return None

    def sigma_unit_witness(self):
        """(c, i, r, col) of a unit entry of sigma_c in row i, or None when
        every sigma image lies in the graded maximal ideal."""
        ranks = self.column_ranks
        for c in range(1, len(ranks)):
            for i in range(len(ranks[c])):
                unit = self.sigma(c, i).unit_entry()
                if unit is not None:
                    return (c, i) + unit
        return None


def total_complex(factors: Factors) -> TotalComplex:
    """The total complex of the double complex of ``factors``, which
    ``build_factors`` made and certified, assembled straight into its
    anti-diagonal basis (``TotalComplex``).

    Each tensor product of block resolutions is made once per degree tuple
    and its differentials are copied once, as the vertical maps of its
    summands.  Each nonzero lam_c[k][j], c >= 2, contributes the columns
    of ``tensor_chain_map``: lam_c[k][j] times the tensor product of the
    taus (``Factors.taus``) from the block degrees of shift j at position c
    to those of shift k at position c - 1, from summand j of column c to
    summand k of column c - 1; lam_1 maps the generators of summand j of
    column 1 onto the ring.  The horizontal map is placed with the sign
    (-1)^row, so that squares anticommute and the total differential
    squares to zero; no other scalar arithmetic happens here.  A column
    lists its vertical rows, then its horizontal rows by k; a stored zero
    (of a corrupted input, a zero lam_c[k][j] among them) is left out.

    The certificate of the factors (``certify_factors``) is the
    certificate that the result resolves T/L.  This function checks only
    the map it makes: ConstructionError where the total differential does
    not square to zero (its components are the columns' diff o diff, the
    chain-map condition of each sigma and sigma o sigma), witnessed by the
    multidegree of ``square_witness``.
    """
    res, T = factors.instance.resolution, factors.instance.T
    products: dict[tuple[int, ...], FreeComplex] = {}
    summands = [[ideal_resolution(MonomialIdeal(T, ((0,) * T.nvars,)))]]
    for level in res.shifts[1:]:
        for a in level:
            if a not in products:
                products[a] = tensor_resolutions(
                    [factors.blocks[(l, d)] for l, d in enumerate(a)], T)
        summands.append([products[a] for a in level])
    ranks = [[sum(len(s.shifts[i]) for s in col if i <= s.length)
              for i in range(max(s.length for s in col) + 1)] for col in summands]
    off = block_offsets(ranks)
    # starts[k][c][j]: the first index of summand j of column c in position k
    starts = [[list(itertools.accumulate(
        (len(s.shifts[k - c]) if k - c <= s.length else 0 for s in col), initial=off[k][c]))
        for c, col in enumerate(summands[:k + 1])] for k in range(len(off))]
    shifts = [[a for c, col in enumerate(summands[:k + 1]) for s in col if k - c <= s.length
               for a in s.shifts[k - c]] for k in range(len(off))]
    # one int object per basis index, shared by every column that has it as a row
    ix = [list(range(len(level))) for level in shifts]

    out: list[dict[int, dict[int, int | Fraction]]] = [{} for _ in shifts]
    for c in range(1, len(summands)):
        lam = res.diffs[c].cols
        for j, src in enumerate(summands[c]):
            horizontal = [] if c == 1 else [
                (k, tensor_chain_map(
                    [factors.taus[(l, a, b)]
                     for l, (a, b) in enumerate(zip(res.shifts[c][j], res.shifts[c - 1][k]))],
                    scalar))
                for k, scalar in sorted(lam.get(j, {}).items())]
            for r in range(src.length + 1):
                rows, odd = ix[c + r - 1], r % 2
                part: dict[int, dict[int, int | Fraction]] = {}
                if r:
                    below = starts[c + r - 1][c][j]
                    for u, col in src.diffs[r].cols.items():
                        part[u] = {rows[below + rr]: v for rr, v in col.items() if v}
                elif c == 1 and lam.get(j, {}).get(0, 0):
                    # row zero maps the generators onto the ring
                    part = {u: {rows[0]: lam[j][0]} for u in range(len(src.shifts[0]))}
                for k, cols in horizontal:
                    below = starts[c + r - 1][c - 1][k]
                    for u, col in cols[r].items():
                        dst = part.setdefault(u, {})
                        for rr, v in col.items():
                            if v:
                                dst[rows[below + rr]] = -v if odd else v
                first = starts[c + r][c][j]
                for u in sorted(part):
                    if part[u]:
                        out[c + r][first + u] = part[u]

    diffs = [None] + [MonomialMatrix(shifts[k - 1], shifts[k], out[k])
                      for k in range(1, len(shifts))]
    cx = FreeComplex(T, shifts, diffs)
    square = cx.square_witness()
    if square is not None:
        raise ConstructionError("total differential does not square to zero", square[1])
    return TotalComplex(factors, cx, summands, ranks)


def block_witness(res: FreeComplex, I: MonomialIdeal):
    """A multidegree of the block's variables where ``res`` fails to resolve
    the ideal I, or None.

    Position 0 must list I's generators, in order.  Then ``res`` resolves I
    iff it resolves S/I with the augmentation e_j -> x^(shifts[0][j])
    prepended, an all-ones row onto the ring.  The strand scan of that
    complex checks its diff o diff first, whose first composite is the
    augmentation after diffs[1] (the column sums of diffs[1], witnessed by
    the shift of the first column that does not sum to zero), and its H_0
    rule pins the image of the augmentation to I.  SizeCapError where the
    block's degree grid exceeds the scan cap.
    """
    gens = list(I.gens)
    if res.shifts[0] != gens:
        # the first generator out of place (or the first extra basis shift)
        return next(g or s for g, s in itertools.zip_longest(gens, res.shifts[0]) if g != s)
    ring = [(0,) * res.ctx.nvars]
    augmentation = MonomialMatrix(ring, res.shifts[0], {j: {0: 1} for j in range(len(gens))})
    return exactness_check(
        FreeComplex(res.ctx, [ring] + res.shifts, [None, augmentation] + res.diffs[1:]), I)


# ---------------------------------------------------------------------------
# the Betti table of T/L

def minimal_total_table(tot: TotalComplex) -> BettiTable:
    """Betti table of the total complex after minimalization: the graded
    Betti numbers of T/L.  ``resolution_table`` reads it outside the
    linearity hypothesis, where the total complex need not be minimal."""
    cx = tot.complex
    if not cx.is_minimal:
        cx = minimalize_complex(cx)
    return betti_table(cx)


def resolution_table(factors: Factors, tot: TotalComplex | None = None) -> BettiTable:
    """The graded Betti table of T/L: ``factored_table`` under the
    linearity hypothesis, and otherwise ``minimal_total_table`` of ``tot``,
    which is assembled from the (certified) factors where it is not given."""
    if factors.hypothesis_linear:
        return factored_table(factors)
    return minimal_total_table(tot or total_complex(factors))
