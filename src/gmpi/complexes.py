"""Multigraded free complexes over a polynomial ring with rational coefficients.

A free module here is a list of multidegree shifts; a map between free modules
is multihomogeneous of degree zero, so the entry in position (r, c) is forced
to be a rational scalar times x^(col_shift - row_shift).  Only the scalar is
stored, sparsely and by column: a map (``MonomialMatrix``) is its two shift
lists and its columns ``cols``, {col: {row: scalar}}, with no zero scalar
and no empty column, the only format of a scalar map.  Every reader walks a
map column by column: composition applies the left map to each column of
the right one, lifts solve for one column at a time, the strand scans rank
the live columns as sparse vectors, and the tensor products and
``builder.total_complex`` copy each column to its block's offset in an
anti-diagonal layout (``block_offsets``).  Composition is then
plain scalar matrix multiplication, and a map is minimal exactly when no
stored scalar sits between equal shifts.  Witnesses follow the stored column
order: ``square_witness`` reads the first column whose composite is nonzero,
``unit_entry`` the first unit.

A scalar is stored as an ``int`` wherever it is integral and as a
``Fraction`` only where it has a denominator: the Taylor, Lyubeznik and
tensor complexes and their chain maps are born integral (their scalars are
signs), and a Fraction enters only through a lift solve
(``lift_chain_map``, which solves on the sparse target columns with
``linalg.solve``, the elimination of ``linalg.rank``) or a non-unit
cancellation factor.  Every operation that makes a scalar turns an
integral Fraction back into an int, so ``compose``, diff o diff and
cancellation run in ints on integral maps, and the F_2 tier of the strand
scans reads them; a map that holds a Fraction takes the exact path.

The entry point for resolutions is the Lyubeznik complex, the subcomplex of
the Taylor complex on the admissible generator subsets; Gaussian
cancellation of unit entries (the standard chain-complex reduction lemma)
turns it into the minimal resolution (``quotient_resolution`` of S/I, and
``ideal_resolution`` of I, which resolves the unit ideal by the ring
itself).  The full Taylor complex stays as the reference it is tested
against; both are checked to square to zero when they are built, and both
are capped by default at 2^``TAYLOR_CAP`` basis elements.  Both are built
on generator bitmasks: a face (generator subset) carries its mask and its
lcm, which is its shift, and its boundary rows are looked up by mask; the
Lyubeznik enumeration reads the generators dividing a candidate lcm off
per-variable divisor masks.  The cancellation keeps no state beside the matrix it
stores: it takes the smallest remaining unit (position, row, column) from a
heap of candidate pairs, the order a linear scan would give, and a popped
pair is live exactly when its entry is still stored.  Only rows and columns
at the pivot's shift can gain a unit, so only their pairs are pushed, and
only an updated scalar that is not an int is converted, so integral maps
cancel in int arithmetic.  Strand machinery restricts a complex to a
single multidegree, where exactness and homology become finite rational rank
computations.  A strand scan checks a resolution of a quotient S/I and
returns the multidegree of its first failure, or None; a resolution of an
ideal is scanned with its augmentation onto the ring prepended.

The strand scans rank over F_2 first (``linalg.rank_mod_2``, on columns
packed into ints) and keep an exact verdict.  A strand whose F_2 ranks
reach, at every positive position, the ranks an exact strand of its
dimensions must have is exact, with those ranks over Q, provided that every
scalar of its maps is an int (so rank over F_2 <= rank over Q) and that
every live column has its support in the live rows (so the strand is a
subcomplex of a complex and squares to zero).  Any other strand is ranked
again with the exact ``linalg.rank``, so the verdict and witness are the
exact ones.  Each class of cells with equal strands is decided in one pass
over its summand masks, with no cache between classes: the masks are
decoded into live indices, and the support test, the F_2 rank and any
exact rank read them.

A map is checked (``validate``) where its scalars are made: the Taylor and
Lyubeznik complexes (``_subset_complex``), ``minimalize_complex`` and
``lift_chain_map``.  Nothing walks a copy of a checked map again:
``ideal_resolution`` shares the maps of the resolution of S/I, the tensor
products place signs of checked entries unchecked, and the tensor products
of chain maps (``tensor_chain_map``, which returns the columns of a scalar
times the product, not a chain map) place products of them.  Their diff o
diff and chain-map conditions follow from those of their factors, which
``builder.certify_factors`` checks, and where ``builder.total_complex``
places them (each product once per degree tuple, each chain-map product
once per nonzero scalar of the resolution of S/I, straight into the total
complex) they are components of its diff o diff, which that function
checks.

A broken construction invariant raises ConstructionError with a witness;
malformed hand-built maps (stored zeros or empty columns, inhomogeneous
entries, wrong shapes, a nonzero square) raise ValueError from the
validators.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import and_, getitem, le

from . import linalg
from .monomials import MonomialIdeal, VariableContext, _below_masks, divides, lcm, total_degree


class SizeCapError(ValueError):
    """Raised when a construction would exceed its configured size cap."""


class ConstructionError(RuntimeError):
    """A construction invariant failed; ``witness`` locates the failure (for
    the exactness scan, a multidegree at which the strand is not exact)."""

    def __init__(self, message: str, witness):
        super().__init__(f"{message} at {witness}")
        self.witness = witness


SIGNS = (1, -1)   # SIGNS[j % 2] == (-1) ** j


def _integral(v):
    """The scalar v (an int or a Fraction) as an int where it is integral."""
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


@dataclass
class MonomialMatrix:
    """Degree-zero multihomogeneous map between shifted free modules: its
    row and column shift lists and its columns.

    ``cols[c][r]`` is the scalar of the term
    scalar * x^(col_shifts[c] - row_shifts[r]); the difference must be
    componentwise nonnegative wherever a scalar is stored.  A zero column
    is not stored, and neither is a zero scalar.
    """

    row_shifts: list[tuple[int, ...]]
    col_shifts: list[tuple[int, ...]]
    cols: dict[int, dict[int, int | Fraction]] = field(default_factory=dict)

    def validate(self) -> None:
        rs, cs = self.row_shifts, self.col_shifts
        for c, col in self.cols.items():
            if not col:
                raise ValueError(f"stored empty column {c}")
            for r, v in col.items():
                if not v:
                    raise ValueError(f"stored zero scalar at {(r, c)}")
                if not all(map(le, rs[r], cs[c])):
                    raise ValueError(
                        f"inhomogeneous entry at {(r, c)}: {cs[c]} - {rs[r]}")

    def compose(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """self o other (other feeds into self), with the columns of other
        in their stored order: ``_apply`` of self to each column of other,
        in the scalars as stored, with a nonzero sum that is not an int
        turned back into an int where it is integral.  ValueError naming the
        (row, col) of a scalar of either operand that is neither an int nor
        a Fraction."""
        if self.col_shifts != other.row_shifts:
            raise ValueError("inner shifts disagree in composition")
        for m in (self, other):
            if not all(type(v) is int for col in m.cols.values() for v in col.values()):
                linalg._check_exact(((r, c), v)
                                    for c, col in m.cols.items() for r, v in col.items())
        out = {}
        for c, col in other.cols.items():
            prod = {r: v if type(v) is int else _integral(v)
                    for r, v in _apply(self.cols, col).items() if v}
            if prod:
                out[c] = prod
        return MonomialMatrix(self.row_shifts, other.col_shifts, out)

    def first_nonzero_column(self, other: "MonomialMatrix") -> int | None:
        """The first column of other, in stored order, whose image under
        self is nonzero, or None when self o other is zero.  The product is
        formed one column at a time, in the scalars as stored, and none of
        it is kept."""
        if self.col_shifts != other.row_shifts:
            raise ValueError("inner shifts disagree in composition")
        return next((c for c, col in other.cols.items()
                     if any(_apply(self.cols, col).values())), None)

    def unit_entry(self) -> tuple[int, int] | None:
        """The first stored (row, col) between equal shifts, in column
        order, or None."""
        rs, cs = self.row_shifts, self.col_shifts
        return next(((r, c) for c, col in self.cols.items() for r in col if rs[r] == cs[c]),
                    None)


def _apply(cols: dict, vector: dict) -> dict:
    """sum_k vector[k] * cols[k] as {row: sum}, zero sums included: the
    image of the sparse vector {k: scalar} under the map with columns
    ``cols``."""
    acc: dict[int, int | Fraction] = {}
    get = acc.get
    for k, w in vector.items():
        col = cols.get(k)
        if col:
            for r, v in col.items():
                acc[r] = get(r, 0) + v * w
    return acc


@dataclass
class FreeComplex:
    """Complex of shifted free modules, positions 0..p, diff[i]: i -> i-1."""

    ctx: VariableContext
    shifts: list[list[tuple[int, ...]]]
    diffs: list[MonomialMatrix | None]  # diffs[0] is None

    @property
    def length(self) -> int:
        return len(self.shifts) - 1

    @property
    def ranks(self) -> list[int]:
        return [len(s) for s in self.shifts]

    def validate(self) -> None:
        """Shapes, homogeneity and diff o diff = 0."""
        if self.diffs[0] is not None or len(self.diffs) != len(self.shifts):
            raise ConstructionError(
                "differentials do not match the positions (count, positions)",
                (len(self.diffs), len(self.shifts)))
        for i in range(1, len(self.shifts)):
            d = self.diffs[i]
            if d.row_shifts != self.shifts[i - 1] or d.col_shifts != self.shifts[i]:
                raise ValueError(f"differential {i} does not match the shift lists")
            d.validate()
        square = self.square_witness()
        if square is not None:
            raise ValueError(f"diff o diff != 0 at position {square[0]}")

    def square_witness(self) -> tuple[int, tuple[int, ...]] | None:
        """(position i, multidegree) for the lowest i where diff[i-1] o
        diff[i] is nonzero, the multidegree being the shift of the first
        column of diff[i], in stored order, with a nonzero composite; or
        None if the differentials square to zero.  No composite is built
        (``MonomialMatrix.first_nonzero_column``)."""
        for i in range(2, len(self.diffs)):
            c = self.diffs[i - 1].first_nonzero_column(self.diffs[i])
            if c is not None:
                return i, self.diffs[i].col_shifts[c]
        return None

    def unit_witness(self) -> tuple[int, tuple[int, int]] | None:
        """(position, (row, col)) of the first unit entry, or None."""
        for i in range(1, len(self.shifts)):
            unit = self.diffs[i].unit_entry()
            if unit is not None:
                return i, unit
        return None

    @property
    def is_minimal(self) -> bool:
        return self.unit_witness() is None


def make_complex(ctx, shifts, diffs) -> FreeComplex:
    c = FreeComplex(ctx, shifts, diffs)
    c.validate()
    return c


# ---------------------------------------------------------------------------
# Taylor and Lyubeznik complexes

# the default size cap of the resolutions and oracles, as a Taylor exponent:
# at most 2^TAYLOR_CAP basis elements, the size of the Taylor complex on
# TAYLOR_CAP generators
TAYLOR_CAP = 14


def taylor_complex(I: MonomialIdeal, cap: int = TAYLOR_CAP) -> FreeComplex:
    """Taylor resolution of S/I: position k is spanned by k-subsets of G(I).

    ``cap`` bounds the number of generators (2^cap basis elements)."""
    if I.is_zero or I.is_unit:
        raise ValueError("Taylor complex needs a nonzero proper ideal")
    gens = I.gens
    k = len(gens)
    if k > cap:
        raise SizeCapError(f"{k} generators exceed the Taylor cap {cap}")
    # extending each subset by every larger index keeps the levels in
    # lexicographic order
    levels = [[((), 0, (0,) * I.ctx.nvars)]]
    for _ in range(k):
        levels.append([(face + (j,), mask | 1 << j, lcm(shift, gens[j]))
                       for face, mask, shift in levels[-1]
                       for j in range(face[-1] + 1 if face else 0, k)])
    return _subset_complex(I.ctx, levels)


def lyubeznik_complex(I: MonomialIdeal, cap: int = 1 << TAYLOR_CAP) -> FreeComplex:
    """Lyubeznik resolution of S/I (Lyubeznik 1988) for the generator order
    m_0, ..., m_{k-1} of I.gens.

    It is the subcomplex of the Taylor complex on the admissible subsets
    i_1 < ... < i_s: no m_q with q < i_t divides the lcm of the tail
    m_{i_t}, ..., m_{i_s}, for any t.  A subset is admissible iff its tail
    from i_2 is and m_{i_1} is the first generator dividing its lcm, so the
    levels grow by prepending smaller indices to the admissible subsets one
    level down.  The generators dividing an lcm m are read off bitmasks (bit
    q for m_q): per variable, a table from each exponent that occurs among
    the generators to the mask of the generators with at most that exponent
    there, so the divisors of m are the AND of the masks at m's exponents
    (which all occur), and (i,) + tail is admissible iff that AND has no bit
    below i.  Prepending i to the admissible tails whose first index exceeds
    it, for i = 0, 1, ..., lists each level in the lexicographic order the
    Taylor complex uses.  Each subset keeps its lcm, which becomes its
    shift.  ``cap`` bounds the number of basis elements, counted while the
    levels are enumerated and before any matrix is built.
    """
    if I.is_zero or I.is_unit:
        raise ValueError("Lyubeznik complex needs a nonzero proper ideal")
    gens = I.gens
    k = len(gens)
    divisors = []
    for t in range(I.ctx.nvars):
        values = sorted({g[t] for g in gens})
        divisors.append(dict(zip(values, _below_masks(gens, t, values))))

    levels = [[((), 0, (0,) * I.ctx.nvars)], [((i,), 1 << i, g) for i, g in enumerate(gens)]]
    size = 1 + k
    while levels[-1] and size <= cap:
        tails, level = levels[-1], []
        start = 0
        for i in range(k):
            # the tails whose first index exceeds i: a suffix, as tails is sorted
            while start < len(tails) and tails[start][0][0] <= i:
                start += 1
            if start == len(tails):
                break
            gi, bit, before = gens[i], 1 << i, (1 << i) - 1
            for tail, mask, below in itertools.islice(tails, start, None):
                m = tuple(map(max, gi, below))   # lcm, inlined in the hot loop
                if not functools.reduce(and_, map(getitem, divisors, m), before):
                    level.append(((i,) + tail, mask | bit, m))
            if size + len(level) > cap:
                break
        size += len(level)
        levels.append(level)
    if size > cap:
        raise SizeCapError(
            f"the Lyubeznik complex of {k} generators exceeds the cap of {cap} basis elements")
    return _subset_complex(I.ctx, levels[:-1])


def _subset_complex(ctx: VariableContext, levels) -> FreeComplex:
    """The subcomplex of a Taylor complex on ``levels[s]``, lists of faces
    (subset, mask, lcm) of s-subsets of generator indices: the sorted
    tuple, its bitmask (bit q for index q) and the lcm of its generators,
    which is its shift.  The levels are closed under removing an element;
    the boundary of a subset is sum_j (-1)^j (it without element j), whose
    row is looked up by its mask.  Checked to square to zero."""
    shifts = [[shift for _, _, shift in level] for level in levels]
    signs = SIGNS * (len(levels) // 2 + 1)
    diffs: list[MonomialMatrix | None] = [None]
    below = {0: 0}
    for size in range(1, len(levels)):
        index: dict[int, int] = {}
        cols: dict[int, dict[int, int | Fraction]] = {}
        for c, (face, mask, _) in enumerate(levels[size]):
            index[mask] = c
            cols[c] = {below[mask ^ 1 << q]: sign for q, sign in zip(face, signs)}
        diffs.append(MonomialMatrix(shifts[size - 1], shifts[size], cols))
        below = index
    return make_complex(ctx, shifts, diffs)


# ---------------------------------------------------------------------------
# minimalization by unit-entry cancellation

def minimalize_complex(C: FreeComplex) -> FreeComplex:
    """Homotopy-equivalent complex with no unit entries.

    Cancels unit entries (nonzero scalar between equal shifts) by the Gaussian
    elimination lemma: cancelling (r, c) in diff[i] drops basis element c of
    position i and r of position i-1, updates diff[i] by
    e(r',c') -= e(r',c) e(r,c') / e(r,c), drops row c of diff[i+1] and column
    r of diff[i-1].  The factor e(r',c) / e(r,c) is an exact int division
    where e(r,c) divides e(r',c) (always for a +-1 unit) and a Fraction
    otherwise, and each updated entry that is not an int is turned back into
    an int where it is integral, so integral maps cancel in int arithmetic.
    Scan order: lowest position first, then lexicographic
    (row, col); the resulting Betti numbers are order-independent.  The
    stored matrix is the only state of a pass: a heap holds candidate pairs
    between equal shifts, and a popped pair is a live unit exactly when its
    entry is still stored, so each step takes the smallest live unit.
    Cancelling a unit at shift b changes only entries (r', c') with
    shift(r') <= b <= shift(c'), so a pair is pushed only when an update
    stores an entry that was zero between a row and a column both at shift
    b; those pairs are larger than the pivot.
    """
    p = C.length
    alive = [set(range(len(C.shifts[i]))) for i in range(p + 1)]
    final_cols: list[dict[int, dict[int, int | Fraction]] | None] = [None] * (p + 1)

    for i in range(1, p + 1):
        rows: dict[int, dict[int, int | Fraction]] = {}
        cols: dict[int, dict[int, int | Fraction]] = {}
        heap: list[tuple[int, int]] = []
        rsh, csh = C.shifts[i - 1], C.shifts[i]
        # position i loses no basis element before its own pass, so only the
        # rows need the liveness test
        live_rows = alive[i - 1]
        for c, col in C.diffs[i].cols.items():
            for r, v in col.items():
                if r in live_rows:
                    rows.setdefault(r, {})[c] = v
                    cols.setdefault(c, {})[r] = v
                    if rsh[r] == csh[c]:
                        heap.append((r, c))
        heapq.heapify(heap)

        while heap:
            r0, c0 = heapq.heappop(heap)
            if c0 not in rows.get(r0, ()):
                continue
            pivot_row, pivot_col = rows.pop(r0), cols.pop(c0)
            u = pivot_row.pop(c0)
            del pivot_col[r0]
            b = csh[c0]
            at_b = {c for c in pivot_row if csh[c] == b}
            # every other row meeting column c0 and every other column meeting
            # row r0 exist, so the updates index rows and cols directly
            for r, vc in pivot_col.items():
                row = rows[r]
                del row[c0]
                candidates = at_b if rsh[r] == b else ()
                if type(vc) is int and type(u) is int and not vc % u:
                    factor = vc // u
                else:
                    factor = _integral(Fraction(vc) / u)
                for c, vr in pivot_row.items():
                    v = row.get(c, 0) - factor * vr
                    if type(v) is not int:
                        v = _integral(v)
                    if v:
                        if c in candidates and c not in row:
                            heapq.heappush(heap, (r, c))
                        row[c] = v
                        cols[c][r] = v
                    else:
                        # factor and vr are nonzero, so only a stored entry
                        # can cancel to zero
                        del row[c]
                        del cols[c][r]
            for c in pivot_row:
                del cols[c][r0]
            alive[i - 1].discard(r0)
            alive[i].discard(c0)
        final_cols[i] = cols

    # compact to fresh index ranges, columns in ascending order; the pass at
    # position i + 1 may drop columns of position i, but none of its rows
    kept = [sorted(a) for a in alive]
    new_index = [{old: new for new, old in enumerate(k)} for k in kept]
    shifts = [[C.shifts[i][old] for old in kept[i]] for i in range(p + 1)]
    diffs: list[MonomialMatrix | None] = [None]
    for i in range(1, p + 1):
        rows_at, by_col = new_index[i - 1], final_cols[i]
        cols = {new: {rows_at[r]: v for r, v in by_col[old].items()}
                for new, old in enumerate(kept[i]) if by_col.get(old)}
        diffs.append(MonomialMatrix(shifts[i - 1], shifts[i], cols))

    while len(shifts) > 1 and not shifts[-1]:
        shifts.pop()
        diffs.pop()

    out = FreeComplex(C.ctx, shifts, diffs)
    out.validate()
    unit = out.unit_witness()
    if unit is not None:
        raise ConstructionError("minimalized complex keeps a unit entry", unit)
    return out


def quotient_resolution(I: MonomialIdeal, cap: int = 1 << TAYLOR_CAP) -> FreeComplex:
    """Minimal resolution of S/I: the minimalized Lyubeznik complex, whose
    ``cap`` bounds the basis (SizeCapError beyond it).

    Basis element j of position 1 maps to the j-th generator of I.gens: the
    Lyubeznik complex lists the generators there in that order, and no unit
    entry reaches position 1, since the lcm of two distinct minimal
    generators is no generator, so cancelling only ever drops positions 2
    and up.  The first map is the all-ones row of the Lyubeznik complex
    unchanged: position 0 has the shift 0 and no generator of a proper
    ideal is 1, so no unit lies between positions 0 and 1, and a
    cancellation rewrites scalars only of the map its unit lies in."""
    return minimalize_complex(lyubeznik_complex(I, cap))


def ideal_resolution(I: MonomialIdeal) -> FreeComplex:
    """Minimal resolution of the ideal I itself (position 0 = its generators).

    The unit ideal is the ring, free on its one generator, so its
    resolution is that rank-one module, of length zero.  Otherwise it is
    the minimal resolution of S/I without its position zero, so basis
    element j of position 0 maps to the j-th generator under the
    augmentation e_j -> x^shift.  It shares its shift lists and maps with
    that resolution, which ``minimalize_complex`` has checked; nothing is
    copied or checked again.
    """
    if I.is_unit:
        return FreeComplex(I.ctx, [list(I.gens)], [None])
    quot = quotient_resolution(I)
    return FreeComplex(quot.ctx, quot.shifts[1:], [None] + quot.diffs[2:])


# ---------------------------------------------------------------------------
# the scalar complex

def inexact_positions(C: FreeComplex) -> list[int]:
    """Positions where the scalar complex 0 -> K^{b_p} -> ... -> K^{b_1} -> K -> 0
    of the minimal complex C is not exact.

    Its maps are the scalar matrices lam_i of the differentials.  Exactness at
    position i is the rank balance rank(lam_i) + rank(lam_{i+1}) = C.ranks[i],
    treating the maps off both ends as zero; the complex is exact iff the list
    is empty.  ValueError if C is not minimal.
    """
    if not C.is_minimal:
        raise ValueError("scalar matrices are only defined for a minimal complex")
    rk = [0] + [
        linalg.rank(list(C.diffs[i].cols.values())) for i in range(1, C.length + 1)] + [0]
    return [i for i, n in enumerate(C.ranks) if rk[i] + rk[i + 1] != n]


# ---------------------------------------------------------------------------
# strands and exactness

def degree_grid(shift_levels: list[list[tuple[int, ...]]], nvars: int):
    """Axes of distinct per-coordinate values among the shifts (plus zero).

    Strand isomorphism classes are constant between consecutive values of each
    coordinate, so scanning this grid covers the whole box [0, max shifts].
    """
    axes = []
    for c in range(nvars):
        vals = {0}
        for level in shift_levels:
            vals.update(s[c] for s in level)
        axes.append(sorted(vals))
    return axes


def grid_size(axes) -> int:
    n = 1
    for a in axes:
        n *= len(a)
    return n


def exactness_check(C: FreeComplex, expect_h0: MonomialIdeal, max_cells: int = 200_000):
    """A multidegree where C fails to resolve S/expect_h0, or None.

    For every multidegree b of the finite degree grid, homology must vanish
    in positive positions and H_0 must be one-dimensional iff x^b is not in
    ``expect_h0``.  The witness is the multidegree of ``square_witness``
    where diff o diff is nonzero, else the first failing cell in grid order.
    SizeCapError where the grid exceeds ``max_cells``.
    """
    # the strand rank arithmetic presumes an actual complex; a corrupted
    # differential must surface here, witnessed by the offending multidegree
    square = C.square_witness()
    if square is not None:
        return square[1]
    summands = [[(s,) for s in level] for level in C.shifts]
    return _strand_scan(summands, C.diffs, expect_h0, max_cells)


def _strand_scan(summands, diffs, expect_h0: MonomialIdeal, max_cells: int):
    """Strand-exactness of a complex of direct sums of monomial ideals.

    ``summands[i][j]`` lists the generators of summand j at position i (one
    shift for a free module), so its strand at b is one-dimensional iff x^b
    lies in that ideal; ``diffs[i]`` is the map from position i to position
    i-1 (``diffs[0]`` is not read), and the caller guarantees that these
    maps square to zero.  Scans the degree grid of all the
    generators and of ``expect_h0``, with the H_0 rule of exactness_check.
    Returns the first failing cell in grid order, or None.

    Each strand map D_i is the live columns restricted to the live rows.
    A strand of dimensions n_0, ..., n_p is exact at every positive position
    iff rank D_i = e_i, the ranks an exact strand must have: e_(p+1) = 0 and
    e_i = n_i - e_(i+1).  A cell is first ranked over F_2
    (``linalg.rank_mod_2``, stopping once it has e_i pivots), and that
    certifies it exactly under two preconditions:

    * every scalar of the maps is an int (each map is reduced once; a map
      that holds a Fraction is never ranked over F_2), so that
      rank over Q >= rank over F_2;
    * every live column has its support inside the live rows, so that the
      strand is a subcomplex and squares to zero too.  Each column's
      support is packed into an int like its odd rows, so this reads
      support & ~rows == 0 against the class's row mask.

    Then rank_2 D_i >= e_i at every positive position gives rank_Q D_i = e_i:
    rank_Q D_i >= e_i, and from the top down rank_Q D_i <= n_i - e_(i+1) = e_i
    since the image of D_(i+1) lies in the kernel of D_i.  So the strand is
    exact at every positive position and the H_0 rule reads
    H_0 = n_0 - e_1.  Any other cell (an F_2 rank below e_i, or a
    precondition fails) is ranked again with the exact ``linalg.rank``,
    which decides it, so verdict and witness are those of exact ranks
    everywhere.

    The grid is read as Python int bitmasks (``_strand_classes``): each
    cell's class is the bitmask of its live summands at every position plus
    its membership in ``expect_h0``.  Cells of one class have the same
    strand, so each class is decided once, in the order of its first cell,
    in one pass that keeps nothing from the classes before it: each
    position's summand mask is decoded into its live indices, whose count
    is the dimension and which both the support test and the rank read.
    """
    # membership of the expected H_0 must jump on the grid too
    levels = [[g for gens in level for g in gens] for level in summands]
    axes = degree_grid(levels + [list(expect_h0.gens)], expect_h0.ctx.nvars)
    ncells = grid_size(axes)
    if ncells > max_cells:
        raise SizeCapError(f"degree grid has {ncells} cells (cap {max_cells})")
    first = _strand_classes(summands, expect_h0, axes)
    reduced = [None] + [_map_mod_2(d.cols) for d in diffs[1:]]
    positions = list(range(max(map(len, summands))))
    p = len(summands) - 1
    positive = range(1, p + 1)
    for cls, cell in first.items():
        live = [_bit_indices(mask, positions) for mask in cls[:-1]]
        dims = [len(cols) for cols in live]
        # the ranks of an exact strand, from the top position down
        want = [0] * (p + 2)
        for i in reversed(positive):
            want[i] = dims[i] - want[i + 1]
        ranks = [0] + [_strand_rank_mod_2(reduced[i], cls[i - 1], live[i], want[i])
                       for i in positive] + [0]
        if ranks != want:
            ranks = [0] + [_strand_rank(diffs[i].cols, live[i - 1], live[i])
                           for i in positive] + [0]
        exact = all(dims[i] == ranks[i] + ranks[i + 1] for i in positive)
        if not exact or dims[0] - ranks[1] != (0 if cls[-1] else 1):
            return next(itertools.islice(itertools.product(*axes), cell, None))
    return None


def _strand_rank_mod_2(reduced, rows: int, cols: list[int], want: int) -> int | None:
    """min(rank over F_2, ``want``) of the strand map with live row mask
    ``rows`` and live columns ``cols``, from its map's ``_map_mod_2``; None
    where a precondition fails (a scalar that is not an int, or a live
    column with support outside the live rows).  Where both hold, the rank
    depends on the live columns alone."""
    if reduced is None:
        return None
    odd, support = reduced
    dead = ~rows
    if any(support[c] & dead for c in cols if c in support):
        return None
    return linalg.rank_mod_2([odd[c] for c in cols if c in odd], want) if want > 0 else 0


def _strand_rank(columns: dict, rows: list[int], cols: list[int]) -> int:
    """Rank over Q of the strand map made of the live columns ``cols`` of
    ``columns`` ({col: {row: scalar}}), restricted to the live rows."""
    live_rows = set(rows)
    return linalg.rank([{r: v for r, v in columns[c].items() if r in live_rows}
                        for c in cols if c in columns])


def _strand_classes(summands, expect_h0: MonomialIdeal, axes) -> dict[tuple[int, ...], int]:
    """{class: its first cell} over the cells of ``itertools.product(*axes)``,
    in order of first cell, with the classes of ``_cell_classifier``.  Cells
    with the same generators dividing x^b share a class, so each distinct
    generator mask (``_cell_masks``) is classified once."""
    gens, classify = _cell_classifier(summands, expect_h0)
    first_by_mask: dict[int, int] = {}
    for cell, mask in enumerate(_cell_masks(gens, axes)):
        first_by_mask.setdefault(mask, cell)
    first: dict[tuple[int, ...], int] = {}
    for mask, cell in first_by_mask.items():
        first.setdefault(classify(mask), cell)
    return first


def _cell_classifier(summands, expect_h0: MonomialIdeal):
    """(gens, classify): every generator of ``summands``, position by
    position, then those of ``expect_h0``, so that generator j is bit j of a
    generator mask; and the function from the generator mask of a cell b
    (the generators dividing x^b) to the class of b.

    The class holds, per position i, the bitmask of the summands of
    ``summands[i]`` whose ideal contains x^b (bit j for summand j), then 1
    if x^b lies in ``expect_h0`` and 0 if not.  A position whose summands
    have one generator each reads its summand mask straight off the
    generator mask; any other position folds its part of the generator mask
    into a summand mask, one bit per summand that part meets, on every call.
    """
    gens, parts = [], []
    for level in [*summands, [expect_h0.gens]]:
        offset = len(gens)
        groups = []
        for j, ideal_gens in enumerate(level):
            groups.append((((1 << len(ideal_gens)) - 1) << (len(gens) - offset), 1 << j))
            gens.extend(ideal_gens)
        single = all(len(ideal_gens) == 1 for ideal_gens in level)
        parts.append((offset, (1 << (len(gens) - offset)) - 1, None if single else groups))

    def classify(mask: int) -> tuple[int, ...]:
        key = []
        for offset, full, groups in parts:
            part = (mask >> offset) & full
            if groups is not None:
                part = sum(bit for g, bit in groups if part & g)
            key.append(part)
        return tuple(key)

    return gens, classify


def _cell_masks(gens, axes) -> list[int]:
    """Per cell b of ``itertools.product(*axes)``, in that order, the bitmask
    of the generators dividing x^b (bit j for ``gens[j]``): the running
    product, coordinate by coordinate, of the masks of ``_below_masks``."""
    masks = [(1 << len(gens)) - 1]
    for k, axis in enumerate(axes):
        below = _below_masks(gens, k, axis)
        masks = [m & w for m in masks for w in below]
    return masks


# maps the binary digits of an int to the selectors of itertools.compress
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_indices(mask: int, positions: list[int]) -> list[int]:
    """The positions of the set bits of ``mask``, ascending; ``positions``
    is ``list(range(n))`` for some n >= ``mask.bit_length()``."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS)
    return list(itertools.compress(positions, bits))


def _map_mod_2(columns: dict[int, dict[int, int | Fraction]]):
    """(odd, support): per column, its odd rows (``linalg.mod_2``) and its
    rows, each packed into an int with bit r for row r; None if a scalar of
    the map is not an int."""
    odd, support = {}, {}
    for c, col in columns.items():
        red = linalg.mod_2(col)
        if red is None:
            return None
        odd[c] = red
        support[c] = sum(1 << r for r in col)
    return odd, support


def euler_characteristics(C: FreeComplex, points) -> list[int]:
    """Alternating sum of strand dimensions (dimensions only) at each degree
    of ``points``.  The shifts of even positions take the low bits of one
    mask and those of odd positions the high bits; per point, the
    per-coordinate masks of ``_below_masks`` are ANDed and each half is
    counted."""
    even = [s for i, level in enumerate(C.shifts) if i % 2 == 0 for s in level]
    shifts = even + [s for i, level in enumerate(C.shifts) if i % 2 for s in level]
    below = []
    for k in range(C.ctx.nvars):
        values = sorted({b[k] for b in points})
        below.append(dict(zip(values, _below_masks(shifts, k, values))))
    low = (1 << len(even)) - 1
    out = []
    for b in points:
        mask = (1 << len(shifts)) - 1
        for k, v in enumerate(b):
            mask &= below[k][v]
        out.append((mask & low).bit_count() - (mask >> len(even)).bit_count())
    return out


# ---------------------------------------------------------------------------
# Betti tables and invariants

@dataclass
class BettiTable:
    """Ranks beta_{k,j} by (homological degree, total degree), with the
    multigraded refinement beta_{k,b} alongside."""

    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    multi: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict)

    @classmethod
    def of(cls, multi) -> "BettiTable":
        """The table of the multigraded counts {(k, b): beta_{k,b}}, with
        the graded counts summed from them."""
        entries: Counter = Counter()
        for (k, b), m in multi.items():
            entries[(k, total_degree(b))] += m
        return cls(dict(entries), dict(multi))

    def to_json(self):
        return {
            "entries": [[k, j, v] for (k, j), v in sorted(self.entries.items())],
            "multigraded": [[k, list(b), v] for (k, b), v in sorted(self.multi.items())],
        }

    def triangle(self) -> str:
        """Conventional triangle layout: row = j - k, column = k."""
        if not self.entries:
            return "(zero table)"
        pmax = projective_dimension(self)
        rows = range(0, max(j - k for (k, j) in self.entries) + 1)
        width = max(len(str(v)) for v in self.entries.values()) + 2
        lines = ["    " + "".join(f"{k:>{width}}" for k in range(pmax + 1))]
        for r in rows:
            cells = []
            for k in range(pmax + 1):
                v = self.entries.get((k, k + r), 0)
                cells.append(f"{v if v else '.':>{width}}")
            lines.append(f"{r:>3}:" + "".join(cells))
        return "\n".join(lines)


def betti_table(C: FreeComplex) -> BettiTable:
    if not C.is_minimal:
        raise ValueError("Betti numbers read off a minimal complex only")
    return BettiTable.of(Counter((k, s) for k, level in enumerate(C.shifts) for s in level))


def regularity(B: BettiTable) -> int:
    """Castelnuovo-Mumford regularity of the ideal I from the table of S/I,
    reindexed by beta_k(I) = beta_{k+1}(S/I): the largest j - (k - 1) over
    the nonzero entries (k, j) with k >= 1."""
    vals = [j - (k - 1) for (k, j), v in B.entries.items() if v and k]
    if not vals:
        raise ValueError("empty Betti table")
    return max(vals)


def projective_dimension(B: BettiTable) -> int:
    """The top homological position of the table (0 for an empty one): the
    projective dimension of the module it resolves."""
    return max((k for (k, _) in B.entries), default=0)


def is_linear_resolution(B: BettiTable, d: int) -> bool:
    """True iff the ideal I resolved by the table of S/I has a linear
    resolution from degree d: every nonzero entry (k, j) with k >= 1, at
    position k - 1 of I's resolution, has j = d + k - 1."""
    return all(j == d + k - 1 for (k, j), v in B.entries.items() if v and k)


# ---------------------------------------------------------------------------
# chain maps

@dataclass
class ChainMap:
    """Degree-zero chain map; mats[i] : source position i -> target position i."""

    source: FreeComplex
    target: FreeComplex
    mats: list[MonomialMatrix]

    def validate(self) -> None:
        """Shapes, homogeneity and commutation with the differentials
        (``commutation_witness``)."""
        if len(self.mats) != self.source.length + 1:
            raise ConstructionError(
                "chain map components do not match the source positions (components, positions)",
                (len(self.mats), self.source.length + 1))
        for i, m in enumerate(self.mats):
            tgt_shifts = self.target.shifts[i] if i <= self.target.length else []
            if m.col_shifts != self.source.shifts[i] or m.row_shifts != tgt_shifts:
                raise ValueError(f"chain map shapes wrong at position {i}")
            m.validate()
        i = self.commutation_witness()
        if i is not None:
            raise ValueError(f"chain map does not commute at position {i}")

    def commutation_witness(self) -> int | None:
        """The lowest position i where mats[i - 1] o d_i and d_i o mats[i]
        differ, column by column (neither stores a zero, so equal columns
        are equal maps), or None for a chain map."""
        for i in range(1, self.source.length + 1):
            rhs = self.mats[i - 1].compose(self.source.diffs[i]).cols
            lhs = (self.target.diffs[i].compose(self.mats[i]).cols
                   if i <= self.target.length else {})
            if lhs != rhs:
                return i
        return None

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (zero through positions missing in the middle)."""
        if other.target is not self.source and other.target.shifts != self.source.shifts:
            i = next(i for i, (a, b) in enumerate(
                itertools.zip_longest(other.target.shifts, self.source.shifts)) if a != b)
            raise ConstructionError("chain maps do not compose: the middle complexes differ", i)
        mats = []
        for i, m in enumerate(other.mats):
            if i <= self.source.length:
                mats.append(self.mats[i].compose(m))
            else:
                rows = self.target.shifts[i] if i <= self.target.length else []
                mats.append(MonomialMatrix(list(rows), list(m.col_shifts)))
        return ChainMap(other.source, self.target, mats)


def identity_chain_map(C: FreeComplex) -> ChainMap:
    mats = []
    for level in C.shifts:
        mats.append(MonomialMatrix(
            list(level), list(level), {j: {j: 1} for j in range(len(level))}))
    return ChainMap(C, C, mats)


def lift_chain_map(source: FreeComplex, target: FreeComplex) -> ChainMap:
    """Chain map between ideal resolutions extending an inclusion of ideals.

    Position-zero basis elements are the ideals' generators; each source
    generator g goes to (g / h) * e_h for the first target generator h
    dividing g (smallest index in the canonical order).  Higher positions are
    solved strandwise: the image of a basis element of shift b is solved
    for over the target columns whose shifts divide b (``linalg.solve``,
    which puts a solution on the first independent columns and zero on the
    rest, so it is deterministic where several exist).
    """
    mats = []
    phi0 = MonomialMatrix(list(target.shifts[0]), list(source.shifts[0]), {})
    for j, g in enumerate(source.shifts[0]):
        k = next((i for i, h in enumerate(target.shifts[0]) if divides(h, g)), None)
        if k is None:
            raise ValueError(f"source generator {g} is not in the target ideal")
        phi0.cols[j] = {k: 1}
    mats.append(phi0)

    for i in range(1, source.length + 1):
        tgt_shifts = target.shifts[i] if i <= target.length else []
        prev_shifts = target.shifts[i - 1] if i - 1 <= target.length else []
        phi = MonomialMatrix(list(tgt_shifts), list(source.shifts[i]), {})
        # target position i-1 <- source position i
        v_cols = mats[i - 1].compose(source.diffs[i]).cols
        t_cols = target.diffs[i].cols if tgt_shifts else {}
        for j, b in enumerate(source.shifts[i]):
            vcol = v_cols.get(j, {})
            stray = next((r for r in vcol if not divides(prev_shifts[r], b)), None)
            if stray is not None:
                raise ConstructionError(
                    "homogeneity violated in lift (position, source basis, target row)",
                    (i, j, stray))
            cols = [c for c, s in enumerate(tgt_shifts) if divides(s, b)]
            if not cols:
                if vcol:
                    raise ConstructionError(
                        "lift hits a zero target position with a nonzero image "
                        "(position, source basis index)", (i, j))
                continue
            y = linalg.solve([t_cols.get(c, {}) for c in cols], vcol)
            if y is None:
                raise ConstructionError(
                    "lift system unsolvable, so the target is not a resolution "
                    "(position, source basis index)", (i, j))
            if y:
                phi.cols[j] = {cols[k]: val for k, val in y.items()}
        mats.append(phi)

    out = ChainMap(source, target, mats)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# tensor products

def block_offsets(sizes: list[list[int]]) -> list[list[int]]:
    """A grid of blocks laid out along its anti-diagonals: block (i, j) has
    rank sizes[i][j] (none outside the grid), and anti-diagonal k lists the
    blocks (i, k - i) in order of i.  off[k][i] is the first index of block
    (i, k - i) within it, and off[k][len(sizes)] the rank of anti-diagonal k."""
    top = max((i + len(row) for i, row in enumerate(sizes)), default=0)
    return [list(itertools.accumulate(
        (row[k - i] if 0 <= k - i < len(row) else 0 for i, row in enumerate(sizes)),
        initial=0)) for k in range(top)]


def _pair_offsets(a: list[int], b: list[int]) -> list[list[int]]:
    """``block_offsets`` of the tensor product of complexes of ranks a and
    b, whose block (i, j) has rank a[i] * b[j]."""
    return block_offsets([[x * y for y in b] for x in a])


def _tensor_pair(A: FreeComplex, B: FreeComplex, ctx: VariableContext) -> FreeComplex:
    """A (x) B over the ground field, in ``ctx``: A's blocks followed by B's.

    Position k is anti-diagonal k of ``_pair_offsets``: a_s (x) b_t, with a_s
    in A_i and b_t in B_j, has index off[k][i] + s * rank B_j + t and the
    concatenation of their shifts; d(a (x) b) = da (x) b + (-1)^i a (x) db."""
    off = _pair_offsets(A.ranks, B.ranks)
    p, q = A.length, B.length
    shifts = [[a + b for i in range(max(0, k - q), min(k, p) + 1)
               for a in A.shifts[i] for b in B.shifts[k - i]] for k in range(len(off))]
    # one int object per basis index, shared by every column that has it as a row
    ix = [list(range(len(level))) for level in shifts]
    diffs: list[MonomialMatrix | None] = [None]
    for k in range(1, len(shifts)):
        rows, below = ix[k - 1], off[k - 1]
        cols: dict[int, dict[int, int | Fraction]] = {}
        for i in range(max(0, k - q), min(k, p) + 1):
            j, odd = k - i, i % 2
            nb = len(B.shifts[j])
            da = A.diffs[i].cols if i else {}
            db = B.diffs[j].cols if j else {}
            for s in range(len(A.shifts[i])):
                for t in range(nb):
                    col = {}
                    # da lands in block (i - 1, j) of position k - 1, db in (i, j - 1)
                    for r, v in da.get(s, {}).items():
                        col[rows[below[i - 1] + r * nb + t]] = v
                    low = below[i] + s * len(B.shifts[j - 1]) if j else 0
                    for r, v in db.get(t, {}).items():
                        col[rows[low + r]] = -v if odd else v
                    if col:
                        cols[off[k][i] + s * nb + t] = col
        diffs.append(MonomialMatrix(shifts[k - 1], shifts[k], cols))
    return FreeComplex(ctx, shifts, diffs)


def tensor_resolutions(factors: list[FreeComplex], ctx: VariableContext) -> FreeComplex:
    """Tensor over the ground field of block resolutions, in the big context.

    Factor l lives on block l of ``ctx``, in its local variables.  Blocks are
    contiguous and in order (``VariableContext.block_span``), so the shift
    of a basis element is the concatenation of its factors' shifts.  The
    product is the left fold of ``_tensor_pair``; a single factor is its own
    product.  Nothing is checked: every entry is an entry of a factor's
    differential, up to sign, and the product squares to zero because its
    factors do (the Koszul sign rule), which ``builder.certify_factors``
    checks.  ``builder.total_complex`` copies each product once, as a
    summand of a column of the double complex, and its diff o diff is then
    a component of the total differential's, which that function checks.
    """
    sizes = tuple(f.ctx.nvars for f in factors)
    if sizes != ctx.sizes:
        raise ConstructionError(
            "tensor factors do not match the blocks (factor sizes, block sizes)",
            (sizes, ctx.sizes))
    out = factors[0]
    for l in range(1, len(factors)):
        out = _tensor_pair(out, factors[l], VariableContext(ctx.sizes[:l + 1], ctx.names[:l + 1]))
    return out


def tensor_chain_map(taus: list[ChainMap], scalar) -> list[dict[int, dict[int, int | Fraction]]]:
    """The columns of ``scalar`` times the tensor product of the degree-zero
    chain maps ``taus``, taus[l] between factor l of two
    ``tensor_resolutions`` products: per source position, {col: {row:
    entry}} in the format of ``MonomialMatrix.cols``.

    ``scalar`` multiplies the columns of taus[0], and the left fold of the
    Kronecker products runs on those columns and the factors' ranks, in the
    layout of ``_pair_offsets`` and with no signs, as the taus have degree
    zero: per position, the columns s (x) t in order of s, then t, each with
    its rows r (x) r' in order of r, then r'.  Each product that is not an
    int is turned back into an int where it is integral.  Nothing is
    checked: every entry is ``scalar`` times a product of entries of the
    taus, and the product is a chain map because the taus are, which
    ``builder.certify_factors`` checks.  ``builder.total_complex`` places
    the columns once per nonzero scalar lam_c[k][j], as the block of sigma_c
    between two summands, and their chain-map condition is then a component
    of the total differential's diff o diff, which that function checks.
    """
    cols = [{s: {r: _integral(v * scalar) for r, v in col.items()} for s, col in m.cols.items()}
            for m in taus[0].mats]
    src_ranks, tgt_ranks = taus[0].source.ranks, taus[0].target.ranks
    for g in taus[1:]:
        gs, gt = g.source.ranks, g.target.ranks
        soff, toff = _pair_offsets(src_ranks, gs), _pair_offsets(tgt_ranks, gt)
        step = []
        for k in range(len(soff)):
            out: dict[int, dict[int, int | Fraction]] = {}
            for i in range(max(0, k - len(gs) + 1), min(k, len(cols) - 1) + 1):
                j = k - i
                nb, nt = gs[j], gt[j] if j < len(gt) else 0
                g_cols = sorted(g.mats[j].cols.items())
                for s, fcol in sorted(cols[i].items()):
                    for t, gcol in g_cols:
                        out[soff[k][i] + s * nb + t] = {
                            toff[k][i] + r * nt + rr: _integral(v * w)
                            for r, v in fcol.items() for rr, w in gcol.items()}
            step.append(out)
        cols = step
        src_ranks, tgt_ranks = [o[-1] for o in soff], [o[-1] for o in toff]
    return cols
