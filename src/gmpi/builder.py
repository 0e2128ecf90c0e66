"""Generalized mixed product ideals and their explicit minimal resolutions.

Starting from an inducing monomial ideal I in n ambient variables and, for
every block l and every block degree d of a generator of I, a substitution
ideal generated in degree d inside block l's variables (nested along degrees),
this module constructs:

  * the induced ideal L = sum of products of substitution ideals,
  * the grid of tensor-product resolutions of those ideals joined by
    comparison maps, and its total complex, which is the minimal multigraded
    free resolution of T/L whenever every substitution ideal has a linear
    resolution,

together with the regularity / projective-dimension / linearity invariants
read off that resolution.

The complex of ideal direct sums carried by the scalar matrices of the
minimal resolution F of S/I (the "star complex", whose H_0 is T/L) is the
first page of the double complex.  The construction never builds it:
total_complex certifies its exactness from F on S's degree grid.  The
checks of verify build it (``build_star_complex``) and scan it on T's grid
(``star_acyclicity``), independently of the construction.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    _integral,
    _strand_scan,
    betti_table,
    BettiTable,
    block_offsets,
    ChainMap,
    ConstructionError,
    direct_sum,
    exactness_check,
    free_module_resolution,
    FreeComplex,
    ideal_resolution,
    identity_chain_map,
    is_linear_resolution,
    lift_chain_map,
    minimalize_complex,
    MonomialMatrix,
    quotient_resolution,
    regularity,
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
    T: VariableContext
    family: SubstitutionFamily
    ladders: list[list[int]]                 # per block, sorted distinct block degrees
    products: list[MonomialIdeal]            # L_j, one per generator of the inducing ideal
    induced: MonomialIdeal                   # L
    resolution: FreeComplex                  # minimal resolution of S/I; its diffs
                                             # store the scalar matrices lam_i
    label: str = ""

    @property
    def nblocks(self) -> int:
        return self.T.nblocks

    def shift_block_degree(self, i: int, j: int, l: int) -> int:
        # the ambient context has singleton blocks, so this is a coordinate
        return self.resolution.shifts[i][j][l]


def validate_family(
    inducing: MonomialIdeal,
    family: SubstitutionFamily,
    label: str = "",
) -> GmpiInstance:
    """Check the defining conditions and assemble a GmpiInstance.

    Raises FamilyValidationError with a witness for: a missing ladder degree,
    a substitution not generated purely in its degree, or a nesting failure
    (``nesting_witness``: a higher-degree substitution not contained in a
    lower-degree one).  Raises ConstructionError where a shift of the
    resolution of S/I has a block degree no generator has
    (``realization_witness``); shifts are lcms of generators, so that is a
    fault of the construction, not of the input.
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

    ladders = []
    for l in range(n):
        degrees = sorted({g[l] for g in inducing.gens})
        ladders.append(degrees)
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

    products, induced = induced_ideal(inducing, family)
    res = quotient_resolution(inducing)

    inst = GmpiInstance(
        inducing=inducing, T=T, family=family, ladders=ladders,
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
            for l in range(inst.nblocks):
                if s[l] not in inst.ladders[l]:
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
# the star complex, for the checks of verify (total_complex certifies its
# exactness from the resolution of S/I without building it)

@dataclass
class StarComplex:
    """Direct sums of ideals carried by the scalar matrices; H_0 is T/L."""

    instance: GmpiInstance
    ideals: list[list[MonomialIdeal]]   # ideals[i] for positions i = 1..p

    @property
    def length(self) -> int:
        return len(self.ideals)


def build_star_complex(inst: GmpiInstance) -> StarComplex:
    """Position 1 carries the L_j; deeper positions intersect along the
    nonzero pattern of the scalar matrices.  An intersection lies in each
    ideal it intersects, so every nonzero scalar maps a star ideal into its
    target."""
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
    return StarComplex(inst, levels)


def product_formula_witness(star: StarComplex):
    """(position, index) of a star ideal that differs from the product of
    block substitutions at the block degrees of its shift, or None."""
    inst = star.instance
    for i in range(1, star.length + 1):
        for j, idl in enumerate(star.ideals[i - 1]):
            if block_product(inst.family, inst.resolution.shifts[i][j]) != idl:
                return i, j
    return None


# degree-grid cells beyond which star_acyclicity raises SizeCapError
STAR_SCAN_CAP = 200_000


def star_acyclicity(star: StarComplex):
    """Strand-exactness of the star complex over its degree grid.

    A strand at multidegree b has dimension 0/1 per summand (membership of
    x^b), the maps are the scalar matrices restricted to the live summands,
    position 0 is the ring (always one-dimensional), and H_0 must match
    membership in L.  Returns the first failing multidegree, or None.

    The scan presumes maps that square to zero.  If the scalar matrices of
    the resolution of S/I do not, there is no star complex to scan, and the
    witness is the resolution's (position, multidegree of S).  SizeCapError
    where T's degree grid exceeds STAR_SCAN_CAP cells.
    """
    inst = star.instance
    square = inst.resolution.square_witness()
    if square is not None:
        return square
    ring = [((0,) * inst.T.nvars,)]
    summands = [ring] + [[idl.gens for idl in level] for level in star.ideals]
    return _strand_scan(summands, inst.resolution.diffs, inst.induced, STAR_SCAN_CAP)


# ---------------------------------------------------------------------------
# block resolutions and comparison maps

def block_resolutions(inst: GmpiInstance) -> dict[tuple[int, int], FreeComplex]:
    """One ideal resolution per ladder entry, shared across recurrences.

    Degree 0 gets the rank-one free module (resolution of the unit ideal).
    """
    out: dict[tuple[int, int], FreeComplex] = {}
    for l in range(inst.nblocks):
        ctx = inst.family.local_context(l)
        for d in inst.ladders[l]:
            if d == 0:
                out[(l, d)] = free_module_resolution(ctx, [(0,) * ctx.nvars])
            else:
                out[(l, d)] = ideal_resolution(inst.family.at(l, d))
    return out


def block_linearity(inst: GmpiInstance, blocks: dict) -> dict[tuple[int, int], bool]:
    """Whether each block resolution is linear (the unit ideal's, of degree 0,
    trivially)."""
    return {(l, d): is_linear_resolution(betti_table(res), d, of_ideal=False)
            for (l, d), res in blocks.items()}


def rho_maps(inst: GmpiInstance, blocks: dict) -> dict[tuple[int, int], ChainMap]:
    """Comparison maps between consecutive ladder entries of each block.

    rho[(l, k)] : resolution at ladder degree k -> ladder degree k-1, lifting
    the inclusion of the smaller ideal into the larger.  ConstructionError
    with (block, degree, generator) where that inclusion fails
    (``nesting_witness``, which validate_family also rules out).
    """
    out = {}
    for l in range(inst.nblocks):
        ladder = inst.ladders[l]
        witness = nesting_witness(inst.family, l, ladder)
        if witness is not None:
            raise ConstructionError(
                "substitution ideals are not nested (block, degree, generator)", (l,) + witness)
        for k in range(1, len(ladder)):
            out[(l, k)] = lift_chain_map(blocks[(l, ladder[k])], blocks[(l, ladder[k - 1])])
    return out


class TauCache:
    """Ladder composites of the rho maps; never an ad-hoc lift."""

    def __init__(self, inst: GmpiInstance, blocks: dict, rhos: dict):
        self.inst = inst
        self.blocks = blocks
        self.rhos = rhos
        self._memo: dict[tuple[int, int, int], ChainMap] = {}

    def get(self, l: int, deg_from: int, deg_to: int) -> ChainMap:
        key = (l, deg_from, deg_to)
        if key in self._memo:
            return self._memo[key]
        ladder = self.inst.ladders[l]
        if deg_from not in ladder or deg_to not in ladder:
            raise ConstructionError(
                "a degree drop leaves the ladder (block, from, to)", key)
        b, c = ladder.index(deg_from), ladder.index(deg_to)
        if b < c:
            raise ConstructionError(
                "a ladder composite cannot raise the degree (block, from, to)", key)
        if b == c:
            cm = identity_chain_map(self.blocks[(l, deg_from)])
        else:
            cm = self.rhos[(l, b)]
            for t in range(b - 1, c, -1):
                cm = self.rhos[(l, t)].compose(cm)
        self._memo[key] = cm
        return cm


# ---------------------------------------------------------------------------
# the double complex and its total complex

@dataclass
class DoubleComplex:
    """Columns of tensor-product resolutions joined by the sigma chain maps."""

    instance: GmpiInstance
    blocks: dict[tuple[int, int], FreeComplex]
    linear_flags: dict[tuple[int, int], bool]
    columns: list[FreeComplex]                      # column 0 is the ring
    summands: list[list[FreeComplex] | None]        # per column, per j
    offsets: list[list[list[int]] | None]           # offsets[c][j][i] basis offset
    sigmas: list[ChainMap | None]                   # sigmas[c] : col c -> col c-1

    @property
    def hypothesis_linear(self) -> bool:
        return all(self.linear_flags.values())

    def sigma_square_witness(self):
        """(c, i) where sigma_{c-1} o sigma_c is nonzero in row i, or None
        when the sigma maps square to zero."""
        # beyond either length the composite lands in (or factors through) a
        # zero module, so only the overlap needs checking
        for c in range(2, len(self.columns)):
            lo, hi = self.sigmas[c - 1], self.sigmas[c]
            for i in range(min(len(lo.mats), len(hi.mats))):
                if lo.mats[i].first_nonzero_column(hi.mats[i]) is not None:
                    return c, i
        return None

    def sigma_unit_witness(self):
        """(c, i, r, col) of a unit entry of sigma_c in row i, or None when
        every sigma image lies in the graded maximal ideal."""
        for c in range(1, len(self.columns)):
            for i, m in enumerate(self.sigmas[c].mats):
                unit = m.unit_entry()
                if unit is not None:
                    return (c, i) + unit
        return None

    def column_star_witness(self):
        """(c, j) where summand j of column c, a tensor product of block
        resolutions, is not generated in position 0 by the block product at
        the block degrees of its shift, or None.  Column 1 is compared with
        L_j, the product at the j-th generator of the inducing ideal
        (``inst.products``), so a resolution of S/I whose position 1 is out
        of generator order fails here; deeper columns with the ideal
        product, computed once per degree tuple."""
        inst = self.instance
        products: dict[tuple[int, ...], MonomialIdeal] = {}
        for c in range(1, len(self.columns)):
            for j, summand in enumerate(self.summands[c]):
                if c == 1:
                    want = inst.products[j]
                else:
                    degs = inst.resolution.shifts[c][j]
                    if degs not in products:
                        products[degs] = block_product(inst.family, degs)
                    want = products[degs]
                if set(summand.shifts[0]) != set(want.gens):
                    return c, j
        return None

    def sigma_star_witness(self):
        """(c, j, u, k) where the row-zero sums of sigma_c over generator u of
        summand j miss the scalar lam_c[k][j], or None when they reproduce
        the scalar matrices (the commuting square with the augmentations)."""
        res = self.instance.resolution
        for c in range(1, len(self.columns)):
            lam = res.diffs[c].cols
            # sums[(column of sigma_c, summand of its row)]; the summand of
            # row r is the last one that starts at or before r
            sums: dict[tuple[int, int], int | Fraction] = {}
            starts = [offs[0] for offs in self.offsets[c - 1]] if c >= 2 else [0]
            for col, column in self.sigmas[c].mats[0].cols.items():
                for r, v in column.items():
                    key = (col, bisect_right(starts, r) - 1)
                    sums[key] = sums.get(key, 0) + v
            nrows = len(res.shifts[c - 1])
            for j, summand in enumerate(self.summands[c]):
                lam_j = lam.get(j, {})
                for u in range(len(summand.shifts[0])):
                    col = self.offsets[c][j][0] + u
                    for k in range(nrows):
                        if sums.get((col, k), 0) != lam_j.get(k, 0):
                            return c, j, u, k
        return None


def build_double_complex(inst: GmpiInstance) -> DoubleComplex:
    blocks = block_resolutions(inst)
    flags = block_linearity(inst, blocks)
    rhos = rho_maps(inst, blocks)
    taus = TauCache(inst, blocks, rhos)
    n = inst.nblocks
    p = inst.resolution.length

    zero_shift = (0,) * inst.T.nvars
    columns: list[FreeComplex] = [free_module_resolution(inst.T, [zero_shift])]
    summands: list[list[FreeComplex] | None] = [None]
    offsets: list[list[list[int]] | None] = [None]
    tensor_cache: dict[tuple[int, ...], FreeComplex] = {}

    for c in range(1, p + 1):
        col_parts = []
        for j in range(len(inst.resolution.shifts[c])):
            degs = tuple(inst.shift_block_degree(c, j, l) for l in range(n))
            if degs not in tensor_cache:
                tensor_cache[degs] = tensor_resolutions(
                    [blocks[(l, degs[l])] for l in range(n)], inst.T)
            col_parts.append(tensor_cache[degs])
        summed, offs = direct_sum(col_parts)
        columns.append(summed)
        summands.append(col_parts)
        offsets.append(offs)

    sigmas: list[ChainMap | None] = [None]
    for c in range(1, p + 1):
        src, tgt = columns[c], columns[c - 1]
        mats = []
        for i in range(src.length + 1):
            tgt_shifts = tgt.shifts[i] if i <= tgt.length else []
            mats.append(MonomialMatrix(inst.T, list(tgt_shifts), list(src.shifts[i]), {}))
        lam = inst.resolution.diffs[c].cols
        if c == 1:
            # row zero maps the generators into the ring
            for j, summand in enumerate(summands[1]):
                scalar = lam.get(j, {}).get(0, 0)
                off = offsets[1][j][0]
                for u in range(len(summand.shifts[0])):
                    mats[0].cols[off + u] = {0: scalar}
        else:
            for j, src_t in enumerate(summands[c]):
                for k, scalar in sorted(lam.get(j, {}).items()):
                    tgt_t = summands[c - 1][k]
                    parts = [taus.get(
                        l,
                        inst.shift_block_degree(c, j, l),
                        inst.shift_block_degree(c - 1, k, l)) for l in range(n)]
                    block_map = tensor_chain_map(parts, src_t, tgt_t)
                    for i, bm in enumerate(block_map.mats):
                        if not bm.cols:
                            continue
                        ro, co = offsets[c - 1][k][i], offsets[c][j][i]
                        for cc, col in bm.cols.items():
                            mats[i].cols.setdefault(co + cc, {}).update(
                                (ro + r, _integral(v * scalar)) for r, v in col.items())
        # each entry is a lam-multiple of an entry of a checked lift; the
        # commutation with the column differentials is a component of the
        # total complex's diff o diff, which total_complex checks
        sigmas.append(ChainMap(src, tgt, mats))

    return DoubleComplex(
        instance=inst, blocks=blocks, linear_flags=flags,
        columns=columns, summands=summands, offsets=offsets, sigmas=sigmas)


@dataclass
class TotalComplex:
    """Total complex of the double complex, with its basis bookkeeping.

    ``exactness_verified`` says that the certificate of total_complex ran in
    full; it is False only where the degree grid of S (the star step) or of
    a block exceeds its scan cap, and ``gmpi gmpi`` then reports the table
    as uncertified."""

    complex: FreeComplex
    exactness_verified: bool = False


def total_complex(D: DoubleComplex) -> TotalComplex:
    """Columns summed along anti-diagonals, as ``block_offsets`` of the
    columns' ranks lays them out (element t of column c in row r has index
    off[c + r][c] + t); the horizontal map picks up the sign (-1)^row so
    that squares anticommute and the total differential squares to zero.
    Every entry is a copy, up to sign, of an entry of a column differential
    or a sigma map, so no pass checks the entries' shapes again.

    The result is certified to resolve T/L from the structure of D, without
    a strand scan of its own degree grid; this function is the whole
    certificate.  Filter the total complex by columns.  Column c resolves
    the direct sum of the block products at the shifts of position c, and
    sigma induces the scalar matrices on those ideals.  The first page of
    the spectral sequence is then the star complex, and if it is exact the
    total complex resolves its H_0 = T/L (the acyclic assembly lemma, Weibel
    1994, Lemma 2.7.3).  Each column is a tensor product of block
    resolutions on disjoint variables, so it is exact when they are
    (Kuenneth); it is built from ``D.blocks`` and not checked again.

    The star complex is exact because the resolution F of S/I is.  Its
    summand at a shift a of F is the block product J_a of the substitution
    ideals J_(l, a_l); each a_l is a ladder degree (validate_family raises
    otherwise), and the ideals are nested along each ladder (rho_maps
    raises otherwise).  So x^b lies in J_a iff a <= delta(b) blockwise, where
    delta(b)_l is the largest ladder degree d with the block-l part of x^b
    in J_(l, d) (degree 0 is the unit ideal), and x^b lies in L iff
    x^delta(b) lies in I.  The strand of the star complex at b is thus F's
    strand at delta(b), live summands and scalar maps alike, and the star
    complex is exact on T's degree grid iff F resolves S/I on S's, which
    has one variable per block.

    Each step below raises ConstructionError with its witness, in this
    order:

    * under the linearity hypothesis, no unit entry; a unit entry of a
      sigma map is one of the total differential;
    * diff o diff = 0; its components are the columns' diff o diff, the
      chain-map condition of each sigma and sigma o sigma;
    * each column summand is generated in position 0 by its block product
      (``column_star_witness``), so that the star complex is the first page;
    * the star complex is exact: F resolves S/I on S's degree grid
      (``exactness_check``; where F's maps do not square to zero the
      witness is F's (position, multidegree));
    * sigma induces the scalar matrices (``sigma_star_witness``);
    * each block resolution of positive degree resolves its substitution
      ideal (``block_witness``: a strand scan over the block's own
      variables, with the augmentation onto the ring prepended).

    A grid of S or of a block above its scan cap skips that scan, recorded
    as ``exactness_verified=False``.  The scan of the total complex itself
    is the ``total-exactness`` check of verify.check_engine_self, and the
    scan of the star complex on T's grid its ``star-acyclicity`` check.
    """
    inst, cols = D.instance, D.columns
    p = len(cols) - 1
    off = block_offsets([col.ranks for col in cols])
    shifts = [[s for c in range(min(k, p) + 1) if k - c <= cols[c].length
               for s in cols[c].shifts[k - c]] for k in range(len(off))]
    # one int object per basis index, shared by every column that has it as a row
    ix = [list(range(len(level))) for level in shifts]

    diffs: list[MonomialMatrix | None] = [None]
    for k in range(1, len(shifts)):
        rows, below = ix[k - 1], off[k - 1]
        out: dict[int, dict[int, int | Fraction]] = {}
        # a column's vertical terms land in block (c, r - 1) of position
        # k - 1 and its horizontal ones in (c - 1, r): no two share a row.
        # A stored zero (of a corrupted input) is left out.
        for c in range(min(k, p) + 1):
            r, start, end = k - c, off[k][c], off[k][c + 1]
            if start == end:
                continue
            vertical = cols[c].diffs[r].cols if r >= 1 else {}
            sig = D.sigmas[c].mats if c >= 1 else []
            horizontal, odd = (sig[r].cols if r < len(sig) else {}), r % 2
            for t in range(end - start):
                col = {rows[below[c] + rr]: v for rr, v in vertical.get(t, {}).items() if v}
                for rr, v in horizontal.get(t, {}).items():
                    if v:
                        col[rows[below[c - 1] + rr]] = -v if odd else v
                if col:
                    out[start + t] = col
        diffs.append(MonomialMatrix(inst.T, shifts[k - 1], shifts[k], out))

    cx = FreeComplex(inst.T, shifts, diffs)
    if D.hypothesis_linear:
        unit = cx.unit_witness()
        if unit is not None:
            raise ConstructionError(
                "total complex has a unit entry under the linearity hypothesis "
                "(position, (row, column))", unit)
    square = cx.square_witness()
    if square is not None:
        raise ConstructionError("total differential does not square to zero", square[1])
    witness = D.column_star_witness()
    if witness is not None:
        raise ConstructionError(
            "a column summand is not generated by its star ideal (column, summand)", witness)
    verified = True
    try:
        witness = exactness_check(inst.resolution, inst.inducing)
    except SizeCapError:
        verified = False
    else:
        if witness is not None:
            # exactness_check reports a multidegree alone; where F does not
            # square to zero, name its position too
            raise ConstructionError("the star complex is not exact",
                                    inst.resolution.square_witness() or witness)
    witness = D.sigma_star_witness()
    if witness is not None:
        raise ConstructionError(
            "sigma misses the scalar matrices (column, summand, generator, row)", witness)
    for (l, d), res in D.blocks.items():
        if d == 0:
            continue
        try:
            witness = block_witness(res, inst.family.at(l, d))
        except SizeCapError:
            verified = False
        else:
            if witness is not None:
                raise ConstructionError(
                    "a block resolution does not resolve its substitution ideal "
                    "(block, degree, multidegree)", (l, d, witness))
    return TotalComplex(cx, verified)


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
    augmentation = MonomialMatrix(
        res.ctx, ring, res.shifts[0], {j: {0: 1} for j in range(len(gens))})
    return exactness_check(
        FreeComplex(res.ctx, [ring] + res.shifts, [None, augmentation] + res.diffs[1:]), I)


# ---------------------------------------------------------------------------
# invariants

@dataclass
class InvariantReport:
    value: int
    hypothesis_linear: bool
    comparison: int | None = None

    @property
    def agrees(self) -> bool:
        return self.comparison is None or self.value == self.comparison


def minimal_total_table(tot: TotalComplex) -> BettiTable:
    """Betti table of the total complex after minimalization: the graded
    Betti numbers of T/L.  The invariant reports below read this table."""
    cx = tot.complex
    if not cx.is_minimal:
        cx = minimalize_complex(cx)
    return betti_table(cx)


def regularity_report(D: DoubleComplex, table: BettiTable) -> InvariantReport:
    """reg L read off the minimal total table, compared with reg I."""
    return InvariantReport(
        value=regularity(table, of_ideal=True),
        hypothesis_linear=D.hypothesis_linear,
        comparison=regularity(betti_table(D.instance.resolution), of_ideal=True))


def projdim_report(D: DoubleComplex, table: BettiTable) -> InvariantReport:
    """Formula value max_{i,j} (sum_l pd of the block ideal at the shift's
    block degree + i) against the projective dimension read off the minimal
    total table."""
    inst = D.instance
    pd_blocks = {key: res.length for key, res in D.blocks.items()}
    best = 0
    for c in range(1, inst.resolution.length + 1):
        for j in range(len(inst.resolution.shifts[c])):
            val = c + sum(
                pd_blocks[(l, inst.shift_block_degree(c, j, l))]
                for l in range(inst.nblocks))
            best = max(best, val)
    return InvariantReport(value=best, hypothesis_linear=D.hypothesis_linear,
                           comparison=table.top_position)


def linearity_report(D: DoubleComplex, table: BettiTable) -> tuple[bool, bool]:
    """(inducing ideal linear, induced ideal linear), the latter read off the
    minimal total table; equal under the hypothesis."""
    inst = D.instance
    d_i = inst.inducing.generated_in_degree()
    lin_i = d_i is not None and is_linear_resolution(
        betti_table(inst.resolution), d_i, of_ideal=True)
    d_l = inst.induced.generated_in_degree()
    lin_l = d_l is not None and is_linear_resolution(table, d_l, of_ideal=True)
    return lin_i, lin_l
