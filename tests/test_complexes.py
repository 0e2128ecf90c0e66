import itertools
import json
import pathlib
import random
from collections import Counter
from fractions import Fraction
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from gmpi import linalg
from gmpi.builder import block_witness
from gmpi.complexes import (
    ChainMap,
    ConstructionError,
    FreeComplex,
    MonomialMatrix,
    SizeCapError,
    _bit_indices,
    _cell_classifier,
    _cell_masks,
    _strand_classes,
    betti_table,
    block_offsets,
    degree_grid,
    euler_characteristics,
    exactness_check,
    ideal_resolution,
    identity_chain_map,
    is_linear_resolution,
    lift_chain_map,
    lyubeznik_complex,
    make_complex,
    minimalize_complex,
    projective_dimension,
    inexact_positions,
    quotient_resolution,
    regularity,
    taylor_complex,
    tensor_resolutions,
)
from gmpi.monomials import MonomialIdeal, VariableContext, divides, ideal, lcm, simple_context
from gmpi.verify import koszul_betti

from conftest import (
    betti_from_json, copy_complex, dense_rank, normal_scalar, small_ideals, strand)

S1 = simple_context(1, ("x",))
S2 = simple_context(2, ("x", "y"))
S3 = simple_context(3, ("x", "y", "z"))


def koszul2():
    return minimalize_complex(taylor_complex(ideal(S2, [(1, 0), (0, 1)])))


# -- Taylor complex

def test_taylor_principal():
    C = taylor_complex(ideal(S1, [(1,)]))
    assert C.shifts == [[(0,)], [(1,)]]
    assert C.diffs[1].cols == {0: {0: Fraction(1)}}


def test_taylor_koszul_two_variables():
    C = taylor_complex(ideal(S2, [(1, 0), (0, 1)]))
    assert C.ranks == [1, 2, 1]
    assert C.is_minimal
    assert betti_table(C).entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_taylor_three_generators_resolves():
    I = ideal(S2, [(2, 0), (1, 1), (0, 3)])
    C = taylor_complex(I)
    assert C.ranks == [1, 3, 3, 1]
    assert exactness_check(C, I) is None


def test_taylor_shifts_are_subset_lcms():
    I = ideal(S3, [(2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)])
    C = taylor_complex(I)
    for size, level in enumerate(C.shifts):
        subsets = itertools.combinations(I.gens, size)
        expect = []
        for subset in subsets:
            acc = (0, 0, 0)
            for g in subset:
                acc = lcm(acc, g)
            expect.append(acc)
        assert level == expect
    for d in C.diffs[1:]:
        assert all(type(v) is int and v in (1, -1) for col in d.cols.values() for v in col.values())


def test_taylor_cap():
    big = ideal(S2, [(d, 14 - d) for d in range(15)])
    with pytest.raises(SizeCapError):
        taylor_complex(big)


def test_taylor_rejects_degenerate():
    with pytest.raises(ValueError):
        taylor_complex(ideal(S2, [(0, 0)]))
    from gmpi.monomials import MonomialIdeal
    with pytest.raises(ValueError):
        taylor_complex(MonomialIdeal(S2, ()))


def test_make_complex_validation():
    from gmpi.complexes import MonomialMatrix, make_complex
    # inhomogeneous entry: col shift not componentwise above row shift
    bad = MonomialMatrix([(1, 0)], [(0, 1)], {0: {0: Fraction(1)}})
    with pytest.raises(ValueError):
        make_complex(S2, [[(1, 0)], [(0, 1)]], [None, bad])
    # a stored zero, and a stored empty column
    for cols in ({0: {0: 0}}, {0: {}}):
        zero = MonomialMatrix([(0, 0)], [(1, 0)], cols)
        with pytest.raises(ValueError, match="stored zero scalar at \\(0, 0\\)|stored empty column 0"):
            make_complex(S2, [[(0, 0)], [(1, 0)]], [None, zero])
    # differentials that do not compose to zero
    d1 = MonomialMatrix([(0, 0)], [(1, 0)], {0: {0: Fraction(1)}})
    d2 = MonomialMatrix([(1, 0)], [(1, 1)], {0: {0: Fraction(1)}})
    with pytest.raises(ValueError):
        make_complex(S2, [[(0, 0)], [(1, 0)], [(1, 1)]], [None, d1, d2])


def test_exactness_check_grid_cap():
    from gmpi.complexes import SizeCapError as Cap
    I = ideal(S2, [(2, 0), (1, 1), (0, 3)])
    M = minimalize_complex(taylor_complex(I))
    with pytest.raises(Cap):
        exactness_check(M, I, max_cells=2)


# -- minimalization

def test_minimalize_leaves_koszul_alone():
    C = taylor_complex(ideal(S2, [(1, 0), (0, 1)]))
    M = minimalize_complex(C)
    assert M.ranks == C.ranks
    assert M.diffs[1].cols == C.diffs[1].cols


def test_minimalize_hilbert_burch_shape():
    # independent evidence: exactness, minimality, Euler characteristic
    I = ideal(S2, [(2, 0), (1, 1), (0, 3)])
    M = minimalize_complex(taylor_complex(I))
    assert M.ranks == [1, 3, 2]
    assert M.is_minimal
    assert exactness_check(M, I) is None
    rng = random.Random(2)
    points = [(rng.randint(0, 4), rng.randint(0, 5)) for _ in range(60)]
    assert euler_characteristics(M, points) == [0 if I.member(b) else 1 for b in points]


def test_minimalize_square_of_maximal():
    I = ideal(S2, [(2, 0), (1, 1), (0, 2)])
    M = minimalize_complex(taylor_complex(I))
    assert M.ranks == [1, 3, 2]
    # all first syzygies of the ideal live in total degree 3
    assert [sorted(map(sum, level)) for level in M.shifts] == [[0], [2, 2, 2], [3, 3]]
    assert exactness_check(M, I) is None


def test_minimalize_preserves_strand_homology():
    I = ideal(S2, [(3, 0), (2, 1), (0, 2)])
    C = taylor_complex(I)
    M = minimalize_complex(C)

    def homology_dims(cx, b):
        st = strand(cx, b)
        ranks = [linalg.rank([{c: v for c, v in enumerate(row) if v} for row in m])
                 for m in st.matrices]
        dims = st.dims
        out = []
        for i in range(len(dims)):
            r_in = ranks[i] if i < len(ranks) else 0
            r_out = ranks[i - 1] if i >= 1 else 0
            out.append(dims[i] - r_in - r_out)
        return out

    rng = random.Random(9)
    for _ in range(25):
        b = (rng.randint(0, 4), rng.randint(0, 3))
        hc, hm = homology_dims(C, b), homology_dims(M, b)
        hc += [0] * (len(hm) - len(hc))
        hm += [0] * (len(hc) - len(hm))
        assert hc == hm, b


def test_betti_invariant_under_generator_shuffles():
    from gmpi.monomials import MonomialIdeal
    I = ideal(S2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    base = betti_table(minimalize_complex(taylor_complex(I)))
    rng = random.Random(13)
    for _ in range(5):
        perm = list(I.gens)
        rng.shuffle(perm)
        shuffled = MonomialIdeal(I.ctx, tuple(perm))
        assert betti_table(minimalize_complex(taylor_complex(shuffled))) == base


# -- the storage format: {col: {row: scalar}}

def test_a_map_stores_its_scalars_by_column_only():
    import dataclasses
    assert [f.name for f in dataclasses.fields(MonomialMatrix)] == [
        "row_shifts", "col_shifts", "cols"]
    # no second format, and no view that rebuilds one
    assert not hasattr(MonomialMatrix, "entries") and not hasattr(MonomialMatrix, "columns")


def assert_stored_by_column(d: MonomialMatrix) -> None:
    """The storage invariant: a valid map with no empty column, normal
    scalars and its columns in ascending order."""
    d.validate()
    assert all(d.cols.values())
    assert all(normal_scalar(v) for col in d.cols.values() for v in col.values())
    assert list(d.cols) == sorted(d.cols)


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_resolutions_keep_the_storage_invariant(I):
    for d in quotient_resolution(I).diffs[1:]:
        assert_stored_by_column(d)


def test_tensor_and_total_complexes_keep_the_storage_invariant(suite):
    # the construction checks no copy of a checked map, so the full checks
    # of every assembled complex and sigma block are the reference here
    for item in suite:
        tot = item.total
        tensors = list({id(t): t for col in tot.summands[1:] for t in col}.values())
        for cx in tensors + [tot.complex]:
            cx.validate()
            for d in cx.diffs[1:]:
                assert_stored_by_column(d)
        ranks = tot.column_ranks
        for c in range(1, len(ranks)):
            for i in range(len(ranks[c])):
                m = tot.sigma(c, i)
                m.validate()
                assert all(normal_scalar(v) for col in m.cols.values() for v in col.values())


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_ideal_resolution_is_the_quotient_resolution_from_position_one(I):
    def stored(d):
        return [(c, [(r, type(v), v) for r, v in col.items()]) for c, col in d.cols.items()]

    res, quot = ideal_resolution(I), quotient_resolution(I)
    res.validate()
    assert res.shifts == quot.shifts[1:] and len(res.diffs) == len(quot.diffs) - 1
    for d, q in zip(res.diffs[1:], quot.diffs[2:]):
        assert (d.row_shifts, d.col_shifts) == (q.row_shifts, q.col_shifts)
        assert stored(d) == stored(q)


def test_one_check_per_map_and_no_partial_tensor_products():
    import gmpi.complexes as complexes
    assert not hasattr(FreeComplex, "validate_maps") and not hasattr(ChainMap, "validate_maps")
    assert not hasattr(complexes, "TensorResolution")


# -- scalar matrices and the scalar complex

def test_scalar_matrices_koszul_signs():
    K = koszul2()
    assert K.diffs[1].cols == {0: {0: Fraction(1)}, 1: {0: Fraction(1)}}
    assert K.diffs[2].cols == {0: {1: 1, 0: -1}}


def test_first_scalar_row_is_all_ones():
    for gens in [[(2, 0), (1, 1), (0, 3)], [(2, 1), (1, 2)], [(3, 0), (0, 3), (1, 1)]]:
        M = minimalize_complex(taylor_complex(ideal(S2, gens)))
        assert M.diffs[1].cols == {c: {0: Fraction(1)} for c in range(M.ranks[1])}


def test_scalar_product_vanishes():
    M = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)])))
    # maps store only their scalars, so d o d = 0 is the vanishing of the
    # scalar products
    assert M.square_witness() is None


def test_scalar_matrices_reject_non_minimal():
    C = taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)]))
    assert not C.is_minimal
    with pytest.raises(ValueError):
        inexact_positions(C)


def test_scalar_complex_exactness():
    K = koszul2()
    assert inexact_positions(K) == []
    M = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)])))
    assert inexact_positions(M) == []


def test_scalar_complex_exactness_has_teeth():
    M = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)])))
    del M.diffs[2].cols[0]
    # a killed column breaks the rank balance
    assert inexact_positions(M) == [1, 2]


# -- strands and exactness

def test_strand_at_zero():
    M = koszul2()
    st = strand(M, (0, 0))
    assert st.dims == [1, 0, 0]


def test_strand_dims_are_divisibility_counts():
    M = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)])))
    rng = random.Random(4)
    for _ in range(30):
        b = (rng.randint(0, 3), rng.randint(0, 4))
        st = strand(M, b)
        assert st.dims == [
            sum(1 for s in level if divides(s, b)) for level in M.shifts]
    top = (0, 0)
    for level in M.shifts:
        for s in level:
            top = lcm(top, s)
    assert strand(M, top).dims == M.ranks


def test_exactness_check_koszul():
    assert exactness_check(koszul2(), ideal(S2, [(1, 0), (0, 1)])) is None


def test_exactness_check_finds_corruption():
    I = ideal(S2, [(2, 0), (1, 1), (0, 3)])
    M = minimalize_complex(taylor_complex(I))
    cols = M.diffs[2].cols
    del cols[0][min(cols[0])]  # drop one syzygy entry
    assert exactness_check(M, I) is not None


# -- the certified strand scan

def reference_exactness(C: FreeComplex, I: MonomialIdeal):
    """exactness_check by its definition: d o d first, then the strand of
    every grid cell ranked by dense Fraction elimination."""
    square = C.square_witness()
    if square is not None:
        return square[1]
    for b in itertools.product(*degree_grid(C.shifts + [list(I.gens)], C.ctx.nvars)):
        st_b = strand(C, b)
        dims = st_b.dims
        ranks = [0] + [dense_rank(m) for m in st_b.matrices] + [0]
        if any(dims[i] != ranks[i] + ranks[i + 1] for i in range(1, len(dims))):
            return b
        if dims[0] - ranks[1] != (0 if I.member(b) else 1):
            return b
    return None


def scale_column(C: FreeComplex, i: int, j: int, s) -> None:
    """Basis element j of position i times s: column j of diff[i] times s
    and row j of diff[i+1] divided by s, an isomorphic complex."""
    col = C.diffs[i].cols.get(j, {})
    for r in col:
        col[r] *= s
    if i < C.length:
        for up in C.diffs[i + 1].cols.values():
            if j in up:
                up[j] = Fraction(up[j]) / s


@st.composite
def corrupted_lyubeznik(draw):
    """A Lyubeznik complex of a small ideal, intact or with one corruption:
    a basis element rescaled (by 2 and 1/2 among others), a column scaled or
    cleared, an entry dropped, or a shift raised (which leaves the maps
    inhomogeneous, so live columns can reach dead rows)."""
    I = draw(small_ideals())
    C = lyubeznik_complex(I)
    kind = draw(st.sampled_from(
        ["intact", "rescale", "scale-column", "clear-column", "drop-entry", "raise-shift"]))
    i = draw(st.integers(1, C.length))
    j = draw(st.integers(0, C.ranks[i] - 1))
    scalar = draw(st.sampled_from(
        [1073741789, -1073741789, Fraction(1, 1073741789), 2, -2, Fraction(1, 2), Fraction(-1, 3)]))
    d = C.diffs[i].cols
    if kind == "rescale":
        scale_column(C, i, j, scalar)
    elif kind == "scale-column":
        for r in d.get(j, {}):
            d[j][r] *= scalar
    elif kind == "clear-column":
        d.pop(j, None)
    elif kind == "drop-entry":
        r, c = draw(st.sampled_from(sorted((r, c) for c, col in d.items() for r in col)))
        del d[c][r]
        if not d[c]:
            del d[c]
    elif kind == "raise-shift":
        k = draw(st.integers(0, C.ctx.nvars - 1))
        s = list(C.shifts[i][j])
        s[k] += 1
        C.shifts[i][j] = C.diffs[i].col_shifts[j] = tuple(s)
        if i < C.length:
            C.diffs[i + 1].row_shifts[j] = tuple(s)
    return C, I


@settings(max_examples=150, deadline=None)
@given(corrupted_lyubeznik())
def test_exactness_check_matches_the_exact_reference(case):
    C, I = case
    assert exactness_check(C, I) == reference_exactness(C, I)


def test_exactness_check_ranks_exactly_where_a_live_column_reaches_a_dead_row():
    # d_2 sends c (shift x^2) to r (shift x^3), an inhomogeneous entry, and
    # d_1 = 0.  At x^2 the strand is <c> -> <a> -> <e> with both maps zero,
    # inexact twice over; ranked with the entry of the dead row r instead,
    # its ranks would balance and x^2 would pass.
    I = ideal(S1, [(4,)])
    shifts = [[(0,)], [(2,), (3,)], [(2,)]]
    C = FreeComplex(S1, shifts, [
        None,
        MonomialMatrix(shifts[0], shifts[1], {}),
        MonomialMatrix(shifts[1], shifts[2], {0: {1: Fraction(1)}}),
    ])
    assert exactness_check(C, I) == (2,) == reference_exactness(C, I)
    # an even entry in the dead row is support too, though it vanishes
    # over F_2: d_2 c = a + 2r and d_1 = (2, -1) square to zero, but at x^2
    # the strand's d_1 d_2 is 2, and the F_2 ranks of its maps, 1 and 0,
    # would balance
    C = FreeComplex(S1, shifts, [
        None,
        MonomialMatrix(shifts[0], shifts[1], {0: {0: 2}, 1: {0: -1}}),
        MonomialMatrix(shifts[1], shifts[2], {0: {0: 1, 1: 2}}),
    ])
    assert C.square_witness() is None
    assert exactness_check(C, I) == (2,) == reference_exactness(C, I)


def counted_exact_ranks(monkeypatch) -> list:
    """Record the size of every exact rank the scan asks for."""
    calls = []
    exact = linalg.rank

    def rank(vectors):
        calls.append(len(vectors))
        return exact(vectors)

    monkeypatch.setattr(linalg, "rank", rank)
    return calls


def hilbert_burch():
    """I = (x^2, xy, y^3) and its minimal resolution, whose two top basis
    elements have shifts x^2 y and x y^3."""
    I = ideal(S2, [(2, 0), (1, 1), (0, 3)])
    return I, minimalize_complex(lyubeznik_complex(I))


def test_exactness_check_certifies_over_f2_alone(monkeypatch):
    I, M = hilbert_burch()
    calls = counted_exact_ranks(monkeypatch)
    assert exactness_check(M, I) is None
    assert calls == []


def test_exactness_check_scalar_p_passes_through_the_exact_fallback(monkeypatch):
    # the top basis element x y^3 times p = 2, the prime of the modular
    # ranks: exact over Q, but its column vanishes mod 2, so above x y^3 the
    # ranks over F_2 fall short
    I, M = hilbert_burch()
    scale_column(M, 2, M.shifts[2].index((1, 3)), 2)
    calls = counted_exact_ranks(monkeypatch)
    assert exactness_check(M, I) is None and reference_exactness(M, I) is None
    assert calls


def test_exactness_check_scalar_p_keeps_the_witness(monkeypatch):
    # as above, and the column of x^2 y cleared: the cell x y^3 (scanned
    # first) passes through the fallback, the cell x^2 y fails exactly
    I, M = hilbert_burch()
    scale_column(M, 2, M.shifts[2].index((1, 3)), 2)
    del M.diffs[2].cols[M.shifts[2].index((2, 1))]
    calls = counted_exact_ranks(monkeypatch)
    assert exactness_check(M, I) == (2, 1) == reference_exactness(M, I)
    assert calls


@pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(1, 2)])
def test_exactness_check_ranks_a_map_holding_a_fraction_exactly(monkeypatch, s):
    # the top basis element x y^3 times s: an isomorphic resolution whose
    # map holds a Fraction, with an odd denominator or an even one, so the
    # scan ranks it exactly; with the column of x^2 y cleared as well, the
    # exact ranks keep the witness
    I, M = hilbert_burch()
    scale_column(M, 2, M.shifts[2].index((1, 3)), s)
    calls = counted_exact_ranks(monkeypatch)
    assert exactness_check(M, I) is None and reference_exactness(M, I) is None
    assert calls
    del M.diffs[2].cols[M.shifts[2].index((2, 1))]
    calls.clear()
    assert exactness_check(M, I) == (2, 1) == reference_exactness(M, I)
    assert calls


def rp2_ideal() -> MonomialIdeal:
    """The Stanley-Reisner ideal of the 6-vertex triangulation of the real
    projective plane: every edge is a face, and the 10 triangles that are
    not faces give its 10 squarefree cubic generators."""
    faces = {frozenset(f) for f in [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
                                    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]}
    S6 = simple_context(6, tuple("abcdef"))
    return ideal(S6, [tuple(int(v in t) for v in range(1, 7))
                      for t in itertools.combinations(range(1, 7), 3)
                      if frozenset(t) not in faces])


def test_exactness_check_of_rp2_reaches_the_exact_fallback(monkeypatch):
    # H_1(RP^2; Z) = Z/2, so over F_2 the resolution of the Stanley-Reisner
    # ring has more Betti numbers in degree (1, ..., 1) than over Q: the F_2
    # ranks of the rational minimal resolution fall short there, and only
    # the exact ranks certify it
    I = rp2_ideal()
    assert len(I.gens) == 10
    M = quotient_resolution(I)
    assert betti_table(M).entries == {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    calls = counted_exact_ranks(monkeypatch)
    assert exactness_check(M, I) is None
    assert calls


# -- the degree-grid bitmasks

def divides_point(g, b) -> bool:
    return all(map(le, g, b))


@st.composite
def grid_case(draw):
    """Positions of summands (each summand an ideal of 1-3 generators, with
    an empty position always among them), an expected H_0 and ascending
    axes that reach past every exponent."""
    nvars = draw(st.integers(1, 3))
    ctx = simple_context(nvars, tuple("xyz"[:nvars]))
    vec = st.tuples(*[st.integers(0, 3)] * nvars)
    summand = st.lists(vec, min_size=1, max_size=3)
    summands = draw(st.lists(st.lists(summand, max_size=4), min_size=1, max_size=4))
    summands.insert(draw(st.integers(0, len(summands))), [])
    h0 = ideal(ctx, draw(st.lists(vec.filter(any), min_size=1, max_size=4)))
    axes = [sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=4)))
            for _ in range(nvars)]
    return summands, h0, axes


@settings(max_examples=150, deadline=None)
@given(grid_case())
def test_cell_classes_match_divisibility(case):
    # every cell, in itertools.product order: the live summands of each
    # position and the H_0 membership of its class are those of the brute
    # force, and the classes keep the order of their first cells
    summands, h0, axes = case
    gens, classify = _cell_classifier(summands, h0)
    cells = list(itertools.product(*axes))
    masks = _cell_masks(gens, axes)
    assert len(masks) == len(cells)
    first = {}
    for cell, (b, mask) in enumerate(zip(cells, masks)):
        cls = classify(mask)
        live = [[j for j, gs in enumerate(level) if any(divides_point(g, b) for g in gs)]
                for level in summands]
        assert [_bit_indices(m, list(range(len(level)))) for m, level in zip(cls, summands)] == live
        assert cls[-1] == any(divides_point(g, b) for g in h0.gens)
        first.setdefault(cls, cell)
    assert list(_strand_classes(summands, h0, axes).items()) == list(first.items())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_euler_characteristics_match_the_alternating_count(data):
    nvars = data.draw(st.integers(1, 3))
    ctx = simple_context(nvars, tuple("xyz"[:nvars]))
    vec = st.tuples(*[st.integers(0, 3)] * nvars)
    shifts = data.draw(st.lists(st.lists(vec, max_size=5), min_size=1, max_size=5))
    shifts.insert(data.draw(st.integers(0, len(shifts))), [])
    points = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * nvars), max_size=20))
    # one point past the box of the shifts in every coordinate
    points.append(tuple(max((s[k] for level in shifts for s in level), default=0) + 1
                        for k in range(nvars)))
    C = FreeComplex(ctx, shifts, [None] * len(shifts))
    assert euler_characteristics(C, points) == [
        sum((-1) ** i * sum(divides_point(s, b) for s in level) for i, level in enumerate(shifts))
        for b in points]


# -- Betti tables and invariants

def test_betti_rejects_non_minimal():
    with pytest.raises(ValueError):
        betti_table(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)])))


def test_regularity_examples():
    assert regularity(betti_table(koszul2())) == 1
    m2 = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 2)])))
    assert regularity(betti_table(m2)) == 2
    M = minimalize_complex(taylor_complex(ideal(S2, [(2, 1), (1, 2)])))
    table = betti_table(M)
    assert [max(j for (kk, j) in table.entries if kk == k) for k in (1, 2)] == [3, 4]
    assert regularity(table) == 3


def test_regularity_of_quotient_indexing():
    m2 = betti_table(minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 2)]))))
    assert regularity(m2) == 2


def test_projective_dimension_examples():
    assert projective_dimension(betti_table(
        minimalize_complex(taylor_complex(ideal(S1, [(1,)]))))) == 1
    assert projective_dimension(betti_table(
        minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 2)]))))) == 2
    koszul3 = minimalize_complex(taylor_complex(ideal(S3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])))
    assert projective_dimension(betti_table(koszul3)) == 3


def test_linear_resolution_examples():
    m2 = betti_table(minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 2)]))))
    assert is_linear_resolution(m2, 2)
    two_gens = betti_table(minimalize_complex(taylor_complex(ideal(S2, [(2, 1), (1, 2)]))))
    assert not is_linear_resolution(two_gens, 2)
    assert is_linear_resolution(two_gens, 3)
    principal = betti_table(minimalize_complex(taylor_complex(ideal(S2, [(2, 1)]))))
    assert is_linear_resolution(principal, 3)


def test_mixed_degrees_are_never_linear():
    t = betti_table(minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (0, 3)]))))
    assert not any(is_linear_resolution(t, d) for d in range(6))


def test_shift_is_lcm_of_supporting_rows():
    # in a minimal resolution, each deeper shift is the lcm of the shifts of
    # the rows its column touches
    for gens in [[(2, 0), (1, 1), (0, 3)], [(3, 0), (2, 1), (1, 2), (0, 3)]]:
        M = minimalize_complex(taylor_complex(ideal(S2, gens)))
        for i in range(2, M.length + 1):
            for c in range(len(M.shifts[i])):
                acc = (0, 0)
                for r in M.diffs[i].cols.get(c, {}):
                    acc = lcm(acc, M.shifts[i - 1][r])
                assert acc == M.shifts[i][c]


# -- chain maps

def test_lift_divisor_rule():
    m = ideal_resolution(ideal(S2, [(1, 0), (0, 1)]))
    msq = ideal_resolution(ideal(S2, [(2, 0), (1, 1), (0, 2)]))
    phi = lift_chain_map(msq, m)
    # e_{x^2} -> x f_x, e_{xy} -> y f_x (first divisor), e_{y^2} -> y f_y
    assert phi.mats[0].cols == {0: {0: Fraction(1)}, 1: {0: Fraction(1)}, 2: {1: Fraction(1)}}
    # the lift of (x, y, z)^2 into (x, y, z) is nonzero at every position
    mx = ideal(S3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    source, target = ideal_resolution(mx * mx), ideal_resolution(mx)
    phi = lift_chain_map(source, target)
    assert source.length == target.length == 2
    assert all(phi.mats[i].cols for i in range(source.length + 1))


def test_lift_of_identity_inclusion():
    res = ideal_resolution(ideal(S2, [(2, 0), (1, 1), (0, 3)]))
    phi = lift_chain_map(res, res)
    assert phi.mats[0].cols == identity_chain_map(res).mats[0].cols


def test_lift_commutes_on_random_nested_pairs():
    rng = random.Random(21)
    for _ in range(10):
        gens = set()
        while len(gens) < 3:
            gens.add((rng.randint(0, 2), rng.randint(0, 2)))
            gens.discard((0, 0))
        big = ideal(S2, list(gens))
        if big.is_zero or big.is_unit:
            continue
        small = big * ideal(S2, [(1, 0), (0, 1)])
        phi = lift_chain_map(ideal_resolution(small), ideal_resolution(big))
        phi.validate()  # commuting squares checked symbolically


def test_lift_rejects_non_inclusion():
    outside = ideal_resolution(ideal(S2, [(1, 0)]))
    inside = ideal_resolution(ideal(S2, [(0, 1)]))
    with pytest.raises(ValueError):
        lift_chain_map(outside, inside)


def test_lift_into_a_missing_position_raises_a_witness():
    # the target keeps only position 0 of the resolution of (x, y), so the
    # nonzero image of the source's syzygy has nowhere to go
    m = ideal_resolution(ideal(S2, [(1, 0), (0, 1)]))
    truncated = FreeComplex(m.ctx, [list(m.shifts[0])], [None])
    with pytest.raises(ConstructionError) as err:
        lift_chain_map(m, truncated)
    assert err.value.witness == (1, 0)


def test_lift_into_a_non_resolution_raises_a_witness():
    # with its differential zeroed, the target's position 1 cannot hit the
    # image of the source's syzygy
    m = ideal_resolution(ideal(S2, [(1, 0), (0, 1)]))
    broken = copy_complex(m)
    broken.diffs[1].cols.clear()
    with pytest.raises(ConstructionError) as err:
        lift_chain_map(m, broken)
    assert err.value.witness == (1, 0)


# -- tensor products

def test_tensor_of_koszuls_is_koszul():
    ctx = VariableContext((1, 1), ("x", "y"))
    x = ideal_resolution(ideal(simple_context(1, ("x",)), [(1,)]))
    y = ideal_resolution(ideal(simple_context(1, ("y",)), [(1,)]))
    t = tensor_resolutions([x, y], ctx)
    assert t.ranks == [1]
    assert t.shifts[0] == [(1, 1)]

    m2 = ideal_resolution(ideal(simple_context(2, ("x", "y")), [(2, 0), (1, 1), (0, 2)]))
    big = VariableContext((2, 1), ("x", "z"))
    z = ideal_resolution(ideal(simple_context(1, ("z",)), [(1,)]))
    t2 = tensor_resolutions([m2, z], big)
    assert t2.ranks == [3, 2]
    assert block_witness(t2, ideal(big, [(2, 0, 1), (1, 1, 1), (0, 2, 1)])) is None


def test_tensor_factors_must_match_the_blocks():
    # factor l lives on block l, so the factors' sizes are the block sizes
    m2 = ideal_resolution(ideal(simple_context(2, ("x", "y")), [(2, 0), (0, 2)]))
    with pytest.raises(ConstructionError) as err:
        tensor_resolutions([m2], VariableContext((1, 1), ("x", "y")))
    assert err.value.witness == ((2,), (1, 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), max_size=4), min_size=1, max_size=4))
def test_block_offsets_lay_each_anti_diagonal_out_in_order(sizes):
    off = block_offsets(sizes)
    # every block of the grid lies on an anti-diagonal
    assert all(i + j < len(off) for i, row in enumerate(sizes) for j in range(len(row)))
    for k, starts in enumerate(off):
        ranks = [row[k - i] if 0 <= k - i < len(row) else 0 for i, row in enumerate(sizes)]
        # block i starts where block i - 1 ends, and the last one ends at
        # the rank of the anti-diagonal
        assert starts[0] == 0 and starts[1:] == [s + n for s, n in zip(starts, ranks)]
        spans = [range(starts[i], starts[i + 1]) for i in range(len(sizes))]
        assert [x for span in spans for x in span] == list(range(starts[-1]))


def tensor_factors():
    """Ideal resolutions of ranks [3, 3, 1], [1] and [3, 2] on blocks of
    3, 1 and 2 variables."""
    return [
        ideal_resolution(ideal(simple_context(3, ("x", "y", "z")), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
        ideal_resolution(ideal(simple_context(1, ("w",)), [(2,)])),
        ideal_resolution(ideal(simple_context(2, ("u", "v")), [(2, 0), (1, 1), (0, 2)])),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_of_n_factors(n):
    factors = tensor_factors()[:n]
    ctx = VariableContext(tuple(f.ctx.nvars for f in factors))
    cx = tensor_resolutions(factors, ctx)
    cx.validate()   # shapes, homogeneity and diff o diff = 0
    assert cx.length == sum(f.length for f in factors)
    for k, level in enumerate(cx.shifts):
        # the concatenated shifts of every choice of factor positions
        # summing to k, with multiplicity
        want = Counter(
            sum(parts, ())
            for positions in itertools.product(*[range(len(f.shifts)) for f in factors])
            if sum(positions) == k
            for parts in itertools.product(*[f.shifts[i] for f, i in zip(factors, positions)]))
        assert Counter(level) == want, k
    # it resolves the product of the factors' ideals
    product = ideal(ctx, [sum(gens, ()) for gens in itertools.product(*[f.shifts[0] for f in factors])])
    assert block_witness(cx, product) is None


# -- the integer kernel of compose

def reference_compose(a: MonomialMatrix, b: MonomialMatrix) -> dict:
    """The columns of a o b, (a o b)[r, c] = sum_k a[r, k] b[k, c] in
    Fractions: the nonzero columns of b in their stored order, each with its
    rows in the order in which compose first touches them."""
    out = {}
    for c, bcol in b.cols.items():
        acc = {}
        for k, w in bcol.items():
            for r, v in a.cols.get(k, {}).items():
                acc[r] = acc.get(r, Fraction(0)) + v * w
        acc = {r: v for r, v in acc.items() if v != 0}
        if acc:
            out[c] = acc
    return out


def flat(n):
    return [(0,)] * n


def normal(v):
    """A rational scalar as the program stores it: an int where integral."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def as_fractions(cols: dict) -> dict:
    return {c: {r: Fraction(v) for r, v in col.items()} for c, col in cols.items()}


def ordered(cols: dict) -> list:
    """The columns and, inside each, the rows of a map in stored order."""
    return [(c, list(col.items())) for c, col in cols.items()]


@st.composite
def composable_pairs(draw):
    """a: m x k and b: k x n sparse scalar matrices with denominators up to 5,
    their scalars stored as the program stores them (ints where integral).
    Each column is drawn absent, stored empty, all-int, Fraction-only
    (every scalar with a denominator) or mixed, so either operand may be
    zero, all-int or mixed; columns are stored in a drawn order, and b may
    get an extra column whose products with a row of a cancel."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    scalars = {
        "int": st.integers(-4, 4).filter(bool),
        "fraction": st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([2, 3, 4, 5]))
                      .filter(lambda v: v.denominator != 1),
        "mixed": st.builds(lambda p, q: normal(Fraction(p, q)),
                           st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 1, 2, 3, 4, 5])),
    }

    def sparse(rows, ncols):
        cols = {}
        for c in draw(st.permutations(range(ncols))):
            kind = draw(st.sampled_from(["absent", "empty", "int", "fraction", "mixed"]))
            if kind == "absent":
                continue
            cells = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
            cols[c] = {} if kind == "empty" else {r: draw(scalars[kind]) for r in sorted(cells)}
        return cols

    a, b = sparse(m, k), sparse(k, n)
    full_row = next((r for r in range(m) if sum(1 for col in a.values() if r in col) >= 2), None)
    if full_row is not None and draw(st.booleans()):
        (k1, v1), (k2, v2) = [(kk, col[full_row]) for kk, col in a.items() if full_row in col][:2]
        b[n] = {k1: v2, k2: -v1}
        n += 1
    return (MonomialMatrix(flat(m), flat(k), a),
            MonomialMatrix(flat(k), flat(n), b))


@settings(max_examples=400, deadline=None)
@given(composable_pairs())
def test_compose_matches_fraction_reference(pair):
    a, b = pair
    got = a.compose(b)
    # the reference multiplies the same scalars as Fractions only
    ref = reference_compose(MonomialMatrix(a.row_shifts, a.col_shifts, as_fractions(a.cols)),
                            MonomialMatrix(b.row_shifts, b.col_shifts, as_fractions(b.cols)))
    assert ordered(got.cols) == ordered(ref)
    assert all(col for col in got.cols.values())
    assert all(normal_scalar(v) for col in got.cols.values() for v in col.values())
    assert got.row_shifts == a.row_shifts and got.col_shifts == b.col_shifts


def test_compose_examples():
    F = Fraction
    # empty operands
    e = MonomialMatrix(flat(0), flat(3), {})
    assert e.compose(MonomialMatrix(flat(3), flat(2), {1: {0: F(1)}})).cols == {}
    assert MonomialMatrix(flat(2), flat(0), {}).compose(
        MonomialMatrix(flat(0), flat(4), {})).cols == {}
    # disjoint supports: a zero product
    a = MonomialMatrix(flat(2), flat(2), {0: {0: F(1, 2)}})
    b = MonomialMatrix(flat(2), flat(2), {1: {1: F(3)}})
    assert a.compose(b).cols == {}
    # products that cancel, with mixed denominators
    a = MonomialMatrix(flat(1), flat(2), {0: {0: F(1, 3)}, 1: {0: F(2, 5)}})
    b = MonomialMatrix(flat(2), flat(2), {0: {0: F(6, 5), 1: F(-1)}, 1: {0: F(3, 4)}})
    assert a.compose(b).cols == {1: {0: F(1, 4)}}
    # integer entries on both sides
    a = MonomialMatrix(flat(1), flat(2), {0: {0: 2}, 1: {0: 3}})
    b = MonomialMatrix(flat(2), flat(1), {0: {0: 5, 1: -1}})
    assert a.compose(b).cols == {0: {0: F(7)}}
    with pytest.raises(ValueError):
        a.compose(a)


# -- heap-ordered cancellation

def reference_minimalize(C: FreeComplex) -> FreeComplex:
    """The cancellation loop that picks the next unit by min(units)."""
    p = C.length
    alive = [set(range(len(C.shifts[i]))) for i in range(p + 1)]
    final_rows = [None] * (p + 1)
    for i in range(1, p + 1):
        rows, cols, units = {}, {}, set()
        rsh, csh = C.shifts[i - 1], C.shifts[i]
        for c, col in C.diffs[i].cols.items():
            for r, v in col.items():
                if r in alive[i - 1] and c in alive[i]:
                    rows.setdefault(r, {})[c] = v
                    cols.setdefault(c, {})[r] = v
                    if rsh[r] == csh[c]:
                        units.add((r, c))

        def set_entry(r, c, v):
            if v == 0:
                rows.get(r, {}).pop(c, None)
                cols.get(c, {}).pop(r, None)
                units.discard((r, c))
            else:
                rows.setdefault(r, {})[c] = v
                cols.setdefault(c, {})[r] = v
                if rsh[r] == csh[c]:
                    units.add((r, c))

        while units:
            r0, c0 = min(units)
            u = rows[r0][c0]
            col_entries = [(r, v) for r, v in cols[c0].items() if r != r0]
            row_entries = [(c, v) for c, v in rows[r0].items() if c != c0]
            for r, vc in col_entries:
                for c, vr in row_entries:
                    set_entry(r, c, rows.get(r, {}).get(c, Fraction(0)) - Fraction(vc * vr) / u)
            for c, _ in row_entries:
                set_entry(r0, c, 0)
            for r, _ in col_entries:
                set_entry(r, c0, 0)
            units.discard((r0, c0))
            rows.pop(r0, None)
            cols.pop(c0, None)
            alive[i - 1].discard(r0)
            alive[i].discard(c0)
        final_rows[i] = rows

    new_index = [{old: new for new, old in enumerate(sorted(a))} for a in alive]
    shifts = [[C.shifts[i][old] for old in sorted(alive[i])] for i in range(p + 1)]
    diffs = [None]
    for i in range(1, p + 1):
        out = {}
        for r, rowmap in final_rows[i].items():
            for c, v in rowmap.items():
                if r in new_index[i - 1] and c in new_index[i]:
                    out.setdefault(new_index[i][c], {})[new_index[i - 1][r]] = v
        diffs.append(MonomialMatrix(shifts[i - 1], shifts[i], dict(sorted(out.items()))))
    while len(shifts) > 1 and not shifts[-1]:
        shifts.pop()
        diffs.pop()
    out = FreeComplex(C.ctx, shifts, diffs)
    return out


def rescaled(C: FreeComplex) -> FreeComplex:
    """C in the basis f_j e_j at positions >= 1, f_j cycling through a few
    rationals, so that the differentials carry non-unit scalars, stored as
    the program stores them: a mix of ints and Fractions."""
    f = [Fraction(2), Fraction(-1, 3), Fraction(3, 2), Fraction(1)]
    out = copy_complex(C)
    for i in range(1, out.length + 1):
        out.diffs[i].cols = {
            c: {r: normal(v * f[c % 4] / (f[r % 4] if i >= 2 else 1)) for r, v in col.items()}
            for c, col in out.diffs[i].cols.items()}
    return out


def fraction_copy(C: FreeComplex) -> FreeComplex:
    out = copy_complex(C)
    for d in out.diffs[1:]:
        d.cols = as_fractions(d.cols)
    return out


def same_complex(a: FreeComplex, b: FreeComplex) -> bool:
    """Equal shifts and maps, the columns of each map in the same order."""
    return a.shifts == b.shifts and all(
        d.cols == e.cols and list(d.cols) == list(e.cols)
        for d, e in zip(a.diffs[1:], b.diffs[1:]))


def demo_induced_ideal():
    """L of demos/expansion_x2y_xy2.json: 12 generators in 4 variables."""
    from gmpi.cli import parse_instance_document
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "expansion_x2y_xy2.json"
    return parse_instance_document(json.loads(path.read_text())).induced


def one_map_complex(rows, cols, scalars) -> FreeComplex:
    """A one-map complex over S1 with scalars[c][r] at row shifts ``rows``
    and column shifts ``cols`` (exponents of x)."""
    shifts = [[(e,) for e in rows], [(e,) for e in cols]]
    return make_complex(S1, shifts, [None, MonomialMatrix(*shifts, scalars)])


def test_minimalize_skips_the_units_a_cancellation_zeroed():
    # the block [[1, 1], [1, 1]] between equal shifts: cancelling (0, 0)
    # zeroes (1, 1), so (0, 1), (1, 0) and (1, 1) are popped dead
    C = one_map_complex([1, 1, 0], [1, 1, 2],
                        {0: {0: 1, 1: 1, 2: 1}, 1: {0: 1, 1: 1, 2: 2}, 2: {0: 1, 1: 3}})
    got = minimalize_complex(C)
    assert got.shifts == [[(1,), (0,)], [(1,), (2,)]]
    assert got.diffs[1].cols == {0: {1: 1}, 1: {0: 2, 1: -1}}
    assert same_complex(got, reference_minimalize(C))


def test_minimalize_cancels_a_zeroed_unit_that_a_later_update_stores_again():
    # cancelling (0, 0) zeroes the unit (2, 2); cancelling (1, 1) stores it
    # again, so the heap holds (2, 2) twice: the first copy is cancelled and
    # the second is popped dead
    C = one_map_complex([1, 1, 1, 0], [1, 1, 1, 2], {
        0: {0: 1, 1: 1, 2: 1, 3: 1}, 1: {0: 1, 1: 2, 2: 2}, 2: {0: 1, 1: 2, 2: 1},
        3: {0: 1, 3: 1}})
    got = minimalize_complex(C)
    assert got.shifts == [[(0,)], [(2,)]]
    assert got.diffs[1].cols == {0: {0: -1}}
    assert same_complex(got, reference_minimalize(C))


def test_minimalize_matches_the_min_units_loop_on_the_demo_taylor_complex():
    L = demo_induced_ideal()
    assert len(L.gens) == 12
    C = taylor_complex(L)
    got = minimalize_complex(C)
    assert same_complex(got, reference_minimalize(C))
    assert betti_table(got) == koszul_betti(L)
    S = rescaled(C)
    assert same_complex(minimalize_complex(S), reference_minimalize(S))


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_minimalized_taylor_table_equals_koszul_oracle(I):
    T = taylor_complex(I)
    M = minimalize_complex(T)
    assert M.is_minimal
    assert betti_table(M) == koszul_betti(I)
    assert same_complex(M, reference_minimalize(T))
    S = rescaled(T)
    S.validate()
    # mixed int and Fraction scalars, against the cancellation in Fractions
    got = minimalize_complex(S)
    assert same_complex(got, reference_minimalize(fraction_copy(S)))
    assert all(normal_scalar(v) for d in got.diffs[1:] for col in d.cols.values()
               for v in col.values())


@settings(max_examples=400, deadline=None)
@given(composable_pairs(), st.data())
def test_first_nonzero_column_is_the_column_of_the_first_composite_entry(pair, data):
    a, b = pair
    # the columns in any order: compose keeps it
    b.cols = dict(data.draw(st.permutations(list(b.cols.items()))))
    assert a.first_nonzero_column(b) == next(iter(a.compose(b).cols), None)


def test_first_nonzero_column_follows_the_entry_order_of_compose():
    # the columns of b are stored in the order 0, 2, 1; the products of
    # column 0 cancel, so the first nonzero column is 2, not 1
    a = MonomialMatrix(flat(2), flat(3), {0: {0: 1}, 1: {0: 1}, 2: {1: 1}})
    b = MonomialMatrix(flat(3), flat(3), {0: {0: 1, 1: -1}, 2: {2: 1}, 1: {2: 1, 0: 1}})
    assert list(a.compose(b).cols) == [2, 1]
    assert a.first_nonzero_column(b) == 2
    b.cols = dict(sorted(b.cols.items()))
    assert a.first_nonzero_column(b) == 1
    del b.cols[1], b.cols[2]
    assert a.first_nonzero_column(b) is None
    assert MonomialMatrix(flat(2), flat(3), {}).first_nonzero_column(b) is None
    with pytest.raises(ValueError):
        a.first_nonzero_column(a)


def composite_square_witness(C: FreeComplex):
    """square_witness read off the composites: the first column of the first
    nonzero diff[i-1] o diff[i]."""
    for i in range(2, len(C.shifts)):
        comp = C.diffs[i - 1].compose(C.diffs[i])
        if comp.cols:
            return i, comp.col_shifts[next(iter(comp.cols))]
    return None


@settings(max_examples=200, deadline=None)
@given(corrupted_lyubeznik(), st.data())
def test_streamed_square_witness_equals_the_composite_one(case, data):
    C, _ = case
    # the columns in any order
    for d in C.diffs[1:]:
        if data.draw(st.booleans()):
            d.cols = dict(data.draw(st.permutations(list(d.cols.items()))))
    assert C.square_witness() == composite_square_witness(C)


# -- typed construction errors

def test_construction_errors_carry_witnesses():
    C = koszul2()
    with pytest.raises(ConstructionError) as err:
        FreeComplex(C.ctx, C.shifts, C.diffs[:-1]).validate()
    assert err.value.witness == (2, 3)
    with pytest.raises(ConstructionError) as err:
        ChainMap(C, C, identity_chain_map(C).mats[:-1]).validate()
    assert err.value.witness == (2, 3)
    other = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (0, 1)])))
    with pytest.raises(ConstructionError) as err:
        identity_chain_map(C).compose(identity_chain_map(other))
    assert err.value.witness == 1
    assert isinstance(err.value, RuntimeError) and not isinstance(err.value, ValueError)


# -- Lyubeznik complex

def lyubeznik_faces(C: FreeComplex) -> list[list[tuple[int, ...]]]:
    """The generator subset of each basis element, read off the
    differential: a face is the union of the faces in its boundary."""
    faces = [[()], [(j,) for j in range(C.ranks[1])]] if C.length else [[()]]
    for i in range(2, C.length + 1):
        rows: dict[int, set] = {}
        for c, col in C.diffs[i].cols.items():
            rows[c] = set(col)
        faces.append([
            tuple(sorted(set().union(*(faces[i - 1][r] for r in rows[c]))))
            for c in range(C.ranks[i])])
    return faces


def admissible(gens, face) -> bool:
    """No generator before a tail's first element divides the tail's lcm."""
    for t in range(len(face)):
        tail = (0,) * len(gens[0])
        for i in face[t:]:
            tail = lcm(tail, gens[i])
        if any(divides(gens[q], tail) for q in range(face[t])):
            return False
    return True


@st.composite
def shuffled_small_ideals(draw):
    I = draw(small_ideals())
    return MonomialIdeal(I.ctx, tuple(draw(st.permutations(I.gens))))


@settings(max_examples=150, deadline=None)
@given(shuffled_small_ideals())
def test_lyubeznik_complex_is_taylor_on_the_admissible_faces(I):
    gens = I.gens
    C = lyubeznik_complex(I)
    faces = lyubeznik_faces(C)
    everything = [f for size in range(len(gens) + 1)
                  for f in itertools.combinations(range(len(gens)), size)]
    # exactly the admissible subsets, level by level in Taylor's order
    assert [f for level in faces for f in level] == [f for f in everything if admissible(gens, f)]
    index = [{f: c for c, f in enumerate(level)} for level in faces]
    for i, level in enumerate(faces):
        for c, face in enumerate(level):
            shift = (0,) * I.ctx.nvars
            for j in face:
                shift = lcm(shift, gens[j])
            assert C.shifts[i][c] == shift
            if i == 0:
                continue
            # closed under removing an element, with Taylor's signs
            assert C.diffs[i].cols[c] == {index[i - 1][face[:j] + face[j + 1:]]: (-1) ** j
                              for j in range(i)}
    table = betti_table(minimalize_complex(C))
    assert table == betti_table(minimalize_complex(taylor_complex(I)))
    assert table == koszul_betti(I)


@settings(max_examples=150, deadline=None)
@given(shuffled_small_ideals())
def test_quotient_resolution_keeps_the_generator_order_at_position_1(J):
    # basis element j of position 1 maps to the j-th generator, in canonical
    # and in shuffled order: the Lyubeznik complex lists the generators there
    # in order and no cancellation reaches position 1, so the construction
    # indexes the products L_j by position 1 without a permutation
    for I in (ideal(J.ctx, J.gens), J):
        res = quotient_resolution(I)
        assert res.shifts[1] == list(I.gens)
        assert res.diffs[1].cols == {c: {0: 1} for c in range(len(I.gens))}


def test_lyubeznik_complex_of_the_demo_ideal():
    L = demo_induced_ideal()
    C = lyubeznik_complex(L)
    assert sum(C.ranks) == 148 and sum(taylor_complex(L).ranks) == 4096
    assert betti_table(minimalize_complex(C)) == koszul_betti(L)


def test_lyubeznik_cap_is_checked_before_any_matrix(monkeypatch):
    from gmpi import complexes
    built = []
    monkeypatch.setattr(complexes, "_subset_complex", lambda *args: built.append(args))
    # in this order every subset of the 16 generators is admissible: 2^16 of them
    big = ideal(S2, [(d, 15 - d) for d in range(16)])
    with pytest.raises(SizeCapError, match="cap of 16384 basis elements"):
        lyubeznik_complex(big)
    with pytest.raises(SizeCapError):
        lyubeznik_complex(ideal(S2, [(2, 0), (1, 1), (0, 2)]), cap=3)
    assert built == []
    lyubeznik_complex(ideal(S2, [(2, 0), (1, 1), (0, 2)]), cap=8)
    assert len(built) == 1


def test_lyubeznik_rejects_degenerate():
    with pytest.raises(ValueError):
        lyubeznik_complex(ideal(S2, [(0, 0)]))
    with pytest.raises(ValueError):
        lyubeznik_complex(MonomialIdeal(S2, ()))


def test_resolve_beyond_the_taylor_cap(tmp_path, capsys):
    # m^3 in 4 variables: 20 generators, 2^20 Taylor subsets
    from gmpi.cli import ideal_to_document, main
    from gmpi.families import power_of_maximal
    I = power_of_maximal(4, 3)
    assert len(I.gens) == 20
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(ideal_to_document(I)))
    assert main(["resolve", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert betti_from_json(payload["betti"]) == koszul_betti(I)


# -- the Lyubeznik kernel against a reference copy of its earlier code

def reference_lyubeznik(I: MonomialIdeal, cap: int = 1 << 14) -> FreeComplex:
    """lyubeznik_complex as it was before its bitmask rewrite: the first
    divisor of each candidate lcm by a linear scan, each level sorted, and
    each shift and boundary face found by slicing index tuples."""
    gens = I.gens
    k = len(gens)
    first = {}

    def first_divisor(m):
        if m not in first:
            first[m] = next(q for q, g in enumerate(gens) if divides(g, m))
        return first[m]

    levels = [[()], [(i,) for i in range(k)]]
    lcms = {(i,): g for i, g in enumerate(gens)}
    size = 1 + k
    while levels[-1] and size <= cap:
        level = []
        for tail in levels[-1]:
            below = lcms[tail]
            for i in range(tail[0]):
                m = lcm(gens[i], below)
                if first_divisor(m) == i:
                    lcms[(i,) + tail] = m
                    level.append((i,) + tail)
            if size + len(level) > cap:
                break
        size += len(level)
        level.sort()
        levels.append(level)
    if size > cap:
        raise SizeCapError(
            f"the Lyubeznik complex of {k} generators exceeds the cap of {cap} basis elements")
    levels = levels[:-1]
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    shifts = [[(0,) * I.ctx.nvars]]
    for size in range(1, len(levels)):
        below, prev = index[size - 1], shifts[size - 1]
        shifts.append([lcm(prev[below[s[:-1]]], gens[s[-1]]) for s in levels[size]])
    diffs = [None]
    for size in range(1, len(levels)):
        below = index[size - 1]
        cols = {}
        for c, subset in enumerate(levels[size]):
            cols[c] = {below[subset[:j] + subset[j + 1:]]: (-1) ** j for j in range(size)}
        diffs.append(MonomialMatrix(shifts[size - 1], shifts[size], cols))
    return FreeComplex(I.ctx, shifts, diffs)


@st.composite
def wide_exponent_ideals(draw):
    """Ideals of at most 7 generators in 2 or 3 variables, exponents <= 50,
    in a shuffled order."""
    nvars = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(0, 50)] * nvars).filter(any)
    I = ideal(simple_context(nvars, tuple("xyz"[:nvars])),
              draw(st.lists(vec, min_size=1, max_size=7)))
    return MonomialIdeal(I.ctx, tuple(draw(st.permutations(I.gens))))


@st.composite
def power_subsets(draw):
    """Up to 8 monomials of one degree in 3 variables, shuffled: their
    Lyubeznik complexes carry units at several shifts."""
    d = draw(st.integers(2, 3))
    degree_d = [g for g in itertools.product(range(d + 1), repeat=3) if sum(g) == d]
    gens = draw(st.lists(st.sampled_from(degree_d), min_size=2, max_size=8, unique=True))
    return MonomialIdeal(S3, tuple(gens))


def int_rescaled(C: FreeComplex) -> FreeComplex:
    """C with integer non-unit scalars: basis element j of position i >= 1
    times f_j, f_j cycling through 2, 3, 1, -1, and each differential above
    it times 6 so that dividing a row by f_j stays integral.  Units of 2
    and 3 then give Fraction factors partway through a cancellation."""
    f = [2, 3, 1, -1]
    out = copy_complex(C)
    for i in range(1, out.length + 1):
        out.diffs[i].cols = {
            c: {r: v * f[c % 4] * (6 // f[r % 4] if i >= 2 else 1) for r, v in col.items()}
            for c, col in out.diffs[i].cols.items()}
    return out


def unit_shifts(d: MonomialMatrix) -> set:
    return {d.col_shifts[c] for c, col in d.cols.items() for r in col
            if d.row_shifts[r] == d.col_shifts[c]}


@settings(max_examples=150, deadline=None)
@given(st.one_of(shuffled_small_ideals(), wide_exponent_ideals(), power_subsets()), st.data())
def test_lyubeznik_kernel_matches_the_reference_copy(I, data):
    # the same shifts, scalars and column order, the same resolution, and
    # the cap refused at the same size
    C, R = lyubeznik_complex(I), reference_lyubeznik(I)
    assert same_complex(C, R)
    assert all(ordered(d.cols) == ordered(e.cols) for d, e in zip(C.diffs[1:], R.diffs[1:]))
    res = quotient_resolution(I)
    assert same_complex(res, reference_minimalize(R))
    assert all(type(v) is int for d in res.diffs[1:] for col in d.cols.values()
               for v in col.values())
    total = sum(R.ranks)
    for cap in (total - 1, total, data.draw(st.integers(1, total + 1))):
        try:
            reference_lyubeznik(I, cap)
        except SizeCapError as e:
            with pytest.raises(SizeCapError, match=str(e)):
                lyubeznik_complex(I, cap)
        else:
            assert same_complex(lyubeznik_complex(I, cap), R)
    # integer non-unit scalars, cancelled partly in ints and partly in
    # Fractions, against the cancellation in Fractions
    S = int_rescaled(C)
    S.validate()
    got = minimalize_complex(S)
    assert same_complex(got, reference_minimalize(fraction_copy(S)))
    assert all(normal_scalar(v) for d in got.diffs[1:] for col in d.cols.values()
               for v in col.values())


def test_power_subsets_cancel_units_at_several_shifts():
    # the strategy above reaches units at several shifts of one position
    I = MonomialIdeal(S3, ((0, 1, 1), (2, 0, 0), (1, 1, 0), (0, 0, 2), (1, 0, 1), (0, 2, 0)))
    C = lyubeznik_complex(I)
    assert unit_shifts(C.diffs[3]) == {(2, 1, 1), (2, 0, 2), (2, 2, 0)}
    assert unit_shifts(C.diffs[4]) == {(2, 1, 2), (2, 2, 1)}
    assert same_complex(C, reference_lyubeznik(I))
    assert same_complex(quotient_resolution(I), reference_minimalize(C))


@settings(max_examples=150, deadline=None)
@given(shuffled_small_ideals(), st.data())
def test_validate_reports_a_corrupted_lyubeznik_complex_at_its_first_square(I, data):
    # one sign flipped, or one face entry dropped: validate raises at the
    # first position whose composite is nonzero, which is the corrupted
    # position from 2 up (its lower differential maps no face to zero)
    C = lyubeznik_complex(I)
    i = data.draw(st.integers(1, C.length))
    d = C.diffs[i].cols
    r, c = data.draw(st.sampled_from(sorted((r, c) for c, col in d.items() for r in col)))
    if data.draw(st.booleans()):
        d[c][r] = -d[c][r]
    else:
        del d[c][r]
        if not d[c]:
            del d[c]
    expected = composite_square_witness(C)
    assert C.square_witness() == expected
    if expected is None:
        assert i == 1
        C.validate()
        return
    assert expected[0] == i or (i == 1 and expected[0] == 2)
    with pytest.raises(ValueError, match=rf"^diff o diff != 0 at position {expected[0]}$"):
        C.validate()
