import random
from fractions import Fraction

import pytest

from gmpi import linalg
from gmpi.complexes import (
    SizeCapError,
    betti_table,
    euler_characteristic_at,
    exactness_check,
    ideal_resolution,
    identity_chain_map,
    is_linear_resolution,
    lift_chain_map,
    minimalize_complex,
    projective_dimension,
    inexact_positions,
    regularity,
    scalar_matrices,
    strand,
    taylor_complex,
    tensor_resolutions,
)
from gmpi.monomials import VariableContext, divides, ideal, lcm, simple_context

S1 = simple_context(1, ("x",))
S2 = simple_context(2, ("x", "y"))
S3 = simple_context(3, ("x", "y", "z"))


def koszul2():
    return minimalize_complex(taylor_complex(ideal(S2, [(1, 0), (0, 1)])))


# -- Taylor complex

def test_taylor_principal():
    C = taylor_complex(ideal(S1, [(1,)]))
    assert C.shifts == [[(0,)], [(1,)]]
    assert C.diffs[1].entries == {(0, 0): Fraction(1)}


def test_taylor_koszul_two_variables():
    C = taylor_complex(ideal(S2, [(1, 0), (0, 1)]))
    assert C.ranks == [1, 2, 1]
    assert C.is_minimal
    assert betti_table(C).entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_taylor_three_generators_resolves():
    I = ideal(S2, [(2, 0), (1, 1), (0, 3)])
    C = taylor_complex(I)
    assert C.ranks == [1, 3, 3, 1]
    ok, witness = exactness_check(C, I)
    assert ok, witness


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
    bad = MonomialMatrix(S2, [(1, 0)], [(0, 1)], {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        make_complex(S2, [[(1, 0)], [(0, 1)]], [None, bad])
    # differentials that do not compose to zero
    d1 = MonomialMatrix(S2, [(0, 0)], [(1, 0)], {(0, 0): Fraction(1)})
    d2 = MonomialMatrix(S2, [(1, 0)], [(1, 1)], {(0, 0): Fraction(1)})
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
    assert M.diffs[1].entries == C.diffs[1].entries


def test_minimalize_hilbert_burch_shape():
    # independent evidence: exactness, minimality, Euler characteristic
    I = ideal(S2, [(2, 0), (1, 1), (0, 3)])
    M = minimalize_complex(taylor_complex(I))
    assert M.ranks == [1, 3, 2]
    assert M.is_minimal
    assert exactness_check(M, I)[0]
    rng = random.Random(2)
    for _ in range(60):
        b = (rng.randint(0, 4), rng.randint(0, 5))
        assert euler_characteristic_at(M, b) == (0 if I.member(b) else 1)


def test_minimalize_square_of_maximal():
    I = ideal(S2, [(2, 0), (1, 1), (0, 2)])
    M = minimalize_complex(taylor_complex(I))
    assert M.ranks == [1, 3, 2]
    # all first syzygies of the ideal live in total degree 3
    assert [sorted(map(sum, level)) for level in M.shifts] == [[0], [2, 2, 2], [3, 3]]
    assert exactness_check(M, I)[0]


def test_minimalize_preserves_strand_homology():
    I = ideal(S2, [(3, 0), (2, 1), (0, 2)])
    C = taylor_complex(I)
    M = minimalize_complex(C)

    def homology_dims(cx, b):
        st = strand(cx, b)
        ranks = [linalg.rank(m) for m in st.matrices]
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


# -- scalar matrices and the scalar complex

def test_scalar_matrices_koszul_signs():
    lams = scalar_matrices(koszul2())
    assert lams[0] == [[Fraction(1), Fraction(1)]]
    column = [row[0] for row in lams[1]]
    assert sorted(column) == [Fraction(-1), Fraction(1)]


def test_first_scalar_row_is_all_ones():
    for gens in [[(2, 0), (1, 1), (0, 3)], [(2, 1), (1, 2)], [(3, 0), (0, 3), (1, 1)]]:
        M = minimalize_complex(taylor_complex(ideal(S2, gens)))
        assert scalar_matrices(M)[0] == [[Fraction(1)] * M.ranks[1]]


def test_scalar_product_vanishes():
    M = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)])))
    # maps store only their scalars, so d o d = 0 is the vanishing of the
    # scalar products
    assert M.is_complex()


def test_scalar_matrices_reject_non_minimal():
    C = taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)]))
    assert not C.is_minimal
    with pytest.raises(ValueError):
        scalar_matrices(C)


def test_scalar_complex_exactness():
    K = koszul2()
    assert inexact_positions(scalar_matrices(K), K.ranks) == []
    M = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)])))
    assert inexact_positions(scalar_matrices(M), M.ranks) == []


def test_scalar_complex_exactness_has_teeth():
    M = minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 3)])))
    lams = scalar_matrices(M)
    for row in lams[1]:
        row[0] = Fraction(0)  # kill a column: the rank balance breaks
    assert inexact_positions(lams, M.ranks) == [1, 2]


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
    assert exactness_check(koszul2(), ideal(S2, [(1, 0), (0, 1)])) == (True, None)


def test_exactness_check_finds_corruption():
    I = ideal(S2, [(2, 0), (1, 1), (0, 3)])
    M = minimalize_complex(taylor_complex(I))
    key = min(M.diffs[2].entries)
    del M.diffs[2].entries[key]  # drop one syzygy entry
    ok, witness = exactness_check(M, I)
    assert not ok and witness is not None


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
    assert table.max_degree(1) == 3 and table.max_degree(2) == 4
    assert regularity(table) == 3


def test_regularity_of_quotient_indexing():
    m2 = betti_table(minimalize_complex(taylor_complex(ideal(S2, [(2, 0), (1, 1), (0, 2)]))))
    assert regularity(m2, of_ideal=False) == 1   # reg(S/I) = reg(I) - 1
    assert regularity(m2, of_ideal=True) == 2


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
                for (r, cc) in M.diffs[i].entries:
                    if cc == c:
                        acc = lcm(acc, M.shifts[i - 1][r])
                assert acc == M.shifts[i][c]


# -- chain maps

def test_lift_divisor_rule():
    m = ideal_resolution(ideal(S2, [(1, 0), (0, 1)]))
    msq = ideal_resolution(ideal(S2, [(2, 0), (1, 1), (0, 2)]))
    phi = lift_chain_map(msq, m)
    # e_{x^2} -> x f_x, e_{xy} -> y f_x (first divisor), e_{y^2} -> y f_y
    assert phi.mats[0].entries == {
        (0, 0): Fraction(1), (0, 1): Fraction(1), (1, 2): Fraction(1)}


def test_lift_of_identity_inclusion():
    res = ideal_resolution(ideal(S2, [(2, 0), (1, 1), (0, 3)]))
    phi = lift_chain_map(res, res)
    assert phi.mats[0].entries == identity_chain_map(res).mats[0].entries


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


# -- tensor products

def test_tensor_of_koszuls_is_koszul():
    ctx = VariableContext((1, 1), ("x", "y"))
    x = ideal_resolution(ideal(simple_context(1, ("x",)), [(1,)]))
    y = ideal_resolution(ideal(simple_context(1, ("y",)), [(1,)]))
    t = tensor_resolutions([x, y], ctx, [[0], [1]])
    assert t.complex.ranks == [1]
    assert t.complex.shifts[0] == [(1, 1)]

    m2 = ideal_resolution(ideal(simple_context(2, ("x", "y")), [(2, 0), (1, 1), (0, 2)]))
    big = VariableContext((2, 1), ("x", "z"))
    z = ideal_resolution(ideal(simple_context(1, ("z",)), [(1,)]))
    t2 = tensor_resolutions([m2, z], big, [[0, 1], [2]])
    assert t2.complex.ranks == [3, 2]
    ok, witness = exactness_check(
        t2.complex,
        ideal(big, [(2, 0, 1), (1, 1, 1), (0, 2, 1)]),
        style="ideal")
    assert ok, witness
