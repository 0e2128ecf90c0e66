import random

import pytest
from hypothesis import given, settings, strategies as st

from gmpi.monomials import (
    ContextMismatchError,
    MonomialIdeal,
    VariableContext,
    canonical_sort,
    divides,
    embed_ideal,
    ideal,
    intersect_many,
    lcm,
    minimalize,
    monomials_of_degree,
    simple_context,
    total_degree,
)

S2 = simple_context(2, ("x", "y"))
S3 = simple_context(3, ("x", "y", "z"))


def brute_minimal(gens):
    """Independent O(k^2) pairwise-divisibility scan."""
    gens = set(gens)
    return {g for g in gens if not any(h != g and divides(h, g) for h in gens)}


def random_vectors(rng, n, count, emax):
    return [tuple(rng.randint(0, emax) for _ in range(n)) for _ in range(count)]


# -- minimalize

def test_minimalize_removes_multiples():
    # x^2 divides x^2 y
    assert ideal(S2, [(2, 0), (2, 1), (1, 1)]).gens == ((2, 0), (1, 1))


def test_minimalize_singleton():
    assert ideal(S2, [(1, 0)]).gens == ((1, 0),)


def test_minimalize_idempotent_and_matches_scan():
    rng = random.Random(7)
    for _ in range(25):
        gens = random_vectors(rng, 3, 20, 4)
        mine = set(minimalize(gens))
        assert mine == brute_minimal(gens)
        assert set(minimalize(list(mine))) == mine


def quadratic_minimalize(gens):
    """The former minimalize: each generator against every kept one."""
    kept = []
    for g in sorted(set(gens), key=total_degree):
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return kept


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=30)))
def test_minimalize_matches_the_quadratic_loop(gens):
    # testing only against lower degrees keeps the output, order included
    assert minimalize(gens) == quadratic_minimalize(gens)


def test_minimalize_mixed_context_rejected():
    with pytest.raises(ContextMismatchError):
        ideal(S2, [(1, 0), (1, 0, 0)])


# -- divides / lcm

def test_divides_examples():
    assert divides((1, 0), (1, 1))
    assert not divides((2, 0), (1, 1))


def test_divides_lcm_upper_bound():
    rng = random.Random(3)
    for _ in range(50):
        a, b = random_vectors(rng, 4, 2, 5)
        assert divides(a, lcm(a, b))
        assert divides(b, lcm(a, b))


def test_lcm_examples():
    assert lcm((2, 0), (0, 3)) == (2, 3)
    assert lcm((1, 1), (1, 1)) == (1, 1)


def test_lcm_associative_commutative():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = random_vectors(rng, 3, 3, 6)
        componentwise = tuple(max(x, y, z) for x, y, z in zip(a, b, c))
        assert lcm(lcm(a, b), c) == componentwise
        assert lcm(a, lcm(b, c)) == componentwise
        assert lcm(a, b) == lcm(b, a)


# -- membership

def test_membership_examples():
    I = ideal(S2, [(2, 0), (1, 1)])
    assert I.member((2, 3))          # x^2 y^3
    assert not ideal(S2, [(2, 0)]).member((1, 0))


def expansion_members(I, degree):
    """All monomials of the ideal up to a total degree, by expansion."""
    out = set()
    for g in I.gens:
        slack = degree - total_degree(g)
        if slack < 0:
            continue
        for d in range(slack + 1):
            for u in monomials_of_degree(I.ctx, d):
                out.add(tuple(a + b for a, b in zip(g, u)))
    return out


def test_membership_matches_expansion():
    rng = random.Random(23)
    for _ in range(10):
        I = ideal(S2, random_vectors(rng, 2, 4, 3))
        if I.is_zero:
            continue
        members = expansion_members(I, 6)
        for d in range(7):
            for m in monomials_of_degree(S2, d):
                assert I.member(m) == (m in members)


# -- product / sum / intersect

def test_product_examples():
    x, y = ideal(S2, [(1, 0)]), ideal(S2, [(0, 1)])
    assert (x * y).gens == ((1, 1),)
    m = ideal(S2, [(1, 0), (0, 1)])
    assert (m * m).gens == ((2, 0), (1, 1), (0, 2))


def test_product_pairwise_scan():
    rng = random.Random(5)
    for _ in range(15):
        I = ideal(S2, random_vectors(rng, 2, 3, 3))
        J = ideal(S2, random_vectors(rng, 2, 3, 3))
        P = I * J
        pairwise = {tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens}
        assert set(P.gens) == brute_minimal(pairwise)
        for m in pairwise:
            assert P.member(m)
        assert set(minimalize(P.gens)) == set(P.gens)


def test_sum_identity_absorption():
    I = ideal(S2, [(1, 0), (0, 2)])
    assert I + I == I
    assert (ideal(S2, [(1, 0)]) + ideal(S2, [(2, 0)])).gens == ((1, 0),)


def test_sum_matches_union_scan():
    rng = random.Random(17)
    for _ in range(15):
        I = ideal(S3, random_vectors(rng, 3, 4, 3))
        J = ideal(S3, random_vectors(rng, 3, 4, 3))
        assert set((I + J).gens) == brute_minimal(set(I.gens) | set(J.gens))


def box_minimal_intersection(I, J, bound):
    """Divisibility-minimal common members inside the box [0, bound]^n."""
    import itertools
    members = [
        m for m in itertools.product(range(bound + 1), repeat=I.ctx.nvars)
        if I.member(m) and J.member(m)]
    return brute_minimal(members)


def test_intersect_examples():
    x, y = ideal(S2, [(1, 0)]), ideal(S2, [(0, 1)])
    assert x.intersect(y).gens == ((1, 1),)
    I = ideal(S2, [(2, 0), (1, 1)])
    J = ideal(S2, [(0, 2)])
    assert I.intersect(J).gens == ((1, 2),)
    assert I.intersect(I) == I


def test_intersect_matches_box_scan():
    rng = random.Random(29)
    for _ in range(10):
        I = ideal(S2, random_vectors(rng, 2, 3, 3))
        J = ideal(S2, random_vectors(rng, 2, 3, 3))
        if I.is_zero or J.is_zero:
            continue
        got = I.intersect(J)
        expected = box_minimal_intersection(I, J, 5)
        assert set(got.gens) == expected


def test_intersect_matches_box_scan_three_vars():
    rng = random.Random(37)
    for _ in range(5):
        I = ideal(S3, random_vectors(rng, 3, 3, 2))
        J = ideal(S3, random_vectors(rng, 3, 3, 2))
        if I.is_zero or J.is_zero:
            continue
        assert set(I.intersect(J).gens) == box_minimal_intersection(I, J, 5)


def test_product_distributes_over_sum():
    rng = random.Random(31)
    for _ in range(15):
        I = ideal(S2, random_vectors(rng, 2, 3, 2))
        J = ideal(S2, random_vectors(rng, 2, 3, 2))
        K = ideal(S2, random_vectors(rng, 2, 3, 2))
        assert I * (J + K) == I * J + I * K


def test_intersect_many_folds():
    parts = [ideal(S2, [(i + 1, 0)]) for i in range(3)]
    assert intersect_many(parts).gens == ((3, 0),)
    with pytest.raises(ValueError):
        intersect_many([])


def test_context_mismatch_in_arithmetic():
    I = ideal(S2, [(1, 0)])
    J = ideal(S3, [(1, 0, 0)])
    for op in (lambda: I + J, lambda: I * J, lambda: I.intersect(J)):
        with pytest.raises(ContextMismatchError):
            op()


# -- unit and zero ideals, canonical order

def test_unit_and_zero_ideals():
    unit = ideal(S2, [(0, 0)])
    assert unit.is_unit and unit.gens == ((0, 0),)
    zero = MonomialIdeal(S2, ())
    assert zero.is_zero
    assert not zero.member((1, 1))
    assert (zero + unit) == unit
    assert (zero * unit).is_zero


def test_canonical_order_descending_lex():
    # x^2 before xy before y^2
    assert canonical_sort([(0, 2), (2, 0), (1, 1)]) == ((2, 0), (1, 1), (0, 2))
    assert monomials_of_degree(S2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_variable_context_validation():
    with pytest.raises(ValueError):
        VariableContext(())
    with pytest.raises(ValueError):
        VariableContext((2, 0))
    with pytest.raises(ValueError):
        VariableContext((2, 2), ("x",))
    ctx = VariableContext((2, 1), ("x", "y"))
    assert [ctx.var_name(i) for i in range(3)] == ["x1", "x2", "y"]
    assert ctx.monomial_str((2, 0, 1)) == "x1^2*y"
    assert ctx.monomial_str((0, 0, 0)) == "1"


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        ideal(S2, [(1, -1)])


def test_every_ideal_checks_its_vectors_once(monkeypatch):
    # ideal() checks the vectors and the raw constructor trusts them, so a
    # sum, a product and an intersection are each checked once too
    import gmpi.monomials as monomials
    checks, ideals = [], []
    check, make = monomials._check_vectors, monomials.ideal
    monkeypatch.setattr(monomials, "_check_vectors",
                        lambda ctx, gens: checks.append(ctx) or check(ctx, gens))
    monkeypatch.setattr(monomials, "ideal",
                        lambda ctx, gens: ideals.append(ctx) or make(ctx, gens))
    I = monomials.ideal(S2, [(2, 0), (1, 1)])
    J = monomials.ideal(S2, [(0, 2), (1, 1)])
    assert (I + J).gens == ((2, 0), (1, 1), (0, 2))
    assert (I * J).gens == ((3, 1), (2, 2), (1, 3))
    assert I.intersect(J).gens == ((1, 1),)
    MonomialIdeal(S2, ((1, 0),))
    assert len(ideals) == 5 and len(checks) == 5


def test_embed_ideal_into_blocks():
    T = VariableContext((2, 2), ("x", "y"))
    local = ideal(VariableContext((2,), ("y",)), [(1, 0), (0, 1)])
    emb = embed_ideal(local, T, 1)
    assert emb.gens == ((0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ContextMismatchError):
        embed_ideal(ideal(S3, [(1, 0, 0)]), T, 0)


def test_context_counts_are_computed_once_and_are_no_fields():
    ctx = VariableContext((2, 3), ("a", "b"))
    assert (ctx.nvars, ctx.offsets) == (5, (0, 2))
    assert vars(ctx)["nvars"] == 5 and vars(ctx)["offsets"] == (0, 2)
    assert list(ctx.block_span(1)) == [2, 3, 4] and ctx.var_name(4) == "b3"
    # equality, hashing and repr read the fields alone
    fresh = VariableContext((2, 3), ("a", "b"))
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == repr(fresh)
