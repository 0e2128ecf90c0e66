import hashlib
import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from gmpi.builder import SubstitutionFamily, block_linearity, block_resolutions, induced_ideal
from gmpi.cli import instance_to_document
from gmpi.complexes import degree_grid, ideal_resolution
from gmpi.monomials import VariableContext, ideal, monomials_of_degree, simple_context, total_degree
from gmpi.families import (
    _induced_shape,
    lex_segment_stable,
    min_covering_count,
    mixed_product_instance,
    path_ideal_complete_multipartite,
    power_of_maximal,
    random_instance,
    squarefree_veronese,
    veronese_type,
)

from conftest import betti_from_json

GOLDEN = pathlib.Path(__file__).parent / "golden"


def ideal_is_linear(I):
    res = ideal_resolution(I)
    d = I.generated_in_degree()
    return all(
        total_degree(s) == d + i
        for i in range(res.length + 1) for s in res.shifts[i])


# -- squarefree Veronese

def test_squarefree_veronese_examples():
    assert squarefree_veronese(3, 1).gens == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert squarefree_veronese(3, 2).gens == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    four_two = squarefree_veronese(4, 2)
    assert len(four_two.gens) == 6
    assert ideal_is_linear(four_two)


def test_squarefree_veronese_bounds():
    with pytest.raises(ValueError):
        squarefree_veronese(3, 4)
    assert squarefree_veronese(3, 0).is_unit


# -- powers of the maximal ideal

def test_power_of_maximal_examples():
    assert power_of_maximal(2, 2).gens == ((2, 0), (1, 1), (0, 2))
    assert power_of_maximal(1, 5).gens == ((5,),)
    assert ideal_is_linear(power_of_maximal(3, 2))


def test_families_nested_along_degree():
    for maker, m in ((squarefree_veronese, 4), (power_of_maximal, 3)):
        for d in range(2, m + 1):
            hi, lo = maker(m, d), maker(m, d - 1)
            for g in hi.gens:
                assert lo.member(g)


# -- capped Veronese inducing ideals

def test_veronese_type_examples():
    assert veronese_type(2, 2, (1, 1)).gens == ((1, 1),)
    # caps (2,2) still force exponents <= (t+1)//2 = 1
    assert veronese_type(2, 2, (2, 2)).gens == ((1, 1),)


def test_veronese_type_matches_enumeration():
    got = veronese_type(3, 3, (2, 2, 2))
    bound = min((3 + 1) // 2, 2)
    expect = {
        g for g in itertools.product(range(4), repeat=3)
        if sum(g) == 3 and all(e <= bound for e in g)}
    assert set(got.gens) == expect


# -- path ideals

def test_path_ideal_k22_edges():
    I = path_ideal_complete_multipartite((2, 2), 2)
    assert len(I.gens) == 4
    assert all(total_degree(g) == 2 for g in I.gens)


def test_path_ideal_k11_single_edge():
    assert path_ideal_complete_multipartite((1, 1), 2).gens == ((1, 1),)


def test_path_ideal_t3_agrees_with_induced_construction():
    # equality of the two constructions is asserted inside the builder call
    I = path_ideal_complete_multipartite((2, 2), 3)
    assert all(total_degree(g) == 3 for g in I.gens)
    assert len(I.gens) == 4


def test_path_ideal_disagreement_raises_with_a_witness(monkeypatch):
    from gmpi import families
    from gmpi.builder import ConstructionError
    from gmpi.monomials import MonomialIdeal
    direct, _ = families.path_ideal_two_ways((2, 2), 2)
    fewer = MonomialIdeal(direct.ctx, direct.gens[1:])
    monkeypatch.setattr(families, "path_ideal_two_ways", lambda parts, t: (direct, fewer))
    with pytest.raises(ConstructionError) as err:
        path_ideal_complete_multipartite((2, 2), 2)
    assert err.value.witness == direct.gens[0]


def test_path_ideal_rejects_short_paths():
    with pytest.raises(ValueError):
        path_ideal_complete_multipartite((2, 2), 1)


# -- lex segments

def test_lex_segment_examples():
    assert lex_segment_stable(2, 2, 1).gens == ((2, 0),)
    assert lex_segment_stable(2, 2, 2).gens == ((2, 0), (1, 1))
    assert ideal_is_linear(lex_segment_stable(3, 2, 4))


def test_lex_segments_are_strongly_stable():
    # the closure that lex_segment_stable once ran never added a monomial:
    # every initial segment is closed under moving a factor x_j to x_i, i < j
    from gmpi.families import _block_ctx
    from gmpi.monomials import ideal, monomials_of_degree
    cases = 0
    for m in range(1, 6):
        ctx = _block_ctx(m)
        for d in range(5):
            monos = monomials_of_degree(ctx, d)
            for count in range(1, len(monos) + 1):
                seg = lex_segment_stable(m, d, count)
                assert seg == ideal(ctx, monos[:count])
                members = set(seg.gens)
                for u in members:
                    for i, j in itertools.combinations(range(m), 2):
                        if u[j]:
                            v = list(u)
                            v[i], v[j] = v[i] + 1, v[j] - 1
                            assert tuple(v) in members, (m, d, count, u)
                cases += 1
    assert cases == 251


def test_lex_segment_covering_counts():
    seg = lex_segment_stable(3, 3, 5)
    need = min_covering_count(3, seg, 2)
    lower = lex_segment_stable(3, 2, need)
    for g in seg.gens:
        assert lower.member(g)
    if need > 1:
        smaller = lex_segment_stable(3, 2, need - 1)
        assert any(not smaller.member(g) for g in seg.gens)


# -- mixed products

def test_mixed_product_instance_shapes():
    inst = mixed_product_instance((2, 2), (2, 1), (1, 2))
    assert len(inst.induced.gens) == 4
    assert inst.inducing.gens == ((2, 1), (1, 2))
    with pytest.raises(ValueError):
        mixed_product_instance((2, 2), (3, 1), (1, 2))


# -- random instances

def test_random_instance_deterministic():
    a, b = random_instance(5), random_instance(5)
    assert a.inducing == b.inducing
    assert a.induced == b.induced
    assert a.family.ideals == b.family.ideals


def test_random_instance_respects_bounds():
    for seed in (1, 9, 30, 54):
        inst = random_instance(seed)
        assert 1 <= inst.T.nblocks <= 3
        assert all(1 <= m <= 4 for m in inst.T.sizes)
        assert 2 <= len(inst.inducing.gens) <= 5
        assert all(e <= 3 for g in inst.inducing.gens for e in g)
        assert len(inst.induced.gens) <= 8
        flags = block_linearity(block_resolutions(inst))
        assert all(flags.values())


def test_random_instance_resolves_only_the_draw_it_keeps(monkeypatch):
    # the size filters on L and on the degree grid come first, so S/I is
    # resolved (validate_family) once per suite instance
    from gmpi import families
    from gmpi.verify import SUITE_SEEDS, suite_instances
    calls = []
    original = families.validate_family

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(families, "validate_family", counted)
    instances = suite_instances()
    assert len(calls) == len(SUITE_SEEDS) == 20
    assert calls == [inst.inducing for inst in instances]


def test_random_instance_forms_the_induced_ideal_once_per_instance(monkeypatch):
    # the size filters read the block ideals; L is formed by validate_family
    from gmpi import builder
    from gmpi.verify import suite_instances
    calls = []
    original = builder.induced_ideal

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(builder, "induced_ideal", counted)
    assert calls == [inst.inducing for inst in suite_instances()]


# sha-256 of the documents of random_instance(seed) for the seeds 0..199,
# one json.dumps(sort_keys=True) line per seed, or the error of a seed that
# raises; any change of a drawn instance changes it
DRAW_SHA256 = "85ccc4433d7408dc0f80f8b2b00d514600d541e4172186d730c5d7a9e197c88a"


def test_random_instance_draws_are_pinned():
    digest = hashlib.sha256()
    for seed in range(200):
        try:
            line = json.dumps(instance_to_document(random_instance(seed)), sort_keys=True)
        except Exception as e:
            line = f"{type(e).__name__}: {e}"
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DRAW_SHA256


@st.composite
def families_in_their_degrees(draw):
    """An inducing ideal I in at most 3 variables and, per block l and
    nonzero l-th exponent d of a generator of I, an ideal generated by
    degree-d monomials in at most 3 variables (not necessarily nested)."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    inducing = ideal(simple_context(n), draw(st.lists(vec, min_size=1, max_size=4)))
    T = VariableContext(tuple(draw(st.integers(1, 3)) for _ in range(n)))
    ideals = {}
    for l, m in enumerate(T.sizes):
        ctx = VariableContext((m,), (T.names[l],))
        for d in sorted({a[l] for a in inducing.gens} - {0}):
            pool = st.sampled_from(monomials_of_degree(ctx, d))
            ideals[(l, d)] = ideal(ctx, draw(st.lists(pool, min_size=1, max_size=4)))
    return inducing, SubstitutionFamily(T, ideals)


@settings(max_examples=150, deadline=None)
@given(families_in_their_degrees())
def test_the_block_ideals_give_the_size_and_grid_of_the_induced_ideal(drawn):
    inducing, family = drawn
    count, axes = _induced_shape(inducing, family.ideals, family.T.sizes)
    products, induced = induced_ideal(inducing, family)
    assert count == len(induced.gens)
    levels = [list(idl.gens) for idl in [induced] + products]
    assert axes == degree_grid(levels, family.T.nvars)


def test_random_instances_match_golden_tables():
    from gmpi.verify import oracle_betti
    for path in sorted(GOLDEN.glob("seed*.json")):
        doc = json.loads(path.read_text())
        inst = random_instance(doc["seed"])
        assert [list(g) for g in inst.induced.gens] == doc["induced_generators"]
        assert oracle_betti(inst.induced) == betti_from_json(doc["betti"])
