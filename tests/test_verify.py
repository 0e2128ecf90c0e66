import dataclasses
import itertools
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from gmpi.builder import (
    build_star_complex,
    minimal_total_table,
    resolution_table,
)
from gmpi.cli import parse_instance_document
from gmpi.complexes import (
    SizeCapError,
    degree_grid,
    exactness_check,
    grid_size,
    projective_dimension,
    regularity,
)
from gmpi.families import mixed_product_instance, random_instance
from gmpi.monomials import MonomialIdeal, ideal, lcm, simple_context
from gmpi.verify import (
    _divisor_masks,
    _divisors,
    betti_for_ideal,
    check_betti_equivalence,
    check_degree_realization,
    check_engine_self,
    check_lcm_shifts,
    check_linearity_equivalence,
    check_pd_formula,
    check_product_intersection,
    check_scalar_exactness,
    check_sigma_minimality,
    check_sigma_squared,
    check_star_acyclicity,
    check_theorem_regularity,
    check_total_exactness,
    mixed_product_formula_check,
    koszul_betti,
    lcm_lattice,
    linear_quotients_betti,
    oracle_betti,
    path_identity_checks,
    run_instance_checks,
    structure_checks,
    summary_lines,
    SUITE_SEEDS,
)

from conftest import (
    certified_total,
    copy_complex,
    corrupt_block_scalar,
    corrupt_lambda,
    non_nested_instance,
    scale_first_scalar,
    sigma_entry,
    small_ideals,
    with_resolution_copy,
)

S2 = simple_context(2, ("x", "y"))


# -- oracles

def test_oracle_betti_koszul():
    t = oracle_betti(ideal(S2, [(1, 0), (0, 1)]))
    assert t.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_oracle_rejects_unit_and_oversize():
    with pytest.raises(ValueError):
        oracle_betti(ideal(S2, [(0, 0)]))
    big = ideal(S2, [(d, 15 - d) for d in range(16)])
    with pytest.raises(SizeCapError):
        oracle_betti(big)


@settings(max_examples=100, deadline=timedelta(seconds=20))
@given(st.integers(0, 2**32 - 1).filter(lambda seed: seed not in SUITE_SEEDS))
def test_total_complex_matches_the_oracle_beyond_the_pinned_seeds(seed):
    # 100 random seeds per run, each within 20 s (most take under 10 ms); a
    # mismatch is a construction bug
    inst = random_instance(seed)
    table = minimal_total_table(certified_total(inst))
    assert table == betti_for_ideal(inst.induced)[0]


def test_lcm_lattice_small():
    I = ideal(S2, [(2, 0), (0, 2)])
    assert lcm_lattice(I) == [(0, 2), (2, 0), (2, 2)]


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_lcm_lattice_is_the_joins_of_generator_subsets(I):
    joins = set()
    for size in range(1, len(I.gens) + 1):
        for subset in itertools.combinations(I.gens, size):
            acc = subset[0]
            for g in subset[1:]:
                acc = lcm(acc, g)
            joins.add(acc)
    assert lcm_lattice(I) == sorted(joins)


def test_koszul_betti_agrees_with_taylor_oracle():
    rng = random.Random(77)
    cases = [
        [(1, 0), (0, 1)],
        [(2, 0), (1, 1), (0, 3)],
        [(2, 1), (1, 2)],
        [(3, 0), (2, 2), (0, 3)],
    ]
    for _ in range(6):
        gens = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)}
        gens.discard((0, 0))
        if gens:
            cases.append(sorted(gens))
    for gens in cases:
        I = ideal(S2, gens)
        if I.is_zero or I.is_unit:
            continue
        assert koszul_betti(I) == oracle_betti(I), gens


@settings(max_examples=60, deadline=None)
@given(small_ideals())
def test_koszul_betti_agrees_with_the_lyubeznik_oracle_on_random_ideals(I):
    assert koszul_betti(I) == oracle_betti(I), I.gens


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.sampled_from(["drawn", "zero", "unit"]), st.data())
def test_mask_membership_is_ideal_membership(I, kind, data):
    # exponents up to 5 lie above every generator's (at most 3)
    if kind != "drawn":
        I = MonomialIdeal(I.ctx, () if kind == "zero" else ((0,) * I.ctx.nvars,))
    box = data.draw(st.tuples(*[st.integers(0, 5)] * I.ctx.nvars))
    masks = _divisor_masks(I, box)
    for b in itertools.product(*(range(m + 1) for m in box)):
        assert bool(_divisors(masks, b)) == I.member(b), b


def test_koszul_betti_three_variables():
    S3 = simple_context(3)
    I = ideal(S3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert koszul_betti(I) == oracle_betti(I)


def test_total_complex_matches_simplicial_oracle(suite):
    # a triangulation independent of both the construction and the Taylor route
    for item in suite[:5]:
        L = item.instance.induced
        if L.ctx.nvars > 8:
            continue
        assert minimal_total_table(item.total) == koszul_betti(L), item.seed


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_linear_quotients_betti_agrees_with_both_oracles_where_it_answers(I):
    table = linear_quotients_betti(I)
    if table is not None:
        assert table == oracle_betti(I) == koszul_betti(I), I.gens


def test_linear_quotients_betti_by_hand():
    # (x^2, xy, y^2): the colons are (x) and (x); a linear resolution
    t = linear_quotients_betti(ideal(S2, [(2, 0), (1, 1), (0, 2)]))
    assert t.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert t.multi[(2, (2, 1))] == t.multi[(2, (1, 2))] == 1
    # (x^2, y^3): the colon of y^3 is (x^2), not generated by variables
    assert linear_quotients_betti(ideal(S2, [(2, 0), (0, 3)])) is None
    # (x^3, xy, y^2) in degree order xy, y^2, x^3: the colons (x) and (y);
    # in the canonical order x^3, xy, y^2 the colon of xy would be (x^2)
    t = linear_quotients_betti(ideal(S2, [(3, 0), (1, 1), (0, 2)]))
    assert t == oracle_betti(ideal(S2, [(3, 0), (1, 1), (0, 2)]))
    assert t.multi[(2, (1, 2))] == t.multi[(2, (3, 1))] == 1


def test_linear_quotients_betti_declines_the_5_cycle():
    # the edge ideal of the 5-cycle has no linear resolution, so no linear
    # quotients in any order of its generators, which share one degree
    C5 = simple_context(5)
    edges = [tuple(int(v in (i, (i + 1) % 5)) for v in range(5)) for i in range(5)]
    assert linear_quotients_betti(ideal(C5, edges)) is None


def test_every_oracle_rejects_the_zero_and_unit_ideals():
    for oracle in (linear_quotients_betti, oracle_betti, koszul_betti):
        for gens in ((), ((0, 0),)):
            with pytest.raises(ValueError, match="nonzero proper ideal"):
                oracle(MonomialIdeal(S2, gens))


# the suite seeds whose L has linear quotients in its degree order
LINEAR_QUOTIENT_SEEDS = [1, 5, 7, 8, 9, 12, 14, 17, 20, 25, 27, 42, 49, 54]


def test_every_oracle_agrees_on_the_suite(suite):
    answered = []
    for item in suite:
        L = item.instance.induced
        table = oracle_betti(L)
        assert table == koszul_betti(L), item.seed
        quotients = linear_quotients_betti(L)
        if quotients is not None:
            assert quotients == table, item.seed
            answered.append(item.seed)
        assert betti_for_ideal(L) == (table, "linear-quotients" if quotients else "lyubeznik")
    assert answered == LINEAR_QUOTIENT_SEEDS


# -- checks pass on valid instances

def test_structure_checks_pass_on_sample():
    inst = random_instance(30)
    star = build_star_complex(inst)
    for r in structure_checks(inst, star, certified_total(inst)):
        assert r.passed, r.line()


def test_full_instance_checks_pass():
    tot = certified_total(random_instance(9))
    for r in run_instance_checks(tot, minimal_total_table(tot)):
        assert r.passed, r.line()


def test_corollary_and_path_checks():
    assert mixed_product_formula_check().passed
    assert all(r.passed for r in path_identity_checks())


@pytest.mark.parametrize("sizes,d1,d2", [
    ((3, 3), (3, 1), (2, 2)),
    ((2, 3), (2, 1), (1, 3)),
    ((3, 2), (2, 1), (1, 2)),
    ((2, 2, 2), (1, 2, 1), (2, 1, 1)),
    ((4, 2), (3, 1), (1, 2)),
])
def test_mixed_product_regularity_formula(sizes, d1, d2):
    # sum of blockwise maxima minus one, for incomparable degree pairs
    from gmpi.complexes import betti_table, regularity
    from gmpi.families import mixed_product_instance
    inst = mixed_product_instance(sizes, d1, d2)
    tot = certified_total(inst)
    expected = sum(max(a, b) for a, b in zip(d1, d2)) - 1
    assert regularity(minimal_total_table(tot)) == expected
    assert regularity(betti_table(inst.resolution)) == expected
    oracle = koszul_betti(inst.induced)
    assert minimal_total_table(tot) == oracle


def test_mixed_product_comparable_degrees_collapse():
    # with comparable degree pairs one term divides the other and the
    # inducing ideal is principal; the closed formula no longer applies but
    # regularity preservation still holds
    from gmpi.complexes import betti_table, regularity
    from gmpi.families import mixed_product_instance
    inst = mixed_product_instance((3, 2), (2, 2), (1, 1))
    assert len(inst.inducing.gens) == 1
    tot = certified_total(inst)
    assert regularity(minimal_total_table(tot)) == regularity(betti_table(inst.resolution)) == 2


def test_lcm_check_vacuous_for_short_resolutions():
    from gmpi.builder import SubstitutionFamily, validate_family
    from gmpi.families import squarefree_veronese
    from gmpi.monomials import VariableContext
    T = VariableContext((3,), ("x",))
    inst = validate_family(
        ideal(simple_context(1, ("x",)), [(2,)]),
        SubstitutionFamily(T, {(0, 2): squarefree_veronese(3, 2)}),
        label="principal")
    res = check_lcm_shifts(inst)
    assert res.passed and res.details == {"vacuous": True}


# -- every check fails on its engineered corruption

def test_scalar_exactness_teeth():
    inst = random_instance(9)
    probe = with_resolution_copy(inst)
    # killing the first row breaks surjectivity onto the ground field
    probe.resolution.diffs[1].cols.clear()
    assert not check_scalar_exactness(probe).passed
    assert check_scalar_exactness(inst).passed


def test_lcm_shifts_teeth():
    inst = random_instance(9)
    probe, (i, r, c) = corrupt_lambda(inst, i=2)
    assert not check_lcm_shifts(probe).passed
    assert check_lcm_shifts(inst).passed


def test_degree_realization_teeth():
    inst = random_instance(9)
    probe = with_resolution_copy(inst)
    s = list(probe.resolution.shifts[1][0])
    s[0] = 9  # no generator has block degree 9
    probe.resolution.shifts[1][0] = tuple(s)
    res = check_degree_realization(probe)
    assert not res.passed and res.details["degree"] == 9
    assert check_degree_realization(inst).passed


def test_product_intersection_teeth():
    inst = random_instance(9)
    star = build_star_complex(inst)
    star[1][0] = ideal(inst.T, [(0,) * inst.T.nvars])
    assert not check_product_intersection(inst, star).passed


def test_sigma_minimality_teeth():
    tot = certified_total(random_instance(9))
    assert check_sigma_minimality(tot).passed
    r, c = sigma_entry(tot, 1, 0)
    tot.complex.shifts[1][c] = tot.complex.shifts[0][r]  # forge an equal-shift (unit) entry
    assert not check_sigma_minimality(tot).passed


def test_sigma_squared_teeth():
    tot = certified_total(random_instance(9))
    assert check_sigma_squared(tot).passed
    r, c = sigma_entry(tot, 2, 0)
    tot.complex.diffs[2].cols[c][r] += 1
    assert not check_sigma_squared(tot).passed


def test_star_acyclicity_teeth():
    inst = non_nested_instance()
    res = check_star_acyclicity(inst, build_star_complex(inst))
    assert not res.passed and res.details["witness"] == (2, 0, 2, 0)


def test_betti_equivalence_teeth():
    inst = random_instance(9)
    tot = certified_total(inst)
    oracle = betti_for_ideal(inst.induced)
    assert check_betti_equivalence(inst, minimal_total_table(tot), *oracle).passed
    tot.complex.shifts[1].append(tot.complex.shifts[1][0])
    broken = check_betti_equivalence(inst, minimal_total_table(tot), *oracle)
    assert not broken.passed and "diff" in broken.details


def test_a_corrupted_linear_quotients_table_fails_betti_equivalence(monkeypatch):
    from gmpi import verify
    inst = random_instance(9)
    tot = certified_total(inst)
    good = linear_quotients_betti(inst.induced)
    monkeypatch.setattr(verify, "linear_quotients_betti", lambda L: forged(good, 1, 9))
    results = {r.name: r for r in run_instance_checks(tot, minimal_total_table(tot))}
    betti = results["betti-equivalence"]
    assert betti.status == "FAIL"
    assert betti.details == {"oracle": "linear-quotients", "diff": {(1, 9): (0, 1)}}
    # the corrupted table is the base of the permutation check too
    assert results["betti-permutation-invariance"].status == "FAIL"


def forged(table, k, j):
    """A copy of ``table`` with one more entry beta_{k,j}."""
    entries = dict(table.entries)
    entries[(k, j)] = entries.get((k, j), 0) + 1
    return dataclasses.replace(table, entries=entries)


def linear_instance_table():
    # seed 9: inside the linearity hypothesis, with I and L both linear
    inst = random_instance(9)
    tot = certified_total(inst)
    return inst, tot, minimal_total_table(tot), oracle_betti(inst.induced)


def test_regularity_preservation_teeth():
    inst, tot, table, oracle = linear_instance_table()
    factors = tot.factors
    reg = regularity(table)
    assert check_theorem_regularity(inst, factors, table, oracle).status == "PASS"
    # an entry one row below the table's last raises reg L by one
    res = check_theorem_regularity(inst, factors, forged(table, 1, reg + 1), oracle)
    assert res.status == "FAIL"
    assert res.details == {"reg_I": reg, "reg_L": reg + 1, "reg_L_oracle": reg}


def test_projective_dimension_formula_teeth():
    inst, tot, table, oracle = linear_instance_table()
    factors = tot.factors
    pd = projective_dimension(table)
    assert check_pd_formula(inst, factors, table, oracle).status == "PASS"
    res = check_pd_formula(inst, factors, forged(table, pd + 1, 9), oracle)
    assert res.status == "FAIL"
    assert res.details == {"formula": pd, "pd_tot": pd + 1, "pd_oracle": pd}


def test_linear_resolution_equivalence_teeth():
    inst, tot, table, _ = linear_instance_table()
    factors = tot.factors
    d = inst.induced.generated_in_degree()
    assert check_linearity_equivalence(inst, factors, table).status == "PASS"
    # a minimal generator of L one degree above the others
    res = check_linearity_equivalence(inst, factors, forged(table, 1, d + 1))
    assert res.status == "FAIL"
    assert res.details == {"I_linear": True, "L_linear": False}


def test_betti_permutation_invariance_teeth():
    # the oracle is the Lyubeznik table, the base of the permutation check
    inst, tot, _, base = linear_instance_table()
    assert check_engine_self(inst, tot, base)[1].status == "PASS"
    res = check_engine_self(inst, tot, forged(base, 1, 9))[1]
    assert res.name == "betti-permutation-invariance" and res.status == "FAIL"
    assert res.details == {"shuffle": 1, "diff": {(1, 9): (0, 1)}}


def moved(table):
    """A copy of ``table`` with its first position-1 multidegree that a
    rotation of its exponents changes moved to that rotation: the graded
    entries stay as they are, and (1, from) and (1, to) of the multigraded
    ones differ by one each."""
    src = next(s for k, s in table.multi if k == 1 and s[1:] + s[:1] != s)
    dst = src[1:] + src[:1]
    multi = dict(table.multi)
    multi[(1, src)] -= 1
    multi[(1, dst)] = multi.get((1, dst), 0) + 1
    return dataclasses.replace(table, multi=multi), src, dst


def test_betti_equivalence_names_a_multigraded_difference():
    inst, _, table, oracle = linear_instance_table()
    bad, src, dst = moved(oracle)
    assert bad.entries == oracle.entries and bad != oracle
    res = check_betti_equivalence(inst, table, bad, "lyubeznik")
    count = {s: oracle.multi.get((1, s), 0) for s in (src, dst)}
    assert res.status == "FAIL"
    assert res.details == {"oracle": "lyubeznik", "diff": {}, "multi_diff": {
        (1, src): (count[src], count[src] - 1), (1, dst): (count[dst], count[dst] + 1)}}
    assert f"diff={{}}, multi_diff=" in res.line()


def test_betti_permutation_invariance_names_a_multigraded_difference():
    inst, tot, _, base = linear_instance_table()
    bad, src, dst = moved(base)
    res = check_engine_self(inst, tot, bad)[1]
    count = {s: base.multi.get((1, s), 0) for s in (src, dst)}
    assert res.name == "betti-permutation-invariance" and res.status == "FAIL"
    assert res.details == {"shuffle": 1, "diff": {}, "multi_diff": {
        (1, src): (count[src], count[src] - 1), (1, dst): (count[dst], count[dst] + 1)}}


# -- hypothesis flag semantics

def test_hypothesis_unmet_reported_not_failed():
    from gmpi.builder import SubstitutionFamily, validate_family
    from gmpi.monomials import VariableContext
    T = VariableContext((2,), ("a",))
    cube = ideal(VariableContext((2,), ("a",)), [(3, 0), (0, 3)])
    inst = validate_family(
        ideal(simple_context(1, ("x",)), [(3,)]),
        SubstitutionFamily(T, {(0, 3): cube}), label="nonlinear")
    tot = certified_total(inst)
    table = minimal_total_table(tot)
    oracle = oracle_betti(inst.induced)
    reg = check_theorem_regularity(inst, tot.factors, table, oracle)
    assert reg.passed and reg.status == "HYPOTHESIS-UNMET"
    assert reg.details["reg_I"] == 3 and reg.details["reg_L"] == 5
    pd = check_pd_formula(inst, tot.factors, table, oracle)
    assert pd.passed and pd.status == "HYPOTHESIS-UNMET"
    lin = check_linearity_equivalence(inst, tot.factors, table)
    assert lin.passed and lin.status == "HYPOTHESIS-UNMET"
    # the resolution itself is still correct outside the hypotheses
    assert check_betti_equivalence(inst, table, oracle, "taylor").passed


def test_instance_checks_read_the_total_table_once(monkeypatch, tmp_path):
    import json
    from gmpi import builder, cli, verify
    tot = certified_total(random_instance(30))
    reads = []

    def counted(factors, t=None):
        reads.append(t)
        return resolution_table(factors, t)

    for mod in (builder, verify, cli):
        monkeypatch.setattr(mod, "resolution_table", counted)
    # a linear instance's table is read off its factors, never minimalized
    monkeypatch.setattr(builder, "minimal_total_table", None)
    results = run_instance_checks(tot, counted(tot.factors, tot))
    assert len(results) == 14 and all(r.passed for r in results)
    assert reads == [tot]
    # gmpi gmpi --check prints the table and runs the checks on one read
    reads.clear()
    path = tmp_path / "seed30.json"
    path.write_text(json.dumps(cli.instance_to_document(random_instance(30))))
    assert cli.main(["gmpi", str(path), "--check"]) == 0
    assert len(reads) == 1


def test_check_result_json_roundtrip():
    inst = random_instance(9)
    tot = certified_total(inst)
    r = check_theorem_regularity(inst, tot.factors, minimal_total_table(tot),
                                 oracle_betti(inst.induced))
    blob = r.to_json()
    assert blob["status"] == "PASS" and blob["details"]["reg_I"] == blob["details"]["reg_L"]


def test_capped_oracle_is_skipped_not_passed(monkeypatch):
    from gmpi import verify

    def capped(L, cap=14):
        raise SizeCapError(f"{len(L.gens)} generators exceed the oracle cap 0")

    # with every oracle capped nothing checks the table
    monkeypatch.setattr(verify, "linear_quotients_betti", capped)
    monkeypatch.setattr(verify, "oracle_betti", capped)
    monkeypatch.setattr(verify, "koszul_betti", capped)
    tot = certified_total(random_instance(9))
    results = run_instance_checks(tot, minimal_total_table(tot))
    betti = next(r for r in results if r.name == "betti-equivalence")
    assert betti.status == "SKIPPED" and betti.line().startswith("[SKIPPED]")
    assert betti.to_json()["status"] == "SKIPPED"
    # the permutation check has no table to compare with either, and says
    # why in the words of the oracle that stopped
    perm = next(r for r in results if r.name == "betti-permutation-invariance")
    assert perm.status == "SKIPPED"
    assert perm.details == betti.details == {"skipped": "4 generators exceed the oracle cap 0"}
    # passed (and so the exit code) is unchanged; only the reporting differs
    assert all(r.passed for r in results)
    n = len(results)
    assert summary_lines(results)[-1] == f"{n - 2}/{n} checks passed, 2 skipped"


def test_capped_lyubeznik_oracle_falls_back_to_koszul():
    # seed 11: L has no linear quotients in its degree order
    tot = certified_total(random_instance(11))
    assert linear_quotients_betti(tot.factors.instance.induced) is None
    # a Taylor cap of 2: at most 4 basis elements
    results = run_instance_checks(tot, minimal_total_table(tot), oracle_cap=2)
    assert len(results) == 14 and all(r.passed for r in results)
    betti = next(r for r in results if r.name == "betti-equivalence")
    assert betti.status == "PASS" and betti.details == {"oracle": "koszul"}
    # the permutation check compares with the Koszul table, and a shuffled
    # order over the cap reports its own SizeCapError
    perm = next(r for r in results if r.name == "betti-permutation-invariance")
    assert perm.status == "SKIPPED" and perm.details == {"skipped": (
        "the Lyubeznik complex of 4 generators exceeds the cap of 4 basis elements")}
    n = len(results)
    assert summary_lines(results)[-1] == f"{n - 1}/{n} checks passed, 1 skipped"


def test_shuffled_order_beyond_the_cap_is_skipped():
    from gmpi.verify import check_engine_self
    inst = random_instance(9)
    tot = certified_total(inst)
    base = oracle_betti(inst.induced)
    # the canonical order has 16 basis elements, the first shuffled one 10
    checks = {r.name: r for r in check_engine_self(inst, tot, base, cap=4)}
    assert checks["betti-permutation-invariance"].status == "PASS"
    perm = check_engine_self(inst, tot, base, cap=3)[1]
    assert perm.status == "SKIPPED" and "cap of 8 basis elements" in perm.details["skipped"]


# -- total-exactness: the strand scan of the whole total complex

def test_total_exactness_fails_with_the_scan_witness():
    # clearing a column of the top differential keeps diff o diff = 0 and
    # leaves homology at the top position
    inst = random_instance(9)
    tot = certified_total(inst)
    assert check_total_exactness(inst, tot).status == "PASS"
    bad = dataclasses.replace(tot, complex=copy_complex(tot.complex))
    del bad.complex.diffs[-1].cols[0]
    assert bad.complex.square_witness() is None
    witness = exactness_check(bad.complex, inst.induced)
    assert witness is not None
    result = check_total_exactness(inst, bad)
    assert result.status == "FAIL" and result.details == {"witness": witness}
    # the resolution of S/I is checked to square to zero too
    probe = with_resolution_copy(inst)
    scale_first_scalar(probe.resolution.diffs[2], 2)
    result = check_total_exactness(probe, tot)
    assert result.status == "FAIL"
    assert result.details == {"resolution_witness": probe.resolution.square_witness()}


def test_total_exactness_is_skipped_above_its_cap(monkeypatch):
    from gmpi import verify
    inst = random_instance(9)
    tot = certified_total(inst)
    cells = grid_size(degree_grid(tot.complex.shifts + [list(inst.induced.gens)],
                                  inst.T.nvars))
    monkeypatch.setattr(verify, "TOTAL_SCAN_CAP", cells - 1)
    result = check_total_exactness(inst, tot)
    assert result.status == "SKIPPED" and result.passed
    assert f"{cells} cells" in result.details["skipped"]
    assert result.line().startswith("[SKIPPED]")
    # diff o diff is still checked above the cap
    bad = dataclasses.replace(tot, complex=copy_complex(tot.complex))
    scale_first_scalar(bad.complex.diffs[2], 2)
    result = check_total_exactness(inst, bad)
    assert result.status == "FAIL"
    assert result.details == {"witness": bad.complex.square_witness()[1]}


def test_total_exactness_composes_each_pair_once(monkeypatch):
    from gmpi.complexes import MonomialMatrix
    inst = with_resolution_copy(random_instance(30))
    tot = certified_total(inst)
    composed = []
    streamed = MonomialMatrix.first_nonzero_column

    def counted_product(left, right):
        composed.append((left, right))
        return streamed(left, right)

    monkeypatch.setattr(MonomialMatrix, "first_nonzero_column", counted_product)
    assert check_total_exactness(inst, tot).status == "PASS"
    # diff o diff of the resolution of S/I, then of the total complex
    expected = [(cx.diffs[i - 1], cx.diffs[i])
                for cx in (inst.resolution, tot.complex) for i in range(2, cx.length + 1)]
    assert len(composed) == len(expected)
    assert all(a is c and b is d for (a, b), (c, d) in zip(composed, expected))


def power_of_maximal_instance(m):
    return parse_instance_document({
        "blocks": [{"name": "x", "size": m}, {"name": "y", "size": m}],
        "inducing_ideal": [[2, 1], [1, 2]],
        "substitutions": {f"{b}:{d}": {"family": "power-of-maximal", "degree": d}
                          for b in "xy" for d in (1, 2)},
        "label": f"power{m}",
    })


@pytest.mark.parametrize("make", [
    lambda: power_of_maximal_instance(1),
    lambda: power_of_maximal_instance(2),
    lambda: power_of_maximal_instance(3),
    lambda: mixed_product_instance((2, 2), (2, 1), (1, 2)),
    lambda: mixed_product_instance((3, 3), (2, 1), (1, 2)),
    lambda: mixed_product_instance((4, 4), (2, 1), (1, 2)),
], ids=["power1", "power2", "power3", "mixed22", "mixed33", "mixed44"])
def test_certified_total_complex_matches_koszul_beyond_the_pinned_seeds(make):
    # the small rungs of the benchmark's sweep ladders; the certificate runs
    # in full, and the lcm-lattice oracle is independent of the construction
    inst = make()
    tot = certified_total(inst)
    assert tot.exactness_verified
    assert minimal_total_table(tot) == koszul_betti(inst.induced)


def test_euler_strand_identity_fails_where_a_basis_element_is_added():
    from gmpi.monomials import divides
    from gmpi.verify import check_engine_self
    inst = random_instance(9)
    tot = certified_total(inst)
    euler = lambda t: next(r for r in check_engine_self(inst, t, None)
                           if r.name == "euler-strand-identity")
    assert euler(tot).status == "PASS"
    bad = dataclasses.replace(tot, complex=copy_complex(tot.complex))
    extra = bad.complex.shifts[1][0]
    bad.complex.shifts[1].append(extra)   # the Euler sums read the shifts only
    result = euler(bad)
    assert result.status == "FAIL" and divides(extra, tuple(result.details["witness"]))


def test_euler_characteristics_match_the_definition():
    from gmpi.complexes import euler_characteristics
    from gmpi.monomials import divides
    tot = certified_total(random_instance(30))
    rng = random.Random(5)
    points = [tuple(rng.randint(0, 3) for _ in range(tot.complex.ctx.nvars))
              for _ in range(200)]
    expected = [sum((-1) ** i * sum(1 for s in level if divides(s, b))
                    for i, level in enumerate(tot.complex.shifts)) for b in points]
    assert euler_characteristics(tot.complex, points) == expected


# -- one block store per verify call

def count_block_work(monkeypatch) -> dict[str, int]:
    """Counters of the calls that make block objects, filled while the
    test runs: the ideal resolutions, block scans and rho lifts of
    ``builder`` and the power-of-maximal draws of ``families``."""
    from gmpi import builder, families
    counts = dict.fromkeys(["ideal_resolution", "block_witness", "lift_chain_map",
                            "power_of_maximal"], 0)

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for name in counts:
        counted(families if name == "power_of_maximal" else builder, name)
    return counts


def test_a_verify_call_makes_each_block_object_once(monkeypatch):
    from gmpi.verify import run_suite, suite_instances
    instances = suite_instances() + [mixed_product_instance((3, 3), (2, 1), (1, 2))]
    ideals = {(inst.family.at(l, d).gens, d) for inst in instances
              for l, ladder in enumerate(inst.ladders) for d in ladder}
    pairs = {(inst.family.at(l, d).gens, inst.family.at(l, e).gens) for inst in instances
             for l, ladder in enumerate(inst.ladders) for e, d in zip(ladder, ladder[1:])}
    counts = count_block_work(monkeypatch)
    assert len(run_suite()) == 285
    first = dict(counts)
    # one resolution per distinct block ideal, and one of the ring of T per
    # suite instance (total_complex); one scan per distinct block ideal of
    # positive degree; one lift per distinct pair.  A store per instance
    # makes 121, 81 and 60 of them, and 208 draws of power_of_maximal.
    assert first == {"ideal_resolution": 24 + 20, "block_witness": 20,
                     "lift_chain_map": 24, "power_of_maximal": 35}
    assert first["ideal_resolution"] == len(ideals) + 20
    assert first["block_witness"] == sum(1 for _, d in ideals if d)
    assert first["lift_chain_map"] == len(pairs)
    # a second call starts from nothing: no block object outlives a call
    counts.update(dict.fromkeys(counts, 0))
    assert len(run_suite()) == 285
    assert counts == first


def test_a_block_corrupted_in_one_suite_instance_is_refused_with_its_witness(monkeypatch):
    # seed 55's first block of positive degree, (0, 2), has the ideal of a
    # block of seed 12, which the store has certified by then; the
    # corrupted copy is a new object, scanned on its own
    from gmpi import builder
    from gmpi.verify import run_suite
    with pytest.raises(builder.ConstructionError) as alone:
        builder.certify_factors(corrupt_block_scalar(builder.build_factors(random_instance(55))))
    certify = builder.certify_factors
    monkeypatch.setattr(builder, "certify_factors", lambda F, *store: certify(
        corrupt_block_scalar(F) if F.instance.label == "seed55" else F, *store))
    with pytest.raises(builder.ConstructionError) as suite:
        run_suite()
    assert str(suite.value) == str(alone.value)
    assert suite.value.witness == alone.value.witness == (0, 2, (1, 1, 1))


def test_a_later_instance_certifies_its_own_block_of_a_refused_ideal(monkeypatch):
    # the block of seed 12 whose ideal seed 55 holds at (0, 2) is corrupted
    # on its way into the certificate; the store keeps the intact block,
    # which seed 55 then scans and certifies
    from gmpi import builder
    store = builder.BlockStore()
    early, late = random_instance(12, store), random_instance(55, store)
    gens = late.family.at(0, 2).gens
    key = next((l, d) for l, ladder in enumerate(early.ladders) for d in ladder
               if early.family.at(l, d).gens == gens)

    def corrupt(F):
        F.blocks[key] = copy_complex(F.blocks[key])
        scale_first_scalar(F.blocks[key].diffs[1], 2)
        return F

    certify = builder.certify_factors
    monkeypatch.setattr(builder, "certify_factors",
                        lambda F, *rest: certify(corrupt(F), *rest))
    with pytest.raises(builder.ConstructionError, match="does not resolve its substitution"):
        builder.build_factors(early, store)
    monkeypatch.undo()
    assert (id(store.resolutions[gens]), gens) not in store.verdicts
    factors = builder.build_factors(late, store)
    assert factors.exactness_verified
    assert factors.blocks[(0, 2)] is store.resolutions[gens]
    assert store.verdicts[(id(store.resolutions[gens]), gens)][1] is True
