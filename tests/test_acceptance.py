"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The pinned suite (20 seeded instances) is built once per session.
"""

import time

from gmpi.builder import build_star_complex, minimal_total_table
from gmpi.complexes import (
    betti_table,
    euler_characteristics,
    is_linear_resolution,
    minimalize_complex,
    projective_dimension,
    regularity,
    taylor_complex,
)
from gmpi.families import random_instance
from gmpi.monomials import MonomialIdeal, ideal
from gmpi.verify import (
    SUITE_SEEDS,
    check_degree_realization,
    check_lcm_shifts,
    check_product_intersection,
    check_scalar_exactness,
    check_sigma_minimality,
    check_sigma_squared,
    check_star_acyclicity,
    mixed_product_formula_check,
    oracle_betti,
    path_identity_checks,
    structure_checks,
)

from conftest import (
    certified_total,
    corrupt_lambda,
    non_nested_instance,
    sigma_entry,
    with_resolution_copy,
)

ORACLE_CAP = 14


def announce(num, name, ok, extra=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    print(line + (f" ({extra})" if extra else ""))
    assert ok, line


def test_criterion_1_regularity_preservation():
    """reg L from the total complex equals reg I on all 20 pinned seeds,
    built fresh here so the stated runtime bound is measured honestly."""
    start = time.monotonic()
    agreements = 0
    for seed in SUITE_SEEDS:
        inst = random_instance(seed)
        tot = certified_total(inst)
        assert tot.factors.hypothesis_linear, f"seed {seed} drew a non-linear substitution"
        reg_l = regularity(minimal_total_table(tot))
        reg_i = regularity(betti_table(inst.resolution))
        agreements += reg_l == reg_i
    elapsed = time.monotonic() - start
    ok = agreements == len(SUITE_SEEDS) and elapsed < 60.0
    announce(1, "regularity preservation",
             ok, f"{agreements}/{len(SUITE_SEEDS)} in {elapsed:.1f}s")


def test_criterion_2_betti_table_equivalence(suite):
    checked = 0
    for item in suite:
        if len(item.instance.induced.gens) > ORACLE_CAP:
            continue
        oracle = oracle_betti(item.instance.induced, cap=ORACLE_CAP)
        table = minimal_total_table(item.total)
        assert table.entries == oracle.entries, item.seed
        assert table.multi == oracle.multi, item.seed
        checked += 1
    announce(2, "Betti-table equivalence with the oracle", checked == len(suite),
             f"{checked} instances, multigraded")


def test_criterion_3_mixed_product_regularity_formula():
    start = time.monotonic()
    result = mixed_product_formula_check()
    elapsed = time.monotonic() - start
    ok = result.passed and elapsed < 10.0
    announce(3, "two-term mixed product regularity = 3 by formula/total/oracle",
             ok, f"{elapsed:.1f}s")


def test_criterion_4_projective_dimension_formula(suite):
    agreements = 0
    for item in suite:
        inst = item.instance
        pd_blocks = {key: res.length for key, res in item.total.factors.blocks.items()}
        formula = 0
        for c in range(1, inst.resolution.length + 1):
            for shift in inst.resolution.shifts[c]:
                formula = max(formula, c + sum(
                    pd_blocks[(l, shift[l])] for l in range(inst.T.nblocks)))
        agreements += formula == projective_dimension(minimal_total_table(item.total))
    announce(4, "projective-dimension formula", agreements == len(suite),
             f"{agreements}/{len(suite)}")


def test_criterion_5_linear_resolution_equivalence(suite):
    truth_values = set()
    ok = True
    for item in suite:
        inst = item.instance
        d_i = inst.inducing.generated_in_degree()
        lin_i = d_i is not None and is_linear_resolution(
            betti_table(inst.resolution), d_i)
        d_l = inst.induced.generated_in_degree()
        lin_l = d_l is not None and is_linear_resolution(
            minimal_total_table(item.total), d_l)
        ok = ok and lin_i == lin_l
        truth_values.add(lin_i)
    ok = ok and truth_values == {True, False}
    announce(5, "linear-resolution equivalence, both truth values present", ok)


def test_criterion_6_structure_lemma_suite(suite):
    for item in suite:
        for res in structure_checks(item.instance, item.star, item.total):
            assert res.passed, f"seed {item.seed}: {res.line()}"

    # each check must fail on its engineered corruption fixture
    probe = random_instance(9)
    corrupt = with_resolution_copy(probe)
    corrupt.resolution.diffs[1].cols.clear()
    assert not check_scalar_exactness(corrupt).passed

    corrupt, _ = corrupt_lambda(probe, i=2)
    assert not check_lcm_shifts(corrupt).passed

    corrupt = with_resolution_copy(probe)
    shifts = corrupt.resolution.shifts
    shifts[1][0] = tuple([9] + list(shifts[1][0][1:]))
    assert not check_degree_realization(corrupt).passed

    star = build_star_complex(probe)
    star[1][0] = ideal(probe.T, [(0,) * probe.T.nvars])
    assert not check_product_intersection(probe, star).passed

    tot = certified_total(probe)
    r, c = sigma_entry(tot, 1, 0)
    tot.complex.shifts[1][c] = tot.complex.shifts[0][r]
    assert not check_sigma_minimality(tot).passed

    tot = certified_total(probe)
    r, c = sigma_entry(tot, 2, 0)
    tot.complex.diffs[2].cols[c][r] += 1
    assert not check_sigma_squared(tot).passed

    non_nested = non_nested_instance()
    assert not check_star_acyclicity(non_nested, build_star_complex(non_nested)).passed

    announce(6, "structure lemmas pass everywhere; all corruption fixtures fail",
             True, f"{len(suite)} instances x 7 checks + 7 fixtures")


def test_criterion_7_path_ideal_identity():
    results = path_identity_checks()
    ok = len(results) == 4 and all(r.passed for r in results)
    announce(7, "path-ideal identity on K(2,2), K(2,3) for t in {2,3}", ok)


def test_criterion_8_engine_self_checks(suite):
    import random as _random
    for item in suite:
        # diff o diff = 0 symbolically for every constructed complex
        assert item.instance.resolution.square_witness() is None
        for part in {id(s): s for col in item.total.summands for s in col}.values():
            assert part.square_witness() is None
        assert item.total.complex.square_witness() is None

        # Betti tables invariant under 5 generator permutations
        L = item.instance.induced
        base = betti_table(minimalize_complex(taylor_complex(L)))
        rng = _random.Random(f"acceptance/{item.seed}")
        for _ in range(5):
            perm = list(L.gens)
            rng.shuffle(perm)
            shuffled = MonomialIdeal(L.ctx, tuple(perm))
            assert betti_table(minimalize_complex(taylor_complex(shuffled))) == base

        # Euler characteristic of the strand equals [x^b not in L]
        box = [0] * L.ctx.nvars
        for level in item.total.complex.shifts:
            for s in level:
                box = [max(a, b) for a, b in zip(box, s)]
        points = [tuple(rng.randint(0, m + 1) for m in box) for _ in range(100)]
        expected = [0 if L.member(b) else 1 for b in points]
        assert euler_characteristics(item.total.complex, points) == expected, item.seed
    announce(8, "engine self-checks (diff^2, permutation invariance, Euler strands)",
             True, f"{len(suite)} instances")
