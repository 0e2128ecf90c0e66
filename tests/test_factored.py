"""The factored construction: `gmpi gmpi` reads the Betti table and the
certificate off the factors, and assembles the total complex only where
something scans it.  Each factored result is compared with the
assembled one it replaces."""

import itertools
import json
import pathlib
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from gmpi import builder, cli
from gmpi.builder import (
    ConstructionError,
    block_product,
    block_witness,
    build_factors,
    certify_factors,
    factored_table,
    total_complex,
)
from gmpi.complexes import (
    betti_table,
    block_offsets,
    exactness_check,
    minimalize_complex,
    quotient_resolution,
    tensor_chain_map,
)
from gmpi.families import random_instance
from gmpi.verify import SUITE_SEEDS, oracle_betti

from conftest import (
    certified_total,
    corrupt_block_column,
    corrupt_block_scalar,
    corrupt_star_scalars,
    corrupt_tau,
    corrupt_tau_augmentation,
    with_resolution_copy,
)
from test_cli import expansion_doc, nonlinear_doc, nonlinear_nested_documents, write

GOLDEN = pathlib.Path(__file__).parent / "golden"


# -- the certificate of the assembled total complex, as total_complex ran it
# before the factored certificate replaced it: the reference the factored
# certificate is compared with

def summand_starts(tot, c, i):
    """The first index of each summand of column c within row i of the
    column, and the rank of that row."""
    return list(itertools.accumulate(
        (len(s.shifts[i]) if i <= s.length else 0 for s in tot.summands[c]), initial=0))


def column_star_witness(tot):
    """(c, j) where summand j of column c is not generated in position 0 by
    the block product at its shift (L_j in column 1), or None."""
    inst = tot.factors.instance
    off = block_offsets(tot.column_ranks)
    for c in range(1, len(tot.summands)):
        starts = summand_starts(tot, c, 0)
        for j in range(len(tot.summands[c])):
            want = (inst.products[j] if c == 1
                    else block_product(inst.family, inst.resolution.shifts[c][j]))
            got = tot.complex.shifts[c][off[c][c] + starts[j]:off[c][c] + starts[j + 1]]
            if set(got) != set(want.gens):
                return c, j
    return None


def sigma_star_witness(tot):
    """(c, j, u, k) where the row-zero sums of sigma_c over generator u of
    summand j miss the scalar lam_c[k][j], or None."""
    res = tot.factors.instance.resolution
    for c in range(1, len(tot.summands)):
        lam = res.diffs[c].cols
        sums = {}
        starts = summand_starts(tot, c - 1, 0)
        for col, column in tot.sigma(c, 0).cols.items():
            for r, v in column.items():
                key = (col, bisect_right(starts, r) - 1)
                sums[key] = sums.get(key, 0) + v
        first = summand_starts(tot, c, 0)
        for j in range(len(tot.summands[c])):
            for u in range(first[j + 1] - first[j]):
                col = first[j] + u
                for k in range(len(res.shifts[c - 1])):
                    if sums.get((col, k), 0) != lam.get(j, {}).get(k, 0):
                        return c, j, u, k
    return None


def assembled_certificate(factors) -> None:
    """The certificate on the total complex assembled from ``factors``: no
    unit entry under the hypothesis, diff o diff, the column-star step, the
    star complex, the sigma-star step and the block resolutions;
    ConstructionError at the first failure."""
    inst = factors.instance
    tot = total_complex(factors)
    witnesses = [
        tot.complex.unit_witness() if factors.hypothesis_linear else None,
        column_star_witness(tot),
        exactness_check(inst.resolution, inst.inducing),
        sigma_star_witness(tot),
    ] + [block_witness(res, inst.family.at(l, d))
         for (l, d), res in factors.blocks.items() if d]
    bad = next((w for w in witnesses if w is not None), None)
    if bad is not None:
        raise ConstructionError("the assembled certificate fails", bad)


FACTOR_CORRUPTIONS = {
    "tau": corrupt_tau,
    "tau-augmentation": corrupt_tau_augmentation,
    "block-scalar": corrupt_block_scalar,
    "block-square": lambda F: corrupt_block_scalar(F, 2),
    "block-column": corrupt_block_column,
    "star-scalars": corrupt_star_scalars,
}


def corrupted_factors(inst, name):
    """Fresh factors of ``inst`` with the corruption ``name``, or None where
    ``inst`` has nothing it corrupts (no tau in use, no block of length 2,
    a resolution of S/I of length 1).  ``inst`` itself is left as it is."""
    try:
        return FACTOR_CORRUPTIONS[name](build_factors(with_resolution_copy(inst)))
    except (StopIteration, IndexError):
        return None


def check_equivalence(inst) -> None:
    factors = build_factors(inst)
    certify_factors(factors)
    assembled_certificate(factors)
    tot = total_complex(factors)
    if factors.hypothesis_linear:
        assert factored_table(factors) == betti_table(tot.complex)
    for name in FACTOR_CORRUPTIONS:
        bad = corrupted_factors(inst, name)
        if bad is None:
            continue
        with pytest.raises(ConstructionError):
            certify_factors(bad)
        with pytest.raises(ConstructionError):
            assembled_certificate(bad)


def test_factored_and_assembled_agree_on_the_demo():
    check_equivalence(cli.parse_instance_document(expansion_doc()))


@settings(max_examples=60, deadline=None)
@given(st.integers(56, 2000).filter(lambda seed: seed not in SUITE_SEEDS))
def test_factored_and_assembled_agree_beyond_the_pinned_seeds(seed):
    check_equivalence(random_instance(seed))


@settings(max_examples=40, deadline=None)
@given(nonlinear_nested_documents())
def test_factored_and_assembled_certificates_agree_outside_the_hypothesis(doc):
    check_equivalence(cli.parse_instance_document(doc))


# -- sigma, read back off the total complex

def expected_sigma(tot, c, i):
    """{(row, column): scalar} of sigma_c in row i as the paper builds it:
    lam_1 maps the generators of summand j onto the ring, and for c >= 2
    the block from summand j to summand k is lam_c[k][j] times the tensor
    product of the taus between their block degrees, at the summand
    offsets."""
    F = tot.factors
    res = F.instance.resolution
    src, tgt = summand_starts(tot, c, i), summand_starts(tot, c - 1, i)
    out = {}
    for j, col in res.diffs[c].cols.items():
        for k, scalar in col.items():
            if c == 1:
                out.update({(0, src[j] + u): scalar for u in range(src[j + 1] - src[j])
                            if i == 0})
                continue
            if i > tot.summands[c][j].length:
                continue
            taus = [F.taus[(l, a, b)]
                    for l, (a, b) in enumerate(zip(res.shifts[c][j], res.shifts[c - 1][k]))]
            cols = tensor_chain_map(taus, scalar)[i]
            out.update({(tgt[k] + r, src[j] + t): v
                        for t, scalars in cols.items() for r, v in scalars.items()})
    return out


def check_sigma_blocks(inst) -> None:
    tot = certified_total(inst)
    lam = [None] + [d.cols for d in inst.resolution.diffs[1:]]
    ranks = tot.column_ranks
    for c in range(1, len(ranks)):
        for i in range(len(ranks[c])):
            got = {(r, t): v for t, scalars in tot.sigma(c, i).cols.items()
                   for r, v in scalars.items()}
            # zero outside the pattern of lam_c
            src, tgt = summand_starts(tot, c, i), summand_starts(tot, c - 1, i)
            for r, t in got:
                j, k = bisect_right(src, t) - 1, bisect_right(tgt, r) - 1
                assert lam[c].get(j, {}).get(k, 0), (c, i, r, t)
            assert got == expected_sigma(tot, c, i), (c, i)


def test_sigma_blocks_on_the_suite():
    for seed in SUITE_SEEDS:
        check_sigma_blocks(random_instance(seed))


def test_sigma_blocks_beyond_the_pinned_seeds():
    for seed in range(120, 160):
        check_sigma_blocks(random_instance(seed))


@settings(max_examples=40, deadline=None)
@given(nonlinear_nested_documents())
def test_sigma_blocks_outside_the_hypothesis(doc):
    check_sigma_blocks(cli.parse_instance_document(doc))


# -- the first map of every minimal resolution

def is_all_ones_row(C) -> bool:
    """Position 1 of C maps each basis element onto position 0 by the int 1."""
    return (C.diffs[1].cols == {c: {0: 1} for c in range(C.ranks[1])}
            and all(type(col[0]) is int for col in C.diffs[1].cols.values()))


def test_resolutions_of_the_suite_keep_the_all_ones_row():
    # F and the resolution of every block ideal, as minimalize_complex
    # returns them: no cancellation reaches their first map
    for seed in SUITE_SEEDS:
        inst = random_instance(seed)
        assert is_all_ones_row(inst.resolution), seed
        for l, ladder in enumerate(inst.ladders):
            for d in ladder:
                if d:
                    assert is_all_ones_row(quotient_resolution(inst.family.at(l, d))), (seed, l, d)


@settings(max_examples=40, deadline=None)
@given(nonlinear_nested_documents())
def test_minimalized_total_complex_keeps_the_all_ones_row(doc):
    # outside the linearity hypothesis minimal_total_table minimalizes the
    # total complex, whose first map is lam_1
    cx = certified_total(cli.parse_instance_document(doc)).complex
    assert is_all_ones_row(cx)
    assert is_all_ones_row(minimalize_complex(cx))


# -- which path builds what

@pytest.fixture
def assembled(monkeypatch):
    """Counts of total_complex and minimalize_complex calls, which the
    construction makes through these module names."""
    counts = {"total_complex": 0, "minimalize_complex": 0}
    for mod, name in ((cli, "total_complex"), (builder, "total_complex"),
                      (builder, "minimalize_complex")):
        original = getattr(mod, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(mod, name, counted)
    return counts


def test_a_linear_run_assembles_only_under_check(tmp_path, capsys, assembled):
    path = write(tmp_path, "e.json", expansion_doc())
    assert cli.main(["gmpi", path, "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert assembled == {"total_complex": 0, "minimalize_complex": 0}
    assert cli.main(["gmpi", path, "--check", "--json"]) == 0
    checked = json.loads(capsys.readouterr().out)
    assert assembled == {"total_complex": 1, "minimalize_complex": 0}
    assert checked["betti"] == plain["betti"]


def test_a_nonlinear_run_is_minimalized(tmp_path, capsys, assembled):
    # outside the hypothesis the total complex may have unit entries (this
    # one does, in sigma_2), so it is assembled and minimalized
    doc = nonlinear_doc()
    assert cli.main(["gmpi", write(tmp_path, "n.json", doc), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hypothesis_linear"] is False
    assert assembled == {"total_complex": 1, "minimalize_complex": 1}
    inst = cli.parse_instance_document(doc)
    assert out["betti"] == oracle_betti(inst.induced).to_json()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("seed*.json")), ids=lambda p: p.stem)
def test_gmpi_prints_the_golden_table(tmp_path, capsys, assembled, path):
    golden = json.loads(path.read_text())
    assert cli.main(["gmpi", write(tmp_path, "g.json", golden["instance"]), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == golden["betti"]
    assert len(out["induced_generators"]) == len(golden["induced_generators"])
    assert "certified" not in out and assembled["total_complex"] == 0
