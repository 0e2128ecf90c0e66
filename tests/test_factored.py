"""The factored construction: `gmpi gmpi` reads the Betti table and the
certificate off the factors, and assembles the double and total complexes
only where something scans them.  Each factored result is compared with the
assembled one it replaces."""

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
    build_double_complex,
    build_factors,
    certify_factors,
    factored_table,
    total_complex,
)
from gmpi.complexes import betti_table, exactness_check
from gmpi.families import random_instance
from gmpi.verify import SUITE_SEEDS, oracle_betti

from conftest import (
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

def column_star_witness(D):
    """(c, j) where summand j of column c is not generated in position 0 by
    the block product at its shift (L_j in column 1), or None."""
    inst = D.instance
    for c in range(1, len(D.columns)):
        for j, summand in enumerate(D.summands[c]):
            want = (inst.products[j] if c == 1
                    else block_product(inst.family, inst.resolution.shifts[c][j]))
            if set(summand.shifts[0]) != set(want.gens):
                return c, j
    return None


def sigma_star_witness(D):
    """(c, j, u, k) where the row-zero sums of sigma_c over generator u of
    summand j miss the scalar lam_c[k][j], or None."""
    res = D.instance.resolution
    for c in range(1, len(D.columns)):
        lam = res.diffs[c].cols
        sums = {}
        starts = [offs[0] for offs in D.offsets[c - 1]] if c >= 2 else [0]
        for col, column in D.sigmas[c].mats[0].cols.items():
            for r, v in column.items():
                key = (col, bisect_right(starts, r) - 1)
                sums[key] = sums.get(key, 0) + v
        for j, summand in enumerate(D.summands[c]):
            for u in range(len(summand.shifts[0])):
                col = D.offsets[c][j][0] + u
                for k in range(len(res.shifts[c - 1])):
                    if sums.get((col, k), 0) != lam.get(j, {}).get(k, 0):
                        return c, j, u, k
    return None


def assembled_certificate(D) -> None:
    """The certificate on the assembled total complex: no unit entry under
    the hypothesis, diff o diff, the column-star step, the star complex,
    the sigma-star step and the block resolutions; ConstructionError at the
    first failure."""
    inst = D.instance
    cx = total_complex(D).complex
    witnesses = [
        cx.unit_witness() if D.hypothesis_linear else None,
        column_star_witness(D),
        exactness_check(inst.resolution, inst.inducing),
        sigma_star_witness(D),
    ] + [block_witness(res, inst.family.at(l, d)) for (l, d), res in D.blocks.items() if d]
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
    D = build_double_complex(inst, factors)
    assembled_certificate(D)
    tot = total_complex(D)
    if factors.hypothesis_linear:
        assert factored_table(factors) == betti_table(tot.complex)
    for name in FACTOR_CORRUPTIONS:
        bad = corrupted_factors(inst, name)
        if bad is None:
            continue
        with pytest.raises(ConstructionError):
            certify_factors(bad)
        with pytest.raises(ConstructionError):
            assembled_certificate(build_double_complex(bad.instance, bad))


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


# -- which path builds what

@pytest.fixture
def assembled(monkeypatch):
    """Counts of build_double_complex and minimalize_complex calls, which
    the construction makes through these module names."""
    counts = {"build_double_complex": 0, "minimalize_complex": 0}
    for mod, name in ((cli, "build_double_complex"), (builder, "build_double_complex"),
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
    assert assembled == {"build_double_complex": 0, "minimalize_complex": 0}
    assert cli.main(["gmpi", path, "--check", "--json"]) == 0
    checked = json.loads(capsys.readouterr().out)
    assert assembled == {"build_double_complex": 1, "minimalize_complex": 0}
    assert checked["betti"] == plain["betti"]


def test_a_nonlinear_run_is_minimalized(tmp_path, capsys, assembled):
    # outside the hypothesis the total complex may have unit entries (this
    # one does, in sigma_2), so it is assembled and minimalized
    doc = nonlinear_doc()
    assert cli.main(["gmpi", write(tmp_path, "n.json", doc), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hypothesis_linear"] is False
    assert assembled == {"build_double_complex": 1, "minimalize_complex": 1}
    inst = cli.parse_instance_document(doc)
    assert out["betti"] == oracle_betti(inst.induced).to_json()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("seed*.json")), ids=lambda p: p.stem)
def test_gmpi_prints_the_golden_table(tmp_path, capsys, assembled, path):
    golden = json.loads(path.read_text())
    assert cli.main(["gmpi", write(tmp_path, "g.json", golden["instance"]), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == golden["betti"]
    assert len(out["induced_generators"]) == len(golden["induced_generators"])
    assert "certified" not in out and assembled["build_double_complex"] == 0
