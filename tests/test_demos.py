"""The narrative demos, and the CLI on the demo and on an 18-generator
instance document, each run in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=src_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_construction_output_is_the_same_under_python_O(tmp_path):
    # neither the construction nor the checks may rely on assert statements
    # for side effects
    from gmpi.cli import instance_to_document
    from gmpi.families import mixed_product_instance
    demo = str(ROOT / "demos" / "expansion_x2y_xy2.json")
    mixed = tmp_path / "mixed33_21.json"
    mixed.write_text(json.dumps(
        instance_to_document(mixed_product_instance((3, 3), (2, 1), (1, 2)))))
    for doc, extra in ((demo, []), (demo, ["--check"]), (str(mixed), ["--check"])):
        argv = ["-m", "gmpi.cli", "gmpi", doc, "--json", *extra]
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, *argv], env=src_env(), cwd=ROOT,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0].startswith("{")
        assert ('"checks"' in outs[0]) == bool(extra)


def test_minimalizing_paths_are_the_same_under_python_O(tmp_path):
    # the two callers of minimalize_complex that the test above does not
    # reach: `resolve` (quotient_resolution) and `--check` outside the
    # linearity hypothesis (minimal_total_table)
    from test_cli import nonlinear_doc
    ideal_doc, nonlinear = tmp_path / "path23_3.json", tmp_path / "nonlinear.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gmpi.cli", "family", "path-ideal", "parts=2,3", "t=3",
         "--out", str(ideal_doc)], env=src_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    nonlinear.write_text(json.dumps(nonlinear_doc()))
    for argv in (["resolve", str(ideal_doc), "--json"],
                 ["gmpi", str(nonlinear), "--check", "--json"]):
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-m", "gmpi.cli", *argv],
                                  env=src_env(), cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0].startswith("{")
