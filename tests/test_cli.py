import contextlib
import io
import itertools
import json
import operator
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from gmpi.cli import (
    InputError,
    _json,
    instance_to_document,
    main,
    parse_ideal_document,
    parse_instance_document,
)
from gmpi import complexes
from gmpi.builder import block_ladders
from gmpi.complexes import BettiTable
from gmpi.families import mixed_product_instance, random_instance
from gmpi.monomials import ideal, simple_context

from conftest import (
    corrupt_block_column,
    corrupt_block_scalar,
    corrupt_star_ideal,
    corrupt_star_scalars,
    corrupt_tau,
    corrupt_tau_augmentation,
    non_nested_instance,
)


def koszul3_doc():
    return {
        "blocks": [{"name": v, "size": 1} for v in "xyz"],
        "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }


def expansion_doc():
    return {
        "blocks": [{"name": "x", "size": 2}, {"name": "y", "size": 2}],
        "inducing_ideal": [[2, 1], [1, 2]],
        "substitutions": {
            "x:1": {"family": "power-of-maximal", "degree": 1},
            "x:2": {"family": "power-of-maximal", "degree": 2},
            "y:1": {"family": "power-of-maximal", "degree": 1},
            "y:2": {"family": "power-of-maximal", "degree": 2},
        },
        "label": "expansion",
    }


def mixed33_doc():
    """Squarefree Veronese substitutions over blocks of three variables,
    whose degree-1 block resolutions have length 2."""
    return instance_to_document(mixed_product_instance((3, 3), (2, 1), (1, 2)))


def write(tmp_path, name, doc):
    """``doc`` as JSON in a file, or as it is where it is JSON text already."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def test_resolve_koszul_triangle(tmp_path, capsys):
    assert main(["resolve", write(tmp_path, "k3.json", koszul3_doc())]) == 0
    out = capsys.readouterr().out
    assert "regularity(ideal) = 1" in out
    assert "projdim(quotient) = 3" in out
    # Betti numbers 1, 3, 3, 1 appear in the triangle
    assert all(str(v) in out for v in (1, 3))


def test_resolve_json_payload(tmp_path, capsys):
    assert main(["resolve", write(tmp_path, "k3.json", koszul3_doc()), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"]["entries"] == [[0, 0, 1], [1, 1, 3], [2, 2, 3], [3, 3, 1]]
    assert payload["linear"] is True


def test_text_output_builds_no_json_payload(tmp_path, capsys, monkeypatch):
    # the Betti table is encoded only where --json prints it
    from gmpi import cli
    calls = []
    betti_json = cli.betti_json
    monkeypatch.setattr(cli, "betti_json",
                        lambda table, ind: calls.append(table) or betti_json(table, ind))
    gmpi_doc, ideal_doc = write(tmp_path, "e.json", expansion_doc()), write(
        tmp_path, "k.json", koszul3_doc())
    for argv in (["gmpi", gmpi_doc], ["gmpi", gmpi_doc, "--check"], ["resolve", ideal_doc]):
        assert main(argv) == 0
    assert calls == []
    for argv in (["gmpi", gmpi_doc, "--json"], ["resolve", ideal_doc, "--json"]):
        assert main(argv) == 0
    assert len(calls) == 2
    capsys.readouterr()


def test_gmpi_with_check_passes(tmp_path, capsys):
    assert main(["gmpi", write(tmp_path, "e.json", expansion_doc()), "--check"]) == 0
    out = capsys.readouterr().out
    assert "reg L = 3" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_gmpi_check_of_the_18_generator_mixed_product(tmp_path, capsys):
    # 18 generators fit the Taylor cap, so the permutation check runs; L has
    # linear quotients, so that oracle answers first
    doc = instance_to_document(mixed_product_instance((3, 3), (2, 1), (1, 2)))
    assert main(["gmpi", write(tmp_path, "m.json", doc), "--check", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["induced_generators"]) == 18
    assert [r["status"] for r in payload["checks"]] == ["PASS"] * 14
    betti = next(r for r in payload["checks"] if r["name"] == "betti-equivalence")
    assert betti["details"] == {"oracle": "linear-quotients"}


def test_gmpi_exit_one_on_failed_check(tmp_path, capsys, monkeypatch):
    from gmpi import verify as ver
    from gmpi.verify import CheckResult
    monkeypatch.setattr(ver, "run_instance_checks",
                        lambda *args, **kw: [CheckResult("stub", "x", False)])
    assert main(["gmpi", write(tmp_path, "e.json", expansion_doc()), "--check"]) == 1


def test_family_path_ideal(capsys):
    assert main(["family", "path-ideal", "parts=2,2", "t=2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["generators"]) == 4


def test_family_random_emits_instance(capsys):
    assert main(["family", "random", "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    inst = parse_instance_document(doc)
    assert len(inst.inducing.gens) >= 2


def test_family_unknown_tag_is_input_error(capsys):
    assert main(["family", "frobnicate"]) == 2
    assert main(["family", "nosuch"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: unknown family tag 'nosuch'; choose from ('squarefree-veronese', "
        "'power-of-maximal', 'veronese-type', 'lex-segment', 'path-ideal', 'mixed-product', "
        "'random')")


def test_bad_document_exit_two(tmp_path, capsys):
    bad = {"blocks": [{"name": "x", "size": 2}], "inducing_ideal": [[2]],
           "substitutions": {"z:2": [[1, 1]]}}
    assert main(["gmpi", write(tmp_path, "bad.json", bad)]) == 2
    assert main(["resolve", str(tmp_path / "missing.json")]) == 2


def test_nesting_violation_is_input_error(tmp_path):
    doc = {
        "blocks": [{"name": "x", "size": 2}, {"name": "y", "size": 1}],
        "inducing_ideal": [[2, 1], [1, 2]],
        "substitutions": {
            "x:2": [[2, 0]],
            "x:1": [[0, 1]],
            "y:1": [[1]],
            "y:2": [[2]],
        },
    }
    assert main(["gmpi", write(tmp_path, "nest.json", doc)]) == 2


def test_document_roundtrip_is_identity():
    inst = mixed_product_instance((2, 2), (2, 1), (1, 2))
    doc = instance_to_document(inst)
    again = instance_to_document(parse_instance_document(doc))
    assert doc == again


def test_verify_single_seed(capsys):
    assert main(["verify", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "[FAIL]" not in out


def test_verify_json_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["verify", "--seed", "9", "--json", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert all(item["passed"] for item in report)
    assert {"name", "label", "status", "details"} <= set(report[0])


def test_parse_ideal_document_shape_errors():
    with pytest.raises(InputError):
        parse_ideal_document({"blocks": [{"size": 1}], "generators": [[1]]})


def expansion_with_substitution(key, value):
    doc = expansion_doc()
    doc["substitutions"].pop("x:1")
    doc["substitutions"][key] = value
    return doc


MALFORMED = {
    "block-of-size-zero": (
        "resolve", {"blocks": [{"name": "x", "size": 0}], "generators": [[]]}),
    "no-generators-key": ("resolve", {"blocks": [{"name": "x", "size": 2}]}),
    "non-integer-degree-in-key": (
        "gmpi", expansion_with_substitution("x:a", [[1, 0], [0, 1]])),
    "shorthand-without-degree": (
        "gmpi", expansion_with_substitution("x:1", {"family": "power-of-maximal"})),
    "duplicate-block-name": (
        "gmpi", {"blocks": [{"name": "x", "size": 1}, {"name": "x", "size": 1}],
                 "inducing_ideal": [[1, 0], [0, 1]],
                 "substitutions": {"x:1": [[1]]}}),
    "substitutions-a-list": ("gmpi", {**expansion_doc(), "substitutions": []}),
    "substitutions-null": ("gmpi", {**expansion_doc(), "substitutions": None}),
    "substitutions-a-string": ("gmpi", {**expansion_doc(), "substitutions": "x:1"}),
    # int() would truncate each of these to a valid document
    "non-integral-block-size": (
        "gmpi", {**expansion_doc(), "blocks": [{"name": "x", "size": 1.5},
                                               {"name": "y", "size": 2}]}),
    "non-integral-generator": (
        "resolve", {"blocks": [{"name": "x", "size": 1}], "generators": [[1.5]]}),
    "non-integral-inducing-exponent": (
        "gmpi", {**expansion_doc(), "inducing_ideal": [[2, 1.5], [1, 2]]}),
    "non-integral-substitution-exponent": (
        "gmpi", expansion_with_substitution("x:1", [[1.5, 0], [0, 1]])),
    "non-integral-shorthand-degree": (
        "gmpi", expansion_with_substitution(
            "x:1", {"family": "power-of-maximal", "degree": 1.5})),
    "non-integral-shorthand-count": (
        "gmpi", expansion_with_substitution(
            "x:1", {"family": "lex-segment", "degree": 1, "count": 2.5})),
    # a generator is an array of integers: int() would read each of these
    # as a valid document
    "string-substitution-ideal": (
        "gmpi", {"blocks": [{"name": "x", "size": 1}, {"name": "y", "size": 1}],
                 "inducing_ideal": [[1, 0], [0, 1]],
                 "substitutions": {"x:1": "1", "y:1": [[1]]}}),
    "string-inducing-generators": ("gmpi", {**expansion_doc(), "inducing_ideal": ["21", "12"]}),
    "string-generators": (
        "resolve", {"blocks": [{"name": "x", "size": 2}], "generators": ["10", "01"]}),
    "string-exponent": (
        "resolve", {"blocks": [{"name": "x", "size": 2}], "generators": [[1, "0"], [0, 1]]}),
    "string-substitution-exponent": (
        "gmpi", expansion_with_substitution("x:1", [[1, "0"], [0, 1]])),
    "boolean-exponents": (
        "resolve", {"blocks": [{"name": "x", "size": 2}],
                    "generators": [[True, False], [False, True]]}),
    "boolean-inducing-exponent": (
        "gmpi", {**expansion_doc(), "inducing_ideal": [[2, True], [True, 2]]}),
    # a document number is never a string or a boolean, though int() would
    # read each of these as a valid document
    "string-block-size": (
        "resolve", {"blocks": [{"name": "x", "size": "2"}], "generators": [[1, 0], [0, 1]]}),
    "boolean-block-size": (
        "resolve", {"blocks": [{"name": "x", "size": True}], "generators": [[1]]}),
    "string-shorthand-degree": (
        "gmpi", expansion_with_substitution(
            "x:1", {"family": "power-of-maximal", "degree": "1"})),
    "boolean-shorthand-degree": (
        "gmpi", expansion_with_substitution(
            "x:1", {"family": "power-of-maximal", "degree": True})),
    "string-shorthand-count": (
        "gmpi", expansion_with_substitution(
            "x:1", {"family": "lex-segment", "degree": 1, "count": "2"})),
    # read as count 1, (x1^2) nests in (x1, x2)
    "boolean-shorthand-count": (
        "gmpi", {**expansion_doc(), "substitutions": {
            **expansion_doc()["substitutions"],
            "x:2": {"family": "lex-segment", "degree": 2, "count": True}}}),
    # a key's degree is written as str(int(degree)); int() would read each
    # of these as degree 1, or, beside "x:2", let the later ideal win
    "zero-padded-degree-in-key": ("gmpi", expansion_with_substitution("x:01", [[1, 0], [0, 1]])),
    "signed-degree-in-key": ("gmpi", expansion_with_substitution("x:+1", [[1, 0], [0, 1]])),
    "spaced-degree-in-key": ("gmpi", expansion_with_substitution("x: 1", [[1, 0], [0, 1]])),
    "underscored-degree-in-key": ("gmpi", expansion_with_substitution("x:0_1", [[1, 0], [0, 1]])),
    "colliding-degree-keys": ("gmpi", {**expansion_doc(), "substitutions": {
        **expansion_doc()["substitutions"], "x:02": [[2, 0], [1, 1]]}}),
    # json would keep the last value of a repeated key
    "repeated-key": ("gmpi", json.dumps(expansion_doc()).replace(
        '"x:2":', '"x:1": [[1, 0], [0, 1]], "x:2":')),
    "negative-degree-in-key": ("gmpi", expansion_with_substitution("x:-1", [[1, 0], [0, 1]])),
    # a label is echoed back as it is, so it must be a string
    "integer-label": ("gmpi", {**expansion_doc(), "label": 5}),
    "list-label": ("gmpi", {**expansion_doc(), "label": ["a"]}),
    # a block name is written into every variable name, as it is
    "null-block-name": (
        "resolve", {"blocks": [{"name": None, "size": 2}], "generators": [[1, 0], [0, 1]]}),
    "integer-block-name": (
        "resolve", {"blocks": [{"name": 5, "size": 2}], "generators": [[1, 0], [0, 1]]}),
    "boolean-block-name": (
        "resolve", {"blocks": [{"name": True, "size": 2}], "generators": [[1, 0], [0, 1]]}),
    "empty-block-name": (
        "resolve", {"blocks": [{"name": "", "size": 2}], "generators": [[1, 0], [0, 1]]}),
    # the block name of a key ends at its first ':'
    "colon-in-block-name": (
        "gmpi", {**expansion_doc(), "blocks": [{"name": "x:1", "size": 2},
                                               {"name": "y", "size": 2}]}),
    # a document and a block are objects, whose keys are checked
    "string-block": ("resolve", {"blocks": ["x"], "generators": [[1]]}),
    "list-instance-document": ("gmpi", [expansion_doc()]),
    "list-ideal-document": ("resolve", [{"blocks": [{"name": "x", "size": 1}]}]),
    # a key at a degree that no generator has in its block is never read
    "off-ladder-key": ("gmpi", {
        "blocks": [{"name": "x", "size": 2}], "inducing_ideal": [[1]],
        "substitutions": {"x:1": [[1, 0], [0, 1]], "x:5": [[1, 0]]}, "label": "extra"}),
    "off-ladder-key-second-block": ("gmpi", {
        "blocks": [{"name": "x", "size": 1}, {"name": "y", "size": 2}],
        "inducing_ideal": [[1, 1]],
        "substitutions": {"x:1": [[1]], "y:1": [[1, 0], [0, 1]], "y:2": [[2, 0]]}}),
    "zero-inducing-ideal": ("gmpi", {
        "blocks": [{"name": "x", "size": 2}], "inducing_ideal": [], "substitutions": {}}),
    "zero-substitution": ("gmpi", {
        "blocks": [{"name": "x", "size": 2}], "inducing_ideal": [[1]],
        "substitutions": {"x:1": []}}),
    "unit-substitution": ("gmpi", {
        "blocks": [{"name": "x", "size": 2}], "inducing_ideal": [[1]],
        "substitutions": {"x:1": [[0, 0]]}}),
}

# the whole message, where it is pinned
MALFORMED_MESSAGES = {
    "duplicate-block-name": "duplicate block name 'x'",
    "negative-degree-in-key":
        "substitution for block 0 has degree -1: the degree must be positive",
    "integer-label": "label must be a string, not int",
    "list-label": "label must be a string, not list",
    "null-block-name": "block name must be a string, not NoneType",
    "integer-block-name": "block name must be a string, not int",
    "boolean-block-name": "block name must be a string, not bool",
    "empty-block-name": "block name must not be empty",
    "colon-in-block-name":
        "block name 'x:1' contains ':', which ends the block name of a substitution key",
    "string-block": "a block must be an object, not str",
    "list-instance-document": "an instance document must be an object, not list",
    "list-ideal-document": "an ideal document must be an object, not list",
    "off-ladder-key": "substitution for block 0, degree 5: no generator of the inducing "
                      "ideal has degree 5 in block 0",
    "off-ladder-key-second-block": "substitution for block 1, degree 2: no generator of "
                                   "the inducing ideal has degree 2 in block 1",
    "zero-inducing-ideal": "inducing ideal must be nonzero and proper",
    "zero-substitution": "substitution for block 0, degree 1 must be nonzero and proper",
    "unit-substitution": "substitution for block 0, degree 1 must be nonzero and proper",
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document_exits_two_with_one_line(tmp_path, capsys, case):
    command, doc = MALFORMED[case]
    assert main([command, write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if case in MALFORMED_MESSAGES:
        assert err == f"error: {MALFORMED_MESSAGES[case]}\n"


def test_an_unwritable_out_path_exits_two_with_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["family", "random", "--seed", "30", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_an_unwritable_out_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    from gmpi import cli, verify

    def never(*args, **kwargs):
        raise AssertionError("the work started before --out was checked")

    monkeypatch.setattr(cli, "quotient_resolution", never)
    monkeypatch.setattr(cli, "build_factors", never)
    monkeypatch.setattr(cli, "total_complex", never)
    monkeypatch.setattr(verify, "run_suite", never)
    commands = [["resolve", write(tmp_path, "k.json", koszul3_doc())],
                ["gmpi", write(tmp_path, "e.json", expansion_doc())], ["verify"]]
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        for command in commands:
            assert main(command + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    # a run that then exits 2 leaves an existing file as it is, and no new one
    bad = write(tmp_path, "bad.json", {**expansion_doc(), "label": 5})
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_text("keep\n")
    assert main(["gmpi", bad, "--out", str(kept)]) == 2
    assert main(["gmpi", bad, "--out", str(new)]) == 2
    assert kept.read_text() == "keep\n" and not new.exists()


def test_max_taylor_is_refused_above_40(tmp_path, capsys):
    path = write(tmp_path, "k.json", koszul3_doc())
    for command in (["resolve", path], ["gmpi", write(tmp_path, "e.json", expansion_doc())]):
        with pytest.raises(SystemExit) as err:
            main(command + ["--max-taylor", "41"])
        assert err.value.code == 2
        assert "--max-taylor: 41 is not between 0 and 40" in capsys.readouterr().err
    assert main(["resolve", path, "--max-taylor", "40", "--json"]) == 0


@pytest.mark.parametrize("params", [
    ["squarefree-veronese", "vars=1_0", "degree=2"],
    ["squarefree-veronese", "vars= 3", "degree=2"],
    ["squarefree-veronese", "vars=3", "degree=+2"],
    ["squarefree-veronese", "vars=03", "degree=2"],
    ["lex-segment", "vars=3", "degree=2", "count=0_2"],
    ["path-ideal", "parts=1_1,2", "t=2"],
    ["path-ideal", "parts=2,2", "t=02"],
    ["veronese-type", "caps=1,+1,1", "t=2"],
    ["mixed-product", "sizes=2,2", "degs1=2,1", "degs2=1,0_2"],
])
def test_family_numbers_are_written_as_integers(params, capsys):
    # int() reads each of these; a number of `gmpi family` is written as
    # str() of it, as a key degree of a document is
    assert main(["family", *params]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("option", [
    ["family", "random", "--seed", "1_0"],
    ["verify", "--seed", "+9"],
    ["resolve", "k.json", "--max-taylor", "1_4"],
    ["gmpi", "e.json", "--max-taylor", " 14"],
])
def test_numeric_options_are_written_as_integers(option, tmp_path, capsys):
    write(tmp_path, "k.json", koszul3_doc())
    write(tmp_path, "e.json", expansion_doc())
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in option]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert repr(option[-1]) in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--degree", "2"], ["--json"]])
def test_family_takes_its_parameters_only_as_key_value(option, capsys):
    # a family parameter is written key=value, and the output is always JSON
    with pytest.raises(SystemExit) as err:
        main(["family", "squarefree-veronese", "vars=4", "degree=2", *option])
    assert err.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("params, name", [
    (["path-ideal", "parts=2,2", "t=2", "degre=9", "--seed", "5"], "'degre'"),
    (["squarefree-veronese", "vars=4", "degree=2", "count=7"], "'count'"),
    (["mixed-product", "sizes=2,2", "degs1=2,1", "degs2=1,2", "vars=2"], "'vars'"),
    (["random", "seed=3"], "'seed'"),
    (["path-ideal", "parts=2,2", "t=2", "--seed", "5"], "--seed"),
    (["power-of-maximal", "vars=3", "degree=2", "--seed", "0"], "--seed"),
], ids=["misspelled", "not-of-the-family", "vars-of-an-instance", "random", "seed",
        "seed-zero"])
def test_family_refuses_a_parameter_it_does_not_read(params, name, capsys):
    assert main(["family", *params]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert f"reads no {'' if name == '--seed' else 'parameter '}{name}" in err


def test_a_substitution_object_refuses_a_parameter_its_family_does_not_read(tmp_path, capsys):
    doc = expansion_with_substitution(
        "x:1", {"family": "power-of-maximal", "degree": 1, "count": 9})
    assert main(["gmpi", write(tmp_path, "e.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: substitution family 'power-of-maximal' reads no parameter 'count' "
        "(only family, degree)\n")


def renamed_key(doc: dict, old: str, new: str) -> dict:
    """``doc`` with its key ``old`` renamed ``new``."""
    return {new if key == old else key: value for key, value in doc.items()}


@pytest.mark.parametrize("command, doc, message", [
    ("gmpi", {**expansion_doc(), "lable": "mine"},
     "an instance document reads no parameter 'lable' "
     "(only blocks, inducing_ideal, substitutions, label)"),
    ("gmpi", renamed_key(expansion_doc(), "substitutions", "substitution"),
     "an instance document reads no parameter 'substitution' "
     "(only blocks, inducing_ideal, substitutions, label)"),
    ("gmpi", {**expansion_doc(), "blocks": [{"name": "x", "size": 2, "sise": 3},
                                            {"name": "y", "size": 2}]},
     "a block reads no parameter 'sise' (only name, size)"),
    ("resolve", {"blocks": [{"name": "x", "size": 2}], "generators": [[1, 0]], "gens": []},
     "an ideal document reads no parameter 'gens' (only blocks, generators)"),
], ids=["misspelled-label", "misspelled-substitutions", "misspelled-block-size",
        "ideal-document"])
def test_a_document_refuses_a_key_nothing_reads(tmp_path, capsys, command, doc, message):
    # without the refusal the label would be the default, and the
    # substitutions missing
    assert main([command, write(tmp_path, "d.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_family_random_without_a_seed_takes_seed_zero(capsys):
    assert main(["family", "random"]) == 0
    plain = capsys.readouterr().out
    assert main(["family", "random", "--seed", "0"]) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain) == instance_to_document(random_instance(0))


def test_plain_numbers_stay_valid(tmp_path, capsys):
    assert main(["family", "squarefree-veronese", "vars=4", "degree=2"]) == 0
    assert main(["family", "random", "--seed", "30"]) == 0
    assert main(["family", "random", "--seed", "-3"]) == 0
    path = write(tmp_path, "k.json", koszul3_doc())
    assert main(["resolve", path, "--max-taylor", "14"]) == 0


def test_gmpi_reports_a_skipped_certificate(tmp_path, capsys, monkeypatch):
    # every star and block grid over its scan cap: the table is printed, and
    # marked as uncertified; a certified run carries no such mark
    from gmpi import complexes
    path = write(tmp_path, "e.json", expansion_doc())
    assert main(["gmpi", path, "--json"]) == 0
    assert "certified" not in json.loads(capsys.readouterr().out)
    monkeypatch.setattr(complexes, "grid_size", lambda axes: 10**9)
    assert main(["gmpi", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is False
    assert main(["gmpi", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("certified")] == [
        "certified: False (a star or block degree grid exceeds its scan cap)"]


def test_gmpi_construction_error_is_not_an_input_error(tmp_path, monkeypatch):
    # a real certificate failure: a block resolution, a factor of the
    # columns, that does not square to zero
    from gmpi import builder
    certify = builder.certify_factors
    monkeypatch.setattr(builder, "certify_factors",
                        lambda F, *store: certify(corrupt_block_scalar(F, 2), *store))
    with pytest.raises(builder.ConstructionError):
        main(["gmpi", write(tmp_path, "m.json", mixed33_doc())])


def test_verify_construction_error_is_not_an_input_error(monkeypatch):
    # certified factors corrupted on their way into total_complex
    from gmpi import builder, verify
    assemble = verify.total_complex
    monkeypatch.setattr(verify, "total_complex", lambda F: assemble(corrupt_tau(F)))
    with pytest.raises(builder.ConstructionError):
        main(["verify", "--seed", "49"])


# plain `gmpi gmpi` assembles no total complex, so sigma and the columns are
# corrupted through the factors they are made of: the taus (sigma,
# sigma-square) and the block resolutions (column)
TAU_CHAIN = "a comparison map in use is not a chain map (block, from, to, position)"
BLOCK = ("a block resolution does not resolve its substitution ideal "
         "(block, degree, multidegree)")
CORRUPTIONS = {
    "sigma": (corrupt_tau, expansion_doc, TAU_CHAIN, (0, 2, 1, 1)),
    "sigma-square": (corrupt_tau_augmentation, expansion_doc, TAU_CHAIN, (0, 2, 1, 1)),
    "column": (lambda F: corrupt_block_scalar(F, 2), mixed33_doc, BLOCK, (0, 1, (1, 1, 1))),
    "block-scalar": (corrupt_block_scalar, expansion_doc, BLOCK, (0, 1, (1, 1))),
    "block-column": (corrupt_block_column, expansion_doc, BLOCK, (0, 1, (1, 1))),
    "star-scalars": (corrupt_star_scalars, expansion_doc, "the star complex is not exact",
                     (2, (2, 2))),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_gmpi_raises_the_certificate_witness(tmp_path, monkeypatch, case):
    from gmpi import builder, cli
    corrupt, doc, message, witness = CORRUPTIONS[case]
    certify = builder.certify_factors
    monkeypatch.setattr(builder, "certify_factors", lambda F, *store: certify(corrupt(F), *store))
    monkeypatch.setattr(cli, "total_complex", None)   # never assembled
    with pytest.raises(builder.ConstructionError) as err:
        main(["gmpi", write(tmp_path, "e.json", doc())])
    assert err.value.witness == witness and str(err.value) == f"{message} at {witness}"


@pytest.mark.parametrize("command", ["check", "verify"])
@pytest.mark.parametrize("corrupt, doc", [
    (corrupt_tau, expansion_doc),
    (corrupt_tau_augmentation, expansion_doc),
    (lambda F: corrupt_block_scalar(F, 2), mixed33_doc),
], ids=["sigma", "sigma-square", "column"])
def test_check_and_verify_refuse_a_corrupted_assembled_map(tmp_path, monkeypatch, corrupt, doc,
                                                           command):
    # --check and verify assemble the total complex from the certified
    # factors, corrupted here on their way in, and total_complex checks the
    # diff o diff of the map it makes (suite seed 49 has a tau in use with
    # entries above position 0 and a block resolution of length 2)
    from gmpi import builder, cli, verify
    mod = cli if command == "check" else verify
    assemble = mod.total_complex
    monkeypatch.setattr(mod, "total_complex", lambda F: assemble(corrupt(F)))
    argv = (["gmpi", write(tmp_path, "e.json", doc()), "--check"]
            if command == "check" else ["verify", "--seed", "49"])
    with pytest.raises(builder.ConstructionError) as err:
        main(argv)
    assert "total differential does not square to zero" in str(err.value)


def test_gmpi_check_fails_on_a_corrupted_star_ideal(tmp_path, capsys, monkeypatch):
    # the star complex is built by the checks alone, so its corruption is a
    # failed check and not a construction error
    from gmpi import verify
    build = verify.build_star_complex
    monkeypatch.setattr(verify, "build_star_complex", lambda inst: corrupt_star_ideal(build(inst)))
    assert main(["gmpi", write(tmp_path, "e.json", expansion_doc()), "--check", "--json"]) == 1
    status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert status["product-equals-intersection"] == status["star-acyclicity"] == "FAIL"
    assert [name for name, st in status.items() if st != "PASS"] == [
        "product-equals-intersection", "star-acyclicity"]


def test_gmpi_scans_the_star_complex_only_under_check(tmp_path, capsys, monkeypatch):
    # the certificate reads the star complex off the resolution of S/I on
    # S's grid: a plain run builds and scans no star complex, and --check
    # and verify build and scan it once per instance
    from gmpi import builder, verify
    calls = []
    for name in ("build_star_complex", "star_acyclicity"):
        original = getattr(builder, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        for module in (builder, verify):
            monkeypatch.setattr(module, name, counted)
    path = write(tmp_path, "e.json", expansion_doc())
    assert main(["gmpi", path, "--json"]) == 0
    assert main(["gmpi", path]) == 0
    assert calls == []
    assert main(["gmpi", path, "--check"]) == 0
    assert calls == ["build_star_complex", "star_acyclicity"]
    calls.clear()
    assert main(["verify", "--seed", "5"]) == 0
    assert calls == ["build_star_complex", "star_acyclicity"]


def test_gmpi_raises_on_a_non_nested_ladder(tmp_path, monkeypatch):
    # validate_family rejects such a document as input; with the nesting
    # check bypassed, the comparison maps raise with the block, degree and
    # the generator outside the lower-degree ideal
    from gmpi import builder, cli
    monkeypatch.setattr(cli, "parse_instance_document", lambda doc: non_nested_instance())
    with pytest.raises(builder.ConstructionError) as err:
        main(["gmpi", write(tmp_path, "e.json", expansion_doc())])
    assert err.value.witness == (0, 2, (2, 0))


def test_family_random_without_a_feasible_attempt_exits_two(capsys, monkeypatch):
    from gmpi import builder, families

    def reject(*args, **kwargs):
        raise builder.FamilyValidationError("rejected")

    monkeypatch.setattr(families, "validate_family", reject)
    assert main(["family", "random", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: no feasible instance found for seed 1\n"


# -- outside the linearity hypothesis

def nonlinear_doc():
    # a:2 = (a1^2, a2^2) has no linear resolution, so the paper promises no
    # minimal sigma maps here; the construction still resolves T/L
    return {
        "blocks": [{"name": "u", "size": 1}, {"name": "a", "size": 2}],
        "inducing_ideal": [[1, 3], [2, 2]],
        "substitutions": {"u:1": [[1]], "u:2": [[2]],
                          "a:2": [[2, 0], [0, 2]], "a:3": [[2, 1], [1, 2]]},
        "label": "nonlinear",
    }


def test_gmpi_check_outside_the_hypothesis_exits_zero(tmp_path, capsys):
    assert main(["gmpi", write(tmp_path, "n.json", nonlinear_doc()), "--check", "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    minimality = checks["sigma-minimality"]
    assert minimality["status"] == "HYPOTHESIS-UNMET"
    assert minimality["details"]["witness"] == [2, 1, 0, 0]
    assert checks["betti-equivalence"]["status"] == "PASS"
    assert checks["total-exactness"]["status"] == "PASS"


@st.composite
def nonlinear_nested_documents(draw):
    """Instance documents whose substitution ideals are random sets of
    monomials of their degree, nested along each ladder by construction:
    each rung up is drawn from the monomials of its degree in the ideal
    below.  The lowest rung of a two-variable block is often a complete
    intersection, so many of them have no linear resolution."""
    # a one-variable block has principal, hence linear, substitutions; one
    # block alone gives a principal inducing ideal, so there are two
    sizes = [2, draw(st.integers(1, 2))]
    # a rung of degree 1 in two variables is linear, so the ladders of those
    # blocks start at degree 2
    exps = st.tuples(*[st.sampled_from((0, 2, 3) if m == 2 else (0, 1, 2, 3))
                       for m in sizes]).filter(any)
    inducing = draw(st.lists(exps, min_size=2, max_size=3, unique=True))
    # the ladders of the minimal generators: a key off them is refused
    ladders = block_ladders(ideal(simple_context(2, ("u", "v")), inducing))
    blocks, subs = [], {}
    for l, m in enumerate(sizes):
        name = "uv"[l]
        blocks.append({"name": name, "size": m})
        below = None
        for d in [d for d in ladders[l] if d >= 1]:
            degree_d = [g for g in itertools.product(range(d + 1), repeat=m) if sum(g) == d]
            if below is None and m == 2 and draw(st.booleans()):
                gens = {(d, 0), (0, d)}
            elif below is None:
                gens = set(draw(st.lists(st.sampled_from(degree_d), min_size=1, max_size=3)))
            else:
                inside = [g for g in degree_d if any(all(map(operator.le, h, g)) for h in below)]
                gens = set(draw(st.lists(st.sampled_from(inside), min_size=1, max_size=4)))
            subs[f"{name}:{d}"] = [list(g) for g in sorted(gens)]
            below = gens
    return {"blocks": blocks, "inducing_ideal": [list(g) for g in inducing],
            "substitutions": subs, "label": "nonlinear"}


@settings(max_examples=200, deadline=None)
@given(nonlinear_nested_documents())
def test_gmpi_check_exits_zero_wherever_the_oracles_agree(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["gmpi", path, "--check", "--json"])
    checks = {c["name"]: c["status"] for c in json.loads(out.getvalue())["checks"]}
    if checks["betti-equivalence"] == "PASS":
        assert rc == 0, checks


def rp2_doc():
    """The Stanley-Reisner ideal of the 6-vertex real projective plane
    (``test_complexes.rp2_ideal``) as the inducing ideal, with the maximal
    ideal of a two-variable block substituted for every vertex."""
    from test_complexes import rp2_ideal
    I = rp2_ideal()
    names = I.ctx.names
    return {
        "blocks": [{"name": b, "size": 2} for b in names],
        "inducing_ideal": [list(g) for g in I.gens],
        "substitutions": {f"{b}:1": {"family": "power-of-maximal", "degree": 1} for b in names},
        "label": "rp2",
    }


def test_gmpi_certifies_the_rp2_document_with_the_exact_strand_tier(tmp_path, capsys,
                                                                     monkeypatch):
    # a strand with 2-torsion: the F_2 ranks fall short there, so the
    # exact tier decides it, and the table is certified all the same
    calls = []
    exact = complexes._strand_rank

    def strand_rank(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(complexes, "_strand_rank", strand_rank)
    assert main(["gmpi", write(tmp_path, "rp2.json", rp2_doc())]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not any(line.startswith("certified: False") for line in lines)
    assert "|G(L)| = 80" in lines
    assert next(line for line in lines if line.startswith("  2:")).split() == [
        "2:", ".", "80", "360", "732", "850", "600", "255", "60", "6"]
    assert calls


# -- the front end

def test_a_reader_that_closes_the_pipe_early_stops_the_run_quietly(tmp_path):
    # `gmpi gmpi doc --json | head -c 10`: the 80 KB output of the 5-cycle
    # outgrows the pipe, so the writer meets the closed end; it exits 1 with
    # nothing on stderr, not with a BrokenPipeError traceback
    from test_demos import src_env
    proc = subprocess.Popen(
        [sys.executable, "-m", "gmpi.cli", "gmpi", write(tmp_path, "c5.json", cycle5_doc()),
         "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    try:
        assert proc.stdout.read(10) == b'{\n  "label'
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


# -- the layout of --json: json.dumps(indent=2), byte for byte

def cycle5_doc():
    """The edge ideal of the 5-cycle with the maximal ideal of a two-variable
    block substituted for every vertex: 80 KB of --json."""
    names = "abcde"
    return {
        "blocks": [{"name": b, "size": 2} for b in names],
        "inducing_ideal": [[1 if v in (i, (i + 1) % 5) else 0 for v in range(5)]
                           for i in range(5)],
        "substitutions": {f"{b}:1": {"family": "power-of-maximal", "degree": 1} for b in names},
        "label": "cycle5",
    }


def partial_share_doc():
    """(x^2 y, x y^3) with the powers of the maximal ideal of two
    two-variable blocks: the blocks carry the same substitution ideal at
    degree 1 and only there (x:1 = y:1, x:2 != y:3), so the construction
    shares one block resolution between them."""
    return {
        "blocks": [{"name": "x", "size": 2}, {"name": "y", "size": 2}],
        "inducing_ideal": [[2, 1], [1, 3]],
        "substitutions": {f"{b}:{d}": {"family": "power-of-maximal", "degree": d}
                          for b, d in (("x", 1), ("x", 2), ("y", 1), ("y", 3))},
        "label": "partial-share",
    }


def test_gmpi_checks_the_partially_shared_document(tmp_path, capsys):
    path = write(tmp_path, "partial_share.json", partial_share_doc())
    assert main(["gmpi", path, "--check", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checks"] and all(c["status"] == "PASS" for c in out["checks"])
    assert main(["gmpi", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == out["betti"]


@st.composite
def betti_tables(draw):
    """BettiTables of 0 to 3 variables, empty ones among them, with any ints."""
    n = draw(st.integers(0, 3))
    ints = st.integers(-10, 10) | st.integers()
    return BettiTable(
        entries=draw(st.dictionaries(st.tuples(ints, ints), ints, max_size=4)),
        multi=draw(st.dictionaries(st.tuples(ints, st.tuples(*[ints] * n)), ints, max_size=4)))


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-3, 3)
                | st.floats() | st.text() | st.text("\"\\\x00\x1f\x7f\u00e9\u2028\U0001f600 \n\t"))
JSON_VALUES = st.recursive(
    JSON_SCALARS | betti_tables(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=20)


def _plain(v):
    """``v`` with each BettiTable in it replaced by its ``to_json``."""
    if isinstance(v, BettiTable):
        return v.to_json()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_the_json_writer_writes_the_bytes_of_json_dumps(value):
    assert _json(value, "") == json.dumps(_plain(value), indent=2)


def test_the_json_writer_on_fixed_tables_and_keys():
    one_var = BettiTable({(0, 0): 1, (1, 2): 1}, {(1, (2,)): 1, (0, (0,)): 1})
    for value in (BettiTable(), {"betti": BettiTable()}, one_var, [one_var, {"t": one_var}],
                  {"é\"\n": [-(10 ** 30), 1.5, float("inf"), True, None, [], {}]}):
        assert _json(value, "") == json.dumps(_plain(value), indent=2)
    # json.dumps would write these keys as strings; the writer refuses them
    for value in ({1: 2}, {"a": [{None: 1}]}, {(1,): 2}, {True: 0}):
        with pytest.raises(TypeError):
            _json(value, "")


def test_json_output_is_the_indent_2_layout_of_json_dumps(tmp_path, capsys):
    tests = pathlib.Path(__file__).parent
    demo = str(tests.parent / "demos" / "expansion_x2y_xy2.json")
    docs = [write(tmp_path, p.name, json.loads(p.read_text())["instance"])
            for p in sorted((tests / "golden").glob("seed*.json"))]
    runs = [["gmpi", d, "--json"] for d in docs + [write(tmp_path, "c5.json", cycle5_doc()), demo]]
    runs += [["gmpi", demo, "--check", "--json"],
             ["resolve", write(tmp_path, "k3.json", koszul3_doc()), "--json"],
             ["family", "mixed-product", "sizes=2,2", "degs1=2,1", "degs2=1,2"],
             ["verify", "--seed", "5", "--json"]]
    for argv in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_json_goes_through_one_emitter(tmp_path, capsys, monkeypatch):
    from gmpi import cli
    emitted = []
    monkeypatch.setattr(cli, "emit_json", lambda obj, out: emitted.append(obj))
    doc = write(tmp_path, "e.json", expansion_doc())
    assert main(["gmpi", doc, "--json"]) == 0
    assert main(["resolve", write(tmp_path, "k3.json", koszul3_doc()), "--json"]) == 0
    assert main(["family", "path-ideal", "parts=2,2", "t=2"]) == 0
    assert main(["verify", "--seed", "5", "--json"]) == 0
    assert [type(x) for x in emitted] == [dict, dict, dict, list]
    assert capsys.readouterr().out == ""


def test_parser_is_built_once_and_parses_afresh(tmp_path, monkeypatch):
    from gmpi import cli
    assert cli.build_parser() is cli.build_parser()
    first = cli.build_parser().parse_args(["gmpi", "a.json", "--check"])
    second = cli.build_parser().parse_args(["gmpi", "b.json"])
    assert first is not second and first.check and not second.check
    # the command is looked up when it runs, so a replaced one is called
    monkeypatch.setattr(cli, "cmd_resolve", lambda args: 7)
    assert main(["resolve", write(tmp_path, "k3.json", koszul3_doc())]) == 7


def test_gmpi_check_skips_the_star_scan_above_its_cap(tmp_path, capsys, monkeypatch):
    # a correct instance whose star grid exceeds the cap: star-acyclicity
    # reports SKIPPED with the cell count, and every other line still runs
    from gmpi import builder
    path = write(tmp_path, "e.json", expansion_doc())
    assert main(["gmpi", path, "--check", "--json"]) == 0
    intact = json.loads(capsys.readouterr().out)["checks"]
    monkeypatch.setattr(builder, "STAR_SCAN_CAP", 4)
    assert main(["gmpi", path, "--check", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    star = next(c for c in checks if c["name"] == "star-acyclicity")
    assert star["status"] == "SKIPPED"
    assert star["details"] == {"skipped": "degree grid has 81 cells (cap 4)"}
    assert [c for c in checks if c is not star] == [c for c in intact if c["name"] != star["name"]]
    assert [c["status"] for c in checks if c is not star] == ["PASS"] * 13
    assert main(["gmpi", path, "--check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    skipped = "[SKIPPED] expansion: star-acyclicity (skipped=degree grid has 81 cells (cap 4))"
    assert skipped in lines
    assert sum(line.startswith("[PASS]") for line in lines) == 13
