"""Batch front end: parse instance documents, run constructions and checks.

Subcommands:
  resolve  minimal resolution and Betti table of a standalone monomial ideal
  gmpi     build the induced ideal and its resolution from an instance file
  family   emit a family ideal or a full instance document
  verify   run the pinned acceptance suite

Exit codes: 0 = pass, 1 = a check failed, 2 = input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .builder import (
    FamilyValidationError,
    GmpiInstance,
    SubstitutionFamily,
    build_factors,
    resolution_table,
    total_complex,
    validate_family,
)
from .complexes import (
    BettiTable,
    SizeCapError,
    betti_table,
    is_linear_resolution,
    projective_dimension,
    quotient_resolution,
    regularity,
    TAYLOR_CAP,
)
from .monomials import MonomialIdeal, VariableContext, ideal, simple_context
from . import families as fam
from . import verify as ver


class InputError(ValueError):
    pass


@contextlib.contextmanager
def _reading(what: str):
    """Report a malformed ``what`` (a missing key, a wrong type or an invalid
    value) as an InputError; an InputError or FamilyValidationError raised
    inside keeps its own message."""
    try:
        yield
    except (InputError, FamilyValidationError):
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad {what}: {e!r}") from None


def _integer(v) -> int:
    """int(v) for a number of a document: a string or a boolean is refused,
    though int() would read it, and so is a non-integral number, which int()
    would truncate."""
    if isinstance(v, (str, bool)) or isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _decimal(text: str) -> int:
    """The integer of a command-line number, which must be written as str()
    of it: int() alone would also read '1_0', ' 3', '+2' and '02'."""
    n = int(text)
    if str(n) != text:
        raise ValueError(f"integer {text!r} must be written as {str(n)!r}")
    return n


def _generator(g) -> tuple[int, ...]:
    """The exponent vector of a generator, which must be an array of
    integers (a string is refused: its characters would read as
    exponents)."""
    if not isinstance(g, list):
        raise ValueError(f"generator {g!r} is not an array of integers")
    return tuple(map(_integer, g))


# ---------------------------------------------------------------------------
# documents

def parse_blocks(data) -> VariableContext:
    with _reading("blocks (objects with a name and a positive size)"):
        for b in data:
            _refuse_unread(b, ("name", "size"), "a block")
        sizes = tuple(_integer(b["size"]) for b in data)
        names = tuple(b["name"] for b in data)
        for name in names:
            if not isinstance(name, str):
                raise InputError(f"block name must be a string, not {type(name).__name__}")
            if not name:
                raise InputError("block name must not be empty")
        dup = next((n for i, n in enumerate(names) if n in names[:i]), None)
        if dup is not None:
            raise InputError(f"duplicate block name {dup!r}")
        colon = next((n for n in names if ":" in n), None)
        if colon is not None:
            raise InputError(f"block name {colon!r} contains ':', which ends the block "
                             "name of a substitution key")
        return VariableContext(sizes, names)


def parse_ideal_document(doc) -> MonomialIdeal:
    with _reading("ideal document"):
        _refuse_unread(doc, ("blocks", "generators"), "an ideal document")
        ctx = parse_blocks(doc["blocks"])
        return ideal(ctx, [_generator(g) for g in doc["generators"]])


def parse_instance_document(doc) -> GmpiInstance:
    with _reading("instance document"):
        _refuse_unread(doc, ("blocks", "inducing_ideal", "substitutions", "label"),
                       "an instance document")
        ctx = parse_blocks(doc["blocks"])
        raw_gens = [_generator(g) for g in doc["inducing_ideal"]]
        inducing = ideal(simple_context(ctx.nblocks, ctx.names), raw_gens)
        subs_doc = doc.get("substitutions", {})
        if not isinstance(subs_doc, dict):
            raise InputError("substitutions must be an object keyed by 'block:degree', "
                             f"not {type(subs_doc).__name__}")
        subs = {}
        for key, val in subs_doc.items():
            name, _, deg = key.partition(":")
            if name not in ctx.names:
                raise InputError(f"unknown block name in substitution key {key!r}")
            l = ctx.names.index(name)
            d = int(deg)
            if deg != str(d):
                raise InputError(f"substitution key {key!r}: write its degree as {str(d)!r}")
            block_ctx = VariableContext((ctx.sizes[l],), (ctx.names[l],))
            if isinstance(val, dict):
                subs[(l, d)] = family_ideal(val.get("family"), val, ctx.sizes[l], block_ctx)
            else:
                subs[(l, d)] = ideal(block_ctx, [_generator(g) for g in val])
        label = doc.get("label", "instance")
        if not isinstance(label, str):
            raise InputError(f"label must be a string, not {type(label).__name__}")
    return validate_family(inducing, SubstitutionFamily(ctx, subs), label=label)


BLOCK_FAMILY_TAGS = ("squarefree-veronese", "power-of-maximal", "lex-segment")

# the parameters each family reads; `gmpi family` also reads the number of
# variables of a block family as ``vars``, and a substitution object of a
# document names its family as ``family``
FAMILY_PARAMETERS = {
    "squarefree-veronese": ("degree",), "power-of-maximal": ("degree",),
    "veronese-type": ("caps", "t"), "lex-segment": ("degree", "count"),
    "path-ideal": ("parts", "t"), "mixed-product": ("sizes", "degs1", "degs2"), "random": ()}


def _refuse_unread(params, reads: tuple, what: str) -> None:
    """An InputError naming the first key of ``params`` that ``what`` does
    not read (one of ``reads``), or saying that ``params`` is no object."""
    if not isinstance(params, dict):
        raise InputError(f"{what} must be an object, not {type(params).__name__}")
    extra = next((key for key in params if key not in reads), None)
    if extra is not None:
        raise InputError(f"{what} reads no parameter {extra!r} (only {', '.join(reads)})")


def family_ideal(tag, params: dict, nvars: int, block_ctx: VariableContext | None) -> MonomialIdeal:
    """A block ideal in ``nvars`` variables from a family tag and its
    parameters: ``degree``, plus ``count`` for lex-segment, beside the
    ``family`` key of a document; any other key is refused.  Without a
    ``block_ctx`` the block is named x."""
    if tag not in BLOCK_FAMILY_TAGS:
        raise InputError(f"unknown substitution family {tag!r}; choose from {BLOCK_FAMILY_TAGS}")
    _refuse_unread(params, ("family",) + FAMILY_PARAMETERS[tag], f"substitution family {tag!r}")
    with _reading(f"{tag} parameters"):
        degree = _integer(params["degree"])
        if tag == "squarefree-veronese":
            return fam.squarefree_veronese(nvars, degree, block_ctx)
        if tag == "power-of-maximal":
            return fam.power_of_maximal(nvars, degree, block_ctx)
        return fam.lex_segment_stable(nvars, degree, _integer(params["count"]), block_ctx)


def instance_to_document(inst: GmpiInstance) -> dict:
    return {
        "blocks": [
            {"name": n, "size": s} for n, s in zip(inst.T.names, inst.T.sizes)],
        "inducing_ideal": [list(g) for g in inst.inducing.gens],
        "substitutions": {
            f"{inst.T.names[l]}:{d}": [list(g) for g in idl.gens]
            for (l, d), idl in sorted(inst.family.ideals.items())},
        "label": inst.label,
    }


def ideal_to_document(I: MonomialIdeal) -> dict:
    return {
        "blocks": [{"name": n, "size": s} for n, s in zip(I.ctx.names, I.ctx.sizes)],
        "generators": [list(g) for g in I.gens],
    }


def _object(pairs) -> dict:
    """A JSON object of a document; a repeated key, of which json would keep
    the last value, is refused."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object)
    except (OSError, ValueError) as e:
        raise InputError(f"cannot read {path}: {e}")


def _check_writable(out: str) -> None:
    """Refuse an --out path that cannot be written, before any work: an
    existing file is opened for appending, which leaves it as it is, and a
    new one is created and removed again."""
    try:
        if os.path.exists(out):
            open(out, "a", encoding="utf-8").close()
        else:
            open(out, "x", encoding="utf-8").close()
            os.remove(out)
    except OSError as e:
        raise InputError(f"cannot write {out}: {e}")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as e:
            raise InputError(f"cannot write {out}: {e}")
    else:
        # flushed here, so that a reader that closed the pipe early is
        # seen by main and not at interpreter exit
        print(text, flush=True)


def emit_json(obj, out: str | None) -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2)`` would, to the file
    ``out`` or to stdout; a BettiTable in it is written as its ``to_json``
    (``betti_json``)."""
    _emit(_json(obj, ""), out)


# the JSON text of a scalar, by its exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _json(v, ind: str) -> str:
    """``v`` as ``json.dumps(v, indent=2)`` writes it, where ``ind`` is the
    indent of the line it starts on.  A dict key that is not a str is a
    TypeError (from encode_basestring_ascii), where json.dumps would write
    an int, float, bool or None key as a string; a scalar of no JSON type
    is written by json.dumps alone."""
    scalar = _SCALARS.get(type(v))
    if scalar is not None:
        return scalar(v)
    if type(v) is BettiTable:
        return betti_json(v, ind)
    inner = ind + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        body = f",\n{inner}".join([f"{encode_basestring_ascii(key)}: {_json(x, inner)}"
                                    for key, x in v.items()])
        return f"{{\n{inner}{body}\n{ind}}}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        body = f",\n{inner}".join([_json(x, inner) for x in v])
        return f"[\n{inner}{body}\n{ind}]"
    return json.dumps(v)


def betti_json(table: BettiTable, ind: str) -> str:
    """``_json(table.to_json(), ind)``, written straight from the sorted
    entries with one %d template per row shape: [k, j, v] and
    [k, [b_1, .., b_n], v]."""
    i1, i2, i3 = ind + "  ", ind + "    ", ind + "      "
    rows = f",\n{i2}"
    entry = f"[\n{i3}%d,\n{i3}%d,\n{i3}%d\n{i2}]"

    @functools.cache
    def multi(n: int) -> str:
        b = f"[\n{i3}  " + f",\n{i3}  ".join(["%d"] * n) + f"\n{i3}]" if n else "[]"
        return f"[\n{i3}%d,\n{i3}{b},\n{i3}%d\n{i2}]"

    def rows_json(lines: list[str]) -> str:
        return f"[\n{i2}{rows.join(lines)}\n{i1}]" if lines else "[]"

    entries = rows_json([entry % (k, j, v) for (k, j), v in sorted(table.entries.items())])
    multigraded = rows_json([multi(len(b)) % (k, *b, v)
                             for (k, b), v in sorted(table.multi.items())])
    return f'{{\n{i1}"entries": {entries},\n{i1}"multigraded": {multigraded}\n{ind}}}'


# ---------------------------------------------------------------------------
# subcommands

def cmd_resolve(args) -> int:
    doc = _load(args.path)
    I = parse_ideal_document(doc)
    if I.is_zero or I.is_unit:
        raise InputError("resolve needs a nonzero proper ideal")
    res = quotient_resolution(I, cap=1 << args.max_taylor)
    table = betti_table(res)
    d = I.generated_in_degree()
    reg, pd = regularity(table), projective_dimension(table)
    linear = d is not None and is_linear_resolution(table, d)
    if args.json:
        emit_json({
            "generators": [I.ctx.monomial_str(g) for g in I.gens],
            "betti": table,
            "regularity": reg,
            "projective_dimension_quotient": pd,
            "linear": linear,
        }, args.out)
    else:
        lines = [
            f"ideal: {I}",
            "betti table (rows j-k, cols k):",
            table.triangle(),
            f"regularity(ideal) = {reg}",
            f"projdim(quotient) = {pd}",
            f"linear resolution: {linear}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_gmpi(args) -> int:
    doc = _load(args.path)
    inst = parse_instance_document(doc)
    factors = build_factors(inst)
    # the checks scan the assembled total complex
    tot = total_complex(factors) if args.check else None
    table = resolution_table(factors, tot)
    reg_l = regularity(table)
    pd_l = projective_dimension(table)
    results = ver.run_instance_checks(tot, table, oracle_cap=args.max_taylor) if args.check else []
    if args.json:
        payload = {
            "label": inst.label,
            "induced_generators": [inst.T.monomial_str(g) for g in inst.induced.gens],
            "betti": table,
            "regularity": reg_l,
            "projective_dimension_quotient": pd_l,
            "hypothesis_linear": factors.hypothesis_linear,
        }
        if not factors.exactness_verified:
            payload["certified"] = False
        if args.check:
            payload["checks"] = [r.to_json() for r in results]
        emit_json(payload, args.out)
    else:
        lines = [
            f"instance: {inst.label}",
            f"L = {inst.induced}",
            f"|G(L)| = {len(inst.induced.gens)}",
            "betti table of T/L (rows j-k, cols k):",
            table.triangle(),
            f"reg L = {reg_l}",
            f"projdim(T/L) = {pd_l}",
            f"all substitutions linear: {factors.hypothesis_linear}",
        ]
        if not factors.exactness_verified:
            lines.append("certified: False (a star or block degree grid exceeds its scan cap)")
        lines += [r.line() for r in results]
        _emit("\n".join(lines), args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_family(args) -> int:
    tag = args.tag
    if tag not in FAMILY_PARAMETERS:
        raise InputError(f"unknown family tag {tag!r}; choose from {tuple(FAMILY_PARAMETERS)}")
    with _reading("family parameters"):
        params = dict(kv.split("=", 1) for kv in args.param)
        reads = (("vars",) if tag in BLOCK_FAMILY_TAGS else ()) + FAMILY_PARAMETERS[tag]
        _refuse_unread(params, reads, f"family {tag!r}")
        if args.seed is not None and tag != "random":
            raise InputError(f"family {tag!r} reads no --seed; only family 'random' does")
        if tag in BLOCK_FAMILY_TAGS:
            # family_ideal reads document numbers, which are never strings
            numbers = {k: _decimal(v) for k, v in params.items() if k != "vars"}
            out = ideal_to_document(family_ideal(tag, numbers, _decimal(params["vars"]), None))
        elif tag == "veronese-type":
            caps = tuple(map(_decimal, params["caps"].split(",")))
            out = ideal_to_document(fam.veronese_type(len(caps), _decimal(params["t"]), caps))
        elif tag == "path-ideal":
            parts = tuple(map(_decimal, params["parts"].split(",")))
            out = ideal_to_document(
                fam.path_ideal_complete_multipartite(parts, _decimal(params["t"])))
        elif tag == "mixed-product":
            sizes = tuple(map(_decimal, params["sizes"].split(",")))
            d1 = tuple(map(_decimal, params["degs1"].split(",")))
            d2 = tuple(map(_decimal, params["degs2"].split(",")))
            out = instance_to_document(fam.mixed_product_instance(sizes, d1, d2))
        else:
            out = instance_to_document(fam.random_instance(args.seed or 0))
    emit_json(out, args.out)
    return 0


def cmd_verify(args) -> int:
    seeds = ver.SUITE_SEEDS if args.seed is None else [args.seed]
    results = ver.run_suite(seeds=seeds)
    if args.json:
        emit_json([r.to_json() for r in results], args.out)
    else:
        _emit("\n".join(ver.summary_lines(results)), args.out)
    return 0 if all(r.passed for r in results) else 1


def _taylor_exponent(text: str) -> int:
    """N of --max-taylor, from 0 to 40: the cap 2^N is built as an int
    before any work."""
    n = _decimal(text)
    if not 0 <= n <= 40:
        raise argparse.ArgumentTypeError(f"{n} is not between 0 and 40")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a
    fresh Namespace on every call."""
    ap = argparse.ArgumentParser(prog="gmpi", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", help="resolve a standalone monomial ideal")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-taylor", type=_taylor_exponent, default=TAYLOR_CAP, metavar="N",
                   help="cap the Lyubeznik complex at 2^N basis elements, the size "
                        "of the Taylor complex on N generators (0 to 40, default %(default)s)")
    p.add_argument("--out")

    p = sub.add_parser("gmpi", help="build an induced ideal and its resolution")
    p.add_argument("path")
    p.add_argument("--check", action="store_true", help="run the full check suite")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-taylor", type=_taylor_exponent, default=TAYLOR_CAP, metavar="N",
                   help="cap the Lyubeznik complexes of L that --check builds at 2^N "
                        "basis elements, the size of the Taylor complex on N "
                        "generators (0 to 40, default %(default)s)")
    p.add_argument("--out")

    p = sub.add_parser("family", help="emit a family ideal or instance document")
    p.add_argument("tag")
    p.add_argument("param", nargs="*", help="key=value parameters")
    p.add_argument("--seed", type=_decimal, help="the seed of family random (default 0)")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the pinned acceptance suite")
    p.add_argument("--seed", type=_decimal, default=None, help="run a single seed instead")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on each call, not stored in the cached parser, so that a
    # replaced module attribute (a wrapper, a test double) is the one called
    command = {"resolve": cmd_resolve, "gmpi": cmd_gmpi, "family": cmd_family,
               "verify": cmd_verify}[args.command]
    try:
        if args.out:
            _check_writable(args.out)
        return command(args)
    except (InputError, SizeCapError, FamilyValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (``gmpi gmpi doc --json | head``):
        # stop quietly, with stdout on devnull so that the flush at exit
        # does not fail again (the recipe of the Python docs on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
