"""gmpi benchmark: the three CLI paths as named workloads.

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, nothing is installed.

  python3 perfbench/run.py --workload gmpi-construct --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all            # the five end-to-end metrics of every workload
  python3 perfbench/run.py --make-references         # rebuild references.json (slow: oracle cross-checks)
  python3 perfbench/run.py --sweep                   # largest rung each path finishes (not gated)

One process, one operation at a time.  Each operation calls
``gmpi.cli.main(argv)`` with stdout and stderr captured, and its output is
checked against ``references.json``.  ``--trace 0`` runs the operations
round-robin for ``--seconds`` and reports the end-to-end metrics: set-up time
(median of fresh interpreters), wall and CPU time of one pass (per-operation
medians, summed) and peak resident memory.  Times are reported at reference
speed (see calibrate.py); the measured times are printed beside them.
``--trace 1`` makes one untraced pass, then traced passes (see tracer.py) for
the rest of the time, and reports per-layer metrics per traced pass, in
measured seconds (the tracing overhead at reference speed).  The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_REPEATS = 31
MIN_TRACE_COVERAGE = 0.9
SWEEP_BUDGET_S = 30  # seconds per sweep rung

sys.path.insert(0, HERE)
import calibrate as cal  # noqa: E402
import workloads as wl  # noqa: E402


class BenchError(RuntimeError):
    pass


def import_gmpi():
    """Import gmpi from this checkout's src/, never from an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "gmpi")):
        raise BenchError(f"no gmpi sources under {SRC}")
    sys.path.insert(0, SRC)
    import gmpi
    import gmpi.cli  # noqa: F401  (loads every module the tracer wraps)
    if os.path.dirname(os.path.dirname(os.path.abspath(gmpi.__file__))) != SRC:
        raise BenchError(f"gmpi imported from {gmpi.__file__}, not from {SRC}")
    return gmpi


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running and checking one operation

def execute(gmpi, op: wl.Operation, probe: cal.Probe | None = None):
    """Run one CLI call; returns (exit code, stdout, stderr, wall s, cpu s).
    The time of calibration probes taken meanwhile is not counted."""
    out, err = io.StringIO(), io.StringIO()
    saved = gmpi.verify.SUITE_SEEDS
    if op.suite_seeds is not None:
        gmpi.verify.SUITE_SEEDS = op.suite_seeds
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                probe or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = gmpi.cli.main(op.argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # a traceback is an outcome to report, not to crash on
                rc = 1
                traceback.print_exc()
            t1, c1 = time.perf_counter(), time.process_time()
    finally:
        gmpi.verify.SUITE_SEEDS = saved
    probe_wall, probe_cpu = probe.inside(t0, t1) if probe else (0.0, 0.0)
    return rc, out.getvalue(), err.getvalue(), t1 - t0 - probe_wall, c1 - c0 - probe_cpu


def unpermute(multigraded, origin):
    """Multidegrees of a relabelled document mapped back to the original order."""
    out = []
    for k, b, v in multigraded:
        orig = [0] * len(b)
        for new, old in enumerate(origin):
            orig[old] = b[new]
        out.append([k, orig, v])
    return sorted(out)


def check_construction(payload: dict, ref: dict, origin) -> str | None:
    for key in ("label", "regularity", "projective_dimension_quotient", "hypothesis_linear"):
        if payload.get(key) != ref[key]:
            return f"{key} {payload.get(key)!r} != reference {ref[key]!r}"
    if len(payload["induced_generators"]) != ref["induced_generators"]:
        return f"|G(L)| {len(payload['induced_generators'])} != {ref['induced_generators']}"
    if payload["betti"]["entries"] != ref["betti"]["entries"]:
        return "graded Betti table differs from reference"
    if unpermute(payload["betti"]["multigraded"], origin) != ref["betti"]["multigraded"]:
        return "multigraded Betti table differs from reference"
    return None


def check_output(op: wl.Operation, rc: int, out: str, err: str, refs: dict) -> tuple[str, int]:
    """Returns (outcome, checks run); outcome is "ok", "known-defect" or a mismatch."""
    if op.kind == "check":
        defect = refs["known_defects"].get(op.name)
        if defect and rc == defect["exit"] and defect["stderr"] in err:
            return "known-defect", 0
    if rc != 0:
        return f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}", 0
    try:
        return check_payload(op, json.loads(out), refs)
    except json.JSONDecodeError as e:
        return f"output is not JSON: {e}", 0
    except (KeyError, TypeError, IndexError) as e:
        return f"output lacks {e!r}", 0


def check_payload(op: wl.Operation, payload, refs: dict) -> tuple[str, int]:
    if op.kind == "suite":
        failed = [f"{r['label']}:{r['name']}" for r in payload if not r["passed"]]
        if failed:
            return f"checks failed: {failed[:3]}", len(payload)
        if len(payload) != refs["suite"]["checks"]:
            return f"{len(payload)} checks, reference {refs['suite']['checks']}", len(payload)
        labels = {r["label"] for r in payload}
        missing = {f"seed{s}" for s in op.suite_seeds} - labels
        if missing:
            return f"no results for {sorted(missing)}", len(payload)
        return "ok", len(payload)
    bad = check_construction(payload, refs["construct"][op.name], op.origin)
    if bad:
        return bad, len(payload.get("checks", []))
    if op.kind == "check":
        checks = payload["checks"]
        failed = [r["name"] for r in checks if not r["passed"]]
        if failed:
            return f"checks failed: {failed}", len(checks)
        # no count is pinned for an operation whose reference is a known defect
        expected = refs["check"].get(op.name, {}).get("checks", len(checks))
        if len(checks) != expected:
            return f"{len(checks)} checks, reference {expected}", len(checks)
        return "ok", len(checks)
    return "ok", 0


class Tally:
    """Outcomes over all operations run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.checks = 0
        self.mismatches: list[str] = []

    def add(self, op, outcome: str, checks: int) -> None:
        self.attempted += 1
        self.checks += checks
        if outcome == "known-defect":
            self.known_defects += 1
        elif outcome != "ok":
            self.failed += 1
            self.mismatches.append(f"{op.name}: {outcome}")


def run_op(gmpi, op, refs, tally: Tally, probe: cal.Probe):
    rc, out, err, wall, cpu = execute(gmpi, op, probe)
    outcome, checks = check_output(op, rc, out, err, refs)
    tally.add(op, outcome, checks)
    return wall, cpu


# ---------------------------------------------------------------------------
# set-up

def setup_child(workload: str, seed: int) -> None:
    """The measured set-up (import gmpi, write the inputs), then the moment it
    was ready and kernel readings taken in this process, as one JSON line."""
    wl.prepare(import_gmpi(), workload, seed, os.path.join(WORKDIR, f"{workload}-{seed}"))
    ready = time.monotonic()
    cal.warm_up()
    print(json.dumps({"ready": ready, "readings": cal.readings()}))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Start a fresh interpreter that imports gmpi and writes the inputs, a
    few times; median seconds to ready at reference speed, and measured.

    The interval runs from the start of the child to the moment it reports
    ready (``time.monotonic`` is one clock for all processes on Linux).  The
    machine's speed is read before the child starts and by the child itself
    once ready: set-up is mostly interpreter start and imports, and the
    readings of the process and CPU that did that work track it best."""
    scaled, raw = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        probe = cal.Probe(cal.readings())
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        t1 = time.monotonic()
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if not t0 < child["ready"] < t1:
            raise BenchError("the set-up child's clock does not match this process's")
        raw.append(child["ready"] - t0)
        scaled.append(raw[-1] * probe.finish(child["readings"]))
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------------------
# the two modes

def timed_run(gmpi, ops, refs, seconds: float, tally: Tally) -> dict:
    """Round-robin over the operations for ``seconds``, calibrated before,
    during and after each (see calibrate.py).  Every operation runs once;
    after that an operation starts only if its fastest time so far still
    ends before the deadline.  Per-operation medians are summed to one pass."""
    samples = {op.name: [] for op in ops}  # (wall, cpu, speed)
    deadline = time.perf_counter() + seconds
    before = cal.readings()
    i = skipped = 0
    while skipped < len(ops):
        op = ops[i % len(ops)]
        i += 1
        fastest = min((s[0] for s in samples[op.name]), default=0.0)
        if samples[op.name] and time.perf_counter() + fastest > deadline:
            skipped += 1
            continue
        skipped = 0
        probe = cal.Probe(before)
        wall, cpu = run_op(gmpi, op, refs, tally, probe)
        before = cal.readings()
        samples[op.name].append((wall, cpu, probe.finish(before)))

    def pass_median(f):
        return sum(statistics.median(f(s) for s in v) for v in samples.values())

    return {
        "wall_s": pass_median(lambda s: s[0] * s[2]),
        "cpu_s": pass_median(lambda s: s[1] * s[2]),
        "measured_wall_s": pass_median(lambda s: s[0]),
        "measured_cpu_s": pass_median(lambda s: s[1]),
        "speed": statistics.median(s[2] for v in samples.values() for s in v),
        "samples": {k: len(v) for k, v in samples.items()},
    }


def run_pass(gmpi, ops, refs, tally: Tally, tracer=None) -> tuple[float, float]:
    """One pass over the operations, calibrated as in timed_run: (measured
    seconds, seconds at reference speed).  The probes' time is kept out of
    the tracer's figures."""
    measured = scaled = 0.0
    before = cal.readings()
    for op in ops:
        probe = cal.Probe(before, tracer.pause if tracer else None)
        wall, _ = run_op(gmpi, op, refs, tally, probe)
        before = cal.readings()
        measured += wall
        scaled += wall * probe.finish(before)
    return measured, scaled


def traced_run(gmpi, ops, refs, seconds: float, tally: Tally):
    """One untraced pass, then traced passes until ``seconds`` are up."""
    from tracer import Tracer
    deadline = time.perf_counter() + seconds
    untraced = run_pass(gmpi, ops, refs, tally)
    tracer = Tracer(gmpi)
    tracer.install()
    try:
        traced = []
        while not traced or time.perf_counter() < deadline:
            traced.append(run_pass(gmpi, ops, refs, tally, tracer))
    finally:
        tracer.uninstall()
    return tracer, untraced, traced


# ideal arithmetic: construction, minimal generators, sum, product, intersection
IDEAL_OPS = (
    "monomials.ideal", "monomials.minimalize", "monomials.intersect_many",
    "monomials.embed_ideal", "monomials.MonomialIdeal.__add__",
    "monomials.MonomialIdeal.__mul__", "monomials.MonomialIdeal.intersect",
    "monomials.MonomialIdeal.contains",
)


def is_entry_point(name: str) -> bool:
    """The CLI functions every traced operation runs inside."""
    return name == "cli.main" or name.startswith("cli.cmd_")


def self_coverage(tracer, traced_wall: float) -> float:
    """Share of the traced time booked as self time of functions below the
    CLI entry points.  Time the other wrappers miss lands in the entry
    points' self time, so that does not count as covered; nor does the
    hooks' own time, which is taken out of the traced time as well."""
    hooks = tracer.stat("trace.hooks").self_s
    below = sum(s.self_s for n, s in tracer.stats.items()
                if n != "trace.hooks" and not is_entry_point(n))
    return below / (traced_wall - hooks)


def layer_metrics(tracer, ops, untraced, traced) -> dict:
    """Per-layer metrics per traced pass (see BENCHMARK.json per_layer).
    ``untraced`` and each of ``traced`` are (measured s, reference s)."""
    passes = len(traced)
    st = tracer.stat
    c = tracer.counters.get

    def per_pass(x):
        return x / passes

    def calls(*names):
        return per_pass(sum(st(n).calls for n in names))

    def self_s(*names):
        return per_pass(sum(st(n).self_s for n in names))

    def total_s(*names):
        return per_pass(sum(st(n).total_s for n in names))

    scan_cells = c("complexes.exactness_check.cells", 0)
    attempts = c("families.random_instance.attempts", 0)
    wall = statistics.mean(m for m, _ in traced)
    return {
        "linalg.rank.calls": calls("linalg.rank"),
        "linalg.rank.self_s": self_s("linalg.rank"),
        "linalg.rank.cells": per_pass(c("linalg.rank.cells", 0)),
        "complexes.exactness_check.calls": calls("complexes.exactness_check"),
        "complexes.exactness_check.total_s": total_s("complexes.exactness_check"),
        "complexes.exactness_check.cells": per_pass(scan_cells),
        "complexes.exactness_check.rank_calls_per_cell":
            c("complexes.exactness_check.rank_calls", 0) / scan_cells if scan_cells else 0.0,
        "complexes.compose.calls": calls("complexes.MonomialMatrix.compose"),
        "complexes.compose.self_s": self_s("complexes.MonomialMatrix.compose"),
        "complexes.validate.total_s": total_s("complexes.FreeComplex.validate",
                                              "complexes.ChainMap.validate"),
        "complexes.taylor_complex.calls": calls("complexes.taylor_complex"),
        "complexes.taylor_complex.basis": per_pass(c("complexes.taylor_complex.basis", 0)),
        "complexes.taylor_complex.self_s": self_s("complexes.taylor_complex"),
        "complexes.minimalize_complex.calls": calls("complexes.minimalize_complex"),
        "complexes.minimalize_complex.self_s": self_s("complexes.minimalize_complex"),
        "complexes.minimalize_complex.cancelled":
            per_pass(c("complexes.minimalize_complex.cancelled", 0)),
        "complexes.tensor.self_s": self_s("complexes.tensor_resolutions",
                                          "complexes.tensor_chain_map"),
        "complexes.lift_chain_map.self_s": self_s("complexes.lift_chain_map"),
        "verify.oracle_betti.calls": calls("verify.oracle_betti"),
        "verify.koszul_betti.calls": calls("verify.koszul_betti"),
        "verify.check_engine_self.calls": calls("verify.check_engine_self"),
        "verify.structure_checks.calls": calls("verify.structure_checks"),
        "verify.lcm_lattice.size": per_pass(c("verify.lcm_lattice.size", 0)),
        "verify.taylor_of_L.per_op": per_pass(c("verify.taylor_of_L", 0)) / len(ops),
        "builder.build_double_complex.calls_per_op": calls("builder.build_double_complex") / len(ops),
        "builder.total_complex.calls_per_op": calls("builder.total_complex") / len(ops),
        "builder.build_double_complex.self_s": self_s("builder.build_double_complex"),
        "builder.total_complex.self_s": self_s("builder.total_complex"),
        "builder.total_complex.basis": per_pass(c("builder.total_complex.basis", 0)),
        "builder.total_complex.scan_skipped": per_pass(c("builder.total_complex.scan_skipped", 0)),
        "builder.validate_family.total_s": total_s("builder.validate_family"),
        "builder.build_star_complex.total_s": total_s("builder.build_star_complex"),
        "builder.block_resolutions.total_s": total_s("builder.block_resolutions"),
        "builder.rho_maps.total_s": total_s("builder.rho_maps"),
        "builder.star_acyclicity.calls": calls("builder.star_acyclicity"),
        "monomials.ideal_ops.calls": calls(*IDEAL_OPS),
        "monomials.ideal_ops.self_s": self_s(*IDEAL_OPS),
        "monomials.member.calls": calls("monomials.MonomialIdeal.member"),
        "monomials.member.self_s": self_s("monomials.MonomialIdeal.member"),
        "families.random_instance.calls": calls("families.random_instance"),
        "families.random_instance.attempts": per_pass(attempts),
        "families.random_instance.yield":
            st("families.random_instance").calls / attempts if attempts else 0.0,
        "cli.parse_instance_document.calls": calls("cli.parse_instance_document"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.wall_s": wall,
        "trace.overhead_s": statistics.median(r for _, r in traced) - untraced[1],
        "trace.self_coverage": self_coverage(tracer, sum(m for m, _ in traced)),
    }


# ---------------------------------------------------------------------------
# reports

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def trace_report(tracer, traced, path: str) -> list[str]:
    """Every wrapped function's calls, total and self time per traced pass,
    written to ``path``; the top ten by self time as report lines."""
    passes, wall = len(traced), statistics.mean(m for m, _ in traced)
    rows = sorted(((n, s.calls / passes, s.total_s / passes, s.self_s / passes)
                   for n, s in tracer.stats.items()), key=lambda r: -r[3])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "wall_s": wall,
                   "functions": {n: {"calls": c, "total_s": t, "self_s": s}
                                 for n, c, t, s in rows},
                   "counters": {k: v / passes for k, v in tracer.counters.items()}},
                  fh, indent=1)
    lines = [f"  {'function':48s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} share"]
    lines += [f"  {n:48s} {c:9.0f} {t:9.3f} {s:9.3f} {s / wall:5.1%}" for n, c, t, s in rows[:10]]
    lines.append(f"  full table: {os.path.relpath(path, ROOT)}")
    return lines


def bench(args) -> int:
    gmpi = import_gmpi()
    refs = load_references()
    spec = load_spec()
    workdir = os.path.join(WORKDIR, f"{args.workload}-{args.seed}")
    ops = wl.prepare(gmpi, args.workload, args.seed, workdir)
    tally = Tally()
    cal.warm_up()
    lines = [f"workload {args.workload} seed {args.seed}: "
             f"{len(ops)} operation(s), {args.seconds} s, trace {args.trace}"]
    ok = True
    if args.trace:
        tracer, untraced, traced = traced_run(gmpi, ops, refs, args.seconds, tally)
        values = layer_metrics(tracer, ops, untraced, traced)
        specs = spec["per_layer"]
        lines += trace_report(tracer, traced, os.path.join(workdir, "trace.json"))
        lines.append(f"  untraced pass {untraced[0]:.3f} s, traced passes {len(traced)}, "
                     f"overhead {values['trace.overhead_s']:+.3f} s at reference speed; "
                     f"self times below the CLI entry points cover "
                     f"{values['trace.self_coverage']:.1%}")
        if values["trace.self_coverage"] < MIN_TRACE_COVERAGE:
            ok = False
            lines.append(f"  self times cover only {values['trace.self_coverage']:.1%} "
                         f"of the traced passes (need {MIN_TRACE_COVERAGE:.0%})")
    else:
        setup_s, setup_measured = measure_setup(args.workload, args.seed)
        r = timed_run(gmpi, ops, refs, args.seconds, tally)
        values = {
            "setup_s": setup_s,
            "wall_s": r["wall_s"],
            "cpu_s": r["cpu_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = spec["end_to_end"]
        lines.append(f"  samples per operation: {r['samples']}")
        lines.append(f"  measured: setup {setup_measured:.4f} s, wall {r['measured_wall_s']:.4f} s, "
                     f"cpu {r['measured_cpu_s']:.4f} s; machine speed {r['speed']:.3f} x reference")
    for s in specs:
        lines.append(f"  {s['name']:48s} {values[s['name']]:.6g} {s['unit']}")
    lines.append(f"  failed_frac {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / tally.attempted:.3f}; known_defect_frac "
                 f"{tally.known_defects}/{tally.attempted} = "
                 f"{tally.known_defects / tally.attempted:.3f}; checks run {tally.checks}")
    for m in tally.mismatches[:10]:
        lines.append(f"  MISMATCH {m}")
    print("\n".join(lines))
    correct = ok and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }))
    return 0 if correct else 1


def bench_all(args) -> int:
    """Each workload in its own process; one table of the end-to-end metrics."""
    names = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
    units = {s["name"]: s["unit"] for s in load_spec()["end_to_end"]}
    print(f"{'workload':16s}" + "".join(f"{n + ' [' + units[n] + ']':>18s}" for n in names)
          + f"{'failed_frac [1]':>18s}")
    status = 0
    for w in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{w:16s} no result (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        row = "".join(f"{res['metrics'][n]['value']:18.4f}" for n in names)
        print(f"{w:16s}{row}{res['failed'] / res['attempted']:18.3f}")
        for line in proc.stdout.splitlines():
            if line.startswith(("  failed_frac", "  MISMATCH")):
                print(f"  {line.strip()}")
        if proc.returncode != 0 or not res["correct"]:
            status = 1
    return status


# ---------------------------------------------------------------------------
# references and the size sweep

def make_references() -> int:
    """Recompute references.json from seed-0 inputs.  Every construction table
    is cross-checked against the lcm-lattice oracle (minutes, not timed)."""
    gmpi = import_gmpi()
    workdir = os.path.join(WORKDIR, "references")
    os.makedirs(workdir, exist_ok=True)
    refs = {"construct": {}, "check": {}, "known_defects": {}, "suite": {}}
    for name, make in wl.DOCUMENTS.items():
        doc = make(gmpi)
        path = wl.document_path(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        rc, out, err, wall, _ = execute(gmpi, wl.Operation(name, ["gmpi", path, "--json"], "construct"))
        if rc != 0:
            raise BenchError(f"{name}: exit {rc}: {err}")
        payload = json.loads(out)
        t0 = time.perf_counter()
        inst = gmpi.cli.parse_instance_document(doc)
        oracle = gmpi.verify.koszul_betti(inst.induced).to_json()
        if oracle != payload["betti"]:
            raise BenchError(f"{name}: construction and lcm-lattice oracle disagree")
        print(f"{name}: |G(L)| {len(payload['induced_generators'])}, built in {wall:.2f} s, "
              f"oracle agrees ({time.perf_counter() - t0:.2f} s)")
        refs["construct"][name] = {
            "label": payload["label"],
            "induced_generators": len(payload["induced_generators"]),
            "betti": payload["betti"],
            "regularity": payload["regularity"],
            "projective_dimension_quotient": payload["projective_dimension_quotient"],
            "hypothesis_linear": payload["hypothesis_linear"],
        }
    for name in ("demo", "mixed33_21"):
        path = wl.document_path(workdir, name)
        rc, out, err, _, _ = execute(gmpi, wl.Operation(name, ["gmpi", path, "--check", "--json"], "check"))
        if rc == 2 and "exceed the Taylor cap" in err:
            message = err.strip().removeprefix("error: ")
            refs["known_defects"][name] = {"exit": rc, "stderr": message}
            print(f"{name} --check: known defect, exit {rc}: {message}")
            continue
        checks = json.loads(out)["checks"]
        if rc != 0 or not all(r["passed"] for r in checks):
            raise BenchError(f"{name} --check: exit {rc}")
        refs["check"][name] = {"checks": len(checks)}
        print(f"{name} --check: {len(checks)} checks pass")
    rc, out, err, _, _ = execute(gmpi, wl.Operation("suite", ["verify", "--json"], "suite"))
    results = json.loads(out)
    if rc != 0 or not all(r["passed"] for r in results):
        raise BenchError(f"verify: exit {rc}")
    refs["suite"] = {"checks": len(results)}
    print(f"verify: {len(results)} checks pass")
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


def sweep_ladders(gmpi) -> dict[str, list[tuple[str, dict]]]:
    mixed = [(f"sizes={k},{k}", wl.mixed_document(gmpi, (k, k), (2, 1), (1, 2)))
             for k in range(2, 7)]
    power = []
    for m in range(1, 6):
        doc = {
            "blocks": [{"name": "x", "size": m}, {"name": "y", "size": m}],
            "inducing_ideal": [[2, 1], [1, 2]],
            "substitutions": {f"{b}:{d}": {"family": "power-of-maximal", "degree": d}
                              for b in "xy" for d in (1, 2)},
            "label": f"power{m}",
        }
        power.append((f"block size {m}", doc))
    return {"mixed-product degs1=2,1 degs2=1,2": mixed,
            "power-of-maximal on x^2y, xy^2": power}


def sweep() -> int:
    """Largest rung of each ladder that each path finishes within
    SWEEP_BUDGET_S.  Each rung is one `python -m gmpi.cli` process, killed at
    the budget; a ladder stops at its first rung that times out or exits
    nonzero, and the report says which."""
    gmpi = import_gmpi()
    workdir = os.path.join(WORKDIR, "sweep")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    report = {"budget_s": SWEEP_BUDGET_S, "ladders": {}}
    for ladder, rungs in sweep_ladders(gmpi).items():
        for path_name, extra in (("gmpi", []), ("gmpi --check", ["--check"])):
            largest, runs = None, []
            for rung, doc in rungs:
                path = os.path.join(workdir, f"{doc['label']}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                cmd = [sys.executable, "-m", "gmpi.cli", "gmpi", path, "--json", *extra]
                t0 = time.perf_counter()
                try:
                    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                          text=True, timeout=SWEEP_BUDGET_S)
                    status = f"exit {proc.returncode}"
                    if proc.returncode and proc.stderr.strip():
                        status += f" ({proc.stderr.strip().splitlines()[-1]})"
                except subprocess.TimeoutExpired:
                    status = "timeout"
                dt = time.perf_counter() - t0
                runs.append({"rung": rung, "status": status, "seconds": round(dt, 3)})
                print(f"{ladder} | {path_name} | {rung}: {status} in {dt:.2f} s", flush=True)
                if status != "exit 0":
                    break
                largest = rung
            last = runs[-1]
            stop = ("every rung finished" if last["status"] == "exit 0"
                    else f"stopped at {last['rung']}: {last['status']}")
            report["ladders"][f"{ladder} | {path_name}"] = {
                "largest": largest, "stop": stop, "runs": runs}
    with open(os.path.join(workdir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for key, val in report["ladders"].items():
        print(f"largest within {SWEEP_BUDGET_S} s: {key}: {val['largest']} ({val['stop']})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--make-references", action="store_true")
    ap.add_argument("--sweep", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.make_references:
            return make_references()
        if args.sweep:
            return sweep()
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_only:
            setup_child(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return bench_all(args)
        return bench(args)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
