"""Outside-in call tracing of the gmpi package.

``Tracer.install()`` replaces the public functions and methods of the gmpi
modules with timing wrappers, in every gmpi module namespace that holds them
(``from .complexes import taylor_complex`` makes a second reference that a
plain ``setattr`` on ``complexes`` would miss).  ``uninstall()`` puts the
originals back.  No source file of the package changes.

Per wrapped function the tracer keeps calls, total time (outermost calls
only, so recursion is not counted twice) and self time (duration minus the
time spent in wrapped callees).  Time handed to ``pause()`` (the benchmark's
calibration probes, which run inside traced calls) is left out of both.
Size counters are taken by small hooks that run outside the timed interval;
their cost is booked as ``trace.hooks`` so self times still add up to the
traced interval.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

MODULES = ("monomials", "linalg", "complexes", "builder", "families", "verify", "cli")

# Leaf helpers called millions of times per operation; a wrapper would cost
# more than their body, so their time stays in their callers' self time.
SKIP = {
    "monomials.divides", "monomials.lcm", "monomials.mul", "monomials.total_degree",
    "monomials.block_degree", "monomials.canonical_sort",
    # rank's only callee: its elimination time is rank's self time
    "linalg.row_echelon",
    "monomials.VariableContext.var_name", "monomials.VariableContext.block_span",
    "complexes.MonomialMatrix.monomial_factor", "complexes.MonomialMatrix.column",
}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0


class Tracer:
    def __init__(self, package):
        self.modules = {m: getattr(package, m) for m in MODULES}
        self._namespaces = [package, *self.modules.values()]
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per open call: [child seconds]
        self._paused = 0.0
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._hooks = {
            "linalg.rank": self._on_rank,
            "complexes.exactness_check": self._on_exactness_check,
            "complexes.taylor_complex": self._on_taylor,
            "complexes.minimalize_complex": self._on_minimalize,
            "builder.total_complex": self._on_total_complex,
            "verify.lcm_lattice": self._on_lcm_lattice,
            "monomials.monomials_of_degree": self._on_monomials_of_degree,
        }

    # -- bookkeeping ------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def pause(self, seconds: float) -> None:
        """Leave ``seconds`` just spent inside the open calls out of them."""
        self._paused += seconds

    # -- installation -----------------------------------------------------

    def targets(self) -> dict[str, tuple[object, str, object]]:
        """name -> (owner, attribute, original) for every function to wrap."""
        out = {}
        for mname, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out[f"{mname}.{attr}"] = (mod, attr, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in vars(obj).items():
                        public = not mattr.startswith("_") or mattr in ("__add__", "__mul__")
                        if public and inspect.isfunction(meth):
                            out[f"{mname}.{attr}.{mattr}"] = (obj, mattr, meth)
        return {k: v for k, v in out.items() if k not in SKIP}

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, (owner, attr, fn) in self.targets().items():
            w = self._wrap(name, fn)
            wrappers[id(fn)] = w
            self._originals[name] = fn
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, w)
        # second references: names imported from one gmpi module into another,
        # and the package's re-exports
        for mod in self._namespaces:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and getattr(mod, attr) is not w:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        hook = self._hooks.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat()
            st.calls += 1
            frame = [0.0]
            stack.append(frame)
            outer = st.active == 0
            st.active += 1
            t0, p0 = perf(), self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0 - (self._paused - p0)
                st.active -= 1
                stack.pop()
                st.self_s += dt - frame[0]
                if outer:
                    st.total_s += dt
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                h0 = perf()
                hook(args, kwargs, result)
                dh = perf() - h0
                hs = self.stats.setdefault("trace.hooks", Stat())
                hs.calls += 1
                hs.self_s += dh
                hs.total_s += dh
                if stack:
                    stack[-1][0] += dh
            return result

        return wrapper

    # -- size counters ----------------------------------------------------

    def _on_rank(self, args, kwargs, result):
        rows = args[0]
        self.count("linalg.rank.cells", len(rows) * (len(rows[0]) if rows else 0))
        if self.stat("complexes.exactness_check").active:
            self.count("complexes.exactness_check.rank_calls")

    def _on_exactness_check(self, args, kwargs, result):
        C, expect = args[0], args[1]
        axes = self._originals["complexes.degree_grid"](
            C.shifts + [list(expect.gens)], C.ctx.nvars)
        self.count("complexes.exactness_check.cells",
                   self._originals["complexes.grid_size"](axes))

    def _on_taylor(self, args, kwargs, result):
        self.count("complexes.taylor_complex.basis", sum(result.ranks))
        # the oracles resolve L itself (and permutations of it) from scratch
        if self.stat("verify.oracle_betti").active or self.stat("verify.check_engine_self").active:
            self.count("verify.taylor_of_L")

    def _on_minimalize(self, args, kwargs, result):
        self.count("complexes.minimalize_complex.cancelled",
                   (sum(args[0].ranks) - sum(result.ranks)) // 2)

    def _on_total_complex(self, args, kwargs, result):
        self.count("builder.total_complex.basis", sum(result.complex.ranks))
        verify_exactness = kwargs.get("verify_exactness", args[1] if len(args) > 1 else True)
        if verify_exactness and not result.exactness_verified:
            self.count("builder.total_complex.scan_skipped")

    def _on_lcm_lattice(self, args, kwargs, result):
        self.count("verify.lcm_lattice.size", len(result))

    def _on_monomials_of_degree(self, args, kwargs, result):
        # random_instance draws its candidate pool once per attempt, so the
        # calls it makes directly count its attempts
        caller = sys._getframe(2).f_code
        if caller is self._originals["families.random_instance"].__code__:
            self.count("families.random_instance.attempts")
