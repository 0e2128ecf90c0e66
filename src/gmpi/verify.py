"""Independent oracle and theorem-checking harness.

The Betti table of the induced ideal L is recomputed from scratch here and
compared against the construction.  Three oracles are tried in turn: the
linear-quotients oracle (Herzog-Takayama mapping cones, which answers where
L has linear quotients in its degree order), the Lyubeznik-resolution oracle,
which minimalizes the Lyubeznik complex of L (it shares ideal arithmetic,
rank and the resolution code with the builder, none of the total complex),
and the oracle of reduced simplicial homology of upper Koszul complexes over
the lcm lattice (used beyond the Lyubeznik cap and as a cross-check).  The
first and the last share no code with the construction.  Each structural
statement and theorem gets one PASS/FAIL check; a check computes its value
from what the builder made (never asserting) and compares it with the
theorem's prediction and the oracle.  A check whose oracle exceeds its size
cap reports SKIPPED, never PASS.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import and_, getitem

from . import linalg
from .builder import (
    BlockStore,
    Factors,
    GmpiInstance,
    TotalComplex,
    build_factors,
    build_star_complex,
    product_formula_witness,
    realization_witness,
    resolution_table,
    star_acyclicity,
    total_complex,
)
from .complexes import (
    BettiTable,
    SizeCapError,
    betti_table,
    euler_characteristics,
    exactness_check,
    inexact_positions,
    is_linear_resolution,
    projective_dimension,
    quotient_resolution,
    regularity,
    TAYLOR_CAP,
)
from .monomials import MonomialIdeal, _below_masks, lcm, total_degree


@dataclass
class CheckResult:
    name: str
    label: str
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.details.get("hypothesis_unmet"):
            return "HYPOTHESIS-UNMET"
        if "skipped" in self.details:
            return "SKIPPED"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.status}] {self.label}: {self.name}" + (f" ({extras})" if extras else "")

    def to_json(self) -> dict:
        return {
            "name": self.name, "label": self.label, "passed": self.passed,
            "status": self.status,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _jsonable(v):
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


# ---------------------------------------------------------------------------
# oracles

def oracle_betti(L: MonomialIdeal, cap: int = TAYLOR_CAP) -> BettiTable:
    """Ground-truth Betti table: minimalized Lyubeznik resolution of S/L in
    the generator order of L.gens.

    ``cap`` is a Taylor cap: the Lyubeznik complex may have at most 2^cap
    basis elements, the size of the Taylor complex on cap generators;
    SizeCapError beyond that.
    """
    if L.is_zero or L.is_unit:
        raise ValueError("oracle needs a nonzero proper ideal")
    return betti_table(quotient_resolution(L, cap=1 << cap))


def lcm_lattice(I: MonomialIdeal) -> list[tuple[int, ...]]:
    """Joins of nonempty generator subsets.

    Each round joins the new elements with the generators only: the join of
    S and {g} is lcm(lcm S, g), so every join of s + 1 generators is found
    from a join of s of them.
    """
    lattice = set(I.gens)
    frontier = set(I.gens)
    while frontier:
        fresh = set()
        for a in frontier:
            for g in I.gens:
                c = lcm(a, g)
                if c not in lattice:
                    fresh.add(c)
        lattice |= fresh
        if len(lattice) > 5000:
            raise SizeCapError("lcm lattice exceeds 5000 elements")
        frontier = fresh
    return sorted(lattice)


def _reduced_homology_dims(faces: set[frozenset]) -> dict[int, int]:
    """Reduced simplicial homology dimensions over the rationals.

    ``faces`` must be closed under taking subsets and contain the empty face
    when nonempty; dimension k faces have k+1 vertices (the empty face has
    dimension -1).
    """
    if not faces:
        return {}
    by_dim: dict[int, list] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for lv in by_dim.values():
        lv.sort()
    top = max(by_dim)
    index = {d: {f: i for i, f in enumerate(by_dim[d])} for d in by_dim}
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        lower = index.get(d - 1, {})
        # the boundary of each d-face as a sparse row over the (d-1)-faces
        rows = [{lower[f[:j] + f[j + 1:]]: (-1) ** j for j in range(len(f))}
                for f in by_dim.get(d, [])]
        ranks[d] = linalg.rank(rows) if rows and lower else 0
    out = {}
    for d in range(-1, top + 1):
        dim = len(by_dim.get(d, []))
        out[d] = dim - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return out


def _divisor_masks(I: MonomialIdeal, box) -> list[list[int]]:
    """Per variable t and value v = 0..box[t], the bitmask of the generators
    of I (bit j for ``I.gens[j]``) whose t-th exponent is at most v
    (``_below_masks``)."""
    return [_below_masks(I.gens, t, range(m + 1)) for t, m in enumerate(box)]


def _divisors(masks: list[list[int]], b) -> int:
    """The bitmask of the generators dividing x^b, from ``_divisor_masks``
    of a box containing b: nonzero iff x^b is in the ideal."""
    return functools.reduce(and_, map(getitem, masks, b))


def koszul_betti(I: MonomialIdeal) -> BettiTable:
    """Multigraded Betti numbers of S/I via upper Koszul simplicial complexes.

    beta_{i,b}(I) is the reduced (i-1)-homology of the complex of squarefree
    F with x^(b-F) in I; candidate degrees run over the lcm lattice.
    Membership is read off the masks of ``_divisor_masks``.  Fully
    independent of the resolution code.
    """
    if I.is_zero or I.is_unit:
        raise ValueError("oracle needs a nonzero proper ideal")
    multi = {(0, (0,) * I.ctx.nvars): 1}
    masks = _divisor_masks(I, functools.reduce(lcm, I.gens))
    for b in lcm_lattice(I):
        support = [c for c, e in enumerate(b) if e > 0]
        if len(support) > 12:
            raise SizeCapError(f"support of {b} exceeds 12 variables")
        # the generators dividing x^(b-F): those dividing x^b whose exponent
        # at each c of F is at most b_c - 1
        top = _divisors(masks, b)
        lowered = [masks[c][b[c] - 1] for c in support]
        faces = set()
        for rr in range(len(support) + 1):
            for combo in itertools.combinations(range(len(support)), rr):
                mask = top
                for i in combo:
                    mask &= lowered[i]
                if mask:
                    faces.add(frozenset(support[i] for i in combo))
        hdims = _reduced_homology_dims(faces)
        for i in range(0, len(support) + 1):
            beta = hdims.get(i - 1, 0)
            if beta:
                multi[(i + 1, b)] = beta  # quotient indexing
    return BettiTable.of(multi)


def linear_quotients_betti(L: MonomialIdeal) -> BettiTable | None:
    """Betti table of S/L from linear quotients (Herzog-Takayama 2002), or
    None where L has none in its degree order.

    G(L) is ordered by total degree, ties in the canonical order.  The colon
    (u_1, ..., u_{j-1}) : u_j is generated by the quotients
    u_i / gcd(u_i, u_j), i < j; it is generated by variables iff each
    quotient is divisible by a variable x_t that is itself a quotient.  The
    iterated mapping cone of the Koszul complexes on those variables then
    resolves S/L, and it is minimal because the order never lowers a degree:
    each subset F of the variables of u_j gives one basis element at
    position |F| + 1 in multidegree u_j x_F.  Fully independent of the
    resolution code.
    """
    if L.is_zero or L.is_unit:
        raise ValueError("oracle needs a nonzero proper ideal")
    order = sorted(L.gens, key=total_degree)   # stable: ties stay canonical
    multi = Counter({(0, (0,) * L.ctx.nvars): 1})
    for j, u in enumerate(order):
        quotients = [[max(a - b, 0) for a, b in zip(v, u)] for v in order[:j]]
        linear = sorted({q.index(1) for q in quotients if sum(q) == 1})
        if not all(any(q[t] for t in linear) for q in quotients):
            return None
        for size in range(len(linear) + 1):
            for F in itertools.combinations(linear, size):
                b = list(u)
                for t in F:
                    b[t] += 1
                multi[(size + 1, tuple(b))] += 1
    return BettiTable.of(multi)


def betti_for_ideal(L: MonomialIdeal, cap: int = TAYLOR_CAP) -> tuple[BettiTable, str]:
    """Oracle table plus which oracle produced it: "linear-quotients" where
    L has linear quotients in its degree order, else "lyubeznik" when the
    Lyubeznik complex fits the Taylor cap ``cap``, "koszul" otherwise."""
    table = linear_quotients_betti(L)
    if table is not None:
        return table, "linear-quotients"
    try:
        return oracle_betti(L, cap=cap), "lyubeznik"
    except SizeCapError:
        return koszul_betti(L), "koszul"


# ---------------------------------------------------------------------------
# structural checks (all corruption-tolerant: FAIL with a witness, no raise)

def check_scalar_exactness(inst: GmpiInstance) -> CheckResult:
    bad = inexact_positions(inst.resolution)
    details = {} if not bad else {"witness_positions": tuple(bad)}
    return CheckResult("scalar-complex-exactness", inst.label, not bad, details)


def check_lcm_shifts(inst: GmpiInstance) -> CheckResult:
    """Each deeper shift is the lcm of the supporting shifts one step down."""
    res = inst.resolution
    if res.length < 2:
        return CheckResult("lcm-shifts", inst.label, True, {"vacuous": True})
    for i in range(2, res.length + 1):
        cols = res.diffs[i].cols
        for j, s in enumerate(res.shifts[i]):
            acc = (0,) * len(s)
            for k in cols.get(j, ()):
                acc = lcm(acc, res.shifts[i - 1][k])
            if acc != s:
                return CheckResult("lcm-shifts", inst.label, False,
                                   {"witness": (i, j), "expected": acc, "shift": s})
    return CheckResult("lcm-shifts", inst.label, True)


def check_degree_realization(inst: GmpiInstance) -> CheckResult:
    """Every block degree of every shift occurs among the generators."""
    witness = realization_witness(inst)
    if witness is None:
        return CheckResult("block-degree-realization", inst.label, True)
    i, j, l = witness
    return CheckResult("block-degree-realization", inst.label, False,
                       {"witness": witness, "degree": inst.resolution.shifts[i][j][l]})


def _witness_check(name: str, label: str, witness) -> CheckResult:
    if witness is None:
        return CheckResult(name, label, True)
    return CheckResult(name, label, False, {"witness": witness})


def check_product_intersection(inst: GmpiInstance, star: list[list[MonomialIdeal]]) -> CheckResult:
    return _witness_check("product-equals-intersection", inst.label,
                          product_formula_witness(inst, star))


def check_sigma_minimality(tot: TotalComplex) -> CheckResult:
    """No unit entry in a sigma map.  The paper promises minimal sigma maps
    only under the linearity hypothesis; outside it the line reports
    HYPOTHESIS-UNMET, with any witness kept in its details."""
    witness = tot.sigma_unit_witness()
    details = {} if witness is None else {"witness": witness}
    return _theorem_result("sigma-minimality", tot.factors.instance.label,
                           tot.factors.hypothesis_linear, witness is None, True, details)


def check_sigma_squared(tot: TotalComplex) -> CheckResult:
    return _witness_check("sigma-squared-zero", tot.factors.instance.label,
                          tot.sigma_square_witness())


def check_star_acyclicity(inst: GmpiInstance, star: list[list[MonomialIdeal]]) -> CheckResult:
    """The star complex's strand scan on T's degree grid; above the scan
    cap it reports SKIPPED with the cell count."""
    name, label = "star-acyclicity", inst.label
    try:
        witness = star_acyclicity(inst, star)
    except SizeCapError as e:
        return CheckResult(name, label, True, {"skipped": str(e)})
    return _witness_check(name, label, witness)


def structure_checks(inst: GmpiInstance, star: list[list[MonomialIdeal]],
                     tot: TotalComplex) -> list[CheckResult]:
    """The structural checks of ``inst``, its star complex's ideal lists
    (``build_star_complex``) and its total complex."""
    return [
        check_scalar_exactness(inst),
        check_lcm_shifts(inst),
        check_degree_realization(inst),
        check_product_intersection(inst, star),
        check_sigma_minimality(tot),
        check_sigma_squared(tot),
        check_star_acyclicity(inst, star),
    ]


# ---------------------------------------------------------------------------
# theorem checks

def _theorem_result(name: str, label: str, hypothesis_linear: bool, holds: bool,
                    oracle_ok: bool, details: dict) -> CheckResult:
    """Outside the linearity hypothesis only the oracle comparison counts."""
    if not hypothesis_linear:
        details["hypothesis_unmet"] = True
        return CheckResult(name, label, oracle_ok, details)
    return CheckResult(name, label, holds and oracle_ok, details)


def check_theorem_regularity(inst: GmpiInstance, factors: Factors, table: BettiTable,
                             oracle: BettiTable | None = None) -> CheckResult:
    """reg L, read off ``table`` (the Betti table of T/L), equals reg I."""
    reg_i, reg_l = regularity(betti_table(inst.resolution)), regularity(table)
    details = {"reg_I": reg_i, "reg_L": reg_l}
    oracle_ok = True
    if oracle is not None:
        details["reg_L_oracle"] = regularity(oracle)
        oracle_ok = details["reg_L_oracle"] == reg_l
    return _theorem_result("regularity-preservation", inst.label, factors.hypothesis_linear,
                           reg_i == reg_l, oracle_ok, details)


def check_pd_formula(inst: GmpiInstance, factors: Factors, table: BettiTable,
                     oracle: BettiTable | None = None) -> CheckResult:
    """The paper's value of pd(T/L), the max over the shifts a of F at
    position c of c + sum over blocks l of the length of the block
    resolution at a_l, against the top position of ``table``."""
    res = inst.resolution
    formula = max(c + sum(factors.blocks[(l, d)].length for l, d in enumerate(a))
                  for c in range(1, res.length + 1) for a in res.shifts[c])
    pd = projective_dimension(table)
    details = {"formula": formula, "pd_tot": pd}
    oracle_ok = True
    if oracle is not None:
        details["pd_oracle"] = projective_dimension(oracle)
        oracle_ok = details["pd_oracle"] == pd
    return _theorem_result("projective-dimension-formula", inst.label, factors.hypothesis_linear,
                           formula == pd, oracle_ok, details)


def check_betti_equivalence(inst: GmpiInstance, table: BettiTable,
                            oracle: BettiTable | None, which: str) -> CheckResult:
    """Exact table equality (multigraded refinement included) between the
    Betti table of T/L (``resolution_table``) and an independent oracle;
    ``which`` names the oracle, or says why none ran when ``oracle`` is
    None."""
    if oracle is None:
        return CheckResult("betti-equivalence", inst.label, True, {"skipped": which})
    ok = table == oracle
    details = {"oracle": which}
    if not ok:
        details.update(_table_diff(table, oracle))
    return CheckResult("betti-equivalence", inst.label, ok, details)


def _table_diff(table: BettiTable, reference: BettiTable) -> dict:
    """The details of where ``table`` differs from ``reference``: ``diff``,
    by graded entry (k, j), and where every graded entry agrees,
    ``multi_diff``, by multigraded entry (k, multidegree)."""
    details = {"diff": _entries_diff(table.entries, reference.entries)}
    if not details["diff"]:
        details["multi_diff"] = _entries_diff(table.multi, reference.multi)
    return details


def _entries_diff(entries: dict, reference: dict) -> dict:
    """{key: (entry of ``entries``, entry of ``reference``)} wherever the
    two differ."""
    return {k: (entries.get(k, 0), reference.get(k, 0))
            for k in set(entries) | set(reference)
            if entries.get(k, 0) != reference.get(k, 0)}


def check_linearity_equivalence(inst: GmpiInstance, factors: Factors,
                                table: BettiTable) -> CheckResult:
    """I has a linear resolution iff L has, the latter read off ``table``;
    an ideal not generated in one degree has none."""
    d_i = inst.inducing.generated_in_degree()
    lin_i = d_i is not None and is_linear_resolution(betti_table(inst.resolution), d_i)
    d_l = inst.induced.generated_in_degree()
    lin_l = d_l is not None and is_linear_resolution(table, d_l)
    return _theorem_result("linear-resolution-equivalence", inst.label,
                           factors.hypothesis_linear, lin_i == lin_l, True,
                           {"I_linear": lin_i, "L_linear": lin_l})


# degree-grid cells beyond which the total-exactness scan reports SKIPPED
TOTAL_SCAN_CAP = 100_000


def check_total_exactness(inst: GmpiInstance, tot: TotalComplex) -> CheckResult:
    """The strand scan of the total complex over its whole degree grid, which
    checks diff o diff first, and diff o diff of the resolution of S/I.

    This is the scan that certify_factors replaces with its structural
    certificate.  Above TOTAL_SCAN_CAP cells it reports SKIPPED with the
    cell count (diff o diff is still checked)."""
    name = "total-exactness"
    square = inst.resolution.square_witness()
    if square is not None:
        return CheckResult(name, inst.label, False, {"resolution_witness": square})
    try:
        witness = exactness_check(tot.complex, inst.induced, max_cells=TOTAL_SCAN_CAP)
    except SizeCapError as e:
        return CheckResult(name, inst.label, True, {"skipped": str(e)})
    return _witness_check(name, inst.label, witness)


def check_engine_self(inst: GmpiInstance, tot: TotalComplex, base: BettiTable | None,
                      cap: int = TAYLOR_CAP, why: str = "no oracle answered") -> list[CheckResult]:
    """Total exactness, cancellation-order independence, Euler strand
    identity.

    ``base`` is the oracle's table of L (``betti_for_ideal``), which the
    Lyubeznik complexes of 5 shuffled generator orders must reproduce; None
    when no oracle answered, with ``why`` saying why.  The permutation check
    reports SKIPPED then, and with its own SizeCapError text when a shuffled
    order exceeds the Taylor cap ``cap``.  It fails at the first shuffled
    order whose table differs, named by its number (1 to 5) and the entries
    where it differs from ``base`` (``_table_diff``).
    """
    out = [check_total_exactness(inst, tot)]

    L = inst.induced
    ok, details = True, {}
    if base is None:
        details["skipped"] = why
    else:
        rng = random.Random(f"{inst.label}/perm")
        try:
            for shuffle in range(1, 6):
                perm = list(L.gens)
                rng.shuffle(perm)
                table = oracle_betti(MonomialIdeal(L.ctx, tuple(perm)), cap=cap)
                if table != base:
                    ok = False
                    details.update(shuffle=shuffle, **_table_diff(table, base))
                    break
        except SizeCapError as e:
            details["skipped"] = str(e)
    out.append(CheckResult("betti-permutation-invariance", inst.label, ok, details))

    box = [0] * L.ctx.nvars
    for level in tot.complex.shifts:
        for s in level:
            box = [max(a, b) for a, b in zip(box, s)]
    rng = random.Random(f"{inst.label}/euler")
    points = [tuple(rng.randrange(m + 2) for m in box) for _ in range(100)]
    masks = _divisor_masks(L, [m + 1 for m in box])
    witness = next((b for b, chi in zip(points, euler_characteristics(tot.complex, points))
                    if chi != (0 if _divisors(masks, b) else 1)), None)
    out.append(_witness_check("euler-strand-identity", inst.label, witness))
    return out


def run_instance_checks(tot: TotalComplex, table: BettiTable,
                        oracle_cap: int = TAYLOR_CAP) -> list[CheckResult]:
    """Every check on one built instance: its total complex and the Betti
    table of T/L (resolution_table(tot.factors, tot)).
    The oracle of L (``betti_for_ideal``, with the Taylor cap ``oracle_cap``)
    is computed once and is also the base of the permutation check.  The
    star complex, which the construction does not build, is built here for
    the star checks, which scan it on T's degree grid."""
    factors = tot.factors
    inst = factors.instance
    try:
        oracle, which = betti_for_ideal(inst.induced, cap=oracle_cap)
    except SizeCapError as e:
        oracle, which = None, str(e)
    results = structure_checks(inst, build_star_complex(inst), tot)
    results.append(check_theorem_regularity(inst, factors, table, oracle))
    results.append(check_betti_equivalence(inst, table, oracle, which))
    results.append(check_pd_formula(inst, factors, table, oracle))
    results.append(check_linearity_equivalence(inst, factors, table))
    results.extend(check_engine_self(inst, tot, oracle, cap=oracle_cap, why=which))
    return results


# ---------------------------------------------------------------------------
# the named example checks

def mixed_product_formula_check(store: BlockStore | None = None) -> CheckResult:
    """Squarefree Veronese mixed product on blocks (3,3) with degree pairs
    (2,1)/(1,2): the closed-form value, reg L of the Betti table of T/L, the
    Koszul oracle and reg I (``check_theorem_regularity``) must all give
    regularity 3, and the table must equal the oracle's.  The factors are
    built with ``store`` (``build_factors``), new by default."""
    from .families import mixed_product_instance
    factors = build_factors(mixed_product_instance((3, 3), (2, 1), (1, 2)), store)
    formula = sum(max(d, e) for d, e in zip((2, 1), (1, 2))) - 1
    table = resolution_table(factors)
    oracle = koszul_betti(factors.instance.induced)
    reg = check_theorem_regularity(factors.instance, factors, table, oracle).details
    ok = formula == reg["reg_L"] == reg["reg_L_oracle"] == reg["reg_I"] == 3
    ok = ok and table == oracle
    return CheckResult("mixed-product-regularity-formula", "veronese(3,3)", ok, {
        "formula": formula, "reg_tot": reg["reg_L"], "reg_oracle": reg["reg_L_oracle"]})


def path_identity_checks() -> list[CheckResult]:
    """Path enumeration vs the induced-ideal construction on small complete
    multipartite graphs."""
    from .families import path_ideal_two_ways
    out = []
    for parts in [(2, 2), (2, 3)]:
        for t in [2, 3]:
            direct, via = path_ideal_two_ways(parts, t)
            out.append(CheckResult("path-ideal-identity", f"K{parts},t={t}",
                                   direct.gens == via.gens, {"generators": len(direct.gens)}))
    return out


# ---------------------------------------------------------------------------
# the pinned suite

# Chosen once from a seed scan: every instance satisfies the size bounds
# (<= 3 blocks, block sizes <= 4, block degrees <= 3, <= 5 inducing
# generators, verified-linear substitutions, oracle-sized induced ideals),
# both linearity truth values occur, and two instances have depth-3
# resolutions of the inducing ideal.
SUITE_SEEDS = [1, 3, 5, 7, 8, 9, 11, 12, 14, 17, 20, 22, 25, 27, 30, 42, 46, 49, 54, 55]


def suite_instances(seeds=None, store: BlockStore | None = None) -> list[GmpiInstance]:
    """The instances of ``seeds`` (default ``SUITE_SEEDS``), drawn with one
    ``BlockStore`` (``store``, or a new one), so equal substitution ideals
    are one object."""
    from .families import random_instance
    store = BlockStore() if store is None else store
    return [random_instance(s, store) for s in (seeds if seeds is not None else SUITE_SEEDS)]


def run_suite(seeds=None) -> list[CheckResult]:
    """Every check on the instances of ``seeds`` (``suite_instances``), then
    the named example checks.  One ``BlockStore`` serves the whole call:
    each distinct substitution ideal is drawn, resolved, lifted and
    certified once, however many instances (the mixed-product example's
    among them) hold it.  The store is made here and dropped on return, so
    nothing outlives the call."""
    store = BlockStore()
    results: list[CheckResult] = []
    for inst in suite_instances(seeds, store):
        tot = total_complex(build_factors(inst, store))
        results.extend(run_instance_checks(tot, resolution_table(tot.factors, tot)))
    results.append(mixed_product_formula_check(store))
    results.extend(path_identity_checks())
    return results


def summary_lines(results: list[CheckResult]) -> list[str]:
    lines = [r.line() for r in results]
    nfail = sum(1 for r in results if not r.passed)
    nskip = sum(1 for r in results if r.status == "SKIPPED")
    lines.append(f"{len(results) - nfail - nskip}/{len(results)} checks passed"
                 + (f", {nskip} skipped" if nskip else ""))
    return lines
