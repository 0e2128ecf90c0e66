"""Generators for the standard example families and seeded random instances.

Every family here emits ideals generated in a single degree whose linear
resolution is a known fact for the family (squarefree Veronese, powers of the
maximal ideal, stable lex segments); the builder still verifies linearity at
runtime rather than assuming it.
"""

from __future__ import annotations

import itertools
import math
import random

from .builder import (
    ConstructionError,
    FamilyValidationError,
    GmpiInstance,
    SubstitutionFamily,
    block_ladders,
    induced_ideal,
    validate_family,
)
from .complexes import grid_size
from .monomials import (
    MonomialIdeal,
    VariableContext,
    divides,
    ideal,
    monomials_of_degree,
    simple_context,
)


def _block_ctx(m: int, name: str = "x") -> VariableContext:
    return VariableContext((m,), (name,))


def squarefree_veronese(m: int, d: int, ctx: VariableContext | None = None) -> MonomialIdeal:
    """All squarefree monomials of degree d in m variables."""
    if not 0 <= d <= m:
        raise ValueError(f"need 0 <= d <= {m}, got {d}")
    ctx = ctx or _block_ctx(m)
    gens = []
    for combo in itertools.combinations(range(m), d):
        g = [0] * m
        for c in combo:
            g[c] = 1
        gens.append(tuple(g))
    return ideal(ctx, gens)


def power_of_maximal(m: int, d: int, ctx: VariableContext | None = None) -> MonomialIdeal:
    """All monomials of degree d in m variables (the d-th power of the
    irrelevant maximal ideal)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    ctx = ctx or _block_ctx(m)
    return ideal(ctx, monomials_of_degree(ctx, d))


def veronese_type(n: int, t: int, caps: tuple[int, ...]) -> MonomialIdeal:
    """Degree-t monomials in n variables with exponents capped by
    min((t+1)/2, cap_i); the inducing ideal of the path-ideal construction."""
    if len(caps) != n:
        raise ValueError("one cap per variable required")
    bound = [min((t + 1) // 2, c) for c in caps]
    gens = [
        g for g in monomials_of_degree(simple_context(n), t)
        if all(e <= b for e, b in zip(g, bound))]
    return ideal(simple_context(n), gens) if gens else MonomialIdeal(simple_context(n), ())


def lex_segment_stable(m: int, d: int, count: int, ctx: VariableContext | None = None) -> MonomialIdeal:
    """The first ``count`` degree-d monomials in lex order.  An initial lex
    segment is strongly stable: moving a factor x_j of a member to a
    variable x_i with i < j gives a monomial that comes earlier in lex
    order, so it is a member too."""
    ctx = ctx or _block_ctx(m)
    monos = monomials_of_degree(ctx, d)
    if not 1 <= count <= len(monos):
        raise ValueError(f"count must be in 1..{len(monos)}")
    return ideal(ctx, monos[:count])


def min_covering_count(m: int, segment: MonomialIdeal, lower_degree: int) -> int:
    """Smallest lex-segment size in ``lower_degree`` whose ideal contains the
    given single-degree ideal."""
    need = 0
    lower = monomials_of_degree(_block_ctx(m), lower_degree)
    for g in segment.gens:
        best = None
        for r, v in enumerate(lower):
            if divides(v, g):
                best = r
                break
        if best is None:
            raise ValueError(f"no degree-{lower_degree} divisor of {g}")
        need = max(need, best + 1)
    return need


# ---------------------------------------------------------------------------
# path ideals of complete multipartite graphs

def _paths(parts: tuple[int, ...], t: int):
    """Vertex sequences of t pairwise distinct vertices with consecutive
    vertices in different parts; vertices are flat indices."""
    ctx = VariableContext(parts)
    verts = [(l, v) for l in range(len(parts)) for v in ctx.block_span(l)]
    out = []

    def extend(path, used):
        if len(path) == t:
            out.append(tuple(v for _, v in path))
            return
        for l, v in verts:
            if v in used:
                continue
            if path and path[-1][0] == l:
                continue
            path.append((l, v))
            used.add(v)
            extend(path, used)
            used.discard(v)
            path.pop()

    extend([], set())
    return ctx, out


def path_ideal_two_ways(parts: tuple[int, ...], t: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The path ideal by direct path enumeration, and as the induced ideal of
    the capped Veronese inducing ideal with squarefree Veronese substitutions
    (the zero ideal when no capped Veronese monomial exists)."""
    ctx, paths = _paths(parts, t)
    gens = set()
    for path in paths:
        g = [0] * ctx.nvars
        for v in path:
            g[v] = 1
        gens.add(tuple(g))
    direct = ideal(ctx, gens) if gens else MonomialIdeal(ctx, ())

    inducing = veronese_type(len(parts), t, parts)
    if inducing.is_zero:
        return direct, MonomialIdeal(ctx, ())
    return direct, induced_ideal(inducing, squarefree_substitutions(inducing, parts))[1]


def path_ideal_complete_multipartite(parts: tuple[int, ...], t: int) -> MonomialIdeal:
    """Generated by the vertex products over paths of t distinct vertices.

    Built twice (see path_ideal_two_ways); the two minimal generating sets
    must agree.
    """
    if t < 2:
        raise ValueError("paths need at least two vertices")
    direct, via_gmpi = path_ideal_two_ways(parts, t)
    if direct.gens != via_gmpi.gens:
        witness = min(set(direct.gens) ^ set(via_gmpi.gens))
        raise ConstructionError(
            "path enumeration disagrees with the induced ideal (generator in one only)", witness)
    return direct


def squarefree_substitutions(inducing: MonomialIdeal, sizes: tuple[int, ...]) -> SubstitutionFamily:
    """Squarefree Veronese substitution at every ladder degree."""
    T = VariableContext(tuple(sizes))
    ideals = {}
    for l, ladder in enumerate(block_ladders(inducing)):
        for d in ladder:
            if d >= 1:
                ideals[(l, d)] = squarefree_veronese(sizes[l], d, _block_ctx(sizes[l], T.names[l]))
    return SubstitutionFamily(T, ideals)


def mixed_product_instance(
    sizes: tuple[int, ...],
    degs1: tuple[int, ...],
    degs2: tuple[int, ...],
) -> GmpiInstance:
    """Classical two-term mixed product: induced by (x^degs1, x^degs2) with
    squarefree Veronese substitutions on each block (which are nested, so the
    containment hypotheses hold automatically)."""
    n = len(sizes)
    if len(degs1) != n or len(degs2) != n:
        raise ValueError("one degree per block in each term")
    for l in range(n):
        if max(degs1[l], degs2[l]) > sizes[l]:
            raise ValueError(f"block {l}: degree exceeds block size for squarefree generators")
    inducing = ideal(simple_context(n), [tuple(degs1), tuple(degs2)])
    return validate_family(inducing, squarefree_substitutions(inducing, sizes),
                           label=f"mixed{degs1}x{degs2}")


# ---------------------------------------------------------------------------
# seeded random instances

def _random_block_family(rng: random.Random, m: int, ladder: list[int], name: str):
    """Substitution ideals for one block, nested by construction, with at most
    8 generators each."""
    choices = ["power"]
    if max(ladder) <= m:
        choices.append("sqfree")
    if m >= 2:
        choices.append("lex")
    tag = rng.choice(choices)
    ctx = _block_ctx(m, name)
    out = {}
    if tag == "sqfree":
        for d in ladder:
            out[d] = squarefree_veronese(m, d, ctx)
    elif tag == "power":
        for d in ladder:
            out[d] = power_of_maximal(m, d, ctx)
    else:
        prev = None
        for d in sorted(ladder, reverse=True):
            total = len(monomials_of_degree(ctx, d))
            lo = min_covering_count(m, prev, d) if prev is not None else 1
            if lo > total:
                return None
            out[d] = lex_segment_stable(m, d, rng.randint(lo, total), ctx)
            prev = out[d]
    if any(len(idl.gens) > 8 for idl in out.values()):
        return None
    return out


def _induced_shape(inducing: MonomialIdeal, ideals: dict, sizes: tuple[int, ...]):
    """(|G(L)|, the axes of ``degree_grid`` of L) for the induced ideal L,
    read off the substitution ideals ``ideals`` by (block, degree), each
    generated in its degree.  A generator of L_j has block degrees a_j, the
    j-th generator of I, and no a_j divides another, so no generator of one
    L_j divides one of another; and products in disjoint variables keep
    every product of minimal generators.  So |G(L)| is the sum over a in
    G(I) of the product over l of |G(J_(l, a_l))|, and the axis of a
    variable of block l is {0} with its exponents in the J_(l, d), d in
    {a_l}.  Where an ideal is not generated in its degree, the count is an
    upper bound."""
    count = sum(math.prod(len(ideals[(l, d)].gens) for l, d in enumerate(a) if d)
                for a in inducing.gens)
    axes = []
    for l, m in enumerate(sizes):
        gens = [g for d in {a[l] for a in inducing.gens} if d for g in ideals[(l, d)].gens]
        axes.extend(sorted({0, *(g[t] for g in gens)}) for t in range(m))
    return count, axes


def random_instance(seed: int) -> GmpiInstance:
    """Deterministic instance from a seed, with all substitutions drawn from
    the verified-linear families and sizes kept inside the oracle guardrails:
    at most 3 blocks of at most 4 variables, block degrees at most 3, at most
    5 inducing generators, at most 8 generators per substitution and 8 for
    the induced ideal, and a degree grid of at most 40 000 cells.
    FamilyValidationError when none of 300 attempts is feasible."""
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 4) for _ in range(n))
        # distinct vectors of one total degree form an antichain, so sampling
        # inside a degree gives full-size generating sets; an extra vector of
        # a neighbouring degree (sometimes) makes mixed-degree instances
        target = rng.randint(max(2, n), n * 3 - 1)
        pool = [
            g for g in monomials_of_degree(simple_context(n), target)
            if all(e <= 3 for e in g)]
        if len(pool) < 2:
            continue
        k = rng.randint(2, min(5, len(pool)))
        gens = set(rng.sample(pool, k))
        if rng.random() < 0.4:
            extra = tuple(rng.randint(0, 3) for _ in range(n))
            if any(extra) and sum(extra) in (target - 1, target + 1):
                gens.add(extra)
        inducing = ideal(simple_context(n), gens)
        if inducing.is_unit or inducing.is_zero or len(inducing.gens) < 2:
            continue
        T = VariableContext(sizes)
        ideals = {}
        feasible = True
        for l, degrees in enumerate(block_ladders(inducing)):
            ladder = [d for d in degrees if d >= 1]
            if not ladder:
                continue
            block = _random_block_family(rng, sizes[l], ladder, T.names[l])
            if block is None:
                feasible = False
                break
            for d, idl in block.items():
                ideals[(l, d)] = idl
        if not feasible:
            continue
        # the size filters come before validate_family, which resolves S/I
        count, axes = _induced_shape(inducing, ideals, sizes)
        if count > 8 or grid_size(axes) > 40_000:
            continue
        try:
            return validate_family(inducing, SubstitutionFamily(T, ideals), label=f"seed{seed}")
        except FamilyValidationError:
            continue
    raise FamilyValidationError(f"no feasible instance found for seed {seed}")
