"""Exact arithmetic for monomials and monomial ideals over block-partitioned variables.

Monomials are exponent tuples of length N = sum of block sizes.  A monomial
ideal is stored by its unique minimal generating set (an antichain under
componentwise divisibility), kept in a canonical order so every operation is
deterministic: generators are sorted by descending tuple order, i.e. the
algebraic lex order with earlier variables larger (x^2, xy, y^2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import le


class ContextMismatchError(ValueError):
    """Raised when operands live over different variable contexts."""


@dataclass(frozen=True)
class VariableContext:
    """An ordered list of variable blocks (sizes and display names).

    ``nvars`` and ``offsets`` are computed on first read and kept: the
    context is frozen, so they never change."""

    sizes: tuple[int, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.sizes or any(m < 1 for m in self.sizes):
            raise ValueError(f"block sizes must be positive, got {self.sizes}")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i+1}" for i in range(len(self.sizes))))
        if len(self.names) != len(self.sizes):
            raise ValueError("one name per block required")

    @property
    def nblocks(self) -> int:
        return len(self.sizes)

    @cached_property
    def nvars(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        # offsets[i] = flat index of the first variable of block i
        out, acc = [], 0
        for m in self.sizes:
            out.append(acc)
            acc += m
        return tuple(out)

    def block_span(self, i: int) -> range:
        off = self.offsets[i]
        return range(off, off + self.sizes[i])

    def var_name(self, flat: int) -> str:
        for i, off in enumerate(self.offsets):
            if off <= flat < off + self.sizes[i]:
                if self.sizes[i] == 1:
                    return self.names[i]
                return f"{self.names[i]}{flat - off + 1}"
        raise IndexError(flat)

    def monomial_str(self, e: tuple[int, ...]) -> str:
        if not any(e):
            return "1"
        parts = []
        for c, a in enumerate(e):
            if a == 1:
                parts.append(self.var_name(c))
            elif a > 1:
                parts.append(f"{self.var_name(c)}^{a}")
        return "*".join(parts)


def simple_context(n: int, names: tuple[str, ...] = ()) -> VariableContext:
    """Context of n singleton blocks (the ambient ring of an inducing ideal)."""
    return VariableContext((1,) * n, names)


# ---------------------------------------------------------------------------
# exponent-vector arithmetic (plain int tuples)

def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    assert len(a) == len(b)
    return all(map(le, a, b))


def lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    assert len(a) == len(b)
    return tuple(map(max, a, b))


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    assert len(a) == len(b)
    return tuple(x + y for x, y in zip(a, b))


def total_degree(a: tuple[int, ...]) -> int:
    return sum(a)


def _below_masks(gens, k: int, values) -> list[int]:
    """Per value v of the ascending ``values``, the bitmask of the generators
    whose k-th exponent is at most v (bit j for ``gens[j]``).  ANDed over
    the coordinates of x^b, these masks give the generators dividing x^b."""
    by_exponent = sorted((g[k], j) for j, g in enumerate(gens))
    out, mask, t = [], 0, 0
    for v in values:
        while t < len(by_exponent) and by_exponent[t][0] <= v:
            mask |= 1 << by_exponent[t][1]
            t += 1
        out.append(mask)
    return out


def canonical_sort(gens) -> tuple[tuple[int, ...], ...]:
    """Descending tuple order = algebraic lex with earlier variables larger."""
    return tuple(sorted(set(gens), reverse=True))


def _check_vectors(ctx: VariableContext, gens) -> None:
    for g in gens:
        if len(g) != ctx.nvars:
            raise ContextMismatchError(
                f"exponent vector {g} has length {len(g)}, context has {ctx.nvars} variables")
        if any(e < 0 for e in g):
            raise ValueError(f"negative exponent in {g}")


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators in canonical order.

    Construct through :func:`ideal` (which checks the exponent vectors and
    minimalizes); the raw constructor trusts its input, and every raw
    construction in the package passes vectors of a checked ideal.  The zero ideal has no generators; the unit ideal has
    the single generator ``(0,...,0)``.
    """

    ctx: VariableContext
    gens: tuple[tuple[int, ...], ...]

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def member(self, m: tuple[int, ...]) -> bool:
        """True iff the monomial x^m lies in the ideal."""
        if len(m) != self.ctx.nvars:
            raise ContextMismatchError(f"vector length {len(m)} vs {self.ctx.nvars} variables")
        return any(divides(g, m) for g in self.gens)

    def generated_in_degree(self):
        """The common total degree of the generators, or None if mixed/zero."""
        degs = {total_degree(g) for g in self.gens}
        return degs.pop() if len(degs) == 1 else None

    # -- arithmetic

    def _same_ctx(self, other: "MonomialIdeal") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"contexts differ: {self.ctx} vs {other.ctx}")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ctx(other)
        return ideal(self.ctx, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ctx(other)
        return ideal(self.ctx, [mul(g, h) for g in self.gens for h in other.gens])

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ctx(other)
        return ideal(self.ctx, [lcm(g, h) for g in self.gens for h in other.gens])

    def __str__(self):
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(self.ctx.monomial_str(g) for g in self.gens) + ")"


def minimalize(gens) -> list[tuple[int, ...]]:
    """Inclusion-minimal antichain of a generator list under divisibility,
    in ascending total degree.

    A generator is tested only against the kept generators of lower total
    degree: distinct monomials of one degree never divide each other."""
    below: list[tuple[int, ...]] = []    # kept, of lower degree than g
    same: list[tuple[int, ...]] = []     # kept, of the degree of g
    degree = None
    for g in sorted(set(gens), key=total_degree):
        if total_degree(g) != degree:
            degree = total_degree(g)
            below += same
            same = []
        if not any(divides(h, g) for h in below):
            same.append(g)
    return below + same


def ideal(ctx: VariableContext, gens) -> MonomialIdeal:
    """Canonical MonomialIdeal from an arbitrary generator iterable.  The
    vectors are checked first, before ``minimalize`` compares them (``divides``
    asserts their lengths only without ``-O``)."""
    gens = list(gens)
    _check_vectors(ctx, gens)
    return MonomialIdeal(ctx, canonical_sort(minimalize(gens)))


def intersect_many(ideals) -> MonomialIdeal:
    """n-ary intersection, folded pairwise."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("empty intersection")
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = acc.intersect(nxt)
    return acc


def monomials_of_degree(ctx: VariableContext, d: int):
    """All exponent vectors of total degree d (descending tuple order)."""
    n = ctx.nvars

    def rec(rest: int, coords: int):
        if coords == 1:
            yield (rest,)
            return
        for e in range(rest, -1, -1):
            for tail in rec(rest - e, coords - 1):
                yield (e,) + tail

    return list(rec(d, n))


def embed_ideal(block_ideal: MonomialIdeal, big: VariableContext, block: int) -> MonomialIdeal:
    """Reinterpret an ideal in block-local variables inside the full context."""
    if block_ideal.ctx.nvars != big.sizes[block]:
        raise ContextMismatchError(
            f"ideal over {block_ideal.ctx.nvars} variables cannot occupy block of size {big.sizes[block]}")
    off = big.offsets[block]
    pad_before, pad_after = off, big.nvars - off - big.sizes[block]
    gens = [(0,) * pad_before + g + (0,) * pad_after for g in block_ideal.gens]
    return MonomialIdeal(big, canonical_sort(gens))
