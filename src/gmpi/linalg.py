"""Exact linear algebra over the rationals, and its certificate over F_2
(small matrices only).

Scalars are exact: an ``int`` wherever a value is integral, a ``Fraction``
only where it has a denominator (see ``complexes``).  A float or any other
value is refused with a ValueError naming its key, by ``_cleared`` and
``mod_2``, on their path for vectors that are not all ints, so the all-int
path pays nothing for the check.

``rank`` reads a matrix as a list of sparse vectors {index: nonzero value}
of ints and Fractions, its rows or its columns alike, since both have the
same rank.  It clears each vector's denominators and eliminates fraction-free
over sparse integer vectors: scaling a vector by a nonzero rational keeps the
rank, so the result is exact over Q without Fraction arithmetic.  Its
denominator clearing (``_cleared``, which hands an all-int vector back
without a copy) also feeds the integer kernel of
``complexes.MonomialMatrix.compose``.

``rank_mod_2`` is the fast rank of the strand-exactness scans.  It
eliminates the same sparse vectors reduced modulo 2 (``mod_2``), each packed
into one Python int with bit k set where entry k is odd, so a row operation
is one XOR, the packing of the M4RI library.  Reduction is defined where
every denominator is odd (``mod_2`` returns None otherwise), and then rank
over F_2 <= rank over Q, since a minor that is nonzero mod 2 is nonzero.
The scan turns that inequality into an exact verdict (see
``complexes._strand_scan``): where the F_2 ranks of a complex reach the
ranks an exact complex of its dimensions must have, they are its ranks over
Q, and anywhere else the scan asks the exact ``rank``.  Since only a lower
bound is needed, ``rank_mod_2`` can stop at a given number of pivots.

``row_echelon`` and ``solve`` take lists of dense rows and reduce over
Fractions with a fixed pivot rule (first nonzero entry scanning columns left
to right, rows top down) so that underdetermined solves return one
deterministic solution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def row_echelon(rows: list[list[Fraction]]):
    """In-place forward elimination; returns the list of pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(vectors) -> int:
    """Rank over Q of a list of sparse vectors {index: nonzero value} of
    Fractions or ints.

    ``vectors`` is left unmodified.  Each vector becomes a primitive integer
    vector, reduced against the pivot vectors found so far (keyed by their
    leading index) until it is zero or leads in a new index.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vector in vectors:
        vec = _integer_row(vector)
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = vec
                break
            vec = _eliminate(vec, piv, lead)
    return len(pivots)


def _integer_row(vector: dict) -> dict[int, int]:
    """``vector`` times the lcm of its denominators, divided by its content
    (``vector`` itself when it is a primitive int vector; never modified)."""
    if not vector:
        return {}
    return _primitive(_cleared(vector)[1])


def _cleared(entries: dict) -> tuple[int, dict]:
    """(m, entries times m) with m the lcm of the denominators of the
    rational values, so that every value becomes an int.  An all-int
    ``entries`` is returned as it is, with m = 1: its readers never modify
    it.  ValueError naming the key of a value that is neither an int nor a
    Fraction."""
    if all(type(v) is int for v in entries.values()):
        return 1, entries
    _check_exact(entries)
    m = lcm(*(v.denominator for v in entries.values()))
    if m == 1:
        return 1, {k: v.numerator for k, v in entries.items()}
    return m, {k: v.numerator * (m // v.denominator) for k, v in entries.items()}


def _check_exact(entries: dict) -> None:
    """ValueError at the first value that is neither an int nor a Fraction
    (a float, say), which exact arithmetic cannot take."""
    key = next((k for k, v in entries.items() if not isinstance(v, (int, Fraction))), None)
    if key is not None:
        raise ValueError(f"inexact scalar {entries[key]!r} at {key}: "
                         "scalars must be ints or Fractions")


def _eliminate(vec: dict[int, int], piv: dict[int, int], lead: int) -> dict[int, int]:
    """a*vec - b*piv with the entry in column ``lead`` cancelled, divided by
    its content."""
    a, b = piv[lead], vec[lead]
    # the sign of g makes a positive: against a +-1 pivot vec needs no scaling
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    a, b = a // g, b // g
    out = dict(vec) if a == 1 else {c: a * v for c, v in vec.items()}
    for c, v in piv.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            del out[c]
    return _primitive(out)


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    g = gcd(*vec.values())
    if g > 1:
        return {c: v // g for c, v in vec.items()}
    return vec


def mod_2(vector: dict) -> int | None:
    """The sparse vector {index: value} of Fractions or ints over F_2, packed
    into an int: bit k is set where entry k is odd.  None if a denominator
    is even, where reduction is undefined.  ValueError naming the index of a
    value that is neither an int nor a Fraction."""
    if all(type(v) is int for v in vector.values()):
        return sum(1 << k for k, v in vector.items() if v & 1)
    _check_exact(vector)
    out = 0
    for k, v in vector.items():
        if not v.denominator & 1:
            return None
        if v.numerator & 1:
            out |= 1 << k
    return out


def rank_mod_2(vectors, limit: int | None = None) -> int:
    """Rank over F_2 of a list of packed vectors, as ``mod_2`` returns them;
    with ``limit``, min(rank, limit), returned as soon as ``limit`` pivots
    are found.

    Each pivot is keyed by its lowest set bit (``v & -v``), so reducing a
    vector against it is one XOR, which clears that bit and touches only
    higher ones.
    """
    pivots: dict[int, int] = {}
    for vec in vectors:
        while vec:
            piv = pivots.get(low := vec & -vec)
            if piv is None:
                pivots[low] = vec
                if len(pivots) == limit:
                    return limit
                break
            vec ^= piv
    return len(pivots)


def solve(a_rows, b: list[Fraction]):
    """One solution x of A x = b, or None if inconsistent.

    Eliminates the augmented matrix [A | b]: a pivot in its last column means
    the system is inconsistent.  Free variables are set to zero (the
    fixed-pivot reduced echelon solve).
    """
    n = len(a_rows[0]) if a_rows else 0
    aug = [list(row) + [v] for row, v in zip(a_rows, b)]
    pivots = row_echelon(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x
