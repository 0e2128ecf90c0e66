"""Exact linear algebra over the rationals, and its certificate over F_2
(small matrices only).

Scalars are exact: an ``int`` wherever a value is integral, a ``Fraction``
only where it has a denominator (see ``complexes``).  A float or any other
value is refused with a ValueError naming its key, by ``_integer_row`` and
``mod_2``, on their path for vectors that are not all ints, so the all-int
path pays nothing for the check.

``rank`` reads a matrix as a list of sparse vectors {index: nonzero value}
of ints and Fractions, its rows or its columns alike, since both have the
same rank.  It clears each vector's denominators and eliminates fraction-free
over sparse integer vectors: scaling a vector by a nonzero rational keeps the
rank, so the result is exact over Q without Fraction arithmetic.  A map of
``complexes`` stores its scalars by column, {col: {row: scalar}}, so its
columns are such vectors as they stand: ``rank(list(m.cols.values()))``.

``rank_mod_2`` is the fast rank of the strand-exactness scans.  It
eliminates the same sparse vectors reduced modulo 2 (``mod_2``), each packed
into one Python int with bit k set where entry k is odd, so a row operation
is one XOR, the packing of the M4RI library.  Only int vectors are reduced
(``mod_2`` returns None for any other), and then rank over F_2 <= rank over
Q, since a minor that is nonzero mod 2 is nonzero.
The scan turns that inequality into an exact verdict (see
``complexes._strand_scan``): where the F_2 ranks of a complex reach the
ranks an exact complex of its dimensions must have, they are its ranks over
Q, and anywhere else the scan asks the exact ``rank``.  Since only a lower
bound is needed, ``rank_mod_2`` can stop at a given number of pivots.

``solve`` finds one solution of a linear system on ``rank``'s kernel, so
the package has one elimination over Q.  Its columns, then its target, are
reduced as ``rank`` reduces vectors, each carrying an identity coordinate
past every row index that records the combination of columns it has become.
The pivots are the first columns independent of the earlier ones, the
solution lies on them, and the other unknowns are zero, so underdetermined
solves return one deterministic solution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm


def rank(vectors) -> int:
    """Rank over Q of a list of sparse vectors {index: nonzero value} of
    Fractions or ints.

    ``vectors`` is left unmodified.  Each vector becomes a primitive integer
    vector, reduced against the pivot vectors found so far (keyed by their
    leading index) until it is zero or leads in a new index.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vector in vectors:
        _reduce(_integer_row(vector), pivots)
    return len(pivots)


def solve(columns, target):
    """One solution x of sum_j x_j columns[j] = target, as {j: nonzero
    value}, or None if there is none.  The columns and the target are sparse
    vectors {row: nonzero value} of Fractions or ints, left unmodified; each
    value of x is an int where it is integral.

    Column j gets the identity coordinate n + j and the target n +
    len(columns), n past every row index, and each is reduced up to the
    rows.  A column whose row part vanishes depends on the earlier ones and
    adds no pivot.  A target whose row part vanishes reads
    a * target + sum_j y_j * columns[j] = 0 with a its own coordinate, so
    x_j = -y_j / a, nonzero only on pivot columns.
    """
    n = 1 + max((r for vector in (*columns, target) for r in vector), default=-1)
    own = n + len(columns)
    pivots: dict[int, dict[int, int]] = {}
    for j, column in enumerate(columns):
        _reduce(_integer_row({**column, n + j: 1}), pivots, n)
    vec = _reduce(_integer_row({**target, own: 1}), pivots, n)
    if min(vec) < n:
        return None
    a = vec.pop(own)
    return {k - n: -v // a if v % a == 0 else Fraction(-v, a) for k, v in sorted(vec.items())}


def _reduce(vec: dict[int, int], pivots: dict, stop: float = inf) -> dict[int, int]:
    """``vec`` reduced against ``pivots`` (keyed by their leading index)
    until it is zero, or leads in a new index below ``stop``, where it joins
    them, or leads at ``stop`` or past it."""
    while vec:
        lead = min(vec)
        if lead >= stop:
            break
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = vec
            break
        vec = _eliminate(vec, piv, lead)
    return vec


def _integer_row(vector: dict) -> dict[int, int]:
    """``vector`` times the lcm of its denominators, divided by its content
    (``vector`` itself when it is a primitive int vector; never modified).
    ValueError naming the key of a value that is neither an int nor a
    Fraction."""
    if not all(type(v) is int for v in vector.values()):
        _check_exact(vector.items())
        m = lcm(*(v.denominator for v in vector.values()))
        vector = {k: v.numerator * (m // v.denominator) for k, v in vector.items()}
    return _primitive(vector) if vector else {}


def _check_exact(items) -> None:
    """ValueError at the first (key, value) of ``items`` whose value is
    neither an int nor a Fraction (a float, say), which exact arithmetic
    cannot take."""
    bad = next(((k, v) for k, v in items if not isinstance(v, (int, Fraction))), None)
    if bad is not None:
        raise ValueError(f"inexact scalar {bad[1]!r} at {bad[0]}: "
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
    """The sparse vector {index: value} of ints over F_2, packed into an
    int: bit k is set where entry k is odd.  None for a vector that is not
    all ints, which the exact ``rank`` decides instead.  ValueError naming
    the index of a value that is neither an int nor a Fraction."""
    if all(type(v) is int for v in vector.values()):
        return sum(1 << k for k, v in vector.items() if v & 1)
    _check_exact(vector.items())
    return None


def rank_mod_2(vectors, limit: int | None = None) -> int:
    """Rank over F_2 of a list of packed vectors, as ``mod_2`` returns them;
    with ``limit``, min(rank, limit), returned as soon as ``limit`` pivots
    are found.

    Each pivot is keyed by its highest set bit (``vec.bit_length()``), so
    reducing a vector against it is one XOR, which clears that bit and
    touches only lower ones: Gaussian elimination from the top bit.  The
    key is read off the vector in constant time, and a vector narrows as
    it is reduced.  Keyed by the lowest set bit (``vec & -vec``) instead,
    each step negated and masked the whole vector, and the same ranks took
    several times longer (``tests/conftest.py`` keeps that elimination as
    the reference).
    """
    pivots: dict[int, int] = {}
    for vec in vectors:
        while vec:
            piv = pivots.get(top := vec.bit_length())
            if piv is None:
                pivots[top] = vec
                if len(pivots) == limit:
                    return limit
                break
            vec ^= piv
    return len(pivots)
