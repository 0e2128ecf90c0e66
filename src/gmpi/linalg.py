"""Dense exact linear algebra over the rationals (small matrices only).

Matrices are lists of rows of Fractions.  The reduction uses a fixed pivot
rule (first nonzero entry scanning columns left to right, rows top down) so
that underdetermined solves return one deterministic solution.
"""

from __future__ import annotations

from fractions import Fraction


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


def rank(rows) -> int:
    work = [list(r) for r in rows]
    return len(row_echelon(work))


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
