"""Minimal free resolutions of monomial ideals, step by step.

Build the Taylor complex of a small ideal, cancel its unit entries down to
the minimal resolution, and read off Betti numbers, regularity, and
projective dimension.
"""

from gmpi import (
    betti_table,
    exactness_check,
    ideal,
    minimalize_complex,
    projective_dimension,
    regularity,
    simple_context,
    taylor_complex,
)

S = simple_context(2, ("x", "y"))

# I = (x^2, xy, y^3): three generators, so the Taylor complex has 2^3 cells
I = ideal(S, [(2, 0), (1, 1), (0, 3)])
print("I =", I)

T = taylor_complex(I)
print("Taylor ranks:", T.ranks, "(not minimal:", not T.is_minimal, ")")

M = minimalize_complex(T)
print("minimal ranks:", M.ranks)
print("shifts:", M.shifts)

print("resolves S/I exactly:", exactness_check(M, I) is None)

table = betti_table(M)
print("Betti table (rows j-k, cols k):")
print(table.triangle())
print("reg(I) =", regularity(table))
print("projdim(S/I) =", projective_dimension(table))

# the scalar matrices: coefficients of the differentials with the monomial
# factors stripped, stored sparsely by column as {column: {row: scalar}},
# each an int where it is integral (a Fraction only where it has a
# denominator); the first one is the all-ones row.  Listed here by
# (row, column).
for i in range(1, M.length + 1):
    print(f"scalar matrix {i}:", sorted(((r, c), v) for c, col in M.diffs[i].cols.items()
                                        for r, v in col.items()))
