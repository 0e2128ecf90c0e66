"""A generalized mixed product ideal from start to finish.

Take I = (x^2 y, x y^2) and replace each power x^d (resp. y^d) by the d-th
power of the maximal ideal in a fresh block of two variables.  The result L
lives in four variables; its minimal multigraded resolution is assembled
from certified factors as the total complex of a grid of tensor-product
resolutions, and its invariants match those of I.
"""

from gmpi import (
    SubstitutionFamily,
    VariableContext,
    betti_table,
    build_factors,
    build_star_complex,
    ideal,
    is_linear_resolution,
    minimal_total_table,
    oracle_betti,
    power_of_maximal,
    projective_dimension,
    regularity,
    simple_context,
    star_acyclicity,
    total_complex,
    validate_family,
)

S = simple_context(2, ("x", "y"))
I = ideal(S, [(2, 1), (1, 2)])
print("inducing ideal I =", I)

T = VariableContext((2, 2), ("x", "y"))
family = SubstitutionFamily(T, {
    (l, d): power_of_maximal(2, d, VariableContext((2,), (T.names[l],)))
    for l in range(2) for d in (1, 2)})

inst = validate_family(I, family, label="expansion")
print("L =", inst.induced)
print("|G(L)| =", len(inst.induced.gens))

# the star complex: sums of ideals carried by the scalar matrices, as the
# ideal lists of its positions 1..p
star = build_star_complex(inst)
print("star positions:", [len(level) for level in star])
print("star acyclic:", star_acyclicity(inst, star) is None)

# the factors (F, the block resolutions and the comparison maps that sigma
# uses), made once and certified, and the total complex assembled from them;
# the columns of the double complex are blocks of it
factors = build_factors(inst)
tot = total_complex(factors)
print("column ranks:", tot.column_ranks)
print("total complex ranks:", tot.complex.ranks, "minimal:", tot.complex.is_minimal)

table = minimal_total_table(tot)
print("Betti table of T/L:")
print(table.triangle())
print("matches the Lyubeznik oracle:", table == oracle_betti(inst.induced))

# the paper's invariants: reg L = reg I, the projective-dimension formula
# (c plus the lengths of the block resolutions at the shift's block degrees,
# maximized over the shifts of F at position c), and linearity of I and L
res = inst.resolution
print(f"reg L = {regularity(table)} = reg I = {regularity(betti_table(res))}")
formula = max(c + sum(factors.blocks[(l, d)].length for l, d in enumerate(a))
              for c in range(1, res.length + 1) for a in res.shifts[c])
print(f"projdim(T/L) = {projective_dimension(table)} (formula value {formula})")
print("linearity (I, L):",
      (is_linear_resolution(betti_table(res), I.generated_in_degree()),
       is_linear_resolution(table, inst.induced.generated_in_degree())))
