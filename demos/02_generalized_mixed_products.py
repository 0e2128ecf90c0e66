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
    build_factors,
    build_star_complex,
    certify_factors,
    ideal,
    linearity_report,
    minimal_total_table,
    oracle_betti,
    power_of_maximal,
    projdim_report,
    regularity_report,
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

# the star complex: sums of ideals carried by the scalar matrices
star = build_star_complex(inst)
print("star positions:", [len(level) for level in star.ideals])
print("star acyclic:", star_acyclicity(star) is None)

# the factors (F, the block resolutions and the comparison maps), their
# certificate, and the total complex assembled from them; the columns of the
# double complex are blocks of it
factors = build_factors(inst)
certify_factors(factors)
tot = total_complex(factors)
print("column ranks:", tot.column_ranks)
print("total complex ranks:", tot.complex.ranks, "minimal:", tot.complex.is_minimal)

table = minimal_total_table(tot)
print("Betti table of T/L:")
print(table.triangle())
print("matches the Lyubeznik oracle:", table == oracle_betti(inst.induced))

reg = regularity_report(factors, table)
print(f"reg L = {reg.value} = reg I = {reg.comparison}")
pd = projdim_report(factors, table)
print(f"projdim(T/L) = {pd.comparison} (formula value {pd.value})")
print("linearity (I, L):", linearity_report(factors, table))
