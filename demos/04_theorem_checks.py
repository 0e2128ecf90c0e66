"""Run the verification harness on a pinned random instance and on the
two-term mixed product with the closed regularity formula."""

from gmpi.builder import build_factors, resolution_table, total_complex
from gmpi.families import mixed_product_instance, random_instance
from gmpi.verify import (
    mixed_product_formula_check,
    koszul_betti,
    run_instance_checks,
    summary_lines,
)

# a seeded instance: every structural statement checked, plus the oracle
inst = random_instance(30)
print("instance", inst.label, "with L =", inst.induced)
tot = total_complex(build_factors(inst))
for line in summary_lines(run_instance_checks(tot, resolution_table(tot.factors, tot))):
    print(line)

print()

# squarefree Veronese on blocks (3,3) with degree pairs (2,1) and (1,2):
# regularity max(2,1) + max(1,2) - 1 = 3 by the formula, the total complex,
# and the simplicial-homology oracle (18 generators: 2^18 Taylor subsets, of
# which 156 are Lyubeznik-admissible, so `gmpi gmpi --check` runs on it too)
print(mixed_product_formula_check().line())
mixed = mixed_product_instance((3, 3), (2, 1), (1, 2))
print("|G(L)| =", len(mixed.induced.gens))
table = koszul_betti(mixed.induced)
print("Betti table of T/L from the simplicial oracle:")
print(table.triangle())
