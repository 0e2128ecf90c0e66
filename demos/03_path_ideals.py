"""Path ideals of complete multipartite graphs as induced ideals.

The ideal generated by all t-vertex paths of a complete multipartite graph
equals the generalized mixed product induced by a capped Veronese ideal with
squarefree Veronese substitutions; both constructions are run and compared.
"""

from gmpi import path_ideal_complete_multipartite, veronese_type
from gmpi.builder import induced_ideal
from gmpi.families import squarefree_substitutions

for parts, t in [((2, 2), 2), ((2, 2), 3), ((2, 3), 3), ((3, 3), 2)]:
    direct = path_ideal_complete_multipartite(parts, t)
    print(f"K{parts}, t={t}: {len(direct.gens)} path monomials")
    print("   ", direct)

# under the hood: the inducing ideal of K(2,3) with t=3 and its substitutions
inducing = veronese_type(2, 3, (2, 3))
print("inducing capped Veronese ideal:", inducing)
family = squarefree_substitutions(inducing, (2, 3))
via_induction = induced_ideal(inducing, family)[1]
print("induced ideal equals path enumeration:",
      via_induction.gens == path_ideal_complete_multipartite((2, 3), 3).gens)
