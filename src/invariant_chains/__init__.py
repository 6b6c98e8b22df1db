"""Homology of invariant group chains by exact sparse integer linear algebra.

Given a finite group G with a finite group Q acting by automorphisms, this
package builds the unnormalized bar complex of G, its subcomplex of
Q-invariant chains, the complex of Q-orbit classes, the norm map between
them and its cokernel, and chain-level inclusion and transfer maps; it then
computes homology over Z and Z/m exactly, together with induced maps,
Q-actions on homology, connecting homomorphisms and exactness reports.
"""

__version__ = "0.1.0"

from .groups import (FiniteGroup, GroupAction, Subgroup, coset_representatives,
                     fixed_subgroup, generated_subgroup, inversion_action, make_action,
                     make_cyclic, make_product, negation_action, parse_action_spec,
                     parse_group_spec, trivial_action, trivial_subgroup)
from .linalg import (AbelianHom, FgAbelianGroup, FgSubgroup, SnfResult, SparseIntMatrix,
                     fixed_points_of_hom_family, image_of_hom, invariant_factors,
                     kernel_basis, kernel_of_hom, present_fg_abelian,
                     smith_normal_form, solve_in_lattice)
from .chains import (BarTuple, ChainMap, ComplexSlice, InvariantSES, bar_boundary,
                     bar_complex, burnside_orbit_count, coinvariant_complex,
                     find_equivariant_coset_reps, fixed_inclusion_chain_map,
                     invariant_complex, invariant_inclusion_chain_map, invariant_ses,
                     norm_chain_map, quotient_chain_map, quotient_complex_D,
                     s1_counterexample_complex, subgroup_bar_inclusion,
                     subgroup_invariant_inclusion, transfer_chain_map, tuple_orbits)
from .homology import (HomologyProfile, LesNode, action_on_homology,
                       connecting_homomorphism, exactness_check, fixed_homology,
                       homology, induced_map, invariant_les, uct_crosscheck)
from .theorems import (REGISTRY, VerificationReport, suite_divisible_relation, suite_hiz,
                       suite_n_0_mod_4, suite_n_2k, suite_n_odd, suite_structure,
                       suite_transfer, truncated_integer_h1)
