"""Planar (perfect nonlinear) functions over GF(2^n), exactly.

Layers: fields (GF(2^n) and tower views), linearized (q-polynomials and
the Dickson permutation test), planar (planarity predicates, coefficient
criteria, the family registry, sweeps), surfaces (companion
hypersurfaces, linear factors, point counts), semifields (products
induced by planar functions and their nuclei). Each coefficient family is
one array-valued record in planar.REGISTRY, companion orbit generators
included. Planarity verdicts run
through kernels: a batched GF(2)-rank kernel for sweeps and the rank
test, and a definition check on full value tables as the independent
oracle.
"""

__version__ = "0.36.0"

from .fields import BudgetError, Fe, FieldSpec, TowerView, field, smallest_irreducible, tower
from .linearized import (LinearizedPoly, dickson_det, inverse_map, is_permutation,
                         kernel)
from .planar import (FAMILIES, AuditReport, DOPoly, FamilyParams, family_audit,
                     family_coeffs, family_param_rows, family_param_space,
                     fraction_image_set, fraction_map_two_to_one, is_planar_bruteforce,
                     is_planar_linearized, norm_trace_zero_set, offdiagonal_search,
                     planar_by_criterion)
from .semifields import (NucleiReport, Presemifield, TraceChain, kantor_presemifield,
                         knuth_presemifield, nuclei, presemifield_from_planar,
                         quartic_example_check, to_semifield)
from .surfaces import (LinearForm, MvPoly, build_G, companion_zeros, count_points_affine,
                       count_points_projective, langweil_bound, langweil_check, langweil_rhs,
                       linear_factor_search, orbit_has_zero, specialize_normal)
