"""Exact decision procedures for the geometry of module varieties over
canonical algebras: complete-intersection and normality criteria, irreducible
components, tube combinatorics, semi-invariant zero sets, and a matrix-level
oracle validating the combinatorial layer."""

from .cones import (EnumerationCapExceeded, decompose_slope_one, enumerate_P,
                    in_P, in_Q)
from .forms import (CanonicalType, DimVector, a_dim, basis_e, basis_e0,
                    basis_einf, basis_h, euler_form, euler_quadratic,
                    format_dim_vector, gl_dim, parse_dim_vector,
                    quadratic_lower_bound, quadratic_via_decomposition,
                    slope_one_vector, zero_vector)
from .geometry import (boundary_component_count, ci_defect, ci_failure_witness,
                       classify_type, component_count, irreducible_components,
                       is_complete_intersection, is_normal)
from .oracle import (LambdaChoice, MatrixRep, build_exceptional_simple,
                     build_homogeneous, build_length_two, check_relations,
                     direct_sum, hom_dim_linear)
from .tubes import (RegularModuleClass, TubeIndec, dim_vector, end_dim,
                    hom_dim_regular, hom_dim_tube, hom_to_simple_nonzero,
                    parse_regular_class, parse_tube_indec, top_index)
from .zeroset import (OutsideProvenRange, ZeroSetReport, ZTriple,
                      check_wild_margin, component_count_formula,
                      components_bruteforce, diff, enumerate_Zp,
                      equality_stratum_count, plus_condition, strata,
                      stratum_dim, target_zero_dim, wild_margin,
                      zeroset_is_ci, zeroset_threshold)

__version__ = "0.1.0"
