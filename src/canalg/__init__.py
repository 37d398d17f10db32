"""Exact decision procedures for the geometry of module varieties over
canonical algebras: complete-intersection and normality criteria, irreducible
components, tube combinatorics, semi-invariant zero sets, and a matrix-level
oracle validating the combinatorial layer.

Names are exported lazily (PEP 562): ``import canalg`` loads no submodule, and
the first access to a name imports the module that owns it."""

from importlib import import_module

_EXPORTS = {
    "cones": ("EnumerationCapExceeded", "decompose_slope_one", "enumerate_P", "in_P", "in_Q"),
    "forms": ("CanonicalType", "DimVector", "a_dim", "basis_e", "basis_e0", "basis_einf",
              "basis_h", "euler_form", "euler_quadratic", "format_dim_vector", "gl_dim",
              "parse_dim_vector", "quadratic_lower_bound", "quadratic_via_decomposition",
              "slope_one_vector", "zero_vector"),
    "geometry": ("boundary_component_count", "ci_defect", "ci_failure_witness",
                 "classify_type", "component_count", "irreducible_components",
                 "is_complete_intersection", "is_normal"),
    "oracle": ("LambdaChoice", "MatrixRep", "build_exceptional_simple", "build_homogeneous",
               "build_length_two", "check_relations", "direct_sum", "hom_dim_linear"),
    "tubes": ("RegularModuleClass", "TubeIndec", "dim_vector", "end_dim", "hom_dim_regular",
              "hom_dim_tube", "hom_to_simple_nonzero", "parse_regular_class",
              "parse_tube_indec", "top_index"),
    "zeroset": ("OutsideProvenRange", "ZeroSetReport", "ZTriple", "check_wild_margin",
                "component_count_formula", "components_bruteforce", "diff", "enumerate_Zp",
                "equality_stratum_count", "plus_condition", "strata", "stratum_dim",
                "target_zero_dim", "wild_margin", "zeroset_is_ci", "zeroset_threshold"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "checks", "cli", "linalg", "zpstream"}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule ``name``, or the module that owns the exported
    ``name``; an exported value is then kept in the package namespace."""
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value
