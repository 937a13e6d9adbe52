"""Combinatorics of bipartite determinantal ideals via concurrent vertex maps.

The package models a bipartite quiver instance, enumerates the facets of the
Stanley-Reisner complex of the associated initial ideal by chute moves, and
computes multiplicities, f-vectors, interior faces, h-polynomials and
Hilbert series, each paired with an independent brute-force oracle.

The public names below load their submodule on first access (PEP 562), so
``import quiverdet`` imports no engine until one is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> home submodule; each submodule is public under its own name too
_EXPORTS = {
    "chains": ("CellSet", "is_u_compatible"),
    "complex": ("ShellingReport", "codim1_membership", "f_vector", "interior_faces",
                "verify_shelling"),
    "cvm": ("c_max", "c_min", "corners", "initial_cvm", "is_cvm", "reflect", "road_map"),
    "definitions": ("ChainStats", "ChuteMove", "CornerReport", "RoadMap", "apply_inverse",
                    "can_extend", "check_vertex_decomposition_samples", "cmp_T_sets",
                    "corner_stats", "max_diagonal_chain"),
    "errors": ("CrossCheckError", "FacetCapExceeded", "GuardExceeded", "QuiverDetError",
               "ValidationError"),
    "ideal": ("MinorSpec", "Monomial", "export_cas", "in_initial_ideal", "initial_monomials",
              "natural_generator_count", "natural_generators"),
    "moves": ("apply_move", "chutable_moves", "enumerate_facets"),
    "quiver": ("BipartiteQuiver", "Cell", "Instance", "NormalizationReport", "build_instance",
               "cmp_T", "load_instance"),
    "series": ("ALL_ROUTES", "CORNER_ROUTES", "FOLD_ROUTES", "FaceTable", "HilbertSeries",
               "hilbert_series"),
    "verify": ("brute_maximal_facet_masks", "criteria_agree", "random_instance",
               "verify_instance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
