"""Combinatorics of bipartite determinantal ideals via concurrent vertex maps.

The package models a bipartite quiver instance, enumerates the facets of the
Stanley-Reisner complex of the associated initial ideal by chute moves, and
computes multiplicities, f-vectors, interior faces, h-polynomials and
Hilbert series, each paired with an independent brute-force oracle.
"""

__version__ = "0.1.0"

from .chains import CellSet, ChainStats, can_extend, cmp_T_sets, corner_stats, is_u_compatible, max_diagonal_chain
from .complex import (FaceTable, ShellingReport, check_vertex_decomposition_samples,
                      codim1_membership, f_vector, interior_faces, verify_shelling)
from .cvm import CornerReport, RoadMap, c_max, c_min, corners, initial_cvm, is_cvm, reflect, road_map
from .errors import (CrossCheckError, FacetCapExceeded, GuardExceeded, QuiverDetError,
                     ValidationError)
from .ideal import (MinorSpec, Monomial, export_cas, in_initial_ideal, initial_monomials,
                    natural_generator_count, natural_generators)
from .moves import ChuteMove, apply_inverse, apply_move, chutable_moves, enumerate_facets
from .quiver import (BipartiteQuiver, Cell, Instance, NormalizationReport, build_instance,
                     cmp_T, load_instance)
from .series import ALL_ROUTES, CORNER_ROUTES, FOLD_ROUTES, HilbertSeries, hilbert_series
from .verify import brute_maximal_facet_masks, criteria_agree, random_instance, verify_instance

__all__ = [name for name in dir() if not name.startswith("_")]
