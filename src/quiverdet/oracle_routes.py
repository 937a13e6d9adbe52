"""The oracle routes of ``hilbert_series``, run together.

``hilbert_series`` runs the local routes on enumerated masks itself and
hands every other call here: given facets, or any route of ``complex``
(the folds, the corner routes, the face-DFS transforms).  No CLI command
takes that path, so no command compiles this module; ``verify`` runs the
same routes off its own walk and batches.
"""

from __future__ import annotations

from .bitslice import _restriction_columns
from .chains import CellSet
from .complex import (_corner_routes, _h_from_f, _h_from_interior, _listed, _ridge_fold,
                      _ridge_walk, f_vector, interior_faces)
from .errors import ValidationError
from .moves import _facet_masks, enumerate_facets
from .quiver import Instance
from .series import (ASCENDING_FOLD, CORNER_ROUTES, DESCENDING_FOLD, F_TRANSFORM, FOLD_ROUTES,
                     INTERIOR, LOCAL_ROUTES, HilbertSeries, _agreed, _local_h)


def _oracle_series(instance: Instance, facets, routes: frozenset, max_cells_guard: int,
                   facet_cap: int) -> HilbertSeries:
    """``hilbert_series`` on given facets, or with an oracle route among ``routes``.

    ``routes`` are valid route names.  The local routes and the folds read
    the facets' masks, the corner routes and ``interior`` the facets,
    enumerated under ``facet_cap`` unless given; ``f_transform`` and
    ``interior`` read the face DFS, under ``max_cells_guard``.  Given facets
    that the local routes read are walked too, and the folds join the
    comparison.
    """
    if facets is not None:
        facets = _listed(facets)
        # the local routes read R(F) off the instance, not off the list: the
        # folds of the list's walk hold the list to them (a facet left out
        # changes the walk's R(F) of its neighbours across a ridge)
        if routes & LOCAL_ROUTES:
            routes |= FOLD_ROUTES
        if not facets:
            raise ValidationError("facets is empty; every instance has at least one facet")
        if not all(isinstance(f, CellSet) and f.instance == instance for f in facets):
            raise ValidationError("facets must be cell sets of the instance the series is for")
        if len({f.mask for f in facets}) != len(facets):
            raise ValidationError("facets lists a facet more than once")
    elif routes & (CORNER_ROUTES | {INTERIOR}):
        facets = enumerate_facets(instance, facet_cap=facet_cap)
    if facets is not None:
        masks = sorted(f.mask for f in facets)
    else:  # no route reads more than masks: build no CellSet
        masks = (_facet_masks(instance, facet_cap) if routes & (LOCAL_ROUTES | FOLD_ROUTES)
                 else None)
    n_top = instance.n_cells
    found = {}
    if routes & LOCAL_ROUTES:
        found.update(_local_h(_restriction_columns(instance, masks)))
    if routes & FOLD_ROUTES:  # one walk: the descending order is the ascending one reversed
        found[ASCENDING_FOLD], found[DESCENDING_FOLD], _ = _ridge_fold(_ridge_walk(masks))
    if routes & CORNER_ROUTES:
        found.update(_corner_routes(instance, masks)[0])
    results = {route: found[route] for route in sorted(routes & found.keys())}
    if routes & {F_TRANSFORM, INTERIOR}:
        table = f_vector(instance, max_cells_guard=max_cells_guard,
                         store_faces=INTERIOR in routes)
        if F_TRANSFORM in routes:
            results[F_TRANSFORM] = _h_from_f(table, n_top)
        if INTERIOR in routes:
            results[INTERIOR] = _h_from_interior(interior_faces(instance, table, facets), n_top)
    return _agreed(results, n_top, None if masks is None else len(masks))
