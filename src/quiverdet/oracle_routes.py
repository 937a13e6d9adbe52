"""The oracle routes of ``hilbert_series``, run together.

``hilbert_series`` runs the local routes on enumerated masks itself and
hands every other call here: given facets, or any route of ``complex``
(the folds, the corner routes, the face-DFS transforms).  The routes read
facet masks and build no ``CellSet``; one ``complex._ridge_walk`` gives the
folds and the boundary generators, and ``complex._brute_walk`` the face
table, storing no face.  No CLI command takes that path, so no command
compiles this module; ``verify`` runs the same routes off its own walks.
"""

from __future__ import annotations

from .bitslice import _restriction_columns
from .chains import CellSet
from .complex import (_brute_walk, _check_guard, _corner_routes, _h_from_f, _h_from_interior,
                      _ridge_fold, _ridge_walk)
from .errors import ValidationError
from .moves import _facet_masks
from .quiver import Instance, _listed
from .series import (ASCENDING_FOLD, CORNER_ROUTES, DESCENDING_FOLD, F_TRANSFORM, FOLD_ROUTES,
                     INTERIOR, LOCAL_ROUTES, HilbertSeries, _agreed, _local_h)


def _oracle_series(instance: Instance, facets, routes: frozenset, max_cells_guard: int,
                   facet_cap: int) -> HilbertSeries:
    """``hilbert_series`` on given facets, or with an oracle route among ``routes``.

    ``routes`` are valid route names.  Every route but ``f_transform`` reads
    the facets' masks, enumerated under ``facet_cap`` unless given;
    ``f_transform`` and ``interior`` read the face DFS, under
    ``max_cells_guard``, and ``interior`` counts its faces against the
    walk's boundary generators.  Given facets that the local routes read
    are walked too, and the folds join the comparison.
    """
    if facets is not None:
        facets = _listed(facets, "facets")
        # the local routes read R(F) off the instance, not off the list: the
        # folds of the list's walk hold the list to them (a facet left out
        # changes the walk's R(F) of its neighbours across a ridge)
        if routes & LOCAL_ROUTES:
            routes |= FOLD_ROUTES
        if not facets:
            raise ValidationError("facets is empty; every instance has at least one facet")
        if not all(isinstance(f, CellSet) and f.instance == instance for f in facets):
            raise ValidationError("facets must be cell sets of the instance the series is for")
        masks = sorted(f.mask for f in facets)
        if len(set(masks)) != len(masks):
            raise ValidationError("facets lists a facet more than once")
    else:
        masks = _facet_masks(instance, facet_cap) if routes - {F_TRANSFORM} else None
    # one walk: the folds read it both ways, and its open ridges are the boundary generators
    walk = _ridge_walk(masks) if routes & (FOLD_ROUTES | {INTERIOR}) else None
    found = {}
    if routes & LOCAL_ROUTES:
        found.update(_local_h(_restriction_columns(instance, masks)))
    if routes & FOLD_ROUTES:
        found[ASCENDING_FOLD], found[DESCENDING_FOLD], _ = _ridge_fold(walk)
    if routes & CORNER_ROUTES:
        found.update(_corner_routes(instance, masks)[0])
    results = {route: found[route] for route in sorted(routes & found.keys())}
    if routes & {F_TRANSFORM, INTERIOR}:
        _check_guard(instance, max_cells_guard)
        table = _brute_walk(instance, list(walk[1]) if INTERIOR in routes else None)[1]
        for route, transform in ((F_TRANSFORM, _h_from_f), (INTERIOR, _h_from_interior)):
            if route in routes:
                results[route] = transform(table, instance.n_cells)
    return _agreed(results, instance.n_cells, None if masks is None else len(masks))
