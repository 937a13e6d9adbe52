"""The Z-graded Hilbert series h(t) / (1 - t)^N, by independent routes.

All polynomial arithmetic is exact over the integers.  The numerator, the
h-polynomial, has eight routes.  The default pair, ``ascending_local`` and
``descending_local``, count the facets by their restriction faces in
ascending and in descending mask order, both shellings, each face read
locally: a cell c lies in R(F) when F - c has an addable cell below c
(above c, descending).  ``bitslice._restriction_columns`` tests every
ridge of a chunk of facets in per-cell batches, and ``_local_h`` tallies
the faces' sizes; no ridge is stored and no facet is compared with another.

``hilbert_series`` reads the facet masks once, runs the local routes and
takes the six oracle routes' numerators from ``complex._oracle_numerators``,
loaded only when one of them runs or facets are given.  The two folds,
``ascending_fold`` and ``descending_fold``, count the ridges each facet
shares with earlier and with later facets, off one ``complex._ridge_walk``
of their masks; ``verify`` walks its facets once for its folds, boundary
generators, shelling and codim-1 checks, and compares its routes with
``_agreed``, the comparison ``hilbert_series`` ends with.  ``se_corners``
and ``nw_corners`` count the facets by essential SE or NW corners (the
paper's formula: the ascending and the descending restriction counts), off
one bit-sliced corner batch, ``cvm._corner_counts``.  ``f_transform`` and
``interior`` transform the f-vector and the interior faces of the face DFS,
``complex._brute_walk``.  Multiplicity h(1) and the Gorenstein
indicator (a palindromic h-vector) are read off the series.  The routes are
mathematically equal, so any disagreement is reported as an internal error
rather than a result.

Both face transforms are invertible: ``_f_from_h`` undoes
``complex._h_from_f`` on h and ``complex._h_from_interior`` on h reversed,
since the complex is a ball and the relative complex (Δ, ∂Δ) has h-vector h
reversed (Stanley, *Combinatorics and Commutative Algebra*, 2nd ed., II.7).
``face_counts`` reads the f-vector and the interior vector off the local
h-vector that way.

The local routes are on the mask path: this module loads only ``errors``,
``quiver``, ``moves`` and ``bitslice``, and tallies bare masks when no
other route reads facets.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb
from typing import NamedTuple

from .bitslice import _restriction_columns, _tally
from .errors import DEFAULT_FACET_CAP, DEFAULT_MAX_CELLS, CrossCheckError, ValidationError
from .moves import _facet_masks
from .quiver import Instance

ASCENDING_LOCAL = "ascending_local"
DESCENDING_LOCAL = "descending_local"
ASCENDING_FOLD = "ascending_fold"
DESCENDING_FOLD = "descending_fold"
SE_CORNERS = "se_corners"
NW_CORNERS = "nw_corners"
F_TRANSFORM = "f_transform"
INTERIOR = "interior"
LOCAL_ROUTES = frozenset({ASCENDING_LOCAL, DESCENDING_LOCAL})
FOLD_ROUTES = frozenset({ASCENDING_FOLD, DESCENDING_FOLD})
CORNER_ROUTES = frozenset({SE_CORNERS, NW_CORNERS})
ALL_ROUTES = LOCAL_ROUTES | FOLD_ROUTES | CORNER_ROUTES | {F_TRANSFORM, INTERIOR}


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


class _SeriesFields(NamedTuple):
    numerator: tuple[int, ...]
    denominator_exponent: int


class HilbertSeries(_SeriesFields):
    """A rational series numerator / (1 - t)^N with nonnegative integer numerator."""

    __slots__ = ()

    def __new__(cls, numerator, denominator_exponent):
        if any(h < 0 for h in numerator):
            raise CrossCheckError(f"negative h-vector entry in {numerator}")
        return super().__new__(cls, numerator, denominator_exponent)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)

    @property
    def multiplicity(self) -> int:
        return sum(self.numerator)

    @property
    def palindromic(self) -> bool:
        return self.numerator == tuple(reversed(self.numerator))

    def render(self) -> str:
        terms = []
        for i, h in enumerate(self.numerator):
            if h == 0:
                continue
            if i == 0:
                terms.append(str(h))
            else:
                coef = "" if h == 1 else str(h)
                power = "t" if i == 1 else f"t^{i}"
                terms.append(f"{coef}{power}")
        num = "+".join(terms) if terms else "0"
        return f"({num})/(1-t)^{self.denominator_exponent}"

    def to_json_obj(self) -> dict:
        return {"numerator": list(self.numerator),
                "denominator_exponent": self.denominator_exponent,
                "multiplicity": self.multiplicity,
                "palindromic": self.palindromic}


class FaceTable(NamedTuple):
    """Face counts by cardinality (index = number of cells = dimension + 1)."""

    counts_by_size: tuple[int, ...]
    faces_by_size: tuple[tuple[int, ...], ...] | None = None
    interior_by_size: tuple[int, ...] | None = None
    boundary_generators: int | None = None

    @property
    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_{N-1})."""
        return self.counts_by_size

    @property
    def total(self) -> int:
        return sum(self.counts_by_size)

    @property
    def interior_total(self) -> int:
        return sum(self.interior_by_size or ())

    def to_json_obj(self) -> dict:
        obj = {"f_vector": list(self.counts_by_size), "total": self.total}
        if self.interior_by_size is not None:
            obj["interior_vector"] = list(self.interior_by_size)
            obj["interior_total"] = self.interior_total
            obj["boundary_generators"] = self.boundary_generators
        return obj


def _f_from_h(h: tuple[int, ...], n_top: int) -> tuple[int, ...]:
    """Face counts by cardinality k = 0..N, f_{k-1} = sum_i C(N - i, k - i) h_i.

    Entries of ``h`` past its end count as 0.
    """
    return tuple(sum(comb(n_top - i, k - i) * h[i] for i in range(min(k + 1, len(h))))
                 for k in range(n_top + 1))


def _local_h(chunks) -> dict[str, tuple[int, ...]]:
    """The local routes' numerators, off the chunks of ``bitslice._restriction_columns``.

    h_i counts the facets whose restriction face has i cells; ``_tally``
    counts a chunk's facets by the cells of their ``below`` and their
    ``above`` columns.
    """
    h: dict[str, list[int]] = {ASCENDING_LOCAL: [], DESCENDING_LOCAL: []}
    for _, every, _, below, above, _ in chunks:
        for route, columns in ((ASCENDING_LOCAL, below), (DESCENDING_LOCAL, above)):
            h[route] = list(map(sum, zip_longest(h[route], _tally(columns, every), fillvalue=0)))
    return {route: _trim(total) for route, total in h.items()}


def _agreed(results: dict[str, tuple[int, ...]], n_top: int,
            n_facets: int | None) -> HilbertSeries:
    """The series of the routes' one numerator: they must agree, and h(1) equal ``n_facets``."""
    if len(set(results.values())) != 1:
        raise CrossCheckError(f"series routes disagree: {results}")
    series = HilbertSeries(next(iter(results.values())), n_top)
    if n_facets is not None and series.multiplicity != n_facets:
        raise CrossCheckError(f"h(1) = {series.multiplicity} but {n_facets} facets enumerated")
    return series


def hilbert_series(instance: Instance, facets=None, routes=LOCAL_ROUTES,
                   max_cells_guard: int = DEFAULT_MAX_CELLS,
                   facet_cap: int = DEFAULT_FACET_CAP) -> HilbertSeries:
    """The series h(t) / (1 - t)^N, its numerator computed by every route in ``routes``.

    The default local routes, run here, count the facets by their
    restriction faces in ascending and in descending order, each read off
    per-cell addable batches of the masks (see
    ``bitslice._restriction_columns``).  ``complex._oracle_numerators`` runs
    the others: the fold routes count the ridges each facet closes along one
    walk of the masks, and the corner routes essential SE or NW corners.
    All of these read the facets, enumerated once as bare masks under
    ``facet_cap`` unless given; only the corner routes reject a non-facet.
    The local routes read each facet's face off the instance, not off the
    list, so on given facets the folds run with them and hold the list to
    them.  ``f_transform`` and ``interior`` read the face table of the
    brute-force DFS, under ``max_cells_guard``; ``interior`` counts its
    faces inside no boundary generator of the facets.  Given facets, in any
    iterable, must be distinct cell sets of ``instance``, at least one.  All
    requested routes must agree, and when facets were used, h(1) must equal
    their number.  A call with only local routes on enumerated masks loads
    no ``complex``.
    """
    try:
        names = frozenset(routes)
    except TypeError:  # not an iterable of hashable names
        names = frozenset()
    if not names or not names <= ALL_ROUTES:
        raise ValidationError(
            f"routes must be a nonempty subset of {sorted(ALL_ROUTES)}, got {routes!r}")
    if facets is not None:
        from .complex import _given_masks

        masks = _given_masks(instance, facets)
        # the local routes read R(F) off the instance, not off the list: the
        # folds of the list's walk hold the list to them (a facet left out
        # changes the walk's R(F) of its neighbours across a ridge)
        if names & LOCAL_ROUTES:
            names |= FOLD_ROUTES
    else:
        masks = _facet_masks(instance, facet_cap) if names - {F_TRANSFORM} else None
    found = _local_h(_restriction_columns(instance, masks)) if names & LOCAL_ROUTES else {}
    if names - LOCAL_ROUTES:
        from .complex import _oracle_numerators

        found.update(_oracle_numerators(instance, masks, names, max_cells_guard))
    return _agreed({route: found[route] for route in sorted(names)}, instance.n_cells,
                   None if masks is None else len(masks))


def face_counts(instance: Instance, interior: bool = False,
                facet_cap: int = DEFAULT_FACET_CAP) -> FaceTable:
    """The f-vector, and with ``interior`` the interior vector, read off the h-vector.

    h comes from the local routes of ``hilbert_series``; the interior vector is
    the same transform of h reversed, and the boundary generators are the
    ridges that are not interior.  The oracle is the face table of the DFS,
    ``complex._brute_walk``, which ``complex.f_vector`` and the ``f_transform``
    and ``interior`` routes read; with no DFS, ``facet_cap`` is the limit.
    """
    h = hilbert_series(instance, facet_cap=facet_cap).numerator
    n_top = instance.n_cells
    f = _f_from_h(h, n_top)
    if not interior:
        return FaceTable(f)
    inside = _f_from_h((0,) * (n_top + 1 - len(h)) + h[::-1], n_top)
    return FaceTable(f, interior_by_size=inside,
                     boundary_generators=f[n_top - 1] - inside[n_top - 1])
