"""The Z-graded Hilbert series h(t) / (1 - t)^N, by independent routes.

All polynomial arithmetic is exact over the integers.  The numerator, the
h-polynomial, has six routes.  The default pair, ``ascending_fold`` and
``descending_fold``, count the facets by the ridges each one shares with
earlier and with later facets in ascending order, both shellings:
``_ridge_fold`` reads both off one ``_ridge_walk`` of their masks.
``complex`` reads restriction faces and boundary generators off that walk,
and ``verify`` walks its facets once for its folds, boundary generators,
shelling and codim-1 checks; it compares its routes with ``_agreed``, the
comparison ``hilbert_series`` ends with.  The folds' oracle is the paper's
formula: ``se_corners`` and ``nw_corners`` count the facets by essential SE
or NW corners (the ascending and the descending restriction counts), which
one bit-sliced corner batch, ``cvm._corner_counts``, reads off their masks.
``f_transform`` and ``interior`` transform the f-vector and the interior
faces of the face DFS, which ``hilbert_series`` runs itself.  Multiplicity
h(1) and the Gorenstein indicator (a palindromic h-vector) are read off the
series.  The routes are mathematically equal, so any disagreement is
reported as an internal error rather than a result.

Both face transforms are invertible: ``_f_from_h`` undoes ``_h_from_f`` on h
and ``_h_from_interior`` on h reversed, since the complex is a ball and the
relative complex (Δ, ∂Δ) has h-vector h reversed (Stanley, *Combinatorics and
Commutative Algebra*, 2nd ed., II.7).  ``face_counts`` reads the f-vector and
the interior vector off the fold h-vector that way.

The folds are on the mask path: this module loads only ``errors``,
``quiver`` and ``moves``, and folds bare masks when no other route reads
facets; the oracle routes and given facets' check import theirs when run.
"""

from __future__ import annotations

from itertools import compress
from math import comb
from typing import NamedTuple

from .errors import DEFAULT_FACET_CAP, DEFAULT_MAX_CELLS, CrossCheckError, ValidationError
from .moves import _facet_masks, enumerate_facets
from .quiver import Instance

ASCENDING_FOLD = "ascending_fold"
DESCENDING_FOLD = "descending_fold"
SE_CORNERS = "se_corners"
NW_CORNERS = "nw_corners"
F_TRANSFORM = "f_transform"
INTERIOR = "interior"
FOLD_ROUTES = frozenset({ASCENDING_FOLD, DESCENDING_FOLD})
CORNER_ROUTES = frozenset({SE_CORNERS, NW_CORNERS})
ALL_ROUTES = FOLD_ROUTES | CORNER_ROUTES | {F_TRANSFORM, INTERIOR}


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _one_minus_t_power(n: int) -> list[int]:
    return [(-1) ** i * comb(n, i) for i in range(n + 1)]


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


def _ridge_walk(masks) -> tuple[list[int], dict[int, int], list[int]]:
    """Each mask's restriction mask in the order given, the open ridges, and its later closes.

    Walking the masks, F closes each open ridge F - c (a ridge lies in at
    most two facets) and opens the others.  The closing cells form F's
    restriction face R(F), the cells whose ridge lies in an earlier facet
    (Björner–Wachs, Trans. AMS 348, 1996); the ridges left open are those
    in exactly one facet, the boundary generators, keyed to their facet's
    index.  A close also credits the facet that opened the ridge: ``later[j]``
    counts mask j's ridges in a later mask, its restriction size along the
    reversed order, unless a ridge lies in three or more masks (the walk
    pairs them in list order); ``verify``'s codim-1 check holds every ridge
    of a facet list to one or two owners.  A facet's cells are the cell bits
    that ``compress`` picks by its mask's binary digits, lowest first, so
    ``masks`` must be a sequence of nonnegative ints.
    """
    opener: dict[int, int] = {}
    restrictions, later = [], []
    cells = [1 << r for r in range(max(masks, default=0).bit_length())]
    digits = bytes.maketrans(b"01", b"\0\1")
    for j, mask in enumerate(masks):
        restriction = 0
        later.append(0)
        for low in compress(cells, f"{mask:b}"[::-1].encode().translate(digits)):
            ridge = mask ^ low
            i = opener.pop(ridge, None)
            if i is None:
                opener[ridge] = j
            else:
                restriction |= low
                later[i] += 1
        restrictions.append(restriction)
    return restrictions, opener, later


def _ridge_fold(walk) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """h along the walk's order and along its reverse, and the number of open ridges.

    h counts the facets by their restriction sizes.  One ``_ridge_walk``
    gives both orders: a facet's restriction along the reversed order is
    its ridges that lie in a later facet.
    """
    restrictions, open_ridges, later = walk
    sizes = [r.bit_count() for r in restrictions], later
    return *(tuple(map(s.count, range(max(s, default=0) + 1))) for s in sizes), len(open_ridges)


def _h_from_f(table: FaceTable, n_top: int) -> tuple[int, ...]:
    acc = [0] * (n_top + 1)
    for size, count in enumerate(table.counts_by_size):
        if count == 0:
            continue
        for i, c in enumerate(_one_minus_t_power(n_top - size)):
            acc[size + i] += count * c
    return _trim(acc)


def _h_from_interior(table: FaceTable, n_top: int) -> tuple[int, ...]:
    if table.interior_by_size is None:
        raise ValidationError("interior counts not computed")
    acc = [0] * (n_top + 1)
    for size, count in enumerate(table.interior_by_size):
        if count == 0:
            continue
        sign = (-1) ** (n_top - size)
        for i, c in enumerate(_one_minus_t_power(n_top - size)):
            acc[i] += sign * count * c
    return _trim(acc)


def _f_from_h(h: tuple[int, ...], n_top: int) -> tuple[int, ...]:
    """Face counts by cardinality k = 0..N, f_{k-1} = sum_i C(N - i, k - i) h_i.

    ``h`` must be padded to length N + 1.
    """
    return tuple(sum(comb(n_top - i, k - i) * h[i] for i in range(k + 1))
                 for k in range(n_top + 1))


def _corner_routes(instance: Instance, masks: list[int],
                   bits=None) -> tuple[dict[str, tuple[int, ...]], list[int]]:
    """The corner routes' numerators, and each facet's essential SE count, from one corner batch.

    h_i counts the facets with i essential corners, off their masks or the
    ``bits`` of ``verify``'s criteria batch, whose shelling check reads the SE counts.
    """
    from .cvm import _corner_counts

    nw, se = zip(*_corner_counts(instance, masks, bits))
    return {route: _trim(list(map(counts.count, range(instance.n_cells + 1))))
            for route, counts in ((NW_CORNERS, nw), (SE_CORNERS, se))}, list(se)


def _agreed(results: dict[str, tuple[int, ...]], n_top: int,
            n_facets: int | None) -> HilbertSeries:
    """The series of the routes' one numerator: they must agree, and h(1) equal ``n_facets``."""
    if len(set(results.values())) != 1:
        raise CrossCheckError(f"series routes disagree: {results}")
    series = HilbertSeries(next(iter(results.values())), n_top)
    if n_facets is not None and series.multiplicity != n_facets:
        raise CrossCheckError(f"h(1) = {series.multiplicity} but {n_facets} facets enumerated")
    return series


def hilbert_series(instance: Instance, facets=None, routes=FOLD_ROUTES,
                   max_cells_guard: int = DEFAULT_MAX_CELLS,
                   facet_cap: int = DEFAULT_FACET_CAP) -> HilbertSeries:
    """The series h(t) / (1 - t)^N, its numerator computed by every route in ``routes``.

    The default fold routes count the facets by the ridges each one closes
    over their masks in ascending and in descending order, both off one
    walk over the ascending masks (see ``_ridge_walk``); the corner
    routes, their oracle, by essential SE or NW corners.  Both read the
    facets, enumerated under ``facet_cap`` unless given (as bare masks if
    only folds read them); only the corner routes reject a non-facet.
    ``f_transform`` and ``interior`` read the face table of the brute-force
    DFS, under ``max_cells_guard``; ``interior`` also marks interior faces
    against the facets.  Given facets must be distinct cell sets of
    ``instance``, at least one.  All requested routes must agree, and when
    facets were used, h(1) must equal their number.
    """
    try:
        names = frozenset(routes)
    except TypeError:  # not an iterable of hashable names
        names = frozenset()
    if not names or not names <= ALL_ROUTES:
        raise ValidationError(
            f"routes must be a nonempty subset of {sorted(ALL_ROUTES)}, got {routes!r}")
    routes = names
    if facets is not None:
        from .chains import CellSet

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
        masks = _facet_masks(instance, facet_cap) if routes & FOLD_ROUTES else None
    n_top = instance.n_cells
    results = {}
    if routes & FOLD_ROUTES:  # one walk: the descending order is the ascending one reversed
        up, down, _ = _ridge_fold(_ridge_walk(masks))
        folds = {ASCENDING_FOLD: up, DESCENDING_FOLD: down}
        results.update((route, folds[route]) for route in sorted(routes & FOLD_ROUTES))
    if routes & CORNER_ROUTES:
        corner_h = _corner_routes(instance, masks)[0]
        results.update((route, corner_h[route]) for route in sorted(routes & CORNER_ROUTES))
    if routes & {F_TRANSFORM, INTERIOR}:
        from .complex import f_vector, interior_faces

        table = f_vector(instance, max_cells_guard=max_cells_guard,
                         store_faces=INTERIOR in routes)
        if F_TRANSFORM in routes:
            results[F_TRANSFORM] = _h_from_f(table, n_top)
        if INTERIOR in routes:
            results[INTERIOR] = _h_from_interior(interior_faces(instance, table, facets), n_top)
    return _agreed(results, n_top, None if masks is None else len(masks))


def face_counts(instance: Instance, interior: bool = False,
                facet_cap: int = DEFAULT_FACET_CAP) -> FaceTable:
    """The f-vector, and with ``interior`` the interior vector, read off the h-vector.

    h comes from the ridge folds of ``hilbert_series``; the interior vector is
    the same transform of h reversed, and the boundary generators are the
    ridges that are not interior.  The DFS routes ``complex.f_vector`` and
    ``interior_faces`` are the oracle; with no DFS, ``facet_cap`` is the limit.
    """
    n_top = instance.n_cells
    h = hilbert_series(instance, facet_cap=facet_cap).numerator
    h += (0,) * (n_top + 1 - len(h))
    f = _f_from_h(h, n_top)
    if not interior:
        return FaceTable(f)
    inside = _f_from_h(h[::-1], n_top)
    return FaceTable(f, interior_by_size=inside,
                     boundary_generators=f[n_top - 1] - inside[n_top - 1])
