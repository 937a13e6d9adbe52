import random

import pytest

from quiverdet import (ALL_ROUTES, CORNER_ROUTES, FOLD_ROUTES, CrossCheckError, ValidationError,
                       enumerate_facets, f_vector, hilbert_series, interior_faces)
from quiverdet.cli import parse_preset
from quiverdet.complex import FaceTable
from quiverdet.series import (F_TRANSFORM, INTERIOR, LOCAL_ROUTES, NW_CORNERS, SE_CORNERS,
                              HilbertSeries, face_counts)
from quiverdet.verify import random_instance

from golden import DOUBLE_H, DOUBLE_MULTIPLICITY, STAR_H, STAR_MULTIPLICITY

# the three h-polynomial routes that do not need the interior faces
H_ROUTES = {SE_CORNERS, NW_CORNERS, F_TRANSFORM}


def test_h_polynomial_reference(double_instance, star_instance, single_cell):
    assert hilbert_series(double_instance, routes=H_ROUTES).numerator == DOUBLE_H
    assert hilbert_series(star_instance, routes=H_ROUTES).numerator == STAR_H
    assert hilbert_series(single_cell, routes=H_ROUTES).numerator == (1,)


def test_h_polynomial_routes_agree(double_instance):
    for route in (SE_CORNERS, NW_CORNERS, F_TRANSFORM):
        assert hilbert_series(double_instance, routes={route}).numerator == DOUBLE_H
    with pytest.raises(Exception):
        hilbert_series(double_instance, routes={"nonsense"})


def test_hilbert_series_rejects_bad_routes(double_instance):
    with pytest.raises(ValidationError, match="nonempty subset"):
        hilbert_series(double_instance, routes={SE_CORNERS, "nonsense"})
    with pytest.raises(ValidationError, match="nonempty subset"):
        hilbert_series(double_instance, routes=())
    for bad in (3, [["se_corners"]]):  # not an iterable of names, and unhashable names
        with pytest.raises(ValidationError, match="nonempty subset"):
            hilbert_series(double_instance, routes=bad)


def test_hilbert_series_and_face_counts_reject_malformed_limits(double_instance):
    # a malformed cap or guard fails as ValidationError, never as a stray TypeError
    for bad in (None, 2.5, "9", True):
        with pytest.raises(ValidationError, match="cell guard"):
            hilbert_series(double_instance, routes={F_TRANSFORM}, max_cells_guard=bad)
        with pytest.raises(ValidationError, match="facet cap"):
            hilbert_series(double_instance, facet_cap=bad)
        with pytest.raises(ValidationError, match="facet cap"):
            face_counts(double_instance, facet_cap=bad)


def test_hilbert_series_rejects_bad_facet_lists(double_instance, det33):
    facets = enumerate_facets(det33)
    with pytest.raises(ValidationError, match="facets is empty"):
        hilbert_series(det33, facets=[])
    # facets of another instance, and an item that is not a cell set
    with pytest.raises(ValidationError, match="cell sets of the instance"):
        hilbert_series(det33, facets=enumerate_facets(double_instance))
    with pytest.raises(ValidationError, match="cell sets of the instance"):
        hilbert_series(det33, facets=[*facets[:-1], [tuple(c) for c in facets[-1].cells]])
    with pytest.raises(ValidationError, match="more than once"):
        hilbert_series(det33, facets=[*facets, facets[0]])
    # not an iterable: a ValidationError, never a stray TypeError
    for bad in (5, 2.5, object()):
        with pytest.raises(ValidationError, match="facets must be an iterable"):
            hilbert_series(det33, facets=bad)
    assert hilbert_series(det33, facets=facets).numerator == (1, 1, 1)
    # any iterable is taken as a list once: a generator is read in full
    for routes in ({SE_CORNERS}, {F_TRANSFORM, SE_CORNERS}, H_ROUTES):
        assert hilbert_series(det33, facets=(f for f in facets), routes=routes) == \
            hilbert_series(det33, facets=facets, routes=routes)


def test_hilbert_series_dispatches_every_route_union(monkeypatch, det33, double_instance,
                                                     single_cell):
    # every nonempty union of the five route groups, on enumerated and on given
    # facets, gives the default series; the masks are enumerated once a call,
    # not at all for f_transform alone, and never on given facets
    from itertools import combinations

    import quiverdet.series as series

    groups = [LOCAL_ROUTES, FOLD_ROUTES, CORNER_ROUTES, {F_TRANSFORM}, {INTERIOR}]
    unions = [frozenset().union(*union)
              for k in range(1, len(groups) + 1) for union in combinations(groups, k)]
    enumerations = []
    real = series._facet_masks
    monkeypatch.setattr(series, "_facet_masks",
                        lambda *args: enumerations.append(args) or real(*args))
    for inst in (det33, double_instance, parse_preset("det:2,4,1"), single_cell):
        want = hilbert_series(inst)
        facets = enumerate_facets(inst)
        for routes in unions:
            enumerations.clear()
            assert hilbert_series(inst, routes=routes) == want, routes
            assert len(enumerations) == (routes != {F_TRANSFORM}), routes
            enumerations.clear()
            assert hilbert_series(inst, facets=facets, routes=routes) == want, routes
            assert enumerations == [], routes


def test_triple_agreement_random():
    rng = random.Random(3)
    for _ in range(12):
        inst = random_instance(rng)
        facets = enumerate_facets(inst)
        h = hilbert_series(inst, facets=facets, routes=H_ROUTES).numerator
        assert h == hilbert_series(inst, routes={F_TRANSFORM}).numerator
        assert sum(h) == len(facets)
        assert h[0] == 1
        assert all(c >= 0 for c in h)
        assert len(h) - 1 <= inst.n_cells


def test_hilbert_series_reference(double_instance, star_instance, single_cell):
    s = hilbert_series(double_instance, routes=ALL_ROUTES)
    assert s.render() == "(1+7t+4t^2)/(1-t)^5"
    s = hilbert_series(star_instance, routes=ALL_ROUTES)
    assert s.render() == "(1+7t+19t^2+19t^3+7t^4+t^5)/(1-t)^11"
    assert s.numerator == STAR_H
    s = hilbert_series(single_cell, routes=ALL_ROUTES)
    assert s.render() == "(1)/(1-t)^1"
    assert s.numerator == (1,)


def test_star_factorization(star_instance):
    # the reference display factors the numerator as (1+t)(1+6t+13t^2+6t^3+t^4)
    a = (1, 1)
    b = (1, 6, 13, 6, 1)
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    assert tuple(prod) == hilbert_series(star_instance).numerator


def test_multiplicity(double_instance, star_instance, det33):
    assert hilbert_series(double_instance).multiplicity == DOUBLE_MULTIPLICITY
    assert hilbert_series(star_instance).multiplicity == STAR_MULTIPLICITY
    assert hilbert_series(det33).multiplicity == 3


def test_gorenstein_hint(double_instance, star_instance, single_cell):
    assert hilbert_series(star_instance).palindromic is True
    assert hilbert_series(double_instance).palindromic is False
    assert hilbert_series(single_cell).palindromic is True


def test_series_json_and_invariants(double_instance):
    s = hilbert_series(double_instance)
    obj = s.to_json_obj()
    assert obj == {"numerator": [1, 7, 4], "denominator_exponent": 5,
                   "multiplicity": 12, "palindromic": False}
    with pytest.raises(CrossCheckError):
        HilbertSeries((1, -1), 2)


def test_face_counts_match_dfs(single_cell, det33, double_instance, star_instance):
    # the h-vector route against the face DFS; det:2,2,3 has one facet, a full
    # simplex, and single_cell is det:1,1,1
    rng = random.Random(9)
    instances = [single_cell, det33, double_instance, star_instance,
                 parse_preset("det:2,2,3", mode="normalize")]
    instances += [random_instance(rng, max_cells=rng.randint(4, 20)) for _ in range(60)]
    for inst in instances:
        oracle = interior_faces(inst, f_vector(inst, store_faces=True), enumerate_facets(inst))
        assert face_counts(inst) == FaceTable(oracle.counts_by_size)
        fast = face_counts(inst, interior=True)
        assert fast.f_vector == oracle.f_vector
        assert fast.interior_by_size == oracle.interior_by_size
        assert fast.boundary_generators == oracle.boundary_generators


def test_oracle_routes_read_masks_and_walk_once(monkeypatch, star_instance):
    # every route of hilbert_series on enumerated facets: no CellSet is built,
    # the face DFS stores no face (storing them took the traced peak of this
    # call to 1.24 MB), and one ridge walk feeds both folds and the interior
    # route's boundary generators
    import tracemalloc

    import quiverdet.complex as cx
    from quiverdet.chains import CellSet

    inst = star_instance
    want = HilbertSeries(STAR_H, inst.n_cells)
    assert hilbert_series(inst, routes=ALL_ROUTES) == want  # fill the per-instance caches
    built, walks = [], []
    real_init, real_from_mask, real_walk = CellSet.__init__, CellSet.from_mask, cx._ridge_walk

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def walk(masks):
        walks.append(len(masks))
        return real_walk(masks)

    monkeypatch.setattr(CellSet, "__init__", init)
    monkeypatch.setattr(CellSet, "from_mask",
                        classmethod(lambda cls, *args: built.append(args) or real_from_mask(*args)))
    monkeypatch.setattr(cx, "_ridge_walk", walk)
    tracemalloc.start()
    try:
        assert hilbert_series(inst, routes=ALL_ROUTES) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == []
    assert walks == [STAR_MULTIPLICITY]
    assert peak <= 400_000, peak
