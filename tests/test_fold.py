"""The ridge fold, the oracle of the default local h-vector routes, held to the corner routes."""

import inspect
import random

import pytest

import quiverdet
from quiverdet import (CrossCheckError, enumerate_facets, f_vector, hilbert_series, interior_faces,
                       verify_instance)
from quiverdet.cli import main, parse_preset
from quiverdet.complex import _ridge_fold, _ridge_walk, boundary_generator_masks
from quiverdet.series import CORNER_ROUTES, FOLD_ROUTES, LOCAL_ROUTES, face_counts
from quiverdet.verify import random_instance

from golden import (DOUBLE_F_VECTOR, DOUBLE_F_TOTAL, DOUBLE_H, DOUBLE_INTERIOR,
                    DOUBLE_INTERIOR_TOTAL, STAR_F_TOTAL, STAR_F_VECTOR, STAR_H, STAR_INTERIOR,
                    STAR_INTERIOR_TOTAL, STAR_MULTIPLICITY)


def _corner_h(instance, facets):
    # both corner routes, which must agree with each other
    return hilbert_series(instance, facets=facets, routes=CORNER_ROUTES).numerator


def _assert_fold_matches_corners(instance):
    facets = enumerate_facets(instance)
    masks = [f.mask for f in facets]
    up, down, open_up = _ridge_fold(_ridge_walk(masks))
    rev_up, rev_down, open_down = _ridge_fold(_ridge_walk(masks[::-1]))
    assert up == down == rev_up == rev_down == _corner_h(instance, facets)
    assert open_up == open_down == len(boundary_generator_masks(facets))


def test_fold_matches_corners_on_fixtures(single_cell, det33, double_instance, star_instance):
    for inst in (single_cell, det33, double_instance, star_instance,
                 parse_preset("det:6,6,3")):
        _assert_fold_matches_corners(inst)


def test_fold_matches_corners_random():
    rng = random.Random(11)
    for _ in range(40):
        _assert_fold_matches_corners(random_instance(rng, max_cells=rng.randint(4, 20)))


def test_local_routes_are_the_default_and_sort_their_input(star_instance):
    assert inspect.signature(hilbert_series).parameters["routes"].default == LOCAL_ROUTES
    facets = enumerate_facets(star_instance)
    for routes in (LOCAL_ROUTES, FOLD_ROUTES):
        assert hilbert_series(star_instance, facets=facets[::-1], routes=routes).numerator == STAR_H


def test_fold_routes_catch_a_dropped_facet(star_instance):
    # the facet list without the first facet is no ball: the two scan
    # directions count its facets differently, and so do the local routes,
    # which miss the first facet's empty ascending face and its full
    # descending one
    facets = enumerate_facets(star_instance)
    for routes in (FOLD_ROUTES, LOCAL_ROUTES):
        with pytest.raises(CrossCheckError, match="series routes disagree"):
            hilbert_series(star_instance, facets=facets[1:], routes=routes)


def test_default_routes_catch_every_dropped_facet(star_instance, det33):
    # the local routes alone read each facet's face off the instance and miss
    # some of these lists; the folds of the list, which run with them on given
    # facets, and the local routes never agree on one
    rng = random.Random(17)
    instances = [star_instance, det33, parse_preset("det:4,5,2")]
    instances += [random_instance(rng, max_cells=14) for _ in range(8)]
    for inst in instances:
        facets = enumerate_facets(inst)
        for drop in range(len(facets) if len(facets) > 1 else 0):
            with pytest.raises(CrossCheckError, match="series routes disagree"):
                hilbert_series(inst, facets=facets[:drop] + facets[drop + 1:])


def _raise(*_args, **_kwargs):
    raise AssertionError("cvm.corners called")


@pytest.mark.parametrize("argv, expected", [
    (("hilbert", "--preset", "star-example"), ["(1+7t+19t^2+19t^3+7t^4+t^5)/(1-t)^11"]),
    (("hvector", "--preset", "double:2,3,2,1,1"), [" ".join(map(str, DOUBLE_H))]),
    (("multiplicity", "--preset", "star-example"), [str(STAR_MULTIPLICITY)]),
    (("fvector", "--preset", "double:2,3,2,1,1"),
     [" ".join(map(str, DOUBLE_F_VECTOR)), f"total {DOUBLE_F_TOTAL}"]),
    (("fvector", "--preset", "star-example"),
     [" ".join(map(str, STAR_F_VECTOR)), f"total {STAR_F_TOTAL}"]),
    (("interior", "--preset", "double:2,3,2,1,1"),
     [" ".join(map(str, DOUBLE_INTERIOR)), f"total {DOUBLE_INTERIOR_TOTAL}",
      "boundary generators 30"]),
    (("interior", "--preset", "star-example"),
     [" ".join(map(str, STAR_INTERIOR)), f"total {STAR_INTERIOR_TOTAL}",
      "boundary generators 324"]),
])
def test_counting_commands_never_classify_corners(monkeypatch, capsys, argv, expected):
    # every module that binds cvm.corners gets the raising stand-in
    real = quiverdet.cvm.corners
    for module in (quiverdet, quiverdet.cvm, quiverdet.complex, quiverdet.series,
                   quiverdet.cli):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, _raise)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_verify_holds_fold_to_corners_past_brute_guard(monkeypatch):
    import quiverdet.verify as verify

    inst = parse_preset("det:3,11,1")
    assert inst.size > 32  # over the default brute guard
    folded, classified = [], []
    real_fold = verify._ridge_fold

    def spy(walk):
        folded.append(len(walk[0]))
        return real_fold(walk)

    def counted(instance, masks, _real=quiverdet.cvm._corner_counts):
        classified.append(masks)
        return _real(instance, masks)

    def refuse(*_args):
        raise AssertionError("a facet was classified by its road map")

    monkeypatch.setattr(verify, "_ridge_fold", spy)
    # the corner routes and the shelling check both reach the corner batch
    # through complex: a batch the shelling check ran itself would be a
    # second call
    monkeypatch.setattr(quiverdet.cvm, "_corner_counts", counted)
    monkeypatch.setattr(quiverdet.complex, "_corner_counts", counted)
    monkeypatch.setattr(quiverdet.cvm, "corners", refuse)
    report = verify_instance(inst, subset_trials=20, seed=1)
    # past the guard the series routes are the local routes and the two
    # folds of one walk, held to one corner batch of all 66 facets, which
    # also feeds the shelling check
    assert folded == [66]
    assert classified == [[f.mask for f in enumerate_facets(inst)]]
    assert len(classified[0]) == 66
    checks = {c.name: c for c in report.checks}
    assert report.ok
    assert checks["series-routes"].detail == "h = [1, 20, 45], multiplicity 66"

    # a fold that miscounts one facet must fail the check: one walk gives
    # both folds, so both miscount it alike and only the other routes differ
    folded.clear()

    def off_by_one(walk):
        folded.append(len(walk[0]))
        *folds, boundary = real_fold(walk)
        return (*((h[0] + 1, h[1] - 1, *h[2:]) for h in folds), boundary)

    monkeypatch.setattr(verify, "_ridge_fold", off_by_one)
    report = verify_instance(inst, subset_trials=20, seed=1)
    assert folded == [66]
    failed = {c.name: c for c in report.checks if not c.ok}
    assert list(failed) == ["series-routes"]
    assert "series routes disagree" in failed["series-routes"].detail


def _for_random_instances(check, max_examples=40):
    """Run ``check`` on ``random_instance``s drawn by hypothesis, which shrinks seed and size."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=max_examples, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), max_cells=st.integers(1, 20))
    def run(seed, max_cells):
        check(random_instance(random.Random(seed), max_cells=max_cells))

    run()


def test_fold_agrees_with_corners_property():
    def check(inst):
        facets = enumerate_facets(inst)
        masks = sorted(f.mask for f in facets)
        up, down, _ = _ridge_fold(_ridge_walk(masks))
        assert up == down == _ridge_fold(_ridge_walk(masks[::-1]))[0] == _corner_h(inst, facets)

    _for_random_instances(check)


def test_ridge_walk_matches_the_definition_property():
    # on a shuffled order: R(F_j) is the cells c of F_j whose ridge F_j - c
    # lies in an earlier facet, and the open ridges lie in exactly one facet
    def check(inst):
        masks = [f.mask for f in enumerate_facets(inst)]
        random.Random(sum(masks)).shuffle(masks)
        restrictions, open_ridges, later = _ridge_walk(masks)
        cells = [[1 << r for r in range(m.bit_length()) if m >> r & 1] for m in masks]
        assert restrictions == [
            sum(c for c in cells[j] if any(g & (m ^ c) == m ^ c for g in masks[:j]))
            for j, m in enumerate(masks)]
        assert later == [sum(any(g & (m ^ c) == m ^ c for g in masks[j + 1:]) for c in cells[j])
                         for j, m in enumerate(masks)]
        ridges = {m ^ c for m, cs in zip(masks, cells) for c in cs}
        assert open_ridges.keys() == {ridge for ridge in ridges
                                      if sum(g & ridge == ridge for g in masks) == 1}
        assert all(masks[j] & ridge == ridge for ridge, j in open_ridges.items())

    _for_random_instances(check)


def _set_walk_restriction_sizes(masks):
    """Restriction sizes along ``masks`` from a walk with a set of open ridges, one per order."""
    open_ridges, sizes = set(), []
    for mask in masks:
        cells = [1 << r for r in range(mask.bit_length()) if mask >> r & 1]
        closed = [mask ^ c in open_ridges for c in cells]
        open_ridges ^= {mask ^ c for c in cells}
        sizes.append(sum(closed))
    return sizes


def test_one_walk_reversed_h_matches_a_reversed_walk_property():
    # h along the reversed order, read off one forward walk, equals a second
    # walk over the reversed masks, on shuffled facet orders
    def check(inst):
        masks = [f.mask for f in enumerate_facets(inst)]
        random.Random(sum(masks)).shuffle(masks)
        up, down, _ = _ridge_fold(_ridge_walk(masks))
        sizes = _set_walk_restriction_sizes(masks[::-1])
        assert down == tuple(map(sizes.count, range(max(sizes) + 1)))
        assert up == _ridge_fold(_ridge_walk(masks[::-1]))[1]

    _for_random_instances(check)


def test_face_counts_agree_with_the_face_dfs_property():
    # f and the interior vector read off h against the face DFS, and h(1)
    # against the facet count
    def check(inst):
        facets = enumerate_facets(inst)
        counted = face_counts(inst, interior=True)
        walked = interior_faces(inst, f_vector(inst, store_faces=True), facets)
        assert counted.f_vector == walked.f_vector
        assert counted.interior_by_size == walked.interior_by_size
        assert counted.boundary_generators == walked.boundary_generators
        series = hilbert_series(inst, facets=facets)
        assert sum(series.numerator) == series.multiplicity == len(facets)

    _for_random_instances(check)
