import json
import random

import pytest

from quiverdet import (CellSet, ValidationError, corner_stats, criteria_agree, enumerate_facets,
                       is_u_compatible)
from quiverdet.verify import random_instance

from golden import STAR_F_TOTAL, STAR_MULTIPLICITY


def criteria_oracle(instance, cells):
    """Definition level: the three facet criteria from one ``corner_stats`` call per cell."""
    cs = CellSet(instance, cells)
    by_card = len(cs) == instance.n_cells and is_u_compatible(cs)
    by_raw = True
    by_padded = True
    for cell in instance.cells:
        st = corner_stats(cs, cell)
        member = cell in cs
        ut = instance.vertex[instance.arrow(cell.k).target].u
        us = instance.vertex[instance.arrow(cell.k).source].u
        if member != (st.nw + st.se < ut and st.nw_src + st.se_src < us):
            by_raw = False
        tsum = st.nw_padded + st.se_padded
        ssum = st.nw_src_padded + st.se_src_padded
        if tsum not in (ut - 1, ut) or ssum not in (us - 1, us):
            by_padded = False
        elif member != (tsum == ut - 1 and ssum == us - 1):
            by_padded = False
    return by_card, by_raw, by_padded, by_card == by_raw == by_padded


def test_criteria_agree_vs_oracle(double_instance, star_instance, det33, single_cell):
    rng = random.Random(37)
    instances = [double_instance, star_instance, det33, single_cell]
    instances += [random_instance(rng) for _ in range(30)]
    facet_hits = 0
    for inst in instances:
        facets = enumerate_facets(inst)
        subsets = [list(f.cells) for f in facets[:20]]
        subsets += [list(f.cells)[1:] for f in facets[:5]]  # codim-1 faces
        for density in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for _ in range(4):
                subsets.append([c for c in inst.cells if rng.random() < density])
        picks = [rng.choice(inst.cells) for _ in range(inst.size)]
        subsets.append(picks + picks[::2])  # repeated cells count once
        for cells in subsets:
            got = criteria_agree(inst, cells)
            assert got == criteria_oracle(inst, cells), (inst, cells)
            facet_hits += got[0]
    assert facet_hits >= len(instances)  # the facet side of every route is reached


def test_criteria_agree_validates_cells(det33):
    for bad in ([(4, 1, 1)], [(1, 1, 2)], [(1, 1)], [(1, 1, 1), (1.0, 2, 1)]):
        with pytest.raises(ValidationError):
            criteria_agree(det33, bad)


def test_facet_check_catches_non_facet(monkeypatch, double_instance):
    # a set of N cells that is not admissible, slipped into the enumeration
    import quiverdet.verify as verify

    inst = double_instance
    facets = enumerate_facets(inst)
    fake = CellSet.from_mask(inst, (1 << inst.n_cells) - 1)
    assert len(fake) == inst.n_cells and not is_u_compatible(fake)
    assert not criteria_oracle(inst, fake.cells)[1]
    names = [c.name for c in verify.verify_instance(inst, subset_trials=20, seed=3).checks]
    monkeypatch.setattr(verify, "_facet_masks",
                        lambda instance, facet_cap: [*(f.mask for f in facets[:-1]), fake.mask])
    report = verify.verify_instance(inst, subset_trials=20, seed=3)
    assert [c.name for c in report.checks] == names
    assert not {c.name: c.ok for c in report.checks}["facet-cardinality"]


def test_criteria_batch_admits_exactly_the_facets(double_instance, star_instance, det33,
                                                single_cell):
    # the batch's facet bits (the facet-cardinality check) against the CellSet
    # routes it replaces: the facets, the full set, and facets with one cell
    # swapped for another, most of them N-cell non-facets
    from quiverdet.cli import parse_preset
    from quiverdet.verify import _criteria_batch

    rng = random.Random(67)
    instances = [double_instance, star_instance, det33, single_cell,
                 *map(parse_preset, ("det:6,6,1", "det:5,5,3", "det:4,6,2", "double:3,4,3,2,2"))]
    instances += [random_instance(rng) for _ in range(40)]
    for inst in instances:
        facets = enumerate_facets(inst)
        sets = [*facets, CellSet.from_mask(inst, (1 << inst.size) - 1)]
        for facet in rng.sample(facets, min(len(facets), 20)):
            inside = [r for r in range(inst.size) if facet.mask >> r & 1]
            outside = [r for r in range(inst.size) if not facet.mask >> r & 1]
            if outside:
                swap = 1 << rng.choice(inside) | 1 << rng.choice(outside)
                sets.append(CellSet.from_mask(inst, facet.mask ^ swap))
        _, admitted = _criteria_batch(inst, random.Random(1), 10, [cs.mask for cs in sets])
        for j, cs in enumerate(sets):
            want = (len(cs) == inst.n_cells and is_u_compatible(cs)
                    and criteria_oracle(inst, cs.cells)[1])
            assert (admitted >> j & 1 == 1) == want, (inst, cs)
        assert admitted & (1 << len(facets)) - 1 == (1 << len(facets)) - 1


def _drawn_masks(rng, instance, trials):
    # the criteria check's draw, as a list of cells per trial
    masks = []
    for _ in range(trials):
        density = rng.random()
        masks.append(instance.cell_mask([c for c in instance.cells if rng.random() < density]))
    return masks


def _batch_routes(instance, masks):
    """Per mask, the 4-tuple of routes from one ``_criteria_kernel`` batch of all the masks."""
    from quiverdet.verify import _columns, _criteria_kernel

    routes = _criteria_kernel(instance, _columns(masks, instance.size), (1 << len(masks)) - 1)
    out = []
    for n in range(len(masks)):
        card, raw, padded = (route >> n & 1 == 1 for route in routes)
        out.append((card, raw, padded, card == raw == padded))
    return out


def _check_kernel_against_definition(inst, rng):
    # the empty set, the full set, every facet, draws of every density, and
    # repeats of all of them, in one batch: each subset's routes are its own
    masks = [0, (1 << inst.size) - 1, *(f.mask for f in enumerate_facets(inst))]
    masks += _drawn_masks(rng, inst, 20)
    masks += rng.choices(masks, k=10)
    for mask, got in zip(masks, _batch_routes(inst, masks)):
        cells = [c for r, c in enumerate(inst.cells) if mask >> r & 1]
        assert got == criteria_oracle(inst, cells), (inst, mask)


def test_criteria_kernel_vs_definition(double_instance, star_instance, det33, single_cell):
    # the kernel's level tables against the oracle's ``_chain_tables``: two
    # independent dynamic programs
    from quiverdet.cli import parse_preset

    rng = random.Random(53)
    instances = [double_instance, star_instance, det33, single_cell, parse_preset("det:6,6,1")]
    instances += [random_instance(rng) for _ in range(30)]
    for inst in instances:
        _check_kernel_against_definition(inst, rng)


def test_criteria_kernel_vs_definition_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), max_cells=st.integers(1, 20))
    def run(seed, max_cells):
        rng = random.Random(seed)
        _check_kernel_against_definition(random_instance(rng, max_cells=max_cells), rng)

    run()


def _masks_of(columns, count):
    # the bit-sliced subsets back as rank masks
    return [sum(1 << r for r, column in enumerate(columns) if column >> n & 1)
            for n in range(count)]


def test_criteria_check_draws_each_subset_once(monkeypatch, double_instance, star_instance,
                                               det33, single_cell):
    # one kernel batch per check: every draw from the seeded stream, repeats
    # included, in draw order, then every facet
    import quiverdet.verify as verify

    seen = []
    real = verify._criteria_kernel

    def spy(instance, columns, every, *tables):
        seen.append((columns, every))
        return real(instance, columns, every, *tables)

    monkeypatch.setattr(verify, "_criteria_kernel", spy)
    cases = [(double_instance, 1000, 7), (star_instance, 1000, 7), (det33, 1000, 3),
             (single_cell, 50, 1), (det33, 0, 3)]
    rng = random.Random(29)
    cases += [(random_instance(rng), 200, n) for n in range(5)]
    for inst, trials, seed in cases:
        seen.clear()
        report = verify.verify_instance(inst, subset_trials=trials, seed=seed)
        facets = [f.mask for f in enumerate_facets(inst)]
        assert {c.name: c.detail for c in report.checks}["criteria-equivalence"] == (
            f"{trials} random subsets, then all facets ({len(facets)})")
        # the check is the seeded rng's first user; the facets follow the draws
        drawn = _drawn_masks(random.Random(seed), inst, trials)
        [(columns, every)] = seen
        assert every == (1 << (trials + len(facets))) - 1
        assert _masks_of(columns, trials + len(facets)) == drawn + facets
        assert all(column <= every for column in columns)
        assert trials == 0 or len(set(drawn)) < trials  # repeats are evaluated with the rest


def _level_calls(monkeypatch):
    """The ``top`` of every ``_chain_levels`` call from now on, in ``cvm`` and ``bitslice``."""
    import quiverdet.cvm as cvm

    from quiverdet import bitslice

    calls = []
    real = cvm._chain_levels

    def spy(a, b, top, ranks, columns, every):
        calls.append(top)
        return real(a, b, top, ranks, columns, every)

    # the criteria batch runs the levels in cvm, the ridge batches in bitslice
    monkeypatch.setattr(cvm, "_chain_levels", spy)
    monkeypatch.setattr(bitslice, "_chain_levels", spy)
    return calls


def _twin_classes(inst):
    """Per class of twin blocks (the same block_ranks and rank), its (a, b, u)."""
    return {(inst.block_ranks[vid], d.u): (d.a, d.b, d.u) for vid, d in inst.vertex.items()}


def test_criteria_check_runs_the_level_tables_once_per_twin_class(
        monkeypatch, double_instance, star_instance, det33, single_cell):
    # the batch is what makes the check fast: however many subsets it holds,
    # each class of twin blocks (the same block_ranks and rank) runs one DP
    import quiverdet.verify as verify
    from quiverdet.cli import parse_preset

    calls = _level_calls(monkeypatch)
    rng = random.Random(59)
    instances = [double_instance, star_instance, det33, single_cell, parse_preset("det:6,6,1")]
    instances += [random_instance(rng) for _ in range(5)]
    for inst in instances:
        classes = _twin_classes(inst).values()
        # the criteria batch and the one corner pass (all facets fit in one
        # chunk) read the padded route, one level past the rank; the one
        # batch of per-cell ridges (all cells fit in one) stops at the rank
        # and skips the classes that block nothing
        tops = sorted([u + 1 for _, _, u in classes] * 2
                      + [u for a, b, u in classes if u < min(a, b)])
        for trials in (0, 1, 1000):
            calls.clear()
            assert verify.verify_instance(inst, subset_trials=trials, seed=trials).ok
            assert sorted(calls) == tops, (inst, trials)
    assert [len(_twin_classes(inst)) for inst in instances[:4]] == [2, 4, 1, 1]


def test_twin_blocks_share_chain_tables_and_nothing_else(monkeypatch, star_instance, det33):
    # twins (det presets) share one class's level tables, while each block
    # keeps its own padding floors; star-example's three 3x2 source blocks
    # must not share, and neither must blocks with the same positions and
    # different ranks (built here without normalization, both ways round)
    from quiverdet.cli import parse_preset
    from quiverdet.quiver import BipartiteQuiver, Instance
    from quiverdet.cvm import _path_layout

    twins = [points for *_, points, _ in _path_layout(det33)]
    assert len(twins) == 2 and [p[:3] for p in twins[0]] == [p[:3] for p in twins[1]]
    assert [p[3:] for p in twins[0]] != [p[3:] for p in twins[1]]
    one_arrow = BipartiteQuiver(("s",), ("t",), (("s", "t"),))
    uneven = [Instance(one_arrow, {"s": 3, "t": 3}, {"s": us, "t": ut})
              for us, ut in ((1, 2), (2, 1), (3, 1))]
    calls = _level_calls(monkeypatch)
    for inst, tables in [(det33, 1), (star_instance, 4), *((inst, 2) for inst in uneven)]:
        calls.clear()
        _batch_routes(inst, [0, (1 << inst.size) - 1])
        assert len(calls) == tables, inst
    rng = random.Random(47)
    for inst in [star_instance, det33, parse_preset("det:3,4,2"), *uneven]:
        masks = _drawn_masks(rng, inst, 40) + [f.mask for f in enumerate_facets(inst)][:10]
        for mask, got in zip(masks, _batch_routes(inst, masks)):
            cells = [c for r, c in enumerate(inst.cells) if mask >> r & 1]
            assert got == criteria_oracle(inst, cells), (inst, mask)


def test_criteria_batch_matches_each_subset_alone(double_instance, star_instance, det33,
                                                  single_cell):
    # a batch gives each subset what a batch of one (``criteria_agree``)
    # gives, and both what the definition gives: no subset's bits reach
    # another's, and a target and a source block holding the same positions
    # of a subset still count apart
    from quiverdet.cli import parse_preset

    rng = random.Random(43)
    instances = [double_instance, star_instance, det33, single_cell, parse_preset("det:6,6,1")]
    instances += [random_instance(rng) for _ in range(50)]
    for inst in instances:
        masks = _drawn_masks(rng, inst, 300)
        for n, (mask, got) in enumerate(zip(masks, _batch_routes(inst, masks))):
            cells = [c for r, c in enumerate(inst.cells) if mask >> r & 1]
            assert got == criteria_agree(inst, cells), (inst, mask)
            if n % 10 == 0:
                assert got == criteria_oracle(inst, cells), (inst, mask)


def _corrupt_floor(monkeypatch, block, position):
    """Raise one NW padding floor of the criteria check's levels by one.

    The floor is at ``position`` of the ``block``-th row of ``cvm._path_layout``;
    its next level is set to every subset.  The corner pass reads its own
    ``cvm._block_levels`` and stays as it is.
    """
    import quiverdet.verify as verify

    real = verify._block_levels

    def levels(instance, columns, every):
        for n_block, (row, points_levels) in enumerate(real(instance, columns, every)):
            if n_block == block:
                nw_floor = row[6][position][3]
                points_levels[position][0][nw_floor + 1] = every
            yield row, points_levels

    monkeypatch.setattr(verify, "_block_levels", levels)


def _failed_subset(detail):
    # the label, the cells and the routes of a criteria-equivalence failure
    head, routes = detail.split(": routes (cardinality, raw, padded, agree) = ")
    label, cells = head.split(", cells ")
    return label, [tuple(c) for c in json.loads(cells)], routes


def test_criteria_check_reports_a_bad_route_on_a_twin_block(monkeypatch, det33):
    # a floor of det:3,3,2's second twin block, which shares its level tables
    # with the first; 1000 trials draw some of its facets, the first failing
    # draw is reported, and the detail replays to the same four routes
    import quiverdet.verify as verify

    _corrupt_floor(monkeypatch, 1, 4)
    failed = [c for c in verify.verify_instance(det33, seed=3).checks if not c.ok]
    assert [c.name for c in failed] == ["criteria-equivalence"]
    trial, cells, routes = _failed_subset(failed[0].detail)
    assert trial.startswith("subset ") and trial.endswith(" of 1000")
    drawn = _drawn_masks(random.Random(3), det33, 1000)
    n = int(trial.split()[1])
    assert drawn[n - 1] == det33.cell_mask(cells)
    assert str(verify.criteria_agree(det33, cells)) == routes
    assert routes.endswith("False)")
    assert all(got[3] for got in _batch_routes(det33, drawn[:n - 1]))


def test_criteria_check_reports_a_bad_route(monkeypatch, single_cell):
    import quiverdet.verify as verify

    names = [c.name for c in verify.verify_instance(single_cell, seed=5).checks]
    # the cell's target-side padded sum lands on u, not u - 1
    _corrupt_floor(monkeypatch, 0, 0)
    report = verify.verify_instance(single_cell, seed=5)
    assert [c.name for c in report.checks] == names  # no check is skipped
    failed = [c for c in report.checks if not c.ok]
    assert [c.name for c in failed] == ["criteria-equivalence"]
    # the detail names the trial, the cells and the four routes, enough to replay it
    drawn = _drawn_masks(random.Random(5), single_cell, 1000)
    assert drawn[0] == 0  # both the empty set and the facet now fail: the empty set first
    assert failed[0].detail == ("subset 1 of 1000, cells []: routes "
                                "(cardinality, raw, padded, agree) = (False, False, True, False)")
    assert verify.criteria_agree(single_cell, []) == (False, False, True, False)
    assert verify.criteria_agree(single_cell, [(1, 1, 1)]) == (True, True, False, False)


def test_criteria_check_reaches_the_facet_side(monkeypatch, capsys, star_instance):
    # a floor off by one that only a facet notices: no random draw of star-example
    # is a facet, so the enumerated facets must catch it, at the first one it breaks
    import quiverdet.cvm as cvm
    import quiverdet.verify as verify
    from quiverdet.cli import main

    inst = star_instance
    facets = [f.mask for f in enumerate_facets(inst)]
    points = cvm._path_layout(inst)[1][6]
    _corrupt_floor(monkeypatch, 1, next(n for n, p in enumerate(points) if facets[0] >> p[2] & 1))
    failed = [c for c in verify.verify_instance(inst, seed=7).checks if not c.ok]
    assert [c.name for c in failed] == ["criteria-equivalence"]
    label, cells, routes = _failed_subset(failed[0].detail)
    assert label == f"facet 1 of {STAR_MULTIPLICITY}"
    assert inst.cell_mask(cells) == facets[0]
    assert str(verify.criteria_agree(inst, cells)) == routes
    assert routes == "(True, True, False, False)"
    assert main(["verify", "--preset", "star-example", "--seed", "7"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "FAILED: criteria-equivalence on Instance(")


def test_criteria_check_repeats_keep_a_bad_route(monkeypatch, star_instance):
    # a facet whose block share is bad fails wherever it stands in the batch:
    # after a subset holding the same cells of the block on which the routes
    # still agree, and again when it repeats
    import quiverdet.cvm as cvm
    import quiverdet.verify as verify

    inst = star_instance
    facets = enumerate_facets(inst)
    facet = facets[-1].mask
    points = cvm._path_layout(inst)[1][6]
    block_mask = sum(1 << p[2] for p in points)
    # the first position of the class-1 block that the facet holds
    position = next(n for n, p in enumerate(points) if facet >> p[2] & 1)
    _corrupt_floor(monkeypatch, 1, position)
    # a cell outside that block leaves the facet's share of the block as it is
    other = next(bit for bit in (1 << r for r in range(inst.size))
                 if not bit & block_mask and not bit & facet)
    bad = (True, True, False, False)
    assert _batch_routes(inst, [facet | other, facet, facet]) == [
        (False, False, False, True), bad, bad]
    for trials in (0, 100):
        ok, detail = verify._criteria_batch(inst, random.Random(7), trials, [facet] * 2)[0]
        assert not ok and _failed_subset(detail)[0] == "facet 1 of 2"


def test_verify_instance_validates_its_arguments(single_cell):
    # malformed counts fail as ValidationError before any check runs; a guard
    # of 0 is allowed and means the brute face DFS never runs
    import quiverdet.verify as verify

    for trials in (2.5, None, "10", -3, True):
        with pytest.raises(ValidationError, match="subset_trials"):
            verify.verify_instance(single_cell, subset_trials=trials)
    for max_cells in (None, -1, False, 2.0, "5"):
        with pytest.raises(ValidationError, match="max_cells"):
            verify.verify_instance(single_cell, max_cells=max_cells)
    for cap in (None, 2.5, "9", True, 0):
        with pytest.raises(ValidationError, match="facet cap"):
            verify.verify_instance(single_cell, facet_cap=cap)
    for seed in ([1], {}, (1, 2), object()):  # types random.Random rejects
        with pytest.raises(ValidationError, match="seed"):
            verify.verify_instance(single_cell, seed=seed)
    report = verify.verify_instance(single_cell, subset_trials=0, max_cells=0)
    assert report.ok
    assert {c.name: c.detail for c in report.checks}["facet-closure-vs-brute"] == (
        "skipped: |L| over the brute guard")


def test_brute_walk_guarded_by_its_face_count(monkeypatch):
    # det:4,8,2 has |L| = 32, inside the cell guard, but 53018624 faces on
    # 336 facets: the face count off h skips the DFS before it starts
    import quiverdet.verify as verify
    from quiverdet.cli import parse_preset

    def no_walk(*args, **kwargs):
        raise AssertionError("the brute face DFS ran")

    monkeypatch.setattr(verify, "_brute_walk", no_walk)
    report = verify.verify_instance(parse_preset("det:4,8,2"), seed=1)
    assert report.ok
    assert {c.name: c.detail for c in report.checks}["facet-closure-vs-brute"] == (
        "skipped: 53018624 faces over the facet cap")


def test_face_guard_boundary_on_star(star_instance):
    # star-example has 24768 faces: a cap one below skips the DFS, a cap equal to it runs it
    import quiverdet.verify as verify

    details = {}
    for cap in (STAR_F_TOTAL - 1, STAR_F_TOTAL):
        report = verify.verify_instance(star_instance, subset_trials=20, seed=1, facet_cap=cap)
        assert report.ok
        details[cap] = {c.name: c.detail for c in report.checks}["facet-closure-vs-brute"]
    assert details == {24767: "skipped: 24768 faces over the facet cap",
                       24768: "54 facets from moves vs 54 maximal admissible sets"}


def _codim1_counts(facets):
    """Definition level: the ridges F - c of the facets, and those inside exactly one facet."""
    masks = [f.mask for f in facets]
    ridges = {m & ~(1 << r) for m in masks for r in range(m.bit_length()) if m >> r & 1}
    boundary = sum(sum(m & ridge == ridge for m in masks) == 1 for ridge in ridges)
    return len(ridges), boundary


def _codim1(inst, facets):
    # the codim-1 check on the facets' masks, their walk and their ridge batches
    import quiverdet.verify as verify
    from quiverdet.bitslice import _restriction_columns
    from quiverdet.complex import _ridge_walk

    masks = [f.mask for f in facets]
    chunks = list(_restriction_columns(inst, masks, owners=True))
    return verify._codim1_check(inst, masks, _ridge_walk(masks), chunks)


def test_codim1_check_counts_and_catches_a_dropped_facet(star_instance, det33):
    rng = random.Random(23)
    instances = [star_instance, det33]
    while len(instances) < 8:
        inst = random_instance(rng, max_cells=14)
        if len(enumerate_facets(inst)) >= 2:
            instances.append(inst)
    for inst in instances:
        facets = enumerate_facets(inst)
        ridges, boundary = _codim1_counts(facets)
        assert _codim1(inst, facets) == (
            True, f"{ridges} codim-1 faces, {boundary} on the boundary"), inst
        # a ball with two or more facets: every facet shares a ridge with another,
        # and the closure route names the dropped one as that ridge's other owner
        for drop in {0, len(facets) // 2, len(facets) - 1}:
            kept = facets[:drop] + facets[drop + 1:]
            assert _codim1(inst, kept) == (
                False, "closure route misses a containing facet"), (inst, drop)


def test_codim1_check_holds_the_local_faces_to_the_walk(star_instance, det33):
    # a walk that leaves one cell out of a facet's restriction face: its ridge
    # still has two owners, the second an earlier facet, so only the
    # restriction face off the batch tells the walk is wrong
    import quiverdet.verify as verify
    from quiverdet.bitslice import _restriction_columns
    from quiverdet.complex import _ridge_walk

    for inst in (star_instance, det33):
        masks = [f.mask for f in enumerate_facets(inst)]
        chunks = list(_restriction_columns(inst, masks, owners=True))
        restrictions, open_ridges, later = _ridge_walk(masks)
        for j in {1, len(masks) // 2, len(masks) - 1}:
            assert restrictions[j], (inst, j)
            wrong = restrictions.copy()
            wrong[j] &= wrong[j] - 1
            assert verify._codim1_check(inst, masks, (wrong, open_ridges, later), chunks) == (
                False, f"facet {j + 1}: its restriction face off the batch is not the walk's")


def test_shelling_and_codim1_checks_share_one_walk(monkeypatch, star_instance, det33):
    # verify walks the ascending facets once, under the brute guard and over
    # it, for the boundary generators, both folds, the shelling check and
    # the codim-1 check; each check reports what it reports when it walks
    # the facets itself
    from quiverdet import complex as cx, verify
    from quiverdet.complex import verify_shelling
    from quiverdet.verify import verify_instance

    rng = random.Random(31)
    instances = [star_instance, det33] + [random_instance(rng, max_cells=14) for _ in range(6)]
    for inst in instances:
        facets = enumerate_facets(inst)
        shelling = verify_shelling(facets)
        codim1 = _codim1(inst, facets)
        for max_cells in (inst.size, inst.size - 1):
            walks = []
            for name, module in (("complex", cx), ("verify", verify)):
                def spy(masks, _real=module._ridge_walk, _name=name):
                    walks.append((_name, list(masks)))
                    return _real(masks)
                monkeypatch.setattr(module, "_ridge_walk", spy)
            report = verify_instance(inst, subset_trials=20, seed=1, max_cells=max_cells)
            monkeypatch.undo()
            assert walks == [("verify", [f.mask for f in facets])], (inst, max_cells)
            checks = {c.name: (c.ok, c.detail) for c in report.checks}
            assert checks["shelling"] == (shelling.ok,
                                          shelling.failure or "increasing order shells")
            assert checks["codim1-membership"] == codim1
            assert report.ok, inst


def _check_ridge_addables(inst):
    # every ridge of every facet in one batch: the addable cells the batch
    # gives each ridge F - c are those of the closure route's owners
    from quiverdet.complex import codim1_membership
    from quiverdet.verify import _addable_columns, _columns

    ridges = [(f.mask, 1 << r) for f in enumerate_facets(inst)
              for r in range(inst.size) if f.mask >> r & 1]
    faces = [mask ^ low for mask, low in ridges]
    addable = _addable_columns(inst, _columns(faces, inst.size), (1 << len(faces)) - 1)
    for (mask, low), face, got in zip(ridges, faces, _masks_of(addable, len(faces))):
        want = 0
        for owner in codim1_membership(CellSet.from_mask(inst, face)):
            want |= owner.mask ^ face
        assert got == want and got & low, (inst, mask, low)


def test_ridge_addables_match_codim1_membership(double_instance, star_instance, det33):
    from quiverdet.cli import parse_preset

    rng = random.Random(41)
    instances = [double_instance, star_instance, det33, parse_preset("det:5,5,3"),
                 parse_preset("det:4,6,2"), parse_preset("double:3,4,3,2,2")]
    instances += [random_instance(rng, max_cells=16) for _ in range(30)]
    for inst in instances:
        _check_ridge_addables(inst)


def test_ridge_addables_match_codim1_membership_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), max_cells=st.integers(1, 20))
    def run(seed, max_cells):
        _check_ridge_addables(random_instance(random.Random(seed), max_cells=max_cells))

    run()


def test_codim1_batches_do_not_change_the_verdicts(monkeypatch, star_instance, det33):
    # batches 7 and 40 bits wide split the facets across chunks, and the
    # cells across batches, one or several to a batch; the verdicts and
    # details, passing and failing, are those of one batch, and so is h
    import quiverdet.bitslice as bitslice
    import quiverdet.verify as verify
    from quiverdet.series import LOCAL_ROUTES, hilbert_series

    rng = random.Random(61)
    instances = [star_instance, det33] + [random_instance(rng, max_cells=14) for _ in range(8)]
    cases = []
    for inst in instances:
        facets = enumerate_facets(inst)
        cases.append((inst, facets))
        if len(facets) > 1:
            cases.append((inst, facets[:len(facets) // 2] + facets[len(facets) // 2 + 1:]))
    real = bitslice._addable_columns

    def one_more(instance, columns, every):
        # cell 0 wrongly addable to every ridge without it: some ridges get
        # three owners, some a second one the walk never saw
        addable = real(instance, columns, every)
        addable[0] = every & ~columns[0]
        return addable

    def verdicts():
        return [_codim1(inst, facets) for inst, facets in cases]

    def series():
        return [hilbert_series(inst, routes=LOCAL_ROUTES) for inst in instances]

    whole, h = verdicts(), series()
    # the batches and the failing ridge's recount both see the tampered cell
    monkeypatch.setattr(bitslice, "_addable_columns", one_more)
    monkeypatch.setattr(verify, "_addable_columns", one_more)
    tampered = verdicts()
    for width in (7, 40):
        monkeypatch.setattr(bitslice, "_WIDTH", width)
        assert verdicts() == tampered, width
    monkeypatch.setattr(bitslice, "_addable_columns", real)
    monkeypatch.setattr(verify, "_addable_columns", real)
    for width in (7, 40):
        monkeypatch.setattr(bitslice, "_WIDTH", width)
        assert verdicts() == whole, width
        assert series() == h, width
    assert {ok for ok, _ in whole} == {True, False}
    assert {detail.split(" inside ")[0] for ok, detail in tampered if not ok} == {
        "codim-1 face", "closure route misses a containing facet"}


def test_brute_walk_counts_interior_faces_like_the_stored_faces(
        single_cell, det33, double_instance, star_instance):
    # the walk's per-depth generator bitsets against ``interior_faces`` on the
    # stored faces, and the maximal sets against the facets
    from quiverdet import f_vector, interior_faces
    from quiverdet.complex import _brute_walk, boundary_generator_masks

    rng = random.Random(43)
    instances = [single_cell, det33, double_instance, star_instance]
    instances += [random_instance(rng, max_cells=14) for _ in range(30)]
    for inst in instances:
        facets = enumerate_facets(inst)
        brute, table = _brute_walk(inst, boundary_generator_masks(facets))
        oracle = interior_faces(inst, f_vector(inst, store_faces=True), facets)
        assert table == oracle._replace(faces_by_size=None), inst
        assert brute == [f.mask for f in facets]


def test_verify_reads_interior_faces_off_the_walk(monkeypatch, star_instance):
    # under the brute guard the interior route gets its counts from the walk:
    # no face is stored and ``interior_faces`` never runs
    import quiverdet.complex as cx
    from quiverdet.verify import verify_instance

    def refuse(*_args, **_kwargs):
        raise AssertionError("interior_faces called")

    monkeypatch.setattr(cx, "interior_faces", refuse)
    report = verify_instance(star_instance, subset_trials=20, seed=7)
    assert report.ok
    assert {c.name: c.detail for c in report.checks}["series-routes"] == (
        "h = [1, 7, 19, 19, 7, 1], multiplicity 54")


def test_verify_memory_peak(star_instance):
    # the walk stores no face: 24768 stored face masks took the traced peak
    # of this run to 1.3 MB
    import tracemalloc

    from quiverdet.verify import verify_instance

    verify_instance(star_instance, subset_trials=20, seed=7)  # fill the per-instance caches
    tracemalloc.start()
    try:
        assert verify_instance(star_instance, seed=7).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600_000, peak


def test_verify_builds_no_cellset_per_facet(monkeypatch):
    # verify reads the facets' masks alone: it never enumerates them as cell
    # sets, nor runs hilbert_series or boundary_generator_masks, which walk
    # them again; the cached tables of det:6,6,1's facets took the traced
    # peak of this run to 1.25 MB
    import sys
    import tracemalloc

    import quiverdet.verify as verify
    from quiverdet.cli import parse_preset
    from quiverdet.complex import boundary_generator_masks
    from quiverdet.series import hilbert_series

    inst = parse_preset("det:6,6,1")
    verify.verify_instance(inst, subset_trials=20, seed=7)  # fill the per-instance caches
    refused = (enumerate_facets, hilbert_series, boundary_generator_masks)
    called = []
    for name, module in list(sys.modules.items()):
        if name == "quiverdet" or name.startswith("quiverdet."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in refused):
                    monkeypatch.setattr(module, attr,
                                        lambda *args, _attr=attr, **kw: called.append(_attr))
    tracemalloc.start()
    try:
        assert verify.verify_instance(inst, seed=7).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert called == []
    assert peak <= 400_000, peak


def test_reflection_probes_are_admissible_and_nonempty(monkeypatch):
    # each probe grows its drawn cells in rank order, skipping the blocked
    # ones, so it is admissible and holds at least the first drawn cell;
    # det:6,6,1 admits so few sets that redrawn density-0.4 masks never hit one
    import quiverdet.verify as verify
    from quiverdet.cli import parse_preset

    probes, real = [], verify.c_min

    def spy(seed):
        probes.append(seed)
        return real(seed)

    monkeypatch.setattr(verify, "c_min", spy)
    assert verify.verify_instance(parse_preset("det:6,6,1"), seed=1).ok
    assert len(probes) == 8
    assert all(len(probe) and is_u_compatible(probe) for probe in probes)


@pytest.mark.parametrize("preset", ["det:3,3,2", "star-example", "double:2,3,2,1,1"])
def test_reflection_duality_fails_when_the_closures_are_swapped(monkeypatch, preset):
    # with c_min replaced by c_max, reflecting c_max of a probe's image no
    # longer gives the probe's closure, and only this check reads c_min
    import quiverdet.verify as verify
    from quiverdet.cli import parse_preset

    monkeypatch.setattr(verify, "c_min", verify.c_max)
    report = verify.verify_instance(parse_preset(preset), subset_trials=0, seed=1)
    assert [c.name for c in report.checks if not c.ok] == ["reflection-duality"]
