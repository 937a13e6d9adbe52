import json
import random

import pytest

from quiverdet import (CellSet, ValidationError, corner_stats, criteria_agree, enumerate_facets,
                       is_u_compatible)
from quiverdet.verify import random_instance

from golden import STAR_MULTIPLICITY


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
    assert not verify._membership_criterion_holds(fake)
    names = [c.name for c in verify.verify_instance(inst, subset_trials=20, seed=3).checks]
    monkeypatch.setattr(verify, "enumerate_facets",
                        lambda instance, facet_cap: [*facets[:-1], fake])
    report = verify.verify_instance(inst, subset_trials=20, seed=3)
    assert [c.name for c in report.checks] == names
    assert not {c.name: c.ok for c in report.checks}["facet-cardinality"]


def _drawn_masks(rng, instance, trials):
    # the criteria check's draw, as a list of cells per trial
    masks = []
    for _ in range(trials):
        density = rng.random()
        masks.append(instance.cell_mask([c for c in instance.cells if rng.random() < density]))
    return masks


def test_criteria_check_draws_each_subset_once(monkeypatch, double_instance, star_instance,
                                               det33, single_cell):
    import quiverdet.verify as verify

    seen = []
    real = verify._criteria_kernel

    def spy(instance, mask, memo):
        seen.append(mask)
        return real(instance, mask, memo)

    monkeypatch.setattr(verify, "_criteria_kernel", spy)
    cases = [(double_instance, 1000, 7), (star_instance, 1000, 7), (det33, 1000, 3),
             (single_cell, 50, 1)]
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
        assert seen == list(dict.fromkeys(drawn + facets))
        assert len(set(drawn)) < trials  # some subsets repeat, and they are not evaluated again


def test_twin_blocks_share_chain_tables_and_nothing_else(star_instance, det33):
    # each block's share with the tables of one subset kept across its blocks
    # equals its share from fresh tables: twins (det presets) share tables,
    # while star-example's three 3x2 source blocks must not
    from quiverdet.cli import parse_preset
    from quiverdet.verify import _block_criteria, _criteria_layout

    rng = random.Random(47)
    instances = [star_instance, det33, parse_preset("det:6,6,1"), parse_preset("det:3,4,2")]
    instances += [random_instance(rng) for _ in range(30)]
    shared_any = False
    for inst in instances:
        layout = _criteria_layout(inst)
        for mask in _drawn_masks(rng, inst, 40) + [f.mask for f in enumerate_facets(inst)][:10]:
            tables = {}
            for _, _, args in layout:
                sub = mask & sum(bit for _, _, bit, _, _ in args[4])
                kept = len(tables)
                assert _block_criteria(*args, sub, tables) == _block_criteria(*args, sub, {})
                shared_any |= len(tables) == kept
    assert shared_any


def test_criteria_memo_is_safe(double_instance, star_instance, det33, single_cell):
    # a memo shared by all trials gives what a fresh one gives, and both what
    # the definition gives: the key must name the block, since a target and a
    # source block can hold the same submask
    from quiverdet.cli import parse_preset
    from quiverdet.verify import _criteria_kernel

    rng = random.Random(43)
    big = parse_preset("det:6,6,1")
    instances = [double_instance, star_instance, det33, single_cell, big]
    instances += [random_instance(rng) for _ in range(50)]
    for inst in instances:
        shared = {}
        for n, mask in enumerate(_drawn_masks(rng, inst, 300)):
            got = _criteria_kernel(inst, mask, shared)
            assert got == _criteria_kernel(inst, mask, {}), (inst, mask)
            if n % 10 == 0:
                cells = [c for r, c in enumerate(inst.cells) if mask >> r & 1]
                assert got == criteria_oracle(inst, cells), (inst, mask)
        assert (not shared) == (inst is big)  # det:6,6,1's 36-position blocks are not kept


def _corrupt_floor(monkeypatch, block, position, delta):
    """Shift one padding floor of the criteria layout by ``delta``."""
    import quiverdet.verify as verify

    real = verify._criteria_layout

    def layout(instance):
        rows = list(real(instance))
        block_mask, small, (a, b, u, ranks, positions) = rows[block]
        x, y, bit, nw_floor, se_floor = positions[position]
        positions = (*positions[:position], (x, y, bit, nw_floor + delta, se_floor),
                     *positions[position + 1:])
        rows[block] = (block_mask, small, (a, b, u, ranks, positions))
        return tuple(rows)

    monkeypatch.setattr(verify, "_criteria_layout", layout)


def test_criteria_check_reports_a_bad_route_on_memoized_blocks(monkeypatch, det33):
    # det:3,3,2's two 9-position blocks go through the memo, and 1000 trials
    # draw some of its facets; the detail replays to the same four routes
    import quiverdet.verify as verify

    _corrupt_floor(monkeypatch, 1, 4, 1)
    failed = [c for c in verify.verify_instance(det33, seed=3).checks if not c.ok]
    assert [c.name for c in failed] == ["criteria-equivalence"]
    head, routes = failed[0].detail.split(": routes (cardinality, raw, padded, agree) = ")
    trial, cells = head.split(", cells ")
    cells = [tuple(c) for c in json.loads(cells)]
    assert trial.startswith("subset ") and trial.endswith(" of 1000")
    drawn = _drawn_masks(random.Random(3), det33, 1000)
    assert drawn[int(trial.split()[1]) - 1] == det33.cell_mask(cells)
    assert str(verify.criteria_agree(det33, cells)) == routes
    assert routes.endswith("False)")


def test_criteria_check_reports_a_bad_route(monkeypatch, single_cell):
    import quiverdet.verify as verify

    names = [c.name for c in verify.verify_instance(single_cell, seed=5).checks]
    # the cell's target-side padded sum lands on u, not u - 1
    _corrupt_floor(monkeypatch, 0, 0, 1)
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
    # is a facet, so the enumerated facets must catch it
    import quiverdet.verify as verify
    from quiverdet.cli import main

    inst = star_instance
    facet = enumerate_facets(inst)[0].mask
    *_, positions = verify._criteria_layout(inst)[1][2]
    _corrupt_floor(monkeypatch, 1, next(n for n, p in enumerate(positions) if facet & p[2]), 1)
    failed = [c for c in verify.verify_instance(inst, seed=7).checks if not c.ok]
    assert [c.name for c in failed] == ["criteria-equivalence"]
    head, routes = failed[0].detail.split(": routes (cardinality, raw, padded, agree) = ")
    label, cells = head.split(", cells ")
    assert label.startswith("facet ") and label.endswith(f" of {STAR_MULTIPLICITY}")
    assert str(verify.criteria_agree(inst, [tuple(c) for c in json.loads(cells)])) == routes
    assert routes == "(True, True, False, False)"
    assert main(["verify", "--preset", "star-example", "--seed", "7"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "FAILED: criteria-equivalence on Instance(")


def test_criteria_memo_keeps_a_bad_share(monkeypatch, star_instance):
    # the wrong share of a memoized block, computed on a subset where the
    # routes still agree, must still fail a facet that repeats its submask
    import quiverdet.verify as verify

    inst = star_instance
    facet = enumerate_facets(inst)[0].mask
    block_mask, small, (*_, positions) = verify._criteria_layout(inst)[1]
    assert small and facet & block_mask
    # the first position of block 1 that the facet holds
    position = next(n for n, p in enumerate(positions) if facet & p[2])
    _corrupt_floor(monkeypatch, 1, position, 1)
    # a cell outside block 1 leaves its submask as it is
    other = next(bit for bit in (1 << r for r in range(inst.size))
                 if not bit & block_mask and not bit & facet)
    memo = {}
    assert verify._criteria_kernel(inst, facet | other, memo) == (False, False, False, True)
    assert (1, facet & block_mask) in memo
    assert verify._criteria_kernel(inst, facet, memo) == (True, True, False, False)
    assert verify._criteria_kernel(inst, facet, {}) == (True, True, False, False)


def _codim1_counts(facets):
    """Definition level: the ridges F - c of the facets, and those inside exactly one facet."""
    masks = [f.mask for f in facets]
    ridges = {m & ~(1 << r) for m in masks for r in range(m.bit_length()) if m >> r & 1}
    boundary = sum(sum(m & ridge == ridge for m in masks) == 1 for ridge in ridges)
    return len(ridges), boundary


def _walk(facets):
    from quiverdet.series import _ridge_walk

    return _ridge_walk([f.mask for f in facets])


def test_codim1_check_counts_and_catches_a_dropped_facet(star_instance, det33):
    from quiverdet.verify import _codim1_check

    rng = random.Random(23)
    instances = [star_instance, det33]
    while len(instances) < 8:
        inst = random_instance(rng, max_cells=14)
        if len(enumerate_facets(inst)) >= 2:
            instances.append(inst)
    for inst in instances:
        facets = enumerate_facets(inst)
        ridges, boundary = _codim1_counts(facets)
        assert _codim1_check(inst, facets, _walk(facets)) == (
            True, f"{ridges} codim-1 faces, {boundary} on the boundary"), inst
        # a ball with two or more facets: every facet shares a ridge with another,
        # and the closure route names the dropped one as that ridge's other owner
        for drop in {0, len(facets) // 2, len(facets) - 1}:
            kept = facets[:drop] + facets[drop + 1:]
            assert _codim1_check(inst, kept, _walk(kept)) == (
                False, "closure route misses a containing facet"), (inst, drop)


def test_shelling_and_codim1_checks_share_one_walk(monkeypatch, star_instance, det33):
    # verify walks the ascending facets once for both checks, and each check
    # reports what it reports when it walks them itself
    from quiverdet import complex as cx, verify
    from quiverdet.complex import verify_shelling
    from quiverdet.verify import _codim1_check, verify_instance

    rng = random.Random(31)
    instances = [star_instance, det33] + [random_instance(rng, max_cells=14) for _ in range(6)]
    for inst in instances:
        facets = enumerate_facets(inst)
        shelling = verify_shelling(facets)
        codim1 = _codim1_check(inst, facets, _walk(facets))
        walks = {"verify": [], "complex": []}
        for name, module in (("verify", verify), ("complex", cx)):
            def spy(masks, _real=module._ridge_walk, _calls=walks[name]):
                _calls.append(list(masks))
                return _real(masks)
            monkeypatch.setattr(module, "_ridge_walk", spy)
        # under the brute guard no interior route walks the facets in complex
        report = verify_instance(inst, subset_trials=20, seed=1, max_cells=inst.size - 1)
        monkeypatch.undo()
        assert walks == {"verify": [[f.mask for f in facets]], "complex": []}, inst
        checks = {c.name: (c.ok, c.detail) for c in report.checks}
        assert checks["shelling"] == (shelling.ok, shelling.failure or "increasing order shells")
        assert checks["codim1-membership"] == codim1
        assert report.ok, inst
