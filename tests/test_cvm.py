import random

import pytest

from quiverdet import (CellSet, CrossCheckError, ValidationError, c_max, c_min, can_extend,
                       cmp_T_sets, corners, enumerate_facets, initial_cvm, is_cvm, is_u_compatible,
                       reflect, road_map, verify_shelling)
from quiverdet.chains import padded_nw, padded_se
from quiverdet.cli import parse_preset
from quiverdet.cvm import HORIZONTAL, NW, SE, VERTICAL
from quiverdet.definitions import CornerRecord, CornerReport, RoadMap, _check_path
from quiverdet.quiver import TARGET, cell_key
from quiverdet.verify import brute_maximal_facet_masks, random_instance

from golden import (DET33_ROADMAP_H, DET33_ROADMAP_V, DOUBLE_FACETS_DESC, DOUBLE_FINAL,
                    DOUBLE_INITIAL, DOUBLE_NW_COUNTS_DESC, DOUBLE_NW_COUNTS_LAYOUT,
                    DOUBLE_PANEL_LAYOUT, DOUBLE_SE_COUNTS_DESC, DOUBLE_SE_COUNTS_LAYOUT,
                    STAR_DRAWN_FACET, STAR_DRAWN_H, STAR_DRAWN_V, STAR_INITIAL, rotation)


def initial_roadmap_oracle(inst):
    """Three-segment broken lines of the initial facet, from the page-slice formula."""
    horizontal, vertical = {}, {}
    for alpha in inst.quiver.targets:
        d = inst.vertex[alpha]
        into = [ar for ar in inst.arrows if ar.target == alpha]
        paths = []
        for p in range(1, d.u + 1):
            for ar in into:
                later = sum(inst.u[a2.source] for a2 in into if a2.k > ar.k)
                if later < d.u - p + 1 <= later + inst.u[ar.source]:
                    turn = p - d.u + sum(inst.m[a2.source] for a2 in into if a2.k <= ar.k) + later
                    break
            pts = {(d.a - d.u + p, y) for y in range(1, turn + 1)}
            pts |= {(x, turn) for x in range(p, d.a - d.u + p + 1)}
            pts |= {(p, y) for y in range(turn, d.b + 1)}
            paths.append(pts)
        horizontal[alpha] = paths
    for beta in inst.quiver.sources:
        d = inst.vertex[beta]
        outof = [ar for ar in inst.arrows if ar.source == beta]
        paths = []
        for q in range(1, d.u + 1):
            for ar in outof:
                later = sum(inst.u[a2.target] for a2 in outof if a2.k > ar.k)
                if later < d.u - q + 1 <= later + inst.u[ar.target]:
                    turn = q - d.u + sum(inst.m[a2.target] for a2 in outof if a2.k <= ar.k) + later
                    break
            pts = {(x, d.b - d.u + q) for x in range(1, turn + 1)}
            pts |= {(turn, y) for y in range(q, d.b - d.u + q + 1)}
            pts |= {(x, q) for x in range(turn, d.a + 1)}
            paths.append(pts)
        vertical[beta] = paths
    return horizontal, vertical


def test_is_cvm(double_instance):
    inst = double_instance
    initial = CellSet(inst, DOUBLE_INITIAL)
    assert is_cvm(initial)
    assert not is_cvm(CellSet(inst))
    assert not is_cvm(initial.remove((3, 2, 1)))


def test_closures_match_reference(double_instance):
    inst = double_instance
    assert set(map(tuple, c_max(CellSet(inst)).cells)) == DOUBLE_INITIAL
    assert set(map(tuple, c_min(CellSet(inst)).cells)) == DOUBLE_FINAL


def test_closure_fixed_points_and_monotonicity(double_instance):
    rng = random.Random(2)
    for facet in enumerate_facets(double_instance):
        assert c_max(facet) == facet
        assert c_min(facet) == facet
        sub = CellSet(double_instance, [c for c in facet.cells if rng.random() < 0.5])
        up = c_max(sub)
        assert set(sub.cells) <= set(up.cells)
        assert c_max(up) == up
        assert cmp_T_sets(up, facet) >= 0
        assert cmp_T_sets(c_min(sub), facet) <= 0


def test_closures_are_extreme_brute_facets():
    # every subset of a facet is an admissible seed
    rng = random.Random(13)
    for _ in range(30):
        inst = random_instance(rng, max_cells=12)
        facets = brute_maximal_facet_masks(inst)
        for _ in range(6):
            seed = CellSet.from_mask(inst, rng.choice(facets) & rng.getrandbits(inst.size))
            containing = [m for m in facets if m & seed.mask == seed.mask]
            assert c_max(seed).mask == max(containing)
            assert c_min(seed).mask == min(containing)


def scan_close(seed, descending):
    """Definition level: scan every cell once, adding it whenever ``can_extend`` allows."""
    inst = seed.instance
    closed = seed
    for r in (range(inst.size - 1, -1, -1) if descending else range(inst.size)):
        if not closed.mask >> r & 1 and can_extend(closed, inst.cells[r]):
            closed = CellSet.from_mask(inst, closed.mask | 1 << r)
    return closed


def _check_closures_vs_scan(inst, rng):
    facets = enumerate_facets(inst)
    seeds = {0}
    for facet in facets:
        seeds.update(facet.mask & ~(1 << r) for r in range(inst.size) if facet.mask >> r & 1)
    for _ in range(40):
        sparse = CellSet(inst, [c for c in inst.cells if rng.random() < 0.3])
        if is_u_compatible(sparse):
            seeds.add(sparse.mask)
    for mask in sorted(seeds):
        seed = CellSet.from_mask(inst, mask)
        assert c_max(seed) == scan_close(seed, descending=True)
        assert c_min(seed) == scan_close(seed, descending=False)


def test_closures_vs_scan():
    rng = random.Random(43)
    for _ in range(30):
        _check_closures_vs_scan(random_instance(rng, max_cells=16), rng)
    # det presets have twin blocks: rank 1, and ranks that need the staircase kernel
    for spec in ("det:3,3,1", "det:3,4,2", "det:4,5,2"):
        _check_closures_vs_scan(parse_preset(spec), rng)


def test_closure_requires_admissible_seed(double_instance):
    bad = CellSet(double_instance, [(1, 1, 1), (2, 2, 1)])
    for close in (c_max, c_min):
        with pytest.raises(ValidationError, match="not u-compatible"):
            close(bad)
    rng = random.Random(47)
    for _ in range(20):
        inst = random_instance(rng, max_cells=16)
        if inst.n_cells < inst.size:  # then the full set is not admissible
            for close in (c_max, c_min):
                with pytest.raises(ValidationError, match="not u-compatible"):
                    close(CellSet(inst, inst.cells))


def test_closure_equality_iff_essential_nw_seed(double_instance):
    # seeding with all essential NW corners recovers the facet; dropping one overshoots
    for facet in enumerate_facets(double_instance):
        rep = corners(facet)
        ess = {r.cell for r in rep.corners if r.kind == NW and r.essential}
        assert c_max(CellSet(double_instance, ess)) == facet
        for cell in ess:
            above = c_max(CellSet(double_instance, ess - {cell}))
            assert cmp_T_sets(above, facet) > 0


def test_initial_closed_form(double_instance, star_instance, single_cell):
    assert set(map(tuple, initial_cvm(double_instance).cells)) == DOUBLE_INITIAL
    assert set(map(tuple, initial_cvm(star_instance).cells)) == STAR_INITIAL
    assert [tuple(c) for c in initial_cvm(single_cell).cells] == [(1, 1, 1)]


def test_initial_closed_form_random():
    rng = random.Random(31)
    for _ in range(30):
        inst = random_instance(rng)
        assert initial_cvm(inst) == c_max(CellSet(inst))


def test_roadmap_classical(det33):
    facet = next(f for f in enumerate_facets(det33) if (1, 1, 1) not in f)
    rm = road_map(facet)
    assert rm.horizontal["1"] == DET33_ROADMAP_H
    assert rm.vertical["2"] == DET33_ROADMAP_V


def test_roadmap_single_cell(single_cell):
    rm = road_map(initial_cvm(single_cell))
    assert rm.horizontal["1"] == [[(1, 1)]]
    assert rm.vertical["2"] == [[(1, 1)]]


def test_roadmap_serialization(det33):
    rm = road_map(initial_cvm(det33))
    obj = rm.to_json_obj()
    assert set(obj) == {"horizontal", "vertical"}
    assert [len(p) for p in obj["horizontal"]["1"]] == [len(p) for p in rm.horizontal["1"]]
    assert all(isinstance(pt, list) and len(pt) == 2
               for path in obj["vertical"]["2"] for pt in path)


def test_roadmap_of_initial_matches_formula(double_instance, star_instance):
    rng = random.Random(71)
    instances = [double_instance, star_instance] + [random_instance(rng) for _ in range(10)]
    for inst in instances:
        rm = road_map(initial_cvm(inst))
        hor, ver = initial_roadmap_oracle(inst)
        for alpha, paths in rm.horizontal.items():
            assert [set(p) for p in paths] == hor[alpha]
        for beta, paths in rm.vertical.items():
            assert [set(p) for p in paths] == ver[beta]


def test_roadmap_star_multipage_facet(star_instance):
    facet = CellSet(star_instance, STAR_DRAWN_FACET)
    assert is_cvm(facet)
    assert facet in enumerate_facets(star_instance)
    rm = road_map(facet)
    assert rm.horizontal["1"] == STAR_DRAWN_H
    assert {v: paths for v, paths in rm.vertical.items()} == STAR_DRAWN_V


def test_roadmap_reintersection(double_instance):
    inst = double_instance
    for facet in enumerate_facets(inst):
        rm = road_map(facet)
        h_cells = set()
        for alpha, paths in rm.horizontal.items():
            for path in paths:
                h_cells |= {inst.phi_target_inv(alpha, *pt) for pt in path}
        v_cells = set()
        for beta, paths in rm.vertical.items():
            for path in paths:
                v_cells |= {inst.phi_source_inv(beta, *pt) for pt in path}
        assert h_cells & v_cells == set(facet.cells)


def test_roadmap_rejects_non_facets(double_instance):
    with pytest.raises(ValidationError):
        road_map(CellSet(double_instance, [(1, 1, 1)]))


def test_corner_counts_reference(double_instance):
    facets = enumerate_facets(double_instance)
    descending = list(reversed(facets))
    assert [set(map(tuple, f.cells)) for f in descending] == DOUBLE_FACETS_DESC
    reports = [corners(f) for f in descending]
    assert tuple(r.essential_se for r in reports) == DOUBLE_SE_COUNTS_DESC
    assert tuple(r.essential_nw for r in reports) == DOUBLE_NW_COUNTS_DESC
    # the same counts in the conventional two-row display order
    assert tuple(reports[i].essential_se for i in DOUBLE_PANEL_LAYOUT) == DOUBLE_SE_COUNTS_LAYOUT
    assert tuple(reports[i].essential_nw for i in DOUBLE_PANEL_LAYOUT) == DOUBLE_NW_COUNTS_LAYOUT


def test_initial_has_no_essential_nw(double_instance, star_instance):
    for inst in (double_instance, star_instance):
        rep = corners(initial_cvm(inst))
        assert rep.essential_nw == 0
        assert all(r.essential is False for r in rep.corners if r.kind == NW)


def test_corner_records_inside_facet(star_instance):
    facet = initial_cvm(star_instance)
    rep = corners(facet)
    assert all(r.cell in facet for r in rep.corners)
    assert {r.kind for r in rep.corners} <= {NW, SE}


def test_reflect_involution(double_instance, single_cell):
    for inst in (double_instance, single_cell):
        probe = initial_cvm(inst)
        r_inst, image = reflect(probe)
        back_inst, back = reflect(image)
        assert back_inst == inst
        assert tuple(back.cells) == tuple(probe.cells)
    # one-cell instances reflect to themselves
    r_inst, image = reflect(initial_cvm(single_cell))
    assert r_inst == single_cell and [tuple(c) for c in image.cells] == [(1, 1, 1)]


def test_reflect_exchanges_closures(double_instance):
    rng = random.Random(13)
    instances = [double_instance] + [random_instance(rng) for _ in range(8)]
    for inst in instances:
        r_inst, image_empty = reflect(CellSet(inst))
        lhs = reflect(c_max(CellSet(inst)))[1]
        assert lhs == c_min(CellSet(r_inst))


def test_reflection_reverses_ranks():
    # the rank reversal of ``reflect`` is the rotation's per-cell formula, and
    # rotating the instance twice gives it back
    from quiverdet.cvm import reflect_instance

    rng = random.Random(36)
    instances = [parse_preset(p) for p in ("det:3,4,2", "star-example", "double:3,4,3,2,2")]
    instances += [random_instance(rng) for _ in range(200)]
    for inst in instances:
        for cell, image in rotation(inst).items():
            r_inst, one = reflect(CellSet(inst, [cell]))
            assert r_inst is reflect_instance(inst) and one.cells == (image,)
        assert reflect_instance(reflect_instance(inst)) == inst


def test_greedy_close_within_a_candidate_mask():
    # the closure of the empty set within a mask, as ``verify``'s reflection
    # probes run it, against the rank-order definition: each cell of the
    # mask, ascending, joins when the set plus that cell is admissible; with
    # every cell allowed, that is c_min of the empty set
    from quiverdet.cvm import _greedy_close

    rng = random.Random(38)
    instances = [parse_preset(p) for p in ("det:3,4,2", "star-example", "double:3,4,3,2,2",
                                           "det:6,6,1")]
    instances += [random_instance(rng) for _ in range(200)]
    for inst in instances:
        empty, every = CellSet(inst), (1 << inst.size) - 1
        draws = [sum(1 << r for r in range(inst.size) if rng.random() < density)
                 for density in (0.2, 0.4, 0.8)]
        for within in (every, *draws):
            want = empty
            for r in range(inst.size):
                if within >> r & 1 and is_u_compatible(grown := want.add(inst.cells[r])):
                    want = grown
            assert _greedy_close(empty, False, within) == want, (inst, within)
            assert within != every or want == c_min(empty)


def _corner_set(records, kind, cell_map=None):
    """(cell, orientation, essential) of every record of one kind, cells mapped if asked."""
    return sorted((cell_map[r.cell] if cell_map else r.cell, r.orientation, r.essential)
                  for r in records if r.kind == kind)


def test_reflect_preserves_corner_counts(double_instance, star_instance, det33, single_cell):
    # essential NW corners of the image are the essential SE corners of the original;
    # record by record, the reflection is the independent oracle of the SE rule
    from quiverdet.cli import parse_preset

    rng = random.Random(43)
    instances = [double_instance, star_instance, det33, single_cell, parse_preset("det:5,5,2")]
    instances += [random_instance(rng) for _ in range(30)]
    for inst in instances:
        for facet in enumerate_facets(inst):
            rep = corners(facet)
            r_inst, image = reflect(facet)
            rep_image = corners(image)
            assert rep_image.essential_nw == rep.essential_se
            assert rep_image.essential_se == rep.essential_nw
            back = rotation(r_inst)
            assert _corner_set(rep.corners, SE) == _corner_set(rep_image.corners, NW, back)
            assert _corner_set(rep.corners, NW) == _corner_set(rep_image.corners, SE, back)


# -- definition-level road maps and corners -------------------------------------
#
# The per-position route: every block position's padded statistics through
# ``padded_nw``/``padded_se``, paths sorted into SW-to-NE order, point sets for
# the disjointness, straightness and corner tests, and position-keyed crossing
# dicts rebuilt for each corner kind.


def _order_path(points):
    """SW-to-NE traversal order: rows descending, columns ascending."""
    return sorted(points, key=lambda p: (-p[0], p[1]))


def road_map_oracle(cs):
    inst = cs.instance
    if not is_cvm(cs):
        raise ValidationError("road maps exist only for concurrent vertex maps")
    horizontal, vertical = {}, {}
    for vid, data in inst.vertex.items():
        st, (a, b, u) = cs.stats(vid), (data.a, data.b, data.u)
        target = data.side == TARGET
        buckets = [[] for _ in range(u)]
        for x in range(1, a + 1):
            for y in range(1, b + 1):
                # a source block pads its statistics as the transposed target picture
                shape = (x, y, a, b, u) if target else (y, x, b, a, u)
                p = padded_nw(st.nw_of(x, y), *shape) + 1
                if 1 <= p <= u and padded_se(st.se_of(x, y), *shape) == u - p:
                    buckets[p - 1].append((x, y))
        paths = [_order_path(pts) for pts in buckets]
        for p, path in enumerate(paths, start=1):
            if target:
                sw, ne = (a - u + p, 1), (p, b)
            else:
                sw, ne = (a, p), (1, b - u + p)
            if not _check_path(path, sw, ne):
                raise CrossCheckError(f"path {p} of block {vid!r} failed assembly")
        (horizontal if target else vertical)[vid] = paths

    h_cells = _covered_cells(inst, horizontal)
    v_cells = _covered_cells(inst, vertical)
    if h_cells & v_cells != set(cs.cells):
        raise CrossCheckError("path intersection does not reproduce the facet")
    for family, crossing in ((horizontal, v_cells), (vertical, h_cells)):
        for vid, paths in family.items():
            for path in paths:
                pset = set(path)
                for corner in _corners_of(pset, NW) + _corners_of(pset, SE):
                    if inst.phi_inv(vid, *corner) not in crossing:
                        raise CrossCheckError(f"corner of block {vid!r} off every crossing path")
    return RoadMap(horizontal, vertical)


def _covered_cells(inst, families):
    cells = set()
    for vid, paths in families.items():
        ranks = inst.block_ranks[vid]
        seen = set()
        for path in paths:
            for pt in path:
                if pt in seen:
                    raise CrossCheckError(f"paths of block {vid!r} intersect at {pt}")
                seen.add(pt)
                cells.add(inst.cells[ranks[pt[0] - 1][pt[1] - 1]])
    return cells


def _corners_of(path_set, kind):
    """NW corners have both their south and east neighbors on the path, SE corners north and west."""
    if kind == NW:
        return [(x, y) for x, y in path_set
                if (x + 1, y) in path_set and (x, y + 1) in path_set]
    return [(x, y) for x, y in path_set
            if (x - 1, y) in path_set and (x, y - 1) in path_set]


def _corner_records(cs, rm, kind):
    inst = cs.instance
    # relabeled index of the crossing path through every covered position, per block
    crossing = {vid: {} for vid in inst.vertex}
    for vid, paths in (*rm.horizontal.items(), *rm.vertical.items()):
        ranks = inst.block_ranks[vid]
        horizontal = inst.vertex[vid].side == TARGET
        for p, path in enumerate(paths, start=1):
            for x, y in path:
                r = ranks[x - 1][y - 1]
                ar = inst.arrow(inst.cells[r].k)
                if horizontal:
                    other, i, j = inst.positions[r][3:]
                    crossing[other][(i, j)] = p + ar.hpath_offset
                else:
                    other, i, j = inst.positions[r][:3]
                    crossing[other][(i, j)] = p + ar.vpath_offset

    records = []
    for vid, paths in (*rm.horizontal.items(), *rm.vertical.items()):
        data = inst.vertex[vid]
        horizontal = data.side == TARGET
        index, ranks = crossing[vid], inst.block_ranks[vid]
        shift = data.v - data.u if kind == NW else 0
        for p, path in enumerate(paths, start=1):
            for pt in _corners_of(set(path), kind):
                m = index.get(pt)
                if m is None:
                    raise CrossCheckError(f"{kind} corner not covered by a crossing path")
                essential = True
                if m == p + shift:
                    inter = [q for q in path if index.get(q) == m]  # SW to NE
                    essential = pt != (inter[-1] if (kind == NW) == horizontal else inter[0])
                records.append(CornerRecord(inst.cells[ranks[pt[0] - 1][pt[1] - 1]], kind,
                                            HORIZONTAL if horizontal else VERTICAL, essential))
    return records


def corners_oracle(cs):
    rm = road_map_oracle(cs)
    records = _corner_records(cs, rm, NW) + _corner_records(cs, rm, SE)
    records.sort(key=lambda r: (cell_key(r.cell), r.kind, r.orientation))
    ess_nw = len({r.cell for r in records if r.kind == NW and r.essential})
    ess_se = len({r.cell for r in records if r.kind == SE and r.essential})
    for rec in records:
        if rec.cell not in cs:
            raise CrossCheckError("corner cell outside the facet")
    return CornerReport(tuple(records), ess_nw, ess_se)


@pytest.mark.parametrize("preset", ["det:3,3,2", "det:5,5,2", "double:2,3,2,1,1", "star-example",
                                    "secant:4,4,2", "double:3,4,3,2,2"])
def test_roadmap_and_corners_match_oracle(preset):
    for facet in enumerate_facets(parse_preset(preset)):
        assert road_map(facet) == road_map_oracle(facet)
        assert corners(facet) == corners_oracle(facet)


def test_roadmap_and_corners_match_oracle_random():
    rng = random.Random(101)
    for _ in range(100):
        for facet in enumerate_facets(random_instance(rng, max_cells=20)):
            assert road_map(facet) == road_map_oracle(facet)
            assert corners(facet) == corners_oracle(facet)


def test_roadmap_cross_check_fires_on_tampered_tables(det33):
    # the road map reads the facet's cached chain tables; a corrupted SE table
    # moves points off their paths, and the assembly check must notice
    facet = CellSet.from_mask(det33, enumerate_facets(det33)[1].mask)
    se = facet.stats("1").se
    for row in se:
        row[:] = [0] * len(row)
    with pytest.raises(CrossCheckError, match="path 2 of block '1' failed assembly") as fast:
        road_map(facet)
    with pytest.raises(CrossCheckError) as slow:
        road_map_oracle(facet)
    assert str(fast.value) == str(slow.value)
    # tables of one facet under the mask of another: the paths no longer meet in the set
    first, second = enumerate_facets(det33)[:2]
    facet = CellSet.from_mask(det33, first.mask)
    road_map(facet)  # caches the block tables of ``first``
    facet.mask = second.mask
    with pytest.raises(CrossCheckError, match="path intersection does not reproduce the facet"):
        road_map(facet)


def test_roadmap_straightness_check_fires_alone(monkeypatch, double_instance):
    # Among disjoint staircase families, those whose crossing pattern has N
    # cells are straight, so no chain tables reach this check alone; instead
    # one genuine path reports a turn at a point that no crossing path covers.
    import quiverdet.cvm as cvm
    import quiverdet.definitions as definitions

    facet = enumerate_facets(double_instance)[0]
    (path,) = road_map(facet).horizontal["1"]
    layout = {vid: where for vid, *_, where in cvm._path_layout(double_instance)}
    n = next(n for n, pt in enumerate(path) if not facet.mask >> layout["1"][pt][0] & 1)
    real = definitions._turns

    def one_more_turn(p):
        return real(p) + [(n, NW)] if p == path else real(p)

    monkeypatch.setattr(definitions, "_turns", one_more_turn)
    with pytest.raises(CrossCheckError, match="corner of block '1' off every crossing path"):
        road_map(facet)


@pytest.mark.parametrize("function", [is_cvm, c_max, c_min, corners, road_map, reflect])
@pytest.mark.parametrize("value", [3, None, "x", [(1, 1, 1)], CellSet])
def test_cell_set_functions_reject_anything_else(function, value):
    # a ValidationError, never a stray AttributeError or TypeError
    with pytest.raises(ValidationError, match="expected a CellSet"):
        function(value)


@pytest.mark.parametrize("value", [3, None, "x", [(1, 1, 1)], CellSet])
def test_verify_shelling_rejects_anything_else(value, star_instance):
    # a non-iterable, and an item that is not a cell set, first or after a
    # facet: a ValidationError, never a stray AttributeError or TypeError
    facet = initial_cvm(star_instance)
    with pytest.raises(ValidationError, match="expected a CellSet|facets must be an iterable"):
        verify_shelling(value)
    for order in ([facet, value], [value, facet]):
        with pytest.raises(ValidationError, match="expected a CellSet"):
            verify_shelling(order)
