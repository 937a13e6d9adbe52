import random

import pytest

from quiverdet import (BipartiteQuiver, CellSet, FacetCapExceeded, ValidationError, apply_inverse,
                       apply_move, build_instance, c_min, chutable_moves, cmp_T_sets,
                       enumerate_facets, initial_cvm, reflect)
from quiverdet import moves
from quiverdet.cvm import HORIZONTAL, VERTICAL
from quiverdet.definitions import _lines, _scan
from quiverdet.errors import DEFAULT_FACET_CAP, QuiverDetError
from quiverdet.quiver import TARGET
from quiverdet.verify import brute_maximal_facet_masks, random_instance

from golden import DOUBLE_FACETS_DESC, rotation


def test_initial_has_one_move(double_instance):
    initial = initial_cvm(double_instance)
    moves = chutable_moves(initial)
    assert len(moves) == 1
    # the 2x2 rectangle where both orientations coincide is emitted once
    assert tuple(moves[0].added) == (2, 1, 2)
    assert tuple(moves[0].removed) == (3, 2, 2)
    nxt = apply_move(initial, moves[0])
    assert set(map(tuple, nxt.cells)) == DOUBLE_FACETS_DESC[1]


def test_second_facet_has_two_moves(double_instance):
    second = CellSet(double_instance, DOUBLE_FACETS_DESC[1])
    assert len(chutable_moves(second)) == 2


def test_star_initial_moves(star_instance):
    initial = initial_cvm(star_instance)
    moves = chutable_moves(initial)
    assert {tuple(m.added) for m in moves} == {(2, 1, 1), (2, 1, 2), (2, 1, 3), (1, 2, 1)}
    # the move landing on (1,2,1) crosses the page boundary inside the target block
    mv = next(m for m in moves if tuple(m.added) == (1, 2, 1))
    assert tuple(mv.removed) == (2, 2, 2)
    child = apply_move(initial, mv)
    assert set(map(tuple, child.cells)) == {
        (3, 1, 1), (3, 2, 1), (2, 2, 1), (1, 2, 1),
        (3, 1, 2), (3, 2, 2), (1, 2, 2),
        (3, 1, 3), (3, 2, 3), (2, 2, 3), (1, 2, 3),
    }


def test_sink_has_no_moves(double_instance, star_instance):
    for inst in (double_instance, star_instance):
        sink = c_min(CellSet(inst))
        assert chutable_moves(sink) == []


def test_unique_source_and_sink(double_instance):
    # exactly one facet admits no move (the minimum) and exactly one admits
    # no inverse move (the maximum, whose reflection has no forward moves)
    facets = enumerate_facets(double_instance)
    no_moves = [f for f in facets if not chutable_moves(f)]
    assert no_moves == [facets[0]]
    no_inverse = [f for f in facets if not chutable_moves(reflect(f)[1])]
    assert no_inverse == [facets[-1]]


def _moves_by_definition(facet):
    """Chutable rectangles straight from the definition, as move tuples.

    A 2-row strip of a target block (2-column strip of a source block) is
    chutable when its only occupied positions are its NE, SE and SW corners.
    A 2x2 rectangle inside one page is both; it is reported once, as horizontal.
    """
    inst = facet.instance
    found = {}
    for vid, d in sorted(inst.vertex.items(), key=lambda item: item[1].side != TARGET):
        horizontal = d.side == TARGET
        occupied = {(x, y) for x in range(1, d.a + 1) for y in range(1, d.b + 1)
                    if inst.phi_inv(vid, x, y) in facet}
        strips = ([(x, x + 1, y1, y2) for x in range(1, d.a) for y1 in range(1, d.b + 1)
                   for y2 in range(y1 + 1, d.b + 1)] if horizontal else
                  [(x1, x2, y, y + 1) for y in range(1, d.b) for x1 in range(1, d.a + 1)
                   for x2 in range(x1 + 1, d.a + 1)])
        for x1, x2, y1, y2 in strips:
            inside = {(x, y) for x, y in occupied if x1 <= x <= x2 and y1 <= y <= y2}
            if inside == {(x1, y2), (x2, y2), (x2, y1)}:
                removed, added = inst.phi_inv(vid, x2, y2), inst.phi_inv(vid, x1, y1)
                found.setdefault((removed, added), (
                    HORIZONTAL if horizontal else VERTICAL, vid, (x2 - x1 + 1, y2 - y1 + 1)))
    return {(r, a, *rest) for (r, a), rest in found.items()}


def test_moves_match_definition(star_instance):
    rng = random.Random(61)
    for inst in [star_instance] + [random_instance(rng, max_cells=24) for _ in range(30)]:
        for facet in enumerate_facets(inst):
            got = {(m.removed, m.added, m.direction, m.vertex, m.extent)
                   for m in chutable_moves(facet)}
            assert got == _moves_by_definition(facet)


def test_inverse_move_symmetry(double_instance):
    # moves of the reflected facet biject with inverse moves of the facet;
    # check the actual (removed, added) pairs, not just their number
    facets = enumerate_facets(double_instance)
    incoming = {f.mask: set() for f in facets}
    for facet in facets:
        for mv in chutable_moves(facet):
            incoming[apply_move(facet, mv).mask].add((tuple(mv.removed), tuple(mv.added)))
    for facet in facets:
        r_inst, image = reflect(facet)
        back = rotation(r_inst)
        mapped = {(tuple(back[mv.added]), tuple(back[mv.removed]))
                  for mv in chutable_moves(image)}
        assert mapped == incoming[facet.mask]


def test_apply_then_invert(double_instance):
    for facet in enumerate_facets(double_instance):
        for mv in chutable_moves(facet):
            out = apply_move(facet, mv)
            assert cmp_T_sets(out, facet) < 0
            assert len(out) == len(facet)
            assert apply_inverse(out, mv) == facet


def test_apply_rejects_stale_move(double_instance):
    facets = enumerate_facets(double_instance)
    mv = chutable_moves(facets[-1])[0]
    with pytest.raises(ValidationError):
        apply_move(facets[0], mv)


def test_moves_require_facets(double_instance):
    with pytest.raises(ValidationError):
        chutable_moves(CellSet(double_instance, [(1, 1, 1)]))


def test_enumeration_counts(double_instance, star_instance, det33):
    assert len(enumerate_facets(double_instance)) == 12
    assert len(enumerate_facets(star_instance)) == 54
    assert len(enumerate_facets(det33)) == 3


def test_enumeration_order_and_membership(double_instance):
    facets = enumerate_facets(double_instance)
    masks = [f.mask for f in facets]
    assert masks == sorted(masks)
    assert [set(map(tuple, f.cells)) for f in reversed(facets)] == DOUBLE_FACETS_DESC


def test_facet_cap():
    from quiverdet.cli import parse_preset

    with pytest.raises(FacetCapExceeded):
        enumerate_facets(parse_preset("double:2,3,2,1,1"), facet_cap=5)


@pytest.mark.parametrize("preset", ["double:2,3,2,1,1", "det:5,5,2"])
def test_facet_cap_boundary(preset):
    # the cap counts distinct facets: exactly n of them fit under a cap of n
    from quiverdet.cli import parse_preset

    inst = parse_preset(preset)
    facets = enumerate_facets(inst)
    n = len(facets)
    assert enumerate_facets(inst, facet_cap=n) == facets
    with pytest.raises(FacetCapExceeded):
        enumerate_facets(inst, facet_cap=n - 1)
    for cap in (0, None, 2.5, "9", True):
        with pytest.raises(ValidationError, match="facet cap"):
            enumerate_facets(inst, facet_cap=cap)


def test_closure_matches_brute_force(double_instance, star_instance, det33):
    rng = random.Random(17)
    instances = [double_instance, star_instance, det33] + \
        [random_instance(rng) for _ in range(20)]
    for inst in instances:
        assert [f.mask for f in enumerate_facets(inst)] == brute_maximal_facet_masks(inst)


def _lgv_determinant(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        total += (-1) ** col * matrix[0][col] * _lgv_determinant(minor)
    return total


@pytest.mark.parametrize("m,n,u", [(3, 3, 2), (4, 4, 2), (4, 5, 2), (5, 5, 3), (2, 7, 1)])
def test_classical_multiplicity_matches_path_determinant(m, n, u):
    # facets of the one-page case are families of u nonintersecting monotone
    # paths from (m-u+i, 1) to (j, n), so their number is the determinant of
    # the single-path count matrix
    from math import comb

    from quiverdet.cli import parse_preset

    inst = parse_preset(f"det:{m},{n},{u}")
    matrix = [[comb((m - u + i - j) + (n - 1), n - 1) if m - u + i - j >= 0 else 0
               for j in range(1, u + 1)] for i in range(1, u + 1)]
    assert len(enumerate_facets(inst)) == _lgv_determinant(matrix)


def _lines_from_mask(layout, mask):
    """A facet's line occupancy rebuilt from its mask, bit by bit."""
    _, _, where = layout
    occ = [0] * len(layout[0])
    while mask:
        bit = mask & -mask
        mask ^= bit
        tn, tb, sn, sb = where[bit.bit_length() - 1]
        occ[tn] |= tb
        occ[sn] |= sb
    return occ


def _closure_from_scratch(inst, start=None):
    """Breadth-first chute-move closure; every facet's lines are rebuilt from its mask.

    Returns the sorted masks and each facet's distance from the initial one,
    or from the cell set ``start`` when it is given.
    """
    layout = moves._move_layout(inst)
    start = initial_cvm(inst).mask if start is None else start
    distance, frontier = {start: 0}, [start]
    while frontier:
        nxt = []
        for mask in frontier:
            for _, removed, added, _ in _scan(layout, _lines_from_mask(layout, mask)):
                out = mask ^ removed | added
                if out not in distance:
                    distance[out] = distance[mask] + 1
                    nxt.append(out)
        frontier = nxt
    return sorted(distance), distance


@pytest.fixture(scope="module")
def closure_instances(double_instance, star_instance, det33, single_cell):
    from quiverdet.cli import parse_preset

    rng = random.Random(23)
    return [double_instance, star_instance, det33, single_cell, parse_preset("det:6,6,3")] + \
        [random_instance(rng) for _ in range(40)]


def test_carried_lines_match_closure_from_scratch(closure_instances):
    # the closure flips a child's lines from its parent's; rebuilding each
    # facet's lines from its mask must reach the same facets
    for inst in closure_instances:
        masks = moves._facet_masks(inst, DEFAULT_FACET_CAP)
        assert masks == _closure_from_scratch(inst)[0], inst
        assert [f.mask for f in enumerate_facets(inst)] == masks


def test_carried_lines_match_closure_from_scratch_property():
    # the closure runs the carry inline and flips a child's lines from its
    # parent's; the reference scan on lines rebuilt from each mask agrees
    from test_fold import _for_random_instances

    def check(inst):
        assert moves._facet_masks(inst, DEFAULT_FACET_CAP) == _closure_from_scratch(inst)[0], inst

    _for_random_instances(check)


def _check_packed_layout(inst):
    # a facet's packed word, the XOR of its cells' flip words as the closure
    # carries it, cut into w-bit lines is its list of lines; every move's two
    # cells sit in the cell table where the closure looks them up
    layout = pre, pairs, where = moves._move_layout(inst)
    w, tops, guards, twins, cell, flip = moves._packed_layout(inst)
    assert w > max(len(p) - 1 for p in pre)  # the top position of a line stays below its guard
    assert tops == sum((1 << w) - 2 << n * w for n, _, _ in pairs)
    assert guards == sum(1 << (n + 1) * w for n, _, _ in pairs)
    assert twins == sum(t << n * w for n, _, t in pairs)
    line = (1 << w) - 1
    for mask in moves._facet_masks(inst, DEFAULT_FACET_CAP):
        word = 0
        for r in range(inst.size):
            if mask >> r & 1:
                word ^= flip[r]
        occ = _lines(layout, mask)
        assert [word >> n * w & line for n in range(len(pre))] == occ, (inst, mask)
        assert word >> len(pre) * w == 0 and word & guards == 0
        for vid, removed, added, _ in _scan(layout, occ):
            # (line, position bit) of both cells in the rectangle's block
            side = slice(0, 2) if inst.vertex[vid].side == TARGET else slice(2, 4)
            n, y = where[added.bit_length() - 1][side]
            bottom, y2 = where[removed.bit_length() - 1][side]
            assert bottom == n + 1
            assert cell[n * w + y2.bit_length() + w] == (removed, flip[removed.bit_length() - 1])
            assert cell[n * w + y.bit_length()] == (added, flip[added.bit_length() - 1])


def test_packed_layout_cuts_into_the_lines(closure_instances):
    for inst in closure_instances:
        _check_packed_layout(inst)


def test_packed_layout_cuts_into_the_lines_property():
    from test_fold import _for_random_instances

    _for_random_instances(_check_packed_layout)


def _wide_instance(rng, max_cells=24):
    """A random normalized instance past ``random_instance``'s envelope.

    Up to 3 targets, 4 sources and 6 arrows, dimensions up to 4 and at most
    ``max_cells`` cells: lines of unequal width, and source blocks of several
    pages with rows paired inside a page (``_move_layout``'s twins).
    """
    while True:
        targets = [f"t{i}" for i in range(1, rng.randint(1, 3) + 1)]
        sources = [f"s{i}" for i in range(1, rng.randint(1, 4) + 1)]
        arrows = tuple((rng.choice(sources), rng.choice(targets))
                       for _ in range(rng.randint(1, 6)))
        quiver = BipartiteQuiver(tuple(s for s in sources if any(a[0] == s for a in arrows)),
                                 tuple(t for t in targets if any(a[1] == t for a in arrows)),
                                 arrows)
        m = {v: rng.randint(1, 4) for v in quiver.vertices}
        if sum(m[s] * m[t] for s, t in arrows) > max_cells:
            continue
        u = {v: rng.randint(1, max(m[v] - 1, 1)) for v in quiver.vertices}
        try:
            return build_instance(quiver, m, u, mode="normalize")
        except QuiverDetError:
            continue


def test_closure_on_a_wider_envelope():
    rng = random.Random(41)
    instances = [_wide_instance(rng) for _ in range(150)]
    layouts = [moves._move_layout(inst) for inst in instances]
    # the draws reach what the packed word must keep apart
    assert any(len({len(p) for p in pre}) > 1 for pre, _, _ in layouts)
    assert any(twins for _, pairs, _ in layouts for _, _, twins in pairs)
    assert max(len(inst.arrows) for inst in instances) >= 5
    for inst in instances:
        assert moves._facet_masks(inst, DEFAULT_FACET_CAP) == _closure_from_scratch(inst)[0], inst
        _check_packed_layout(inst)


def test_closure_from_any_cell_set_matches_the_reference(monkeypatch):
    # on the facets tested no carry runs past the end of its line; from an
    # arbitrary cell set it can, and the guard bits must stop it where the
    # reference scan, on lines kept apart, stops it
    rng = random.Random(43)
    for _ in range(200):
        inst = _wide_instance(rng, max_cells=12) if rng.random() < 0.5 else \
            random_instance(rng, max_cells=12)
        start = rng.getrandbits(inst.size)
        monkeypatch.setattr(moves, "_initial_mask", lambda _inst, _start=start: _start)
        got = moves._facet_masks(inst, DEFAULT_FACET_CAP)
        assert got == _closure_from_scratch(inst, start)[0], (inst, start)


def test_chutable_moves_on_every_facet_match_definition(closure_instances):
    for inst in closure_instances:
        for facet in enumerate_facets(inst):
            got = {(m.removed, m.added, m.direction, m.vertex, m.extent)
                   for m in chutable_moves(facet)}
            assert got == _moves_by_definition(facet), (inst, facet)


def test_scan_lists_each_move_once_property():
    # every chute move of every facet comes out of the scan exactly once,
    # a 2x2 inside one page from its target block only
    from test_fold import _for_random_instances

    def check(inst):
        layout = moves._move_layout(inst)
        cell = inst.cells
        for facet in enumerate_facets(inst):
            occ = _lines(layout, facet.mask)
            scanned = [(cell[removed.bit_length() - 1], cell[added.bit_length() - 1], vid)
                       for vid, removed, added, _ in _scan(layout, occ)]
            assert len({m[:2] for m in scanned}) == len(scanned), (inst, facet)
            expected = {(removed, added, vid)
                        for removed, added, _, vid, _ in _moves_by_definition(facet)}
            assert set(scanned) == expected, (inst, facet)

    _for_random_instances(check)


@pytest.mark.parametrize("preset", ["double:2,3,2,1,1", "det:5,5,2", "star-example"])
def test_facet_cap_reports_progress(preset):
    # the message names the facets found and the breadth-first layers completed:
    # layer d holds the facets d moves from the initial one
    from quiverdet.cli import parse_preset

    inst = parse_preset(preset)
    distance = _closure_from_scratch(inst)[1]
    for cap in range(1, len(distance)):
        complete = max(d for d in range(len(distance))
                       if sum(v <= d for v in distance.values()) <= cap)
        with pytest.raises(FacetCapExceeded) as exc:
            moves._facet_masks(inst, cap)
        assert str(exc.value) == (
            f"more than {cap} facets; stopped with {cap} found and {complete + 1} "
            f"breadth-first layers complete (all facets within {complete} moves of the "
            f"initial one); raise the cap to continue")
