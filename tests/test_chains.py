import random

import pytest

from quiverdet import (CellSet, ValidationError, can_extend, corner_stats, is_u_compatible,
                       max_diagonal_chain)
from quiverdet.chains import _class_blocked, _grow, _load_blocks, _occupancy, _rank_ladder
from quiverdet.cli import parse_preset
from quiverdet.cvm import c_max
from quiverdet.definitions import _chain_tables
from quiverdet.quiver import BipartiteQuiver, Instance
from quiverdet.verify import random_instance

from golden import DOUBLE_INITIAL


def exhaustive_max_chain(points):
    """O(2^n) oracle: scan every subset and keep the largest actual chain."""
    pts = list(points)
    best = 0
    for bits in range(1 << len(pts)):
        sub = sorted(pts[i] for i in range(len(pts)) if bits >> i & 1)
        if all(a[0] < b[0] and a[1] < b[1] for a, b in zip(sub, sub[1:])):
            best = max(best, len(sub))
    return best


def padded_stats_oracle(cs, cell):
    """Recompute the padded statistics from the boundary-augmented point sets."""
    inst = cs.instance
    tgt, ti, tj = inst.phi_target(cell)
    d = inst.vertex[tgt]
    pts = cs.block_points(tgt)
    ts = range(1, d.u + 1)
    aug = pts + [(d.a - d.u + t, -d.u + t) for t in ts] + [(t, d.b - d.u + t) for t in ts]
    nw_pad = max_diagonal_chain([p for p in aug if p[0] <= ti - 1 and p[1] <= tj - 1])
    aug = pts + [(d.a - d.u + t, t) for t in ts] + [(t, d.b + t) for t in ts]
    se_pad = max_diagonal_chain([p for p in aug if p[0] >= ti + 1 and p[1] >= tj + 1])

    src, si, sj = inst.phi_source(cell)
    d = inst.vertex[src]
    pts = cs.block_points(src)
    ts = range(1, d.u + 1)
    aug = pts + [(-d.u + t, d.b - d.u + t) for t in ts] + [(d.a - d.u + t, t) for t in ts]
    nw_src_pad = max_diagonal_chain([p for p in aug if p[0] <= si - 1 and p[1] <= sj - 1])
    aug = pts + [(t, d.b - d.u + t) for t in ts] + [(d.a + t, t) for t in ts]
    se_src_pad = max_diagonal_chain([p for p in aug if p[0] >= si + 1 and p[1] >= sj + 1])
    return nw_pad, se_pad, nw_src_pad, se_src_pad


def test_max_chain_basics():
    assert max_diagonal_chain([]) == 0
    assert max_diagonal_chain([(1, 1), (2, 2), (3, 3)]) == 3
    assert max_diagonal_chain([(1, 2), (2, 1)]) == 1


def test_max_chain_vs_exhaustive():
    rng = random.Random(11)
    for n in (4, 7, 10, 12, 15):
        pts = {(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)}
        assert max_diagonal_chain(pts) == exhaustive_max_chain(pts)


def test_chain_tables_vs_max_chain():
    rng = random.Random(17)
    for a, b in ((1, 1), (1, 6), (6, 1), (3, 4), (5, 5), (4, 7)):
        for _ in range(6):
            density = rng.random()
            pts = [(x, y) for x in range(1, a + 1) for y in range(1, b + 1)
                   if rng.random() < density]
            occupied = [[False] * (b + 2) for _ in range(a + 2)]
            for x, y in pts:
                occupied[x][y] = True
            nw, se = _chain_tables(a, b, occupied)
            for x in range(a + 1):
                for y in range(b + 1):
                    assert nw[x][y] == max_diagonal_chain(
                        [p for p in pts if p[0] <= x and p[1] <= y])
            for x in range(1, a + 2):
                for y in range(1, b + 2):
                    assert se[x][y] == max_diagonal_chain(
                        [p for p in pts if p[0] >= x and p[1] >= y])


def _quadrant_tables(ranks, size):
    """Definition level: per cell rank, the positions strictly SE and strictly NW of it."""
    cells = [(x, y, r) for x, row in enumerate(ranks, start=1) for y, r in enumerate(row, start=1)]
    se, nw = [0] * size, [0] * size
    for x, y, r in cells:
        se[r] = sum(1 << q for i, j, q in cells if i > x and j > y)
        nw[r] = sum(1 << q for i, j, q in cells if i < x and j < y)
    return se, nw


def _levels_by_definition(a, b, u, ranks, mask):
    """N_1..N_u and S_1..S_u of a block: the positions with nw >= j, then with se >= j."""
    nw, se = _chain_tables(a, b, _occupancy(ranks, mask))
    cells = [(x, y, r) for x, row in enumerate(ranks, start=1) for y, r in enumerate(row, start=1)]
    return ([sum(1 << r for x, y, r in cells if nw[x - 1][y - 1] >= j) for j in range(1, u + 1)]
            + [sum(1 << r for x, y, r in cells if se[x + 1][y + 1] >= j) for j in range(1, u + 1)])


def _grow_in_order(kernels, rungs, order, blocks):
    """Grow empty levels by the cells of ``order`` one at a time, checking each step by definition.

    ``blocks[start]`` is the ``(a, b, u, ranks)`` of the block that the
    kernel at ``start`` holds.  Returns the union of what ``_grow`` reported
    blocked.
    """
    levels = [0] * sum(2 * kernel[0] for kernel in kernels)
    held = reported = 0
    for r in order:
        held |= 1 << r
        for kernel in rungs[r][1]:
            blocked = _grow(levels, kernel, held, r)
            u, start = kernel[0], kernel[1]
            assert levels[start:start + 2 * u] == _levels_by_definition(*blocks[start], held), (
                held, r)
            assert blocked in (0, _class_blocked(levels, kernel))
            reported |= blocked
    assert levels == [level for kernel in kernels
                      for level in _levels_by_definition(*blocks[kernel[1]], held)]
    return reported


def _kernel_blocks(inst):
    """Per kernel ``start`` of ``_rank_ladder``, the ``(a, b, u, ranks)`` of a block it holds."""
    return {_kernel_of(inst, vid)[1]: (d.a, d.b, d.u, inst.block_ranks[vid])
            for vid, d in inst.vertex.items() if _block_class(inst, vid)[0] == "staircase"}


def test_chain_levels_vs_chain_tables():
    # the level kernel against the table definition, on any occupancy
    # (over-long chains included), any rank u and a scrambled rank layout:
    # the levels grown in a random order, after every step, and the blocked
    # positions read off them
    rng = random.Random(23)
    shapes = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(400)]
    shapes += [(1, b) for b in range(1, 7)] + [(a, 1) for a in range(1, 7)]
    for a, b in shapes:
        size = a * b
        for u in range(1, min(a, b) + 2):
            flat = rng.sample(range(size), size)
            ranks = [flat[x * b:(x + 1) * b] for x in range(a)]
            kernel = (u, 0, *_quadrant_tables(ranks, size))
            density = rng.random()
            mask = sum(1 << r for r in range(size) if rng.random() < density)
            levels = _levels_by_definition(a, b, u, ranks, mask)
            nw_t, se_t = _chain_tables(a, b, _occupancy(ranks, mask))
            expected = sum(1 << r for x, row in enumerate(ranks, start=1)
                           for y, r in enumerate(row, start=1)
                           if nw_t[x - 1][y - 1] + se_t[x + 1][y + 1] >= u)
            assert _class_blocked(levels, kernel) == expected, (a, b, u, ranks, mask)
            order = [r for r in range(size) if mask >> r & 1]
            rng.shuffle(order)
            blocks = {0: (a, b, u, ranks)}
            assert _grow_in_order((kernel,), [(0, (kernel,))] * size, order, blocks) == expected


def _blocked_by_definition(inst, mask, vid):
    """A block's positions with nw + se >= u in its ``_chain_tables``, and if it is u-compatible."""
    d = inst.vertex[vid]
    ranks = inst.block_ranks[vid]
    nw, se = _chain_tables(d.a, d.b, _occupancy(ranks, mask))
    blocked = sum(1 << r for x, row in enumerate(ranks, start=1) for y, r in enumerate(row, start=1)
                  if nw[x - 1][y - 1] + se[x + 1][y + 1] >= d.u)
    return blocked, nw[d.a][d.b] <= d.u


def _block_class(inst, vid):
    """never-blocking, rank-1 or staircase, and whether another block is its twin."""
    d = inst.vertex[vid]
    twin = any(w != vid and e.u == d.u and inst.block_ranks[w] == inst.block_ranks[vid]
               for w, e in inst.vertex.items())
    if d.u >= min(d.a, d.b):
        return "never-blocking", twin
    return ("rank-1" if d.u == 1 else "staircase"), twin


def _kernel_of(inst, vid):
    """The ``_rank_ladder`` kernel that holds staircase block ``vid``."""
    tables = list(_quadrant_tables(inst.block_ranks[vid], inst.size))
    [kernel] = [k for k in _rank_ladder(inst)[0]
                if k[0] == inst.vertex[vid].u and [k[2], k[3]] == tables]
    return kernel


def _check_ladder(inst, mask):
    """``_load_blocks`` and each part of ``_rank_ladder`` against every block's chain tables."""
    levels, blocked = _load_blocks(inst, mask)
    kernels, rungs = _rank_ladder(inst)
    quadrants = 0
    for r, (quad, _) in enumerate(rungs):
        if mask >> r & 1:
            quadrants |= quad
    expected = rank1 = 0
    compatible = True
    classes = set()
    for vid, d in inst.vertex.items():
        want, ok = _blocked_by_definition(inst, mask, vid)
        expected |= want
        compatible &= ok
        kind, twin = _block_class(inst, vid)
        classes.add((kind, twin))
        if kind == "never-blocking":
            assert want == 0 and ok
        elif kind == "rank-1":
            rank1 |= want
        else:  # one kernel per set of twins, holding exactly this block's levels
            kernel = _kernel_of(inst, vid)
            start = kernel[1]
            assert levels[start:start + 2 * d.u] == _levels_by_definition(
                d.a, d.b, d.u, inst.block_ranks[vid], mask)
            assert _class_blocked(levels, kernel) == want
    assert quadrants == rank1
    assert blocked == expected
    assert (blocked & mask == 0) == compatible
    assert len(levels) == sum(2 * kernel[0] for kernel in kernels)
    assert len(kernels) == len({
        (inst.block_ranks[vid], d.u) for vid, d in inst.vertex.items() if 1 < d.u < min(d.a, d.b)})
    return classes


def _ladder_masks(inst, rng):
    """Arbitrary masks: empty, full, random densities (mostly not admissible) and facets."""
    from quiverdet import enumerate_facets

    full = (1 << inst.size) - 1
    masks = [0, full]
    for _ in range(12):
        density = rng.random()
        masks.append(sum(1 << r for r in range(inst.size) if rng.random() < density))
    masks += [f.mask for f in enumerate_facets(inst)][:8]
    return masks


def _check_rungs(inst):
    """Each rung's kernels and each kernel's quadrants against the cell's staircase blocks."""
    kernels, rungs = _rank_ladder(inst)
    classes = [0] * inst.size  # per cell, its staircase blocks up to twins
    for vid, d in inst.vertex.items():
        kind, _ = _block_class(inst, vid)
        ranks = inst.block_ranks[vid]
        first = next(w for w in inst.vertex if inst.vertex[w].u == d.u
                     and inst.block_ranks[w] == ranks) == vid
        se, nw = _quadrant_tables(ranks, inst.size)
        for row in ranks:
            for r in row:
                if kind == "staircase":
                    kernel = _kernel_of(inst, vid)
                    assert kernel in rungs[r][1]
                    assert (kernel[2][r], kernel[3][r]) == (se[r], nw[r]), (vid, r)
                    classes[r] += first
    assert [len(steps) for _, steps in rungs] == classes


def test_levels_grow_like_a_fresh_load():
    # the levels grown one cell at a time, in random orders, equal the
    # chain-table levels after every step, and what ``_grow`` reports
    # blocked is the union of the blocked sets it passed
    rng = random.Random(37)
    instances = [parse_preset(p) for p in LADDER_PRESETS]
    instances += [random_instance(rng, max_cells=16) for _ in range(40)]
    grown = 0
    for inst in instances:
        _check_rungs(inst)
        kernels, rungs = _rank_ladder(inst)
        blocks = _kernel_blocks(inst)
        for mask in _ladder_masks(inst, rng):
            order = [r for r in range(inst.size) if mask >> r & 1]
            rng.shuffle(order)
            want = 0
            for vid, d in inst.vertex.items():
                if _block_class(inst, vid)[0] == "staircase":
                    want |= _blocked_by_definition(inst, mask, vid)[0]
            assert _grow_in_order(kernels, rungs, order, blocks) == want
            grown += len(order) * bool(kernels)
    assert grown


def test_levels_grow_like_a_fresh_load_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), max_cells=st.integers(1, 20),
                      bits=st.integers(0, 2 ** 20 - 1), order_seed=st.integers(0, 2 ** 16))
    def run(seed, max_cells, bits, order_seed):
        inst = random_instance(random.Random(seed), max_cells=max_cells)
        kernels, rungs = _rank_ladder(inst)
        order = [r for r in range(inst.size) if bits >> r & 1]
        random.Random(order_seed).shuffle(order)
        _grow_in_order(kernels, rungs, order, _kernel_blocks(inst))

    run()


def _load_in_order(inst, order):
    """``_load_blocks`` with the cells added in ``order`` instead of lowest first."""
    kernels, rungs = _rank_ladder(inst)
    levels = [0] * sum(2 * kernel[0] for kernel in kernels)
    blocked = held = 0
    for r in order:
        held |= 1 << r
        quadrants, steps = rungs[r]
        blocked |= quadrants
        for kernel in steps:
            blocked |= _grow(levels, kernel, held, r)
    return levels, blocked


def test_shuffled_growth_matches_chain_tables_property():
    # a mask's cells grown in any order give the chain-table levels of every
    # staircase block and the chain-table blocked mask of every block, as
    # ``_load_blocks`` (lowest first) does
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), max_cells=st.integers(1, 20),
                      bits=st.integers(0, 2 ** 20 - 1), order_seed=st.integers(0, 2 ** 16))
    def run(seed, max_cells, bits, order_seed):
        inst = random_instance(random.Random(seed), max_cells=max_cells)
        mask = bits & (1 << inst.size) - 1
        order = [r for r in range(inst.size) if mask >> r & 1]
        random.Random(order_seed).shuffle(order)
        levels, blocked = _load_in_order(inst, order)
        assert (levels, blocked) == _load_blocks(inst, mask)
        want = 0
        for vid, d in inst.vertex.items():
            want |= _blocked_by_definition(inst, mask, vid)[0]
            if _block_class(inst, vid)[0] == "staircase":
                start = _kernel_of(inst, vid)[1]
                assert levels[start:start + 2 * d.u] == _levels_by_definition(
                    d.a, d.b, d.u, inst.block_ranks[vid], mask)
        assert blocked == want

    run()


LADDER_PRESETS = ("det:3,3,1", "det:3,4,2", "det:4,5,2", "star-example", "det:5,5,3")


def test_rank_ladder_vs_chain_tables():
    rng = random.Random(29)
    instances = [parse_preset(p) for p in LADDER_PRESETS]
    instances += [random_instance(rng, max_cells=16) for _ in range(60)]
    # same positions, different ranks, as no normalized instance has: not twins
    one_arrow = BipartiteQuiver(("2",), ("1",), (("2", "1"),))
    instances += [Instance(one_arrow, {"1": 4, "2": 5}, {"1": 2, "2": u}) for u in (1, 3)]
    classes = set()
    for inst in instances:
        for mask in _ladder_masks(inst, rng):
            classes |= _check_ladder(inst, mask)
    kinds = {kind for kind, _ in classes}
    assert kinds == {"never-blocking", "rank-1", "staircase"}
    assert {("rank-1", True), ("staircase", True)} <= classes


def test_rank_ladder_vs_chain_tables_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), max_cells=st.integers(1, 20),
                      bits=st.integers(0, 2 ** 20 - 1))
    def run(seed, max_cells, bits):
        inst = random_instance(random.Random(seed), max_cells=max_cells)
        _check_ladder(inst, bits & (1 << inst.size) - 1)

    run()


def test_rank_ladder_on_a_large_rank_one_instance():
    # 1600 cells, twin rank-1 blocks: no kernel block, and each cell's
    # quadrants are the positions strictly NW or strictly SE of it
    inst = parse_preset("det:40,40,1")
    kernels, rungs = _rank_ladder(inst)
    assert kernels == () and len(rungs) == inst.size == 1600
    ranks = inst.block_ranks["1"]
    rng = random.Random(40)
    corners = [(1, 1), (1, 40), (40, 1), (40, 40)]
    for x, y in corners + [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(40)]:
        want = sum(1 << ranks[i - 1][j - 1] for i in range(1, 41) for j in range(1, 41)
                   if (i < x and j < y) or (i > x and j > y))
        assert rungs[ranks[x - 1][y - 1]] == (want, ()), (x, y)


def test_u_compatible_examples(double_instance):
    inst = double_instance
    assert is_u_compatible(CellSet(inst))
    assert not is_u_compatible(CellSet(inst, [(1, 1, 1), (2, 2, 1)]))
    assert is_u_compatible(CellSet(inst, DOUBLE_INITIAL))


def test_hereditary(double_instance):
    rng = random.Random(5)
    facet = c_max(CellSet(double_instance))
    for _ in range(30):
        sub = [c for c in facet.cells if rng.random() < 0.6]
        assert is_u_compatible(CellSet(double_instance, sub))


def test_can_extend_examples(double_instance):
    inst = double_instance
    empty = CellSet(inst)
    assert all(can_extend(empty, c) for c in inst.cells)
    base = CellSet(inst, [(1, 1, 1)])
    assert not can_extend(base, (2, 2, 1))
    assert can_extend(base, (1, 2, 1))
    # definition-level recomputation of the last answer
    bigger = CellSet(inst, [(1, 1, 1), (1, 2, 1)])
    assert max_diagonal_chain(bigger.block_points("1")) <= 1
    assert max_diagonal_chain(bigger.block_points("2")) <= 1
    with pytest.raises(ValidationError):
        can_extend(base, (1, 1, 1))


def test_can_extend_vs_definition_random():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_instance(rng, max_cells=12)
        density = rng.random()
        cells = [c for c in inst.cells if rng.random() < density]
        cs = CellSet(inst, cells)
        if not is_u_compatible(cs):
            continue
        for cell in inst.cells:
            if cell in cs:
                continue
            assert can_extend(cs, cell) == is_u_compatible(cs.add(cell))


def test_corner_stats_empty_set(double_instance):
    inst = double_instance
    empty = CellSet(inst)
    for cell in inst.cells:
        st = corner_stats(empty, cell)
        assert (st.nw, st.se, st.nw_src, st.se_src) == (0, 0, 0, 0)
        # with no points the padded values are exactly the boundary terms
        tgt, ti, tj = inst.phi_target(cell)
        d = inst.vertex[tgt]
        assert st.nw_padded == max(0, min(ti - 1, d.u - 1 - min(d.a - ti, d.b - tj)))
        assert st.se_padded == max(0, min(d.a - ti, d.u - min(ti, tj)))
        src, si, sj = inst.phi_source(cell)
        d = inst.vertex[src]
        assert st.nw_src_padded == max(0, min(sj - 1, d.u - 1 - min(d.b - sj, d.a - si)))
        assert st.se_src_padded == max(0, min(d.b - sj, d.u - min(si, sj)))


def test_corner_stats_on_facet(double_instance):
    inst = double_instance
    facet = c_max(CellSet(inst))
    st = corner_stats(facet, (3, 2, 1))  # a member
    assert st.nw_padded + st.se_padded == inst.vertex["1"].u - 1
    assert st.nw_src_padded + st.se_src_padded == inst.vertex["2"].u - 1
    st = corner_stats(facet, (1, 1, 1))  # not a member
    assert (st.nw_padded + st.se_padded == inst.vertex["1"].u
            or st.nw_src_padded + st.se_src_padded == inst.vertex["2"].u)


def test_padded_stats_match_augmented_oracle():
    rng = random.Random(97)
    for _ in range(25):
        inst = random_instance(rng, max_cells=12)
        for _attempt in range(20):
            density = rng.random()
            cells = [c for c in inst.cells if rng.random() < density]
            cs = CellSet(inst, cells)
            if is_u_compatible(cs):
                break
        else:
            cs = CellSet(inst)
        for cell in inst.cells:
            st = corner_stats(cs, cell)
            assert (st.nw_padded, st.se_padded, st.nw_src_padded, st.se_src_padded) == \
                padded_stats_oracle(cs, cell)


def test_membership_property_on_facets(double_instance):
    from quiverdet import enumerate_facets

    inst = double_instance
    for facet in enumerate_facets(inst):
        for cell in inst.cells:
            st = corner_stats(facet, cell)
            ut = inst.vertex[inst.arrow(cell.k).target].u
            us = inst.vertex[inst.arrow(cell.k).source].u
            assert st.nw_padded + st.se_padded in (ut - 1, ut)
            assert st.nw_src_padded + st.se_src_padded in (us - 1, us)
            member = cell in facet
            assert member == (st.nw_padded + st.se_padded == ut - 1
                              and st.nw_src_padded + st.se_src_padded == us - 1)


def test_set_order_matches_definition(double_instance):
    # mask comparison realizes the definition: compare the sorted cell
    # sequences from the largest position down
    from quiverdet import cmp_T_sets
    from quiverdet.quiver import cell_key

    rng = random.Random(77)
    inst = double_instance
    for _ in range(200):
        size = rng.randint(1, inst.size)
        a = CellSet(inst, rng.sample(inst.cells, size))
        b = CellSet(inst, rng.sample(inst.cells, size))
        seq_a = [cell_key(c) for c in reversed(a.cells)]
        seq_b = [cell_key(c) for c in reversed(b.cells)]
        expected = (seq_a > seq_b) - (seq_a < seq_b)
        assert cmp_T_sets(a, b) == expected


def test_cellset_canonical(double_instance):
    cs = CellSet(double_instance, [(3, 2, 1), (1, 1, 1), (3, 2, 1)])
    assert len(cs) == 2
    assert [tuple(c) for c in cs.cells] == [(1, 1, 1), (3, 2, 1)]
    assert CellSet.from_mask(double_instance, cs.mask) == cs
    with pytest.raises(ValidationError):
        CellSet(double_instance, [(9, 9, 9)])


def test_from_mask_matches_validating_constructor(double_instance, star_instance):
    rng = random.Random(11)
    for inst in (double_instance, star_instance):
        for _ in range(40):
            mask = rng.getrandbits(inst.size)
            cells = [c for r, c in enumerate(inst.cells) if mask >> r & 1]
            rng.shuffle(cells)
            fast, slow = CellSet.from_mask(inst, mask), CellSet(inst, cells)
            assert fast.cells == slow.cells and fast.mask == slow.mask == mask
            for vid in inst.vertex:
                expected = sorted(
                    (c.i, ar.col_offset + c.j) if ar.target == vid else (ar.row_offset + c.i, c.j)
                    for c in cells for ar in [inst.arrows[c.k - 1]] if vid in (ar.target, ar.source))
                assert fast.block_points(vid) == slow.block_points(vid) == expected
                assert fast.stats(vid).nw == slow.stats(vid).nw
                assert fast.stats(vid).se == slow.stats(vid).se


def test_from_mask_range_check(double_instance):
    with pytest.raises(ValidationError):
        CellSet.from_mask(double_instance, -1)
    with pytest.raises(ValidationError):
        CellSet.from_mask(double_instance, 1 << double_instance.size)
    assert len(CellSet.from_mask(double_instance, (1 << double_instance.size) - 1)) == 12
