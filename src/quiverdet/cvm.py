"""Concurrent vertex maps: facet predicates, greedy closures, path reconstruction.

A concurrent vertex map is a maximal admissible cell set; equivalently an
admissible set of the full facet cardinality N.  Each one is the intersection
pattern of a unique straight road map: per target block, rank-many
nonintersecting staircase paths from the left edge to the top edge, and per
source block the transposed picture.  ``road_map`` rebuilds those paths from
the padded chain statistics, one sweep per block over a cached per-instance
layout that lists the positions in path order, and checks them on rank
bitmasks; ``corners`` classifies their NW and SE turning points on that one
road map; both run the helpers of ``definitions``.  The essential corners
drive both the chute-move dynamics and the h-polynomial.  ``_corner_counts``
counts them on a batch of facets, one bit each, off the padded bit-sliced
levels of ``_block_levels`` (``_corner_bits``), with ``corners`` as its
oracle; it loads the road map only to replay a facet its batch rejects.
``verify``'s criteria check reads the same levels.  The greedy closures
``c_min``/``c_max`` find the smallest and largest facet containing a face;
like the face DFS, they add each cell to the chain levels in place with
``chains._add``, the one growth step of the ladder.  ``reflect`` is the
180-degree rotation, which sends cell (i, j, k) to (rows + 1 - i,
cols + 1 - j, r + 1 - k) on the instance with its arrow order reversed.
L is ordered by page, then row, then column, so the rotation reverses the
cell ranks, and ``reflect`` reverses the mask; the per-cell formula lives
in the tests, which hold the reversal to it.  The rotation swaps NW with
SE corners, and the tests check the SE rule through it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .bitslice import _at_least, _chain_levels, _chunks, _columns, _counter, _exactly
from .chains import (CellSet, _add, _cell_set, _load_blocks, _rank_ladder, is_u_compatible,
                     padded_nw, padded_se)
from .errors import CrossCheckError, ValidationError
from .moves import _initial_mask
from .quiver import HORIZONTAL, TARGET, VERTICAL, Instance, _instance

NW = "NW"
SE = "SE"


def is_cvm(cs: CellSet) -> bool:
    """True iff the set is admissible and has N cells; ``verify`` reads it off a criteria batch."""
    return len(_cell_set(cs)) == cs.instance.n_cells and is_u_compatible(cs)


def _greedy_close(seed: CellSet, descending: bool, within: int = -1) -> CellSet:
    """Scan the cells of ``within`` in one direction, adding whatever keeps the set admissible.

    ``within`` is a rank mask of the cells the scan may add, every cell by
    default, as ``c_min`` and ``c_max`` scan; ``verify``'s reflection probes
    close the empty set within a random draw.  The scan runs on the kernel
    ladder: the seed is loaded once, and each step adds the highest
    (``descending``) or lowest addable cell with ``chains._add`` and drops
    what that cell blocks.  Admissibility is hereditary, so a cell the scan
    passes over never becomes addable again, and adding the extreme addable
    cell each time adds exactly the cells the scan would.
    """
    inst = seed.instance
    mask = seed.mask
    levels, blocked = _load_blocks(inst, mask)
    if blocked & mask:
        raise ValidationError("seed set is not u-compatible")
    rungs = _rank_ladder(inst)[1]
    addable = ((1 << inst.size) - 1) & within & ~mask & ~blocked
    while addable:
        bit = 1 << (addable.bit_length() - 1) if descending else addable & -addable
        r = bit.bit_length() - 1
        mask |= bit
        addable &= ~(bit | _add(levels, rungs[r], mask, r))
    return CellSet.from_mask(inst, mask)


def c_max(seed: CellSet) -> CellSet:
    """Greedy completion scanning cells from the largest down: the largest facet containing the seed."""
    return _greedy_close(_cell_set(seed), descending=True)


def c_min(seed: CellSet) -> CellSet:
    """Greedy completion scanning cells from the smallest up: the smallest facet containing the seed."""
    return _greedy_close(_cell_set(seed), descending=False)


def initial_cvm(instance: Instance) -> CellSet:
    """The largest facet c_max(empty), from the closed form ``moves._initial_mask``."""
    return CellSet.from_mask(instance, _initial_mask(_instance(instance)))


# -- road maps ------------------------------------------------------------------


@lru_cache(maxsize=128)
def _path_layout(instance: Instance) -> tuple[tuple, ...]:
    """Per block, in ``instance.vertex`` order, what no facet changes about its paths.

    An entry is ``(vid, target, a, b, u, v, points, where)``.  ``points`` lists
    the block's positions in SW-to-NE order (rows descending, columns
    ascending) as ``(x, y, rank, nw_floor, se_floor)``.  A floor is the
    padded statistic (``chains.padded_nw``/``padded_se``) of a raw value 0;
    raw values are never negative, so a padded statistic is the larger of
    the raw value and its floor.  ``where`` maps a
    position to its rank and the offset that relabels this block's path p as
    the crossing family sees it (``hpath_offset`` on a target block,
    ``vpath_offset`` on a source block).  The road maps and
    ``_block_levels`` read it.  Cached per instance: callers must treat the
    result as read-only.
    """
    layout = []
    for vid, d in instance.vertex.items():
        target = d.side == TARGET
        points, where = [], {}
        for x in range(d.a, 0, -1):
            for y, r in enumerate(instance.block_ranks[vid][x - 1], start=1):
                ar = instance.arrow(instance.cells[r].k)
                # a source block is the transpose situation: swap coordinates
                shape = (x, y, d.a, d.b, d.u) if target else (y, x, d.b, d.a, d.u)
                points.append((x, y, r, padded_nw(0, *shape), padded_se(0, *shape)))
                where[x, y] = (r, ar.hpath_offset if target else ar.vpath_offset)
        layout.append((vid, target, d.a, d.b, d.u, d.v, tuple(points), where))
    return tuple(layout)


def _block_levels(instance: Instance, columns: list[int], every: int):
    """Each ``_path_layout`` row, with ``(n, s, blocked)`` per point in the row's order, on a batch.

    Bit i of ``n[j]`` says that subset i has a padded nw >= j at the
    position, of ``s[j]`` that it has a padded se >= j, for the levels 0 to
    u + 1 that the padded statistics reach; up to its padding floor, a
    level holds every subset.  ``blocked`` holds the subsets with raw
    nw + se >= u, to which the cell cannot be added: the longest chain
    through it would exceed u points.  Twin blocks, with the same
    ``block_ranks`` and rank, have the same level tables on every subset
    and differ only in their floors, so each class runs one
    ``_chain_levels`` (``bitslice._addable_columns`` stops at level u).
    """
    tables: dict = {}
    for row in _path_layout(instance):
        vid, _, a, b, u, _, points, _ = row
        ranks = instance.block_ranks[vid]
        if (ranks, u) not in tables:
            tables[ranks, u] = _chain_levels(a, b, u + 1, ranks, columns, every)
        nw, se = tables[ranks, u]
        levels = []
        for x, y, _, nw_floor, se_floor in points:
            n = [every] + [level[x - 1][y - 1] for level in nw]
            s = [every] + [level[x + 1][y + 1] for level in se]
            levels.append((n, s, _at_least(n, s, u)))  # raw, before the floors go in
            n[1:nw_floor + 1] = [every] * nw_floor
            s[1:se_floor + 1] = [every] * se_floor
        yield row, levels


def road_map(cs: CellSet) -> RoadMap:
    """Rebuild the unique straight road map whose concurrency pattern is this facet.

    A block point lies on the p-th path exactly when its padded NW statistic
    is p - 1 and its padded SE statistic is rank - p; one sweep over the
    block's positions in SW-to-NE order fills the paths in path order.  They
    are verified to be monotone staircases with the prescribed endpoints,
    pairwise disjoint, straight (every corner of one family lies on a path of
    the other family), and to intersect back to the facet; the last three on
    rank bitmasks.
    """
    from .definitions import RoadMap, _road_blocks

    families: tuple[dict, dict] = ({}, {})  # vertical, horizontal: indexed by ``target``
    for paths, _, vid, target, _ in _road_blocks(_cell_set(cs)):
        families[target][vid] = paths
    return RoadMap(families[1], families[0])


# -- corner classification ---------------------------------------------------------


def corners(cs: CellSet) -> CornerReport:
    """Classify all path corners of a facet, NW and SE, on its one road map.

    Inside a target block the vertical paths of the incoming source blocks
    concatenate (in page order) into one relabeled family of v paths, and a
    source block sees the horizontal paths of its outgoing targets the same
    way; ``labels`` holds, per family and cell rank, the relabeled index of
    the path through the cell.  Path p may turn "for free" once, on the
    crossing path relabeled m: for NW corners m = p + v - u and the free
    corner is the NE end of their intersection (the SW end on a vertical
    path); for SE corners, the NW rule read through the 180-degree
    reflection, m = p and the two ends swap.  Every other corner is
    essential.  Reflecting the whole picture swaps NW with SE corners and
    preserves essentiality; the tests use ``reflect`` to check the SE rule
    against the NW rule independently.
    """
    from .definitions import CornerRecord, CornerReport, _classify, _turns

    inst = _cell_set(cs).instance
    rm = road_map(cs)
    families = (rm.vertical, rm.horizontal)
    paths = [families[target][vid] for vid, target, *_ in _path_layout(inst)]
    records, essential_nw, essential_se = _classify(cs, [(p, list(map(_turns, p))) for p in paths])
    records.sort()  # rank order is the cell order; (rank, kind, orientation) is unique
    return CornerReport(tuple([CornerRecord(inst.cells[r], *rest) for r, *rest in records]),
                        essential_nw, essential_se)


def _corner_bits(instance: Instance, columns: list[int], every: int) -> tuple[list, list, int]:
    """Per cell, the subsets with an essential NW and an essential SE corner there; the bad ones.

    Bit i is subset i of ``columns``.  A bad subset is no concurrent vertex
    map (it has other than N cells or holds a cell it blocks, both read
    off ``_block_levels``) or fails a check of ``definitions._road_blocks``.
    Path p holds the positions with padded nw = p - 1 and se = u - p.  A
    corner is free when its crossing path has ``definitions._classify``'s
    label m and no point of the path beyond it is on that path.
    """
    size, grids, bad = instance.size, [], 0
    labels = ([{}] * size, [{}] * size)  # by ``target``: per cell, its path's bits by label
    for row, levels in _block_levels(instance, columns, every):
        _, target, a, b, u, _, points, where = row
        grid = [[[0] * (b + 2) for _ in range(a + 2)] for _ in range(u)]
        for (x, y, r, *_), (n, s, blocked) in zip(points, levels):
            bad |= columns[r] & blocked
            paths = [n[p] & ~n[p + 1] & s[u - 1 - p] & ~s[u - p] for p in range(u)]
            labels[target][r] = dict(enumerate(paths, start=1 + where[x, y][1]))
            for g, on in zip(grid, paths):
                g[x][y] = on
        grids.append((row, grid))
    bad |= every ^ _exactly(columns, instance.n_cells, every)
    covered = [[sum(label.values()) for label in family] for family in labels]  # disjoint paths
    for held, vertical, horizontal in zip(columns, *covered):
        bad |= vertical & horizontal ^ held
    essential = {NW: [0] * size, SE: [0] * size}
    for (_, target, a, b, u, v, points, _), grid in grids:
        crossing, crossed = labels[not target], covered[not target]
        for p, g in enumerate(grid, start=1):
            sw, ne = ((a - u + p, 1), (p, b)) if target else ((a, p), (1, b - u + p))
            bad |= every & ~(g[sw[0]][sw[1]] & g[ne[0]][ne[1]])
            # ``points`` order is path order, so each sweep meets the points beyond a corner first
            path = [point for point in points if g[point[0]][point[1]]]
            for step, kind in ((1, SE if target else NW), (-1, NW if target else SE)):
                m = p + v - u if kind == NW else p
                behind = 0  # the points swept so far on crossing path m
                for x, y, r, *_ in path[::step]:
                    here, north, east, south, west = (
                        g[x][y], g[x - 1][y], g[x][y + 1], g[x + 1][y], g[x][y - 1])
                    if step == 1:  # one successor and one predecessor, but at the ends
                        bad |= here & ~((every if (x, y) == ne else north ^ east)
                                        & (every if (x, y) == sw else south ^ west))
                    turn = here & (south & east if kind == NW else west & north)
                    hit = here & crossing[r].get(m, 0)
                    bad |= turn & ~crossed[r]
                    essential[kind][r] |= turn & ~(hit & ~behind)
                    behind |= hit
    return essential[NW], essential[SE], bad


def _corner_counts(instance: Instance, masks: list[int]):
    """Yield ``corners``'s two counts, (essential NW, essential SE), of each mask in turn.

    Each chunk of ``bitslice._chunks`` runs its own ``_corner_bits`` pass,
    one walk of its points, as it is reached.  A kind's per-facet counts are
    its cells' binary counter (``bitslice._counter``) transposed by
    ``_columns``: a few digit ints rather than every cell's column.  The
    first bad mask is replayed on a copy through ``definitions._road_blocks``
    and ``_classify``.
    """
    for start, batch in _chunks(masks):
        *essential, bad = _corner_bits(instance, _columns(batch, instance.size),
                                       (1 << len(batch)) - 1)
        counts = [_columns(_counter(e), len(batch)) for e in essential]
        yield from islice(zip(*counts), (bad & -bad).bit_length() - 1 if bad else None)
        if bad:
            from .definitions import _classify, _road_blocks

            n = start + (bad & -bad).bit_length() - 1
            cs = CellSet.from_mask(instance, masks[n])
            _classify(cs, _road_blocks(cs))
            raise CrossCheckError(f"the corner batch rejects facet {n + 1}, whose road map passes")


# -- reflection -----------------------------------------------------------------


@lru_cache(maxsize=128)
def reflect_instance(instance: Instance) -> Instance:
    """The 180-degree rotated instance: the same quiver with its arrow order reversed."""
    quiver = instance.quiver
    return Instance(quiver._replace(arrows=quiver.arrows[::-1]), instance.m, instance.u,
                    normalization=instance.normalization)


def reflect(cs: CellSet) -> tuple[Instance, CellSet]:
    """Image of a cell set under the 180-degree rotation: its mask with the |L| bits reversed."""
    reflected = reflect_instance(_cell_set(cs).instance)
    return reflected, CellSet.from_mask(reflected, int(f"{cs.mask:0{reflected.size}b}"[::-1], 2))
