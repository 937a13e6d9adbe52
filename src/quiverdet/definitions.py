"""Definition-level oracles, compiled only by the processes that call them.

Longest diagonal chains and the chain statistics of a cell, straight road
maps and the NW/SE classification of their corners, the lines and the
chute-move scan of one facet, chute moves as records, and the purity
spot-check of the deletion/link towers, each from the definition, one cell
set at a time.  The fast routes read the same facts off masks, bit-sliced
batches and the closure's packed carry, and the tests hold them to this
module.  It imports ``quiver``, ``errors`` and ``chains`` when it loads and
any other module inside the function that uses it; the other modules,
``cvm.road_map`` and ``chains.BlockStats`` among them, import from it only
inside functions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple

from .chains import CellSet, _cell_set, is_u_compatible, padded_nw, padded_se
from .errors import DEFAULT_VDC_GUARD, CrossCheckError, ValidationError
from .quiver import HORIZONTAL, TARGET, VERTICAL, Cell, Instance, _is_int, cell_key


def max_diagonal_chain(points: Iterable[tuple[int, int]]) -> int:
    """Length of the longest subset strictly increasing in both coordinates.

    Sort by row with columns tie-broken descending, then take the longest
    strictly increasing subsequence of columns (patience sorting, O(n log n)).
    """
    try:
        pts = [(x, y) for x, y in points]
    except (TypeError, ValueError):
        pts = None
    if pts is None or not all(_is_int(x) and _is_int(y) for x, y in pts):
        raise ValidationError(f"points {points!r} is not an iterable of (x, y) int pairs")
    pts.sort(key=lambda p: (p[0], -p[1]))
    tails: list[int] = []
    for _, y in pts:
        pos = bisect_left(tails, y)
        if pos == len(tails):
            tails.append(y)
        else:
            tails[pos] = y
    return len(tails)


def _chain_tables(a: int, b: int, occupied) -> tuple[list[list[int]], list[list[int]]]:
    """NW and SE longest-chain tables of one a x b block.

    ``occupied[x][y]`` marks the set's points at 1-based (x, y); row 0 and
    column 0 are padding and never read.  ``nw[x][y]`` is the longest chain
    using only points in rows <= x and columns <= y (0-based sentinels
    included), ``se[x][y]`` the same for rows >= x and columns >= y.  Each
    comes out of a single dynamic-programming sweep: the longest chain ending
    at an occupied (x, y) is 1 plus the best chain strictly NW of it, which is
    exactly nw[x-1][y-1].
    """
    nw = [[0] * (b + 1) for _ in range(a + 1)]
    for x in range(1, a + 1):
        row, up, occ = nw[x], nw[x - 1], occupied[x]
        for y in range(1, b + 1):
            best = up[y]
            t = row[y - 1]
            if t > best:
                best = t
            if occ[y]:
                t = up[y - 1] + 1
                if t > best:
                    best = t
            row[y] = best

    se = [[0] * (b + 2) for _ in range(a + 2)]
    for x in range(a, 0, -1):
        row, dn, occ = se[x], se[x + 1], occupied[x]
        for y in range(b, 0, -1):
            best = dn[y]
            t = row[y + 1]
            if t > best:
                best = t
            if occ[y]:
                t = dn[y + 1] + 1
                if t > best:
                    best = t
            row[y] = best
    return nw, se


def cmp_T_sets(left: CellSet, right: CellSet) -> int:
    """Compare equal-size cell sets: sorted sequences from the largest cell down."""
    if _cell_set(left).instance != _cell_set(right).instance:
        raise ValidationError("cell sets belong to different instances")
    if len(left) != len(right):
        raise ValidationError(f"set comparison on unequal cardinalities {len(left)} != {len(right)}")
    return (left.mask > right.mask) - (left.mask < right.mask)


def can_extend(cs: CellSet, cell) -> bool:
    """True iff adding ``cell`` keeps the set admissible.

    A new over-long chain would have to pass through the added cell, and the
    longest chain through it is nw + 1 + se in each of its two blocks; so the
    cell is addable exactly when both raw sums of its ``corner_stats`` stay
    below the ranks.
    """
    inst = _cell_set(cs).instance
    cell = inst.check_cell(cell)
    if cs.mask >> inst.rank[cell] & 1:
        raise ValidationError(f"cell {tuple(cell)} already in set")
    st = corner_stats(cs, cell)
    arrow = inst.arrow(cell.k)
    return st.nw + st.se < inst.u[arrow.target] and st.nw_src + st.se_src < inst.u[arrow.source]


class ChainStats(NamedTuple):
    """All eight chain statistics of one cell against one cell set.

    The first four live in the target-side block, the ``src`` four in the
    source-side block; ``*_padded`` adds the boundary padding terms.
    """

    nw: int
    se: int
    nw_padded: int
    se_padded: int
    nw_src: int
    se_src: int
    nw_src_padded: int
    se_src_padded: int


def corner_stats(cs: CellSet, cell) -> ChainStats:
    inst = _cell_set(cs).instance
    r = inst.rank[inst.check_cell(cell)]
    tgt, ti, tj, src, si, sj = inst.positions[r]
    td, sd = inst.vertex[tgt], inst.vertex[src]
    tst, sst = cs.stats(tgt), cs.stats(src)
    nw, se = tst.nw_of(ti, tj), tst.se_of(ti, tj)
    nw_s, se_s = sst.nw_of(si, sj), sst.se_of(si, sj)
    return ChainStats(
        nw=nw,
        se=se,
        nw_padded=padded_nw(nw, ti, tj, td.a, td.b, td.u),
        se_padded=padded_se(se, ti, tj, td.a, td.b, td.u),
        nw_src=nw_s,
        se_src=se_s,
        # the source-side block is the transpose situation: swap coordinates
        nw_src_padded=padded_nw(nw_s, sj, si, sd.b, sd.a, sd.u),
        se_src_padded=padded_se(se_s, sj, si, sd.b, sd.a, sd.u),
    )


class RoadMap(NamedTuple):
    """Reconstructed path families: per target the horizontal paths, per source the vertical ones.

    Paths are vertex lists in block-matrix coordinates, ordered from the SW
    endpoint to the NE endpoint.
    """

    horizontal: dict[str, list[list[tuple[int, int]]]]
    vertical: dict[str, list[list[tuple[int, int]]]]

    def to_json_obj(self) -> dict:
        return {
            "horizontal": {v: [[list(p) for p in path] for path in paths]
                           for v, paths in self.horizontal.items()},
            "vertical": {v: [[list(p) for p in path] for path in paths]
                         for v, paths in self.vertical.items()},
        }


def _check_path(path: list[tuple[int, int]], sw: tuple[int, int], ne: tuple[int, int]) -> bool:
    """True iff the path runs from ``sw`` to ``ne`` one row up or one column right per step."""
    return (bool(path) and path[0] == sw and path[-1] == ne
            and all((x1 - x0, y1 - y0) in ((-1, 0), (0, 1))
                    for (x0, y0), (x1, y1) in zip(path, path[1:])))


def _turns(path: list[tuple[int, int]]) -> list[tuple[int, str]]:
    """(index, kind) of every corner of a staircase path listed SW to NE.

    A NW corner is entered from the south and left to the east (both its
    south and east neighbors lie on the path), a SE corner the other way round.
    """
    from .cvm import NW, SE

    return [(n, NW if y0 == y1 else SE)
            for n, ((_, y0), (_, y1), (_, y2)) in enumerate(zip(path, path[1:], path[2:]), start=1)
            if (y0 == y1) != (y1 == y2)]


def _road_blocks(cs: CellSet) -> list[tuple]:
    """``cvm.road_map``'s checked ``(paths, turns, vid, target, corner_mask)`` per layout block."""
    from .cvm import _path_layout, is_cvm

    if not is_cvm(cs):
        raise ValidationError("road maps exist only for concurrent vertex maps")

    covered = [0, 0]
    blocks = []
    for vid, target, a, b, u, _, points, _ in _path_layout(cs.instance):
        st = cs.stats(vid)
        nw, se = st.nw, st.se
        paths: list[list[tuple[int, int]]] = [[] for _ in range(u)]
        ranks: list[list[int]] = [[] for _ in range(u)]
        for x, y, r, nw_floor, se_floor in points:
            p = nw[x - 1][y - 1]
            if p < nw_floor:
                p = nw_floor
            if p < u:
                s = se[x + 1][y + 1]
                if (s if s > se_floor else se_floor) == u - 1 - p:
                    paths[p].append((x, y))
                    ranks[p].append(r)
        seen = corner_mask = 0
        turns = []
        for p, (path, path_ranks) in enumerate(zip(paths, ranks), start=1):
            sw, ne = ((a - u + p, 1), (p, b)) if target else ((a, p), (1, b - u + p))
            if not _check_path(path, sw, ne):
                raise CrossCheckError(f"path {p} of block {vid!r} failed assembly")
            for n, r in enumerate(path_ranks):
                if seen >> r & 1:
                    raise CrossCheckError(f"paths of block {vid!r} intersect at {path[n]}")
                seen |= 1 << r
            turns.append(_turns(path))
            for n, _ in turns[-1]:
                corner_mask |= 1 << path_ranks[n]
        covered[target] |= seen
        blocks.append((paths, turns, vid, target, corner_mask))

    if covered[0] & covered[1] != cs.mask:
        raise CrossCheckError("path intersection does not reproduce the facet")
    for *_, vid, target, corner_mask in blocks:
        if corner_mask & ~covered[not target]:
            raise CrossCheckError(f"corner of block {vid!r} off every crossing path")
    return blocks


class CornerRecord(NamedTuple):
    cell: Cell
    kind: str         # NW or SE
    orientation: str  # HORIZONTAL or VERTICAL
    essential: bool


class CornerReport(NamedTuple):
    corners: tuple[CornerRecord, ...]
    essential_nw: int  # distinct cells carrying an essential NW corner
    essential_se: int

    def to_json_obj(self) -> dict:
        return {
            "corners": [{"cell": list(r.cell), "kind": r.kind,
                         "orientation": r.orientation, "essential": r.essential}
                        for r in self.corners],
            "essential_nw": self.essential_nw,
            "essential_se": self.essential_se,
        }


def _classify(cs: CellSet, blocks) -> tuple[list, int, int]:
    """Each corner's ``(rank, kind, orientation, essential)``, and the two essential counts.

    ``blocks`` holds each block's paths and turns, as ``_road_blocks`` gives them.
    """
    from .cvm import NW, SE, _path_layout

    layout = _path_layout(cs.instance)
    labels = ([None] * cs.instance.size, [None] * cs.instance.size)  # by ``target``
    points = []  # per block and path, the (rank, offset) of each point
    for (_, target, *_, where), (paths, *_) in zip(layout, blocks):
        points.append([[where[pt] for pt in path] for path in paths])
        for p, path in enumerate(points[-1], start=1):
            for r, offset in path:
                labels[target][r] = p + offset

    records = []
    corner_mask = 0
    essential = {NW: 0, SE: 0}
    for (_, target, _, _, u, v, *_), (_, turns, *_), block in zip(layout, blocks, points):
        index = labels[not target]
        orientation = HORIZONTAL if target else VERTICAL
        for p, (path, bends) in enumerate(zip(block, turns), start=1):
            crossing = [index[r] for r, _ in path]  # SW to NE
            for n, kind in bends:
                m = crossing[n]
                if m is None:
                    raise CrossCheckError(f"{kind} corner not covered by a crossing path")
                # the free corner is one end of the path's intersection with crossing path m
                free = m == p + (v - u if kind == NW else 0) and n == (
                    len(crossing) - 1 - crossing[::-1].index(m) if (kind == NW) == target
                    else crossing.index(m))
                r = path[n][0]
                records.append((r, kind, orientation, not free))
                corner_mask |= 1 << r
                essential[kind] |= (not free) << r
    if corner_mask & ~cs.mask:
        raise CrossCheckError("corner cell outside the facet")
    return records, essential[NW].bit_count(), essential[SE].bit_count()


def _lines(layout, mask: int) -> list[int]:
    """The line occupancy of ``mask``: bit y of entry n is set iff position y of line n is in it.

    ``layout`` is the instance's ``moves._move_layout``.  The closure carries
    the same lines packed into one int; the tests cut its words back into
    lines and hold them to this.
    """
    where = layout[2]
    occ = [0] * len(layout[0])
    while mask:
        bit = mask & -mask
        mask ^= bit
        tn, tb, sn, sb = where[bit.bit_length() - 1]
        occ[tn] |= tb
        occ[sn] |= sb
    return occ


def _scan(layout, occ: list[int]) -> list[tuple[str, int, int, int]]:
    """``(vid, removed bit, added bit, width)`` of each chute move of a facet's lines, once each.

    ``layout`` is the instance's ``moves._move_layout`` and ``occ`` the
    facet's ``_lines``; it is only read.  A rectangle spans adjacent
    lines, top and bottom, from column y, occupied on the bottom only,
    through empty columns to y2, occupied on both.  A carry from each
    bottom-only column runs through the empty ones and lands on the next
    occupied column: the landings on both lines are the y2s.  A 2x2
    rectangle inside one page is listed from its target block only.  The
    closure ``moves._facet_masks`` runs the same carry inline; this is its
    per-facet reference, and ``moves.chutable_moves`` lists its moves.
    """
    pre, pairs, _ = layout
    out = []
    for n, vid, twins in pairs:
        top, bottom = occ[n], occ[n + 1]
        either = top | bottom
        step = (bottom & ~top) << 1
        hits = (~either + step) & top & bottom & ~(step & twins)
        while hits:
            bit = hits & -hits
            hits ^= bit
            y = (either & (bit - 1)).bit_length() - 1
            y2 = bit.bit_length() - 1
            p, q = pre[n], pre[n + 1]
            out.append((vid, q[y2] ^ q[y2 - 1], p[y] ^ p[y - 1], y2 - y + 1))
    return out


class ChuteMove(NamedTuple):
    direction: str       # HORIZONTAL or VERTICAL
    vertex: str          # block the rectangle lives in
    removed: Cell        # the SE occupant
    added: Cell          # the NW corner
    extent: tuple[int, int]  # rectangle shape (rows, cols)

    def __str__(self):
        return (f"{self.direction} move in {self.vertex}: "
                f"{tuple(self.removed)} -> {tuple(self.added)} ({self.extent[0]}x{self.extent[1]})")


def _chute_move(move) -> ChuteMove:
    """``move``, if it is a well-formed ``ChuteMove``; else a ValidationError.

    Its direction is ``HORIZONTAL`` or ``VERTICAL``, its vertex a ``str``,
    ``removed`` and ``added`` pass ``cell_key`` and ``extent`` is a pair of
    ints; whether they fit a set is ``_rectangle_ok``'s to say.
    """
    if not isinstance(move, ChuteMove):
        raise ValidationError(f"expected a ChuteMove, got {type(move).__name__}")
    extent = move.extent
    if (move.direction not in (HORIZONTAL, VERTICAL) or not isinstance(move.vertex, str)
            or not (isinstance(extent, tuple) and len(extent) == 2 and all(map(_is_int, extent)))):
        raise ValidationError(f"malformed chute move {tuple(move)!r}")
    cell_key(move.removed), cell_key(move.added)
    return move


def _rectangle_ok(cs: CellSet, move: ChuteMove) -> bool:
    """Whether ``cs`` holds exactly the NE, SE and SW corners of the move's rectangle and extent."""
    from .moves import _move_layout

    inst = _cell_set(cs).instance
    horizontal = inst._vertex(_chute_move(move).vertex).side == TARGET
    try:  # both ends as (line, position on it): rows of a target block, columns of a source block
        (x1, y1), (x2, y2) = (inst.phi(move.vertex, c)[::1 if horizontal else -1]
                              for c in (move.added, move.removed))
    except ValidationError:
        return False
    width = y2 - y1 + 1
    if (move.direction == HORIZONTAL) != horizontal or x2 != x1 + 1 or y2 <= y1 or (
            move.extent != ((2, width) if horizontal else (width, 2))):
        return False
    pre, _, where = _move_layout(inst)
    n = where[inst.rank[inst.check_cell(move.added)]][0 if horizontal else 2]
    top, bottom = pre[n], pre[n + 1]
    inside = cs.mask & (top[y2] ^ top[y1 - 1] | bottom[y2] ^ bottom[y1 - 1])
    return inside == top[y2] ^ top[y2 - 1] | bottom[y1] ^ bottom[y1 - 1] | bottom[y2] ^ bottom[y2 - 1]


def apply_inverse(cs: CellSet, move: ChuteMove) -> CellSet:
    """Undo a chute move previously applied to reach ``cs``: the set it was applied to."""
    if _chute_move(move).added in _cell_set(cs) and move.removed not in cs:
        before = CellSet(cs.instance, (*(c for c in cs.cells if c != move.added), move.removed))
        if _rectangle_ok(before, move):
            return before
    raise ValidationError(f"inverse move not applicable: {move}")


class VdcSample(NamedTuple):
    prefix_length: int
    seed_cells: tuple
    maximal_count: int
    sizes: tuple[int, ...]

    @property
    def pure(self) -> bool:
        return len(set(self.sizes)) <= 1


class VdcReport(NamedTuple):
    samples: tuple[VdcSample, ...]

    @property
    def ok(self) -> bool:
        return all(s.pure for s in self.samples)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok,
                "samples": [{"prefix_length": s.prefix_length,
                             "seed": [list(c) for c in s.seed_cells],
                             "maximal_count": s.maximal_count,
                             "sizes": sorted(set(s.sizes)),
                             "pure": s.pure} for s in self.samples]}


def check_vertex_decomposition_samples(instance: Instance, sample_budget: int = 30,
                                       size_guard: int = DEFAULT_VDC_GUARD,
                                       seed: int | None = None) -> VdcReport:
    """Bounded purity spot-check of the deletion/link towers.

    For random prefixes and random admissible seeds inside the prefix, all
    maximal completions by suffix cells must have the same cardinality.
    """
    import random  # only the sampler draws; most commands never load it

    from .complex import _FaceSearch, _check_guard

    if not _is_int(sample_budget) or sample_budget < 0:
        raise ValidationError(f"sample_budget must be an int >= 0, not {sample_budget!r}")
    _check_guard(instance, size_guard)
    try:
        rng = random.Random(seed)
    except TypeError as exc:  # random rejects the seed's type
        raise ValidationError(f"seed must be None, a number, a str or bytes, not {seed!r}") from exc
    samples = []
    for _ in range(sample_budget):
        ell = rng.randint(0, instance.size)
        prefix = instance.cells[:ell]
        seed_cells: tuple = ()
        for _attempt in range(32):
            pick = tuple(c for c in prefix if rng.random() < 0.5)
            if is_u_compatible(CellSet(instance, pick)):
                seed_cells = pick
                break
        suffix_mask = ((1 << instance.size) - 1) & ~((1 << ell) - 1)
        sizes: list[int] = []

        def visit(mask, addable, _suffix=suffix_mask, _sizes=sizes):
            if addable & _suffix == 0:
                _sizes.append(mask.bit_count())

        _FaceSearch(instance, base=seed_cells).run(visit, universe_mask=suffix_mask)
        samples.append(VdcSample(ell, seed_cells, len(sizes), tuple(sizes)))
    return VdcReport(tuple(samples))
