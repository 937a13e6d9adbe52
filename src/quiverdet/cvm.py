"""Concurrent vertex maps: facet predicates, greedy closures, path reconstruction.

A concurrent vertex map is a maximal admissible cell set; equivalently an
admissible set of the full facet cardinality N.  Each one is the intersection
pattern of a unique straight road map: per target block, rank-many
nonintersecting staircase paths from the left edge to the top edge, and per
source block the transposed picture.  ``road_map`` rebuilds those paths from
the padded chain statistics; ``corners`` classifies their NW and SE turning
points on that one road map.  The essential ones drive both the chute-move
dynamics and the h-polynomial.  The greedy closures ``c_min``/``c_max``
find the smallest and largest facet containing a face; they run on the
staircase kernel ``chains._blocked_ranks``, as the face DFS does.
``reflect`` is the 180-degree rotation; it swaps NW with SE corners, and the
tests check the SE rule through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chains import CellSet, _blocked_ranks, _load_blocks, is_u_compatible, padded_nw, padded_se
from .errors import CrossCheckError, ValidationError
from .quiver import Cell, Instance, TARGET, BipartiteQuiver, cell_key

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
NW = "NW"
SE = "SE"


def is_cvm(cs: CellSet) -> bool:
    """True iff the set is admissible and has N cells; ``verify`` cross-checks it on every facet."""
    return len(cs) == cs.instance.n_cells and is_u_compatible(cs)


def _greedy_close(seed: CellSet, descending: bool) -> CellSet:
    """Scan all cells in one direction, adding whatever keeps the set admissible.

    The scan runs on the staircase kernel: the seed is loaded into row
    bitmasks once, and each step adds the highest (``descending``) or lowest
    addable cell and recomputes only that cell's two blocks.  Admissibility
    is hereditary, so a cell the scan passes over never becomes addable
    again, and adding the extreme addable cell each time adds exactly the
    cells the scan would.
    """
    inst = seed.instance
    mask = seed.mask
    blocks, blocked = _load_blocks(inst, mask)
    if blocked & mask:
        raise ValidationError("seed set is not u-compatible")
    positions = inst.positions
    addable = ((1 << inst.size) - 1) & ~mask & ~blocked
    while addable:
        bit = 1 << (addable.bit_length() - 1) if descending else addable & -addable
        mask |= bit
        tv, ti, tj, sv, si, sj = positions[bit.bit_length() - 1]
        tblock, sblock = blocks[tv], blocks[sv]
        tblock[0][ti] |= 1 << tj
        sblock[0][si] |= 1 << sj
        addable &= ~(bit | _blocked_ranks(*tblock) | _blocked_ranks(*sblock))
    return CellSet.from_mask(inst, mask)


def c_max(seed: CellSet) -> CellSet:
    """Greedy completion scanning cells from the largest down: the largest facet containing the seed."""
    return _greedy_close(seed, descending=True)


def c_min(seed: CellSet) -> CellSet:
    """Greedy completion scanning cells from the smallest up: the smallest facet containing the seed."""
    return _greedy_close(seed, descending=False)


def initial_cvm(instance: Instance) -> CellSet:
    """Closed-form construction of the largest facet c_max(empty).

    Page by page: intersect "bottom u_target rows or rightmost leftover
    target-rank columns" with the transposed source-side picture, where the
    leftover rank discounts the ranks already served by later pages.
    ``verify``'s ``initial-closed-form`` check holds it to the closure.
    """
    cells = []
    for ar in instance.arrows:
        ua = instance.vertex[ar.target].u
        ub = instance.vertex[ar.source].u
        s_alpha = sum(instance.u[a2.source] for a2 in instance.arrows
                      if a2.target == ar.target and a2.k > ar.k)
        s_beta = sum(instance.u[a2.target] for a2 in instance.arrows
                     if a2.source == ar.source and a2.k > ar.k)
        rows_t = ua                      # bottom rows claimed by the target side
        cols_t = max(ua - s_alpha, 0)    # rightmost columns claimed by the target side
        rows_s = max(ub - s_beta, 0)
        cols_s = ub
        for i in range(1, ar.rows + 1):
            for j in range(1, ar.cols + 1):
                in_t = (i > ar.rows - rows_t) or (j > ar.cols - cols_t)
                in_s = (i > ar.rows - rows_s) or (j > ar.cols - cols_s)
                if in_t and in_s:
                    cells.append(Cell(i, j, ar.k))
    return CellSet(instance, cells)


# -- road maps ------------------------------------------------------------------


@dataclass(frozen=True)
class RoadMap:
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


def _order_path(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """SW-to-NE traversal order: rows descending, columns ascending."""
    return sorted(points, key=lambda p: (-p[0], p[1]))


def _check_path(path: list[tuple[int, int]], sw: tuple[int, int], ne: tuple[int, int]) -> bool:
    if not path or path[0] != sw or path[-1] != ne:
        return False
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        if (x1 - x0, y1 - y0) not in ((-1, 0), (0, 1)):
            return False
    return True


def road_map(cs: CellSet) -> RoadMap:
    """Rebuild the unique straight road map whose concurrency pattern is this facet.

    A block point lies on the p-th path exactly when its padded NW statistic
    is p - 1 and its padded SE statistic is rank - p.  The assembled point
    sets are verified to be monotone staircases with the prescribed
    endpoints, pairwise disjoint, straight (every corner of one family lies
    on a path of the other family), and to intersect back to the facet.
    """
    inst = cs.instance
    if not is_cvm(cs):
        raise ValidationError("road maps exist only for concurrent vertex maps")

    horizontal: dict[str, list[list[tuple[int, int]]]] = {}
    vertical: dict[str, list[list[tuple[int, int]]]] = {}
    for vid, data in inst.vertex.items():
        st, (a, b, u) = cs.stats(vid), (data.a, data.b, data.u)
        target = data.side == TARGET
        buckets: list[list[tuple[int, int]]] = [[] for _ in range(u)]
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


def _covered_cells(inst: Instance, families) -> set[Cell]:
    cells: set[Cell] = set()
    for vid, paths in families.items():
        ranks = inst.block_ranks[vid]
        seen: set[tuple[int, int]] = set()
        for path in paths:
            for pt in path:
                if pt in seen:
                    raise CrossCheckError(f"paths of block {vid!r} intersect at {pt}")
                seen.add(pt)
                cells.add(inst.cells[ranks[pt[0] - 1][pt[1] - 1]])
    return cells


def _corners_of(path_set: set[tuple[int, int]], kind: str) -> list[tuple[int, int]]:
    """Corners of a staircase path given as a point set.

    NW corners have both their south and east neighbors on the path, SE
    corners both their north and west neighbors.
    """
    if kind == NW:
        return [(x, y) for x, y in path_set
                if (x + 1, y) in path_set and (x, y + 1) in path_set]
    return [(x, y) for x, y in path_set
            if (x - 1, y) in path_set and (x, y - 1) in path_set]


# -- corner classification ---------------------------------------------------------


@dataclass(frozen=True)
class CornerRecord:
    cell: Cell
    kind: str         # NW or SE
    orientation: str  # HORIZONTAL or VERTICAL
    essential: bool


@dataclass(frozen=True)
class CornerReport:
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


def _corner_records(cs: CellSet, rm: RoadMap, kind: str) -> list[CornerRecord]:
    """Corners of one kind (NW or SE) on all paths, with their essentiality flags.

    Inside a target block the vertical paths of the incoming source blocks
    concatenate (in page order) into one relabeled family of v paths, and a
    source block sees the horizontal paths of its outgoing targets the same
    way.  Path p may turn "for free" once, on the crossing path relabeled m:
    for NW corners m = p + v - u and the free corner is the NE end of their
    intersection (the SW end on a vertical path); for SE corners, the NW
    rule read through the 180-degree reflection, m = p and the two ends swap.
    Every other corner is essential.
    """
    inst = cs.instance
    # Relabeled index of the crossing path through every covered position, per block
    crossing: dict[str, dict[tuple[int, int], int]] = {vid: {} for vid in inst.vertex}
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


def corners(cs: CellSet) -> CornerReport:
    """Classify all path corners of a facet, NW and SE, on its one road map.

    Both kinds are read off the same paths by ``_corner_records``.
    Reflecting the whole picture by 180 degrees swaps NW with SE corners and
    preserves essentiality; the tests use ``reflect`` to check the SE rule
    against the NW rule independently.
    """
    rm = road_map(cs)
    records = _corner_records(cs, rm, NW) + _corner_records(cs, rm, SE)
    records.sort(key=lambda r: (cell_key(r.cell), r.kind, r.orientation))
    ess_nw = len({r.cell for r in records if r.kind == NW and r.essential})
    ess_se = len({r.cell for r in records if r.kind == SE and r.essential})
    for rec in records:
        if rec.cell not in cs:
            raise CrossCheckError("corner cell outside the facet")
    return CornerReport(tuple(records), ess_nw, ess_se)


# -- reflection -----------------------------------------------------------------


@lru_cache(maxsize=128)
def reflect_instance(instance: Instance) -> tuple[Instance, dict[Cell, Cell]]:
    """The 180-degree rotated instance and the cell bijection onto it.

    Arrow order reverses and every page rotates in place; each block matrix
    of the result is the rotation of the original block, so diagonal chains
    and admissibility transfer verbatim.  Cached per instance: callers must
    treat the returned map as read-only.
    """
    r = len(instance.arrows)
    arrows = tuple((ar.source, ar.target) for ar in reversed(instance.arrows))
    quiver = BipartiteQuiver(instance.quiver.sources, instance.quiver.targets, arrows)
    reflected = Instance(quiver, instance.m, instance.u,
                         normalization=instance.normalization)
    cmap = {}
    for cell in instance.cells:
        ar = instance.arrow(cell.k)
        cmap[cell] = Cell(ar.rows + 1 - cell.i, ar.cols + 1 - cell.j, r + 1 - cell.k)
    return reflected, cmap


def reflect(cs: CellSet) -> tuple[Instance, CellSet]:
    """Image of a cell set under the 180-degree rotation (new instance, new set)."""
    reflected, cmap = reflect_instance(cs.instance)
    return reflected, CellSet(reflected, (cmap[c] for c in cs.cells))
