"""Chute moves and complete facet enumeration.

A horizontal chutable rectangle is a 2-row strip inside a target block whose
only occupied positions are its NE, SE and SW corners; the move swaps the SE
occupant for the (empty) NW corner, producing a strictly smaller facet.
Vertical moves are the transposed picture inside source blocks, and they are
found and checked as horizontal rectangles of the transposed block.  Every
facet arises from the initial one by such moves, so a breadth-first closure
enumerates them all; sorted ascending, the result is a shelling order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import CellSet, cmp_T_sets
from .cvm import HORIZONTAL, VERTICAL, initial_cvm, is_cvm
from .errors import FacetCapExceeded, ValidationError
from .quiver import Cell, Instance, TARGET

DEFAULT_FACET_CAP = 10_000_000


@dataclass(frozen=True)
class ChuteMove:
    direction: str       # HORIZONTAL or VERTICAL
    vertex: str          # block the rectangle lives in
    removed: Cell        # the SE occupant
    added: Cell          # the NW corner
    extent: tuple[int, int]  # rectangle shape (rows, cols)

    def __str__(self):
        return (f"{self.direction} move in {self.vertex}: "
                f"{tuple(self.removed)} -> {tuple(self.added)} ({self.extent[0]}x{self.extent[1]})")


def _block_moves(cs: CellSet, vid: str) -> list[ChuteMove]:
    """All chutable rectangles of one block: 2-row strips of a target block.

    A source block is scanned as its transpose, where its vertical
    (2-column) rectangles are horizontal ones; the block's side sets the
    move's direction and the order of its extent.  For a fixed SE occupant
    with its NE neighbor occupied, walk west: the first occupied position
    must sit in the bottom row (the SW corner) with a free top row above
    the walked span, and nothing wider can qualify.
    """
    inst, mask = cs.instance, cs.mask
    ranks = inst.block_ranks[vid]
    horizontal = inst.vertex[vid].side == TARGET
    if not horizontal:
        ranks = tuple(zip(*ranks))
    occ = [[mask >> r & 1 for r in row] for row in ranks]
    moves = []
    for x in range(len(ranks) - 1):     # top row of the rectangle
        top, bottom = occ[x], occ[x + 1]
        for y2 in range(1, len(top)):   # SE column
            if not (bottom[y2] and top[y2]):
                continue
            for y in range(y2 - 1, -1, -1):
                if top[y]:
                    break
                if bottom[y]:
                    width = y2 - y + 1
                    moves.append(ChuteMove(
                        HORIZONTAL if horizontal else VERTICAL, vid,
                        removed=inst.cells[ranks[x + 1][y2]],
                        added=inst.cells[ranks[x][y]],
                        extent=(2, width) if horizontal else (width, 2)))
                    break
    return moves


def chutable_moves(cs: CellSet) -> list[ChuteMove]:
    """All chute moves applicable to a facet.

    Horizontal rectangles are searched in target blocks and vertical ones in
    source blocks; a 2x2 rectangle qualifies as both and the two coinciding
    moves are emitted once (as the horizontal one).
    """
    if not is_cvm(cs):
        raise ValidationError("chute moves are defined on concurrent vertex maps")
    found: dict[tuple[Cell, Cell], ChuteMove] = {}
    for vid in cs.instance.vertex:
        for mv in _block_moves(cs, vid):
            found.setdefault((mv.removed, mv.added), mv)
    return sorted(found.values(), key=lambda m: (m.removed, m.added))


def _rectangle_ok(cs: CellSet, move: ChuteMove) -> bool:
    inst = cs.instance
    horizontal = inst.vertex[move.vertex].side == TARGET
    try:
        x1, y1 = inst.phi(move.vertex, move.added)
        x2, y2 = inst.phi(move.vertex, move.removed)
    except ValidationError:
        return False
    if (move.direction == HORIZONTAL) != horizontal:
        return False
    ranks = inst.block_ranks[move.vertex]
    if not horizontal:  # a vertical rectangle is horizontal in the transposed block
        x1, y1, x2, y2, ranks = y1, x1, y2, x2, tuple(zip(*ranks))
    if x2 != x1 + 1 or y2 - y1 + 1 < 2:
        return False
    mask = cs.mask
    inside = {(x, y) for x in (x1, x2) for y in range(y1, y2 + 1)
              if mask >> ranks[x - 1][y - 1] & 1}
    return inside == {(x2, y1), (x1, y2), (x2, y2)}


def _moved_mask(cs: CellSet, move: ChuteMove) -> int:
    rank = cs.instance.rank
    return cs.mask & ~(1 << rank[move.removed]) | 1 << rank[move.added]


def apply_move(cs: CellSet, move: ChuteMove) -> CellSet:
    """Apply one chute move; the result is a facet strictly below the input."""
    if not _rectangle_ok(cs, move):
        raise ValidationError(f"move not applicable: {move}")
    out = CellSet.from_mask(cs.instance, _moved_mask(cs, move))
    if __debug__:
        assert is_cvm(out)
        assert cmp_T_sets(out, cs) < 0
    return out


def apply_inverse(cs: CellSet, move: ChuteMove) -> CellSet:
    """Undo a chute move previously applied to reach ``cs``."""
    if move.added not in cs or move.removed in cs:
        raise ValidationError(f"inverse move not applicable: {move}")
    return CellSet(cs.instance, (*(c for c in cs.cells if c != move.added), move.removed))


def enumerate_facets(instance: Instance, facet_cap: int = DEFAULT_FACET_CAP) -> list[CellSet]:
    """All facets, as the chute-move closure of the initial one, sorted ascending.

    The ascending order is contractual: it is a shelling order of the
    complex, and its length is the multiplicity.

    Facets are identified by their masks.  Each move's successor mask is
    computed first, and only a mask not seen before becomes a ``CellSet``
    through ``apply_move``, so its self-checks (the facet predicate and the
    strict decrease) run once per distinct facet.  A move onto a facet
    already seen is still checked to be applicable.
    """
    if facet_cap < 1:
        raise ValidationError("facet cap must be positive")
    start = initial_cvm(instance)
    seen = {start.mask}
    frontier = [start]
    facets = [start]
    while frontier:
        nxt = []
        for cs in frontier:
            for mv in chutable_moves(cs):
                mask = _moved_mask(cs, mv)
                if mask in seen:
                    if not _rectangle_ok(cs, mv):
                        raise ValidationError(f"move not applicable: {mv}")
                    continue
                if len(seen) >= facet_cap:
                    raise FacetCapExceeded(
                        f"more than {facet_cap} facets; raise the cap to continue")
                out = apply_move(cs, mv)
                seen.add(out.mask)
                nxt.append(out)
                facets.append(out)
        frontier = nxt
    facets.sort(key=lambda f: f.mask)
    return facets
