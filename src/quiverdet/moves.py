"""Chute moves and complete facet enumeration.

A horizontal chutable rectangle is a 2-row strip inside a target block whose
only occupied positions are its NE, SE and SW corners; the move swaps the SE
occupant for the (empty) NW corner, producing a strictly smaller facet.
Vertical moves are the transposed picture inside source blocks.  One carry
finds both: it reads target blocks by rows and source blocks by columns, so
every rectangle spans two adjacent lines of bitmasks, and it finds each move
once (a 2x2 rectangle inside one page, of both kinds, as horizontal).  Every
facet arises from the initial one by such moves, so a breadth-first closure
over masks enumerates them all; sorted ascending, the result is a shelling
order.  The closure packs a facet's lines into one int, w bits a line, with
a guard bit above each line that stops the carry, so one expression runs
the carry of every line pair at once (broadword arithmetic, Knuth, TAOCP
4A, 7.1.3); ``definitions._scan``, which lists one facet's moves on lines
kept apart, is its reference.  A move changes two cells, so a child's word
is its parent's XOR both cells' packed flip words, read off a table by the
hit's bit length; only the initial facet's word is built from its mask.

This is the mask path: it imports no oracle module when it loads.  The
functions that take or return a ``CellSet`` or a ``ChuteMove`` import
``chains``, ``cvm`` or ``definitions`` when they run, outside every loop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DEFAULT_FACET_CAP, FacetCapExceeded, ValidationError
from .quiver import HORIZONTAL, TARGET, VERTICAL, Instance, _instance, _is_int, _prefix_masks

if TYPE_CHECKING:
    from .chains import CellSet


def _initial_mask(instance: Instance) -> int:
    """Closed-form construction of the largest facet c_max(empty), as a rank mask.

    Page by page: intersect "bottom u_target rows or rightmost leftover
    target-rank columns" with the transposed source-side picture, where the
    leftover rank discounts the ranks already served by later pages.
    ``verify``'s ``initial-closed-form`` check holds it to the closure.
    """
    mask = 0
    for ar in instance.arrows:
        ua, ub = instance.u[ar.target], instance.u[ar.source]
        # the target side claims the bottom ua rows and the rightmost cols_t
        # columns, the source side the bottom rows_s rows and rightmost ub columns
        cols_t = max(ua - sum(instance.u[a2.source] for a2 in instance.arrows
                              if a2.target == ar.target and a2.k > ar.k), 0)
        rows_s = max(ub - sum(instance.u[a2.target] for a2 in instance.arrows
                              if a2.source == ar.source and a2.k > ar.k), 0)
        for i in range(1, ar.rows + 1):
            for j in range(1, ar.cols + 1):
                if ((i > ar.rows - ua or j > ar.cols - cols_t)
                        and (i > ar.rows - rows_s or j > ar.cols - ub)):
                    mask |= 1 << instance.rank[i, j, ar.k]
    return mask


@lru_cache(maxsize=128)
def _move_layout(instance: Instance) -> tuple[list, tuple, tuple]:
    """``(pre, pairs, where)`` over the rows of target blocks and the columns of source blocks.

    ``pre[n]`` is line n's ``quiver._prefix_masks``.  ``pairs`` holds ``(n,
    vid, twins)`` for each line n followed by a line of the same block,
    targets first; ``twins`` marks the positions of a source block whose
    predecessor lies on their page, where a width-2 rectangle is a target
    block's too.  ``where[r]`` is cell r's target line and column bit, then
    its source line and row bit.  Cached per instance; treat it as read-only.
    """
    pre, pairs, first = [], [], {}
    for vid, d in instance.vertex.items():
        ranks = instance.block_ranks[vid]
        first[vid] = len(pre)
        # pages tile a source block by rows: read each row's page off its first cell
        page = [instance.cells[row[0]].k for row in ranks] if d.side != TARGET else []
        twins = sum(2 << y for y in range(1, len(page)) if page[y] == page[y - 1])
        pre += map(_prefix_masks, ranks if d.side == TARGET else zip(*ranks))
        pairs += ((n, vid, twins) for n in range(first[vid], len(pre) - 1))
    where = tuple((first[tv] + ti - 1, 1 << tj, first[sv] + sj - 1, 1 << si)
                  for tv, ti, tj, sv, si, sj in instance.positions)
    return pre, tuple(pairs), where


@lru_cache(maxsize=128)
def _packed_layout(instance: Instance) -> tuple:
    """``(w, tops, guards, twins, cell, flip)``: ``_move_layout`` for one packed line word.

    A facet's packed word holds line n's positions at bits n*w + 1 .. n*w +
    w - 1, so bit n*w, which no position uses, is the guard above line n - 1.
    ``tops`` covers the positions of every line n that ``pairs`` pairs with
    line n + 1, ``guards`` the guard above each such line, ``twins`` is each
    pair's mask shifted to its line.  ``flip[r]`` is cell r's packed word, and
    ``cell[n*w + y + 1]``, indexed by a bit's length, is ``(1 << r, flip[r])``
    for the cell r at position y of line n.  Cached per instance; read-only.
    """
    pre, pairs, where = _move_layout(instance)
    w = max(map(len, pre))
    flip = [tb << tn * w | sb << sn * w for tn, tb, sn, sb in where]
    cell = [None] * (len(pre) * w + 1)
    for n, p in enumerate(pre):
        for y in range(1, len(p)):
            r = (p[y] ^ p[y - 1]).bit_length() - 1
            cell[n * w + y + 1] = (1 << r, flip[r])
    tops = guards = twins = 0
    for n, _, t in pairs:
        tops |= (1 << w) - 2 << n * w
        guards |= 1 << (n + 1) * w
        twins |= t << n * w
    return w, tops, guards, twins, tuple(cell), tuple(flip)


def chutable_moves(cs: CellSet) -> list[ChuteMove]:
    """All chute moves applicable to a facet (checked with ``is_cvm``), sorted by (removed, added).

    They come from ``definitions._scan``, the reference of the carry the
    closure runs.  A 2x2 rectangle is both horizontal and vertical; the scan
    lists its move once, as horizontal.
    """
    from .cvm import is_cvm
    from .definitions import ChuteMove, _lines, _scan

    if not is_cvm(cs):
        raise ValidationError("chute moves are defined on concurrent vertex maps")
    inst = cs.instance
    layout = _move_layout(inst)
    moves = []
    for vid, removed, added, width in _scan(layout, _lines(layout, cs.mask)):
        horizontal = inst.vertex[vid].side == TARGET
        moves.append(ChuteMove(HORIZONTAL if horizontal else VERTICAL, vid,
                               inst.cells[removed.bit_length() - 1],
                               inst.cells[added.bit_length() - 1],
                               extent=(2, width) if horizontal else (width, 2)))
    return sorted(moves, key=lambda m: (m.removed, m.added))


def apply_move(cs: CellSet, move: ChuteMove) -> CellSet:
    """Apply one chute move, checked against ``cs``; the result is a facet strictly below it."""
    from .chains import CellSet
    from .definitions import _rectangle_ok

    if not _rectangle_ok(cs, move):
        raise ValidationError(f"move not applicable: {move}")
    rank = cs.instance.rank
    return CellSet.from_mask(cs.instance, cs.mask ^ 1 << rank[move.removed] | 1 << rank[move.added])


def _facet_masks(instance: Instance, facet_cap: int) -> list[int]:
    """The masks of all facets, sorted ascending: the closure ``enumerate_facets`` runs.

    Breadth first from the initial facet.  Each frontier entry is a mask and
    its packed word (``_packed_layout``).  The word and the word shifted
    down one line, both masked to the pair tops, hold every pair's top and
    bottom lines, and the carry of ``definitions._scan`` runs on all pairs
    in one expression, the guard bits counting as occupied.  Hits come
    lowest first, in ``pairs`` order, and each is applied at once: its
    removed cell is the bottom line's, w bits above the hit, its added cell
    the top line's at the highest occupied bit below the hit, and both come
    off the ``cell`` table with their flip words; a child's word is its
    parent's XOR both.  ``FacetCapExceeded`` fires before anything is
    returned and says how far the closure got: the facets found, and the
    layers complete, which hold every facet within ``depth`` moves of the
    initial one.
    """
    _instance(instance)
    if not _is_int(facet_cap) or facet_cap < 1:
        raise ValidationError(f"facet cap must be an int >= 1, not {facet_cap!r}")
    w, tops, guards, twins, cell, flip = _packed_layout(instance)
    start = _initial_mask(instance)
    occ = 0
    for r in range(start.bit_length()):
        if start >> r & 1:
            occ |= flip[r]
    seen, frontier, depth = {start}, [(start, occ)], 0
    while frontier:
        nxt = []
        for mask, occ in frontier:
            top = occ & tops
            bottom = occ >> w & tops
            either = top | bottom
            step = (bottom & ~top) << 1
            hits = (step - (either | guards) - 1) & top & bottom & ~(step & twins)
            while hits:
                bit = hits & -hits
                hits ^= bit
                removed, removed_flip = cell[bit.bit_length() + w]
                added, added_flip = cell[(either & (bit - 1)).bit_length()]
                out = mask ^ removed | added
                if out in seen:
                    continue
                if len(seen) >= facet_cap:
                    raise FacetCapExceeded(
                        f"more than {facet_cap} facets; stopped with {len(seen)} found and "
                        f"{depth + 1} breadth-first layers complete (all facets within "
                        f"{depth} moves of the initial one); raise the cap to continue")
                seen.add(out)
                nxt.append((out, occ ^ removed_flip ^ added_flip))
        frontier = nxt
        depth += 1
    return sorted(seen)


def enumerate_facets(instance: Instance, facet_cap: int = DEFAULT_FACET_CAP) -> list[CellSet]:
    """All facets, as the chute-move closure of the initial one, sorted ascending.

    The ascending order is contractual: it is a shelling order of the
    complex, and its length is the multiplicity.

    The closure, ``_facet_masks``, runs breadth first on bare masks and
    checks no facet; only the sorted result becomes ``CellSet``s.  ``verify``
    checks the facets and the list.  The tests hold the closure to one that
    runs ``definitions._scan`` on lines rebuilt from each mask, and ``_scan``
    to the definition.
    """
    from .chains import CellSet

    return [CellSet.from_mask(instance, mask) for mask in _facet_masks(instance, facet_cap)]
