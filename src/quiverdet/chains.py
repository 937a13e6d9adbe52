"""Diagonal-chain statistics on block matrices and the face predicate.

A diagonal chain is a point set strictly increasing in both coordinates.
A cell set is admissible ("u-compatible") when no block matrix sees a chain
longer than that block's rank; these sets are the faces of the complex.  The
chain statistics of a cell P against a set C split the longest chain through
P into its strictly-NW and strictly-SE parts (``nw``/``se``); the padded
variants (``padded_nw``/``padded_se``) also count the path endpoints pinned
to the block boundary; ``cvm._path_layout`` keeps each position's padding
floors, the padded statistics of a raw value 0.

Three kernels compute them, each for its own callers (the second lives in
``bitslice``, which the counting commands load without this module):

- ``definitions._chain_tables``: both full tables of one block and one set,
  read cell by cell by ``_addable``.  ``BlockStats`` runs it for ``can_extend``,
  ``corner_stats``, the road maps and ``verify``'s membership oracle.
- ``bitslice._chain_levels``: the same tables bit-sliced over a batch of
  subsets, bit i for subset i.  ``bitslice._addable_columns`` runs it on
  the per-cell ridge batches of the local h routes and ``verify``'s codim-1
  check, and ``cvm._block_levels`` once per class of twin blocks, padding
  each block's levels, for ``verify``'s criteria check and, apart, for the
  corner pass (``cvm._corner_counts``) of the corner routes, the shelling
  checks and the ``corners`` command.
- Chain levels for the face predicate: N_j holds the positions with a
  j-chain of the set strictly NW of them, S_j those with one strictly SE,
  each a cell-rank mask; a position is blocked when it lies in N_j and
  S_(u-j) for some j.  ``_rank_ladder`` spares blocks that never block
  (rank at least min(a, b)), keeps rank-1 blocks as one quadrant mask per
  cell and lets twin blocks share levels.  ``_add``, the one reader of a
  rung, adds a cell in place (``_grow`` per staircase block) and returns
  what it blocks.  ``_load_blocks`` adds a set's cells to empty levels for
  the face DFS, the greedy closures, ``verify``'s reflection probes and
  ``codim1_membership``; the first three then add cells with ``_add``.

The tests hold the batch and the levels to ``definitions._chain_tables``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import ValidationError
from .quiver import Cell, Instance, _instance, _is_int, _prefix_masks


@lru_cache(maxsize=128)
def _rank_ladder(instance: Instance) -> tuple[tuple, tuple]:
    """What adding each cell blocks, split by how much of the level kernel it needs.

    Returns ``(kernels, rungs)``.  A block whose rank u is at least min(a, b)
    never blocks a cell: the longest chain through a position has at most
    min(a, b) points, so nw + se <= min(a, b) - 1 < u.  A rank-1 block blocks
    exactly the positions with a point strictly NW or strictly SE of them, so
    its share is one quadrant mask per point.  Every other block is a
    staircase block, held as chain levels (see ``_grow``); twin blocks, with
    identical ``block_ranks`` and rank, always hold the same levels and share
    one kernel.  A kernel is ``(u, start, se, nw)``: its 2u levels sit at
    ``start`` in the levels list, and ``se[r]`` and ``nw[r]`` are the
    block's positions strictly SE and strictly NW of cell r (0 off the
    block).  ``rungs[r]`` is ``(quadrants, kernels)`` for cell rank r: its
    quadrants in its rank-1 blocks and the kernels of its staircase blocks.
    Cached per instance: callers must treat the result as read-only.
    """
    quadrants = [0] * instance.size
    steps: list[list] = [[] for _ in range(instance.size)]
    kernels, seen, start = [], set(), 0
    for vid, d in instance.vertex.items():
        ranks = instance.block_ranks[vid]
        if d.u >= min(d.a, d.b) or (ranks, d.u) in seen:
            continue
        seen.add((ranks, d.u))
        nw, se = [0] * instance.size, [0] * instance.size
        # running ORs of the rows' prefix masks: acc[y] holds columns 1..y of
        # the rows above, then columns y + 1..b of the rows below
        acc = [0] * (d.b + 1)
        for row in ranks:
            line = _prefix_masks(row)
            for y, r in enumerate(row):
                nw[r] = acc[y]
            acc = [left | new for left, new in zip(acc, line)]
        acc = [0] * (d.b + 1)
        for row in reversed(ranks):
            line = _prefix_masks(row)
            for y, r in enumerate(row, start=1):
                se[r] = acc[y]
            acc = [right | line[-1] ^ new for right, new in zip(acc, line)]
        cells = [r for row in ranks for r in row]
        if d.u == 1:
            for r in cells:
                quadrants[r] |= nw[r] | se[r]
        else:
            kernel = (d.u, start, se, nw)
            start += 2 * d.u
            kernels.append(kernel)
            for r in cells:
                steps[r].append(kernel)
    return tuple(kernels), tuple(zip(quadrants, map(tuple, steps)))


def _class_blocked(levels: list[int], kernel) -> int:
    """The positions of a staircase kernel whose addition makes a chain longer than u.

    Those with nw + se >= u: the union over j = 0..u of N_j & S_(u-j), where
    N_0 = S_0 hold every position.
    """
    u, start = kernel[0], kernel[1]
    blocked = levels[start + u - 1] | levels[start + 2 * u - 1]
    for j in range(1, u):
        blocked |= levels[start + j - 1] & levels[start + 2 * u - j - 1]
    return blocked


def _grow(levels: list[int], kernel, held: int, r: int) -> int:
    """Add cell r to a staircase kernel's levels in place; its blocked positions if they grew.

    The levels are N_1..N_u then S_1..S_u, so nw >= j at a position iff it
    lies in N_j (``nw[x-1][y-1] >= j`` in ``definitions._chain_tables``).  A
    point ends a j-chain exactly when a (j - 1)-chain lies strictly NW of
    it, so N_j is the union of the SE quadrants of the points in N_(j-1).

    ``held`` is the set with r in it.  N_1 grows by the SE quadrant of r.
    A point newly reaches level j when N_j grows over it, or when it is r
    and lies in N_j; N_(j+1) grows only by the SE quadrants of those points,
    so the cascade stops at the first level that no point newly reaches.
    The S side is the mirror image.  Returns 0 when no level changed, so the
    blocked positions stay as they were.
    """
    u, start, se, nw = kernel
    bit = 1 << r
    changed = False
    first = start
    for quads in (se, nw):
        grow = quads[r]
        last = first + u - 1
        i = first
        while True:
            level = levels[i]
            new = grow & ~level
            if new:
                levels[i] = level | new
                changed = True
            if i == last:
                break
            points = held & new | level & bit
            if not points:
                break
            grow = 0
            while points:
                low = points & -points
                points ^= low
                grow |= quads[low.bit_length() - 1]
            i += 1
        first = last + 1
    return _class_blocked(levels, kernel) if changed else 0


def _add(levels: list[int], rung, held: int, r: int) -> int:
    """Add cell r, whose rung is ``rung``, to the levels in place; what it blocks.

    ``held`` is the set with r in it.  Returns the rung's rank-1 quadrants
    and what ``_grow`` reports for its staircase kernels.
    """
    blocked, kernels = rung
    for kernel in kernels:
        blocked |= _grow(levels, kernel, held, r)
    return blocked


def _load_blocks(instance: Instance, mask: int) -> tuple[list[int], int]:
    """The chain levels of every staircase kernel with ``mask`` loaded; the blocked cells.

    The levels list holds each kernel of ``_rank_ladder`` at its ``start``;
    it grows from empty by ``_add``, one cell of the mask at a time, as the
    caller may grow it on.  Levels only grow, so what ``_grow`` reports adds
    up to each kernel's final ``_class_blocked``.  The blocked mask is that
    and the cells' rank-1 quadrants, which is the union over all blocks of
    the positions with nw + se >= rank.  The set is u-compatible exactly
    when it shares no cell with that mask: a point on an over-long chain
    sees at least rank-many chain points strictly NW or SE of it, and a
    point of an admissible set at most rank - 1.
    """
    kernels, rungs = _rank_ladder(instance)
    levels = [0] * sum(2 * kernel[0] for kernel in kernels)
    blocked = 0
    for r in range(mask.bit_length()):
        if mask >> r & 1:
            blocked |= _add(levels, rungs[r], mask & (2 << r) - 1, r)
    return levels, blocked


def _occupancy(ranks, mask: int) -> list:
    """The ``occupied`` argument of ``_chain_tables`` for a block with ``block_ranks`` ``ranks``."""
    occupied = [()]
    occupied += [(False, *[mask >> r & 1 == 1 for r in row]) for row in ranks]
    return occupied


def _addable(positions, tables, candidates: int) -> int:
    """The candidate cells whose addition keeps every block's chains within its rank.

    ``positions`` is ``Instance.positions``; ``tables`` maps every block to
    its (nw, se, rank) triple.  A new over-long chain would have to pass
    through the added cell, and the longest chain through it is nw + 1 + se
    in each of its two blocks; so a cell is addable exactly when both sums of
    its strictly-NW and strictly-SE statistics stay below the ranks.
    """
    mask = 0
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        tv, ti, tj, sv, si, sj = positions[bit.bit_length() - 1]
        tnw, tse, tu = tables[tv]
        if tnw[ti - 1][tj - 1] + tse[ti + 1][tj + 1] < tu:
            snw, sse, su = tables[sv]
            if snw[si - 1][sj - 1] + sse[si + 1][sj + 1] < su:
                mask |= bit
    return mask


class BlockStats:
    """Chain-length tables of one block matrix and one cell set.

    ``nw`` and ``se`` are the ``_chain_tables`` of the set's occupancy grid in
    the block; ``nw_of``/``se_of`` read the longest chain strictly NW/SE of a
    position, and ``max_chain`` the longest chain in the whole block.
    """

    __slots__ = ("nw", "se")

    def __init__(self, a: int, b: int, occupied):
        from .definitions import _chain_tables

        self.nw, self.se = _chain_tables(a, b, occupied)

    @property
    def max_chain(self) -> int:
        return self.nw[-1][-1]

    def nw_of(self, x: int, y: int) -> int:
        """Longest chain strictly NW of (x, y)."""
        return self.nw[x - 1][y - 1]

    def se_of(self, x: int, y: int) -> int:
        """Longest chain strictly SE of (x, y)."""
        return self.se[x + 1][y + 1]


def padded_nw(raw: int, x: int, y: int, a: int, b: int, u: int) -> int:
    """NW statistic padded by the forced boundary endpoints of the u paths."""
    return max(raw, min(x - 1, u - 1 - min(a - x, b - y)))


def padded_se(raw: int, x: int, y: int, a: int, b: int, u: int) -> int:
    """SE statistic padded by the forced boundary endpoints of the u paths."""
    return max(raw, min(a - x, u - min(x, y)))


class CellSet:
    """An immutable canonical set of cells of one instance.

    The set's identity is its bitmask indexed by cell rank: equality and
    hashing go through it, and comparing masks as integers is exactly the
    set order (compare the sorted sequences from the largest position down).
    ``cells`` lists the same cells sorted under the lattice order.
    Chain-statistic tables are computed lazily per block and cached, which is
    safe because the set never changes.
    """

    __slots__ = ("instance", "cells", "mask", "_stats")

    def __init__(self, instance: Instance, cells: Iterable = ()):
        self.instance = _instance(instance)
        mask = instance.cell_mask(cells)
        self.cells: tuple[Cell, ...] = tuple([c for r, c in enumerate(instance.cells)
                                              if mask >> r & 1])
        self.mask = mask
        self._stats: dict[str, BlockStats] = {}

    @classmethod
    def from_mask(cls, instance: Instance, mask: int) -> "CellSet":
        """Trusted constructor: the set whose cells are the set bits of ``mask``.

        Only the mask is checked; bit r stands for ``instance.cells[r]``,
        so no cell needs validating and ``cells`` comes out sorted.
        """
        if not _is_int(mask):
            raise ValidationError(f"mask must be an int, not {mask!r}")
        if mask < 0 or mask >> _instance(instance).size:
            raise ValidationError(f"mask {mask:#x} has bits outside the {instance.size} cells")
        self = cls.__new__(cls)
        self.instance = instance
        self.cells = tuple([c for r, c in enumerate(instance.cells) if mask >> r & 1])
        self.mask = mask
        self._stats = {}
        return self

    @classmethod
    def from_triples(cls, instance: Instance, triples) -> "CellSet":
        return cls(instance, triples)

    def to_triples(self) -> list[list[int]]:
        return [[c.i, c.j, c.k] for c in self.cells]

    # -- container protocol ---------------------------------------------------

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __contains__(self, cell):
        try:
            r = self.instance.rank[self.instance.check_cell(cell)]
        except ValidationError:
            return False
        return self.mask >> r & 1 == 1

    def __eq__(self, other):
        return (isinstance(other, CellSet) and self.mask == other.mask
                and self.instance == other.instance)

    def __hash__(self):
        return hash((self.mask, self.instance))

    def __repr__(self):
        return f"CellSet({[tuple(c) for c in self.cells]})"

    # -- derived sets ----------------------------------------------------------

    def add(self, cell) -> "CellSet":
        return CellSet(self.instance, (*self.cells, cell))

    def remove(self, cell) -> "CellSet":
        cell = self.instance.check_cell(cell)
        if cell not in self:
            raise ValidationError(f"cell {tuple(cell)} not in set")
        return CellSet(self.instance, (c for c in self.cells if c != cell))

    # -- block views -------------------------------------------------------------

    def block_points(self, vid: str) -> list[tuple[int, int]]:
        """The set's image inside the block matrix of ``vid`` (sorted positions)."""
        mask = self.mask
        self.instance._vertex(vid)
        return [(x, y) for x, row in enumerate(self.instance.block_ranks[vid], start=1)
                for y, r in enumerate(row, start=1) if mask >> r & 1]

    def stats(self, vid: str) -> BlockStats:
        st = self._stats.get(vid)
        if st is None:
            data = self.instance._vertex(vid)
            st = BlockStats(data.a, data.b, _occupancy(self.instance.block_ranks[vid], self.mask))
            self._stats[vid] = st
        return st


def _cell_set(cs) -> CellSet:
    """``cs``, if it is the ``CellSet`` the public functions take; else a ValidationError."""
    if not isinstance(cs, CellSet):
        raise ValidationError(f"expected a CellSet, got {type(cs).__name__}")
    return cs


def is_u_compatible(cs: CellSet) -> bool:
    """True iff no block matrix contains a chain longer than its rank."""
    inst = _cell_set(cs).instance
    return all(cs.stats(vid).max_chain <= data.u for vid, data in inst.vertex.items())

