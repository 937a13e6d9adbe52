"""Diagonal-chain statistics on block matrices and the face predicate.

A diagonal chain is a point set strictly increasing in both coordinates.
A cell set is admissible ("u-compatible") when no block matrix sees a chain
longer than that block's rank; these sets are exactly the faces of the
complex the rest of the package works with.

The chain statistics of a cell P against a set C split the longest chain
through P into its strictly-NW and strictly-SE parts (``nw``/``se``); the
padded variants additionally account for the path endpoints pinned to the
block boundary and are the workhorse behind path reconstruction and the
membership criterion.

Two kernels compute the statistics.  ``_chain_tables`` builds both full
tables of a block, and ``_addable`` reads them cell by cell; ``BlockStats``,
``can_extend``, the road maps and ``verify``'s facet membership check use
these.  ``verify``'s criteria check does not: it runs its own bit-sliced
DP over many subsets at once, and the tests hold it to ``corner_stats``,
which reads ``_chain_tables``.  The padding floors live in
``_corner_table``, computed once per cell and instance: ``corner_stats``, the
road maps and the criteria check (both through ``cvm._path_layout``) read them
there, so no caller pads position by position.  ``_blocked_ranks`` answers only "which positions
of this block are not addable", from row bitmasks and O(u) staircase
thresholds per row.  ``_rank_ladder`` spares it the blocks that need no
staircase: a block of rank at least min(a, b) never blocks a cell, a rank-1
block blocks the positions strictly NW or SE of its points, kept per cell as
one quadrant mask, and twin blocks (the same positions and rank) run it once.
``_load_blocks`` loads a cell set on the ladder; the face DFS and the greedy
closures read one rung per added cell, so a cell outside every staircase
block costs one AND-NOT and no kernel call, and neither does a cell too few
of whose comparable positions are occupied to block anything new.  The
tests hold the kernel and the ladder to ``_chain_tables``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import ValidationError
from .quiver import Cell, Instance, _prefix_masks


def max_diagonal_chain(points: Iterable[tuple[int, int]]) -> int:
    """Length of the longest subset strictly increasing in both coordinates.

    Sort by row with columns tie-broken descending, then take the longest
    strictly increasing subsequence of columns (patience sorting, O(n log n)).
    """
    pts = sorted(points, key=lambda p: (p[0], -p[1]))
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


def _blocked_ranks(occ, pre, b: int, u: int) -> int:
    """Ranks of the positions of one a x b block whose addition makes a chain longer than u.

    ``occ[x]`` is the occupancy of row x as a column bitmask (bit y for column
    y) and ``pre[x][y]`` the rank mask of row x's columns 1..y; index 0 of both
    is padding, so a = len(occ) - 1.  The result is the set of positions with
    ``nw[x-1][y-1] + se[x+1][y+1] >= u`` in the ``_chain_tables`` of the block,
    read off staircase thresholds instead of the tables.  Over the rows above
    x, t[k] is the smallest last column of a k-chain; over the rows below it,
    s[k] is the largest first column of one.  So nw[x-1][y-1] >= j iff
    t[j] < y, se[x+1][y+1] >= k iff s[k] > y, and the blocked columns of row
    x are the union over j = 0..u of the open intervals (t[j], s[u - j]).
    Only thresholds up to k = u are kept, and only the existing ones: an
    interval with no t[j] or no s[u - j] is empty.  The thresholds are the
    tails of patience sorting, updated one point at a time by bisection; each
    row's points go in the order that keeps two of them out of one chain.
    """
    a = len(occ) - 1
    top = b + 1
    # Bottom-up pass: below[x] holds r[k] = top - s[k] over rows x+1..a, which
    # is increasing in k like t, so the same update serves both directions.
    below = [None] * (a + 1)
    r = [0]
    below[a] = r
    for x in range(a, 1, -1):
        row = occ[x]
        if row:
            r = r[:]
            n = len(r)
            while row:
                bit = row & -row
                row ^= bit
                c = top + 1 - bit.bit_length()
                k = bisect_left(r, c)
                if k < n:
                    r[k] = c
                elif k <= u:
                    r.append(c)
                    n += 1
        below[x - 1] = r

    # Top-down pass: row x's intervals from t (rows above) and below[x], then
    # row x's points go into t.
    blocked = 0
    t = [0]
    n = 1
    for x in range(1, a + 1):
        p, r = pre[x], below[x]
        j = u + 1 - len(r)
        if j < 0:
            j = 0
        while j < n:
            lo, hi = t[j], top - r[u - j]
            if hi - lo > 1:
                blocked |= p[hi - 1] ^ p[lo]
            j += 1
        row = occ[x]
        if row and x < a:
            while row:
                c = row.bit_length() - 1
                row ^= 1 << c
                k = bisect_left(t, c)
                if k < n:
                    t[k] = c
                elif k <= u:
                    t.append(c)
                    n += 1
    return blocked


def _comparable(ranks, pre, b: int) -> dict[int, int]:
    """Per position of a block, by rank: the positions strictly NW or strictly SE of it.

    ``ranks`` is the block's ``block_ranks`` and ``pre`` its ``_blocked_ranks``
    argument.  Running ORs of the rows' prefix masks, two per position and
    sweep, build them in O(a·b) mask operations.
    """
    near = {}
    # acc[y]: the rows above x, columns 1..y, so (x, y) sees acc[y - 1] NW
    acc = [0] * (b + 1)
    for x in range(1, len(pre)):
        for y, r in enumerate(ranks[x - 1]):
            near[r] = acc[y]
        acc = [left | new for left, new in zip(acc, pre[x])]
    # acc[y]: the rows below x, columns y + 1..b, so (x, y) sees acc[y] SE
    acc = [0] * (b + 1)
    for x in range(len(pre) - 1, 0, -1):
        for y, r in enumerate(ranks[x - 1], start=1):
            near[r] |= acc[y]
        whole = pre[x][b]
        acc = [right | whole ^ new for right, new in zip(acc, pre[x])]
    return near


@lru_cache(maxsize=128)
def _rank_ladder(instance: Instance) -> tuple[tuple, tuple]:
    """What adding each cell blocks, split by how much of the staircase kernel it needs.

    Returns ``(kernels, rungs)``.  A block whose rank u is at least min(a, b)
    never blocks a cell: the longest chain through a position has at most
    min(a, b) points, so nw + se <= min(a, b) - 1 < u.  A rank-1 block blocks
    exactly the positions with a point strictly NW or strictly SE of them,
    the union of the ``_comparable`` masks of its points.  Every other block
    needs ``_blocked_ranks``; ``kernels`` lists their ``(pre, b, u)``, once
    per set of twins, blocks with identical ``block_ranks`` and rank, whose
    blocked positions always agree.  ``rungs[r]`` is ``(quadrants, steps)``
    for cell rank r: the positions comparable to the cell in its rank-1
    blocks, and ``(kernel index, row, column bit, comparable, u - 1)`` for
    each kernel block it lies in.  Adding the cell to an admissible set
    newly blocks a position of a kernel block only if the cell then lies on a
    chain of u points there, so only if at least u - 1 points of the set are
    comparable to it.  Cached per instance: callers must treat the result as
    read-only.
    """
    quadrants = [0] * instance.size
    steps: list[list] = [[] for _ in range(instance.size)]
    kernels, seen = [], set()
    for vid, d in instance.vertex.items():
        ranks = instance.block_ranks[vid]
        if d.u >= min(d.a, d.b) or (ranks, d.u) in seen:
            continue
        seen.add((ranks, d.u))
        pre = [(), *map(_prefix_masks, ranks)]  # the ``pre`` of ``_blocked_ranks``
        near = _comparable(ranks, pre, d.b)
        if d.u == 1:
            for r, q in near.items():
                quadrants[r] |= q
        else:
            k = len(kernels)
            kernels.append((pre, d.b, d.u))
            for x, row in enumerate(ranks, start=1):
                for y, r in enumerate(row, start=1):
                    steps[r].append((k, x, 1 << y, near[r], d.u - 1))
    return tuple(kernels), tuple(zip(quadrants, map(tuple, steps)))


def _load_blocks(instance: Instance, mask: int) -> tuple[list[tuple], int]:
    """Each kernel block's ``_blocked_ranks`` arguments with ``mask`` loaded; the blocked cells.

    The arguments are ``(occ, pre, b, u)`` per entry of ``_rank_ladder``'s
    kernels, in that order; ``occ`` is a fresh list that the caller may
    update in place as it adds cells.  The blocked mask is the union of the
    kernels' ``_blocked_ranks`` and of the cells' rank-1 quadrants, which is
    the union of ``_blocked_ranks`` over all blocks.  The set is u-compatible
    exactly when it shares no cell with that mask: a point on an over-long
    chain sees at least rank-many chain points strictly NW or SE of it, and a
    point of an admissible set at most rank - 1.
    """
    kernels, rungs = _rank_ladder(instance)
    blocks = [([0] * len(pre), pre, b, u) for pre, b, u in kernels]
    blocked = 0
    m = mask
    while m:
        bit = m & -m
        m ^= bit
        quadrants, steps = rungs[bit.bit_length() - 1]
        blocked |= quadrants
        for k, x, col, _, _ in steps:
            blocks[k][0][x] |= col
    for block in blocks:
        blocked |= _blocked_ranks(*block)
    return blocks, blocked


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
        self.instance = instance
        mask = instance.cell_mask(cells)
        self.cells: tuple[Cell, ...] = tuple([c for r, c in enumerate(instance.cells)
                                              if mask >> r & 1])
        self.mask = mask
        self._stats: dict[str, BlockStats] = {}

    @classmethod
    def from_mask(cls, instance: Instance, mask: int) -> "CellSet":
        """Trusted constructor: the set whose cells are the set bits of ``mask``.

        Only the mask's range is checked; bit r stands for ``instance.cells[r]``,
        so no cell needs validating and ``cells`` comes out sorted.
        """
        if mask < 0 or mask >> instance.size:
            raise ValidationError(f"mask {mask:#x} has bits outside the {instance.size} cells")
        self = cls.__new__(cls)
        self.instance = instance
        self.cells = tuple([c for r, c in enumerate(instance.cells) if mask >> r & 1])
        self.mask = mask
        self._stats = {}
        return self

    @classmethod
    def from_triples(cls, instance: Instance, triples) -> "CellSet":
        return cls(instance, [Cell(*t) for t in triples])

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
        return [(x, y) for x, row in enumerate(self.instance.block_ranks[vid], start=1)
                for y, r in enumerate(row, start=1) if mask >> r & 1]

    def stats(self, vid: str) -> BlockStats:
        st = self._stats.get(vid)
        if st is None:
            data = self.instance.vertex[vid]
            st = BlockStats(data.a, data.b, _occupancy(self.instance.block_ranks[vid], self.mask))
            self._stats[vid] = st
        return st


def cmp_T_sets(left: CellSet, right: CellSet) -> int:
    """Compare equal-size cell sets: sorted sequences from the largest cell down."""
    if left.instance != right.instance:
        raise ValidationError("cell sets belong to different instances")
    if len(left) != len(right):
        raise ValidationError(f"set comparison on unequal cardinalities {len(left)} != {len(right)}")
    return (left.mask > right.mask) - (left.mask < right.mask)


def is_u_compatible(cs: CellSet) -> bool:
    """True iff no block matrix contains a chain longer than its rank."""
    inst = cs.instance
    return all(cs.stats(vid).max_chain <= data.u for vid, data in inst.vertex.items())


def can_extend(cs: CellSet, cell) -> bool:
    """True iff adding ``cell`` keeps the set admissible.

    The definition-level check collapses to two table lookups per block; see
    ``_addable``.
    """
    inst = cs.instance
    cell = inst.check_cell(cell)
    r = inst.rank[cell]
    if cs.mask >> r & 1:
        raise ValidationError(f"cell {tuple(cell)} already in set")
    tgt, _, _, src, _, _ = inst.positions[r]
    tables = {}
    for vid in (tgt, src):
        st = cs.stats(vid)
        tables[vid] = (st.nw, st.se, inst.vertex[vid].u)
    return _addable(inst.positions, tables, 1 << r) != 0


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
    inst = cs.instance
    r = inst.rank[inst.check_cell(cell)]
    tgt, ti, tj, src, si, sj = inst.positions[r]
    *_, nw_floor, se_floor, nw_src_floor, se_src_floor = _corner_table(inst)[r]
    tst, sst = cs.stats(tgt), cs.stats(src)
    nw, se = tst.nw_of(ti, tj), tst.se_of(ti, tj)
    nw_s, se_s = sst.nw_of(si, sj), sst.se_of(si, sj)
    return ChainStats(
        nw=nw,
        se=se,
        nw_padded=max(nw, nw_floor),
        se_padded=max(se, se_floor),
        nw_src=nw_s,
        se_src=se_s,
        nw_src_padded=max(nw_s, nw_src_floor),
        se_src_padded=max(se_s, se_src_floor),
    )


@lru_cache(maxsize=128)
def _corner_table(instance: Instance) -> tuple[tuple, ...]:
    """Per cell rank, everything about the cell's two corners that no cell set changes.

    A row holds the index (in ``instance.vertex`` order) and the position of
    the cell's target block, the same for its source block, the two blocks'
    ranks, and the padding floors of the four padded statistics in
    ``ChainStats`` order.  A floor is the padded statistic of a raw value 0;
    since raw values are never negative, ``padded_nw(raw, ...) ==
    max(raw, padded_nw(0, ...))``, and the same for ``padded_se``.
    ``corner_stats`` and ``cvm._path_layout`` (for the road maps and
    ``verify``'s criteria check) read their padding here.
    Cached per instance: callers must treat the result as read-only.
    """
    index = {vid: n for n, vid in enumerate(instance.vertex)}
    rows = []
    for tv, ti, tj, sv, si, sj in instance.positions:
        td, sd = instance.vertex[tv], instance.vertex[sv]
        rows.append((index[tv], ti, tj, index[sv], si, sj, td.u, sd.u,
                     padded_nw(0, ti, tj, td.a, td.b, td.u),
                     padded_se(0, ti, tj, td.a, td.b, td.u),
                     # the source-side block is the transpose situation: swap coordinates
                     padded_nw(0, sj, si, sd.b, sd.a, sd.u),
                     padded_se(0, sj, si, sd.b, sd.a, sd.u)))
    return tuple(rows)
