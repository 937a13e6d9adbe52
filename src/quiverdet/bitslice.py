"""Bit-sliced batches of cell sets: one int per cell, bit i for set i.

``_columns`` transposes masks into per-cell columns, ``_exactly`` and
``_tally`` count each set's cells with a bit-sliced binary counter, and
``_chain_levels`` runs the diagonal-chain DP of one block on a whole batch
(``_at_least`` reads its levels).  ``_addable_columns`` gives, per cell, the
sets of a batch to which the cell can be added: those with no chain through
it longer than a block's rank.

``_restriction_columns`` runs that test on the ridges of a facet list, one
batch per cell c: the facets' columns with column c cleared, over the
facets that hold c.  In ascending mask order, c lies in the restriction face
R(F) (Björner–Wachs, Trans. AMS 348, 1996) exactly when F - c has an
addable cell below c: F - c + c' is then a facet with a smaller mask, and
an earlier facet holding F - c has that form.  An addable cell above c
gives R(F) in descending order.  So R(F), in both orders, needs no ridge
table and no facet order: ``series`` tallies it, the ``shelling`` command
transposes it back to one mask per facet (``_columns`` is its own inverse),
and ``verify`` holds the ridges' owners to its walk with the same batches,
which take the masks in ``_chunks``, as ``cvm._corner_counts`` does.

This module loads only ``quiver``: the counting commands run it.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import and_, or_

from .quiver import Instance

# Masks transposed at once by ``_columns``; the text of a chunk takes about
# size times this many bytes.
_CHUNK = 256

# Bits per batch: at most this many masks to a chunk, and cells times facets
# to a batch of ``_restriction_columns``.  A class's level tables for a batch
# take about 2(u + 1)(a + 2)(b + 2) ints of this size.
_WIDTH = 16384


def _columns(masks: list[int], size: int) -> list[int]:
    """Per cell rank r, the int whose bit i is bit r of ``masks[i]``.

    Each chunk of masks is written out in binary, last mask first, so that
    every size-th digit of the text is one cell's column of the chunk.
    """
    columns = [0] * size
    digits = f"0{size}b"
    for start in range(0, len(masks), _CHUNK):
        text = "".join([format(m, digits) for m in reversed(masks[start:start + _CHUNK])])
        for r in range(size):
            columns[r] |= int(text[size - 1 - r::size], 2) << start
    return columns


def _chunks(masks: list[int]):
    """``(start, masks[start:start + _WIDTH])`` for each chunk that a batch takes."""
    return ((start, masks[start:start + _WIDTH]) for start in range(0, len(masks), _WIDTH))


def _counter(columns: list[int]) -> list[int]:
    """The binary digits of every set's cell count: bit i of digit k is bit k of set i's count."""
    digits: list[int] = []
    for carry in columns:
        k = 0
        while carry:
            if k == len(digits):
                digits.append(carry)
                break
            digits[k], carry = digits[k] ^ carry, digits[k] & carry
            k += 1
    return digits


def _exactly(columns: list[int], n: int, every: int) -> int:
    """The sets of exactly n cells, counted by a bit-sliced binary counter."""
    digits = _counter(columns)
    if n >> len(digits):
        return 0
    for k, digit in enumerate(digits):
        every &= digit if n >> k & 1 else ~digit
    return every


def _tally(columns: list[int], every: int) -> list[int]:
    """How many sets in ``every`` have n cells, for n = 0, 1, ...: ``_exactly`` for every n at once.

    Each digit of the counter splits the sets by one more bit of their count.
    """
    parts = [every]
    for digit in _counter(columns):
        parts = [part & ~digit for part in parts] + [part & digit for part in parts]
    return [part.bit_count() for part in parts]


def _chain_levels(a: int, b: int, top: int, ranks, columns, every: int) -> tuple[list, list]:
    """Bit-sliced NW and SE chain tables of one a x b block, levels 1 to ``top``.

    Set i holds the block's position (x, y) when bit i of ``columns[r]`` is
    set for r = ``ranks[x - 1][y - 1]`` (``Instance.block_ranks``), and
    ``every`` has a bit for each set; rows 0 and a + 1 and columns 0 and
    b + 1 of the tables are zero padding.  Bit i of ``nw[j - 1][x][y]`` is set
    when set i has a chain of j points in rows <= x and columns <= y, and
    of ``se[j - 1][x][y]`` when it has one in rows >= x and columns >= y.
    A j-chain ends at an occupied (x, y) exactly when a (j - 1)-chain lies
    strictly NW of it, so each level is one sweep over the one below.
    """
    pad = [0] * (b + 2)
    occ = [pad, *([0, *(columns[r] for r in row), 0] for row in ranks), pad]
    nw, se = [], []
    lower_nw = lower_se = [[every] * (b + 2)] * (a + 2)
    for _ in range(top):
        level = [[0] * (b + 2) for _ in range(a + 2)]
        for x in range(1, a + 1):
            row, up, diag, held = level[x], level[x - 1], lower_nw[x - 1], occ[x]
            for y in range(1, b + 1):
                row[y] = up[y] | row[y - 1] | held[y] & diag[y - 1]
        nw.append(level)
        lower_nw = level
        level = [[0] * (b + 2) for _ in range(a + 2)]
        for x in range(a, 0, -1):
            row, down, diag, held = level[x], level[x + 1], lower_se[x + 1], occ[x]
            for y in range(b, 0, -1):
                row[y] = down[y] | row[y + 1] | held[y] & diag[y + 1]
        se.append(level)
        lower_se = level
    return nw, se


def _at_least(nw: list, se: list, k: int) -> int:
    """The sets in which the two statistics sum to at least k, from their level lists."""
    return reduce(or_, map(and_, nw[:k + 1], se[k::-1]))


def _addable_columns(instance: Instance, columns: list[int], every: int) -> list[int]:
    """Per cell rank, the sets of the batch that do not hold the cell and do not block it.

    A set blocks a position when nw + se >= u there in one of its blocks:
    the longest chain through the added cell would exceed u points.  Twin
    blocks, with the same ``block_ranks`` and rank, block the same cells and
    run one DP; a block of rank at least min(a, b) blocks none (see
    ``chains._rank_ladder``).  Bit i of ``n[j]`` says that set i has nw >= j
    at the position, of ``s[j]`` that it has se >= j (level 0: every set).
    """
    blocked = [0] * instance.size
    classes = {(instance.block_ranks[vid], d.u): (d.a, d.b)
               for vid, d in instance.vertex.items() if d.u < min(d.a, d.b)}
    for (ranks, u), (a, b) in classes.items():
        nw, se = _chain_levels(a, b, u, ranks, columns, every)
        for x, row in enumerate(ranks, start=1):
            for y, r in enumerate(row, start=1):
                n = [every] + [level[x - 1][y - 1] for level in nw]
                s = [every] + [level[x + 1][y + 1] for level in se]
                blocked[r] |= _at_least(n, s, u)
        del nw, se  # before the next class's tables are built
    return [every & ~held & ~bad for held, bad in zip(columns, blocked)]


def _restriction_columns(instance: Instance, masks: list[int], owners: bool = False):
    """Per chunk of at most ``_WIDTH`` facet masks, each cell's restriction columns.

    Yields ``(start, every, columns, below, above, owned)`` for the masks
    from ``start``: bit j of ``every`` for ``masks[start + j]``, the chunk's
    ``_columns``, and per cell c the facets F with c in R(F) in ascending
    order (``below``: F - c has an addable cell below c) and in descending
    order (``above``).  With ``owners``, ``owned`` holds per cell c three
    columns: the facets to whose ridge F - c the batch adds c back, and
    those whose ridge has exactly one and exactly two addable cells (by
    purity, its facets); else it is None.

    A cell's batch is the chunk's columns with the cell's column cleared,
    over the facets that hold the cell.  When a chunk has n facets,
    ``_WIDTH // n`` cells share one batch: the group's k-th cell has the
    block of bits k·n up, each column is the chunk's times ``rep`` (bit k·n
    for every k), and the k-th cell's column is cleared in its block alone.
    The masks must be the facets of ``instance``, all of them, for the
    restriction faces to be those of the list.
    """
    size = instance.size
    for start, chunk in _chunks(masks):
        columns, n = _columns(chunk, size), len(chunk)
        every = (1 << n) - 1
        outs = [[0] * size for _ in range(5 if owners else 2)]
        per = max(1, _WIDTH // n)
        for first in range(0, size, per):
            group = list(zip(range(0, per * n, n), range(first, min(first + per, size))))
            rep = sum(1 << i for i, _ in group)
            batch = [column * rep for column in columns]
            holders = 0
            for i, c in group:
                batch[c] ^= columns[c] << i
                holders |= columns[c] << i
            addable = _addable_columns(instance, batch, holders)
            # per cell c: the ORs of addable[:c] and of addable[c + 1:]
            sources = [list(accumulate(addable, or_, initial=0)),
                       list(accumulate(reversed(addable), or_, initial=0))[-2::-1]]
            if owners:
                sources += [addable, *([_exactly(addable, k, holders)] * size for k in (1, 2))]
            for i, c in group:
                for out, source in zip(outs, sources):
                    out[c] = source[c] >> i & every
        yield start, every, columns, outs[0], outs[1], outs[2:] or None
