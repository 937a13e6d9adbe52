"""Face enumeration and structural checks for the complex of admissible sets.

Admissible sets form a hereditary family, so a depth-first scan that only
ever extends by cells keeping the set admissible visits every face exactly
once.  ``_brute_walk`` is the one face table on that scan: the face counts,
the interior counts against the boundary generators it is given, the
maximal sets, and the faces only when asked.  ``f_vector``, ``verify``'s
brute check and ``hilbert_series``'s ``f_transform`` and ``interior``
routes read it; only the bounded purity spot-checks of ``definitions``
run the scan with a visitor of their own.  Adding a cell changes only its
target and source blocks, so a node adds its cell with ``chains._add``, the
ladder's one growth step, to a copy of its parent's levels, which it passes
down, and drops what the cell blocks from its parent's addable mask; blocks
that can never block cost nothing.  No node builds chain tables, tests cells
one by one or undoes anything.

Each codim-1 face (ridge) F - c lies in one or two facets; ``_ridge_walk``
pairs them along any facet list, as an oracle: the boundary generators, the
folds, ``verify_shelling`` and ``verify``'s checks read it.  The shelling
check ``_shelling_report`` takes the facet masks with their restriction
faces and corner counts: ``verify_shelling`` walks its order, and the
``shelling`` command reads both orders' faces off ``bitslice``'s batches.
``interior_faces`` and the check read the facets containing a set off
per-cell owner bitsets, the masks' transposed columns (``bitslice._columns``,
read by ``_containing``); ``_brute_walk`` ANDs the same bitsets along the
DFS, so it counts interior faces without storing any.

The CLI reads h off ``series``'s local routes and the face counts off h
(``series.face_counts``).  This module holds their oracles: the face table
of ``_brute_walk``, whose transforms ``_h_from_f`` and ``_h_from_interior``
are here, with ``interior_faces`` as its check on stored faces; the folds of
the walk (``_ridge_fold``); and the corner routes' tally
(``_corner_routes``).  ``oracle_routes`` runs them for ``hilbert_series``,
which loads both modules only when one of them runs.
"""

from __future__ import annotations

from itertools import compress
from math import comb
from typing import NamedTuple

from .bitslice import _columns
from .chains import CellSet, _add, _cell_set, _load_blocks, _rank_ladder
from .cvm import _corner_counts
from .errors import DEFAULT_MAX_CELLS, GuardExceeded, ValidationError
from .quiver import Instance, _instance, _is_int, _listed
from .series import NW_CORNERS, SE_CORNERS, FaceTable, _trim


class _FaceSearch:
    """Depth-first enumeration of admissible sets ``base ∪ X``.

    The visitor receives, for every admissible X over the universe cells,
    the X bitmask and the bitmask of all cells of L (not only the universe)
    that could still be added.  ``levels`` holds ``base``'s chain levels as
    loaded by ``chains._load_blocks``; each node passes its own levels down
    and never changes them after that, so ``run`` leaves them as they were.
    """

    def __init__(self, instance: Instance, base=()):
        self.instance = instance
        self.base_mask = instance.cell_mask(base)
        self.levels, self.blocked = _load_blocks(instance, self.base_mask)
        if self.blocked & self.base_mask:
            raise ValidationError("base set is not u-compatible")

    def run(self, visit, universe_mask: int | None = None):
        full = (1 << self.instance.size) - 1
        if universe_mask is None:
            universe_mask = full & ~self.base_mask
        base_mask = self.base_mask
        rungs = _rank_ladder(self.instance)[1]

        # Admissibility is hereditary and blocked sets only grow: so a child
        # adds its cell to a copy of its parent's levels and drops what the
        # cell blocks from its parent's addable mask.

        def rec(x_mask: int, min_rank: int, addable: int, levels: list[int]):
            visit(x_mask, addable)
            cand = addable & universe_mask & ~((1 << min_rank) - 1)
            held = x_mask | base_mask
            while cand:
                low = cand & -cand
                cand ^= low
                r = low.bit_length() - 1
                child = levels.copy()
                blocked = _add(child, rungs[r], held | low, r) | low
                rec(x_mask | low, r + 1, addable & ~blocked, child)

        rec(0, 0, full & ~base_mask & ~self.blocked, self.levels)


def _check_guard(instance: Instance, max_cells_guard: int) -> None:
    _instance(instance)
    if not _is_int(max_cells_guard) or max_cells_guard < 0:
        raise ValidationError(f"cell guard must be an int >= 0, not {max_cells_guard!r}")
    if instance.size > max_cells_guard:
        raise GuardExceeded(f"|L| = {instance.size} exceeds guard {max_cells_guard}")


def _brute_walk(instance: Instance, gens: list[int] | None = None,
                store_faces: bool = False) -> tuple[list[int], FaceTable]:
    """One walk of the face DFS: the sorted maximal sets and the face table.

    The table counts the faces by cardinality and, given the boundary
    generator masks ``gens``, the interior ones, inside none of them; it
    stores the faces only with ``store_faces``.  The DFS visits a face after
    the face without its highest cell, so ``inside[n]``, the generators
    containing the current face of n cells, is ``inside[n - 1]`` ANDed with
    that cell's owners (see ``_containing``).  A set is maximal when nothing
    is addable, not when it is the largest: the purity of the complex is
    part of what ``verify``'s comparison with the facets checks.
    """
    _instance(instance)
    generators = gens or []
    owners = _columns(generators, instance.size)
    counts, interior = [0] * (instance.size + 1), [0] * (instance.size + 1)
    inside = [(1 << len(generators)) - 1] * (instance.size + 1)
    stored: list[list[int]] | None = [[] for _ in counts] if store_faces else None
    out = []

    def visit(mask, addable):
        n = mask.bit_count()
        counts[n] += 1
        if n:
            inside[n] = inside[n - 1] & owners[mask.bit_length() - 1]
        interior[n] += not inside[n]
        if stored is not None:
            stored[n].append(mask)
        if addable == 0:
            out.append(mask)

    _FaceSearch(instance).run(visit)
    out.sort()
    top = max(n for n, c in enumerate(counts) if c)
    faces = None if stored is None else tuple(map(tuple, stored[:top + 1]))
    if gens is None:
        return out, FaceTable(tuple(counts[:top + 1]), faces)
    return out, FaceTable(tuple(counts[:top + 1]), faces, tuple(interior[:top + 1]), len(gens))


def f_vector(instance: Instance, max_cells_guard: int = DEFAULT_MAX_CELLS,
             store_faces: bool = False) -> FaceTable:
    """Count admissible sets by cardinality by pruned depth-first backtracking.

    The oracle route, off ``_brute_walk``, the face table that ``verify``'s
    brute check and ``hilbert_series``'s ``f_transform`` and ``interior``
    routes read too; ``series.face_counts`` reads the same counts off the
    h-vector.
    """
    _check_guard(instance, max_cells_guard)
    return _brute_walk(instance, store_faces=store_faces)[1]


def codim1_membership(sub: CellSet) -> list[CellSet]:
    """The one or two facets containing an admissible set of cardinality N - 1, ascending.

    By purity they are the set plus each of its addable cells, read off one block load.
    """
    inst = _cell_set(sub).instance
    if len(sub) != inst.n_cells - 1:
        raise ValidationError(f"expected cardinality {inst.n_cells - 1}, got {len(sub)}")
    _, blocked = _load_blocks(inst, sub.mask)
    if blocked & sub.mask:
        raise ValidationError("set is not u-compatible")
    addable = ~sub.mask & ~blocked
    return [CellSet.from_mask(inst, sub.mask | 1 << r) for r in range(inst.size) if addable >> r & 1]


def _containing(owners: list[int], mask: int, among: int) -> int:
    """The bitset of the masks in ``among`` that contain ``mask``: the AND of its cells' owners."""
    while mask and among:
        low = mask & -mask
        mask ^= low
        among &= owners[low.bit_length() - 1]
    return among


def _ridge_walk(masks) -> tuple[list[int], dict[int, int], list[int]]:
    """Each mask's restriction mask in the order given, the open ridges, and its later closes.

    Walking the masks, F closes each open ridge F - c (a ridge lies in at
    most two facets) and opens the others.  The closing cells form F's
    restriction face R(F), the cells whose ridge lies in an earlier facet
    (Björner–Wachs, Trans. AMS 348, 1996); the ridges left open are those
    in exactly one facet, the boundary generators, keyed to their facet's
    index.  A close also credits the facet that opened the ridge: ``later[j]``
    counts mask j's ridges in a later mask, its restriction size along the
    reversed order, unless a ridge lies in three or more masks (the walk
    pairs them in list order); ``verify``'s codim-1 check holds every ridge
    of a facet list to one or two owners.  A facet's cells are the cell bits
    that ``compress`` picks by its mask's binary digits, lowest first, so
    ``masks`` must be a sequence of nonnegative ints.
    """
    opener: dict[int, int] = {}
    restrictions, later = [], []
    cells = [1 << r for r in range(max(masks, default=0).bit_length())]
    digits = bytes.maketrans(b"01", b"\0\1")
    for j, mask in enumerate(masks):
        restriction = 0
        later.append(0)
        for low in compress(cells, f"{mask:b}"[::-1].encode().translate(digits)):
            ridge = mask ^ low
            i = opener.pop(ridge, None)
            if i is None:
                opener[ridge] = j
            else:
                restriction |= low
                later[i] += 1
        restrictions.append(restriction)
    return restrictions, opener, later


def _ridge_fold(walk) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """h along the walk's order and along its reverse, and the number of open ridges.

    h counts the facets by their restriction sizes.  One ``_ridge_walk``
    gives both orders: a facet's restriction along the reversed order is
    its ridges that lie in a later facet.
    """
    restrictions, open_ridges, later = walk
    sizes = [r.bit_count() for r in restrictions], later
    return *(tuple(map(s.count, range(max(s, default=0) + 1))) for s in sizes), len(open_ridges)


def boundary_generator_masks(facets) -> list[int]:
    """The codim-1 faces of the facets that lie in exactly one of them, as ascending bitmasks."""
    return sorted(_ridge_walk(_masks_of(facets)[0])[1])


def interior_faces(instance: Instance, table: FaceTable, facets) -> FaceTable:
    """Mark interior faces: those not inside any boundary codim-1 face.

    The complex is a shellable ball, so its boundary is generated by the
    codim-1 faces contained in exactly one facet; a face is interior exactly
    when it is a subset of none of them, as ``_containing`` reads off the
    generators' owner bitsets.  A check on ``f_vector``'s stored faces:
    ``_brute_walk`` counts the interior faces as it goes, for ``verify`` and
    ``hilbert_series``'s ``interior`` route, and the tests hold the two to
    each other, while ``series.face_counts`` reads the interior counts off
    h reversed.  The facets must be cell sets of ``instance``.
    """
    _instance(instance)
    if not isinstance(table, FaceTable) or table.faces_by_size is None:
        raise ValidationError("interior faces need f_vector(store_faces=True)")
    gens = sorted(_ridge_walk(_masks_of(facets, instance)[0])[1])
    owners = _columns(gens, instance.size)
    everything = (1 << len(gens)) - 1
    interior = [sum(not _containing(owners, m, everything) for m in masks)
                for masks in table.faces_by_size]
    return table._replace(interior_by_size=tuple(interior), boundary_generators=len(gens))


class ShellingReport(NamedTuple):
    ok: bool
    restriction_counts: tuple[int, ...]
    failure: str | None = None

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "restriction_counts": list(self.restriction_counts),
                "failure": self.failure}


def _masks_of(facets, instance: Instance | None = None) -> tuple[list[int], Instance | None]:
    """The masks of the cell sets ``facets``, all of ``instance`` (default: the first set's)."""
    sets = [_cell_set(f) for f in _listed(facets, "facets")]
    instance = sets[0].instance if instance is None and sets else instance
    if any(cs.instance != instance for cs in sets):
        raise ValidationError("facets must be cell sets of one instance, the one given if any")
    return [cs.mask for cs in sets], instance


def verify_shelling(facets_in_order, corner_kind: str = "SE") -> ShellingReport:
    """Check that the given facet order is a shelling and matches the corner counts.

    Restriction-face form (Björner–Wachs, Trans. AMS 348, 1996): R_j holds the
    cells c of F_j whose ridge F_j - c lies in an earlier facet, read off
    ``_ridge_walk``, and the order shells iff no earlier facet
    contains R_j, as G ∩ F_j ⊆ F_j - c iff c ∉ G.  |R_j| must equal the
    facet's essential corner count (zero for the first facet).  The
    ascending order pairs with SE corners; the descending order is the
    reflected picture and pairs with NW corners.  The facets, in any
    iterable, must be cell sets of one instance.
    """
    if corner_kind not in ("SE", "NW"):
        raise ValidationError(f"corner kind must be SE or NW, got {corner_kind!r}")
    masks, instance = _masks_of(facets_in_order)
    if not masks:
        return ShellingReport(True, ())
    counts = (pair[corner_kind == "SE"] for pair in _corner_counts(instance, masks))
    return _shelling_report(instance, masks, corner_kind, _ridge_walk(masks)[0], counts)


def _shelling_report(instance: Instance, masks: list[int], corner_kind: str,
                     restrictions: list[int], counts) -> ShellingReport:
    """``verify_shelling`` on nonempty masks, given each one's R_j and corner count.

    ``restrictions[j]`` is the restriction mask of ``masks[j]`` in this order
    and ``counts`` yields the essential ``corner_kind`` corner counts, pulled
    one per facet that reaches the comparison: a set of the wrong cardinality
    fails before a lazy corner batch can reject it.
    """
    r_seq: list[int] = []
    n_top = masks[0].bit_count()
    owners = _columns(masks, instance.size)
    counts = iter(counts)
    for j, (mask, restriction) in enumerate(zip(masks, restrictions)):
        if mask.bit_count() != n_top:
            return ShellingReport(False, tuple(r_seq), f"facet {j + 1} has wrong cardinality")
        if _containing(owners, restriction, (1 << j) - 1):
            return ShellingReport(
                False, tuple(r_seq),
                f"facet {j + 1}: an earlier intersection is not inside a shared codim-1 face")
        rj = restriction.bit_count()
        r_seq.append(rj)
        expected = next(counts)
        if rj != expected:
            return ShellingReport(
                False, tuple(r_seq),
                f"facet {j + 1}: restriction count {rj} != "
                f"essential {corner_kind} corners {expected}")
    return ShellingReport(True, tuple(r_seq))


# -- h-vectors of the oracle routes ------------------------------------------------


def _h_from_f(table: FaceTable, n_top: int) -> tuple[int, ...]:
    """h(t) = sum_k f_{k-1} t^k (1 - t)^(N - k), off the face counts by cardinality k."""
    acc = [0] * (n_top + 1)
    for size, count in enumerate(table.counts_by_size):
        for i in range(n_top - size + 1):
            acc[size + i] += (-1) ** i * comb(n_top - size, i) * count
    return _trim(acc)


def _h_from_interior(table: FaceTable, n_top: int) -> tuple[int, ...]:
    """h off the interior faces: ``_h_from_f`` of their counts, reversed to degree N."""
    if table.interior_by_size is None:
        raise ValidationError("interior counts not computed")
    h = _h_from_f(FaceTable(table.interior_by_size), n_top)
    return _trim([*h, *[0] * (n_top + 1 - len(h))][::-1])


def _corner_routes(instance: Instance,
                   masks: list[int]) -> tuple[dict[str, tuple[int, ...]], list[int]]:
    """The corner routes' numerators, and each facet's essential SE count, from one corner pass.

    h_i counts the facets with i essential corners, off their masks; ``verify``'s
    shelling check reads the SE counts.
    """
    nw, se = zip(*_corner_counts(instance, masks))
    return {route: _trim(list(map(counts.count, range(instance.n_cells + 1))))
            for route, counts in ((NW_CORNERS, nw), (SE_CORNERS, se))}, list(se)
