"""End-to-end oracle suite: every fast route is replayed against a slow one.

Used by the ``verify`` CLI subcommand and by the acceptance tests.  Each
check pairs an optimized computation with an independent definition-level
recomputation; any mismatch is a bug, so the suite reports the first failure
with enough detail to reproduce it.

``enumerate_facets`` checks no facet; ``facet-cardinality`` holds each one to
the cardinality route and the cell-by-cell membership criterion.  The loops
that run thousands of times per instance sit on the package's kernels.  The
criteria check evaluates each distinct random subset once, block by block:
every route is a per-cell condition in the cell's target and source blocks,
so a block's share depends only on the subset restricted to it and is read
off one ``_chain_tables`` sweep of that restriction, one per pair of twin
blocks; blocks of at most 16 positions keep their shares in a memo for the
whole check.  The brute face
DFS, the reflection check's closures and ``codim1_membership`` run on the
kernel ladder ``_rank_ladder``, which calls ``_blocked_ranks`` only on
staircase blocks (all in ``chains``, as ``_chain_tables`` is); the tests
hold the criteria and the closures to definition-level loops over
``corner_stats`` and ``can_extend``.  The shelling check and the codim-1 check read one
``series._ridge_walk`` of the ascending facets, the walk behind the h-vector
folds; the codim-1 check holds each ridge's owners to ``codim1_membership``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from .chains import CellSet, _addable, _chain_tables, _occupancy, is_u_compatible
from .complex import (DEFAULT_MAX_CELLS, _face_counter, _FaceSearch, _shelling_report,
                      codim1_membership)
from .cvm import _path_layout, c_max, c_min, initial_cvm, reflect, reflect_instance
from .errors import QuiverDetError
from .moves import DEFAULT_FACET_CAP, enumerate_facets
from .quiver import BipartiteQuiver, Instance, build_instance
from .series import (ALL_ROUTES, CORNER_ROUTES, FOLD_ROUTES, FaceTable, _ridge_walk,
                     hilbert_series)


def brute_maximal_facet_masks(instance: Instance) -> list[int]:
    """All maximal admissible sets by exhaustive pruned search (no chute moves)."""
    return _brute_walk(instance, store_faces=False)[0]


def _brute_walk(instance: Instance, store_faces: bool) -> tuple[list[int], FaceTable]:
    """One walk of the face DFS: the sorted maximal sets and the face table.

    A set is maximal when nothing is addable, not when it is the largest: the
    purity of the complex is part of what the comparison with the facets checks.
    """
    count, table = _face_counter(instance.size, store_faces)
    out = []

    def visit(mask, addable):
        count(mask, addable)
        if addable == 0:
            out.append(mask)

    _FaceSearch(instance).run(visit)
    out.sort()
    return out, table()


def _membership_criterion_holds(cs: CellSet) -> bool:
    """Cell-by-cell check: P in C iff both raw chain-stat sums stay below the ranks."""
    inst = cs.instance
    tables = {vid: (cs.stats(vid).nw, cs.stats(vid).se, data.u) for vid, data in inst.vertex.items()}
    return _addable(inst.positions, tables, (1 << inst.size) - 1) == cs.mask


# Blocks this small keep their per-submask shares in the criteria memo; a bigger
# block's submasks almost never repeat, and keeping them costs memory.
_MEMO_MAX_POSITIONS = 16


@lru_cache(maxsize=128)
def _criteria_layout(instance: Instance) -> tuple[tuple, ...]:
    """Per block, in ``instance.vertex`` order, what ``_block_criteria`` reads.

    A row holds the block's rank mask, whether it is small enough to memoize,
    and the arguments ``(a, b, u, ranks, positions)`` of ``_block_criteria``;
    ``positions`` lists each position's row, column, rank bit and the block's
    two padding floors there, as ``cvm._path_layout`` reads them off
    ``chains._corner_table``.
    Cached per instance: callers must treat the result as read-only.
    """
    rows = []
    for vid, _, a, b, u, _, points, _ in _path_layout(instance):
        positions = tuple((x, y, 1 << r, nw_floor, se_floor)
                          for x, y, r, nw_floor, se_floor in points)
        rows.append((sum(p[2] for p in positions), len(positions) <= _MEMO_MAX_POSITIONS,
                     (a, b, u, instance.block_ranks[vid], positions)))
    return tuple(rows)


def _block_criteria(a: int, b: int, u: int, ranks, positions,
                    sub: int, tables: dict) -> tuple[bool, int, int, int]:
    """One block's share of the three criteria, for the set ``sub`` restricted to the block.

    Returns whether the block is u-compatible (its longest chain, nw[a][b], is
    at most u) and three rank masks of its positions: raw sum nw + se at least
    u; padded sum outside {u - 1, u}; padded sum other than u - 1.  ``tables``
    keeps the chain tables built for ``sub``, keyed by ``ranks``: twin blocks
    (the same ``block_ranks``) share them, and only their floors differ.
    """
    nw_se = tables.get(ranks)
    if nw_se is None:
        nw_se = tables[ranks] = _chain_tables(a, b, _occupancy(ranks, sub))
    nw, se = nw_se
    raw_bad = invalid = not_low = 0
    low = u - 1
    for x, y, bit, nw_floor, se_floor in positions:
        n, s = nw[x - 1][y - 1], se[x + 1][y + 1]
        if n + s >= u:
            raw_bad |= bit
        padded = (n if n > nw_floor else nw_floor) + (s if s > se_floor else se_floor)
        if padded != low:
            not_low |= bit
            if padded != u:
                invalid |= bit
    return nw[a][b] <= u, raw_bad, invalid, not_low


def _criteria_kernel(instance: Instance, mask: int, memo: dict) -> tuple[bool, bool, bool, bool]:
    """``criteria_agree`` on a validated rank mask, block by block.

    Each route is a condition on every cell in its target block and in its
    source block, so each block's share depends only on ``mask`` restricted
    to the block.  ``memo`` keeps the shares of small blocks, keyed by block
    index and submask; it must belong to this instance.
    """
    compatible = True
    raw_bad = invalid = not_low = 0
    tables: dict = {}
    for n, (block_mask, small, args) in enumerate(_criteria_layout(instance)):
        sub = mask & block_mask
        if small:
            share = memo.get((n, sub))
            if share is None:
                share = memo[n, sub] = _block_criteria(*args, sub, tables)
        else:
            share = _block_criteria(*args, sub, tables)
        compatible &= share[0]
        raw_bad |= share[1]
        invalid |= share[2]
        not_low |= share[3]
    full = (1 << instance.size) - 1
    by_card = mask.bit_count() == instance.n_cells and compatible
    # membership must be "both raw sums below the ranks" at every cell ...
    by_raw = mask == full & ~raw_bad
    # ... and, padded, both sums in {rank - 1, rank} with membership exactly at the lower value
    by_padded = invalid == 0 and mask == full & ~not_low
    return by_card, by_raw, by_padded, by_card == by_raw == by_padded


def criteria_agree(instance: Instance, cells) -> tuple[bool, bool, bool, bool]:
    """Evaluate the three facet criteria on an arbitrary cell set.

    Returns (cardinality route, raw-statistics route, padded-statistics
    route, all three agree).  The raw route asks that membership match
    "both raw chain-stat sums below the ranks" at every cell; the padded
    route asks the sums to sit in {rank - 1, rank} with membership exactly
    at the lower value on both sides.

    The cells are validated into a mask once.  Each block's ``_chain_tables``
    are built once, on the set restricted to the block, and every route's
    share of the block is read off them and the block's padding floors;
    ``verify_instance`` runs the same kernel with
    one memo of small blocks' shares for all its trials.  All three routes
    are evaluated in full, whatever the first one says.
    """
    return _criteria_kernel(instance, instance.cell_mask(cells), {})


def random_instance(rng: random.Random, max_cells: int = 16) -> Instance:
    """A random normalized instance within the verification envelope.

    At most 2 targets, 3 sources and 4 arrows, dimensions at most 3, ranks
    uniform within the normalized bounds; instances with more than
    ``max_cells`` cells are rejected and redrawn.
    """
    while True:
        targets = [f"t{i}" for i in range(1, rng.randint(1, 2) + 1)]
        sources = [f"s{i}" for i in range(1, rng.randint(1, 3) + 1)]
        arrows = tuple((rng.choice(sources), rng.choice(targets))
                       for _ in range(rng.randint(1, 4)))
        used = {v for a in arrows for v in a}
        sources = [s for s in sources if s in used]
        targets = [t for t in targets if t in used]
        quiver = BipartiteQuiver(tuple(sources), tuple(targets), arrows)
        m = {v: rng.randint(1, 3) for v in quiver.vertices}
        u = {}
        for t in targets:
            b = sum(m[s] for s, tt in arrows if tt == t)
            u[t] = rng.randint(1, min(m[t], b))
        for s in sources:
            a = sum(m[t] for ss, t in arrows if ss == s)
            u[s] = rng.randint(1, min(a, m[s]))
        try:
            inst = build_instance(quiver, m, u, mode="normalize")
        except QuiverDetError:
            continue
        if inst.size <= max_cells:
            return inst


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    instance: Instance
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.ok), None)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok,
                "instance": self.instance.to_json_obj(),
                "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                           for c in self.checks]}


def verify_instance(instance: Instance, subset_trials: int = 1000,
                    seed: int | None = None, max_cells: int = DEFAULT_MAX_CELLS,
                    facet_cap: int = DEFAULT_FACET_CAP) -> VerificationReport:
    """Run the full oracle suite on one instance."""
    rng = random.Random(seed)
    checks: list[CheckResult] = []

    def record(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))
        return ok

    facets = enumerate_facets(instance, facet_cap=facet_cap)
    n_top = instance.n_cells

    init = initial_cvm(instance)
    record("initial-closed-form", init == c_max(CellSet(instance)),
           "closed form vs greedy closure of the empty set")

    face_table = None
    if instance.size <= max_cells:
        # the same walk feeds the series oracle's f-vector and interior routes
        brute, face_table = _brute_walk(instance, store_faces=True)
        record("facet-closure-vs-brute",
               brute == [f.mask for f in facets],
               f"{len(facets)} facets from moves vs {len(brute)} maximal admissible sets")
    else:
        record("facet-closure-vs-brute", True, "skipped: |L| over the brute guard")

    bad_card = [f for f in facets if len(f) != n_top or not is_u_compatible(f)
                or not _membership_criterion_holds(f)]
    record("facet-cardinality", not bad_card, f"all facets admissible with {n_top} cells")

    record("criteria-equivalence", *_criteria_check(instance, rng, subset_trials, facets))

    refl_inst, refl_map = reflect_instance(instance)
    ok = True
    for _ in range(8):
        probe = None
        for _attempt in range(32):
            pick = [c for c in instance.cells if rng.random() < 0.4]
            cand = CellSet(instance, pick)
            if is_u_compatible(cand):
                probe = cand
                break
        if probe is None:
            probe = CellSet(instance)
        double_inst, double_set = reflect(reflect(probe)[1])
        if double_inst != instance or tuple(double_set.cells) != tuple(probe.cells):
            ok = False
            break
        image = CellSet(refl_inst, (refl_map[c] for c in probe.cells))
        # the cell map is an involution on coordinates, so reflecting the
        # closure once more lands back in original coordinates
        back_map = reflect_instance(refl_inst)[1]
        back = {tuple(back_map[c]) for c in c_max(image).cells}
        if {tuple(c) for c in c_min(probe).cells} != back:
            ok = False
            break
    record("reflection-duality", ok, "involution and min/max exchange on random seeds")

    if bad_card:  # the checks below read the road maps and ridges of facets
        for name in ("series-routes", "shelling", "codim1-membership"):
            record(name, False, "skipped: an enumerated set is not a facet")
        return VerificationReport(instance, tuple(checks))

    try:
        # past the brute guard the folds are still held to both corner routes
        routes = ALL_ROUTES if instance.size <= max_cells else CORNER_ROUTES | FOLD_ROUTES
        series = hilbert_series(instance, facets=facets, face_table=face_table, routes=routes,
                                max_cells_guard=max_cells)
        record("series-routes", True,
               f"h = {list(series.numerator)}, multiplicity {series.multiplicity}")
    except QuiverDetError as exc:
        record("series-routes", False, str(exc))

    # One walk for both checks.  The codim-1 check runs first: run after the
    # shelling check, it raised the peak RSS of `verify` on star-example by
    # about 0.1 MB.
    walk = _ridge_walk([f.mask for f in facets])
    codim1 = _codim1_check(instance, facets, walk)
    shelling = _shelling_report(facets, "SE", walk)
    record("shelling", shelling.ok, shelling.failure or "increasing order shells")
    record("codim1-membership", *codim1)

    return VerificationReport(instance, tuple(checks))


def _criteria_check(instance: Instance, rng: random.Random, trials: int,
                    facets) -> tuple[bool, str]:
    """Hold the three facet criteria to each other on random subsets, then on every facet.

    Each trial draws a density, then each cell in rank order with that
    probability; such draws almost never hit a facet of a larger instance.
    A subset met before is not evaluated again, and small blocks share one
    memo across the check.
    """
    bits = [1 << r for r in range(instance.size)]
    seen, memo = set(), {}

    def subsets():
        draw = rng.random
        for trial in range(1, trials + 1):
            density = draw()
            mask = 0
            for bit in bits:
                if draw() < density:
                    mask |= bit
            yield f"subset {trial} of {trials}", mask
        for n, facet in enumerate(facets, start=1):
            yield f"facet {n} of {len(facets)}", facet.mask

    for name, mask in subsets():
        if mask in seen:
            continue
        seen.add(mask)
        routes = _criteria_kernel(instance, mask, memo)
        if not routes[3]:
            cells = [list(c) for c, bit in zip(instance.cells, bits) if mask & bit]
            return False, (f"{name}, cells {cells}: routes "
                           f"(cardinality, raw, padded, agree) = {routes}")
    return True, f"{trials} random subsets, then all facets ({len(facets)})"


def _codim1_check(instance: Instance, facets, walk) -> tuple[bool, str]:
    """Hold every ridge's owners in the facet list to ``codim1_membership``.

    Each ridge F - c is evaluated once, at its first owner F, where c lies
    outside F's restriction face.  Its owners by the closure route must be
    one or two, F among them and all of them listed, and one iff the walk
    leaves the ridge open: on facets, the owner sets of list and closure agree.
    ``walk`` is ``series._ridge_walk`` of the facets' masks.
    """
    masks = [f.mask for f in facets]
    listed = set(masks)
    restrictions, open_ridges = walk
    ridges = 0
    for mask, restriction in zip(masks, restrictions):
        rest = mask & ~restriction
        while rest:
            low = rest & -rest
            rest ^= low
            ridge = mask ^ low
            owners = [f.mask for f in codim1_membership(CellSet.from_mask(instance, ridge))]
            if not 1 <= len(owners) <= 2:
                return False, f"codim-1 face inside {len(owners)} facets"
            if (mask not in owners or not listed.issuperset(owners)
                    or (len(owners) == 1) != (ridge in open_ridges)):
                return False, "closure route misses a containing facet"
            ridges += 1
    if not open_ridges:
        return False, "no boundary codim-1 face found"
    return True, f"{ridges} codim-1 faces, {len(open_ridges)} on the boundary"
