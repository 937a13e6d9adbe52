"""End-to-end oracle suite: every fast route is replayed against a slow one.

Used by the ``verify`` CLI subcommand and by the acceptance tests.  Each
check pairs an optimized computation with an independent definition-level
recomputation; any mismatch is a bug, so the suite reports the first failure
with enough detail to reproduce it.

``enumerate_facets`` checks no facet; ``facet-cardinality`` holds each one to
the cardinality route and the cell-by-cell membership criterion.  The loops
that run thousands of times per instance sit on the package's kernels: the
criteria check reads every cell's statistics off one ``_chain_tables`` sweep
per block, and the reflection check's closures run on ``_blocked_ranks``
(both in ``chains``); the tests hold both to definition-level loops over
``corner_stats`` and ``can_extend``.  The codim-1 check holds the ridge
owners of ``complex._ridge_table`` to the kernel route ``codim1_membership``.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .chains import CellSet, _addable, _chain_tables, _corner_table, _occupancy, is_u_compatible
from .complex import (DEFAULT_MAX_CELLS, FaceTable, _face_counter, _FaceSearch, _ridge_table,
                      codim1_membership, verify_shelling)
from .cvm import c_max, c_min, initial_cvm, reflect, reflect_instance
from .errors import QuiverDetError
from .moves import DEFAULT_FACET_CAP, enumerate_facets
from .quiver import BipartiteQuiver, Instance, build_instance
from .series import ALL_ROUTES, CORNER_ROUTES, FOLD_ROUTES, hilbert_series


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


def criteria_agree(instance: Instance, cells) -> tuple[bool, bool, bool, bool]:
    """Evaluate the three facet criteria on an arbitrary cell set.

    Returns (cardinality route, raw-statistics route, padded-statistics
    route, all three agree).  The raw route asks that membership match
    "both raw chain-stat sums below the ranks" at every cell; the padded
    route asks the sums to sit in {rank - 1, rank} with membership exactly
    at the lower value on both sides.

    The cells are validated into a mask once, and each block's
    ``_chain_tables`` are built once; every route is read off those tables
    and the instance's ``chains._corner_table``.  All three routes are evaluated
    in full, whatever the first one says.
    """
    mask = instance.cell_mask(cells)
    tables = [_chain_tables(d.a, d.b, _occupancy(instance.block_ranks[vid], mask))
              for vid, d in instance.vertex.items()]
    # u-compatible: no block's longest chain, nw[a][b], is longer than its rank
    by_card = (mask.bit_count() == instance.n_cells
               and all(nw[-1][-1] <= d.u for (nw, _), d in zip(tables, instance.vertex.values())))

    by_raw = True
    by_padded = True
    for r, (tb, ti, tj, sb, si, sj, ut, us, tnw_pad, tse_pad, snw_pad, sse_pad) in enumerate(
            _corner_table(instance)):
        tnw, tse = tables[tb]
        snw, sse = tables[sb]
        nw, se = tnw[ti - 1][tj - 1], tse[ti + 1][tj + 1]
        nw_s, se_s = snw[si - 1][sj - 1], sse[si + 1][sj + 1]
        member = mask >> r & 1 == 1
        if member != (nw + se < ut and nw_s + se_s < us):
            by_raw = False
        tsum = (nw if nw > tnw_pad else tnw_pad) + (se if se > tse_pad else tse_pad)
        ssum = (nw_s if nw_s > snw_pad else snw_pad) + (se_s if se_s > sse_pad else sse_pad)
        if tsum not in (ut - 1, ut) or ssum not in (us - 1, us):
            by_padded = False
        elif member != (tsum == ut - 1 and ssum == us - 1):
            by_padded = False
    return by_card, by_raw, by_padded, by_card == by_raw == by_padded


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

    ok = True
    for _ in range(subset_trials):
        density = rng.random()
        cells = [c for c in instance.cells if rng.random() < density]
        if not criteria_agree(instance, cells)[3]:
            ok = False
            break
    record("criteria-equivalence", ok, f"{subset_trials} random subsets")

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

    shelling = verify_shelling(facets)
    record("shelling", shelling.ok, shelling.failure or "increasing order shells")

    ok, detail = _codim1_check(instance, facets)
    record("codim1-membership", ok, detail)

    return VerificationReport(instance, tuple(checks))


def _codim1_check(instance: Instance, facets) -> tuple[bool, str]:
    """Hold every ridge's owners in the facet list to ``codim1_membership``."""
    ridges = _ridge_table(facets)
    boundary = 0
    for sub, owners in ridges.items():
        direct = {facets[i].mask for i in owners}
        if not 1 <= len(direct) <= 2:
            return False, f"codim-1 face inside {len(direct)} facets"
        via_closure = {f.mask for f in codim1_membership(CellSet.from_mask(instance, sub))}
        if via_closure != direct:
            return False, "closure route misses a containing facet"
        boundary += len(direct) == 1
    if boundary == 0:
        return False, "no boundary codim-1 face found"
    return True, f"{len(ridges)} codim-1 faces, {boundary} on the boundary"
