"""End-to-end oracle suite: every fast route is replayed against a slow one.

Used by the ``verify`` CLI subcommand and by the acceptance tests.  Each
check pairs an optimized computation with an independent definition-level
recomputation; any mismatch is a bug, so the suite reports the first failure
with enough detail to reproduce it.

``verify`` reads the facets as the masks of ``moves._facet_masks``, which
checks none of them, and builds no ``CellSet`` for a facet: only the
reflection probes and the criteria check's failure detail build cell sets.
The criteria check evaluates all its random subsets and every facet in one
bit-sliced batch: bit i of a cell's int says whether subset i holds it.  It
reads each block's padded chain levels and blocked bits off
``cvm._block_levels``, which runs one chain DP per class of twin blocks
(``bitslice._chain_levels``); its facet bits are ``facet-cardinality``.
The corner routes and the shelling check read the facets' essential corners
off ``complex._corner_routes``, the one corner pass, which
``complex._oracle_numerators`` runs for ``hilbert_series`` too and which
reads the same levels on the facets alone.
The tests hold all three criteria to one ``definitions.corner_stats`` call
per cell, which reads the independent DP ``definitions._chain_tables``.
The brute face DFS and the closures run on the chain levels of
``chains._rank_ladder``.  Each reflection probe is ``c_min`` of the empty
set within a random draw of cells (``cvm._greedy_close``): it takes the
drawn cells in rank order, skipping each one it already blocks, so it is
admissible and holds the first drawn cell; ``cvm.reflect`` of its image
gives it back, and of the image's ``c_max`` gives its ``c_min``.
The brute check reads the face table of ``complex._brute_walk``, as
``f_vector`` and the oracle routes do, with its interior counts taken
against the boundary generators; it stores no face.
It runs within two guards: |L| at most ``max_cells``, checked first, and at
most ``facet_cap`` faces, the total of the f-vector read off the ascending
local h-vector (``series._f_from_h``, as ``series.face_counts`` reads it).
One ``complex._ridge_walk`` of the ascending masks serves
every check that pairs ridges with facets: its open ridges are the brute
walk's boundary generators, both fold h-vectors come off it
(``complex._ridge_fold``), and the shelling and codim-1 checks read its
restriction faces.  One pass of per-cell addable batches
(``bitslice._restriction_columns``), run before the brute walk, gives every
facet's restriction faces locally, in both orders, and every ridge's
addable cells: one ``_local_h`` of it feeds the brute walk's face guard and
the local routes, and the codim-1 check reads the batches.  The series check
holds the local routes, which ``hilbert_series`` runs by default, to the
folds, the corner routes and, within the brute guard, the transforms of the
brute walk's face table, with the comparison ``hilbert_series`` ends with
(``series._agreed``); it assembles the routes itself, not through
``hilbert_series``, as its walk and face table serve its other checks.
The codim-1 check holds each ridge's addable cells, which the tests hold
to ``complex.codim1_membership``, to its owners along the walk, and the
local restriction faces to the walk's.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import and_, or_
from typing import NamedTuple

from .bitslice import _addable_columns, _at_least, _columns, _exactly, _restriction_columns
from .chains import CellSet
from .complex import (DEFAULT_MAX_CELLS, _brute_walk, _corner_routes, _h_from_f, _h_from_interior,
                      _ridge_fold, _ridge_walk, _shelling_report)
from .cvm import _block_levels, _greedy_close, c_max, c_min, initial_cvm, reflect
from .errors import QuiverDetError, ValidationError
from .moves import DEFAULT_FACET_CAP, _facet_masks
from .quiver import BipartiteQuiver, Instance, _instance, _is_int, build_instance
from .series import (ASCENDING_FOLD, ASCENDING_LOCAL, DESCENDING_FOLD, F_TRANSFORM, INTERIOR,
                     _agreed, _f_from_h, _local_h)


def brute_maximal_facet_masks(instance: Instance) -> list[int]:
    """All maximal admissible sets by exhaustive pruned search (no chute moves)."""
    return _brute_walk(instance)[0]


def _criteria_kernel(instance: Instance, columns: list[int], every: int) -> tuple[int, int, int]:
    """The three facet criteria on a batch of subsets at once.

    ``columns[r]`` has bit i set when subset i holds the cell of rank r, and
    ``every`` has a bit for each subset.  Returns the cardinality, raw and
    padded routes as ints whose bit i is the route's verdict on subset i.
    Each route is a condition on every cell in its target block and in its
    source block, and a condition on a cell's statistics is one on the
    levels they reach: with level 0 meaning every subset, nw + se >= k holds
    exactly in the OR over j <= k of (nw >= j) & (se >= k - j), and a padded
    statistic is at least every level up to its padding floor, which
    ``cvm._block_levels`` puts in.  A subset has a chain of u + 1 points
    exactly when one of its cells is blocked.
    """
    invalid = 0
    raw_bad = [0] * instance.size
    not_low = [0] * instance.size
    for (*_, u, _, points, _), levels in _block_levels(instance, columns, every):
        for (_, _, r, *_), (n, s, blocked) in zip(points, levels):
            raw_bad[r] |= blocked
            outside_low = every ^ _at_least(n, s, u - 1)
            not_low[r] |= outside_low | _at_least(n, s, u)
            invalid |= outside_low | _at_least(n, s, u + 1)
    incompatible = reduce(or_, map(and_, columns, raw_bad), 0)
    by_card = _exactly(columns, instance.n_cells, every) & ~incompatible
    # membership must be "both raw sums below the ranks" at every cell ...
    by_raw = every
    # ... and, padded, both sums in {rank - 1, rank} with membership exactly at the lower value
    by_padded = every & ~invalid
    for held, bad, off in zip(columns, raw_bad, not_low):
        by_raw &= held ^ bad
        by_padded &= held ^ off
    return by_card, by_raw, by_padded


def criteria_agree(instance: Instance, cells) -> tuple[bool, bool, bool, bool]:
    """Evaluate the three facet criteria on an arbitrary cell set.

    Returns (cardinality route, raw-statistics route, padded-statistics
    route, all three agree).  The raw route asks that membership match
    "both raw chain-stat sums below the ranks" at every cell; the padded
    route asks the sums to sit in {rank - 1, rank} with membership exactly
    at the lower value on both sides.

    The cells are validated into a mask, and ``_criteria_kernel`` evaluates
    it as a batch of one: ``verify_instance`` runs the same kernel on all
    its subsets at once.  All three routes are evaluated in full, whatever
    the first one says.
    """
    columns = _columns([_instance(instance).cell_mask(cells)], instance.size)
    by_card, by_raw, by_padded = _criteria_kernel(instance, columns, 1)
    return by_card == 1, by_raw == 1, by_padded == 1, by_card == by_raw == by_padded


def random_instance(rng: random.Random, max_cells: int = 16) -> Instance:
    """A random normalized instance within the verification envelope.

    At most 2 targets, 3 sources and 4 arrows, dimensions at most 3, ranks
    uniform within the normalized bounds; instances with more than
    ``max_cells`` (at least 1) cells are rejected and redrawn.
    """
    if not isinstance(rng, random.Random):
        raise ValidationError(f"rng must be a random.Random, not {type(rng).__name__}")
    if not _is_int(max_cells) or max_cells < 1:
        raise ValidationError(f"max_cells must be an int >= 1, not {max_cells!r}")
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
    """Run the full oracle suite on one instance.

    ``facet_cap`` bounds the facets enumerated and the faces of the brute
    face DFS, which also needs |L| at most ``max_cells``.
    """
    if not _is_int(subset_trials) or subset_trials < 0:
        raise ValidationError(f"subset_trials must be an int >= 0, not {subset_trials!r}")
    if not _is_int(max_cells) or max_cells < 0:  # 0: the brute face DFS never runs
        raise ValidationError(f"max_cells must be an int >= 0, not {max_cells!r}")
    try:
        rng = random.Random(seed)
    except TypeError as exc:  # random rejects the seed's type
        raise ValidationError(f"seed must be None, a number, a str or bytes, not {seed!r}") from exc
    checks: list[CheckResult] = []

    def record(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))
        return ok

    masks = _facet_masks(instance, facet_cap)
    n_top = instance.n_cells
    # the one walk of the ascending facets: the boundary generators, both
    # folds, the shelling check and the codim-1 check read it
    walk = _ridge_walk(masks)

    init = initial_cvm(instance)
    record("initial-closed-form", init == c_max(CellSet(instance)),
           "closed form vs greedy closure of the empty set")

    # One pass of per-cell addable batches feeds the brute guard, the local
    # routes and the codim-1 check.
    chunks = list(_restriction_columns(instance, masks, owners=True))
    local_h = _local_h(chunks)
    faces = sum(_f_from_h(local_h[ASCENDING_LOCAL], n_top))
    face_table = None
    if instance.size > max_cells:
        record("facet-closure-vs-brute", True, "skipped: |L| over the brute guard")
    elif faces > facet_cap:
        record("facet-closure-vs-brute", True, f"skipped: {faces} faces over the facet cap")
    else:
        # the brute walk's face table feeds the f-vector and interior routes
        brute, face_table = _brute_walk(instance, list(walk[1]))
        record("facet-closure-vs-brute", brute == masks,
               f"{len(masks)} facets from moves vs {len(brute)} maximal admissible sets")

    # one criteria batch: its facet bits are the facet-cardinality check
    criteria, admitted = _criteria_batch(instance, rng, subset_trials, masks)
    all_admitted = admitted == (1 << len(masks)) - 1
    record("facet-cardinality", all_admitted, f"all facets admissible with {n_top} cells")
    record("criteria-equivalence", *criteria)

    ok = True
    for _ in range(8):
        # each drawn cell in rank order joins the probe unless the probe blocks it
        drawn = sum(1 << r for r in range(instance.size) if rng.random() < 0.4)
        probe = _greedy_close(CellSet(instance), False, drawn)
        image = reflect(probe)[1]
        # reflecting twice is the identity, and it swaps the two closures
        if reflect(image) != (instance, probe) or reflect(c_max(image))[1] != c_min(probe):
            ok = False
            break
    record("reflection-duality", ok, "involution and min/max exchange on random seeds")

    if not all_admitted:  # the checks below read the road maps and ridges of facets
        for name in ("series-routes", "shelling", "codim1-membership"):
            record(name, False, "skipped: an enumerated set is not a facet")
        return VerificationReport(instance, tuple(checks))

    # One corner pass feeds the corner routes and the shelling check, which
    # is skipped if that pass rejects a facet.
    se_counts = None
    try:
        corner_h, se_counts = _corner_routes(instance, masks)
        up, down, _ = _ridge_fold(walk)
        results = {**local_h, ASCENDING_FOLD: up, DESCENDING_FOLD: down, **corner_h}
        if face_table is not None:
            results[F_TRANSFORM] = _h_from_f(face_table, n_top)
            results[INTERIOR] = _h_from_interior(face_table, n_top)
        series = _agreed(results, n_top, len(masks))
        record("series-routes", True,
               f"h = {list(series.numerator)}, multiplicity {series.multiplicity}")
    except QuiverDetError as exc:
        record("series-routes", False, str(exc))

    # The codim-1 check runs first: run after the shelling check, it raised
    # the peak RSS of `verify` on star-example by about 0.1 MB.
    codim1 = _codim1_check(instance, masks, walk, chunks)
    del chunks
    if se_counts is None:
        record("shelling", False, "skipped: the corner batch rejects a facet")
    else:
        shelling = _shelling_report(instance, masks, "SE", walk[0], se_counts)
        record("shelling", shelling.ok, shelling.failure or "increasing order shells")
    record("codim1-membership", *codim1)

    return VerificationReport(instance, tuple(checks))


def _criteria_batch(instance: Instance, rng: random.Random, trials: int,
                    masks: list[int]) -> tuple[tuple[bool, str], int]:
    """Hold the three facet criteria to each other on random subsets, then on every facet.

    Each trial draws a density, then each cell in rank order with that
    probability, into one mask; such draws almost never hit a facet of a
    larger instance.  ``_columns`` transposes the draws and the facets'
    ``masks``, and one ``_criteria_kernel`` call evaluates them together, so
    each class of twin blocks runs its level tables once; the first subset
    on which the routes disagree is reported, and its routes are replayed
    through ``criteria_agree``.  Returns the check's ``(ok, detail)`` and,
    bit j for ``masks[j]``, the facets that the cardinality route and the
    raw route both admit.
    """
    draw = rng.random
    bits = [1 << r for r in range(instance.size)]
    subsets = []
    for _ in range(trials):
        density = draw()
        mask = 0
        for bit in bits:
            if draw() < density:
                mask |= bit
        subsets.append(mask)
    subsets += masks
    columns = _columns(subsets, instance.size)
    by_card, by_raw, by_padded = _criteria_kernel(instance, columns, (1 << len(subsets)) - 1)
    admitted = (by_card & by_raw) >> trials
    wrong = (by_card ^ by_raw) | (by_raw ^ by_padded)
    if not wrong:
        return (True, f"{trials} random subsets, then all facets ({len(masks)})"), admitted
    n = (wrong & -wrong).bit_length() - 1
    name = (f"subset {n + 1} of {trials}" if n < trials
            else f"facet {n - trials + 1} of {len(masks)}")
    held = CellSet.from_mask(instance, subsets[n]).cells
    routes = criteria_agree(instance, held)
    return (False, f"{name}, cells {[list(c) for c in held]}: routes "
                   f"(cardinality, raw, padded, agree) = {routes}"), admitted


def _codim1_check(instance: Instance, masks: list[int], walk, chunks) -> tuple[bool, str]:
    """Hold every ridge's owners in the facet list to the ridge's addable cells.

    ``chunks`` are the ``bitslice._restriction_columns`` of the masks, with
    ``owners``.  Each ridge F - c is checked once, at its first owner F,
    where c lies outside F's restriction face R(F) along the walk
    (``complex._ridge_walk``).  By purity its owners are F - c plus each
    addable cell: one or two, c among them, and one iff the walk leaves the
    ridge open; the other owner of a closed ridge is then the listed facet
    that closed it.  Every facet's R(F) off the batches must be the walk's
    too.  The first failure in (facet, cell) order is reported: a chunk's
    lowest bad facet across all cells, then its lowest bad cell.
    """
    restrictions, open_ridges, _ = walk
    size = instance.size
    opened = [0] * len(masks)  # per facet, the cells whose ridge the walk leaves open
    for ridge, j in open_ridges.items():
        opened[j] |= masks[j] ^ ridge
    count = 0
    for start, every, columns, below, _, (back, one, two) in chunks:
        end = start + every.bit_length()
        walked, is_open = (_columns(rows[start:end], size) for rows in (restrictions, opened))
        ridge_bad, face_bad = [], []
        for c in range(size):
            first = columns[c] & ~walked[c]
            count += first.bit_count()
            ridge_bad.append(first & ~(back[c] & (one[c] & is_open[c] | two[c] & ~is_open[c])))
            face_bad.append(below[c] ^ walked[c])
        bad = reduce(or_, ridge_bad + face_bad)
        if bad:
            low = bad & -bad
            c = next(c for c in range(size) if (ridge_bad[c] | face_bad[c]) & low)
            j = start + low.bit_length() - 1
            if not ridge_bad[c] & low:
                return False, f"facet {j + 1}: its restriction face off the batch is not the walk's"
            owned = sum(_addable_columns(instance, _columns([masks[j] ^ 1 << c], size), 1))
            if not 1 <= owned <= 2:
                return False, f"codim-1 face inside {owned} facets"
            return False, "closure route misses a containing facet"
    if not open_ridges:
        return False, "no boundary codim-1 face found"
    return True, f"{count} codim-1 faces, {len(open_ridges)} on the boundary"
