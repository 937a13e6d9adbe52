"""Inputs and correctness gates for the benchmark, independent of the code under test.

Nothing here imports ``quiverdet``.  The gates rest on three references:

- golden values, read from ``tests/golden.py`` of the checkout;
- the Gessel-Viennot binomial determinant for the multiplicity of ``det:m,n,u``;
- SHA-256 digests of byte-stable CLI outputs recorded at the seed commit.

Random ``verify`` instances come from this module's own generator, and
their facet counts from its own brute-force search over admissible sets.
"""

from __future__ import annotations

import hashlib
import re
import runpy
from fractions import Fraction
from math import comb
from pathlib import Path


class GateError(Exception):
    """A job's output failed its correctness gate."""


# -- references ------------------------------------------------------------------

def gessel_viennot(m: int, n: int, u: int) -> int:
    """Multiplicity of det:m,n,u as det[C(m+n-i-j, m-i)] over 1 <= i, j <= u."""
    rows = [[Fraction(comb(m + n - i - j, m - i)) for j in range(1, u + 1)]
            for i in range(1, u + 1)]
    det = Fraction(1)
    for c in range(u):
        pivot = next((r for r in range(c, u) if rows[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, u):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return int(det)


def load_golden(root: Path) -> dict:
    """The frozen reference values of the test suite, read without importing the package."""
    return runpy.run_path(str(root / "tests" / "golden.py"))


# SHA-256 of the stdout of byte-stable CLI runs, recorded at the seed commit.
DIGESTS = {
    ("info", "--preset", "det:6,6,3"):
        "cc073366466584ed227eabb1232662e9e1c0655e834c7d510534734fe989e5fd",
    ("facets", "--json", "--preset", "double:3,4,3,2,2"):
        "47500d1effead6eebdda574ebb818c666228a82739615977af98139aaa26bcc4",
    ("hilbert", "--preset", "det:6,6,3"):
        "4ceb7e411d00cad40c754e686ddba5a13b9ac90bb113dddf25473ec6331b581e",
    ("fvector", "--preset", "det:4,5,2"):
        "5ec09d9f0f8f08640cd82e6a20e72cf57539c205ced403fc6e2b0162abdf2bdf",
    ("interior", "--preset", "star-example"):
        "edcc150762bed9a230977815b98f4388b9de0f1cd6390a1bb98e4f1c9a8043f0",
}


# -- random verify instances -----------------------------------------------------

def random_instance_doc(rng, size: int) -> dict:
    """A random instance document with exactly ``size`` cells, already normalized.

    Same envelope as the package's ``random_instance``: at most 2 targets,
    3 sources and 4 arrows, dimensions at most 3, ranks uniform within the
    bounds.  Draws whose ranks normalization would clamp are redrawn, so the
    document loads unchanged in strict mode.
    """
    while True:
        targets = [f"t{i}" for i in range(1, rng.randint(1, 2) + 1)]
        sources = [f"s{i}" for i in range(1, rng.randint(1, 3) + 1)]
        arrows = [(rng.choice(sources), rng.choice(targets))
                  for _ in range(rng.randint(1, 4))]
        used = {v for a in arrows for v in a}
        sources = [s for s in sources if s in used]
        targets = [t for t in targets if t in used]
        m = {v: rng.randint(1, 3) for v in targets + sources}
        u = {}
        for t in targets:
            u[t] = rng.randint(1, min(m[t], sum(m[s] for s, tt in arrows if tt == t)))
        for s in sources:
            u[s] = rng.randint(1, min(m[s], sum(m[t] for ss, t in arrows if ss == s)))
        opposite = {v: 0 for v in m}
        for s, t in arrows:
            opposite[t] += u[s]
            opposite[s] += u[t]
        if any(u[v] > opposite[v] for v in m):
            continue
        if sum(m[s] * m[t] for s, t in arrows) != size:
            continue
        return {"sources": sources, "targets": targets,
                "arrows": [{"from": s, "to": t} for s, t in arrows], "m": m, "u": u}


def _max_chain(points) -> int:
    """Longest chain strictly increasing in both coordinates (quadratic DP)."""
    pts = sorted(points)
    best = []
    for i, (x, y) in enumerate(pts):
        best.append(1 + max((best[j] for j in range(i) if pts[j][0] < x and pts[j][1] < y),
                            default=0))
    return max(best, default=0)


def brute_facet_count(doc: dict) -> int:
    """Number of maximal admissible cell sets, by exhaustive search from the definition.

    Cells of page k (arrow k: source s -> target t) form an m[t] x m[s]
    grid; pages sit side by side in the target's block matrix and stacked in
    the source's.  A set is admissible when no block holds a chain longer
    than the block vertex's rank.
    """
    m, u = doc["m"], doc["u"]
    vids = doc["targets"] + doc["sources"]
    index = {v: n for n, v in enumerate(vids)}
    positions: list[list[tuple[int, int]]] = [[] for _ in vids]
    col_used = {t: 0 for t in doc["targets"]}
    row_used = {s: 0 for s in doc["sources"]}
    cells = []  # (target index, target bit, source index, source bit)
    for arrow in doc["arrows"]:
        s, t = arrow["from"], arrow["to"]
        for i in range(1, m[t] + 1):
            for j in range(1, m[s] + 1):
                ti, si = index[t], index[s]
                positions[ti].append((i, col_used[t] + j))
                positions[si].append((row_used[s] + i, j))
                cells.append((ti, 1 << len(positions[ti]) - 1, si, 1 << len(positions[si]) - 1))
        col_used[t] += m[s]
        row_used[s] += m[t]
    ranks = [u[v] for v in vids]
    memo: dict[tuple[int, int], bool] = {}

    def block_ok(v: int, mask: int) -> bool:
        ok = memo.get((v, mask))
        if ok is None:
            pts = [p for n, p in enumerate(positions[v]) if mask >> n & 1]
            ok = memo[(v, mask)] = _max_chain(pts) <= ranks[v]
        return ok

    count = 0

    def visit(chosen: int, blocks: list[int], start: int):
        nonlocal count
        adds = [r for r, (t, tb, s, sb) in enumerate(cells)
                if not chosen >> r & 1 and block_ok(t, blocks[t] | tb)
                and block_ok(s, blocks[s] | sb)]
        if not adds:
            count += 1
        for r in adds:
            if r >= start:
                t, tb, s, sb = cells[r]
                nxt = list(blocks)
                nxt[t] |= tb
                nxt[s] |= sb
                visit(chosen | 1 << r, nxt, r + 1)

    visit(0, [0] * len(vids), 0)
    return count


# -- gates -------------------------------------------------------------------------

def check_digest(argv, out: bytes) -> None:
    want = DIGESTS[tuple(argv)]
    got = hashlib.sha256(out).hexdigest()
    if got != want:
        raise GateError(f"stdout digest {got[:12]} != seed digest {want[:12]}")


def _lines(out: bytes) -> list[str]:
    return out.decode("utf-8").splitlines()


def hilbert_multiplicity(out: bytes) -> int:
    """h(1) read off a rendered series '(1+9t+45t^2+...)/(1-t)^N'."""
    numerator = _lines(out)[0].split(")/(")[0].lstrip("(")
    total = 0
    for term in numerator.split("+"):
        coef = term.split("t")[0]
        total += int(coef) if coef else 1
    return total


def f_vector_of(out: bytes) -> list[int]:
    return [int(x) for x in _lines(out)[0].split()]


_CHECK_LINE = re.compile(r"^\[(ok|FAIL)\] ([a-z0-9-]+): (.*)$")
_MULTIPLICITY = re.compile(r"h = \[([0-9, ]*)\], multiplicity (\d+)")
_BRUTE = re.compile(r"^(\d+) facets from moves vs (\d+) maximal admissible sets$")

# The oracle checks a verify run performs at the seed commit; all must still run.
VERIFY_CHECKS = ("initial-closed-form", "facet-closure-vs-brute", "facet-cardinality",
                 "criteria-equivalence", "reflection-duality", "series-routes",
                 "shelling", "codim1-membership")


def verify_report(out: bytes) -> tuple[list[int], int, dict[str, str]]:
    """(h-vector, multiplicity, check details) of a passing one-instance verify run."""
    lines = _lines(out)
    if not lines or lines[-1] != "all checks passed on 1 instance(s)":
        raise GateError("verify did not report success")
    details = {}
    for line in lines[:-1]:
        hit = _CHECK_LINE.match(line)
        if hit is None:
            raise GateError(f"unparsed verify line {line!r}")
        if hit.group(1) != "ok":
            raise GateError(f"verify check failed: {line}")
        details[hit.group(2)] = hit.group(3)
    missing = [c for c in VERIFY_CHECKS if c not in details]
    if missing:
        raise GateError(f"verify checks missing: {missing}")
    hit = _MULTIPLICITY.search(details["series-routes"])
    if hit is None:
        raise GateError("series-routes detail has no multiplicity")
    h = [int(x) for x in hit.group(1).split(",")]
    mult = int(hit.group(2))
    if sum(h) != mult:
        raise GateError(f"h(1) = {sum(h)} but multiplicity {mult}")
    return h, mult, details


def check_verify_multiplicity(out: bytes, expected: int, brute: bool) -> None:
    _, mult, details = verify_report(out)
    if mult != expected:
        raise GateError(f"multiplicity {mult}, reference {expected}")
    if brute:
        hit = _BRUTE.match(details["facet-closure-vs-brute"])
        if hit is None or int(hit.group(1)) != expected or int(hit.group(2)) != expected:
            raise GateError("brute-force facet count disagrees with the reference")
