"""The local h routes: restriction faces off per-cell addable batches (``bitslice``).

Held to the closed form of Conca and Herzog on det presets, to the ridge
walk and its folds, and to the corner routes; and measured in a fresh
process, where they replace the walk's table of open ridges.
"""

import json
import os
import random
import re
import subprocess
import sys
from itertools import permutations
from math import comb
from pathlib import Path

import pytest

import quiverdet.bitslice as bitslice
import quiverdet.complex as cx
from quiverdet import enumerate_facets, hilbert_series, verify_shelling
from quiverdet.cli import main, parse_preset
from quiverdet.complex import _ridge_fold, _ridge_walk
from quiverdet.series import CORNER_ROUTES, LOCAL_ROUTES
from quiverdet.verify import random_instance

from test_fold import _for_random_instances

SRC = Path(__file__).resolve().parent.parent / "src"


def _times(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _closed_form_h(m: int, n: int, u: int) -> tuple[int, ...]:
    """h of the ideal of (u + 1)-minors of an m x n matrix (Conca–Herzog, Proc. AMS 122, 1994).

    h(t) = det[sum_k C(m - i, k) C(n - j, k) t^k], 1 <= i, j <= u, divided
    by t^C(u, 2); the determinant is expanded over permutations, exactly.
    """
    entry = [[[comb(m - i, k) * comb(n - j, k) for k in range(min(m, n) + 1)]
              for j in range(1, u + 1)] for i in range(1, u + 1)]
    total = [0]
    for perm in permutations(range(u)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = [(-1) ** inversions]
        for i, j in enumerate(perm):
            term = _times(term, entry[i][j])
        total += [0] * (len(term) - len(total))
        for k, x in enumerate(term):
            total[k] += x
    shift = comb(u, 2)
    assert not any(total[:shift])
    h = total[shift:]
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return tuple(h)


def test_closed_form_of_a_small_case():
    # the 2-minors of a 2 x 2 matrix: one quadric, h = 1 + t
    assert _closed_form_h(2, 2, 1) == (1, 1)
    assert sum(_closed_form_h(8, 8, 3)) == 731808


@pytest.mark.parametrize("m, n, u", [(4, 5, 2), (5, 7, 2), (6, 4, 3), (3, 6, 1), (7, 5, 4),
                                     (6, 6, 1), (6, 6, 3), (7, 7, 3)])
def test_default_h_matches_the_closed_form(m, n, u):
    assert hilbert_series(parse_preset(f"det:{m},{n},{u}")).numerator == _closed_form_h(m, n, u)


def _numerator(rendered: str) -> tuple[int, ...]:
    """The h-vector of ``HilbertSeries.render`` text, "(1+16t+136t^2+...)/(1-t)^N"."""
    terms = rendered.strip().split(")/(")[0].lstrip("(").split("+")
    h: dict[int, int] = {}
    for term in terms:
        coef, t, power = term.partition("t")
        h[int(power.lstrip("^") or 1) if t else 0] = int(coef or 1)
    return tuple(h.get(i, 0) for i in range(max(h) + 1))


@pytest.mark.parametrize("command", ["hilbert", "shelling"])
def test_det773_fresh_process_memory(command):
    # the walk's table of 518616 open ridges took hilbert to 58.5 MB, and
    # shelling, which walked once per order, to 74 MB
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmHWM from")
    script = ("import sys\n"
              "from quiverdet.cli import main\n"
              f"code = main([{command!r}, '--preset', 'det:7,7,3'])\n"
              "with open('/proc/self/status') as status:\n"
              "    sys.stderr.write(''.join(l for l in status if l.startswith('VmHWM:')))\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    hwm_kb = int(re.search(r"^VmHWM:\s*(\d+) kB", proc.stderr, re.M).group(1))
    assert hwm_kb < 30 * 1024, hwm_kb
    if command == "hilbert":
        assert _numerator(proc.stdout) == _closed_form_h(7, 7, 3)
    else:
        up, counts, down = proc.stdout.splitlines()
        assert (up, down) == ("ascending shelling ok", "descending shelling ok")
        sizes = list(map(int, counts.split()[2:]))
        assert tuple(map(sizes.count, range(max(sizes) + 1))) == _closed_form_h(7, 7, 3)


def _rows(columns: list[int], count: int) -> list[int]:
    # per-cell columns back as one mask per facet
    return [sum(1 << r for r, column in enumerate(columns) if column >> j & 1)
            for j in range(count)]


def _local_faces(inst, masks):
    """Each facet's restriction mask in ascending and in descending order, off the batches."""
    below, above = [], []
    for _, every, _, up, down, _ in bitslice._restriction_columns(inst, masks):
        below += _rows(up, every.bit_length())
        above += _rows(down, every.bit_length())
    return below, above


def _check_against_the_walk(inst):
    facets = enumerate_facets(inst)
    masks = [f.mask for f in facets]
    below, above = _local_faces(inst, masks)
    walk = _ridge_walk(masks)
    assert below == walk[0], inst
    assert above == _ridge_walk(masks[::-1])[0][::-1], inst
    local = hilbert_series(inst, routes=LOCAL_ROUTES).numerator
    up, down, _ = _ridge_fold(walk)
    corner = hilbert_series(inst, facets=facets, routes=CORNER_ROUTES).numerator
    assert local == up == down == corner, inst


def test_local_faces_match_the_walk_property():
    _for_random_instances(_check_against_the_walk, max_examples=60)


def test_local_faces_match_the_walk_on_presets():
    for preset in ("star-example", "det:6,6,3", "double:3,4,3,2,2", "secant:4,4,2"):
        _check_against_the_walk(parse_preset(preset))


def test_batches_split_across_chunks_and_cell_groups(monkeypatch):
    # narrow batches: star-example's 54 facets in chunks of 7, one cell to a
    # batch, and in chunks of 40 and 14, one and two cells to a batch; the
    # faces, h and verify's verdicts are those of the full width
    from quiverdet import verify_instance

    rng = random.Random(83)
    instances = [parse_preset(p) for p in ("star-example", "det:4,5,2", "double:2,3,2,1,1")]
    instances += [random_instance(rng, max_cells=16) for _ in range(6)]
    want = []
    for inst in instances:
        masks = [f.mask for f in enumerate_facets(inst)]
        report = verify_instance(inst, subset_trials=10, seed=1)
        want.append((_local_faces(inst, masks), hilbert_series(inst), report))
    for width in (1, 7, 40, 100):
        monkeypatch.setattr(bitslice, "_WIDTH", width)
        for inst, expected in zip(instances, want):
            masks = [f.mask for f in enumerate_facets(inst)]
            report = verify_instance(inst, subset_trials=10, seed=1)
            assert (_local_faces(inst, masks), hilbert_series(inst), report) == expected, (
                inst, width)


def _shelling_outputs(capsys, path):
    # the shelling command's exit code and stdout, text and --json
    outs = []
    for flags in ([], ["--json"]):
        code = main(["shelling", "--file", str(path), *flags])
        outs.append((code, capsys.readouterr().out))
    return outs


def _reports_as_printed(facets):
    # verify_shelling on the ascending order with SE corners and on the
    # descending order with NW corners, as the shelling command prints them
    up, down = verify_shelling(facets), verify_shelling(facets[::-1], "NW")
    code = 0 if up.ok and down.ok else 1
    text = [f"ascending shelling {'ok' if up.ok else 'FAILED'}",
            "restriction counts " + " ".join(map(str, up.restriction_counts)),
            f"descending shelling {'ok' if down.ok else 'FAILED'}",
            *(rep.failure for rep in (up, down) if rep.failure)]
    obj = {"ascending": up.to_json_obj(), "descending": down.to_json_obj()}
    return [(code, "\n".join(text) + "\n"),
            (code, json.dumps(obj, indent=2, sort_keys=True) + "\n")]


def test_shelling_command_equals_verify_shelling(capsys, monkeypatch, tmp_path):
    # the command reads R(F) off one batch pass and never walks; its reports
    # are verify_shelling's, which walks, at the full width and in narrow
    # chunks and cell groups
    rng = random.Random(61)
    instances = [parse_preset(p) for p in ("star-example", "det:4,5,2", "double:2,3,2,1,1",
                                           "det:1,1,1", "secant:3,3,1")]
    instances += [random_instance(rng, max_cells=16) for _ in range(8)]
    paths, want = [], []
    for k, inst in enumerate(instances):
        paths.append(tmp_path / f"{k}.json")
        paths[-1].write_text(inst.to_json())
        want.append(_reports_as_printed(enumerate_facets(inst)))
    walks = []
    monkeypatch.setattr(cx, "_ridge_walk", lambda masks: walks.append(masks))
    for width in (bitslice._WIDTH, 7, 40):
        monkeypatch.setattr(bitslice, "_WIDTH", width)
        for inst, path, expected in zip(instances, paths, want):
            assert _shelling_outputs(capsys, path) == expected, (inst, width)
    assert walks == []
