"""The bit-sliced corner batch (``cvm._corner_counts``) held to ``cvm.corners``, facet by facet."""

import json
import random

import pytest

import quiverdet.bitslice as bitslice
import quiverdet.cvm as cvm
from quiverdet import (CellSet, CrossCheckError, QuiverDetError, corners, enumerate_facets,
                       verify_shelling)
from quiverdet.cli import main, parse_preset
from quiverdet.complex import _corner_routes
from quiverdet.verify import random_instance

from test_fold import _for_random_instances

PRESETS = ("star-example", "det:6,6,1", "det:6,6,3", "double:3,4,3,2,2", "secant:4,4,2")


def _oracle(facets):
    # corners() on copies, so that the listed facets keep no chain tables
    reports = [corners(CellSet.from_mask(f.instance, f.mask)) for f in facets]
    return [(rep.essential_nw, rep.essential_se) for rep in reports]


def _check_the_entry(inst):
    # the one corner pass, and the SE counts that verify's shelling check
    # reads off it through the corner routes
    facets = enumerate_facets(inst)
    want = _oracle(facets)
    masks = [f.mask for f in facets]
    assert list(cvm._corner_counts(inst, masks)) == want, inst
    assert _corner_routes(inst, masks)[1] == [se for _, se in want], inst


@pytest.mark.parametrize("preset", PRESETS)
def test_batch_counts_equal_corners_on_presets(preset):
    _check_the_entry(parse_preset(preset))


def test_batch_counts_equal_corners_on_fixtures(single_cell, det33, double_instance):
    for inst in (single_cell, det33, double_instance):
        _check_the_entry(inst)


def test_batch_counts_equal_corners_property():
    _for_random_instances(_check_the_entry)


def test_batches_split_across_chunks(monkeypatch, star_instance):
    # 7 masks per batch: star-example's 54 facets run in 8 batches, the
    # reversed list too, with the same counts as one batch
    facets = enumerate_facets(star_instance)
    masks = [f.mask for f in facets]
    whole = list(cvm._corner_counts(star_instance, masks))
    real, batches = cvm._corner_bits, []
    monkeypatch.setattr(cvm, "_corner_bits", lambda *args: batches.append(args[2]) or real(*args))
    monkeypatch.setattr(bitslice, "_WIDTH", 7)
    assert list(cvm._corner_counts(star_instance, masks)) == whole == _oracle(facets)
    assert list(cvm._corner_counts(star_instance, masks[::-1])) == whole[::-1]
    assert [every.bit_length() for every in batches] == [7] * 7 + [5] + [7] * 7 + [5]


def _first_error(inst, masks):
    # the per-facet pass: the counts it gives before its first exception, and that exception
    got = []
    for mask in masks:
        try:
            rep = corners(CellSet.from_mask(inst, mask))
        except QuiverDetError as exc:
            return got, type(exc), str(exc)
        got.append((rep.essential_nw, rep.essential_se))
    return got, None, None


def _batch_error(inst, masks):
    got = []
    try:
        for pair in cvm._corner_counts(inst, masks):
            got.append(pair)
    except QuiverDetError as exc:
        return got, type(exc), str(exc)
    return got, None, None


@pytest.mark.parametrize("width", [16384, 7])
def test_a_non_facet_raises_what_the_per_facet_pass_raises(monkeypatch, width, star_instance,
                                                           det33):
    # a ridge, the full set, an N-cell set that is not admissible, and a set
    # from a facet with one cell moved, at several places in the list
    monkeypatch.setattr(bitslice, "_WIDTH", width)
    rng = random.Random(71)
    seen = set()
    for inst in (star_instance, det33, parse_preset("det:4,4,2"), random_instance(rng, 14)):
        masks = [f.mask for f in enumerate_facets(inst)]
        facet = masks[len(masks) // 2]
        low = facet & -facet
        outside = [1 << r for r in range(inst.size) if not facet >> r & 1]
        strangers = [facet ^ low, (1 << inst.size) - 1]
        strangers += [facet ^ low | bit for bit in outside]
        for stranger in strangers:
            for at in {0, len(masks) // 3, len(masks)}:
                order = masks[:at] + [stranger] + masks[at:]
                want = _first_error(inst, order)
                assert _batch_error(inst, order) == want, (inst, stranger, at)
                seen.add(want[2])
    assert "road maps exist only for concurrent vertex maps" in seen


def test_a_tampered_on_mask_is_replayed_and_named(monkeypatch, star_instance):
    # one facet's level-1 NW bits flipped at every point: its paths break, the
    # replay through the road map passes, and the batch names the facet
    real = cvm._block_levels
    facets = enumerate_facets(star_instance)
    target = 5

    def tampered(instance, columns, every):
        for row, levels in real(instance, columns, every):
            for n, _, _ in levels:
                n[1] ^= 1 << target
            yield row, levels

    monkeypatch.setattr(cvm, "_block_levels", tampered)
    masks = [f.mask for f in facets]
    counts = cvm._corner_counts(star_instance, masks)
    assert [next(counts) for _ in range(target)] == _oracle(facets[:target])
    with pytest.raises(CrossCheckError, match=f"corner batch rejects facet {target + 1},"):
        next(counts)


def _flag_facet(real, j):
    # ``_corner_bits`` that also calls facet j bad, whose road map passes
    def tampered(instance, columns, every):
        nw, se, bad = real(instance, columns, every)
        return nw, se, bad | 1 << j
    return tampered


def test_verify_reports_a_tampered_corner_batch(monkeypatch, star_instance):
    # verify's corner pass is the commands' one: series-routes fails with the
    # batch's message, and the shelling check, without counts, is skipped
    import quiverdet.verify as verify

    monkeypatch.setattr(cvm, "_corner_bits", _flag_facet(cvm._corner_bits, 2))
    report = verify.verify_instance(star_instance, subset_trials=20, seed=7)
    failed = {c.name: c.detail for c in report.checks if not c.ok}
    assert failed == {"series-routes": "the corner batch rejects facet 3, whose road map passes",
                      "shelling": "skipped: the corner batch rejects a facet"}


def test_verify_reports_a_corner_batch_that_rejects_a_facet_everywhere(monkeypatch, capsys,
                                                                       star_instance):
    # the corner batch flags facet 4: verify reports, it does not raise; the
    # codim-1 check still runs, and the CLI exits 1 with a FAILED line
    import quiverdet.verify as verify

    monkeypatch.setattr(cvm, "_corner_bits", _flag_facet(cvm._corner_bits, 3))
    report = verify.verify_instance(star_instance, subset_trials=20, seed=1)
    checks = {c.name: (c.ok, c.detail) for c in report.checks}
    message = "the corner batch rejects facet 4, whose road map passes"
    assert checks["series-routes"] == (False, message)
    assert checks["shelling"] == (False, "skipped: the corner batch rejects a facet")
    assert checks["codim1-membership"][0]
    assert [name for name, (ok, _) in checks.items() if not ok] == ["series-routes", "shelling"]
    assert main(["verify", "--preset", "star-example", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "[FAIL] shelling: skipped: the corner batch rejects a facet" in out
    assert out[-1] == f"FAILED: series-routes on {star_instance!r}: {message}"


@pytest.mark.parametrize("preset", ["star-example", "det:4,4,2", "double:3,4,3,2,2"])
def test_corners_command_prints_the_corners_counts(capsys, preset):
    inst = parse_preset(preset)
    rows = [{"facet": n, "essential_nw": nw, "essential_se": se}
            for n, (nw, se) in enumerate(_oracle(enumerate_facets(inst)), start=1)]
    assert main(["corners", "--preset", preset]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"facet {r['facet']}: essential NW {r['essential_nw']}, essential SE {r['essential_se']}"
        for r in rows]
    assert main(["corners", "--preset", preset, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(rows, indent=2, sort_keys=True) + "\n"


def test_verify_shelling_leaves_the_facets_bare():
    # the shelling check reads the corners off the masks: no listed facet
    # caches chain tables, in either order
    facets = enumerate_facets(parse_preset("det:4,4,2"))
    assert verify_shelling(facets).ok
    assert verify_shelling(facets[::-1], corner_kind="NW").ok
    assert facets and all(not f._stats for f in facets)
