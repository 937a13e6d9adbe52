import json
import random
import re

import pytest

from quiverdet import (BipartiteQuiver, Cell, CellSet, ValidationError, build_instance,
                       cmp_T, cmp_T_sets, load_instance)
from quiverdet.cli import parse_preset
from quiverdet.quiver import _derive_geometry, cell_key
from quiverdet.cvm import c_max, c_min
from quiverdet.verify import random_instance


def test_double_preset_geometry(double_instance):
    inst = double_instance
    assert inst.vertex["1"].a == 3 and inst.vertex["1"].b == 4
    assert inst.vertex["2"].a == 6 and inst.vertex["2"].b == 2
    assert inst.size == 12
    assert inst.n_cells == 5


def test_star_geometry(star_instance):
    assert star_instance.n_cells == 11
    assert star_instance.size == 18
    assert star_instance.vertex["1"].v == 3


def test_single_cell(single_cell):
    assert single_cell.size == 1
    assert single_cell.n_cells == 1


def test_n_cells_classical(det33):
    # independent count: every maximal admissible set carries the same number of cells
    from quiverdet.verify import brute_maximal_facet_masks

    masks = brute_maximal_facet_masks(det33)
    assert {m.bit_count() for m in masks} == {8}
    assert det33.n_cells == 8


def test_phi_offsets(double_instance):
    inst = double_instance
    assert inst.phi_target(Cell(1, 1, 2)) == ("1", 1, 3)
    assert inst.phi_source(Cell(1, 1, 2)) == ("2", 4, 1)
    assert inst.phi_target(Cell(2, 2, 1)) == ("1", 2, 2)
    assert inst.phi_source(Cell(2, 2, 1)) == ("2", 2, 2)


def test_phi_bijections(double_instance, star_instance):
    for inst in (double_instance, star_instance):
        seen_t, seen_s = set(), set()
        for cell in inst.cells:
            tv, ti, tj = inst.phi_target(cell)
            sv, si, sj = inst.phi_source(cell)
            assert inst.phi_target_inv(tv, ti, tj) == cell
            assert inst.phi_source_inv(sv, si, sj) == cell
            seen_t.add((tv, ti, tj))
            seen_s.add((sv, si, sj))
        assert len(seen_t) == len(seen_s) == inst.size


def _instances_under_test(fixtures):
    rng = random.Random(2024)
    return list(fixtures) + [random_instance(rng) for _ in range(50)]


def test_cell_geometry_table(double_instance, star_instance, det33, single_cell):
    # definition level: page offsets place (i, j, k) in both block matrices
    for inst in _instances_under_test((double_instance, star_instance, det33, single_cell)):
        for r, cell in enumerate(inst.cells):
            ar = inst.arrows[cell.k - 1]
            assert inst.positions[r] == (ar.target, cell.i, ar.col_offset + cell.j,
                                         ar.source, ar.row_offset + cell.i, cell.j)
            assert inst.phi_target_inv(*inst.phi_target(cell)) == cell
            assert inst.phi_source_inv(*inst.phi_source(cell)) == cell
        for ar in inst.arrows:
            earlier = inst.arrows[: ar.k - 1]
            assert ar.vpath_offset == sum(inst.u[e.source] for e in earlier if e.target == ar.target)
            assert ar.hpath_offset == sum(inst.u[e.target] for e in earlier if e.source == ar.source)


def test_check_cell_rejects_malformed_cells(det33):
    bad_cells = [(1, 1), (1, 1, 1, 1), 5, None, "abc", (1.0, 1, 1), (1, 1.0, 1), (1, 1, 1.0),
                 (True, 1, 1), (1, True, 1), (1, 1, True), ("1", 1, 1), ([1], 1, 1), (4, 1, 1),
                 (0, 1, 1)]
    everything = CellSet(det33, det33.cells)
    for bad in bad_cells:
        with pytest.raises(ValidationError):
            det33.check_cell(bad)
        with pytest.raises(ValidationError):
            CellSet(det33, [bad])
        assert bad not in everything
    assert det33.check_cell([2, 3, 1]) == Cell(2, 3, 1)


def test_cell_mask_skips_check_for_own_cells(monkeypatch, det33):
    checked = []
    real = type(det33).check_cell

    def counting(self, cell):
        checked.append(cell)
        return real(self, cell)

    monkeypatch.setattr(type(det33), "check_cell", counting)
    assert det33.cell_mask(det33.cells) == (1 << det33.size) - 1 and checked == []
    # an equal cell that is not the instance's own object is still validated
    copies = [Cell(1, 2, 1), (3, 3, 1), [2, 1, 1]]
    assert det33.cell_mask(copies) == 1 << 1 | 1 << 8 | 1 << 3
    assert checked == copies
    for bad in (Cell(True, 1, 1), Cell(1.0, 1, 1)):
        with pytest.raises(ValidationError):
            det33.cell_mask([det33.cells[0], bad])
    assert checked[3:] == [Cell(True, 1, 1), Cell(1.0, 1, 1)]


def test_cell_mask_rejects_non_iterables(det33):
    from quiverdet.verify import criteria_agree

    for bad in (None, 5, 1.5):
        with pytest.raises(ValidationError, match="not an iterable of cells"):
            det33.cell_mask(bad)
        with pytest.raises(ValidationError, match="not an iterable of cells"):
            CellSet(det33, bad)
        with pytest.raises(ValidationError, match="not an iterable of cells"):
            criteria_agree(det33, bad)


def test_cell_order():
    assert cmp_T((1, 2, 1), (1, 1, 2)) == -1  # page dominates
    assert cmp_T((1, 9, 1), (2, 1, 1)) == -1  # row dominates column
    assert cmp_T((1, 1, 1), (1, 1, 1)) == 0


def test_cell_order_is_total(double_instance):
    cells = double_instance.cells
    assert sorted(cells, key=cell_key) == list(cells)
    assert len(set(map(cell_key, cells))) == len(cells)


def test_set_order_closures(double_instance):
    empty = CellSet(double_instance)
    lo, hi = c_min(empty), c_max(empty)
    assert cmp_T_sets(lo, hi) == -1
    with pytest.raises(ValidationError):
        cmp_T_sets(lo, lo.remove(lo.cells[0]))


def test_strict_mode_rejections():
    quiver = BipartiteQuiver(("s",), ("t",), (("s", "t"),))
    with pytest.raises(ValidationError):
        build_instance(quiver, {"s": 2, "t": 2}, {"s": 0, "t": 1}, mode="strict")
    with pytest.raises(ValidationError):
        build_instance(quiver, {"s": 2, "t": 2}, {"s": 3, "t": 1}, mode="strict")
    with pytest.raises(ValidationError):
        # u exceeds the opposite-side rank sum
        build_instance(quiver, {"s": 3, "t": 3}, {"s": 1, "t": 2}, mode="strict")
    with pytest.raises(ValidationError):
        BipartiteQuiver(("s",), ("t",), (("t", "s"),))


def test_normalize_clamps_and_removes():
    quiver = BipartiteQuiver(("s1", "s2"), ("t",), (("s1", "t"), ("s2", "t")))
    inst = build_instance(quiver, {"s1": 2, "s2": 2, "t": 3},
                          {"s1": 5, "s2": 0, "t": 3}, mode="normalize")
    # s2 drops out with its page; the remaining ranks clamp to the bounds
    assert "s2" not in inst.vertex
    assert inst.normalization.removed_vertices == ("s2",)
    assert inst.normalization.removed_pages == (("s2", "t", 3, 2),)
    assert inst.u["s1"] <= min(inst.vertex["s1"].a, inst.vertex["s1"].b, inst.vertex["s1"].v)
    assert inst.u["t"] <= inst.vertex["t"].v


def test_normalize_empty_quiver_error():
    quiver = BipartiteQuiver(("s",), ("t",), (("s", "t"),))
    with pytest.raises(ValidationError):
        build_instance(quiver, {"s": 1, "t": 1}, {"s": 0, "t": 0}, mode="normalize")


def test_normalization_idempotent(double_instance, star_instance):
    for inst in (double_instance, star_instance):
        again = load_instance(inst.to_json_obj(), mode="normalize")
        assert again == inst and again.normalization.trivial
    quiver = BipartiteQuiver(("a", "b"), ("z",), (("a", "z"), ("b", "z"), ("a", "z")))
    messy = build_instance(quiver, {"a": 2, "b": 3, "z": 2},
                           {"a": 9, "b": 9, "z": 9}, mode="normalize")
    twice = build_instance(messy.quiver, messy.m, messy.u, mode="normalize")
    assert twice == messy and twice.normalization.trivial


def _raw_draw(rng):
    """A random (quiver, m, u) that may need normalizing: ranks from 0 past
    their bounds, and vertices that no arrow touches."""
    sources = tuple(f"s{i}" for i in range(1, rng.randint(1, 3) + 1))
    targets = tuple(f"t{i}" for i in range(1, rng.randint(1, 2) + 1))
    arrows = tuple((rng.choice(sources), rng.choice(targets)) for _ in range(rng.randint(0, 4)))
    quiver = BipartiteQuiver(sources, targets, arrows)
    m = {vid: rng.randint(1, 3) for vid in quiver.vertices}
    u = {vid: rng.randint(0, 4) for vid in quiver.vertices}
    return quiver, m, u


def _build(quiver, m, u, mode):
    try:
        return build_instance(quiver, m, u, mode=mode), None
    except ValidationError as exc:
        return None, str(exc)


def test_strict_is_normalize_with_every_change_refused():
    # strict succeeds exactly when normalization changes nothing, and then
    # both modes build the same instance; a refusal names the vertex, its
    # rank and min(a, b, v) on the quiver as given
    rng = random.Random(34)
    refused = accepted = 0
    for _ in range(3000):
        quiver, m, u = _raw_draw(rng)
        strict, error = _build(quiver, m, u, "strict")
        normal, _ = _build(quiver, m, u, "normalize")
        if strict is not None:
            accepted += 1
            assert normal is not None and normal.normalization.trivial
            assert strict == normal and strict.to_json_obj() == normal.to_json_obj()
            continue
        refused += 1
        assert normal is None or not normal.normalization.trivial
        if not quiver.arrows:
            assert error == "quiver has no arrows"
            continue
        vid, rank, bound = re.fullmatch(
            r"u\['(\w+)'\] = (\d+) is outside 1\.\.min\(a, b, v\) = (\d+)", error).groups()
        a, b, v = _derive_geometry(quiver, m, u)[vid]
        assert int(rank) == u[vid] and int(bound) == min(a, b, v)
        assert not 0 < u[vid] <= min(a, b, v)
    assert accepted > 50 and refused > 1000


def test_normalized_instances_have_no_isolated_vertex():
    # an isolated vertex has min(a, b) = 0, so normalization clamps and drops it
    rng = random.Random(35)
    built = 0
    for _ in range(3000):
        quiver, m, u = _raw_draw(rng)
        inst, _ = _build(quiver, m, u, "normalize")
        if inst is None:
            continue
        built += 1
        assert {v for arrow in inst.quiver.arrows for v in arrow} == set(inst.quiver.vertices)
        incident = {v for arrow in quiver.arrows for v in arrow}
        isolated = [vid for vid in quiver.vertices if vid not in incident]
        assert set(isolated) <= set(inst.normalization.removed_vertices)
    assert built > 1000


def test_stray_rank_entries_leave_both_modes_alike():
    # m and u entries for a vertex outside the quiver are ignored by both modes
    quiver = BipartiteQuiver(("s",), ("t",), (("s", "t"),))
    m, u = {"s": 2, "t": 2, "x": 5}, {"s": 1, "t": 1, "x": 9}
    strict = build_instance(quiver, m, u, "strict")
    normal = build_instance(quiver, m, u, "normalize")
    assert strict == normal and strict.to_json() == normal.to_json()
    assert "x" not in strict.m and "x" not in strict.u


def test_json_round_trip(star_instance, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(star_instance.to_json())
    loaded = load_instance(str(path), mode="strict")
    assert loaded == star_instance


def test_malformed_instance_document():
    with pytest.raises(ValidationError):
        load_instance(json.dumps({"sources": ["s"], "targets": ["t"]}))


def _star_document(**changes):
    doc = {"sources": ["s"], "targets": ["t"], "arrows": [{"from": "s", "to": "t"}],
           "m": {"s": 2, "t": 2}, "u": {"s": 1, "t": 1}}
    doc.update(changes)
    return json.dumps(doc)


NON_STRING_IDS = [
    ({"sources": [1], "arrows": [{"from": 1, "to": "t"}], "m": {"1": 2, "t": 2},
      "u": {"1": 1, "t": 1}}, "vertex id 1 is not a string"),
    ({"sources": [["a"]]}, "vertex id ['a'] is not a string"),
    ({"arrows": [{"from": ["s"], "to": "t"}]}, "vertex id ['s'] is not a string"),
]


@pytest.mark.parametrize("changes, message", NON_STRING_IDS)
def test_load_instance_rejects_non_string_ids(changes, message):
    # not "m missing for vertex 1", nor a leaked "unhashable type: 'list'"
    with pytest.raises(ValidationError) as exc:
        load_instance(_star_document(**changes))
    assert str(exc.value) == message


def test_load_instance_rejects_bool_rank():
    with pytest.raises(ValidationError, match=r"u\['t'\]"):
        load_instance(_star_document(u={"s": 1, "t": True}))
    with pytest.raises(ValidationError, match=r"m\['s'\]"):
        load_instance(_star_document(m={"s": True, "t": 2}))


def test_load_instance_rejects_float_rank():
    with pytest.raises(ValidationError, match=r"u\['s'\]"):
        load_instance(_star_document(u={"s": 1.0, "t": 1}))


def test_load_instance_rejects_float_dimension():
    with pytest.raises(ValidationError, match=r"m\['s'\] must be a positive integer"):
        load_instance(_star_document(m={"s": 2.0, "t": 2}))


def test_load_instance_rejects_string_vertex_list():
    with pytest.raises(ValidationError, match="'sources' must be a list"):
        load_instance(_star_document(sources="s"))
    with pytest.raises(ValidationError, match="'targets' must be a list"):
        load_instance(_star_document(targets="t"))


def test_load_instance_rejects_non_object_ranks():
    with pytest.raises(ValidationError, match="'m' must be an object"):
        load_instance(_star_document(m=[2, 2]))
    with pytest.raises(ValidationError, match="'u' must be an object"):
        load_instance(_star_document(u=[1, 1]))


def test_load_instance_rejects_malformed_arrows():
    with pytest.raises(ValidationError, match="'arrows' must be a list"):
        load_instance(_star_document(arrows="st"))
    with pytest.raises(ValidationError, match="'arrows' entries must be objects"):
        load_instance(_star_document(arrows=["s->t"]))
    with pytest.raises(ValidationError, match="'arrows' entries must be objects"):
        load_instance(_star_document(arrows=[{"from": "s"}]))


def test_load_instance_rejects_non_object_document(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="must be a JSON object"):
        load_instance(str(path))
    with pytest.raises(ValidationError, match="must be a JSON object"):
        load_instance('[{"sources": ["s"]}]')
    with pytest.raises(ValidationError, match="must be a JSON object"):
        load_instance("[1, 2]")


def test_load_instance_path_with_brace(star_instance, tmp_path):
    # a file path is read as a path even when it contains a brace
    path = tmp_path / "inst{1}.json"
    path.write_text(star_instance.to_json())
    assert load_instance(str(path), mode="strict") == star_instance
    assert load_instance(path, mode="strict") == star_instance


def test_presets():
    secant = parse_preset("secant:4,4,2")
    assert secant.size == 32 and secant.u == {"1": 2, "2": 2}
    star_default = parse_preset("star:3,(2,1),(2,1),(2,1)")
    assert star_default.u["1"] == 3  # largest normalized rank
    explicit = parse_preset("star:(3,2),(2,1),(2,1),(2,1)")
    assert explicit == parse_preset("star-example")
    with pytest.raises(ValidationError):
        parse_preset("det:3,3")
    with pytest.raises(ValidationError):
        parse_preset("ring:1,2,3")
    with pytest.raises(ValidationError):
        parse_preset("star:3")
    with pytest.raises(ValidationError):
        parse_preset("det:3,3,0")  # rank violation, rejected by strict building


def test_load_instance_from_json_text(double_instance):
    assert load_instance(double_instance.to_json(), mode="strict") == double_instance


@pytest.mark.parametrize("spec", ["det:99999999999,1,1", "det:3000,3000,2", "det:256,257,1",
                                  "double:99999999999,1,1,1,1"])
def test_oversized_presets_are_refused(spec):
    with pytest.raises(ValidationError, match="65536 supported"):
        parse_preset(spec)


def test_oversized_documents_are_refused():
    with pytest.raises(ValidationError, match=f"has {10 ** 20 * 2} cells"):
        load_instance(_star_document(m={"s": 10 ** 20, "t": 2}))


def test_lattice_size_guard_is_inclusive(monkeypatch):
    # the guard fires before any cell is built: a lattice of exactly the
    # limit builds, one cell more is refused
    from quiverdet import quiver

    monkeypatch.setattr(quiver, "MAX_LATTICE_CELLS", 12)
    assert parse_preset("det:3,4,1").size == 12
    with pytest.raises(ValidationError, match="13 cells, more than the 12 supported"):
        parse_preset("det:13,1,1")
