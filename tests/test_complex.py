import random

import pytest

from quiverdet import (CellSet, GuardExceeded, ShellingReport, ValidationError,
                       check_vertex_decomposition_samples, codim1_membership, corners,
                       enumerate_facets, f_vector, initial_cvm, interior_faces, is_u_compatible,
                       verify_shelling)
from quiverdet.cli import parse_preset
from quiverdet.complex import _FaceSearch, _h_from_f, _h_from_interior, boundary_generator_masks
from quiverdet.cvm import SE
from quiverdet.verify import random_instance

from golden import (DOUBLE_F_TOTAL, DOUBLE_F_VECTOR, DOUBLE_INTERIOR, DOUBLE_INTERIOR_TOTAL,
                    STAR_F_TOTAL, STAR_F_VECTOR, STAR_INTERIOR, STAR_INTERIOR_TOTAL)


def test_f_vector_reference(double_instance, star_instance, single_cell):
    table = f_vector(double_instance)
    assert table.f_vector == DOUBLE_F_VECTOR and table.total == DOUBLE_F_TOTAL
    table = f_vector(star_instance)
    assert table.f_vector == STAR_F_VECTOR and table.total == STAR_F_TOTAL
    assert f_vector(single_cell).f_vector == (1, 1)


def _check_face_search(inst, admissible, base_mask=0, universe_mask=None):
    """One _FaceSearch walk against the set of admissible masks of all 2^|L|."""
    full = (1 << inst.size) - 1
    if universe_mask is None:
        universe_mask = full & ~base_mask
    seen = []

    def visit(mask, addable):
        seen.append(mask)
        both = base_mask | mask
        assert addable == sum(1 << r for r in range(inst.size)
                              if not both >> r & 1 and both | 1 << r in admissible)

    _FaceSearch(inst, base=CellSet.from_mask(inst, base_mask).cells).run(visit, universe_mask)
    assert len(seen) == len(set(seen))
    assert set(seen) == {m for m in range(full + 1)
                         if m & ~universe_mask == 0 and base_mask | m in admissible}


def test_face_search_vs_definition(single_cell, double_instance, det33):
    rng = random.Random(71)
    instances = [single_cell, double_instance]
    instances += [random_instance(rng, max_cells=12) for _ in range(20)]
    # det presets have twin blocks: rank 1, and ranks that need the staircase kernel
    instances += [det33, parse_preset("det:3,3,1"), parse_preset("det:3,4,2")]
    for inst in instances:
        full = (1 << inst.size) - 1
        admissible = {m for m in range(full + 1) if is_u_compatible(CellSet.from_mask(inst, m))}
        _check_face_search(inst, admissible)
        # the vdc-sample path: an admissible seed in a prefix, a suffix universe
        for _ in range(3):
            ell = rng.randint(0, inst.size)
            seed = rng.choice(sorted(m for m in admissible if m >> ell == 0))
            _check_face_search(inst, admissible, seed, full & ~((1 << ell) - 1))
        bad = [m for m in range(full + 1) if m not in admissible]
        if bad:
            with pytest.raises(ValidationError, match="not u-compatible"):
                _FaceSearch(inst, base=CellSet.from_mask(inst, rng.choice(bad)).cells)


def test_face_search_rejects_incompatible_base(det33):
    with pytest.raises(ValidationError, match="not u-compatible"):
        _FaceSearch(det33, base=[(1, 1, 1), (2, 2, 1), (3, 3, 1)])


def test_f_vector_guard(star_instance):
    with pytest.raises(GuardExceeded):
        f_vector(star_instance, max_cells_guard=10)
    for guard in (None, "9", 2.5, True, -1):
        with pytest.raises(ValidationError, match="cell guard"):
            f_vector(star_instance, max_cells_guard=guard)


def test_top_count_is_multiplicity():
    rng = random.Random(29)
    for _ in range(15):
        inst = random_instance(rng)
        table = f_vector(inst)
        assert len(table.counts_by_size) == inst.n_cells + 1
        assert table.counts_by_size[-1] == len(enumerate_facets(inst))


def test_interior_reference(double_instance, star_instance):
    for inst, ref, total in ((double_instance, DOUBLE_INTERIOR, DOUBLE_INTERIOR_TOTAL),
                             (star_instance, STAR_INTERIOR, STAR_INTERIOR_TOTAL)):
        table = f_vector(inst, store_faces=True)
        table = interior_faces(inst, table, enumerate_facets(inst))
        assert table.interior_by_size == ref
        assert table.interior_total == total


def _interior_by_generator_scan(table, facets):
    """The definition: a face is interior iff no boundary generator contains it."""
    gens = boundary_generator_masks(facets)
    return tuple(sum(1 for m in masks if not any(m & g == m for g in gens))
                 for masks in table.faces_by_size)


def test_interior_faces_vs_generator_scan(single_cell, det33, double_instance, star_instance):
    rng = random.Random(17)
    instances = [single_cell, det33, double_instance, star_instance]
    instances += [random_instance(rng, max_cells=rng.randint(1, 16)) for _ in range(30)]
    for inst in instances:
        facets = enumerate_facets(inst)
        table = f_vector(inst, store_faces=True)
        got = interior_faces(inst, table, facets)
        assert got.interior_by_size == _interior_by_generator_scan(table, facets), inst
        assert got.boundary_generators == len(boundary_generator_masks(facets))
        assert got._replace(interior_by_size=None, boundary_generators=None) == table


def test_interior_single_cell(single_cell):
    # the empty face is the boundary; only the facet itself is interior, which
    # forces the alternating interior expression to reproduce 1/(1-t)
    table = f_vector(single_cell, store_faces=True)
    table = interior_faces(single_cell, table, enumerate_facets(single_cell))
    assert table.interior_by_size == (0, 1)
    assert _h_from_interior(table, 1) == (1,)


def test_interior_requires_stored_faces(double_instance):
    with pytest.raises(ValidationError):
        interior_faces(double_instance, f_vector(double_instance), enumerate_facets(double_instance))


def test_codim1_membership_cases(double_instance, single_cell):
    inst = double_instance
    facets = enumerate_facets(inst)
    facet_masks = [f.mask for f in facets]
    top = facets[-1]
    rep = corners(top)
    se_cells = {r.cell for r in rep.corners if r.kind == SE and r.essential}
    assert se_cells
    for cell in se_cells:
        sub = top.remove(cell)
        members = codim1_membership(sub)
        assert len(members) == 2
        # cross-check against a direct scan of the facet list
        direct = [m for m in facet_masks if m & sub.mask == sub.mask]
        assert sorted(f.mask for f in members) == direct
    plain = next(c for c in top.cells if c not in se_cells)
    assert len(codim1_membership(top.remove(plain))) == 1
    only = enumerate_facets(single_cell)[0]
    assert codim1_membership(CellSet(single_cell)) == [only]


def test_codim1_membership_validation(double_instance):
    with pytest.raises(ValidationError):
        codim1_membership(CellSet(double_instance, [(1, 1, 1)]))
    bad = CellSet(double_instance, [(1, 1, 1), (2, 2, 1), (3, 1, 1), (1, 2, 1)])
    with pytest.raises(ValidationError, match="not u-compatible"):
        codim1_membership(bad)


def _stray_error_calls():
    """Calls on malformed input, each of which once let a TypeError or AttributeError
    out, or answered for cell sets of another instance."""
    from quiverdet import (BipartiteQuiver, ChuteMove, FaceTable, Instance, Monomial,
                           apply_inverse, apply_move, can_extend, chutable_moves, cmp_T,
                           cmp_T_sets, corner_stats, criteria_agree, export_cas, hilbert_series,
                           in_initial_ideal, max_diagonal_chain, natural_generator_count,
                           natural_generators)
    from quiverdet.quiver import build_instance
    from quiverdet.series import ALL_ROUTES, face_counts
    from quiverdet.verify import brute_maximal_facet_masks, verify_instance

    inst = parse_preset("det:3,3,1")
    table = f_vector(inst, store_faces=True)
    other = enumerate_facets(parse_preset("det:3,3,2"))
    facet, cell = initial_cvm(inst), inst.cells[0]
    monomial, move = Monomial.from_cells(inst, [cell]), chutable_moves(facet)[0]
    double = parse_preset("double:3,2,2,1,1")
    # ``arrow`` counts from 1: 0 and -1 once answered pages 3 and 2, silently
    arrows = {f"double.arrow({k!r})": lambda k=k: double.arrow(k) for k in (0, -1, 4, None)}
    # a junk field once let a stray error out of the refusal message, or was
    # not read at all; the inverse of a move also checks its rectangle now
    after = apply_move(facet, move)
    moves = {}
    for field, junk in (("removed", 5), ("removed", None), ("added", None), ("added", 2.5),
                        ("extent", 5), ("extent", []), ("extent", (2, "x")), ("extent", (9, 9))):
        bad = move._replace(**{field: junk})
        moves[f"apply_move(facet, move with {field}={junk!r})"] = lambda m=bad: apply_move(facet, m)
    for field, junk in (("added", 5), ("added", None), ("direction", "x"), ("vertex", 5),
                        ("vertex", "x"), ("extent", 5), ("extent", []), ("extent", (2, "x")),
                        ("extent", (9, 9))):
        bad = move._replace(**{field: junk})
        moves[f"apply_inverse(after, move with {field}={junk!r})"] = (
            lambda m=bad: apply_inverse(after, m))
    quiver = inst.quiver
    return {
        **arrows,
        **moves,
        "apply_move(facets[0], a move with extent [])": lambda: apply_move(
            enumerate_facets(inst)[0], ChuteMove("horizontal", "1", (3, 3, 1), (2, 2, 1), [])),
        "in_initial_ideal(inst, Monomial(5))": lambda: in_initial_ideal(inst, Monomial(5)),
        "in_initial_ideal(inst, Monomial([5]))": lambda: in_initial_ideal(inst, Monomial([5])),
        "in_initial_ideal(inst, Monomial('x'))": lambda: in_initial_ideal(inst, Monomial("x")),
        "in_initial_ideal(inst, Monomial of exponent 0)": lambda: in_initial_ideal(
            inst, Monomial((((1, 1, 1), 0),))),
        "in_initial_ideal(inst, m, facets=5, route='generators')": lambda: in_initial_ideal(
            inst, monomial, facets=5, route="generators"),
        "Instance(5, m, u)": lambda: Instance(5, inst.m, inst.u),
        "Instance(quiver, 5, u)": lambda: Instance(quiver, 5, inst.u),
        "Instance(quiver, {'1': 'x', '2': 3}, u)": lambda: Instance(quiver, {"1": "x", "2": 3},
                                                                   inst.u),
        "Instance(quiver, {}, {})": lambda: Instance(quiver, {}, {}),
        # a junk normalization report was once stored as given, or a falsy one emptied
        **{f"Instance(quiver, m, u, {junk!r})": lambda junk=junk: Instance(quiver, inst.m,
                                                                          inst.u, junk)
           for junk in (5, "x", 0, "", [])},
        "interior_faces(inst, FaceTable((1,), faces_by_size=5), facets)": lambda: interior_faces(
            inst, FaceTable((1,), faces_by_size=5), enumerate_facets(inst)),
        "interior_faces(inst, FaceTable((1,), faces_by_size=((-1,),)), facets)": (
            lambda: interior_faces(inst, FaceTable((1,), faces_by_size=((-1,),)),
                                   enumerate_facets(inst))),
        "export_cas(5)": lambda: export_cas(5),
        "export_cas(inst, version=5)": lambda: export_cas(inst, version=5),
        "list(natural_generators(5))": lambda: list(natural_generators(5)),
        "in_initial_ideal(inst, 5)": lambda: in_initial_ideal(inst, 5),
        "inst.phi(None, cell)": lambda: inst.phi(None, cell),
        "inst.phi_inv(None, 1, 1)": lambda: inst.phi_inv(None, 1, 1),
        "inst.phi_target_inv(None, 1, 1)": lambda: inst.phi_target_inv(None, 1, 1),
        "inst.phi_source_inv(None, 1, 1)": lambda: inst.phi_source_inv(None, 1, 1),
        "inst.phi_inv('1', None, 1)": lambda: inst.phi_inv("1", None, 1),
        "facet.block_points('zz')": lambda: facet.block_points("zz"),
        "facet.stats('zz')": lambda: facet.stats("zz"),
        "parse_preset(None)": lambda: parse_preset(None),
        "build_instance(None, {}, {})": lambda: build_instance(None, {}, {}),
        "cmp_T(5, 5)": lambda: cmp_T(5, 5),
        "max_diagonal_chain(5)": lambda: max_diagonal_chain(5),
        "cmp_T_sets(facet, 5)": lambda: cmp_T_sets(facet, 5),
        "apply_move(facet, 5)": lambda: apply_move(facet, 5),
        "apply_inverse(facet, 5)": lambda: apply_inverse(facet, 5),
        "natural_generator_count(5)": lambda: natural_generator_count(5),
        "corner_stats(5, cell)": lambda: corner_stats(5, cell),
        "can_extend(5, cell)": lambda: can_extend(5, cell),
        "interior_faces(inst, table, facets of det:3,3,2)": lambda: interior_faces(
            inst, table, other),
        "boundary_generator_masks(facets of two instances)": lambda: boundary_generator_masks(
            enumerate_facets(inst) + other),
        "codim1_membership(5)": lambda: codim1_membership(5),
        "interior_faces(inst, table, 5)": lambda: interior_faces(inst, table, 5),
        "interior_faces(inst, 5, [])": lambda: interior_faces(inst, 5, []),
        "interior_faces(5, table, [])": lambda: interior_faces(5, table, []),
        "f_vector(5)": lambda: f_vector(5),
        "brute_maximal_facet_masks(5)": lambda: brute_maximal_facet_masks(5),
        "boundary_generator_masks(5)": lambda: boundary_generator_masks(5),
        "boundary_generator_masks([1])": lambda: boundary_generator_masks([1]),
        "hilbert_series(5)": lambda: hilbert_series(5),
        "hilbert_series(5, routes=ALL_ROUTES)": lambda: hilbert_series(5, routes=ALL_ROUTES),
        "hilbert_series(5, routes={f_transform})": lambda: hilbert_series(
            5, routes={"f_transform"}),
        "verify_instance(5)": lambda: verify_instance(5),
        "enumerate_facets(5)": lambda: enumerate_facets(5),
        "face_counts(5)": lambda: face_counts(5),
        "initial_cvm(5)": lambda: initial_cvm(5),
        "CellSet(5)": lambda: CellSet(5),
        "CellSet.from_mask(inst, None)": lambda: CellSet.from_mask(inst, None),
        "is_u_compatible(5)": lambda: is_u_compatible(5),
        "criteria_agree(5, [])": lambda: criteria_agree(5, []),
        # every instance has a cell, so a guard below 1 once redrew forever
        "random_instance(Random(1), 0)": lambda: random_instance(random.Random(1), 0),
        "random_instance(Random(1), -1)": lambda: random_instance(random.Random(1), -1),
        "random_instance(None)": lambda: random_instance(None),
        "random_instance(Random(1), None)": lambda: random_instance(random.Random(1), None),
        # each of these once answered, or let a stray error out
        "Monomial.make(5, {})": lambda: Monomial.make(5, {}),
        "Monomial.make(5, {(1, 1, 1): 1})": lambda: Monomial.make(5, {(1, 1, 1): 1}),
        "Monomial.make(inst, 5)": lambda: Monomial.make(inst, 5),
        "Monomial.make(inst, {cell: 'x'})": lambda: Monomial.make(inst, {cell: "x"}),
        "Monomial.make(inst, {cell: True})": lambda: Monomial.make(inst, {cell: True}),
        "Monomial.make(inst, {cell: 2.0})": lambda: Monomial.make(inst, {cell: 2.0}),
        "Monomial.from_cells(5, [])": lambda: Monomial.from_cells(5, []),
        "Monomial.from_cells(inst, 5)": lambda: Monomial.from_cells(inst, 5),
        "CellSet.from_triples(inst, 5)": lambda: CellSet.from_triples(inst, 5),
        "CellSet.from_triples(inst, [5])": lambda: CellSet.from_triples(inst, [5]),
        "build_instance(quiver, None, None)": lambda: build_instance(inst.quiver, None, None),
        "build_instance(quiver, 5, 5)": lambda: build_instance(inst.quiver, 5, 5),
        "in_initial_ideal(inst, m, facets=5)": lambda: in_initial_ideal(inst, monomial, facets=5),
        "in_initial_ideal(inst, m, facets=[5])": lambda: in_initial_ideal(inst, monomial,
                                                                          facets=[5]),
        "apply_inverse(5, move)": lambda: apply_inverse(5, move),
        "BipartiteQuiver(5, ('1',), ())": lambda: BipartiteQuiver(5, ("1",), ()),
        "BipartiteQuiver(('s',), ('t',), 'x')": lambda: BipartiteQuiver(("s",), ("t",), "x"),
    }


@pytest.mark.parametrize("call", sorted(_stray_error_calls()))
def test_malformed_input_raises_validation_error(call):
    with pytest.raises(ValidationError):
        _stray_error_calls()[call]()


JUNK = (5, None, "x", [5], {}, 2.5, True, -1)


def _public_calls():
    """Per public callable on det:3,3,1, a name, the callable and valid positional arguments."""
    import inspect

    import quiverdet
    from quiverdet import BipartiteQuiver, Instance, Monomial, chutable_moves
    from quiverdet.series import ALL_ROUTES

    inst = parse_preset("det:3,3,1")
    facets = enumerate_facets(inst)
    facet, cell = initial_cvm(inst), inst.cells[0]
    move = chutable_moves(facet)[0]
    ridge = CellSet.from_mask(inst, facet.mask & facet.mask - 1)
    valid = {
        "apply_inverse": (quiverdet.apply_move(facet, move), move),
        "apply_move": (facet, move),
        "brute_maximal_facet_masks": (inst,),
        "build_instance": (inst.quiver, inst.m, inst.u, "strict"),
        "c_max": (ridge,),
        "c_min": (ridge,),
        "can_extend": (ridge, cell),
        "check_vertex_decomposition_samples": (inst, 3, 14, 1),
        "chutable_moves": (facet,),
        "cmp_T": (cell, inst.cells[1]),
        "cmp_T_sets": (facet, facets[0]),
        "codim1_membership": (ridge,),
        "corner_stats": (facet, cell),
        "corners": (facet,),
        "criteria_agree": (inst, facet.cells),
        "enumerate_facets": (inst, 1000),
        "export_cas": (inst, "m2", 5000, "v1"),
        "f_vector": (inst, 32, True),
        "hilbert_series": (inst, facets, ALL_ROUTES, 32, 1000),
        "in_initial_ideal": (inst, Monomial.from_cells(inst, [cell]), facets, "both"),
        "initial_cvm": (inst,),
        "initial_monomials": (inst,),
        "interior_faces": (inst, f_vector(inst, store_faces=True), facets),
        "is_cvm": (facet,),
        "is_u_compatible": (facet,),
        "load_instance": (inst.to_json_obj(), "normalize"),
        "max_diagonal_chain": ([(1, 1), (2, 2)],),
        "natural_generator_count": (inst,),
        "natural_generators": (inst,),
        "random_instance": (random.Random(1), 16),
        "reflect": (facet,),
        "road_map": (facet,),
        "verify_instance": (inst, 10, 1, 32, 1000),
        "verify_shelling": (facets, "SE"),
    }
    functions = {name for name in quiverdet._HOME if inspect.isfunction(getattr(quiverdet, name))}
    assert set(valid) == functions  # a new public function needs valid arguments here
    calls = [(name, getattr(quiverdet, name), args) for name, args in valid.items()]
    calls += [
        ("CellSet", CellSet, (inst, facet.cells)),
        ("CellSet.from_mask", CellSet.from_mask, (inst, facet.mask)),
        ("CellSet.from_triples", CellSet.from_triples, (inst, facet.to_triples())),
        ("BipartiteQuiver", BipartiteQuiver, tuple(inst.quiver)),
        ("Instance", Instance, (inst.quiver, inst.m, inst.u, inst.normalization)),
        ("Monomial.make", Monomial.make, (inst, {cell: 2})),
        ("Monomial.from_cells", Monomial.from_cells, (inst, [cell, cell])),
    ]
    return calls


def test_public_api_refuses_junk_arguments(monkeypatch, tmp_path):
    # every argument of every public callable, replaced in turn by junk: the
    # call returns or raises a QuiverDetError, never a stray error; the
    # working directory is empty, so no junk names a readable file
    from typing import Iterator

    from quiverdet import QuiverDetError

    monkeypatch.chdir(tmp_path)
    for name, call, args in _public_calls():
        for n in range(len(args)):
            for junk in JUNK:
                try:
                    result = call(*args[:n], junk, *args[n + 1:])
                    if isinstance(result, Iterator):
                        list(result)
                except QuiverDetError:
                    pass
                except Exception as exc:
                    raise AssertionError(f"{name} with argument {n} = {junk!r}: {exc!r}") from exc


def test_record_fields_refuse_junk():
    # each field of a valid record, replaced in turn by junk, through the
    # public functions that read it: a ChuteMove through apply_move and
    # apply_inverse, a Monomial through in_initial_ideal, a FaceTable through
    # interior_faces; the call returns or raises a QuiverDetError
    from quiverdet import (Monomial, QuiverDetError, apply_inverse, apply_move, chutable_moves,
                           in_initial_ideal)

    inst = parse_preset("det:3,3,1")
    facets = enumerate_facets(inst)
    facet = initial_cvm(inst)
    move = chutable_moves(facet)[0]
    after = apply_move(facet, move)
    records = [
        (move, lambda m: apply_move(facet, m)),
        (move, lambda m: apply_inverse(after, m)),
        (Monomial.from_cells(inst, [inst.cells[0]]), lambda m: in_initial_ideal(inst, m)),
        (f_vector(inst, store_faces=True), lambda t: interior_faces(inst, t, facets)),
    ]
    for record, call in records:
        for field in record._fields:
            for junk in JUNK:
                try:
                    call(record._replace(**{field: junk}))
                except QuiverDetError:
                    pass
                except Exception as exc:
                    raise AssertionError(
                        f"{type(record).__name__}.{field} = {junk!r}: {exc!r}") from exc


def _ridge_owners(masks):
    """Each ridge mask F - c of the masks, mapped to its owners' indices in list order.

    A set one cell short of a facet G lies in G iff it is G - c for a cell c of G.
    """
    table = {}
    for j, mask in enumerate(masks):
        for r in range(mask.bit_length()):
            if mask >> r & 1:
                table.setdefault(mask & ~(1 << r), []).append(j)
    return table


def test_every_codim1_in_one_or_two_facets():
    rng = random.Random(41)
    for _ in range(10):
        inst = random_instance(rng)
        facets = enumerate_facets(inst)
        masks = [f.mask for f in facets]
        subs = {f.mask & ~(1 << inst.rank[c]) for f in facets for c in f.cells}
        owners = _ridge_owners(masks)
        assert set(owners) == subs
        gens = boundary_generator_masks(facets)
        assert len(gens) == len(set(gens))
        boundary = set()
        for sub in subs:
            direct = [m for m in masks if m & sub == sub]
            assert 1 <= len(direct) <= 2
            assert [masks[i] for i in owners[sub]] == direct
            members = codim1_membership(CellSet.from_mask(inst, sub))
            assert sorted(f.mask for f in members) == direct
            if len(direct) == 1:
                boundary.add(sub)
        assert set(gens) == boundary
        assert boundary  # the boundary is never empty


def test_shelling_reference(double_instance):
    facets = enumerate_facets(double_instance)
    report = verify_shelling(facets)
    assert report.ok
    assert report.restriction_counts[0] == 0
    assert report.restriction_counts == tuple(corners(f).essential_se for f in facets)


def test_shelling_star(star_instance):
    assert verify_shelling(enumerate_facets(star_instance)).ok


def test_shelling_single_facet(single_cell):
    report = verify_shelling(enumerate_facets(single_cell))
    assert report.ok and report.restriction_counts == (0,)


def test_shelling_detects_bad_order(double_instance):
    facets = enumerate_facets(double_instance)
    # smallest facet first (fine), then the largest: their intersection is
    # empty, so no shared codim-1 face can cover it
    bad = [facets[0], facets[-1]] + facets[1:-1]
    report = verify_shelling(bad)
    assert not report.ok
    assert "facet 2" in report.failure
    # an out-of-place first facet trips the corner-count convention instead
    report = verify_shelling([facets[-1]] + facets[:-1])
    assert not report.ok and "facet 1" in report.failure


def _pairwise_shelling(facets, corner_kind):
    """The pairwise form: every earlier intersection lies in a shared codim-1 face."""
    if not facets:
        return ShellingReport(True, ())
    r_seq = []
    n_top = len(facets[0])
    masks = [f.mask for f in facets]
    for j, facet in enumerate(facets):
        if len(facet) != n_top:
            return ShellingReport(False, tuple(r_seq), f"facet {j + 1} has wrong cardinality")
        inters = [m & masks[j] for m in masks[:j]]
        shared = {inter for inter in inters if inter.bit_count() == n_top - 1}
        if not all(any(inter & s == inter for s in shared) for inter in inters):
            return ShellingReport(
                False, tuple(r_seq),
                f"facet {j + 1}: an earlier intersection is not inside a shared codim-1 face")
        r_seq.append(len(shared))
        rep = corners(facet)
        expected = rep.essential_se if corner_kind == "SE" else rep.essential_nw
        if len(shared) != expected:
            return ShellingReport(
                False, tuple(r_seq),
                f"facet {j + 1}: restriction count {len(shared)} != "
                f"essential {corner_kind} corners {expected}")
    return ShellingReport(True, tuple(r_seq))


def test_shelling_matches_pairwise_oracle(single_cell, det33, double_instance, star_instance):
    # the restriction-face check against the pairwise definition, on valid
    # orders and on orders that break it in each of the ways it can break
    rng = random.Random(83)
    instances = [single_cell, det33, double_instance, star_instance]
    instances += [random_instance(rng, max_cells=14) for _ in range(20)]
    kinds = ("wrong cardinality", "earlier intersection", "restriction count")
    seen = set()
    for inst in instances:
        facets = enumerate_facets(inst)
        orders = [facets, facets[::-1], rng.sample(facets, len(facets))]
        for _ in range(3):
            swapped = list(facets)
            i, k = rng.randrange(len(facets)), rng.randrange(len(facets))
            swapped[i], swapped[k] = swapped[k], swapped[i]
            orders.append(swapped)
        pick = rng.randrange(len(facets))
        orders.append(facets[:pick + 1] + [facets[pick]] + facets[pick + 1:])
        ridge = facets[-1].remove(facets[-1].cells[0])
        orders.append(facets + [ridge])
        for order in orders:
            for kind in ("SE", "NW"):
                report = verify_shelling(order, corner_kind=kind)
                assert report == _pairwise_shelling(order, kind)
                seen.add(report.ok or next(text for text in kinds if text in report.failure))
    assert seen == {True, *kinds}


def _restriction_scan_shelling(facets, corner_kind):
    """The restriction-face form: R_j by ridge owners, then a scan of the earlier facets."""
    if not facets:
        return ShellingReport(True, ())
    r_seq = []
    n_top = len(facets[0])
    masks = [f.mask for f in facets]
    ridges = _ridge_owners(masks)
    for j, facet in enumerate(facets):
        if len(facet) != n_top:
            return ShellingReport(False, tuple(r_seq), f"facet {j + 1} has wrong cardinality")
        mj = masks[j]
        restriction = sum(1 << r for r in range(mj.bit_length())
                          if mj >> r & 1 and ridges[mj & ~(1 << r)][0] < j)
        if any(m & restriction == restriction for m in masks[:j]):
            return ShellingReport(
                False, tuple(r_seq),
                f"facet {j + 1}: an earlier intersection is not inside a shared codim-1 face")
        rj = restriction.bit_count()
        r_seq.append(rj)
        rep = corners(facet)
        expected = rep.essential_se if corner_kind == "SE" else rep.essential_nw
        if rj != expected:
            return ShellingReport(
                False, tuple(r_seq),
                f"facet {j + 1}: restriction count {rj} != "
                f"essential {corner_kind} corners {expected}")
    return ShellingReport(True, tuple(r_seq))


def test_shelling_matches_restriction_scan(single_cell, det33, double_instance, star_instance):
    # the walk's restriction faces and the owner-bitset containment against
    # the definition: ridge owners and a scan of every earlier facet
    rng = random.Random(89)
    instances = [single_cell, det33, double_instance, star_instance]
    instances += [random_instance(rng, max_cells=14) for _ in range(20)]
    for inst in instances:
        facets = enumerate_facets(inst)
        orders = [facets, facets[::-1], rng.sample(facets, len(facets))]
        swapped = list(facets)
        i, k = rng.randrange(len(facets)), rng.randrange(len(facets))
        swapped[i], swapped[k] = swapped[k], swapped[i]
        pick = rng.randrange(len(facets))
        orders += [swapped, facets[:pick + 1] + [facets[pick]] + facets[pick + 1:],
                   facets + [facets[-1].remove(facets[-1].cells[0])]]
        for order in orders:
            for kind in ("SE", "NW"):
                assert verify_shelling(order, corner_kind=kind) == \
                    _restriction_scan_shelling(order, kind)


def test_shelling_rejects_mixed_instances(det33, double_instance):
    # the owner bitsets are indexed by one instance's cell ranks
    mixed = enumerate_facets(det33)[:2] + enumerate_facets(double_instance)[:1]
    with pytest.raises(ValidationError, match="one instance"):
        verify_shelling(mixed)
    with pytest.raises(ValidationError, match="one instance"):
        verify_shelling(mixed[::-1])


def test_shelling_decreasing_order_also_valid(double_instance, star_instance):
    # both scan directions shell; descending restriction counts pair with NW corners
    for inst in (double_instance, star_instance):
        facets = list(reversed(enumerate_facets(inst)))
        report = verify_shelling(facets, corner_kind="NW")
        assert report.ok
        assert report.restriction_counts == tuple(corners(f).essential_nw for f in facets)


def test_descending_order_is_also_decreasing_lex(double_instance):
    # the two descending-flavored orders (set order from the largest cell down,
    # lex from the smallest position up with the larger cell first) coincide
    # on this example, so the reference facet numbering matches both
    facets = enumerate_facets(double_instance)
    descending = list(reversed(facets))
    rank = double_instance.rank

    def declex_key(facet):
        return tuple(-rank[c] for c in facet.cells)

    assert sorted(descending, key=declex_key) == descending


def test_hilbert_identity_coefficientwise(double_instance, star_instance):
    rng = random.Random(59)
    instances = [double_instance, star_instance] + [random_instance(rng) for _ in range(8)]
    for inst in instances:
        table = f_vector(inst, store_faces=True)
        table = interior_faces(inst, table, enumerate_facets(inst))
        assert _h_from_f(table, inst.n_cells) == _h_from_interior(table, inst.n_cells)


def test_vdc_samples(double_instance):
    report = check_vertex_decomposition_samples(double_instance, sample_budget=25, seed=8)
    assert report.ok and len(report.samples) == 25
    # the two degenerate prefixes are always pure
    whole = check_vertex_decomposition_samples(double_instance, sample_budget=1, seed=0)
    assert whole.ok


def test_vdc_extremes(double_instance):
    from quiverdet.complex import _FaceSearch

    inst = double_instance
    # empty prefix: purity of the whole complex (all facets share one size)
    sizes = []
    _FaceSearch(inst).run(lambda mask, addable: sizes.append(mask.bit_count()) if addable == 0 else None)
    assert set(sizes) == {inst.n_cells}
    # full prefix with a facet as seed: only the empty completion remains
    facet = initial_cvm(inst)
    search = _FaceSearch(inst, base=facet.cells)
    out = []
    search.run(lambda mask, addable: out.append(mask), universe_mask=0)
    assert out == [0]


def test_vdc_guard(star_instance, double_instance):
    with pytest.raises(GuardExceeded):
        check_vertex_decomposition_samples(star_instance, size_guard=14)
    for budget in (None, 2.5, "3", False, -1):
        with pytest.raises(ValidationError, match="sample_budget"):
            check_vertex_decomposition_samples(double_instance, sample_budget=budget)
    for guard in (None, "14", 14.0):
        with pytest.raises(ValidationError, match="cell guard"):
            check_vertex_decomposition_samples(double_instance, size_guard=guard)
    assert check_vertex_decomposition_samples(double_instance, sample_budget=0).samples == ()
    # a seed that random rejects, as verify_instance reports it
    for seed in ([1], {2: 3}):
        with pytest.raises(ValidationError, match="seed must be None"):
            check_vertex_decomposition_samples(double_instance, seed=seed)


def test_vdc_random_instances():
    rng = random.Random(67)
    for _ in range(6):
        inst = random_instance(rng, max_cells=12)
        assert check_vertex_decomposition_samples(inst, sample_budget=12,
                                                  seed=rng.randrange(2 ** 30)).ok
