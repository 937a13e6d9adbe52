import random
from math import comb

import pytest

from quiverdet import (CellSet, GuardExceeded, Monomial, ValidationError, enumerate_facets,
                       export_cas, in_initial_ideal, initial_cvm, initial_monomials,
                       is_u_compatible, natural_generator_count, natural_generators)
from quiverdet.cli import parse_preset
from quiverdet.verify import random_instance


@pytest.fixture(scope="module")
def cube222():
    return parse_preset("double:2,2,2,1,1")


def test_generator_counts(cube222, star_instance, double_instance):
    # binomial check: one minor per (row set, column set) pair per block
    assert natural_generator_count(cube222) == comb(2, 2) * comb(4, 2) + comb(4, 2) * comb(2, 2)
    assert natural_generator_count(cube222) == 12
    assert natural_generator_count(star_instance) == 3 * 3 + comb(3, 3) * comb(6, 3)
    assert natural_generator_count(star_instance) == 29
    assert len(list(natural_generators(double_instance))) == natural_generator_count(double_instance)


def test_degenerate_block_has_no_generators():
    inst = parse_preset("det:1,1,1")
    assert natural_generator_count(inst) == 0
    assert list(natural_generators(inst)) == []
    assert list(initial_monomials(inst)) == []


def test_streams_run_in_lockstep(cube222, star_instance):
    for inst in (cube222, star_instance):
        gens = list(natural_generators(inst))
        monos = list(initial_monomials(inst))
        assert len(gens) == len(monos)
        for spec, mono in zip(gens, monos):
            n = len(spec.rows)
            diag = {spec.cells[t][t] for t in range(n)}
            assert set(mono.support) == diag
            assert mono.squarefree


def test_lead_monomials_are_minimal_nonfaces(cube222, double_instance):
    for inst in (cube222, double_instance):
        for mono in initial_monomials(inst):
            support = CellSet(inst, mono.support)
            assert not is_u_compatible(support)
            for cell in support.cells:
                assert is_u_compatible(support.remove(cell))


def test_lead_monomials_exhaust_minimal_nonfaces(cube222):
    # every minimal inadmissible set arises as the support of a lead monomial
    supports = {CellSet(cube222, mono.support).mask for mono in initial_monomials(cube222)}
    minimal = set()
    for bits in range(1, 1 << cube222.size):
        cs = CellSet.from_mask(cube222, bits)
        if is_u_compatible(cs):
            continue
        if all(is_u_compatible(cs.remove(c)) for c in cs.cells):
            minimal.add(bits)
    assert supports == minimal


def test_membership_examples(cube222, double_instance):
    lead = Monomial.from_cells(cube222, [(1, 1, 1), (2, 2, 1)])
    assert in_initial_ideal(cube222, lead) is True
    single = Monomial.from_cells(cube222, [(1, 1, 1)])
    assert in_initial_ideal(cube222, single) is False
    facet = initial_cvm(double_instance)
    inside = Monomial.from_cells(double_instance, facet.cells)
    assert in_initial_ideal(double_instance, inside) is False


def test_membership_reduces_to_support(cube222):
    rng = random.Random(19)
    facets = enumerate_facets(cube222)
    for _ in range(50):
        cells = [c for c in cube222.cells if rng.random() < 0.5]
        if not cells:
            continue
        powered = Monomial.make(cube222, {c: rng.randint(1, 3) for c in cells})
        flat = Monomial.from_cells(cube222, cells)
        assert in_initial_ideal(cube222, powered, facets=facets) == \
            in_initial_ideal(cube222, flat, facets=facets)


def test_membership_routes_exhaustive_small():
    inst = parse_preset("det:2,2,1")
    facets = enumerate_facets(inst)
    for bits in range(1 << inst.size):
        mono = Monomial.from_cells(inst, CellSet.from_mask(inst, bits).cells)
        in_initial_ideal(inst, mono, facets=facets, route="both")  # raises on disagreement


def test_monomial_validation(cube222):
    with pytest.raises(ValidationError):
        Monomial.make(cube222, {(1, 1, 1): 0})
    with pytest.raises(ValidationError):
        Monomial.from_cells(cube222, [(9, 9, 9)])


def test_export_counts_and_determinism(cube222, double_instance, star_instance):
    text = export_cas(cube222, flavor="m2")
    assert "8 variables, 12 generators" in text.splitlines()[0]
    assert text.count("x_") > 0
    assert text == export_cas(cube222, flavor="m2")  # byte-stable

    text = export_cas(double_instance, flavor="m2")
    assert "12 variables" in text.splitlines()[0]

    text = export_cas(star_instance, flavor="singular")
    assert "18 variables, 29 generators" in text.splitlines()[0]
    assert text.splitlines()[1].startswith("ring R = 0, (")


def test_export_m2_structure(cube222):
    lines = export_cas(cube222, flavor="m2").splitlines()
    assert lines[1].startswith("R = QQ[x_1_1_1, x_1_2_1, ")
    assert lines[1].endswith("MonomialOrder => Lex];")
    assert lines[2] == "I = ideal("
    body = [l.strip().rstrip(",") for l in lines[3:15]]
    assert body[0] == "x_1_1_1*x_2_2_1-x_1_2_1*x_2_1_1"
    assert lines[-2] == "print toString inI;"
    assert lines[-1] == "print toString hilbertSeries(comodule I, Reduce => true);"


def test_export_lead_terms_are_diagonals(cube222):
    # first monomial of every emitted polynomial is the diagonal product
    lines = export_cas(cube222, flavor="m2").splitlines()
    gens = [l.strip().rstrip(",") for l in lines[3:15]]
    diagonals = [frozenset(f"x_{c.i}_{c.j}_{c.k}" for c in mono.support)
                 for mono in initial_monomials(cube222)]
    heads = [frozenset(g.split("-")[0].split("+")[0].split("*")) for g in gens]
    assert heads == diagonals


def test_export_cap(star_instance):
    with pytest.raises(GuardExceeded):
        export_cas(star_instance, generator_cap=5)
    # a malformed cap is a ValidationError, never a stray TypeError or a guard
    for bad in ("x", None, 2.5, True, -1):
        with pytest.raises(ValidationError, match="generator_cap must be an int >= 0"):
            export_cas(star_instance, generator_cap=bad)
    count = natural_generator_count(star_instance)
    assert export_cas(star_instance, generator_cap=count) == export_cas(star_instance)
    with pytest.raises(GuardExceeded, match=f"{count} generators exceed the cap {count - 1}"):
        export_cas(star_instance, generator_cap=count - 1)


def test_route_agreement_random_instances():
    rng = random.Random(73)
    for _ in range(10):
        inst = random_instance(rng, max_cells=10)
        facets = enumerate_facets(inst)
        for bits in range(1 << inst.size):
            mono = Monomial.from_cells(inst, CellSet.from_mask(inst, bits).cells)
            in_initial_ideal(inst, mono, facets=facets, route="both")
