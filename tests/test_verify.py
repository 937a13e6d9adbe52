import random

import pytest

from quiverdet import (CellSet, ValidationError, corner_stats, criteria_agree, enumerate_facets,
                       is_u_compatible)
from quiverdet.verify import random_instance


def criteria_oracle(instance, cells):
    """Definition level: the three facet criteria from one ``corner_stats`` call per cell."""
    cs = CellSet(instance, cells)
    by_card = len(cs) == instance.n_cells and is_u_compatible(cs)
    by_raw = True
    by_padded = True
    for cell in instance.cells:
        st = corner_stats(cs, cell)
        member = cell in cs
        ut = instance.vertex[instance.arrow(cell.k).target].u
        us = instance.vertex[instance.arrow(cell.k).source].u
        if member != (st.nw + st.se < ut and st.nw_src + st.se_src < us):
            by_raw = False
        tsum = st.nw_padded + st.se_padded
        ssum = st.nw_src_padded + st.se_src_padded
        if tsum not in (ut - 1, ut) or ssum not in (us - 1, us):
            by_padded = False
        elif member != (tsum == ut - 1 and ssum == us - 1):
            by_padded = False
    return by_card, by_raw, by_padded, by_card == by_raw == by_padded


def test_criteria_agree_vs_oracle(double_instance, star_instance, det33, single_cell):
    rng = random.Random(37)
    instances = [double_instance, star_instance, det33, single_cell]
    instances += [random_instance(rng) for _ in range(30)]
    facet_hits = 0
    for inst in instances:
        facets = enumerate_facets(inst)
        subsets = [list(f.cells) for f in facets[:20]]
        subsets += [list(f.cells)[1:] for f in facets[:5]]  # codim-1 faces
        for density in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for _ in range(4):
                subsets.append([c for c in inst.cells if rng.random() < density])
        picks = [rng.choice(inst.cells) for _ in range(inst.size)]
        subsets.append(picks + picks[::2])  # repeated cells count once
        for cells in subsets:
            got = criteria_agree(inst, cells)
            assert got == criteria_oracle(inst, cells), (inst, cells)
            facet_hits += got[0]
    assert facet_hits >= len(instances)  # the facet side of every route is reached


def test_criteria_agree_validates_cells(det33):
    for bad in ([(4, 1, 1)], [(1, 1, 2)], [(1, 1)], [(1, 1, 1), (1.0, 2, 1)]):
        with pytest.raises(ValidationError):
            criteria_agree(det33, bad)


def test_facet_check_catches_non_facet(monkeypatch, double_instance):
    # a set of N cells that is not admissible, slipped into the enumeration
    import quiverdet.verify as verify

    inst = double_instance
    facets = enumerate_facets(inst)
    fake = CellSet.from_mask(inst, (1 << inst.n_cells) - 1)
    assert len(fake) == inst.n_cells and not is_u_compatible(fake)
    assert not verify._membership_criterion_holds(fake)
    names = [c.name for c in verify.verify_instance(inst, subset_trials=20, seed=3).checks]
    monkeypatch.setattr(verify, "enumerate_facets",
                        lambda instance, facet_cap: [*facets[:-1], fake])
    report = verify.verify_instance(inst, subset_trials=20, seed=3)
    assert [c.name for c in report.checks] == names
    assert not {c.name: c.ok for c in report.checks}["facet-cardinality"]
