"""Core model: groupoid laws, layer laws, partitions, derived laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typoid as T
from typoid.model import EquivalenceLayer, FiniteGroupoid, Typoid

from corpus import full_stock
from small_models import family, naive_associativity, naive_entries, naive_typ4_estimate


def z2_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid(
        term_count=1,
        path_src=(0, 0),
        path_dst=(0, 0),
        refl=(0,),
        comp={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        inv=(0, 1),
    )


def test_one_term_refl_only_groupoid_valid():
    g = T.discrete_groupoid(1)
    report = T.validate_groupoid(g)
    assert report.valid and not report.violations


def test_z2_groupoid_all_law_instances_by_hand():
    g = z2_groupoid()
    comp, inv, refl = g.comp, g.inv, g.refl[0]
    # oracle: spell out every unit and inverse instance of the two paths
    for p in (0, 1):
        assert comp[(refl, p)] == p
        assert comp[(p, refl)] == p
        assert comp[(p, inv[p])] == refl
        assert comp[(inv[p], p)] == refl
    # and all eight associativity instances
    for p in (0, 1):
        for q in (0, 1):
            for r in (0, 1):
                assert comp[(comp[(p, q)], r)] == comp[(p, comp[(q, r)])]
    report = T.validate_groupoid(g)
    assert report.valid
    assert report.law_counts["Groupoid"] == 8 + 8


def test_bad_inverse_composite_reported():
    # two terms, a path p: 0 -> 1 whose inverse composite is a loop q != refl
    g = FiniteGroupoid(
        term_count=2,
        path_src=(0, 1, 0, 1, 0),
        path_dst=(0, 1, 1, 0, 0),
        refl=(0, 1),
        comp={
            (0, 0): 0, (1, 1): 1,
            (0, 2): 2, (2, 1): 2, (1, 3): 3, (3, 0): 3,
            (0, 4): 4, (4, 0): 4,
            (2, 3): 4,  # p . inv(p) = q, the broken entry
            (3, 2): 1,
            (4, 4): 0,
            (4, 2): 2, (3, 4): 3,
        },
        inv=(0, 1, 3, 2, 4),
    )
    report = T.validate_groupoid(g)
    assert not report.valid
    hits = [v for v in report.violations if v.law == "Groupoid" and v.witness == (2,)]
    assert hits, report.violations


def test_malformed_tables_reported_not_raised():
    g = FiniteGroupoid(
        term_count=1,
        path_src=(0, 0),
        path_dst=(0, 0),
        refl=(0,),
        comp={(0, 0): 0, (0, 1): 1, (1, 0): 1},  # (1, 1) missing
        inv=(0, 1),
    )
    report = T.validate_groupoid(g)
    assert not report.valid
    assert any(v.law == "Bookkeeping" and v.witness == (1, 1) for v in report.violations)

    bad = FiniteGroupoid(
        term_count=1,
        path_src=(0, 0),
        path_dst=(0, 0),
        refl=(0,),
        comp={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 7},
        inv=(0, 9),
    )
    report = T.validate_groupoid(bad)
    assert not report.valid
    assert all(v.law in ("Bookkeeping", "Groupoid") for v in report.violations)


def test_unit_typoid_valid():
    report = T.validate_typoid(T.unit_typoid())
    assert report.valid


def test_equality_typoid_valid_for_every_valid_groupoid():
    for g in (T.discrete_groupoid(1), T.discrete_groupoid(3), z2_groupoid(),
              T.codiscrete_groupoid(2), T.cyclic_groupoid(3)):
        assert T.validate_typoid(T.equality_typoid(g)).valid


def test_unit_absorption_outside_cell_is_typ1_violation():
    # star(eqv, e) = eqv although e sits in a different cell
    layer = EquivalenceLayer(
        term_count=1,
        edge_src=(0, 0),
        edge_dst=(0, 0),
        eqv=(0,),
        star={(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0},
        einv=(0, 1),
        cell=(0, 1),
    )
    t = Typoid(name="bad", base=T.discrete_groupoid(1), layer=layer, idtoeqv=(0,))
    report = T.validate_typoid(t)
    assert not report.valid
    assert any(v.law == "Typ1" and v.witness == (1,) for v in report.violations)


def test_cells_equal():
    two = T.twoedge_typoid()
    eqv, extra = two.layer.eqv[0], 1
    assert T.cells_equal(two, eqv, eqv)
    assert not T.cells_equal(two, eqv, extra)
    tr = T.truncate(T.equality_typoid(T.codiscrete_groupoid(2), name="prop2"))
    for x in range(2):
        for y in range(2):
            hom = tr.layer.hom(x, y)
            for e in hom:
                for d in hom:
                    assert T.cells_equal(tr, e, d)


def test_cells_equal_hom_mismatch_is_error():
    bd = T.equality_typoid(T.discrete_groupoid(2), name="bool_disc")
    with pytest.raises(ValueError):
        T.cells_equal(bd, bd.layer.eqv[0], bd.layer.eqv[1])


def test_derived_laws_unit():
    assert T.derived_laws(T.unit_typoid()).valid


def test_derived_laws_eq_z2_by_hand():
    t = T.equality_typoid(z2_groupoid(), name="eq_z2")
    layer = t.layer
    # exhaustive over the two edges, straight from the tables
    for e in (0, 1):
        assert layer.cell[layer.einv[layer.einv[e]]] == layer.cell[e]
    assert layer.cell[layer.einv[layer.eqv[0]]] == layer.cell[layer.eqv[0]]
    assert T.derived_laws(t).valid


def test_derived_laws_hold_corpus_wide():
    for name, t in full_stock().items():
        assert T.validate_typoid(t).valid, name
        assert T.derived_laws(t).valid, name


def test_validation_order_independent():
    def build(reverse: bool) -> Typoid:
        comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        star = dict(comp)
        if reverse:
            comp = dict(reversed(list(comp.items())))
            star = dict(reversed(list(star.items())))
        base = FiniteGroupoid(1, (0, 0), (0, 0), (0,), comp, (0, 1))
        layer = EquivalenceLayer(1, (0, 0), (0, 0), (0,), star, (0, 1), (0, 0))
        return Typoid(name="t", base=base, layer=layer, idtoeqv=(0, 1))

    assert T.validate_typoid(build(False)) == T.validate_typoid(build(True))


def test_invalid_reports_are_order_independent():
    def build(reverse: bool) -> FiniteGroupoid:
        comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}  # broken
        if reverse:
            comp = dict(reversed(list(comp.items())))
        return FiniteGroupoid(1, (0, 0), (0, 0), (0,), comp, (0, 1))

    assert T.validate_groupoid(build(False)) == T.validate_groupoid(build(True))


def test_typ3_instrumentation_matches_combinatorics():
    for name, t in full_stock().items():
        layer = t.layer
        expected = 0
        n = t.term_count
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    for w in range(n):
                        expected += (
                            len(layer.hom(x, y))
                            * len(layer.hom(y, z))
                            * len(layer.hom(z, w))
                        )
        report = T.validate_typoid(t)
        assert report.law_counts["Typ3"] == expected, name


def test_zero_term_typoid_valid_and_vacuous():
    t = Typoid(
        name="empty",
        base=FiniteGroupoid(0, (), (), (), {}, ()),
        layer=EquivalenceLayer(0, (), (), (), {}, (), ()),
        idtoeqv=(),
    )
    report = T.validate_typoid(t)
    assert report.valid
    assert T.derived_laws(t).valid


def test_budget_limit_raises():
    t = full_stock()["prod_prop2_prop2"]
    with pytest.raises(T.ResourceLimitError):
        T.validate_typoid(t, T.Budget(limit=10))


def test_budget_reads_environment(monkeypatch):
    monkeypatch.setenv("TYPOID_MAX_CHECKS", "10")
    t = full_stock()["prod_prop2_prop2"]
    with pytest.raises(T.ResourceLimitError, match="TYPOID_MAX_CHECKS"):
        T.validate_typoid(t)
    monkeypatch.setenv("TYPOID_MAX_CHECKS", "1000000")
    assert T.validate_typoid(t).valid


def test_cell_partition_normalizes_to_least_member():
    part = T.CellPartition([3, 5, 9])
    part.union(9, 5)
    assert part.labels() == {3: 3, 5: 5, 9: 5}
    part.union(5, 3)
    assert part.labels() == {3: 3, 5: 3, 9: 3}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_derived_laws_hold_for_random_valid_structures(seed):
    fam = family()
    t = fam[seed % len(fam)]
    assert T.derived_laws(t).valid


def _single_row_mutants(t: Typoid, i: int):
    """t itself, then one comp and one star row redirected and dropped."""
    yield t
    base, layer = t.base, t.layer
    if not base.comp:
        return
    comp_keys, star_keys = sorted(base.comp), sorted(layer.star)
    key = comp_keys[i % len(comp_keys)]
    for comp in (
        {**base.comp, key: (base.comp[key] + 1) % base.path_count},
        {k: v for k, v in base.comp.items() if k != key},
    ):
        g = FiniteGroupoid(base.term_count, base.path_src, base.path_dst, base.refl, comp, base.inv)
        yield Typoid(t.name, g, layer, t.idtoeqv)
    key = star_keys[i % len(star_keys)]
    for star in (
        {**layer.star, key: (layer.star[key] + 1) % layer.edge_count},
        {k: v for k, v in layer.star.items() if k != key},
    ):
        lay = EquivalenceLayer(
            layer.term_count, layer.edge_src, layer.edge_dst, layer.eqv, star, layer.einv, layer.cell
        )
        yield Typoid(t.name, base, lay, t.idtoeqv)


def test_indexed_associativity_matches_brute_force():
    """Groupoid and Typ3 agree with a loop over every triple of ids on the
    violations, the law counts and the budget spent."""
    fam = family()
    checked = 0
    for i in range(0, len(fam), 7):
        for t in _single_row_mutants(fam[i], i):
            base, layer = t.base, t.layer
            g_budget = T.Budget(10**9)
            g_report = T.validate_groupoid(base, g_budget)
            t_budget = T.Budget(10**9)
            t_report = T.validate_typoid(t, t_budget)

            good = naive_entries(base.comp, base.path_src, base.path_dst)
            unit_inverse = 0
            for p in range(base.path_count):
                x, y, inv = base.path_src[p], base.path_dst[p], base.inv[p]
                for pair in ((base.refl[x], p), (p, base.refl[y]), (p, inv), (inv, p)):
                    unit_inverse += pair in good
            triples, instances, failing = naive_associativity(base.comp, base.path_src, base.path_dst)
            assert g_report.law_counts["Groupoid"] == unit_inverse + instances
            assert g_budget.spent == unit_inverse + triples
            assert [v.witness for v in g_report.violations if v.law == "Groupoid" and len(v.witness) == 3] == failing
            assert t_report.law_counts["Groupoid"] == g_report.law_counts["Groupoid"]

            triples, instances, failing = naive_associativity(
                layer.star, layer.edge_src, layer.edge_dst, layer.cell
            )
            counts = t_report.law_counts
            assert counts["Typ3"] == instances
            assert [v.witness for v in t_report.violations if v.law == "Typ3"] == failing
            assert t_budget.spent == (
                g_budget.spent
                + counts["Partition"] + counts["Typ1"] + counts["Typ2"] + triples
                + naive_typ4_estimate(layer) + counts["IdtoEqv"]
            )
            checked += 1
    assert checked > 4 * len(range(0, len(fam), 7))
