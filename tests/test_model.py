"""Core model: groupoid laws, layer laws, partitions, derived laws."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typoid as T
from typoid.model import EquivalenceLayer, FiniteGroupoid, Typoid

from corpus import full_stock
from small_models import (
    cells_equal,
    derived_laws,
    family,
    naive_associativity,
    naive_entries,
    naive_typ4_estimate,
    q_typoid,
    relabel,
    same_hom_redirects,
)


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


def test_level_classes_keep_their_fields_repr_and_replace():
    # the benchmark's workloads and tools/tree_diff.py rebuild both classes by these names
    assert [f.name for f in dataclasses.fields(FiniteGroupoid)] == [
        "term_count", "path_src", "path_dst", "refl", "comp", "inv",
    ]
    assert [f.name for f in dataclasses.fields(EquivalenceLayer)] == [
        "term_count", "edge_src", "edge_dst", "eqv", "star", "einv", "cell",
    ]
    t = T.equality_typoid(T.cyclic_groupoid(3))
    base, layer = t.base, t.layer
    # each class reads its own fields as a level; paths are singleton cells
    assert (base.src, base.dst, base.unit, base.table, base.cell) == (
        base.path_src, base.path_dst, base.refl, base.comp, range(3)
    )
    assert (layer.src, layer.dst, layer.unit, layer.table, layer.inv) == (
        layer.edge_src, layer.edge_dst, layer.eqv, layer.star, layer.einv
    )
    for level in (base, layer):
        with pytest.raises(AttributeError):
            level.src = ()
        fields = ", ".join(f"{f.name}={getattr(level, f.name)!r}" for f in dataclasses.fields(level))
        assert repr(level) == f"{type(level).__name__}({fields})"
    # one entry redirected: 1·1 is 2 in Z3, not 0
    for changed in (
        dataclasses.replace(t, base=dataclasses.replace(base, comp={**base.comp, (1, 1): 0})),
        dataclasses.replace(t, layer=dataclasses.replace(layer, star={**layer.star, (1, 1): 0})),
    ):
        assert not T.validate_typoid(changed).valid


def test_cells_equal():
    two = T.twoedge_typoid()
    eqv, extra = two.layer.eqv[0], 1
    assert cells_equal(two, eqv, eqv)
    assert not cells_equal(two, eqv, extra)
    tr = T.truncate(T.equality_typoid(T.codiscrete_groupoid(2), name="prop2"))
    for x in range(2):
        for y in range(2):
            hom = tr.layer.hom(x, y)
            for e in hom:
                for d in hom:
                    assert cells_equal(tr, e, d)


def test_cells_equal_hom_mismatch_is_error():
    bd = T.equality_typoid(T.discrete_groupoid(2), name="bool_disc")
    with pytest.raises(ValueError):
        cells_equal(bd, bd.layer.eqv[0], bd.layer.eqv[1])


def test_derived_laws_unit():
    assert derived_laws(T.unit_typoid()).valid


def test_derived_laws_eq_z2_by_hand():
    t = T.equality_typoid(z2_groupoid(), name="eq_z2")
    layer = t.layer
    # exhaustive over the two edges, straight from the tables
    for e in (0, 1):
        assert layer.cell[layer.einv[layer.einv[e]]] == layer.cell[e]
    assert layer.cell[layer.einv[layer.eqv[0]]] == layer.cell[layer.eqv[0]]
    assert derived_laws(t).valid


def test_derived_laws_hold_corpus_wide():
    for name, t in full_stock().items():
        assert T.validate_typoid(t).valid, name
        assert derived_laws(t).valid, name


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
    assert derived_laws(t).valid


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
    assert derived_laws(t).valid


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


def _assert_matches_brute_force(t: Typoid) -> None:
    """Groupoid and Typ3 agree with a loop over every triple of ids on the
    violations, the law counts and the budget spent."""
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


def test_indexed_associativity_matches_brute_force():
    """Groupoid and Typ3 agree with a loop over every triple of ids on the
    violations, the law counts and the budget spent."""
    fam = family()
    checked = 0
    for i in range(0, len(fam), 7):
        for t in _single_row_mutants(fam[i], i):
            _assert_matches_brute_force(t)
            checked += 1
    assert checked > 4 * len(range(0, len(fam), 7))


def test_associativity_matches_brute_force_on_redirects():
    """The same agreement when a single entry is redirected inside its
    hom-set.  Such tables stay clean, so where units, inverses and Typ4
    still hold, a failing generator must fall back to the exhaustive loop
    for the witnesses."""
    fam = family()
    stock = [t for t in full_stock().values() if any(
        len(level.hom(x, y)) >= 2 for level in (t.base, t.layer)
        for x in range(t.term_count) for y in range(t.term_count)
    )]
    fallbacks = 0
    for i, t in enumerate([*fam[::7], *stock]):
        for m in same_hom_redirects(t, i):
            _assert_matches_brute_force(m)
            laws = {v.law for v in T.validate_typoid(m, T.Budget(10**9)).violations}
            fallbacks += bool(laws) and laws <= {"Groupoid", "Typ3"}
    assert fallbacks > 100


def test_failing_generator_lists_every_failing_triple():
    """Z4 with comp(1,2) redirected: the table is clean and its generator 1
    fails, so every failing triple is listed, in order."""
    g = T.cyclic_groupoid(4)
    budget = T.Budget(10**9)
    report = T.validate_groupoid(dataclasses.replace(g, comp={**g.comp, (1, 2): 0}), budget)
    assert [(v.law, v.witness, v.detail) for v in report.violations] == [
        ("Groupoid", (1, 1, 1), "comp(comp(1,1),1) = 3 but comp(1,comp(1,1)) = 0"),
        ("Groupoid", (1, 1, 2), "comp(comp(1,1),2) = 0 but comp(1,comp(1,2)) = 1"),
        ("Groupoid", (1, 2, 1), "comp(comp(1,2),1) = 1 but comp(1,comp(2,1)) = 0"),
        ("Groupoid", (1, 2, 2), "comp(comp(1,2),2) = 2 but comp(1,comp(2,2)) = 1"),
        ("Groupoid", (1, 2, 3), "comp(comp(1,2),3) = 3 but comp(1,comp(2,3)) = 2"),
        ("Groupoid", (1, 3, 3), "comp(comp(1,3),3) = 3 but comp(1,comp(3,3)) = 0"),
        ("Groupoid", (2, 1, 2), "comp(comp(2,1),2) = 1 but comp(2,comp(1,2)) = 2"),
        ("Groupoid", (2, 3, 2), "comp(comp(2,3),2) = 0 but comp(2,comp(3,2)) = 3"),
        ("Groupoid", (3, 1, 2), "comp(comp(3,1),2) = 2 but comp(3,comp(1,2)) = 3"),
        ("Groupoid", (3, 2, 2), "comp(comp(3,2),2) = 0 but comp(3,comp(2,2)) = 3"),
    ]
    assert report.law_counts == {"Groupoid": 80}
    assert budget.spent == 80


def test_generator_check_needs_congruence():
    """A layer whose star breaks Typ4: its one generator, edge 1, passes,
    yet two triples fail Typ3.  Without congruence the middles need not be
    closed under star, so both must still be listed."""
    base = FiniteGroupoid(1, (0,), (0,), (0,), {(0, 0): 0}, (0,))
    star = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2, (1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): 2}
    t = Typoid("t", base, EquivalenceLayer(1, (0,) * 3, (0,) * 3, (0,), star, (0, 2, 1), (0, 1, 1)), (0,))
    report = T.validate_typoid(t, T.Budget(10**9))
    assert [v.witness for v in report.violations if v.law == "Typ3"] == [(1, 2, 2), (2, 2, 1)]
    assert {v.law for v in report.violations} == {"Typ3", "Typ4"}
    assert report.law_counts == {
        "Groupoid": 5, "Partition": 5, "Typ1": 6, "Typ2": 6, "Typ3": 27, "Typ4": 25, "IdtoEqv": 2
    }
    _assert_matches_brute_force(t)


def test_generator_check_needs_readable_units():
    """Term 0's refl is path 2, a loop at term 1, and path 0's inverse has
    the wrong endpoints: both are Bookkeeping reports, and the unit and
    inverse laws of path 0 are never evaluated.  Generators picked from
    these units would be paths 0 and 3, which pass, yet two triples around
    path 2 fail, and both must be listed."""
    comp = {(0, 0): 0, (1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 2, (3, 1): 3, (2, 2): 1, (2, 3): 2, (3, 2): 2, (3, 3): 1}
    budget = T.Budget(10**9)
    report = T.validate_groupoid(FiniteGroupoid(2, (0, 1, 1, 1), (0, 1, 1, 1), (2, 1), comp, (1, 1, 2, 3)), budget)
    assert [(v.law, v.witness) for v in report.violations] == [
        ("Bookkeeping", (0, 1)), ("Bookkeeping", (0, 2)), ("Groupoid", (2, 2, 3)), ("Groupoid", (3, 2, 2)),
    ]
    assert report.law_counts == {"Groupoid": 40}
    assert budget.spent == 40


def test_law_counts_keep_law_order_and_match_the_budget():
    """Every stock structure reports its law counts in law order, and a
    valid structure spends exactly the instances it counts."""
    for name, t in full_stock().items():
        budget = T.Budget(10**9)
        report = T.validate_typoid(t, budget)
        assert list(report.law_counts) == [
            "Groupoid", "Partition", "Typ1", "Typ2", "Typ3", "Typ4", "IdtoEqv"
        ], name
        assert budget.spent == report.checks, name


# ---------------------------------------------------------------------------
# every message of the table checks and the level laws, pinned in full

_SRC, _DST = (0, 1, 0, 1), (0, 1, 1, 0)  # the ids of codiscrete(2): two loops, then 0->1, 1->0
_P2G = T.codiscrete_groupoid(2)
_Z2G = T.cyclic_groupoid(2)
_Z2 = dict(_Z2G.comp)
# (2, 3) missing, (0, 0) out of range, (2, 1) with wrong endpoints, (2, 2) not composable
_BROKEN = {**{k: v for k, v in _P2G.comp.items() if k != (2, 3)}, (0, 0): 9, (2, 1): 3, (2, 2): 0}


def _prop2_layer(eqv=(0, 1), star=_P2G.comp, einv=(0, 1, 3, 2), cell=(0, 1, 2, 3)) -> EquivalenceLayer:
    return EquivalenceLayer(2, _SRC, _DST, eqv, star, einv, cell)


def _z2_layer(star) -> EquivalenceLayer:
    return EquivalenceLayer(1, (0, 0), (0, 0), (0,), star, (0, 1), (0, 1))


def _loops(star, einv, cell) -> EquivalenceLayer:
    return EquivalenceLayer(1, (0, 0, 0), (0, 0, 0), (0,), star, einv, cell)


def _one_cell() -> Typoid:
    """The equality typoid of Z2 with both edges in one cell."""
    return Typoid("t", _Z2G, EquivalenceLayer(1, (0, 0), (0, 0), (0,), _Z2, (0, 1), (0, 0)), (0, 1))


def _map(term_map, path_map, edge_map) -> T.ValidationReport:
    p2 = T.equality_typoid(_P2G)
    return T.validate_morphism(T.TypoidMorphism("m", p2, p2, term_map, path_map, edge_map))


_DISC1 = T.discrete_groupoid(1)
_Z2_LOOPS = ((0, 0), (0, 0), (0,))  # two loops at one term, the first one refl
_CONGRUENCE_STAR = {
    (0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2, (1, 1): 0, (1, 2): 0, (2, 1): 2, (2, 2): 0,
}
_CASES = {
    "paths-negative": lambda: T.validate_groupoid(FiniteGroupoid(-1, (), (), (), {}, ())),
    "paths-lengths": lambda: T.validate_groupoid(FiniteGroupoid(1, (0, 0), (0,), (0, 0), {}, (0,))),
    "paths-range": lambda: T.validate_groupoid(FiniteGroupoid(1, (0,), (1,), (0,), {}, (0,))),
    "paths-tables": lambda: T.validate_groupoid(FiniteGroupoid(2, _SRC, _DST, (0, 3), _BROKEN, (0, 1, 2, 2))),
    "paths-left-unit": lambda: T.validate_groupoid(FiniteGroupoid(1, *_Z2_LOOPS, {**_Z2, (0, 1): 0}, (0, 1))),
    "paths-right-unit": lambda: T.validate_groupoid(FiniteGroupoid(1, *_Z2_LOOPS, {**_Z2, (1, 0): 0}, (0, 1))),
    "paths-inverse": lambda: T.validate_groupoid(FiniteGroupoid(1, *_Z2_LOOPS, {**_Z2, (1, 1): 1}, (0, 1))),
    "edges-term-count": lambda: T.validate_typoid(
        Typoid("t", _P2G, EquivalenceLayer(1, (), (), (0,), {}, (), ()), (0, 1, 2, 3))
    ),
    "edges-lengths": lambda: T.validate_typoid(
        Typoid("t", _P2G, EquivalenceLayer(2, _SRC, _DST[:3], (0,), {}, (0,), (0,)), (0, 1, 2, 3))
    ),
    "edges-range": lambda: T.validate_typoid(Typoid("t", _P2G, _prop2_layer(cell=(0, 1, 2, 4)), (0, 1, 2, 3))),
    "edges-tables": lambda: T.validate_typoid(
        Typoid("t", _P2G, _prop2_layer((0, 3), _BROKEN, (0, 1, 2, 2)), (0, 1, 2, 3))
    ),
    "edges-partition": lambda: T.validate_typoid(Typoid("t", _P2G, _prop2_layer(cell=(1, 1, 3, 3)), (0, 1, 2, 3))),
    "edges-representatives": lambda: T.validate_typoid(Typoid("t", _DISC1, _loops({}, (0, 1, 2), (0, 2, 1)), (0,))),
    "edges-left-unit": lambda: T.validate_typoid(Typoid("t", _Z2G, _z2_layer({**_Z2, (0, 1): 0}), (0, 1))),
    "edges-right-unit": lambda: T.validate_typoid(Typoid("t", _Z2G, _z2_layer({**_Z2, (1, 0): 0}), (0, 1))),
    "edges-inverse": lambda: T.validate_typoid(Typoid("t", _Z2G, _z2_layer({**_Z2, (1, 1): 1}), (0, 1))),
    "edges-congruence": lambda: T.validate_typoid(
        Typoid("t", _DISC1, _loops(_CONGRUENCE_STAR, (0, 1, 2), (0, 1, 1)), (0,))
    ),
    "idtoeqv-length": lambda: T.validate_typoid(Typoid("t", _P2G, _prop2_layer(), (0, 1))),
    "idtoeqv-entries": lambda: T.validate_typoid(Typoid("t", _P2G, _prop2_layer(), (0, 1, 3, 7))),
    "idtoeqv-laws": lambda: T.validate_typoid(Typoid("t", _Z2G, _z2_layer(_Z2), (1, 1))),
    "derived-inv-cong": lambda: derived_laws(Typoid("t", _DISC1, _loops({}, (0, 2, 1), (0, 0, 2)), (0,))),
    "ua-cong": lambda: T.verify_certificate(_one_cell(), T.UnivalenceCertificate("t", (0, 1))),
    "cell-pres": lambda: T.validate_morphism(
        T.TypoidMorphism("m", _one_cell(), T.equality_typoid(_Z2G), (0,), (0, 1), (0, 1))
    ),
    "map-lengths": lambda: _map((0,), (0,), ()),
    "map-terms": lambda: _map((0, 5), (0, 1, 2, 3), (0, 1, 2, 3)),
    "map-entries": lambda: _map((0, 1), (0, 1, 7, 2), (0, 1, 3, 9)),
}

_PINNED = {
    "paths-negative": [
        ("Bookkeeping", (), "negative term count"),
        ("Bookkeeping", (), "refl table has 0 entries for -1 terms"),
    ],
    "paths-lengths": [
        ("Bookkeeping", (), "inv table has 1 entries for 2 paths"),
        ("Bookkeeping", (), "path endpoint tables differ in length"),
        ("Bookkeeping", (), "refl table has 2 entries for 1 terms"),
    ],
    "paths-range": [
        ("Bookkeeping", (), "path or term id out of range"),
    ],
    "paths-tables": [
        ("Bookkeeping", (0, 0), "comp(0, 0) = 9 is out of range"),
        ("Bookkeeping", (1, 3), "refl of term 1 is path 3 with other endpoints"),
        ("Bookkeeping", (2, 1), "comp(2, 1) = 3 has wrong endpoints"),
        ("Bookkeeping", (2, 2), "comp entry (2, 2) is not a composable pair"),
        ("Bookkeeping", (2, 2), "inv of path 2 does not swap endpoints"),
        ("Bookkeeping", (2, 3), "comp entry missing for composable pair (2, 3)"),
        ("Groupoid", (1,), "comp(1, inv 1) = 1 is not refl"),
        ("Groupoid", (1,), "comp(1, refl) = 3, expected 1"),
        ("Groupoid", (1,), "comp(inv 1, 1) = 1 is not refl"),
        ("Groupoid", (3,), "comp(3, inv 3) = 1 is not refl"),
    ],
    "paths-left-unit": [
        ("Groupoid", (1,), "comp(refl, 1) = 0, expected 1"),
        ("Groupoid", (1, 0, 1), "comp(comp(1,0),1) = 0 but comp(1,comp(0,1)) = 1"),
        ("Groupoid", (1, 1, 1), "comp(comp(1,1),1) = 0 but comp(1,comp(1,1)) = 1"),
    ],
    "paths-right-unit": [
        ("Groupoid", (1,), "comp(1, refl) = 0, expected 1"),
        ("Groupoid", (1, 0, 1), "comp(comp(1,0),1) = 1 but comp(1,comp(0,1)) = 0"),
        ("Groupoid", (1, 1, 1), "comp(comp(1,1),1) = 1 but comp(1,comp(1,1)) = 0"),
    ],
    "paths-inverse": [
        ("Groupoid", (1,), "comp(1, inv 1) = 1 is not refl"),
        ("Groupoid", (1,), "comp(inv 1, 1) = 1 is not refl"),
    ],
    "edges-term-count": [
        ("Bookkeeping", (), "base and layer disagree on the term count"),
    ],
    "edges-lengths": [
        ("Bookkeeping", (), "cell table has 1 entries for 4 edges"),
        ("Bookkeeping", (), "edge endpoint tables differ in length"),
        ("Bookkeeping", (), "einv table has 1 entries for 4 edges"),
        ("Bookkeeping", (), "eqv table has 1 entries for 2 terms"),
    ],
    "edges-range": [
        ("Bookkeeping", (), "edge or term id out of range"),
    ],
    "edges-tables": [
        ("Bookkeeping", (0, 0), "star(0, 0) = 9 is out of range"),
        ("Bookkeeping", (1, 3), "eqv of term 1 is edge 3 with other endpoints"),
        ("Bookkeeping", (2, 1), "star(2, 1) = 3 has wrong endpoints"),
        ("Bookkeeping", (2, 2), "einv of edge 2 does not swap endpoints"),
        ("Bookkeeping", (2, 2), "star entry (2, 2) is not a composable pair"),
        ("Bookkeeping", (2, 3), "star entry missing for composable pair (2, 3)"),
        ("IdtoEqv", (1,), "refl of term 1 must map to the designated eqv edge, got 1"),
        ("Typ1", (1,), "star(1, eqv) = 3 is not in the cell of 1"),
        ("Typ2", (1,), "star(1, einv 1) = 1 is not in the cell of eqv"),
        ("Typ2", (1,), "star(einv 1, 1) = 1 is not in the cell of eqv"),
        ("Typ2", (3,), "star(3, einv 3) = 1 is not in the cell of eqv"),
    ],
    "edges-partition": [
        ("Partition", (0, 1), "cell label 1 of edge 0 lies in another hom-set"),
        ("Partition", (1,), "class of 1 contains the smaller edge 0"),
        ("Partition", (2, 3), "cell label 3 of edge 2 lies in another hom-set"),
        ("Partition", (3,), "class of 3 contains the smaller edge 2"),
    ],
    "edges-representatives": [
        ("Partition", (1,), "class of 1 contains the smaller edge 2"),
        ("Partition", (1, 2), "cell label 2 is not itself a representative"),
        ("Partition", (2,), "class of 2 contains the smaller edge 1"),
        ("Partition", (2, 1), "cell label 1 is not itself a representative"),
    ],
    "edges-left-unit": [
        ("IdtoEqv", (0, 1), "image of comp(0,1) is not in the cell of star of the images"),
        ("Typ1", (1,), "star(eqv, 1) = 0 is not in the cell of 1"),
        ("Typ3", (1, 0, 1), "star(star(1,0),1) and star(1,star(0,1)) are in different cells"),
        ("Typ3", (1, 1, 1), "star(star(1,1),1) and star(1,star(1,1)) are in different cells"),
    ],
    "edges-right-unit": [
        ("IdtoEqv", (1, 0), "image of comp(1,0) is not in the cell of star of the images"),
        ("Typ1", (1,), "star(1, eqv) = 0 is not in the cell of 1"),
        ("Typ3", (1, 0, 1), "star(star(1,0),1) and star(1,star(0,1)) are in different cells"),
        ("Typ3", (1, 1, 1), "star(star(1,1),1) and star(1,star(1,1)) are in different cells"),
    ],
    "edges-inverse": [
        ("IdtoEqv", (1, 1), "image of comp(1,1) is not in the cell of star of the images"),
        ("Typ2", (1,), "star(1, einv 1) = 1 is not in the cell of eqv"),
        ("Typ2", (1,), "star(einv 1, 1) = 1 is not in the cell of eqv"),
    ],
    "edges-congruence": [
        ("Typ3", (1, 2, 1), "star(star(1,2),1) and star(1,star(2,1)) are in different cells"),
        ("Typ3", (2, 1, 2), "star(star(2,1),2) and star(2,star(1,2)) are in different cells"),
        ("Typ3", (2, 2, 1), "star(star(2,2),1) and star(2,star(2,1)) are in different cells"),
        ("Typ4", (1, 1, 2, 1), "star(1,1) and star(2,1) are in different cells"),
        ("Typ4", (1, 2, 2, 1), "star(1,2) and star(2,1) are in different cells"),
        ("Typ4", (2, 1, 1, 1), "star(2,1) and star(1,1) are in different cells"),
        ("Typ4", (2, 1, 1, 2), "star(2,1) and star(1,2) are in different cells"),
        ("Typ4", (2, 1, 2, 2), "star(2,1) and star(2,2) are in different cells"),
        ("Typ4", (2, 2, 2, 1), "star(2,2) and star(2,1) are in different cells"),
    ],
    "idtoeqv-length": [
        ("Bookkeeping", (), "path-to-edge table has 2 entries for 4 paths"),
    ],
    "idtoeqv-entries": [
        ("Bookkeeping", (2, 3), "path 2 maps to edge 3 with other endpoints"),
        ("Bookkeeping", (3,), "path 3 maps to out-of-range edge 7"),
    ],
    "idtoeqv-laws": [
        ("IdtoEqv", (0,), "refl of term 0 must map to the designated eqv edge, got 1"),
        ("IdtoEqv", (0, 0), "image of comp(0,0) is not in the cell of star of the images"),
        ("IdtoEqv", (0, 1), "image of comp(0,1) is not in the cell of star of the images"),
        ("IdtoEqv", (1, 0), "image of comp(1,0) is not in the cell of star of the images"),
        ("IdtoEqv", (1, 1), "image of comp(1,1) is not in the cell of star of the images"),
    ],
    "derived-inv-cong": [
        ("DerivedInvCong", (0, 1), "0 and 1 share a cell but their einv images do not"),
        ("DerivedInvCong", (1, 0), "1 and 0 share a cell but their einv images do not"),
    ],
    "ua-cong": [
        ("UaCong", (0, 1), "0 and 1 share a cell but map to different paths"),
        ("UaCong", (1, 0), "1 and 0 share a cell but map to different paths"),
    ],
    "cell-pres": [
        ("CellPres", (0, 1), "0 and 1 share a cell but their images do not"),
        ("CellPres", (1, 0), "1 and 0 share a cell but their images do not"),
    ],
    "map-lengths": [
        ("Bookkeeping", (), "edge map has 0 entries for 4 edges"),
        ("Bookkeeping", (), "path map has 1 entries for 4 paths"),
        ("Bookkeeping", (), "term map has 1 entries for 2 terms"),
    ],
    "map-terms": [
        ("Bookkeeping", (), "term map value out of range"),
    ],
    "map-entries": [
        ("Bookkeeping", (2,), "path 2 maps to out-of-range path 7"),
        ("Bookkeeping", (2, 3), "image of edge 2 has wrong endpoints"),
        ("Bookkeeping", (3,), "edge 3 maps to out-of-range edge 9"),
        ("Bookkeeping", (3, 2), "image of path 3 has wrong endpoints"),
    ],
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_violation_messages_are_pinned(case):
    report = _CASES[case]()
    assert [(v.law, v.witness, v.detail) for v in report.violations] == _PINNED[case]


# ---------------------------------------------------------------------------
# single-entry mutations never make a validator raise

_MUTABLE = (
    ("base", "term_count"), ("base", "path_src"), ("base", "path_dst"), ("base", "refl"),
    ("base", "comp"), ("base", "inv"), ("layer", "term_count"), ("layer", "edge_src"),
    ("layer", "edge_dst"), ("layer", "eqv"), ("layer", "star"), ("layer", "einv"),
    ("layer", "cell"), (None, "idtoeqv"),
)


@st.composite
def _single_entry_mutants(draw, tables=_MUTABLE) -> Typoid:
    """A family() member with one entry of one of `tables` set to a small id
    (possibly out of range or negative) or removed, or its term count set."""
    fam = family()
    t = fam[draw(st.integers(0, len(fam) - 1))]
    part, name = draw(st.sampled_from(tables))
    holder = t if part is None else getattr(t, part)
    table = getattr(holder, name)
    value = draw(st.integers(-2, 9))
    remove = draw(st.booleans())
    if isinstance(table, int):
        table = value
    elif isinstance(table, tuple):
        i = draw(st.integers(0, max(len(table) - 1, 0)))
        table = table[:i] + (() if remove else (value,)) + table[i + 1:]
    else:
        keys = sorted(table) + [(draw(st.integers(-1, 9)), draw(st.integers(-1, 9)))]
        key = draw(st.sampled_from(keys))
        table = {k: v for k, v in table.items() if k != key}
        if not remove:
            table[key] = value
    changed = dataclasses.replace(holder, **{name: table})
    return changed if part is None else dataclasses.replace(t, **{part: changed})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_single_entry_mutants())
def test_single_entry_mutants_are_reported_not_raised(t):
    assert isinstance(T.validate_groupoid(t.base, T.Budget(10**9)), T.ValidationReport)
    assert isinstance(T.validate_typoid(t, T.Budget(10**9)), T.ValidationReport)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_single_entry_mutants(tuple(m for m in _MUTABLE if m[0] == "layer")))
def test_derived_laws_report_unreadable_layers(t):
    report = derived_laws(t, T.Budget(10**9))
    if "DerivedUnitInv" not in report.law_counts:
        assert report.violations and {v.law for v in report.violations} == {"Bookkeeping"}


def _verdict(t: Typoid):
    report = T.validate_typoid(t, T.Budget(10**9))
    univalent = None
    if report.valid:
        univalent = isinstance(T.check_univalence(t, report=report), T.UnivalenceCertificate)
    return report.valid, list(report.law_counts.items()), Counter(v.law for v in report.violations), univalent


def test_relabeling_ids_keeps_every_verdict():
    # the reason a structure is not univalent may change: the decision
    # returns the failure of the least hom-set, which depends on term order
    rng = random.Random(15)
    fam = family()
    picked = sorted(rng.sample(range(len(fam)), 60))
    fat = ((2, 2), (3, 4), (6, 6))
    z6_z8, _ = T.product_typoid(T.equality_typoid(T.cyclic_groupoid(6)), T.equality_typoid(T.cyclic_groupoid(8)))
    structures = (
        [fam[i] for i in picked]
        + [m for i in picked for m in same_hom_redirects(fam[i], i)]
        + [T.equality_typoid(T.codiscrete_groupoid(16)), T.universe_typoid([4, 4]), z6_z8, T.truncate(z6_z8)]
        + [q_typoid(m, k) for m, k in fat]
    )
    verdicts = [_verdict(t) for t in structures]
    # Q(m,k) is valid and univalent, and its cells are the residues mod m
    for (m, k), q, verdict in zip(fat, structures[-3:], verdicts[-3:]):
        assert verdict[0] and verdict[3] and q.layer.cell == tuple(e % m for e in range(m * k)), q.name
    assert {v[0] for v in verdicts} == {True, False} and {v[3] for v in verdicts} == {True, False, None}
    for t, before in zip(structures, verdicts):
        for _ in range(2):
            assert _verdict(relabel(t, rng)) == before, t.name


# ---------------------------------------------------------------------------
# the composition tables: read-only Mappings stored by rows


def _given_tables(level) -> list[dict]:
    """Dicts to give as a level's table: its own entries in row order, the
    same reversed, and in row order with a stray key, a negative value, an
    out-of-range value and one entry removed."""
    entries = dict(level.table)
    n = len(level.src)
    first = next(iter(entries), (0, 0))
    return [
        entries,
        dict(reversed([*entries.items()])),
        {**entries, (n, 0): 0, (0, n + 2): 1},
        {**entries, first: -1},
        {**entries, first: n},
        {k: v for k, v in entries.items() if k != first},
    ]


def _agrees(table, given: dict) -> None:
    assert dict(table) == given and dict(table.items()) == given
    assert table == given and given == table and not table != given
    assert len(table) == len(given)
    keys = [*given]
    for key in [*keys[:4], *keys[-4:], (-1, 0), (0, -1), (10**6, 0), (0.5, 0), "x"]:
        assert (key in table) == (key in given), key
        assert table.get(key) == given.get(key), key


def test_tables_are_read_only_mappings_stored_by_rows():
    levels = [
        level
        for t in [*full_stock().values(), *family()[::20], q_typoid(3, 4)]
        for level in (t.base, t.layer)
    ]
    for level in levels:
        for k, given in enumerate(_given_tables(level)):
            changed = dataclasses.replace(level, **{level.words.comp: given})
            _agrees(changed.table, given)
            if k != 1:  # given in row order
                assert repr(changed.table) == repr(given)
            assert list(changed.table.values()) == list(dict(changed.table).values())
        assert list(level.table) == sorted(level.table)  # row order is id-pair order
    # new endpoints move every entry, and unreadable ones put all aside
    g = T.codiscrete_groupoid(3)
    for changed in (
        dataclasses.replace(g, path_src=g.path_dst),
        dataclasses.replace(g, term_count=2),
        dataclasses.replace(g, term_count=4),
        dataclasses.replace(g, path_dst=g.path_dst[:-1]),
    ):
        _agrees(changed.comp, dict(g.comp))
        assert not T.validate_groupoid(changed).valid
    with pytest.raises(TypeError):
        g.comp[(0, 0)] = 1


@pytest.mark.parametrize("build", [lambda: T.cyclic_groupoid(144), lambda: T.codiscrete_groupoid(30)])
def test_a_table_entry_retains_at_most_16_bytes(build):
    # a dict keyed by pairs retained 84.6 and 107.4 B per entry
    tracemalloc.start()
    try:
        g = build()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 16 * len(g.comp)
