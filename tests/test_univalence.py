"""Deciding univalence, verifying witness tables, induced morphisms,
commuting squares, pointed factors."""

from __future__ import annotations

import dataclasses
import time

import pytest

import typoid as T
from typoid.model import FiniteGroupoid, EquivalenceLayer, Typoid
from typoid.morphisms import identity_morphism
from typoid.univalence import NotUnivalent, UnivalenceCertificate

from corpus import full_stock, stock_base, stock_products, univalent_stock
from small_models import check_inverse_law, family, is_strict, naive_univalence, oracle_search
from test_morphisms import rich_unit_cell_typoid


def test_equality_typoid_strictly_univalent_with_identity_table():
    t = stock_base()["eq_z2"]
    cert = T.check_univalence(t)
    assert isinstance(cert, UnivalenceCertificate)
    assert cert.ua == tuple(range(t.layer.edge_count))
    assert all(cert.ua[t.layer.eqv[x]] == t.base.refl[x] for x in range(t.term_count))


def test_twoedge_not_univalent_unhit_cell():
    out = T.check_univalence(T.twoedge_typoid())
    assert isinstance(out, NotUnivalent)
    assert out.reason == "not-surjective"
    assert out.witness_edge == 1
    assert out.hom == (0, 0)


def test_truncated_singleton_hom_base_univalent():
    tr = T.truncate(stock_base()["prop2"])
    cert = T.check_univalence(tr)
    assert isinstance(cert, UnivalenceCertificate)
    assert T.verify_certificate(tr, cert).valid


def test_injectivity_failure_witnessed():
    # collapse the two paths of eq_z2 onto one cell: truncation of z2
    tr = T.truncate(stock_base()["eq_z2"])
    out = T.check_univalence(tr)
    assert isinstance(out, NotUnivalent)
    assert out.reason == "not-injective"
    assert out.witness_paths is not None


def test_verify_certificate_identity_on_equality_typoid():
    t = stock_base()["eq_z2"]
    cert = UnivalenceCertificate(typoid_name=t.name, ua=(0, 1))
    assert T.verify_certificate(t, cert).valid


def test_verify_certificate_swapped_table_fails_first_round_trip():
    t = stock_base()["eq_z2"]
    swapped = UnivalenceCertificate(typoid_name=t.name, ua=(1, 0))
    report = T.verify_certificate(t, swapped)
    assert not report.valid
    assert any(v.law == "RoundTrip1" and v.witness == (0,) for v in report.violations)
    assert [v.witness for v in report.violations if v.law == "Strictness"] == [(0,)]
    assert report.law_counts["Strictness"] == t.term_count


@pytest.mark.parametrize(
    "ua, witness, detail",
    [
        ((0,), (), "table has 1 entries for 2 edges"),
        ((0, 5), (1,), "edge 1 maps to out-of-range path 5"),
        ((1, 0), (0, 1), "image of edge 0 has wrong endpoints"),
    ],
)
def test_verify_certificate_reports_a_table_it_cannot_read(ua, witness, detail):
    t = stock_base()["bool_disc"]
    report = T.verify_certificate(t, UnivalenceCertificate(typoid_name=t.name, ua=ua))
    assert report.violations == (T.Violation("Bookkeeping", witness, detail),)
    assert report.law_counts == {}


def test_verify_certificate_checks_constancy_on_cells():
    rich = rich_unit_cell_typoid()
    cert = T.check_univalence(rich)
    assert isinstance(cert, UnivalenceCertificate)
    assert T.verify_certificate(rich, cert).valid
    # rich has two edges in one cell; a table splitting them must fail
    assert rich.layer.cell == (0, 0)


def test_check_univalence_rejects_invalid_typoid():
    broken = Typoid(
        name="broken",
        base=FiniteGroupoid(1, (0,), (0,), (0,), {}, (0,)),  # comp table empty
        layer=EquivalenceLayer(1, (0,), (0,), (0,), {(0, 0): 0}, (0,), (0,)),
        idtoeqv=(0,),
    )
    with pytest.raises(ValueError):
        T.check_univalence(broken)
    with pytest.raises(ValueError):
        T.check_univalence(broken, report=T.validate_typoid(broken))
    # a report of another typoid: eq_z2 with refl sent to the other edge
    t = stock_base()["eq_z2"]
    swapped = dataclasses.replace(t, idtoeqv=(1, 0))
    with pytest.raises(ValueError, match="does not send every designated eqv edge to refl"):
        T.check_univalence(swapped, report=T.validate_typoid(t))


def test_check_univalence_trusts_a_passed_report(monkeypatch):
    import typoid.univalence as univalence

    t = stock_base()["eq_z2"]
    report = T.validate_typoid(t)
    expected = T.check_univalence(t)
    monkeypatch.setattr(univalence, "validate_typoid", None)  # must not be called
    budget = T.Budget()
    assert T.check_univalence(t, budget, report=report) == expected
    assert budget.spent == sum(
        len(t.base.hom(x, y)) + len(t.layer.hom(x, y))
        for x in range(t.term_count)
        for y in range(t.term_count)
    )


def test_decision_matches_the_hom_set_walk():
    # the same certificate or the same first failure as the walk over every
    # ordered pair of terms, on every stock and enumerated structure
    outcomes = []
    for t in [*full_stock().values(), *family()]:
        outcome = T.check_univalence(t)
        assert repr(outcome) == repr(naive_univalence(t)), t.name
        outcomes.append(getattr(outcome, "reason", "univalent"))
    assert [outcomes.count(k) for k in ("univalent", "not-injective", "not-surjective")] == [488, 1031, 937]


def test_decision_is_linear_in_paths_and_edges():
    # 3,000 terms make 9,000,000 ordered pairs but only 6,000 paths and edges
    t = T.equality_typoid(T.discrete_groupoid(3000))
    report = T.validate_typoid(t)
    budget = T.Budget()
    start = time.perf_counter()
    cert = T.check_univalence(t, budget, report=report)
    assert time.perf_counter() - start < 1.0
    assert cert.ua == tuple(range(3000))
    assert budget.spent == 6000


def test_induce_identity_is_identity_morphism():
    t = stock_base()["eq_z2"]
    m = T.induce_morphism(t, t, tuple(range(t.term_count)), tuple(range(t.base.path_count)))
    ident = identity_morphism(t)
    assert m.term_map == ident.term_map
    assert m.path_map == ident.path_map
    assert m.edge_map == ident.edge_map


def test_induce_into_fat_unit_cell_target():
    src = stock_base()["eq_z2"]
    dst = rich_unit_cell_typoid()
    ap = T.find_path_functor(src.base, dst.base, (0,))
    m = T.induce_morphism(src, dst, (0,), ap)
    assert T.validate_morphism(m).valid
    assert is_strict(m)
    assert check_inverse_law(m).valid


def test_induce_from_non_univalent_source_raises_with_witness():
    two = T.twoedge_typoid()
    with pytest.raises(T.NotUnivalentError) as exc:
        T.induce_morphism(two, two, (0,), (0,))
    assert exc.value.witness.reason == "not-surjective"


def test_check_square_identity_on_equality_typoid():
    t = stock_base()["eq_z2"]
    cert = T.check_univalence(t)
    assert T.check_square(identity_morphism(t), cert).valid
    # a path map that disagrees with the edge map fails both squares
    collapsed = dataclasses.replace(identity_morphism(t), path_map=(0, 0))
    report = T.check_square(collapsed, cert, cert)
    assert [(v.law, v.witness) for v in report.violations] == [("Square", (1,)), ("Square", (3,))]
    assert report.law_counts == {"Square": 2, "SquareEdges": 2}


def test_check_square_reports_a_table_of_another_typoid():
    universe11, eq_z2 = stock_base()["universe11"], stock_base()["eq_z2"]
    unit_cert = T.check_univalence(T.unit_typoid())
    report = T.check_square(identity_morphism(universe11), unit_cert)
    assert report.violations == (T.Violation("Bookkeeping", (), "table has 1 entries for 4 edges"),)
    assert report.law_counts == {}
    cert = T.check_univalence(eq_z2)
    for c_src, witness in (
        (unit_cert, ()),
        (UnivalenceCertificate(eq_z2.name, (0, 2)), (1,)),
    ):
        report = T.check_square(identity_morphism(eq_z2), cert, c_src)
        assert [(v.law, v.witness) for v in report.violations] == [("Bookkeeping", witness)]
        assert report.law_counts == {}


def test_induce_refuses_a_path_map_of_other_paths():
    t = stock_base()["eq_z2"]
    for path_map in ((0,), (0, 2), (0, -1)):
        with pytest.raises(ValueError, match="the path map does not send the paths of 'eq_z2'"):
            T.induce_morphism(t, t, (0,), path_map)


def test_check_square_for_induced_morphisms_both_univalent():
    src = stock_base()["universe2"]
    dst = stock_base()["eq_z2"]
    c_src = T.check_univalence(src)
    c_dst = T.check_univalence(dst)
    for ap in T.iter_path_functors(src.base, dst.base, (0,)):
        m = T.induce_morphism(src, dst, (0,), ap)
        assert T.validate_morphism(m).valid
        report = T.check_square(m, c_dst, c_src)
        assert report.valid, report.violations


def test_check_square_for_projections_of_univalent_product():
    prod, prov = stock_products()["prod_eq_z2_universe2"]
    a, b = prov.factors
    c_prod = T.check_univalence(prod)
    pr1, pr2 = T.projections(prod, prov)
    assert T.check_square(pr1, T.check_univalence(a), c_prod).valid
    assert T.check_square(pr2, T.check_univalence(b), c_prod).valid


def test_witness_table_is_a_morphism_into_the_equality_typoid():
    # the table of any certificate, used as an edge action over the identity,
    # is itself a valid strict morphism into the equality typoid of the base
    for name, t in univalent_stock().items():
        cert = T.check_univalence(t)
        m = T.TypoidMorphism(
            name=f"ua_{name}",
            source=t,
            target=T.equality_typoid(t.base, name=f"eq_base_{name}"),
            term_map=tuple(range(t.term_count)),
            path_map=tuple(range(t.base.path_count)),
            edge_map=cert.ua,
        )
        assert T.validate_morphism(m).valid, name
        assert is_strict(m), name


def test_pointed_factors_certify_both_sides():
    prod, prov = stock_products()["prod_eq_z2_universe2"]
    a, b = prov.factors
    report = T.check_pointed_factors(prod, prov, a_point=0, b_point=0)
    assert report.cert_a is not None and report.cert_b is not None
    assert T.verify_certificate(a, report.cert_a).valid
    assert T.verify_certificate(b, report.cert_b).valid
    with pytest.raises(ValueError, match="point 2 is not a term of"):
        T.check_pointed_factors(prod, prov, a_point=2)


def test_pointed_factors_empty_factor_inapplicable():
    empty = T.equality_typoid(FiniteGroupoid(0, (), (), (), {}, ()), name="empty")
    unit = T.unit_typoid()
    prod, prov = T.product_typoid(empty, unit)
    report = T.check_pointed_factors(prod, prov)
    assert report.cert_a is not None  # empty factor: vacuous table, via unit's point
    assert report.cert_b is None
    assert report.note_b.startswith("inapplicable")


def test_pointed_factors_reject_foreign_provenance():
    # with each other's provenance, one product raised IndexError and the
    # other certified the factors of the wrong product
    d1 = T.equality_typoid(T.discrete_groupoid(1), name="d1")
    z2 = T.equality_typoid(T.cyclic_groupoid(2), name="z2")
    d3 = T.equality_typoid(T.discrete_groupoid(3), name="d3")
    small, small_prov = T.product_typoid(d1, d1)
    large, large_prov = T.product_typoid(z2, d3)
    for prod, prov in ((small, large_prov), (large, small_prov)):
        with pytest.raises(ValueError, match="provenance does not describe this product"):
            T.check_pointed_factors(prod, prov)


def test_pointed_factors_requires_univalent_product():
    two = T.twoedge_typoid()
    prod, prov = T.product_typoid(two, T.unit_typoid())
    with pytest.raises(T.NotUnivalentError):
        T.check_pointed_factors(prod, prov)


def test_decision_matches_oracle_on_three_term_instances():
    # spot instances beyond the exhaustive family bounds: up to 3 terms,
    # 3 paths per hom, 4 edges per hom
    prop3 = T.equality_typoid(T.codiscrete_groupoid(3), name="prop3")
    eq_z3 = T.equality_typoid(T.cyclic_groupoid(3), name="eq_z3")
    instances = [
        T.universe_typoid([1, 1, 1], name="universe111"),
        prop3,
        eq_z3,
        T.truncate(prop3),
        T.truncate(eq_z3),
        T.truncate(T.equality_typoid(T.discrete_groupoid(3), name="disc3")),
        T.univalent_completion(T.twoedge_typoid()),
    ]
    for t in instances:
        outcome = T.check_univalence(t)
        satisfying, rejected = oracle_search(t)
        assert len(satisfying) <= 1, t.name
        if isinstance(outcome, UnivalenceCertificate):
            assert satisfying == [outcome.ua], t.name
            assert T.verify_certificate(t, outcome).valid, t.name
        else:
            assert not satisfying, t.name
        for table in rejected:
            bad = UnivalenceCertificate(typoid_name=t.name, ua=table)
            assert not T.verify_certificate(t, bad).valid, t.name
