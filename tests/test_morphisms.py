"""Morphism validation, strictness, inverse preservation, composition."""

from __future__ import annotations

import dataclasses
import itertools
import time

import pytest

import typoid as T
from typoid.model import EquivalenceLayer, Typoid
from typoid.morphisms import identity_morphism

from corpus import stock_base, stock_products
from small_models import check_inverse_law, is_strict, naive_path_functors, permuted, q_typoid, small_groupoids


def rich_unit_cell_typoid(name: str = "rich") -> Typoid:
    """One term, two edges sharing a single cell; the designated eqv has
    company in its own class."""
    layer = EquivalenceLayer(
        term_count=1,
        edge_src=(0, 0),
        edge_dst=(0, 0),
        eqv=(0,),
        star={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        einv=(0, 1),
        cell=(0, 0),
    )
    return Typoid(name=name, base=T.discrete_groupoid(1), layer=layer, idtoeqv=(0,))


def same_maps(a: T.TypoidMorphism, b: T.TypoidMorphism) -> bool:
    return (
        a.term_map == b.term_map
        and a.path_map == b.path_map
        and a.edge_map == b.edge_map
        and a.source.same_structure(b.source)
        and a.target.same_structure(b.target)
    )


def test_identity_on_equality_typoid_valid_and_strict():
    t = stock_base()["eq_z2"]
    m = identity_morphism(t)
    assert T.validate_morphism(m).valid
    assert is_strict(m)


def test_projections_of_product_are_valid_and_strict():
    prod, prov = stock_products()["prod_eq_z2_bool_disc"]
    pr1, pr2 = T.projections(prod, prov)
    for m in (pr1, pr2):
        assert T.validate_morphism(m).valid
        assert is_strict(m)
        assert check_inverse_law(m).valid


def test_morphism_moving_eqv_out_of_its_cell_is_rejected():
    two = T.twoedge_typoid()
    m = T.TypoidMorphism(
        name="bad",
        source=T.unit_typoid(),
        target=two,
        term_map=(0,),
        path_map=(0,),
        edge_map=(1,),  # the designated eqv lands in the other cell
    )
    report = T.validate_morphism(m)
    assert not report.valid
    assert any(v.law == "UnitPres" for v in report.violations)


def test_cell_pres_compares_every_member_of_a_cell():
    # only edge 3, a middle member of the cell {0, 3, 6, 9} of Q(3,4),
    # leaves the image cell, so comparing a cell's ends would miss it
    q = q_typoid(3, 4)
    assert q.layer.class_members[0] == (0, 3, 6, 9)
    edge_map = tuple(1 if e == 3 else e for e in range(12))
    report = T.validate_morphism(T.TypoidMorphism("m", q, q, (0,), (0, 1, 2), edge_map))
    cell_pres = [v.witness for v in report.violations if v.law == "CellPres"]
    assert cell_pres == [(0, 3), (3, 0), (3, 6), (3, 9), (6, 3), (9, 3)]
    assert report.law_counts["CellPres"] == 3 * 4 * 4


def test_nonstrict_morphism_with_fat_unit_cell():
    rich = rich_unit_cell_typoid()
    assert T.validate_typoid(rich).valid
    m = T.TypoidMorphism(
        name="shift",
        source=rich,
        target=rich,
        term_map=(0,),
        path_map=(0,),
        edge_map=(1, 0),
    )
    assert T.validate_morphism(m).valid
    assert not is_strict(m)
    assert is_strict(identity_morphism(rich))


def test_inverse_law_for_identity_and_projections():
    t = stock_base()["universe2"]
    assert check_inverse_law(identity_morphism(t)).valid
    prod, prov = stock_products()["prod_universe2_universe2"]
    for m in T.projections(prod, prov):
        assert check_inverse_law(m).valid
    # an edge map that is no morphism: eq(Z3)'s edges 1 and 2 both to 1
    z3 = T.equality_typoid(T.cyclic_groupoid(3))
    report = check_inverse_law(dataclasses.replace(identity_morphism(z3), edge_map=(0, 1, 1)))
    assert [(v.law, v.witness) for v in report.violations] == [("InvPres", (1,)), ("InvPres", (2,))]
    assert report.law_counts == {"InvPres": 3}


def test_compose_identities_is_identity():
    t = stock_base()["bool_disc"]
    ident = identity_morphism(t)
    assert same_maps(T.compose_morphisms(ident, ident), ident)


def test_compose_requires_matching_endpoints():
    a = identity_morphism(stock_base()["unit"])
    b = identity_morphism(stock_base()["bool_disc"])
    with pytest.raises(ValueError):
        T.compose_morphisms(a, b)


def test_compose_is_associative_and_unital_on_the_nose():
    bd = stock_base()["bool_disc"]
    swap = T.TypoidMorphism(
        name="swap", source=bd, target=bd,
        term_map=(1, 0), path_map=(1, 0), edge_map=(1, 0),
    )
    assert T.validate_morphism(swap).valid
    ident = identity_morphism(bd)
    left = T.compose_morphisms(T.compose_morphisms(swap, swap), swap)
    right = T.compose_morphisms(swap, T.compose_morphisms(swap, swap))
    assert same_maps(left, right)
    assert same_maps(T.compose_morphisms(ident, swap), swap)
    assert same_maps(T.compose_morphisms(swap, ident), swap)


def test_composition_of_strict_morphisms_is_strict_and_valid():
    prod, prov = stock_products()["prod_eq_z2_universe2"]
    pr1, pr2 = T.projections(prod, prov)
    ident = identity_morphism(prod)
    for f, g in [(ident, pr1), (ident, pr2)]:
        composite = T.compose_morphisms(f, g)
        assert T.validate_morphism(composite).valid
        assert is_strict(composite)


def test_pairing_then_projection_recovers_factor():
    prod, prov = stock_products()["prod_eq_z2_bool_disc"]
    a, b = prov.factors
    pr1, pr2 = T.projections(prod, prov)
    # pair the projections themselves: <pr1, pr2> must be the identity
    paired = T.pairing(pr1, pr2, prod, prov)
    assert same_maps(paired, identity_morphism(prod))
    # and composing a pairing with a projection gives back the factor map
    again1 = T.compose_morphisms(paired, pr1)
    assert same_maps(again1, pr1)
    again2 = T.compose_morphisms(paired, pr2)
    assert same_maps(again2, pr2)
    with pytest.raises(ValueError, match="common source"):
        T.pairing(pr1, identity_morphism(b), prod, prov)
    with pytest.raises(ValueError, match="targets must be the factors"):
        T.pairing(pr2, pr1, prod, prov)


def test_identity_from_equality_unit():
    m = T.identity_from_equality(T.unit_typoid())
    assert m.term_map == (0,) and m.path_map == (0,) and m.edge_map == (0,)
    assert T.validate_morphism(m).valid
    assert is_strict(m)


def test_identity_from_equality_is_pointwise_identity_on_equality_typoids():
    t = stock_base()["eq_z2"]
    m = T.identity_from_equality(t)
    assert m.edge_map == tuple(range(t.base.path_count))
    assert T.validate_morphism(m).valid and is_strict(m)


def test_identity_from_equality_twoedge():
    two = T.twoedge_typoid()
    m = T.identity_from_equality(two)
    assert m.edge_map == (0,)
    assert T.validate_morphism(m).valid and is_strict(m)


def test_identity_from_equality_corpus_wide():
    for name, t in stock_base().items():
        m = T.identity_from_equality(t)
        assert T.validate_morphism(m).valid, name
        assert is_strict(m), name
        assert check_inverse_law(m).valid, name


def test_path_functor_enumeration():
    z2 = T.cyclic_groupoid(2)
    functors = list(T.iter_path_functors(z2, z2, (0,)))
    assert functors == [(0, 0), (0, 1)]
    with pytest.raises(ValueError, match="path"):
        T.find_path_functor(T.codiscrete_groupoid(2), T.discrete_groupoid(2), (0, 1))
    # every path has candidates, but refl . refl is not refl in the target
    broken = T.FiniteGroupoid(1, (0, 0), (0, 0), (0,), {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}, (0, 1))
    with pytest.raises(ValueError, match="no choice of path images satisfies the functor laws"):
        T.find_path_functor(T.discrete_groupoid(1), broken, (0,))


def test_path_functors_match_brute_force_on_small_groupoids():
    groupoids = small_groupoids(2, 3)
    # with the ids reversed, each refl path is a late search position with one option
    late = [permuted(g, range(g.path_count - 1, -1, -1)) for g in groupoids]
    assert any(g.refl != tuple(range(g.term_count)) for g in late)
    for src in [*groupoids, *late]:
        for dst in groupoids:
            for term_map in itertools.product(range(dst.term_count), repeat=src.term_count):
                assert list(T.iter_path_functors(src, dst, term_map)) == list(
                    naive_path_functors(src, dst, term_map)
                ), (src, dst, term_map)


def test_path_functor_search_needs_no_recursion():
    # 1,560 free paths, more than the interpreter's recursion limit
    c40 = T.codiscrete_groupoid(40)
    assert list(T.iter_path_functors(c40, c40, tuple(range(40)))) == [tuple(range(c40.path_count))]


def test_path_functor_search_on_z10_is_fast():
    z10 = T.cyclic_groupoid(10)
    start = time.perf_counter()
    functors = list(T.iter_path_functors(z10, z10, (0,)))
    assert time.perf_counter() - start < 2.0
    # one functor per image of the generator 1
    assert sorted(table[1] for table in functors) == list(range(10))
    assert all(table[k] == (k * table[1]) % 10 for table in functors for k in range(10))


def test_validate_morphism_without_base_checks():
    # send refl to the non-refl loop: only the base functor law breaks
    z2 = stock_base()["eq_z2"]
    crooked = T.TypoidMorphism(
        name="crooked", source=z2, target=z2,
        term_map=(0,),
        path_map=(1, 1),
        edge_map=(0, 1),
    )
    report = T.validate_morphism(crooked)
    assert not report.valid
    assert {v.law for v in report.violations} == {"ApFunctor"}
    assert T.validate_morphism(crooked, check_base=False).valid


def test_nonstrict_unit_image_is_still_lawful():
    rich = rich_unit_cell_typoid()
    wrong = T.TypoidMorphism(
        name="wrong",
        source=T.unit_typoid(),
        target=rich,
        term_map=(0,),
        path_map=(0,),
        edge_map=(1,),  # allowed up to cells
    )
    assert T.validate_morphism(wrong).valid
    assert not is_strict(wrong)


def test_bookkeeping_violations_reported():
    bd = stock_base()["bool_disc"]
    m = T.TypoidMorphism(
        name="short", source=bd, target=bd,
        term_map=(0,),  # missing a term
        path_map=(0, 1),
        edge_map=(0, 1),
    )
    report = T.validate_morphism(m)
    assert not report.valid
    assert all(v.law == "Bookkeeping" for v in report.violations)


@pytest.mark.parametrize("part, table, law", [("base", "comp", "ApFunctor"), ("layer", "star", "CompPres")])
def test_a_composite_missing_from_the_target_is_a_counted_violation(part, table, law):
    z2 = stock_base()["eq_z2"]
    level = getattr(z2, part)
    entries = getattr(level, table)
    key = max(entries)
    lacking = {k: v for k, v in entries.items() if k != key}
    target = dataclasses.replace(z2, **{part: dataclasses.replace(level, **{table: lacking})})
    m = dataclasses.replace(identity_morphism(z2), target=target)
    report = T.validate_morphism(m)
    assert not report.valid
    assert [(v.law, v.witness) for v in report.violations] == [(law, key)]
    # one instance per term for the unit law (both are ApFunctor on paths),
    # one per source composite for the composition law, the missing one included
    expected = len(entries) + (z2.term_count if law == "ApFunctor" else 0)
    assert report.law_counts[law] == expected


@pytest.mark.parametrize(
    "side, part, table, value",
    [
        ("source", "base", "comp", {(1, 1): 7}),
        ("source", "layer", "star", {(1, 1): 7}),
        ("target", "base", "refl", (5,)),
        ("target", "layer", "cell", (0,)),
        ("source", "layer", "star", {(1, 9): 0}),
        ("target", "base", "comp", {(1, 1): 7}),
        ("target", "layer", "star", {(0, 1): -1}),
        ("source", "base", "comp", {(1, 0): -2}),
        ("target", "layer", "star", {(-1, 0): 1}),
    ],
)
def test_an_endpoint_id_out_of_range_is_bookkeeping(side, part, table, value):
    # each raised IndexError from the law loop
    z2 = stock_base()["eq_z2"]
    level = getattr(z2, part)
    if isinstance(value, dict):
        value = {**getattr(level, table), **value}
    broken = dataclasses.replace(z2, **{part: dataclasses.replace(level, **{table: value})})
    m = dataclasses.replace(identity_morphism(z2), **{side: broken})
    report = T.validate_morphism(m)
    assert report.violations and all(v.law == "Bookkeeping" for v in report.violations)
    assert all(v.detail.startswith(side) for v in report.violations)
    assert report.law_counts == {}
