"""Construction operations: products, truncations, exponentials, the finite
universe, and completion."""

from __future__ import annotations

import dataclasses
import time

import pytest

import typoid as T
from typoid.constructions import _completion_base, _presented, _renumber
from typoid.model import FiniteGroupoid
from typoid.univalence import NotUnivalent, UnivalenceCertificate

from corpus import full_stock, stock_base, stock_products, stock_truncations
from small_models import (
    cells_equal,
    family,
    is_strict,
    naive_completion_base,
    naive_exponential,
    naive_product,
    permuted,
)
from test_morphisms import rich_unit_cell_typoid


# -- equality ---------------------------------------------------------------

def test_equality_typoid_of_one_term_groupoid_is_unit():
    t = T.equality_typoid(T.discrete_groupoid(1))
    assert t.same_structure(T.unit_typoid())


def test_equality_typoid_of_z2_univalent_with_two_cells():
    t = stock_base()["eq_z2"]
    assert t.layer.edge_count == 2
    assert len(set(t.layer.cell)) == 2
    assert isinstance(T.check_univalence(t), UnivalenceCertificate)


def test_equality_typoid_rejects_invalid_groupoid():
    broken = FiniteGroupoid(1, (0,), (0,), (0,), {}, (0,))
    with pytest.raises(ValueError):
        T.equality_typoid(broken)


def test_equality_typoid_renumbers_a_groupoid_whose_refl_paths_come_late():
    g = T.codiscrete_groupoid(2)  # refl_0, refl_1, 0 -> 1, 1 -> 0
    late = permuted(g, (2, 0, 3, 1))
    assert late.refl == (1, 3)
    assert repr(T.equality_typoid(late, name="c2")) == repr(T.equality_typoid(g, name="c2"))


# -- product ----------------------------------------------------------------

def test_product_of_units_is_unit():
    prod, _ = T.product_typoid(T.unit_typoid(), T.unit_typoid())
    assert prod.term_count == 1
    assert prod.base.path_count == 1
    assert prod.layer.edge_count == 1


def test_product_hom_edge_counts_multiply():
    a = stock_base()["eq_z2"]
    b = stock_base()["prop2"]
    prod, prov = T.product_typoid(a, b)
    assert prod.term_count == a.term_count * b.term_count
    for z in range(prod.term_count):
        for w in range(prod.term_count):
            x1, y1 = z // b.term_count, z % b.term_count
            x2, y2 = w // b.term_count, w % b.term_count
            expected = len(a.layer.hom(x1, x2)) * len(b.layer.hom(y1, y2))
            assert len(prod.layer.hom(z, w)) == expected


def test_product_of_univalent_typoids_univalent():
    prod, _ = T.product_typoid(stock_base()["universe2"], stock_base()["eq_z2"])
    cert = T.check_univalence(prod)
    assert isinstance(cert, UnivalenceCertificate)
    assert T.verify_certificate(prod, cert).valid


def test_pair_tables_round_trip_exactly():
    prod, prov = stock_products()["prod_eq_z2_universe2"]
    a, b = prov.factors
    for e1 in range(a.layer.edge_count):
        for e2 in range(b.layer.edge_count):
            e = prov.pair_edge[(e1, e2)]
            assert prov.split_edge[e] == (e1, e2)
    for e in range(prod.layer.edge_count):
        assert prov.pair_edge[prov.split_edge[e]] == e
    for p1 in range(a.base.path_count):
        for p2 in range(b.base.path_count):
            p = prov.pair_path[(p1, p2)]
            assert prov.split_path[p] == (p1, p2)
    # pairing the refl paths gives the refl of the pair
    for x in range(a.term_count):
        for y in range(b.term_count):
            z = x * b.term_count + y
            assert prov.pair_path[(a.base.refl[x], b.base.refl[y])] == prod.base.refl[z]


def test_projection_edge_action_is_exact_component():
    prod, prov = stock_products()["prod_eq_z2_bool_disc"]
    a, b = prov.factors
    pr1, pr2 = T.projections(prod, prov)
    for (e1, e2), e in prov.pair_edge.items():
        assert pr1.edge_map[e] == e1
        assert pr2.edge_map[e] == e2


def test_pair_edges_congruent_componentwise():
    prod, prov = stock_products()["prod_eq_z2_universe2"]
    a, b = prov.factors
    for e1 in range(a.layer.edge_count):
        for d1 in range(a.layer.edge_count):
            same1 = (
                (a.layer.edge_src[e1], a.layer.edge_dst[e1])
                == (a.layer.edge_src[d1], a.layer.edge_dst[d1])
                and a.layer.cell[e1] == a.layer.cell[d1]
            )
            for e2 in range(b.layer.edge_count):
                for d2 in range(b.layer.edge_count):
                    same2 = (
                        (b.layer.edge_src[e2], b.layer.edge_dst[e2])
                        == (b.layer.edge_src[d2], b.layer.edge_dst[d2])
                        and b.layer.cell[e2] == b.layer.cell[d2]
                    )
                    if same1 and same2:
                        assert cells_equal(
                            prod,
                            prov.pair_edge[(e1, e2)],
                            prov.pair_edge[(d1, d2)],
                        )


def test_product_matches_the_table_by_table_reference_on_stock_pairs():
    # every ordered pair of base stock and truncations, and each stock
    # product on either side of each base stock typoid
    small = [*stock_base().values(), *stock_truncations().values()]
    pairs = [(a, b) for a in small for b in small]
    for prod, _ in stock_products().values():
        pairs += [pair for b in stock_base().values() for pair in ((prod, b), (b, prod))]
    for a, b in pairs:
        assert repr(T.product_typoid(a, b)) == repr(naive_product(a, b)), (a.name, b.name)


def test_product_matches_the_table_by_table_reference_on_family_members():
    # most family layers are not in canonical layout, so the unit pairs are
    # not the first pairs in lexicographic order
    members = family()
    for a, b in zip(members[::3], members[1::3]):
        assert repr(T.product_typoid(a, b)) == repr(naive_product(a, b)), (a.name, b.name)


def test_projections_reject_foreign_provenance():
    prod, _ = stock_products()["prod_eq_z2_bool_disc"]
    _, other_prov = stock_products()["prod_unit_unit"]
    with pytest.raises(ValueError):
        T.projections(prod, other_prov)


def test_same_size_products_reject_each_others_provenance():
    # both products have 2 terms, 4 paths and 4 edges, so only the split
    # tables' endpoints tell the provenances apart
    eq = T.equality_typoid
    first = T.product_typoid(eq(T.cyclic_groupoid(2)), eq(T.discrete_groupoid(2)))
    second = T.product_typoid(eq(T.codiscrete_groupoid(2)), T.unit_typoid())
    for (prod, _), (other, other_prov) in ((first, second), (second, first)):
        f, g = T.projections(other, other_prov)
        with pytest.raises(ValueError, match="provenance does not describe this product"):
            T.projections(prod, other_prov)
        with pytest.raises(ValueError, match="provenance does not describe this product"):
            T.pairing(f, g, prod, other_prov)
        with pytest.raises(ValueError, match="provenance does not describe this product"):
            T.check_pointed_factors(prod, other_prov)


def test_a_provenance_is_its_split_tables():
    # the pairing tables invert the split tables, so they cannot be set
    # apart from them, and a split table that names a pair twice is refused
    eq = T.equality_typoid
    prod, prov = T.product_typoid(eq(T.cyclic_groupoid(2)), eq(T.codiscrete_groupoid(2)))
    rotated = dict(zip(prov.pair_edge, [*list(prov.pair_edge.values())[1:], 0]))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(prov, pair_edge=rotated)
    f, g = T.projections(prod, prov)
    assert T.validate_morphism(T.pairing(f, g, prod, prov)).valid
    # on eq(Z2) x eq(Z2) every edge is a loop, so only the count catches it
    z2 = eq(T.cyclic_groupoid(2))
    prod, prov = T.product_typoid(z2, z2)
    f, g = T.projections(prod, prov)
    lossy = T.ProductProvenance(prov.factors, (prov.split_edge[1], *prov.split_edge[1:]), prov.split_path)
    with pytest.raises(ValueError, match="provenance does not describe this product"):
        T.pairing(f, g, prod, lossy)


# -- truncation ---------------------------------------------------------------

def test_truncate_unit_is_unit():
    assert T.truncate(T.unit_typoid()).same_structure(T.unit_typoid())


def test_truncate_prop2_univalent():
    tr = T.truncate(stock_base()["prop2"])
    assert T.validate_typoid(tr).valid
    assert isinstance(T.check_univalence(tr), UnivalenceCertificate)


def test_truncate_bool_disc_not_univalent_on_cross_hom():
    tr = T.truncate(stock_base()["bool_disc"])
    out = T.check_univalence(tr)
    assert isinstance(out, NotUnivalent)
    assert out.reason == "not-surjective"
    assert out.hom in ((0, 1), (1, 0))


def test_morphism_into_truncation_constant_unit():
    src = stock_base()["eq_z2"]
    dst = T.truncate(src)
    m = T.morphism_into_truncation(src, dst, (0,))
    assert T.validate_morphism(m).valid
    assert is_strict(m)
    assert set(m.edge_map) == {dst.layer.eqv[0]}


def test_any_map_between_truncations_with_ap_validates():
    src = T.truncate(stock_base()["bool_disc"])
    dst = T.truncate(stock_base()["prop2"])
    for f in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        m = T.morphism_into_truncation(src, dst, f)
        assert T.validate_morphism(m).valid, f


def test_morphism_into_truncation_reports_unmappable_path():
    src = T.truncate(stock_base()["prop2"])
    dst = T.truncate(stock_base()["bool_disc"])
    with pytest.raises(ValueError, match="path"):
        T.morphism_into_truncation(src, dst, (0, 1))


def test_truncation_route_into_prop_base_target():
    # out of a truncation, through the truncation of the target, into the
    # target itself: valid because the target's base has singleton hom-sets
    a_trunc = T.truncate(stock_base()["eq_z2"])
    b = stock_base()["prop2"]
    b_trunc = T.truncate(b)
    first = T.morphism_into_truncation(a_trunc, b_trunc, (1,))
    ident = tuple(range(b.base.path_count))
    second = T.induce_morphism(b_trunc, b, tuple(range(b.term_count)), ident)
    composite = T.compose_morphisms(first, second)
    assert T.validate_morphism(composite).valid


def test_morphism_into_truncation_rejects_non_truncation_target():
    with pytest.raises(ValueError, match="truncation"):
        T.morphism_into_truncation(T.unit_typoid(), stock_base()["eq_z2"], (0,))


# -- exponential --------------------------------------------------------------

def test_exponential_from_unit_counts_unit_cell_sizes():
    unit = T.unit_typoid()
    for target, expected in [
        (stock_base()["bool_disc"], 2),   # two terms, singleton unit cells
        (stock_base()["eq_z2"], 1),       # one term, singleton unit cell
        (rich_unit_cell_typoid(), 2),     # one term, a two-edge unit cell
    ]:
        exp, prov = T.exponential_typoid(unit, target)
        total = sum(
            len(target.layer.class_members[target.layer.cell[target.layer.eqv[y]]])
            for y in range(target.term_count)
        )
        assert expected == total
        assert exp.term_count == total
        assert T.validate_typoid(exp).valid


def test_exponential_into_unit_is_unit():
    exp, prov = T.exponential_typoid(stock_base()["eq_z2"], T.unit_typoid())
    assert exp.term_count == 1
    assert exp.layer.edge_count == 1
    assert T.validate_typoid(exp).valid


def test_exponential_univalent_for_univalent_target():
    exp, _ = T.exponential_typoid(stock_base()["bool_disc"], stock_base()["eq_z2"])
    cert = T.check_univalence(exp)
    assert isinstance(cert, UnivalenceCertificate)


def test_exponential_enumeration_deterministic():
    a, b = stock_base()["bool_disc"], stock_base()["universe2"]
    first = T.exponential_typoid(a, b)
    second = T.exponential_typoid(a, b)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_exponential_limits_name_the_blown_bound():
    a, b = stock_base()["bool_disc"], stock_base()["eq_z2"]
    with pytest.raises(T.ResourceLimitError) as exc:
        T.exponential_typoid(a, b, T.ExponentialLimits(max_terms=0))
    assert exc.value.bound == "max-terms"
    with pytest.raises(T.ResourceLimitError) as exc:
        T.exponential_typoid(a, b, T.ExponentialLimits(max_edges=3))
    assert exc.value.bound == "max-edges"


def test_exponential_eqv_edge_is_pointwise_unit_family():
    a, b = stock_base()["bool_disc"], stock_base()["eq_z2"]
    exp, prov = T.exponential_typoid(a, b)
    for i in range(exp.term_count):
        fam = prov.edges[exp.layer.eqv[i]]
        assert fam.src_term == i and fam.dst_term == i
        expected = tuple(b.layer.eqv[prov.terms[i].term_map[x]] for x in range(a.term_count))
        assert fam.theta == expected


def _exponential_outcome(build, a, b, limits=T.ExponentialLimits()):
    """The repr of the built typoid and provenance, so that dict order
    counts, or the message of the limit that stopped the build."""
    try:
        return repr(build(a, b, limits))
    except T.ResourceLimitError as exc:
        return f"{exc.bound}: {exc}"


def test_exponential_matches_brute_force_on_stock_pairs():
    stock = [*stock_base().values(), *stock_truncations().values()]
    for a in stock:
        for b in stock:
            assert _exponential_outcome(T.exponential_typoid, a, b) == _exponential_outcome(
                naive_exponential, a, b
            ), (a.name, b.name)


@pytest.mark.parametrize(
    "a, b",
    [
        (T.equality_typoid(T.cyclic_groupoid(4), "z4"), T.equality_typoid(T.cyclic_groupoid(8), "z8")),
        (T.equality_typoid(T.codiscrete_groupoid(3), "c3"), T.equality_typoid(T.codiscrete_groupoid(3), "c3")),
    ],
)
def test_exponential_matches_brute_force_on_larger_pairs(a, b):
    limits = T.ExponentialLimits(max_terms=1000, max_edges=10000)
    assert _exponential_outcome(T.exponential_typoid, a, b, limits) == _exponential_outcome(
        naive_exponential, a, b, limits
    )


@pytest.mark.parametrize("k", range(5))
def test_exponential_matches_brute_force_from_codiscrete_sources(k):
    # most term maps send some path to an empty hom-set; the search drops them
    a = T.equality_typoid(T.codiscrete_groupoid(k), f"c{k}")
    b = T.equality_typoid(T.discrete_groupoid(4), "d4")
    assert _exponential_outcome(T.exponential_typoid, a, b) == _exponential_outcome(naive_exponential, a, b)


def test_exponential_prunes_term_maps_as_soon_as_a_path_has_no_image():
    # 4**8 term maps, of which only the 4 constant ones carry a functor
    a = T.equality_typoid(T.codiscrete_groupoid(8), "c8")
    b = T.equality_typoid(T.discrete_groupoid(4), "d4")
    start = time.perf_counter()
    exp, prov = T.exponential_typoid(a, b)
    assert time.perf_counter() - start < 1.0
    assert [m.term_map for m in prov.terms] == [(y,) * 8 for y in range(4)]
    assert exp.term_count == 4


def test_exponential_matches_brute_force_into_fat_unit_cells():
    # the unit's options are the members of its image unit's cell, not only the unit
    fam = family()
    rich = rich_unit_cell_typoid()
    targets = [rich, fam[2], fam[4]]
    assert all(len(b.layer.class_members[b.layer.cell[b.layer.eqv[0]]]) > 1 for b in targets)
    for a in [*stock_base().values(), rich, fam[2], fam[4], fam[7]]:
        for b in targets:
            assert _exponential_outcome(T.exponential_typoid, a, b) == _exponential_outcome(
                naive_exponential, a, b
            ), (a.name, b.name)


def test_exponential_limits_stop_at_the_same_result_as_brute_force():
    base = stock_base()
    pairs = [(base["bool_disc"], base["eq_z2"]), (base["universe2"], base["universe11"]), (base["prop2"], base["bool_disc"])]
    for a, b in pairs:
        for max_terms in range(4):
            for max_edges in (0, 1, 5, 12):
                limits = T.ExponentialLimits(max_terms=max_terms, max_edges=max_edges)
                fast = _exponential_outcome(T.exponential_typoid, a, b, limits)
                assert fast == _exponential_outcome(naive_exponential, a, b, limits), (a.name, b.name, limits)


def test_exponential_limit_on_a_large_pair_raises_at_once():
    z10 = T.equality_typoid(T.cyclic_groupoid(10), "z10")
    start = time.perf_counter()
    with pytest.raises(T.ResourceLimitError) as exc:
        T.exponential_typoid(z10, z10, T.ExponentialLimits(max_terms=1))
    assert exc.value.bound == "max-terms"
    assert time.perf_counter() - start < 5.0


def test_exponential_into_a_disconnected_target_searches_only_pairs_of_like_term_maps():
    # 1,024 term maps into two components, each joined only to itself; a
    # search over all ordered pairs of terms takes seconds
    a, b = (T.equality_typoid(T.discrete_groupoid(n)) for n in (10, 2))
    start = time.perf_counter()
    exp, prov = T.exponential_typoid(a, b, T.ExponentialLimits(max_terms=4096, max_edges=65536))
    assert time.perf_counter() - start < 1.0
    assert (exp.term_count, exp.layer.edge_count) == (1024, 1024)
    assert all(fam.src_term == fam.dst_term for fam in prov.edges)


def test_a_layer_with_more_composable_pairs_than_the_budget_is_refused_unbuilt(monkeypatch):
    # eq(codiscrete 2) into one term with a three-edge cell: 81 terms and
    # 59,049 families, so about 43 million composable pairs
    monkeypatch.delenv("TYPOID_MAX_CHECKS", raising=False)
    fat = family()[4]
    assert (fat.term_count, fat.layer.edge_count, len(fat.layer.class_members)) == (1, 3, 1)
    a = T.equality_typoid(T.codiscrete_groupoid(2))
    start = time.perf_counter()
    with pytest.raises(T.ResourceLimitError) as exc:
        T.exponential_typoid(a, fat, T.ExponentialLimits(max_terms=4096, max_edges=65536))
    assert exc.value.bound == "TYPOID_MAX_CHECKS"
    assert time.perf_counter() - start < 5.0


def test_products_and_truncations_are_refused_before_their_keys_are_listed(monkeypatch):
    # the truncation of eq(discrete 3000) has 27,000,000,000 composable
    # pairs and eq(discrete 4000) squared 16,000,000: too many to list
    # their ids before refusing them
    monkeypatch.delenv("TYPOID_MAX_CHECKS", raising=False)
    d3000, d4000 = (T.equality_typoid(T.discrete_groupoid(n)) for n in (3000, 4000))
    refusals = ((lambda: T.truncate(d3000), 27 * 10**9), (lambda: T.product_typoid(d4000, d4000), 16 * 10**6))
    for build, needed in refusals:
        start = time.perf_counter()
        with pytest.raises(T.ResourceLimitError, match=f"{needed} law instances needed"):
            build()
        assert time.perf_counter() - start < 1.0


def test_completion_base_matches_brute_force_on_family_layers():
    for t in family():
        assert repr(_completion_base(t.layer)) == repr(naive_completion_base(t.layer)), t.name


def test_completion_base_of_singleton_cells_orders_star_by_id_pair():
    # a singleton-cell layer is its own base, but comp is written in id
    # order whatever order star was inserted in
    for g in (T.codiscrete_groupoid(3), T.cyclic_groupoid(4)):
        layer = T.equality_typoid(g).layer
        assert layer.cell == tuple(range(layer.edge_count))
        reversed_star = dataclasses.replace(layer, star=dict(reversed([*layer.star.items()])))
        for lay in (layer, reversed_star):
            assert repr(_completion_base(lay)) == repr(naive_completion_base(lay))
        assert list(_completion_base(reversed_star)[0].comp) == sorted(layer.star)


def test_presented_refuses_a_composite_outside_its_keys():
    # Z3's composition over the keys 0 and 1 only: 1 + 1 = 2 is no key
    with pytest.raises(AssertionError, match="^presented level is not closed; construction bug$"):
        _presented(
            range(2),
            ends=lambda _: (0, 0),
            compose=lambda i, out: [(i + j) % 3 for j in out],
            inverse=lambda i: -i % 2,
            unit=lambda _: 0,
            term_count=1,
        )


# -- universe -----------------------------------------------------------------

def test_universe_of_one_two_element_set():
    u = stock_base()["universe2"]
    assert u.term_count == 1
    assert u.base.path_count == 2
    assert u.layer.edge_count == 2
    assert len(set(u.layer.cell)) == 2
    assert isinstance(T.check_univalence(u), UnivalenceCertificate)


def test_universe_of_two_singletons():
    u = stock_base()["universe11"]
    assert u.term_count == 2
    for x in range(2):
        for y in range(2):
            assert len(u.layer.hom(x, y)) == 1
    assert isinstance(T.check_univalence(u), UnivalenceCertificate)


def test_universe_with_empty_set():
    u = T.universe_typoid([0, 1])
    assert u.layer.hom(0, 1) == ()
    assert u.layer.hom(1, 0) == ()
    assert len(u.layer.hom(0, 0)) == 1  # the empty bijection
    assert T.validate_typoid(u).valid
    assert isinstance(T.check_univalence(u), UnivalenceCertificate)


def test_universe_size_bound(monkeypatch):
    # k sets of size n have k² · n! bijections among them
    for sets in ([7], [2] * 51, [1] * 71, [3] * 29, [5] * 6 + [6], [10**9]):
        start = time.perf_counter()
        with pytest.raises(T.ResourceLimitError) as exc:
            T.universe_typoid(sets)
        assert exc.value.bound == "universe-size"
        assert time.perf_counter() - start < 0.5, sets
    for sets, edges in (([3] * 9, 486), ([1, 1, 2, 2, 3] * 5, 450)):
        assert T.universe_typoid(sets).layer.edge_count == edges
    # on both sides of a lower bound: 49 and 50 bijections pass, 64 and 72 do not
    monkeypatch.setattr(T.constructions, "UNIVERSE_MAX_EDGES", 50)
    for sets, edges in (([1] * 7, 49), ([2] * 5, 50), ([4, 1, 1, 1], 33)):
        assert T.universe_typoid(sets).layer.edge_count == edges
    for sets in ([1] * 8, [2] * 6, [5], [4, 4]):
        with pytest.raises(T.ResourceLimitError):
            T.universe_typoid(sets)


def test_generators_refuse_sizes_out_of_range():
    with pytest.raises(ValueError, match="at least 1"):
        T.cyclic_groupoid(0)
    with pytest.raises(ValueError, match="non-negative"):
        T.universe_typoid([2, -1])


# -- completion ---------------------------------------------------------------

def test_completion_of_equality_typoid_is_itself():
    t = stock_base()["eq_z2"]
    assert T.univalent_completion(t).same_structure(t)


def test_completion_of_twoedge_grows_a_path():
    c = T.univalent_completion(T.twoedge_typoid())
    assert c.base.path_count == 2
    assert T.validate_typoid(c).valid
    assert isinstance(T.check_univalence(c), UnivalenceCertificate)


def test_completion_of_truncated_bool_disc_grows_cross_paths():
    tr = T.truncate(stock_base()["bool_disc"])
    c = T.univalent_completion(tr)
    assert len(c.base.hom(0, 1)) == 1
    assert isinstance(T.check_univalence(c), UnivalenceCertificate)


def test_completion_valid_and_univalent_corpus_wide():
    for name, t in stock_base().items():
        c = T.univalent_completion(t)
        assert T.validate_typoid(c).valid, name
        assert isinstance(T.check_univalence(c), UnivalenceCertificate), name


# -- normal form --------------------------------------------------------------

def _in_normal_form(t: T.Typoid) -> bool:
    # canonical ids, each cell labelled by its least id, composition rows
    # inserted in id order: renumbering changes nothing, not even dict order
    return repr(_renumber(t)[0]) == repr(t)


def test_constructions_write_the_normal_form():
    stock = list(full_stock().values())
    base = list(stock_base().values())
    small = [*base, *stock_truncations().values()]
    members = family()
    family_pairs = list(zip(members[::7], members[1::7]))
    for t in stock:
        assert _in_normal_form(T.equality_typoid(t.base, name=t.name)), t.name
    for t in [*stock, *members[::7]]:
        assert _in_normal_form(T.univalent_completion(t)), t.name
    for sets in ([], [0], [2], [1, 2, 2], [3, 3], [2, 3, 2]):
        assert _in_normal_form(T.universe_typoid(sets)), sets
    for a, b in [pair for a in stock for b in base for pair in ((a, b), (b, a))] + family_pairs:
        assert _in_normal_form(T.product_typoid(a, b)[0]), (a.name, b.name)
    for a, b in [(a, b) for a in small for b in small] + family_pairs:
        try:
            exp, _ = T.exponential_typoid(a, b)
        except T.ResourceLimitError:
            continue
        assert _in_normal_form(exp), (a.name, b.name)


# -- base predicates ----------------------------------------------------------

def test_base_predicates():
    assert T.is_prop(T.codiscrete_groupoid(3))
    assert not T.is_prop(T.discrete_groupoid(2))
    assert T.is_prop(T.discrete_groupoid(1))
    assert T.singleton_homs(T.codiscrete_groupoid(2))
    assert not T.singleton_homs(T.cyclic_groupoid(2))
    assert not T.singleton_homs(T.discrete_groupoid(2))
