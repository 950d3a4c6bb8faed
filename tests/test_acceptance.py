"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see them) and enforcing its runtime bound where one is
stated."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import typoid as T
from typoid import cli
from typoid.dsl import document_for, parse, serialize
from typoid.morphisms import identity_morphism
from typoid.univalence import UnivalenceCertificate

from corpus import full_stock, stock_base, stock_products, stock_truncations, univalent_stock
from small_models import check_inverse_law, derived_laws, family, is_strict, oracle_search, structurally_equal


@contextmanager
def criterion(tag: str, bound: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {tag}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {tag}: PASS ({elapsed:.2f}s)")
    if bound is not None:
        assert elapsed < bound, f"criterion {tag} took {elapsed:.2f}s, bound {bound}s"


def test_criterion_01_axiom_suite():
    corpus = full_stock()
    with criterion("1 axiom suite", bound=1.0):
        for name, t in corpus.items():
            assert T.validate_typoid(t).valid, name
            assert derived_laws(t).valid, name


def test_criterion_02_univalence_oracle_equivalence():
    fam = family(max_terms=2, max_paths_per_hom=2, max_edges_per_hom=3)
    with criterion("2 oracle equivalence", bound=60.0):
        univalent = 0
        for t in fam:
            outcome = T.check_univalence(t)
            satisfying, rejected = oracle_search(t)
            assert len(satisfying) <= 1, f"{t.name}: witness table is not unique"
            if isinstance(outcome, UnivalenceCertificate):
                assert len(satisfying) == 1, f"{t.name}: decision says yes, oracle found none"
                assert satisfying[0] == outcome.ua, t.name
                assert T.verify_certificate(t, outcome).valid, t.name
                univalent += 1
            else:
                assert not satisfying, f"{t.name}: decision says no, oracle found a table"
            for table in rejected:
                rejected_cert = UnivalenceCertificate(typoid_name=t.name, ua=table)
                assert not T.verify_certificate(t, rejected_cert).valid, t.name
        assert univalent > 0 and univalent < len(fam)
        print(f"  family: {len(fam)} structures, {univalent} univalent")


def test_criterion_03_products_of_univalent_are_univalent():
    with criterion("3 product univalence", bound=5.0):
        for name, (prod, prov) in stock_products().items():
            cert = T.check_univalence(prod)
            assert isinstance(cert, UnivalenceCertificate), name
            assert T.verify_certificate(prod, cert).valid, name


def test_criterion_04_pointed_factors():
    with criterion("4 pointed factors"):
        for name, (prod, prov) in stock_products().items():
            a, b = prov.factors
            if a.term_count == 0 or b.term_count == 0:
                continue
            report = T.check_pointed_factors(prod, prov, a_point=0, b_point=0)
            assert report.cert_a is not None and report.cert_b is not None, name
            assert T.verify_certificate(a, report.cert_a).valid, name
            assert T.verify_certificate(b, report.cert_b).valid, name


def test_criterion_05_induced_morphisms():
    sources = {n: t for n, t in univalent_stock().items() if t.term_count <= 2}
    targets = {**stock_base(), **stock_truncations()}
    target_certs = {
        n: c
        for n, t in targets.items()
        if isinstance(c := T.check_univalence(t), UnivalenceCertificate)
    }
    with criterion("5 induced morphisms"):
        import itertools

        built = 0
        for sname, src in sources.items():
            c_src = T.check_univalence(src)
            for tname, dst in targets.items():
                for f in itertools.product(range(dst.term_count), repeat=src.term_count):
                    for ap in T.iter_path_functors(src.base, dst.base, f):
                        m = T.induce_morphism(src, dst, f, ap)
                        label = f"{sname}->{tname} {f}"
                        assert T.validate_morphism(m).valid, label
                        assert is_strict(m), label
                        assert check_inverse_law(m).valid, label
                        if tname in target_certs:
                            report = T.check_square(m, target_certs[tname], c_src)
                            assert report.valid, label
                        built += 1
        assert built > 100
        print(f"  induced and checked {built} morphisms")


def test_criterion_06_exponentials_univalent():
    limits = T.ExponentialLimits(max_terms=64, max_edges=256)
    bd = stock_base()["bool_disc"]
    candidates = {
        n: t
        for n, t in univalent_stock().items()
        if t.term_count <= 2
        and all(
            len(t.layer.hom(x, y)) <= 2
            for x in range(t.term_count)
            for y in range(t.term_count)
        )
    }
    with criterion("6 exponentials", bound=10.0):
        assert candidates
        for name, b in candidates.items():
            exp, _ = T.exponential_typoid(bd, b, limits)
            assert T.validate_typoid(exp).valid, name
            cert = T.check_univalence(exp)
            assert isinstance(cert, UnivalenceCertificate), name
            assert T.verify_certificate(exp, cert).valid, name


def test_criterion_07_truncation_univalent_iff_singleton_homs():
    with criterion("7 truncation univalence"):
        instances = list(full_stock().values()) + list(family())
        for t in instances:
            tr = T.truncate(t)
            outcome = T.check_univalence(tr)
            expected = T.singleton_homs(t.base)
            got = isinstance(outcome, UnivalenceCertificate)
            assert got == expected, t.name


def test_criterion_08_morphism_suite_composition_and_truncation_maps():
    import itertools

    suite: list[T.TypoidMorphism] = []
    targets = {**stock_base(), **stock_truncations()}
    with criterion("8 morphism suite"):
        for name, (prod, prov) in stock_products().items():
            pr1, pr2 = T.projections(prod, prov)
            suite.extend([pr1, pr2])
        for name, t in targets.items():
            suite.append(identity_morphism(t))
            suite.append(T.identity_from_equality(t))

        # every term map (admitting a base functor) into a truncation gets
        # the constant-unit edge action and validates
        for sname, src in targets.items():
            for tname, trunc in stock_truncations().items():
                for f in itertools.product(
                    range(trunc.term_count), repeat=src.term_count
                ):
                    try:
                        m = T.morphism_into_truncation(src, trunc, f)
                    except ValueError:
                        continue
                    label = f"{sname}->{tname} {f}"
                    assert T.validate_morphism(m).valid, label
                    eqvs = {trunc.layer.eqv[x] for x in range(trunc.term_count)}
                    image_cells = {trunc.layer.cell[e] for e in m.edge_map}
                    hom_cells = {
                        trunc.layer.cell[
                            trunc.layer.hom(f[src.layer.edge_src[e]], f[src.layer.edge_dst[e]])[0]
                        ]
                        for e in range(src.layer.edge_count)
                    }
                    assert image_cells == hom_cells, label
                    suite.append(m)

        # morphisms out of truncations over singleton-hom bases
        out_of_truncation = 0
        for xname, x in targets.items():
            if not T.singleton_homs(x.base):
                continue
            tr = T.truncate(x)
            for tname, dst in targets.items():
                for f in itertools.product(range(dst.term_count), repeat=tr.term_count):
                    aps = list(T.iter_path_functors(tr.base, dst.base, f))
                    if not aps:
                        continue
                    m = T.induce_morphism(tr, dst, f, aps[0])
                    assert T.validate_morphism(m).valid, f"{xname}^t -> {tname}"
                    suite.append(m)
                    out_of_truncation += 1
                    break  # one witness map per target is enough here
        assert out_of_truncation > 0

        # inverse preservation is a theorem of the morphism laws: it must
        # hold for every member of the suite
        for m in suite:
            assert check_inverse_law(m).valid, m.name

        composed = 0
        for m1 in suite:
            for m2 in suite:
                if m1.target is m2.source or m1.target.same_structure(m2.source):
                    m = T.compose_morphisms(m1, m2)
                    assert T.validate_morphism(m).valid, f"{m1.name} ; {m2.name}"
                    if is_strict(m1) and is_strict(m2):
                        assert is_strict(m)
                    composed += 1
        assert composed > 100
        print(f"  suite of {len(suite)} morphisms, {composed} composites checked")


def test_criterion_09_pair_tables_exact():
    with criterion("9 pairing tables"):
        for name, (prod, prov) in stock_products().items():
            a, b = prov.factors
            for e1 in range(a.layer.edge_count):
                for e2 in range(b.layer.edge_count):
                    e = prov.pair_edge[(e1, e2)]
                    assert prov.split_edge[e] == (e1, e2), name
            for e in range(prod.layer.edge_count):
                assert prov.pair_edge[prov.split_edge[e]] == e, name
            for p in range(prod.base.path_count):
                assert prov.pair_path[prov.split_path[p]] == p, name
            # congruence: componentwise cell-equal inputs pair to cell-equal outputs
            acell, bcell = a.layer.cell, b.layer.cell
            for (e1, e2), e in prov.pair_edge.items():
                d = prov.pair_edge[(acell[e1], bcell[e2])]
                assert prod.layer.cell[e] == prod.layer.cell[d], name


def test_criterion_10_dsl_round_trip_and_cli_scenarios(tmp_path, capsys):
    with criterion("10 dsl and cli"):
        for name, t in full_stock().items():
            doc = document_for([t])
            result = parse(serialize(doc))
            assert result.ok, name
            assert structurally_equal(result.document, doc), name

        prod, prov = stock_products()["prod_eq_z2_bool_disc"]
        a, b = prov.factors
        pr1, pr2 = T.projections(prod, prov)
        doc = document_for([prod, a, b], [pr1, pr2])
        result = parse(serialize(doc))
        assert result.ok and structurally_equal(result.document, doc)

        unit_file = tmp_path / "unit.typoid"
        unit_file.write_text("typoid U {\n  terms x ;\n}\n")
        assert cli.main(["validate", str(unit_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"] == "valid"

        two_file = tmp_path / "twoedge.typoid"
        two_file.write_text(
            "typoid T {\n  terms x ;\n  edge e : x ~ x ;\n"
            "  star e * e = eqv_x ;\n  einv e = e ;\n}\n"
        )
        assert cli.main(["univalence", str(two_file), "--typoid", "T"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["result"] == "not-univalent" and report["violations"]

        ab_file = tmp_path / "ab.typoid"
        ab_file.write_text(
            "typoid A {\n  terms x ;\n  path p : x -> x ;\n  comp p . p = refl_x ;\n"
            "  pinv p = p ;\n  edge q : x ~ x ;\n  star q * q = eqv_x ;\n  einv q = q ;\n"
            "  idtoeqv p => q ;\n}\n"
            "typoid B {\n  terms y ;\n}\n"
        )
        out_file = tmp_path / "p.typoid"
        assert cli.main(["product", str(ab_file), "A", "B", "-o", str(out_file)]) == 0
        capsys.readouterr()
        assert cli.main(["univalence", str(out_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"] == "univalent"
