"""Command line behaviour: exit codes, JSON schema, byte stability."""

from __future__ import annotations

import json
import random
import re
import time
import tracemalloc
from collections import Counter
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import typoid as T
from typoid import cli
from typoid.dsl import _MISSING_SHOWN, _TYPOID_STATEMENTS, document_for, parse, serialize, serialize_to
from typoid.model import Budget, validate_typoid
from typoid.morphisms import identity_morphism, validate_morphism

from corpus import full_stock, stock_products
from small_models import family, same_hom_redirects

UNIT = "typoid U {\n  terms x ;\n}\n"
TWOEDGE = "typoid T {\n  terms x ;\n  edge e : x ~ x ;\n  star e * e = eqv_x ;\n  einv e = e ;\n}\n"
AB = (
    "typoid A {\n  terms x ;\n  path p : x -> x ;\n  comp p . p = refl_x ;\n"
    "  pinv p = p ;\n  edge q : x ~ x ;\n  star q * q = eqv_x ;\n  einv q = q ;\n"
    "  idtoeqv p => q ;\n}\n"
    "typoid B {\n  terms y ;\n}\n"
)


def run(capsys, *argv) -> tuple[int, dict]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_validate_unit_exits_zero(tmp_path, capsys):
    f = tmp_path / "unit.typoid"
    f.write_text(UNIT)
    code, report = run(capsys, "validate", str(f))
    assert code == 0
    assert report["result"] == "valid"
    assert report["tool"] == "typoid"
    assert set(report) == {"tool", "version", "result", "violations", "ua", "stats"}
    assert set(report["stats"]) == {"terms", "paths", "edges", "checks"}


def test_univalence_twoedge_exits_one_with_witness(tmp_path, capsys):
    f = tmp_path / "twoedge.typoid"
    f.write_text(TWOEDGE)
    code, report = run(capsys, "univalence", str(f), "--typoid", "T")
    assert code == 1
    assert report["result"] == "not-univalent"
    assert report["violations"]
    assert "not-surjective" in report["violations"][0]["detail"]


def test_product_then_univalence_exits_zero(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    out = tmp_path / "p.typoid"
    code, report = run(capsys, "product", str(f), "A", "B", "-o", str(out))
    assert code == 0
    assert out.exists()
    assert (tmp_path / "p.typoid.prov.json").exists()
    code, report = run(capsys, "univalence", str(out))
    assert code == 0
    assert report["result"] == "univalent"


def test_univalence_emit_ua(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    code, report = run(capsys, "univalence", str(f), "--typoid", "A", "--emit-ua")
    assert code == 0
    assert report["ua"] == [{"edge": 0, "path": 0}, {"edge": 1, "path": 1}]


def test_parse_error_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.typoid"
    f.write_text("typoid A {\n  terms x ;\n  path p : x -> z ;\n}\n")
    code, report = run(capsys, "validate", str(f))
    assert code == 2
    assert report["result"] == "parse-error"
    assert report["violations"][0]["code"].startswith("E")


def test_missing_file_exits_two(tmp_path, capsys):
    code, report = run(capsys, "validate", str(tmp_path / "nope.typoid"))
    assert code == 2
    assert report["result"] == "input-error"


def test_law_violations_exit_one_with_l_codes(tmp_path, capsys):
    # a comp row contradicting the unit law parses fine but breaks the laws
    f = tmp_path / "broken.typoid"
    f.write_text(
        "typoid A {\n  terms x ;\n  path p : x -> x ;\n"
        "  comp p . p = p ;\n  comp refl_x . p = refl_x ;\n"
        "  pinv p = p ;\n  idtoeqv p => eqv_x ;\n}\n"
    )
    code, report = run(capsys, "validate", str(f))
    assert code == 1
    assert report["result"] == "invalid"
    assert all(v["code"].startswith("L") for v in report["violations"])
    # univalence is decided only on a valid typoid, and says why not
    assert run(capsys, "univalence", str(f)) == (1, report)


def test_exp_resource_limit_exits_three(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    code, report = run(
        capsys, "exp", str(f), "A", "B", "-o", str(tmp_path / "e.typoid"), "--max-terms", "0"
    )
    assert code == 3
    assert report["result"] == "resource-limit"
    assert report["violations"][0]["bound"] == "max-terms"


def test_truncate_complete_and_checkfun(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    out = tmp_path / "t.typoid"
    code, _ = run(capsys, "truncate", str(f), "A", "-o", str(out))
    assert code == 0
    code, report = run(capsys, "univalence", str(out))
    assert code == 1  # A's base hom has two paths

    cout = tmp_path / "c.typoid"
    code, _ = run(capsys, "complete", str(f), "A", "-o", str(cout))
    assert code == 0
    code, report = run(capsys, "univalence", str(cout))
    assert code == 0

    mf = tmp_path / "m.typoid"
    mf.write_text(UNIT + TWOEDGE + "morphism m : U -> T {\n  term x |-> x ;\n  edge eqv_x |-> e ;\n}\n")
    code, report = run(capsys, "check-fun", str(mf), "--morphism", "m")
    assert code == 1
    assert any(v["law"] == "UnitPres" for v in report["violations"])
    code, report = run(capsys, "check-fun", str(mf), "--morphism", "m", "--no-ap")
    assert code == 1  # the unit-cell violation has nothing to do with ap


def test_checkfun_no_ap_skips_base_functor_checks(tmp_path, capsys):
    # send refl to the non-refl path: only the base functor law breaks
    src = (
        AB
        + "morphism crooked : A -> A {\n"
        + "  term x |-> x ;\n  path refl_x |-> p ;\n  path p |-> p ;\n  edge q |-> q ;\n}\n"
    )
    f = tmp_path / "m.typoid"
    f.write_text(src)
    code, report = run(capsys, "check-fun", str(f), "--morphism", "crooked")
    assert code == 1
    assert any(v["law"] == "ApFunctor" for v in report["violations"])
    code, report = run(capsys, "check-fun", str(f), "--morphism", "crooked", "--no-ap")
    assert code == 0  # the edge action alone is lawful
    assert report["result"] == "valid"


def test_checkfun_adhoc_morphism_from_flags(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    code, report = run(
        capsys, "check-fun", str(f), "--from", "A", "--to", "A",
        "--map", "x:x", "--path-map", "p:p", "--edge-map", "q:q",
    )
    assert code == 0
    assert report["result"] == "valid"
    # an explicit row may override the default eqv image, and is then caught
    code, report = run(
        capsys, "check-fun", str(f), "--from", "A", "--to", "A",
        "--map", "x:x", "--path-map", "p:p", "--edge-map", "eqv_x:q,q:q",
    )
    assert code == 1
    assert any(v["law"] == "UnitPres" for v in report["violations"])


def test_induce_builds_valid_morphism(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    code, report = run(
        capsys, "induce", str(f), "--from", "A", "--to", "A",
        "--map", "x:x", "--path-map", "p:p",
    )
    assert code == 0
    assert report["result"] == "valid"


def test_induce_from_non_univalent_source(tmp_path, capsys):
    f = tmp_path / "two.typoid"
    f.write_text(TWOEDGE)
    code, report = run(
        capsys, "induce", str(f), "--from", "T", "--to", "T", "--map", "x:x"
    )
    assert code == 1
    assert report["result"] == "not-univalent"


def test_gen_writes_parseable_files(tmp_path, capsys):
    for argv, name in [
        (["gen", "equality", "2"], "eq2"),
        (["gen", "discrete", "2"], "disc2"),
        (["gen", "prop", "2"], "prop2"),
        (["gen", "universe", "1", "1"], "universe"),
    ]:
        out = tmp_path / f"{name}.typoid"
        code, report = run(capsys, *argv, "-o", str(out))
        assert code == 0
        result = parse(out.read_text())
        assert result.ok
        sidecar = json.loads((tmp_path / f"{name}.typoid.prov.json").read_text())
        assert sidecar["kind"] == "generator"


def test_gen_refuses_sizes_the_budget_cannot_validate(tmp_path, capsys):
    # N^2 comp rows for equality, N^3 for prop and N for discrete: refused
    # before any table is built
    for argv in (["equality", "1000000"], ["prop", "10000"], ["discrete", "100000000"]):
        out = tmp_path / f"{argv[0]}.typoid"
        start = time.perf_counter()
        code, report = run(capsys, "gen", *argv, "-o", str(out))
        elapsed = time.perf_counter() - start
        assert code == 3, argv
        assert report["violations"][0]["bound"] == "TYPOID_MAX_CHECKS"
        assert elapsed < 1.0, argv
        assert not out.exists()


def test_a_product_the_budget_cannot_validate_exits_3_before_it_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TYPOID_MAX_CHECKS", raising=False)
    eq = tmp_path / "eq.typoid"
    assert run(capsys, "gen", "equality", "150", "-o", str(eq))[0] == 0
    out = tmp_path / "p.typoid"
    start = time.perf_counter()
    code, report = run(capsys, "product", str(eq), "eq150", "eq150", "-o", str(out))
    assert code == 3
    assert report["violations"][0]["bound"] == "TYPOID_MAX_CHECKS"
    assert time.perf_counter() - start < 5.0
    assert not out.exists()


def test_a_product_too_large_to_list_exits_3_with_one_report(tmp_path, capsys, monkeypatch):
    # 16,000,000 composable pairs, refused before the product's ids are listed
    monkeypatch.delenv("TYPOID_MAX_CHECKS", raising=False)
    disc = tmp_path / "disc.typoid"
    assert run(capsys, "gen", "discrete", "4000", "-o", str(disc))[0] == 0
    out = tmp_path / "p.typoid"
    code, report = run(capsys, "product", str(disc), "disc4000", "disc4000", "-o", str(out))
    assert code == 3
    assert report["violations"] == [
        {"code": "R000", "bound": "TYPOID_MAX_CHECKS", "message": "16000000 law instances needed, limit is 10000000"}
    ]
    assert not out.exists()


def test_a_budget_that_is_not_a_decimal_integer_is_ignored(tmp_path, capsys, monkeypatch):
    # "²".isdigit() holds, but int("²") raises
    for raw in ("²", "1e6", "-5", " 7", ""):
        monkeypatch.setenv("TYPOID_MAX_CHECKS", raw)
        assert Budget().limit == 10_000_000, raw
        code, report = run(capsys, "gen", "discrete", "2", "-o", str(tmp_path / "disc2.typoid"))
        assert (code, report["result"]) == (0, "ok"), raw


def test_json_reports_byte_stable(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    cli.main(["univalence", str(f), "--typoid", "A", "--emit-ua"])
    first = capsys.readouterr().out
    cli.main(["univalence", str(f), "--typoid", "A", "--emit-ua"])
    second = capsys.readouterr().out
    assert first == second


def test_written_files_byte_stable(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    out1, out2 = tmp_path / "p1.typoid", tmp_path / "p2.typoid"
    run(capsys, "product", str(f), "A", "B", "-o", str(out1))
    run(capsys, "product", str(f), "A", "B", "-o", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "p1.typoid.prov.json").read_bytes() == (
        tmp_path / "p2.typoid.prov.json"
    ).read_bytes()


def test_univalence_validates_once(tmp_path, capsys, monkeypatch):
    import typoid.univalence as univalence

    calls = []
    for module in (cli, univalence):
        original = module.validate_typoid

        def counted(*args, _original=original, **kwargs):
            calls.append(args[0].name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "validate_typoid", counted)
    f = tmp_path / "ab.typoid"
    f.write_text(AB + TWOEDGE)
    assert run(capsys, "univalence", str(f), "--typoid", "A")[1]["result"] == "univalent"
    assert run(capsys, "univalence", str(f), "--typoid", "T")[1]["result"] == "not-univalent"
    assert calls == ["A", "T"]


def test_univalence_spends_one_budget_across_validation_and_decision(tmp_path, capsys, monkeypatch):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    code, report = run(capsys, "univalence", str(f), "--typoid", "A")
    assert code == 0
    decision = 4  # the one hom of A holds two paths and two edges
    monkeypatch.setenv("TYPOID_MAX_CHECKS", str(report["stats"]["checks"] + decision))
    assert run(capsys, "univalence", str(f), "--typoid", "A")[0] == 0
    monkeypatch.setenv("TYPOID_MAX_CHECKS", str(report["stats"]["checks"] + decision - 1))
    code, report = run(capsys, "univalence", str(f), "--typoid", "A")
    assert code == 3
    assert report["result"] == "resource-limit"
    # not univalent at its first hom-set, (x, x), and charged for every path
    # and edge all the same: two paths and three edges
    f.write_text("typoid T {\n  terms x y ;\n  edge e : x ~ x ;\n  star e * e = eqv_x ;\n  einv e = e ;\n}\n")
    monkeypatch.delenv("TYPOID_MAX_CHECKS")
    code, report = run(capsys, "univalence", str(f))
    assert code == 1
    assert report["violations"][0]["detail"] == "not-surjective on hom (0, 0)"
    decision = 2 + 3
    monkeypatch.setenv("TYPOID_MAX_CHECKS", str(report["stats"]["checks"] + decision))
    assert run(capsys, "univalence", str(f))[0] == 1
    monkeypatch.setenv("TYPOID_MAX_CHECKS", str(report["stats"]["checks"] + decision - 1))
    assert run(capsys, "univalence", str(f))[0] == 3


def test_missing_star_rows_are_reported_up_to_a_cap(tmp_path, capsys):
    # one term, 700 edges and no star rows: 490,000 composable pairs lack one
    f = tmp_path / "nostar.typoid"
    f.write_text(
        "typoid A {\n  terms x ;\n"
        + "".join(f"  edge e{k} : x ~ x ;\n  einv e{k} = e{k} ;\n" for k in range(700))
        + "}\n"
    )
    code = cli.main(["validate", str(f)])
    out = capsys.readouterr().out
    assert code == 2
    assert len(out) < 100_000
    messages = [v["message"] for v in json.loads(out)["violations"]]
    assert len(messages) == _MISSING_SHOWN + 1
    assert messages[0] == "missing star entry for 'e0' * 'e0' in typoid 'A'"
    assert messages[-1] == f"{490_000 - _MISSING_SHOWN} more missing star entries in typoid 'A'"


def test_gen_universe_refuses_large_sets_quickly(tmp_path, capsys):
    # the bijection count stops at the bound instead of multiplying out n!
    for size in ("2000", str(10**6)):
        out = tmp_path / "u.typoid"
        start = time.perf_counter()
        code, report = run(capsys, "gen", "universe", size, "-o", str(out))
        assert time.perf_counter() - start < 1.0, size
        assert code == 3, size
        assert report["violations"][0]["bound"] == "universe-size"
        assert not out.exists()


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    for out in (tmp_path / "no" / "such" / "x.typoid", tmp_path):
        code, report = run(capsys, "gen", "equality", "3", "-o", str(out))
        assert code == 2, out
        assert report["result"] == "input-error"
        assert report["violations"][0]["code"] == "E000"
        assert report["violations"][0]["message"].startswith(f"cannot write {out}: ")


def test_unwritable_sidecar_leaves_no_file_behind(tmp_path, capsys):
    out = tmp_path / "o.typoid"
    (tmp_path / "o.typoid.prov.json").mkdir()
    code, report = run(capsys, "gen", "equality", "2", "-o", str(out))
    assert code == 2
    assert report["violations"][0]["message"].startswith(f"cannot write {out}.prov.json: ")
    assert [p.name for p in tmp_path.iterdir()] == ["o.typoid.prov.json"]


def test_writing_a_construction_holds_one_piece_of_its_text(tmp_path):
    # eq(Z6) -> eq(Z6) is 2.7 MB of text; built as one string before it was
    # written, the write peaked at 12.9 MB under tracemalloc
    eq6 = T.equality_typoid(T.cyclic_groupoid(6))
    exp, _ = T.exponential_typoid(eq6, eq6, T.ExponentialLimits(max_terms=4096, max_edges=65536))
    assert (exp.term_count, exp.base.path_count, exp.layer.edge_count) == (36, 1296, 1296)
    text = serialize(document_for([exp]))
    pieces: list[str] = []
    serialize_to(document_for([exp]), pieces.append)
    assert len(pieces) > 10
    out = tmp_path / "exp.typoid"
    tracemalloc.start()
    try:
        cli._write_construction(str(out), exp, {"kind": "exponential"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == text.encode("utf-8")
    assert peak < 4 * 2**20


def test_negative_exp_bounds_are_input_errors(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    out = tmp_path / "e.typoid"
    for flag, bound in (("--max-terms", "max_terms"), ("--max-edges", "max_edges")):
        code, report = run(capsys, "exp", str(f), "A", "B", "-o", str(out), flag, "-1")
        assert code == 2, flag
        assert report["result"] == "input-error"
        assert report["violations"] == [{"code": "E000", "message": f"{bound} must be non-negative, got -1"}]
    assert not out.exists()


def test_validate_spends_one_budget_across_the_file(tmp_path, capsys, monkeypatch):
    u = T.universe_typoid([3, 3], name="u")
    monkeypatch.setenv("TYPOID_MAX_CHECKS", "10000")
    one, two = tmp_path / "one.typoid", tmp_path / "two.typoid"
    one.write_text(serialize(document_for([u])))
    two.write_text(serialize(document_for([u, T.universe_typoid([3, 3], name="v")])))
    assert run(capsys, "validate", str(one))[0] == 0
    code, report = run(capsys, "validate", str(two))
    assert code == 3
    assert report["violations"][0]["bound"] == "TYPOID_MAX_CHECKS"

    # morphisms spend on the same budget
    budget = Budget(10**9)
    validate_typoid(u, budget)
    validate_morphism(identity_morphism(u), budget)
    with_morphism = tmp_path / "m.typoid"
    with_morphism.write_text(serialize(document_for([u], [identity_morphism(u)])))
    monkeypatch.setenv("TYPOID_MAX_CHECKS", str(budget.spent))
    assert run(capsys, "validate", str(with_morphism))[0] == 0
    monkeypatch.setenv("TYPOID_MAX_CHECKS", str(budget.spent - 1))
    assert run(capsys, "validate", str(with_morphism))[0] == 3


def test_induce_rejects_unknown_source_names(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    for command, flags, message in (
        ("induce", ["--map", "x:x,zz:x", "--path-map", "p:p"], "--map names unknown term 'zz'"),
        ("induce", ["--map", "x:zz", "--path-map", "p:p"], "--map sends 'x' to unknown term 'zz'"),
        ("induce", ["--map", "x", "--path-map", "p:p"], "bad --map entry 'x'; expected name:name"),
        ("induce", ["--map", "x:x", "--path-map", "p:p,nope:p"], "--path-map names unknown path 'nope'"),
        # a name assigned twice is refused, not settled by the last assignment
        ("induce", ["--map", "x:x,x:x", "--path-map", "p:p"], "--map maps term 'x' twice"),
        ("induce", ["--map", "x:x", "--path-map", "p:p, p :refl_x"], "--path-map maps path 'p' twice"),
        (
            "check-fun",
            ["--map", "x:x", "--path-map", "p:p", "--edge-map", "q:eqv_x,q:q"],
            "--edge-map maps edge 'q' twice",
        ),
    ):
        code, report = run(capsys, command, str(f), "--from", "A", "--to", "A", *flags)
        assert code == 2, flags
        assert report["violations"] == [{"code": "E000", "message": message}]


def test_checkfun_names_the_term_its_map_misses(tmp_path, capsys):
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    code, report = run(capsys, "check-fun", str(f), "--from", "A", "--to", "A", "--path-map", "p:p")
    assert code == 2
    assert report["violations"] == [{"code": "E000", "message": "--map misses term 'x'"}]


def test_bad_command_lines_end_in_one_report(tmp_path, capsys):
    # each message verbatim, as argparse words it for the parser as built
    f = tmp_path / "ab.typoid"
    f.write_text(AB)
    out = tmp_path / "e.typoid"
    required = "the following arguments are required"
    for argv, message in (
        ([], f"typoid: {required}: command"),
        (
            ["nope"],
            "typoid: argument command: invalid choice: 'nope' (choose from 'validate', 'univalence', "
            "'product', 'exp', 'truncate', 'complete', 'check-fun', 'induce', 'gen')",
        ),
        (["exp"], f"typoid exp: {required}: file, a, b, -o/--out"),
        (["product", "f", "a"], f"typoid product: {required}: b, -o/--out"),
        (["exp", "f", "a", "b"], f"typoid exp: {required}: -o/--out"),
        (
            ["exp", str(f), "A", "B", "-o", str(out), "--max-terms", "z"],
            "typoid exp: argument --max-terms: invalid int value: 'z'",
        ),
        (
            ["gen", "bogus"],
            "typoid gen: argument kind: invalid choice: 'bogus' (choose from 'equality', 'universe', 'discrete', 'prop')",
        ),
        (["gen", "universe", "-o", str(out)], "gen universe takes the set cardinalities"),
        (["induce", "f"], f"typoid induce: {required}: --from, --to"),
        (["check-fun"], f"typoid check-fun: {required}: file"),
    ):
        code = cli.main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2, argv
        assert len(lines) == 1, argv
        report = json.loads(lines[0])
        assert report["result"] == "input-error"
        assert report["violations"] == [{"code": "E000", "message": message}]
    assert not out.exists()
    args = cli.build_parser().parse_args(["exp", str(f), "A", "B", "-o", str(out)])
    assert T.ExponentialLimits(args.max_terms, args.max_edges) == T.ExponentialLimits()


_COMMANDS = ("validate", "univalence", "product", "exp", "truncate", "complete", "check-fun", "induce", "gen")
_KINDS = ("equality", "universe", "discrete", "prop")
# the names of AB, and two that it lacks (`y` and `q` let `check-fun` and
# `induce` succeed too)
_NAMES = ("A", "B", "x", "y", "p", "q", "zz")
_NUMBERS = ("-1", "0", "1", "2", "3", "abc", "99999999999")
_OPERANDS = {"product": 2, "exp": 2, "truncate": 1, "complete": 1}
_FLAGS = {
    "univalence": ("--typoid", "--emit-ua"),
    "product": ("-o",),
    "exp": ("-o", "--max-terms", "--max-edges"),
    "truncate": ("-o",),
    "complete": ("-o",),
    "check-fun": ("--morphism", "--from", "--to", "--map", "--path-map", "--edge-map", "--no-ap"),
    "induce": ("--from", "--to", "--map", "--path-map"),
    "gen": ("-o",),
}
_ALL_FLAGS = tuple(sorted({flag for flags in _FLAGS.values() for flag in flags}))


@st.composite
def _command_lines(draw, files, outs):
    """Mostly a subcommand with its positionals and some of its flags;
    sometimes any tokens at all.  Every token comes from one small alphabet."""
    names, numbers = st.sampled_from(_NAMES), st.sampled_from(_NUMBERS)
    typoids = st.one_of(st.sampled_from(("A", "B")), names)  # mostly names that exist
    pairs = st.lists(st.builds("{}:{}".format, names, names), min_size=1, max_size=3).map(",".join)
    assignments = st.one_of(st.sampled_from(("x:x", "p:p", "q:q")), pairs)  # often a lawful row
    anything = st.one_of(names, numbers, files, outs, assignments)
    rarely = st.integers(0, 9).map(lambda k: k == 0)
    if draw(rarely):
        return draw(st.lists(st.one_of(st.sampled_from(_COMMANDS + _KINDS + _ALL_FLAGS), anything), max_size=6))
    command = draw(st.sampled_from(_COMMANDS))
    if command == "gen":
        count = draw(st.integers(0, 3)) if draw(rarely) else 1
        argv = [command, draw(st.sampled_from(_KINDS)), *draw(st.lists(numbers, min_size=count, max_size=count))]
    else:
        arity = _OPERANDS.get(command, 0)
        argv = [command, draw(files), *draw(st.lists(typoids, min_size=arity, max_size=arity))]
    own = _FLAGS.get(command, ())
    flags = draw(st.lists(st.sampled_from(own), unique=True)) if own else []
    if "-o" in own and "-o" not in flags and not draw(rarely):
        flags.insert(0, "-o")  # required
    if draw(rarely):
        flags.append(draw(st.sampled_from(_ALL_FLAGS)))
    for flag in flags:
        argv.append(flag)
        if flag in ("--emit-ua", "--no-ap"):
            continue
        if draw(rarely):
            argv.append(draw(anything))
        elif flag == "-o":
            argv.append(draw(outs))
        elif flag.startswith("--max"):
            argv.append(draw(numbers))
        else:
            argv.append(draw(assignments if flag.endswith("map") else typoids))
    return argv


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_command_lines_end_in_one_report(tmp_path, capsys, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # a name drawn as `-o` value is a relative path
    fixture = tmp_path / "ab.typoid"
    fixture.write_text(AB)  # an `-o` drawn before may have overwritten it
    files = st.sampled_from((str(fixture),) * 4 + (str(tmp_path / "missing.typoid"),))
    outs = st.sampled_from((str(tmp_path / "out.typoid"), str(tmp_path), str(tmp_path / "no" / "o.typoid")))
    argv = data.draw(_command_lines(files, outs))
    code = cli.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 1, 2, 3)
    assert len(lines) == 1
    assert cli._EXIT_CODES[json.loads(lines[0])["result"]] == code


@lru_cache(maxsize=1)
def _stock_documents() -> tuple[str, ...]:
    """Every stock typoid alone, and some products with their factors and
    projections."""
    docs = [serialize(document_for([t])) for t in full_stock().values()]
    for prod, prov in list(stock_products().values())[::5]:
        a, b = prov.factors
        if not (a.same_structure(b) or prod.same_structure(a) or prod.same_structure(b)):
            docs.append(serialize(document_for([prod, a, b], T.projections(prod, prov))))
    return tuple(docs)


_DOCUMENT_COMMANDS = {  # the typoid operands and flags of each command
    "validate": (0, ()),
    "univalence": (0, ()),
    "truncate": (1, ("-o", "out.typoid")),
    "complete": (1, ("-o", "out.typoid")),
    "product": (2, ("-o", "out.typoid")),
    "exp": (2, ("-o", "out.typoid", "--max-terms", "4", "--max-edges", "16")),
}


@st.composite
def _document_requests(draw):
    """A stock document with one to three line deletions, duplications,
    swaps, replaced names or inserted `strictunits ;`, and a command on it
    that names its typoids (or one it lacks)."""
    text = draw(st.sampled_from(_stock_documents()))
    typoids = re.findall(r"^typoid (\w+)", text, re.M)
    names = sorted(set(re.findall(r"\w+", text))) + ["zz"]
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "rename", "strictunits")))
        i, j = (draw(st.integers(0, max(len(lines) - 1, 0))) for _ in range(2))
        if not lines or op == "strictunits":
            lines.insert(i, "  strictunits ;")
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[j])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:  # a name after the keyword, or any word of a line without one
            words = lines[i].split(" ")
            named = [k for k, w in enumerate(words) if re.fullmatch(r"\w+", w)][1:]
            k = draw(st.sampled_from(named or range(len(words))))
            words[k] = draw(st.sampled_from(names))
            lines[i] = " ".join(words)
    command = draw(st.sampled_from(sorted(_DOCUMENT_COMMANDS)))
    arity, flags = _DOCUMENT_COMMANDS[command]
    operands = st.sampled_from(typoids * 3 + ["zz"])
    argv = [command, "doc.typoid", *(draw(operands) for _ in range(arity)), *flags]
    if command == "univalence" and draw(st.booleans()):
        argv += ["--typoid", draw(operands)]
    return "\n".join(lines) + "\n", argv


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(request=_document_requests())
def test_mutated_documents_end_in_one_report(tmp_path, capsys, monkeypatch, request):
    monkeypatch.chdir(tmp_path)
    text, argv = request
    (tmp_path / "doc.typoid").write_text(text)
    code = cli.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 1, 2, 3)
    assert len(lines) == 1
    assert cli._EXIT_CODES[json.loads(lines[0])["result"]] == code


_KEYWORDS = (
    "typoid", "morphism", "terms", "strictunits", "path", "comp", "pinv", "edge", "eqv", "star",
    "einv", "cell", "idtoeqv", "term",
)
_NAMES = ("A", "B", "a", "b", "e", "p", "refl_a", "eqv_b")
_PUNCTUATION = ("->", "~", ".", "*", "=", "==", "=>", "|->", ":", ";", "{", "}")


@st.composite
def _token_streams(draw):
    """Tokens of the text format (keywords, names, all punctuation,
    comments, newlines and the stray `$`), often grouped into statements
    (a keyword, a few names and punctuation, `;`) so some reach the
    assembler, sometimes after a `typoid A { terms a b ;` header; and a
    command reading them."""
    token = st.sampled_from(_KEYWORDS + _NAMES + _PUNCTUATION + ("# a comment\n", "\n", "$"))
    name = st.sampled_from(_NAMES)
    statement = st.builds(
        lambda keyword, rest: [keyword, *rest, ";"],
        st.sampled_from(_KEYWORDS),
        st.lists(st.sampled_from(_NAMES * 2 + _PUNCTUATION), max_size=5),
    )
    # a row statement of the right shape, with names drawn at random
    row = st.sampled_from(sorted(_TYPOID_STATEMENTS.items())).flatmap(
        lambda item: st.tuples(*(name if k % 2 == 0 else st.just(w) for k, w in enumerate(item[1]))).map(
            lambda words: [item[0], *words, ";"]
        )
    )
    parts = draw(st.lists(st.one_of(token.map(lambda t: [t]), statement, row, row, row), max_size=8))
    text = " ".join(t for part in parts for t in part)
    if draw(st.integers(0, 3)):
        text = "typoid A { terms a b ; " + text + (" }" if draw(st.booleans()) else "")
    argv = ["validate", "doc.typoid"] if draw(st.booleans()) else ["univalence", "doc.typoid"]
    if argv[0] == "univalence" and draw(st.booleans()):
        argv += ["--typoid", draw(st.sampled_from(("A", "B")))]
    return text, argv


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(request=_token_streams())
def test_random_token_streams_end_in_one_report(tmp_path, capsys, monkeypatch, request):
    monkeypatch.chdir(tmp_path)
    text, argv = request
    (tmp_path / "doc.typoid").write_text(text)
    code = cli.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 1, 2, 3)
    assert len(lines) == 1
    assert cli._EXIT_CODES[json.loads(lines[0])["result"]] == code


def _relabeled(text: str, rng: random.Random) -> str:
    """`text` with the statements of every block, and the names of each
    `terms` statement, in random order, and every term, path and edge
    renamed at random; the implicit `refl_x` and `eqv_x` follow term x."""
    blocks = re.findall(r"^(typoid \w+ \{\n)(.*?)^\}\n", text, re.M | re.S)
    out = []
    for header, body in blocks:
        statements = [line.split() for line in body.splitlines()]
        terms = [name for words in statements if words[0] == "terms" for name in words[1:-1]]
        declared = [words[1] for words in statements if words[0] in ("path", "edge")]
        new_terms = [f"x{k}" for k in rng.sample(range(len(terms)), len(terms))]
        new_names = [f"n{k}" for k in rng.sample(range(len(declared)), len(declared))]
        rename = dict(zip(terms + declared, new_terms + new_names))
        for old, new in zip(terms, new_terms):
            rename[f"refl_{old}"], rename[f"eqv_{old}"] = f"refl_{new}", f"eqv_{new}"
        for words in statements:
            words[1:] = [rename.get(w, w) for w in words[1:]]
            if words[0] == "terms":
                words[1:-1] = rng.sample(words[1:-1], len(words) - 2)
        rng.shuffle(statements)
        out.append(header + "".join(f"  {' '.join(words)}\n" for words in statements) + "}\n")
    return "\n".join(out)


def test_relabeled_documents_keep_every_verdict(tmp_path, capsys, monkeypatch):
    # permuting statements and names renumbers every id; the reason a
    # structure is not univalent may change with term order, the verdict not
    # building the parser is two thirds of a small run, and this test is
    # about documents, so one parser serves every run
    monkeypatch.setattr(cli, "build_parser", lru_cache(maxsize=1)(cli.build_parser))
    rng = random.Random(15)
    fam = family()
    picked = sorted(rng.sample(range(len(fam)), 30))
    eq = T.equality_typoid
    z6_z8, _ = T.product_typoid(eq(T.cyclic_groupoid(6)), eq(T.cyclic_groupoid(8)))
    structures = (
        [fam[i] for i in picked]
        + [m for i in picked for m in same_hom_redirects(fam[i], i)]
        + [T.universe_typoid([4, 4]), z6_z8]
    )
    doc = tmp_path / "doc.typoid"

    def verdict(text: str):
        doc.write_text(text)
        code, report = run(capsys, "validate", str(doc))
        laws = Counter(v["law"] for v in report["violations"])
        return code, report["result"], report["stats"]["checks"], laws, run(capsys, "univalence", str(doc))[1]["result"]

    verdicts = []
    for t in structures:
        text = serialize(document_for([t]))
        verdicts.append(verdict(text))
        for _ in range(2):
            relabeled = _relabeled(text, rng)
            assert relabeled != text
            assert verdict(relabeled) == verdicts[-1], t.name
    assert {v[1] for v in verdicts} == {"valid", "invalid"}
    assert {v[4] for v in verdicts} == {"univalent", "not-univalent", "invalid"}
