"""The two-tree differ `tools/tree_diff.py`: its comparer on synthetic rows,
and its refusal of a directory without sources."""

from __future__ import annotations

import dataclasses
import importlib.util
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tree_diff.py"
_spec = importlib.util.spec_from_file_location("tree_diff", TOOL)
tree_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tree_diff)


def report_row(group, label, violations="v", law_counts="c", spent="s", limits="l", decision="d", decision_spent="e"):
    return [group, label, violations, law_counts, spent, limits, decision, decision_spent]


def test_identical_rows_exit_zero():
    rows = [report_row("stock", "a"), report_row("stock", "b"), report_row("family", "f")]
    lines, code = tree_diff.compare("reports", rows, [list(row) for row in rows])
    assert code == 0
    assert lines == ["stock: 2 identical, 0 different", "family: 1 identical, 0 different"]


def test_one_differing_part_names_the_first_input_and_part():
    old = [report_row("stock", "a"), report_row("stock", "b"), report_row("stock", "c")]
    new = [report_row("stock", "a"), report_row("stock", "b", spent="t"), report_row("stock", "c", limits="m")]
    lines, code = tree_diff.compare("reports", old, new)
    assert code == 1
    assert lines == ["stock: 1 identical, 2 different", "first input that differs: stock: b (spent differ)"]


def test_rows_equal_up_to_dict_order_are_no_difference():
    old = [["product_typoid", "x", "r1", "s1"], ["truncate", "y", "r2", "s2"]]
    reordered = [["product_typoid", "x", "r1*", "s1"], ["truncate", "y", "r2", "s2"]]
    lines, code = tree_diff.compare("outputs", old, reordered)
    assert code == 0
    assert lines == [
        "product_typoid: 0 identical, 1 equal up to dict order, 0 different",
        "truncate: 1 identical, 0 equal up to dict order, 0 different",
    ]
    different = [["product_typoid", "x", "r1*", "s1"], ["truncate", "y", "r2*", "s2*"]]
    lines, code = tree_diff.compare("outputs", old, different)
    assert code == 1
    assert lines[1:] == [
        "truncate: 0 identical, 0 equal up to dict order, 1 different",
        "first input that differs: truncate: y (repr, sorted repr differ)",
    ]


def test_different_label_lists_exit_one():
    old = [report_row("stock", "a"), report_row("stock", "b")]
    for new in ([report_row("stock", "a"), report_row("stock", "c")], [report_row("stock", "a")]):
        lines, code = tree_diff.compare("reports", old, new)
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("the two trees listed different inputs, first at #1: stock: b / ")


def test_cli_rows_show_the_stdout_excerpt_and_the_first_differing_byte():
    old = [["construct", "request 0: exp", 0, '{"result": "ok"}', "abcdef", "{}"]]
    new = [["construct", "request 0: exp", 0, '{"result": "no"}', "abcXef", None]]
    lines, code = tree_diff.compare("cli", old, new)
    assert code == 1
    assert lines == [
        "construct: 0 identical, 1 different",
        "first input that differs: construct: request 0: exp (stdout, .typoid, .prov.json differ)",
        '  stdout\n    old: {"result": "ok"}\n    new: {"result": "no"}',
        "  .typoid differs from byte 3 (6 -> 6 bytes)",
        "  .prov.json written by one tree only",
    ]


def test_a_directory_without_sources_exits_two_before_any_child(tmp_path, monkeypatch, capsys):
    def no_child(*args, **kwargs):
        raise AssertionError("a child was started")

    monkeypatch.setattr(tree_diff.subprocess, "Popen", no_child)
    src = Path(__file__).resolve().parent.parent / "src"
    for mode in ("reports", "outputs"):
        assert tree_diff.main([mode, str(src), str(tmp_path)]) == 2
    assert tree_diff.main(["cli", str(tmp_path), str(src), "--seed", "7"]) == 2
    assert "no typoid sources under" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        tree_diff.main(["cli", str(src), str(src)])  # --seed is required
    assert exit_info.value.code == 2


def test_report_parts_record_the_decision_of_a_typoid_that_validates():
    import typoid as T

    unit, twoedge = T.unit_typoid(), T.twoedge_typoid()
    broken = dataclasses.replace(unit, name="broken", idtoeqv=(1,))
    parts = {t.name: dict(zip(tree_diff.REPORT_PARTS, tree_diff.report_parts(T, t))) for t in (unit, twoedge, broken)}
    assert parts["unit"]["decision"] == tree_diff._digest([T.check_univalence(unit)])
    assert parts["twoedge"]["decision"] == tree_diff._digest([T.check_univalence(twoedge)])
    assert parts["twoedge"]["decision spent"] == tree_diff._digest([T.validate_typoid(twoedge).checks + 3])
    none = tree_diff._digest([])
    assert parts["broken"]["decision"] == parts["broken"]["decision spent"] == none
    morphism = tree_diff.report_parts(T, T.morphisms.identity_morphism(unit))
    assert morphism[-2:] == [none, none]


def test_sorted_copies_read_any_mapping_as_a_dict():
    # a composition table is a Mapping but not a dict; its sorted copy must
    # match that of a dict with the same entries in any order
    entries = {(1, 0): 1, (0, 0): 0}
    proxy = types.MappingProxyType(entries)
    assert tree_diff._sorted_dicts(proxy) == tree_diff._sorted_dicts(dict(reversed(entries.items())))
    assert tree_diff._sorted_dicts([proxy]) == ("list", ("dict", [(("tuple", 0, 0), 0), (("tuple", 1, 0), 1)]))
