"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_smoke_prints_every_named_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {f"{w}/trace{t}" for w in workloads.WORKLOADS for t in (0, 1)}
    for key, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        expected = names("per_layer") if key.endswith("trace1") else names("end_to_end")
        assert set(result["metrics"]) == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float)) and metric["unit"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"{m['name']}=" in proc.stdout
    for result in results.values():
        assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_for_a_seed(workload):
    def counters(seed):
        _, result = run.run(workload, seed, 0.01, trace=True, smoke=True)
        return {k: v["value"] for k, v in result["metrics"].items() if not run._is_time(k)}

    for seed in (1, 2):
        assert counters(seed) == counters(seed)


def test_self_times_sum_to_cli_main():
    _, result = run.run("construct", 1, 0.01, trace=True, smoke=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total == pytest.approx(m["trace.cli_main_s"], rel=1e-6)
    assert result["correct"]


@pytest.mark.xfail(strict=True, reason="check-fun and induce accept invalid endpoints (ROADMAP item 5)")
def test_known_defects_are_answered_correctly():
    lines, result = run.run("many-small", 1, 0.01, trace=False, smoke=True, known_defects=True)
    assert result["failed"] == 0, [line for line in lines if line.startswith("failed ")]


def test_planted_wrong_answer_is_reported(tmp_path):
    lib, requests, _ = run.setup("verify-large", 1, tmp_path, smoke=True)
    wrong = dataclasses.replace(requests[0], expect=dataclasses.replace(requests[0].expect, code=7))
    loop = run.Loop(lib, [wrong, *requests[1:]], tmp_path)
    loop.round()
    checker = run.Checker(lib)
    for outcome in loop.outcomes:
        checker.add(outcome)
    assert checker.total_failed == 1
    assert any("expected exit 7" in line for line in checker.report_lines())


def test_planted_wrong_output_size_is_reported(tmp_path):
    lib, requests, _ = run.setup("construct", 1, tmp_path, smoke=True)
    i = next(i for i, r in enumerate(requests) if r.argv[0] == "exp")
    out = requests[i].expect.output
    bad_out = dataclasses.replace(out, prov_terms=out.prov_terms + 1)
    requests[i] = dataclasses.replace(requests[i], expect=dataclasses.replace(requests[i].expect, output=bad_out))
    loop = run.Loop(lib, requests, tmp_path)
    loop.round()
    loop.round()
    checker = run.Checker(lib)
    for outcome in loop.outcomes:
        checker.add(outcome)
    assert checker.total_failed == 2


def test_tracer_wraps_every_binding_and_restores_them():
    lib = run.import_library()
    original = lib.modules["model"].validate_typoid
    unit = lib.T.unit_typoid()
    t = tracer.Tracer(lib.T, lib.modules)
    t.install()
    try:
        for mod in (lib.T, lib.modules["cli"], lib.modules["univalence"], lib.modules["constructions"]):
            assert mod.validate_typoid is not original
        lib.modules["univalence"].check_univalence(unit)
    finally:
        t.uninstall()
    assert lib.modules["cli"].validate_typoid is original
    spans = t.take()
    assert [s[tracer.NAME] for s in spans] == ["univalence.check_univalence", "model.validate_typoid",
                                                "model.validate_groupoid"]
    assert [s[tracer.PARENT] for s in spans] == [-1, 0, 1]


def test_tail_uses_highest_percentile_with_ten_beyond():
    p, value, beyond = run.tail([float(i) for i in range(1, 121)])
    assert (p, beyond) == (90, 12) and value == pytest.approx(108.1)
    # the same distribution at 4 and at 5 rounds gives the same percentile
    ladder = [float(i) for i in range(1, 33)]
    assert run.tail(ladder * 4)[1] == pytest.approx(run.tail(ladder * 5)[1], rel=0.01)
    assert run.tail([float(i) for i in range(1, 1201)])[0] == 99
    assert run.tail([1.0, 2.0])[0] == 50


def test_theory_sizes():
    assert workloads.exp_sizes("cyclic", 6, 4) == (4, 32)
    assert workloads.exp_sizes("codiscrete", 3, 3) == (27, 729)
    p = workloads.product_shape(workloads.cyclic_shape(2), workloads.codiscrete_shape(2))
    assert (p.terms, p.paths, p.edges, p.univalent) == (2, 8, 8, True)
    assert not workloads.truncation_shape(workloads.cyclic_shape(2)).univalent
    assert workloads.truncation_shape(workloads.codiscrete_shape(3)).univalent


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
