"""Closed-loop benchmark of the `typoid` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --workload many-small --known-defects

One client in one process sends requests back to back; each request is one
in-process call to `typoid.cli.main(argv)` with stdout captured.  Set-up
imports the library from `src/`, builds the workload's inputs from the seed
and writes them under `.perfbench/`.  The loop runs whole rounds of the
workload's requests until `--seconds` have passed and enough samples exist
for the tail percentile.  Every answer is then checked against the answer
known from how its input was built.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics, taken from rounds run with every public library
function wrapped in a span, alternating with untraced rounds so that the
tracing overhead can be reported.  `--smoke` runs all three workloads at
tiny sizes, both ways, and prints every metric.  `--known-defects` adds
to `many-small` the requests the code is known to answer wrongly (ROADMAP
item 5); such a run reports them as failures and `correct` as false.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
LAYER_MODULES = {layer: f"typoid.{layer}" for layer in tracing.LAYERS}


class SetupError(Exception):
    pass


@dataclass
class Library:
    T: object
    dsl: object
    cli: object
    modules: dict


def import_library() -> Library:
    """Import `typoid` afresh from `src/`, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "typoid" or n.startswith("typoid.")]:
        del sys.modules[name]
    try:
        T = importlib.import_module("typoid")
        modules = {layer: importlib.import_module(mod) for layer, mod in LAYER_MODULES.items()}
    except ImportError as exc:
        raise SetupError(f"cannot import typoid from {SRC}: {exc}") from exc
    if Path(T.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported typoid from {T.__file__}, not from {SRC}")
    return Library(T, modules["dsl"], modules["cli"], modules)


def setup(workload: str, seed: int, run_dir: Path, smoke: bool, known_defects: bool = False):
    """Set up SETUP_REPEATS times; keep the last set-up, report every time."""
    times = []
    for k in range(SETUP_REPEATS):
        work = run_dir / f"inputs{k}"
        gc.collect()  # each set-up starts without the last one's garbage
        start = time.perf_counter()
        lib = import_library()
        work.mkdir(parents=True)
        requests = workloads.build(workload, lib.T, lib.dsl, seed, work, smoke, known_defects)
        times.append(time.perf_counter() - start)
    return lib, requests, times


# ---------------------------------------------------------------------------
# the loop


@dataclass
class Outcome:
    request: workloads.Request
    code: object
    stdout: str
    error: str | None
    latency: float
    out: str | None
    digest: str | None = None


class Loop:
    def __init__(self, lib: Library, requests, out_dir: Path, tracer=None):
        self.lib = lib
        self.requests = requests
        self.out_dir = out_dir / ("traced" if tracer else "plain")
        self.out_dir.mkdir()
        self.tracer = tracer
        self.outcomes: list[Outcome] = []

    def round(self) -> float:
        """Send every request once; return the wall time of the round."""
        main = self.lib.cli.main  # looked up per round: tracing rebinds it
        outcomes, tracer = self.outcomes, self.tracer
        start = time.perf_counter()
        for i, req in enumerate(self.requests):
            argv = list(req.argv)
            out = None
            if req.expect.output is not None:
                # each round overwrites the files of the round before, so
                # the bytes are hashed now and checked after the loop
                out = str(self.out_dir / f"out{i}.typoid")
                argv += ["-o", out]
            if tracer is not None:
                tracer.request = len(outcomes)
            buf = io.StringIO()
            code = error = None
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            outcomes.append(Outcome(req, code, buf.getvalue(), error, t1 - t0, out, _digest(out)))
        return time.perf_counter() - start


def _read_output(out: str | None) -> tuple[bytes, bytes] | None:
    """A written `.typoid` file and its provenance, or None if missing."""
    if out is None:
        return None
    try:
        return Path(out).read_bytes(), Path(out + ".prov.json").read_bytes()
    except OSError:
        return None


def _digest(out: str | None) -> str | None:
    written = _read_output(out)
    if written is None:
        return None
    return hashlib.blake2b(written[0] + b"\0" + written[1], digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# checking answers


class Checker:
    """Compares each outcome with its known answer.  The files a request
    wrote last are checked in full (sizes, provenance, and byte-exact
    re-serialization); every call of it must have written the same bytes."""

    def __init__(self, lib: Library):
        self.lib = lib
        self.last: dict[str, tuple[str, str | None]] = {}
        self.failed: dict[str, Counter] = {}
        self.attempted: dict[str, int] = {}

    def add(self, outcome: Outcome) -> None:
        cls = outcome.request.cls
        self.attempted[cls] = self.attempted.get(cls, 0) + 1
        problem = self.problem(outcome)
        if problem is not None:
            self.failed.setdefault(cls, Counter())[problem] += 1

    def problem(self, o: Outcome) -> str | None:
        exp = o.request.expect
        if o.error is not None:
            return f"raised {o.error}"
        lines = o.stdout.splitlines()
        if len(lines) != 1:
            return f"printed {len(lines)} lines"
        try:
            report = json.loads(lines[0])
        except ValueError:
            return "printed a line that is not JSON"
        if not isinstance(report, dict):
            return "printed JSON that is not an object"
        if (o.code, report.get("result")) != (exp.code, exp.result):
            return f"exit {o.code} {report.get('result')!r}, expected exit {exp.code} {exp.result!r}"
        stats = report.get("stats") or {}
        for key, value in exp.stats:
            if stats.get(key) != value:
                return f"stats.{key} = {stats.get(key)!r}, expected {value}"
        if exp.first_code is not None:
            violations = report.get("violations") or [{}]
            if violations[0].get("code") != exp.first_code:
                return f"first violation {violations[0].get('code')!r}, expected {exp.first_code}"
        if exp.output is not None:
            return self.output_problem(o)
        return None

    def output_problem(self, o: Outcome) -> str | None:
        if o.digest is None:
            return "wrote no output"
        if o.out not in self.last:
            written = _read_output(o.out)
            problem = "wrote no output" if written is None else \
                self.written_problem(o.request.expect.output, *written)
            self.last[o.out] = (_digest(o.out), problem)
        last_digest, problem = self.last[o.out]
        return problem if o.digest == last_digest else "wrote other bytes than its last call"

    def written_problem(self, want: workloads.Output, text: bytes, prov_text: bytes) -> str | None:
        try:
            result = self.lib.dsl.parse(text.decode("utf-8"))
        except UnicodeDecodeError:
            return "output is not UTF-8"
        if not result.ok or len(result.document.entries) != 1:
            return "output does not parse to one typoid"
        t = result.document.entries[0].typoid
        got = workloads.sizes(t.term_count, t.base.path_count, t.layer.edge_count)
        if got != want.stats:
            return f"output sizes {dict(got)}, expected {dict(want.stats)}"
        if self.lib.dsl.serialize(result.document).encode("utf-8") != text:
            return "output does not re-serialize byte for byte"
        try:
            prov = json.loads(prov_text)
        except ValueError:
            return "provenance is not JSON"
        if prov.get("kind") != want.kind:
            return f"provenance kind {prov.get('kind')!r}, expected {want.kind!r}"
        if want.prov_terms is not None and (
            len(prov.get("terms", ())), len(prov.get("edges", ()))
        ) != (want.prov_terms, want.prov_edges):
            return "provenance lists other terms or edges than expected"
        return None

    @property
    def total_failed(self) -> int:
        return sum(sum(c.values()) for c in self.failed.values())

    def report_lines(self) -> list[str]:
        return [
            f"failed {cls}: {n} of {self.attempted[cls]}: {why}"
            for cls, reasons in sorted(self.failed.items())
            for why, n in sorted(reasons.items())
        ]


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest percentile of the
    ladder with at least ten samples beyond it.  The value is interpolated
    between the two nearest ranks, at (n - 1) * p / 100, so it does not jump
    with the number of rounds a run happens to complete."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in workloads.PERCENTILES:
        h = (n - 1) * p / 100
        lo = int(h)
        hi = min(lo + 1, n - 1)
        beyond = n - 1 - lo
        if beyond >= 10 or best is None:
            best = (p, ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo]), beyond)
    return best


def run_untraced(lib, requests, out_dir, seconds, min_samples):
    loop = Loop(lib, requests, out_dir)
    start = time.perf_counter()
    rounds = 0
    while True:
        loop.round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(loop.outcomes) >= min_samples:
            return loop, elapsed, rounds


def run_traced(lib, requests, out_dir, seconds, spans_path):
    tracer = tracing.Tracer(lib.T, lib.modules)
    plain, traced = Loop(lib, requests, out_dir), Loop(lib, requests, out_dir, tracer)
    plain_s = traced_s = 0.0
    per_round, kept = [], []
    start = time.perf_counter()
    while True:
        plain_s += plain.round()
        tracer.install()
        try:
            traced_s += traced.round()
        finally:
            tracer.uninstall()
        spans = tracer.take()
        per_round.append(tracing.layer_metrics(spans, tracer.layer_of))
        kept.append(spans)
        if time.perf_counter() - start >= seconds:
            break
    tracer.dump(spans_path, kept)
    problems = []
    for spans in kept:
        roots = {s[tracing.NAME] for s in spans if s[tracing.PARENT] < 0}
        if roots - {"cli.main"}:
            problems.append(f"spans outside cli.main: {sorted(roots - {'cli.main'})}")
    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if _is_time(name):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between rounds: {values}")
    for m in per_round:
        layer_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        if abs(layer_sum - m["trace.cli_main_s"]) > 1e-6 * max(1.0, m["trace.cli_main_s"]):
            problems.append(f"self times sum to {layer_sum}, cli.main took {m['trace.cli_main_s']}")
    plain_rps = len(plain.outcomes) / plain_s
    traced_rps = len(traced.outcomes) / traced_s
    metrics["trace.overhead_rps"] = plain_rps - traced_rps
    info = [
        f"traced rounds={len(per_round)} untraced_rps={plain_rps:.4f} traced_rps={traced_rps:.4f}",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return plain.outcomes + traced.outcomes, metrics, problems, info


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith("_per_s") or name.startswith("trace.")


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        known_defects: bool = False):
    """Run one workload; return (summary lines, result object)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    try:
        lib, requests, setup_times = setup(workload, seed, run_dir, smoke, known_defects)
        # start every loop from the same heap: drop set-up garbage, and keep
        # the objects set-up leaves alive out of later collections
        gc.collect()
        gc.freeze()
        out_dir = run_dir / "out"
        out_dir.mkdir()
        min_samples = 0 if smoke else workloads.MIN_SAMPLES[workload]
        lines = [f"workload={workload} seed={seed} round={len(requests)} requests"]
        if trace:
            spans_path = WORK / f"trace-{workload}-s{seed}.jsonl"
            outcomes, values, problems, info = run_traced(lib, requests, out_dir, seconds, spans_path)
            lines += info + [f"trace problem: {p}" for p in problems]
            names = spec["per_layer"]
        else:
            loop, elapsed, rounds = run_untraced(lib, requests, out_dir, seconds, min_samples)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            outcomes, problems = loop.outcomes, []
            latencies = [o.latency for o in outcomes]
            p, tail_value, beyond = tail(latencies)
            values = {
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail_value,
                "throughput_rps": len(outcomes) / elapsed,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
            }
            names = spec["end_to_end"]
            lines.append(f"rounds={rounds} requests={len(outcomes)} loop_s={elapsed:.3f}")
        checker = Checker(lib)
        for o in outcomes:
            checker.add(o)
        failed = checker.total_failed
        if not trace:
            lines.append(f"error_rate={failed / len(outcomes):.6g} ratio ({failed} failed of {len(outcomes)})")
        for m in names:
            note = ""
            if m["name"] == "latency_tail_s":
                note = f" (p{p}, {beyond} samples beyond, n={len(outcomes)})"
            elif m["name"] == "setup_s":
                note = f" (median of {SETUP_REPEATS}: {', '.join(f'{t:.4f}' for t in setup_times)})"
            lines.append(f"{m['name']}={values[m['name']]:.6g} {m['unit']}{note}")
        lines += checker.report_lines()
        result = {
            "correct": failed == 0 and not problems,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
        }
        return lines, result
    finally:
        gc.unfreeze()
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at tiny sizes, both ways")
    parser.add_argument("--known-defects", action="store_true",
                        help="add to many-small the requests the code is known to answer wrongly")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "typoid").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no typoid sources under {SRC}, or no BENCHMARK.json: nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.smoke:
            results = {}
            for workload in workloads.WORKLOADS:
                for trace in (False, True):
                    lines, result = run(workload, args.seed, min(args.seconds, 0.2), trace, smoke=True)
                    print("\n".join(lines))
                    results[f"{workload}/trace{int(trace)}"] = result
            print(json.dumps(results, sort_keys=True))
        else:
            lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                known_defects=args.known_defects)
            print("\n".join(lines))
            print(json.dumps(result, sort_keys=True))
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
