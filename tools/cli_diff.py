"""Compare the command line of two source trees on the benchmark's requests.

    python3 tools/cli_diff.py OLD_SRC NEW_SRC --seed N [--known-defects]

Builds each workload's requests once with `perfbench/workloads.build`, using
the library under OLD_SRC, and sends them through each tree's
`typoid.cli.main` in a subprocess of its own.  Compares stdout, exit codes
and the bytes of every written `.typoid` and `.prov.json` file, for all
three workloads, in a temporary directory.  Prints the first difference
and exits 1, or prints the number of identical requests per workload and
exits 0.  `--known-defects` adds the requests that the
benchmark keeps out of `many-small` because they are answered wrongly.
The inputs are built at the default `TYPOID_MAX_CHECKS`; the runs get the
caller's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-large", "many-small", "construct")
RESULTS = "results.json"


def build_requests(old_src: Path, workload: str, seed: int, known_defects: bool, work: Path) -> list[list[str]]:
    """The argv of each request of one round; a construction writes to
    `out<i>.typoid` in the working directory of the run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(old_src))
    import typoid
    import workloads
    from typoid import dsl

    work.mkdir(parents=True)
    requests = workloads.build(workload, typoid, dsl, seed, work, known_defects=known_defects)
    argvs = []
    for i, req in enumerate(requests):
        argv = list(req.argv)
        if req.expect.output is not None:
            argv += ["-o", f"out{i}.typoid"]
        argvs.append(argv)
    return argvs


def run_child(src: str, requests_path: str) -> None:
    """Send every request through `src`'s `cli.main` in this process, and
    write each exit code and stdout to RESULTS in the working directory."""
    sys.path.insert(0, src)
    from typoid.cli import main

    results = []
    for argv in json.loads(Path(requests_path).read_text(encoding="utf-8")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, buf.getvalue()])
    Path(RESULTS).write_text(json.dumps(results), encoding="utf-8")


def run_tree(src: Path, requests_path: Path, cwd: Path, env: dict[str, str]) -> list:
    cwd.mkdir()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(src), str(requests_path)],
        cwd=cwd,
        env=env,
        check=True,
    )
    return json.loads((cwd / RESULTS).read_text(encoding="utf-8"))


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def first_difference(argvs: list[list[str]], runs: dict[str, tuple[Path, list]]) -> str | None:
    (old_dir, old), (new_dir, new) = runs.values()
    for i, argv in enumerate(argvs):
        where = f"request {i}: {' '.join(argv)}"
        if old[i][0] != new[i][0]:
            return f"{where}\n  exit code {old[i][0]!r} -> {new[i][0]!r}"
        if old[i][1] != new[i][1]:
            return f"{where}\n  stdout\n    old: {old[i][1][:400]}\n    new: {new[i][1][:400]}"
        if "-o" in argv:
            out = argv[argv.index("-o") + 1]
            for name in (out, out + ".prov.json"):
                a, b = _read(old_dir / name), _read(new_dir / name)
                if a != b:
                    if a is None or b is None:
                        return f"{where}\n  {name} written by one tree only"
                    at = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
                    return f"{where}\n  {name} differs from byte {at} ({len(a)} -> {len(b)} bytes)"
    return None


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        run_child(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path, help="the src/ directory of the reference tree")
    parser.add_argument("new_src", type=Path, help="the src/ directory of the tree under test")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--known-defects", action="store_true")
    args = parser.parse_args(argv)
    srcs = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for src in srcs.values():
        if not (src / "typoid" / "cli.py").is_file():
            parser.error(f"no typoid sources under {src}")
    env = dict(os.environ)
    os.environ.pop("TYPOID_MAX_CHECKS", None)
    work = Path(tempfile.mkdtemp(prefix="cli_diff-"))
    try:
        for workload in WORKLOADS:
            base = work / f"{workload}-s{args.seed}"
            argvs = build_requests(srcs["old"], workload, args.seed, args.known_defects, base / "inputs")
            requests_path = base / "requests.json"
            requests_path.write_text(json.dumps(argvs), encoding="utf-8")
            runs = {name: (base / name, run_tree(src, requests_path, base / name, env)) for name, src in srcs.items()}
            difference = first_difference(argvs, runs)
            if difference is not None:
                print(f"{workload} seed {args.seed}: {difference}")
                return 1
            print(f"{workload} seed {args.seed}: {len(argvs)} requests identical")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
