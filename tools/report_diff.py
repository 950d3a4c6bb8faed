"""Compare the validators of two source trees report by report.

    python3 tools/report_diff.py OLD_SRC NEW_SRC

Runs `validate_groupoid` (on the base) and `validate_typoid` under each
tree's library, in a subprocess of its own, on these inputs:

- the stock structures of `tests/corpus.py`;
- the enumerated `family()` of `tests/small_models.py`;
- the rungs of the benchmark's verify-large workload
  (`perfbench/workloads.py`, imported unchanged), built with the tree's
  own constructions;
- for each of them, single-entry mutants (one entry of one table set to
  another value or removed, or the term count changed) and
  endpoint-preserving mutants (one `comp` or `star` entry set to another
  id of the same hom-set, by `small_models.same_hom_redirects`).

Every input is validated once with an unbounded budget and once at each
limit of LIMITS.  Four things are compared per input: the violations; the
`law_counts` items, in order; `Budget.spent`; and the `ResourceLimitError`
message (or "ok") at each limit.  Prints how many inputs of each group are
identical and different, then exits 1 naming the first input that
differs, or 0.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMITS = (10, 100, 1_000, 5_000, 20_000)
UNBOUNDED = 10**12
PARTS = ("violations", "law_counts", "spent", "limits")
# (part of the typoid, field) of every table a single-entry mutant may change
TABLES = (
    ("base", "term_count"), ("base", "path_src"), ("base", "path_dst"), ("base", "refl"),
    ("base", "comp"), ("base", "inv"), ("layer", "term_count"), ("layer", "edge_src"),
    ("layer", "edge_dst"), ("layer", "eqv"), ("layer", "star"), ("layer", "einv"),
    ("layer", "cell"), (None, "idtoeqv"),
)


def _replace(t, part, name, value):
    if part is None:
        return dataclasses.replace(t, **{name: value})
    return dataclasses.replace(t, **{part: dataclasses.replace(getattr(t, part), **{name: value})})


def single_entry_mutants(t, rng: random.Random):
    """One mutant per table: an entry set to a value that may be out of
    range or negative, or removed, or the term count changed."""
    for part, name in TABLES:
        table = getattr(t if part is None else getattr(t, part), name)
        remove = rng.random() < 0.25
        if isinstance(table, int):
            changed = rng.randrange(-1, table + 2)
        elif isinstance(table, tuple):
            if not table:
                continue
            i = rng.randrange(len(table))
            value = rng.randrange(-1, max(table) + 2)
            changed = table[:i] + (() if remove else (value,)) + table[i + 1:]
        else:
            keys = sorted(table)
            bound = max((max(k) for k in keys), default=0) + 2
            keys.append((rng.randrange(-1, bound), rng.randrange(-1, bound)))
            key = keys[rng.randrange(len(keys))]
            changed = {k: v for k, v in table.items() if k != key}
            if not remove:
                changed[key] = rng.randrange(-1, bound)
        yield f"{part or 'typoid'}.{name}", _replace(t, part, name, changed)


def inputs(T, corpus, small_models, workloads):
    """(group, label, typoid) for every input compared."""
    writer = workloads._InputWriter(T, T.dsl, 0, Path("."))
    originals = [
        ("stock", [(name, t) for name, t in corpus.full_stock().items()]),
        ("family", [(f"family[{i}]", t) for i, t in enumerate(small_models.family())]),
        (
            "verify-large",
            [(f"{kind}:{arg}", writer.rung((kind, arg), f"s{i}")[0])
             for i, (kind, arg) in enumerate(workloads.VERIFY_LARGE)],
        ),
    ]
    for group, structures in originals:
        for label, t in structures:
            yield group, label, t
        for label, t in structures:
            rng = random.Random(label)
            for j, (where, m) in enumerate(single_entry_mutants(t, rng)):
                yield f"{group} single-entry", f"{label} {where} #{j}", m
        for i, (label, t) in enumerate(structures):
            for j, m in enumerate(small_models.same_hom_redirects(t, i)):
                yield f"{group} redirect", f"{label} redirect #{j}", m


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _attempt(validate, arg, budget):
    try:
        return validate(arg, budget)
    except Exception as exc:  # a refusal is an output too
        return f"raised {type(exc).__name__}: {exc}"


def compare_parts(T, t) -> list[str]:
    """The digest of each of PARTS over both validators."""
    parts = {part: [] for part in PARTS}
    for validate, arg in ((T.validate_groupoid, t.base), (T.validate_typoid, t)):
        budget = T.Budget(UNBOUNDED)
        report = _attempt(validate, arg, budget)
        if isinstance(report, str):
            parts["violations"].append(report)
        else:
            parts["violations"].append(report.violations)
            parts["law_counts"].append(list(report.law_counts.items()))
        parts["spent"].append(budget.spent)
        for limit in LIMITS:
            report = _attempt(validate, arg, T.Budget(limit))
            parts["limits"].append(report if isinstance(report, str) else "ok")
    return [_digest(parts[part]) for part in PARTS]


def run_child(src: str, out_path: str) -> None:
    """Digest every input's reports under `src`'s library and write the
    rows to `out_path` as JSON."""
    sys.path[:0] = [src, str(ROOT / "tests"), str(ROOT / "perfbench")]
    import corpus
    import small_models
    import typoid
    import typoid.dsl
    import workloads

    rows = [
        [group, label, *compare_parts(typoid, t)]
        for group, label, t in inputs(typoid, corpus, small_models, workloads)
    ]
    Path(out_path).write_text(json.dumps(rows), encoding="utf-8")


def run_tree(src: Path, work: Path, name: str) -> list:
    out = work / f"{name}.json"
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(src), str(out)], check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        run_child(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "typoid" / "model.py").is_file():
            print(f"no typoid sources under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="report_diff-") as work:
        old, new = (run_tree(src, Path(work), name) for src, name in zip(srcs, ("old", "new")))
    if [row[:2] for row in old] != [row[:2] for row in new]:
        print("the two trees produced different lists of inputs")
        return 1
    counts: dict[str, list[int]] = {}
    first = None
    for (group, label, *a), (_, _, *b) in zip(old, new):
        same = a == b
        counts.setdefault(group, [0, 0])[0 if same else 1] += 1
        if not same and first is None:
            first = f"{group}: {label} ({', '.join(p for p, x, y in zip(PARTS, a, b) if x != y)} differ)"
    for group, (same, different) in counts.items():
        print(f"{group}: {same} identical, {different} different")
    if first is not None:
        print(f"first input that differs: {first}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
