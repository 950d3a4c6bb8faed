"""Compare two source trees input by input.

    python3 tools/tree_diff.py cli OLD_SRC NEW_SRC --seed N [--known-defects]
    python3 tools/tree_diff.py reports OLD_SRC NEW_SRC
    python3 tools/tree_diff.py outputs OLD_SRC NEW_SRC

Each tree runs in a child process of its own (both at once), which writes
one row `[group, label, *parts]` per input.  The trees must list the same
inputs.  Prints per group how many inputs are identical and how many
different, names the first input that differs and its differing parts, and
exits 1, or 0 when none differs (2 on bad usage or a failed run).

cli: one round of each benchmark workload, built once by
`perfbench/workloads.build` under OLD_SRC at the default `TYPOID_MAX_CHECKS`
(the runs get the caller's), through each tree's `typoid.cli.main`.  Parts:
the exit code, stdout (an excerpt is shown), and the written `.typoid` and
`.prov.json` bytes (the first differing byte is shown).  `--known-defects`
adds the requests the benchmark keeps out of `many-small` because they are
answered wrongly.  A few seconds.

reports: `validate_groupoid` (on the base) and `validate_typoid` on the
stock structures of `tests/corpus.py`, the `family()` of
`tests/small_models.py`, the benchmark's verify-large rungs, the
fat-cell typoids Q(2,2), Q(3,4) and Q(6,6) (`small_models.q_typoid`, the
paths of `cyclic_groupoid(m*k)` as an `EquivalenceLayer` with cells
i % m, so both trees build Q from public constructors alone), and
single-entry and endpoint-preserving mutants of each; and
`validate_morphism`, with and without `check_base`, on
`identity_from_equality` of each stock and `family()` structure and on the
identity maps between each of them and each of its endpoint-preserving
mutants, both ways.  Parts: the violations, `law_counts` in order,
`Budget.spent`, and the outcome at each of LIMITS; for a typoid that
validates, also the outcome of `check_univalence` (the table or the
witness) and `Budget.spent` after it, on the validation's budget.  About
2 minutes on two cores.

outputs: the generators and every construction on small sizes, the stock
and `family()` structures and pairs of them, products of Q(2,2) and Q(3,2)
with each other and with the stock, and exponentials at the `construct`
workload's limits (the default limits refuse most family pairs), into
`twoedge_typoid`, into a fat cell among them, into and out of Q(2,2) and
Q(3,2), and from many term maps into a disconnected target.  For each
product of `stock_products()`, also whether each projection and their
pairing pass `validate_morphism`, with the law counts, and each pointed
factor certificate's table with whether `verify_certificate` passes it, as
plain values.  Parts: the `repr` of each output (or raised exception), and
that of a copy with sorted dicts (any Mapping counts as a dict); a row
whose sorted copies agree is equal up to dict order, not different.  A
composition table iterates in row order, so an output that embeds an
input whose table was given out of row order, such as a `family()`
member, reads equal up to dict order against a tree whose tables keep
the order they were given.  About 1 minute on two cores.

reports and outputs import `tests/corpus.py` and `tests/small_models.py`
of this checkout under both trees, so those two files may import only
names that both trees have; a name only the newer tree has makes the older
tree's run fail with an ImportError.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-large", "many-small", "construct")
LIMITS = (10, 100, 1_000, 5_000, 20_000)
UNBOUNDED = 10**12
REPORT_PARTS = ("violations", "law_counts", "spent", "limits", "decision", "decision spent")


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _attempt(thunk):
    try:
        return thunk()
    except (Exception, SystemExit) as exc:  # a refusal is an output too
        return f"raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# cli: the benchmark's requests through the command line


def cli_requests(old_src: Path, seed: int, known_defects: bool, work: Path) -> list:
    """[workload, label, argv] of each request of one round of each
    workload; a construction writes to `<workload>-<i>.typoid` in the
    working directory of the run."""
    sys.path[:0] = [str(old_src), str(ROOT / "perfbench")]
    import typoid
    import workloads
    from typoid import dsl

    rows = []
    for workload in WORKLOADS:
        (work / workload).mkdir(parents=True)
        requests = workloads.build(workload, typoid, dsl, seed, work / workload, known_defects=known_defects)
        for i, req in enumerate(requests):
            argv = list(req.argv)
            if req.expect.output is not None:
                argv += ["-o", f"{workload}-{i}.typoid"]
            rows.append([workload, f"request {i}: {' '.join(argv)}", argv])
    return rows


def _read(path: str) -> str | None:
    """The file's bytes as latin-1 text, so JSON carries them exactly."""
    try:
        return Path(path).read_bytes().decode("latin-1")
    except OSError:
        return None


def cli_rows(requests_path: str) -> list:
    from typoid.cli import main

    rows = []
    for group, label, argv in json.loads(Path(requests_path).read_text(encoding="utf-8")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _attempt(lambda: main(argv))
        out = argv[argv.index("-o") + 1] if "-o" in argv else None
        files = [_read(out), _read(out + ".prov.json")] if out else [None, None]
        rows.append([group, label, code, buf.getvalue(), *files])
    return rows


def cli_detail(part: str, a, b) -> str:
    if part == "exit code":
        return f"exit code {a!r} -> {b!r}"
    if part == "stdout":
        return f"stdout\n    old: {a[:400]}\n    new: {b[:400]}"
    if a is None or b is None:
        return f"{part} written by one tree only"
    at = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"{part} differs from byte {at} ({len(a)} -> {len(b)} bytes)"


# ---------------------------------------------------------------------------
# reports: the validators on structures and their mutants

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


def report_inputs(T, corpus, small_models, workloads):
    """(group, label, typoid or morphism) for every input compared."""
    writer = workloads._InputWriter(T, T.dsl, 0, Path("."))
    originals = [
        ("stock", [(name, t) for name, t in corpus.full_stock().items()]),
        ("family", [(f"family[{i}]", t) for i, t in enumerate(small_models.family())]),
        (
            "verify-large",
            [(f"{kind}:{arg}", writer.rung((kind, arg), f"s{i}")[0])
             for i, (kind, arg) in enumerate(workloads.VERIFY_LARGE)],
        ),
        ("Q(m,k)", [(f"Q({m},{k})", small_models.q_typoid(m, k)) for m, k in ((2, 2), (3, 4), (6, 6))]),
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
        if group in ("verify-large", "Q(m,k)"):
            continue
        for i, (label, t) in enumerate(structures):
            yield f"{group} morphism", f"idtoeqv {label}", T.identity_from_equality(t)
            identity = T.morphisms.identity_morphism(t)
            for j, m in enumerate(small_models.same_hom_redirects(t, i)):
                yield f"{group} morphism", f"id {label} -> redirect #{j}", dataclasses.replace(identity, target=m)
                yield f"{group} morphism", f"id redirect #{j} -> {label}", dataclasses.replace(identity, source=m)


def report_parts(T, x) -> list[str]:
    """The digest of each part over the validators of a typoid (both) or a
    morphism (`validate_morphism` with and without `check_base`), and over
    `check_univalence` of a typoid that validates."""
    if isinstance(x, T.TypoidMorphism):
        checks = [lambda b, c=c: T.validate_morphism(x, b, check_base=c) for c in (True, False)]
    else:
        checks = [lambda b: T.validate_groupoid(x.base, b), lambda b: T.validate_typoid(x, b)]
    parts = {part: [] for part in REPORT_PARTS}
    for validate in checks:
        budget = T.Budget(UNBOUNDED)
        report = _attempt(lambda: validate(budget))
        if isinstance(report, str):
            parts["violations"].append(report)
        else:
            parts["violations"].append(report.violations)
            parts["law_counts"].append(list(report.law_counts.items()))
        parts["spent"].append(budget.spent)
        for limit in LIMITS:
            limited = _attempt(lambda: validate(T.Budget(limit)))
            parts["limits"].append(limited if isinstance(limited, str) else "ok")
    # `report` and `budget` are the last check's: validate_typoid's for a typoid
    if isinstance(x, T.Typoid) and not isinstance(report, str) and report.valid:
        parts["decision"].append(_attempt(lambda: T.check_univalence(x, budget, report=report)))
        parts["decision spent"].append(budget.spent)
    return [_digest(part) for part in parts.values()]


def report_rows() -> list:
    import corpus
    import small_models
    import typoid
    import typoid.dsl
    import workloads

    return [
        [group, label, *report_parts(typoid, t)]
        for group, label, t in report_inputs(typoid, corpus, small_models, workloads)
    ]


# ---------------------------------------------------------------------------
# outputs: the constructions


def _sorted_dicts(obj):
    """obj with every dict, or other Mapping, replaced by its sorted items;
    dataclasses and named tuples become tuples of their type name and
    fields."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, *(_sorted_dicts(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    if isinstance(obj, Mapping):
        return ("dict", sorted((_sorted_dicts(k), _sorted_dicts(v)) for k, v in obj.items()))
    if isinstance(obj, (tuple, list, range)):
        return (type(obj).__name__, *map(_sorted_dicts, obj))
    return obj


def _product_maps(T, prod, prov) -> list:
    """(valid, law counts) of each projection and of their pairing."""
    pr1, pr2 = T.projections(prod, prov)
    reports = [T.validate_morphism(m) for m in (pr1, pr2, T.pairing(pr1, pr2, prod, prov))]
    return [(r.valid, list(r.law_counts.items())) for r in reports]


def _pointed_factors(T, prod, prov) -> list:
    """(table, verify_certificate passes it) of each factor certificate."""
    report = T.check_pointed_factors(prod, prov)
    return [(c.ua, T.verify_certificate(f, c).valid) for f, c in zip(prov.factors, (report.cert_a, report.cert_b))]


def outputs(T, corpus, small_models):
    """(construction, input label, thunk) for every output compared."""
    stock = corpus.full_stock()
    family = small_models.family()
    inputs = [*stock.items(), *((f"family[{i}]", t) for i, t in enumerate(family))]
    pairs = {**corpus.stock_base(), **corpus.stock_truncations()}
    qs = {f"Q({m},{k})": small_models.q_typoid(m, k) for m, k in ((2, 2), (3, 2))}
    for n in range(7):
        yield "discrete_groupoid", str(n), lambda n=n: T.discrete_groupoid(n)
        yield "codiscrete_groupoid", str(n), lambda n=n: T.codiscrete_groupoid(n)
        yield "cyclic_groupoid", str(n), lambda n=n: T.cyclic_groupoid(n)
    for sets in ([], [0], [1, 1], [2], [2, 2], [3], [1, 2, 2], [3, 3], [4, 4], [2, 3, 2]):
        yield "universe_typoid", str(sets), lambda sets=sets: T.universe_typoid(sets)
    for i, g in enumerate(small_models.small_groupoids(2, 2)):
        reversed_ids = small_models.permuted(g, range(g.path_count - 1, -1, -1))
        yield "equality_typoid", f"reversed small_groupoids[{i}]", lambda g=reversed_ids: T.equality_typoid(g)
    for label, t in inputs:
        yield "truncate", label, lambda t=t: T.truncate(t)
        yield "univalent_completion", label, lambda t=t: T.univalent_completion(t)
        yield "_completion_base", label, lambda t=t: T.constructions._completion_base(t.layer)
    stock_pairs = [(f"{na} x {nb}", a, b) for na, a in pairs.items() for nb, b in pairs.items()]
    family_pairs = [
        (f"family[{i}] x family[{i + 1}]", family[i], family[i + 1]) for i in range(0, len(family) - 1, 3)
    ]
    with_q = {**pairs, **qs}
    q_pairs = [(f"{na} x {nb}", a, b) for na, a in with_q.items() for nb, b in with_q.items() if qs.keys() & {na, nb}]
    for label, a, b in stock_pairs + family_pairs + q_pairs:
        yield "product_typoid", label, lambda a=a, b=b: T.product_typoid(a, b)
    for label, (prod, prov) in corpus.stock_products().items():
        yield "projections and their pairing", label, lambda prod=prod, prov=prov: _product_maps(T, prod, prov)
        yield "check_pointed_factors", label, lambda prod=prod, prov=prov: _pointed_factors(T, prod, prov)
    disc4 = T.equality_typoid(T.discrete_groupoid(4))
    codiscrete = [
        (f"eq(codiscrete {k}) -> eq(discrete 4)", T.equality_typoid(T.codiscrete_groupoid(k)), disc4)
        for k in range(6)
    ]
    family_exponentials = [
        (f"family[{i}] -> family[{i + 1}]", family[i], family[i + 1]) for i in range(0, len(family) - 1, 7)
    ]
    for label, a, b in stock_pairs + family_exponentials + codiscrete:
        yield "exponential_typoid", label, lambda a=a, b=b: T.exponential_typoid(a, b)
    eq = T.equality_typoid
    cod3, twoedge = eq(T.codiscrete_groupoid(3)), T.twoedge_typoid()
    fat = next(t for t in family if len(t.layer.class_members) < t.layer.edge_count)
    sources = {
        "eq(Z2)": eq(T.cyclic_groupoid(2)),
        "eq(codiscrete 2)": eq(T.codiscrete_groupoid(2)),
        "eq(codiscrete 3)": cod3,
        "twoedge": twoedge,
        fat.name: fat,
        **qs,
    }
    targets = {"twoedge": twoedge, f"{fat.name} (a fat cell)": fat, **qs}
    wide = [
        ("eq(codiscrete 3) -> eq(codiscrete 3)", cod3, cod3),
        ("eq(Z4) -> eq(Z8)", eq(T.cyclic_groupoid(4)), eq(T.cyclic_groupoid(8))),
        ("eq(discrete 6) -> eq(discrete 2)", eq(T.discrete_groupoid(6)), eq(T.discrete_groupoid(2))),
        *((f"{na} -> {nb}", a, b) for nb, b in targets.items() for na, a in sources.items()),
    ]
    limits = T.ExponentialLimits(max_terms=4096, max_edges=65536)
    for label, a, b in wide:
        yield "exponential_typoid at construct limits", label, lambda a=a, b=b: T.exponential_typoid(a, b, limits)


def output_rows() -> list:
    import corpus
    import small_models
    import typoid

    rows = []
    for construction, label, thunk in outputs(typoid, corpus, small_models):
        out = _attempt(thunk)
        rows.append([construction, label, _digest(out), _digest(_sorted_dicts(out))])
    return rows


# ---------------------------------------------------------------------------
# the harness


class Mode(NamedTuple):
    parts: tuple[str, ...]
    rows: Callable[..., list]  # run in the child, with the tree's library importable
    loose: str | None = None  # a row whose parts differ only outside this one is equal up to dict order
    detail: Callable[[str, Any, Any], str] | None = None  # shows one differing part


MODES = {
    "cli": Mode(("exit code", "stdout", ".typoid", ".prov.json"), cli_rows, detail=cli_detail),
    "reports": Mode(REPORT_PARTS, report_rows),
    "outputs": Mode(("repr", "sorted repr"), output_rows, loose="sorted repr"),
}


def compare(mode: str, old: list, new: list) -> tuple[list[str], int]:
    """The lines to print and the exit code for two trees' rows."""
    labels = [row[:2] for row in old], [row[:2] for row in new]
    if labels[0] != labels[1]:
        i = next((i for i, (a, b) in enumerate(zip(*labels)) if a != b), min(map(len, labels)))
        at = [": ".join(rows[i]) if i < len(rows) else "nothing" for rows in labels]
        return [f"the two trees listed different inputs, first at #{i}: {at[0]} / {at[1]}"], 1
    parts, _, loose, detail = MODES[mode]
    counts: dict[str, list[int]] = {}
    first: list[str] = []
    for (group, label, *a), (_, _, *b) in zip(old, new):
        differ = [(part, x, y) for part, x, y in zip(parts, a, b) if x != y]
        # 0 identical, 1 equal up to dict order, 2 different
        kind = 0 if not differ else 1 if loose and loose not in (part for part, _, _ in differ) else 2
        counts.setdefault(group, [0, 0, 0])[kind] += 1
        if kind == 2 and not first:
            first.append(f"first input that differs: {group}: {label} ({', '.join(p for p, _, _ in differ)} differ)")
            first += [f"  {detail(*d)}" for d in differ] if detail else []
    lines = [
        f"{group}: {same} identical, "
        + (f"{reordered} equal up to dict order, " if loose else "")
        + f"{different} different"
        for group, (same, reordered, different) in counts.items()
    ]
    return lines + first, 1 if first else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sub = modes.add_parser(mode)
        sub.add_argument("old_src", type=Path, help="the src/ directory of the reference tree")
        sub.add_argument("new_src", type=Path, help="the src/ directory of the tree under test")
        if mode == "cli":
            sub.add_argument("--seed", type=int, required=True)
            sub.add_argument("--known-defects", action="store_true")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        mode, src, out, *rest = argv[1:]
        sys.path[:0] = [src, str(ROOT / "tests"), str(ROOT / "perfbench")]
        Path(out).write_text(json.dumps(MODES[mode].rows(*rest)), encoding="utf-8")
        return 0
    args = _parser().parse_args(argv)
    srcs = [args.old_src.resolve(), args.new_src.resolve()]
    for src in srcs:
        if not (src / "typoid" / "__init__.py").is_file():
            print(f"no typoid sources under {src}", file=sys.stderr)
            return 2
    env = dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="tree_diff-") as tmp:
        work = Path(tmp)
        extra = []
        if args.mode == "cli":
            os.environ.pop("TYPOID_MAX_CHECKS", None)
            requests = cli_requests(srcs[0], args.seed, args.known_defects, work / "inputs")
            (work / "requests.json").write_text(json.dumps(requests), encoding="utf-8")
            extra = [str(work / "requests.json")]
        children = []
        for name, src in zip(("old", "new"), srcs):
            (work / name).mkdir()
            command = [sys.executable, str(Path(__file__).resolve()), "--child", args.mode, str(src), "rows.json"]
            children.append(subprocess.Popen(command + extra, cwd=work / name, env=env))
        for name, code in zip(("old", "new"), [child.wait() for child in children]):
            if code != 0:
                print(
                    f"the run under the {name} tree failed (exit {code}). Its traceback is printed above; "
                    "an ImportError raised in tests/ means a helper there imports a name this tree lacks",
                    file=sys.stderr,
                )
                return 2
        old, new = (json.loads((work / name / "rows.json").read_text(encoding="utf-8")) for name in ("old", "new"))
    lines, code = compare(args.mode, old, new)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
