"""Compare the constructions of two source trees output by output.

    python3 tools/repr_diff.py OLD_SRC NEW_SRC

Runs the same constructions under each tree's library, in a subprocess of
its own, with the stock structures of `tests/corpus.py` and the enumerated
`family()` of `tests/small_models.py` as inputs:

- the base groupoid generators and `universe_typoid` on small sizes;
- `equality_typoid` on every `small_groupoids(2, 2)` member with its path
  ids reversed, so the refl paths no longer come first;
- `truncate`, `univalent_completion` and `_completion_base` on every stock
  and `family()` structure;
- `product_typoid` on every ordered pair of the base stock and its
  truncations, and on every third `family()` member with the next;
- `exponential_typoid` on the same stock pairs, on every seventh
  `family()` member with the next (most of them refused by the default
  limits) and on the equality typoids of codiscrete(k) into discrete(4).

Each output (or the exception it raised) is digested twice: by its `repr`,
and by the `repr` of a copy whose dicts are sorted.  Prints, per
construction, how many outputs are identical, equal up to dict order and
different; then exits 1 naming the first output that differs beyond dict
order, or 0.  Takes about 45 s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sorted_dicts(obj):
    """obj with every dict replaced by its sorted items; dataclasses and
    named tuples become tuples of their type name and fields."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, *(_sorted_dicts(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    if isinstance(obj, dict):
        return ("dict", sorted((_sorted_dicts(k), _sorted_dicts(v)) for k, v in obj.items()))
    if isinstance(obj, (tuple, list, range)):
        return (type(obj).__name__, *map(_sorted_dicts, obj))
    return obj


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(T, corpus, small_models):
    """(construction, input label, thunk) for every output compared."""
    stock = corpus.full_stock()
    family = small_models.family()
    inputs = [*stock.items(), *((f"family[{i}]", t) for i, t in enumerate(family))]
    pairs = {**corpus.stock_base(), **corpus.stock_truncations()}
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
    for label, a, b in stock_pairs + family_pairs:
        yield "product_typoid", label, lambda a=a, b=b: T.product_typoid(a, b)
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


def run_child(src: str, out_path: str) -> None:
    """Digest every output under `src`'s library and write the rows to
    `out_path` as JSON."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    import corpus
    import small_models
    import typoid

    rows = []
    for construction, label, thunk in outputs(typoid, corpus, small_models):
        try:
            out = thunk()
        except Exception as exc:  # a refusal is an output too
            out = f"raised {type(exc).__name__}: {exc}"
        rows.append([construction, label, _digest(repr(out)), _digest(repr(_sorted_dicts(out)))])
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
        if not (src / "typoid" / "constructions.py").is_file():
            print(f"no typoid sources under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="repr_diff-") as work:
        old, new = (run_tree(src, Path(work), name) for src, name in zip(srcs, ("old", "new")))
    if [row[:2] for row in old] != [row[:2] for row in new]:
        print("the two trees produced different lists of outputs")
        return 1
    counts: dict[str, list[int]] = {}
    first = None
    for (construction, label, exact_a, sorted_a), (_, _, exact_b, sorted_b) in zip(old, new):
        kind = 0 if exact_a == exact_b else 1 if sorted_a == sorted_b else 2
        counts.setdefault(construction, [0, 0, 0])[kind] += 1
        if kind == 2 and first is None:
            first = f"{construction}({label})"
    for construction, (same, reordered, different) in counts.items():
        print(f"{construction}: {same} identical, {reordered} equal up to dict order, {different} different")
    if first is not None:
        print(f"first output that differs beyond dict order: {first}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
