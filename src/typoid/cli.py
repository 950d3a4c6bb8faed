"""Command line front end.

Every command line but -h/--help ends in one JSON report on stdout, bad
command lines included:

    {"tool": "typoid", "version": ..., "result": ..., "violations": [...],
     "ua": [...], "stats": {"terms": ..., "paths": ..., "edges": ..., "checks": ...}}

Exit codes: 0 success/valid, 1 valid run but the property fails (law
violations, not univalent), 2 input error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .constructions import (
    ExponentialLimits,
    codiscrete_groupoid,
    cyclic_groupoid,
    discrete_groupoid,
    equality_typoid,
    exponential_typoid,
    product_typoid,
    truncate,
    univalent_completion,
    universe_typoid,
)
from .dsl import Document, TypoidEntry, document_for, parse, serialize_to
from .model import Budget, ResourceLimitError, Typoid, ValidationReport, validate_typoid
from .morphisms import TypoidMorphism, validate_morphism
from .univalence import NotUnivalent, NotUnivalentError, check_univalence, induce_morphism

L_CODES = {
    "Bookkeeping": "L000",
    "Groupoid": "L001",
    "Partition": "L002",
    "Typ1": "L101",
    "Typ2": "L102",
    "Typ3": "L103",
    "Typ4": "L104",
    "IdtoEqv": "L105",
    "ApFunctor": "L201",
    "UnitPres": "L202",
    "CompPres": "L203",
    "CellPres": "L204",
}

# the exit code of each report result
_EXIT_CODES = {
    "ok": 0, "valid": 0, "univalent": 0, "invalid": 1, "not-univalent": 1,
    "input-error": 2, "parse-error": 2, "resource-limit": 3,
}


def _report(result: str, violations=(), ua=(), stats=None) -> dict:
    return {
        "tool": "typoid",
        "version": __version__,
        "result": result,
        "violations": list(violations),
        "ua": list(ua),
        "stats": stats or {"terms": 0, "paths": 0, "edges": 0, "checks": 0},
    }


def _stats(t: Typoid, checks: int = 0) -> dict:
    return {
        "terms": t.term_count,
        "paths": t.base.path_count,
        "edges": t.layer.edge_count,
        "checks": checks,
    }


def _law_json(report: ValidationReport) -> list[dict]:
    return [
        {
            "code": L_CODES.get(v.law, "L999"),
            "law": v.law,
            "witness": list(v.witness),
            "detail": v.detail,
        }
        for v in report.violations
    ]


def _verdict(report: ValidationReport, stats: dict) -> dict:
    return _report("valid" if report.valid else "invalid", violations=_law_json(report), stats=stats)


def _not_univalent(outcome: NotUnivalent, stats: dict, where: str = "") -> dict:
    """The `not-univalent` report with the one `L310` witness of `outcome`."""
    edge = [] if outcome.witness_edge is None else [outcome.witness_edge]
    witness = {
        "code": "L310",
        "law": "Univalence",
        "witness": list(outcome.witness_paths or ()) + edge,
        "detail": f"{outcome.reason} on hom {outcome.hom}{where}",
    }
    return _report("not-univalent", violations=[witness], stats=stats)


class _ParseFailed(Exception):
    """The input file does not parse; carries the `parse-error` report."""

    def __init__(self, diagnostics):
        super().__init__("parse-error")
        self.report = _report(
            "parse-error",
            violations=[
                {
                    "code": d.code,
                    "severity": "error",
                    "line": d.span.line,
                    "column": d.span.column,
                    "length": d.span.length,
                    "message": d.message,
                }
                for d in diagnostics
            ],
        )


def _load(path: str) -> Document:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    result = parse(text)
    if not result.ok:
        raise _ParseFailed(result.diagnostics)
    return result.document


def _find_typoid(doc: Document, name: str | None, path: str) -> TypoidEntry:
    typoids = doc.typoid_entries()
    if name is None:
        if len(typoids) == 1:
            return next(iter(typoids.values()))
        raise ValueError(f"{path} holds {len(typoids)} typoids; pick one with --typoid")
    if name not in typoids:
        raise ValueError(f"no typoid named {name!r} in {path}")
    return typoids[name]


def _typoids(args, *names: str | None) -> list[Typoid]:
    """The typoids of `args.file` with the given entry names."""
    doc = _load(args.file)
    return [_find_typoid(doc, name, args.file).typoid for name in names]


def _write_construction(out: str, t: Typoid, provenance: dict) -> dict:
    """Write `t` to `out` and its provenance beside it; the `ok` report."""
    doc, sidecar = document_for([t]), json.dumps(provenance, sort_keys=True, indent=2) + "\n"
    files = {out: lambda f: serialize_to(doc, f.write), out + ".prov.json": lambda f: f.write(sidecar)}
    written: list[Path] = []
    for path, write in files.items():
        try:
            with Path(path).open("w", encoding="utf-8") as f:
                write(f)
        except OSError as exc:
            for done in written:  # leave no file without its sidecar
                done.unlink(missing_ok=True)
            raise ValueError(f"cannot write {path}: {exc}") from exc
        written.append(Path(path))
    return _report("ok", stats=_stats(t))


def _cmd_validate(args) -> dict:
    doc = _load(args.file)
    violations: list[dict] = []
    totals = {"terms": 0, "paths": 0, "edges": 0, "checks": 0}
    valid = True
    budget = Budget()  # one budget for every declaration of the file
    for entry in doc.entries:
        if isinstance(entry, TypoidEntry):
            report = validate_typoid(entry.typoid, budget)
            totals["terms"] += entry.typoid.term_count
            totals["paths"] += entry.typoid.base.path_count
            totals["edges"] += entry.typoid.layer.edge_count
        else:
            report = validate_morphism(entry.morphism, budget)
        totals["checks"] += report.checks
        valid = valid and report.valid
        violations.extend(_law_json(report))
    return _report("valid" if valid else "invalid", violations=violations, stats=totals)


def _cmd_univalence(args) -> dict:
    (t,) = _typoids(args, args.typoid)
    budget = Budget()  # one budget for the validation and the decision
    report = validate_typoid(t, budget)
    if not report.valid:
        return _verdict(report, _stats(t, report.checks))
    outcome = check_univalence(t, budget, report=report)
    if isinstance(outcome, NotUnivalent):
        return _not_univalent(outcome, _stats(t, report.checks))
    ua = [{"edge": e, "path": p} for e, p in enumerate(outcome.ua)] if args.emit_ua else []
    return _report("univalent", ua=ua, stats=_stats(t, report.checks))


def _cmd_product(args) -> dict:
    a, b = _typoids(args, args.a, args.b)
    prod, prov = product_typoid(a, b)
    return _write_construction(
        args.out,
        prod,
        {
            "kind": "product",
            "factors": [a.name, b.name],
            "pair_path": sorted([p1, p2, p] for (p1, p2), p in prov.pair_path.items()),
            "pair_edge": sorted([e1, e2, e] for (e1, e2), e in prov.pair_edge.items()),
        },
    )


def _cmd_exp(args) -> dict:
    a, b = _typoids(args, args.a, args.b)
    exp, prov = exponential_typoid(a, b, ExponentialLimits(args.max_terms, args.max_edges))
    return _write_construction(
        args.out,
        exp,
        {
            "kind": "exponential",
            "source": a.name,
            "target": b.name,
            "terms": [
                {
                    "term_map": list(m.term_map),
                    "path_map": list(m.path_map),
                    "edge_map": list(m.edge_map),
                }
                for m in prov.terms
            ],
            "edges": [
                {"src": e.src_term, "dst": e.dst_term, "theta": list(e.theta)}
                for e in prov.edges
            ],
        },
    )


def _cmd_rebuild(args) -> dict:
    """`truncate` and `complete`: one typoid in, one rebuilt typoid out."""
    (t,) = _typoids(args, args.a)
    if args.command == "truncate":
        out, kind = truncate(t), "truncation"
    else:
        out, kind = univalent_completion(t), "completion"
    return _write_construction(args.out, out, {"kind": kind, "source": t.name})


def _id_table(raw: str, flag: str, what: str, src_names, dst_names, table: list) -> tuple[int, ...]:
    """`table` with the rows that `raw` ("name:name,...") assigns put in as
    ids; every row must then be filled."""
    rows: dict[str, str] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, colon, target = item.partition(":")
        if not colon:
            raise ValueError(f"bad {flag} entry {item!r}; expected name:name")
        name = name.strip()
        if name in rows:
            raise ValueError(f"{flag} maps {what} {name!r} twice")
        rows[name] = target.strip()
    src_ids = {n: i for i, n in enumerate(src_names)}
    dst_ids = {n: i for i, n in enumerate(dst_names)}
    for name, target in rows.items():
        if name not in src_ids:
            raise ValueError(f"{flag} names unknown {what} {name!r}")
        if target not in dst_ids:
            raise ValueError(f"{flag} sends {name!r} to unknown {what} {target!r}")
        table[src_ids[name]] = dst_ids[target]
    for i, v in enumerate(table):
        if v is None:
            raise ValueError(f"{flag} misses {what} {src_names[i]!r}")
    return tuple(table)


def _named_maps(doc: Document, args, edges: bool):
    """The typoids named by --from/--to and the id tables that --map,
    --path-map and (if `edges`) --edge-map give.  The rows of refl paths and
    eqv edges default to those of the image terms."""
    src_entry = _find_typoid(doc, args.src, args.file)
    dst_entry = _find_typoid(doc, args.dst, args.file)
    src, dst = src_entry.typoid, dst_entry.typoid
    names = src_entry.term_names, dst_entry.term_names
    term_map = _id_table(args.map, "--map", "term", *names, [None] * src.term_count)
    maps = [term_map]
    levels = (("path", src.base.refl, dst.base.refl), ("edge", src.layer.eqv, dst.layer.eqv))
    for what, src_units, dst_units in levels[: 1 + edges]:
        names = [getattr(entry, f"{what}_names") for entry in (src_entry, dst_entry)]
        table: list[int | None] = [None] * len(names[0])
        for x, y in enumerate(term_map):
            table[src_units[x]] = dst_units[y]
        maps.append(_id_table(getattr(args, f"{what}_map"), f"--{what}-map", what, *names, table))
    return src, dst, maps


def _cmd_check_fun(args) -> dict:
    doc = _load(args.file)
    if args.morphism is not None:
        morphisms = doc.morphism_entries()
        if args.morphism not in morphisms:
            raise ValueError(f"no morphism named {args.morphism!r} in {args.file}")
        m = morphisms[args.morphism].morphism
    elif args.src and args.dst:
        src, dst, maps = _named_maps(doc, args, edges=True)
        m = TypoidMorphism("cli", src, dst, *maps)
    else:
        raise ValueError("check-fun needs --morphism, or --from/--to with the map flags")
    report = validate_morphism(m, check_base=not args.no_ap)
    return _verdict(report, _stats(m.source, report.checks))


def _cmd_induce(args) -> dict:
    src, dst, maps = _named_maps(_load(args.file), args, edges=False)
    try:
        m = induce_morphism(src, dst, *maps)
    except NotUnivalentError as exc:
        return _not_univalent(exc.witness, _stats(src), f" of {src.name!r}")
    report = validate_morphism(m)
    return _verdict(report, _stats(src, report.checks))


# kind -> base groupoid, name prefix, what its one argument is, and the
# composable path triples of the result as a function of that argument
_EQUALITY_GENERATORS = {
    "equality": (cyclic_groupoid, "eq", "the cyclic order", lambda n: n**3),
    "discrete": (discrete_groupoid, "disc", "the term count", lambda n: n),
    "prop": (codiscrete_groupoid, "prop", "the term count", lambda n: n**4),
}


def _cmd_gen(args) -> dict:
    kind = args.kind
    params = args.args
    if kind == "universe":
        if not params:
            raise ValueError("gen universe takes the set cardinalities")
        sizes = [int(p) for p in params]
        t = universe_typoid(sizes)
        meta = {"kind": "generator", "generator": "universe", "args": sizes}
    else:
        groupoid, prefix, argument, triples = _EQUALITY_GENERATORS[kind]
        if len(params) != 1:
            raise ValueError(f"gen {kind} takes one argument: {argument}")
        n = int(params[0])
        # validation spends one law instance per composable triple, so a size
        # the budget cannot pay for is refused before its tables are built
        Budget().spend(triples(max(n, 0)))
        t = equality_typoid(groupoid(n), name=f"{prefix}{params[0]}")
        meta = {"kind": "generator", "generator": kind, "args": [n]}
    return _write_construction(args.out, t, meta)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad command line as ValueError, to end in an E000 report."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="typoid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, *operands, out=False, **options):
        """Subcommand `name` with its positional operands (`options` holds an
        operand's further argparse keywords), the required -o/--out of a
        command that writes a file, and its handler."""
        p = sub.add_parser(name, help=help)
        for operand in operands:
            p.add_argument(operand, **options.get(operand, {}))
        if out:
            p.add_argument("-o", "--out", required=True)
        p.set_defaults(func=func)
        return p

    command("validate", "check every law of every declaration in a file", _cmd_validate, "file")
    p = command("univalence", "decide univalence and synthesize the witness table", _cmd_univalence, "file")
    p.add_argument("--typoid", default=None)
    p.add_argument("--emit-ua", action="store_true")
    command("product", "construct the product of two typoids", _cmd_product, "file", "a", "b", out=True)
    p = command("exp", "construct the exponential of two typoids", _cmd_exp, "file", "a", "b", out=True)
    limits = ExponentialLimits()
    p.add_argument("--max-terms", type=int, default=limits.max_terms)
    p.add_argument("--max-edges", type=int, default=limits.max_edges)
    command("truncate", "collapse the layer to one edge per hom", _cmd_rebuild, "file", "a", out=True)
    command("complete", "regrow the base groupoid from the cell classes", _cmd_rebuild, "file", "a", out=True)

    p = command("check-fun", "validate a declared or command-line morphism", _cmd_check_fun, "file")
    p.add_argument("--morphism", default=None)
    p.add_argument("--from", dest="src", default=None)
    p.add_argument("--to", dest="dst", default=None)
    p.add_argument("--map", default="", help='term assignments "a:b,..."')
    p.add_argument("--path-map", default="", help='path assignments "p:q,..."')
    p.add_argument("--edge-map", default="", help='edge assignments "e:d,..."')
    p.add_argument("--no-ap", action="store_true", help="skip base-path functor checks")

    p = command("induce", "build the edge action of a term map out of a univalent source", _cmd_induce, "file")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--map", default="", help='term assignments "a:b,..."')
    p.add_argument("--path-map", default="", help='path assignments "p:q,..."')

    command(
        "gen", "generate a stock typoid (equality|universe|discrete|prop)", _cmd_gen, "kind", "args", out=True,
        kind={"choices": ["equality", "universe", "discrete", "prop"]},
        args={"nargs": "*", "help": "generator arguments"},
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
    except _ParseFailed as exc:
        report = exc.report
    except ResourceLimitError as exc:
        report = _report(
            "resource-limit",
            violations=[{"code": "R000", "bound": exc.bound, "message": exc.detail}],
        )
    except ValueError as exc:
        report = _report("input-error", violations=[{"code": "E000", "message": str(exc)}])
    print(json.dumps(report, sort_keys=True))
    return _EXIT_CODES[report["result"]]


if __name__ == "__main__":
    sys.exit(main())
