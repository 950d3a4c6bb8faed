"""Command line front end.

Every subcommand prints one JSON report on stdout:

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
from .dsl import Document, TypoidEntry, document_for, parse, serialize
from .model import Budget, ResourceLimitError, Typoid, ValidationReport, validate_typoid
from .morphisms import validate_morphism
from .univalence import NotUnivalent, NotUnivalentError, check_univalence

L_CODES = {
    "Bookkeeping": "L000",
    "Groupoid": "L001",
    "Partition": "L002",
    "Typ1": "L101",
    "Typ2": "L102",
    "Typ3": "L103",
    "Typ4": "L104",
    "IdtoEqv": "L105",
    "DerivedUnitInv": "L111",
    "DerivedDoubleInv": "L112",
    "DerivedInvCong": "L113",
    "ApFunctor": "L201",
    "UnitPres": "L202",
    "CompPres": "L203",
    "CellPres": "L204",
    "InvPres": "L205",
    "RoundTrip1": "L301",
    "RoundTrip2": "L302",
    "UaCong": "L303",
    "Strictness": "L304",
    "Square": "L305",
    "SquareEdges": "L306",
}

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _report(result: str, violations=(), ua=(), stats=None) -> None:
    payload = {
        "tool": "typoid",
        "version": __version__,
        "result": result,
        "violations": list(violations),
        "ua": list(ua),
        "stats": stats or {"terms": 0, "paths": 0, "edges": 0, "checks": 0},
    }
    print(json.dumps(payload, sort_keys=True))


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


def _diag_json(diagnostics) -> list[dict]:
    return [
        {
            "code": d.code,
            "severity": d.severity,
            "line": d.span.line,
            "column": d.span.column,
            "length": d.span.length,
            "message": d.message,
        }
        for d in diagnostics
    ]


class _InputError(Exception):
    pass


def _load(path: str) -> Document:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    result = parse(text)
    if not result.ok:
        _report("parse-error", violations=_diag_json(result.diagnostics))
        raise SystemExit(EXIT_INPUT)
    return result.document


def _find_typoid(doc: Document, name: str | None, path: str) -> TypoidEntry:
    typoids = doc.typoid_entries()
    if name is None:
        if len(typoids) == 1:
            return next(iter(typoids.values()))
        raise _InputError(f"{path} holds {len(typoids)} typoids; pick one with --typoid")
    if name not in typoids:
        raise _InputError(f"no typoid named {name!r} in {path}")
    return typoids[name]


def _write_construction(out: str, t: Typoid, provenance: dict) -> None:
    doc = document_for([t])
    Path(out).write_text(serialize(doc), encoding="utf-8")
    Path(out + ".prov.json").write_text(
        json.dumps(provenance, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _cmd_validate(args) -> int:
    doc = _load(args.file)
    violations: list[dict] = []
    totals = {"terms": 0, "paths": 0, "edges": 0, "checks": 0}
    valid = True
    for entry in doc.entries:
        if isinstance(entry, TypoidEntry):
            report = validate_typoid(entry.typoid)
            totals["terms"] += entry.typoid.term_count
            totals["paths"] += entry.typoid.base.path_count
            totals["edges"] += entry.typoid.layer.edge_count
        else:
            report = validate_morphism(entry.morphism)
        totals["checks"] += report.checks
        valid = valid and report.valid
        violations.extend(_law_json(report))
    _report("valid" if valid else "invalid", violations=violations, stats=totals)
    return EXIT_OK if valid else EXIT_PROPERTY


def _cmd_univalence(args) -> int:
    doc = _load(args.file)
    entry = _find_typoid(doc, args.typoid, args.file)
    t = entry.typoid
    budget = Budget()  # one budget for the validation and the decision
    report = validate_typoid(t, budget)
    if not report.valid:
        _report("invalid", violations=_law_json(report), stats=_stats(t, report.checks))
        return EXIT_PROPERTY
    outcome = check_univalence(t, budget, report=report)
    if isinstance(outcome, NotUnivalent):
        witness = {
            "code": "L310",
            "law": "Univalence",
            "witness": list(outcome.witness_paths or ())
            + ([outcome.witness_edge] if outcome.witness_edge is not None else []),
            "detail": f"{outcome.reason} on hom {outcome.hom}",
        }
        _report("not-univalent", violations=[witness], stats=_stats(t, report.checks))
        return EXIT_PROPERTY
    ua = (
        [{"edge": e, "path": p} for e, p in enumerate(outcome.ua)]
        if args.emit_ua
        else []
    )
    _report("univalent", ua=ua, stats=_stats(t, report.checks))
    return EXIT_OK


def _cmd_product(args) -> int:
    doc = _load(args.file)
    a = _find_typoid(doc, args.a, args.file).typoid
    b = _find_typoid(doc, args.b, args.file).typoid
    prod, prov = product_typoid(a, b)
    _write_construction(
        args.out,
        prod,
        {
            "kind": "product",
            "factors": [a.name, b.name],
            "pair_path": sorted([p1, p2, p] for (p1, p2), p in prov.pair_path.items()),
            "pair_edge": sorted([e1, e2, e] for (e1, e2), e in prov.pair_edge.items()),
        },
    )
    _report("ok", stats=_stats(prod))
    return EXIT_OK


def _cmd_exp(args) -> int:
    doc = _load(args.file)
    a = _find_typoid(doc, args.a, args.file).typoid
    b = _find_typoid(doc, args.b, args.file).typoid
    limits = ExponentialLimits(max_terms=args.max_terms, max_edges=args.max_edges)
    exp, prov = exponential_typoid(a, b, limits)
    _write_construction(
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
    _report("ok", stats=_stats(exp))
    return EXIT_OK


def _cmd_truncate(args) -> int:
    doc = _load(args.file)
    t = _find_typoid(doc, args.a, args.file).typoid
    out = truncate(t)
    _write_construction(args.out, out, {"kind": "truncation", "source": t.name})
    _report("ok", stats=_stats(out))
    return EXIT_OK


def _cmd_complete(args) -> int:
    doc = _load(args.file)
    t = _find_typoid(doc, args.a, args.file).typoid
    out = univalent_completion(t)
    _write_construction(args.out, out, {"kind": "completion", "source": t.name})
    _report("ok", stats=_stats(out))
    return EXIT_OK


def _adhoc_morphism(doc: Document, args):
    from .morphisms import TypoidMorphism

    src_entry = _find_typoid(doc, args.src, args.file)
    dst_entry = _find_typoid(doc, args.dst, args.file)
    src, dst = src_entry.typoid, dst_entry.typoid

    def build(raw: str, src_names, dst_names, total: int, what: str) -> list[int | None]:
        table: list[int | None] = [None] * total
        src_index = {n: i for i, n in enumerate(src_names)}
        dst_index = {n: i for i, n in enumerate(dst_names)}
        for name, target in _parse_assignments(raw, what).items():
            if name not in src_index:
                raise _InputError(f"{what} names unknown {name!r}")
            if target not in dst_index:
                raise _InputError(f"{what} sends {name!r} to unknown {target!r}")
            table[src_index[name]] = dst_index[target]
        return table

    term_map = build(args.map, src_entry.term_names, dst_entry.term_names, src.term_count, "--map")
    if any(v is None for v in term_map):
        raise _InputError("--map must cover every term of the source")
    path_map = build(
        args.path_map, src_entry.path_names, dst_entry.path_names, src.base.path_count, "--path-map"
    )
    edge_map = build(
        args.edge_map, src_entry.edge_names, dst_entry.edge_names, src.layer.edge_count, "--edge-map"
    )
    for x in range(src.term_count):
        if path_map[src.base.refl[x]] is None:
            path_map[src.base.refl[x]] = dst.base.refl[term_map[x]]
        if edge_map[src.layer.eqv[x]] is None:
            edge_map[src.layer.eqv[x]] = dst.layer.eqv[term_map[x]]
    for table, names, flag in (
        (path_map, src_entry.path_names, "--path-map"),
        (edge_map, src_entry.edge_names, "--edge-map"),
    ):
        for i, v in enumerate(table):
            if v is None:
                raise _InputError(f"{flag} misses {names[i]!r}")
    return TypoidMorphism(
        name="cli",
        source=src,
        target=dst,
        term_map=tuple(term_map),
        path_map=tuple(path_map),
        edge_map=tuple(edge_map),
    )


def _cmd_check_fun(args) -> int:
    doc = _load(args.file)
    if args.morphism is not None:
        morphisms = doc.morphism_entries()
        if args.morphism not in morphisms:
            raise _InputError(f"no morphism named {args.morphism!r} in {args.file}")
        m = morphisms[args.morphism].morphism
    elif args.src and args.dst:
        m = _adhoc_morphism(doc, args)
    else:
        raise _InputError("check-fun needs --morphism, or --from/--to with the map flags")
    report = validate_morphism(m, check_base=not args.no_ap)
    stats = _stats(m.source, report.checks)
    _report("valid" if report.valid else "invalid", violations=_law_json(report), stats=stats)
    return EXIT_OK if report.valid else EXIT_PROPERTY


def _parse_assignments(raw: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not raw:
        return out
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise _InputError(f"bad {what} entry {item!r}; expected name:name")
        k, v = item.split(":", 1)
        out[k.strip()] = v.strip()
    return out


def _cmd_induce(args) -> int:
    from .univalence import induce_morphism

    doc = _load(args.file)
    src_entry = _find_typoid(doc, args.src, args.file)
    dst_entry = _find_typoid(doc, args.dst, args.file)
    src, dst = src_entry.typoid, dst_entry.typoid

    term_names = {n: i for i, n in enumerate(src_entry.term_names)}
    dst_terms = {n: i for i, n in enumerate(dst_entry.term_names)}
    path_names = {n: i for i, n in enumerate(src_entry.path_names)}
    dst_paths = {n: i for i, n in enumerate(dst_entry.path_names)}

    raw_map = _parse_assignments(args.map, "--map")
    raw_paths = _parse_assignments(args.path_map, "--path-map")
    term_map = [0] * src.term_count
    for name, i in term_names.items():
        if name not in raw_map:
            raise _InputError(f"--map misses term {name!r}")
        if raw_map[name] not in dst_terms:
            raise _InputError(f"--map sends {name!r} to unknown term {raw_map[name]!r}")
        term_map[i] = dst_terms[raw_map[name]]
    path_map = [0] * src.base.path_count
    for x in range(src.term_count):
        path_map[src.base.refl[x]] = dst.base.refl[term_map[x]]
    for name, i in path_names.items():
        if name in raw_paths:
            if raw_paths[name] not in dst_paths:
                raise _InputError(f"--path-map sends {name!r} to unknown path {raw_paths[name]!r}")
            path_map[i] = dst_paths[raw_paths[name]]
        elif i >= src.term_count:
            raise _InputError(f"--path-map misses path {name!r}")

    try:
        m = induce_morphism(src, dst, tuple(term_map), tuple(path_map))
    except NotUnivalentError as exc:
        witness = exc.witness
        _report(
            "not-univalent",
            violations=[
                {
                    "code": "L310",
                    "law": "Univalence",
                    "witness": list(witness.witness_paths or ())
                    + ([witness.witness_edge] if witness.witness_edge is not None else []),
                    "detail": f"{witness.reason} on hom {witness.hom} of {src.name!r}",
                }
            ],
            stats=_stats(src),
        )
        return EXIT_PROPERTY
    report = validate_morphism(m)
    _report(
        "valid" if report.valid else "invalid",
        violations=_law_json(report),
        stats=_stats(src, report.checks),
    )
    return EXIT_OK if report.valid else EXIT_PROPERTY


# kind -> base groupoid, name prefix, what its one argument is, and the
# composable path triples of the result as a function of that argument
_EQUALITY_GENERATORS = {
    "equality": (cyclic_groupoid, "eq", "the cyclic order", lambda n: n**3),
    "discrete": (discrete_groupoid, "disc", "the term count", lambda n: n),
    "prop": (codiscrete_groupoid, "prop", "the term count", lambda n: n**4),
}


def _cmd_gen(args) -> int:
    kind = args.kind
    params = args.args
    if kind == "universe":
        if not params:
            raise _InputError("gen universe takes the set cardinalities")
        sizes = [int(p) for p in params]
        t = universe_typoid(sizes)
        meta = {"kind": "generator", "generator": "universe", "args": sizes}
    elif kind in _EQUALITY_GENERATORS:
        groupoid, prefix, argument, triples = _EQUALITY_GENERATORS[kind]
        if len(params) != 1:
            raise _InputError(f"gen {kind} takes one argument: {argument}")
        n = int(params[0])
        # validation spends one law instance per composable triple, so a size
        # the budget cannot pay for is refused before its tables are built
        Budget().spend(triples(max(n, 0)))
        t = equality_typoid(groupoid(n), name=f"{prefix}{params[0]}")
        meta = {"kind": "generator", "generator": kind, "args": [n]}
    else:
        raise _InputError(f"unknown generator {kind!r}")
    _write_construction(args.out, t, meta)
    _report("ok", stats=_stats(t))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="typoid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every law of every declaration in a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("univalence", help="decide univalence and synthesize the witness table")
    p.add_argument("file")
    p.add_argument("--typoid", default=None)
    p.add_argument("--emit-ua", action="store_true")
    p.set_defaults(func=_cmd_univalence)

    p = sub.add_parser("product", help="construct the product of two typoids")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("exp", help="construct the exponential of two typoids")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--max-terms", type=int, default=64)
    p.add_argument("--max-edges", type=int, default=256)
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("truncate", help="collapse the layer to one edge per hom")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("complete", help="regrow the base groupoid from the cell classes")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("check-fun", help="validate a declared or command-line morphism")
    p.add_argument("file")
    p.add_argument("--morphism", default=None)
    p.add_argument("--from", dest="src", default=None)
    p.add_argument("--to", dest="dst", default=None)
    p.add_argument("--map", default="", help='term assignments "a:b,..."')
    p.add_argument("--path-map", default="", help='path assignments "p:q,..."')
    p.add_argument("--edge-map", default="", help='edge assignments "e:d,..."')
    p.add_argument("--no-ap", action="store_true", help="skip base-path functor checks")
    p.set_defaults(func=_cmd_check_fun)

    p = sub.add_parser("induce", help="build the edge action of a term map out of a univalent source")
    p.add_argument("file")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--map", default="", help='term assignments "a:b,..."')
    p.add_argument("--path-map", default="", help='path assignments "p:q,..."')
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("gen", help="generate a stock typoid (equality|universe|discrete|prop)")
    p.add_argument("kind", choices=["equality", "universe", "discrete", "prop"])
    p.add_argument("args", nargs="*", help="generator arguments")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        _report("input-error", violations=[{"code": "E000", "message": str(exc)}])
        return EXIT_INPUT
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except ResourceLimitError as exc:
        _report(
            "resource-limit",
            violations=[{"code": "R000", "bound": exc.bound, "message": exc.detail}],
        )
        return EXIT_RESOURCE
    except ValueError as exc:
        _report("input-error", violations=[{"code": "E000", "message": str(exc)}])
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
