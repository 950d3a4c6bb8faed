"""Deciding whether edges can be traded back for base paths.

A structure is univalent when, on every hom-set, the path-to-edge table
induces a bijection from paths onto the cells of the edges.  The witness is
a table sending each edge to the unique path whose image lands in its cell;
in this strict model the table is forced, and it always sends designated
eqv edges to refl.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import _check_provenance
from .model import Budget, Typoid, ValidationReport, Violation, _constant_on_cells, validate_typoid
from .morphisms import TypoidMorphism


@dataclass(frozen=True)
class UnivalenceCertificate:
    typoid_name: str
    ua: tuple[int, ...]


@dataclass(frozen=True)
class NotUnivalent:
    """Why the path-to-cell map fails to be a bijection on some hom-set.

    reason is "not-injective" (two paths, one cell: witness_paths) or
    "not-surjective" (a cell no path reaches: witness_edge is its
    representative).
    """

    typoid_name: str
    reason: str
    hom: tuple[int, int]
    witness_paths: tuple[int, int] | None = None
    witness_edge: int | None = None


class NotUnivalentError(Exception):
    def __init__(self, witness: NotUnivalent):
        hom = witness.hom
        super().__init__(
            f"typoid {witness.typoid_name!r} is not univalent: {witness.reason} on hom {hom}"
        )
        self.witness = witness


def check_univalence(
    t: Typoid, budget: Budget | None = None, report: ValidationReport | None = None
):
    """Decision procedure: returns a UnivalenceCertificate or a NotUnivalent
    witness.  Rejects structures that fail validate_typoid.

    `report` is the caller's validate_typoid report of `t`; passing it skips
    the second validation, and an invalid one is rejected all the same."""
    budget = budget or Budget()
    if report is None:
        report = validate_typoid(t, budget)
    if not report.valid:
        first = report.violations[0]
        raise ValueError(
            f"typoid {t.name!r} is invalid ({len(report.violations)} violations; "
            f"first: {first.law} {first.detail})"
        )

    # Cells never cross hom-sets, so one map from cells to paths decides
    # every hom-set at once.  The failure of the least hom-set is returned,
    # a not-injective one before a not-surjective one ("i" sorts before "s").
    base, layer, cell = t.base, t.layer, t.layer.cell
    budget.spend(base.path_count + layer.edge_count)
    path_of_cell: dict[int, int] = {}
    failures = []
    for p in range(base.path_count):
        first = path_of_cell.setdefault(cell[t.idtoeqv[p]], p)
        if first != p:
            hom = (base.path_src[p], base.path_dst[p])
            failures.append(NotUnivalent(t.name, "not-injective", hom, witness_paths=(first, p)))
    for e in range(layer.edge_count):
        if cell[e] not in path_of_cell:
            hom = (layer.edge_src[e], layer.edge_dst[e])
            failures.append(NotUnivalent(t.name, "not-surjective", hom, witness_edge=cell[e]))
    if failures:
        return min(failures, key=lambda w: (w.hom, w.reason))
    ua = [path_of_cell[c] for c in cell]

    # Forced for a valid typoid: the class map sends refl's image cell back
    # to refl itself.  Failing means `report` did not describe `t`.
    if not all(ua[layer.eqv[x]] == base.refl[x] for x in range(t.term_count)):
        raise ValueError(
            f"typoid {t.name!r} is invalid: its witness table does not send every "
            "designated eqv edge to refl"
        )
    return UnivalenceCertificate(typoid_name=t.name, ua=tuple(ua))


def _unreadable_table(t: Typoid, ua: tuple[int, ...]) -> list[Violation]:
    """The Bookkeeping violation of a table that does not send each edge of
    `t` to a path of `t` between the same terms, or none."""
    base, layer = t.base, t.layer
    if len(ua) != layer.edge_count:
        return [Violation("Bookkeeping", (), f"table has {len(ua)} entries for {layer.edge_count} edges")]
    for e, p in enumerate(ua):
        if not 0 <= p < base.path_count:
            return [Violation("Bookkeeping", (e,), f"edge {e} maps to out-of-range path {p}")]
        if (base.path_src[p], base.path_dst[p]) != (layer.edge_src[e], layer.edge_dst[e]):
            return [Violation("Bookkeeping", (e, p), f"image of edge {e} has wrong endpoints")]
    return []


def verify_certificate(
    t: Typoid, c: UnivalenceCertificate, budget: Budget | None = None
) -> ValidationReport:
    """Exhaustively check both round-trips, that the table is constant on
    cells and that it sends each designated eqv edge to refl; also checks
    endpoint bookkeeping."""
    budget = budget or Budget()
    base, layer = t.base, t.layer
    counts: dict[str, int] = {}
    violations = _unreadable_table(t, c.ua)
    if violations:
        return ValidationReport.collect(violations, counts)

    rt1 = base.path_count
    for p in range(base.path_count):
        if c.ua[t.idtoeqv[p]] != p:
            violations.append(
                Violation("RoundTrip1", (p,), f"path {p} does not come back from its edge image")
            )
    counts["RoundTrip1"] = rt1

    rt2 = layer.edge_count
    for e in range(layer.edge_count):
        if layer.cell[t.idtoeqv[c.ua[e]]] != layer.cell[e]:
            violations.append(
                Violation("RoundTrip2", (e,), f"edge {e} does not come back into its own cell")
            )
    counts["RoundTrip2"] = rt2

    cong, bad = _constant_on_cells(layer, c.ua, "UaCong", "{0} and {1} share a cell but map to different paths")
    violations += bad
    counts["UaCong"] = cong

    for x in range(t.term_count):
        if c.ua[layer.eqv[x]] != base.refl[x]:
            violations.append(Violation("Strictness", (x,), f"the eqv edge of term {x} does not map to refl"))
    counts["Strictness"] = t.term_count
    budget.spend(rt1 + rt2 + cong + t.term_count)

    return ValidationReport.collect(violations, counts)


def induce_morphism(
    src: Typoid,
    dst: Typoid,
    term_map: tuple[int, ...],
    path_map: tuple[int, ...],
    name: str | None = None,
) -> TypoidMorphism:
    """Build the edge action of an arbitrary term map out of a univalent
    source: trade each edge for a path, push it through the base functor,
    and read the result back as an edge of the destination.

    Raises NotUnivalentError when the source admits no witness table, and
    ValueError when `path_map` is not a map of the source's paths.
    """
    if len(path_map) != src.base.path_count or not all(0 <= p < dst.base.path_count for p in path_map):
        raise ValueError(f"the path map does not send the paths of {src.name!r} to paths of {dst.name!r}")
    cert = check_univalence(src)
    if isinstance(cert, NotUnivalent):
        raise NotUnivalentError(cert)
    edge_map = tuple(
        dst.idtoeqv[path_map[cert.ua[e]]] for e in range(src.layer.edge_count)
    )
    return TypoidMorphism(
        name=name or f"induced_{src.name}_to_{dst.name}",
        source=src,
        target=dst,
        term_map=tuple(term_map),
        path_map=tuple(path_map),
        edge_map=edge_map,
    )


def check_square(
    m: TypoidMorphism,
    c_dst: UnivalenceCertificate,
    c_src: UnivalenceCertificate | None = None,
    budget: Budget | None = None,
) -> ValidationReport:
    """The path square: pushing a path down to an edge, across the morphism
    and back up to a path agrees with the base functor.  When a source
    certificate is supplied, the edge square is checked as well.  A table
    that is not one of its typoid's is reported as Bookkeeping."""
    budget = budget or Budget()
    src = m.source
    counts: dict[str, int] = {}
    violations = _unreadable_table(m.target, c_dst.ua) or (_unreadable_table(src, c_src.ua) if c_src else [])
    if violations:
        return ValidationReport.collect(violations, counts)

    n = src.base.path_count
    for p in range(n):
        got = c_dst.ua[m.edge_map[src.idtoeqv[p]]]
        if got != m.path_map[p]:
            violations.append(
                Violation("Square", (p,), f"path {p} travels to {got}, the base functor gives {m.path_map[p]}")
            )
    counts["Square"] = n

    extra = 0
    if c_src is not None:
        extra = src.layer.edge_count
        for e in range(extra):
            if c_dst.ua[m.edge_map[e]] != m.path_map[c_src.ua[e]]:
                violations.append(
                    Violation("Square", (n + e,), f"edge {e} travels to a different path than its witness image")
                )
        counts["SquareEdges"] = extra
    budget.spend(n + extra)

    return ValidationReport.collect(violations, counts)


@dataclass(frozen=True)
class PointedFactorReport:
    cert_a: UnivalenceCertificate | None
    cert_b: UnivalenceCertificate | None
    note_a: str
    note_b: str


def check_pointed_factors(
    prod: Typoid,
    prov,
    a_point: int | None = None,
    b_point: int | None = None,
) -> PointedFactorReport:
    """Certify the factors of a univalent product: a point of one factor
    embeds the other factor's edges into the product, where the product's
    witness table projects back down.

    `prov` is the ProductProvenance returned with the product.  A factor
    with no terms and no supplied point is reported inapplicable.  Points
    default to term 0 when the opposite factor is inhabited.
    """
    _check_provenance(prod, prov)
    cert = check_univalence(prod)
    if isinstance(cert, NotUnivalent):
        raise NotUnivalentError(cert)
    a, b = prov.factors

    def certify(factor: Typoid, point: int | None, other: Typoid, left: bool):
        if point is None:
            if other.term_count == 0:
                return None, "inapplicable: opposite factor is empty and no point was supplied"
            point = 0
        if not 0 <= point < other.term_count:
            raise ValueError(f"point {point} is not a term of {other.name!r}")
        anchor = other.layer.eqv[point]
        ua = []
        for e in range(factor.layer.edge_count):
            pair = (e, anchor) if left else (anchor, e)
            ua.append(prov.split_path[cert.ua[prov.pair_edge[pair]]][0 if left else 1])
        c = UnivalenceCertificate(typoid_name=factor.name, ua=tuple(ua))
        return c, f"certified via the point {point} of the opposite factor"

    cert_a, note_a = certify(a, b_point, b, left=True)
    cert_b, note_b = certify(b, a_point, a, left=False)
    return PointedFactorReport(cert_a=cert_a, cert_b=cert_b, note_a=note_a, note_b=note_b)
