"""Structure-preserving maps between typoids.

A morphism carries a term map, a strict functor on base paths, and an edge
map that must preserve units and composition up to cells.  The cell action
is a property here, not data: parallel edges in one cell must land in one
cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .model import Budget, Typoid, ValidationReport, Violation, _constant_on_cells


@dataclass(frozen=True)
class TypoidMorphism:
    name: str
    source: Typoid
    target: Typoid
    term_map: tuple[int, ...]
    path_map: tuple[int, ...]
    edge_map: tuple[int, ...]


def validate_morphism(
    m: TypoidMorphism, budget: Budget | None = None, check_base: bool = True
) -> ValidationReport:
    """Check endpoint bookkeeping, the base-path functor laws, preservation
    of units and composition up to cells, and cell-respecting edge action.

    Both endpoints are assumed to pass validate_typoid.  `check_base=False`
    skips the base-path functor checks.
    """
    budget = budget or Budget()
    src, dst = m.source, m.target
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    for what, table, count in (
        ("term", m.term_map, src.term_count),
        ("path", m.path_map, src.base.path_count),
        ("edge", m.edge_map, src.layer.edge_count),
    ):
        if len(table) != count:
            violations.append(
                Violation("Bookkeeping", (), f"{what} map has {len(table)} entries for {count} {what}s")
            )
    if not violations and not all(0 <= y < dst.term_count for y in m.term_map):
        violations.append(Violation("Bookkeeping", (), "term map value out of range"))
    if violations:
        return ValidationReport.collect(violations, counts)

    for what, table, (from_src, from_dst), (to_src, to_dst) in (
        ("path", m.path_map, (src.base.path_src, src.base.path_dst), (dst.base.path_src, dst.base.path_dst)),
        ("edge", m.edge_map, (src.layer.edge_src, src.layer.edge_dst), (dst.layer.edge_src, dst.layer.edge_dst)),
    ):
        for i, j in enumerate(table):
            if not 0 <= j < len(to_src):
                violations.append(Violation("Bookkeeping", (i,), f"{what} {i} maps to out-of-range {what} {j}"))
            elif (to_src[j], to_dst[j]) != (m.term_map[from_src[i]], m.term_map[from_dst[i]]):
                violations.append(Violation("Bookkeeping", (i, j), f"image of {what} {i} has wrong endpoints"))
    if violations:
        return ValidationReport.collect(violations, counts)

    if check_base:
        ap = 0
        for x in range(src.term_count):
            ap += 1
            if m.path_map[src.base.refl[x]] != dst.base.refl[m.term_map[x]]:
                violations.append(
                    Violation("ApFunctor", (x,), f"refl of term {x} must map to refl of its image")
                )
        for (p, q), pq in src.base.comp.items():
            image = dst.base.comp.get((m.path_map[p], m.path_map[q]))
            ap += 1
            if image is None or m.path_map[pq] != image:
                violations.append(
                    Violation("ApFunctor", (p, q), f"image of comp({p},{q}) is not the comp of the images")
                )
        counts["ApFunctor"] = ap
        budget.spend(ap)

    dcell = dst.layer.cell
    unit = 0
    for x in range(src.term_count):
        unit += 1
        if dcell[m.edge_map[src.layer.eqv[x]]] != dcell[dst.layer.eqv[m.term_map[x]]]:
            violations.append(
                Violation("UnitPres", (x,), f"image of eqv at term {x} is not in the cell of eqv")
            )
    counts["UnitPres"] = unit

    comp = 0
    for (e1, e2), e12 in src.layer.star.items():
        image = dst.layer.star.get((m.edge_map[e1], m.edge_map[e2]))
        if image is None:
            continue
        comp += 1
        if dcell[m.edge_map[e12]] != dcell[image]:
            violations.append(
                Violation(
                    "CompPres",
                    (e1, e2),
                    f"image of star({e1},{e2}) is not in the cell of the star of the images",
                )
            )
    counts["CompPres"] = comp

    cellp, bad = _constant_on_cells(
        src.layer, [dcell[d] for d in m.edge_map], "CellPres", "{0} and {1} share a cell but their images do not"
    )
    violations += bad
    counts["CellPres"] = cellp
    budget.spend(unit + comp + cellp)

    return ValidationReport.collect(violations, counts)


def is_strict(m: TypoidMorphism) -> bool:
    """True iff designated eqv edges map to designated eqv edges on the nose."""
    return all(
        m.edge_map[m.source.layer.eqv[x]] == m.target.layer.eqv[m.term_map[x]]
        for x in range(m.source.term_count)
    )


def check_inverse_law(m: TypoidMorphism, budget: Budget | None = None) -> ValidationReport:
    """Edge inversion commutes with the edge map up to cells.

    This is a consequence of the morphism laws, so it holds for every map
    accepted by validate_morphism.
    """
    budget = budget or Budget()
    src, dst = m.source, m.target
    dcell = dst.layer.cell
    violations: list[Violation] = []
    n = src.layer.edge_count
    for e in range(n):
        if dcell[m.edge_map[src.layer.einv[e]]] != dcell[dst.layer.einv[m.edge_map[e]]]:
            violations.append(
                Violation("InvPres", (e,), f"image of einv({e}) is not in the cell of einv of the image")
            )
    budget.spend(n)
    return ValidationReport.collect(violations, {"InvPres": n})


def compose_morphisms(f: TypoidMorphism, g: TypoidMorphism) -> TypoidMorphism:
    """Composite running f first, then g."""
    if not f.target.same_structure(g.source):
        raise ValueError(
            f"cannot compose: target of {f.name!r} is not the source of {g.name!r}"
        )
    return TypoidMorphism(
        name=f"{g.name}_after_{f.name}",
        source=f.source,
        target=g.target,
        term_map=tuple(g.term_map[y] for y in f.term_map),
        path_map=tuple(g.path_map[q] for q in f.path_map),
        edge_map=tuple(g.edge_map[d] for d in f.edge_map),
    )


def identity_morphism(t: Typoid) -> TypoidMorphism:
    return TypoidMorphism(
        name=f"id_{t.name}",
        source=t,
        target=t,
        term_map=tuple(range(t.term_count)),
        path_map=tuple(range(t.base.path_count)),
        edge_map=tuple(range(t.layer.edge_count)),
    )


def identity_from_equality(t: Typoid) -> TypoidMorphism:
    """The identity term map as a strict morphism out of the equality typoid
    over t's base, with the path-to-edge table as its edge action."""
    from .constructions import equality_typoid

    return TypoidMorphism(
        name=f"idtoeqv_{t.name}",
        source=equality_typoid(t.base, name=f"eq_{t.name}"),
        target=t,
        term_map=tuple(range(t.term_count)),
        path_map=tuple(range(t.base.path_count)),
        edge_map=t.idtoeqv,
    )


def _backtrack(
    options: Sequence[Sequence[int]], checks: Iterable[tuple[int, Callable[[list[int]], bool]]]
) -> Iterator[tuple[int, ...]]:
    """Every tuple c with c[k] drawn from options[k] for which all checks
    hold, in lexicographic order of the options, found by an iterative
    depth-first search that yields each tuple as soon as it is complete.

    A check is (k, ok): ok(c) reads positions up to k of the partial choice
    list c, and runs as soon as position k is fixed.  A fixed value is a
    position with one option; placed first, the checks that read only fixed
    values run once, before any free position is tried."""
    n = len(options)
    if not all(options):
        return
    at: list[list[Callable[[list[int]], bool]]] = [[] for _ in range(n)]
    for k, ok in checks:
        at[k].append(ok)
    chosen = [0] * n
    tried = [0] * n
    k = 0
    while k >= 0:
        if k == n:
            yield tuple(chosen)
            k -= 1
            continue
        i = tried[k]
        if i == len(options[k]):
            tried[k] = 0
            k -= 1
            continue
        tried[k] = i + 1
        chosen[k] = options[k][i]
        for ok in at[k]:
            if not ok(chosen):
                break
        else:
            k += 1


def iter_path_functors(src, dst, term_map) -> Iterator[tuple[int, ...]]:
    """All strict base-path functors over the given term map, in
    lexicographic order of the choices for non-refl paths."""
    refl_image = {src.refl[x]: dst.refl[term_map[x]] for x in range(src.term_count)}
    free = [p for p in range(src.path_count) if p not in refl_image]
    options = [(q,) for q in refl_image.values()]
    for p in free:
        options.append(dst.hom(term_map[src.path_src[p]], term_map[src.path_dst[p]]))
    # search positions: the refl paths with their one image, then the free paths
    order = list(refl_image) + free
    at = {p: k for k, p in enumerate(order)}
    comp = dst.comp
    checks = []
    for (p, q), pq in src.comp.items():
        i, j, r = at[p], at[q], at[pq]
        checks.append((max(i, j, r), lambda c, i=i, j=j, r=r: comp.get((c[i], c[j])) == c[r]))
    for choice in _backtrack(options, checks):
        table = [0] * src.path_count
        for p, q in zip(order, choice):
            table[p] = q
        yield tuple(table)


def find_path_functor(src, dst, term_map) -> tuple[int, ...]:
    """First strict base-path functor over the term map, or ValueError
    naming an unmappable path when none exists."""
    for table in iter_path_functors(src, dst, term_map):
        return table
    for p in range(src.path_count):
        if not dst.hom(term_map[src.path_src[p]], term_map[src.path_dst[p]]):
            raise ValueError(f"no image candidates for path {p} under the term map")
    raise ValueError("no choice of path images satisfies the functor laws")
