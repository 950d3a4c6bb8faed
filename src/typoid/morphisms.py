"""Structure-preserving maps between typoids.

A morphism maps terms, paths and edges.  On each level, units must land in
the cell of the image's unit and composites in the cell of the composite
of the images; on edges, cell-mates must land in one cell.  Paths are the
level whose cells are singletons, where these laws are strict
functoriality, so one search and one law loop serve both levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .model import Budget, Typoid, ValidationReport, Violation, _constant_on_cells, _ids_in_range, _Level, _unreadable


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
    """Check endpoint bookkeeping, each level's unit and composition laws
    up to cells (on paths, whose cells are singletons, the strict functor
    laws `ApFunctor`), and that edge cell-mates map into one cell.  A
    composite the target lacks breaks the composition law.

    Both endpoints are assumed to pass validate_typoid.  `check_base=False`
    skips the path level's laws.
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
    # the laws read every id of both endpoints' tables; edge ends index the
    # term map.  A table's slots hold ids, so only its side entries can be out of range
    for side, t in (("source", src), ("target", dst)):
        for level in (t.base, t.layer):
            broken = _unreadable(level, t.term_count)
            aside = level.table.side
            if not _ids_in_range({*chain.from_iterable(aside), *aside.values()}, len(level.src)):
                broken.append(f"{level.words.comp} id out of range")
            violations += (Violation("Bookkeeping", (), f"{side} {detail}") for detail in broken)
    if violations:
        return ValidationReport.collect(violations, counts)

    levels = ((m.path_map, src.base, dst.base), (m.edge_map, src.layer, dst.layer))
    for table, s, d in levels:
        what, s_src, s_dst, d_src, d_dst = s.words.item, s.src, s.dst, d.src, d.dst
        for i, j in enumerate(table):
            if not 0 <= j < len(d_src):
                violations.append(Violation("Bookkeeping", (i,), f"{what} {i} maps to out-of-range {what} {j}"))
            elif (d_src[j], d_dst[j]) != (m.term_map[s_src[i]], m.term_map[s_dst[i]]):
                violations.append(Violation("Bookkeeping", (i, j), f"image of {what} {i} has wrong endpoints"))
    if violations:
        return ValidationReport.collect(violations, counts)

    for table, s, d in levels[not check_base:]:
        unit_law, unit_detail, comp_law, comp_detail = s.words.functor
        dcell, s_unit, d_unit, stable, dtable = d.cell, s.unit, d.unit, s.table, d.table
        for x, y in enumerate(m.term_map):
            if dcell[table[s_unit[x]]] != dcell[d_unit[y]]:
                violations.append(Violation(unit_law, (x,), unit_detail.format(x)))
        # the images of a composable pair compose; a stray source key, in range by now, is looked up
        entries = []  # (p, q, p·q, composite of the images or -1)
        for p, y in enumerate(s.dst):
            images, row = dtable.row(table[p]), zip(stable.out[y], stable.row(p))
            entries += ((p, q, pq, images[dtable.pos[table[q]]]) for q, pq in row if pq >= 0)
        entries += ((p, q, pq, dtable.get((table[p], table[q]), -1)) for (p, q), pq in stable.side.items())
        for p, q, pq, image in entries:
            if image < 0 or dcell[table[pq]] != dcell[image]:
                violations.append(Violation(comp_law, (p, q), comp_detail.format(p, q)))
        counts[unit_law] = len(m.term_map)
        counts[comp_law] = counts.get(comp_law, 0) + len(entries)
        spent = len(m.term_map) + len(entries)
        if s.words.item == "edge":
            cellp, bad = _constant_on_cells(
                src.layer, [dcell[e] for e in table], "CellPres", "{0} and {1} share a cell but their images do not"
            )
            violations += bad
            counts["CellPres"] = cellp
            spent += cellp
        budget.spend(spent)

    return ValidationReport.collect(violations, counts)


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


def _backtrack(
    options: Sequence[Sequence[int]], checks: Iterable[tuple[int, Callable[[list[int]], bool]]]
) -> Iterator[tuple[int, ...]]:
    """Every tuple c with c[k] drawn from options[k] for which all checks
    hold, in lexicographic order of the options, found by an iterative
    depth-first search that yields each tuple as soon as it is complete.

    A check is (k, ok): ok(c) reads positions up to k of the partial choice
    list c, and runs as soon as position k is fixed."""
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


def _functors(src: _Level, dst: _Level, term_map) -> Iterator[tuple[int, ...]]:
    """Every map of src's ids to dst's over the term map that sends units
    into the cell of the image's unit, composites into the cell of the
    composite of the images, and cell-mates into one cell, in lexicographic
    order: id i ranges over hom(f(src i), f(dst i)), a unit over its cell."""
    dcell, dunit, hom = dst.cell, dst.unit, dst.hom
    options = [hom(term_map[x], term_map[y]) for x, y in zip(src.src, src.dst)]
    for x, u in enumerate(src.unit):
        unit_cell = dcell[dunit[term_map[x]]]
        options[u] = [q for q in options[u] if dcell[q] == unit_cell]
    # the cell of each composite in dst, by row; the images of a composable pair compose
    stable, dtable, dpos = src.table, dst.table, dst.table.pos
    cells = [[dcell[r] if r >= 0 else None for r in dtable.row(p)] for p in range(len(dst.src))]
    checks = [
        (max(p, q, pq), lambda c, p=p, q=q, pq=pq: cells[c[p]][dpos[c[q]]] == dcell[c[pq]])
        for p, y in enumerate(src.dst)
        for q, pq in zip(stable.out[y], stable.row(p))
        if pq >= 0
    ]
    checks += [(max(e, r), lambda c, e=e, r=r: dcell[c[e]] == dcell[c[r]]) for e, r in enumerate(src.cell) if e != r]
    return _backtrack(options, checks)


def iter_path_functors(src, dst, term_map) -> Iterator[tuple[int, ...]]:
    """All strict base-path functors over the given term map, in
    lexicographic order: the path level's maps into singleton cells."""
    yield from _functors(src, dst, term_map)


def find_path_functor(src, dst, term_map) -> tuple[int, ...]:
    """First strict base-path functor over the term map, or ValueError
    naming an unmappable path when none exists."""
    for table in iter_path_functors(src, dst, term_map):
        return table
    for p in range(src.path_count):
        if not dst.hom(term_map[src.path_src[p]], term_map[src.path_dst[p]]):
            raise ValueError(f"no image candidates for path {p} under the term map")
    raise ValueError("no choice of path images satisfies the functor laws")
