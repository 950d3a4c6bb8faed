"""Exhaustive generation of small valid typoids, and the brute-force
univalence oracle that enumerates every candidate witness table.

The family is generated structurally so that only valid structures are
produced: base groupoids come from group tables and torsor assembly, layers
from a quotient groupoid plus class multiplicities plus a lift choice, and
path-to-edge tables from class-level functors plus a lift choice.  Each
piece is enumerated exhaustively within the requested bounds.

It also holds the checks of laws that follow from the axioms
(`derived_laws`, `check_inverse_law`), which cannot fail on valid input
and so serve only as test oracles, `relabel`, which permutes a typoid's
ids, and `q_typoid`, the fat-cell family Q(m,k).

`tools/tree_diff.py reports` and `outputs` import this module under both
source trees they compare, so it may import only names that both trees
have: a helper that needs a new library name belongs in a test module.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache

from typoid.constructions import (
    ExponentialEdge,
    ExponentialLimits,
    ExponentialProvenance,
    ProductProvenance,
    _renumber,
    cyclic_groupoid,
)
from typoid.dsl import Document, TypoidEntry
from typoid.model import (
    Budget,
    EquivalenceLayer,
    FiniteGroupoid,
    ResourceLimitError,
    Typoid,
    ValidationReport,
    Violation,
    _constant_on_cells,
    _malformed,
    validate_typoid,
)
from typoid.morphisms import TypoidMorphism
from typoid.univalence import NotUnivalent, UnivalenceCertificate

# ---------------------------------------------------------------------------
# base groupoids


def _is_group(n: int, comp: dict[tuple[int, int], int]) -> bool:
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if comp[(comp[(i, j)], k)] != comp[(i, comp[(j, k)])]:
                    return False
    for i in range(n):
        if not any(comp[(i, j)] == 0 and comp[(j, i)] == 0 for j in range(n)):
            return False
    return True


@lru_cache(maxsize=None)
def small_groups(max_order: int) -> tuple[tuple[int, tuple[tuple[tuple[int, int], int], ...]], ...]:
    """All group tables on {0..n-1} with identity 0, n <= max_order, found
    by filtering every candidate table."""
    found = []
    for n in range(1, max_order + 1):
        free = [(i, j) for i in range(1, n) for j in range(1, n)]
        for values in itertools.product(range(n), repeat=len(free)):
            comp = {}
            for i in range(n):
                comp[(0, i)] = i
                comp[(i, 0)] = i
            for pair, v in zip(free, values):
                comp[pair] = v
            if _is_group(n, comp):
                found.append((n, tuple(sorted(comp.items()))))
    return tuple(found)


def _group_inv(n: int, comp: dict[tuple[int, int], int]) -> list[int]:
    inv = [0] * n
    for i in range(n):
        for j in range(n):
            if comp[(i, j)] == 0 and comp[(j, i)] == 0:
                inv[i] = j
    return inv


def _one_term(n: int, comp: dict[tuple[int, int], int]) -> FiniteGroupoid:
    return FiniteGroupoid(
        term_count=1,
        path_src=(0,) * n,
        path_dst=(0,) * n,
        refl=(0,),
        comp=dict(comp),
        inv=tuple(_group_inv(n, comp)),
    )


def _two_disconnected(n1, c1, n2, c2) -> FiniteGroupoid:
    def pid1(i: int) -> int:
        return 0 if i == 0 else 1 + i

    def pid2(j: int) -> int:
        return 1 if j == 0 else n1 + j

    total = n1 + n2
    src = [0] * total
    dst = [0] * total
    for j in range(1, n2):
        src[pid2(j)] = 1
        dst[pid2(j)] = 1
    src[1] = dst[1] = 1
    comp = {}
    for (i, j), v in c1.items():
        comp[(pid1(i), pid1(j))] = pid1(v)
    for (i, j), v in c2.items():
        comp[(pid2(i), pid2(j))] = pid2(v)
    inv1, inv2 = _group_inv(n1, c1), _group_inv(n2, c2)
    inv = [0] * total
    for i in range(n1):
        inv[pid1(i)] = pid1(inv1[i])
    for j in range(n2):
        inv[pid2(j)] = pid2(inv2[j])
    return FiniteGroupoid(
        term_count=2,
        path_src=tuple(src),
        path_dst=tuple(dst),
        refl=(0, 1),
        comp=comp,
        inv=tuple(inv),
    )


def _two_connected(n: int, comp: dict[tuple[int, int], int]) -> FiniteGroupoid:
    """Two terms, every hom a copy of the group: paths are (x, y, g)."""
    order = [(0, 0, 0), (1, 1, 0)]
    for x in range(2):
        for y in range(2):
            for g in range(n):
                if (x, y, g) not in ((0, 0, 0), (1, 1, 0)):
                    order.append((x, y, g))
    pid = {key: i for i, key in enumerate(order)}
    table = {}
    for (x, y, g) in order:
        for (y2, z, h) in order:
            if y2 == y:
                table[(pid[(x, y, g)], pid[(y2, z, h)])] = pid[(x, z, comp[(g, h)])]
    ginv = _group_inv(n, comp)
    return FiniteGroupoid(
        term_count=2,
        path_src=tuple(x for x, _, _ in order),
        path_dst=tuple(y for _, y, _ in order),
        refl=(0, 1),
        comp=table,
        inv=tuple(pid[(y, x, ginv[g])] for x, y, g in order),
    )


@lru_cache(maxsize=None)
def small_groupoids(max_terms: int, max_hom: int) -> tuple[FiniteGroupoid, ...]:
    out: list[FiniteGroupoid] = [FiniteGroupoid(0, (), (), (), {}, ())]
    groups = [(n, dict(items)) for n, items in small_groups(max_hom)]
    if max_terms >= 1:
        for n, comp in groups:
            out.append(_one_term(n, comp))
    if max_terms >= 2:
        for n1, c1 in groups:
            for n2, c2 in groups:
                out.append(_two_disconnected(n1, c1, n2, c2))
        for n, comp in groups:
            out.append(_two_connected(n, comp))
    return tuple(out)


def permuted(g: FiniteGroupoid, order) -> FiniteGroupoid:
    """g with its paths renumbered: path order[i] becomes path i."""
    new = {old: i for i, old in enumerate(order)}
    return FiniteGroupoid(
        term_count=g.term_count,
        path_src=tuple(g.path_src[p] for p in order),
        path_dst=tuple(g.path_dst[p] for p in order),
        refl=tuple(new[p] for p in g.refl),
        comp={(new[p], new[q]): new[r] for (p, q), r in g.comp.items()},
        inv=tuple(new[g.inv[p]] for p in order),
    )


# ---------------------------------------------------------------------------
# layers over a quotient structure


def _profiles(quotient: FiniteGroupoid, max_edges_per_hom: int, extra_budget: int):
    """Multiplicity assignments: every class carries one edge, plus up to
    extra_budget additional edges dropped on classes, keeping each hom-set
    within max_edges_per_hom."""
    classes = list(range(quotient.path_count))
    hom_of = {c: (quotient.path_src[c], quotient.path_dst[c]) for c in classes}
    hom_size: dict[tuple[int, int], int] = {}
    for c in classes:
        hom_size[hom_of[c]] = hom_size.get(hom_of[c], 0) + 1

    def fits(extras: tuple[int, ...]) -> bool:
        load = dict(hom_size)
        for c in extras:
            load[hom_of[c]] += 1
            if load[hom_of[c]] > max_edges_per_hom:
                return False
        return True

    seen = []
    for count in range(extra_budget + 1):
        for extras in itertools.combinations_with_replacement(classes, count):
            if fits(extras):
                mult = {c: 1 for c in classes}
                for c in extras:
                    mult[c] += 1
                seen.append(mult)
    return seen


def _layer_from(
    quotient: FiniteGroupoid, mult: dict[int, int], lift: str
) -> EquivalenceLayer:
    members: dict[int, list[int]] = {}
    edge_src: list[int] = []
    edge_dst: list[int] = []
    cell: list[int] = []
    n = quotient.term_count
    for x in range(n):
        for y in range(n):
            for c in quotient.hom(x, y):
                ids = []
                for _ in range(mult[c]):
                    ids.append(len(edge_src))
                    edge_src.append(x)
                    edge_dst.append(y)
                members[c] = ids
                cell.extend([ids[0]] * len(ids))

    def pick(c: int) -> int:
        ids = members[c]
        return ids[0] if lift == "min" else ids[-1]

    eqv = tuple(pick(quotient.refl[x]) for x in range(n))
    star = {}
    for c1 in range(quotient.path_count):
        for c2 in range(quotient.path_count):
            if quotient.path_dst[c1] != quotient.path_src[c2]:
                continue
            target = pick(quotient.comp[(c1, c2)])
            for e1 in members[c1]:
                for e2 in members[c2]:
                    star[(e1, e2)] = target
    einv = [0] * len(edge_src)
    for c in range(quotient.path_count):
        target = pick(quotient.inv[c])
        for e in members[c]:
            einv[e] = target
    return EquivalenceLayer(
        term_count=n,
        edge_src=tuple(edge_src),
        edge_dst=tuple(edge_dst),
        eqv=eqv,
        star=star,
        einv=tuple(einv),
        cell=tuple(cell),
    )


def small_layers(term_count: int, max_edges_per_hom: int, extra_budget: int):
    layers = []
    seen = set()
    for quotient in small_groupoids(2, max_edges_per_hom):
        if quotient.term_count != term_count:
            continue
        for mult in _profiles(quotient, max_edges_per_hom, extra_budget):
            for lift in ("min", "max"):
                layer = _layer_from(quotient, mult, lift)
                key = (
                    layer.edge_src,
                    layer.edge_dst,
                    layer.eqv,
                    tuple(sorted(layer.star.items())),
                    layer.einv,
                    layer.cell,
                )
                if key not in seen:
                    seen.add(key)
                    layers.append(layer)
    return layers


# ---------------------------------------------------------------------------
# path-to-edge tables


def hom_classes(layer: EquivalenceLayer, x: int, y: int) -> tuple[int, ...]:
    seen: list[int] = []
    for e in layer.hom(x, y):
        r = layer.cell[e]
        if r not in seen:
            seen.append(r)
    return tuple(seen)


def small_idtoeqvs(base: FiniteGroupoid, layer: EquivalenceLayer):
    """All valid tables: a class-level functor fixed on refl, then a lift."""
    forced = {base.refl[x]: layer.cell[layer.eqv[x]] for x in range(base.term_count)}
    free = [p for p in range(base.path_count) if p not in forced]
    options = []
    for p in free:
        classes = hom_classes(layer, base.path_src[p], base.path_dst[p])
        if not classes:
            return
        options.append(classes)

    def qcomp(c1: int, c2: int) -> int:
        return layer.cell[layer.star[(c1, c2)]]

    members: dict[int, list[int]] = {}
    for e in range(layer.edge_count):
        members.setdefault(layer.cell[e], []).append(e)

    pairs = sorted(base.comp.items())
    for choice in itertools.product(*options):
        f = dict(forced)
        for p, c in zip(free, choice):
            f[p] = c
        if any(qcomp(f[p], f[q]) != f[pq] for (p, q), pq in pairs):
            continue
        for lift in ("min", "max"):
            table = [0] * base.path_count
            for x in range(base.term_count):
                table[base.refl[x]] = layer.eqv[x]
            for p in free:
                ids = members[f[p]]
                table[p] = ids[0] if lift == "min" else ids[-1]
            yield tuple(table)


# ---------------------------------------------------------------------------
# the family


@lru_cache(maxsize=None)
def family(
    max_terms: int = 2,
    max_paths_per_hom: int = 2,
    max_edges_per_hom: int = 3,
    extra_budget: int = 2,
) -> tuple[Typoid, ...]:
    """Every valid typoid the structural enumeration reaches within the
    bounds, deduplicated on the raw tables.  All members pass
    validate_typoid; this is asserted."""
    instances: list[Typoid] = []
    seen = set()
    layers_by_terms = {
        n: small_layers(n, max_edges_per_hom, extra_budget)
        for n in range(max_terms + 1)
    }
    for base in small_groupoids(max_terms, max_paths_per_hom):
        for layer in layers_by_terms[base.term_count]:
            for idtoeqv in small_idtoeqvs(base, layer):
                key = (
                    base.path_src,
                    base.path_dst,
                    base.refl,
                    tuple(sorted(base.comp.items())),
                    base.inv,
                    layer.edge_src,
                    layer.edge_dst,
                    layer.eqv,
                    tuple(sorted(layer.star.items())),
                    layer.einv,
                    layer.cell,
                    idtoeqv,
                )
                if key in seen:
                    continue
                seen.add(key)
                t = Typoid(
                    name=f"fam{len(instances)}",
                    base=base,
                    layer=layer,
                    idtoeqv=idtoeqv,
                )
                assert validate_typoid(t).valid, "generator produced an invalid structure"
                instances.append(t)
    return tuple(instances)


def q_typoid(m: int, k: int) -> Typoid:
    """Q(m, k): one term, base Z_m, as edges the paths of Z_{mk} (`star` is
    addition mod mk), the residues mod m as cells (k edges each), and
    `idtoeqv` sending p to p.  Valid and univalent; its cells grow fat with
    k.  Built from public constructors only."""
    z = cyclic_groupoid(m * k)
    cells = tuple(i % m for i in range(m * k))
    layer = EquivalenceLayer(z.term_count, z.path_src, z.path_dst, z.refl, z.comp, z.inv, cells)
    return Typoid(f"q{m}_{k}", cyclic_groupoid(m), layer, tuple(range(m)))


# ---------------------------------------------------------------------------
# laws that follow from the axioms: oracles that hold on every valid input


def cells_equal(t: Typoid, e: int, d: int) -> bool:
    """True iff the two edges lie in the same cell of the same hom-set."""
    layer = t.layer
    if not (0 <= e < layer.edge_count and 0 <= d < layer.edge_count):
        raise ValueError(f"edge id out of range: {e}, {d}")
    if (layer.edge_src[e], layer.edge_dst[e]) != (layer.edge_src[d], layer.edge_dst[d]):
        raise ValueError(
            f"edges {e} and {d} live in different hom-sets; cells only relate parallel edges"
        )
    return layer.cell[e] == layer.cell[d]


def derived_laws(t: Typoid, budget: Budget | None = None) -> ValidationReport:
    """Consequence laws of einv: unit inverses stay in the unit cell, double
    inversion lands back in the original cell, and inversion respects cells.

    These follow from Typ1..Typ4, so they hold for every structure accepted
    by validate_typoid; a violation means validation was skipped.  A layer
    whose tables cannot be read gets its Bookkeeping violations instead.
    """
    budget = budget or Budget()
    layer = t.layer
    cell = layer.cell
    violations: list[Violation] = []
    counts: dict[str, int] = {}
    if _malformed(layer, violations):
        return ValidationReport.collect(violations, counts)

    unit = 0
    for x in range(layer.term_count):
        unit += 1
        e = layer.eqv[x]
        if cell[layer.einv[e]] != cell[e]:
            violations.append(
                Violation("DerivedUnitInv", (x,), f"einv(eqv of term {x}) left the cell of eqv")
            )
    counts["DerivedUnitInv"] = unit

    double = 0
    for e in range(layer.edge_count):
        double += 1
        if cell[layer.einv[layer.einv[e]]] != cell[e]:
            violations.append(
                Violation("DerivedDoubleInv", (e,), f"einv(einv({e})) left the cell of {e}")
            )
    counts["DerivedDoubleInv"] = double

    cong, bad = _constant_on_cells(
        layer,
        [cell[layer.einv[e]] for e in range(layer.edge_count)],
        "DerivedInvCong",
        "{0} and {1} share a cell but their einv images do not",
    )
    violations += bad
    counts["DerivedInvCong"] = cong
    budget.spend(unit + double + cong)

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


# ---------------------------------------------------------------------------
# relabelings


def _placed(ids, column) -> tuple[int, ...]:
    """`column` with entry i moved to position ids[i]."""
    out = [0] * len(column)
    for i, value in zip(ids, column):
        out[i] = value
    return tuple(out)


def relabel(t: Typoid, rng) -> Typoid:
    """t with its term, path and edge ids permuted by `rng`.  Every table is
    rewritten in the new ids, the composition tables in key order, and each
    cell is labelled by its least new id."""
    terms, paths, edges = (rng.sample(range(n), n) for n in (t.term_count, t.base.path_count, t.layer.edge_count))

    def level(ids, src, dst, unit, table, inv):
        return (
            _placed(ids, [terms[x] for x in src]),
            _placed(ids, [terms[x] for x in dst]),
            _placed(terms, [ids[i] for i in unit]),
            dict(sorted(((ids[p], ids[q]), ids[r]) for (p, q), r in table.items())),
            _placed(ids, [ids[i] for i in inv]),
        )

    g, layer = t.base, t.layer
    least: dict[int, int] = {}
    for e, r in enumerate(layer.cell):
        least[r] = min(least.get(r, edges[e]), edges[e])
    return Typoid(
        t.name,
        FiniteGroupoid(g.term_count, *level(paths, g.path_src, g.path_dst, g.refl, g.comp, g.inv)),
        EquivalenceLayer(
            layer.term_count,
            *level(edges, layer.edge_src, layer.edge_dst, layer.eqv, layer.star, layer.einv),
            _placed(edges, [least[r] for r in layer.cell]),
        ),
        _placed(paths, [edges[e] for e in t.idtoeqv]),
    )


# ---------------------------------------------------------------------------
# brute-force oracle


def all_ua_tables(t: Typoid):
    """Every assignment of a parallel base path to each edge."""
    candidates = [
        t.base.hom(t.layer.edge_src[e], t.layer.edge_dst[e])
        for e in range(t.layer.edge_count)
    ]
    if any(not c for c in candidates):
        return iter(())
    return itertools.product(*candidates)


def table_satisfies(t: Typoid, table) -> bool:
    """Direct transcription of the witness conditions: both round-trips and
    constancy on cells.  Independent of the decision procedure."""
    base, layer = t.base, t.layer
    cell = layer.cell
    ide = t.idtoeqv
    for p in range(base.path_count):
        if table[ide[p]] != p:
            return False
    for e in range(layer.edge_count):
        if table[e] != table[cell[e]]:
            return False
        if cell[ide[table[e]]] != cell[e]:
            return False
    return True


def oracle_search(t: Typoid):
    """Enumerate every table; return (satisfying tables, a few rejected
    samples for cross-checking)."""
    satisfying = []
    rejected = []
    for table in all_ua_tables(t):
        if table_satisfies(t, table):
            satisfying.append(table)
        elif len(rejected) < 3:
            rejected.append(table)
    return satisfying, rejected


def naive_univalence(t: Typoid):
    """The decision hom-set by hom-set, over every ordered pair of terms:
    the certificate, or the first failure of the least hom-set, paths
    before edges.  `t` must be valid."""
    base, layer = t.base, t.layer
    ua = [0] * layer.edge_count
    for x in range(t.term_count):
        for y in range(t.term_count):
            path_of_class: dict[int, int] = {}
            for p in base.hom(x, y):
                rep = layer.cell[t.idtoeqv[p]]
                if rep in path_of_class:
                    return NotUnivalent(t.name, "not-injective", (x, y), witness_paths=(path_of_class[rep], p))
                path_of_class[rep] = p
            for e in layer.hom(x, y):
                if layer.cell[e] not in path_of_class:
                    return NotUnivalent(t.name, "not-surjective", (x, y), witness_edge=layer.cell[e])
            for e in layer.hom(x, y):
                ua[e] = path_of_class[layer.cell[e]]
    return UnivalenceCertificate(typoid_name=t.name, ua=tuple(ua))


# ---------------------------------------------------------------------------
# brute-force associativity reference


def naive_entries(table, src, dst) -> dict[tuple[int, int], int]:
    """The entries of composable pairs that are in range with the right
    endpoints, found by trying every pair of ids."""
    n = len(src)
    good = {}
    for p in range(n):
        for q in range(n):
            r = table.get((p, q))
            if dst[p] == src[q] and r is not None and 0 <= r < n and (src[r], dst[r]) == (src[p], dst[q]):
                good[(p, q)] = r
    return good


def naive_associativity(table, src, dst, cell=None):
    """Associativity over every triple of ids, with no index.

    Returns (composable triples, instances whose two bracketings are both
    defined, failing triples).  Only entries of composable pairs that are in
    range with the right endpoints take part; `cell`, when given, compares
    the bracketings up to cells instead of on the nose.
    """
    n = len(src)
    good = naive_entries(table, src, dst)
    triples = instances = 0
    failing = []
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if dst[p] != src[q] or dst[q] != src[r]:
                    continue
                triples += 1
                pq, qr = good.get((p, q)), good.get((q, r))
                lhs = good.get((pq, r)) if pq is not None else None
                rhs = good.get((p, qr)) if qr is not None else None
                if lhs is None or rhs is None:
                    continue
                instances += 1
                if (lhs != rhs) if cell is None else (cell[lhs] != cell[rhs]):
                    failing.append((p, q, r))
    return triples, instances, failing


def naive_typ4_estimate(layer: EquivalenceLayer) -> int:
    """Typ4 candidates: composable edge pairs weighted by both cell sizes."""
    size = {}
    for e in range(layer.edge_count):
        size[layer.cell[e]] = size.get(layer.cell[e], 0) + 1
    return sum(
        size[layer.cell[e]] * size[layer.cell[d]]
        for e in range(layer.edge_count)
        for d in range(layer.edge_count)
        if layer.edge_dst[e] == layer.edge_src[d]
    )


def same_hom_redirects(t: Typoid, i: int):
    """Copies of t with one comp or star entry set to the next id of the
    same hom-set, so every table stays well formed.  About three keys per
    table, spread over its sorted keys from an offset picked by i."""
    for part, name, src, dst in (
        ("base", "comp", "path_src", "path_dst"),
        ("layer", "star", "edge_src", "edge_dst"),
    ):
        level = getattr(t, part)
        table, s, d = getattr(level, name), getattr(level, src), getattr(level, dst)
        keys = [(p, q) for p, q in sorted(table) if len(level.hom(s[p], d[q])) >= 2]
        for key in keys[i % 5::max(len(keys) // 3, 1)]:
            hom = level.hom(s[key[0]], d[key[1]])
            other = hom[(hom.index(table[key]) + 1) % len(hom)]
            changed = dataclasses.replace(level, **{name: {**table, key: other}})
            yield dataclasses.replace(t, **{part: changed})


# ---------------------------------------------------------------------------
# brute-force functor search and exponential


def naive_path_functors(src, dst, term_map):
    """Every strict base-path functor over the term map: the full product of
    the images of the non-refl paths, each checked against all of comp."""
    refl_image = {src.refl[x]: dst.refl[term_map[x]] for x in range(src.term_count)}
    free = [p for p in range(src.path_count) if p not in refl_image]
    candidates = []
    for p in free:
        options = dst.hom(term_map[src.path_src[p]], term_map[src.path_dst[p]])
        if not options:
            return
        candidates.append(options)
    pairs = sorted(src.comp.items())
    for choice in itertools.product(*candidates):
        table = list(range(src.path_count))
        for x in range(src.term_count):
            table[src.refl[x]] = dst.refl[term_map[x]]
        for p, q in zip(free, choice):
            table[p] = q
        if all(dst.comp.get((table[p], table[q])) == table[pq] for (p, q), pq in pairs):
            yield tuple(table)


def _edge_action_ok(a: Typoid, b: Typoid, f: tuple[int, ...], phi: tuple[int, ...]) -> bool:
    bcell = b.layer.cell
    for x in range(a.term_count):
        if bcell[phi[a.layer.eqv[x]]] != bcell[b.layer.eqv[f[x]]]:
            return False
    for (e1, e2), e12 in a.layer.star.items():
        image = b.layer.star[(phi[e1], phi[e2])]
        if bcell[phi[e12]] != bcell[image]:
            return False
    for members in a.layer.class_members.values():
        first = bcell[phi[members[0]]]
        for e in members[1:]:
            if bcell[phi[e]] != first:
                return False
    return True


def _square_ok(
    a: Typoid, b: Typoid, phi_f: tuple[int, ...], phi_g: tuple[int, ...], theta: tuple[int, ...]
) -> bool:
    bcell = b.layer.cell
    bstar = b.layer.star
    for e in range(a.layer.edge_count):
        sx, sy = a.layer.edge_src[e], a.layer.edge_dst[e]
        if bcell[bstar[(phi_f[e], theta[sy])]] != bcell[bstar[(theta[sx], phi_g[e])]]:
            return False
    return True


def naive_completion_base(layer: EquivalenceLayer) -> tuple[FiniteGroupoid, tuple[int, ...]]:
    """The strict groupoid on the cell classes, composing every pair of
    class representatives whose endpoints meet."""
    reps = sorted(layer.class_members)
    index = {r: i for i, r in enumerate(reps)}
    refl = tuple(index[layer.cell[layer.eqv[x]]] for x in range(layer.term_count))
    comp = {}
    for r1 in reps:
        for r2 in reps:
            if layer.edge_dst[r1] == layer.edge_src[r2]:
                comp[(index[r1], index[r2])] = index[layer.cell[layer.star[(r1, r2)]]]
    base = FiniteGroupoid(
        term_count=layer.term_count,
        path_src=tuple(layer.edge_src[r] for r in reps),
        path_dst=tuple(layer.edge_dst[r] for r in reps),
        refl=refl,
        comp=comp,
        inv=tuple(index[layer.cell[layer.einv[r]]] for r in reps),
    )
    idtoeqv = list(reps)
    for x in range(layer.term_count):
        idtoeqv[refl[x]] = layer.eqv[x]
    return base, tuple(idtoeqv)


def naive_exponential(
    a: Typoid, b: Typoid, limits: ExponentialLimits = ExponentialLimits(), name: str | None = None
) -> tuple[Typoid, ExponentialProvenance]:
    """The exponential by full products: every edge action and every family
    is enumerated and then checked, and star tries every pair of families.
    Both arguments must be valid."""
    name = name or f"exp_{a.name}_{b.name}"
    terms: list[TypoidMorphism] = []
    for f in itertools.product(range(b.term_count), repeat=a.term_count):
        for ap in naive_path_functors(a.base, b.base, f):
            options = [
                b.layer.hom(f[a.layer.edge_src[e]], f[a.layer.edge_dst[e]])
                for e in range(a.layer.edge_count)
            ]
            for phi in itertools.product(*options):
                if _edge_action_ok(a, b, f, phi):
                    if len(terms) >= limits.max_terms:
                        raise ResourceLimitError(
                            "max-terms", f"more than {limits.max_terms} morphisms from {a.name!r} to {b.name!r}"
                        )
                    terms.append(TypoidMorphism(f"{name}_term{len(terms)}", a, b, f, ap, phi))

    families: list[ExponentialEdge] = []
    family_id: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for i, fm in enumerate(terms):
        for j, gm in enumerate(terms):
            options = [b.layer.hom(fm.term_map[x], gm.term_map[x]) for x in range(a.term_count)]
            for theta in itertools.product(*options):
                if _square_ok(a, b, fm.edge_map, gm.edge_map, theta):
                    if len(families) >= limits.max_edges:
                        raise ResourceLimitError("max-edges", f"more than {limits.max_edges} edge families")
                    family_id[(i, j, theta)] = len(families)
                    families.append(ExponentialEdge(src_term=i, dst_term=j, theta=theta))

    bcell, bstar = b.layer.cell, b.layer.star
    star = {}
    for e1, fam1 in enumerate(families):
        for e2, fam2 in enumerate(families):
            if fam1.dst_term == fam2.src_term:
                pointwise = tuple(bstar[(fam1.theta[x], fam2.theta[x])] for x in range(a.term_count))
                star[(e1, e2)] = family_id[(fam1.src_term, fam2.dst_term, pointwise)]
    layer = EquivalenceLayer(
        term_count=len(terms),
        edge_src=tuple(f.src_term for f in families),
        edge_dst=tuple(f.dst_term for f in families),
        eqv=tuple(
            family_id[(i, i, tuple(b.layer.eqv[terms[i].term_map[x]] for x in range(a.term_count)))]
            for i in range(len(terms))
        ),
        star=star,
        einv=tuple(
            family_id[(f.dst_term, f.src_term, tuple(b.layer.einv[x] for x in f.theta))] for f in families
        ),
        cell=tuple(family_id[(f.src_term, f.dst_term, tuple(bcell[x] for x in f.theta))] for f in families),
    )
    base, idtoeqv = naive_completion_base(layer)
    out, _, emap = _renumber(Typoid(name=name, base=base, layer=layer, idtoeqv=idtoeqv))
    final_edges = list(families)
    for old, fam in enumerate(families):
        final_edges[emap[old]] = fam
    return out, ExponentialProvenance(source=a, target=b, terms=tuple(terms), edges=tuple(final_edges))


def naive_product(a: Typoid, b: Typoid, name: str | None = None) -> tuple[Typoid, ProductProvenance]:
    """The product with every path table and its edge twin written out by
    hand.  Both arguments must be valid."""
    name = name or f"{a.name}_x_{b.name}"
    tb = b.term_count
    pb = b.base.path_count
    eb = b.layer.edge_count

    def term(x: int, y: int) -> int:
        return x * tb + y

    def pid(p1: int, p2: int) -> int:
        return p1 * pb + p2

    def eid(e1: int, e2: int) -> int:
        return e1 * eb + e2

    pa, ea = a.base.path_count, a.layer.edge_count
    base = FiniteGroupoid(
        term_count=a.term_count * tb,
        path_src=tuple(
            term(a.base.path_src[p1], b.base.path_src[p2]) for p1 in range(pa) for p2 in range(pb)
        ),
        path_dst=tuple(
            term(a.base.path_dst[p1], b.base.path_dst[p2]) for p1 in range(pa) for p2 in range(pb)
        ),
        refl=tuple(pid(a.base.refl[x], b.base.refl[y]) for x in range(a.term_count) for y in range(tb)),
        comp={
            (pid(p1, p2), pid(q1, q2)): pid(r1, r2)
            for (p1, q1), r1 in a.base.comp.items()
            for (p2, q2), r2 in b.base.comp.items()
        },
        inv=tuple(pid(a.base.inv[p1], b.base.inv[p2]) for p1 in range(pa) for p2 in range(pb)),
    )
    layer = EquivalenceLayer(
        term_count=base.term_count,
        edge_src=tuple(
            term(a.layer.edge_src[e1], b.layer.edge_src[e2]) for e1 in range(ea) for e2 in range(eb)
        ),
        edge_dst=tuple(
            term(a.layer.edge_dst[e1], b.layer.edge_dst[e2]) for e1 in range(ea) for e2 in range(eb)
        ),
        eqv=tuple(eid(a.layer.eqv[x], b.layer.eqv[y]) for x in range(a.term_count) for y in range(tb)),
        star={
            (eid(e1, e2), eid(d1, d2)): eid(r1, r2)
            for (e1, d1), r1 in a.layer.star.items()
            for (e2, d2), r2 in b.layer.star.items()
        },
        einv=tuple(eid(a.layer.einv[e1], b.layer.einv[e2]) for e1 in range(ea) for e2 in range(eb)),
        cell=tuple(eid(a.layer.cell[e1], b.layer.cell[e2]) for e1 in range(ea) for e2 in range(eb)),
    )
    idtoeqv = tuple(eid(a.idtoeqv[p1], b.idtoeqv[p2]) for p1 in range(pa) for p2 in range(pb))
    out, pmap, emap = _renumber(Typoid(name=name, base=base, layer=layer, idtoeqv=idtoeqv))

    split_edge: list[tuple[int, int]] = [(0, 0)] * (ea * eb)
    for e1 in range(ea):
        for e2 in range(eb):
            split_edge[emap[eid(e1, e2)]] = (e1, e2)
    split_path: list[tuple[int, int]] = [(0, 0)] * (pa * pb)
    for p1 in range(pa):
        for p2 in range(pb):
            split_path[pmap[pid(p1, p2)]] = (p1, p2)
    return out, ProductProvenance(factors=(a, b), split_edge=tuple(split_edge), split_path=tuple(split_path))


# ---------------------------------------------------------------------------
# documents



def structurally_equal(doc: Document, other: Document) -> bool:
    """Same entries in the same order: names, structures, morphism maps and
    endpoint names; spans and the names of terms, paths and edges do not
    count."""
    if len(doc.entries) != len(other.entries):
        return False
    for mine, theirs in zip(doc.entries, other.entries):
        if type(mine) is not type(theirs) or mine.name != theirs.name:
            return False
        if isinstance(mine, TypoidEntry):
            if not mine.typoid.same_structure(theirs.typoid):
                return False
        else:
            m, o = mine.morphism, theirs.morphism
            if (
                m.term_map != o.term_map
                or m.path_map != o.path_map
                or m.edge_map != o.edge_map
                or mine.source_name != theirs.source_name
                or mine.target_name != theirs.target_name
            ):
                return False
    return True
