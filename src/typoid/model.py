"""Finite models of types with a two-level equivalence structure.

The base level is a strict groupoid of identity paths between terms.  The
second level is a layer of equivalence edges whose hom-sets are partitioned
into cells; the four weak-groupoid laws (Typ1..Typ4) only have to hold up to
the cell partition.  A path-to-edge table ties the two levels together.

Validators report every failing law instance with a concrete witness
instead of aborting on the first problem; their reports, law counts and
budget charges are those of an exhaustive check.  Paths are checked as a
level whose cells are singletons, so one checker holds the table, unit,
inverse and associativity laws of both levels.  The composition tables are
split into one row per path or edge, indexed by the terms' outgoing ids, so
associativity runs over composable triples only.  On a level whose tables,
units, inverses and congruence hold, associativity is checked on
generators (Light's test: the middles it holds around are closed under
composition); when a generator fails, the exhaustive loop runs, so every
witness is listed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

DEFAULT_MAX_CHECKS = 10_000_000


class ResourceLimitError(Exception):
    """A configured size or work bound was exceeded."""

    def __init__(self, bound: str, detail: str):
        super().__init__(f"{bound} exceeded: {detail}")
        self.bound = bound
        self.detail = detail


class Budget:
    """Work meter for one logical run; validators spend law instances on it.

    The default limit comes from the TYPOID_MAX_CHECKS environment variable.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None = None):
        if limit is None:
            raw = os.environ.get("TYPOID_MAX_CHECKS", "")
            limit = int(raw) if raw.isdecimal() else DEFAULT_MAX_CHECKS
        self.limit = limit
        self.spent = 0

    def spend(self, n: int) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise ResourceLimitError(
                "TYPOID_MAX_CHECKS",
                f"{self.spent} law instances needed, limit is {self.limit}",
            )


@dataclass(frozen=True, order=True)
class Violation:
    law: str
    witness: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    law_counts: Mapping[str, int]

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def checks(self) -> int:
        return sum(self.law_counts.values())

    @staticmethod
    def collect(violations: list[Violation], counts: dict[str, int]) -> "ValidationReport":
        return ValidationReport(tuple(sorted(violations)), dict(counts))


class _Words(NamedTuple):
    """What a level is called by the checker, the morphism laws and the
    text format.  Templates get the id checked and the composite found
    (units, inverses), p, q, r and both bracketings (associativity), or the
    term or pair (a morphism's laws); the E104 clause `apart` gets both
    names and the terms where a pair does not compose."""

    item: str
    unit: str
    comp: str
    inv: str
    laws: tuple[str, str, str]  # unit laws, inverse laws, associativity
    units: tuple[str, str, str, str]  # left and right unit, forward and backward inverse
    assoc: str
    functor: tuple[str, str, str, str]  # a morphism's unit law, its wording, composition law, its wording
    arrow: str  # text: declaration arrow, composition operator, inverse row keyword
    op: str
    inv_row: str
    apart: str


_PATH_WORDS = _Words(
    "path", "refl", "comp", "inv", ("Groupoid", "Groupoid", "Groupoid"),
    units=(
        "comp(refl, {0}) = {1}, expected {0}",
        "comp({0}, refl) = {1}, expected {0}",
        "comp({0}, inv {0}) = {1} is not refl",
        "comp(inv {0}, {0}) = {1} is not refl",
    ),
    assoc="comp(comp({0},{1}),{2}) = {3} but comp({0},comp({1},{2})) = {4}",
    functor=("ApFunctor", "refl of term {0} must map to refl of its image",
             "ApFunctor", "image of comp({0},{1}) is not the comp of the images"),
    arrow="->", op=".", inv_row="pinv", apart=": {0!r} ends at {1!r} but {2!r} starts at {3!r}",
)
_EDGE_WORDS = _Words(
    "edge", "eqv", "star", "einv", ("Typ1", "Typ2", "Typ3"),
    units=(
        "star(eqv, {0}) = {1} is not in the cell of {0}",
        "star({0}, eqv) = {1} is not in the cell of {0}",
        "star({0}, einv {0}) = {1} is not in the cell of eqv",
        "star(einv {0}, {0}) = {1} is not in the cell of eqv",
    ),
    assoc="star(star({0},{1}),{2}) and star({0},star({1},{2})) are in different cells",
    functor=("UnitPres", "image of eqv at term {0} is not in the cell of eqv",
             "CompPres", "image of star({0},{1}) is not in the cell of the star of the images"),
    arrow="~", op="*", inv_row="einv", apart="",
)


class _Level:
    """One level as the law checker reads it: ids with endpoints `src` and
    `dst`, a `unit` per term, a composition `table`, an inverse `inv` and a
    `cell` map, called by `words`.  Each level class maps its own fields
    onto these names; paths are the level whose cells are singletons."""

    @cached_property
    def _hom(self) -> dict[tuple[int, int], tuple[int, ...]]:
        out: dict[tuple[int, int], list[int]] = {}
        for i, ends in enumerate(zip(self.src, self.dst)):
            out.setdefault(ends, []).append(i)
        return {k: tuple(v) for k, v in out.items()}

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self._hom.get((x, y), ())


@dataclass(frozen=True)
class FiniteGroupoid(_Level):
    """Strict groupoid on terms 0..term_count-1.

    Paths are dense ids with endpoint tables; `comp` is keyed by composable
    pairs and `inv` is total.  All laws are meant to hold on the nose.
    """

    term_count: int
    path_src: tuple[int, ...]
    path_dst: tuple[int, ...]
    refl: tuple[int, ...]
    comp: Mapping[tuple[int, int], int]
    inv: tuple[int, ...]

    words = _PATH_WORDS
    src = property(lambda self: self.path_src)
    dst = property(lambda self: self.path_dst)
    unit = property(lambda self: self.refl)
    table = property(lambda self: self.comp)
    cell = property(lambda self: range(self.path_count))

    @property
    def path_count(self) -> int:
        return len(self.path_src)


@dataclass(frozen=True)
class EquivalenceLayer(_Level):
    """Edges with composition (`star`), inversion and per-hom cell labels.

    `cell[e]` is the representative of e's cell: the least edge id in the
    class.  Classes never cross hom-sets.
    """

    term_count: int
    edge_src: tuple[int, ...]
    edge_dst: tuple[int, ...]
    eqv: tuple[int, ...]
    star: Mapping[tuple[int, int], int]
    einv: tuple[int, ...]
    cell: tuple[int, ...]

    words = _EDGE_WORDS
    src = property(lambda self: self.edge_src)
    dst = property(lambda self: self.edge_dst)
    unit = property(lambda self: self.eqv)
    table = property(lambda self: self.star)
    inv = property(lambda self: self.einv)

    @property
    def edge_count(self) -> int:
        return len(self.edge_src)

    @cached_property
    def class_members(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for e in range(self.edge_count):
            out.setdefault(self.cell[e], []).append(e)
        return {k: tuple(v) for k, v in out.items()}


@dataclass(frozen=True)
class Typoid:
    name: str
    base: FiniteGroupoid
    layer: EquivalenceLayer
    idtoeqv: tuple[int, ...]

    @property
    def term_count(self) -> int:
        return self.base.term_count

    def same_structure(self, other: "Typoid") -> bool:
        """Structural equality ignoring the name."""
        return replace(self, name=other.name) == other


class CellPartition:
    """Union-find over the edges of one hom-set.

    Labels normalize to the least member of each class, so two partitions
    built from the same pairs in any order produce identical labels.
    """

    def __init__(self, members):
        self._parent = {m: m for m in members}

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller id wins so labels come out normalized
            if rb < ra:
                ra, rb = rb, ra
            self._parent[rb] = ra

    def labels(self) -> dict[int, int]:
        return {m: self.find(m) for m in self._parent}


def _ids_in_range(ids: Sequence[int] | set[int], count: int) -> bool:
    return not ids or (min(ids) >= 0 and max(ids) < count)


def _out_index(src: tuple[int, ...], term_count: int) -> list[list[int]]:
    """The ids leaving each term, in ascending order."""
    out: list[list[int]] = [[] for _ in range(term_count)]
    for i, x in enumerate(src):
        out[x].append(i)
    return out


def _triple_estimate(src: tuple[int, ...], dst: tuple[int, ...], out: list[list[int]]) -> int:
    """Composable triples (p, q, r): for each middle q, the ids entering its
    source times the ids leaving its target."""
    into = [0] * len(out)
    for y in dst:
        into[y] += 1
    return sum(into[src[q]] * len(out[dst[q]]) for q in range(len(src)))


def _table_rows(
    name: str,
    table: Mapping[tuple[int, int], int],
    src: tuple[int, ...],
    dst: tuple[int, ...],
    out: list[list[int]],
    violations: list[Violation],
) -> list[dict[int, int]]:
    """Split a composition table into rows: rows[p][q] = table[p, q] for each
    composable pair whose entry is in range with the right endpoints.
    Missing, stray and malformed entries are Bookkeeping violations."""
    n = len(src)
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for (p, q), r in table.items():
        if not (0 <= p < n and 0 <= q < n and dst[p] == src[q]):
            violations.append(Violation("Bookkeeping", (p, q), f"{name} entry {(p, q)} is not a composable pair"))
        elif not 0 <= r < n:
            violations.append(Violation("Bookkeeping", (p, q), f"{name}{(p, q)} = {r} is out of range"))
        elif src[r] != src[p] or dst[r] != dst[q]:
            violations.append(Violation("Bookkeeping", (p, q), f"{name}{(p, q)} = {r} has wrong endpoints"))
        else:
            rows[p][q] = r
    for p, row in enumerate(rows):
        if len(row) < len(out[dst[p]]):
            for q in out[dst[p]]:
                if q not in row and (p, q) not in table:
                    violations.append(
                        Violation("Bookkeeping", (p, q), f"{name} entry missing for composable pair {(p, q)}")
                    )
    return rows


def _associativity(
    rows: list[dict[int, int]], cell: Sequence[int], middles: Iterable[int]
) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """Associativity up to cells over the composable triples (p, q, r) of a
    row table whose middle q is one of `middles`.

    Counts the instances whose two bracketings are both defined and returns
    (p, q, r, lhs, rhs) for those that lie in different cells, in no fixed
    order.  Row q holds exactly the r composable after q, so each (p, q)
    compares its two bracketings over row q in one pass.
    """
    middles = set(middles)
    count = 0
    bad: list[tuple[int, int, int, int, int]] = []
    for p, row_p in enumerate(rows):
        p_get = row_p.get
        for q in row_p.keys() & middles:
            row_q = rows[q]
            lhs = list(map(rows[row_p[q]].get, row_q))
            rhs = list(map(p_get, row_q.values()))
            if lhs == rhs:
                count += len(lhs) - lhs.count(None)
                continue
            for r, a, b in zip(row_q, lhs, rhs):
                if a is None or b is None:
                    continue
                count += 1
                if cell[a] != cell[b]:
                    bad.append((p, q, r, a, b))
    return count, bad


def _generators(
    rows: list[dict[int, int]], unit: Sequence[int], src: Sequence[int], dst: Sequence[int]
) -> list[int]:
    """Generators of a level whose composable pairs all have entries, chosen
    greedily in id order: starting from the units, the ids reached are
    closed under right multiplication by the generators chosen so far, and
    each id still unreached becomes a new generator."""
    reached = [False] * len(rows)
    ending: list[list[int]] = [[] for _ in unit]  # reached ids by target
    leaving: list[list[int]] = [[] for _ in unit]  # generators by source
    todo: list[int] = []

    def reach(r: int) -> None:
        if not reached[r]:
            reached[r] = True
            ending[dst[r]].append(r)
            todo.append(r)

    def close() -> None:
        while todo:
            r = todo.pop()
            row = rows[r]
            for g in leaving[dst[r]]:
                reach(row[g])

    for x in unit:
        reach(x)
    close()
    generators: list[int] = []
    for g in range(len(rows)):
        if reached[g]:
            continue
        generators.append(g)
        leaving[src[g]].append(g)
        for r in list(ending[src[g]]):
            reach(rows[r][g])
        reach(g)
        close()
    return generators


def _unreadable(level: _Level, term_count: int) -> list[str]:
    """Why a level's id tables cannot be read, with its ends among
    `term_count` terms: lengths or id ranges."""
    w, src, dst, unit, inv, cell = level.words, level.src, level.dst, level.unit, level.inv, level.cell
    n = len(src)
    broken = [
        detail
        for detail, wrong in (
            (f"{w.item} endpoint tables differ in length", len(dst) != n),
            (f"{w.unit} table has {len(unit)} entries for {term_count} terms", len(unit) != term_count),
            (f"{w.inv} table has {len(inv)} entries for {n} {w.item}s", len(inv) != n),
            (f"cell table has {len(cell)} entries for {n} {w.item}s", len(cell) != n),
        )
        if wrong
    ]
    if not broken and not (
        _ids_in_range(src, term_count)
        and _ids_in_range(dst, term_count)
        and _ids_in_range(unit, n)
        and _ids_in_range(inv, n)
        and _ids_in_range(cell, n)
    ):
        broken.append(f"{w.item} or term id out of range")
    return broken


def _malformed(level: _Level, violations: list[Violation]) -> bool:
    """Bookkeeping on a level's tables: lengths and id ranges, then the
    endpoints of units and inverses.  True when the tables cannot be read."""
    w, src, dst = level.words, level.src, level.dst
    broken = _unreadable(level, level.term_count)
    violations.extend(Violation("Bookkeeping", (), detail) for detail in broken)
    if broken:
        return True
    for x, r in enumerate(level.unit):
        if (src[r], dst[r]) != (x, x):
            violations.append(
                Violation("Bookkeeping", (x, r), f"{w.unit} of term {x} is {w.item} {r} with other endpoints")
            )
    for p, q in enumerate(level.inv):
        if (src[q], dst[q]) != (dst[p], src[p]):
            violations.append(Violation("Bookkeeping", (p, q), f"{w.inv} of {w.item} {p} does not swap endpoints"))
    return False


def _level_laws(
    level: _Level, violations: list[Violation], counts: dict[str, int], budget: Budget
) -> tuple[list[dict[int, int]], int]:
    """The unit and inverse laws of a readable level, up to its cells, and
    the charge for its associativity.  Returns the composition table split
    into rows and the number of composable triples charged."""
    w, src, dst, unit, inv, cell = level.words, level.src, level.dst, level.unit, level.inv, level.cell
    out = _out_index(src, level.term_count)
    rows = _table_rows(w.comp, level.table, src, dst, out, violations)
    unit_law, inv_law, _ = w.laws
    left, right, forward, backward = w.units
    # one charge per law name, in order: paths spend units and inverses at
    # once as Groupoid, edges spend Typ1 and then Typ2
    charges = dict.fromkeys((unit_law, inv_law), 0)
    for p in range(len(src)):
        x, y = unit[src[p]], unit[dst[p]]
        for law, template, found, expected in (
            (unit_law, left, rows[x].get(p), p),
            (unit_law, right, rows[p].get(y), p),
            (inv_law, forward, rows[p].get(inv[p]), x),
            (inv_law, backward, rows[inv[p]].get(p), y),
        ):
            if found is not None:
                charges[law] += 1
                if cell[found] != cell[expected]:
                    violations.append(Violation(law, (p,), template.format(p, found)))
    for law, spent in charges.items():
        counts[law] = spent
        budget.spend(spent)
    triples = _triple_estimate(src, dst, out)
    budget.spend(triples)
    return rows, triples


def _associativity_law(
    level: _Level,
    rows: list[dict[int, int]],
    triples: int,
    clean: bool,
    violations: list[Violation],
    counts: dict[str, int],
) -> None:
    """The associativity law of a level, up to its cells.

    A clean level has an entry for every composable pair, its units and
    inverses hold, and composition respects its cells.  There the middles q
    with (p·q)·r in the cell of p·(q·r) for all p and r are closed under
    composition (Light's test), so it is enough that every generator is
    one; then all `triples` hold.  Otherwise every middle is checked, so
    the count and the witnesses are those of the exhaustive check.
    """
    w, src, cell = level.words, level.src, level.cell
    assoc, bad = triples, []
    if not clean or _associativity(rows, cell, _generators(rows, level.unit, src, level.dst))[1]:
        assoc, bad = _associativity(rows, cell, range(len(src)))
    law = w.laws[2]
    counts[law] = counts.get(law, 0) + assoc
    for p, q, r, lhs, rhs in bad:
        violations.append(Violation(law, (p, q, r), w.assoc.format(p, q, r, lhs, rhs)))


def _congruence(
    layer: EquivalenceLayer, rows: list[dict[int, int]], violations: list[Violation], budget: Budget
) -> int:
    """Typ4: star respects cells, over every composable pair of cells.
    Returns the instance count."""
    cell = layer.cell
    classes = list(layer.class_members.values())
    after: list[list[tuple[int, ...]]] = [[] for _ in range(layer.term_count)]
    for members in classes:
        after[layer.edge_src[members[0]]].append(members)
    # every pair of composable classes, weighted by both squared sizes
    squares = [sum(len(m) ** 2 for m in leaving) for leaving in after]
    budget.spend(sum(len(m1) ** 2 * squares[layer.edge_dst[m1[0]]] for m1 in classes))
    typ4 = 0
    for m1 in classes:
        for m2 in after[layer.edge_dst[m1[0]]]:
            if len(m1) == len(m2) == 1:
                # one composite, compared with itself
                typ4 += m2[0] in rows[m1[0]]
                continue
            stars = [(e1, e2, rows[e1].get(e2)) for e1 in m1 for e2 in m2]
            for e1, e2, lhs in stars:
                for d1, d2, rhs in stars:
                    if lhs is None or rhs is None:
                        continue
                    typ4 += 1
                    if cell[lhs] != cell[rhs]:
                        violations.append(
                            Violation(
                                "Typ4",
                                (e1, e2, d1, d2),
                                f"star({e1},{e2}) and star({d1},{d2}) are in different cells",
                            )
                        )
    return typ4


def validate_groupoid(g: FiniteGroupoid, budget: Budget | None = None) -> ValidationReport:
    """Check strict groupoid laws and table bookkeeping.

    Reports no law count when the tables are too malformed to read."""
    budget = budget or Budget()
    violations: list[Violation] = []
    counts: dict[str, int] = {}
    if g.term_count < 0:
        violations.append(Violation("Bookkeeping", (), "negative term count"))
    clean_from = len(violations)
    if not _malformed(g, violations):
        rows, triples = _level_laws(g, violations, counts, budget)
        _associativity_law(g, rows, triples, len(violations) == clean_from, violations, counts)
    return ValidationReport.collect(violations, counts)


def validate_typoid(t: Typoid, budget: Budget | None = None) -> ValidationReport:
    """Check the base groupoid, the cell partition, Typ1..Typ4 and the
    path-to-edge table."""
    budget = budget or Budget()
    base_report = validate_groupoid(t.base, budget)
    violations = list(base_report.violations)
    counts = dict(base_report.law_counts)
    layer = t.layer

    if layer.term_count != t.base.term_count:
        violations.append(
            Violation("Bookkeeping", (), "base and layer disagree on the term count")
        )
        return ValidationReport.collect(violations, counts)
    clean_from = len(violations)
    if _malformed(layer, violations):
        return ValidationReport.collect(violations, counts)

    # Partition well-formedness: labels stay inside the hom-set, are
    # idempotent, and point at the least member of the class.
    n = layer.edge_count
    layer_broken = False
    partition_checks = 0
    for e in range(n):
        r = layer.cell[e]
        partition_checks += 1
        if (layer.edge_src[r], layer.edge_dst[r]) != (layer.edge_src[e], layer.edge_dst[e]):
            violations.append(
                Violation("Partition", (e, r), f"cell label {r} of edge {e} lies in another hom-set")
            )
            layer_broken = True
        elif layer.cell[r] != r:
            violations.append(Violation("Partition", (e, r), f"cell label {r} is not itself a representative"))
            layer_broken = True
    for r, members in layer.class_members.items():
        partition_checks += 1
        if min(members) != r:
            violations.append(
                Violation("Partition", (r,), f"class of {r} contains the smaller edge {min(members)}")
            )
            layer_broken = True
    counts["Partition"] = partition_checks
    budget.spend(partition_checks)
    if layer_broken:
        # the cell relation itself is meaningless now; the up-to-cells laws
        # would only produce noise on top of the Partition reports
        return ValidationReport.collect(violations, counts)

    rows, triples = _level_laws(layer, violations, counts, budget)
    # Typ4 comes before Typ3, whose generator check needs congruence
    typ4 = _congruence(layer, rows, violations, budget)
    _associativity_law(layer, rows, triples, len(violations) == clean_from, violations, counts)
    counts["Typ4"] = typ4
    cell = layer.cell

    if "Groupoid" not in base_report.law_counts:
        # the base tables are unreadable, so the path-to-edge table is too
        return ValidationReport.collect(violations, counts)
    ide = 0
    if len(t.idtoeqv) != t.base.path_count:
        violations.append(
            Violation(
                "Bookkeeping",
                (),
                f"path-to-edge table has {len(t.idtoeqv)} entries for {t.base.path_count} paths",
            )
        )
    else:
        usable = True
        for p in range(t.base.path_count):
            e = t.idtoeqv[p]
            if not 0 <= e < n:
                violations.append(Violation("Bookkeeping", (p,), f"path {p} maps to out-of-range edge {e}"))
                usable = False
            elif (layer.edge_src[e], layer.edge_dst[e]) != (t.base.path_src[p], t.base.path_dst[p]):
                violations.append(
                    Violation("Bookkeeping", (p, e), f"path {p} maps to edge {e} with other endpoints")
                )
                usable = False
        if usable:
            for x in range(t.base.term_count):
                ide += 1
                if t.idtoeqv[t.base.refl[x]] != layer.eqv[x]:
                    violations.append(
                        Violation(
                            "IdtoEqv",
                            (x,),
                            f"refl of term {x} must map to the designated eqv edge, got {t.idtoeqv[t.base.refl[x]]}",
                        )
                    )
            in_range = range(t.base.path_count)
            for (p, q), pq in t.base.comp.items():
                if p not in in_range or q not in in_range or pq not in in_range:
                    continue  # already a base bookkeeping violation
                composite = rows[t.idtoeqv[p]].get(t.idtoeqv[q])
                if composite is None:
                    continue
                ide += 1
                if cell[t.idtoeqv[pq]] != cell[composite]:
                    violations.append(
                        Violation(
                            "IdtoEqv",
                            (p, q),
                            f"image of comp({p},{q}) is not in the cell of star of the images",
                        )
                    )
    counts["IdtoEqv"] = ide
    budget.spend(ide)

    return ValidationReport.collect(violations, counts)


def _constant_on_cells(
    layer: EquivalenceLayer, key: Sequence, law: str, detail: str
) -> tuple[int, list[Violation]]:
    """Check that `key`, one value per edge, is constant on each cell.

    Every ordered pair of cell-mates is an instance; a pair (e, d) whose
    keys differ is a `law` violation worded `detail.format(e, d)`.  Returns
    the instance count and the violations."""
    count = 0
    bad: list[Violation] = []
    for members in layer.class_members.values():
        count += len(members) * len(members)
        keys = [key[e] for e in members]
        if keys.count(keys[0]) == len(keys):
            continue
        for e, k in zip(members, keys):
            bad += (Violation(law, (e, d), detail.format(e, d)) for d, j in zip(members, keys) if j != k)
    return count, bad
