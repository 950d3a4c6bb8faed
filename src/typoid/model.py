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
stored by rows, one per path or edge over the ids leaving its end, so
associativity runs over composable triples only.  On a level whose tables,
units, inverses and congruence hold, associativity is checked on
generators (Light's test: the middles it holds around are closed under
composition); when a generator fails, the exhaustive loop runs, so every
witness is listed.
"""

from __future__ import annotations

import itertools
import os
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

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


class _Table(Mapping):
    """A level's composition table, keyed by pairs (p, q) and read-only.

    Row p holds p·q for each id q leaving p's end (`out`), in id order, at
    `start[p] + pos[q]` in `flat`, one array of C ints for every row, with
    -1 for a missing entry.  An entry that fits no slot, because its key is
    not a composable pair of ids or its value is not an id, is kept in
    `side` for bookkeeping to report; on endpoints that cannot be read,
    every entry is.  Iteration is in row order, then over the rest of
    `side`."""

    __slots__ = ("src", "dst", "term_count", "out", "pos", "start", "flat", "side")

    def __init__(self, src, dst, term_count, flat=None):
        """The table of ids with these endpoints: rows `flat`, or all empty."""
        self.src, self.dst, self.term_count, self.side = src, dst, term_count, {}
        out, pos = [], array("i")
        try:
            if len(src) == len(dst) and _ids_in_range(src, term_count) and _ids_in_range(dst, term_count):
                out = [[] for _ in range(term_count)]
                for q, x in enumerate(src):
                    pos.append(len(out[x]))
                    out[x].append(q)
        except TypeError:
            out, pos = [], array("i")
        self.out, self.pos = out, pos
        lengths = map(len, map(out.__getitem__, dst if pos else ()))
        self.start = array("q", itertools.accumulate(lengths, initial=0))
        self.flat = array("i", [-1]) * self.start[-1] if flat is None else flat

    def slot(self, key) -> int:
        """The index in `flat` of key's slot, or -1 if it has none."""
        try:
            p, q = key
            if p >= 0 and q >= 0 and self.dst[p] == self.src[q]:
                return self.start[p] + self.pos[q]  # IndexError unless both are ids
        except (TypeError, ValueError, IndexError):
            pass
        return -1

    def row(self, p: int) -> array:
        return self.flat[self.start[p]:self.start[p + 1]]

    def _slots(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Each slot's key and entry, in row order."""
        for p in range(len(self.pos)):
            yield from zip(zip(itertools.repeat(p), self.out[self.dst[p]]), self.row(p))

    def missing(self) -> Iterator[tuple[int, int]]:
        """The composable pairs that have no entry, in row order."""
        return (pq for pq, r in self._slots() if r < 0 and pq not in self.side)

    def __getitem__(self, key):
        i = self.slot(key)
        return self.flat[i] if i >= 0 and self.flat[i] >= 0 else self.side[key]

    def __iter__(self) -> Iterator:
        yield from (pq for pq, r in self._slots() if r >= 0 or pq in self.side)
        yield from (key for key in self.side if self.slot(key) < 0)

    def __len__(self) -> int:
        return len(self.flat) - self.flat.count(-1) + len(self.side)

    def __eq__(self, other):
        # two tables over the same ids lay their entries out alike
        ends = (self.src, self.dst, self.term_count)
        if isinstance(other, _Table) and ends == (other.src, other.dst, other.term_count):
            return self.flat == other.flat and self.side == other.side
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self))


class _Level:
    """One level as the law checker reads it: ids with endpoints `src` and
    `dst`, a `unit` per term, a composition `table`, an inverse `inv` and a
    `cell` map, called by `words`.  Each level class maps its own fields
    onto these names; paths are the level whose cells are singletons.  The
    composition field is always a `_Table`: any Mapping given is converted,
    by the constructor or by `dataclasses.replace`."""

    def __post_init__(self):
        given, ends = self.table, (self.src, self.dst, self.term_count)
        if isinstance(given, _Table) and (given.src, given.dst, given.term_count) == ends:
            return
        table = _Table(*ends)
        for key, r in given.items():
            i = table.slot(key)
            if i >= 0 and isinstance(r, int) and 0 <= r < len(table.pos):
                table.flat[i] = r
            else:
                table.side[key] = r
        object.__setattr__(self, self.words.comp, table)  # words.comp names the field: comp or star

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
    pairs and stored by rows (`_Table`), and `inv` is total.  All laws are
    meant to hold on the nose.
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


def _rows(level: _Level, violations: list[Violation]) -> list[list[int]]:
    """The rows of a readable level's composition table as lists, with -1
    for an entry that is missing or has wrong endpoints, each closed by one
    more -1 (see `_associativity`).  Missing, stray and malformed entries
    are Bookkeeping violations; a row is walked entry by entry only when a
    whole-row test of its values' endpoints fails."""
    name, src, dst, table = level.words.comp, level.src, level.dst, level.table
    for pq, r in table.side.items():
        stray = table.slot(pq) < 0
        detail = f"{name} entry {pq} is not a composable pair" if stray else f"{name}{pq} = {r} is out of range"
        violations.append(Violation("Bookkeeping", pq, detail))
    if -1 in table.flat:
        detail = f"{name} entry missing for composable pair {{}}"
        violations += (Violation("Bookkeeping", pq, detail.format(pq)) for pq in table.missing())
    ends = [list(map(dst.__getitem__, ids)) for ids in table.out]  # the ends of the ids leaving each term
    flat, start = table.flat.tolist(), table.start
    rows = []
    for p, y in enumerate(dst):
        row = flat[start[p]:start[p + 1]]
        starts = [*map(src.__getitem__, row)]
        if -1 in row or [*map(dst.__getitem__, row)] != ends[y] or starts.count(src[p]) < len(row):
            for i, (q, r) in enumerate(zip(table.out[y], row)):
                if r >= 0 and (src[r] != src[p] or dst[r] != dst[q]):
                    violations.append(Violation("Bookkeeping", (p, q), f"{name}{(p, q)} = {r} has wrong endpoints"))
                    row[i] = -1
        rows.append(row + [-1])
    return rows


def _associativity(
    level: _Level, rows: list[list[int]], pos: list[int], into: list[list[int]], middles: Iterable[int]
) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """Associativity up to cells over the composable triples (p, q, r) of a
    level's rows whose middle q is one of `middles`; `into` lists the ids
    entering each term and `pos` places each id in its source's row order.

    Counts the instances whose two bracketings are both defined and returns
    (p, q, r, lhs, rhs) for those that lie in different cells, in no fixed
    order.  Row p·q and p composed down row q line up with row q, so each
    (p, q) compares both bracketings of a whole row at once; `pos` maps -1,
    a missing entry, to the -1 that closes every row."""
    src, dst, cell, out = level.src, level.dst, level.cell, level.table.out
    count = 0
    bad: list[tuple[int, int, int, int, int]] = []
    for q in middles:
        places, i = list(map(pos.__getitem__, rows[q])), pos[q]
        for p in into[src[q]]:
            row_p = rows[p]
            pq = row_p[i]
            if pq < 0:
                continue
            lhs, rhs = rows[pq], list(map(row_p.__getitem__, places))
            if lhs == rhs:
                count += len(lhs) - lhs.count(-1)
                continue
            for r, a, b in zip(out[dst[q]], lhs, rhs):
                if a < 0 or b < 0:
                    continue
                count += 1
                if cell[a] != cell[b]:
                    bad.append((p, q, r, a, b))
    return count, bad


def _generators(level: _Level, rows: list[list[int]], pos: list[int]) -> list[int]:
    """Generators of a level whose composable pairs all have entries, chosen
    greedily in id order: starting from the units, the ids reached are
    closed under right multiplication by the generators chosen so far, and
    each id still unreached becomes a new generator."""
    unit, src, dst = level.unit, level.src, level.dst
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
                reach(row[pos[g]])

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
            reach(rows[r][pos[g]])
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
    level: _Level, violations: list[Violation], counts: dict[str, int], budget: Budget, clean_from: int
) -> tuple[list[list[int]], list[int]]:
    """Every law of a readable level, up to its cells: units, inverses, on
    a layer congruence (Typ4), then associativity.  Returns the level's
    rows (`_rows`) and each id's place in its row order followed by -1
    (see `_associativity`).

    The level is clean when no violation came after `clean_from`: every
    composable pair has an entry, the units and inverses hold, and
    composition respects the cells.  There the middles q with (p·q)·r in
    the cell of p·(q·r) for all p and r are closed under composition
    (Light's test), so it is enough that every generator is one.
    Otherwise every middle is checked, so the count and the witnesses are
    those of the exhaustive check."""
    w, src, dst, unit, inv, cell = level.words, level.src, level.dst, level.unit, level.inv, level.cell
    rows, out, into = _rows(level, violations), level.table.out, _out_index(dst, level.term_count)
    pos = [*level.table.pos, -1]
    unit_law, inv_law, assoc_law = w.laws
    left, right, forward, backward = w.units
    # one charge per law name, in order: paths spend units and inverses at
    # once as Groupoid, edges spend Typ1 and then Typ2; -1 where a pair
    # does not compose
    charges = dict.fromkeys((unit_law, inv_law), 0)
    for p in range(len(src)):
        x, y, i = unit[src[p]], unit[dst[p]], inv[p]
        for law, template, found, expected in (
            (unit_law, left, rows[x][pos[p]] if dst[x] == src[p] else -1, p),
            (unit_law, right, rows[p][pos[y]] if dst[p] == src[y] else -1, p),
            (inv_law, forward, rows[p][pos[i]] if dst[p] == src[i] else -1, x),
            (inv_law, backward, rows[i][pos[p]] if dst[i] == src[p] else -1, y),
        ):
            if found >= 0:
                charges[law] += 1
                if cell[found] != cell[expected]:
                    violations.append(Violation(law, (p,), template.format(p, found)))
    for law, spent in charges.items():
        counts[law] = spent
        budget.spend(spent)
    # composable triples: for each middle q, the ids entering its source times those leaving its end
    assoc = sum(len(into[src[q]]) * len(out[dst[q]]) for q in range(len(src)))
    budget.spend(assoc)
    typ4 = _congruence(level, rows, pos, violations, budget) if isinstance(level, EquivalenceLayer) else None
    bad = []
    if len(violations) > clean_from or _associativity(level, rows, pos, into, _generators(level, rows, pos))[1]:
        assoc, bad = _associativity(level, rows, pos, into, range(len(rows)))
    counts[assoc_law] = counts.get(assoc_law, 0) + assoc
    for p, q, r, lhs, rhs in bad:
        violations.append(Violation(assoc_law, (p, q, r), w.assoc.format(p, q, r, lhs, rhs)))
    if typ4 is not None:
        counts["Typ4"] = typ4  # after Typ3, in law order
    return rows, pos


def _congruence(
    layer: EquivalenceLayer, rows: list[list[int]], pos: list[int], violations: list[Violation], budget: Budget
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
                typ4 += rows[m1[0]][pos[m2[0]]] >= 0
                continue
            stars = [(e1, e2, rows[e1][pos[e2]]) for e1 in m1 for e2 in m2]
            for e1, e2, lhs in stars:
                for d1, d2, rhs in stars:
                    if lhs < 0 or rhs < 0:
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
        _level_laws(g, violations, counts, budget, clean_from)
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

    rows, pos = _level_laws(layer, violations, counts, budget, clean_from)
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
            # every base entry that fits a slot, with wrong endpoints or not
            comp, idtoeqv = t.base.comp, t.idtoeqv
            for p, y in enumerate(t.base.path_dst):
                row = rows[idtoeqv[p]]
                for q, pq in zip(comp.out[y], comp.row(p)):
                    composite = row[pos[idtoeqv[q]]] if pq >= 0 else -1
                    if composite < 0:
                        continue
                    ide += 1
                    if cell[idtoeqv[pq]] != cell[composite]:
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
