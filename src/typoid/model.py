"""Finite models of types with a two-level equivalence structure.

The base level is a strict groupoid of identity paths between terms.  The
second level is a layer of equivalence edges whose hom-sets are partitioned
into cells; the four weak-groupoid laws (Typ1..Typ4) only have to hold up to
the cell partition.  A path-to-edge table ties the two levels together.

Validators check every law instance exhaustively and report each failure
with a concrete witness instead of aborting on the first problem.  The
composition tables are split into one row per path or edge, indexed by the
terms' outgoing ids, so associativity runs over the composable triples only
instead of over every triple of ids.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

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
            limit = int(raw) if raw.isdigit() else DEFAULT_MAX_CHECKS
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
    valid: bool
    violations: tuple[Violation, ...]
    checks: int = 0
    law_counts: Mapping[str, int] = field(default_factory=dict)

    @staticmethod
    def collect(violations: list[Violation], counts: dict[str, int]) -> "ValidationReport":
        ordered = tuple(sorted(violations))
        return ValidationReport(
            valid=not ordered,
            violations=ordered,
            checks=sum(counts.values()),
            law_counts=dict(counts),
        )


@dataclass(frozen=True)
class FiniteGroupoid:
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

    @property
    def path_count(self) -> int:
        return len(self.path_src)

    @cached_property
    def _hom(self) -> dict[tuple[int, int], tuple[int, ...]]:
        out: dict[tuple[int, int], list[int]] = {}
        for p in range(self.path_count):
            out.setdefault((self.path_src[p], self.path_dst[p]), []).append(p)
        return {k: tuple(v) for k, v in out.items()}

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self._hom.get((x, y), ())


@dataclass(frozen=True)
class EquivalenceLayer:
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

    @property
    def edge_count(self) -> int:
        return len(self.edge_src)

    @cached_property
    def _hom(self) -> dict[tuple[int, int], tuple[int, ...]]:
        out: dict[tuple[int, int], list[int]] = {}
        for e in range(self.edge_count):
            out.setdefault((self.edge_src[e], self.edge_dst[e]), []).append(e)
        return {k: tuple(v) for k, v in out.items()}

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self._hom.get((x, y), ())

    @cached_property
    def class_members(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for e in range(self.edge_count):
            out.setdefault(self.cell[e], []).append(e)
        return {k: tuple(v) for k, v in out.items()}

    def hom_classes(self, x: int, y: int) -> tuple[int, ...]:
        seen: list[int] = []
        for e in self.hom(x, y):
            r = self.cell[e]
            if r not in seen:
                seen.append(r)
        return tuple(seen)


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
        return (
            self.base == other.base
            and self.layer == other.layer
            and self.idtoeqv == other.idtoeqv
        )


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


def _ids_in_range(ids, count) -> bool:
    return all(0 <= i < count for i in ids)


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
    composable pair whose entry is in range with the right endpoints, in
    ascending q.  Missing, stray and malformed entries are Bookkeeping
    violations."""
    n = len(src)
    rows: list[dict[int, int]] = []
    for p in range(n):
        row: dict[int, int] = {}
        for q in out[dst[p]]:
            pair = (p, q)
            r = table.get(pair)
            if r is None:
                violations.append(
                    Violation("Bookkeeping", pair, f"{name} entry missing for composable pair {pair}")
                )
            elif not 0 <= r < n:
                violations.append(Violation("Bookkeeping", pair, f"{name}{pair} = {r} is out of range"))
            elif (src[r], dst[r]) != (src[p], dst[q]):
                violations.append(Violation("Bookkeeping", pair, f"{name}{pair} = {r} has wrong endpoints"))
            else:
                row[q] = r
        rows.append(row)
    for pair in table:
        p, q = pair
        if not (0 <= p < n and 0 <= q < n and dst[p] == src[q]):
            violations.append(Violation("Bookkeeping", pair, f"{name} entry {pair} is not a composable pair"))
    return rows


def _associativity(
    rows: list[dict[int, int]], cell: tuple[int, ...] | None = None
) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """Associativity over the composable triples (p, q, r) of a row table.

    Counts the instances whose two bracketings are both defined and returns
    (p, q, r, lhs, rhs) for those that differ, or with `cell` given, that lie
    in different cells.  Row q holds exactly the r composable after q, so
    each (p, q) compares its two bracketings over row q in one pass.
    """
    count = 0
    bad: list[tuple[int, int, int, int, int]] = []
    for p, row_p in enumerate(rows):
        p_get = row_p.get
        for q, pq in row_p.items():
            row_q = rows[q]
            lhs = list(map(rows[pq].get, row_q))
            rhs = list(map(p_get, row_q.values()))
            if lhs == rhs:
                count += len(lhs) - lhs.count(None)
                continue
            for r, a, b in zip(row_q, lhs, rhs):
                if a is None or b is None:
                    continue
                count += 1
                if a != b and (cell is None or cell[a] != cell[b]):
                    bad.append((p, q, r, a, b))
    return count, bad


def validate_groupoid(g: FiniteGroupoid, budget: Budget | None = None) -> ValidationReport:
    """Check strict groupoid laws and table bookkeeping exhaustively."""
    budget = budget or Budget()
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    def bookkeeping(witness: tuple[int, ...], detail: str) -> None:
        violations.append(Violation("Bookkeeping", witness, detail))

    n = g.path_count
    structural = True
    if g.term_count < 0:
        bookkeeping((), "negative term count")
        structural = False
    if len(g.path_dst) != n:
        bookkeeping((), "path endpoint tables differ in length")
        structural = False
    if len(g.refl) != g.term_count:
        bookkeeping((), f"refl table has {len(g.refl)} entries for {g.term_count} terms")
        structural = False
    if len(g.inv) != n:
        bookkeeping((), f"inv table has {len(g.inv)} entries for {n} paths")
        structural = False
    if structural and not (
        _ids_in_range(g.path_src, g.term_count)
        and _ids_in_range(g.path_dst, g.term_count)
        and _ids_in_range(g.refl, n)
        and _ids_in_range(g.inv, n)
    ):
        bookkeeping((), "path or term id out of range")
        structural = False
    if not structural:
        return ValidationReport.collect(violations, counts)

    for x in range(g.term_count):
        r = g.refl[x]
        if (g.path_src[r], g.path_dst[r]) != (x, x):
            bookkeeping((x, r), f"refl of term {x} is path {r} with other endpoints")
    for p in range(n):
        q = g.inv[p]
        if (g.path_src[q], g.path_dst[q]) != (g.path_dst[p], g.path_src[p]):
            bookkeeping((p, q), f"inv of path {p} does not swap endpoints")

    out = _out_index(g.path_src, g.term_count)
    rows = _table_rows("comp", g.comp, g.path_src, g.path_dst, out, violations)

    law = 0
    for p in range(n):
        left = rows[g.refl[g.path_src[p]]].get(p)
        if left is not None:
            law += 1
            if left != p:
                violations.append(
                    Violation("Groupoid", (p,), f"comp(refl, {p}) = {left}, expected {p}")
                )
        right = rows[p].get(g.refl[g.path_dst[p]])
        if right is not None:
            law += 1
            if right != p:
                violations.append(
                    Violation("Groupoid", (p,), f"comp({p}, refl) = {right}, expected {p}")
                )
        forward = rows[p].get(g.inv[p])
        if forward is not None:
            law += 1
            if forward != g.refl[g.path_src[p]]:
                violations.append(
                    Violation("Groupoid", (p,), f"comp({p}, inv {p}) = {forward} is not refl")
                )
        backward = rows[g.inv[p]].get(p)
        if backward is not None:
            law += 1
            if backward != g.refl[g.path_dst[p]]:
                violations.append(
                    Violation("Groupoid", (p,), f"comp(inv {p}, {p}) = {backward} is not refl")
                )
    budget.spend(law)

    budget.spend(_triple_estimate(g.path_src, g.path_dst, out))
    assoc, bad = _associativity(rows)
    law += assoc
    for p, q, r, lhs, rhs in bad:
        violations.append(
            Violation(
                "Groupoid",
                (p, q, r),
                f"comp(comp({p},{q}),{r}) = {lhs} but comp({p},comp({q},{r})) = {rhs}",
            )
        )
    counts["Groupoid"] = law
    return ValidationReport.collect(violations, counts)


def _layer_structural(layer: EquivalenceLayer, violations: list[Violation]) -> bool:
    n = layer.edge_count
    ok = True
    if len(layer.edge_dst) != n:
        violations.append(Violation("Bookkeeping", (), "edge endpoint tables differ in length"))
        ok = False
    if len(layer.eqv) != layer.term_count:
        violations.append(
            Violation("Bookkeeping", (), f"eqv table has {len(layer.eqv)} entries for {layer.term_count} terms")
        )
        ok = False
    if len(layer.einv) != n:
        violations.append(Violation("Bookkeeping", (), f"einv table has {len(layer.einv)} entries for {n} edges"))
        ok = False
    if len(layer.cell) != n:
        violations.append(Violation("Bookkeeping", (), f"cell table has {len(layer.cell)} entries for {n} edges"))
        ok = False
    if ok and not (
        _ids_in_range(layer.edge_src, layer.term_count)
        and _ids_in_range(layer.edge_dst, layer.term_count)
        and _ids_in_range(layer.eqv, n)
        and _ids_in_range(layer.einv, n)
        and _ids_in_range(layer.cell, n)
    ):
        violations.append(Violation("Bookkeeping", (), "edge or term id out of range"))
        ok = False
    return ok


def validate_typoid(t: Typoid, budget: Budget | None = None) -> ValidationReport:
    """Check the base groupoid, the cell partition, Typ1..Typ4 and the
    path-to-edge table over every applicable tuple."""
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
    if not _layer_structural(layer, violations):
        return ValidationReport.collect(violations, counts)

    n = layer.edge_count
    for x in range(layer.term_count):
        e = layer.eqv[x]
        if (layer.edge_src[e], layer.edge_dst[e]) != (x, x):
            violations.append(
                Violation("Bookkeeping", (x, e), f"eqv of term {x} is edge {e} with other endpoints")
            )
    for e in range(n):
        d = layer.einv[e]
        if (layer.edge_src[d], layer.edge_dst[d]) != (layer.edge_dst[e], layer.edge_src[e]):
            violations.append(Violation("Bookkeeping", (e, d), f"einv of edge {e} does not swap endpoints"))

    # Partition well-formedness: labels stay inside the hom-set, are
    # idempotent, and point at the least member of the class.
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

    out = _out_index(layer.edge_src, layer.term_count)
    rows = _table_rows("star", layer.star, layer.edge_src, layer.edge_dst, out, violations)
    cell = layer.cell

    typ1 = 0
    for e in range(n):
        x, y = layer.edge_src[e], layer.edge_dst[e]
        left = rows[layer.eqv[x]].get(e)
        if left is not None:
            typ1 += 1
            if cell[left] != cell[e]:
                violations.append(
                    Violation("Typ1", (e,), f"star(eqv, {e}) = {left} is not in the cell of {e}")
                )
        right = rows[e].get(layer.eqv[y])
        if right is not None:
            typ1 += 1
            if cell[right] != cell[e]:
                violations.append(
                    Violation("Typ1", (e,), f"star({e}, eqv) = {right} is not in the cell of {e}")
                )
    counts["Typ1"] = typ1
    budget.spend(typ1)

    typ2 = 0
    for e in range(n):
        x, y = layer.edge_src[e], layer.edge_dst[e]
        forward = rows[e].get(layer.einv[e])
        if forward is not None:
            typ2 += 1
            if cell[forward] != cell[layer.eqv[x]]:
                violations.append(
                    Violation("Typ2", (e,), f"star({e}, einv {e}) = {forward} is not in the cell of eqv")
                )
        backward = rows[layer.einv[e]].get(e)
        if backward is not None:
            typ2 += 1
            if cell[backward] != cell[layer.eqv[y]]:
                violations.append(
                    Violation("Typ2", (e,), f"star(einv {e}, {e}) = {backward} is not in the cell of eqv")
                )
    counts["Typ2"] = typ2
    budget.spend(typ2)

    budget.spend(_triple_estimate(layer.edge_src, layer.edge_dst, out))
    typ3, bad = _associativity(rows, cell)
    for e1, e2, e3, _, _ in bad:
        violations.append(
            Violation(
                "Typ3",
                (e1, e2, e3),
                f"star(star({e1},{e2}),{e3}) and star({e1},star({e2},{e3})) are in different cells",
            )
        )
    counts["Typ3"] = typ3

    typ4_estimate = 0
    hom_class_sq: dict[tuple[int, int], int] = {}
    for (x, y), es in layer._hom.items():
        total = 0
        for members in _classes_of(layer, es):
            total += len(members) * len(members)
        hom_class_sq[(x, y)] = total
    for (x, y), sq1 in hom_class_sq.items():
        for (y2, z), sq2 in hom_class_sq.items():
            if y2 == y:
                typ4_estimate += sq1 * sq2
    budget.spend(typ4_estimate)
    typ4 = 0
    for (x, y), es in layer._hom.items():
        classes1 = _classes_of(layer, es)
        for z in range(layer.term_count):
            ds = layer.hom(y, z)
            if not ds:
                continue
            classes2 = _classes_of(layer, ds)
            for m1 in classes1:
                for m2 in classes2:
                    for e1 in m1:
                        for d1 in m1:
                            for e2 in m2:
                                for d2 in m2:
                                    lhs = rows[e1].get(e2)
                                    rhs = rows[d1].get(d2)
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
    counts["Typ4"] = typ4

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
            for (p, q), pq in sorted(t.base.comp.items()):
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


def _classes_of(layer: EquivalenceLayer, edges) -> list[tuple[int, ...]]:
    by_rep: dict[int, list[int]] = {}
    for e in edges:
        by_rep.setdefault(layer.cell[e], []).append(e)
    return [tuple(v) for v in by_rep.values()]


def derived_laws(t: Typoid, budget: Budget | None = None) -> ValidationReport:
    """Consequence laws of einv: unit inverses stay in the unit cell, double
    inversion lands back in the original cell, and inversion respects cells.

    These follow from Typ1..Typ4, so they hold for every structure accepted
    by validate_typoid; a violation means validation was skipped.
    """
    budget = budget or Budget()
    layer = t.layer
    cell = layer.cell
    violations: list[Violation] = []
    counts: dict[str, int] = {}

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

    cong = 0
    for members in layer.class_members.values():
        for e in members:
            for d in members:
                cong += 1
                if cell[layer.einv[e]] != cell[layer.einv[d]]:
                    violations.append(
                        Violation(
                            "DerivedInvCong",
                            (e, d),
                            f"{e} and {d} share a cell but their einv images do not",
                        )
                    )
    counts["DerivedInvCong"] = cong
    budget.spend(unit + double + cong)

    return ValidationReport.collect(violations, counts)
