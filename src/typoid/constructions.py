"""Ways of building typoids: equality structures over a groupoid, binary
products, exponentials of morphisms, truncations, finite universes of sets
with bijections as edges, and the completion that regrows a base groupoid
out of the cell classes.

Every public construction returns structures in one normal form, which
`_presented` writes at once: canonical ids (refl paths and designated eqv
edges are ids 0..term_count-1 in term order, each cell is labelled by its
least id), with composition rows inserted in id order.  The serializer
relies on the ids.  `equality_typoid` and `truncate` keep a canonical base
as given, so they keep the form when their input's base has it.
`_presented` asks for composition a row at a time, so each construction
composes whole rows with `zip` and `map`, not one Python call per pair.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .model import (
    Budget,
    EquivalenceLayer,
    FiniteGroupoid,
    ResourceLimitError,
    Typoid,
    _Level,
    _out_index,
    _Table,
    validate_groupoid,
    validate_typoid,
)
from .morphisms import TypoidMorphism, _backtrack, _functors, find_path_functor, iter_path_functors


# ---------------------------------------------------------------------------
# canonical id layout

def _least(labels) -> tuple[int, ...]:
    """Each id's class label, in id order, replaced by the least id of its
    class: the first id that carries the label."""
    least: dict = {}
    return tuple(least.setdefault(c, i) for i, c in enumerate(labels))


def _units_then(units, keys) -> tuple:
    """The units in order, then the other keys in order."""
    first = dict.fromkeys(units)
    return (*first, *(k for k in keys if k not in first))


def _canonical(term_count: int, *units) -> bool:
    """Every unit table is 0..term_count-1: the units come first."""
    return all(tuple(u) == tuple(range(term_count)) for u in units)


def _presented(keys, ends, compose, inverse, unit, term_count: int, cell=None) -> _Level:
    """The level whose ids number the sequence `keys` in order: a layer,
    or without `cell` a groupoid.  `ends(k)` gives the terms key k joins;
    `inverse(k)` and `unit(x)` give keys, and `cell(k)` names k's class by
    any hashable value.  Composition is asked for a row at a time:
    `compose(k, out)` gives, in order, the composites of k with each key of
    `out`, the keys leaving k's end in id order (one shared sequence per
    term).  Rows are filled in id order, and each cell is labelled by its
    least id.  Keys that start with the units, in term order, give a level
    in canonical layout."""
    try:
        index = {k: i for i, k in enumerate(keys)}
        src, dst = tuple(zip(*map(ends, keys))) or ((), ())
        table = _Table(src, dst, term_count, array("i"))
        # validating the level spends at least one instance per composable
        # pair, so a level the budget cannot pay for is refused unbuilt
        Budget().spend(table.start[-1])
        out = [tuple(map(keys.__getitem__, ids)) for ids in table.out]
        for k, y in zip(keys, dst):
            table.flat.extend(map(index.__getitem__, compose(k, out[y])))
        if len(table.flat) != table.start[-1]:
            raise AssertionError("presented row of the wrong length; construction bug")
        units = tuple(index[unit(x)] for x in range(term_count))
        tables = (term_count, src, dst, units, table, tuple(index[inverse(k)] for k in keys))
        if cell is None:
            return FiniteGroupoid(*tables)
        return EquivalenceLayer(*tables, _least(map(cell, keys)))
    except KeyError:
        raise AssertionError("presented level is not closed; construction bug") from None


def _units_first(level: _Level) -> tuple[_Level, dict[int, int]]:
    """Permute a level's ids so the units come first, in term order, as
    `_presented` lays them out.  Returns the level and the old-to-new id
    map."""
    order, table = _units_then(level.unit, range(len(level.src))), level.table
    new = _presented(
        order,
        ends=lambda i: (level.src[i], level.dst[i]),
        compose=lambda i, out: map(table.row(i).__getitem__, map(table.pos.__getitem__, out)),
        inverse=level.inv.__getitem__,
        unit=level.unit.__getitem__,
        term_count=level.term_count,
        cell=None if isinstance(level, FiniteGroupoid) else level.cell.__getitem__,
    )
    return new, {old: i for i, old in enumerate(order)}


def _renumber(t: Typoid) -> tuple[Typoid, dict[int, int], dict[int, int]]:
    """Permute path and edge ids so refl and eqv come first, in term order.

    Returns the renumbered typoid and the old-to-new id maps for paths and
    edges.
    """
    base, pmap = _units_first(t.base)
    layer, emap = _units_first(t.layer)
    idtoeqv = [0] * len(pmap)
    for old, new in pmap.items():
        idtoeqv[new] = emap[t.idtoeqv[old]]
    out = Typoid(name=t.name, base=base, layer=layer, idtoeqv=tuple(idtoeqv))
    return out, pmap, emap


def _require_valid_typoid(t: Typoid) -> None:
    report = validate_typoid(t)
    if not report.valid:
        first = report.violations[0]
        raise ValueError(f"typoid {t.name!r} is invalid: {first.law} {first.detail}")


# ---------------------------------------------------------------------------
# base groupoid generators

def discrete_groupoid(n: int) -> FiniteGroupoid:
    """n terms, refl paths only."""
    return _presented(
        range(n),
        ends=lambda x: (x, x),
        compose=lambda _, out: out,  # x is the one path leaving x, and x·x = x
        inverse=lambda x: x,
        unit=lambda x: x,
        term_count=n,
    )


def codiscrete_groupoid(n: int) -> FiniteGroupoid:
    """n terms with exactly one path in every hom-set, the refl paths first."""
    Budget().spend(n**3)  # its composable pairs, as `_presented` charges them, before it lists its paths
    pairs = [(x, x) for x in range(n)] + [(x, y) for x in range(n) for y in range(n) if x != y]
    return _presented(
        pairs,
        ends=lambda xy: xy,
        compose=lambda xy, out: [(xy[0], z) for _, z in out],
        inverse=lambda xy: xy[::-1],
        unit=lambda x: (x, x),
        term_count=n,
    )


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """One term whose paths form the cyclic group of order n."""
    if n < 1:
        raise ValueError("cyclic order must be at least 1")
    return _presented(
        range(n),
        ends=lambda _: (0, 0),
        compose=lambda i, out: [(i + j) % n for j in out],
        inverse=lambda i: -i % n,
        unit=lambda _: 0,
        term_count=1,
    )


def is_prop(g: FiniteGroupoid) -> bool:
    """Every hom-set is inhabited."""
    return all(g.hom(x, y) for x in range(g.term_count) for y in range(g.term_count))


def singleton_homs(g: FiniteGroupoid) -> bool:
    """Every hom-set has exactly one path."""
    return all(
        len(g.hom(x, y)) == 1 for x in range(g.term_count) for y in range(g.term_count)
    )


# ---------------------------------------------------------------------------
# equality typoid and friends

def equality_typoid(g: FiniteGroupoid, name: str = "eq") -> Typoid:
    """The typoid whose edges are the base paths themselves: star is comp,
    einv is inv, and every edge sits alone in its cell."""
    report = validate_groupoid(g)
    if not report.valid:
        first = report.violations[0]
        raise ValueError(f"groupoid is invalid: {first.law} {first.detail}")
    return _equality(g, name)


def _as_layer(g: FiniteGroupoid) -> EquivalenceLayer:
    """A groupoid's paths as a layer: each path is a cell of its own."""
    return EquivalenceLayer(g.term_count, g.path_src, g.path_dst, g.refl, g.comp, g.inv, tuple(range(g.path_count)))


def _equality(g: FiniteGroupoid, name: str) -> Typoid:
    """The equality typoid of a valid groupoid, in canonical id layout."""
    if not _canonical(g.term_count, g.refl):
        g = _units_first(g)[0]
    return Typoid(name=name, base=g, layer=_as_layer(g), idtoeqv=tuple(range(g.path_count)))


def identity_from_equality(t: Typoid) -> TypoidMorphism:
    """The identity term map as a strict morphism out of the equality typoid
    over t's base, with the path-to-edge table as its edge action."""
    return TypoidMorphism(
        name=f"idtoeqv_{t.name}",
        source=equality_typoid(t.base, name=f"eq_{t.name}"),
        target=t,
        term_map=tuple(range(t.term_count)),
        path_map=tuple(range(t.base.path_count)),
        edge_map=t.idtoeqv,
    )


def unit_typoid(name: str = "unit") -> Typoid:
    return equality_typoid(discrete_groupoid(1), name=name)


def twoedge_typoid(name: str = "twoedge") -> Typoid:
    """One term, one refl path, and a second edge in a cell of its own.

    The edges are the paths of the cyclic group of order 2.  The extra cell
    is unreachable from the single base path, which makes this the smallest
    non-univalent structure.
    """
    layer = _as_layer(cyclic_groupoid(2))
    return Typoid(name=name, base=discrete_groupoid(1), layer=layer, idtoeqv=(0,))


# ---------------------------------------------------------------------------
# product

@dataclass(frozen=True)
class ProductProvenance:
    """How a product's ids split into pairs of factor ids, and back: each
    pairing table inverts its split table, keyed in sorted order."""

    factors: tuple[Typoid, Typoid]
    pair_edge: Mapping[tuple[int, int], int] = field(init=False)
    split_edge: tuple[tuple[int, int], ...]
    pair_path: Mapping[tuple[int, int], int] = field(init=False)
    split_path: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for pair, split in (("pair_edge", self.split_edge), ("pair_path", self.split_path)):
            object.__setattr__(self, pair, dict(sorted(zip(split, itertools.count()))))


def _pair(l1: _Level, l2: _Level) -> tuple[_Level, tuple[tuple[int, int], ...]]:
    """The product of two levels and its keys: pairs of ids, the unit pairs
    first, then the others in lexicographic order.  Term (x, y) is
    x * l2.term_count + y."""
    t2 = l2.term_count
    table1, table2 = l1.table, l2.table
    Budget().spend(len(table1) * len(table2))  # its composable pairs (valid tables are closed), before listing keys
    keys = _units_then(
        itertools.product(l1.unit, l2.unit), itertools.product(range(len(l1.src)), range(len(l2.src)))
    )

    def compose(k, out):
        # each factor composes down its column of `out`
        m1s, m2s = zip(*out)
        return zip(map(table1.row(k[0]).__getitem__, map(table1.pos.__getitem__, m1s)),
                   map(table2.row(k[1]).__getitem__, map(table2.pos.__getitem__, m2s)))

    level = _presented(
        keys,
        ends=lambda k: (l1.src[k[0]] * t2 + l2.src[k[1]], l1.dst[k[0]] * t2 + l2.dst[k[1]]),
        compose=compose,
        inverse=lambda k: (l1.inv[k[0]], l2.inv[k[1]]),
        unit=lambda z: (l1.unit[z // t2], l2.unit[z % t2]),
        term_count=l1.term_count * t2,
        # pairs of singleton cells are singletons
        cell=None if isinstance(l1, FiniteGroupoid) else lambda k: (l1.cell[k[0]], l2.cell[k[1]]),
    )
    return level, keys


def product_typoid(a: Typoid, b: Typoid, name: str | None = None) -> tuple[Typoid, ProductProvenance]:
    """Componentwise product: terms, paths, edges and cells are pairs.  The
    splitting tables are the keys."""
    _require_valid_typoid(a)
    _require_valid_typoid(b)
    base, split_path = _pair(a.base, b.base)
    layer, split_edge = _pair(a.layer, b.layer)
    prov = ProductProvenance((a, b), split_edge, split_path)
    product = Typoid(
        name=name or f"{a.name}_x_{b.name}",
        base=base,
        layer=layer,
        idtoeqv=tuple(prov.pair_edge[(a.idtoeqv[p1], b.idtoeqv[p2])] for p1, p2 in split_path),
    )
    return product, prov


def _check_provenance(p: Typoid, prov: ProductProvenance) -> None:
    """Refuse a provenance that is not p's: each split table must name each
    pair of factor ids once, with the endpoints, as product terms
    x * |B| + y, of the product id it splits."""
    a, b = prov.factors
    tb = b.term_count
    for split, pair, level, l1, l2 in (
        (prov.split_path, prov.pair_path, p.base, a.base, b.base),
        (prov.split_edge, prov.pair_edge, p.layer, a.layer, b.layer),
    ):
        once = len(pair) == len(split) == len(level.src) == len(l1.src) * len(l2.src)
        if p.term_count != a.term_count * tb or not once or not all(
            0 <= i < len(l1.src)
            and 0 <= j < len(l2.src)
            and (level.src[k], level.dst[k]) == (l1.src[i] * tb + l2.src[j], l1.dst[i] * tb + l2.dst[j])
            for k, (i, j) in enumerate(split)
        ):
            raise ValueError("provenance does not describe this product")


def projections(p: Typoid, prov: ProductProvenance) -> tuple[TypoidMorphism, TypoidMorphism]:
    """The two factor projections; both are strict."""
    _check_provenance(p, prov)
    tb = prov.factors[1].term_count
    first, second = (
        TypoidMorphism(
            name=f"pr{k + 1}",
            source=p,
            target=prov.factors[k],
            term_map=tuple(divmod(z, tb)[k] for z in range(p.term_count)),
            path_map=tuple(pair[k] for pair in prov.split_path),
            edge_map=tuple(pair[k] for pair in prov.split_edge),
        )
        for k in (0, 1)
    )
    return first, second


def pairing(
    f: TypoidMorphism, g: TypoidMorphism, p: Typoid, prov: ProductProvenance
) -> TypoidMorphism:
    """The morphism into a product determined componentwise by f and g."""
    _check_provenance(p, prov)
    a, b = prov.factors
    if not f.source.same_structure(g.source):
        raise ValueError("pairing needs morphisms with a common source")
    if not (f.target.same_structure(a) and g.target.same_structure(b)):
        raise ValueError("pairing targets must be the factors of the product")
    tb = b.term_count
    return TypoidMorphism(
        name=f"pair_{f.name}_{g.name}",
        source=f.source,
        target=p,
        term_map=tuple(
            f.term_map[c] * tb + g.term_map[c] for c in range(f.source.term_count)
        ),
        path_map=tuple(
            prov.pair_path[(f.path_map[q], g.path_map[q])]
            for q in range(f.source.base.path_count)
        ),
        edge_map=tuple(
            prov.pair_edge[(f.edge_map[e], g.edge_map[e])]
            for e in range(f.source.layer.edge_count)
        ),
    )


# ---------------------------------------------------------------------------
# truncation

def truncate(t: Typoid, name: str | None = None) -> Typoid:
    """Keep the base groupoid and take the paths of the codiscrete groupoid
    as edges: exactly one edge per ordered term pair, each a cell of its
    own.  The base is kept as given, so a base in canonical layout gives a
    result in canonical layout."""
    _require_valid_typoid(t)
    layer = _as_layer(codiscrete_groupoid(t.term_count))
    idtoeqv = tuple(layer.hom(x, y)[0] for x, y in zip(t.base.path_src, t.base.path_dst))
    return Typoid(name=name or f"{t.name}_t", base=t.base, layer=layer, idtoeqv=idtoeqv)


def is_truncation_shaped(t: Typoid) -> bool:
    """Exactly one edge per ordered term pair."""
    n = t.term_count
    return t.layer.edge_count == n * n and all(
        len(t.layer.hom(x, y)) == 1 for x in range(n) for y in range(n)
    )


def morphism_into_truncation(
    src: Typoid, dst: Typoid, term_map: tuple[int, ...], name: str | None = None
) -> TypoidMorphism:
    """Any term map into a truncation extends with the constant-unit edge
    action, provided a base-path functor over it exists."""
    if not is_truncation_shaped(dst):
        raise ValueError(f"typoid {dst.name!r} is not a truncation")
    path_map = find_path_functor(src.base, dst.base, term_map)
    edge_map = tuple(
        dst.layer.hom(term_map[src.layer.edge_src[e]], term_map[src.layer.edge_dst[e]])[0]
        for e in range(src.layer.edge_count)
    )
    return TypoidMorphism(
        name=name or f"{src.name}_to_{dst.name}",
        source=src,
        target=dst,
        term_map=tuple(term_map),
        path_map=path_map,
        edge_map=edge_map,
    )


# ---------------------------------------------------------------------------
# completion

def _completion_base(layer: EquivalenceLayer) -> tuple[FiniteGroupoid, tuple[int, ...]]:
    """A strict groupoid on the cell classes of a layer, with the table
    sending each class to its designated or representative edge."""
    cell, star = layer.cell, layer.star
    if cell == tuple(range(layer.edge_count)):
        # singleton cells, so `cell` is the identity: the layer is its own base
        return FiniteGroupoid(layer.term_count, layer.edge_src, layer.edge_dst, layer.eqv, star, layer.einv), cell
    reps = sorted(layer.class_members)
    paths = _presented(
        reps,
        ends=lambda r: (layer.edge_src[r], layer.edge_dst[r]),
        compose=lambda r1, out: map(cell.__getitem__, map(star.row(r1).__getitem__, map(star.pos.__getitem__, out))),
        inverse=lambda r: cell[layer.einv[r]],
        unit=lambda x: cell[layer.eqv[x]],
        term_count=layer.term_count,
    )
    idtoeqv = list(reps)
    for x, p in enumerate(paths.refl):
        idtoeqv[p] = layer.eqv[x]
    return paths, tuple(idtoeqv)


def univalent_completion(t: Typoid, name: str | None = None) -> Typoid:
    """Replace the base groupoid with the quotient of the edge layer by its
    cells; the result is univalent by construction."""
    _require_valid_typoid(t)
    # a base grown from a layer in canonical layout is in canonical layout
    layer = _units_first(t.layer)[0]
    base, idtoeqv = _completion_base(layer)
    return Typoid(name=name or f"{t.name}_c", base=base, layer=layer, idtoeqv=idtoeqv)


# ---------------------------------------------------------------------------
# exponential

@dataclass(frozen=True)
class ExponentialLimits:
    max_terms: int = 64
    max_edges: int = 256

    def __post_init__(self):
        for bound in ("max_terms", "max_edges"):
            if getattr(self, bound) < 0:
                raise ValueError(f"{bound} must be non-negative, got {getattr(self, bound)}")


@dataclass(frozen=True)
class ExponentialEdge:
    """A family of target edges, one per source term, joining two morphisms
    that are the endpoints of an exponential edge."""

    src_term: int
    dst_term: int
    theta: tuple[int, ...]


@dataclass(frozen=True)
class ExponentialProvenance:
    source: Typoid
    target: Typoid
    terms: tuple[TypoidMorphism, ...]
    edges: tuple[ExponentialEdge, ...]


def exponential_typoid(
    a: Typoid, b: Typoid, limits: ExponentialLimits = ExponentialLimits(), name: str | None = None
) -> tuple[Typoid, ExponentialProvenance]:
    """Terms are all morphisms from a to b, enumerated in lexicographic
    order of (term map, path table, edge table); edges are all families of
    target edges whose squares commute up to cells.  The base groupoid is
    grown from the cell classes of that layer.
    """
    _require_valid_typoid(a)
    _require_valid_typoid(b)
    name = name or f"exp_{a.name}_{b.name}"
    bcell, bstar, bpos = b.layer.cell, b.layer.star, b.layer.star.pos
    asrc, adst = a.layer.edge_src, a.layer.edge_dst

    # the term maps: one search position per term of a; each path and edge
    # of a needs a nonempty hom-set of b once both of its ends are chosen
    map_checks = [
        (max(x, y), lambda c, x=x, y=y, hom=hom: bool(hom(c[x], c[y])))
        for hom, src, dst in ((b.base.hom, a.base.path_src, a.base.path_dst), (b.layer.hom, asrc, adst))
        for x, y in dict.fromkeys(zip(src, dst))
    ]
    # over each term map, every base-path functor and every edge action
    terms: list[TypoidMorphism] = []
    for f in _backtrack([range(b.term_count)] * a.term_count, map_checks):
        for ap in iter_path_functors(a.base, b.base, f):
            for phi in _functors(a.layer, b.layer, f):
                if len(terms) >= limits.max_terms:
                    raise ResourceLimitError(
                        "max-terms", f"more than {limits.max_terms} morphisms from {a.name!r} to {b.name!r}"
                    )
                terms.append(
                    TypoidMorphism(
                        name=f"{name}_term{len(terms)}",
                        source=a,
                        target=b,
                        term_map=f,
                        path_map=ap,
                        edge_map=phi,
                    )
                )

    # the families: one search position per term of a; the square over each
    # edge of a commutes up to cells once both of its ends are chosen.  b's
    # edges join exactly the terms of one component (labelled by its least
    # term), so a family joins only term maps alike on components
    entering = _out_index(b.layer.edge_dst, b.term_count)
    component = [min(map(b.layer.edge_src.__getitem__, into)) for into in entering]
    keys = [tuple(map(component.__getitem__, m.term_map)) for m in terms]
    alike: dict[tuple[int, ...], list[int]] = {}
    for j, key in enumerate(keys):
        alike.setdefault(key, []).append(j)
    # the sides of a square as cells, by the edges of b the terms use:
    # after[e][d] is the cell of e * d and before[e][d] that of d * e
    brows = [bstar.row(e) for e in range(b.layer.edge_count)]
    used = set(itertools.chain.from_iterable(m.edge_map for m in terms))
    after = {e: dict(zip(bstar.out[b.layer.edge_dst[e]], map(bcell.__getitem__, brows[e]))) for e in used}
    before = {e: {d: bcell[brows[d][bpos[e]]] for d in entering[b.layer.edge_src[e]]} for e in used}
    families: list[tuple[int, ...]] = []  # (src term, dst term, *theta)
    for i, fm in enumerate(terms):
        for j in alike[keys[i]]:
            gm = terms[j]
            options = [b.layer.hom(fm.term_map[x], gm.term_map[x]) for x in range(a.term_count)]
            squares = [
                (max(sx, sy), lambda c, sx=sx, sy=sy, left=after[fe], right=before[ge]: left[c[sy]] == right[c[sx]])
                for sx, sy, fe, ge in zip(asrc, adst, fm.edge_map, gm.edge_map)
            ]
            for theta in _backtrack(options, squares):
                if len(families) >= limits.max_edges:
                    raise ResourceLimitError(
                        "max-edges", f"more than {limits.max_edges} edge families"
                    )
                families.append((i, j, *theta))

    # the unit families come first, in term order, so the layer and the
    # base grown from it are in canonical layout
    beqv, beinv = b.layer.eqv, b.layer.einv
    units = [(i, i, *map(beqv.__getitem__, m.term_map)) for i, m in enumerate(terms)]
    families = _units_then(units, families)
    # a row of composites f1 * f2 at once: pointwise through the rows of
    # b's star, down the columns of the f2s in `out`
    def compose(f1, out):
        _, heads, *thetas = zip(*out)
        pointwise = (map(brows[e].__getitem__, map(bpos.__getitem__, theta)) for e, theta in zip(f1[2:], thetas))
        return zip(itertools.repeat(f1[0]), heads, *pointwise)

    layer = _presented(
        families,
        ends=lambda fam: fam[:2],
        compose=compose,
        inverse=lambda fam: (fam[1], fam[0], *map(beinv.__getitem__, fam[2:])),
        unit=units.__getitem__,
        term_count=len(terms),
        cell=lambda fam: (*fam[:2], *map(bcell.__getitem__, fam[2:])),
    )
    base, idtoeqv = _completion_base(layer)
    edges = tuple(ExponentialEdge(fam[0], fam[1], fam[2:]) for fam in families)
    return Typoid(name, base, layer, idtoeqv), ExponentialProvenance(a, b, tuple(terms), edges)


# ---------------------------------------------------------------------------
# finite universe

UNIVERSE_MAX_EDGES = 5000


def universe_typoid(sets: list[int] | tuple[int, ...], name: str = "universe") -> Typoid:
    """Terms are finite sets given by cardinality; edges and base paths are
    the bijections between them, composed diagrammatically.  Univalent by
    construction; more than UNIVERSE_MAX_EDGES bijections are refused."""
    sets = tuple(sets)
    if any(n < 0 for n in sets):
        raise ValueError("cardinalities must be non-negative")
    # k sets of size n have k² · n! bijections among them; n! is capped at
    # the least factorial past the bound, so a large set is refused at once
    cap = next(n for n in itertools.count() if math.factorial(n) > UNIVERSE_MAX_EDGES)
    if sum(k * k * math.factorial(min(n, cap)) for n, k in Counter(sets).items()) > UNIVERSE_MAX_EDGES:
        raise ResourceLimitError("universe-size", f"more than {UNIVERSE_MAX_EDGES} bijections needed")

    # a bijection is keyed (source set, target set, permutation)
    perms = [
        (i, j, perm)
        for i, ni in enumerate(sets)
        for j, nj in enumerate(sets)
        if ni == nj
        for perm in itertools.permutations(range(ni))
    ]
    identities = [(i, i, tuple(range(n))) for i, n in enumerate(sets)]
    paths = _presented(
        _units_then(identities, perms),
        ends=lambda p: p[:2],
        compose=lambda p, out: [(p[0], q[1], tuple(map(q[2].__getitem__, p[2]))) for q in out],
        inverse=lambda p: (p[1], p[0], tuple(sorted(range(len(p[2])), key=p[2].__getitem__))),
        unit=identities.__getitem__,
        term_count=len(sets),
    )
    return _equality(paths, name)
