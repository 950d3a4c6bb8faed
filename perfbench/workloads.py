"""Inputs and known answers for the three benchmark workloads.

Every input is built with the library's public constructions, serialized
with `typoid.dsl`, and written to a file.  The answer each request must get
is derived from theory about how the input was built (the `Shape` of each
structure), never by running a checker on it.

The structures of `verify-large` and `construct` are the same for every
seed: isomorphic variants of a structure (Z6xZ8 or Z2xZ24, codiscrete(16)
or codiscrete(4) x codiscrete(4)) differ several-fold in the cost to build
and to check, so a seed's draw among them would move the set-up time and
the latency percentiles.  The seed chooses which morphisms and mutations go
into the small-document pool, and the order of the requests.  So every
seed does the same amount of work and the figures of different seeds can be
compared.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-large", "many-small", "construct")

# Tail percentile ladder and the least sample count each workload needs so
# that its tail percentile (90 or 99) always has at least ten samples beyond.
PERCENTILES = (50, 75, 90, 99)
MIN_SAMPLES = {"verify-large": 100, "many-small": 1000, "construct": 100}


# ---------------------------------------------------------------------------
# theory side: what each generated structure must look like


@dataclass(frozen=True)
class Shape:
    """Sizes and verdicts of a generated structure, known from how it was built.

    `homs` lists the number of base paths of every ordered term pair.  An
    `eq_like` structure is an equality typoid (edges are the base paths and
    every cell is a singleton), which products of equality typoids are too.
    """

    terms: int
    homs: tuple[int, ...]
    edges: int
    cells: int
    univalent: bool
    eq_like: bool

    @property
    def paths(self) -> int:
        return sum(self.homs)


def eq_shape(terms: int, homs) -> Shape:
    homs = tuple(homs)
    return Shape(terms, homs, sum(homs), sum(homs), True, True)


def cyclic_shape(n: int) -> Shape:
    return eq_shape(1, (n,))


def codiscrete_shape(n: int) -> Shape:
    return eq_shape(n, (1,) * (n * n))


def discrete_shape(n: int) -> Shape:
    return eq_shape(n, (1 if x == y else 0 for x in range(n) for y in range(n)))


def universe_shape(sizes) -> Shape:
    return eq_shape(
        len(sizes),
        (math.factorial(a) if a == b else 0 for a in sizes for b in sizes),
    )


def twoedge_shape() -> Shape:
    # one refl path, two singleton cells: the cell of the extra edge is
    # reached by no path
    return Shape(1, (1,), 2, 2, False, False)


def truncation_shape(s: Shape) -> Shape:
    """One edge and one cell per ordered term pair; univalent iff every hom of
    the base has exactly one path."""
    n2 = s.terms * s.terms
    return Shape(s.terms, s.homs, n2, n2, all(h == 1 for h in s.homs), False)


def product_shape(a: Shape, b: Shape) -> Shape:
    return Shape(
        a.terms * b.terms,
        tuple(x * y for x in a.homs for y in b.homs),
        a.edges * b.edges,
        a.cells * b.cells,
        a.univalent and b.univalent,
        a.eq_like and b.eq_like,
    )


def exp_sizes(kind: str, m: int, n: int) -> tuple[int, int]:
    """(terms, edges) of the exponential of two equality typoids."""
    if kind == "cyclic":
        g = math.gcd(m, n)
        return g * g, g ** 3 * n
    if kind == "codiscrete":
        return n ** m, n ** (2 * m)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# requests


@dataclass(frozen=True)
class Output:
    """What a construction request must write: a canonical `.typoid` file
    holding one structure of these sizes, plus its provenance sidecar."""

    kind: str
    stats: tuple[tuple[str, int], ...]
    prov_terms: int | None = None
    prov_edges: int | None = None


@dataclass(frozen=True)
class Expect:
    code: int
    result: str
    stats: tuple[tuple[str, int], ...] = ()
    first_code: str | None = None
    output: Output | None = None


@dataclass(frozen=True)
class Request:
    """One CLI call.  `cls` names its request class in failure reports.
    A request with `output` set gets `-o <fresh path>` appended per call."""

    cls: str
    argv: tuple[str, ...]
    expect: Expect


def sizes(terms: int, paths: int, edges: int) -> tuple[tuple[str, int], ...]:
    """The `stats` sizes of a report, in key order."""
    return (("edges", edges), ("paths", paths), ("terms", terms))


def _stats(shape: Shape) -> tuple[tuple[str, int], ...]:
    return sizes(shape.terms, shape.paths, shape.edges)


class _InputWriter:
    """Holds the freshly imported library, the seeded generator and the
    directory the inputs are written to."""

    def __init__(self, T, dsl, seed: int, work: Path):
        self.T = T
        self.dsl = dsl
        self.rng = random.Random(seed)
        self.work = work
        self.files: dict[str, str] = {}

    def write(self, typoids, morphisms=()) -> str:
        text = self.dsl.serialize(self.dsl.document_for(list(typoids), list(morphisms)))
        return self.write_text(text)

    def write_text(self, text: str) -> str:
        """Write a document once; requests on equal documents share the file."""
        if text not in self.files:
            path = self.work / f"in{len(self.files):04d}.typoid"
            path.write_text(text, encoding="utf-8")
            self.files[text] = str(path)
        return self.files[text]

    # -- structures, each paired with its shape --------------------------

    def cyclic(self, n: int, name: str):
        T = self.T
        return T.equality_typoid(T.cyclic_groupoid(n), name=name), cyclic_shape(n)

    def codiscrete(self, n: int, name: str):
        T = self.T
        return T.equality_typoid(T.codiscrete_groupoid(n), name=name), codiscrete_shape(n)

    def universe(self, sizes, name: str):
        return self.T.universe_typoid(list(sizes), name=name), universe_shape(sizes)

    def product(self, a, b, name: str):
        t, _ = self.T.product_typoid(a[0], b[0], name=name)
        return t, product_shape(a[1], b[1])

    def truncation(self, a, name: str):
        return self.T.truncate(a[0], name=name), truncation_shape(a[1])

    def rung(self, spec, name: str):
        """The structure of a ladder rung.

        ("codiscrete", n): the equality typoid of codiscrete(n).
        ("cyclic-product", (a, b)): Za x Zb.
        ("cyclic-x-codiscrete", (m, k)): Zm x codiscrete(k).
        ("universe", sizes).  ("truncate", spec): truncation of a rung.
        """
        kind, arg = spec
        if kind == "codiscrete":
            return self.codiscrete(arg, name)
        if kind == "cyclic-product":
            a, b = arg
            return self.product(self.cyclic(a, "a"), self.cyclic(b, "b"), name)
        if kind == "cyclic-x-codiscrete":
            m, k = arg
            return self.product(self.cyclic(m, "a"), self.codiscrete(k, "b"), name)
        if kind == "universe":
            return self.universe(arg, name)
        if kind == "truncate":
            return self.truncation(self.rung(arg, name + "_b"), name)
        raise ValueError(f"unknown rung {spec!r}")


# ---------------------------------------------------------------------------
# verify-large

# The 15 cheapest requests take up to 0.11 s; the next few take 0.14-0.17 s.
# Without the Z4 x Z12 rung, whose two requests are both dearer than that,
# the median falls on this step and jumps by a third with the noise; with
# it, the median falls inside the 0.14-0.17 s cluster.
VERIFY_LARGE = (
    ("codiscrete", 8), ("codiscrete", 8), ("codiscrete", 12), ("codiscrete", 16),
    ("cyclic-product", (4, 6)), ("cyclic-product", (3, 8)), ("cyclic-product", (4, 12)),
    ("cyclic-product", (6, 6)), ("cyclic-product", (6, 8)),
    ("cyclic-x-codiscrete", (7, 3)),
    ("universe", (4,)), ("universe", (3, 3, 3)), ("universe", (4, 4)),
    ("truncate", ("codiscrete", 8)),
    ("truncate", ("cyclic-product", (6, 8))),
    ("truncate", ("cyclic-x-codiscrete", (7, 3))),
    ("truncate", ("universe", (4, 4))),
)
VERIFY_LARGE_SMOKE = (
    ("codiscrete", 4), ("cyclic-product", (2, 3)), ("cyclic-x-codiscrete", (2, 2)),
    ("universe", (3,)), ("truncate", ("cyclic-product", (2, 3))),
)


def build_verify_large(b: _InputWriter, smoke: bool) -> list[Request]:
    requests = []
    for i, spec in enumerate(VERIFY_LARGE_SMOKE if smoke else VERIFY_LARGE):
        t, shape = b.rung(spec, f"s{i}")
        path = b.write([t])
        label = f"{spec[0]}:{spec[1]}"
        stats = _stats(shape)
        requests.append(Request(f"validate/{label}", ("validate", path), Expect(0, "valid", stats)))
        verdict = Expect(0, "univalent", stats) if shape.univalent else Expect(1, "not-univalent", stats)
        requests.append(Request(f"univalence/{label}", ("univalence", path), verdict))
    b.rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# many-small

# The pool validates every stock structure and decides its univalence (228
# requests, 4 of them non-univalent), then adds blocks of these classes.
# 11 of each 21 are rejected inputs, so about a quarter of the pool is.
MANY_SMALL_BLOCK = (
    ("check-fun/valid", 7),
    ("induce/valid", 3),
    ("induce/not-univalent", 2),
    ("validate/mutated", 3),
    ("univalence/mutated", 3),
    ("validate/malformed", 3),
)
# Morphisms with one endpoint mutated so that it fails validation.  The
# code answers many of them wrongly (ROADMAP item 5): `check-fun` reports
# "valid" and `induce` reports an input error or "valid".  A timed run must
# have no failing request, so these join the block only when asked for
# with `--known-defects`, which then reports them as failures.
KNOWN_DEFECT_BLOCK = (
    ("check-fun/mutated-endpoint", 3),
    ("induce/mutated-endpoint", 1),
)
MANY_SMALL_BLOCKS = 8
# morphisms whose term and path maps `typoid induce` can rebuild the edge
# action from: their sources are univalent
INDUCIBLE = ("projection", "identity")
MORPHISMS = ("projection", "pairing", "identity", "into-truncation")


class _Small:
    """The stock structures of the test corpus (`tests/corpus.py`), their
    truncations and the products of every pair of univalent ones."""

    def __init__(self, b: _InputWriter):
        self.b = b
        T = b.T
        base = {
            "unit": (T.unit_typoid(), discrete_shape(1)),
            "bool_disc": (T.equality_typoid(T.discrete_groupoid(2), name="bool_disc"), discrete_shape(2)),
            "prop2": b.codiscrete(2, "prop2"),
            "twoedge": (T.twoedge_typoid(), twoedge_shape()),
            "eq_z2": b.cyclic(2, "eq_z2"),
            "universe2": b.universe((2,), "universe2"),
            "universe11": b.universe((1, 1), "universe11"),
        }
        truncs = {f"trunc_{k}": b.truncation(v, f"trunc_{k}") for k, v in base.items()}
        self.single = {**base, **truncs}
        univalent = [k for k, v in self.single.items() if v[1].univalent]
        self.products = {}
        for na in univalent:
            for nb in univalent:
                name = f"prod_{na}_{nb}"
                t, prov = T.product_typoid(self.single[na][0], self.single[nb][0], name=name)
                self.products[name] = ((t, product_shape(self.single[na][1], self.single[nb][1])), prov, na, nb)
        self.all = {**self.single, **{k: v[0] for k, v in self.products.items()}}
        self.names = sorted(self.all)
        self.mutable = [k for k in self.names if self.all[k][1].eq_like and _has_wide_hom(self.all[k][0])]
        self.non_univalent = sorted(k for k in self.single if not self.single[k][1].univalent)
        self.decks: dict = {}

    def draw(self, key, items):
        """Next item of a shuffled deck of `items` kept under `key`.  Every
        item comes up equally often, so seeds differ in order, not in mix."""
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(items)
            self.b.rng.shuffle(deck)
        return deck.pop()

    # -- mutations of eq-like structures ----------------------------------

    def mutate(self, t, kind: str | None = None):
        """Change one row of an eq-like structure whose homs allow it.

        Returns (mutated typoid, still valid?).  With singleton cells the
        laws hold on the nose, so a changed star, comp or einv entry breaks
        cancellation or inverses.  Merging two edges of a one-term
        structure into one cell is a congruence only when its group has
        order two.
        """
        rng = self.b.rng
        kinds = ["star", "comp", "einv"] + (["cell"] if t.term_count == 1 else [])
        kind = kind or self.draw(f"mutate-{t.term_count == 1}", kinds)
        base, layer = t.base, t.layer
        if kind == "cell":
            e, d = sorted(rng.sample(range(layer.edge_count), 2))
            cell = list(layer.cell)
            cell[d] = e
            new = dataclasses.replace(t, layer=dataclasses.replace(layer, cell=tuple(cell)))
            return new, layer.edge_count == 2
        if kind == "einv":
            e = rng.choice(
                [e for e in range(layer.edge_count)
                 if len(layer.hom(layer.edge_dst[e], layer.edge_src[e])) > 1]
            )
            d = rng.choice([d for d in layer.hom(layer.edge_dst[e], layer.edge_src[e]) if d != layer.einv[e]])
            einv = list(layer.einv)
            einv[e] = d
            return dataclasses.replace(t, layer=dataclasses.replace(layer, einv=tuple(einv))), False
        if kind == "star":
            table, src, dst, hom = layer.star, layer.edge_src, layer.edge_dst, layer.hom
        else:
            table, src, dst, hom = base.comp, base.path_src, base.path_dst, base.hom
        pairs = [pq for pq in sorted(table) if len(hom(src[pq[0]], dst[pq[1]])) > 1]
        pq = rng.choice(pairs)
        value = rng.choice([r for r in hom(src[pq[0]], dst[pq[1]]) if r != table[pq]])
        changed = dict(table)
        changed[pq] = value
        if kind == "star":
            return dataclasses.replace(t, layer=dataclasses.replace(layer, star=changed)), False
        return dataclasses.replace(t, base=dataclasses.replace(base, comp=changed)), False

    # -- morphisms ----------------------------------------------------------

    def morphism(self, kinds=MORPHISMS, mutable=False):
        """A valid morphism of one of `kinds`, drawn by the seed.

        Returns (kind, morphism, typoids of its document, source shape,
        target shape).  With `mutable`, an endpoint must be one `mutate`
        can change.
        """
        T, rng = self.b.T, self.b.rng
        while True:
            kind = self.draw(kinds, kinds)
            if kind in ("projection", "pairing"):
                name = self.draw("product", [k for k, v in self.products.items() if v[2] != v[3]])
                (p, pshape), prov, na, nb = self.products[name]
                pr1, pr2 = T.projections(p, prov)
                if kind == "pairing":
                    found = T.pairing(pr1, pr2, p, prov), [p], pshape, pshape
                else:
                    m, factor = rng.choice([(pr1, na), (pr2, nb)])
                    found = m, [p, *prov.factors], pshape, self.single[factor][1]
            elif kind == "identity":
                t, shape = self.all[self.draw("identity", self.names)]
                m = T.identity_from_equality(t)
                found = m, [m.source, t], eq_shape(shape.terms, shape.homs), shape
            else:
                name = self.draw("into-truncation", sorted(self.single))
                t, shape = self.single[name]
                target, tshape = self.b.truncation((t, shape), f"{name}_t")
                m = T.morphism_into_truncation(t, target, tuple(range(t.term_count)))
                found = m, [t, target], shape, tshape
            m, _, sshape, tshape = found
            if not mutable or self.mutable_side(m, sshape, tshape):
                return (kind, *found)

    def mutable_side(self, m, sshape: Shape, tshape: Shape) -> list[str]:
        return [side for side, t, s in (("source", m.source, sshape), ("target", m.target, tshape))
                if s.eq_like and _has_wide_hom(t)]

    def mutated_endpoint_doc(self, kinds):
        """A valid morphism whose source or target has one row changed.
        Returns (morphism, typoids of its document)."""
        _, m, typoids, sshape, tshape = self.morphism(kinds, mutable=True)
        side = self.b.rng.choice(self.mutable_side(m, sshape, tshape))
        other = "target" if side == "source" else "source"
        old = getattr(m, side)
        new, _ = self.mutate(old, self.draw("endpoint", ["star", "comp", "einv"]))
        new = dataclasses.replace(new, name=f"{old.name}_mut")
        m = dataclasses.replace(m, **{side: new})
        return m, [x for x in typoids if x is not old or x is getattr(m, other)] + [new]


def _has_wide_hom(t) -> bool:
    """Some hom-set holds two or more edges, so a row can change in place."""
    layer = t.layer
    return any(
        len(layer.hom(layer.edge_src[e], layer.edge_dst[e])) > 1 for e in range(layer.edge_count)
    )


def _induce_argv(path: str, m, src_name: str, dst_name: str) -> tuple[str, ...]:
    src, dst = m.source, m.target
    terms = ",".join(f"t{x}:t{m.term_map[x]}" for x in range(src.term_count))
    dst_paths = [f"refl_t{p}" if p < dst.term_count else f"p{p}" for p in range(dst.base.path_count)]
    paths = ",".join(
        f"p{p}:{dst_paths[m.path_map[p]]}" for p in range(src.term_count, src.base.path_count)
    )
    return ("induce", path, "--from", src_name, "--to", dst_name, "--map", terms, "--path-map", paths)


def build_many_small(b: _InputWriter, smoke: bool, known_defects: bool = False) -> list[Request]:
    small = _Small(b)
    requests: list[Request] = []
    for name in sorted(small.single if smoke else small.all):
        t, shape = small.all[name]
        path = b.write([t])
        stats = _stats(shape)
        requests.append(Request("validate/stock", ("validate", path), Expect(0, "valid", stats)))
        verdict = Expect(0, "univalent", stats) if shape.univalent else Expect(1, "not-univalent", stats)
        requests.append(Request("univalence/stock", ("univalence", path), verdict))
    blocks = 1 if smoke else MANY_SMALL_BLOCKS
    for cls, count in MANY_SMALL_BLOCK + (KNOWN_DEFECT_BLOCK if known_defects else ()):
        for _ in range(count * blocks):
            requests.append(_small_request(b, small, cls))
    b.rng.shuffle(requests)
    return requests


def _small_request(b: _InputWriter, small: _Small, cls: str) -> Request:
    rng = b.rng
    invalid = Expect(1, "invalid")
    if cls in ("validate/mutated", "univalence/mutated"):
        t, shape = small.all[small.draw(cls, small.mutable)]
        new, still_valid = small.mutate(t)
        path = b.write([new])
        stats = _stats(shape)
        if cls == "validate/mutated":
            expect = Expect(0, "valid", stats) if still_valid else Expect(1, "invalid", stats)
            return Request(cls, ("validate", path), expect)
        expect = Expect(1, "not-univalent", stats) if still_valid else Expect(1, "invalid", stats)
        return Request(cls, ("univalence", path), expect)
    if cls == "validate/malformed":
        while True:
            t, _ = small.all[small.draw(cls, small.names)]
            text = b.dsl.serialize(b.dsl.document_for([t]))
            lines = text.splitlines(keepends=True)
            rows = [i for i, line in enumerate(lines) if line.lstrip().startswith(("star ", "comp "))]
            if rows:
                del lines[rng.choice(rows)]
                path = b.write_text("".join(lines))
                return Request(cls, ("validate", path), Expect(2, "parse-error", first_code="E105"))
    if cls == "check-fun/valid":
        kind, m, typoids, sshape, _ = small.morphism()
        path = b.write(typoids, [m])
        return Request(f"check-fun/{kind}", ("check-fun", path, "--morphism", m.name),
                       Expect(0, "valid", _stats(sshape)))
    if cls == "check-fun/mutated-endpoint":
        m, typoids = small.mutated_endpoint_doc(MORPHISMS)
        path = b.write(typoids, [m])
        return Request(cls, ("check-fun", path, "--morphism", m.name), invalid)
    if cls == "induce/valid":
        kind, m, typoids, sshape, _ = small.morphism(INDUCIBLE)
        path = b.write(typoids)
        argv = _induce_argv(path, m, *_entry_names(b.dsl.document_for(typoids), m))
        return Request(f"induce/{kind}", argv, Expect(0, "valid", _stats(sshape)))
    if cls == "induce/not-univalent":
        t, shape = small.single[small.draw(cls, small.non_univalent)]
        m = b.T.morphisms.identity_morphism(t)
        path = b.write([t])
        return Request(cls, _induce_argv(path, m, t.name, t.name), Expect(1, "not-univalent", _stats(shape)))
    if cls == "induce/mutated-endpoint":
        m, typoids = small.mutated_endpoint_doc(INDUCIBLE)
        path = b.write(typoids)
        return Request(cls, _induce_argv(path, m, *_entry_names(b.dsl.document_for(typoids), m)), invalid)
    raise ValueError(cls)


def _entry_names(doc, m) -> tuple[str, str]:
    """Names of the entries holding the morphism's source and target."""
    src = dst = None
    for entry in doc.typoid_entries().values():
        if entry.typoid.same_structure(m.source) and src is None:
            src = entry.name
        if entry.typoid.same_structure(m.target):
            dst = entry.name
    return src, dst


# ---------------------------------------------------------------------------
# construct

EXP_LIMITS = ("--max-terms", "4096", "--max-edges", "65536")
CONSTRUCT = (
    ("exp", ("cyclic", 4), ("cyclic", 4)),
    ("exp", ("cyclic", 5), ("cyclic", 5)),
    ("exp", ("cyclic", 4), ("cyclic", 8)),
    ("exp", ("cyclic", 6), ("cyclic", 6)),
    ("exp", ("codiscrete", 3), ("codiscrete", 3)),
    ("product", ("cyclic", 6), ("cyclic", 8)),
    ("product", ("codiscrete", 3), ("codiscrete", 4)),
    ("product", ("cyclic", 7), ("codiscrete", 3)),
    ("truncate", ("cyclic-product", (6, 6))),
    ("truncate", ("codiscrete", 8)),
    ("complete", ("cyclic-product", (4, 6))),
    ("complete", ("universe", (3, 3, 3))),
    ("gen", ("equality", 48)),
    ("gen", ("prop", 10)),
    ("gen", ("universe", 4, 4)),
)
CONSTRUCT_SMOKE = (
    ("exp", ("cyclic", 2), ("cyclic", 2)),
    ("exp", ("cyclic", 2), ("cyclic", 4)),
    ("exp", ("codiscrete", 2), ("codiscrete", 2)),
    ("product", ("cyclic", 2), ("cyclic", 3)),
    ("truncate", ("codiscrete", 3)),
    ("complete", ("cyclic-product", (2, 2))),
    ("gen", ("equality", 4)),
    ("gen", ("prop", 3)),
    ("gen", ("universe", 2, 2)),
)


def build_construct(b: _InputWriter, smoke: bool) -> list[Request]:
    requests = []
    for op, *args in CONSTRUCT_SMOKE if smoke else CONSTRUCT:
        label = f"{op}:" + ",".join(str(x) for a in args for x in a)
        if op == "exp":
            (ka, m), (kb, n) = args
            a, _ = getattr(b, ka)(m, "A")
            bb, _ = getattr(b, kb)(n, "B")
            terms, edges = exp_sizes(ka, m, n)
            out = Output("exponential", sizes(terms, edges, edges), prov_terms=terms, prov_edges=edges)
            argv = ("exp", b.write([a, bb]), "A", "B", *EXP_LIMITS)
        elif op == "product":
            (ka, x), (kb, y) = args
            a, bb = getattr(b, ka)(x, "A"), getattr(b, kb)(y, "B")
            out = Output("product", _stats(product_shape(a[1], bb[1])))
            argv = ("product", b.write([a[0], bb[0]]), "A", "B")
        elif op == "truncate":
            t, shape = b.rung(args[0], "A")
            out = Output("truncation", _stats(truncation_shape(shape)))
            argv = (op, b.write([t]), "A")
        elif op == "complete":
            # the completion regrows the base from the cells
            t, shape = b.rung(args[0], "A")
            out = Output("completion", sizes(shape.terms, shape.cells, shape.edges))
            argv = (op, b.write([t]), "A")
        else:
            gen, *params = args[0]
            if gen == "equality":
                shape = cyclic_shape(params[0])
            elif gen == "prop":
                shape = codiscrete_shape(params[0])
            else:
                shape = universe_shape(params)
            out = Output("generator", _stats(shape))
            argv = ("gen", gen, *map(str, params))
        requests.append(Request(label, argv, Expect(0, "ok", out.stats, output=out)))
    b.rng.shuffle(requests)
    return requests


BUILD = {
    "verify-large": build_verify_large,
    "many-small": build_many_small,
    "construct": build_construct,
}


def build(workload: str, T, dsl, seed: int, work: Path, smoke: bool = False,
          known_defects: bool = False) -> list[Request]:
    """Write the workload's inputs under `work` and return one round of its
    requests in the seed's order.  `known_defects` adds the requests the
    code is known to answer wrongly (`many-small` only)."""
    b = _InputWriter(T, dsl, seed, work)
    if workload == "many-small":
        return build_many_small(b, smoke, known_defects)
    return BUILD[workload](b, smoke)
