"""Textual format for typoids and morphisms.

Grammar (`#` starts a line comment; every section is optional except
`terms`)::

    typoid NAME {
      strictunits ;                # absorption rows default for overridden eqv
      terms a b ;
      path p : a -> b ;            # refl_a, refl_b exist implicitly
      comp p . q = r ;
      pinv p = q ;
      edge e : a ~ b ;             # eqv_a, eqv_b exist implicitly
      eqv a = e0 ;                 # designate a declared edge instead
      star e * d = c ;
      einv e = d ;
      cell e == d ;                # partition is the closure of declared pairs
      idtoeqv p => e ;             # refl rows are implicit
    }
    morphism NAME : SRC -> DST {
      term a |-> b ;  path p |-> q ;  edge e |-> d ;
    }

Rows the laws force are materialized before validation: comp and pinv rows
involving refl, idtoeqv rows for refl, and absorption star/einv rows for a
designated eqv edge the parser created itself (or, with `strictunits ;`,
any designated eqv edge).  A declared row always wins over a default.
Remaining gaps are missing-entry diagnostics (E-codes), which are distinct
from law violations (L-codes, produced by the validators).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .constructions import _renumber
from .model import CellPartition, EquivalenceLayer, FiniteGroupoid, Typoid, _out_index
from .morphisms import TypoidMorphism

# E-code table
E_LEX = "E100"        # unexpected character
E_SYNTAX = "E101"     # unexpected token
E_DUPLICATE = "E102"  # duplicate name
E_UNKNOWN = "E103"    # unknown identifier
E_ENDPOINTS = "E104"  # endpoint mismatch
E_MISSING = "E105"    # missing mandatory table entry
E_CONFLICT = "E106"   # conflicting duplicate table entry
E_UNRESOLVED = "E107" # unresolved typoid reference


@dataclass(frozen=True)
class Span:
    line: int
    column: int
    length: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    span: Span
    code: str
    message: str


@dataclass(frozen=True)
class TypoidEntry:
    typoid: Typoid
    term_names: tuple[str, ...]
    path_names: tuple[str, ...]
    edge_names: tuple[str, ...]
    span: Span

    @property
    def name(self) -> str:
        return self.typoid.name


@dataclass(frozen=True)
class MorphismEntry:
    morphism: TypoidMorphism
    source_name: str
    target_name: str
    span: Span

    @property
    def name(self) -> str:
        return self.morphism.name


@dataclass(frozen=True)
class Document:
    entries: tuple[TypoidEntry | MorphismEntry, ...]

    def typoid_entries(self) -> dict[str, TypoidEntry]:
        return {e.name: e for e in self.entries if isinstance(e, TypoidEntry)}

    def morphism_entries(self) -> dict[str, MorphismEntry]:
        return {e.name: e for e in self.entries if isinstance(e, MorphismEntry)}

    def structurally_equal(self, other: "Document") -> bool:
        if len(self.entries) != len(other.entries):
            return False
        for mine, theirs in zip(self.entries, other.entries):
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


@dataclass(frozen=True)
class ParseResult:
    document: Document | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.document is not None


# ---------------------------------------------------------------------------
# tokenizer

class _Token(NamedTuple):
    kind: str  # "ident" | "punct" | "eof"
    text: str
    line: int
    column: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, max(len(self.text), 1))


# Every match is the whitespace before one item, so one finditer pass covers
# the text; `eof` takes the trailing whitespace and ends the pass, and `bad`
# is any other single non-space character.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<comment>#[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>\|->|->|==|=>|[{};:.=*~])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>[^ \t\r\n])"
    r")"
)


def _tokenize(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0  # columns count from the offset of the line start
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ident" or kind == "punct":
            value = m.group(kind)
            tokens.append(_Token(kind, value, line, m.end() - len(value) - line_start + 1))
        elif kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "bad":
            pos = m.end() - 1
            diagnostics.append(
                Diagnostic(
                    "error",
                    Span(line, pos - line_start + 1, 1),
                    E_LEX,
                    f"unexpected character {text[pos]!r}",
                )
            )
        elif kind == "eof":
            tokens.append(_Token("eof", "", line, m.end() - line_start + 1))
            break
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# parser

_TYPOID_KEYWORDS = {
    "strictunits", "terms", "path", "comp", "pinv",
    "edge", "eqv", "star", "einv", "cell", "idtoeqv",
}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, span: Span, code: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", span, code, message))

    def expect(self, text: str) -> _Token | None:
        tok = self.peek()
        if tok.text == text and tok.kind != "eof":
            return self.advance()
        self.error(tok.span, E_SYNTAX, f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return None

    def expect_ident(self, what: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "ident":
            return self.advance()
        self.error(tok.span, E_SYNTAX, f"expected {what}, found {tok.text or 'end of input'!r}")
        return None

    def skip_statement(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "eof" or tok.text == "}":
                return
            self.advance()
            if tok.text == ";":
                return

    def skip_block(self) -> None:
        depth = 0
        while True:
            tok = self.advance()
            if tok.kind == "eof":
                return
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
                if depth <= 0:
                    return


def parse(text: str) -> ParseResult:
    """Parse a document; on errors the diagnostics describe every problem
    found and no document is produced."""
    tokens, lex_diags = _tokenize(text)
    parser = _Parser(tokens)
    parser.diagnostics.extend(lex_diags)
    raw_typoids: list[_RawTypoid] = []
    raw_morphisms: list[_RawMorphism] = []
    order: list[tuple[str, str]] = []  # (kind, name) in declaration order
    names_seen: dict[str, Span] = {}

    while parser.peek().kind != "eof":
        tok = parser.peek()
        if tok.text == "typoid":
            parser.advance()
            raw = _parse_typoid_block(parser)
            if raw is not None:
                if raw.name in names_seen:
                    parser.error(raw.span, E_DUPLICATE, f"duplicate declaration name {raw.name!r}")
                else:
                    names_seen[raw.name] = raw.span
                    raw_typoids.append(raw)
                    order.append(("typoid", raw.name))
        elif tok.text == "morphism":
            parser.advance()
            raw = _parse_morphism_block(parser)
            if raw is not None:
                if raw.name in names_seen:
                    parser.error(raw.span, E_DUPLICATE, f"duplicate declaration name {raw.name!r}")
                else:
                    names_seen[raw.name] = raw.span
                    raw_morphisms.append(raw)
                    order.append(("morphism", raw.name))
        else:
            parser.error(tok.span, E_SYNTAX, f"expected 'typoid' or 'morphism', found {tok.text!r}")
            parser.advance()

    entries_by_name: dict[str, TypoidEntry | MorphismEntry] = {}
    for raw in raw_typoids:
        entry = _assemble_typoid(raw, parser.diagnostics)
        if entry is not None:
            entries_by_name[raw.name] = entry
    typoid_entries = {
        name: e for name, e in entries_by_name.items() if isinstance(e, TypoidEntry)
    }
    for raw in raw_morphisms:
        entry = _assemble_morphism(raw, typoid_entries, parser.diagnostics)
        if entry is not None:
            entries_by_name[raw.name] = entry

    diagnostics = tuple(
        sorted(parser.diagnostics, key=lambda d: (d.span.line, d.span.column, d.code))
    )
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(document=None, diagnostics=diagnostics)
    entries = tuple(entries_by_name[name] for _, name in order)
    return ParseResult(document=Document(entries=entries), diagnostics=diagnostics)


@dataclass
class _RawTypoid:
    name: str
    span: Span
    strictunits: bool
    saw_terms: bool
    terms: list[_Token]
    paths: list[tuple[_Token, _Token, _Token]]                  # name, src, dst
    comps: list[tuple[_Token, _Token, _Token]]                  # p, q, r
    pinvs: list[tuple[_Token, _Token]]
    edges: list[tuple[_Token, _Token, _Token]]
    eqv_overrides: list[tuple[_Token, _Token]]
    stars: list[tuple[_Token, _Token, _Token]]
    einvs: list[tuple[_Token, _Token]]
    cells: list[tuple[_Token, _Token]]
    idtoeqvs: list[tuple[_Token, _Token]]


@dataclass
class _RawMorphism:
    name: str
    span: Span
    source: _Token
    target: _Token
    term_rows: list[tuple[_Token, _Token]]
    path_rows: list[tuple[_Token, _Token]]
    edge_rows: list[tuple[_Token, _Token]]


def _parse_typoid_block(p: _Parser) -> _RawTypoid | None:
    name_tok = p.expect_ident("a typoid name")
    if name_tok is None or p.expect("{") is None:
        p.skip_block()
        return None
    raw = _RawTypoid(
        name=name_tok.text, span=name_tok.span, strictunits=False, saw_terms=False,
        terms=[], paths=[], comps=[], pinvs=[], edges=[],
        eqv_overrides=[], stars=[], einvs=[], cells=[], idtoeqvs=[],
    )
    while True:
        tok = p.peek()
        if tok.text == "}":
            p.advance()
            return raw
        if tok.kind == "eof":
            p.error(tok.span, E_SYNTAX, "unterminated typoid block")
            return raw
        if tok.kind != "ident" or tok.text not in _TYPOID_KEYWORDS:
            p.error(tok.span, E_SYNTAX, f"expected a typoid statement, found {tok.text!r}")
            p.advance()
            p.skip_statement()
            continue
        p.advance()
        before = len(p.diagnostics)
        if tok.text == "strictunits":
            if p.expect(";"):
                raw.strictunits = True
        elif tok.text == "terms":
            raw.saw_terms = True
            while p.peek().kind == "ident":
                raw.terms.append(p.advance())
            p.expect(";")
        elif tok.text == "path":
            n = p.expect_ident("a path name")
            ok = n and p.expect(":")
            a = p.expect_ident("a term name") if ok else None
            ok = a and p.expect("->")
            b = p.expect_ident("a term name") if ok else None
            if b and p.expect(";"):
                raw.paths.append((n, a, b))
        elif tok.text == "comp":
            x = p.expect_ident("a path name")
            ok = x and p.expect(".")
            y = p.expect_ident("a path name") if ok else None
            ok = y and p.expect("=")
            z = p.expect_ident("a path name") if ok else None
            if z and p.expect(";"):
                raw.comps.append((x, y, z))
        elif tok.text == "pinv":
            x = p.expect_ident("a path name")
            ok = x and p.expect("=")
            y = p.expect_ident("a path name") if ok else None
            if y and p.expect(";"):
                raw.pinvs.append((x, y))
        elif tok.text == "edge":
            n = p.expect_ident("an edge name")
            ok = n and p.expect(":")
            a = p.expect_ident("a term name") if ok else None
            ok = a and p.expect("~")
            b = p.expect_ident("a term name") if ok else None
            if b and p.expect(";"):
                raw.edges.append((n, a, b))
        elif tok.text == "eqv":
            a = p.expect_ident("a term name")
            ok = a and p.expect("=")
            e = p.expect_ident("an edge name") if ok else None
            if e and p.expect(";"):
                raw.eqv_overrides.append((a, e))
        elif tok.text == "star":
            x = p.expect_ident("an edge name")
            ok = x and p.expect("*")
            y = p.expect_ident("an edge name") if ok else None
            ok = y and p.expect("=")
            z = p.expect_ident("an edge name") if ok else None
            if z and p.expect(";"):
                raw.stars.append((x, y, z))
        elif tok.text == "einv":
            x = p.expect_ident("an edge name")
            ok = x and p.expect("=")
            y = p.expect_ident("an edge name") if ok else None
            if y and p.expect(";"):
                raw.einvs.append((x, y))
        elif tok.text == "cell":
            x = p.expect_ident("an edge name")
            ok = x and p.expect("==")
            y = p.expect_ident("an edge name") if ok else None
            if y and p.expect(";"):
                raw.cells.append((x, y))
        elif tok.text == "idtoeqv":
            x = p.expect_ident("a path name")
            ok = x and p.expect("=>")
            y = p.expect_ident("an edge name") if ok else None
            if y and p.expect(";"):
                raw.idtoeqvs.append((x, y))
        if len(p.diagnostics) > before:
            p.skip_statement()


def _parse_morphism_block(p: _Parser) -> _RawMorphism | None:
    name_tok = p.expect_ident("a morphism name")
    ok = name_tok and p.expect(":")
    src = p.expect_ident("a source typoid name") if ok else None
    ok = src and p.expect("->")
    dst = p.expect_ident("a target typoid name") if ok else None
    if not dst or p.expect("{") is None:
        p.skip_block()
        return None
    raw = _RawMorphism(
        name=name_tok.text, span=name_tok.span, source=src, target=dst,
        term_rows=[], path_rows=[], edge_rows=[],
    )
    rows = {"term": raw.term_rows, "path": raw.path_rows, "edge": raw.edge_rows}
    while True:
        tok = p.peek()
        if tok.text == "}":
            p.advance()
            return raw
        if tok.kind == "eof":
            p.error(tok.span, E_SYNTAX, "unterminated morphism block")
            return raw
        if tok.text not in rows:
            p.error(tok.span, E_SYNTAX, f"expected 'term', 'path' or 'edge', found {tok.text!r}")
            p.advance()
            p.skip_statement()
            continue
        p.advance()
        before = len(p.diagnostics)
        x = p.expect_ident("a name")
        ok = x and p.expect("|->")
        y = p.expect_ident("a name") if ok else None
        if y and p.expect(";"):
            rows[tok.text].append((x, y))
        if len(p.diagnostics) > before:
            p.skip_statement()


def _assemble_typoid(raw: _RawTypoid, diagnostics: list[Diagnostic]) -> TypoidEntry | None:
    errors_before = len(diagnostics)

    def error(span: Span, code: str, message: str) -> None:
        diagnostics.append(Diagnostic("error", span, code, message))

    if not raw.saw_terms:
        error(raw.span, E_MISSING, f"typoid {raw.name!r} has no terms statement")
    term_id: dict[str, int] = {}
    term_names: list[str] = []
    for tok in raw.terms:
        if tok.text in term_id:
            error(tok.span, E_DUPLICATE, f"duplicate term {tok.text!r}")
            continue
        term_id[tok.text] = len(term_names)
        term_names.append(tok.text)
    n_terms = len(term_names)

    def resolve(table: dict[str, int], tok: _Token, what: str) -> int | None:
        got = table.get(tok.text)
        if got is None:
            error(tok.span, E_UNKNOWN, f"unknown {what} {tok.text!r}")
        return got

    # paths: refl first, then declarations
    path_id: dict[str, int] = {}
    path_names: list[str] = []
    path_src: list[int] = []
    path_dst: list[int] = []
    for x, name in enumerate(term_names):
        path_id[f"refl_{name}"] = x
        path_names.append(f"refl_{name}")
        path_src.append(x)
        path_dst.append(x)
    for n, a, b in raw.paths:
        if n.text in path_id:
            error(n.span, E_DUPLICATE, f"duplicate path {n.text!r}")
            continue
        src = resolve(term_id, a, "term")
        dst = resolve(term_id, b, "term")
        if src is None or dst is None:
            continue
        path_id[n.text] = len(path_names)
        path_names.append(n.text)
        path_src.append(src)
        path_dst.append(dst)
    refl = tuple(range(n_terms))
    n_paths = len(path_names)

    comp: dict[tuple[int, int], int] = {}
    declared_comp: set[tuple[int, int]] = set()
    for xt, yt, zt in raw.comps:
        x, y, z = resolve(path_id, xt, "path"), resolve(path_id, yt, "path"), resolve(path_id, zt, "path")
        if x is None or y is None or z is None:
            continue
        if path_dst[x] != path_src[y]:
            error(
                yt.span, E_ENDPOINTS,
                f"paths {xt.text!r} and {yt.text!r} do not compose: "
                f"{xt.text!r} ends at {term_names[path_dst[x]]!r} but {yt.text!r} starts at {term_names[path_src[y]]!r}",
            )
            continue
        if (x, y) in declared_comp:
            error(xt.span, E_CONFLICT, f"comp of {xt.text!r} and {yt.text!r} declared twice")
            continue
        declared_comp.add((x, y))
        comp[(x, y)] = z
    for q in range(n_paths):
        for x in range(n_terms):
            if path_src[q] == x:
                comp.setdefault((refl[x], q), q)
            if path_dst[q] == x:
                comp.setdefault((q, refl[x]), q)
    paths_from = _out_index(path_src, n_terms)
    for x in range(n_paths):
        for y in paths_from[path_dst[x]]:
            if (x, y) not in comp:
                error(
                    raw.span, E_MISSING,
                    f"missing comp entry for {path_names[x]!r} . {path_names[y]!r} in typoid {raw.name!r}",
                )

    inv_map: dict[int, int] = {}
    for xt, yt in raw.pinvs:
        x, y = resolve(path_id, xt, "path"), resolve(path_id, yt, "path")
        if x is None or y is None:
            continue
        if x in inv_map:
            error(xt.span, E_CONFLICT, f"pinv of {xt.text!r} declared twice")
            continue
        inv_map[x] = y
    for x in range(n_terms):
        inv_map.setdefault(refl[x], refl[x])
    for x in range(n_paths):
        if x not in inv_map:
            error(raw.span, E_MISSING, f"missing pinv entry for {path_names[x]!r} in typoid {raw.name!r}")
            inv_map[x] = x

    # designated eqv edges: overrides are declared edges, the rest are implicit
    override_edge: dict[int, _Token] = {}
    for at, et in raw.eqv_overrides:
        a = resolve(term_id, at, "term")
        if a is None:
            continue
        if a in override_edge:
            error(at.span, E_CONFLICT, f"eqv of term {at.text!r} designated twice")
            continue
        override_edge[a] = et

    declared_edges: list[tuple[str, int, int, Span]] = []
    declared_edge_names: dict[str, tuple[int, int, Span]] = {}
    for n, a, b in raw.edges:
        if n.text in declared_edge_names:
            error(n.span, E_DUPLICATE, f"duplicate edge {n.text!r}")
            continue
        src = resolve(term_id, a, "term")
        dst = resolve(term_id, b, "term")
        if src is None or dst is None:
            continue
        declared_edge_names[n.text] = (src, dst, n.span)
        declared_edges.append((n.text, src, dst, n.span))

    edge_id: dict[str, int] = {}
    edge_names: list[str] = []
    edge_src: list[int] = []
    edge_dst: list[int] = []
    implicit_eqv: set[int] = set()
    for x, name in enumerate(term_names):
        if x in override_edge:
            et = override_edge[x]
            info = declared_edge_names.get(et.text)
            if info is None:
                error(et.span, E_UNKNOWN, f"unknown edge {et.text!r}")
                implicit_eqv.add(x)
                edge_id[f"eqv_{name}"] = x
                edge_names.append(f"eqv_{name}")
                edge_src.append(x)
                edge_dst.append(x)
                continue
            src, dst, _ = info
            if (src, dst) != (x, x):
                error(et.span, E_ENDPOINTS, f"designated eqv edge {et.text!r} is not an edge {name} ~ {name}")
                continue
            edge_id[et.text] = x
            edge_names.append(et.text)
            edge_src.append(x)
            edge_dst.append(x)
        else:
            implicit_eqv.add(x)
            if f"eqv_{name}" in declared_edge_names:
                error(
                    declared_edge_names[f"eqv_{name}"][2], E_DUPLICATE,
                    f"edge name eqv_{name} collides with the implicit designated edge",
                )
            edge_id[f"eqv_{name}"] = x
            edge_names.append(f"eqv_{name}")
            edge_src.append(x)
            edge_dst.append(x)
    for name, src, dst, span in declared_edges:
        if name in edge_id:
            continue  # an override already placed it
        edge_id[name] = len(edge_names)
        edge_names.append(name)
        edge_src.append(src)
        edge_dst.append(dst)
    eqv = tuple(range(n_terms))
    n_edges = len(edge_names)

    star: dict[tuple[int, int], int] = {}
    declared_star: set[tuple[int, int]] = set()
    for xt, yt, zt in raw.stars:
        x, y, z = resolve(edge_id, xt, "edge"), resolve(edge_id, yt, "edge"), resolve(edge_id, zt, "edge")
        if x is None or y is None or z is None:
            continue
        if edge_dst[x] != edge_src[y]:
            error(
                yt.span, E_ENDPOINTS,
                f"edges {xt.text!r} and {yt.text!r} do not compose",
            )
            continue
        if (x, y) in declared_star:
            error(xt.span, E_CONFLICT, f"star of {xt.text!r} and {yt.text!r} declared twice")
            continue
        declared_star.add((x, y))
        star[(x, y)] = z
    absorbing = {
        x for x in range(n_terms) if x in implicit_eqv or raw.strictunits
    }
    for e in range(n_edges):
        if edge_src[e] in absorbing:
            star.setdefault((eqv[edge_src[e]], e), e)
        if edge_dst[e] in absorbing:
            star.setdefault((e, eqv[edge_dst[e]]), e)
    edges_from = _out_index(edge_src, n_terms)
    for x in range(n_edges):
        for y in edges_from[edge_dst[x]]:
            if (x, y) not in star:
                error(
                    raw.span, E_MISSING,
                    f"missing star entry for {edge_names[x]!r} * {edge_names[y]!r} in typoid {raw.name!r}",
                )

    einv_map: dict[int, int] = {}
    for xt, yt in raw.einvs:
        x, y = resolve(edge_id, xt, "edge"), resolve(edge_id, yt, "edge")
        if x is None or y is None:
            continue
        if x in einv_map:
            error(xt.span, E_CONFLICT, f"einv of {xt.text!r} declared twice")
            continue
        einv_map[x] = y
    for x in absorbing:
        einv_map.setdefault(eqv[x], eqv[x])
    for e in range(n_edges):
        if e not in einv_map:
            error(raw.span, E_MISSING, f"missing einv entry for {edge_names[e]!r} in typoid {raw.name!r}")
            einv_map[e] = e

    partition = CellPartition(range(n_edges))
    for xt, yt in raw.cells:
        x, y = resolve(edge_id, xt, "edge"), resolve(edge_id, yt, "edge")
        if x is None or y is None:
            continue
        if (edge_src[x], edge_dst[x]) != (edge_src[y], edge_dst[y]):
            error(yt.span, E_ENDPOINTS, f"edges {xt.text!r} and {yt.text!r} are not parallel")
            continue
        partition.union(x, y)
    labels = partition.labels()
    cell = tuple(labels[e] for e in range(n_edges))

    idtoeqv_map: dict[int, int] = {}
    for xt, yt in raw.idtoeqvs:
        x, y = resolve(path_id, xt, "path"), resolve(edge_id, yt, "edge")
        if x is None or y is None:
            continue
        if x in idtoeqv_map:
            error(xt.span, E_CONFLICT, f"idtoeqv of {xt.text!r} declared twice")
            continue
        idtoeqv_map[x] = y
    for x in range(n_terms):
        idtoeqv_map.setdefault(refl[x], eqv[x])
    for p in range(n_paths):
        if p not in idtoeqv_map:
            error(raw.span, E_MISSING, f"missing idtoeqv entry for {path_names[p]!r} in typoid {raw.name!r}")
            idtoeqv_map[p] = 0

    if len(diagnostics) > errors_before:
        return None

    typ = Typoid(
        name=raw.name,
        base=FiniteGroupoid(
            term_count=n_terms,
            path_src=tuple(path_src),
            path_dst=tuple(path_dst),
            refl=refl,
            comp=comp,
            inv=tuple(inv_map[p] for p in range(n_paths)),
        ),
        layer=EquivalenceLayer(
            term_count=n_terms,
            edge_src=tuple(edge_src),
            edge_dst=tuple(edge_dst),
            eqv=eqv,
            star=star,
            einv=tuple(einv_map[e] for e in range(n_edges)),
            cell=cell,
        ),
        idtoeqv=tuple(idtoeqv_map[p] for p in range(n_paths)),
    )
    return TypoidEntry(
        typoid=typ,
        term_names=tuple(term_names),
        path_names=tuple(path_names),
        edge_names=tuple(edge_names),
        span=raw.span,
    )


def _assemble_morphism(
    raw: _RawMorphism,
    typoids: dict[str, TypoidEntry],
    diagnostics: list[Diagnostic],
) -> MorphismEntry | None:
    errors_before = len(diagnostics)

    def error(span: Span, code: str, message: str) -> None:
        diagnostics.append(Diagnostic("error", span, code, message))

    src_entry = typoids.get(raw.source.text)
    dst_entry = typoids.get(raw.target.text)
    if src_entry is None:
        error(raw.source.span, E_UNRESOLVED, f"unresolved typoid {raw.source.text!r}")
    if dst_entry is None:
        error(raw.target.span, E_UNRESOLVED, f"unresolved typoid {raw.target.text!r}")
    if src_entry is None or dst_entry is None:
        return None
    src, dst = src_entry.typoid, dst_entry.typoid

    def index(names: tuple[str, ...]) -> dict[str, int]:
        return {n: i for i, n in enumerate(names)}

    src_terms, dst_terms = index(src_entry.term_names), index(dst_entry.term_names)
    src_paths, dst_paths = index(src_entry.path_names), index(dst_entry.path_names)
    src_edges, dst_edges = index(src_entry.edge_names), index(dst_entry.edge_names)

    def rows_to_map(
        rows, src_index, dst_index, what: str
    ) -> dict[int, int]:
        out: dict[int, int] = {}
        for xt, yt in rows:
            x = src_index.get(xt.text)
            if x is None:
                error(xt.span, E_UNKNOWN, f"unknown {what} {xt.text!r} in {raw.source.text!r}")
                continue
            y = dst_index.get(yt.text)
            if y is None:
                error(yt.span, E_UNKNOWN, f"unknown {what} {yt.text!r} in {raw.target.text!r}")
                continue
            if x in out:
                error(xt.span, E_CONFLICT, f"{what} {xt.text!r} mapped twice")
                continue
            out[x] = y
        return out

    term_map = rows_to_map(raw.term_rows, src_terms, dst_terms, "term")
    for x in range(src.term_count):
        if x not in term_map:
            error(
                raw.span, E_MISSING,
                f"missing term row for {src_entry.term_names[x]!r} in morphism {raw.name!r}",
            )
    if len(diagnostics) > errors_before:
        return None

    path_map = rows_to_map(raw.path_rows, src_paths, dst_paths, "path")
    for x in range(src.term_count):
        path_map.setdefault(src.base.refl[x], dst.base.refl[term_map[x]])
    for p in range(src.base.path_count):
        if p not in path_map:
            error(
                raw.span, E_MISSING,
                f"missing path row for {src_entry.path_names[p]!r} in morphism {raw.name!r}",
            )
    edge_map = rows_to_map(raw.edge_rows, src_edges, dst_edges, "edge")
    for x in range(src.term_count):
        edge_map.setdefault(src.layer.eqv[x], dst.layer.eqv[term_map[x]])
    for e in range(src.layer.edge_count):
        if e not in edge_map:
            error(
                raw.span, E_MISSING,
                f"missing edge row for {src_entry.edge_names[e]!r} in morphism {raw.name!r}",
            )
    if len(diagnostics) > errors_before:
        return None

    morphism = TypoidMorphism(
        name=raw.name,
        source=src,
        target=dst,
        term_map=tuple(term_map[x] for x in range(src.term_count)),
        path_map=tuple(path_map[p] for p in range(src.base.path_count)),
        edge_map=tuple(edge_map[e] for e in range(src.layer.edge_count)),
    )
    return MorphismEntry(
        morphism=morphism,
        source_name=raw.source.text,
        target_name=raw.target.text,
        span=raw.span,
    )


# ---------------------------------------------------------------------------
# serializer

def document_for(
    typoids: list[Typoid] | tuple[Typoid, ...],
    morphisms: list[TypoidMorphism] | tuple[TypoidMorphism, ...] = (),
) -> Document:
    """Build a document with generated names; inputs not in canonical id
    layout are renumbered first."""
    entries: list[TypoidEntry | MorphismEntry] = []
    by_structure: list[tuple[Typoid, str]] = []
    for t in typoids:
        if tuple(t.base.refl) != tuple(range(t.term_count)) or tuple(t.layer.eqv) != tuple(
            range(t.term_count)
        ):
            t, _, _ = _renumber(t)
        term_names = tuple(f"t{x}" for x in range(t.term_count))
        path_names = tuple(
            f"refl_t{p}" if p < t.term_count else f"p{p}" for p in range(t.base.path_count)
        )
        edge_names = tuple(
            f"eqv_t{e}" if e < t.term_count else f"e{e}" for e in range(t.layer.edge_count)
        )
        entries.append(
            TypoidEntry(
                typoid=t,
                term_names=term_names,
                path_names=path_names,
                edge_names=edge_names,
                span=Span(1, 1, 0),
            )
        )
        by_structure.append((t, t.name))
    for m in morphisms:
        src_name = dst_name = None
        for t, name in by_structure:
            if m.source.same_structure(t):
                src_name = name
            if m.target.same_structure(t):
                dst_name = name
        if src_name is None or dst_name is None:
            raise ValueError(
                f"morphism {m.name!r} references a typoid that is not part of the document"
            )
        entries.append(
            MorphismEntry(morphism=m, source_name=src_name, target_name=dst_name, span=Span(1, 1, 0))
        )
    return Document(entries=tuple(entries))


def serialize(doc: Document) -> str:
    """Canonical text: implicit refl and eqv names, full tables minus the
    rows the parser materializes, statements in id order.

    parse(serialize(doc)) is structurally equal to doc for documents whose
    typoids are in canonical id layout (all parsed and constructed ones are).
    """
    chunks: list[str] = []
    for entry in doc.entries:
        if isinstance(entry, TypoidEntry):
            chunks.append(_serialize_typoid(entry))
        else:
            chunks.append(_serialize_morphism(entry, doc))
    return "\n".join(chunks)


def _serialize_typoid(entry: TypoidEntry) -> str:
    t = entry.typoid
    base, layer = t.base, t.layer
    n = t.term_count
    if tuple(base.refl) != tuple(range(n)) or tuple(layer.eqv) != tuple(range(n)):
        raise ValueError(f"typoid {t.name!r} is not in canonical id layout; use document_for")
    tn, pn, en = entry.term_names, entry.path_names, entry.edge_names
    is_refl = lambda p: p < n
    is_eqv = lambda e: e < n
    lines = [f"typoid {t.name} {{"]
    lines.append(f"  terms {' '.join(tn)} ;" if n else "  terms ;")
    for p in range(n, base.path_count):
        lines.append(f"  path {pn[p]} : {tn[base.path_src[p]]} -> {tn[base.path_dst[p]]} ;")
    for (p, q) in sorted(base.comp):
        r = base.comp[(p, q)]
        if is_refl(p) and r == q:
            continue
        if is_refl(q) and r == p:
            continue
        lines.append(f"  comp {pn[p]} . {pn[q]} = {pn[r]} ;")
    for p in range(base.path_count):
        if is_refl(p) and base.inv[p] == p:
            continue
        lines.append(f"  pinv {pn[p]} = {pn[base.inv[p]]} ;")
    for e in range(n, layer.edge_count):
        lines.append(f"  edge {en[e]} : {tn[layer.edge_src[e]]} ~ {tn[layer.edge_dst[e]]} ;")
    for (e, d) in sorted(layer.star):
        r = layer.star[(e, d)]
        if is_eqv(e) and r == d:
            continue
        if is_eqv(d) and r == e:
            continue
        lines.append(f"  star {en[e]} * {en[d]} = {en[r]} ;")
    for e in range(layer.edge_count):
        if is_eqv(e) and layer.einv[e] == e:
            continue
        lines.append(f"  einv {en[e]} = {en[layer.einv[e]]} ;")
    for e in range(layer.edge_count):
        if layer.cell[e] != e:
            lines.append(f"  cell {en[e]} == {en[layer.cell[e]]} ;")
    for p in range(base.path_count):
        if is_refl(p) and t.idtoeqv[p] == layer.eqv[base.path_src[p]]:
            continue
        lines.append(f"  idtoeqv {pn[p]} => {en[t.idtoeqv[p]]} ;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _serialize_morphism(entry: MorphismEntry, doc: Document) -> str:
    m = entry.morphism
    typoids = doc.typoid_entries()
    src_entry = typoids[entry.source_name]
    dst_entry = typoids[entry.target_name]
    src, dst = m.source, m.target
    lines = [f"morphism {m.name} : {entry.source_name} -> {entry.target_name} {{"]
    for x in range(src.term_count):
        lines.append(
            f"  term {src_entry.term_names[x]} |-> {dst_entry.term_names[m.term_map[x]]} ;"
        )
    for p in range(src.base.path_count):
        if p < src.term_count and m.path_map[p] == dst.base.refl[m.term_map[p]]:
            continue
        lines.append(
            f"  path {src_entry.path_names[p]} |-> {dst_entry.path_names[m.path_map[p]]} ;"
        )
    for e in range(src.layer.edge_count):
        if e < src.term_count and m.edge_map[e] == dst.layer.eqv[m.term_map[e]]:
            continue
        lines.append(
            f"  edge {src_entry.edge_names[e]} |-> {dst_entry.edge_names[m.edge_map[e]]} ;"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
