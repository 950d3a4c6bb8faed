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
from law violations (L-codes, produced by the validators).  Missing comp
and star rows are listed up to a fixed number per table, then counted.

`parse` reads a well-formed document one statement at a time, each with a
single match of `_STATEMENT_RE`; its rows keep names and the offset of
their statement, and a span is made only when a diagnostic or an entry
needs one.  At the first statement that pattern rejects, the whole text
goes to the token parser instead (`_tokenize` and `_Parser`), which words
the E100/E101 diagnostics.  Both fill the same rows for one assembler, and
the tests hold the statement pass to the token parser's results.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .constructions import _canonical, _renumber
from .model import (
    _EDGE_WORDS,
    _PATH_WORDS,
    CellPartition,
    EquivalenceLayer,
    FiniteGroupoid,
    Typoid,
    _Level,
    _Table,
    _Words,
)
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
    offset: int

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
            start = m.end() - len(value)
            tokens.append(_Token(kind, value, line, start - line_start + 1, start))
        elif kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "bad":
            pos = m.end() - 1
            diagnostics.append(
                Diagnostic(Span(line, pos - line_start + 1, 1), E_LEX, f"unexpected character {text[pos]!r}")
            )
        elif kind == "eof":
            tokens.append(_Token("eof", "", line, m.end() - line_start + 1, m.end()))
            break
    return tokens, diagnostics


def _locator(text: str) -> Callable[[int, int], Span]:
    """`locate(at, i)` is the span of identifier `i` (the keyword is 0) of
    the statement at offset `at`.  Rows keep only that offset, and the
    statement is tokenized again when a diagnostic or an entry needs a span."""
    line_starts = [0]  # filled up to the furthest offset asked for

    def locate(at: int, i: int) -> Span:
        for m in _TOKEN_RE.finditer(text, at):
            if m.lastgroup == "ident":
                if i == 0:
                    break
                i -= 1
        name = m.group("ident")
        start = m.end() - len(name)
        while line_starts[-1] <= start and (nl := text.find("\n", line_starts[-1])) >= 0:
            line_starts.append(nl + 1)
        line = bisect_right(line_starts, start)
        return Span(line, start - line_starts[line - 1] + 1, len(name))

    return locate


# ---------------------------------------------------------------------------
# statements

# Each row statement: its keyword, then what each name must be, alternating
# with the punctuation between names.  The token parser words its E101
# diagnostics from this; the statement pass accepts exactly this punctuation.
_TYPOID_STATEMENTS = {
    "path": ("a path name", ":", "a term name", "->", "a term name"),
    "comp": ("a path name", ".", "a path name", "=", "a path name"),
    "pinv": ("a path name", "=", "a path name"),
    "edge": ("an edge name", ":", "a term name", "~", "a term name"),
    "eqv": ("a term name", "=", "an edge name"),
    "star": ("an edge name", "*", "an edge name", "=", "an edge name"),
    "einv": ("an edge name", "=", "an edge name"),
    "cell": ("an edge name", "==", "an edge name"),
    "idtoeqv": ("a path name", "=>", "an edge name"),
}
_MORPHISM_STATEMENTS = dict.fromkeys(("term", "path", "edge"), ("a name", "|->", "a name"))
_HEADERS = {
    "typoid": ("a typoid name",),
    "morphism": ("a morphism name", ":", "a source typoid name", "->", "a target typoid name"),
}


@dataclass
class _RawTypoid:
    name: str
    at: int  # offset of the block header; the name is its identifier 1
    strictunits: bool = False
    terms: list[tuple[list[str], int]] = field(default_factory=list)  # one per statement
    # keyword -> rows (name, ..., offset of the statement); the name at index
    # k of a row is identifier k + 1 of its statement
    rows: dict[str, list[tuple]] = field(default_factory=lambda: {k: [] for k in _TYPOID_STATEMENTS})


@dataclass
class _RawMorphism:
    name: str
    source: str
    target: str
    at: int  # offset of the block header: identifiers 1, 2, 3 are the names
    rows: dict[str, list[tuple]] = field(default_factory=lambda: {k: [] for k in _MORPHISM_STATEMENTS})


def parse(text: str) -> ParseResult:
    """Parse a document; on errors the diagnostics describe every problem
    found and no document is produced."""
    blocks = _scan(text)
    if blocks is None:
        return _assemble(*_parse_tokens(text), _locator(text))
    return _assemble(blocks, [], _locator(text))


_W = r"[ \t\r\n]*"
_NAME = r"([A-Za-z_][A-Za-z0-9_]*)"
_PUNCT = r"(\|->|->|==|=>|[.=*~:])"  # longest first, as in _TOKEN_RE
_END = r"(?![A-Za-z0-9_])"
# Blank space and comments, then one whole statement.  Each comment runs to
# the end of its line and each name of `terms` follows blank space, so no
# text matches two ways and a statement that fails, fails in linear time.
_STATEMENT_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*(?:\n[ \t\r\n]*|\Z))*(?:"
    rf"([a-z]+){_END}{_W}{_NAME}{_W}{_PUNCT}{_W}{_NAME}(?:{_W}{_PUNCT}{_W}{_NAME})?{_W};"
    rf"|terms{_END}((?:[ \t\r\n]+[A-Za-z_][A-Za-z0-9_]*)*){_W};"
    r"|(\}|\Z|strictunits[ \t\r\n]*;)"
    rf"|typoid{_END}{_W}{_NAME}{_W}\{{"
    rf"|morphism{_END}{_W}{_NAME}{_W}:{_W}{_NAME}{_W}->{_W}{_NAME}{_W}\{{"
    r")"
)
# keyword -> its punctuation as the two groups of _STATEMENT_RE read it
_TYPOID_PUNCTS = {k: (*s[1::2], None)[:2] for k, s in _TYPOID_STATEMENTS.items()}
_MORPHISM_PUNCTS = {k: (*s[1::2], None)[:2] for k, s in _MORPHISM_STATEMENTS.items()}


def _scan(text: str) -> list[_RawTypoid | _RawMorphism] | None:
    """The blocks of `text`, one match of _STATEMENT_RE per statement, or
    None at the first statement that is not well formed: such a text goes
    to the token parser, which words the diagnostics."""
    blocks: list[_RawTypoid | _RawMorphism] = []
    raw = None
    rows: dict[str, list[tuple]] = {}
    puncts: dict[str, tuple[str, str | None]] = {}  # of the open block's keywords
    pos = 0
    match = _STATEMENT_RE.match
    while (m := match(text, pos)) is not None:
        kw, x, p, y, q, z, terms, word, typoid, morphism, source, target = m.groups()
        if kw is not None:
            if puncts.get(kw) != (p, q):
                return None
            rows[kw].append((x, y, pos) if z is None else (x, y, z, pos))
        elif terms is not None:
            if puncts is not _TYPOID_PUNCTS:
                return None
            raw.terms.append((terms.split(), pos))
        elif word is None:  # a block header
            if raw is not None:
                return None
            if typoid is not None:
                raw = _RawTypoid(typoid, pos)
                rows, puncts = raw.rows, _TYPOID_PUNCTS
            else:
                raw = _RawMorphism(morphism, source, target, pos)
                rows, puncts = raw.rows, _MORPHISM_PUNCTS
        elif word == "}":
            if raw is None:
                return None
            blocks.append(raw)
            raw, rows, puncts = None, {}, {}
        elif word:  # strictunits
            if puncts is not _TYPOID_PUNCTS:
                return None
            raw.strictunits = True
        else:  # end of text
            return blocks if raw is None else None
        pos = m.end()
    return None


# ---------------------------------------------------------------------------
# token parser: the reference for the statement pass, and the only code
# that words E101 diagnostics

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
        self.diagnostics.append(Diagnostic(span, code, message))

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

    def expect_names(self, shape: tuple[str, ...], end: str = ";") -> list[str] | None:
        """The names of a statement shaped like `shape`, then `end`; None
        after the first token that does not fit."""
        names = []
        for k, want in enumerate(shape):
            tok = self.expect(want) if k % 2 else self.expect_ident(want)
            if tok is None:
                return None
            if k % 2 == 0:
                names.append(tok.text)
        return names if self.expect(end) else None

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


def _parse_tokens(text: str) -> tuple[list[_RawTypoid | _RawMorphism], list[Diagnostic]]:
    tokens, lex_diags = _tokenize(text)
    parser = _Parser(tokens)
    parser.diagnostics.extend(lex_diags)
    blocks: list[_RawTypoid | _RawMorphism] = []
    while parser.peek().kind != "eof":
        tok = parser.advance()
        if tok.text not in _HEADERS:
            parser.error(tok.span, E_SYNTAX, f"expected 'typoid' or 'morphism', found {tok.text!r}")
            continue
        header = parser.expect_names(_HEADERS[tok.text], "{")
        if header is None:
            parser.skip_block()
        elif tok.text == "typoid":
            blocks.append(_parse_block(parser, _RawTypoid(header[0], tok.offset)))
        else:
            blocks.append(_parse_block(parser, _RawMorphism(*header, tok.offset)))
    return blocks, parser.diagnostics


def _parse_block(p: _Parser, raw: _RawTypoid | _RawMorphism) -> _RawTypoid | _RawMorphism:
    """The statements of a block after its `{`, and its `}`."""
    typoid = isinstance(raw, _RawTypoid)
    statements = _TYPOID_STATEMENTS if typoid else _MORPHISM_STATEMENTS
    while (tok := p.advance()).text != "}":
        if tok.kind == "eof":
            p.error(tok.span, E_SYNTAX, f"unterminated {'typoid' if typoid else 'morphism'} block")
            break
        before = len(p.diagnostics)
        if tok.text in statements:
            names = p.expect_names(statements[tok.text])
            if names is not None:
                raw.rows[tok.text].append((*names, tok.offset))
        elif typoid and tok.text == "strictunits":
            if p.expect(";"):
                raw.strictunits = True
        elif typoid and tok.text == "terms":
            names = []
            while p.peek().kind == "ident":
                names.append(p.advance().text)
            raw.terms.append((names, tok.offset))
            p.expect(";")
        else:
            expected = "a typoid statement" if typoid else "'term', 'path' or 'edge'"
            p.error(tok.span, E_SYNTAX, f"expected {expected}, found {tok.text!r}")
        if len(p.diagnostics) > before:
            p.skip_statement()
    return raw


# ---------------------------------------------------------------------------
# assembly: blocks from either parser become entries

# E105 rows listed per comp or star table of one typoid; one more diagnostic
# counts the rest, so a table declared without rows gets a bounded report.
_MISSING_SHOWN = 100


def _assemble(
    blocks: list[_RawTypoid | _RawMorphism],
    diagnostics: list[Diagnostic],
    locate: Callable[[int, int], Span],
) -> ParseResult:
    kept: dict[str, _RawTypoid | _RawMorphism] = {}  # by name, in declaration order
    for raw in blocks:
        if raw.name in kept:
            message = f"duplicate declaration name {raw.name!r}"
            diagnostics.append(Diagnostic(locate(raw.at, 1), E_DUPLICATE, message))
        else:
            kept[raw.name] = raw

    typoid_entries: dict[str, TypoidEntry] = {}
    for raw in kept.values():
        if isinstance(raw, _RawTypoid):
            entry = _assemble_typoid(raw, locate, diagnostics)
            if entry is not None:
                typoid_entries[raw.name] = entry
    entries_by_name: dict[str, TypoidEntry | MorphismEntry] = dict(typoid_entries)
    for raw in kept.values():
        if isinstance(raw, _RawMorphism):
            entry = _assemble_morphism(raw, typoid_entries, locate, diagnostics)
            if entry is not None:
                entries_by_name[raw.name] = entry

    ordered = tuple(sorted(diagnostics, key=lambda d: (d.span.line, d.span.column, d.code)))
    if ordered:
        return ParseResult(document=None, diagnostics=ordered)
    entries = tuple(entries_by_name[name] for name in kept)
    return ParseResult(document=Document(entries=entries), diagnostics=ordered)


class _Ids(NamedTuple):
    """A level under assembly: the id, name and endpoints of each path or
    edge declared so far.  The unit of term x is id x."""

    words: _Words
    ids: dict[str, int]
    names: list[str]
    src: list[int]
    dst: list[int]

    def add(self, name: str, src: int, dst: int) -> None:
        """Declare `name` with the next id, its position in the lists."""
        self.ids[name] = len(self.names)
        self.names.append(name)
        self.src.append(src)
        self.dst.append(dst)


def _assemble_typoid(
    raw: _RawTypoid, locate: Callable[[int, int], Span], diagnostics: list[Diagnostic]
) -> TypoidEntry | None:
    errors_before = len(diagnostics)
    span = locate(raw.at, 1)

    def error(where: Span, code: str, message: str) -> None:
        diagnostics.append(Diagnostic(where, code, message))

    if not raw.terms:
        error(span, E_MISSING, f"typoid {raw.name!r} has no terms statement")
    term_id: dict[str, int] = {}
    term_names: list[str] = []
    for names, at in raw.terms:
        for i, name in enumerate(names, 1):
            if name in term_id:
                error(locate(at, i), E_DUPLICATE, f"duplicate term {name!r}")
                continue
            term_id[name] = len(term_names)
            term_names.append(name)
    n_terms = len(term_names)

    def unknown(table: dict[str, int], row: tuple, what: str, first: int = 0, stop: int = -1) -> None:
        """An E103 for each name of row[first:stop] that `table` lacks."""
        for k, name in enumerate(row[first:stop], first):
            if name not in table:
                error(locate(row[-1], k + 1), E_UNKNOWN, f"unknown {what} {name!r}")

    def declared(keyword: str, taken) -> dict[str, tuple[int, int, int]]:
        """name -> (src, dst, statement offset) of each `keyword` row whose
        name is neither taken nor declared before and whose terms exist."""
        out: dict[str, tuple[int, int, int]] = {}
        for row in raw.rows[keyword]:
            name, at = row[0], row[-1]
            if name in taken or name in out:
                error(locate(at, 1), E_DUPLICATE, f"duplicate {keyword} {name!r}")
                continue
            try:
                out[name] = (term_id[row[1]], term_id[row[2]], at)
            except KeyError:
                unknown(term_id, row, "term", 1)
        return out

    def compose(level: _Ids, absorbing) -> _Table:
        """A level's composition rows (E103, E104, E106), then the rows in
        which the unit of an `absorbing` term absorbs; E105 for the rest."""
        w, ids, src, dst = level.words, level.ids, level.src, level.dst
        table = _Table(tuple(src), tuple(dst), n_terms)
        flat, start, pos = table.flat, table.start, table.pos  # pair (x, y) sits at start[x] + pos[y]
        for row in raw.rows[w.comp]:
            xn, yn, zn, at = row
            try:
                x, y, z = ids[xn], ids[yn], ids[zn]
            except KeyError:
                unknown(ids, row, w.item)
                continue
            if dst[x] != src[y]:
                where = w.apart.format(xn, term_names[dst[x]], yn, term_names[src[y]])
                error(locate(at, 2), E_ENDPOINTS, f"{w.item}s {xn!r} and {yn!r} do not compose{where}")
                continue
            i = start[x] + pos[y]
            if flat[i] >= 0:
                error(locate(at, 1), E_CONFLICT, f"{w.comp} of {xn!r} and {yn!r} declared twice")
                continue
            flat[i] = z
        for q in range(len(src)):
            for unit, i in ((src[q], start[src[q]] + pos[q]), (dst[q], start[q] + pos[dst[q]])):
                if unit in absorbing and flat[i] < 0:
                    flat[i] = q
        missing, pairs = flat.count(-1), table.missing()
        names = level.names
        for x, y in islice(pairs, min(missing, _MISSING_SHOWN)):
            error(
                span, E_MISSING,
                f"missing {w.comp} entry for {names[x]!r} {w.op} {names[y]!r} in typoid {raw.name!r}",
            )
        if missing > _MISSING_SHOWN:
            error(
                span, E_MISSING,
                f"{missing - _MISSING_SHOWN} more missing {w.comp} entries in typoid {raw.name!r}",
            )
        return table

    def assign(keyword: str, level: _Ids, target: _Ids, defaults) -> tuple[int, ...]:
        """One id of `target` per id of `level` from the `keyword` rows (E103,
        E106), then id x for x in `defaults`; E105 for the rest."""
        table: dict[int, int] = {}
        for row in raw.rows[keyword]:
            try:
                x, y = level.ids[row[0]], target.ids[row[1]]
            except KeyError:
                unknown(level.ids, row, level.words.item, 0, 1)
                unknown(target.ids, row, target.words.item, 1)
                continue
            if x in table:
                error(locate(row[-1], 1), E_CONFLICT, f"{keyword} of {row[0]!r} declared twice")
                continue
            table[x] = y
        for x in defaults:
            table.setdefault(x, x)
        for i, name in enumerate(level.names):
            if i not in table:
                error(span, E_MISSING, f"missing {keyword} entry for {name!r} in typoid {raw.name!r}")
        return tuple(table.get(i, i) for i in range(len(level.names)))

    # paths: refl first, then declarations
    paths = _Ids(_PATH_WORDS, {}, [], [], [])
    for x, name in enumerate(term_names):
        paths.add(f"refl_{name}", x, x)
    for name, (src, dst, _) in declared("path", paths.ids).items():
        paths.add(name, src, dst)
    all_terms = range(n_terms)
    comp = compose(paths, all_terms)
    pinv = assign("pinv", paths, paths, all_terms)

    # designated eqv edges: overrides are declared edges, the rest are implicit
    override_edge: dict[int, tuple[str, int]] = {}  # term -> (edge name, statement offset)
    for row in raw.rows["eqv"]:
        a = term_id.get(row[0])
        if a is None:
            unknown(term_id, row, "term", 0, 1)
            continue
        if a in override_edge:
            error(locate(row[-1], 1), E_CONFLICT, f"eqv of term {row[0]!r} designated twice")
            continue
        override_edge[a] = row[1:]
    declared_edges = declared("edge", ())

    edges = _Ids(_EDGE_WORDS, {}, [], [], [])
    implicit_eqv: set[int] = set()
    for x, name in enumerate(term_names):
        if x in override_edge:
            en, at = override_edge[x]
            info = declared_edges.get(en)
            if info is None:
                error(locate(at, 2), E_UNKNOWN, f"unknown edge {en!r}")
            elif info[:2] != (x, x):
                error(locate(at, 2), E_ENDPOINTS, f"designated eqv edge {en!r} is not an edge {name} ~ {name}")
            else:
                edges.add(en, x, x)
                continue
        if f"eqv_{name}" in declared_edges:
            error(
                locate(declared_edges[f"eqv_{name}"][2], 1), E_DUPLICATE,
                f"edge name eqv_{name} collides with the implicit designated edge",
            )
        implicit_eqv.add(x)
        edges.add(f"eqv_{name}", x, x)
    for name, (src, dst, _) in declared_edges.items():
        if name not in edges.ids:  # else an override already placed it
            edges.add(name, src, dst)
    absorbing = all_terms if raw.strictunits else implicit_eqv
    star = compose(edges, absorbing)
    einv = assign("einv", edges, edges, absorbing)

    n_edges = len(edges.names)
    partition = CellPartition(range(n_edges))
    for row in raw.rows["cell"]:
        try:
            x, y = edges.ids[row[0]], edges.ids[row[1]]
        except KeyError:
            unknown(edges.ids, row, "edge")
            continue
        if (edges.src[x], edges.dst[x]) != (edges.src[y], edges.dst[y]):
            error(locate(row[-1], 2), E_ENDPOINTS, f"edges {row[0]!r} and {row[1]!r} are not parallel")
            continue
        partition.union(x, y)
    labels = partition.labels()
    cell = tuple(labels[e] for e in range(n_edges))

    idtoeqv = assign("idtoeqv", paths, edges, all_terms)

    if len(diagnostics) > errors_before:
        return None

    units = tuple(all_terms)
    typ = Typoid(
        name=raw.name,
        base=FiniteGroupoid(n_terms, comp.src, comp.dst, units, comp, pinv),
        layer=EquivalenceLayer(n_terms, star.src, star.dst, units, star, einv, cell),
        idtoeqv=idtoeqv,
    )
    return TypoidEntry(
        typoid=typ,
        term_names=tuple(term_names),
        path_names=tuple(paths.names),
        edge_names=tuple(edges.names),
        span=span,
    )


def _assemble_morphism(
    raw: _RawMorphism,
    typoids: dict[str, TypoidEntry],
    locate: Callable[[int, int], Span],
    diagnostics: list[Diagnostic],
) -> MorphismEntry | None:
    errors_before = len(diagnostics)

    def error(where: Span, code: str, message: str) -> None:
        diagnostics.append(Diagnostic(where, code, message))

    src_entry = typoids.get(raw.source)
    dst_entry = typoids.get(raw.target)
    if src_entry is None:
        error(locate(raw.at, 2), E_UNRESOLVED, f"unresolved typoid {raw.source!r}")
    if dst_entry is None:
        error(locate(raw.at, 3), E_UNRESOLVED, f"unresolved typoid {raw.target!r}")
    if src_entry is None or dst_entry is None:
        return None
    src, dst = src_entry.typoid, dst_entry.typoid
    span = locate(raw.at, 1)

    def rows_to_map(rows, src_names, dst_names, what: str) -> dict[int, int]:
        src_index = {n: i for i, n in enumerate(src_names)}
        dst_index = {n: i for i, n in enumerate(dst_names)}
        out: dict[int, int] = {}
        for xn, yn, at in rows:
            x = src_index.get(xn)
            if x is None:
                error(locate(at, 1), E_UNKNOWN, f"unknown {what} {xn!r} in {raw.source!r}")
                continue
            y = dst_index.get(yn)
            if y is None:
                error(locate(at, 2), E_UNKNOWN, f"unknown {what} {yn!r} in {raw.target!r}")
                continue
            if x in out:
                error(locate(at, 1), E_CONFLICT, f"{what} {xn!r} mapped twice")
                continue
            out[x] = y
        return out

    def missing(what: str, table: dict[int, int], names: tuple[str, ...]) -> None:
        for i, name in enumerate(names):
            if i not in table:
                error(span, E_MISSING, f"missing {what} row for {name!r} in morphism {raw.name!r}")

    term_map = rows_to_map(raw.rows["term"], src_entry.term_names, dst_entry.term_names, "term")
    missing("term", term_map, src_entry.term_names)
    if len(diagnostics) > errors_before:
        return None

    # paths and edges: the rows of refl paths and eqv edges default to
    # the units of the image terms
    maps = []
    for what, src_names, dst_names, src_units, dst_units in (
        ("path", src_entry.path_names, dst_entry.path_names, src.base.refl, dst.base.refl),
        ("edge", src_entry.edge_names, dst_entry.edge_names, src.layer.eqv, dst.layer.eqv),
    ):
        table = rows_to_map(raw.rows[what], src_names, dst_names, what)
        for x in range(src.term_count):
            table.setdefault(src_units[x], dst_units[term_map[x]])
        missing(what, table, src_names)
        maps.append(table)
    if len(diagnostics) > errors_before:
        return None

    path_map, edge_map = maps
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
        source_name=raw.source,
        target_name=raw.target,
        span=span,
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
        if not _canonical(t.term_count, t.base.refl, t.layer.eqv):
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


_PIECE_LINES = 8192  # the most lines of text one piece holds


def serialize(doc: Document) -> str:
    """Canonical text: implicit refl and eqv names, full tables minus the
    rows the parser materializes, statements in id order.

    parse(serialize(doc)) is structurally equal to doc for documents whose
    typoids are in canonical id layout (all parsed and constructed ones are).
    """
    pieces: list[str] = []
    serialize_to(doc, pieces.append)
    return "".join(pieces)


def serialize_to(doc: Document, emit: Callable[[str], object]) -> None:
    """Pass the text of `serialize(doc)` to `emit`, such as an open file's
    `write`, in pieces of at most `_PIECE_LINES` lines.  Composition rows,
    the one part that grows with pairs rather than ids, are made one row
    of the table at a time."""
    lines: list[str] = []
    for k, entry in enumerate(doc.entries):
        if k:
            lines.append("")  # a blank line between entries
        if isinstance(entry, TypoidEntry):
            _write_typoid(lines, entry, emit)
        else:
            _write_morphism(lines, entry, doc, emit)
    if lines:  # fewer than a piece's lines are left
        emit("\n".join(lines) + "\n")


def _spill(lines: list[str], emit) -> None:
    """Pass `lines` on in pieces of `_PIECE_LINES` while that many are held."""
    while len(lines) >= _PIECE_LINES:
        emit("\n".join(lines[:_PIECE_LINES]) + "\n")
        del lines[:_PIECE_LINES]


def _write_typoid(lines: list[str], entry: TypoidEntry, emit) -> None:
    t = entry.typoid
    base, layer, n = t.base, t.layer, t.term_count
    if not _canonical(n, base.refl, layer.eqv):
        raise ValueError(f"typoid {t.name!r} is not in canonical id layout; use document_for")
    tn, pn, en = entry.term_names, entry.path_names, entry.edge_names
    lines += (f"typoid {t.name} {{", f"  terms {' '.join(tn)} ;" if n else "  terms ;")
    _write_level(lines, base, pn, tn, emit)
    _write_level(lines, layer, en, tn, emit)
    for e in range(layer.edge_count):
        if layer.cell[e] != e:
            lines.append(f"  cell {en[e]} == {en[layer.cell[e]]} ;")
    for p in range(base.path_count):
        if p < n and t.idtoeqv[p] == layer.eqv[base.path_src[p]]:
            continue
        lines.append(f"  idtoeqv {pn[p]} => {en[t.idtoeqv[p]]} ;")
    lines.append("}")
    _spill(lines, emit)


def _write_level(lines: list[str], level: _Level, names, term_names, emit) -> None:
    """The declarations, composition rows and inverse rows of a level in
    canonical layout, minus the unit rows the parser fills in."""
    w = level.words
    item, comp, arrow, op, inv = w.item, w.comp, w.arrow, w.op, w.inv_row
    n = level.term_count  # the units are ids 0..n-1
    src, dst, table = level.src, level.dst, level.table
    for i in range(n, len(src)):
        lines.append(f"  {item} {names[i]} : {term_names[src[i]]} {arrow} {term_names[dst[i]]} ;")
    flat, start, out = table.flat, table.start, table.out
    for p, y in enumerate(dst):
        if len(lines) >= _PIECE_LINES:
            _spill(lines, emit)
        for q, r in zip(out[y], flat[start[p]:start[p + 1]]):
            if r < 0 or (p < n and r == q) or (q < n and r == p):
                continue
            lines.append(f"  {comp} {names[p]} {op} {names[q]} = {names[r]} ;")
    for i, j in enumerate(level.inv):
        if i < n and j == i:
            continue
        lines.append(f"  {inv} {names[i]} = {names[j]} ;")


def _write_morphism(lines: list[str], entry: MorphismEntry, doc: Document, emit) -> None:
    m, typoids = entry.morphism, doc.typoid_entries()
    src_entry, dst_entry = typoids[entry.source_name], typoids[entry.target_name]
    src, dst = m.source, m.target
    lines.append(f"morphism {m.name} : {entry.source_name} -> {entry.target_name} {{")
    for x in range(src.term_count):
        lines.append(f"  term {src_entry.term_names[x]} |-> {dst_entry.term_names[m.term_map[x]]} ;")
    # the rows of refl paths and eqv edges that send units to units are implicit
    for what, count, table, src_names, dst_names, dst_units in (
        ("path", src.base.path_count, m.path_map, src_entry.path_names, dst_entry.path_names, dst.base.refl),
        ("edge", src.layer.edge_count, m.edge_map, src_entry.edge_names, dst_entry.edge_names, dst.layer.eqv),
    ):
        for i in range(count):
            if i < src.term_count and table[i] == dst_units[m.term_map[i]]:
                continue
            lines.append(f"  {what} {src_names[i]} |-> {dst_names[table[i]]} ;")
    lines.append("}")
    _spill(lines, emit)
