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
                Diagnostic(
                    "error",
                    Span(line, pos - line_start + 1, 1),
                    E_LEX,
                    f"unexpected character {text[pos]!r}",
                )
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
            diagnostics.append(Diagnostic("error", locate(raw.at, 1), E_DUPLICATE, message))
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
    if any(d.severity == "error" for d in ordered):
        return ParseResult(document=None, diagnostics=ordered)
    entries = tuple(entries_by_name[name] for name in kept)
    return ParseResult(document=Document(entries=entries), diagnostics=ordered)


def _assemble_typoid(
    raw: _RawTypoid, locate: Callable[[int, int], Span], diagnostics: list[Diagnostic]
) -> TypoidEntry | None:
    errors_before = len(diagnostics)
    span = locate(raw.at, 1)

    def error(where: Span, code: str, message: str) -> None:
        diagnostics.append(Diagnostic("error", where, code, message))

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

    def report_missing(table, src, dst, names, what: str, op: str) -> None:
        # Missing pairs are counted, not walked, so the listing stops at the
        # cap.  After a failed eqv override a default row's pair need not
        # compose, so only composable keys count as present.
        out = _out_index(src, n_terms)
        missing = sum(len(out[d]) for d in dst) - sum(dst[x] == src[y] for x, y in table)
        pairs = ((x, y) for x in range(len(src)) for y in out[dst[x]] if (x, y) not in table)
        for x, y in islice(pairs, min(missing, _MISSING_SHOWN)):
            error(
                span, E_MISSING,
                f"missing {what} entry for {names[x]!r} {op} {names[y]!r} in typoid {raw.name!r}",
            )
        if missing > _MISSING_SHOWN:
            error(
                span, E_MISSING,
                f"{missing - _MISSING_SHOWN} more missing {what} entries in typoid {raw.name!r}",
            )

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
    for row in raw.rows["path"]:
        name, at = row[0], row[-1]
        if name in path_id:
            error(locate(at, 1), E_DUPLICATE, f"duplicate path {name!r}")
            continue
        try:
            src, dst = term_id[row[1]], term_id[row[2]]
        except KeyError:
            unknown(term_id, row, "term", 1)
            continue
        path_id[name] = len(path_names)
        path_names.append(name)
        path_src.append(src)
        path_dst.append(dst)
    refl = tuple(range(n_terms))
    n_paths = len(path_names)

    comp: dict[tuple[int, int], int] = {}
    for row in raw.rows["comp"]:
        xn, yn, zn, at = row
        try:
            x, y, z = path_id[xn], path_id[yn], path_id[zn]
        except KeyError:
            unknown(path_id, row, "path")
            continue
        if path_dst[x] != path_src[y]:
            error(
                locate(at, 2), E_ENDPOINTS,
                f"paths {xn!r} and {yn!r} do not compose: "
                f"{xn!r} ends at {term_names[path_dst[x]]!r} but {yn!r} starts at {term_names[path_src[y]]!r}",
            )
            continue
        if (x, y) in comp:
            error(locate(at, 1), E_CONFLICT, f"comp of {xn!r} and {yn!r} declared twice")
            continue
        comp[(x, y)] = z
    for q in range(n_paths):
        comp.setdefault((refl[path_src[q]], q), q)
        comp.setdefault((q, refl[path_dst[q]]), q)
    report_missing(comp, path_src, path_dst, path_names, "comp", ".")

    inv_map: dict[int, int] = {}
    for row in raw.rows["pinv"]:
        try:
            x, y = path_id[row[0]], path_id[row[1]]
        except KeyError:
            unknown(path_id, row, "path")
            continue
        if x in inv_map:
            error(locate(row[-1], 1), E_CONFLICT, f"pinv of {row[0]!r} declared twice")
            continue
        inv_map[x] = y
    for x in range(n_terms):
        inv_map.setdefault(refl[x], refl[x])
    for x in range(n_paths):
        if x not in inv_map:
            error(span, E_MISSING, f"missing pinv entry for {path_names[x]!r} in typoid {raw.name!r}")
            inv_map[x] = x

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

    declared_edges: list[tuple[str, int, int]] = []
    declared_edge_names: dict[str, tuple[int, int, int]] = {}  # name -> src, dst, statement offset
    for row in raw.rows["edge"]:
        name, at = row[0], row[-1]
        if name in declared_edge_names:
            error(locate(at, 1), E_DUPLICATE, f"duplicate edge {name!r}")
            continue
        try:
            src, dst = term_id[row[1]], term_id[row[2]]
        except KeyError:
            unknown(term_id, row, "term", 1)
            continue
        declared_edge_names[name] = (src, dst, at)
        declared_edges.append((name, src, dst))

    edge_id: dict[str, int] = {}
    edge_names: list[str] = []
    edge_src: list[int] = []
    edge_dst: list[int] = []
    implicit_eqv: set[int] = set()
    for x, name in enumerate(term_names):
        if x in override_edge:
            en, at = override_edge[x]
            info = declared_edge_names.get(en)
            if info is None:
                error(locate(at, 2), E_UNKNOWN, f"unknown edge {en!r}")
                implicit_eqv.add(x)
                edge_id[f"eqv_{name}"] = x
                edge_names.append(f"eqv_{name}")
                edge_src.append(x)
                edge_dst.append(x)
                continue
            src, dst, _ = info
            if (src, dst) != (x, x):
                error(locate(at, 2), E_ENDPOINTS, f"designated eqv edge {en!r} is not an edge {name} ~ {name}")
                continue
            edge_id[en] = x
            edge_names.append(en)
            edge_src.append(x)
            edge_dst.append(x)
        else:
            implicit_eqv.add(x)
            if f"eqv_{name}" in declared_edge_names:
                error(
                    locate(declared_edge_names[f"eqv_{name}"][2], 1), E_DUPLICATE,
                    f"edge name eqv_{name} collides with the implicit designated edge",
                )
            edge_id[f"eqv_{name}"] = x
            edge_names.append(f"eqv_{name}")
            edge_src.append(x)
            edge_dst.append(x)
    for name, src, dst in declared_edges:
        if name in edge_id:
            continue  # an override already placed it
        edge_id[name] = len(edge_names)
        edge_names.append(name)
        edge_src.append(src)
        edge_dst.append(dst)
    eqv = tuple(range(n_terms))
    n_edges = len(edge_names)

    star: dict[tuple[int, int], int] = {}
    for row in raw.rows["star"]:
        xn, yn, zn, at = row
        try:
            x, y, z = edge_id[xn], edge_id[yn], edge_id[zn]
        except KeyError:
            unknown(edge_id, row, "edge")
            continue
        if edge_dst[x] != edge_src[y]:
            error(locate(at, 2), E_ENDPOINTS, f"edges {xn!r} and {yn!r} do not compose")
            continue
        if (x, y) in star:
            error(locate(at, 1), E_CONFLICT, f"star of {xn!r} and {yn!r} declared twice")
            continue
        star[(x, y)] = z
    absorbing = {
        x for x in range(n_terms) if x in implicit_eqv or raw.strictunits
    }
    for e in range(n_edges):
        if edge_src[e] in absorbing:
            star.setdefault((eqv[edge_src[e]], e), e)
        if edge_dst[e] in absorbing:
            star.setdefault((e, eqv[edge_dst[e]]), e)
    report_missing(star, edge_src, edge_dst, edge_names, "star", "*")

    einv_map: dict[int, int] = {}
    for row in raw.rows["einv"]:
        try:
            x, y = edge_id[row[0]], edge_id[row[1]]
        except KeyError:
            unknown(edge_id, row, "edge")
            continue
        if x in einv_map:
            error(locate(row[-1], 1), E_CONFLICT, f"einv of {row[0]!r} declared twice")
            continue
        einv_map[x] = y
    for x in absorbing:
        einv_map.setdefault(eqv[x], eqv[x])
    for e in range(n_edges):
        if e not in einv_map:
            error(span, E_MISSING, f"missing einv entry for {edge_names[e]!r} in typoid {raw.name!r}")
            einv_map[e] = e

    partition = CellPartition(range(n_edges))
    for row in raw.rows["cell"]:
        try:
            x, y = edge_id[row[0]], edge_id[row[1]]
        except KeyError:
            unknown(edge_id, row, "edge")
            continue
        if (edge_src[x], edge_dst[x]) != (edge_src[y], edge_dst[y]):
            error(locate(row[-1], 2), E_ENDPOINTS, f"edges {row[0]!r} and {row[1]!r} are not parallel")
            continue
        partition.union(x, y)
    labels = partition.labels()
    cell = tuple(labels[e] for e in range(n_edges))

    idtoeqv_map: dict[int, int] = {}
    for row in raw.rows["idtoeqv"]:
        try:
            x, y = path_id[row[0]], edge_id[row[1]]
        except KeyError:
            unknown(path_id, row, "path", 0, 1)
            unknown(edge_id, row, "edge", 1)
            continue
        if x in idtoeqv_map:
            error(locate(row[-1], 1), E_CONFLICT, f"idtoeqv of {row[0]!r} declared twice")
            continue
        idtoeqv_map[x] = y
    for x in range(n_terms):
        idtoeqv_map.setdefault(refl[x], eqv[x])
    for p in range(n_paths):
        if p not in idtoeqv_map:
            error(span, E_MISSING, f"missing idtoeqv entry for {path_names[p]!r} in typoid {raw.name!r}")
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
        diagnostics.append(Diagnostic("error", where, code, message))

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

    def index(names: tuple[str, ...]) -> dict[str, int]:
        return {n: i for i, n in enumerate(names)}

    src_terms, dst_terms = index(src_entry.term_names), index(dst_entry.term_names)
    src_paths, dst_paths = index(src_entry.path_names), index(dst_entry.path_names)
    src_edges, dst_edges = index(src_entry.edge_names), index(dst_entry.edge_names)

    def rows_to_map(
        rows, src_index, dst_index, what: str
    ) -> dict[int, int]:
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

    term_map = rows_to_map(raw.rows["term"], src_terms, dst_terms, "term")
    for x in range(src.term_count):
        if x not in term_map:
            error(
                span, E_MISSING,
                f"missing term row for {src_entry.term_names[x]!r} in morphism {raw.name!r}",
            )
    if len(diagnostics) > errors_before:
        return None

    path_map = rows_to_map(raw.rows["path"], src_paths, dst_paths, "path")
    for x in range(src.term_count):
        path_map.setdefault(src.base.refl[x], dst.base.refl[term_map[x]])
    for p in range(src.base.path_count):
        if p not in path_map:
            error(
                span, E_MISSING,
                f"missing path row for {src_entry.path_names[p]!r} in morphism {raw.name!r}",
            )
    edge_map = rows_to_map(raw.rows["edge"], src_edges, dst_edges, "edge")
    for x in range(src.term_count):
        edge_map.setdefault(src.layer.eqv[x], dst.layer.eqv[term_map[x]])
    for e in range(src.layer.edge_count):
        if e not in edge_map:
            error(
                span, E_MISSING,
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
