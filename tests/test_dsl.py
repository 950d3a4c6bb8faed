"""Parser, diagnostics, serializer round-trips."""

from __future__ import annotations

import time
from bisect import bisect_left
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typoid as T
from typoid import dsl
from typoid.dsl import (
    E_CONFLICT,
    E_DUPLICATE,
    E_ENDPOINTS,
    E_MISSING,
    E_SYNTAX,
    E_UNKNOWN,
    E_UNRESOLVED,
    _tokenize,
    document_for,
    parse,
    serialize,
)

from corpus import full_stock, stock_products
from small_models import family, permuted, structurally_equal

Z2_SOURCE = """\
typoid Z2 {
  terms x ;
  path p : x -> x ;
  comp p . p = refl_x ;
  pinv p = p ;
  idtoeqv p => eqv_x ;
}
"""

TWOEDGE_SOURCE = """\
typoid T {
  terms x ;
  edge e : x ~ x ;
  star e * e = eqv_x ;
  einv e = e ;
}
"""


def test_minimal_typoid_is_unit():
    result = parse("typoid U { terms x ; }")
    assert result.ok, result.diagnostics
    entry = result.document.typoid_entries()["U"]
    assert entry.typoid.same_structure(T.unit_typoid())


def test_z2_source_matches_programmatic_structure():
    result = parse(Z2_SOURCE)
    assert result.ok, result.diagnostics
    t = result.document.typoid_entries()["Z2"].typoid
    assert t.term_count == 1
    assert t.base.path_count == 2
    expected = T.Typoid(
        name="Z2",
        base=T.cyclic_groupoid(2),
        layer=T.EquivalenceLayer(1, (0,), (0,), (0,), {(0, 0): 0}, (0,), (0,)),
        idtoeqv=(0, 0),
    )
    assert t.same_structure(expected)
    assert T.validate_typoid(t).valid


def test_twoedge_source_matches_factory():
    result = parse(TWOEDGE_SOURCE)
    assert result.ok, result.diagnostics
    t = result.document.typoid_entries()["T"].typoid
    assert t.same_structure(T.twoedge_typoid())


def test_non_composable_comp_is_endpoint_diagnostic_with_span():
    src = "typoid A {\n  terms x y ;\n  path p : x -> y ;\n  path q : x -> y ;\n  comp p . q = refl_x ;\n}"
    result = parse(src)
    assert not result.ok
    hits = [d for d in result.diagnostics if d.code == E_ENDPOINTS]
    assert len(hits) == 1
    assert hits[0].span.line == 5
    assert hits[0].span.column == 12  # points at q


def test_missing_entries_are_parse_level_diagnostics():
    # a declared path with no pinv, no comp for p.p, no idtoeqv row
    src = "typoid A {\n  terms x ;\n  path p : x -> x ;\n}"
    result = parse(src)
    assert not result.ok
    codes = {d.code for d in result.diagnostics}
    assert codes == {E_MISSING}
    messages = " ".join(d.message for d in result.diagnostics)
    assert "comp" in messages and "pinv" in messages and "idtoeqv" in messages


def test_unknown_names_and_duplicates_diagnosed():
    src = "typoid A {\n  terms x x ;\n  path p : x -> z ;\n}"
    result = parse(src)
    codes = {d.code for d in result.diagnostics}
    assert E_DUPLICATE in codes and E_UNKNOWN in codes


def test_conflicting_rows_diagnosed():
    src = (
        "typoid A {\n  terms x ;\n  path p : x -> x ;\n"
        "  comp p . p = refl_x ;\n  comp p . p = p ;\n  pinv p = p ;\n  idtoeqv p => eqv_x ;\n}"
    )
    result = parse(src)
    assert any(d.code == E_CONFLICT for d in result.diagnostics)


def test_diagnostics_shift_with_comment_insertion():
    src = "typoid A {\n  terms x y ;\n  path p : x -> y ;\n  path q : x -> y ;\n  comp p . q = refl_x ;\n}"
    with_comment = "# a comment\n" + src
    first = [d for d in parse(src).diagnostics if d.code == E_ENDPOINTS]
    second = [d for d in parse(with_comment).diagnostics if d.code == E_ENDPOINTS]
    assert len(first) == len(second) == 1
    assert second[0].span.line == first[0].span.line + 1
    assert second[0].span.column == first[0].span.column
    assert second[0].message == first[0].message


def test_parser_recovers_and_reports_multiple_errors():
    src = (
        "typoid A {\n  terms x ;\n  path p : x -> nowhere ;\n"
        "  comp p . = refl_x ;\n}\ntypoid B { terms y ; }"
    )
    result = parse(src)
    assert not result.ok
    assert any(d.code == E_UNKNOWN for d in result.diagnostics)
    assert any(d.code == E_SYNTAX for d in result.diagnostics)


def test_strictunits_fills_absorption_rows_for_overridden_eqv():
    src = (
        "typoid A {\n  strictunits ;\n  terms x ;\n"
        "  edge u : x ~ x ;\n  eqv x = u ;\n  idtoeqv refl_x => u ;\n}"
    )
    result = parse(src)
    assert result.ok, result.diagnostics
    t = result.document.typoid_entries()["A"].typoid
    assert t.layer.edge_count == 1
    assert T.validate_typoid(t).valid
    # without the flag the absorption rows are genuinely missing
    bare = src.replace("  strictunits ;\n", "")
    result = parse(bare)
    assert not result.ok
    assert all(d.code == E_MISSING for d in result.diagnostics)


def test_failed_eqv_override_falls_back_to_the_implicit_edge():
    # the override is refused, so term a keeps eqv_a and the later eqv_b
    # keeps its own id: only the rows of e are missing
    result = parse("typoid T { terms a b ; edge e : a ~ b ; eqv a = e ; }")
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E105", "missing einv entry for 'e' in typoid 'T'"),
        ("E104", "designated eqv edge 'e' is not an edge a ~ a"),
    ]
    # the implicit edge then collides with a declared one of its name, as
    # after a refused unknown override
    for override in ("e", "g"):
        result = parse(f"typoid T {{ terms a b ; edge eqv_a : a ~ a ; edge e : a ~ b ; eqv a = {override} ; }}")
        assert "edge name eqv_a collides with the implicit designated edge" in [
            d.message for d in result.diagnostics
        ]


def test_morphism_parsing_and_resolution():
    src = (
        TWOEDGE_SOURCE
        + "typoid U { terms a ; }\n"
        + "morphism m : U -> T {\n  term a |-> x ;\n  edge eqv_a |-> e ;\n}\n"
    )
    result = parse(src)
    assert result.ok, result.diagnostics
    m = result.document.morphism_entries()["m"].morphism
    assert m.term_map == (0,)
    assert m.edge_map == (1,)
    report = T.validate_morphism(m)
    assert not report.valid  # eqv must not land in the other cell


def test_morphism_unresolved_source_diagnosed():
    src = "morphism m : A -> B { }"
    result = parse(src)
    assert not result.ok
    assert {d.code for d in result.diagnostics} == {E_UNRESOLVED}


def test_serialize_parse_fixed_point_for_canonical_sources():
    for src in (Z2_SOURCE, TWOEDGE_SOURCE, "typoid U { terms x ; }"):
        first = parse(src)
        assert first.ok
        text = serialize(first.document)
        second = parse(text)
        assert second.ok
        assert structurally_equal(second.document, first.document)
        assert serialize(second.document) == text


def test_round_trip_every_stock_structure():
    for name, t in full_stock().items():
        doc = document_for([t])
        result = parse(serialize(doc))
        assert result.ok, (name, result.diagnostics[:3])
        assert structurally_equal(result.document, doc), name


def test_round_trip_morphisms():
    prod, prov = stock_products()["prod_eq_z2_bool_disc"]
    pr1, pr2 = T.projections(prod, prov)
    a, b = prov.factors
    doc = document_for([prod, a, b], [pr1, pr2])
    result = parse(serialize(doc))
    assert result.ok, result.diagnostics[:3]
    assert structurally_equal(result.document, doc)
    parsed = result.document.morphism_entries()["pr1"].morphism
    assert parsed.term_map == pr1.term_map
    assert parsed.path_map == pr1.path_map
    assert parsed.edge_map == pr1.edge_map


def test_document_for_refuses_a_morphism_between_other_typoids():
    m = T.identity_from_equality(T.twoedge_typoid())  # from the unit typoid into twoedge
    assert document_for([T.unit_typoid(), T.twoedge_typoid()], [m]).morphism_entries()
    with pytest.raises(ValueError, match="not part of the document"):
        document_for([T.unit_typoid()], [m])


def test_serialize_refuses_an_entry_out_of_canonical_layout():
    late = permuted(T.codiscrete_groupoid(2), (2, 0, 3, 1))  # refl paths 1 and 3
    layer = T.EquivalenceLayer(2, late.path_src, late.path_dst, late.refl, late.comp, late.inv, (0, 1, 2, 3))
    t = T.Typoid("late", late, layer, (0, 1, 2, 3))
    assert T.validate_typoid(t).valid
    entry = dsl.TypoidEntry(t, ("x", "y"), ("a", "b", "c", "d"), ("e", "f", "g", "h"), dsl.Span(1, 1, 0))
    with pytest.raises(ValueError, match="not in canonical id layout"):
        serialize(dsl.Document((entry,)))
    assert parse(serialize(document_for([t]))).ok  # document_for renumbers it


def test_round_trip_preserves_non_default_absorption_rows():
    rich_src = (
        "typoid R {\n  terms x ;\n  edge u : x ~ x ;\n"
        "  star eqv_x * u = eqv_x ;\n  star u * eqv_x = u ;\n  star u * u = eqv_x ;\n"
        "  einv u = u ;\n  cell u == eqv_x ;\n}"
    )
    result = parse(rich_src)
    assert result.ok, result.diagnostics
    t = result.document.typoid_entries()["R"].typoid
    assert t.layer.star[(0, 1)] == 0  # the declared non-default row survived
    assert T.validate_typoid(t).valid
    text = serialize(result.document)
    assert "star eqv_x * u = eqv_x ;" in text
    assert "star u * eqv_x = u ;" not in text  # default rows stay implicit
    again = parse(text)
    assert again.ok
    assert structurally_equal(again.document, result.document)


def test_pieces_of_any_size_join_to_the_same_text(monkeypatch):
    eq6 = T.equality_typoid(T.cyclic_groupoid(6))
    trunc = T.truncate(T.product_typoid(eq6, eq6)[0])  # its edge level writes no rows
    into_trunc = T.identity_from_equality(trunc)
    prod, prov = stock_products()["prod_eq_z2_universe2"]
    docs = [document_for([t]) for t in family()]
    docs += [
        document_for([prod, *prov.factors], T.projections(prod, prov)),
        document_for([into_trunc.source, trunc], [into_trunc]),
        document_for([trunc]),
    ]
    texts = [serialize(doc) for doc in docs]
    assert not any(word in texts[-1] for word in ("edge ", "star ", "einv "))
    for size in (1, 7):
        monkeypatch.setattr(dsl, "_PIECE_LINES", size)
        for doc, text in zip(docs, texts):
            pieces: list[str] = []
            dsl.serialize_to(doc, pieces.append)
            assert "".join(pieces) == text
            assert [piece.count("\n") for piece in pieces[:-1]] == [size] * (len(pieces) - 1)
            assert 1 <= pieces[-1].count("\n") <= size


def test_lexical_error_reported_with_position():
    result = parse("typoid A? { terms x ; }")
    assert not result.ok
    assert any(d.code == "E100" and d.span.line == 1 and d.span.column == 9 for d in result.diagnostics)


def test_empty_typoid_expressible_and_round_trips():
    result = parse("typoid Z {\n  terms ;\n}")
    assert result.ok, result.diagnostics
    t = result.document.typoid_entries()["Z"].typoid
    assert t.term_count == 0
    assert T.validate_typoid(t).valid
    text = serialize(result.document)
    again = parse(text)
    assert again.ok and structurally_equal(again.document, result.document)


def test_missing_terms_statement_diagnosed():
    result = parse("typoid A { }")
    assert not result.ok
    assert any(d.code == E_MISSING and "terms" in d.message for d in result.diagnostics)


DROPPED_ROWS_SOURCE = """\
typoid Z3 {
  terms x ;
  path p : x -> x ;
  path q : x -> x ;
  comp q . q = p ;
  pinv p = q ;
  pinv q = p ;
  edge e : x ~ x ;
  edge d : x ~ x ;
  star d * e = eqv_x ;
  einv e = d ;
  einv d = e ;
  idtoeqv p => e ;
  idtoeqv q => d ;
}
typoid P {
  terms a b ;
  path u : a -> b ;
  path v : b -> a ;
  pinv u = v ;
  pinv v = u ;
  edge f : a ~ b ;
  edge g : b ~ a ;
  einv f = g ;
  einv g = f ;
  idtoeqv u => f ;
  idtoeqv v => g ;
}
"""


def test_dropped_comp_and_star_rows_diagnosed_in_pair_order():
    result = parse(DROPPED_ROWS_SOURCE)
    assert not result.ok
    assert [(d.code, d.span.line, d.span.column, d.message) for d in result.diagnostics] == [
        (E_MISSING, 1, 8, "missing comp entry for 'p' . 'p' in typoid 'Z3'"),
        (E_MISSING, 1, 8, "missing comp entry for 'p' . 'q' in typoid 'Z3'"),
        (E_MISSING, 1, 8, "missing comp entry for 'q' . 'p' in typoid 'Z3'"),
        (E_MISSING, 1, 8, "missing star entry for 'e' * 'e' in typoid 'Z3'"),
        (E_MISSING, 1, 8, "missing star entry for 'e' * 'd' in typoid 'Z3'"),
        (E_MISSING, 1, 8, "missing star entry for 'd' * 'd' in typoid 'Z3'"),
        (E_MISSING, 16, 8, "missing comp entry for 'u' . 'v' in typoid 'P'"),
        (E_MISSING, 16, 8, "missing comp entry for 'v' . 'u' in typoid 'P'"),
        (E_MISSING, 16, 8, "missing star entry for 'f' * 'g' in typoid 'P'"),
        (E_MISSING, 16, 8, "missing star entry for 'g' * 'f' in typoid 'P'"),
    ]


def test_default_comp_rows_are_filled_in_linear_time():
    # each path gets its two unit rows straight from its endpoints, so a
    # document of one long terms statement costs its length, not terms x paths
    text = "typoid D {\n  terms " + " ".join(f"t{k}" for k in range(5000)) + " ;\n}\n"
    start = time.perf_counter()
    result = parse(text)
    elapsed = time.perf_counter() - start
    assert result.ok
    comp = result.document.typoid_entries()["D"].typoid.base.comp
    assert comp == {(x, x): x for x in range(5000)}
    assert elapsed < 0.5, f"parsing 5,000 terms took {elapsed:.2f}s"


def _tokens(text):
    tokens, diagnostics = _tokenize(text)
    return (
        [(t.kind, t.text, t.line, t.column) for t in tokens],
        [(d.code, d.span.line, d.span.column, d.message) for d in diagnostics],
    )


def test_tokens_pinned_across_crlf_and_tabs():
    assert _tokens("typoid A {\r\n\tterms x ;\r\n}\r\n") == (
        [
            ("ident", "typoid", 1, 1), ("ident", "A", 1, 8), ("punct", "{", 1, 10),
            ("ident", "terms", 2, 2), ("ident", "x", 2, 8), ("punct", ";", 2, 10),
            ("punct", "}", 3, 1), ("eof", "", 4, 1),
        ],
        [],
    )


def test_tokens_pinned_around_comments_without_trailing_newline():
    assert _tokens("# head\n  terms x ; # tail\n\tedge") == (
        [
            ("ident", "terms", 2, 3), ("ident", "x", 2, 9), ("punct", ";", 2, 11),
            ("ident", "edge", 3, 2), ("eof", "", 3, 6),
        ],
        [],
    )


def test_unexpected_characters_pinned():
    assert _tokens("a?b €\t|-> -x\n=>==|") == (
        [
            ("ident", "a", 1, 1), ("ident", "b", 1, 3), ("punct", "|->", 1, 7),
            ("ident", "x", 1, 12), ("punct", "=>", 2, 1), ("punct", "==", 2, 3),
            ("eof", "", 2, 6),
        ],
        [
            ("E100", 1, 2, "unexpected character '?'"),
            ("E100", 1, 5, "unexpected character '€'"),
            ("E100", 1, 11, "unexpected character '-'"),
            ("E100", 2, 5, "unexpected character '|'"),
        ],
    )


def test_trailing_whitespace_and_empty_text_end_in_eof():
    assert _tokens("x  \t ") == ([("ident", "x", 1, 1), ("eof", "", 1, 6)], [])
    assert _tokens("") == ([("eof", "", 1, 1)], [])


# -- statement pass against the token parser ----------------------------------

# Well formed, so read by the statement pass, but with a diagnostic of every
# kind the assembly words, on statements spread over lines, after comments.
WELL_FORMED_ERRORS_SOURCE = """\
# head
typoid A {\r
  terms x y ;  terms x\r
    z v ;
  path p : x -> w ;  path p : x -> y ;
  path q
    : y -> x ;  path q : x -> x ;
  comp p . q = r ;  comp p . p = p ;  comp refl_x . p = p ;  comp refl_x . p = p ;
  pinv p = q ;  pinv p = p ;  pinv nope = p ;
  edge e : x ~ y ;  edge e : x ~ x ;  edge eqv_y : y ~ y ;  edge u : x ~ x ;
  edge f : y ~ x ;
  eqv x = u ;  eqv x = e ;  eqv w = u ;  eqv z = e ;  eqv v = g ;
  star e * e = f ;  star u * u = u ;  star u * u = e ;  star g * u = u ;
  einv e = f ;  einv e = e ;  einv g = e ;
  cell e == f ;  cell u == g ;
  idtoeqv p => e ;  idtoeqv p => f ;  idtoeqv q => g ;  idtoeqv r => f ;
}
typoid A { terms a ; }
typoid B { strictunits ; terms b ; }
typoid C {
  terms c ;  path p : c -> c ;  comp p . p = refl_c ;  pinv p = p ;  idtoeqv p => eqv_c ;
}
morphism m : B -> D { term b |-> c ; }
morphism n : B -> C { term b |-> c ;  term b |-> c ;  term a |-> c ;  term b |-> a ; }
morphism o : B -> C { term b |-> c ;  path refl_a |-> p ;  edge eqv_b |-> e ; }
morphism k : C -> B {
  term c |-> b ;
}
"""


@lru_cache(maxsize=1)
def _documents() -> tuple[str, ...]:
    """Serialized family() members, stock products with their projections,
    and the source above."""
    texts = [serialize(document_for([t])) for t in family()[::7]]
    for prod, prov in list(stock_products().values())[::5]:
        a, b = prov.factors
        texts.append(serialize(document_for([prod, a, b], T.projections(prod, prov))))
    return (*texts, WELL_FORMED_ERRORS_SOURCE)


def _token_locator(text: str):
    """Spans straight from the tokenizer: identifier `i` of the statement at
    offset `at`."""
    idents = [t for t in _tokenize(text)[0] if t.kind == "ident"]
    offsets = [t.offset for t in idents]
    return lambda at, i: idents[bisect_left(offsets, at) + i].span


def _same_as_token_parser(text: str) -> None:
    fast = parse(text)
    reference = dsl._assemble(*dsl._parse_tokens(text), _token_locator(text))
    assert fast.ok == reference.ok
    assert fast.diagnostics == reference.diagnostics
    if fast.ok:
        assert structurally_equal(fast.document, reference.document)
        for mine, theirs in zip(fast.document.entries, reference.document.entries):
            assert mine.span == theirs.span
            if isinstance(mine, dsl.TypoidEntry):
                assert mine.term_names == theirs.term_names
                assert mine.path_names == theirs.path_names
                assert mine.edge_names == theirs.edge_names


def test_statement_pass_reads_well_formed_documents_like_the_token_parser():
    assert any("morphism" in text for text in _documents())
    # pinned, since both parsers share the assembler that places these spans
    assert [
        (d.span.line, d.span.column, d.code) for d in parse(WELL_FORMED_ERRORS_SOURCE).diagnostics
    ] == [
        (2, 8, "E105"), (2, 8, "E105"), (2, 8, "E105"), (2, 8, "E105"), (2, 8, "E105"),
        (2, 8, "E105"), (2, 8, "E105"), (2, 8, "E105"), (2, 8, "E105"), (2, 8, "E105"),
        (3, 22, "E102"), (5, 17, "E103"), (7, 22, "E102"),
        (8, 16, "E103"), (8, 30, "E104"), (8, 67, "E106"), (9, 22, "E106"),
        (9, 36, "E103"), (10, 26, "E102"), (10, 44, "E102"), (12, 20, "E106"),
        (12, 33, "E103"), (12, 50, "E104"), (12, 63, "E103"), (13, 12, "E104"),
        (13, 44, "E106"), (13, 62, "E103"), (14, 22, "E106"), (14, 36, "E103"),
        (15, 13, "E104"), (15, 28, "E103"), (16, 29, "E106"), (16, 52, "E103"),
        (16, 65, "E103"), (18, 8, "E102"), (23, 19, "E107"), (24, 44, "E106"),
        (24, 60, "E103"), (24, 82, "E103"), (25, 44, "E103"), (25, 75, "E103"),
        (26, 10, "E105"),
    ]
    for text in _documents():
        assert dsl._scan(text) is not None  # well-formed text never falls back
        _same_as_token_parser(text)


def test_statement_pass_gives_up_at_a_block_header_inside_a_block():
    text = "typoid A {\n  terms x ;\ntypoid B {\n  terms y ;\n}\n"
    assert dsl._scan(text) is None
    assert [d.code for d in parse(text).diagnostics] == [E_SYNTAX]
    _same_as_token_parser(text)


def test_assembly_diagnostics_are_worded_as_pinned():
    # paths and edges share the row readers, so each level's wording is
    # pinned here, in the order of the spans pinned above
    assert [d.message for d in parse(WELL_FORMED_ERRORS_SOURCE).diagnostics] == [
        "missing comp entry for 'p' . 'q' in typoid 'A'",
        "missing comp entry for 'q' . 'p' in typoid 'A'",
        "missing pinv entry for 'q' in typoid 'A'",
        "missing star entry for 'u' * 'e' in typoid 'A'",
        "missing star entry for 'e' * 'f' in typoid 'A'",
        "missing star entry for 'f' * 'u' in typoid 'A'",
        "missing star entry for 'f' * 'e' in typoid 'A'",
        "missing einv entry for 'u' in typoid 'A'",
        "missing einv entry for 'f' in typoid 'A'",
        "missing idtoeqv entry for 'q' in typoid 'A'",
        "duplicate term 'x'",
        "unknown term 'w'",
        "duplicate path 'q'",
        "unknown path 'r'",
        "paths 'p' and 'p' do not compose: 'p' ends at 'y' but 'p' starts at 'x'",
        "comp of 'refl_x' and 'p' declared twice",
        "pinv of 'p' declared twice",
        "unknown path 'nope'",
        "duplicate edge 'e'",
        'edge name eqv_y collides with the implicit designated edge',
        "eqv of term 'x' designated twice",
        "unknown term 'w'",
        "designated eqv edge 'e' is not an edge z ~ z",
        "unknown edge 'g'",
        "edges 'e' and 'e' do not compose",
        "star of 'u' and 'u' declared twice",
        "unknown edge 'g'",
        "einv of 'e' declared twice",
        "unknown edge 'g'",
        "edges 'e' and 'f' are not parallel",
        "unknown edge 'g'",
        "idtoeqv of 'p' declared twice",
        "unknown edge 'g'",
        "unknown path 'r'",
        "duplicate declaration name 'A'",
        "unresolved typoid 'D'",
        "term 'b' mapped twice",
        "unknown term 'a' in 'B'",
        "unknown term 'a' in 'C'",
        "unknown path 'refl_a' in 'B'",
        "unknown edge 'e' in 'C'",
        "missing path row for 'p' in morphism 'k'",
    ]


_PIECES = (
    *" \t\r\n#;{}:.=*~|->_a1", "\f",
    "terms", "path", "comp", "pinv", "edge", "eqv", "star", "einv", "cell", "idtoeqv",
    "strictunits", "typoid", "morphism", "term",
)


@st.composite
def _mutated_documents(draw) -> str:
    text = draw(st.sampled_from(_documents()))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(_PIECES))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            text = text[:i] + piece + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 4)):]
        else:
            text = text[:i] + piece + text[i + 1:]
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_documents())
def test_statement_pass_agrees_with_token_parser_on_mutations(text):
    _same_as_token_parser(text)
