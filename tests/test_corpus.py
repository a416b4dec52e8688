import gc
import io
import itertools
import json
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from citefrac import corpus as corpus_module
from citefrac.cli import main
from citefrac.corpus import (
    ARTICLE,
    PROCEEDINGS_PAPER,
    REVIEW,
    PublicationRecord,
    _blocks,
    _cited_dois,
    _lines,
    build_corpus,
    load_aggregate_table,
    load_canonical,
    load_samples_csv,
    parse_tagged,
    write_canonical,
)
from citefrac.errors import (
    DuplicateId,
    MalformedField,
    MissingId,
    NonNumericCell,
    NonPositiveP,
    ParseError,
    UnterminatedRecord,
)
from citefrac.report import unit_columns
from citefrac.unitquery import parse_unit_definitions
from helpers import (
    _DOI_SUFFIX_RE,
    random_corpus,
    random_record,
    reference_parse_tagged,
    reference_write_canonical,
)

# Two records whose DI lines hold blanks only.
_BLANK_DI = "PT J\nPY 2005\nUT WOS:1\nDI \nER\nPT J\nPY 2005\nUT WOS:2\nDI  \nER\nEF\n"


def test_record_is_an_unchecked_slotted_value():
    # The loaders check the record rule; the type itself checks nothing.
    rec = PublicationRecord(id="", year=0, nrefs=-1, cited_ids=("A", "A"))
    assert rec.reference_count == -1
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.year = 2005


class TestParseTagged:
    def test_direct_field_mapping(self):
        text = (
            "PT J\nPY 2005\nDT Article\nNR 6\nUT WOS:1\nER\nEF\n"
        )
        result = parse_tagged(text)
        assert not result.errors
        (rec,) = result.records
        assert rec.year == 2005
        assert rec.doctype == ARTICLE
        assert rec.nrefs == 6

    def test_doctype_mapping(self):
        for raw, expected in [
            ("article", ARTICLE),
            ("REVIEW", REVIEW),
            ("Proceedings Paper", PROCEEDINGS_PAPER),
            ("Editorial Material", "Editorial Material"),
        ]:
            text = f"PT J\nPY 2005\nDT {raw}\nUT WOS:1\nER\nEF\n"
            assert parse_tagged(text).records[0].doctype == expected

    def test_cr_doi_extraction(self):
        text = (
            "PT J\nPY 2005\nDT Article\nNR 2\n"
            "CR Anon, 2001, J THINGS, V1, P1, DOI 10.1/a\n"
            "   Anon, 2002, J STUFF, V2, P2, DOI 10.1/b\n"
            "UT WOS:1\nER\nEF\n"
        )
        rec = parse_tagged(text).records[0]
        assert rec.cited_ids == ("10.1/a", "10.1/b")

    def test_cr_without_doi_ignored(self):
        text = (
            "PT J\nPY 2005\nDT Article\n"
            "CR Anon, 2001, OLD J, V1, P1\nUT WOS:1\nER\nEF\n"
        )
        assert parse_tagged(text).records[0].cited_ids == ()

    def test_missing_id_rejects_record_keeps_others(self):
        text = (
            "PT J\nPY 2005\nDT Article\nUT WOS:1\nER\n"
            "PT J\nPY 2005\nDT Article\nER\n"
            "PT J\nPY 2005\nDT Article\nUT WOS:3\nER\nEF\n"
        )
        result = parse_tagged(text)
        assert [r.id for r in result.records] == ["WOS:1", "WOS:3"]
        assert len(result.errors) == 1
        assert isinstance(result.errors[0], MissingId)
        assert result.errors[0].line == 6

    def test_tag_values_lose_surrounding_blanks(self):
        # As a continuation line's value does: the id, the DI fallback, a
        # message's value and a first CR line's DOI.
        text = (
            "PT J\nPY 2005\nUT WOS:1 \nCR A, 2000, J, V1, P1, DOI 10.1/a \nER\n"
            "PT J\nPY 2005\nUT  \nDI 10.1/d \nER\n"
            "PT J\nPY 2005\nUT  \nER\n"
            "PT J\nPY 20x5 \nUT WOS:2\nER\nEF\n"
        )
        result = parse_tagged(text)
        assert [(r.id, r.cited_ids, r.doi) for r in result.records] == [
            ("WOS:1", ("10.1/a",), None),
            ("10.1/d", (), "10.1/d"),
        ]
        assert _error_keys(result) == [
            (MissingId, "line 11: record has neither UT nor DI", 11),
            (MalformedField, "line 15: non-integer PY '20x5'", 15),
        ]

    def test_numbers_are_ascii_decimals(self):
        # A sign and ASCII digits between blanks: int() alone would also
        # read '_' separators and non-ASCII digits.
        text = (
            "PT J\nPY 2_005\nUT WOS:1\nER\n"
            "PT J\nPY 2005\nNR \u0661\u0662\nUT WOS:2\nER\n"
            "PT J\nPY \uff12\uff10\uff10\uff15\nUT WOS:3\nER\n"
            "PT J\nPY +2005\u00a0\nNR  07 \nUT WOS:4\nER\nEF\n"
        )
        result = parse_tagged(text)
        assert [(r.id, r.year, r.nrefs) for r in result.records] == [("WOS:4", 2005, 7)]
        assert _error_keys(result) == [
            (MalformedField, "line 1: non-integer PY '2_005'", 1),
            (MalformedField, "line 5: non-integer NR '\u0661\u0662'", 5),
            (MalformedField, "line 10: non-integer PY '\uff12\uff10\uff10\uff15'", 10),
        ]

    def test_blank_di_is_no_doi(self, tmp_path):
        # A DI line of blanks only gives no DOI, so the two records do not
        # share a DOI "", and ingest writes null for each.
        assert [(r.id, r.doi) for r in parse_tagged(_BLANK_DI).records] == [
            ("WOS:1", None),
            ("WOS:2", None),
        ]
        export = tmp_path / "export.tagged"
        export.write_text(_BLANK_DI, encoding="utf-8")
        assert main(["ingest", "--input", str(export), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["doi"] for line in lines] == [None, None]

    def test_di_fallback_id(self):
        text = "PT J\nPY 2005\nDT Article\nDI 10.9/x\nER\nEF\n"
        rec = parse_tagged(text).records[0]
        assert rec.id == "10.9/x"
        assert rec.doi == "10.9/x"

    @pytest.mark.parametrize("year", ["not-a-year", "0"], ids=["non_integer", "zero"])
    def test_malformed_year_carries_line(self, year):
        text = f"PT J\nPY {year}\nDT Article\nUT WOS:1\nER\nEF\n"
        result = parse_tagged(text)
        assert not result.records
        assert isinstance(result.errors[0], MalformedField)
        assert result.errors[0].line == 1

    @pytest.mark.parametrize("nr", ["many", "-3"], ids=["non_integer", "negative"])
    def test_malformed_nr(self, nr):
        text = f"PT J\nPY 2005\nNR {nr}\nUT WOS:1\nER\nEF\n"
        assert isinstance(parse_tagged(text).errors[0], MalformedField)

    def test_duplicate_id_rejects_later_record(self):
        text = (
            "PT J\nPY 2005\nUT WOS:1\nER\n"
            "PT J\nPY 2006\nUT WOS:2\nER\n"
            "PT J\nPY 2007\nUT WOS:1\nER\nEF\n"
        )
        result = parse_tagged(text)
        assert [(r.id, r.year) for r in result.records] == [("WOS:1", 2005), ("WOS:2", 2006)]
        (error,) = result.errors
        assert isinstance(error, DuplicateId)
        assert error.line == 9
        assert "'WOS:1', first at line 1" in str(error)

    def test_unterminated_record(self):
        text = "PT J\nPY 2005\nDT Article\nUT WOS:1\n"
        result = parse_tagged(text)
        assert isinstance(result.errors[0], UnterminatedRecord)

    def test_addresses_bracketed_authors_split(self):
        text = (
            "PT J\nPY 2005\nDT Article\n"
            "C1 [Smith, J.] State Univ, Dep Alpha, USA; [Lee, K.] Tech Inst, Dep Beta, USA\n"
            "UT WOS:1\nER\nEF\n"
        )
        rec = parse_tagged(text).records[0]
        assert rec.addresses == (
            "State Univ, Dep Alpha, USA",
            "Tech Inst, Dep Beta, USA",
        )

    def test_addresses_bracket_naming_several_authors(self):
        text = (
            "PT J\nPY 2005\nDT Article\n"
            "C1 [Tanaka, Y.; Liu, U.] Fudan Univ, Dep Elec, Shanghai; "
            "[Kim, H.] Tech Inst, Dep Beta, USA\n"
            "   [Smith, J.; Lee, K.; Wu, Q.] State Univ, Dep Alpha, USA\n"
            "UT WOS:1\nER\nEF\n"
        )
        rec = parse_tagged(text).records[0]
        assert rec.addresses == (
            "Fudan Univ, Dep Elec, Shanghai",
            "Tech Inst, Dep Beta, USA",
            "State Univ, Dep Alpha, USA",
        )

    def test_errors_hold_no_frame(self):
        text = (
            "PT J\nPY x\nUT WOS:1\nER\n"
            "PT J\nPY 2005\nER\n"
            "PT J\nPY 2005\nUT WOS:2\nER\n"
            "PT J\nPY 2005\nUT WOS:2\nER\n"
            "PT J\nPY 0\nUT WOS:3\nER\n"
            "PT J\nUT WOS:4\n"
        )
        errors = parse_tagged(text).errors
        assert [type(e) for e in errors] == [
            MalformedField, MissingId, DuplicateId, MalformedField, UnterminatedRecord,
        ]
        for error in errors:
            assert error.__traceback__ is None
            assert error.__context__ is None and error.__cause__ is None

    def test_fixture_file(self, data_dir):
        result = parse_tagged((data_dir / "toy_good.tagged").read_text())
        assert len(result.records) == 3
        assert not result.errors
        assert result.records[1].nrefs == 40
        assert result.records[1].cited_ids == ("10.9/one",)


# Pieces of a tagged export, good and bad, for the differential test.
_VALUES = {
    "UT": ["WOS:1", "WOS:2", "WOS:3", "", " WOS:4 ", "WOS:5\t", "  "],
    "DI": ["10.9/one", "10.9/two", "", " 10.9/two "],
    "PY": ["2005", "2006", "0", "-1", "20x5", " 2007 ", "2_005", ""],
    "NR": ["3", "0", "-2", "many", "", " many "],
    "DT": ["Article", "review", "Proceedings Paper", "Letter", ""],
    "C1": [
        "[Smith, J.] State Univ, Dep Alpha, USA; [Lee, K.] Tech Inst, USA",
        "[Tanaka, Y.; Liu, U.] Fudan Univ, Shanghai",
        "Plain Univ, City",
        "[Open bracket; Univ X, City",
        " ; ;Univ Y ; ",
        "[Ito, H.] Kyoto Univ\x85 Dep Beta\u2028Lab\x0c, Kyoto",
    ],
    "CR": [
        "Anon, 2001, J X, V1, P1, DOI 10.1/a",
        "Anon\x85 2001\u2028J X\x0c, DOI 10.1/g",
        "Anon, 2001, J X, XDOI 10.1/a",
        "Anon, DOI 10.1/a.",
        "Anon, DOI .",
        "Anon, DOI 10.1/a, DOI 10.1/b",
        "Anon, DOI 10.1/b DOI 10.1/c.",
        "Anon, DOI 10.1/a\tb",
        "Anon, DOI 10.1/a..",
        "DOI 10.1/c",
        "ANON, 1999, OLD J, V1, P1",
        "Anon, DOI ",
        "Anon, DOI 10.1/e. ",
        "Anon, DOI 10.1/f \u00a0",
    ],
}
_OTHER_TAGS = ["PT", "AU", "TI", "SO", "FN", "VR", "ER", "EF", "Z9", "C2"]
_NOISE = [
    "", "   ", "\t", "pt J", "1C x", "PY2005", "header prose", "E", "ER\tx",
    "ER", "ER  ", "ER\t", "EF", "EF ", "ER x", "EF x",
]
_INDENTS = ["   ", " ", "\t", "\u3000"]
# The line breaks of a tagged export; U+0085, U+2028 and "\x0c" are text
# inside its values.
_TAGGED_BREAKS = ["\n"] * 6 + ["\r\n", "\r"]


def _random_field(rng: random.Random) -> list[str]:
    if rng.random() < 0.15:
        tag = rng.choice(_OTHER_TAGS)
        lines = [f"{tag} {rng.choice(['J', 'x', '', 'Title'])}"]
    else:
        tag = rng.choice(sorted(_VALUES))
        lines = [f"{tag} {rng.choice(_VALUES[tag])}"]
    if rng.random() < 0.3:
        pool = _VALUES.get(tag, ["continued"])
        lines += [rng.choice(_INDENTS) + rng.choice(pool) for _ in range(rng.randint(1, 3))]
    return lines


def _random_tagged(rng: random.Random) -> str:
    """A tagged export with random fields, noise lines and line breaks."""
    lines = ["FN Export"] if rng.random() < 0.5 else []
    if rng.random() < 0.2:
        lines.append(rng.choice(_INDENTS) + "continued before any tag")
    for _ in range(rng.randint(0, 8)):
        block = ["PT J"] if rng.random() < 0.8 else []
        if rng.random() < 0.6:  # a good head; later PY and UT values do not count
            block += [f"PY {rng.randint(2003, 2008)}", f"UT WOS:{rng.randint(10, 60)}"]
        for _ in range(rng.randint(0, 7)):
            block += _random_field(rng)
            if rng.random() < 0.15:
                block.append(rng.choice(_NOISE))
            if rng.random() < 0.05:
                block.append(rng.choice(_INDENTS) + "stray")
        block.append(rng.choice(["ER"] * 6 + ["ER ", "ER\t", "EF", "ER x", ""]))
        lines += block
    lines += rng.choice([["EF"], ["EF  "], [], ["EF", "PT J", "UT WOS:9", "ER"]])
    return "".join(line + rng.choice(_TAGGED_BREAKS) for line in lines)


def _error_keys(result):
    return [(type(e), str(e), e.line) for e in result.errors]


def _pieces(rng: random.Random, text: str) -> list[str]:
    """`text` cut into pieces of 1 to 7 characters, as tiny reads give it."""
    cuts = [0]
    while cuts[-1] < len(text):
        cuts.append(cuts[-1] + rng.randint(1, 7))
    return [text[a:b] for a, b in zip(cuts, cuts[1:])]


def test_parse_tagged_matches_reference_parser():
    rng = random.Random(2010)
    accepted = rejected = 0
    for _ in range(600):
        text = _random_tagged(rng)
        fast, reference = parse_tagged(text), reference_parse_tagged(text)
        assert fast.records == reference.records, text
        assert _error_keys(fast) == _error_keys(reference), text
        # In tiny pieces, records, markers and CR runs straddle the blocks.
        pieces = parse_tagged(iter(_pieces(rng, text)))
        assert pieces.records == reference.records, text
        assert _error_keys(pieces) == _error_keys(reference), text
        accepted += len(fast.records)
        rejected += len(fast.errors)
    # The inputs reach both outcomes often.
    assert accepted > 300 and rejected > 300


# CR-line text: "DOI " pieces, word and non-word characters (Unicode ones
# too), dots and several kinds of whitespace.
_CR_PIECES = st.sampled_from(
    ["DOI ", "DOI", "XDOI ", "_DOI ", "\u0663DOI ", " DOI ", "_", "\u00e9", "\u0663",
     "10.1/a", ".", "..", ",", " ", "\t", "\u00a0", "\u2003", "\x1f", "-"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(_CR_PIECES, max_size=8).map("".join), min_size=1, max_size=4))
def test_cited_doi_matches_regex(lines):
    # One match over a record's CR lines finds what the regex finds on each.
    found = [m[1] for m in map(_DOI_SUFFIX_RE.search, lines) if m]
    assert _cited_dois(lines) == found


@pytest.mark.parametrize(
    "text",
    [
        "PT J\r\nPY 2005\r\nUT WOS:1\r\nCR A, DOI 10.1/a\r\n   B, DOI 10.1/b.\r\nER\r\nEF\r\n",
        "PT J\rPY 2005\rUT WOS:1\rER \rEF\r",
        "PT J\u2028PY 2005\u2028UT WOS:1\u2028ER x\u2028ER\u2028EF",
        "pt J\nPY2005\n1C x\nPT J\nPY 2005\nUT WOS:1\nER\nEF\n",
        "PT J\nPY 2005\nUT WOS:1\nEF\nER\n",
        "   lost\nXX y\n   kept nowhere\nER\n",
        "PT J\nPY 2005\nUT WOS:1\n"
        "CR XDOI 10.1/a\n   DOI 10.1/a.\n   DOI .\n   DOI 10.1/b, DOI 10.1/c\n"
        "   DOI 10.1/d\te\nER\nEF\n",
        "PT J\nPY 2005\nUT WOS:1 \nER\nEF\n",
        "PT J\nPY 2005\nUT  \nDI 10.1/d\nER\nPT J\nPY 2005\nUT \t \nER\nEF\n",
        "PT J\nPY 2005\nUT WOS:1\nCR A, 2000, J, V1, P1, DOI 10.1/a \nER\nEF\n",
        _BLANK_DI,
        "PT J\nPY 2005\nDI \t\nER\nEF\n",
        "PT J\nPY 2_005\nUT WOS:1\nER\nPT J\nPY 2005\nNR 1_2\nUT WOS:2\nER\nEF\n",
        "PT J\nPY \u0662\u0660\u0660\u0665\nUT WOS:1\nER\n"
        "PT J\nPY 2005\nNR \u0661\u0662\nUT WOS:2\nER\nEF\n",
        "PT J\nPY +2005\u2003\nNR -0\nUT WOS:1\nER\nPT J\nPY 2005\nNR + 3\nUT WOS:2\nER\nEF\n",
    ],
    ids=["crlf", "lone_cr", "u2028_er_field", "prose", "ef_in_record",
         "unknown_tags_only", "doi_forms", "ut_trailing_blank", "ut_blank",
         "cr_trailing_blank", "di_blank", "di_blank_no_ut", "number_underscores",
         "number_non_ascii_digits", "number_signs_and_blanks"],
)
def test_parse_tagged_edge_cases_match_reference(text):
    fast, reference = parse_tagged(text), reference_parse_tagged(text)
    assert fast.records == reference.records
    assert _error_keys(fast) == _error_keys(reference)


class TestCanonical:
    def test_link_restriction(self):
        cited = [PublicationRecord(id="A", year=2005)]
        citing = [
            PublicationRecord(id="X", year=2006, nrefs=10, cited_ids=("A", "B-ext"))
        ]
        corpus = build_corpus(cited, citing)
        assert corpus.links == (("X", "A"),)

    def test_one_population_citing_side(self):
        records = [
            PublicationRecord(id="A", year=2005, cited_ids=("ext",)),
            PublicationRecord(id="B", year=2006, nrefs=3, cited_ids=("ext", "A")),
            PublicationRecord(id="C", year=2007, cited_ids=("B", "A")),
            PublicationRecord(id="D", year=2007),
        ]
        corpus = build_corpus(records)
        assert list(corpus.cited) == ["A", "B", "C", "D"]
        assert list(corpus.citing) == ["B", "C"]
        assert corpus.links == (("B", "A"), ("C", "B"), ("C", "A"))

    def test_empty_stream(self):
        corpus = load_canonical("")
        assert not corpus.cited and not corpus.citing and not corpus.links

    def test_multiple_links_one_citing(self):
        corpus = build_corpus(
            [PublicationRecord(id="A", year=2005), PublicationRecord(id="B", year=2005)],
            [PublicationRecord(id="X", year=2006, nrefs=2, cited_ids=("A", "B"))],
        )
        assert sorted(corpus.links) == [("X", "A"), ("X", "B")]

    @pytest.mark.parametrize("side", ["cited", "citing"])
    def test_build_corpus_rejects_repeated_id(self, side):
        records = [PublicationRecord(id="A", year=2005), PublicationRecord(id="A", year=2006)]
        cited = records if side == "cited" else []
        citing = records if side == "citing" else []
        with pytest.raises(DuplicateId, match=f"duplicate {side} id 'A'"):
            build_corpus(cited, citing)

    def test_duplicate_id_rejected(self):
        lines = (
            '{"id": "A", "side": "cited", "year": 2005}\n'
            '{"id": "A", "side": "cited", "year": 2006}\n'
        )
        with pytest.raises(DuplicateId):
            load_canonical(lines)

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id": "Z", "side": "cited", "year": 0}', "year must be positive"),
            ('{"id": "Z", "side": "both"}', "has no 'year' field"),
            ('{"id": "Z", "side": "citing", "year": 2006, "nrefs": "x"}', "nrefs must be an integer"),
            ('{"id": "Z", "side": "citing", "year": "x"}', "year must be an integer, got 'x'"),
            ('{"id": "Z", "side": "citing", "year": "2_005"}', "year must be an integer, got '2_005'"),
            ('{"id": "Z", "side": "citing", "year": "\u0662\u0660\u0660\u0665"}',
             "year must be an integer, got '\u0662\u0660\u0660\u0665'"),
            ('{"id": "Z", "side": "cited", "year": 2005, "addresses": "Tsinghua Univ"}',
             "addresses must be a list"),
            ('{"id": "Z", "side": "citing", "year": 2006, "cites": "AB"}', "cites must be a list"),
            ('{"id": "Z", "side": "citing", "year": 2006, "nrefs": -1}', "nrefs must be >= 0, got -1"),
            ('{"id": "Z", "side": "citing", "year": 2006, "cites": ["A", "A"]}',
             "cites contains duplicates"),
            ('{"id": "Z", "side": "citing", "year": true}', "year must be an integer, got True"),
            ('{"id": "Z", "side": "citing", "year": 2.5}', "year must be an integer, got 2.5"),
            ('{"id": "Z", "side": "citing", "year": 2006, "nrefs": "2_005"}',
             "nrefs must be an integer, got '2_005'"),
            ('{"id": "Z", "side": "citing", "year": 2006, "nrefs": "\u0661\u0662"}',
             "nrefs must be an integer, got '\u0661\u0662'"),
            ('{"id": "Z", "side": "citing", "year": 2006, "nrefs": true}',
             "nrefs must be an integer, got True"),
            ('{"id": "Z", "side": "citing", "year": 2006, "nrefs": 2.5}',
             "nrefs must be an integer, got 2.5"),
        ],
        ids=[
            "year_zero", "missing_year", "nrefs_not_integer", "year_not_integer",
            "year_underscore", "year_non_ascii_digits",
            "addresses_string", "cites_string", "nrefs_negative", "cites_repeated",
            "year_true", "year_float", "nrefs_underscore", "nrefs_non_ascii_digits",
            "nrefs_true", "nrefs_float",
        ],
    )
    def test_bad_record_carries_line(self, record, message):
        lines = '{"id": "A", "side": "cited", "year": 2005}\n\n' + record + "\n"
        with pytest.raises(MalformedField, match=f"line 3: .*{message}"):
            load_canonical(lines)

    def test_year_string_between_blanks(self):
        corpus = load_canonical('{"id": "Z", "side": "cited", "year": " +2005\\t"}\n')
        assert corpus.cited["Z"].year == 2005

    def test_nrefs_string_between_blanks(self):
        # Read by the rule of a string year, and written back as an integer.
        corpus = load_canonical('{"id": "Z", "side": "citing", "year": 2005, "nrefs": " 3 "}\n')
        assert corpus.citing["Z"].nrefs == 3
        assert '"nrefs": 3, ' in write_canonical(corpus)

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ('"id": 0, ', MalformedField, "id must be a string, got 0"),
            ('"id": false, ', MalformedField, "id must be a string, got False"),
            ('"id": [], ', MalformedField, "id must be a string, got []"),
            ('"id": {"a": 1}, ', MalformedField, "id must be a string, got {'a': 1}"),
            ("", MissingId, "missing id"),
            ('"id": null, ', MissingId, "missing id"),
            ('"id": "", ', MissingId, "missing id"),
        ],
        ids=["zero", "false", "list", "object", "absent", "null", "empty"],
    )
    def test_id_absent_or_not_a_string(self, fields, error, message):
        # The empty id takes the written-line match; the others read as JSON.
        line = (
            "{" + fields + '"side": "cited", "year": 2005, "doctype": "", '
            '"addresses": [], "nrefs": null, "cites": [], "doi": null}\n'
        )
        with pytest.raises(error) as caught:
            load_canonical('{"id": "A", "side": "cited", "year": 2005}\n' + line)
        assert str(caught.value) == f"line 2: {message}"

    @pytest.mark.parametrize("items", ["[]", '[""]', '["", ""]', '["a", ""]', '["a, b"]'])
    def test_written_lists_read_as_json(self, items):
        # Each list is read by the written-line match, as JSON reads it.
        line = (
            '{"id": "A", "side": "citing", "year": 2005, "doctype": "", '
            f'"addresses": {items}, "nrefs": null, "cites": [], "doi": null}}'
        )
        assert corpus_module._written_line(line) is not None
        (rec,) = load_canonical(line + "\n").citing.values()
        assert rec.addresses == tuple(json.loads(items))

    @pytest.mark.parametrize(
        "body", ['"' + "a" * (1 << 20), '"a", ' * (1 << 18), '"' + "a, " * (1 << 19)],
        ids=["one_string", "many_strings", "separators_in_one_string"],
    )
    def test_unterminated_list_fails_the_match_fast(self, body):
        # The list's strings never close, so the match must fail; it backtracks
        # over the line once, not over every way to split it.
        line = (
            '{"id": "A", "side": "cited", "year": 2005, "doctype": "", "addresses": ['
            + body + ', "nrefs": null, "cites": [], "doi": null}'
        )
        assert len(line) > 1_000_000
        start = time.perf_counter()
        assert corpus_module._written_line(line) is None
        assert time.perf_counter() - start < 1.0

    def test_round_trip_small(self):
        corpus = build_corpus(
            [PublicationRecord(id="A", year=2005, addresses=("Univ X, City",))],
            [PublicationRecord(id="X", year=2007, nrefs=5, cited_ids=("A",))],
        )
        text = write_canonical(corpus)
        assert len(text.strip().splitlines()) == 2
        assert load_canonical(text) == corpus

    def test_round_trip_unicode_byte_identical(self):
        corpus = build_corpus(
            [PublicationRecord(id="A", year=2005, addresses=("Ümeå Univ, Sweden",))],
            [],
        )
        text = write_canonical(corpus)
        assert "Ümeå Univ" in text
        assert write_canonical(load_canonical(text)) == text

    def test_empty_round_trip(self):
        corpus = build_corpus([], [])
        assert load_canonical(write_canonical(corpus)) == corpus

    def test_unknown_fields_ignored(self):
        line = '{"id": "A", "side": "cited", "year": 2005, "bogus": [1, 2]}\n'
        corpus = load_canonical(line)
        assert "A" in corpus.cited
        assert "bogus" not in write_canonical(corpus)

    def test_both_side_record(self):
        lines = (
            '{"id": "A", "side": "cited", "year": 2005}\n'
            '{"id": "B", "side": "both", "year": 2005, "nrefs": 4, "cites": ["A"]}\n'
        )
        corpus = load_canonical(lines)
        assert "B" in corpus.cited and "B" in corpus.citing
        assert corpus.links == (("B", "A"),)

    def test_round_trip_property_random_corpora(self):
        rng = random.Random(7)
        for _ in range(60):
            corpus = random_corpus(rng, max_records=25)
            assert load_canonical(write_canonical(corpus)) == corpus

    def test_link_closure_property(self):
        rng = random.Random(11)
        for _ in range(60):
            corpus = random_corpus(rng, max_records=25)
            for citing_id, cited_id in corpus.links:
                assert cited_id in corpus.cited
                assert citing_id in corpus.citing


# Strings and integers on both sides of the written-line match: non-ASCII,
# line separators and lone surrogates, which the encoder writes raw; quotes,
# backslashes and control characters, which it escapes; integers of 18 and
# 19 digits.
_RAW = ["a", "B", " ", ",", ":", "é", "清", "\u2028"]
_PLAIN = st.text(st.sampled_from(_RAW), max_size=5)
_ANY = st.text(st.sampled_from([*_RAW, "\ud800", "\udfff", '"', "\\", "\x00", "\x1f", "\n"]),
               max_size=5)
_YEAR = st.sampled_from([2005, 1, 10**18 - 1, 10**18, 0, -(10**18 - 1), -(10**18)]
                        + [2005] * 9)
_NREFS = st.none() | st.sampled_from([0, 10**18 - 1, 10**18, -1, -(10**18)] + [7] * 6)
_WRONG = st.sampled_from([None, True, 2005.5, "2005", "x", "", [], {}, ["a", 1], ["A", "A"], -1])
_CANONICAL_KEYS = ("id", "side", "year", "doctype", "addresses", "nrefs", "cites", "doi")
# Hypothesis favours a strategy's first value, so this is mostly False.
_RARELY = st.sampled_from([False] * 5 + [True])


@st.composite
def _canonical_line(draw) -> str:
    """One line of canonical text: often in the shape write_canonical writes,
    else with strings it escapes, a field of a wrong type, keys missing or
    reordered, compact separators, escaped non-ASCII, or not a JSON object."""
    if draw(_RARELY) and draw(_RARELY):
        return draw(st.sampled_from([
            "", "  ", "{", "[]", "null", '{"id": "A"} x',
            # A raw control character in a string, and a leading zero, which
            # JSON does not allow.
            '{"id": "A\tB", "side": "cited", "year": 2005, "doctype": "", '
            '"addresses": [], "nrefs": null, "cites": [], "doi": null}',
            '{"id": "A", "side": "cited", "year": 02005, "doctype": "", '
            '"addresses": [], "nrefs": null, "cites": [], "doi": null}',
        ]))
    text = _ANY if draw(_RARELY) else _PLAIN
    values = {
        "id": draw(st.sampled_from(["A", "B"]) | text.map("R".__add__)),
        "side": draw(st.sampled_from(["cited", "Cited"] + ["citing", "both"] * 4)),
        "year": draw(_YEAR),
        "doctype": draw(text),
        "addresses": draw(st.lists(text, max_size=3)),
        "nrefs": draw(_NREFS),
        "cites": draw(st.lists(st.sampled_from(["A", "B", "10.1/x"]) | text, max_size=3,
                               unique=True)),
        "doi": draw(st.none() | text),
    }
    keys = list(_CANONICAL_KEYS)
    if draw(_RARELY):
        values[draw(st.sampled_from(keys[::-1]))] = draw(_WRONG)
    if draw(_RARELY):
        keys.remove(draw(st.sampled_from(keys[::-1])))
    if draw(_RARELY):
        keys = draw(st.permutations(keys))
    return json.dumps(
        {key: values[key] for key in keys},
        ensure_ascii=draw(_RARELY),
        separators=(",", ":") if draw(_RARELY) else None,
    )


def _loaded(text: str):
    try:
        return load_canonical(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


@settings(max_examples=1000, deadline=None)
@given(lines=st.lists(_canonical_line(), min_size=1, max_size=4))
def test_written_line_match_reads_as_json(lines):
    # A space after each line: JSON ignores it and the written-line match
    # never takes it, so the second load reads every line as JSON. Both give
    # the same records, or the same error at the same line.
    spaced = "".join(line + " \n" for line in lines)
    assert all(corpus_module._written_line(line) is None for line in spaced.split("\n"))
    assert _loaded("\n".join(lines) + "\n") == _loaded(spaced)


def test_written_lines_take_the_match():
    # Every line write_canonical writes for records whose strings need no
    # escape is read by the match, so the fast path cannot quietly stop
    # being taken.
    rng = random.Random(13)
    for _ in range(40):
        corpus = random_corpus(rng, max_records=30)
        records = [
            random_record(rng)._replace(
                id=f"R{i}", doi=rng.choice([None, f"10.1/{i}", "Ümeå"]),
                nrefs=rng.choice([None, 0, 10**18 - 1]), cited_ids=tuple(corpus.cited)[:2],
            )
            for i in range(5)
        ]
        corpus = build_corpus([*corpus.cited.values(), *records[:2]],
                              [*corpus.citing.values(), *records[1:]])
        text = write_canonical(corpus)
        with mock.patch.object(
            corpus_module, "_json_object", side_effect=AssertionError("read as JSON")
        ):
            assert load_canonical(text) == corpus


_GOOD = {
    load_canonical: '{"id": "A", "side": "cited", "year": 2005}\n',
    parse_tagged: "PT J\nUT WOS:1\nPY 2005\nER\n",
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("load", _GOOD, ids=lambda load: load.__name__)
def test_loaders_pause_the_collector_and_restore_it(load, enabled):
    # Each loader reads its input with the cyclic collector paused, and
    # leaves it as it found it, also when reading the input fails.
    collecting = []

    def read(fail):
        collecting.append(gc.isenabled())
        yield _GOOD[load]
        if fail:
            raise OSError("read failed")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load(read(fail=False)) == load(_GOOD[load])
        assert gc.isenabled() is enabled
        with pytest.raises(OSError, match="read failed"):
            load(read(fail=True))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert collecting == [False, False]


# Every line break str.splitlines accepts; only "\n", "\r\n" and "\r" end
# a line of an input.
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]


@settings(max_examples=400, deadline=None)
@given(
    text=st.lists(st.sampled_from(["a", "bc", " ", *_BREAKS])).map("".join),
    block=st.integers(1, 6),
)
def test_canonical_lines_end_only_at_newlines(text, block):
    # Universal newlines: only "\n", "\r\n" and "\r" end a line.
    expected = [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]
    with mock.patch.object(corpus_module, "_BLOCK_CHARS", block):
        assert [line for b in _blocks(text) for line in _lines(b)] == expected


def _cut(text: str, cuts: list[int]) -> list[str]:
    """`text` cut at the given offsets, as a file is read in blocks."""
    at = sorted({0, len(text), *(c % (len(text) + 1) for c in cuts)})
    return [text[a:b] for a, b in zip(at, at[1:])]


@settings(max_examples=400, deadline=None)
@given(
    text=st.lists(st.sampled_from(["a", "bc", " ", *_BREAKS])).map("".join),
    cuts=st.lists(st.integers(0, 60), max_size=8),
)
def test_lines_of_blocks_as_of_the_whole_text(text, cuts):
    # A line or a "\r\n" cut between two blocks is carried into the next.
    blocks = _cut(text, cuts)
    expected = [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]
    assert [line for b in _blocks(iter(blocks)) for line in _lines(b)] == expected


def test_loaders_take_blocks():
    # Both loaders give from a text's blocks what they give from the text.
    rng = random.Random(3)
    for _ in range(20):
        text = write_canonical(random_corpus(rng, max_records=20))
        blocks = _cut(text, [rng.randrange(len(text) + 1) for _ in range(6)])
        assert load_canonical(iter(blocks)) == load_canonical(text)
    text = _tagged_export(40)
    blocks = _cut(text, list(range(7, len(text), 97)))
    assert parse_tagged(iter(blocks)) == parse_tagged(text)


_SAMPLES = 'unit,fc_num,fc_den\nA,1,2\n"Dep B, Phys",3,1\n\nA,0,1\n"Dep B, Phys",1,3\n'


@pytest.mark.parametrize(
    "load, source",
    [(parse_tagged, "toy_good.tagged"), (load_canonical, "toy_corpus.jsonl"),
     (parse_unit_definitions, "toy_units.txt"), (load_aggregate_table, "table1.csv"),
     (load_samples_csv, _SAMPLES)],
    ids=["tagged", "canonical", "units", "aggregate_table", "samples"],
)
def test_every_loader_reads_one_line_rule(data_dir, load, source):
    # "\n", "\r\n" and a lone "\r" end a line alike, whether the text comes
    # whole or in pieces of 1 to 7 characters, as a file is read.
    text = source if "\n" in source else (data_dir / source).read_text(encoding="utf-8")
    rng = random.Random(4)
    expected = load(text)
    assert expected
    for end in ("\n", "\r\n", "\r"):
        variant = text.replace("\n", end)
        cuts = list(itertools.accumulate(rng.randint(1, 7) for _ in range(len(variant))))
        assert load(variant) == expected, repr(end)
        assert load(iter(_cut(variant, cuts))) == expected, repr(end)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_quoted_unit_holding_a_line_break_reads_whole(end):
    samples = f'unit,value{end}"Dep{end}Phys",1{end}B,2{end}"Dep{end}Phys",3{end}'
    table = f'unit,P,IC3,FC3,IC5,FC5{end}"Dep{end}Phys",5,1,1,2,2{end}B,6,1,1,1,1{end}'
    for size in (1, 2, 3, 7):
        pieces = [samples[i:i + size] for i in range(0, len(samples), size)]
        assert load_samples_csv(iter(pieces)) == {"Dep\nPhys": [1.0, 3.0], "B": [2.0]}
        pieces = [table[i:i + size] for i in range(0, len(table), size)]
        assert [row.unit for row in load_aggregate_table(iter(pieces))] == ["Dep\nPhys", "B"]


def test_line_after_a_quoted_line_break_is_counted():
    # Each line of a quoted cell counts, as a text editor numbers them.
    with pytest.raises(NonNumericCell, match="line 4: value 'x'"):
        load_samples_csv('unit,value\r"Dep\rPhys",1\rB,x\r')


class TestSharedValues:
    """Records that repeat an address, a cited id, a doctype or a year hold
    one object for it."""

    def _assert_shared(self, a: PublicationRecord, b: PublicationRecord) -> None:
        assert a.addresses[0] == b.addresses[0] and a.addresses[0] is b.addresses[0]
        assert a.cited_ids[0] == b.cited_ids[0] and a.cited_ids[0] is b.cited_ids[0]
        assert a.doctype == b.doctype and a.doctype is b.doctype
        assert a.year == b.year and a.year is b.year

    def test_canonical(self):
        line = (
            '{{"id": "{}", "side": "citing", "year": 2007, "doctype": "Letter", '
            '"addresses": ["Tsinghua Univ, Dep Phys"], "cites": ["10.1/x"]}}\n'
        )
        corpus = load_canonical(line.format("A") + line.format("B"))
        self._assert_shared(corpus.citing["A"], corpus.citing["B"])

    def test_tagged(self):
        record = (
            "PT J\nUT WOS:{}\nPY 2007\nDT Editorial Material\n"
            "C1 [Li, W] Tsinghua Univ, Dep Phys, Beijing.\n"
            "CR Smith J, 2001, J PHYS, V1, P1, DOI 10.1/x\nER\n"
        )
        a, b = parse_tagged(record.format("A") + record.format("B") + "EF\n").records
        self._assert_shared(a, b)


@pytest.mark.parametrize("block", [1, 2, 5, 64, 1 << 20])
def test_canonical_separators_stay_in_strings(block):
    # U+2028, U+2029 and U+0085 inside a JSON string do not end its record,
    # and an error after them names its line for any block size.
    records = "\r\n".join(
        f'{{"id": "A{i}\u2028", "side": "cited", "year": 2005, '
        f'"addresses": ["Tsinghua\x85Univ\u2029"]}}'
        for i in range(5)
    )
    with mock.patch.object(corpus_module, "_BLOCK_CHARS", block):
        corpus = load_canonical(records + "\n")
        assert corpus.cited["A3\u2028"].addresses == ("Tsinghua\x85Univ\u2029",)
        assert load_canonical(write_canonical(corpus)) == corpus
        with pytest.raises(MalformedField, match="line 7: record 'Z' has no 'year'"):
            load_canonical(records + "\r\n\n" + '{"id": "Z", "side": "cited"}\n')


@pytest.mark.parametrize("block", [1, 2, 5, 64, 1 << 20])
def test_tagged_separators_stay_in_values(block):
    # U+0085, U+2028 and "\x0c" inside a CR line do not cut its DOI off, nor
    # inside a C1 line the rest of its address, and an error after them
    # names its line for any block size.
    record = (
        "PT J\r\nUT WOS:{}\r\nPY 2005\r\n"
        "C1 [Li, W] Tsinghua\x85Univ\u2028Dep\x0cPhys; Peking Univ\r\n"
        "CR Anon\x85 2001\u2028J X\x0c, DOI 10.1/a\r\nER\r\n"
    )
    text = "".join(map(record.format, range(5)))
    with mock.patch.object(corpus_module, "_BLOCK_CHARS", block):
        result = parse_tagged(text + "EF\r\n")
        assert [r.cited_ids for r in result.records] == [("10.1/a",)] * 5
        assert result.records[3].addresses == (
            "Tsinghua\x85Univ\u2028Dep\x0cPhys", "Peking Univ",
        )
        (error,) = parse_tagged(text + "PT J\r\nUT WOS:9\r\nER\r\nEF\r\n").errors
        assert str(error) == "line 31: record has no PY field"


def _transient_bytes(load, text):
    """Peak traced memory of load(text) less what its result retains."""
    tracemalloc.start()
    try:
        result = load(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - retained


def _tagged_export(records: int) -> str:
    lines = ["FN Thomson Reuters Web of Science", "VR 1.0"]
    for i in range(records):
        lines += [
            "PT J",
            f"UT WOS:{i:015d}",
            f"DI 10.1000/rec.{i}",
            "PY 2005",
            "NR 3",
            "DT Article",
            f"C1 [Li, W; Chen, X] Tsinghua Univ, Dep Phys {i % 7}, Beijing, Peoples R China.",
            "   Peking Univ, Sch Life Sci, Beijing, Peoples R China.",
            f"CR Smith J, 2001, J PHYS, V1, P{i}, DOI 10.1000/rec.{i // 2}",
            "   ANON, 1999, OLD J, V1, P1",
            "ER",
            "",
        ]
    return "\n".join(lines + ["EF"]) + "\n"


class TestTransientMemory:
    """The loaders hold one block of lines at a time, not one object per line
    of the whole text: a ~4 MB input spans several blocks."""

    def test_parse_tagged(self):
        text = _tagged_export(16_000)
        assert len(text) > 3 * corpus_module._BLOCK_CHARS
        assert _transient_bytes(parse_tagged, text) < len(text)

    def test_load_canonical(self):
        records = parse_tagged(_tagged_export(16_000)).records
        text = write_canonical(build_corpus(records))
        assert len(text) > 3 * corpus_module._BLOCK_CHARS
        assert _transient_bytes(load_canonical, text) < len(text)


class TestWriterOracle:
    def test_random_corpora(self):
        rng = random.Random(5)
        for _ in range(100):
            corpus = random_corpus(rng, max_records=40)
            assert write_canonical(corpus) == reference_write_canonical(corpus)

    @pytest.mark.parametrize(
        "text",
        ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "Ümeå 清华大学",
         "line\u2028para\u2029end", "\ud800 lone surrogate", ""],
        ids=["quotes", "backslash", "control", "non_ascii", "separators", "surrogate",
             "empty"],
    )
    def test_escaped_strings(self, text):
        records = [
            PublicationRecord(
                id=f"A{text}", year=2005, doctype=text, addresses=(text, "x"),
                nrefs=None, doi=text,
            ),
            PublicationRecord(
                id=f"B{text}", year=2006, doctype=text, addresses=(), nrefs=0,
                cited_ids=(f"A{text}", text), doi=None,
            ),
            PublicationRecord(id=f"C{text}", year=7, addresses=(), cited_ids=()),
        ]
        corpus = build_corpus(records[:2], records[1:])
        assert set(corpus.cited) & set(corpus.citing)
        written = write_canonical(corpus)
        assert written == reference_write_canonical(corpus)
        if "\ud800" in text:
            # Written as is, but a str holding a lone surrogate is refused on
            # load, raw as escaped, since no output file could encode it.
            with pytest.raises(MalformedField, match="line 1: .* lone surrogate"):
                load_canonical(written)
        else:
            assert load_canonical(written) == corpus

    @settings(max_examples=200, deadline=None)
    @given(
        strings=st.lists(st.text(max_size=8), min_size=4, max_size=4),
        numbers=st.tuples(st.integers(1, 10**6), st.none() | st.integers(0, 10**6)),
    )
    def test_any_text(self, strings, numbers):
        rec_id, doctype, address, doi = strings
        rec = PublicationRecord(
            id=rec_id, year=numbers[0], doctype=doctype, addresses=(address,),
            nrefs=numbers[1], cited_ids=(doi,), doi=doi or None,
        )
        corpus = build_corpus([rec], [rec])
        assert write_canonical(corpus) == reference_write_canonical(corpus)


class TestAggregateTable:
    def test_ratios_full_precision(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nDep Chem,404,2080,73.91,4950,166.36\n"
        (fcp5,) = unit_columns(load_aggregate_table(text), ["5"])["fcp5"]
        assert fcp5 == Fraction("166.36") / 404
        assert abs(float(fcp5) - 0.4117821782) < 1e-9

    def test_icp3_simple(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nDep Automot,5,3,0.16,8,0.3\n"
        (icp3,) = unit_columns(load_aggregate_table(text), ["3"])["icp3"]
        assert icp3 == Fraction(3, 5)

    def test_non_positive_p(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nDep X,0,1,1,1,1\n"
        with pytest.raises(NonPositiveP):
            load_aggregate_table(text)

    def test_non_numeric_cell(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nDep X,5,abc,1,1,1\n"
        with pytest.raises(NonNumericCell):
            load_aggregate_table(text)

    def test_missing_cells(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nDep Y,5,1,1,1,1\nDep X,5,1,1\n"
        with pytest.raises(MalformedField, match="line 3: row has 4 cells, the header 6"):
            load_aggregate_table(text)

    @pytest.mark.parametrize("p", ["1_0", "\u0661"], ids=["underscore", "non_ascii_digit"])
    def test_p_is_an_ascii_decimal(self, p):
        text = f"unit,P,IC3,FC3,IC5,FC5\nA,5,1,1,1,1\nB,{p},2,1,2,1\n"
        with pytest.raises(NonNumericCell, match="line 3: missing or non-numeric cell"):
            load_aggregate_table(text)

    def test_extra_cell(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nA,5,1,1,1,1\nB,5,2,1,2,1\nDep Extra,5,1,1,1,1,9\n"
        with pytest.raises(MalformedField, match="line 4: row has 7 cells, the header 6"):
            load_aggregate_table(text)

    def test_field_over_csv_limit_names_its_line(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nA,5,1,1,1,1\nB,5,2,1,2,1\nC,7,3,2,4," + "1" * 140_000
        with pytest.raises(MalformedField, match="line 4: field larger than field limit"):
            load_aggregate_table(text)

    @pytest.mark.parametrize(
        "row", ["A,5,1e400,1,1,1", "A,1" + "0" * 400 + ",1,1,1,1"], ids=["count", "p"]
    )
    def test_cell_beyond_float_range(self, row):
        text = "unit,P,IC3,FC3,IC5,FC5\n" + row + "\nB,6,2,1,3,2\n"
        with pytest.raises(NonNumericCell, match="line 2: cell too large for a float"):
            load_aggregate_table(text)

    @pytest.mark.parametrize("count", ["1e-999999999", "2E+1_000_000", "1.5e-10001"])
    def test_count_exponent_far_beyond_float_range(self, count):
        text = f"unit,P,IC3,FC3,IC5,FC5\nB,6,2,1,3,2\nA,5,1,{count},1,1\n"
        with pytest.raises(NonNumericCell, match="line 3: count exponent far beyond"):
            load_aggregate_table(text)

    def test_small_exponents_still_accepted(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nA,5,1000e-3,1E-10000,2.5e3,1e-0000400\n"
        (row,) = load_aggregate_table(text)
        assert row.ic == {"3": 1, "5": 2500}
        assert row.fc == {"3": Fraction(1, 10**10000), "5": Fraction(1, 10**400)}

    @pytest.mark.parametrize("ic3, ic5", [("12.5", "7"), ("12", "1e-400")])
    def test_non_integral_ic_rejected(self, ic3, ic5):
        text = f"unit,P,IC3,FC3,IC5,FC5\nB,6,2,1,3,2\nA,5,{ic3},1,{ic5},2\n"
        with pytest.raises(NonNumericCell, match="line 3: IC must be a whole number"):
            load_aggregate_table(text)

    @pytest.mark.parametrize("row", ["A,5,-3,-1,7,2", "A,5,3,1,7,-0.5"], ids=["ic", "fc"])
    def test_negative_count_rejected(self, row):
        text = f"unit,P,IC3,FC3,IC5,FC5\nB,6,2,1,3,2\n{row}\n"
        with pytest.raises(NonNumericCell, match="line 3: IC and FC must not be negative"):
            load_aggregate_table(text)

    def test_duplicate_unit_rejected(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nA,5,1,1,1,1\nB,5,2,1,2,1\nA,6,3,1,3,1\n"
        with pytest.raises(DuplicateId, match="line 4"):
            load_aggregate_table(text)

    def test_ratio_identity_exact(self, table1_columns):
        c = table1_columns
        for i, p in enumerate(c["p"]):
            assert c["icp5"][i] - c["ic5"][i] / p == 0
            assert c["fcp3"][i] - c["fc3"][i] / p == 0


# Both unit-keyed tables are read by one row reader. A row: its unit, then
# a 1 in every other cell of the header.
_UNIT_TABLES = [
    pytest.param(load_aggregate_table, "unit,P,IC3,FC3,IC5,FC5", id="aggregate"),
    pytest.param(load_samples_csv, "unit,value", id="samples"),
]


def _table_row(unit: str, cells: int) -> str:
    return ",".join([unit] + ["1"] * (cells - 1))


@pytest.mark.parametrize("load, header", _UNIT_TABLES)
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_unit_table_row_width_names_its_line(load, header, extra):
    width = header.count(",") + 1
    text = f"{header}\n{_table_row('A', width)}\n{_table_row('B', width + extra)}\n"
    with pytest.raises(
        MalformedField, match=f"line 3: row has {width + extra} cells, the header {width}"
    ):
        load(text)


@pytest.mark.parametrize("load, header", _UNIT_TABLES)
def test_unit_table_blank_lines_are_no_rows(load, header):
    width = header.count(",") + 1
    text = f"{header}\n\n{_table_row('A', width)}\n\n{_table_row('B', width)}\n"
    assert len(load(text)) == 2
