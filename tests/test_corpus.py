import dataclasses
import io
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from citefrac import corpus as corpus_module
from citefrac.corpus import (
    ARTICLE,
    PROCEEDINGS_PAPER,
    REVIEW,
    PublicationRecord,
    _cited_doi,
    _lines,
    _record_lines,
    build_corpus,
    load_aggregate_table,
    load_canonical,
    parse_tagged,
    write_canonical,
)
from citefrac.errors import (
    DuplicateId,
    MalformedField,
    MissingId,
    NonNumericCell,
    NonPositiveP,
    UnterminatedRecord,
)
from citefrac.report import unit_columns
from helpers import (
    _DOI_SUFFIX_RE,
    random_corpus,
    reference_parse_tagged,
    reference_write_canonical,
)


def test_record_is_an_unchecked_slotted_value():
    # The loaders check the record rule; the type itself checks nothing.
    rec = PublicationRecord(id="", year=0, nrefs=-1, cited_ids=("A", "A"))
    assert rec.reference_count == -1
    assert not hasattr(rec, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
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
    "UT": ["WOS:1", "WOS:2", "WOS:3", "", " WOS:4 "],
    "DI": ["10.9/one", "10.9/two", ""],
    "PY": ["2005", "2006", "0", "-1", "20x5", " 2007 ", "2_005", ""],
    "NR": ["3", "0", "-2", "many", ""],
    "DT": ["Article", "review", "Proceedings Paper", "Letter", ""],
    "C1": [
        "[Smith, J.] State Univ, Dep Alpha, USA; [Lee, K.] Tech Inst, USA",
        "[Tanaka, Y.; Liu, U.] Fudan Univ, Shanghai",
        "Plain Univ, City",
        "[Open bracket; Univ X, City",
        " ; ;Univ Y ; ",
    ],
    "CR": [
        "Anon, 2001, J X, V1, P1, DOI 10.1/a",
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
    ],
}
_OTHER_TAGS = ["PT", "AU", "TI", "SO", "FN", "VR", "ER", "EF", "Z9", "C2"]
_NOISE = [
    "", "   ", "\t", "pt J", "1C x", "PY2005", "header prose", "E", "ER\tx",
    "ER", "ER  ", "ER\t", "EF", "EF ", "ER x", "EF x",
]
_INDENTS = ["   ", " ", "\t", "\u3000"]
_BREAKS = ["\n"] * 6 + ["\r\n", "\r", "\u2028"]


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
    return "".join(line + rng.choice(_BREAKS) for line in lines)


def _error_keys(result):
    return [(type(e), str(e), e.line) for e in result.errors]


def test_parse_tagged_matches_reference_parser():
    rng = random.Random(2010)
    accepted = rejected = 0
    for _ in range(600):
        text = _random_tagged(rng)
        fast, reference = parse_tagged(text), reference_parse_tagged(text)
        assert fast.records == reference.records, text
        assert _error_keys(fast) == _error_keys(reference), text
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
@given(st.lists(_CR_PIECES, max_size=8).map("".join))
def test_cited_doi_matches_regex(line):
    m = _DOI_SUFFIX_RE.search(line)
    assert _cited_doi(line) == (m[1] if m else None)


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
    ],
    ids=["crlf", "lone_cr", "u2028_er_field", "prose", "ef_in_record",
         "unknown_tags_only", "doi_forms"],
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
            ('{"id": "Z", "side": "citing", "year": "x"}', "invalid literal"),
            ('{"id": "Z", "side": "cited", "year": 2005, "addresses": "Tsinghua Univ"}',
             "addresses must be a list"),
            ('{"id": "Z", "side": "citing", "year": 2006, "cites": "AB"}', "cites must be a list"),
            ('{"id": "Z", "side": "citing", "year": 2006, "nrefs": -1}', "nrefs must be >= 0, got -1"),
            ('{"id": "Z", "side": "citing", "year": 2006, "cites": ["A", "A"]}',
             "cites contains duplicates"),
        ],
        ids=[
            "year_zero", "missing_year", "nrefs_not_integer", "year_not_integer",
            "addresses_string", "cites_string", "nrefs_negative", "cites_repeated",
        ],
    )
    def test_bad_record_carries_line(self, record, message):
        lines = '{"id": "A", "side": "cited", "year": 2005}\n\n' + record + "\n"
        with pytest.raises(MalformedField, match=f"line 3: .*{message}"):
            load_canonical(lines)

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


# Every line break str.splitlines accepts.
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]


@settings(max_examples=400, deadline=None)
@given(
    text=st.lists(st.sampled_from(["a", "bc", " ", *_BREAKS])).map("".join),
    block=st.integers(1, 6),
)
def test_lines_split_blocks_as_splitlines(text, block):
    with mock.patch.object(corpus_module, "_BLOCK_CHARS", block):
        assert list(_lines(text)) == text.splitlines()


@settings(max_examples=400, deadline=None)
@given(
    text=st.lists(st.sampled_from(["a", "bc", " ", *_BREAKS])).map("".join),
    block=st.integers(1, 6),
)
def test_canonical_lines_end_only_at_newlines(text, block):
    # Universal newlines: only "\n", "\r\n" and "\r" end a line.
    expected = [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]
    with mock.patch.object(corpus_module, "_BLOCK_CHARS", block):
        assert list(_lines(text, _record_lines)) == expected


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
        assert write_canonical(corpus) == reference_write_canonical(corpus)
        assert load_canonical(write_canonical(corpus)) == corpus

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
        with pytest.raises(NonNumericCell, match="line 3"):
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
        text = "unit,P,IC3,FC3,IC5,FC5\nA,5,1e-400,1E-10000,2.5e3,1e-0000400\n"
        (row,) = load_aggregate_table(text)
        assert row.ic == {"3": Fraction(1, 10**400), "5": Fraction(2500)}
        assert row.fc == {"3": Fraction(1, 10**10000), "5": Fraction(1, 10**400)}

    def test_duplicate_unit_rejected(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nA,5,1,1,1,1\nB,5,2,1,2,1\nA,6,3,1,3,1\n"
        with pytest.raises(DuplicateId, match="line 4"):
            load_aggregate_table(text)

    def test_ratio_identity_exact(self, table1_columns):
        c = table1_columns
        for i, p in enumerate(c["p"]):
            assert c["icp5"][i] - c["ic5"][i] / p == 0
            assert c["fcp3"][i] - c["fc3"][i] / p == 0
