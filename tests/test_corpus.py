import random
from fractions import Fraction

import pytest

from citefrac.corpus import (
    ARTICLE,
    PROCEEDINGS_PAPER,
    REVIEW,
    PublicationRecord,
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
from helpers import random_corpus


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

    def test_fixture_file(self, data_dir):
        result = parse_tagged((data_dir / "toy_good.tagged").read_text())
        assert len(result.records) == 3
        assert not result.errors
        assert result.records[1].nrefs == 40
        assert result.records[1].cited_ids == ("10.9/one",)


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
        ],
        ids=[
            "year_zero", "missing_year", "nrefs_not_integer", "year_not_integer",
            "addresses_string", "cites_string",
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


class TestAggregateTable:
    def test_ratios_full_precision(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nDep Chem,404,2080,73.91,4950,166.36\n"
        (row,) = load_aggregate_table(text)
        assert row.fcp5 == Fraction("166.36") / 404
        assert abs(float(row.fcp5) - 0.4117821782) < 1e-9

    def test_icp3_simple(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nDep Automot,5,3,0.16,8,0.3\n"
        (row,) = load_aggregate_table(text)
        assert row.icp3 == Fraction(3, 5)

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

    def test_duplicate_unit_rejected(self):
        text = "unit,P,IC3,FC3,IC5,FC5\nA,5,1,1,1,1\nB,5,2,1,2,1\nA,6,3,1,3,1\n"
        with pytest.raises(DuplicateId, match="line 4"):
            load_aggregate_table(text)

    def test_ratio_identity_exact(self, table1_rows):
        for row in table1_rows:
            assert row.icp5 - row.ic5 / row.p == 0
            assert row.fcp3 - row.fc3 / row.p == 0
