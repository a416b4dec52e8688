import random

import pytest

from citefrac.corpus import PublicationRecord, build_corpus, load_canonical
from citefrac.errors import CyclicMinus, QuerySyntaxError, UnknownUnitInMinus
from citefrac.unitquery import (
    And,
    FieldScope,
    MAX_DEPTH,
    MAX_NESTING,
    Not,
    Or,
    Phrase,
    Same,
    UnitDefinition,
    YearEquals,
    assign_units,
    parse_query,
    parse_unit_definitions,
    to_text,
)
from helpers import index_match_record, random_ast, random_record, reference_match_record


def rec(*addresses, year=2005):
    return PublicationRecord(id="R", year=year, addresses=addresses)


class TestParse:
    def test_year_equals(self):
        assert parse_query("py=2005") == YearEquals(2005)

    def test_footnote_pattern(self):
        ast = parse_query("ad=(tsinghua univ same dep phys) and py=2005")
        assert ast == And(
            FieldScope(
                "ad",
                Same(Phrase(("tsinghua", "univ")), Phrase(("dep", "phys"))),
            ),
            YearEquals(2005),
        )

    def test_same_binds_tighter_than_or(self):
        ast = parse_query("ad=(a same b or c)")
        assert ast == FieldScope(
            "ad", Or(Same(Phrase(("a",)), Phrase(("b",))), Phrase(("c",)))
        )

    def test_not_binds_tighter_than_same(self):
        ast = parse_query("ad=(a same b not c)")
        assert ast == FieldScope(
            "ad", Same(Phrase(("a",)), Not(Phrase(("b",)), Phrase(("c",))))
        )

    def test_parens_override(self):
        ast = parse_query("ad=((a or b) same c)")
        assert ast == FieldScope(
            "ad", Same(Or(Phrase(("a",)), Phrase(("b",))), Phrase(("c",)))
        )

    def test_keywords_case_insensitive(self):
        assert parse_query("ad=(a SAME b) AND py=2005") == parse_query(
            "ad=(a same b) and py=2005"
        )

    def test_left_associativity(self):
        ast = parse_query("ad=(a) or ad=(b) or ad=(c)")
        assert isinstance(ast, Or) and isinstance(ast.left, Or)

    def test_same_outside_ad_scope(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("py=2005 same py=2006")

    def test_unbalanced_paren(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("ad=(a same b")

    def test_dangling_operator(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("ad=(a) and")

    def test_unknown_field(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("ti=(quantum)")

    def test_empty_query(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("   ")

    def test_syntax_error_carries_position(self):
        try:
            parse_query("ad=(a) and zz=(b)")
        except QuerySyntaxError as exc:
            assert exc.position == 11
        else:
            pytest.fail("expected QuerySyntaxError")

    def test_nesting_bound_is_inclusive(self):
        inner = "(" * (MAX_NESTING - 1) + "a" + ")" * (MAX_NESTING - 1)
        assert parse_query(f"ad=({inner})") == FieldScope("ad", Phrase(("a",)))
        with pytest.raises(QuerySyntaxError, match="nested deeper") as info:
            parse_query(f"ad=(({inner}))")
        assert info.value.position == 3 + MAX_NESTING

    def test_depth_bound_is_inclusive(self):
        terms = ["ad=(a)", "py=2005"] * MAX_DEPTH
        ast = parse_query(" or ".join(terms[: MAX_DEPTH + 1]))
        assert parse_query(to_text(ast)) == ast
        assert index_match_record(ast, rec("a"))
        text = " or ".join(terms[: MAX_DEPTH + 2])
        with pytest.raises(QuerySyntaxError, match="more than") as info:
            parse_query(text)
        assert info.value.position == text.rindex(" or ") + 1

    @pytest.mark.parametrize(
        "text",
        [
            "ad=(a same b or c)",
            "ad=(a same (b or c) not (d not e))",
            "ad=(x) and (py=2005 or py=2006) and py=(2005 or 2006)",
        ],
    )
    def test_to_text_parenthesizes_only_where_needed(self, text):
        assert to_text(parse_query(text)) == text

    def test_year_must_be_decimal_digits(self):
        assert parse_query("py=2005") == YearEquals(2005)
        for text in ("py=²", "py=+5", "py=5_0", "py=(2005 or ²)", "py=٢٠٠٥", "py=١"):
            with pytest.raises(QuerySyntaxError, match="expected a year"):
                parse_query(text)

    def test_parse_count_three_token_expression(self):
        # Under the precedence ladder "a same b or c" has exactly one parse.
        a = parse_query("ad=(a same b or c)")
        explicit = parse_query("ad=((a same b) or c)")
        other = parse_query("ad=(a same (b or c))")
        assert a == explicit
        assert a != other


class TestMatch:
    def test_same_within_one_address(self):
        ast = parse_query("ad=(tsinghua univ same dep phys)")
        assert index_match_record(
            ast, rec("Tsinghua Univ, Dep Phys, Beijing, PR China")
        )

    def test_same_requires_cooccurrence(self):
        ast = parse_query("ad=(tsinghua univ same dep phys)")
        assert not index_match_record(
            ast, rec("Tsinghua Univ, Beijing", "Peking Univ, Dep Phys")
        )

    def test_china_not_taiwan(self):
        ast = parse_query("ad=(china not taiwan)")
        assert not index_match_record(ast, rec("Taipei, Taiwan, Republ of China"))
        assert index_match_record(ast, rec("Beijing, Peoples R China"))

    def test_phrase_crosses_comma_boundary(self):
        # "univ dep" spans the comma between two address components.
        ast = parse_query("ad=(univ dep phys)")
        assert index_match_record(ast, rec("Tsinghua Univ, Dep Phys, Beijing"))

    def test_year(self):
        assert index_match_record(parse_query("py=2005"), rec("x", year=2005))
        assert not index_match_record(parse_query("py=2005"), rec("x", year=2006))

    def test_punctuation_stripped(self):
        ast = parse_query("ad=(umea univ)")
        assert index_match_record(ast, rec("Umea Univ., (Dept. 5), Sweden"))

    def test_not_is_set_difference_property(self):
        rng = random.Random(5)
        for _ in range(300):
            left = random_ast(rng, 2)
            right = random_ast(rng, 2)
            record = random_record(rng)
            assert index_match_record(Not(left, right), record) == (
                index_match_record(left, record) and not index_match_record(right, record)
            )

    def test_same_subset_of_and_property(self):
        rng = random.Random(6)
        hits = 0
        for _ in range(2000):
            from helpers import _random_ad_node

            left = _random_ad_node(rng, 1)
            right = _random_ad_node(rng, 1)
            record = random_record(rng)
            same = FieldScope("ad", Same(left, right))
            conj = FieldScope("ad", And(left, right))
            if index_match_record(same, record):
                hits += 1
                assert index_match_record(conj, record)
        assert hits > 0  # the property was actually exercised

    def test_round_trip_random_asts(self):
        rng = random.Random(99)
        for _ in range(1000):
            ast = random_ast(rng)
            assert parse_query(to_text(ast)) == ast


class TestIndexEvaluator:
    """The address-index evaluator against the per-record oracle."""

    CHINA_TAIWAN = rec("Tsinghua Univ, Dep Phys, Beijing, China", "Taipei, Taiwan")

    def test_equals_reference_on_random_cases(self):
        rng = random.Random(11)
        hits = 0
        for _ in range(2000):
            records = [
                random_record(rng)._replace(id=f"R{i}")
                for i in range(rng.randint(0, 6))
            ]
            ast = random_ast(rng)
            want = {r.id for r in records if reference_match_record(ast, r)}
            assignment = assign_units(
                build_corpus(records, []), [UnitDefinition("U", ast)]
            )
            assert assignment["U"] == want, to_text(ast)
            for r in records:
                assert index_match_record(ast, r) == (r.id in want), to_text(ast)
            hits += len(want)
        assert hits > 100  # matches, not only misses, were compared

    def test_not_at_record_level_spans_addresses(self):
        # Some address has china, but another one has taiwan.
        ast = parse_query("ad=(china not taiwan)")
        assert not index_match_record(ast, self.CHINA_TAIWAN)

    def test_not_inside_same_is_per_address(self):
        ast = parse_query("ad=(dep phys same (china not taiwan))")
        assert index_match_record(ast, self.CHINA_TAIWAN)

    def test_phrase_across_comma_matches(self):
        assert index_match_record(parse_query("ad=(phys beijing)"), self.CHINA_TAIWAN)

    def test_phrase_split_across_addresses_does_not_match(self):
        # "china" ends the first address and "taipei" starts the second.
        assert not index_match_record(parse_query("ad=(china taipei)"), self.CHINA_TAIWAN)

    def test_repeated_token_needs_consecutive_run(self):
        ast = parse_query("ad=(univ univ)")
        assert index_match_record(ast, rec("Univ Univ Lab, Beijing"))
        assert not index_match_record(ast, rec("Univ Lab, Univ Beijing"))
        assert not index_match_record(ast, rec("Univ Lab", "Univ Beijing"))


class TestDefinitionsAndAssignment:
    def test_parse_definitions_minus(self):
        defs = parse_unit_definitions(
            "# comment\n"
            "Chem Engr := ad=(dep chem engr)\n"
            "Chem := ad=(dep chem) minus Chem Engr\n"
        )
        assert defs[1].name == "Chem"
        assert defs[1].minus == ("Chem Engr",)

    @pytest.mark.parametrize("text", ["A := ad=(x) minus", "A := ad=(x) minus , "])
    def test_minus_naming_no_unit_rejected(self, text):
        with pytest.raises(QuerySyntaxError) as info:
            parse_unit_definitions("B := ad=(y)\n" + text + "\n")
        assert (info.value.line, info.value.position) == (2, text.index("minus"))
        assert "minus names no unit" in str(info.value)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("B := ad=(y)\nA := ad=(x) minus B, Ghost\n", 2,
             "unit 'A' subtracts undefined unit 'Ghost'"),
            ("A := ad=(x) minus B\nB := ad=(y) minus A\n", 2,
             "cyclic minus chain through 'A'"),
            ("B := ad=(y)\nA := ad=(x) minus A\n", 2, "cyclic minus chain through 'A'"),
            ("A := ad=(x) minus B\nB := ad=(y) minus C\nC := ad=(z) minus B\n", 3,
             "cyclic minus chain through 'B'"),
        ],
        ids=["undefined", "cycle", "self", "cycle_below_start"],
    )
    def test_unresolvable_minus_rejected_with_line(self, text, line, message):
        with pytest.raises(QuerySyntaxError) as info:
            parse_unit_definitions(text)
        raw = text.splitlines()[line - 1]
        assert (info.value.line, info.value.position) == (line, raw.index("minus"))
        assert info.value.message == message

    def test_minus_may_name_a_later_unit(self):
        defs = parse_unit_definitions(
            "Chem := ad=(dep chem) minus Chem Engr\nChem Engr := ad=(dep chem engr)\n"
        )
        assert [(d.name, d.minus) for d in defs] == [
            ("Chem", ("Chem Engr",)), ("Chem Engr", ()),
        ]

    def test_long_minus_chain_in_file(self):
        # Each unit names the next, defined on the line below.
        n = 3000
        text = "".join(f"U{i} := ad=(x) minus U{i + 1}\n" for i in range(n))
        defs = parse_unit_definitions(text + f"U{n} := ad=(x)\n")
        assert len(defs) == n + 1
        with pytest.raises(QuerySyntaxError, match=f"line {n}, .*undefined unit 'U{n}'"):
            parse_unit_definitions(text)

    def test_minus_subtracts_result_set(self):
        corpus = build_corpus(
            [
                PublicationRecord(id="P1", year=2005, addresses=("Univ, Dep Chem",)),
                PublicationRecord(
                    id="P2", year=2005, addresses=("Univ, Dep Chem Engr",)
                ),
            ],
            [],
        )
        defs = parse_unit_definitions(
            "Chem Engr := ad=(dep chem engr)\nChem := ad=(dep chem) minus Chem Engr\n"
        )
        assignment = assign_units(corpus, defs)
        assert assignment["Chem Engr"] == {"P2"}
        assert assignment["Chem"] == {"P1"}

    def test_empty_corpus(self):
        defs = parse_unit_definitions("U := ad=(x)\n")
        assignment = assign_units(build_corpus([], []), defs)
        assert assignment == {"U": frozenset()}

    def test_multi_unit_membership(self):
        corpus = build_corpus(
            [
                PublicationRecord(
                    id="P1",
                    year=2005,
                    addresses=("Univ, Dep Phys", "Univ, Dep Chem"),
                )
            ],
            [],
        )
        defs = parse_unit_definitions("Phys := ad=(dep phys)\nChem := ad=(dep chem)\n")
        assignment = assign_units(corpus, defs)
        assert assignment["Phys"] == {"P1"} and assignment["Chem"] == {"P1"}

    def test_unknown_minus(self):
        defs = [UnitDefinition("A", parse_query("ad=(x)"), minus=("Ghost",))]
        with pytest.raises(UnknownUnitInMinus):
            assign_units(build_corpus([], []), defs)

    def test_cyclic_minus(self):
        q = parse_query("ad=(x)")
        defs = [
            UnitDefinition("A", q, minus=("B",)),
            UnitDefinition("B", q, minus=("A",)),
        ]
        with pytest.raises(CyclicMinus):
            assign_units(build_corpus([], []), defs)

    def test_long_minus_chain(self):
        # Each unit subtracts the next, so membership alternates down the chain.
        n = 3000
        corpus = build_corpus(
            [PublicationRecord(id="P", year=2005, addresses=("Univ X",))], []
        )
        defs = [
            UnitDefinition(f"U{i}", parse_query("ad=(x)"), minus=(f"U{i + 1}",))
            for i in range(n)
        ] + [UnitDefinition(f"U{n}", parse_query("ad=(x)"))]
        assignment = assign_units(corpus, defs)
        assert all(assignment[f"U{i}"] == ({"P"} if (n - i) % 2 == 0 else set())
                   for i in range(n + 1))

    def test_minus_disjointness_property(self):
        corpus = build_corpus(
            [
                PublicationRecord(id=f"P{i}", year=2005, addresses=(addr,))
                for i, addr in enumerate(
                    [
                        "Univ, Dep Chem",
                        "Univ, Dep Chem Engr",
                        "Univ, Dep Chem, Lab 1",
                        "Univ, Dep Chem Engr, Lab 2",
                    ]
                )
            ],
            [],
        )
        defs = parse_unit_definitions(
            "Chem Engr := ad=(dep chem engr)\nChem := ad=(dep chem) minus Chem Engr\n"
        )
        assignment = assign_units(corpus, defs)
        base_engr = {
            r.id
            for r in corpus.cited.values()
            if index_match_record(defs[0].query, r)
        }
        assert not assignment["Chem"] & base_engr

    def test_twelve_record_fixture_partition(self, data_dir):
        corpus = load_canonical((data_dir / "addresses12.jsonl").read_text())
        defs = parse_unit_definitions(
            (data_dir / "units_tsinghua.txt").read_text()
        )
        assignment = assign_units(corpus, defs)
        assert assignment["Dep Phys"] == {"A01", "A02", "A07", "A12"}
        assert assignment["Dep Chem Engr"] == {"A04"}
        assert assignment["Dep Chem"] == {"A03", "A07", "A11"}
        assert assignment["Sch Life Sci"] == {"A10"}
