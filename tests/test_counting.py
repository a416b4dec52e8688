import itertools
import random
from fractions import Fraction

import pytest

from citefrac.corpus import EVALUATED_DOCTYPES, PublicationRecord, build_corpus
from citefrac.counting import (
    PaperImpact,
    ScoreSet,
    Window,
    aggregate_units,
    paper_scores,
    per_paper_samples,
)
from citefrac.errors import UnknownUnit
from citefrac.report import unit_columns
from helpers import brute_force_scores, random_corpus

ALL_DOCTYPES = frozenset(
    {"Article", "Review", "Proceedings Paper", "Editorial", "Letter"}
)


def citing(id, year, nrefs, cites):
    return PublicationRecord(
        id=id, year=year, doctype="Article", nrefs=nrefs, cited_ids=tuple(cites)
    )


def cited(id, year=2005, doctype="Article"):
    return PublicationRecord(id=id, year=year, doctype=doctype)


class TestFractionalWeight:
    @pytest.mark.parametrize("k,expected", [(6, Fraction(1, 6)), (40, Fraction(1, 40)), (1, Fraction(1))])
    def test_weight(self, k, expected):
        corpus = build_corpus([cited("A")], [citing("X", 2006, k, ["A"])])
        assert paper_scores(corpus, Window(2005, 2009)).impacts["A"].fc == expected

    def test_k_falls_back_to_reference_list(self):
        rec = PublicationRecord(id="X", year=2006, cited_ids=("A", "B"))
        assert rec.reference_count == 2


class TestPaperScores:
    def test_single_link(self):
        corpus = build_corpus([cited("A")], [citing("X", 2006, 4, ["A"])])
        scores = paper_scores(corpus, Window(2005, 2007))
        assert scores.impacts["A"].ic == 1
        assert scores.impacts["A"].fc == Fraction(1, 4)

    def test_window_exclusion(self):
        corpus = build_corpus([cited("A")], [citing("X", 2008, 4, ["A"])])
        scores = paper_scores(corpus, Window(2005, 2007))
        assert scores.impacts["A"].ic == 0
        assert scores.impacts["A"].fc == 0

    def test_distributed_credit(self):
        corpus = build_corpus(
            [cited("A"), cited("B")], [citing("X", 2006, 10, ["A", "B"])]
        )
        scores = paper_scores(corpus, Window(2005, 2009))
        assert scores.impacts["A"].fc == Fraction(1, 10)
        assert scores.impacts["B"].fc == Fraction(1, 10)
        total = scores.impacts["A"].fc + scores.impacts["B"].fc
        assert total == Fraction(2, 10)

    def test_doctype_filter_on_cited_side_only(self):
        corpus = build_corpus(
            [cited("A", doctype="Editorial"), cited("B")],
            [citing("X", 2006, 2, ["A", "B"])],
        )
        scores = paper_scores(corpus, Window(2005, 2009))
        assert "A" not in scores.impacts
        assert scores.impacts["B"].ic == 1

    def test_zero_k_citing_skipped_with_warning(self):
        corpus = build_corpus([cited("A")], [citing("X", 2006, 0, ["A"])])
        scores = paper_scores(corpus, Window(2005, 2009))
        assert scores.impacts["A"].ic == 0
        assert scores.skipped_citing == ["X"]

    def test_uncited_papers_present_with_zero(self):
        corpus = build_corpus([cited("A"), cited("B")], [])
        scores = paper_scores(corpus, Window(2005, 2009))
        assert scores.impacts["B"].ic == 0 and scores.impacts["B"].fc == 0


class TestAggregateUnits:
    def test_exact_rational_sum(self):
        impacts = {
            "P1": PaperImpact(ic=2, fc=Fraction(1, 3)),
            "P2": PaperImpact(ic=1, fc=Fraction(1, 4)),
        }
        (row,), _ = aggregate_units(
            {"U": frozenset({"P1", "P2"})}, {"w": ScoreSet(impacts)}, min_pubs=2
        )
        assert row.p == 2
        assert row.ic == {"w": 3}
        assert row.fc == {"w": Fraction(7, 12)}
        assert unit_columns([row], ["w"])["fcpw"] == [Fraction(7, 24)]

    def test_min_pubs_exclusion(self):
        impacts = {f"P{i}": PaperImpact() for i in range(4)}
        rows, skipped = aggregate_units(
            {"Small": frozenset(impacts)}, {"w": ScoreSet(impacts)}, min_pubs=5
        )
        assert not rows
        assert skipped == [("Small", 4)]

    def test_empty_assignment(self):
        assert aggregate_units({}, {"w": ScoreSet({})}) == ([], [])

    def test_shared_paper_counts_fully_in_both_units(self):
        impacts = {"P1": PaperImpact(ic=5, fc=Fraction(1, 2))}
        rows, _ = aggregate_units(
            {"U1": frozenset({"P1"}), "U2": frozenset({"P1"})},
            {"w": ScoreSet(impacts)},
            min_pubs=1,
        )
        assert [row.ic for row in rows] == [{"w": 5}, {"w": 5}]


    def test_every_window_at_once(self):
        # P and the skipped units are resolved once; each window keeps its
        # own totals.
        early = {"P1": PaperImpact(ic=1, fc=Fraction(1, 2)), "P2": PaperImpact()}
        late = {
            "P1": PaperImpact(ic=2, fc=Fraction(3, 4)),
            "P2": PaperImpact(ic=1, fc=Fraction(1, 3)),
        }
        (row,), skipped = aggregate_units(
            {"U": frozenset({"P1", "P2"}), "V": frozenset({"P2", "P9"})},
            {"_a": ScoreSet(early), "_b": ScoreSet(late)},
            min_pubs=2,
        )
        assert (row.unit, row.p) == ("U", 2)
        assert row.ic == {"_a": 1, "_b": 3}
        assert row.fc == {"_a": Fraction(1, 2), "_b": Fraction(13, 12)}
        assert skipped == [("V", 1)]

    def test_chained_sum_oracle(self):
        # Each unit's totals equal the plain per-paper sums, in every window:
        # one with no link, so every FC is 0, among windows that count.
        rng = random.Random(36)
        windows = [Window(1990, 1991), Window(2005, 2007), Window(2004, 2011)]
        mixed = 0  # rows summing FCs of more than one denominator
        for _ in range(60):
            corpus = random_corpus(rng, 30)
            scores = {
                w.label(): paper_scores(corpus, w, ALL_DOCTYPES) for w in windows
            }
            papers = list(corpus.cited)
            assignment = {
                f"U{i}": frozenset(rng.sample(papers, rng.randint(0, len(papers))))
                for i in range(rng.randint(1, 5))
            }
            min_pubs = rng.randint(1, 3)
            rows, skipped = aggregate_units(assignment, scores, min_pubs)
            assert len(rows) + len(skipped) == len(assignment)
            for row in rows:
                members = [p for p in assignment[row.unit] if p in scores["1990-1991"].impacts]
                assert row.p == len(members) >= min_pubs
                for name, score_set in scores.items():
                    impacts = [score_set.impacts[p] for p in members]
                    assert row.ic[name] == sum(imp.ic for imp in impacts)
                    assert row.fc[name] == sum((imp.fc for imp in impacts), Fraction(0))
                    mixed += len({imp.fc.denominator for imp in impacts}) > 1
                assert row.ic["1990-1991"] == 0 and row.fc["1990-1991"] == 0
        assert mixed > 50

    def test_unit_of_uncited_papers(self):
        impacts = {
            "P1": PaperImpact(), "P2": PaperImpact(), "P3": PaperImpact(ic=1, fc=Fraction(1, 6)),
        }
        (row,), _ = aggregate_units(
            {"U": frozenset({"P1", "P2"})}, {"w": ScoreSet(impacts)}, min_pubs=1
        )
        assert row.ic == {"w": 0}
        assert row.fc == {"w": Fraction(0)} and type(row.fc["w"]) is Fraction

    @pytest.mark.parametrize("scores", [
        {},
        {"_a": ScoreSet({"P1": PaperImpact()}), "_b": ScoreSet({})},
    ], ids=["no_window", "different_papers"])
    def test_windows_must_count_the_same_papers(self, scores):
        with pytest.raises(ValueError, match="count the same papers"):
            aggregate_units({"U": frozenset({"P1"})}, scores)


class TestPerPaperSamples:
    def test_direct_conversion(self):
        impacts = {
            "P1": PaperImpact(ic=1, fc=Fraction(1, 2)),
            "P2": PaperImpact(ic=0, fc=Fraction(0)),
            "P3": PaperImpact(ic=1, fc=Fraction(1, 4)),
        }
        samples = per_paper_samples(
            {"U": frozenset({"P1", "P2", "P3"})}, ScoreSet(impacts), "U"
        )
        assert sorted(samples) == [0.0, 0.25, 0.5]

    def test_uncited_paper(self):
        impacts = {"P1": PaperImpact()}
        assert per_paper_samples({"U": frozenset({"P1"})}, ScoreSet(impacts), "U") == [0.0]

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            per_paper_samples({}, ScoreSet({}), "Ghost")

    def test_sample_length_equals_p_property(self):
        rng = random.Random(21)
        for _ in range(50):
            corpus = random_corpus(rng, 30)
            scores = paper_scores(corpus, Window(2005, 2009), ALL_DOCTYPES)
            assignment = {"U": frozenset(scores.impacts)}
            rows, _ = aggregate_units(assignment, {"w": scores}, min_pubs=1)
            if rows:
                samples = per_paper_samples(assignment, scores, "U")
                assert len(samples) == rows[0].p


class TestCountingProperties:
    def test_conservation_per_citing_document(self):
        rng = random.Random(31)
        window = Window(2005, 2009)
        for _ in range(100):
            corpus = random_corpus(rng, 30)
            scores = paper_scores(corpus, window, ALL_DOCTYPES)
            # Total credit distributed by one citing document equals m/k.
            credit: dict[str, Fraction] = {}
            for citing_id, cited_id in corpus.links:
                rec = corpus.citing[citing_id]
                if not window.start <= rec.year <= window.end or rec.reference_count <= 0:
                    continue
                if cited_id in scores.impacts:
                    credit[citing_id] = credit.get(citing_id, Fraction(0)) + Fraction(
                        1, rec.reference_count
                    )
            for citing_id, total in credit.items():
                rec = corpus.citing[citing_id]
                m = sum(
                    1
                    for cid, did in corpus.links
                    if cid == citing_id and did in scores.impacts
                )
                assert total == Fraction(m, rec.reference_count)
                assert total <= 1

    def test_dominance_fc_le_ic(self):
        rng = random.Random(32)
        for _ in range(100):
            corpus = random_corpus(rng, 30)
            scores = paper_scores(corpus, Window(2005, 2009), ALL_DOCTYPES)
            for impact in scores.impacts.values():
                assert impact.fc <= impact.ic

    def test_window_monotonicity(self):
        rng = random.Random(33)
        for _ in range(100):
            corpus = random_corpus(rng, 30)
            narrow = paper_scores(corpus, Window(2005, 2007), ALL_DOCTYPES)
            wide = paper_scores(corpus, Window(2005, 2009), ALL_DOCTYPES)
            for pid in narrow.impacts:
                assert narrow.impacts[pid].ic <= wide.impacts[pid].ic
                assert narrow.impacts[pid].fc <= wide.impacts[pid].fc

    def test_brute_force_oracle_equivalence(self):
        rng = random.Random(34)
        # (1990, 1991) holds no citing year of random_corpus, so no link.
        windows = [Window(1990, 1991), Window(2005, 2005), Window(2005, 2008),
                   Window(2004, 2011)]
        for _ in range(100):
            corpus = random_corpus(rng, 20)
            # Give a share of the citing documents k = 0 while they keep
            # their references, so the skip path sees linked documents.
            corpus = build_corpus(
                corpus.cited.values(),
                [
                    rec._replace(nrefs=0) if rng.random() < 0.2 else rec
                    for rec in corpus.citing.values()
                ],
            )
            for window, doctypes in itertools.product(
                windows, [EVALUATED_DOCTYPES, ALL_DOCTYPES]
            ):
                scores = paper_scores(corpus, window, doctypes)
                oracle = brute_force_scores(corpus, window, doctypes)
                assert set(scores.impacts) == set(oracle)
                for pid in oracle:
                    assert scores.impacts[pid].ic == oracle[pid].ic
                    assert scores.impacts[pid].fc == oracle[pid].fc
                expected_skipped = sorted(
                    rec.id
                    for rec in corpus.citing.values()
                    if window.start <= rec.year <= window.end
                    and rec.reference_count == 0
                    and any(ref in oracle for ref in rec.cited_ids)
                )
                assert scores.skipped_citing == expected_skipped

    def test_large_lcm_is_exact(self):
        # Citing documents whose k values are the primes up to 97 (their
        # lcm exceeds 2**120), some of them repeated, plus composite k.
        primes = [k for k in range(2, 98) if all(k % d for d in range(2, k))]
        ks = primes + [2, 2, 3, 97, 97, 97, 91, 96, 1]
        corpus = build_corpus(
            [cited("A")],
            [citing(f"X{i}", 2006, k, ["A"]) for i, k in enumerate(ks)],
        )
        impact = paper_scores(corpus, Window(2005, 2009)).impacts["A"]
        assert len(primes) == 25
        assert impact.ic == len(ks)
        assert impact.fc == sum(
            (Fraction(ks.count(k), k) for k in set(ks)), Fraction(0)
        )

    def test_determinism_across_orderings(self):
        # Exact rational accumulation is order-independent: summing the
        # per-link contributions in any permutation gives identical totals.
        rng = random.Random(35)
        corpus = random_corpus(rng, 40)
        window = Window(2005, 2009)
        scores = paper_scores(corpus, window, ALL_DOCTYPES)
        contributions: dict[str, list[Fraction]] = {
            pid: [] for pid in scores.impacts
        }
        for citing_id, cited_id in corpus.links:
            rec = corpus.citing[citing_id]
            if cited_id in contributions and window.start <= rec.year <= window.end:
                if rec.reference_count > 0:
                    contributions[cited_id].append(Fraction(1, rec.reference_count))
        for pid, parts in contributions.items():
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert sum(shuffled, Fraction(0)) == scores.impacts[pid].fc
