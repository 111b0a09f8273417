"""BLEU against a brute-force oracle, proxy task metrics, and the t-test."""

import json
import math
import random

import pytest

import tokmoe.metrics as MX
from tokmoe.data import Goal, Sample
from tokmoe.errors import DomainError

from conftest import brute_force_bleu

BLEU_PAIRS = [
    (["a", "b", "c", "d"], ["a", "b", "c", "d", "e"]),          # BP = exp(1 - 5/4)
    (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"]),
    (["the", "the", "the", "the", "the"], ["the", "cat", "sat", "on", "mat"]),
    (["i", "want", "a", "cheap", "hotel"], ["i", "want", "a", "cheap", "room"]),
    (["the", "[train_id]", "leaves", "at", "[value_time]"],
     ["the", "[train_id]", "departs", "at", "[value_time]"]),
    (["x", "y", "z", "w", "v", "u"], ["x", "y", "z", "w"]),     # hyp longer, BP = 1
    (["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f", "g"]),
    (["q", "r", "s", "t"], ["a", "b", "c", "d"]),               # zero overlap
    (["to", "be", "or", "not", "to", "be"], ["to", "be", "or", "not", "to", "be"]),
    (["book", "the", "room", "book", "the", "room"], ["book", "the", "room", "please"]),
]


class TestBleu:
    def test_ten_handcrafted_pairs_match_brute_force(self):
        for hyp, ref in BLEU_PAIRS:
            assert abs(MX.bleu_corpus([hyp], [ref]) - brute_force_bleu([hyp], [ref])) < 1e-9

    def test_pooled_corpus_matches_brute_force(self):
        hyps = [pair[0] for pair in BLEU_PAIRS]
        refs = [pair[1] for pair in BLEU_PAIRS]
        assert abs(MX.bleu_corpus(hyps, refs) - brute_force_bleu(hyps, refs)) < 1e-9

    def test_perfect_match_is_one(self):
        hyps = [["a", "b", "c", "d"], ["x", "y", "z", "w", "v"]]
        assert MX.bleu_corpus(hyps, [list(h) for h in hyps]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_unigram_overlap_is_zero(self):
        assert MX.bleu_corpus([["a", "b"]], [["c", "d"]]) == 0.0

    def test_brevity_penalty_case_closed_form(self):
        bleu = MX.bleu_corpus([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        assert abs(bleu - math.exp(1.0 - 5.0 / 4.0)) < 1e-9
        assert abs(bleu - 0.7788) < 1e-4

    def test_permutation_invariance(self):
        hyps = [pair[0] for pair in BLEU_PAIRS]
        refs = [pair[1] for pair in BLEU_PAIRS]
        base = MX.bleu_corpus(hyps, refs)
        order = list(range(len(hyps)))
        random.Random(5).shuffle(order)
        shuffled = MX.bleu_corpus([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_bounded_to_unit_interval(self):
        for hyp, ref in BLEU_PAIRS:
            value = MX.bleu_corpus([hyp], [ref])
            assert 0.0 <= value <= 1.0

    def test_count_mismatch_and_empty_rejected(self):
        with pytest.raises(DomainError):
            MX.bleu_corpus([["a"]], [["a"], ["b"]])
        with pytest.raises(DomainError):
            MX.bleu_corpus([], [])


def sample_with_goal(intent="hotel", entity="[hotel_id]", requested=()):
    return Sample(["ctx"], ["the", entity, "is", "here"], intent,
                  Goal(entity, list(requested)))


class TestInformSuccess:
    """Each behaviour of the per-sample indicators, read from ``build_report``'s rows."""

    def test_all_entities_present(self):
        samples = [sample_with_goal() for _ in range(3)]
        generated = [["here", "is", "[hotel_id]"]] * 3
        assert MX.build_report(samples, generated).overall.inform == 1.0

    def test_vacuous_goals_count_as_informed(self):
        samples = [Sample(["c"], ["r"], "general", None),
                   Sample(["c"], ["r"], "general", Goal(None, []))]
        generated = [["anything"], ["at", "all"]]
        overall = MX.build_report(samples, generated).overall
        assert (overall.inform, overall.success) == (1.0, 1.0)

    def test_half_informed(self):
        samples = [sample_with_goal(), sample_with_goal()]
        generated = [["[hotel_id]"], ["nothing", "useful"]]
        assert MX.build_report(samples, generated).overall.inform == 0.5

    def test_missing_requested_blocks_success(self):
        samples = [sample_with_goal(requested=["[value_time]", "[value_price]"])]
        generated = [["[hotel_id]", "[value_time]"]]
        overall = MX.build_report(samples, generated).overall
        assert (overall.inform, overall.success) == (1.0, 0.0)

    def test_success_never_exceeds_inform(self, rng):
        entities = ["[a_id]", "[b_id]", None]
        requested_pool = ["[value_time]", "[value_price]", "[value_area]"]
        for _ in range(100):
            samples = []
            generated = []
            for _ in range(8):
                entity = entities[rng.integers(0, 3)]
                requested = [t for t in requested_pool if rng.random() < 0.4]
                samples.append(Sample(["c"], ["r"], "xyz"[rng.integers(0, 3)], Goal(entity, requested)))
                pool = ["w1", "w2", "[a_id]", "[b_id]"] + requested_pool
                generated.append([pool[i] for i in rng.integers(0, len(pool), 5)])
            report = MX.build_report(samples, generated)
            for row in [report.overall, *report.per_intent.values()]:
                assert row.success <= row.inform

    @pytest.mark.parametrize("rate", ["inform", "success"])
    def test_empty_sample_set_rejected(self, rate):
        with pytest.raises(DomainError):
            getattr(MX.build_report([], []).overall, rate)


class TestCompositeScore:
    def test_paper_arithmetic_rows(self):
        assert MX.composite_score(100.0, 100.0, 22.05) == pytest.approx(122.05, abs=1e-9)
        assert MX.composite_score(75.30, 59.70, 16.81) == pytest.approx(84.31, abs=1e-9)
        assert MX.composite_score(0.0, 0.0, 0.0) == 0.0

    def test_linearity_in_bleu(self):
        base = MX.composite_score(60.0, 40.0, 10.0)
        doubled = MX.composite_score(60.0, 40.0, 20.0)
        assert doubled - base == pytest.approx(10.0, abs=1e-12)


class TestPairedTTest:
    def test_identical_lists_give_p_one(self):
        t, p = MX.paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == 1.0

    def test_zero_variance_nonzero_mean_gives_p_zero(self):
        t, p = MX.paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert math.isinf(t) and t > 0
        assert p == 0.0

    @pytest.mark.parametrize("diff", [0.1, -0.1, 1e-300, 1.0 / 3.0])
    def test_equal_differences_whose_mean_rounds_give_p_zero(self, diff):
        # sum([0.1] * 3) / 3 is not 0.1, so the sd about that mean comes out near 1e-17, not 0.
        for n in (2, 3, 7):
            t, p = MX.paired_t_test([diff] * n, [0.0] * n)
            assert t == math.copysign(math.inf, diff) and p == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            MX.paired_t_test([1.0], [2.0])
        with pytest.raises(DomainError):
            MX.paired_t_test([1.0, 2.0], [1.0])

    def test_t_pvalue_needs_one_degree_of_freedom(self):
        with pytest.raises(DomainError):
            MX.t_pvalue(1.0, 0)

    def test_infinite_t_gives_p_zero(self):
        assert MX.t_pvalue(math.inf, 3) == 0.0 and MX.t_pvalue(-math.inf, 3) == 0.0

    def test_antisymmetry(self):
        a = [1.0, 4.0, 2.0, 5.0, 3.0]
        b = [0.5, 3.0, 2.5, 4.0, 3.5]
        t_ab, p_ab = MX.paired_t_test(a, b)
        t_ba, p_ba = MX.paired_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_hand_computed_statistic(self):
        # d = [1, 2, 3]: mean 2, sample sd 1, t = 2 * sqrt(3).
        t, _ = MX.paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)

    T_TABLE = [
        (1, 12.706, 0.05), (2, 4.303, 0.05), (5, 2.571, 0.05), (10, 2.228, 0.05),
        (20, 2.086, 0.05), (30, 2.042, 0.05), (5, 2.015, 0.10), (10, 3.169, 0.01),
        (20, 2.845, 0.01), (15, 2.131, 0.05),
    ]

    @pytest.mark.parametrize("df,t,expected_p", T_TABLE)
    def test_standard_table_points(self, df, t, expected_p):
        assert MX.t_pvalue(t, df) == pytest.approx(expected_p, abs=1e-3)
        assert MX.t_pvalue(-t, df) == pytest.approx(expected_p, abs=1e-3)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert MX.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert MX.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self, rng):
        for _ in range(50):
            a, b = rng.uniform(0.3, 8.0, 2)
            x = float(rng.uniform(0.0, 1.0))
            lhs = MX.regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - MX.regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_half_half_at_half(self):
        assert MX.regularized_incomplete_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_case_is_identity(self, rng):
        # I_x(1, 1) = x.
        for x in rng.uniform(0, 1, 20):
            assert MX.regularized_incomplete_beta(1.0, 1.0, float(x)) == pytest.approx(x, abs=1e-12)


class TestReport:
    def build(self):
        samples = [
            sample_with_goal("hotel"),
            sample_with_goal("hotel", requested=["[value_time]"]),
            sample_with_goal("train", "[train_id]"),
        ]
        generated = [
            ["the", "[hotel_id]", "is", "here"],
            ["the", "[hotel_id]", "is", "here"],  # missing [value_time]
            ["the", "[train_id]", "is", "here"],
        ]
        return MX.build_report(samples, generated)

    def test_per_intent_rows_and_overall(self):
        report = self.build()
        assert set(report.per_intent) == {"hotel", "train"}
        assert report.per_intent["hotel"].count == 2
        assert report.overall.count == 3
        assert report.per_intent["hotel"].success == 0.5
        assert report.per_intent["train"].success == 1.0

    def test_count_mismatch_rejected(self):
        with pytest.raises(DomainError):
            MX.build_report([sample_with_goal()], [])

    def test_score_identity(self):
        report = self.build()
        for metrics in [report.overall, *report.per_intent.values()]:
            expected = 0.5 * metrics.inform * 100 + 0.5 * metrics.success * 100 + metrics.bleu * 100
            assert metrics.score == pytest.approx(expected, abs=1e-9)

    def test_json_and_table_forms(self):
        report = self.build()
        payload = json.loads(report.to_json())
        assert "overall" in payload and "per_intent" in payload
        assert payload["note"].startswith("inform/success")
        table = report.to_table()
        assert "hotel" in table and "overall" in table

    def test_rows_match_per_sample_reference(self):
        # Every row, overall and per intent, against a reference taken by slicing the samples.
        rng = random.Random(11)
        words = ["a", "b", "c", "[x_id]", "[y_id]", "[value_time]", "[value_price]"]

        def informed(sample, gen):
            return sample.goal is None or sample.goal.entity is None or sample.goal.entity in gen

        def successful(sample, gen):
            return informed(sample, gen) and all(t in gen for t in (sample.goal.requested if sample.goal else []))

        def reference(pairs):
            return MX.IntentMetrics(
                inform=sum(informed(s, g) for s, g in pairs) / len(pairs),
                success=sum(successful(s, g) for s, g in pairs) / len(pairs),
                bleu=MX.bleu_corpus([g for _, g in pairs], [s.response for s, _ in pairs]),
                count=len(pairs),
            )

        for _ in range(200):
            samples, generated = [], []
            for _ in range(rng.randint(1, 12)):
                draw = rng.random()
                goal = None if draw < 0.2 else Goal(
                    None if draw < 0.4 else rng.choice(["[x_id]", "[y_id]"]),
                    [t for t in ("[value_time]", "[value_price]") if rng.random() < 0.4])
                response = [rng.choice(words) for _ in range(rng.randint(1, 8))]
                samples.append(Sample(["c"], response, rng.choice(["hotel", "train", "taxi"]), goal))
                generated.append([] if rng.random() < 0.15 else [rng.choice(words) for _ in range(rng.randint(1, 8))])
            pairs = list(zip(samples, generated))
            report = MX.build_report(samples, generated)
            assert report.overall == reference(pairs)
            assert report.per_intent == {
                intent: reference([(s, g) for s, g in pairs if s.intent == intent])
                for intent in {s.intent for s in samples}
            }
