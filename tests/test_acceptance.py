"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The long-running overfit training (criteria 5 and 6) is shared
through a session fixture.
"""

import math
import time

import numpy as np
import pytest

import tokmoe.checkpoint as C
import tokmoe.metrics as MX
import tokmoe.training as TR
from tokmoe import OptimizerConfig, SchemeConfig, VariantConfig, init_model
from tokmoe.cli import main, run_gradcheck
from tokmoe.data import (
    SynthSpec,
    Vocabulary,
    encode_corpus,
    generate_synthetic_splits,
)
from tokmoe.model import forward_teacher_forced, greedy_decode
from tokmoe.training import (
    expert_index_map,
    nll_sequence,
    loss_total,
    partition_by_intent,
    teacher_forced_accuracy,
    train_run,
)

from conftest import brute_force_bleu, tiny_samples, tiny_variant


def ok(line: str) -> None:
    print(f"PASS {line}")


class TestCriterion1GradientOracle:
    def test_all_scheme_variant_combinations_below_tolerance(self):
        start = time.monotonic()
        results = run_gradcheck(num_experts=2, hidden=3, vocab_size=6, seed=0)
        elapsed = time.monotonic() - start
        worst = max(err for per in results.values() for err in per.values())
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
        ok(f"criterion 1: gradient oracle, 16 scheme x variant combos, "
           f"max rel err {worst:.2e} in {elapsed:.1f}s")


class TestCriterion2SimplexSuite:
    def test_ten_thousand_randomized_runs(self):
        checks = 0
        for model_seed in range(100):
            rng = np.random.default_rng(model_seed)
            k = int(rng.integers(1, 4))
            params = init_model(6, k, tiny_variant(), seed=model_seed)
            for _ in range(10):
                context = [int(v) for v in rng.integers(0, 6, size=rng.integers(1, 4))]
                response = [int(v) for v in rng.integers(0, 6, size=10)]
                out = forward_teacher_forced(params, [context], [response]).readout
                for dists, beta, combined in zip(out.dists, out.beta, out.combined):
                    for dist in dists:
                        assert abs(dist.sum() - 1.0) <= 1e-9
                    assert abs(beta.sum() - 1.0) <= 1e-9
                    assert abs(combined.sum() - 1.0) <= 1e-9
                    assert np.all(combined >= dists.min(axis=0) - 1e-12)
                    assert np.all(combined <= dists.max(axis=0) + 1e-12)
                    checks += 1
        assert checks == 10_000
        ok(f"criterion 2: simplex suite, {checks} randomized step checks "
           "(sums within 1e-9, mixture bound held)")


class TestCriterion3SchemeDegeneration:
    def test_s2_total_is_chair_loss_bitwise(self):
        params = init_model(6, 2, tiny_variant(), seed=4)
        report = TR.train_batch(params, tiny_samples(), SchemeConfig.from_name("S2"),
                                {"alpha": 0, "beta": 1})
        assert report.total == report.chair_loss  # bitwise

    def test_s3_combined_is_chair_distribution_bitwise(self):
        params = init_model(6, 2, tiny_variant(), seed=4, scheme=SchemeConfig.from_name("S3"))
        sample = tiny_samples()[0]
        out = forward_teacher_forced(params, [sample.context_ids], [sample.response_ids]).readout
        assert np.shares_memory(out.combined, out.dists[:, -1])
        np.testing.assert_array_equal(out.combined, out.dists[:, -1])

    def test_loss_total_midpoint_exact(self):
        # One decoder of weight 1 with expert loss 2 and chair loss 4, at lambda 0, 1/2 and 1.
        losses, mu = np.array([2.0, 4.0]), np.array([1.0])
        assert [loss_total(losses, mu, lam) for lam in (0.0, 0.5, 1.0)] == [4.0, 3.0, 2.0]
        ok("criterion 3: scheme degeneration (S2 bitwise chair, S3 bitwise chair distribution, "
           "loss_total([2, 4], [1], lam) == 4, 3, 2 at lam = 0, 0.5, 1)")


class TestCriterion4ScoreArithmetic:
    def test_reported_rows_reproduced(self):
        assert abs(MX.composite_score(100.0, 100.0, 22.05) - 122.05) <= 1e-9
        assert abs(MX.composite_score(75.30, 59.70, 16.81) - 84.31) <= 1e-9
        ok("criterion 4: Score arithmetic rows 122.05 and 84.31 exact to 1e-9")


@pytest.fixture(scope="session")
def overfit_run():
    """Criterion-5 training: S4, k=3, 60 samples, 300 epochs."""
    spec = SynthSpec(intents=3, samples_per_intent=20, context_len=(3, 6),
                     response_len=(4, 7), seed=11)
    train, valid, _ = generate_synthetic_splits(spec)
    assert len(train) == 60
    vocab = Vocabulary.build(train, cap=60)
    encoded = encode_corpus(vocab, train)
    expert_of = expert_index_map(sorted(partition_by_intent(train)))
    variant = VariantConfig(hidden_size=32, embedding_size=24, gate_hidden=32, gate_out=16)
    params = init_model(len(vocab), 3, variant, seed=11)
    scheme = SchemeConfig.from_name("S4")
    start = time.monotonic()
    train_run(params, encoded, scheme, OptimizerConfig(batch_size=16),
              epochs=300, seed=11, expert_of=expert_of)
    elapsed = time.monotonic() - start
    return {
        "params": params, "vocab": vocab, "train": train, "valid": valid,
        "encoded": encoded, "expert_of": expert_of, "scheme": scheme,
        "elapsed": elapsed,
    }


class TestCriterion5Overfit:
    def test_accuracy_and_proxy_metrics_on_training_set(self, overfit_run):
        r = overfit_run
        assert r["elapsed"] < 300.0, f"training took {r['elapsed']:.0f}s"
        accuracy = teacher_forced_accuracy(r["params"], r["encoded"])
        assert accuracy >= 0.99
        generated = [
            r["vocab"].decode_ids(greedy_decode(r["params"], s.context_ids, 40))
            for s in r["encoded"]
        ]
        report = MX.build_report([s.sample for s in r["encoded"]], generated)
        assert report.overall.inform == 1.0
        assert report.overall.success == 1.0
        ok(f"criterion 5: overfit run, accuracy {accuracy:.4f}, "
           f"Inform=Success=1.0 on train, {r['elapsed']:.0f}s < 300s")


def decoder_token_nlls(params, samples):
    """Mean per-token NLL of every decoder's own distribution, one forward per sample."""
    totals = np.zeros(params.num_decoders)
    tokens = 0
    for s in samples:
        dists = forward_teacher_forced(params, [s.context_ids], [s.response_ids]).readout.dists
        totals += nll_sequence(dists, s.response_ids, [len(s.response_ids)])[0]
        tokens += len(s.response_ids)
    return totals / tokens


class TestCriterion6Specialization:
    def test_each_expert_best_on_its_own_heldout_intent(self, overfit_run):
        r = overfit_run
        valid_encoded = encode_corpus(r["vocab"], r["valid"])
        k = r["params"].num_experts
        for intent, owner in r["expert_of"].items():
            subset = [s for s in valid_encoded if s.intent == intent]
            assert subset
            nlls = decoder_token_nlls(r["params"], subset)[:k]
            for other in range(k):
                if other != owner:
                    assert nlls[owner] < nlls[other], (
                        f"intent {intent}: expert {owner} NLL {nlls[owner]:.3f} not "
                        f"strictly below expert {other} NLL {nlls[other]:.3f}"
                    )
        ok("criterion 6: specialization, each expert strictly lowest NLL on "
           "held-out samples of its own intent")


class TestCriterion7BleuOracle:
    PAIRS = [
        (["a", "b", "c", "d"], ["a", "b", "c", "d", "e"]),
        (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"]),
        (["the", "the", "the", "the", "the"], ["the", "cat", "sat", "on", "mat"]),
        (["i", "want", "a", "cheap", "hotel"], ["i", "want", "a", "cheap", "room"]),
        (["the", "[train_id]", "leaves", "at", "[value_time]"],
         ["the", "[train_id]", "departs", "at", "[value_time]"]),
        (["x", "y", "z", "w", "v", "u"], ["x", "y", "z", "w"]),
        (["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f", "g"]),
        (["q", "r", "s", "t"], ["a", "b", "c", "d"]),
        (["to", "be", "or", "not", "to", "be"], ["to", "be", "or", "not", "to", "be"]),
        (["book", "the", "room", "book", "the", "room"], ["book", "the", "room", "please"]),
    ]

    def test_ten_pairs_match_independent_counting(self):
        for hyp, ref in self.PAIRS:
            mine = MX.bleu_corpus([hyp], [ref])
            oracle = brute_force_bleu([hyp], [ref])
            assert abs(mine - oracle) <= 1e-9
        bp_case = MX.bleu_corpus([self.PAIRS[0][0]], [self.PAIRS[0][1]])
        assert abs(bp_case - math.exp(1.0 - 5.0 / 4.0)) <= 1e-9
        assert abs(bp_case - 0.7788) < 1e-4
        ok("criterion 7: BLEU matches brute-force n-gram oracle on 10 pairs "
           f"(BP case {bp_case:.4f})")


class TestCriterion8TTestOracle:
    TABLE = [
        (1, 12.706, 0.05), (2, 4.303, 0.05), (5, 2.571, 0.05), (10, 2.228, 0.05),
        (20, 2.086, 0.05), (30, 2.042, 0.05), (5, 2.015, 0.10), (10, 3.169, 0.01),
        (20, 2.845, 0.01), (15, 2.131, 0.05),
    ]

    def test_ten_table_points(self):
        for df, t, expected in self.TABLE:
            assert abs(MX.t_pvalue(t, df) - expected) <= 1e-3
        ok("criterion 8: t-test p-values match 10 standard table points to 1e-3")


class TestCriterion9Determinism:
    def test_identical_runs_and_round_trip_bit_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--intents", "2",
                     "--per-intent", "4", "--seed", "31"]) == 0
        blobs = []
        for name in ("runA", "runB"):
            out = tmp_path / name
            code = main([
                "train", "--train", str(corpus / "train.jsonl"),
                "--out", str(out), "--epochs", "2", "--seed", "17",
                "--hidden-size", "6", "--embedding-size", "4",
                "--vocab-cap", "60", "--batch-size", "4",
            ])
            assert code == 0
            blobs.append((out / "model.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

        # Round trip: load then save again, bit identical.
        path = tmp_path / "runA" / "model.ckpt"
        params, meta = C.load_model(path)
        C.save_model(params, tmp_path / "roundtrip.ckpt", meta["tokens"], meta["intents"], meta["scheme"])
        assert (tmp_path / "roundtrip.ckpt").read_bytes() == blobs[0]
        ok("criterion 9: identical train runs and checkpoint round trips are "
           "bit-identical")


class TestCriterion10VariantPlumbing:
    def test_variants_visible_in_checkpoint_archive(self, tmp_path):
        tokens = [f"t{i}" for i in range(12)]

        def tensor_shapes(path):
            return {name: array.shape for name, array in C.load_tensors(path)[1]}

        v1 = init_model(12, 2, VariantConfig.from_name("V1", embedding_size=4, hidden_size=5), 0)
        C.save_model(v1, tmp_path / "v1.ckpt", tokens, ["a", "b"], "S4")
        v1_shapes = tensor_shapes(tmp_path / "v1.ckpt")
        assert v1_shapes and not any(".attn." in n for n in v1_shapes), "V1 must carry zero attention tensors"
        assert v1_shapes["chair.cell.w_in"] == (4, 20), "a V1 decoder cell reads the embedding alone"

        v3 = init_model(12, 2, VariantConfig.from_name("V3", embedding_size=4), 0)
        C.save_model(v3, tmp_path / "v3.ckpt", tokens, ["a", "b"], "S4")
        shapes = tensor_shapes(tmp_path / "v3.ckpt")
        assert shapes["encoder.w_rec"][0] == 100
        assert shapes["chair.cell.w_rec"][0] == 100

        v2 = init_model(12, 2, VariantConfig.from_name("V2", embedding_size=4, hidden_size=5), 0)
        C.save_model(v2, tmp_path / "v2.ckpt", tokens, ["a", "b"], "S4")
        gru_shapes = tensor_shapes(tmp_path / "v2.ckpt")
        lstm = init_model(12, 2, VariantConfig(embedding_size=4, hidden_size=5), 0)
        C.save_model(lstm, tmp_path / "lstm.ckpt", tokens, ["a", "b"], "S4")
        lstm_shapes = tensor_shapes(tmp_path / "lstm.ckpt")
        assert gru_shapes["encoder.w_rec"] == (5, 15)   # 3 gate blocks
        assert lstm_shapes["encoder.w_rec"] == (5, 20)  # 4 gate blocks
        ok("criterion 10: V1 has zero attention tensors and embedding-wide decoder inputs, V3 shows hidden 100, "
           "V2 swaps to the 3-gate cell layout")
