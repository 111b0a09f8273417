"""Losses, schemes, optimizer behavior, epoch loop, and gradient oracles."""

import math
import tracemalloc

import numpy as np
import pytest

import tokmoe.layers as L
import tokmoe.model as M
import tokmoe.tensor as T
import tokmoe.training as TR
from tokmoe import OptimizerConfig, SchemeConfig, VariantConfig, init_model
from tokmoe.cli import GRADCHECK_MAX_HIDDEN, _gradcheck_samples, _gradcheck_variants
from tokmoe.config import BOS_ID
from tokmoe.data import Corpus, EncodedSample, Sample, SynthSpec, Vocabulary, encode_corpus, generate_synthetic_corpus
from tokmoe.errors import ConfigError, DataError, DomainError
from tokmoe.model import backward_teacher_forced, forward_teacher_forced

from conftest import tiny_samples, tiny_variant


def sequence(*steps):
    """A (T, k+1, V) array of per-step decoder distributions."""
    return np.array(steps, dtype=float)


def nll(dists, targets):
    """The NLL of one response: a float for (T, V) rows, each decoder's for a (T, k+1, V) readout."""
    return TR.nll_sequence(dists, targets, [len(targets)])[0]


def localized(dists, targets, intent, expert_of):
    """The per-decoder expert loss of one response, as train_batch forms it."""
    own = TR.ownership(intent, expert_of, dists.shape[1])
    return np.where(own, nll(dists, targets), 0.0)


class TestPartition:
    def corpus(self, intents):
        samples = [Sample([f"c{i}"], [f"r{i}"], intent) for i, intent in enumerate(intents)]
        return Corpus(samples)

    def test_counts(self):
        parts = TR.partition_by_intent(self.corpus(["a", "a", "b"]))
        assert {k: len(v) for k, v in parts.items()} == {"a": 2, "b": 1}

    def test_single_intent(self):
        corpus = self.corpus(["only", "only"])
        parts = TR.partition_by_intent(corpus)
        assert list(parts) == ["only"]
        assert parts["only"] == corpus.samples

    def test_disjoint_cover(self):
        corpus = self.corpus(["a", "b", "c", "b", "a", "a"])
        parts = TR.partition_by_intent(corpus)
        assert sum(len(v) for v in parts.values()) == len(corpus)
        seen = [s for part in parts.values() for s in part]
        assert {id(s) for s in seen} == {id(s) for s in corpus.samples}

    def test_missing_intent_names_sample(self):
        corpus = self.corpus(["a", "", "b"])
        with pytest.raises(DataError, match="sample 1"):
            TR.partition_by_intent(corpus)


class TestLossFunctions:
    def test_one_hot_expert_contributes_zero(self):
        one_hot = [0.0, 1.0, 0.0, 0.0]
        assert localized(sequence([one_hot]), [1], "a", {}).tolist() == [0.0]

    def test_uniform_single_token_is_log4(self):
        uniform = [0.25] * 4
        (loss,) = localized(sequence([uniform]), [2], "a", {})
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_uniform_weighting_over_experts(self):
        # k = 2 experts plus chair, all uniform over 4 tokens, mu = 1/k.
        uniform = [0.25] * 4
        mu = np.array([0.5, 0.5, 0.5])
        raw = localized(sequence([uniform, uniform, uniform]), [0], "a", {"a": 0})
        assert raw[1] == 0.0  # expert 1 does not own intent "a"
        # owner expert + chair, each weighted 1/2.
        assert abs(np.dot(mu, raw) - math.log(4.0)) < 1e-12

    def test_unassigned_intent_rejected(self):
        uniform = [0.25] * 4
        with pytest.raises(DataError, match="no assigned expert"):
            localized(sequence([uniform, uniform]), [0], "mystery", {"a": 0})

    def test_ownership_rows(self):
        expert_of = {"a": 0, "b": 1}
        assert TR.ownership("b", expert_of, 3).tolist() == [False, True, True]
        # Single-decoder mode: the one decoder owns every sample, whatever its intent.
        assert TR.ownership("mystery", {}, 1).tolist() == [True]

    @pytest.mark.parametrize("steps", [1, 7, 8, 9, 33])
    def test_readout_nll_is_each_decoders_sequence_nll_bitwise(self, rng, steps):
        # Past 8 terms numpy sums pairwise, so the bits depend on the order the terms add in.
        dists = rng.dirichlet(np.ones(11), size=(steps, 4))
        targets = [int(t) for t in rng.integers(0, 11, steps)]
        per_column = [nll(dists[:, l], targets) for l in range(4)]
        assert nll(dists, targets).tolist() == per_column

    @pytest.mark.parametrize("readout", [False, True], ids=["rows", "readout"])
    def test_one_sum_per_length_is_each_responses_own_sum_bitwise(self, rng, readout):
        # The responses of one length sum as one block, each as its own slice of the terms
        # would: lengths 1-40 reach both sides of numpy's 8-term pairwise threshold.
        for _ in range(200):
            lengths = rng.choice(rng.integers(1, 41, 3), size=rng.integers(1, 9)).tolist()
            rows = sum(lengths)
            dists = rng.dirichlet(np.ones(7), size=(rows, 3) if readout else rows)
            targets = rng.integers(0, 7, rows)
            terms = -np.log(np.maximum(np.ascontiguousarray(dists[np.arange(rows), ..., targets].T), T.PROB_FLOOR))
            reference = np.array([terms[..., end - n:end].sum(axis=-1) for n, end in zip(lengths, np.cumsum(lengths))])
            got = TR.nll_sequence(dists, targets, lengths)
            assert got.shape == reference.shape
            assert got.view(np.int64).tolist() == reference.view(np.int64).tolist(), lengths

    def test_grad_seed_row_is_each_decoders_seeds_bitwise(self, rng):
        dists = rng.dirichlet(np.ones(6), size=(9, 3))
        dists[2, :, 0] = 0.0       # floored probabilities pass no gradient
        dists[5, 2, 0] = math.nan  # nor does a NaN one
        targets = [0] * 6 + [3, 4, 5]
        weight = np.array([0.25, 0.0, 0.75])
        seeds = TR._nll_grad_seeds(dists, targets, weight)
        for l in range(3):
            assert seeds[:, l].tobytes() == TR._nll_grad_seeds(dists[:, l], targets, weight[l]).tobytes()
        # The zero-weight column, the floored row and the NaN entry hold +0.0, not -0.0.
        for passes_none in (seeds[:, 1], seeds[2], seeds[5, 2]):
            assert not passes_none.any() and not np.signbit(passes_none).any()
        assert (seeds[:, 0] < 0.0).sum() == 8

    def test_chair_loss_additivity(self):
        uniform = [0.25] * 4
        loss = nll(np.array([uniform, uniform]), [1, 3])
        assert abs(loss - 2 * math.log(4.0)) < 1e-12

    def test_chair_one_hot_zero(self):
        hot = [1.0, 0.0]
        assert nll(np.array([hot]), [0]) == 0.0

    def test_loss_total_cases(self):
        # One decoder of weight 1 with expert loss 2.0, and chair loss 4.0: lambda moves the total between them.
        losses, mu = np.array([2.0, 4.0]), np.array([1.0])
        assert TR.loss_total(losses, mu, 0.0) == 4.0
        assert TR.loss_total(losses, mu, 1.0) == 2.0
        assert TR.loss_total(losses, mu, 0.5) == 3.0

    def test_nll_nonnegative_and_zero_only_at_one_hot(self, rng):
        for _ in range(50):
            dist = rng.dirichlet(np.ones(5))
            y = int(rng.integers(0, 5))
            value = nll([dist], [y])
            assert value >= 0.0
            if dist[y] < 1.0:
                assert value > 0.0
        assert nll([np.array([0.0, 1.0])], [1]) == 0.0
        # A zero probability scores at the floor, never infinity.
        assert nll([np.array([0.0, 1.0])], [0]) == -math.log(T.PROB_FLOOR)
        # A NaN probability is not floored: the loss goes non-finite.
        assert math.isnan(nll([np.array([math.nan, 1.0])], [0]))


def scheme_model(num_experts, scheme_name, seed=0):
    scheme = SchemeConfig.from_name(scheme_name)
    return init_model(6, num_experts, tiny_variant(), seed, scheme), scheme


class TestSchemeWeights:
    def test_zero_logits_give_uniform_and_half(self):
        params, s1 = scheme_model(4, "S1")
        mu, lam = TR.resolve_scheme_weights(s1, params)
        np.testing.assert_allclose(mu[:-1], np.full(4, 0.25), atol=1e-15)
        assert lam == 0.5

    def test_mu_sums_to_one(self, rng):
        params, s1 = scheme_model(3, "S1")
        params.scheme_weights.mu_logits.value[...] = rng.uniform(-3, 3, 3)
        mu, _ = TR.resolve_scheme_weights(s1, params)
        assert abs(mu[:-1].sum() - 1.0) < 1e-12

    def test_rejected_outside_s1(self):
        # A model built for S4 holds no mu/lambda logits, so S1 cannot train it.
        params, _ = scheme_model(2, "S4")
        with pytest.raises(ConfigError):
            TR.resolve_scheme_weights(SchemeConfig.from_name("S1"), params)

    def test_scheme_table_wiring(self):
        s1 = SchemeConfig.from_name("S1")
        assert s1.moe_enabled and s1.learns_weights and s1.lambda_value is None
        s2 = SchemeConfig.from_name("S2")
        assert s2.moe_enabled and not s2.learns_weights and s2.lambda_value == 0.0
        s3 = SchemeConfig.from_name("S3")
        assert not s3.moe_enabled and not s3.learns_weights and s3.lambda_value == 0.5
        s4 = SchemeConfig.from_name("S4")
        assert s4.moe_enabled and not s4.learns_weights and s4.lambda_value == 0.5


class TestSchemeModels:
    """A model holds exactly the tensors its scheme trains, and no fewer."""

    def test_each_scheme_builds_its_tensors_from_the_same_draws(self):
        default = {s.name: s.value for s in init_model(6, 2, tiny_variant(), 0).slots()}
        s1, _ = scheme_model(2, "S1")
        s3, _ = scheme_model(2, "S3")
        assert s3.gating is None and s3.scheme_weights is None
        assert [s.name for s in s1.slots()][-2:] == ["scheme.mu_logits", "scheme.lambda_logit"]
        assert not any(s.name.startswith("gating.") for s in s3.slots())
        for params in (s1, s3):
            for slot in params.slots():
                if slot.name in default:
                    np.testing.assert_array_equal(slot.value, default[slot.name])

    # S1 needs logits an S4 model lacks, S4 a gate an S3 model lacks; S3 leaves no gate unread.
    @pytest.mark.parametrize("built_for,trained_with", [("S4", "S1"), ("S3", "S4"), ("S4", "S3")])
    def test_mismatched_tensors_are_config_error(self, built_for, trained_with):
        params, _ = scheme_model(2, built_for)
        with pytest.raises(ConfigError):
            TR.train_batch(params, tiny_samples(), SchemeConfig.from_name(trained_with),
                           {"alpha": 0, "beta": 1})


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        values = np.array([1.0, -2.0, 3.0], dtype=np.float64)
        TR.adam_step(OptimizerConfig(), values, np.zeros(3), TR.AdamState.like(values))
        np.testing.assert_array_equal(values, [1.0, -2.0, 3.0])

    def test_scalar_first_step_hand_value(self):
        # theta = 0, g = 1: m_hat = 1, v_hat = 1, delta = -alpha / (1 + eps).
        values = np.array([0.0], dtype=np.float64)
        opt = OptimizerConfig()
        TR.adam_step(opt, values, np.array([1.0], dtype=np.float64), TR.AdamState.like(values))
        expected = -opt.alpha / (1.0 + opt.epsilon)
        assert abs(values[0] - expected) < 1e-15
        assert abs(values[0] + 0.005) < 1e-9

    def test_two_seeded_runs_bit_identical(self):
        samples = tiny_samples()
        expert_of = {"alpha": 0, "beta": 1}
        finals = []
        for _ in range(2):
            params = init_model(6, 2, tiny_variant(), seed=42)
            TR.train_run(
                params, samples, SchemeConfig.from_name("S4"),
                OptimizerConfig(batch_size=2), epochs=3, seed=42, expert_of=expert_of,
            )
            finals.append({s.name: s.value.copy() for s in params.slots()})
        for name in finals[0]:
            np.testing.assert_array_equal(finals[0][name], finals[1][name])


class TestClipAndL2:
    def test_clip_values(self):
        grads = np.array([6.0, -7.5, 3.2], dtype=np.float64)
        TR.clip_gradients(grads, -5.0, 5.0)
        np.testing.assert_array_equal(grads, [5.0, -5.0, 3.2])

    def test_l2_then_clip_order(self):
        # l2 is added to the raw gradient BEFORE clamping, so a huge weight
        # saturates at the clip boundary.
        grads = np.zeros(1)
        TR.apply_l2(np.array([1e6], dtype=np.float64), grads, 1e-3)
        TR.clip_gradients(grads, -5.0, 5.0)
        np.testing.assert_array_equal(grads, [5.0])

    def test_adversarial_gradients_never_produce_nonfinite_params(self):
        params = init_model(6, 2, tiny_variant(), seed=0)
        state = TR.AdamState.like(params.values)
        opt = OptimizerConfig()
        for sign in (1.0, -1.0):
            params.grads[...] = sign * 1e9
            TR.apply_l2(params.values, params.grads, opt.l2_weight)
            TR.clip_gradients(params.grads, opt.clip_low, opt.clip_high)
            TR.adam_step(opt, params.values, params.grads, state)
            for slot in params.slots():
                assert np.all(np.isfinite(slot.value))
            params.grads[...] = 0.0


def per_slot_optimizer_step(params, opt, moments, step_count):
    """The l2 -> clip -> Adam step as it once ran, tensor by tensor over ``params.slots()``,
    with the moments in dicts keyed by slot name."""
    slots = params.slots()
    for slot in slots:
        slot.grad += opt.l2_weight * slot.value
    for slot in slots:
        np.clip(slot.grad, opt.clip_low, opt.clip_high, out=slot.grad)
    bc1 = 1.0 - opt.beta1 ** step_count
    bc2 = 1.0 - opt.beta2 ** step_count
    for slot in slots:
        m = moments["m"].setdefault(slot.name, np.zeros_like(slot.value))
        v = moments["v"].setdefault(slot.name, np.zeros_like(slot.value))
        m *= opt.beta1
        m += (1.0 - opt.beta1) * slot.grad
        v *= opt.beta2
        v += (1.0 - opt.beta2) * slot.grad * slot.grad
        slot.value -= opt.alpha * (m / bc1) / (np.sqrt(v / bc2) + opt.epsilon)
    for slot in slots:
        slot.grad[...] = 0.0


class TestArenaOptimizer:
    @pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
    def test_bit_equal_to_the_per_slot_steps(self, monkeypatch, block):
        # An S1 model holds its mu/lambda logits; l2 is on and the gradients reach past the clip range.
        # A 7-coordinate block cuts across every tensor boundary.
        if block is not None:
            monkeypatch.setattr(TR, "BLOCK", block)
        opt = OptimizerConfig(l2_weight=1e-2, clip_low=-2.0, clip_high=3.0)
        arena, reference = scheme_model(2, "S1", seed=7)[0], scheme_model(2, "S1", seed=7)[0]
        state, moments = TR.AdamState.like(arena.values), {"m": {}, "v": {}}
        rng = np.random.default_rng(11)
        for step in range(1, 4):
            grads = rng.uniform(-6.0, 6.0, arena.grads.shape)
            assert grads.min() < opt.clip_low and grads.max() > opt.clip_high
            arena.grads[...] = grads
            reference.grads[...] = grads
            TR.apply_l2(arena.values, arena.grads, opt.l2_weight)
            TR.clip_gradients(arena.grads, opt.clip_low, opt.clip_high)
            TR.adam_step(opt, arena.values, arena.grads, state)
            arena.grads[...] = 0.0
            per_slot_optimizer_step(reference, opt, moments, step)
        assert state.step_count == 3
        np.testing.assert_array_equal(arena.values, reference.values)
        # Lay the reference moments out like the arena through a third model's slot views.
        for key, arena_moment in (("m", state.m), ("v", state.v)):
            layout = scheme_model(2, "S1")[0]
            for slot in layout.slots():
                slot.value[...] = moments[key][slot.name]
            np.testing.assert_array_equal(arena_moment, layout.values)


class TestTrainBatch:
    def run_batch(self, scheme_name, seed=0):
        params, scheme = scheme_model(2, scheme_name, seed)
        report = TR.train_batch(params, tiny_samples(), scheme, {"alpha": 0, "beta": 1})
        return params, report

    @pytest.mark.parametrize("scheme_name", ["S1", "S2", "S3", "S4"])
    def test_total_decomposition_identity(self, scheme_name):
        _, report = self.run_batch(scheme_name)
        recomputed = report.lambda_value * float(
            np.dot(report.mu, report.expert_losses)
        ) + (1.0 - report.lambda_value) * report.chair_loss
        assert abs(report.total - recomputed) <= 1e-12
        assert all(v >= 0.0 for v in report.expert_losses)
        assert report.chair_loss >= 0.0

    def test_s2_total_is_chair_loss_bitwise(self):
        _, report = self.run_batch("S2")
        assert report.total == report.chair_loss

    def test_s3_chair_loss_equals_chair_decoder_nll(self):
        _, report = self.run_batch("S3")
        # Chair accrues on all samples; under S3 the combined NLL is exactly
        # the chair decoder's own NLL.
        assert report.chair_loss == pytest.approx(report.expert_losses[-1], abs=1e-12)

    def test_token_count(self):
        _, report = self.run_batch("S4")
        assert report.token_count == 6

    @pytest.mark.parametrize("scheme_name,num_experts", [
        ("S1", 2), ("S2", 2), ("S3", 2), ("S4", 2), ("S3", 0),
    ])
    @pytest.mark.parametrize("grads_accumulated", [False, True])
    def test_reported_losses_are_the_loss_functions(self, scheme_name, num_experts, grads_accumulated):
        # The losses train_batch reports (and seeds gradients from) are the
        # loss functions above, applied to each sample's rows of the same
        # grouped forward pass, taken in the grouping helper's order, bitwise.
        # Gradients already in the arena from an earlier call change nothing:
        # train_batch reads parameter values only and writes gradients only.
        params, scheme = scheme_model(num_experts, scheme_name, seed=2)
        (samples,) = TR.groups(tiny_samples())
        assert [s.intent for s in samples] == ["beta", "alpha"]  # sorted: the shorter context first
        expert_of = {"alpha": 0, "beta": 1}
        if grads_accumulated:
            TR.train_batch(params, tiny_samples(), scheme, expert_of)
            assert np.any(params.grads != 0.0)
        report = TR.train_batch(params, tiny_samples(), scheme, expert_of)

        expert_losses = np.zeros(params.num_decoders)
        chair_loss = 0.0
        contexts, responses = [s.context_ids for s in samples], [s.response_ids for s in samples]
        out = forward_teacher_forced(params, contexts, responses).readout
        start = 0
        for s in samples:
            rows = slice(start, start + len(s.response_ids))
            expert_losses += localized(out.dists[rows], s.response_ids, s.intent, expert_of)
            chair_loss += nll(out.combined[rows], s.response_ids)
            start = rows.stop
        assert report.expert_losses == expert_losses.tolist()
        assert report.chair_loss == chair_loss
        if num_experts == 0:
            assert (report.mu, report.lambda_value) == ([1.0], 0.0)
            assert report.total == report.chair_loss


class TestTrainEpoch:
    def setup_corpus(self, n=10, seed=5):
        rng = np.random.default_rng(seed)
        samples = []
        for i in range(n):
            intent = "alpha" if i % 2 == 0 else "beta"
            ctx = [int(v) for v in rng.integers(4, 6, size=3)]
            resp = [int(v) for v in rng.integers(4, 6, size=2)] + [3]
            samples.append(EncodedSample(ctx, resp, intent, Sample(["x"], ["y"], intent)))
        return samples

    def test_dry_run_with_zero_learning_rate_freezes_loss(self):
        samples = self.setup_corpus()
        params = init_model(6, 2, tiny_variant(), seed=3)
        scheme = SchemeConfig.from_name("S4")
        opt = OptimizerConfig(alpha=0.0, batch_size=4)
        expert_of = {"alpha": 0, "beta": 1}
        first = TR.train_epoch(params, samples, scheme, opt, TR.AdamState.like(params.values),
                               np.random.default_rng(1), expert_of)
        second = TR.train_epoch(params, samples, scheme, opt, TR.AdamState.like(params.values),
                                np.random.default_rng(1), expert_of)
        assert first.total == second.total
        assert first.expert_losses == second.expert_losses

    def test_one_epoch_reduces_loss(self):
        samples = self.setup_corpus(n=32)
        params = init_model(6, 2, tiny_variant(hidden_size=4), seed=3)
        scheme = SchemeConfig.from_name("S4")
        opt = OptimizerConfig(batch_size=8)
        expert_of = {"alpha": 0, "beta": 1}
        before = TR.train_batch(params, samples, scheme, expert_of)
        params.grads[...] = 0.0
        TR.train_epoch(params, samples, scheme, opt, TR.AdamState.like(params.values),
                       np.random.default_rng(1), expert_of)
        after = TR.train_batch(params, samples, scheme, expert_of)
        assert after.total < before.total

    def test_batch_count_is_ceil(self):
        samples = self.setup_corpus(n=10)
        params = init_model(6, 2, tiny_variant(), seed=3)
        adam = TR.AdamState.like(params.values)
        TR.train_epoch(params, samples, SchemeConfig.from_name("S4"),
                       OptimizerConfig(batch_size=4), adam,
                       np.random.default_rng(1), {"alpha": 0, "beta": 1})
        assert adam.step_count == math.ceil(10 / 4)

    def test_empty_corpus_rejected(self):
        params = init_model(6, 2, tiny_variant(), seed=3)
        with pytest.raises(DomainError):
            TR.train_epoch(params, [], SchemeConfig.from_name("S4"), OptimizerConfig(),
                           TR.AdamState.like(params.values), np.random.default_rng(1), {})


class TestBestEpoch:
    """With a scorer, ``train_run`` ends on the best epoch's values, the latest one on a tie."""

    @staticmethod
    def run(scores):
        params = init_model(6, 2, tiny_variant(), seed=3)
        seen = []

        def scripted(p):
            seen.append(p.values.copy())
            return scores[len(seen) - 1]

        result = TR.train_run(
            params, TestTrainEpoch().setup_corpus(), SchemeConfig.from_name("S4"), OptimizerConfig(batch_size=4),
            3, 1, {"alpha": 0, "beta": 1}, valid_scorer=scripted if scores else None,
        )
        return params.values, result, seen

    @pytest.mark.parametrize("scores, best", [
        ((0.1, 0.9, 0.3), 2), ((0.5, 0.2, 0.5), 3), ((0.5, 0.5, 0.2), 2), ((0.9, 0.2, 0.3), 1),
    ])
    def test_best_epoch_values_restored(self, scores, best):
        values, result, seen = self.run(scores)
        assert (result.best_epoch, result.best_score) == (best, scores[best - 1])
        assert [r.valid_score for r in result.history] == list(scores)
        np.testing.assert_array_equal(values, seen[best - 1])
        assert best == len(scores) or not np.array_equal(values, seen[-1])

    def test_without_scorer_last_epoch_stands(self):
        values, result, _ = self.run(None)
        assert (result.best_epoch, result.best_score) == (3, None)
        np.testing.assert_array_equal(values, self.run((0.0, 0.0, 0.0))[2][-1])


class TestTrainState:
    """``train_run`` is a loop over ``TrainState.advance``: one epoch at a time gives the same run."""

    @pytest.mark.parametrize("scored", [False, True], ids=["no-scorer", "scorer"])
    @pytest.mark.parametrize("scheme_name", ["S4", "S1"])
    def test_epoch_by_epoch_is_one_run(self, scheme_name, scored):
        scheme, opt = SchemeConfig.from_name(scheme_name), OptimizerConfig(batch_size=4)
        samples, expert_of = TestTrainEpoch().setup_corpus(), {"alpha": 0, "beta": 1}
        scorer = (lambda p: TR.teacher_forced_accuracy(p, samples)) if scored else None
        whole = init_model(6, 2, tiny_variant(), 3, scheme)
        run = TR.train_run(whole, samples, scheme, opt, 3, 1, expert_of, valid_scorer=scorer)
        params = init_model(6, 2, tiny_variant(), 3, scheme)
        state = TR.TrainState(TR.AdamState.like(params.values), np.random.default_rng(1))
        records = [state.advance(params, samples, scheme, opt, expert_of, scorer) for _ in range(3)]
        # train_run ends on the best epoch's values where a scorer chose one.
        assert np.array_equal(whole.values, state.best_values if scored else params.values)
        assert (state.best_values is None) == (run.best_values is None) == (not scored)
        assert not scored or np.array_equal(run.best_values, state.best_values)
        assert np.array_equal(run.adam.m, state.adam.m) and np.array_equal(run.adam.v, state.adam.v)
        assert run.adam.step_count == state.adam.step_count == 3 * math.ceil(len(samples) / 4)
        assert run.rng.bit_generator.state == state.rng.bit_generator.state
        assert run.history == state.history == records and [r.epoch for r in records] == [1, 2, 3]
        assert (run.best_epoch, run.best_score) == (state.best_epoch, state.best_score)
        assert scored or state.best_epoch == 3


class TestOptimizationTrap:
    def test_s1_lambda_drifts_up_when_chair_loss_dominates(self):
        # Three experts: the weighted expert sum is ~(2/3) of the chair loss,
        # so the learnable lambda climbs (down-weighting the larger term).
        spec = SynthSpec(intents=3, samples_per_intent=8, context_len=(3, 5),
                         response_len=(3, 6), seed=3)
        corpus = generate_synthetic_corpus(spec)
        vocab = Vocabulary.build(corpus, cap=60)
        encoded = encode_corpus(vocab, corpus)
        expert_of = TR.expert_index_map(sorted(TR.partition_by_intent(corpus)))
        scheme = SchemeConfig.from_name("S1")
        params = init_model(len(vocab), 3, tiny_variant(hidden_size=8, embedding_size=6), 1, scheme)
        opt = OptimizerConfig(batch_size=8)
        adam = TR.AdamState.like(params.values)
        rng = np.random.default_rng(0)
        trajectory = []
        for _ in range(10):
            report = TR.train_epoch(params, encoded, scheme, opt, adam, rng, expert_of)
            trajectory.append(report.lambda_value)
        assert trajectory[-1] > 0.52
        assert all(b > a for a, b in zip(trajectory, trajectory[1:]))


def mixed_group():
    """Samples that train_batch teacher-forces as one group, with contexts of 1-5 and responses
    of 1-6 tokens, so every context and every response but the longest is padded."""
    shapes = [([4], [5, 4, 5, 4, 5, 3]), ([5, 4, 4, 5, 4], [3]), ([5, 5, 4], [4, 3]), ([4, 5], [5, 5, 4, 3])]
    assert len(shapes) <= TR.GROUP_SIZE
    return [EncodedSample(c, r, intent, Sample(["x"], ["y"], intent))
            for (c, r), intent in zip(shapes, ["alpha", "beta", "beta", "alpha"])]


VARIANTS = {"base": {}, "V1": {"attention_enabled": False}, "V2": {"cell_kind": "gru"}}


class TestGroupedTeacherForcing:
    """A group's padding adds nothing: its gradient is the finite-difference one, and each
    sample's readout and gradient match the sample teacher-forced alone."""

    def test_cache_holds_its_rows_targets(self):
        # The forward returns each readout row's gold token and each response's row count,
        # so no caller rebuilds them from the responses.
        params = init_model(6, 2, tiny_variant(), 3)  # a seed at which some argmaxes hit and some miss
        group = mixed_group()
        cache = forward_teacher_forced(params, [s.context_ids for s in group], [s.response_ids for s in group])
        step, _, sample, _ = cache.rows
        assert cache.targets.tolist() == [group[b].response_ids[j] for j, b in zip(step, sample)]
        assert cache.lengths == [len(s.response_ids) for s in group]
        assert sum(cache.lengths) == len(cache.targets) == len(cache.readout.combined)
        hits = 0
        for s in group:
            alone = forward_teacher_forced(params, [s.context_ids], [s.response_ids]).readout.combined
            hits += int(np.count_nonzero(alone.argmax(axis=-1) == s.response_ids))
        total = sum(len(s.response_ids) for s in group)
        assert 0 < hits < total
        assert TR.teacher_forced_accuracy(params, group) == hits / total

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("scheme_name,num_experts", [("S1", 2), ("S2", 2), ("S3", 2), ("S4", 2), ("S3", 0)])
    def test_padded_group_passes_grad_check(self, variant, scheme_name, num_experts):
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, num_experts, tiny_variant(**VARIANTS[variant]), 0, scheme)
        expert_of = {"alpha": 0, "beta": 1} if num_experts else {}
        assert TR.grad_check(params, mixed_group(), [scheme], expert_of)[0] < 1e-4

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("scheme_name", ["S4", "S3"])
    def test_each_sample_matches_it_alone(self, rng, variant, scheme_name):
        params = init_model(6, 2, tiny_variant(**VARIANTS[variant]), 1, SchemeConfig.from_name(scheme_name))
        group = mixed_group()
        cache = forward_teacher_forced(params, [s.context_ids for s in group], [s.response_ids for s in group])
        start = 0
        for s in group:
            rows = slice(start, start + len(s.response_ids))
            start = rows.stop
            alone = forward_teacher_forced(params, [s.context_ids], [s.response_ids])
            for grouped, single in zip(cache.readout[:3], alone.readout[:3]):
                assert np.abs(grouped[rows] - single).max() <= 1e-12 * np.abs(single).max()
            loss = nll(alone.readout.combined, s.response_ids)
            assert abs(nll(cache.readout.combined[rows], s.response_ids) - loss) <= 1e-12 * loss
            # Seed only this sample's rows of the group: the gradient is the sample's own.
            seeds = [rng.normal(size=a.shape) for a in (alone.readout.dists, alone.readout.combined)]
            placed = [np.zeros_like(a) for a in (cache.readout.dists, cache.readout.combined)]
            for full, seed in zip(placed, seeds):
                full[rows] = seed
            grads = []
            for forward, d_seeds in ((alone, seeds), (cache, placed)):
                params.grads[...] = 0.0
                backward_teacher_forced(params, forward, *d_seeds)
                grads.append(params.grads.copy())
            assert np.abs(grads[1] - grads[0]).max() <= 1e-12 * np.abs(grads[0]).max()


def mixed_batch(size, seed=3):
    """``size`` samples of both intents, with contexts of 1-5 and responses of 1-6 tokens."""
    rng = np.random.default_rng(seed)
    return [
        EncodedSample(rng.integers(4, 6, rng.integers(1, 6)).tolist(),
                      [*rng.integers(4, 6, rng.integers(0, 6)).tolist(), 3], intent, Sample(["x"], ["y"], intent))
        for intent in rng.choice(["alpha", "beta"], size)
    ]


class TestBatchOrder:
    """train_batch sorts a batch before cutting it into groups, so a batch and its reversal
    differ only in how ties share groups and in the order the losses are summed."""

    @pytest.mark.parametrize("variant", ["base", "V2"])
    @pytest.mark.parametrize("scheme_name", ["S1", "S4"])
    def test_reversed_batch_agrees(self, variant, scheme_name):
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, 2, tiny_variant(**VARIANTS[variant]), 0, scheme)
        batch = mixed_batch(2 * TR.GROUP_SIZE + 1)
        runs = []
        for order in (batch, batch[::-1]):
            params.grads[...] = 0.0
            report = TR.train_batch(params, order, scheme, {"alpha": 0, "beta": 1})
            runs.append(([report.total, report.chair_loss, *report.expert_losses], params.grads.copy()))
        (losses, grads), (reversed_losses, reversed_grads) = runs
        np.testing.assert_allclose(reversed_losses, losses, rtol=1e-12, atol=0.0)
        assert np.abs(reversed_grads - grads).max() <= 1e-12 * np.abs(grads).max()


class TestGroupMemory:
    def test_peak_does_not_stack_across_groups(self):
        # Equal lengths make every group alike: no group's arrays may outlive it, so a
        # batch of three groups peaks where a batch of one group does. (A loop that keeps
        # the previous group's cache and seeds bound through the next group's forward reads
        # 1.42x at this shape with groups of 8, and 1.12x with groups of 4.)
        scheme = SchemeConfig.from_name("S4")
        variant = tiny_variant(hidden_size=16, embedding_size=8, attn_size=8, gate_hidden=16, gate_out=8)
        params = init_model(40, 2, variant, 0, scheme)
        rng = np.random.default_rng(5)
        batch = [EncodedSample(rng.integers(4, 40, 6).tolist(), rng.integers(4, 40, 6).tolist(), intent,
                               Sample(["x"], ["y"], intent)) for intent in ["alpha", "beta"] * (3 * TR.GROUP_SIZE // 2)]

        def peak(samples):
            TR.train_batch(params, samples, scheme, {"alpha": 0, "beta": 1})  # first-call allocations
            tracemalloc.start()
            try:
                TR.train_batch(params, samples, scheme, {"alpha": 0, "beta": 1})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(batch) <= 1.05 * peak(batch[:TR.GROUP_SIZE])


class TestStackedLosses:
    """Every perturbed loss of the gradient check is one copy in a stack of copies of the
    model; every copy's expert losses, chair loss and total are the full forward's of the
    same perturbation."""

    @pytest.mark.parametrize("variant,scheme_name,num_experts,batch", [
        ("base", "S4", 2, "gradcheck"), ("V1", "S3", 2, "gradcheck"), ("V2", "S1", 2, "gradcheck"),
        ("base", "S3", 0, "gradcheck"), ("base", "S4", 2, "two-groups"), ("base", "S1", 3, "three-intents"),
    ], ids=["base-S4", "V1-S3", "V2-S1", "S3-k0", "two-groups", "k3-S1"])
    def test_every_copy_is_the_full_loss(self, monkeypatch, variant, scheme_name, num_experts, batch):
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, num_experts, dict(_gradcheck_variants(3))[variant], 0, scheme)
        if batch == "two-groups":
            samples, expert_of = mixed_batch(TR.GROUP_SIZE + 3), {"alpha": 0, "beta": 1}
        else:
            samples, expert_of = _gradcheck_samples(6, 3 if batch == "three-intents" else 2)
        owned = TR.owned_groups(samples, expert_of, params.num_decoders)
        assert len(owned) == (2 if batch == "two-groups" else 1)
        # Every coordinate of the arena: every tensor kind, and at least three stacks of copies in
        # each layout, most of several coordinates, under a budget of a few coordinates a stack.
        coords = np.arange(params.values.size)
        monkeypatch.setattr(TR, "STACK_BYTES", 1 << 16)
        arena = params.arena()
        plan = TR.stacks(params, owned, coords, arena)[0]
        decoders = [arena[0][np.searchsorted(arena[1], s[0], "right") - 1][0] in params.DECODER_GROUPS for s in plan]
        assert min(sum(decoders), len(plan) - sum(decoders)) >= 3
        assert max(map(len, plan)) > 1
        rows, totals = TR.shifted_losses(params, owned, [scheme], coords)
        full = []
        for idx in coords:
            original = params.values[idx]
            for value in (original + TR.GRAD_CHECK_EPSILON, original - TR.GRAD_CHECK_EPSILON):
                params.values[idx] = value
                row, [total] = TR.forward_loss(params, owned, [scheme])
                full.append([*row, total])
            params.values[idx] = original
        # Copy 2i is coordinate i at +epsilon and copy 2i+1 at -epsilon: its loss row and total.
        assert np.column_stack([rows, totals[0]]).tolist() == full

    @pytest.mark.parametrize("copy", [0, 2])
    def test_fault_only_the_stack_sees_is_detected(self, monkeypatch, copy):
        # One copy's states move by 1e-9, and only in a stack of more copies than the model
        # has decoders: no per-coordinate loss and no analytic gradient can see it. A stack with
        # a copy axis has (T+1, copies, decoders or 1, B, d_h) traces. Copy 0 of the first stack
        # is the self-checked first coordinate's +epsilon; copy 2 of a stack is its second's.
        params = init_model(6, 2, tiny_variant(), seed=0)
        original = L.cell_step

        def shifted(cell, gates_in, trace, j):
            original(cell, gates_in, trace, j)
            if trace.hidden.ndim == 5 and trace.hidden.shape[1] > params.num_decoders:
                trace.hidden[j + 1, copy] += 1e-9

        monkeypatch.setattr(L, "cell_step", shifted)
        [err] = TR.grad_check(params, tiny_samples(), [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})
        assert err == math.inf if copy == 0 else err > 1e-4

    def test_fault_in_the_shifted_decoders_is_detected(self, monkeypatch):
        # A stack of decoders has (T+1, k+1 + copies, B, d_h) traces: only the rows of its shifted
        # decoders (decoder axis k+1 on) move by 1e-9, which no plain forward and no analytic
        # gradient runs. The move cancels in each central difference, so the self-check of
        # cell.w_in's first coordinate, in the first such stack, must catch it.
        params = init_model(6, 2, tiny_variant(), seed=0)
        n = params.num_decoders
        original = L.cell_step

        def shifted(cell, gates_in, trace, j):
            original(cell, gates_in, trace, j)
            if trace.hidden.ndim == 4 and trace.hidden.shape[1] > n:
                trace.hidden[j + 1, n:] += 1e-9

        monkeypatch.setattr(L, "cell_step", shifted)
        [err] = TR.grad_check(params, tiny_samples(), [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})
        assert err == math.inf or err > 1e-4

    def test_stack_of_decoders_copies_one_decoder_per_copy(self):
        # 32 cell.w_in coordinates are 64 copies, each of one decoder's slices of the cells,
        # attention and projection, on a decoder axis after the model's k+1 decoders. A
        # leading copy axis would copy all k+1 decoders' w_in 64 times, 2.4x this bound here.
        params = init_model(6, 2, tiny_variant(hidden_size=16, embedding_size=128, attn_size=16), 0)
        one = sum(t.value[0].nbytes for t in params.decoder_slots())
        start = sum(t.value.size for t in (*params.embedding.slots(), *params.encoder.slots()))
        tracemalloc.start()
        try:
            stack = TR.copies(params, np.arange(start, start + 32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (64 + params.num_decoders) * one + (1 << 17)
        assert stack.decoder_cell.w_in.value.shape[0] == params.num_decoders + 64

    def test_peak_is_bounded_by_the_stack(self):
        # A stack's estimated bytes are at most STACK_BYTES; what the estimate leaves out (the
        # decoder layout's k+1 unshifted decoders, numpy's temporaries) is at most as much again.
        # This run peaks near 1.7 MB. All 1,920 cell coordinates in one stack would hold 3,840
        # shifted decoders.
        scheme = SchemeConfig.from_name("S4")
        params = init_model(6, 2, dict(_gradcheck_variants(GRADCHECK_MAX_HIDDEN))["base"], 0, scheme)
        samples, expert_of = _gradcheck_samples(6, 2)
        tracemalloc.start()
        try:
            assert TR.grad_check(params, samples, [scheme], expert_of)[0] < 1e-4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 << 20) + 2 * TR.STACK_BYTES

    @pytest.mark.parametrize("budget", [1 << 12, 1 << 16, None], ids=["below-one", "64KiB", "default"])
    @pytest.mark.parametrize("variant,scheme_name,num_experts", [
        ("base", "S4", 2), ("V1", "S3", 2), ("V2", "S1", 2), ("base", "S3", 0),
    ], ids=["base-S4", "V1-S3", "V2-S1", "S3-k0"])
    def test_stacks_tile_the_coordinates_within_the_budget(self, monkeypatch, budget, variant, scheme_name,
                                                           num_experts):
        # In order, with no gap and no overlap; never across an edge of DECODER_GROUPS; at most the
        # budget unless one coordinate alone; and the most coordinates that fit before the next edge.
        if budget is not None:
            monkeypatch.setattr(TR, "STACK_BYTES", budget)
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, num_experts, dict(_gradcheck_variants(GRADCHECK_MAX_HIDDEN))[variant], 0, scheme)
        samples, expert_of = _gradcheck_samples(6, 2)
        owned = TR.owned_groups(samples, expert_of, params.num_decoders)
        arena, coords = params.arena(), np.arange(params.values.size)
        plan, cost = TR.stacks(params, owned, coords, arena)
        assert all(len(stack) for stack in plan)
        assert np.concatenate(plan).tolist() == coords.tolist()
        tensor = np.searchsorted(arena[1], coords, "right") - 1
        decoder = np.isin([name for name, _ in arena[0]], params.DECODER_GROUPS)[tensor]
        ends = np.cumsum([0, *map(len, plan)])
        for lo, hi in zip(ends[:-1], ends[1:]):
            assert decoder[lo:hi].all() or not decoder[lo:hi].any()
            assert hi - lo == 1 or cost[lo:hi].sum() <= TR.STACK_BYTES
            assert hi == coords.size or decoder[hi] != decoder[lo] or cost[lo:hi + 1].sum() > TR.STACK_BYTES
        assert (len(plan) == coords.size) == (budget == 1 << 12)

    @pytest.mark.parametrize("variant", ["base", "V1"])
    @pytest.mark.parametrize("scheme_name", ["S1", "S2", "S3", "S4"])
    def test_every_stack_is_within_or_outside_the_decoder_groups(self, variant, scheme_name):
        # ``copies`` lays out decoder-group copies on the decoder axis and any others on a copy
        # axis; a stack of both, say projection and gating coordinates, fails in the gate's input.
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, 2, dict(_gradcheck_variants(3))[variant], 0, scheme)
        samples, expert_of = _gradcheck_samples(6, 2)
        owned = TR.owned_groups(samples, expert_of, params.num_decoders)
        arena, decoder_groups = params.arena(), set(params.DECODER_GROUPS)
        for stack in TR.stacks(params, owned, np.arange(params.values.size), arena)[0]:
            groups = {arena[0][t][0] for t in np.searchsorted(arena[1], stack, "right") - 1}
            assert groups <= decoder_groups or not groups & decoder_groups, groups

    def test_paper_width_stack_peak_is_one_coordinates(self):
        # At the paper shape one coordinate's two copies are past the budget, so a stack is one
        # coordinate: cell.w_in's holds the k+1 decoders and two shifted ones (12.7 MB). A stack
        # of 32 coordinates would hold 170 MB of cell.w_in, 92 MB of proj.u, 108 MB of gating.
        scheme = SchemeConfig.from_name("S4")
        params = M.build_model(400, 2, VariantConfig(), scheme).allocate()
        samples, expert_of = _gradcheck_samples(400, 2)
        owned = TR.owned_groups(samples, expert_of, params.num_decoders)
        arena = params.arena()
        for name in ("cell.w_in", "proj.u", "gating.hidden_w"):
            start = arena[1][[t.name for _, t in arena[0]].index(name)]
            first = TR.stacks(params, owned, np.arange(start, start + 64), arena)[0][0]
            peaks = []
            for stack in (first, first[:1]):
                tracemalloc.start()
                try:
                    TR.copies(params, stack, arena)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[0] <= max(TR.STACK_BYTES, peaks[1]) + (1 << 16), name


MIXING = ("S1", "S2", "S4")


class TestSharedSchemes:
    """``tokmoe gradcheck`` checks S1, S2 and S4 on one gated model per variant, built for S1, from
    one pass of shifted losses: that model holds the other two schemes' models, and each scheme's
    error is the one a check of that scheme's own model gives."""

    @pytest.mark.parametrize("variant", [name for name, _ in _gradcheck_variants(3)])
    @pytest.mark.parametrize("num_experts", [1, 2, 3])
    def test_s1_model_holds_the_s2_and_s4_models(self, variant, num_experts):
        # S1's two logits are drawn last, after every value the other mixing schemes draw. Were they
        # not, the shared check would still check valid S2 and S4 models, but not the pinned ones.
        config = dict(_gradcheck_variants(3))[variant]
        shared = init_model(6, num_experts, config, 0, SchemeConfig.from_name("S1"))
        for name in ("S2", "S4"):
            own = init_model(6, num_experts, config, 0, SchemeConfig.from_name(name))
            n = own.values.size
            assert shared.values[:n].tobytes() == own.values.tobytes(), name
        tensors, starts = shared.arena()
        assert [(group, t.name) for group, t in tensors[-2:]] == [
            ("scheme_weights", "scheme.mu_logits"), ("scheme_weights", "scheme.lambda_logit")]
        assert starts[-3] == n and starts[-1] == shared.values.size == n + num_experts + 1

    @pytest.mark.parametrize("shape", [
        {"num_experts": 2, "hidden": 3, "vocab_size": 6}, {"num_experts": 1, "hidden": 2, "vocab_size": 5},
    ], ids=["default", "k1-hidden2-vocab5"])
    def test_one_pass_gives_each_schemes_own_error(self, shape):
        samples, expert_of = _gradcheck_samples(shape["vocab_size"], shape["num_experts"])
        schemes = [SchemeConfig.from_name(name) for name in MIXING]
        for name, variant in _gradcheck_variants(shape["hidden"]):
            def model(scheme):
                return init_model(shape["vocab_size"], shape["num_experts"], variant, 0, scheme)

            shared = TR.grad_check(model(schemes[0]), samples, schemes, expert_of)
            alone = [TR.grad_check(model(scheme), samples, [scheme], expert_of)[0] for scheme in schemes]
            assert [(type(e), float.hex(e)) for e in shared] == [(type(e), float.hex(e)) for e in alone], name

    @pytest.mark.parametrize("variant", [name for name, _ in _gradcheck_variants(3)])
    def test_unread_logits_have_zero_error(self, variant):
        # Under S2 and S4 both gradients of S1's logits are exactly 0.0, so their error is 0.0 and the
        # shared model's maximum is the S2 or S4 model's own. S1 itself reads them.
        samples, expert_of = _gradcheck_samples(6, 2)
        schemes = [SchemeConfig.from_name(name) for name in MIXING]
        params = init_model(6, 2, dict(_gradcheck_variants(3))[variant], 0, schemes[0])
        logits = np.arange(params.arena()[1][-3], params.values.size)
        owned = TR.owned_groups(samples, expert_of, params.num_decoders)
        totals = TR.shifted_losses(params, owned, schemes, np.arange(params.values.size))[1]
        up, down = totals[:, 2 * logits], totals[:, 2 * logits + 1]
        assert (up[0] != down[0]).any()
        assert up[1:].tolist() == down[1:].tolist()
        for scheme in schemes[1:]:
            params.grads[...] = 0.0
            TR.train_batch(params, samples, scheme, expert_of)
            assert params.grads[logits].tolist() == [0.0] * logits.size, scheme.scheme

    def test_expert_loss_fault_that_s2_totals_miss_is_detected(self, monkeypatch):
        # S2's total, with lambda = 0, never reads the expert losses. One ulp on an expert loss of the
        # first stack's copy 0, the self-checked arena coordinate 0 at +epsilon, in the stack pass alone,
        # leaves every S2 total's bits: a comparison of totals passes it, one of the losses does not.
        scheme = SchemeConfig.from_name("S2")
        params = init_model(6, 2, tiny_variant(), 0, scheme)
        samples, expert_of = tiny_samples(), {"alpha": 0, "beta": 1}
        owned = TR.owned_groups(samples, expert_of, params.num_decoders)
        coords = np.arange(params.values.size)
        clean = TR.shifted_losses(params, owned, [scheme], coords)
        assert TR.grad_check(params, samples, [scheme], expert_of)[0] < 1e-4
        original, pending = TR.forward_loss, []

        def nudged(model, owned, schemes):
            row, totals = original(model, owned, schemes)
            if model is not params and pending:
                pending.clear()
                row = row.copy()
                row[0, 0] = np.nextafter(row[0, 0], math.inf)
                totals = [TR.loss_total(row, *TR.resolve_scheme_weights(s, model)) for s in schemes]
            return row, totals

        monkeypatch.setattr(TR, "forward_loss", nudged)
        pending.append(True)
        faulty = TR.shifted_losses(params, owned, [scheme], coords)
        assert faulty[0][0, 0] != clean[0][0, 0] and faulty[1].tobytes() == clean[1].tobytes()
        pending.append(True)
        assert TR.grad_check(params, samples, [scheme], expert_of) == [math.inf]


class TestGradCheck:
    def test_correct_backward_passes(self):
        params = init_model(6, 2, tiny_variant(), seed=0)
        [err] = TR.grad_check(params, tiny_samples()[:1], [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})
        assert err < 1e-4

    def test_single_decoder_backward_passes(self):
        # Criterion 1 sweeps k = 2 and the test above uses S4: this covers the one-decoder model.
        scheme = SchemeConfig.from_name("S3")
        params = init_model(6, 0, tiny_variant(), 0, scheme)
        assert TR.grad_check(params, tiny_samples(), [scheme], {"alpha": 0, "beta": 1})[0] < 1e-4

    @pytest.mark.parametrize("variant,scheme_name", [
        ("base", "S4"), ("V1", "S3"), ("V2", "S1"),
    ], ids=["base-S4", "V1-S3", "V2-S1"])
    def test_mixed_length_batch_passes(self, variant, scheme_name):
        # Contexts of 1, 2 and 5 tokens and responses of 1, 5 and 2: one-row traces and
        # one-position attention, which the 2-3 token samples above never reach.
        batch = [
            EncodedSample([4], [3], "alpha", Sample(["x"], ["y"], "alpha")),
            EncodedSample([5, 4], [4, 5, 4, 5, 3], "beta", Sample(["x"], ["y"], "beta")),
            EncodedSample([4, 5, 5, 4, 4], [5, 3], "alpha", Sample(["x"], ["y"], "alpha")),
        ]
        overrides = {"base": {}, "V1": {"attention_enabled": False}, "V2": {"cell_kind": "gru"}}[variant]
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, 2, tiny_variant(**overrides), 0, scheme)
        assert TR.grad_check(params, batch, [scheme], {"alpha": 0, "beta": 1})[0] < 1e-4

    @pytest.mark.parametrize("variant", [name for name, _ in _gradcheck_variants(3)])
    @pytest.mark.parametrize("scheme_name,num_experts", [("S1", 2), ("S2", 2), ("S3", 2), ("S4", 2), ("S3", 0)])
    def test_every_weight_gets_a_gradient(self, variant, scheme_name, num_experts):
        # A coordinate the loss never reads costs l2 decay, Adam work and checkpoint bytes.
        # Embedding rows of ids absent from the samples are the only ones allowed a zero.
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, num_experts, dict(_gradcheck_variants(3))[variant], 0, scheme)
        samples, expert_of = _gradcheck_samples(6, 2)
        TR.train_batch(params, samples, scheme, expert_of)
        dead = np.flatnonzero(params.grads[params.embedding.matrix.value.size:] == 0.0)
        assert dead.size == 0, f"{dead.size} coordinates get no gradient"

    @pytest.mark.parametrize("variant", [name for name, _ in _gradcheck_variants(3)])
    @pytest.mark.parametrize("scheme_name,num_experts", [("S1", 2), ("S2", 2), ("S3", 2), ("S4", 2), ("S3", 0)])
    def test_staged_losses_are_full_losses(self, variant, scheme_name, num_experts):
        # A loss taken as a copy in a stack is bit for bit the full forward's and train_batch's:
        # the first and the last coordinate of every tensor, and an embedding row of an id in
        # both the context and the response (4), of one in the response alone (3) and of BOS.
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, num_experts, dict(_gradcheck_variants(3))[variant], 0, scheme)
        samples, expert_of = _gradcheck_samples(6, 2)
        assert 4 in samples[0].context_ids and 4 in samples[0].response_ids
        assert all(3 not in s.context_ids for s in samples) and 3 in samples[0].response_ids
        width = params.embedding.matrix.value.shape[1]
        coords = [BOS_ID * width, 3 * width, 4 * width + 1]
        starts = params.arena()[1]
        coords += [index for lo, hi in zip(starts[:-1], starts[1:]) for index in (lo, hi - 1)]
        owned = TR.owned_groups(samples, expert_of, params.num_decoders)
        rows, totals = TR.shifted_losses(params, owned, [scheme], np.array(coords))
        for index, stacked in zip(coords, zip(rows[0::2].tolist(), totals[0, 0::2])):
            original = params.values[index]
            params.values[index] = original + TR.GRAD_CHECK_EPSILON
            row, [total] = TR.forward_loss(params, owned, [scheme])
            report = TR.train_batch(params, samples, scheme, expert_of)
            assert stacked == (row.tolist(), total) == (
                [*report.expert_losses, report.chair_loss], report.total), index
            params.values[index] = original

    def test_forward_only_dependency_detected(self, monkeypatch):
        # The encoding reads a gate bias that no backward knows of. The read is 0 at the
        # model's own value, so every other coordinate's gradient stays exact.
        params = init_model(6, 2, tiny_variant(), seed=0)
        bias = params.gating.out_b.value
        start = bias[0]
        original = M.encode_context

        def leaky(params, contexts):
            enc = original(params, contexts)
            enc.trace.hidden[1:] += bias[0] - start
            return enc

        monkeypatch.setattr(M, "encode_context", leaky)
        [err] = TR.grad_check(params, tiny_samples()[:1], [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})
        assert err > 1e-4

    def test_corrupted_backward_detected(self, monkeypatch):
        original = T.tanh_backward
        monkeypatch.setattr(T, "tanh_backward", lambda g, out: 2.0 * original(g, out))
        params = init_model(6, 2, tiny_variant(), seed=0)
        [err] = TR.grad_check(params, tiny_samples()[:1], [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})
        assert err > 1e-2

    def test_corrupted_embedding_backward_detected(self, monkeypatch):
        # One embedding row, of an id in both the contexts and the responses, takes 1.01x its
        # gradient: only the embedding's copies, through the encoder and the decoders, see it.
        original = L.EmbeddingTable.lookup_backward

        def scaled(table, token_ids, grad):
            before = table.matrix.grad[4].copy()
            original(table, token_ids, grad)
            table.matrix.grad[4] = before + 1.01 * (table.matrix.grad[4] - before)

        monkeypatch.setattr(L.EmbeddingTable, "lookup_backward", scaled)
        params = init_model(6, 2, tiny_variant(), seed=0)
        [err] = TR.grad_check(params, tiny_samples(), [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})
        assert err > 1e-4

    def test_nan_gradient_fails(self, monkeypatch):
        # max(worst, nan) would keep worst, so a NaN coordinate must fail on its own.
        original = L.project_backward

        def nan_coordinate(proj, *args):
            d_state = original(proj, *args)
            proj.a.grad.flat[0] = math.nan
            return d_state

        monkeypatch.setattr(L, "project_backward", nan_coordinate)
        params = init_model(6, 2, tiny_variant(), seed=0)
        [err] = TR.grad_check(params, tiny_samples()[:1], [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})
        assert err == math.inf

    def test_non_finite_analytic_gradient_fails_its_scheme_alone(self, monkeypatch):
        # One pass of shifted losses serves every scheme, but each scheme's analytic gradient is its own:
        # a NaN under S2 fails S2, and S1 and S4 keep the very errors they have without it.
        schemes = [SchemeConfig.from_name(name) for name in ("S1", "S2", "S4")]
        params = init_model(6, 2, tiny_variant(), 0, schemes[0])
        expert_of = {"alpha": 0, "beta": 1}
        clean = TR.grad_check(params, tiny_samples()[:1], schemes, expert_of)
        original = TR.train_batch

        def nan_under_s2(params, batch, scheme, expert_of):
            report = original(params, batch, scheme, expert_of)
            if scheme.scheme == "S2":
                params.grads[1] = math.nan
            return report

        monkeypatch.setattr(TR, "train_batch", nan_under_s2)
        errs = TR.grad_check(params, tiny_samples()[:1], schemes, expert_of)
        assert errs[1] == math.inf and max(clean) < 1e-4
        assert [float.hex(e) for e in errs[::2]] == [float.hex(e) for e in clean[::2]]

    def test_nan_numeric_gradient_fails(self, monkeypatch):
        # A NaN loss at a coordinate the self-check does not retake, beside a finite analytic
        # gradient: only the error's own finiteness check can fail it. Copy 2 is the second
        # coordinate's +epsilon; its loss row stays as it was.
        original = TR.shifted_losses

        def nan_second_coordinate(*args):
            rows, totals = original(*args)
            totals[:, 2] = math.nan
            return rows, totals

        monkeypatch.setattr(TR, "shifted_losses", nan_second_coordinate)
        params = init_model(6, 2, tiny_variant(), seed=0)
        [err] = TR.grad_check(params, tiny_samples()[:1], [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})
        assert err == math.inf

    def test_no_samples_refused(self):
        # An empty batch has zero loss and zero gradient everywhere: a 0.0 would pass having checked nothing.
        params = init_model(6, 2, tiny_variant(), seed=0)
        with pytest.raises(DomainError, match="no samples"):
            TR.grad_check(params, [], [SchemeConfig.from_name("S4")], {"alpha": 0, "beta": 1})

    def test_one_hot_forcing_params_give_near_zero_gradients(self):
        params = init_model(6, 2, tiny_variant(), seed=0)
        params.projection.u.value[...] = 0.0
        params.projection.a.value[...] = 0.0
        params.projection.a.value[:, 4] = 500.0
        sample = EncodedSample([4, 5], [4, 4], "alpha", Sample(["x"], ["y"], "alpha"))
        report = TR.train_batch(params, [sample], SchemeConfig.from_name("S4"),
                                {"alpha": 0, "beta": 1})
        assert report.total < 1e-9
        assert max(np.abs(s.grad).max() for s in params.slots()) < 1e-8
