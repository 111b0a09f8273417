"""Losses, schemes, optimizer behavior, epoch loop, and gradient oracles."""

import math
import tracemalloc

import numpy as np
import pytest

import tokmoe.layers as L
import tokmoe.model as M
import tokmoe.tensor as T
import tokmoe.training as TR
from tokmoe import OptimizerConfig, SchemeConfig, init_model
from tokmoe.cli import _gradcheck_samples, _gradcheck_variants
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
        assert TR.loss_total(2.0, 4.0, 0.0) == 4.0
        assert TR.loss_total(2.0, 4.0, 1.0) == 2.0
        assert TR.loss_total(2.0, 4.0, 0.5) == 3.0

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
    """With a scorer, ``train_run`` ends on the best epoch's values, the earlier one on a tie."""

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

    @pytest.mark.parametrize("scores, best", [((0.1, 0.9, 0.3), 2), ((0.5, 0.2, 0.5), 1)])
    def test_best_epoch_values_restored(self, scores, best):
        values, result, seen = self.run(scores)
        assert (result.best_epoch, result.best_score) == (best, scores[best - 1])
        assert [r.valid_score for r in result.history] == list(scores)
        np.testing.assert_array_equal(values, seen[best - 1])
        assert not np.array_equal(values, seen[-1])

    def test_without_scorer_last_epoch_stands(self):
        values, result, _ = self.run(None)
        assert (result.best_epoch, result.best_score) == (3, None)
        np.testing.assert_array_equal(values, self.run((0.0, 0.0, 0.0))[2][-1])


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

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("scheme_name,num_experts", [("S1", 2), ("S2", 2), ("S3", 2), ("S4", 2), ("S3", 0)])
    def test_padded_group_passes_grad_check(self, variant, scheme_name, num_experts):
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, num_experts, tiny_variant(**VARIANTS[variant]), 0, scheme)
        expert_of = {"alpha": 0, "beta": 1} if num_experts else {}
        assert TR.grad_check(params, mixed_group(), scheme, expert_of) < 1e-4

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


class TestGradCheck:
    def test_correct_backward_passes(self):
        params = init_model(6, 2, tiny_variant(), seed=0)
        err = TR.grad_check(params, tiny_samples()[:1], SchemeConfig.from_name("S4"),
                            {"alpha": 0, "beta": 1})
        assert err < 1e-4

    def test_single_decoder_backward_passes(self):
        # Criterion 1 sweeps k = 2 and the test above uses S4: this covers the one-decoder model.
        scheme = SchemeConfig.from_name("S3")
        params = init_model(6, 0, tiny_variant(), 0, scheme)
        assert TR.grad_check(params, tiny_samples(), scheme, {"alpha": 0, "beta": 1}) < 1e-4

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
        assert TR.grad_check(params, batch, scheme, {"alpha": 0, "beta": 1}) < 1e-4

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
        # A loss recomputed from a tensor's first stage, over the unperturbed model's cached
        # earlier stages, is bit for bit the full forward's and train_batch's.
        scheme = SchemeConfig.from_name(scheme_name)
        params = init_model(6, num_experts, dict(_gradcheck_variants(3))[variant], 0, scheme)
        samples, expert_of = _gradcheck_samples(6, 2)
        loss = TR.StagedLoss(params, samples, scheme, expert_of)
        for tensor in params.tensors():
            stage = TR.FIRST_STAGE[tensor.name.split(".")[0]]
            for index in (0, tensor.value.size - 1):
                original = tensor.value.flat[index]
                tensor.value.flat[index] = original + 1e-3
                staged, full = loss(stage), loss(TR.ENCODE)
                assert staged == full == TR.train_batch(params, samples, scheme, expert_of).total, tensor.name
                tensor.value.flat[index] = original

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
        err = TR.grad_check(params, tiny_samples()[:1], SchemeConfig.from_name("S4"),
                            {"alpha": 0, "beta": 1})
        assert err > 1e-4

    def test_corrupted_backward_detected(self, monkeypatch):
        original = T.tanh_backward
        monkeypatch.setattr(T, "tanh_backward", lambda g, out: 2.0 * original(g, out))
        params = init_model(6, 2, tiny_variant(), seed=0)
        err = TR.grad_check(params, tiny_samples()[:1], SchemeConfig.from_name("S4"),
                            {"alpha": 0, "beta": 1})
        assert err > 1e-2

    def test_nan_gradient_fails(self, monkeypatch):
        # max(worst, nan) would keep worst, so a NaN coordinate must fail on its own.
        original = L.project_backward

        def nan_coordinate(proj, *args):
            d_state = original(proj, *args)
            proj.a.grad.flat[0] = math.nan
            return d_state

        monkeypatch.setattr(L, "project_backward", nan_coordinate)
        params = init_model(6, 2, tiny_variant(), seed=0)
        err = TR.grad_check(params, tiny_samples()[:1], SchemeConfig.from_name("S4"),
                            {"alpha": 0, "beta": 1})
        assert err == math.inf

    def test_no_samples_refused(self):
        # An empty batch has zero loss and zero gradient everywhere: a 0.0 would pass having checked nothing.
        params = init_model(6, 2, tiny_variant(), seed=0)
        with pytest.raises(DomainError, match="no samples"):
            TR.grad_check(params, [], SchemeConfig.from_name("S4"), {"alpha": 0, "beta": 1})

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
