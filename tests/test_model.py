"""Model wiring: encoding, expert steps, gating, combination, greedy decode."""

import contextlib
import hashlib
import io
import math

import numpy as np
import pytest

import tokmoe.checkpoint as C
import tokmoe.layers as L
import tokmoe.model as M
import tokmoe.tensor as T
import tokmoe.training as TR
from tokmoe.config import BOS_ID, EOS_ID, SPECIAL_TOKENS, OptimizerConfig, SchemeConfig, VariantConfig
from tokmoe.cli import main
from tokmoe.errors import DomainError
from tokmoe.model import (
    GatingParams,
    chair_combine,
    encode_context,
    forward_teacher_forced,
    gate_weights,
    greedy_decode,
    init_model,
)

from conftest import slot, tiny_variant


def tiny_model(num_experts=2, vocab=6, seed=0, **variant_overrides):
    return init_model(vocab, num_experts, tiny_variant(**variant_overrides), seed)


class TestEncoder:
    def test_hidden_count_matches_context_length(self):
        params = tiny_model()
        for length in (1, 2, 5):
            enc = encode_context(params, [[4] * length])
            assert enc.trace.hidden[1:].shape == (length, 1, 3)

    def test_empty_context_rejected(self):
        with pytest.raises(DomainError):
            encode_context(tiny_model(), [])

    def test_zero_params_give_zero_hiddens(self):
        params = tiny_model()
        for slot in params.encoder.slots():
            slot.value[...] = 0.0
        enc = encode_context(params, [[4, 5, 4]])
        np.testing.assert_array_equal(enc.trace.hidden[1:], np.zeros((3, 1, 3)))
        np.testing.assert_array_equal(enc.trace.hidden[-1], np.zeros((1, 3)))


def step(params, token, state, enc):
    """Every decoder's (k+1, V) distribution and (hidden, cell) state rows after one
    recurrence step of a one-context encoding on ``token`` from the (k+1, d_h) rows of ``state``."""
    rec = M.decoders(params.decoder_cell, params.attention, enc, 1)
    trace = rec.trace
    trace.hidden[0, :, 0], trace.cell[0, :, 0] = state
    M.recur(params.embedding, rec, np.full((1, 1), token))
    return M.readout(params, trace.hidden[1:, :, 0]).dists[0], (trace.hidden[1, :, 0], trace.cell[1, :, 0])


def stacked_state(rng, n_dec, d_h=3):
    """One random (hidden, cell) state shared by every decoder row."""
    return np.tile(rng.uniform(-1, 1, d_h), (n_dec, 1)), np.tile(rng.uniform(-1, 1, d_h), (n_dec, 1))


def fabricated_encoding(params, hiddens):
    """A one-context encoding whose hidden rows are ``hiddens``, the last one its final state (zero cell)."""
    hiddens = np.asarray(hiddens, dtype=np.float64)
    trace = L.CellTrace.empty(params.encoder, len(hiddens), 1)
    trace.hidden[1:, 0] = hiddens
    valid = np.ones((len(hiddens), 1), dtype=bool)
    return M.Encoding(np.full((len(hiddens), 1), 4), ([len(hiddens) - 1], [0]), trace, valid)


class TestStackedSlots:
    """Per-decoder slots are views into the stacked decoder arrays, and every tensor is a
    view into the model's flat arena, never a copy."""

    def test_negative_experts_rejected(self):
        with pytest.raises(DomainError):
            init_model(6, -1, tiny_variant(), seed=0)

    @staticmethod
    def stacked_of(params):
        # per-decoder slot name -> (stacked slot, decoder index)
        out = {}
        for l in range(params.num_decoders):
            for stacked in params.decoder_slots():
                out[f"{params.decoder_name(l)}.{stacked.name}"] = (stacked, l)
            if params.gating is not None:
                out[f"gating.expert_key.{l}"] = (params.gating.expert_keys, l)
        return out

    def assert_views(self, params):
        stacked_of = self.stacked_of(params)
        per_decoder = [slot for slot in params.slots() if slot.name in stacked_of]
        assert len(per_decoder) == len(stacked_of)
        for slot in per_decoder:
            stacked, l = stacked_of[slot.name]
            assert np.shares_memory(slot.value, stacked.value), slot.name
            assert np.shares_memory(slot.grad, stacked.grad), slot.name
            np.testing.assert_array_equal(slot.value, stacked.value[l])

    @staticmethod
    def assert_arena(params):
        for slot in params.slots():
            assert np.shares_memory(slot.value, params.values), slot.name
            assert np.shares_memory(slot.grad, params.grads), slot.name
        # Each owned tensor's value and gradient are the arena's C-contiguous views at its offsets.
        owned, offsets = params.arena()
        assert offsets[0] == 0 and offsets[-1] == params.values.size == params.grads.size
        for (_, t), lo, hi in zip(owned, offsets[:-1], offsets[1:]):
            for a, buffer in ((t.value, params.values), (t.grad, params.grads)):
                assert a.flags.c_contiguous and a.size == hi - lo, t.name
                assert np.shares_memory(a, buffer[lo:hi]), t.name
                assert not np.shares_memory(a, buffer[:lo]) and not np.shares_memory(a, buffer[hi:]), t.name
        # Each group's tensors are one run of the table, so the groups' slices tile the arena in
        # GROUPS order with no gap; the decoder groups' tensors are the stacked decoder weights.
        names = [name for name, _ in owned]
        present = [g for g in params.GROUPS if getattr(params, g) is not None]
        assert [name for i, name in enumerate(names) if i == 0 or names[i - 1] != name] == present
        assert all(offsets[names.index(g)] < offsets[len(names) - names[::-1].index(g)] for g in present)
        assert list(map(id, params.decoder_slots())) == [id(t) for name, t in owned if name in params.DECODER_GROUPS]

    @pytest.mark.parametrize("overrides", [
        {}, {"attention_enabled": False}, {"cell_kind": "gru"},
        {"scheme": "S1"}, {"scheme": "S3"}, {"scheme": "S3", "num_experts": 0},
    ])
    def test_views_after_init_and_load(self, tmp_path, overrides):
        overrides = dict(overrides)
        scheme = overrides.pop("scheme", "S4")
        num_experts = overrides.pop("num_experts", 2)
        params = init_model(6, num_experts, tiny_variant(**overrides), 0, SchemeConfig.from_name(scheme))
        self.assert_views(params)
        self.assert_arena(params)
        C.save_model(params, tmp_path / "m.ckpt", [*SPECIAL_TOKENS, "t4", "t5"], ["a", "b"], scheme)
        loaded, _ = C.load_model(tmp_path / "m.ckpt")
        self.assert_views(loaded)
        self.assert_arena(loaded)
        np.testing.assert_array_equal(loaded.values, params.values)

    def test_adam_step_over_slots_changes_the_stacked_step(self, rng):
        params = tiny_model()
        enc = encode_context(params, [[4, 5]])
        state = stacked_state(rng, params.num_decoders)
        before = step(params, 4, state, enc)[0]
        params.grads[...] = 1.0
        TR.adam_step(OptimizerConfig(), params.values, params.grads, TR.AdamState.like(params.values))
        after = step(params, 4, state, enc)[0]
        assert np.all(np.any(before != after, axis=1))


class TestExpertStep:
    def test_distribution_on_simplex(self, rng):
        params = tiny_model()
        enc = encode_context(params, [[4, 5]])
        state = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))
        dists, _ = step(params, 4, state, enc)
        assert dists.shape == (params.num_decoders, 6)
        for dist in dists:
            assert abs(dist.sum() - 1.0) <= 1e-12
            assert np.all(dist >= 0)

    def test_attention_disabled_ignores_nonfinal_hiddens(self, rng):
        # Same final state, different per-position hiddens: with attention
        # off the step must not see the difference.
        params = tiny_model(attention_enabled=False)
        final = rng.uniform(-1, 1, 3)
        enc_a = fabricated_encoding(params, [*rng.uniform(-1, 1, (3, 3)), final])
        enc_b = fabricated_encoding(params, [*rng.uniform(-1, 1, (3, 3)), final])
        state = stacked_state(rng, params.num_decoders)
        dist_a, _ = step(params, 4, state, enc_a)
        dist_b, _ = step(params, 4, state, enc_b)
        np.testing.assert_array_equal(dist_a, dist_b)

    def test_attention_params_not_shared_between_experts(self, rng):
        params = tiny_model(num_experts=2)
        enc = encode_context(params, [[4, 5]])
        state = stacked_state(rng, params.num_decoders)
        before = step(params, 4, state, enc)[0]
        params.attention.w.value[1] += rng.uniform(0.5, 1.5, (6, 2))
        after = step(params, 4, state, enc)[0]
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[2], after[2])
        assert not np.array_equal(before[1], after[1])

    def test_hand_computed_single_step(self):
        # d_h = 2, emb = 2, |V| = 3, attn = 1, m = 2; the expected values are
        # evaluated below with plain scalar arithmetic.
        params = tiny_model(num_experts=0, vocab=3, hidden_size=2, embedding_size=2, attn_size=1)
        emb = [[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]]
        w_in = [[0.06 * (i + 1) * (-1) ** j for j in range(8)] for i in range(4)]
        w_rec = [[0.04 * (i + 2) * (-1) ** (i + j) for j in range(8)] for i in range(2)]
        bias = [0.01 * (j - 3) for j in range(8)]
        aw = [[0.2], [-0.1], [0.15], [0.05]]
        ab = [0.1]
        av = [0.8]
        pu = [[0.5, -0.3, 0.2], [0.1, 0.4, -0.6]]
        pa = [0.05, -0.1, 0.02]
        params.embedding.matrix.value[...] = emb
        params.decoder_cell.w_in.value[0] = w_in
        params.decoder_cell.w_rec.value[0] = w_rec
        params.decoder_cell.bias.value[0] = bias
        params.attention.w.value[0] = aw
        params.attention.b.value[0] = ab
        params.attention.v.value[0] = av
        params.projection.u.value[0] = pu
        params.projection.a.value[0] = pa

        h_enc = [[0.3, -0.4], [0.1, 0.7]]
        s_h = [0.25, -0.15]
        s_c = [0.05, 0.3]
        prev_token = 1

        # Attention: score_i = v . tanh(W^T (h_i ++ s_h) + b)
        def sig(x):
            return 1.0 / (1.0 + math.exp(-x))

        scores = []
        for h_i in h_enc:
            pre = (h_i[0] * aw[0][0] + h_i[1] * aw[1][0]
                   + s_h[0] * aw[2][0] + s_h[1] * aw[3][0] + ab[0])
            scores.append(av[0] * math.tanh(pre))
        exps = [math.exp(s - max(scores)) for s in scores]
        alphas = [e / sum(exps) for e in exps]
        context = [sum(alphas[i] * h_enc[i][d] for i in range(2)) for d in range(2)]

        # Cell input x = emb(prev) ++ context; gate order (i, f, o, g).
        x = emb[prev_token] + context
        z = [
            sum(x[d] * w_in[d][j] for d in range(4))
            + sum(s_h[d] * w_rec[d][j] for d in range(2))
            + bias[j]
            for j in range(8)
        ]
        gate_i = [sig(z[0]), sig(z[1])]
        gate_f = [sig(z[2]), sig(z[3])]
        gate_o = [sig(z[4]), sig(z[5])]
        cand = [math.tanh(z[6]), math.tanh(z[7])]
        cell = [gate_f[d] * s_c[d] + gate_i[d] * cand[d] for d in range(2)]
        hidden = [gate_o[d] * math.tanh(cell[d]) for d in range(2)]
        logits = [sum(hidden[d] * pu[d][t] for d in range(2)) + pa[t] for t in range(3)]
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        expected = [e / sum(exps) for e in exps]

        enc = fabricated_encoding(params, h_enc)
        state = (np.array([s_h], dtype=np.float64), np.array([s_c], dtype=np.float64))
        dists, (state_h, state_c) = step(params, prev_token, state, enc)
        np.testing.assert_allclose(dists[0], expected, atol=1e-12)
        np.testing.assert_allclose(state_h[0], hidden, atol=1e-12)
        np.testing.assert_allclose(state_c[0], cell, atol=1e-12)


class TestGating:
    def make_gating(self, rng, n_dec=2, d_h=2, vocab=3, g_h=2, g_out=2):
        gate_in = n_dec * (d_h + vocab)
        return GatingParams(
            slot("g.hw", rng.uniform(-0.5, 0.5, (gate_in, g_h))),
            slot("g.hb", rng.uniform(-0.5, 0.5, g_h)),
            slot("g.ow", rng.uniform(-0.5, 0.5, (g_h, g_out))),
            slot("g.ob", rng.uniform(-0.5, 0.5, g_out)),
            slot("g.key", rng.uniform(-0.5, 0.5, (n_dec, g_out))),
        )

    @staticmethod
    def fabricated_step(rng, n_dec=2, d_h=2, vocab=3):
        hidden = rng.uniform(-1, 1, (n_dec, d_h))
        raw = rng.uniform(0.1, 1.0, (n_dec, vocab))
        return hidden, raw / raw.sum(axis=1, keepdims=True)

    def test_equal_keys_give_uniform_beta(self, rng):
        gating = self.make_gating(rng, n_dec=3)
        shared = rng.uniform(-0.5, 0.5, 2)
        gating.expert_keys.value[...] = shared
        hidden, dists = self.fabricated_step(rng, n_dec=3)
        beta, _ = gate_weights(gating, hidden, dists)
        np.testing.assert_allclose(beta, np.full(3, 1 / 3), atol=1e-12)

    def test_beta_sums_to_one(self, rng):
        gating = self.make_gating(rng)
        for _ in range(100):
            hidden, dists = self.fabricated_step(rng)
            beta, _ = gate_weights(gating, hidden, dists)
            assert abs(beta.sum() - 1.0) <= 1e-12

    def test_hand_computed_two_decoder_case(self):
        # k = 1 (one expert plus chair), d_h = 2, |V| = 3, widths 2/2.
        hw = [[0.03 * (i + 1) * (-1) ** j for j in range(2)] for i in range(10)]
        hb = [0.05, -0.02]
        ow = [[0.4, -0.3], [0.2, 0.1]]
        ob = [0.01, -0.04]
        keys = [[0.5, -0.2], [-0.1, 0.3]]
        gating = GatingParams(
            slot("hw", np.array(hw, dtype=np.float64)), slot("hb", np.array(hb, dtype=np.float64)),
            slot("ow", np.array(ow, dtype=np.float64)), slot("ob", np.array(ob, dtype=np.float64)),
            slot("keys", np.array(keys, dtype=np.float64)),
        )
        s1, s2 = [0.1, -0.3], [0.2, 0.05]
        p1, p2 = [0.5, 0.3, 0.2], [0.1, 0.7, 0.2]
        h = s1 + p1 + s2 + p2
        hid = [math.tanh(sum(h[i] * hw[i][j] for i in range(10)) + hb[j]) for j in range(2)]
        u = [sum(hid[i] * ow[i][j] for i in range(2)) + ob[j] for j in range(2)]
        logits = [sum(u[g] * keys[l][g] for g in range(2)) for l in range(2)]
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        expected = [e / sum(exps) for e in exps]

        beta, _ = gate_weights(gating, np.array([s1, s2], dtype=np.float64), np.array([p1, p2], dtype=np.float64))
        np.testing.assert_allclose(beta, expected, atol=1e-12)

    def test_logit_shift_invariance_through_combination(self, rng):
        gating = self.make_gating(rng)
        hidden, dists = self.fabricated_step(rng)
        beta, cache = gate_weights(gating, hidden, dists)
        combined = chair_combine(dists, beta)
        for c in (-40.0, 0.7, 123.0):
            shifted_beta = T.softmax(cache.query @ gating.expert_keys.value.T + c)
            np.testing.assert_allclose(shifted_beta, beta, atol=1e-12)
            np.testing.assert_allclose(chair_combine(dists, shifted_beta), combined, atol=1e-12)


class TestChairCombine:
    def test_equal_distributions_pass_through(self, rng):
        p = rng.uniform(0.1, 1.0, 4)
        p /= p.sum()
        beta = rng.uniform(0.1, 1.0, 3)
        beta /= beta.sum()
        np.testing.assert_allclose(chair_combine([p, p, p], beta), p, atol=1e-15)

    def test_one_hot_beta_selects_expert(self, rng):
        dists = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        beta = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(chair_combine(dists, beta), dists[1])

    def test_hand_midpoint(self):
        dists = np.array([[0.8, 0.2], [0.2, 0.8]], dtype=np.float64)
        out = chair_combine(dists, np.array([0.5, 0.5], dtype=np.float64))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_equals_decoder_by_decoder_sum_bitwise(self, rng):
        dists = rng.dirichlet(np.ones(50), size=12)
        beta = rng.dirichlet(np.ones(12))
        expected = np.zeros(50)
        for weight, dist in zip(beta, dists):
            expected += weight * dist
        np.testing.assert_array_equal(chair_combine(dists, beta), expected)

    def test_mixture_bound(self, rng):
        for _ in range(100):
            dists = [rng.dirichlet(np.ones(5)) for _ in range(3)]
            beta = rng.dirichlet(np.ones(3))
            combined = chair_combine(dists, beta)
            stacked = np.stack(dists)
            assert np.all(combined >= stacked.min(axis=0) - 1e-12)
            assert np.all(combined <= stacked.max(axis=0) + 1e-12)


class TestForwardTeacherForced:
    def test_output_length_matches_response(self):
        params = tiny_model()
        for n in (1, 2, 4):
            out = forward_teacher_forced(params, [[4, 5]], [[4] * (n - 1) + [3]]).readout
            assert out.dists.shape == (n, 3, 6)
            assert out.beta.shape == (n, 3)
            assert out.combined.shape == (n, 6)

    def test_empty_response_rejected(self):
        with pytest.raises(DomainError):
            forward_teacher_forced(tiny_model(), [[4]], [[]])

    def test_teacher_forcing_feeds_bos_then_gold(self):
        params = tiny_model()
        response = [5, 4, 3]
        cache = forward_teacher_forced(params, [[4]], [response])
        assert cache.input_ids[:, 0].tolist() == [BOS_ID, 5, 4]

    def test_single_decoder_mode_is_degenerate_mixture(self):
        params = tiny_model(num_experts=0)
        assert params.num_decoders == 1
        assert params.gating is None
        out = forward_teacher_forced(params, [[4, 5]], [[5, 3]]).readout
        np.testing.assert_array_equal(out.beta, [[1.0], [1.0]])
        assert np.shares_memory(out.combined, out.dists[:, 0])
        np.testing.assert_array_equal(out.combined, out.dists[:, 0])

    def test_chair_only_mode_bitwise(self):
        # An S3 model holds no gate, so its combined distribution is the chair's.
        params = init_model(6, 2, tiny_variant(), 0, SchemeConfig.from_name("S3"))
        out = forward_teacher_forced(params, [[4, 5]], [[5, 4, 3]]).readout
        assert np.shares_memory(out.combined, out.dists[:, -1])
        np.testing.assert_array_equal(out.combined, out.dists[:, -1])
        np.testing.assert_array_equal(out.beta, np.tile([0.0, 0.0, 1.0], (3, 1)))

    def test_step_simplexes_on_random_params(self, rng):
        params = tiny_model(seed=int(rng.integers(0, 1000)))
        out = forward_teacher_forced(params, [[4, 5, 4]], [[5, 5, 3]]).readout
        for dists, beta, combined in zip(out.dists, out.beta, out.combined):
            for dist in dists:
                assert abs(dist.sum() - 1.0) <= 1e-9
            assert abs(beta.sum() - 1.0) <= 1e-9
            assert abs(combined.sum() - 1.0) <= 1e-9


class TestGatelessBackward:
    @pytest.mark.parametrize("num_experts", [2, 0])
    def test_combined_seed_is_a_chair_seed(self, rng, num_experts):
        # Without a gate, beta is one-hot on the chair: seeding d_combined is seeding the chair's rows.
        params = init_model(6, num_experts, tiny_variant(), 0, SchemeConfig.from_name("S3"))
        cache = forward_teacher_forced(params, [[4, 5, 4]], [[5, 4, 3]])
        d_dists = rng.normal(size=cache.readout.dists.shape)
        d_combined = rng.normal(size=cache.readout.combined.shape)
        on_chair = d_dists.copy()
        on_chair[:, -1] += d_combined
        grads = []
        for seeds in ((d_dists, d_combined), (on_chair, np.zeros_like(d_combined))):
            params.grads[...] = 0.0
            M.backward_teacher_forced(params, cache, *seeds)
            grads.append(params.grads.tobytes())
        assert grads[0] == grads[1]


class TestGreedyDecode:
    def test_eos_dominant_logit_stops_immediately(self):
        params = tiny_model()
        params.projection.u.value[...] = 0.0
        params.projection.a.value[...] = 0.0
        params.projection.a.value[:, EOS_ID] = 50.0
        out = greedy_decode(params, [4, 5], max_len=10)
        assert out == [EOS_ID]

    def test_deterministic(self):
        params = tiny_model(seed=7)
        a = greedy_decode(params, [4, 5, 4], max_len=8)
        b = greedy_decode(params, [4, 5, 4], max_len=8)
        assert a == b

    def test_zero_max_len_rejected(self):
        with pytest.raises(DomainError):
            greedy_decode(tiny_model(), [4], max_len=0)

    def test_respects_max_len(self):
        params = tiny_model(seed=3)
        for n in (1, 2, 5):
            assert len(greedy_decode(params, [4], max_len=n)) <= n

    def test_traced_beta_rows_sum_to_one(self):
        # generate --trace reads the mixture weights of the generated ids from teacher forcing.
        params = tiny_model(seed=5)
        ids = greedy_decode(params, [4, 5], max_len=5)
        betas = forward_teacher_forced(params, [[4, 5]], [ids]).readout.beta
        assert len(ids) == len(betas)
        for beta in betas:
            assert abs(beta.sum() - 1.0) <= 1e-9


class TestOneDecodePath:
    """Greedy decoding and teacher forcing share the recurrence step and the readout."""

    SHAPES = {
        # criterion 5's shape, and the README defaults at the 400-word vocabulary cap
        "desk": (54, VariantConfig(hidden_size=32, embedding_size=24, gate_hidden=32, gate_out=16)),
        "paper": (400, VariantConfig()),
    }

    def model(self, shape, scheme_name):
        vocab, variant = self.SHAPES[shape]
        return init_model(vocab, 3, variant, 11, SchemeConfig.from_name(scheme_name))

    @pytest.mark.parametrize("shape", ["desk", "paper"])
    @pytest.mark.parametrize("scheme_name", ["S4", "S3"])
    def test_teacher_forcing_the_greedy_output_repeats_it(self, monkeypatch, rng, shape, scheme_name):
        params = self.model(shape, scheme_name)
        context = [int(t) for t in rng.integers(4, params.embedding.vocab_size, 6)]
        betas, combined = [], []
        original = M.readout

        def recording(*args):
            out = original(*args)
            betas.append(out.beta[0])
            combined.append(out.combined[0])
            return out

        monkeypatch.setattr(M, "readout", recording)
        ids = greedy_decode(params, context, 12)
        monkeypatch.undo()
        out = forward_teacher_forced(params, [context], [ids]).readout
        assert len(out.combined) == len(ids) == len(combined)
        rows = zip(out.beta, out.combined, ids, betas, combined)
        for tf_beta, tf_combined, token, beta, greedy_combined in rows:
            np.testing.assert_allclose(tf_beta, beta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(tf_combined, greedy_combined, rtol=1e-12, atol=0)
            assert int(np.argmax(tf_combined)) == token

    @pytest.mark.parametrize("shape", ["desk", "paper"])
    @pytest.mark.parametrize("scheme_name", ["S4", "S3"])
    def test_readout_over_rows_matches_one_row_readouts(self, rng, shape, scheme_name):
        params = self.model(shape, scheme_name)
        hidden = rng.uniform(-1, 1, (9, params.num_decoders, params.variant.hidden_size))
        whole = M.readout(params, hidden)
        for t in range(len(hidden)):
            row = M.readout(params, hidden[t:t + 1])
            for rows, one in zip(whole[:3], row[:3]):
                np.testing.assert_allclose(rows[t], one[0], rtol=1e-12, atol=0)


class TestGroupOfOne:
    """A single sample is a group of one, and with B = 1 every product has the call shape of
    the per-sample path it replaced: greedy ids and ``generate --trace`` keep that path's bits.
    The hashes were taken from the per-sample path, on the same inputs."""

    IDS = {("desk", "S4"): "af9722b33a6ef472", ("desk", "S3"): "0449c691ee898bbd",
           ("paper", "S4"): "0bc17d33d4c91f7e", ("paper", "S3"): "6a4ec172f6e06f56"}
    TRACE = {"S4": "48ec706ce39ce316", "S3": "c8854e9475efb40e"}

    @staticmethod
    def model(shape, scheme_name):
        params = TestOneDecodePath().model(shape, scheme_name)
        params.values *= 5.0  # weights large enough that the argmax moves from token to token
        return params

    @staticmethod
    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("shape", ["desk", "paper"])
    @pytest.mark.parametrize("scheme_name", ["S4", "S3"])
    def test_greedy_ids_keep_the_per_sample_bits(self, shape, scheme_name):
        params = self.model(shape, scheme_name)
        rng = np.random.default_rng(5)
        ids = [greedy_decode(params, [int(t) for t in rng.integers(4, params.embedding.vocab_size, n)], 30)
               for n in (1, 3, 6, 8)]
        assert self.digest(ids) == self.IDS[shape, scheme_name]

    @pytest.mark.parametrize("scheme_name", ["S4", "S3"])
    def test_generate_trace_keeps_the_per_sample_bits(self, tmp_path, scheme_name):
        params = self.model("desk", scheme_name)
        words = [*SPECIAL_TOKENS, *(f"w{i}" for i in range(params.embedding.vocab_size - len(SPECIAL_TOKENS)))]
        C.save_model(params, tmp_path / "m.ckpt", words, ["a", "b", "c"], scheme_name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["generate", "--checkpoint", str(tmp_path / "m.ckpt"), "--max-len", "20", "--trace",
                  "--context", "w5 w9 w1 w30"])
        assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == self.TRACE[scheme_name]
