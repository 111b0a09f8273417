"""Layer-level behavior: fixed points, bounds, hand cases, gradient oracles."""

import math

import numpy as np
import pytest

import tokmoe.layers as L
import tokmoe.tensor as T
from tokmoe.config import VariantConfig

from conftest import fd_grad, max_rel_err, slot


def make_slot(rng, name, *shape):
    return slot(name, rng.uniform(-0.5, 0.5, shape))


def input_gates(params, x):
    """The projected cell input ``x @ w_in + bias`` of ([n,] B, d_in) rows or a (d_in,) x."""
    return x @ params.w_in.value + params.bias.value[..., None, :]


def stepped(params, x, hidden=0.0, cell=0.0):
    """A one-step, one-row trace from the state (hidden, cell) after one step on the input ``x``."""
    trace = L.CellTrace.empty(params, 1, 1)
    trace.hidden[0], trace.cell[0] = hidden, cell
    L.cell_step(params, input_gates(params, x), trace, 0)
    return trace


def make_lstm(rng, d_in, d_h):
    return L.CellParams(
        "lstm",
        make_slot(rng, "w_in", d_in, 4 * d_h),
        make_slot(rng, "w_rec", d_h, 4 * d_h),
        make_slot(rng, "bias", 4 * d_h),
    )


def make_gru(rng, d_in, d_h):
    return L.CellParams(
        "gru",
        make_slot(rng, "w_in", d_in, 3 * d_h),
        make_slot(rng, "w_rec", d_h, 3 * d_h),
        make_slot(rng, "bias", 3 * d_h),
    )


class TestEmbedding:
    def test_lookup_reads_the_row(self):
        table = L.EmbeddingTable(slot("emb", np.array([[0.1, 0.2], [0.3, 0.4]], dtype=np.float64)))
        np.testing.assert_array_equal(table.lookup(0), [0.1, 0.2])

    def test_out_of_range_id(self):
        table = L.EmbeddingTable(slot("emb", np.zeros((4, 2))))
        with pytest.raises(IndexError):
            table.lookup(4)
        with pytest.raises(IndexError):
            table.lookup(-1)

    def test_gradient_touches_exactly_one_row(self):
        table = L.EmbeddingTable(slot("emb", np.zeros((4, 3))))
        table.lookup_backward(2, np.array([1.0, 2.0, 3.0], dtype=np.float64))
        touched = np.any(table.matrix.grad != 0.0, axis=1)
        np.testing.assert_array_equal(touched, [False, False, True, False])


class TestLstmCell:
    def test_zero_params_zero_state_fixed_point(self, rng):
        d_in, d_h = 3, 4
        params = L.CellParams(
            "lstm",
            slot("w_in", np.zeros((d_in, 4 * d_h))),
            slot("w_rec", np.zeros((d_h, 4 * d_h))),
            slot("bias", np.zeros(4 * d_h)),
        )
        x = rng.uniform(-2, 2, d_in)
        trace = stepped(params, x)
        np.testing.assert_array_equal(trace.hidden[1, 0], np.zeros(d_h))
        np.testing.assert_array_equal(trace.cell[1, 0], np.zeros(d_h))

    def test_hidden_bounded_by_one(self, rng):
        params = make_lstm(rng, 3, 4)
        trace = L.CellTrace.empty(params, 20, 1)
        trace.hidden[0], trace.cell[0] = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        for j in range(20):
            L.lstm_step(params, input_gates(params, rng.uniform(-3, 3, 3)), trace, j)
            assert np.all(np.abs(trace.hidden[j + 1]) < 1.0)

    def test_backward_matches_finite_differences(self, rng):
        d_in, d_h = 2, 3
        params = make_lstm(rng, d_in, d_h)
        x = rng.uniform(-1, 1, d_in)
        prev_h, prev_c = rng.uniform(-1, 1, d_h), rng.uniform(-1, 1, d_h)
        ph = rng.uniform(-1, 1, d_h)
        pc = rng.uniform(-1, 1, d_h)

        def run(xv, hv, cv):
            trace = stepped(params, xv, hv, cv)
            return float(np.dot(ph, trace.hidden[1, 0]) + np.dot(pc, trace.cell[1, 0]))

        trace = stepped(params, x, prev_h, prev_c)
        d_gates, d_h_prev, d_c_prev = L.lstm_step_backward(params, trace, 0, ph.copy(), pc.copy())
        L.cell_weights_backward(params, x[None], trace, d_gates)
        d_x = d_gates @ params.w_in.value.T

        assert max_rel_err(d_x, fd_grad(lambda v: run(v, prev_h, prev_c), x.copy())) < 1e-6
        assert max_rel_err(d_h_prev, fd_grad(lambda v: run(x, v, prev_c), prev_h.copy())) < 1e-6
        assert max_rel_err(d_c_prev, fd_grad(lambda v: run(x, prev_h, v), prev_c.copy())) < 1e-6
        for slot in params.slots():
            numeric = fd_grad(lambda v: run(x, prev_h, prev_c), slot.value)
            assert max_rel_err(slot.grad, numeric) < 1e-6


class TestGruCell:
    def test_zero_params_zero_state_fixed_point(self, rng):
        d_in, d_h = 3, 4
        params = L.CellParams(
            "gru",
            slot("w_in", np.zeros((d_in, 3 * d_h))),
            slot("w_rec", np.zeros((d_h, 3 * d_h))),
            slot("bias", np.zeros(3 * d_h)),
        )
        x = rng.uniform(-2, 2, d_in)
        np.testing.assert_array_equal(stepped(params, x).hidden[1, 0], np.zeros(d_h))

    def test_cell_half_stays_zero(self, rng):
        params = make_gru(rng, 2, 3)
        np.testing.assert_array_equal(stepped(params, rng.uniform(-1, 1, 2)).cell[1, 0], np.zeros(3))

    def test_hidden_bounded_by_one(self, rng):
        params = make_gru(rng, 3, 4)
        trace = L.CellTrace.empty(params, 20, 1)
        trace.hidden[0] = rng.uniform(-1, 1, 4)
        for j in range(20):
            L.gru_step(params, input_gates(params, rng.uniform(-3, 3, 3)), trace, j)
            assert np.all(np.abs(trace.hidden[j + 1]) < 1.0)

    def test_backward_matches_finite_differences(self, rng):
        d_in, d_h = 2, 3
        params = make_gru(rng, d_in, d_h)
        x = rng.uniform(-1, 1, d_in)
        prev_h = rng.uniform(-1, 1, d_h)
        ph = rng.uniform(-1, 1, d_h)

        def run(xv, hv):
            return float(np.dot(ph, stepped(params, xv, hv).hidden[1, 0]))

        trace = stepped(params, x, prev_h)
        d_gates, d_h_prev, _ = L.gru_step_backward(params, trace, 0, ph.copy(), np.zeros(d_h))
        L.cell_weights_backward(params, x[None], trace, d_gates)
        d_x = d_gates @ params.w_in.value.T

        assert max_rel_err(d_x, fd_grad(lambda v: run(v, prev_h), x.copy())) < 1e-6
        assert max_rel_err(d_h_prev, fd_grad(lambda v: run(x, v), prev_h.copy())) < 1e-6
        for slot in params.slots():
            numeric = fd_grad(lambda v: run(x, prev_h), slot.value)
            assert max_rel_err(slot.grad, numeric) < 1e-6


def attend(params, hiddens, query, w_in=None):
    """One attention step of one row: its context, taken from its weights; its weights; and its
    (memory, one-step trace, share of the cell's gates). The cell's ``w_in`` defaults to
    context rows of the identity, so that the share is the context itself."""
    w_in = slot("w_in", np.eye(hiddens.shape[-1])) if w_in is None else w_in
    memory = L.attention_memory(params, hiddens[None], np.ones((1, len(hiddens)), dtype=bool), w_in)
    trace = L.AttentionTrace.empty(params, memory, 1)
    share = L.attention_context(params, memory, query[None], trace, 0)
    weights = trace.weights[0, 0]
    return weights @ hiddens, weights, (memory, trace, share[0])


class TestAttention:
    def make_params(self, rng, d_h=2, d_a=2):
        return L.AttentionParams(
            make_slot(rng, "w", 2 * d_h, d_a),
            make_slot(rng, "b", d_a),
            make_slot(rng, "v", d_a),
        )

    def test_single_position_gives_weight_one(self, rng):
        params = self.make_params(rng)
        h = rng.uniform(-1, 1, (1, 2))
        context, weights, _ = attend(params, h, rng.uniform(-1, 1, 2))
        np.testing.assert_allclose(weights, [1.0])
        np.testing.assert_allclose(context, h[0])

    def test_identical_hiddens_yield_that_hidden(self, rng):
        params = self.make_params(rng)
        row = rng.uniform(-1, 1, 2)
        h = np.tile(row, (4, 1))
        context, _, _ = attend(params, h, rng.uniform(-1, 1, 2))
        np.testing.assert_allclose(context, row, atol=1e-12)

    def test_hand_computed_two_position_case(self):
        # d_h = 2, d_a = 1, m = 2; every number below is evaluated with plain
        # scalar arithmetic, independent of the vectorized implementation.
        w = [[0.1], [-0.2], [0.3], [0.05]]
        b = [0.1]
        v = [0.7]
        h1 = [1.0, 0.5]
        h2 = [-0.3, 0.2]
        s = [0.2, -0.1]
        params = L.AttentionParams(
            slot("w", np.array(w, dtype=np.float64)),
            slot("b", np.array(b, dtype=np.float64)),
            slot("v", np.array(v, dtype=np.float64)),
        )

        def score(h):
            pre = h[0] * w[0][0] + h[1] * w[1][0] + s[0] * w[2][0] + s[1] * w[3][0] + b[0]
            return v[0] * math.tanh(pre)

        s1, s2 = score(h1), score(h2)
        e1, e2 = math.exp(s1), math.exp(s2)
        a1, a2 = e1 / (e1 + e2), e2 / (e1 + e2)
        expected_context = [a1 * h1[0] + a2 * h2[0], a1 * h1[1] + a2 * h2[1]]

        context, weights, _ = attend(params, np.array([h1, h2], dtype=np.float64), np.array(s, dtype=np.float64))
        np.testing.assert_allclose(weights, [a1, a2], atol=1e-12)
        np.testing.assert_allclose(context, expected_context, atol=1e-12)

    def test_weights_on_simplex_and_context_in_hull(self, rng):
        # d_h = 1 makes the convex hull check a simple interval test.
        params = self.make_params(rng, d_h=1, d_a=3)
        for _ in range(50):
            h = rng.uniform(-2, 2, (int(rng.integers(1, 6)), 1))
            context, weights, _ = attend(params, h, rng.uniform(-1, 1, 1))
            assert np.all(weights >= 0)
            assert abs(weights.sum() - 1.0) < 1e-12
            assert h.min() - 1e-12 <= context[0] <= h.max() + 1e-12

    def test_backward_matches_finite_differences(self, rng):
        params = self.make_params(rng, d_h=2, d_a=3)
        w_in = make_slot(rng, "w_in", 3 + 2, 8)
        h = rng.uniform(-1, 1, (3, 2))
        query = rng.uniform(-1, 1, 2)
        pc = rng.uniform(-1, 1, 8)

        def run(hv, qv):
            _, _, (_, _, share) = attend(params, hv, qv, w_in)
            return float(np.dot(pc, share))

        _, _, (memory, trace, _) = attend(params, h, query, w_in)
        d_share, d_keys = np.empty_like(trace.share), np.zeros(memory.keys.shape)
        d_q = L.attention_backward(params, memory, trace, d_share, d_keys, 0, pc[None])
        d_h = L.attention_weights_backward(
            params, memory, trace, d_share, d_keys, query[None, None], pc[None, None], w_in)
        assert max_rel_err(d_h, fd_grad(lambda v: run(v, query), h.copy())) < 1e-6
        assert max_rel_err(d_q, fd_grad(lambda v: run(h, v), query.copy())) < 1e-6
        for slot in [*params.slots(), w_in]:
            numeric = fd_grad(lambda v: run(h, query), slot.value)
            assert max_rel_err(slot.grad, numeric) < 1e-6
        assert not w_in.grad[:3].any()  # the embedding rows are the cell's own to fill

    def test_steps_over_padded_rows_backward_matches_finite_differences(self, rng):
        # T steps of B rows, each over its own right-padded context: per step, the score
        # gradient is values @ d_gates; once, d_values fills w_in's context rows and the hiddens.
        steps, lengths, d_h, d_in, gates = 3, [4, 2], 3, 2 + 3, 6
        params = self.make_params(rng, d_h=d_h, d_a=2)
        w_in = make_slot(rng, "w_in", d_in, gates)
        valid = np.arange(max(lengths)) < np.array(lengths)[:, None]
        h = rng.uniform(-1, 1, (len(lengths), max(lengths), d_h))
        queries = rng.uniform(-1, 1, (steps, len(lengths), d_h))
        d_gates = rng.uniform(-1, 1, (steps, len(lengths), gates))

        def forward(hv, qv):
            memory = L.attention_memory(params, hv, valid, w_in)
            trace = L.AttentionTrace.empty(params, memory, steps)
            shares = [L.attention_context(params, memory, q, trace, t) for t, q in enumerate(qv)]
            return memory, trace, np.array(shares)

        def run(hv, qv):
            return float(np.sum(forward(hv, qv)[2] * d_gates))

        memory, trace, _ = forward(h, queries)
        assert not trace.weights[:, ~valid].any()
        d_share, d_keys = np.empty_like(trace.share), np.zeros(memory.keys.shape)
        d_q = np.array([
            L.attention_backward(params, memory, trace, d_share, d_keys, t, d) for t, d in enumerate(d_gates)
        ])
        d_h = L.attention_weights_backward(params, memory, trace, d_share, d_keys, queries, d_gates, w_in)
        assert not d_h[~valid].any()
        assert max_rel_err(d_h, fd_grad(lambda v: run(v, queries), h.copy())) < 1e-6
        assert max_rel_err(d_q, fd_grad(lambda v: run(h, v), queries.copy())) < 1e-6
        for slot in [*params.slots(), w_in]:
            numeric = fd_grad(lambda v: run(h, queries), slot.value)
            assert max_rel_err(slot.grad, numeric) < 1e-6


class TestProjection:
    def test_zero_params_give_uniform(self):
        proj = L.OutputProjection(slot("u", np.zeros((3, 5))), slot("a", np.zeros(5)))
        probs = L.project_to_vocab(proj, np.array([[0.3, -0.2, 0.9]], dtype=np.float64))
        np.testing.assert_allclose(probs, np.full((1, 5), 0.2), atol=1e-15)

    def test_dominating_logit_wins(self):
        a = np.zeros(5)
        a[2] = 50.0
        proj = L.OutputProjection(slot("u", np.zeros((3, 5))), slot("a", a))
        probs = L.project_to_vocab(proj, np.zeros((1, 3)))
        assert probs[0, 2] > 0.99

    def test_simplex_on_random_params(self, rng):
        proj = L.OutputProjection(make_slot(rng, "u", 3, 6), make_slot(rng, "a", 6))
        for _ in range(50):
            probs = L.project_to_vocab(proj, rng.uniform(-2, 2, (1, 3)))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= 0)

    def test_backward_matches_finite_differences(self, rng):
        proj = L.OutputProjection(make_slot(rng, "u", 3, 4), make_slot(rng, "a", 4))
        state = rng.uniform(-1, 1, (1, 3))
        g = rng.uniform(-1, 1, (1, 4))

        def run(sv):
            return float(np.sum(L.project_to_vocab(proj, sv) * g))

        probs = L.project_to_vocab(proj, state)
        d_state = L.project_backward(proj, state, probs, g.copy())
        assert max_rel_err(d_state, fd_grad(run, state.copy())) < 1e-6
        for slot in proj.slots():
            numeric = fd_grad(lambda v: run(state), slot.value)
            assert max_rel_err(slot.grad, numeric) < 1e-6


class TestStackedCopies:
    """A stack of n copies computes each row bit-identically to that copy alone."""

    N = 3

    @staticmethod
    def copy_of(slots, l):
        # Copy l's weights as a separate unstacked layer with its own grads.
        return [slot(s.name, s.value[l].copy()) for s in slots]

    @staticmethod
    def assert_rows_equal(stacked_outputs, single_outputs, l, axis=0):
        for stacked, single in zip(stacked_outputs, single_outputs):
            np.testing.assert_array_equal(single, np.take(stacked, l, axis=axis))

    def assert_grads_equal(self, stacked_slots, single_slots, l):
        self.assert_rows_equal([s.grad for s in stacked_slots], [s.grad for s in single_slots], l)

    @staticmethod
    def run_cell(params, x, hidden, cell, d_hidden, d_cell):
        """T steps of B rows forward from (hidden, cell), the reverse loop, then the trace's weight gradients.

        Inputs are ([n,] T, B, d_in) and states ([n,] B, d_h); the returned hiddens and d_gates are
        time first, (T, [n,] B, width).
        """
        steps, batch, d_in = x.shape[-3:]
        trace = L.CellTrace.empty(params, steps, batch)
        trace.hidden[0], trace.cell[0] = hidden, cell
        for t in range(steps):
            L.cell_step(params, input_gates(params, x[..., t, :, :]), trace, t)
        d_gates = np.empty((steps, *hidden.shape[:-1], params.w_rec.value.shape[-1]))
        carry_h, carry_c = np.zeros_like(hidden), d_cell
        for t in reversed(range(steps)):
            d_gates[t], carry_h, carry_c = L.cell_step_backward(
                params, trace, t, d_hidden[t] + carry_h, carry_c
            )
        L.cell_weights_backward(params, x.reshape(*x.shape[:-3], -1, d_in), trace, L.rows(d_gates))
        return trace.hidden[1:], d_gates, carry_h, carry_c

    @pytest.mark.parametrize("kind,gates", [("lstm", 4), ("gru", 3)])
    def test_cell(self, rng, kind, gates):
        n, steps, batch, d_in, d_h = self.N, 4, 2, 11, 9
        stacked = L.CellParams(
            kind,
            make_slot(rng, "w_in", n, d_in, gates * d_h),
            make_slot(rng, "w_rec", n, d_h, gates * d_h),
            make_slot(rng, "bias", n, gates * d_h),
        )
        x = rng.uniform(-1, 1, (n, steps, batch, d_in))
        hidden, cell = rng.uniform(-1, 1, (n, batch, d_h)), rng.uniform(-1, 1, (n, batch, d_h))
        d_hidden = rng.uniform(-1, 1, (steps, n, batch, d_h))
        d_cell = rng.uniform(-1, 1, (n, batch, d_h))
        hiddens, d_gates, carry_h, carry_c = self.run_cell(stacked, x, hidden, cell, d_hidden, d_cell)
        for l in range(n):
            single = L.CellParams(kind, *self.copy_of(stacked.slots(), l))
            out_l = self.run_cell(single, x[l], hidden[l], cell[l], d_hidden[:, l], d_cell[l])
            self.assert_rows_equal([hiddens, d_gates], out_l[:2], l, axis=1)
            self.assert_rows_equal([carry_h, carry_c], out_l[2:], l)
            self.assert_grads_equal(stacked.slots(), single.slots(), l)

    @staticmethod
    def run_attention(params, w_in, hiddens, valid, queries, d_gates):
        """T steps of (T, [n,] B, d_h) queries forward and backward from the (T, [n,] B, G) gradients
        of the cell's gates, then the weight gradients. Returns the (T, [n,] B, ·) contexts, taken
        from the weights, the weights and the shares of the gates, then d_queries and d_hiddens."""
        memory = L.attention_memory(params, hiddens, valid, w_in)
        trace = L.AttentionTrace.empty(params, memory, len(queries))
        d_share, d_keys = np.empty_like(trace.share), np.zeros(memory.keys.shape)
        shares = np.array([L.attention_context(params, memory, query, trace, t) for t, query in enumerate(queries)])
        d_queries = np.array([
            L.attention_backward(params, memory, trace, d_share, d_keys, t, d) for t, d in enumerate(d_gates)
        ])
        d_hiddens = L.attention_weights_backward(params, memory, trace, d_share, d_keys, queries, d_gates, w_in)
        contexts = (trace.weights[..., None, :] @ memory.hiddens)[..., 0, :]
        return contexts, trace.weights, shares, d_queries, d_hiddens

    def stacked_attention(self, rng, n, d_h, d_a, d_in, gates):
        params = L.AttentionParams(
            make_slot(rng, "w", n, 2 * d_h, d_a), make_slot(rng, "b", n, d_a), make_slot(rng, "v", n, d_a)
        )
        return params, make_slot(rng, "w_in", n, d_in, gates)

    def assert_copies_run_alone(self, stacked, w_in, hiddens, valid, queries, d_gates):
        outputs = self.run_attention(stacked, w_in, hiddens, valid, queries, d_gates)
        for l in range(len(w_in.value)):
            single = L.AttentionParams(*self.copy_of(stacked.slots(), l))
            w_in_l = self.copy_of([w_in], l)[0]
            out_l = self.run_attention(single, w_in_l, hiddens, valid, queries[:, l], d_gates[:, l])
            self.assert_rows_equal(outputs[:4], out_l[:4], l, axis=1)
            self.assert_rows_equal(outputs[4:], out_l[4:], l)
            self.assert_grads_equal([*stacked.slots(), w_in], [*single.slots(), w_in_l], l)
        return outputs

    def test_attention(self, rng):
        n, steps, batch, m, d_h, d_a, d_in = self.N, 4, 2, 5, 7, 6, 4 + 7
        stacked, w_in = self.stacked_attention(rng, n, d_h, d_a, d_in, 4 * d_h)
        hiddens = rng.uniform(-1, 1, (batch, m, d_h))
        queries = rng.uniform(-1, 1, (steps, n, batch, d_h))
        d_gates = rng.uniform(-1, 1, (steps, n, batch, 4 * d_h))
        self.assert_copies_run_alone(stacked, w_in, hiddens, np.ones((batch, m), dtype=bool), queries, d_gates)

    @pytest.mark.parametrize("shape", ["desk", "paper"])
    def test_values_are_the_context_through_the_context_rows(self, rng, shape):
        # At the desk and paper widths, k+1 = 4 decoders attend over three contexts, two of them
        # padded: weights @ values is (weights @ hiddens) @ w_ctx to 1e-12 of the magnitude of
        # its terms, and each decoder's rows are bit for bit its own run alone.
        variant = {"desk": VariantConfig(hidden_size=32, embedding_size=24), "paper": VariantConfig()}[shape]
        n, steps, lengths, d_h = 4, 5, [6, 2, 9], variant.hidden_size
        stacked, w_in = self.stacked_attention(rng, n, d_h, variant.attn_size, variant.embedding_size + d_h, 4 * d_h)
        valid = np.arange(max(lengths)) < np.array(lengths)[:, None]
        hiddens = rng.uniform(-1, 1, (len(lengths), max(lengths), d_h))
        queries = rng.uniform(-1, 1, (steps, n, len(lengths), d_h))
        d_gates = rng.uniform(-1, 1, (steps, n, len(lengths), 4 * d_h))
        contexts, weights, shares, *_ = self.assert_copies_run_alone(stacked, w_in, hiddens, valid, queries, d_gates)
        assert not weights[..., ~valid].any()
        w_ctx = w_in.value[:, -d_h:, :]
        magnitude = (np.abs(weights)[..., None, :] @ np.abs(hiddens @ w_ctx[:, None]))[..., 0, :]
        assert (np.abs(shares - contexts @ w_ctx) <= 1e-12 * magnitude).all()

    def test_projection(self, rng):
        n, steps, d_h, vocab = self.N, 4, 9, 37
        stacked = L.OutputProjection(make_slot(rng, "u", n, d_h, vocab), make_slot(rng, "a", n, vocab))
        state = rng.uniform(-1, 1, (n, steps, d_h))
        d_probs = rng.uniform(-1, 1, (n, steps, vocab))
        probs = L.project_to_vocab(stacked, state)
        d_state = L.project_backward(stacked, state, probs, d_probs)
        for l in range(n):
            single = L.OutputProjection(*self.copy_of(stacked.slots(), l))
            probs_l = L.project_to_vocab(single, state[l])
            d_state_l = L.project_backward(single, state[l], probs_l, d_probs[l])
            self.assert_rows_equal([probs, d_state], [probs_l, d_state_l], l)
            self.assert_grads_equal(stacked.slots(), single.slots(), l)

    def test_embedding_rows_add_in_order(self, rng):
        table = L.EmbeddingTable(slot("emb", rng.uniform(-1, 1, (4, 3))))
        table.matrix.grad[...] = rng.uniform(-1, 1, (4, 3))
        expected = table.matrix.grad.copy()
        grads = rng.uniform(-1, 1, (self.N, 3)) * 10.0 ** rng.integers(-8, 8, (self.N, 1))
        for row in grads:
            expected[2] += row
        table.lookup_backward(2, grads)
        np.testing.assert_array_equal(table.matrix.grad, expected)
