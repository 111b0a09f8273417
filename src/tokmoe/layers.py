"""Recurrent cells, embeddings, attention, and the vocabulary projection.

These are the building blocks the encoder and all decoders are assembled
from. Layers are immutable during inference and may be shared across
threads; training mutates ParamSlot gradients single-threaded.

A recurrence steps B rows (a group of sequences) at once into one
preallocated, time-first trace, whose steps ``rows`` lays out as the
([n,] T*B, width) rows of one GEMM per copy. A ``CellTrace`` holds T+1
state rows: row 0 is the initial state, step j reads row j and writes row
j+1. An ``AttentionTrace`` holds row j of step j; its backward fills the
same rows of a d_share array and sums d_keys over the steps. Greedy decoding
reuses a one-step, one-row trace, copying row 1 to row 0.

A recurrent step (``cell_step``, ``attention_context``) and its backward do
only what must run token by token. Weight gradients are left to one GEMM
per weight over all T*B rows (``cell_weights_backward``,
``attention_weights_backward``), as in Appleyard, Kocisky and Blunsom 2016
(arXiv 1604.01946); the projection takes any leading rows at once. Each
row attends over its own right-padded context: scores at padded positions
are -inf, so their weights, and every gradient through them, are 0.

The attention context (Bahdanau, Cho and Bengio 2015, arXiv 1409.0473), a
weighted mean of the encoder hiddens, reaches a decoder cell only through
the last d_h rows of its ``w_in``. So ``attention_memory`` projects the
hiddens once per group or greedy decode into keys and into values (hiddens
@ those rows): a step adds ``weights @ values`` to the cell's gates, its
backward takes the scores' gradient from ``values @ d_gates``, and the
context itself is never formed.

Conventions pinned here (tests rely on them):

* LSTM gate order along the last weight axis is (input, forget, output,
  candidate), so the three sigmoid gates are contiguous; new cell =
  f*c + i*g, new hidden = o*tanh(cell).
* GRU gate order is (update, reset, candidate); the candidate recurrent
  term uses ``reset * h_prev`` and the new hidden is
  ``(1 - z) * h_prev + z * h_cand``. A GRU trace's cell rows stay zero.
* Weight matrices are stored (input_width, output_width) and applied as
  ``x @ W``; a cell step takes its input projected, ``x @ w_in + bias``.
* Every layer also runs a stack of independent copies at once: weights, inputs
  and states with leading copy axes, which broadcast against one another. Along
  them every result is bit-identical to that copy's alone; the decoders are such
  a stack. The gradient check stacks copies of the model, each with one
  coordinate shifted, in stacks of at most ``training.STACK_BYTES`` or of one
  coordinate: a decoder's cell, attention or projection copy is one more decoder
  after the k+1, and a (copies, k+1) index gathers each copy's rows for the readout;
  any other copy axis leads each weight group a copy shifts and each state made
  from one. Along the row axis a GEMM over R rows matches R one-row products to
  about 1e-11 relative, not bitwise; with B = 1 each has the one-sequence shape.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .tensor import Array, ParamSlot


class ParamGroup:
    """A dataclass whose ``ParamSlot`` fields, in declaration order, are its tensors in checkpoint order."""

    def slots(self) -> list[ParamSlot]:
        return [v for v in (getattr(self, f.name) for f in fields(self)) if isinstance(v, ParamSlot)]

    def replaced(self, values: dict[str, Array]) -> "ParamGroup":
        """A copy whose tensors named in ``values`` take those values, without gradients."""
        return replace(self, **{f.name: ParamSlot(v.name, values[v.name], None) for f in fields(self)
                                if isinstance(v := getattr(self, f.name), ParamSlot) and v.name in values})


@dataclass
class EmbeddingTable(ParamGroup):
    """Token embedding rows; lookup gradients scatter into the rows looked up."""

    matrix: ParamSlot  # (vocab_size, emb_size)

    @property
    def vocab_size(self) -> int:
        return self.matrix.value.shape[-2]

    def lookup(self, token_ids) -> Array:
        """The row of one id, or the ([n,] len, emb_size) rows of a sequence of ids."""
        ids = np.asarray(token_ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError(f"token ids {ids} outside vocabulary of size {self.vocab_size}")
        return np.take(self.matrix.value, ids, axis=-2)

    def lookup_backward(self, token_ids, grad: Array) -> None:
        # grad is ([n,] ids, emb_size); its rows add into the table in C order.
        np.add.at(self.matrix.grad, np.broadcast_to(token_ids, grad.shape[:-1]), grad)


def _transpose(w: Array) -> Array:
    return w.swapaxes(-1, -2)


def rows(a: Array) -> Array:
    """Time-first (T, [n,] B, width) as the ([n,] T*B, width) rows of one GEMM per copy, step by step."""
    return a.swapaxes(0, -3).reshape(*a.shape[1:-2], -1, a.shape[-1])


@dataclass
class CellParams(ParamGroup):
    """Recurrent cell weights; ``kind`` picks the LSTM (G = 4) or GRU (G = 3) step."""

    kind: str         # "lstm" or "gru"
    w_in: ParamSlot   # ([n,] d_in, G*d_h)
    w_rec: ParamSlot  # ([n,] d_h, G*d_h)
    bias: ParamSlot   # ([n,] G*d_h)

    @property
    def hidden_size(self) -> int:
        return self.w_rec.value.shape[-2]


@dataclass
class CellTrace:
    """T steps of a cell (of each of its n copies) over B rows, time first."""

    hidden: Array  # (T+1, [n,] B, d_h); row 0 is the initial state
    cell: Array    # (T+1, [n,] B, d_h); zero for GRU
    acts: Array    # (T, [n,] B, G*d_h), the gate activations in weight order
    aux: Array     # (T, [n,] B, d_h): tanh(cell) for LSTM, reset * h_prev for GRU

    @classmethod
    def empty(cls, params: CellParams, steps: int, batch: int, lead: tuple = ()) -> "CellTrace":
        """A trace of ``steps`` steps of ``batch`` rows from the all-zero initial state, for the
        copies of the cell's weights and of ``lead``, the copy axes of what else its steps read."""
        lead = np.broadcast_shapes(params.w_rec.value.shape[:-2], lead)
        state = (*lead, batch, params.hidden_size)
        return cls(np.zeros((steps + 1, *state)), np.zeros((steps + 1, *state)),
                   np.empty((steps, *lead, batch, params.w_rec.value.shape[-1])), np.empty((steps, *state)))


def lstm_step(params: CellParams, gates_in: Array, trace: CellTrace, j: int) -> None:
    d_h = params.hidden_size
    z = gates_in + T.matmul(trace.hidden[j], params.w_rec.value)
    acts = trace.acts[j]
    acts[..., :3 * d_h] = T.sigmoid(z[..., :3 * d_h])
    acts[..., 3 * d_h:] = T.tanh(z[..., 3 * d_h:])
    i, f, o, g = acts[..., :d_h], acts[..., d_h:2 * d_h], acts[..., 2 * d_h:3 * d_h], acts[..., 3 * d_h:]
    cell = f * trace.cell[j] + i * g
    tanh_cell = T.tanh(cell)
    trace.cell[j + 1], trace.aux[j], trace.hidden[j + 1] = cell, tanh_cell, o * tanh_cell


def lstm_step_backward(
    params: CellParams, trace: CellTrace, j: int, d_hidden: Array, d_cell: Array
) -> tuple[Array, Array, Array]:
    """Return (d_gates_in, d_prev_hidden, d_prev_cell)."""
    d_h = params.hidden_size
    acts = trace.acts[j]
    i, f, o, g = acts[..., :d_h], acts[..., d_h:2 * d_h], acts[..., 2 * d_h:3 * d_h], acts[..., 3 * d_h:]
    d_o = d_hidden * trace.aux[j]
    d_c = d_cell + T.tanh_backward(d_hidden * o, trace.aux[j])
    d_f = d_c * trace.cell[j]
    d_prev_cell = d_c * f
    d_i = d_c * g
    d_g = d_c * i
    d_z = T.concat([
        T.sigmoid_backward(d_i, i),
        T.sigmoid_backward(d_f, f),
        T.sigmoid_backward(d_o, o),
        T.tanh_backward(d_g, g),
    ])
    return d_z, T.matmul(d_z, _transpose(params.w_rec.value)), d_prev_cell


def gru_step(params: CellParams, gates_in: Array, trace: CellTrace, j: int) -> None:
    d_h = params.hidden_size
    w_rec = params.w_rec.value
    prev = trace.hidden[j]
    acts = trace.acts[j]
    acts[..., :2 * d_h] = T.sigmoid(gates_in[..., :2 * d_h] + T.matmul(prev, w_rec[..., :2 * d_h]))
    z = acts[..., :d_h]
    trace.aux[j] = acts[..., d_h:2 * d_h] * prev
    acts[..., 2 * d_h:] = T.tanh(gates_in[..., 2 * d_h:] + T.matmul(trace.aux[j], w_rec[..., 2 * d_h:]))
    trace.hidden[j + 1] = (1.0 - z) * prev + z * acts[..., 2 * d_h:]


def gru_step_backward(
    params: CellParams, trace: CellTrace, j: int, d_hidden: Array, d_cell: Array
) -> tuple[Array, Array, Array]:
    """Return (d_gates_in, d_prev_hidden, d_prev_cell); d_cell is ignored (GRU has none)."""
    d_h = params.hidden_size
    w_rec = params.w_rec.value
    z, r, cand = (trace.acts[j, ..., k * d_h:(k + 1) * d_h] for k in range(3))
    prev = trace.hidden[j]
    d_z = d_hidden * (cand - prev)
    d_prev_hidden = d_hidden * (1.0 - z)
    d_cand_pre = T.tanh_backward(d_hidden * z, cand)
    d_r_h = T.matmul(d_cand_pre, _transpose(w_rec[..., 2 * d_h:]))
    d_r = d_r_h * prev
    d_prev_hidden = d_prev_hidden + d_r_h * r
    d_zr_pre = T.concat([T.sigmoid_backward(d_z, z), T.sigmoid_backward(d_r, r)])
    d_prev_hidden = d_prev_hidden + T.matmul(d_zr_pre, _transpose(w_rec[..., :2 * d_h]))
    return T.concat([d_zr_pre, d_cand_pre]), d_prev_hidden, np.zeros_like(d_prev_hidden)


def cell_step(params: CellParams, gates_in: Array, trace: CellTrace, j: int) -> None:
    """Step j: read state row j of ``trace``, write its activations row j and state row j+1."""
    (lstm_step if params.kind == "lstm" else gru_step)(params, gates_in, trace, j)


def cell_step_backward(params: CellParams, trace: CellTrace, j: int, d_hidden: Array, d_cell: Array):
    """Step j backward from the gradients of state row j+1; returns (d_gates_in, d_hidden, d_cell) of row j."""
    step_backward = lstm_step_backward if params.kind == "lstm" else gru_step_backward
    return step_backward(params, trace, j, d_hidden, d_cell)


def cell_weights_backward(params: CellParams, x: Array, trace: CellTrace, d_gates: Array) -> None:
    """Weight gradients of the trace's steps from its ([n,] T*B, G*d_h) ``d_gates`` rows, one GEMM
    per weight: the ([n,] T*B, d_x) input rows ``x`` fill the first d_x rows of ``w_in`` (a decoder's
    last d_h rows read the attention context: ``attention_weights_backward`` fills them)."""
    params.w_in.grad[..., :x.shape[-1], :] += _transpose(x) @ d_gates
    params.bias.grad += d_gates.sum(axis=-2)
    prev = _transpose(rows(trace.hidden[:-1]))
    if params.kind == "lstm":
        params.w_rec.grad += prev @ d_gates
        return
    d_h = params.hidden_size
    params.w_rec.grad[..., :2 * d_h] += prev @ d_gates[..., :2 * d_h]
    params.w_rec.grad[..., 2 * d_h:] += _transpose(rows(trace.aux)) @ d_gates[..., 2 * d_h:]


@dataclass
class AttentionParams(ParamGroup):
    """Concatenation attention; per-decoder instances are never shared."""

    w: ParamSlot  # ([n,] 2*d_h, attn_size): encoder-hidden rows, then query rows
    b: ParamSlot  # ([n,] attn_size)
    v: ParamSlot  # ([n,] attn_size)


class AttentionMemory(NamedTuple):
    hiddens: Array  # ([n,] B, m, d_h), each row's context right-padded
    keys: Array     # ([n,] B, m, attn_size): W_h^T h_i + b, the query-free part of each score
    values: Array   # ([n,] B, m, G*d_h): h_i @ the cell's context rows of w_in, each hidden's share of the gates
    mask: Array     # (B, m): 0 at each context's positions, -inf at its padding


def attention_memory(params: AttentionParams, encoder_hiddens: Array, valid: Array, w_in: ParamSlot) -> AttentionMemory:
    """Project B contexts' ([n,] B, m, d_h) hiddens once into keys and into values through the
    last d_h rows of the decoder cell's ``w_in``, one GEMM per copy each over all B*m rows;
    ``valid`` (B, m) marks each context's positions, False at its padding."""
    hiddens = np.ascontiguousarray(encoder_hiddens, dtype=np.float64)
    *lead, batch, m, d_h = hiddens.shape
    flat = hiddens.reshape(*lead, -1, d_h)
    keys = flat @ params.w.value[..., :d_h, :] + params.b.value[..., None, :]
    values = flat @ w_in.value[..., -d_h:, :]
    return AttentionMemory(hiddens, *(a.reshape(*a.shape[:-2], batch, m, -1) for a in (keys, values)),
                           np.where(valid, 0.0, -np.inf))


@dataclass
class AttentionTrace:
    """T attention steps of B rows, time first."""

    weights: Array  # (T, [n,] B, m)
    share: Array    # (T, [n,] B, attn_size): W_q^T query, from which the tanh is recomputed

    @classmethod
    def empty(cls, params: AttentionParams, memory: AttentionMemory, steps: int,
              lead: tuple | None = None) -> "AttentionTrace":
        """A trace of ``steps`` steps for the weights' copies, or for ``lead``, those of the queries."""
        lead = (steps, *(params.v.value.shape[:-1] if lead is None else lead), memory.hiddens.shape[-3])
        return cls(np.empty((*lead, memory.hiddens.shape[-2])), np.empty((*lead, params.v.value.shape[-1])))


def attention_context(
    params: AttentionParams, memory: AttentionMemory, query: Array, trace: AttentionTrace, j: int
) -> Array:
    """Score each row's encoder hiddens against its previous decoder state; writes row j of ``trace``
    and returns the context's ([n,] B, G*d_h) share of the cell's gates.

    score_i = v . tanh(W^T (h_i ++ query) + b), -inf at padded positions;
    weights = softmax(scores); the share is sum_i weights_i * values_i, the
    context sum_i weights_i * h_i times the cell's context rows. ([n,] B, d_h)
    queries attend with the stacked weights, one row each.
    """
    trace.share[j] = T.matmul(query, params.w.value[..., memory.hiddens.shape[-1]:, :])
    scores = (T.tanh(memory.keys + trace.share[j][..., None, :]) @ params.v.value[..., None, :, None])[..., 0]
    trace.weights[j] = T.softmax(scores + memory.mask)
    return T.matmul(trace.weights[j][..., None, :], memory.values)[..., 0, :]


def attention_backward(
    params: AttentionParams, memory: AttentionMemory, trace: AttentionTrace, d_share: Array, d_keys: Array,
    j: int, d_gates: Array,
) -> Array:
    """Step j backward from the ([n,] B, G*d_h) gradient of the cell's gates: fill row j of ``d_share``
    (shaped as ``trace.share``), add to ``d_keys`` (as ``memory.keys``) and to v's gradient; return d_query."""
    pre = T.tanh(memory.keys + trace.share[j][..., None, :])  # recomputed, not stored
    d_scores = T.softmax_backward(T.matmul(memory.values, d_gates[..., None])[..., 0], trace.weights[j])
    d_pre = T.tanh_backward(d_scores[..., None] * params.v.value[..., None, None, :], pre)
    params.v.grad += (pre * d_scores[..., None]).sum(axis=(-3, -2))
    d_keys += d_pre
    d_share[j] = d_pre.sum(axis=-2)
    return T.matmul(d_share[j], _transpose(params.w.value[..., memory.hiddens.shape[-1]:, :]))


def attention_weights_backward(
    params: AttentionParams, memory: AttentionMemory, trace: AttentionTrace, d_share: Array, d_keys: Array,
    queries: Array, d_gates: Array, w_in: ParamSlot,
) -> Array:
    """Weight gradients of T steps from ``attention_backward``'s ``d_share`` and ``d_keys``, the
    (T, [n,] B, d_h) queries and the (T, [n,] B, G*d_h) gradients of the cell's gates, one GEMM
    each over all rows: the attention's, and those of the last d_h rows of the cell's ``w_in``.
    Returns the ([n,] B, m, d_h) gradient of each row's context hiddens."""
    d_h = memory.hiddens.shape[-1]
    hiddens = memory.hiddens.reshape(-1, d_h)
    d_keys = d_keys.reshape(*d_keys.shape[:-3], -1, d_keys.shape[-1])
    params.w.grad[..., :d_h, :] += _transpose(hiddens) @ d_keys
    params.w.grad[..., d_h:, :] += _transpose(rows(queries)) @ rows(d_share)
    params.b.grad += d_keys.sum(axis=-2)
    # Each row's values are read by its T steps' weights: one batched product per copy and row.
    d_values = np.moveaxis(trace.weights, 0, -1) @ np.moveaxis(d_gates, 0, -2)
    d_values = d_values.reshape(*d_values.shape[:-3], -1, d_values.shape[-1])
    w_in.grad[..., -d_h:, :] += _transpose(hiddens) @ d_values
    d_hiddens = d_keys @ _transpose(params.w.value[..., :d_h, :]) + d_values @ _transpose(w_in.value[..., -d_h:, :])
    return d_hiddens.reshape(memory.keys.shape[:-1] + (d_h,))


@dataclass
class OutputProjection(ParamGroup):
    u: ParamSlot  # ([n,] d_h, vocab_size)
    a: ParamSlot  # ([n,] vocab_size)


def project_to_vocab(proj: OutputProjection, state: Array) -> Array:
    """softmax(U^T state + a) for every row of a ([n,] T, d_h) stack of rows, one GEMM per copy."""
    return T.softmax(state @ proj.u.value + proj.a.value[..., None, :])


def project_backward(proj: OutputProjection, state: Array, probs: Array, d_probs: Array) -> Array:
    """Backward from the forward's ``state`` and its ``probs``; returns d_state."""
    d_logits = T.softmax_backward(d_probs, probs)
    proj.u.grad += _transpose(state) @ d_logits
    proj.a.grad += d_logits.sum(axis=-2)
    return d_logits @ _transpose(proj.u.value)
