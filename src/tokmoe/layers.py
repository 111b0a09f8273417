"""Recurrent cells, embeddings, attention, and the vocabulary projection.

These are the building blocks the encoder and all decoders are assembled
from. Forward functions return ``(output, cache)``; each paired
``*_backward`` consumes the cache plus upstream gradients, accumulates
parameter gradients into the owning ParamSlots, and returns gradients for
the inputs. Layers are immutable during inference and may be shared
across threads; training mutates ParamSlot gradients single-threaded.

Conventions pinned here (tests rely on them):

* LSTM gate order along the last weight axis is (input, forget, output,
  candidate), so the three sigmoid gates are contiguous; new cell =
  f*c + i*g, new hidden = o*tanh(cell).
* GRU gate order is (update, reset, candidate); the candidate recurrent
  term uses ``reset * h_prev`` and the new hidden is
  ``(1 - z) * h_prev + z * h_cand``. The ``cell`` half of RnnState stays zero.
* Weight matrices are stored (input_width, output_width) and applied as
  ``x @ W``.
* Every layer also runs a stack of independent copies at once: weights
  with a leading axis of n copies, inputs and states with the same leading
  axis, one row per copy. Each row's arithmetic is bit-identical to running
  that copy alone; the decoders use this, the encoder runs unstacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import DomainError
from .tensor import Array, ParamSlot


@dataclass
class RnnState:
    """Recurrent state: hidden plus cell; the cell half is zero for GRU."""

    hidden: Array
    cell: Array

    @classmethod
    def zero(cls, width: int) -> "RnnState":
        return cls(T.zeros(width), T.zeros(width))


@dataclass
class EmbeddingTable:
    """Token embedding rows; lookup gradients scatter into a single row."""

    matrix: ParamSlot  # (vocab_size, emb_size)

    @property
    def vocab_size(self) -> int:
        return self.matrix.value.shape[0]

    def lookup(self, token_id: int) -> Array:
        # Returns a row view; forward passes never mutate it.
        if not 0 <= token_id < self.vocab_size:
            raise IndexError(f"token id {token_id} outside vocabulary of size {self.vocab_size}")
        return self.matrix.value[token_id]

    def lookup_backward(self, token_id: int, grad: Array) -> None:
        # Rows of a stacked (n, emb_size) grad add into the row one after another, in order.
        np.add.at(self.matrix.grad, np.full(grad.shape[:-1], token_id), grad)


def _outer(a: Array, b: Array) -> Array:
    """Outer product of the last axes, per leading index."""
    return a[..., :, None] * b[..., None, :]


def _transpose(w: Array) -> Array:
    return w.swapaxes(-1, -2)


@dataclass
class CellParams:
    """Recurrent cell weights; ``kind`` picks the LSTM (G = 4) or GRU (G = 3) step."""

    kind: str         # "lstm" or "gru"
    w_in: ParamSlot   # ([n,] d_in, G*d_h)
    w_rec: ParamSlot  # ([n,] d_h, G*d_h)
    bias: ParamSlot   # ([n,] G*d_h)

    @property
    def hidden_size(self) -> int:
        return self.w_rec.value.shape[-2]

    def slots(self) -> list[ParamSlot]:
        return [self.w_in, self.w_rec, self.bias]


class LstmCache(NamedTuple):
    x: Array
    prev: RnnState
    i: Array
    f: Array
    g: Array
    o: Array
    cell: Array
    tanh_cell: Array


def lstm_step(params: CellParams, x: Array, prev: RnnState) -> tuple[RnnState, LstmCache]:
    d_h = params.hidden_size
    z = T.matmul(x, params.w_in.value) + T.matmul(prev.hidden, params.w_rec.value) + params.bias.value
    gates = T.sigmoid(z[..., :3 * d_h])
    i = gates[..., :d_h]
    f = gates[..., d_h:2 * d_h]
    o = gates[..., 2 * d_h:]
    g = T.tanh(z[..., 3 * d_h:])
    cell = f * prev.cell + i * g
    tanh_cell = T.tanh(cell)
    hidden = o * tanh_cell
    return RnnState(hidden, cell), LstmCache(x, prev, i, f, g, o, cell, tanh_cell)


def lstm_step_backward(
    params: CellParams, cache: LstmCache, d_hidden: Array, d_cell: Array
) -> tuple[Array, Array, Array]:
    """Return (d_x, d_prev_hidden, d_prev_cell); parameter grads accumulate."""
    d_o = d_hidden * cache.tanh_cell
    d_c = d_cell + T.tanh_backward(d_hidden * cache.o, cache.tanh_cell)
    d_f = d_c * cache.prev.cell
    d_prev_cell = d_c * cache.f
    d_i = d_c * cache.g
    d_g = d_c * cache.i
    d_z = T.concat([
        T.sigmoid_backward(d_i, cache.i),
        T.sigmoid_backward(d_f, cache.f),
        T.sigmoid_backward(d_o, cache.o),
        T.tanh_backward(d_g, cache.g),
    ])
    params.w_in.grad += _outer(cache.x, d_z)
    params.w_rec.grad += _outer(cache.prev.hidden, d_z)
    params.bias.grad += d_z
    d_x = T.matmul(d_z, _transpose(params.w_in.value))
    d_prev_hidden = T.matmul(d_z, _transpose(params.w_rec.value))
    return d_x, d_prev_hidden, d_prev_cell


class GruCache(NamedTuple):
    x: Array
    prev_hidden: Array
    z: Array
    r: Array
    cand: Array
    r_h: Array


def gru_step(params: CellParams, x: Array, prev: RnnState) -> tuple[RnnState, GruCache]:
    d_h = params.hidden_size
    w_rec = params.w_rec.value
    gates_in = T.matmul(x, params.w_in.value) + params.bias.value
    rec = T.matmul(prev.hidden, w_rec[..., :2 * d_h])
    zr = T.sigmoid(gates_in[..., :2 * d_h] + rec)
    z = zr[..., :d_h]
    r = zr[..., d_h:]
    r_h = r * prev.hidden
    cand = T.tanh(gates_in[..., 2 * d_h:] + T.matmul(r_h, w_rec[..., 2 * d_h:]))
    hidden = (1.0 - z) * prev.hidden + z * cand
    return RnnState(hidden, np.zeros_like(hidden)), GruCache(x, prev.hidden, z, r, cand, r_h)


def gru_step_backward(
    params: CellParams, cache: GruCache, d_hidden: Array, d_cell: Array
) -> tuple[Array, Array, Array]:
    """Return (d_x, d_prev_hidden, d_prev_cell); d_cell is ignored (GRU has none)."""
    d_h = params.hidden_size
    w_rec = params.w_rec.value
    d_z = d_hidden * (cache.cand - cache.prev_hidden)
    d_prev_hidden = d_hidden * (1.0 - cache.z)
    d_cand_pre = T.tanh_backward(d_hidden * cache.z, cache.cand)
    d_r_h = T.matmul(d_cand_pre, _transpose(w_rec[..., 2 * d_h:]))
    d_r = d_r_h * cache.prev_hidden
    d_prev_hidden = d_prev_hidden + d_r_h * cache.r
    d_zr_pre = T.concat([T.sigmoid_backward(d_z, cache.z), T.sigmoid_backward(d_r, cache.r)])
    d_gates = T.concat([d_zr_pre, d_cand_pre])
    params.w_in.grad += _outer(cache.x, d_gates)
    params.bias.grad += d_gates
    params.w_rec.grad[..., :2 * d_h] += _outer(cache.prev_hidden, d_zr_pre)
    params.w_rec.grad[..., 2 * d_h:] += _outer(cache.r_h, d_cand_pre)
    d_x = T.matmul(d_gates, _transpose(params.w_in.value))
    d_prev_hidden = d_prev_hidden + T.matmul(d_zr_pre, _transpose(w_rec[..., :2 * d_h]))
    return d_x, d_prev_hidden, np.zeros_like(d_prev_hidden)


def cell_step(params: CellParams, x: Array, prev: RnnState):
    if params.kind == "lstm":
        return lstm_step(params, x, prev)
    return gru_step(params, x, prev)


def cell_step_backward(params: CellParams, cache, d_hidden: Array, d_cell: Array):
    if params.kind == "lstm":
        return lstm_step_backward(params, cache, d_hidden, d_cell)
    return gru_step_backward(params, cache, d_hidden, d_cell)


@dataclass
class AttentionParams:
    """Concatenation attention; per-decoder instances are never shared."""

    w: ParamSlot  # ([n,] 2*d_h, attn_size)
    b: ParamSlot  # ([n,] attn_size)
    v: ParamSlot  # ([n,] attn_size)

    def slots(self) -> list[ParamSlot]:
        return [self.w, self.b, self.v]


class AttentionCache(NamedTuple):
    hiddens: Array  # (m, d_h)
    paired: Array   # ([n,] m, 2*d_h): each hidden concatenated with the query
    pre: Array      # ([n,] m, attn_size), tanh output
    weights: Array  # ([n,] m)


def attention_context(
    params: AttentionParams, encoder_hiddens: Array, query: Array
) -> tuple[Array, Array, AttentionCache]:
    """Score each encoder hidden against the previous decoder state.

    score_i = v . tanh(W^T (h_i ++ query) + b); weights = softmax(scores);
    context = sum_i weights_i * h_i. Returns (context, weights, cache). A
    stacked (n, d_h) query attends with the stacked weights, one row each.
    """
    hiddens = np.asarray(encoder_hiddens, dtype=np.float64)
    if hiddens.ndim != 2 or hiddens.shape[0] == 0:
        raise DomainError("attention requires at least one encoder hidden vector")
    m, d_h = hiddens.shape
    paired = np.empty(query.shape[:-1] + (m, 2 * d_h))
    paired[..., :d_h] = hiddens
    paired[..., d_h:] = query[..., None, :]
    pre = T.tanh(paired @ params.w.value + params.b.value[..., None, :])  # ([n,] m, attn_size)
    scores = (pre @ params.v.value[..., None])[..., 0]                     # ([n,] m)
    weights = T.softmax(scores)
    context = T.matmul(weights, hiddens)
    return context, weights, AttentionCache(hiddens, paired, pre, weights)


def attention_backward(
    params: AttentionParams, cache: AttentionCache, d_context: Array
) -> tuple[Array, Array]:
    """Return (d_encoder_hiddens, d_query); parameter grads accumulate.

    With a stacked query, d_encoder_hiddens has one (m, d_h) block per row.
    """
    d_weights = (cache.hiddens @ d_context[..., None])[..., 0]
    d_hiddens = _outer(cache.weights, d_context)
    d_scores = T.softmax_backward(d_weights, cache.weights)
    params.v.grad += (_transpose(cache.pre) @ d_scores[..., None])[..., 0]
    d_pre = T.tanh_backward(_outer(d_scores, params.v.value), cache.pre)
    d_paired = d_pre @ _transpose(params.w.value)
    params.w.grad += _transpose(cache.paired) @ d_pre
    params.b.grad += d_pre.sum(axis=-2)
    d_h = cache.hiddens.shape[1]
    d_hiddens += d_paired[..., :d_h]
    d_query = d_paired[..., d_h:].sum(axis=-2)
    return d_hiddens, d_query


@dataclass
class OutputProjection:
    u: ParamSlot  # ([n,] d_h, vocab_size)
    a: ParamSlot  # ([n,] vocab_size)

    def slots(self) -> list[ParamSlot]:
        return [self.u, self.a]


class ProjectionCache(NamedTuple):
    state: Array
    probs: Array


def project_to_vocab(proj: OutputProjection, state: Array) -> tuple[Array, ProjectionCache]:
    """softmax(U^T state + a): the per-step distribution over the vocabulary."""
    probs = T.softmax(T.matmul(state, proj.u.value) + proj.a.value)
    return probs, ProjectionCache(state, probs)


def project_backward(proj: OutputProjection, cache: ProjectionCache, d_probs: Array) -> Array:
    d_logits = T.softmax_backward(d_probs, cache.probs)
    proj.u.grad += _outer(cache.state, d_logits)
    proj.a.grad += d_logits
    return T.matmul(d_logits, _transpose(proj.u.value))
