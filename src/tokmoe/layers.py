"""Recurrent cells, embeddings, attention, and the vocabulary projection.

These are the building blocks the encoder and all decoders are assembled
from. Forward functions return ``(output, cache)``; each paired
``*_backward`` consumes the cache plus upstream gradients and returns
gradients for the inputs. Layers are immutable during inference and may be
shared across threads; training mutates ParamSlot gradients single-threaded.

A recurrent step (``cell_step``, ``attention_context``) and its backward do
only what must run token by token. Weight gradients are left to one GEMM
per weight over the whole sequence (``cell_weights_backward``,
``attention_weights_backward``), as in Appleyard, Kocisky and Blunsom 2016
(arXiv 1604.01946); the projection takes any leading rows at once.

Conventions pinned here (tests rely on them):

* LSTM gate order along the last weight axis is (input, forget, output,
  candidate), so the three sigmoid gates are contiguous; new cell =
  f*c + i*g, new hidden = o*tanh(cell).
* GRU gate order is (update, reset, candidate); the candidate recurrent
  term uses ``reset * h_prev`` and the new hidden is
  ``(1 - z) * h_prev + z * h_cand``. The ``cell`` half of RnnState stays zero.
* Weight matrices are stored (input_width, output_width) and applied as
  ``x @ W``; a cell step takes its input projected, ``x @ w_in + bias``.
* Every layer also runs a stack of independent copies at once: weights,
  inputs and states with a leading axis of n copies; a sequence of T rows
  is ([n,] T, width). Along the copy axis every result is bit-identical to
  running that copy alone; the decoders use this, the encoder runs
  unstacked. Along the time axis a GEMM over T rows matches T one-row
  products to 1e-12 relative, not bitwise.
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
    """Token embedding rows; lookup gradients scatter into the rows looked up."""

    matrix: ParamSlot  # (vocab_size, emb_size)

    @property
    def vocab_size(self) -> int:
        return self.matrix.value.shape[0]

    def lookup(self, token_ids) -> Array:
        """The row of one id, or the (len, emb_size) rows of a sequence of ids."""
        ids = np.asarray(token_ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError(f"token ids {ids} outside vocabulary of size {self.vocab_size}")
        return self.matrix.value[ids]

    def lookup_backward(self, token_ids, grad: Array) -> None:
        # grad is ([n,] ids, emb_size); its rows add into the table in C order.
        np.add.at(self.matrix.grad, np.broadcast_to(token_ids, grad.shape[:-1]), grad)


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
    prev_hidden: Array
    prev_cell: Array
    i: Array
    f: Array
    g: Array
    o: Array
    tanh_cell: Array


def lstm_step(params: CellParams, gates_in: Array, prev: RnnState) -> tuple[RnnState, LstmCache]:
    d_h = params.hidden_size
    z = gates_in + T.matmul(prev.hidden, params.w_rec.value)
    gates = T.sigmoid(z[..., :3 * d_h])
    i = gates[..., :d_h]
    f = gates[..., d_h:2 * d_h]
    o = gates[..., 2 * d_h:]
    g = T.tanh(z[..., 3 * d_h:])
    cell = f * prev.cell + i * g
    tanh_cell = T.tanh(cell)
    hidden = o * tanh_cell
    return RnnState(hidden, cell), LstmCache(prev.hidden, prev.cell, i, f, g, o, tanh_cell)


def lstm_step_backward(
    params: CellParams, cache: LstmCache, d_hidden: Array, d_cell: Array
) -> tuple[Array, Array, Array]:
    """Return (d_gates_in, d_prev_hidden, d_prev_cell)."""
    d_o = d_hidden * cache.tanh_cell
    d_c = d_cell + T.tanh_backward(d_hidden * cache.o, cache.tanh_cell)
    d_f = d_c * cache.prev_cell
    d_prev_cell = d_c * cache.f
    d_i = d_c * cache.g
    d_g = d_c * cache.i
    d_z = T.concat([
        T.sigmoid_backward(d_i, cache.i),
        T.sigmoid_backward(d_f, cache.f),
        T.sigmoid_backward(d_o, cache.o),
        T.tanh_backward(d_g, cache.g),
    ])
    return d_z, T.matmul(d_z, _transpose(params.w_rec.value)), d_prev_cell


class GruCache(NamedTuple):
    prev_hidden: Array
    z: Array
    r: Array
    cand: Array
    r_h: Array


def gru_step(params: CellParams, gates_in: Array, prev: RnnState) -> tuple[RnnState, GruCache]:
    d_h = params.hidden_size
    w_rec = params.w_rec.value
    zr = T.sigmoid(gates_in[..., :2 * d_h] + T.matmul(prev.hidden, w_rec[..., :2 * d_h]))
    z = zr[..., :d_h]
    r = zr[..., d_h:]
    r_h = r * prev.hidden
    cand = T.tanh(gates_in[..., 2 * d_h:] + T.matmul(r_h, w_rec[..., 2 * d_h:]))
    hidden = (1.0 - z) * prev.hidden + z * cand
    return RnnState(hidden, np.zeros_like(hidden)), GruCache(prev.hidden, z, r, cand, r_h)


def gru_step_backward(
    params: CellParams, cache: GruCache, d_hidden: Array, d_cell: Array
) -> tuple[Array, Array, Array]:
    """Return (d_gates_in, d_prev_hidden, d_prev_cell); d_cell is ignored (GRU has none)."""
    d_h = params.hidden_size
    w_rec = params.w_rec.value
    d_z = d_hidden * (cache.cand - cache.prev_hidden)
    d_prev_hidden = d_hidden * (1.0 - cache.z)
    d_cand_pre = T.tanh_backward(d_hidden * cache.z, cache.cand)
    d_r_h = T.matmul(d_cand_pre, _transpose(w_rec[..., 2 * d_h:]))
    d_r = d_r_h * cache.prev_hidden
    d_prev_hidden = d_prev_hidden + d_r_h * cache.r
    d_zr_pre = T.concat([T.sigmoid_backward(d_z, cache.z), T.sigmoid_backward(d_r, cache.r)])
    d_prev_hidden = d_prev_hidden + T.matmul(d_zr_pre, _transpose(w_rec[..., :2 * d_h]))
    return T.concat([d_zr_pre, d_cand_pre]), d_prev_hidden, np.zeros_like(d_prev_hidden)


def cell_step(params: CellParams, gates_in: Array, prev: RnnState):
    return (lstm_step if params.kind == "lstm" else gru_step)(params, gates_in, prev)


def cell_step_backward(params: CellParams, cache, d_hidden: Array, d_cell: Array):
    step_backward = lstm_step_backward if params.kind == "lstm" else gru_step_backward
    return step_backward(params, cache, d_hidden, d_cell)


def cell_weights_backward(params: CellParams, x: Array, caches: list, d_gates: Array) -> None:
    """Weight gradients of T steps from the ([n,] T, d_in) input and ([n,] T, G*d_h) ``d_gates``."""
    params.w_in.grad += _transpose(x) @ d_gates
    params.bias.grad += d_gates.sum(axis=-2)
    prev = np.stack([cache.prev_hidden for cache in caches], axis=-2)
    if params.kind == "lstm":
        params.w_rec.grad += _transpose(prev) @ d_gates
        return
    d_h = params.hidden_size
    r_h = np.stack([cache.r_h for cache in caches], axis=-2)
    params.w_rec.grad[..., :2 * d_h] += _transpose(prev) @ d_gates[..., :2 * d_h]
    params.w_rec.grad[..., 2 * d_h:] += _transpose(r_h) @ d_gates[..., 2 * d_h:]


@dataclass
class AttentionParams:
    """Concatenation attention; per-decoder instances are never shared."""

    w: ParamSlot  # ([n,] 2*d_h, attn_size): encoder-hidden rows, then query rows
    b: ParamSlot  # ([n,] attn_size)
    v: ParamSlot  # ([n,] attn_size)

    def slots(self) -> list[ParamSlot]:
        return [self.w, self.b, self.v]


class AttentionMemory(NamedTuple):
    hiddens: Array  # (m, d_h)
    keys: Array     # ([n,] m, attn_size): W_h^T h_i + b, the query-free part of each score


def attention_memory(params: AttentionParams, encoder_hiddens: Array) -> AttentionMemory:
    """Project the encoder hiddens once per sequence, one GEMM per copy."""
    hiddens = np.asarray(encoder_hiddens, dtype=np.float64)
    if hiddens.ndim != 2 or hiddens.shape[0] == 0:
        raise DomainError("attention requires at least one encoder hidden vector")
    w_h = params.w.value[..., :hiddens.shape[1], :]
    return AttentionMemory(hiddens, hiddens @ w_h + params.b.value[..., None, :])


class AttentionCache(NamedTuple):
    query: Array    # ([n,] d_h)
    pre: Array      # ([n,] m, attn_size), tanh output
    weights: Array  # ([n,] m)


def attention_context(
    params: AttentionParams, memory: AttentionMemory, query: Array
) -> tuple[Array, Array, AttentionCache]:
    """Score each encoder hidden against the previous decoder state.

    score_i = v . tanh(W^T (h_i ++ query) + b); weights = softmax(scores);
    context = sum_i weights_i * h_i. Returns (context, weights, cache). A
    stacked (n, d_h) query attends with the stacked weights, one row each.
    """
    w_q = params.w.value[..., memory.hiddens.shape[1]:, :]
    pre = T.tanh(memory.keys + T.matmul(query, w_q)[..., None, :])
    weights = T.softmax((pre @ params.v.value[..., None])[..., 0])
    context = T.matmul(weights, memory.hiddens)
    return context, weights, AttentionCache(query, pre, weights)


def attention_backward(
    params: AttentionParams, memory: AttentionMemory, cache: AttentionCache, d_context: Array
) -> tuple[Array, tuple[Array, Array, Array]]:
    """Return d_query and (d_context, d_scores, d_pre) for ``attention_weights_backward``."""
    d_scores = T.softmax_backward((memory.hiddens @ d_context[..., None])[..., 0], cache.weights)
    d_pre = T.tanh_backward(d_scores[..., :, None] * params.v.value[..., None, :], cache.pre)
    w_q = params.w.value[..., memory.hiddens.shape[1]:, :]
    return T.matmul(d_pre.sum(axis=-2), _transpose(w_q)), (d_context, d_scores, d_pre)


def attention_weights_backward(
    params: AttentionParams, memory: AttentionMemory, caches: list[AttentionCache], grads: list
) -> Array:
    """Weight gradients of T steps, one GEMM each; returns d_hiddens, one (m, d_h) block per copy."""
    d_h = memory.hiddens.shape[1]
    d_context, d_scores = (np.stack([g[i] for g in grads], axis=-2) for i in (0, 1))
    d_pre = np.stack([g[2] for g in grads], axis=-3)  # ([n,] T, m, attn_size)
    d_keys = d_pre.sum(axis=-3)
    pre = np.stack([c.pre for c in caches], axis=-3)
    params.v.grad += (pre * d_scores[..., None]).sum(axis=(-3, -2))
    params.w.grad[..., :d_h, :] += _transpose(memory.hiddens) @ d_keys
    queries = np.stack([c.query for c in caches], axis=-2)
    params.w.grad[..., d_h:, :] += _transpose(queries) @ d_pre.sum(axis=-2)
    params.b.grad += d_keys.sum(axis=-2)
    weights = np.stack([c.weights for c in caches], axis=-2)
    return _transpose(weights) @ d_context + d_keys @ _transpose(params.w.value[..., :d_h, :])


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
    """softmax(U^T state + a) for every row of a ([n,] T, d_h) state, one GEMM per copy."""
    a = proj.a.value
    probs = T.softmax(state @ proj.u.value + (a[:, None] if a.ndim == 2 else a))
    return probs, ProjectionCache(state, probs)


def project_backward(proj: OutputProjection, cache: ProjectionCache, d_probs: Array) -> Array:
    d_logits = T.softmax_backward(d_probs, cache.probs)
    proj.u.grad += _transpose(cache.state) @ d_logits
    proj.a.grad += d_logits.sum(axis=-2)
    return d_logits @ _transpose(proj.u.value)
