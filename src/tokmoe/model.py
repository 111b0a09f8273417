"""Encoder, expert decoders, chair decoder, gating, and greedy decoding.

One shared encoder reads the dialogue context; k expert decoders plus a
chair decoder (always the last stack) each emit a per-step distribution
over the vocabulary. A gating network scores all k+1 decoders from their
concatenated states and distributions, and the chair combines the k+1
distributions with those normalized weights into the final per-token
distribution. All decoders consume one shared previous token: the gold
token under teacher forcing, the chair's argmax during generation (the
gating input concatenates all decoders' step-j states, which requires
aligned timelines).

Inference over frozen parameters is read-only and thread-safe; training
mutates ParamSlot gradients and runs single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import layers as L
from . import tensor as T
from .config import BOS_ID, EOS_ID, SchemeConfig, VariantConfig
from .errors import DomainError, ShapeError
from .layers import (
    AttentionParams,
    CellParams,
    EmbeddingTable,
    OutputProjection,
    RnnState,
)
from .tensor import Array, ParamSlot

INIT_RANGE = 0.08  # uniform(-r, r) parameter initialization

# How the final per-token distribution is formed.
COMBINE_MIXTURE = "mixture"  # gated sum over all decoders
COMBINE_CHAIR = "chair"      # chair's own distribution (mixture disabled)


@dataclass
class DecoderStack:
    """One decoder: recurrent cell + (optional) attention + vocab projection."""

    cell: CellParams
    attention: AttentionParams | None
    projection: OutputProjection

    def slots(self) -> list[ParamSlot]:
        out = list(self.cell.slots())
        if self.attention is not None:
            out.extend(self.attention.slots())
        out.extend(self.projection.slots())
        return out


@dataclass
class GatingParams:
    """Two-layer MLP over the concatenated decoder states and distributions.

    The MLP output is dotted with one learnable key vector per decoder;
    the softmax over those k+1 scores is the mixture weight vector.
    """

    hidden_w: ParamSlot            # (gate_in, gate_hidden)
    hidden_b: ParamSlot            # (gate_hidden,)
    out_w: ParamSlot               # (gate_hidden, gate_out)
    out_b: ParamSlot               # (gate_out,)
    expert_keys: list[ParamSlot]   # k+1 vectors, each (gate_out,)

    def slots(self) -> list[ParamSlot]:
        return [self.hidden_w, self.hidden_b, self.out_w, self.out_b, *self.expert_keys]


@dataclass
class EncoderOutput:
    hiddens: Array          # (m, d_h), one row per context position
    final_state: RnnState


@dataclass
class StepOutput:
    """Everything one decoding step produces, before and after combination."""

    dists: list[Array]        # k+1 vocabulary distributions
    states: list[RnnState]    # k+1 post-step decoder states
    beta: Array               # mixture weights over the k+1 decoders
    combined: Array           # final distribution for this step


@dataclass
class ModelParams:
    embedding: EmbeddingTable
    encoder: CellParams
    decoders: list[DecoderStack]   # k experts then the chair (last entry)
    gating: GatingParams | None    # None in single-decoder mode
    variant: VariantConfig
    num_experts: int               # k; 0 means single-decoder mode

    @property
    def vocab_size(self) -> int:
        return self.embedding.vocab_size

    @property
    def num_decoders(self) -> int:
        return len(self.decoders)

    def decoder_name(self, index: int) -> str:
        return "chair" if index == self.num_decoders - 1 else f"expert.{index}"

    def slots(self) -> list[ParamSlot]:
        out = [self.embedding.matrix, *self.encoder.slots()]
        for stack in self.decoders:
            out.extend(stack.slots())
        if self.gating is not None:
            out.extend(self.gating.slots())
        names = [slot.name for slot in out]
        if len(set(names)) != len(names):
            raise ShapeError("duplicate parameter slot names")
        return out


def _uniform_slot(rng: np.random.Generator, name: str, *shape: int) -> ParamSlot:
    return ParamSlot(name, rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape))


def _init_cell(rng: np.random.Generator, prefix: str, kind: str, d_in: int, d_h: int) -> CellParams:
    gates = 4 if kind == "lstm" else 3
    return CellParams(
        kind,
        w_in=_uniform_slot(rng, f"{prefix}.w_in", d_in, gates * d_h),
        w_rec=_uniform_slot(rng, f"{prefix}.w_rec", d_h, gates * d_h),
        bias=_uniform_slot(rng, f"{prefix}.bias", gates * d_h),
    )


def init_model(
    vocab_size: int, num_experts: int, variant: VariantConfig, seed: int
) -> ModelParams:
    """Build a freshly initialized model: k expert decoders plus the chair.

    ``num_experts == 0`` builds the single-decoder baseline (one stack, no
    gating). All parameters draw uniform(-0.08, 0.08) from one seeded PRNG
    in a fixed creation order, so (seed, shape) fully determines values.
    """
    if num_experts < 0:
        raise DomainError("num_experts must be >= 0")
    rng = np.random.default_rng(seed)
    d_h = variant.hidden_size
    d_emb = variant.embedding_size
    embedding = EmbeddingTable(_uniform_slot(rng, "embedding.matrix", vocab_size, d_emb))
    encoder = _init_cell(rng, "encoder", variant.cell_kind, d_emb, d_h)

    n_decoders = 1 if num_experts == 0 else num_experts + 1
    decoders: list[DecoderStack] = []
    for i in range(n_decoders):
        prefix = "chair" if i == n_decoders - 1 else f"expert.{i}"
        cell = _init_cell(rng, f"{prefix}.cell", variant.cell_kind, d_emb + d_h, d_h)
        attention = None
        if variant.attention_enabled:
            attention = AttentionParams(
                w=_uniform_slot(rng, f"{prefix}.attn.w", 2 * d_h, variant.attn_size),
                b=_uniform_slot(rng, f"{prefix}.attn.b", variant.attn_size),
                v=_uniform_slot(rng, f"{prefix}.attn.v", variant.attn_size),
            )
        projection = OutputProjection(
            u=_uniform_slot(rng, f"{prefix}.proj.u", d_h, vocab_size),
            a=_uniform_slot(rng, f"{prefix}.proj.a", vocab_size),
        )
        decoders.append(DecoderStack(cell, attention, projection))

    gating = None
    if n_decoders > 1:
        gate_in = n_decoders * (d_h + vocab_size)
        gating = GatingParams(
            hidden_w=_uniform_slot(rng, "gating.hidden_w", gate_in, variant.gate_hidden),
            hidden_b=_uniform_slot(rng, "gating.hidden_b", variant.gate_hidden),
            out_w=_uniform_slot(rng, "gating.out_w", variant.gate_hidden, variant.gate_out),
            out_b=_uniform_slot(rng, "gating.out_b", variant.gate_out),
            expert_keys=[
                _uniform_slot(rng, f"gating.expert_key.{i}", variant.gate_out)
                for i in range(n_decoders)
            ],
        )
    return ModelParams(embedding, encoder, decoders, gating, variant, num_experts)


def combine_mode(scheme: SchemeConfig, params: ModelParams) -> str:
    """How ``scheme`` forms the final distribution on this model.

    The gated mixture when the scheme enables it and the model has a gate;
    otherwise the chair's own distribution, which in single-decoder mode is
    the only decoder's.
    """
    return COMBINE_MIXTURE if scheme.moe_enabled and params.gating is not None else COMBINE_CHAIR


# ---------------------------------------------------------------------------
# Encoder


class EncodeCache(NamedTuple):
    token_ids: list[int]
    cell_caches: list


def encode_context(params: ModelParams, context_ids: list[int]) -> tuple[EncoderOutput, EncodeCache]:
    """Run the encoder cell left-to-right from the all-zero initial state."""
    if len(context_ids) == 0:
        raise DomainError("cannot encode an empty context")
    d_h = params.variant.hidden_size
    state = RnnState.zero(d_h)
    hiddens = np.empty((len(context_ids), d_h))
    caches = []
    for i, token_id in enumerate(context_ids):
        state, cache = L.cell_step(params.encoder, params.embedding.lookup(token_id), state)
        hiddens[i] = state.hidden
        caches.append(cache)
    return EncoderOutput(hiddens, state), EncodeCache(list(context_ids), caches)


def encode_backward(
    params: ModelParams,
    cache: EncodeCache,
    d_hiddens: Array,
    d_final_hidden: Array,
    d_final_cell: Array,
) -> None:
    carry_h = d_final_hidden
    carry_c = d_final_cell
    for i in reversed(range(len(cache.token_ids))):
        d_h = d_hiddens[i] + carry_h
        d_x, carry_h, carry_c = L.cell_step_backward(params.encoder, cache.cell_caches[i], d_h, carry_c)
        params.embedding.lookup_backward(cache.token_ids[i], d_x)


# ---------------------------------------------------------------------------
# Single decoder step


class DecoderStepCache(NamedTuple):
    prev_token_id: int
    attn_cache: L.AttentionCache | None
    cell_cache: object
    proj_cache: L.ProjectionCache


def expert_step(
    params: ModelParams,
    index: int,
    prev_token_id: int,
    prev_state: RnnState,
    enc: EncoderOutput,
) -> tuple[Array, RnnState, DecoderStepCache]:
    """One step of decoder ``index``: attention, cell update, projection.

    With attention disabled the context vector is a constant zero vector of
    the same width, so the cell input layout is unchanged.
    """
    if not 0 <= index < params.num_decoders:
        raise DomainError(f"decoder index {index} outside 0..{params.num_decoders - 1}")
    stack = params.decoders[index]
    emb = params.embedding.lookup(prev_token_id)
    if stack.attention is not None:
        context, _, attn_cache = L.attention_context(stack.attention, enc.hiddens, prev_state.hidden)
    else:
        context = T.zeros(params.variant.hidden_size)
        attn_cache = None
    x = T.concat([emb, context])
    state, cell_cache = L.cell_step(stack.cell, x, prev_state)
    dist, proj_cache = L.project_to_vocab(stack.projection, state.hidden)
    return dist, state, DecoderStepCache(prev_token_id, attn_cache, cell_cache, proj_cache)


def expert_step_backward(
    params: ModelParams,
    index: int,
    cache: DecoderStepCache,
    d_dist: Array,
    d_hidden_extra: Array,
    carry_hidden: Array,
    carry_cell: Array,
    d_enc_hiddens: Array,
) -> tuple[Array, Array]:
    """Backward through one decoder step.

    ``d_hidden_extra`` carries gradient reaching the post-step hidden from
    outside the projection (gating input); ``carry_*`` arrive from step
    j+1. Attention gradients accumulate into ``d_enc_hiddens`` in place.
    Returns the (hidden, cell) gradient carries for step j-1.
    """
    stack = params.decoders[index]
    d_o = L.project_backward(stack.projection, cache.proj_cache, d_dist)
    d_hidden = d_o + d_hidden_extra + carry_hidden
    d_x, d_prev_hidden, d_prev_cell = L.cell_step_backward(stack.cell, cache.cell_cache, d_hidden, carry_cell)
    d_emb = d_x[: params.variant.embedding_size]
    d_context = d_x[params.variant.embedding_size:]
    params.embedding.lookup_backward(cache.prev_token_id, d_emb)
    if stack.attention is not None:
        d_hiddens, d_query = L.attention_backward(stack.attention, cache.attn_cache, d_context)
        d_enc_hiddens += d_hiddens
        d_prev_hidden = d_prev_hidden + d_query
    return d_prev_hidden, d_prev_cell


# ---------------------------------------------------------------------------
# Gating and combination


class GateCache(NamedTuple):
    gate_input: Array
    hidden_out: Array
    query: Array
    logits: Array
    beta: Array
    piece_lengths: list[int]


def gate_weights(
    gating: GatingParams, states: list[RnnState], dists: list[Array]
) -> tuple[Array, GateCache]:
    """Normalized importance scores over all decoders (chair included).

    Input is the concatenation s_1 ++ p_1 ++ ... ++ s_{k+1} ++ p_{k+1};
    the MLP query is dotted with each decoder's key and the scores are
    softmax-normalized over all k+1 decoders.
    """
    if len(states) != len(dists) or len(states) != len(gating.expert_keys):
        raise ShapeError(
            f"gating expects {len(gating.expert_keys)} states and distributions, "
            f"got {len(states)} and {len(dists)}"
        )
    pieces: list[Array] = []
    for state, dist in zip(states, dists):
        pieces.append(state.hidden)
        pieces.append(dist)
    gate_input = T.concat(pieces)
    hidden_out = T.tanh(T.matmul(gate_input, gating.hidden_w.value) + gating.hidden_b.value)
    query = T.matmul(hidden_out, gating.out_w.value) + gating.out_b.value
    logits = np.array([np.dot(query, key.value) for key in gating.expert_keys])
    beta = T.softmax(logits)
    cache = GateCache(gate_input, hidden_out, query, logits, beta, [len(p) for p in pieces])
    return beta, cache


def gate_weights_backward(
    gating: GatingParams, cache: GateCache, d_beta: Array
) -> tuple[list[Array], list[Array]]:
    """Return per-decoder (d_state_hidden, d_dist) gradients of the gate input."""
    d_logits = T.softmax_backward(d_beta, cache.beta)
    d_query = T.zeros(cache.query.shape[0])
    for l, key in enumerate(gating.expert_keys):
        key.grad += d_logits[l] * cache.query
        d_query += d_logits[l] * key.value
    gating.out_w.grad += np.outer(cache.hidden_out, d_query)
    gating.out_b.grad += d_query
    d_hidden_out = T.tanh_backward(d_query @ gating.out_w.value.T, cache.hidden_out)
    gating.hidden_w.grad += np.outer(cache.gate_input, d_hidden_out)
    gating.hidden_b.grad += d_hidden_out
    d_input = d_hidden_out @ gating.hidden_w.value.T
    parts = T.concat_backward(d_input, cache.piece_lengths)
    d_state_hiddens = [parts[2 * i] for i in range(len(parts) // 2)]
    d_dists = [parts[2 * i + 1] for i in range(len(parts) // 2)]
    return d_state_hiddens, d_dists


def chair_combine(dists: list[Array], beta: Array) -> Array:
    """Convex combination sum_l beta_l * p_l; stays on the simplex."""
    if len(dists) != beta.shape[0]:
        raise ShapeError(f"{len(dists)} distributions but {beta.shape[0]} mixture weights")
    combined = np.zeros_like(dists[0])
    for weight, dist in zip(beta, dists):
        combined += weight * dist
    return combined


def chair_combine_backward(
    dists: list[Array], beta: Array, d_combined: Array
) -> tuple[Array, list[Array]]:
    d_beta = np.array([np.dot(d_combined, dist) for dist in dists])
    d_dists = [beta[l] * d_combined for l in range(len(dists))]
    return d_beta, d_dists


# ---------------------------------------------------------------------------
# Decoding: one output token, then the teacher-forced and greedy loops


class StepCache(NamedTuple):
    decoder_caches: list[DecoderStepCache]
    gate_cache: GateCache | None
    out: StepOutput


class ForwardCache(NamedTuple):
    enc_cache: EncodeCache
    enc_out: EncoderOutput
    steps: list[StepCache]


def initial_decoder_states(params: ModelParams, enc: EncoderOutput) -> list[RnnState]:
    # Every decoder starts from the shared encoder final state.
    return [
        RnnState(enc.final_state.hidden.copy(), enc.final_state.cell.copy())
        for _ in range(params.num_decoders)
    ]


def decode_step(
    params: ModelParams,
    prev_token: int,
    states: list[RnnState],
    enc: EncoderOutput,
    combine: str,
) -> StepCache:
    """One output token: every decoder steps on ``prev_token``, then they combine.

    With ``combine == "mixture"`` on a gated model the gate weighs all
    decoders. Otherwise one decoder is selected: the chair, which in
    single-decoder mode is the only one; beta is one-hot on it and the
    combined distribution IS its distribution.
    """
    if combine not in (COMBINE_MIXTURE, COMBINE_CHAIR):
        raise DomainError(f"unknown combine mode {combine!r}")
    dists: list[Array] = []
    new_states: list[RnnState] = []
    dec_caches: list[DecoderStepCache] = []
    for l in range(params.num_decoders):
        dist, state, dec_cache = expert_step(params, l, prev_token, states[l], enc)
        dists.append(dist)
        new_states.append(state)
        dec_caches.append(dec_cache)
    gate_cache = None
    if combine == COMBINE_MIXTURE and params.gating is not None:
        beta, gate_cache = gate_weights(params.gating, new_states, dists)
        combined = chair_combine(dists, beta)
    else:
        beta = np.zeros(params.num_decoders)
        beta[-1] = 1.0
        combined = dists[-1]
    return StepCache(dec_caches, gate_cache, StepOutput(dists, new_states, beta, combined))


def forward_teacher_forced(
    params: ModelParams,
    context_ids: list[int],
    response_ids: list[int],
    combine: str = COMBINE_MIXTURE,
) -> tuple[list[StepOutput], ForwardCache]:
    """Run all decoders over a gold response (BOS prepended internally).

    At step j every decoder consumes the shared ground-truth token y_{j-1}.
    Returns one StepOutput per response position; see ``decode_step`` for
    how the combined distribution is formed.
    """
    if len(response_ids) == 0:
        raise DomainError("cannot teacher-force an empty response")
    enc, enc_cache = encode_context(params, context_ids)
    states = initial_decoder_states(params, enc)
    steps: list[StepCache] = []
    prev_token = BOS_ID
    for y in response_ids:
        step = decode_step(params, prev_token, states, enc, combine)
        steps.append(step)
        states = step.out.states
        prev_token = y
    return [step.out for step in steps], ForwardCache(enc_cache, enc, steps)


def backward_teacher_forced(
    params: ModelParams,
    cache: ForwardCache,
    d_dists: list[list[Array | None]],
    d_combined: list[Array | None],
) -> None:
    """Manual reverse pass over a teacher-forced forward.

    ``d_dists[j][l]`` seeds gradient on decoder l's step-j distribution
    (the localized expert losses); ``d_combined[j]`` seeds gradient on the
    combined distribution (the chair loss). Routing through the mixture,
    the gating network, every decoder chain, and the encoder happens here;
    results accumulate into ParamSlot gradients.
    """
    n_dec = params.num_decoders
    d_h = params.variant.hidden_size
    carry_hidden = [T.zeros(d_h) for _ in range(n_dec)]
    carry_cell = [T.zeros(d_h) for _ in range(n_dec)]
    d_enc_hiddens = np.zeros_like(cache.enc_out.hiddens)
    vocab = params.vocab_size

    for j in reversed(range(len(cache.steps))):
        step = cache.steps[j]
        d_dist = [T.zeros(vocab) for _ in range(n_dec)]
        for l, seed in enumerate(d_dists[j]):
            if seed is not None:
                d_dist[l] += seed
        d_hidden_extra = [T.zeros(d_h) for _ in range(n_dec)]
        dc = d_combined[j]
        if step.gate_cache is not None:
            d_beta = T.zeros(n_dec)
            if dc is not None:
                d_beta, d_mix = chair_combine_backward(step.out.dists, step.out.beta, dc)
                for l in range(n_dec):
                    d_dist[l] += d_mix[l]
            gate_state_grads, gate_dist_grads = gate_weights_backward(
                params.gating, step.gate_cache, d_beta
            )
            for l in range(n_dec):
                d_hidden_extra[l] += gate_state_grads[l]
                d_dist[l] += gate_dist_grads[l]
        elif dc is not None:
            # Single decoder or chair-only combination: combined IS the chair's dist.
            d_dist[-1] += dc
        for l in range(n_dec):
            carry_hidden[l], carry_cell[l] = expert_step_backward(
                params, l, step.decoder_caches[l], d_dist[l],
                d_hidden_extra[l], carry_hidden[l], carry_cell[l], d_enc_hiddens,
            )

    # Decoder initial states were copies of the encoder final state.
    d_final_hidden = T.zeros(d_h)
    d_final_cell = T.zeros(d_h)
    for l in range(n_dec):
        d_final_hidden += carry_hidden[l]
        d_final_cell += carry_cell[l]
    encode_backward(params, cache.enc_cache, d_enc_hiddens, d_final_hidden, d_final_cell)


def greedy_decode(
    params: ModelParams,
    context_ids: list[int],
    max_len: int,
    combine: str = COMBINE_MIXTURE,
    collect_beta: bool = False,
) -> list[int] | tuple[list[int], list[Array]]:
    """Generate token ids greedily until EOS or ``max_len``.

    The argmax of the combined distribution is fed to every decoder at the
    next step; ties resolve to the lowest token id. With ``collect_beta``
    the per-step mixture weights are returned as well.
    """
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    enc, _ = encode_context(params, context_ids)
    states = initial_decoder_states(params, enc)
    prev_token = BOS_ID
    out_ids: list[int] = []
    betas: list[Array] = []
    for _ in range(max_len):
        out = decode_step(params, prev_token, states, enc, combine).out
        token = int(np.argmax(out.combined))  # first maximum, so lowest id wins ties
        out_ids.append(token)
        betas.append(out.beta)
        if token == EOS_ID:
            break
        states = out.states
        prev_token = token
    if collect_beta:
        return out_ids, betas
    return out_ids
