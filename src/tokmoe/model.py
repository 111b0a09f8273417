"""Encoder, expert decoders, chair decoder, gating, and greedy decoding.

One shared encoder reads the dialogue context; k expert decoders plus a
chair decoder (always the last decoder) each emit a per-step distribution
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
class GatingParams:
    """Two-layer MLP over the concatenated decoder states and distributions.

    The MLP output is dotted with one learnable key vector per decoder;
    the softmax over those k+1 scores is the mixture weight vector.
    """

    hidden_w: ParamSlot     # (gate_in, gate_hidden)
    hidden_b: ParamSlot     # (gate_hidden,)
    out_w: ParamSlot        # (gate_hidden, gate_out)
    out_b: ParamSlot        # (gate_out,)
    expert_keys: ParamSlot  # (k+1, gate_out), one key row per decoder


@dataclass
class SchemeWeights:
    """Scheme S1's learnable loss weights: softmax mu over the k experts, sigmoid lambda."""

    mu_logits: ParamSlot    # (k,)
    lambda_logit: ParamSlot  # (1,)

    def slots(self) -> list[ParamSlot]:
        return [self.mu_logits, self.lambda_logit]


@dataclass
class EncoderOutput:
    hiddens: Array          # (m, d_h), one row per context position
    final_state: RnnState


@dataclass
class StepOutput:
    """Everything one decoding step produces, before and after combination."""

    dists: list[Array]      # k+1 vocabulary distributions, rows of one (k+1, V) array
    states: RnnState        # post-step decoder states, (k+1, d_h) arrays
    beta: Array             # mixture weights over the k+1 decoders
    combined: Array         # final distribution for this step


@dataclass
class ModelParams:
    """The encoder, the k+1 decoders, the gate and the scheme's loss weights.

    Each decoder weight is one array with a leading decoder axis (k experts,
    then the chair), so all decoders step in one call. ``slots()`` hands out
    one slot per decoder weight, as views into those arrays.
    """

    embedding: EmbeddingTable
    encoder: CellParams
    decoder_cell: CellParams              # stacked on the decoder axis
    attention: AttentionParams | None     # stacked; None when attention is off
    projection: OutputProjection          # stacked
    gating: GatingParams | None           # None when the scheme does not mix, or k == 0
    variant: VariantConfig
    num_experts: int                      # k; 0 means single-decoder mode
    scheme_weights: SchemeWeights | None = None  # S1's mu/lambda logits; None for fixed weights

    @property
    def vocab_size(self) -> int:
        return self.embedding.vocab_size

    @property
    def num_decoders(self) -> int:
        return self.projection.a.value.shape[0]

    def decoder_name(self, index: int) -> str:
        return "chair" if index == self.num_decoders - 1 else f"expert.{index}"

    def decoder_slots(self) -> list[ParamSlot]:
        """The stacked decoder weights, in per-decoder slot order."""
        out = list(self.decoder_cell.slots())
        if self.attention is not None:
            out.extend(self.attention.slots())
        out.extend(self.projection.slots())
        return out

    def slots(self) -> list[ParamSlot]:
        """Every learnable tensor in checkpoint order, stacked ones as one view per decoder.

        Training, the gradient check and the checkpoint all use this list.
        """
        out = [self.embedding.matrix, *self.encoder.slots()]
        for l in range(self.num_decoders):
            out.extend(_view(s, f"{self.decoder_name(l)}.{s.name}", l) for s in self.decoder_slots())
        if self.gating is not None:
            g = self.gating
            out.extend([g.hidden_w, g.hidden_b, g.out_w, g.out_b])
            out.extend(_view(g.expert_keys, f"gating.expert_key.{l}", l) for l in range(self.num_decoders))
        if self.scheme_weights is not None:
            out.extend(self.scheme_weights.slots())
        return out


def _view(stacked: ParamSlot, name: str, index: int) -> ParamSlot:
    return ParamSlot(name, stacked.value[index], stacked.grad[index])


def _slot(name: str, *shape: int) -> ParamSlot:
    return ParamSlot(name, T.zeros(*shape))


def _cell(kind: str, prefix: str, d_in: int, d_h: int, *lead: int) -> CellParams:
    gates = 4 if kind == "lstm" else 3
    return CellParams(
        kind,
        w_in=_slot(f"{prefix}.w_in", *lead, d_in, gates * d_h),
        w_rec=_slot(f"{prefix}.w_rec", *lead, d_h, gates * d_h),
        bias=_slot(f"{prefix}.bias", *lead, gates * d_h),
    )


def init_model(
    vocab_size: int, num_experts: int, variant: VariantConfig, seed: int,
    scheme: SchemeConfig = SchemeConfig.from_name("S4"),
) -> ModelParams:
    """Build a freshly initialized model with exactly the tensors ``scheme`` trains.

    k expert decoders plus the chair; ``num_experts == 0`` builds the
    single-decoder baseline. The gate exists only when the scheme mixes more
    than one decoder; S1's mu/lambda logits exist when k >= 1 and start at
    zero. All other parameters draw uniform(-0.08, 0.08) from one seeded PRNG
    in ``slots()`` order, so (seed, shape) fully determines values.
    """
    if num_experts < 0:
        raise DomainError("num_experts must be >= 0")
    d_h = variant.hidden_size
    d_emb = variant.embedding_size
    n = 1 if num_experts == 0 else num_experts + 1
    attention = None
    if variant.attention_enabled:
        attention = AttentionParams(
            w=_slot("attn.w", n, 2 * d_h, variant.attn_size),
            b=_slot("attn.b", n, variant.attn_size),
            v=_slot("attn.v", n, variant.attn_size),
        )
    gating = None
    if scheme.moe_enabled and n > 1:
        gating = GatingParams(
            hidden_w=_slot("gating.hidden_w", n * (d_h + vocab_size), variant.gate_hidden),
            hidden_b=_slot("gating.hidden_b", variant.gate_hidden),
            out_w=_slot("gating.out_w", variant.gate_hidden, variant.gate_out),
            out_b=_slot("gating.out_b", variant.gate_out),
            expert_keys=_slot("gating.expert_key", n, variant.gate_out),
        )
    params = ModelParams(
        embedding=EmbeddingTable(_slot("embedding.matrix", vocab_size, d_emb)),
        encoder=_cell(variant.cell_kind, "encoder", d_emb, d_h),
        decoder_cell=_cell(variant.cell_kind, "cell", d_emb + d_h, d_h, n),
        attention=attention,
        projection=OutputProjection(u=_slot("proj.u", n, d_h, vocab_size), a=_slot("proj.a", n, vocab_size)),
        gating=gating,
        variant=variant,
        num_experts=num_experts,
    )
    rng = np.random.default_rng(seed)
    for slot in params.slots():
        slot.value[...] = rng.uniform(-INIT_RANGE, INIT_RANGE, size=slot.value.shape)
    if scheme.learns_weights and num_experts > 0:
        # Not drawn: zero logits start at uniform mu and lambda = 0.5.
        params.scheme_weights = SchemeWeights(
            _slot("scheme.mu_logits", num_experts), _slot("scheme.lambda_logit", 1)
        )
    return params


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
# All decoders, one step


class DecoderStepCache(NamedTuple):
    prev_token_id: int
    attn_cache: L.AttentionCache | None
    cell_cache: object
    proj_cache: L.ProjectionCache


def expert_step(
    params: ModelParams,
    prev_token_id: int,
    prev_state: RnnState,
    enc: EncoderOutput,
) -> tuple[Array, RnnState, DecoderStepCache]:
    """One step of every decoder at once: attention, cell update, projection.

    ``prev_state`` holds one (k+1, d_h) row per decoder; returns the (k+1, V)
    distributions and the post-step states. With attention disabled the
    context vector is a constant zero vector of the same width, so the cell
    input layout is unchanged.
    """
    n, d_h = prev_state.hidden.shape
    emb = params.embedding.lookup(prev_token_id)
    if params.attention is not None:
        context, _, attn_cache = L.attention_context(params.attention, enc.hiddens, prev_state.hidden)
    else:
        context = T.zeros(n, d_h)
        attn_cache = None
    x = T.concat([np.broadcast_to(emb, (n, emb.shape[0])), context])
    state, cell_cache = L.cell_step(params.decoder_cell, x, prev_state)
    dists, proj_cache = L.project_to_vocab(params.projection, state.hidden)
    return dists, state, DecoderStepCache(prev_token_id, attn_cache, cell_cache, proj_cache)


def expert_step_backward(
    params: ModelParams,
    cache: DecoderStepCache,
    d_dists: Array,
    d_hidden_extra: Array,
    carry_hidden: Array,
    carry_cell: Array,
    d_enc_hiddens: Array,
) -> tuple[Array, Array]:
    """Backward through one step of every decoder; arrays have one row per decoder.

    ``d_hidden_extra`` carries gradient reaching the post-step hidden from
    outside the projection (gating input); ``carry_*`` arrive from step
    j+1. Attention gradients accumulate into ``d_enc_hiddens`` in place.
    Returns the (hidden, cell) gradient carries for step j-1.
    """
    d_o = L.project_backward(params.projection, cache.proj_cache, d_dists)
    d_hidden = d_o + d_hidden_extra + carry_hidden
    d_x, d_prev_hidden, d_prev_cell = L.cell_step_backward(
        params.decoder_cell, cache.cell_cache, d_hidden, carry_cell
    )
    d_emb = params.variant.embedding_size
    params.embedding.lookup_backward(cache.prev_token_id, d_x[:, :d_emb])
    if params.attention is not None:
        d_hiddens, d_query = L.attention_backward(params.attention, cache.attn_cache, d_x[:, d_emb:])
        # add.at adds the decoders' blocks one at a time, in decoder order, so
        # the shared buffer's bits are those of a sum over one decoder at a time.
        np.add.at(d_enc_hiddens[None], np.zeros(len(d_hiddens), dtype=int), d_hiddens)
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
    gating: GatingParams, states: RnnState, dists: Array
) -> tuple[Array, GateCache]:
    """Normalized importance scores over all decoders (chair included).

    Input is the concatenation s_1 ++ p_1 ++ ... ++ s_{k+1} ++ p_{k+1} of
    the (k+1, d_h) states and (k+1, V) distributions; the MLP query is
    dotted with each decoder's key and the scores are softmax-normalized
    over all k+1 decoders.
    """
    n = gating.expert_keys.value.shape[0]
    if states.hidden.shape[0] != n or dists.shape[0] != n:
        raise ShapeError(
            f"gating expects {n} states and distributions, "
            f"got {states.hidden.shape[0]} and {dists.shape[0]}"
        )
    gate_input = T.concat([states.hidden, dists]).reshape(-1)
    hidden_out = T.tanh(T.matmul(gate_input, gating.hidden_w.value) + gating.hidden_b.value)
    query = T.matmul(hidden_out, gating.out_w.value) + gating.out_b.value
    logits = T.matmul(gating.expert_keys.value, query[:, None])[:, 0]
    beta = T.softmax(logits)
    cache = GateCache(gate_input, hidden_out, query, logits, beta, [states.hidden.shape[1], dists.shape[1]])
    return beta, cache


def gate_weights_backward(
    gating: GatingParams, cache: GateCache, d_beta: Array
) -> tuple[Array, Array]:
    """Return the (k+1, d_h) state and (k+1, V) distribution gradients of the gate input."""
    keys = gating.expert_keys
    d_logits = T.softmax_backward(d_beta, cache.beta)
    keys.grad += d_logits[:, None] * cache.query
    # An axis-0 sum from an initial 0.0 adds the decoders one at a time, in
    # order, so its bits are those of summing them one decoder at a time.
    d_query = (d_logits[:, None] * keys.value).sum(axis=0, initial=0.0)
    gating.out_w.grad += np.outer(cache.hidden_out, d_query)
    gating.out_b.grad += d_query
    d_hidden_out = T.tanh_backward(d_query @ gating.out_w.value.T, cache.hidden_out)
    gating.hidden_w.grad += np.outer(cache.gate_input, d_hidden_out)
    gating.hidden_b.grad += d_hidden_out
    d_input = d_hidden_out @ gating.hidden_w.value.T
    d_states, d_dists = T.concat_backward(d_input.reshape(len(d_beta), -1), cache.piece_lengths)
    return d_states, d_dists


def chair_combine(dists: Array, beta: Array) -> Array:
    """Convex combination sum_l beta_l * p_l; stays on the simplex."""
    if len(dists) != beta.shape[0]:
        raise ShapeError(f"{len(dists)} distributions but {beta.shape[0]} mixture weights")
    # An axis-0 sum from an initial 0.0 adds the decoders one at a time, in order.
    return (beta[:, None] * dists).sum(axis=0, initial=0.0)


def chair_combine_backward(
    dists: Array, beta: Array, d_combined: Array
) -> tuple[Array, Array]:
    d_beta = T.matmul(dists, d_combined[:, None])[:, 0]
    return d_beta, beta[:, None] * d_combined


# ---------------------------------------------------------------------------
# Decoding: one output token, then the teacher-forced and greedy loops


class StepCache(NamedTuple):
    decoder_cache: DecoderStepCache
    gate_cache: GateCache | None
    out: StepOutput


class ForwardCache(NamedTuple):
    enc_cache: EncodeCache
    enc_out: EncoderOutput
    steps: list[StepCache]


def initial_decoder_states(params: ModelParams, enc: EncoderOutput) -> RnnState:
    # Every decoder starts from the shared encoder final state.
    n = params.num_decoders
    return RnnState(np.tile(enc.final_state.hidden, (n, 1)), np.tile(enc.final_state.cell, (n, 1)))


def decode_step(
    params: ModelParams,
    prev_token: int,
    states: RnnState,
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
    dists, new_states, dec_cache = expert_step(params, prev_token, states, enc)
    rows = list(dists)
    gate_cache = None
    if combine == COMBINE_MIXTURE and params.gating is not None:
        beta, gate_cache = gate_weights(params.gating, new_states, dists)
        combined = chair_combine(dists, beta)
    else:
        beta = np.zeros(params.num_decoders)
        beta[-1] = 1.0
        combined = rows[-1]
    return StepCache(dec_cache, gate_cache, StepOutput(rows, new_states, beta, combined))


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
    d_dists: Array,
    d_combined: Array,
) -> None:
    """Manual reverse pass over a teacher-forced forward.

    ``d_dists[j]`` seeds gradient on the (k+1, V) step-j distributions (the
    localized expert losses); ``d_combined[j]`` seeds gradient on the
    combined distribution (the chair loss). Routing through the mixture,
    the gating network, every decoder chain, and the encoder happens here;
    results accumulate into ParamSlot gradients.
    """
    n_dec = params.num_decoders
    d_h = params.variant.hidden_size
    carry_hidden = T.zeros(n_dec, d_h)
    carry_cell = T.zeros(n_dec, d_h)
    d_enc_hiddens = np.zeros_like(cache.enc_out.hiddens)

    for j in reversed(range(len(cache.steps))):
        step = cache.steps[j]
        d_dist = d_dists[j].copy()
        d_hidden_extra = T.zeros(n_dec, d_h)
        if step.gate_cache is not None:
            probs = step.decoder_cache.proj_cache.probs
            d_beta, d_mix = chair_combine_backward(probs, step.out.beta, d_combined[j])
            d_dist += d_mix
            gate_state_grads, gate_dist_grads = gate_weights_backward(params.gating, step.gate_cache, d_beta)
            d_hidden_extra += gate_state_grads
            d_dist += gate_dist_grads
        else:
            # Single decoder or chair-only combination: combined IS the chair's dist.
            d_dist[-1] += d_combined[j]
        carry_hidden, carry_cell = expert_step_backward(
            params, step.decoder_cache, d_dist, d_hidden_extra, carry_hidden, carry_cell, d_enc_hiddens,
        )

    # Decoder initial states were copies of the encoder final state; the
    # carries add from 0.0 one decoder at a time, in order.
    d_final_hidden = carry_hidden.sum(axis=0, initial=0.0)
    d_final_cell = carry_cell.sum(axis=0, initial=0.0)
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
