"""Encoder, expert decoders, chair decoder, gating, and greedy decoding.

One shared encoder reads the dialogue context; k expert decoders plus a
chair decoder (always the last decoder) each emit a per-step distribution
over the vocabulary. A gating network scores all k+1 decoders from their
concatenated states and distributions, and the chair combines the k+1
distributions with those normalized weights into the final per-token
distribution. The model alone decides whether it mixes: ``build_model``
gives it a gate exactly when its scheme mixes more than one decoder, and a
model without one (S3, or a single decoder) takes the chair's own
distribution as the final one. All decoders consume one shared previous
token: the gold token under teacher forcing, the chair's argmax during
generation (the gating input concatenates all decoders' step-j states,
which requires aligned timelines).

Teacher forcing runs a group of B right-padded samples at once (training
sorts each batch by length and cuts groups of as many samples as keep their
readout within ``training.GROUP_BYTES``, but at least ``training.GROUP_SIZE``).
Only the *recurrence* (``expert_step``: the encoder's cell on (B, d_h) rows, or
attention and the cells of all k+1 decoders on (k+1, B, d_h) rows) runs token
by token, in one loop each way over the time-first traces of ``layers``; row 0
of the decoders' (T+1, k+1, B, d_h) trace is each context's final encoder
state. The *readout* (``readout``: projection, softmax, gate MLP, chair combine)
feeds nothing back, so it takes any leading row axis: greedy decoding calls it
on row 1 of a one-step trace per token, teacher forcing once on the N valid
(sample, step) rows; padded positions are never read, so their gradients are 0.
With B = 1 every product has the shape, so the bits, of one sequence alone;
BLAS runs on one thread (see ``tokmoe``).

Inference over frozen parameters is read-only and thread-safe; training
mutates the flat gradient arena (``ModelParams.grads``) single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import layers as L
from . import tensor as T
from .config import BOS_ID, EOS_ID, PAD_ID, SchemeConfig, VariantConfig
from .errors import ConfigError, DomainError
from .layers import (
    AttentionParams,
    CellParams,
    EmbeddingTable,
    OutputProjection,
)
from .tensor import Array, ParamSlot

INIT_RANGE = 0.08  # uniform(-r, r) parameter initialization


@dataclass
class GatingParams(L.ParamGroup):
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
class SchemeWeights(L.ParamGroup):
    """Scheme S1's learnable loss weights: softmax mu over the k experts, sigmoid lambda."""

    mu_logits: ParamSlot    # (k,)
    lambda_logit: ParamSlot  # (1,)


@dataclass
class ModelParams:
    """The encoder, the k+1 decoders, the gate and the scheme's loss weights.

    Each decoder weight is one array with a leading decoder axis (k experts,
    then the chair), so all decoders step in one call. ``allocate`` makes every tensor
    a view into the flat ``values``/``grads`` arena; ``slots()`` splits stacks per decoder.
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
    copy_rows: Array | None = None        # a stack of decoders' rows of each copy, (copies, k+1) (training.copies)
    values: Array = field(init=False)     # every learnable value, in arena() order
    grads: Array = field(init=False)      # their gradients, in the same layout

    # The parameter groups, in arena order; each of the decoder groups holds one slice per decoder.
    GROUPS = ("embedding", "encoder", "decoder_cell", "attention", "projection", "gating", "scheme_weights")
    DECODER_GROUPS = ("decoder_cell", "attention", "projection")

    def arena(self) -> tuple[list[tuple[str, ParamSlot]], Array]:
        """The tensors the model owns, stacked ones whole, in arena order, each with its group's
        name; and each tensor's offset in the arena, then the arena's end."""
        owned = [(name, t) for name in self.GROUPS if (g := getattr(self, name)) is not None for t in g.slots()]
        return owned, np.cumsum([0, *[t.value.size for _, t in owned]])

    def allocate(self) -> "ModelParams":
        """Make each owned tensor an adjacent C-contiguous view of the zeroed arena; returns the model."""
        owned, offsets = self.arena()
        self.values = np.zeros(offsets[-1])
        self.grads = np.zeros(self.values.size)
        for (_, t), lo, hi in zip(owned, offsets[:-1], offsets[1:]):
            t.value, t.grad = self.values[lo:hi].reshape(t.value.shape), self.grads[lo:hi].reshape(t.value.shape)
        return self

    @property
    def num_decoders(self) -> int:
        return self.projection.a.value.shape[-2]

    def decoder_name(self, index: int) -> str:
        return "chair" if index == self.num_decoders - 1 else f"expert.{index}"

    def decoder_slots(self) -> list[ParamSlot]:
        """The stacked decoder weights, in per-decoder slot order."""
        return [s for name in self.DECODER_GROUPS if (g := getattr(self, name)) is not None for s in g.slots()]

    def replaced(self, values: dict[str, dict[str, Array]], copy_rows: Array | None = None) -> "ModelParams":
        """A model, with no arena, whose groups named in ``values`` take the values of the tensors named there."""
        return replace(self, copy_rows=copy_rows, **{g: getattr(self, g).replaced(v) for g, v in values.items()})

    def slots(self) -> list[ParamSlot]:
        """Every learnable tensor in checkpoint and init-draw order, one view per decoder of a stack."""
        out = [*self.embedding.slots(), *self.encoder.slots()]
        for l in range(self.num_decoders):
            out.extend(_view(s, f"{self.decoder_name(l)}.{s.name}", l) for s in self.decoder_slots())
        if self.gating is not None:
            g = self.gating
            out.extend(g.slots()[:-1])  # all but the stacked expert keys, which come last
            out.extend(_view(g.expert_keys, f"gating.expert_key.{l}", l) for l in range(self.num_decoders))
        if self.scheme_weights is not None:
            out.extend(self.scheme_weights.slots())
        return out


def _view(stacked: ParamSlot, name: str, index: int) -> ParamSlot:
    return ParamSlot(name, stacked.value[index], stacked.grad[index])


def _slot(name: str, *shape: int) -> ParamSlot:
    try:
        zero = np.broadcast_to(0.0, shape)  # takes no memory until ModelParams.allocate
    except ValueError:  # numpy cannot even describe an array this large
        raise ConfigError(f"tensor {name} of shape {shape} is too large") from None
    return ParamSlot(name, zero, zero)


def _cell(kind: str, prefix: str, d_in: int, d_h: int, *lead: int) -> CellParams:
    gates = 4 if kind == "lstm" else 3
    return CellParams(
        kind,
        w_in=_slot(f"{prefix}.w_in", *lead, d_in, gates * d_h),
        w_rec=_slot(f"{prefix}.w_rec", *lead, d_h, gates * d_h),
        bias=_slot(f"{prefix}.bias", *lead, gates * d_h),
    )


def build_model(
    vocab_size: int, num_experts: int, variant: VariantConfig, scheme: SchemeConfig,
) -> ModelParams:
    """A zero-valued model with exactly the tensors ``scheme`` trains, not yet allocated.

    k expert decoders plus the chair; ``num_experts == 0`` builds the
    single-decoder baseline. The gate exists only when the scheme mixes more
    than one decoder; S1's mu/lambda logits exist when k >= 1.
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
    weights = None
    if scheme.learns_weights and num_experts > 0:
        weights = SchemeWeights(_slot("scheme.mu_logits", num_experts), _slot("scheme.lambda_logit", 1))
    return ModelParams(
        embedding=EmbeddingTable(_slot("embedding.matrix", vocab_size, d_emb)),
        encoder=_cell(variant.cell_kind, "encoder", d_emb, d_h),
        # A decoder cell reads the token embedding, then the attention context if there is one.
        decoder_cell=_cell(variant.cell_kind, "cell", d_emb + (d_h if variant.attention_enabled else 0), d_h, n),
        attention=attention,
        projection=OutputProjection(u=_slot("proj.u", n, d_h, vocab_size), a=_slot("proj.a", n, vocab_size)),
        gating=gating,
        variant=variant,
        num_experts=num_experts,
        scheme_weights=weights,
    )


def init_model(
    vocab_size: int, num_experts: int, variant: VariantConfig, seed: int,
    scheme: SchemeConfig = SchemeConfig.from_name("S4"),
) -> ModelParams:
    """``build_model``'s model, freshly initialized.

    S1's mu/lambda logits start at zero. All other parameters draw
    uniform(-0.08, 0.08) from one seeded PRNG in ``slots()`` order, so
    (seed, shape) fully determines values.
    """
    params = build_model(vocab_size, num_experts, variant, scheme).allocate()
    rng = np.random.default_rng(seed)
    for slot in params.slots():
        slot.value[...] = rng.uniform(-INIT_RANGE, INIT_RANGE, size=slot.value.shape)
    if params.scheme_weights is not None:
        # Drawn last, so no other value moves; zero logits start at uniform mu and lambda = 0.5.
        for slot in params.scheme_weights.slots():
            slot.value[...] = 0.0
    return params


# ---------------------------------------------------------------------------
# The recurrence: the encoder, or every decoder, token by token


class Recurrence(NamedTuple):
    """A cell, or a stack of n copies, stepping B rows: its weights and traces. The
    decoders' recurrence also attends over the encoder memory at every step."""

    cell: CellParams
    trace: L.CellTrace                          # (T+1, [n,] B, ·); row 0 is the initial state
    attention: AttentionParams | None = None
    memory: L.AttentionMemory | None = None
    attn: L.AttentionTrace | None = None        # (T, n, B, ·), when ``attention`` is set


def expert_step(rec: Recurrence, gates_in: Array, j: int) -> None:
    """Attention, if any, and the cell update for token j, from the token's ([n,] B, G*d_h)
    column of the projected inputs: reads state row j, writes row j+1 of ``rec.trace`` and
    row j of ``rec.attn``. Without attention the cell reads the token's embedding alone."""
    if rec.attention is not None:
        gates_in = gates_in + L.attention_context(rec.attention, rec.memory, rec.trace.hidden[j], rec.attn, j)
    L.cell_step(rec.cell, gates_in, rec.trace, j)


def expert_step_backward(
    rec: Recurrence, d_attn: tuple[Array, Array] | None, j: int, d_hidden: Array, d_cell: Array,
) -> tuple[Array, Array, Array]:
    """Step j backward from the gradients of state row j+1: returns the cell's gate
    gradients and the (hidden, cell) gradients of row j, and fills row j of the
    ``(d_share, d_keys)`` pair ``d_attn``; weight gradients come later."""
    d_gates, d_prev_hidden, d_prev_cell = L.cell_step_backward(rec.cell, rec.trace, j, d_hidden, d_cell)
    if rec.attention is not None:
        d_prev_hidden = d_prev_hidden + L.attention_backward(rec.attention, rec.memory, rec.attn, *d_attn, j, d_gates)
    return d_gates, d_prev_hidden, d_prev_cell


def recur(embedding: EmbeddingTable, rec: Recurrence, token_ids: Array) -> None:
    """Step ``rec`` from its state row 0 over (T, B) tokens. The tokens' embedding share
    of the cell gates, plus the bias, is one GEMM per copy over all T*B rows."""
    emb = embedding.lookup(token_ids.reshape(-1))
    gates = emb @ rec.cell.w_in.value[..., :emb.shape[-1], :] + rec.cell.bias.value[..., None, :]
    gates = gates.reshape(*gates.shape[:-2], *token_ids.shape, -1)
    for j in range(len(token_ids)):
        expert_step(rec, gates[..., j, :, :], j)


def recur_backward(
    embedding: EmbeddingTable, rec: Recurrence, token_ids: Array, d_hidden: Array, d_cell: Array | None = None,
) -> tuple[Array, Array, Array | None]:
    """Reverse ``recur`` from the (T, [n,] B, d_h) gradients of state rows 1..T, and of
    their cells if given; each weight gradient is one GEMM over all T*B rows. Returns the
    (hidden, cell) gradients of state row 0 and, with attention, the ([n,] B, m, d_h)
    gradient of the encoder hiddens it attended over."""
    cell, (steps, batch) = rec.cell, token_ids.shape
    *lead, width = cell.bias.value.shape
    d_gates = np.empty((*lead, steps, batch, width))  # GEMM rows as a view
    step_gates = d_gates.swapaxes(0, -3)  # time first, like the traces
    d_attn = None if rec.attn is None else (np.empty_like(rec.attn.share), np.zeros(rec.memory.keys.shape))
    carry_hidden = carry_cell = np.zeros_like(d_hidden[0])
    for j in reversed(range(steps)):
        # No zero cell gradient is added to the carry: it could turn a -0.0 into +0.0.
        d_carry = carry_cell if d_cell is None else d_cell[j] + carry_cell
        step_gates[j], carry_hidden, carry_cell = expert_step_backward(
            rec, d_attn, j, d_hidden[j] + carry_hidden, d_carry
        )
    ids = token_ids.reshape(-1)
    emb = embedding.lookup(ids)
    d_gates = d_gates.reshape(*lead, len(ids), width)
    L.cell_weights_backward(cell, emb, rec.trace, d_gates)
    embedding.lookup_backward(ids, d_gates @ cell.w_in.value[..., :emb.shape[-1], :].swapaxes(-1, -2))
    d_memory = None if d_attn is None else L.attention_weights_backward(
        rec.attention, rec.memory, rec.attn, *d_attn, rec.trace.hidden[:-1], step_gates, cell.w_in)
    return carry_hidden, carry_cell, d_memory


# ---------------------------------------------------------------------------
# The encoder, and the decoders' recurrence from its final state


def _padded(sequences: list, what: str) -> tuple[Array, Array]:
    """B id sequences right-padded into time-first (T_max, B) ids, and their validity mask."""
    if min(map(len, sequences), default=0) == 0:
        raise DomainError(f"cannot {what}")
    valid = np.arange(max(map(len, sequences)))[:, None] < [len(ids) for ids in sequences]
    ids = np.full(valid.shape, PAD_ID)
    ids.T[valid.T] = np.concatenate(sequences)
    return ids, valid


class Encoding(NamedTuple):
    token_ids: Array                  # (m, B), right-padded
    last: tuple                       # indexes the (B, [n,] d_h) final states, each at the step that wrote it
    trace: L.CellTrace                # hidden rows 1..m are the encoder hiddens
    valid: Array                      # (m, B): True at each context's tokens, False at its padding


def encode_context(params: ModelParams, contexts: list[list[int]]) -> Encoding:
    """Run the encoder over B contexts from the all-zero initial state. Steps past a
    context's end run on padding; nothing reads their states."""
    ids, valid = _padded(contexts, "encode an empty context")
    trace = L.CellTrace.empty(params.encoder, *ids.shape, params.embedding.matrix.value.shape[:-2])
    recur(params.embedding, Recurrence(params.encoder, trace), ids)
    return Encoding(ids, (valid.sum(axis=0) - 1, Ellipsis, np.arange(len(contexts)), slice(None)), trace, valid)


def encode_backward(
    params: ModelParams,
    enc: Encoding,
    d_hiddens: Array,
    d_final_hidden: Array,
    d_final_cell: Array,
) -> None:
    """Consumes ``d_hiddens`` (m, B, d_h): each final state's gradients join the step that wrote it."""
    d_hiddens[enc.last] += d_final_hidden
    d_cells = np.zeros_like(d_hiddens)
    d_cells[enc.last] = d_final_cell
    recur_backward(params.embedding, Recurrence(params.encoder, enc.trace), enc.token_ids, d_hiddens, d_cells)


def decoders(cell: CellParams, attention: AttentionParams | None, enc: Encoding, steps: int) -> Recurrence:
    """The recurrence of ``steps`` steps of the stack of decoders, every decoder starting
    from the shared encoder final state. With attention, the keys and the values of all
    encoder hiddens are one GEMM each per decoder. Copies of the encoding, of the cell or
    of attention step as copies of the whole stack."""
    # A stacked encoding's (n, 1) copy axes lead its rows' (B, m, d_h) hiddens.
    memory = None if attention is None else L.attention_memory(
        attention, np.moveaxis(enc.trace.hidden[1:], 0, -2), enc.valid.T, cell.w_in)
    lead = enc.trace.hidden.shape[1:-2] if memory is None else memory.keys.shape[:-3]
    trace = L.CellTrace.empty(cell, steps, enc.valid.shape[1], lead)
    trace.hidden[0], trace.cell[0] = (np.moveaxis(a[1:][enc.last], 0, -2) for a in (enc.trace.hidden, enc.trace.cell))
    if attention is None:
        return Recurrence(cell, trace)
    attn = L.AttentionTrace.empty(attention, memory, steps, lead=trace.hidden.shape[1:-2])
    return Recurrence(cell, trace, attention, memory, attn)


# ---------------------------------------------------------------------------
# The readout: projection, gating and combination over any leading time axis


class GateCache(NamedTuple):
    gate_input: Array
    hidden_out: Array
    query: Array
    beta: Array
    piece_lengths: list[int]


def gate_weights(gating: GatingParams, hidden: Array, dists: Array) -> tuple[Array, GateCache]:
    """Normalized importance scores over all decoders (chair included).

    Input is the concatenation s_1 ++ p_1 ++ ... ++ s_{k+1} ++ p_{k+1} of
    the ([T,] k+1, d_h) states and ([T,] k+1, V) distributions, or of (n, T, ...)
    copies of them; the MLP query is dotted with each decoder's key and the scores
    are softmax-normalized over all k+1 decoders. All T rows go through each layer
    as one GEMM per copy.
    """
    gate_input = T.concat([hidden, dists]).reshape(hidden.shape[:-2] + (-1,))
    hidden_out = T.tanh(gate_input @ gating.hidden_w.value + gating.hidden_b.value)
    query = hidden_out @ gating.out_w.value + gating.out_b.value
    beta = T.softmax(query @ gating.expert_keys.value.swapaxes(-1, -2))
    cache = GateCache(gate_input, hidden_out, query, beta, [hidden.shape[-1], dists.shape[-1]])
    return beta, cache


def gate_weights_backward(
    gating: GatingParams, cache: GateCache, d_beta: Array
) -> tuple[Array, Array]:
    """Return the (T, k+1, d_h) state and (T, k+1, V) distribution gradients of T rows."""
    d_logits = T.softmax_backward(d_beta, cache.beta)
    gating.expert_keys.grad += d_logits.T @ cache.query
    d_query = d_logits @ gating.expert_keys.value
    gating.out_w.grad += cache.hidden_out.T @ d_query
    gating.out_b.grad += d_query.sum(axis=0)
    d_hidden_out = T.tanh_backward(d_query @ gating.out_w.value.T, cache.hidden_out)
    gating.hidden_w.grad += cache.gate_input.T @ d_hidden_out
    gating.hidden_b.grad += d_hidden_out.sum(axis=0)
    d_input = d_hidden_out @ gating.hidden_w.value.T
    return T.concat_backward(d_input.reshape(d_beta.shape + (-1,)), cache.piece_lengths)


def chair_combine(dists: Array, beta: Array) -> Array:
    """Convex combination sum_l beta_l * p_l, per time row; stays on the simplex."""
    # An axis -2 sum from an initial 0.0 adds the decoders one at a time, in order.
    return (beta[..., None] * dists).sum(axis=-2, initial=0.0)


def chair_combine_backward(
    dists: Array, beta: Array, d_combined: Array
) -> tuple[Array, Array]:
    d_beta = (dists @ d_combined[..., :, None])[..., 0]
    return d_beta, beta[..., None] * d_combined[..., None, :]


class Readout(NamedTuple):
    dists: Array            # ([n,] T, k+1, V)
    beta: Array             # ([n,] T, k+1)
    combined: Array         # ([n,] T, V); without the mixture, a view of the chair's rows
    gate_cache: GateCache | None


def readout(params: ModelParams, hidden: Array) -> Readout:
    """Distributions, mixture weights and combined distribution of ([n,] T, k+1, d_h) states.

    A gated model weighs all decoders. A model without a gate (S3, or one
    decoder) selects the chair, which in single-decoder mode is the only
    decoder; beta is one-hot on it and the combined distribution IS its
    distribution. Copies of the states or of the readout's weights lead every array.
    """
    # The projection takes the decoder axis first: one GEMM per decoder over all T rows.
    dists = L.project_to_vocab(params.projection, hidden.swapaxes(-3, -2)).swapaxes(-3, -2)
    if params.copy_rows is not None:  # a stack of decoders: each copy's k+1 rows, copies first
        hidden, dists = (a[..., params.copy_rows, :].swapaxes(-4, -3) for a in (hidden, dists))
    if params.gating is not None:
        beta, gate_cache = gate_weights(params.gating, hidden, dists)
        return Readout(dists, beta, chair_combine(dists, beta), gate_cache)
    beta = np.zeros(dists.shape[:-1])
    beta[..., -1] = 1.0
    return Readout(dists, beta, dists[..., -1, :], None)


# ---------------------------------------------------------------------------
# Decoding: the recurrence token by token, the readout once per group


class ForwardCache(NamedTuple):
    enc: Encoding
    input_ids: Array        # (T, B): BOS, then every gold token but the last, right-padded
    rows: tuple             # indexes the readout's (step, [n,] :, sample) rows in decoders.trace.hidden[1:]
    targets: Array          # (N,): each readout row's gold token, the responses one after another
    lengths: list[int]      # each of the B responses' length, so its count of readout rows
    decoders: Recurrence    # its traces are (T+1, k+1, B, ·)
    readout: Readout


def forward_teacher_forced(
    params: ModelParams, contexts: list[list[int]], responses: list[list[int]]
) -> ForwardCache:
    """Run all decoders over B gold responses (BOS prepended internally).

    At step j every decoder consumes each sample's ground-truth token y_{j-1};
    ``readout`` then runs once over the N valid states, sample after sample.
    Its arrays are the result: ``cache.readout.dists`` (N, k+1, V), ``.beta``
    (N, k+1), ``.combined`` (N, V); for one sample, N = T. A model whose tensors
    carry a copy axis (``training.copies``) teacher-forces every copy at once, and
    the copy axis leads the readout's arrays.
    """
    enc = encode_context(params, contexts)
    input_ids, valid = _padded([[BOS_ID, *r][:len(r)] for r in responses], "teacher-force an empty response")
    rec = decoders(params.decoder_cell, params.attention, enc, len(input_ids))
    recur(params.embedding, rec, input_ids)
    sample, step = np.nonzero(valid.T)  # sample-major
    rows = (step, Ellipsis, sample, slice(None))
    targets, lengths = np.concatenate(responses), [len(r) for r in responses]
    # The readout's rows come first (N, [n,] k+1, d_h); copies lead the readout.
    hidden = rec.trace.hidden[1:][rows].swapaxes(0, -3)
    return ForwardCache(enc, input_ids, rows, targets, lengths, rec, readout(params, hidden))


def readout_backward(params: ModelParams, cache: ForwardCache, d_dists: Array, d_combined: Array) -> Array:
    """The readout backward, once, through the combine for every model (beta is one-hot on
    the chair without a gate): the (T, k+1, B, d_h) gradient of the states, 0 at padded steps."""
    out = cache.readout
    d_beta, d_probs = chair_combine_backward(out.dists, out.beta, d_combined)
    d_probs += d_dists  # every loss's gradient of the distributions, summed in place
    d_read = 0.0
    if out.gate_cache is not None:
        d_read, d_gate_dists = gate_weights_backward(params.gating, out.gate_cache, d_beta)
        d_probs += d_gate_dists
    # The projection's rows take the decoder axis first, as in ``readout``.
    hidden = cache.decoders.trace.hidden[1:]
    read = [a.swapaxes(0, 1) for a in (hidden[cache.rows], out.dists, d_probs)]
    d_hidden = np.zeros(hidden.shape)
    d_hidden[cache.rows] = L.project_backward(params.projection, *read).swapaxes(0, 1) + d_read
    return d_hidden


def backward_teacher_forced(
    params: ModelParams,
    cache: ForwardCache,
    d_dists: Array,
    d_combined: Array,
) -> None:
    """Manual reverse pass over a teacher-forced forward.

    ``d_dists`` (N, k+1, V) seeds the per-step distributions (the localized
    expert losses), ``d_combined`` (N, V) the combined one (the chair loss).
    Only ``readout_backward``'s state-row gradient reaches the reverse loop,
    which carries only the recurrence; each weight gradient is one GEMM over
    the group.
    """
    enc, rec = cache.enc, cache.decoders
    d_hidden = readout_backward(params, cache, d_dists, d_combined)
    del d_dists, d_combined  # a caller that keeps no reference frees the seeds here
    carry_hidden, carry_cell, d_memory = recur_backward(params.embedding, rec, cache.input_ids, d_hidden)
    # Axis-0 sums from an initial 0.0 add the decoders one at a time, in order: the
    # attention blocks of the encoder hiddens, and the carries into the initial
    # states, which were copies of the encoder final state.
    d_enc_hiddens = np.zeros_like(enc.trace.hidden[1:])
    if d_memory is not None:
        d_enc_hiddens = d_memory.sum(axis=0, initial=0.0).swapaxes(0, 1)
    encode_backward(
        params, enc, d_enc_hiddens, carry_hidden.sum(axis=0, initial=0.0), carry_cell.sum(axis=0, initial=0.0)
    )


def greedy_decode(params: ModelParams, context_ids: list[int], max_len: int) -> list[int]:
    """Generate token ids greedily until EOS or ``max_len``.

    Each token is one recurrence step and a one-row readout, as in teacher
    forcing. The argmax of the combined distribution is fed to every decoder
    at the next step; ties resolve to the lowest token id. Teacher-forcing
    the returned ids reproduces every step's readout, mixture weights included.
    """
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    rec = decoders(params.decoder_cell, params.attention, encode_context(params, [context_ids]), 1)
    token = BOS_ID
    out_ids: list[int] = []
    for _ in range(max_len):
        recur(params.embedding, rec, np.full((1, 1), token))
        out = readout(params, rec.trace.hidden[1:, :, 0])
        token = int(np.argmax(out.combined[0]))  # first maximum, so lowest id wins ties
        out_ids.append(token)
        if token == EOS_ID:
            break
        rec.trace.hidden[0] = rec.trace.hidden[1]
        rec.trace.cell[0] = rec.trace.cell[1]
    return out_ids
