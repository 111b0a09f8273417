"""Global-and-local training: scheme losses, Adam, clipping, grad checks.

The joint objective, ``loss_total`` of one (k+2,) loss row (the k+1 expert
losses, then the chair loss), is ``lambda * L_experts + (1 - lambda) * L_chair``:

* ``L_experts`` sums each decoder's own negative log-likelihood over the
  samples it is localized to (expert l sees only its intent's partition;
  the chair sees every sample), each term weighted by mu_l. One
  ``nll_sequence`` call over a group's readout gives every sample's NLL
  under every decoder; the samples' (B, k+1) ``ownership`` rows select
  which of them count, and lambda * mu * ownership weighs their gradient
  seeds, so no code loops over the decoders or branches on the owner.
* ``L_chair`` is the negative log-likelihood of the combined distribution
  over all samples: ``nll_sequence`` of each response's ``combined``.

A batch is sorted by length, so that a group pads few steps, and teacher-forced
in groups sized by their readout: as many samples as keep a group's (k+1, V)
rows within ``GROUP_BYTES``, but never fewer than ``GROUP_SIZE``; a group's
arrays are freed before the next group's forward. Losses are summed (not
averaged) within a batch, so its order changes only their summation order, and
gradients accumulate additively until the optimizer step. The per-batch order
of operations is fixed for reproducibility: forward, backward, add l2 to
gradients, clamp gradient values, Adam step, zero; each step after the backward
acts once on the flat arena.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import tensor as T
from .config import OptimizerConfig, SchemeConfig
from .data import Corpus, EncodedSample, Sample
from .errors import ConfigError, DataError, DomainError
from .model import (
    ForwardCache,
    ModelParams,
    backward_teacher_forced,
    forward_teacher_forced,
)
from .tensor import Array

GROUP_SIZE = 8  # the fewest samples teacher-forced at once
# A group's readout holds at most this many bytes, or GROUP_SIZE samples: more rows share each step's fixed cost.
GROUP_BYTES = 1 << 20


def groups(samples: list[EncodedSample], row_bytes: int) -> list[list[EncodedSample]]:
    """The samples sorted stably by (response, context) length, cut into groups of
    max(``GROUP_SIZE``, ``GROUP_BYTES`` // (``row_bytes`` * the longest response)) samples;
    ``row_bytes`` is a readout row's, 8 * (k+1) * V: a model's ``projection.a.value.nbytes``."""
    ordered = sorted(samples, key=lambda s: (len(s.response_ids), len(s.context_ids)))
    size = max(GROUP_SIZE, GROUP_BYTES // (row_bytes * max((len(s.response_ids) for s in samples), default=1)))
    return [ordered[start:start + size] for start in range(0, len(ordered), size)]


def partition_by_intent(corpus: Corpus) -> dict[str, list[Sample]]:
    """Disjoint cover of the corpus keyed by intent label (sorted keys)."""
    parts: dict[str, list[Sample]] = {}
    for index, sample in enumerate(corpus.samples):
        if not sample.intent:
            raise DataError(f"sample {index} has no intent label")
        parts.setdefault(sample.intent, []).append(sample)
    return {intent: parts[intent] for intent in sorted(parts)}


def expert_index_map(intents: list[str]) -> dict[str, int]:
    return {intent: i for i, intent in enumerate(sorted(intents))}


# ---------------------------------------------------------------------------
# Scheme weights (mu, lambda)


def resolve_scheme_weights(scheme: SchemeConfig, params: ModelParams) -> tuple[Array, float | Array]:
    """Full per-decoder weight vector (chair last) and lambda for one batch.

    The chair's term in the expert loss always carries the uniform 1/k
    weight; under S1 the k expert entries are the softmax of the model's mu
    logits and lambda is the sigmoid of its lambda logit. Single-decoder mode
    (``num_experts == 0``) trains on the chair loss alone: mu = [1],
    lambda = 0. Copies of S1's logits give a row of mu and a lambda per copy.
    The model must have a gate exactly when the scheme mixes,
    and S1's logits when the scheme learns them (extra logits go unread);
    anything else is a ConfigError.
    """
    k = params.num_experts
    if k == 0:
        return np.array([1.0]), 0.0
    if scheme.moe_enabled != (params.gating is not None):
        verb, has = ("mixes", "no") if scheme.moe_enabled else ("does not mix", "a")
        raise ConfigError(f"scheme {scheme.scheme} {verb} the decoders, but the model has {has} gate")
    if scheme.learns_weights:
        weights = params.scheme_weights
        if weights is None:
            raise ConfigError(f"scheme {scheme.scheme} learns mu and lambda, but the model has no logits")
        mu = T.softmax(weights.mu_logits.value)
        return np.concatenate([mu, np.full((*mu.shape[:-1], 1), 1.0 / k)], axis=-1), T.sigmoid(
            weights.lambda_logit.value)[..., 0]
    return np.full(k + 1, 1.0 / k), float(scheme.lambda_value)


# ---------------------------------------------------------------------------
# Losses


def nll_sequence(dists: Array, targets, lengths) -> Array:
    """Each response's sum of -log p[y], with the probability floor: one gather, one sum per length.

    ``targets`` hold B responses of the given ``lengths`` whose rows follow one
    another. (N, V) rows give a (B,) array; (N, ..., V) rows, such as an
    (N, k+1, V) readout, a (B, ...) array: each decoder's own NLL. Each run of
    equal lengths sums as one (..., b, n) view of the terms, so each response's
    terms add as those of its own contiguous row would; a group sorted by length
    has one run per distinct length. A NaN probability is not floored, so it
    yields a NaN sum.
    """
    p = np.asarray(dists)[np.arange(len(targets)), ..., targets]
    terms = -np.log(np.maximum(np.ascontiguousarray(p.T), T.PROB_FLOOR))
    sums, row, col = np.empty((len(lengths), *p.shape[1:])), 0, 0
    for n, run in groupby(lengths):
        b = len(list(run))
        sums[row:row + b] = terms[..., col:col + b * n].reshape(*terms.shape[:-1], b, n).sum(axis=-1).T
        row, col = row + b, col + b * n
    return sums


def ownership(intent: str, expert_of: dict[str, int], num_decoders: int) -> Array:
    """The (k+1,) row of decoders whose own NLL on a sample of ``intent`` enters the expert loss.

    The intent's expert and the chair, which sees every sample; in
    single-decoder mode, the one decoder.
    """
    own = np.zeros(num_decoders, dtype=bool)
    own[-1] = True
    if num_decoders > 1:
        if intent not in expert_of:
            raise DataError(f"intent {intent!r} has no assigned expert")
        own[expert_of[intent]] = True
    return own


def loss_total(losses: Array, mu: Array, lam) -> Array:
    """lambda * (mu . expert) + (1 - lambda) * chair of a ([n,] k+2) loss row; copies in any argument lead.
    The expert part is copied contiguous first, so a total's bits do not depend on the row's strides."""
    expert = np.ascontiguousarray(losses[..., :-1])
    return lam * (mu[..., None, :] @ expert[..., None])[..., 0, 0] + (1.0 - lam) * losses[..., -1]


@dataclass
class LossReport:
    """Per-batch (or epoch-mean) loss accounting.

    ``expert_losses`` are the raw per-decoder localized NLL values (chair
    last); ``total`` equals lambda * sum(mu * expert_losses) +
    (1 - lambda) * chair_loss for the reported mu and lambda.
    """

    expert_losses: list[float]
    chair_loss: float
    total: float
    token_count: int
    mu: list[float]
    lambda_value: float


def _nll_grad_seeds(dists: Array, targets: list[int], weight: float | Array) -> Array:
    """Gradient of weight * nll_sequence(dists, targets) w.r.t. the distributions.

    ``weight`` is a scalar, or one weight per row and decoder of an
    (N, k+1, V) readout. A zero weight, a floored or a NaN probability passes no
    gradient: its seed stays +0.0.
    """
    rows = np.arange(len(targets))
    p = dists[rows, ..., targets]
    weight = np.broadcast_to(weight, p.shape)
    grad = np.zeros(p.shape)
    np.divide(-weight, p, out=grad, where=(p > T.PROB_FLOOR) & (weight != 0.0))
    seeds = np.zeros(dists.shape)
    seeds[rows, ..., targets] = grad
    return seeds


def owned_groups(
    samples: list[EncodedSample], expert_of: dict[str, int], params: ModelParams,
) -> list[tuple[list[EncodedSample], Array]]:
    """Each of the model's ``groups`` of the samples with its (B, k+1) ``ownership`` rows."""
    return [(group, np.array([ownership(s.intent, expert_of, params.num_decoders) for s in group]))
            for group in groups(samples, params.projection.a.value.nbytes)]


def teacher_force(params: ModelParams, group: list[EncodedSample]) -> ForwardCache:
    return forward_teacher_forced(params, [s.context_ids for s in group], [s.response_ids for s in group])


def group_loss(cache: ForwardCache, own: Array) -> Array:
    """A group's (k+2,) loss row from its forward: the k+1 localized expert losses, then the chair loss;
    ``own`` holds each sample's ``ownership`` row. Copies in the readout lead: ([n,] k+2)."""
    # Rows first for the gather; the samples' sums stay outermost, so each copy adds them in order.
    nll = nll_sequence(cache.readout.dists.swapaxes(0, -3), cache.targets, cache.lengths).swapaxes(0, -2)
    # Selected, not multiplied: a decoder that does not own a sample adds exactly 0.0.
    expert = np.where(own, nll, 0.0).sum(axis=-2)
    chair = np.ascontiguousarray(nll_sequence(cache.readout.combined.swapaxes(0, -2), cache.targets, cache.lengths).T)
    # A gating stack's expert losses have no copy axis, but its chair losses do: both take the common one.
    row = np.empty((*np.broadcast_shapes(expert.shape[:-1], chair.shape[:-1]), expert.shape[-1] + 1))
    row[..., :-1], row[..., -1] = expert, chair.sum(axis=-1)
    return row


def train_batch(
    params: ModelParams,
    batch: list[EncodedSample],
    scheme: SchemeConfig,
    expert_of: dict[str, int],
) -> LossReport:
    """Forward and backward over one mini-batch, losses summed.

    Gradients accumulate into the gradient arena; callers own the
    l2/clip/step/zero sequence. In single-decoder mode lambda is 0, so the
    total is the chair loss alone.
    """
    mu, lam = resolve_scheme_weights(scheme, params)

    def forward_backward(group: list[EncodedSample], own: Array) -> Array:
        # One call per group: every array of a group dies before the next group's forward.
        cache = teacher_force(params, group)
        out, targets = cache.readout, cache.targets
        # The seeds, left unbound here, are freed after the readout backward.
        backward_teacher_forced(
            params, cache,
            _nll_grad_seeds(out.dists, targets, lam * mu * np.repeat(own, cache.lengths, axis=0)),
            _nll_grad_seeds(out.combined, targets, 1.0 - lam),
        )
        return group_loss(cache, own)

    losses = sum((forward_backward(*owned) for owned in owned_groups(batch, expert_of, params)),
                 np.zeros(params.num_decoders + 1))

    if scheme.learns_weights and params.num_experts > 0:
        # d total / d mu_l = lambda * E_l for the k learnable expert entries.
        weights = params.scheme_weights
        weights.mu_logits.grad += T.softmax_backward(lam * losses[:-2], mu[:-1])
        weights.lambda_logit.grad += (float(np.dot(mu, losses[:-1])) - losses[-1]) * lam * (1.0 - lam)

    return LossReport(
        expert_losses=[float(v) for v in losses[:-1]],
        chair_loss=float(losses[-1]),
        total=float(loss_total(losses, mu, lam)),
        token_count=sum(len(s.response_ids) for s in batch),
        mu=[float(v) for v in mu],
        lambda_value=float(lam),
    )


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    """Adam's first and second moments, laid out like the arena, and the steps taken."""

    m: Array
    v: Array
    step_count: int = 0

    @classmethod
    def like(cls, values: Array) -> "AdamState":
        return cls(np.zeros_like(values), np.zeros_like(values))


# l2 and Adam run over the arena in blocks, so that their temporaries stay small and cache-resident.
BLOCK = 1 << 15


def apply_l2(values: Array, grads: Array, weight: float) -> None:
    if weight != 0.0:
        for lo in range(0, values.size, BLOCK):
            grads[lo:lo + BLOCK] += weight * values[lo:lo + BLOCK]


def clip_gradients(grads: Array, low: float, high: float) -> None:
    """Element-wise value clamp of every gradient into [low, high]."""
    np.clip(grads, low, high, out=grads)


def adam_step(opt: OptimizerConfig, values: Array, grads: Array, state: AdamState) -> None:
    """Bias-corrected Adam, in place: theta -= alpha * m_hat / (sqrt(v_hat) + eps)."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    for lo in range(0, values.size, BLOCK):
        part = slice(lo, lo + BLOCK)
        g, m, v = grads[part], state.m[part], state.v[part]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        values[part] -= opt.alpha * (m / bc1) / (np.sqrt(v / bc2) + opt.epsilon)


# ---------------------------------------------------------------------------
# Epoch loop


def train_epoch(
    params: ModelParams,
    samples: list[EncodedSample],
    scheme: SchemeConfig,
    opt: OptimizerConfig,
    adam_state: AdamState,
    rng: np.random.Generator,
    expert_of: dict[str, int],
) -> LossReport:
    """One pass over the corpus in shuffled mini-batches; token-mean report.

    Every report component is divided by the same epoch token count, so the
    total-decomposition identity survives the averaging (for fixed-weight
    schemes; under S1 the weights move between batches).
    """
    if not samples:
        raise DomainError("cannot train on an empty corpus")
    order = rng.permutation(len(samples))
    # The total is the batches' totals summed, not loss_total of the summed row: under S1, mu and
    # lambda move between batches.
    row, total, tokens = np.zeros(params.num_decoders + 1), 0.0, 0
    report = None
    for start in range(0, len(order), opt.batch_size):
        batch = [samples[i] for i in order[start:start + opt.batch_size]]
        report = train_batch(params, batch, scheme, expert_of)
        if not math.isfinite(report.total):
            raise DomainError(
                f"batch {start // opt.batch_size + 1}: non-finite loss {report.total}; "
                "stopped before the optimizer step"
            )
        apply_l2(params.values, params.grads, opt.l2_weight)
        clip_gradients(params.grads, opt.clip_low, opt.clip_high)
        adam_step(opt, params.values, params.grads, adam_state)
        params.grads[...] = 0.0
        row += [*report.expert_losses, report.chair_loss]
        total += report.total
        tokens += report.token_count
    assert report is not None
    return LossReport(
        expert_losses=[float(v / tokens) for v in row[:-1]],
        chair_loss=float(row[-1] / tokens),
        total=total / tokens,
        token_count=tokens,
        mu=report.mu,
        lambda_value=report.lambda_value,
    )


@dataclass
class EpochRecord:
    epoch: int
    report: LossReport
    valid_score: float | None = None


@dataclass
class TrainState:
    """A run between two epochs: Adam's state, the shuffle's generator, every epoch's record, and the best
    epoch with its score and values: the latest of the highest scores, or with no scorer the last epoch."""

    adam: AdamState
    rng: np.random.Generator
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_score: float | None = None
    best_values: Array | None = None

    def advance(self, params: ModelParams, samples: list[EncodedSample], scheme: SchemeConfig,
                opt: OptimizerConfig, expert_of: dict[str, int], valid_scorer=None) -> EpochRecord:
        """Train ``params`` one more epoch and record it; a scored epoch that ties or beats the best becomes it."""
        epoch = len(self.history) + 1
        try:
            report = train_epoch(params, samples, scheme, opt, self.adam, self.rng, expert_of)
        except DomainError as exc:
            raise DomainError(f"epoch {epoch}, {exc}") from None
        record = EpochRecord(epoch, report, None if valid_scorer is None else float(valid_scorer(params)))
        self.history.append(record)
        if valid_scorer is None:
            self.best_epoch = epoch
        elif self.best_score is None or record.valid_score >= self.best_score:
            self.best_epoch, self.best_score, self.best_values = epoch, record.valid_score, params.values.copy()
        return record


def train_run(
    params: ModelParams,
    samples: list[EncodedSample],
    scheme: SchemeConfig,
    opt: OptimizerConfig,
    epochs: int,
    seed: int,
    expert_of: dict[str, int],
    valid_scorer=None,
    progress=None,
) -> TrainState:
    """``epochs`` of ``TrainState.advance`` from a state seeded by ``seed``, each record passed to ``progress``.

    ``valid_scorer(params) -> float`` scores every epoch, and the best epoch's values are restored at the end;
    with no scorer the last epoch's stand. A non-finite batch loss raises DomainError naming the epoch and batch.
    """
    state = TrainState(AdamState.like(params.values), np.random.default_rng(seed))
    for _ in range(epochs):
        record = state.advance(params, samples, scheme, opt, expert_of, valid_scorer)
        if progress is not None:
            progress(record)
    if state.best_values is not None:
        params.values[...] = state.best_values
    return state


# ---------------------------------------------------------------------------
# Verification


def teacher_forced_accuracy(params: ModelParams, samples: list[EncodedSample]) -> float:
    """Fraction of response tokens where argmax(combined) hits the target, one forward per group."""
    hits = 0
    for group in groups(samples, params.projection.a.value.nbytes):
        cache = teacher_force(params, group)
        hits += int(np.count_nonzero(cache.readout.combined.argmax(axis=-1) == cache.targets))
    total = sum(len(s.response_ids) for s in samples)
    return hits / total if total else 0.0


# Relative disagreement below this gradient magnitude is treated as absolute
# (finite-difference noise would otherwise dominate near-zero coordinates).
GRAD_CHECK_FLOOR = 1e-4
GRAD_CHECK_EPSILON = 1e-5  # every central difference's step; the CLI's pass line is calibrated at it


# A stack of copies holds at most this many bytes by ``stacks``' estimate, or one coordinate, at any width.
STACK_BYTES = 1 << 20


def copies(params: ModelParams, coords: Array, arena: tuple | None = None) -> ModelParams:
    """The model as a stack of 2C copies, C = len(``coords``): copy 2i has the arena coordinate
    ``coords[i]`` shifted by +``GRAD_CHECK_EPSILON`` and copy 2i+1 by -``GRAD_CHECK_EPSILON``.

    If every coordinate is in ``DECODER_GROUPS``, each copy is one more decoder: the cells',
    attention's and projection's decoder axis holds the k+1 decoders, then each copy's shifted
    one, and the readout gathers each copy's k+1 rows by the (2C, k+1) index ``copy_rows``.
    Otherwise (never with the projection) each group that some copy shifts gains a leading copy
    axis on all its tensors, then a unit axis where the forward reads a tensor across an axis it
    lacks (the decoders read the embedding and the encoder, the gate's biases add to its rows);
    the other groups broadcast. So the forward runs copies only from where they first differ, and
    each copy's results are bit for bit its model's alone. Forward only; ``arena`` is ``params.arena()``.
    """
    at = np.repeat(coords, 2)
    shifts = np.tile([GRAD_CHECK_EPSILON, -GRAD_CHECK_EPSILON], len(coords))
    tensors, starts = arena or params.arena()
    tensor = np.searchsorted(starts, at, side="right") - 1
    row, col, copy_rows, hit = np.arange(len(at)), at - starts[tensor], None, set(tensor.tolist())
    groups = {tensors[i][0] for i in hit}
    if groups <= set(params.DECODER_GROUPS):
        n = params.num_decoders
        decoder, col = np.divmod(col, (starts[tensor + 1] - starts[tensor]) // n)
        index, row, groups = np.concatenate([np.arange(n), decoder]), n + row, set(params.DECODER_GROUPS)
        copy_rows = np.where(np.arange(n) == decoder[:, None], row[:, None], np.arange(n))
    values: dict[str, dict[str, Array]] = {}
    for i, (name, t) in enumerate(tensors):
        if name in groups:
            unit = name in ("embedding", "encoder") or (name == "gating" and t.value.ndim == 1)
            value = np.take(t.value, index, axis=0) if copy_rows is not None else np.broadcast_to(
                t.value, (len(at), *[1] * unit, *t.value.shape))
            if i in hit:
                value, mine = value if value.flags.writeable else value.copy(), tensor == i
                value.reshape(len(value), -1)[row[mine], col[mine]] += shifts[mine]
            values.setdefault(name, {})[t.name] = value
    return params.replaced(values, copy_rows)


def forward_loss(params: ModelParams, owned: list[tuple[list[EncodedSample], Array]], schemes: list[SchemeConfig]):
    """The ``owned_groups``' scheme-free (k+2,) loss row by full forwards, added as ``train_batch`` adds it, and
    each scheme's ``loss_total`` of it. A stack of ``copies`` gives a row per copy, but a stack of S1's logits
    alone shares one row: only the totals read them."""
    # Zeros as wide as an ownership row and the chair: a stack of decoders' num_decoders counts its copies too.
    row = sum((group_loss(teacher_force(params, g), own) for g, own in owned), np.zeros(owned[0][1].shape[1] + 1))
    return row, [loss_total(row, *resolve_scheme_weights(s, params)) for s in schemes]


def stacks(params: ModelParams, owned: list[tuple[list[EncodedSample], Array]], coords: Array, arena: tuple):
    """``coords`` cut in order into stacks of ``copies``, none across an edge of the decoder groups, each of at
    most ``STACK_BYTES`` or of one coordinate; and each coordinate's bytes: two copies, each of a readout and of
    one decoder's slices, traces and memory, or else of its group and, for the embedding or encoder, all traces."""
    def nbytes(*parts) -> int:  # of the arrays among ``parts``, in their tuples and their dataclasses' fields
        return sum(nbytes(*p) if isinstance(p, tuple) else nbytes(*vars(p).values()) if hasattr(p, "__dict__")
                   else getattr(p, "nbytes", 0) for p in parts)
    names, tensor = [name for name, _ in arena[0]], np.searchsorted(arena[1], coords, "right") - 1
    enc, dec, out = np.max([(nbytes(c.enc.trace), nbytes(c.decoders.trace, *c.decoders[3:]), nbytes(c.readout))
                            for c in (teacher_force(params, group) for group, _ in owned)], axis=0)
    one = sum(t.value[0].nbytes for t in params.decoder_slots()) + dec / params.num_decoders + out
    decoder = np.isin(names, params.DECODER_GROUPS)
    cost = 2 * np.array([one if d else sum(t.value.nbytes for t in getattr(params, n).slots()) + out
                         + (n in ("embedding", "encoder")) * (enc + dec) for n, d in zip(names, decoder)])[tensor]
    ends, cuts = np.cumsum([0, *cost]), [0]
    for edge in [*np.flatnonzero(np.diff(decoder[tensor])) + 1, len(coords)]:
        while (lo := cuts[-1]) < edge:
            cuts.append(min(edge, max(lo + 1, np.searchsorted(ends, ends[lo] + STACK_BYTES, "right") - 1)))
    return np.split(coords, cuts[1:-1]), cost


def shifted_losses(
    params: ModelParams, owned: list[tuple[list[EncodedSample], Array]], schemes: list[SchemeConfig], coords: Array,
) -> tuple[Array, Array]:
    """``forward_loss`` at +``GRAD_CHECK_EPSILON`` and at -``GRAD_CHECK_EPSILON`` on each arena coordinate of
    ``coords``, as copies 2i and 2i+1 in one of the ``stacks``, of at most ``STACK_BYTES`` or one coordinate, each
    run once for all ``schemes``: the (2C, k+2) loss rows and the (schemes, 2C) totals."""
    rows, totals = [], []
    for stack in stacks(params, owned, coords, arena := params.arena())[0]:
        n = 2 * len(stack)
        row, stack_totals = forward_loss(copies(params, stack, arena), owned, schemes)
        rows.append(np.broadcast_to(row, (n, params.num_decoders + 1)))
        totals.append([np.broadcast_to(total, n) for total in stack_totals])
    return np.concatenate(rows), np.concatenate(totals, axis=1)


def grad_check(
    params: ModelParams,
    samples: list[EncodedSample],
    schemes: list[SchemeConfig],
    expert_of: dict[str, int],
) -> list[float]:
    """Max relative error between analytic and central-difference gradients, one per scheme of ``schemes``, in order.

    Checks one model under each scheme on every arena coordinate (S1's mu/lambda logits included: a scheme that does
    not learn them never reads them, so both their gradients are 0.0), shifted by +-``GRAD_CHECK_EPSILON``, on the
    summed batch loss of a tiny instance. Each scheme's analytic gradient is its own ``train_batch``'s; the shifted
    losses are one pass for all schemes, so the mixing schemes share one gated model and one pass. Every shifted loss
    is one copy in one of ``shifted_losses``' stacks of ``copies``, each of at most ``STACK_BYTES`` or of one
    coordinate (a copy of a decoder's cell, attention or projection is one more decoder, any other copy leads a copy
    axis); its scheme-free loss row gives each scheme's total. The pass checks itself: the loss row and the
    totals at +epsilon on each tensor's first coordinate are also taken from a plain full forward; a differing loss
    returns ``math.inf`` for every scheme, a differing total for its scheme. No samples is a DomainError; a
    non-finite analytic gradient, numeric gradient or error returns ``math.inf`` for its scheme.
    """
    if not samples:
        raise DomainError("cannot check gradients on no samples")
    analytic = []
    for scheme in schemes:
        params.grads[...] = 0.0
        train_batch(params, samples, scheme, expert_of)
        analytic.append(params.grads.copy())
    params.grads[...] = 0.0

    owned = owned_groups(samples, expert_of, params)
    rows, totals = shifted_losses(params, owned, schemes, np.arange(params.values.size))
    ok = np.array([np.isfinite(grad).all() for grad in analytic])
    for idx in params.arena()[1][:-1]:
        original = params.values[idx]
        params.values[idx] = original + GRAD_CHECK_EPSILON
        row_up, totals_up = forward_loss(params, owned, schemes)
        params.values[idx] = original
        ok &= (row_up == rows[2 * idx]).all() & (np.array(totals_up) == totals[:, 2 * idx])
    errors = []
    for passed, grad, total in zip(ok, analytic, totals):
        if passed:
            numeric = (total[0::2] - total[1::2]) / (2.0 * GRAD_CHECK_EPSILON)
            err = np.abs(grad - numeric) / np.maximum(np.abs(grad) + np.abs(numeric), GRAD_CHECK_FLOOR)
            passed = np.isfinite(err).all()
        errors.append(max(0.0, err.max()) if passed else math.inf)  # a numpy float, or 0.0 when every error is 0.0
    return errors
