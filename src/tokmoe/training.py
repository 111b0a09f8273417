"""Global-and-local training: scheme losses, Adam, clipping, grad checks.

The joint objective is ``lambda * L_experts + (1 - lambda) * L_chair``:

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
in groups of ``GROUP_SIZE`` samples; a group's arrays are freed before the next
group's forward. Losses are summed (not averaged) within a batch, so its order
changes only their summation order, and gradients accumulate additively until
the optimizer step. The per-batch order of operations is fixed for
reproducibility: forward, backward, add l2 to gradients, clamp gradient values,
Adam step, zero; each step after the backward acts once on the flat arena.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import tensor as T
from .config import OptimizerConfig, SchemeConfig
from .data import Corpus, EncodedSample, Sample
from .errors import ConfigError, DataError, DomainError
from .model import (
    ForwardCache,
    ModelParams,
    Readout,
    backward_teacher_forced,
    decode_teacher_forced,
    forward_teacher_forced,
    readout,
)
from .tensor import Array

GROUP_SIZE = 8  # samples teacher-forced at once; peak memory, not speed, sets it


def groups(samples: list[EncodedSample]) -> list[list[EncodedSample]]:
    """The samples sorted stably by (response, context) length, cut into groups of ``GROUP_SIZE``."""
    ordered = sorted(samples, key=lambda s: (len(s.response_ids), len(s.context_ids)))
    return [ordered[start:start + GROUP_SIZE] for start in range(0, len(ordered), GROUP_SIZE)]


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


def resolve_scheme_weights(scheme: SchemeConfig, params: ModelParams) -> tuple[Array, float]:
    """Full per-decoder weight vector (chair last) and lambda for one batch.

    The chair's term in the expert loss always carries the uniform 1/k
    weight; under S1 the k expert entries are the softmax of the model's mu
    logits and lambda is the sigmoid of its lambda logit. Single-decoder mode
    (``num_experts == 0``) trains on the chair loss alone: mu = [1],
    lambda = 0. The model must have a gate exactly when the scheme mixes,
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
        mu = np.concatenate([T.softmax(weights.mu_logits.value), [1.0 / k]])
        return mu, float(T.sigmoid(weights.lambda_logit.value)[0])
    return np.full(k + 1, 1.0 / k), float(scheme.lambda_value)


# ---------------------------------------------------------------------------
# Losses


def nll_sequence(dists: Array, targets, lengths) -> Array:
    """Each response's sum of -log p[y], with the probability floor: one gather.

    ``targets`` hold B responses of the given ``lengths`` whose rows follow one
    another. (N, V) rows give a (B,) array; an (N, k+1, V) readout gives a
    (B, k+1) array, each decoder's own NLL. Each response's terms are summed
    from its own contiguous row. A NaN probability is not floored, so it
    yields a NaN sum.
    """
    p = np.asarray(dists)[np.arange(len(targets)), ..., targets]
    terms = -np.log(np.maximum(np.ascontiguousarray(p.T), T.PROB_FLOOR))
    return np.array([terms[..., end - n:end].sum(axis=-1) for n, end in zip(lengths, np.cumsum(lengths))])


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


def loss_total(expert_loss: float, chair_loss: float, lam: float) -> float:
    return lam * expert_loss + (1.0 - lam) * chair_loss


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


class GroupInputs(NamedTuple):
    """One group's teacher-forcing inputs and the rows its losses read."""

    contexts: list[list[int]]
    responses: list[list[int]]
    targets: Array         # the responses' ids, one after another
    lengths: list[int]
    own: Array             # (B, k+1): each sample's ``ownership`` row


def group_inputs(group: list[EncodedSample], expert_of: dict[str, int], num_decoders: int) -> GroupInputs:
    responses = [s.response_ids for s in group]
    own = np.array([ownership(s.intent, expert_of, num_decoders) for s in group])
    return GroupInputs([s.context_ids for s in group], responses, np.concatenate(responses),
                       [len(ids) for ids in responses], own)


def group_loss(out: Readout, inputs: GroupInputs) -> tuple[Array, float]:
    """A group's (k+1,) localized expert losses and its chair loss, from its readout."""
    # Selected, not multiplied: a decoder that does not own a sample adds exactly 0.0.
    expert = np.where(inputs.own, nll_sequence(out.dists, inputs.targets, inputs.lengths), 0.0).sum(axis=0)
    return expert, nll_sequence(out.combined, inputs.targets, inputs.lengths).sum()


def summed_loss(losses: Iterable[tuple[Array, float]], mu: Array, lam: float) -> tuple[Array, float, float]:
    """The groups' ``group_loss`` results summed in order: raw expert losses, chair loss, total."""
    raw_expert = np.zeros(len(mu))
    chair_total = 0.0
    for expert, chair in losses:
        raw_expert += expert
        chair_total += chair
    return raw_expert, chair_total, loss_total(float(np.dot(mu, raw_expert)), chair_total, lam)


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

    def forward_backward(group: list[EncodedSample]) -> tuple[Array, float]:
        # One call per group: every array of a group dies before the next group's forward.
        inputs = group_inputs(group, expert_of, params.num_decoders)
        cache = forward_teacher_forced(params, inputs.contexts, inputs.responses)
        out, targets = cache.readout, inputs.targets
        # The seeds, left unbound here, are freed after the readout backward.
        backward_teacher_forced(
            params, cache,
            _nll_grad_seeds(out.dists, targets, lam * mu * np.repeat(inputs.own, inputs.lengths, axis=0)),
            _nll_grad_seeds(out.combined, targets, 1.0 - lam),
        )
        return group_loss(out, inputs)

    raw_expert, chair_total, total = summed_loss(map(forward_backward, groups(batch)), mu, lam)

    if scheme.learns_weights and params.num_experts > 0:
        # d total / d mu_l = lambda * E_l for the k learnable expert entries.
        weights = params.scheme_weights
        weights.mu_logits.grad += T.softmax_backward(lam * raw_expert[:-1], mu[:-1])
        weights.lambda_logit.grad += (float(np.dot(mu, raw_expert)) - chair_total) * lam * (1.0 - lam)

    return LossReport(
        expert_losses=[float(v) for v in raw_expert],
        chair_loss=float(chair_total),
        total=float(total),
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
    sums = np.zeros(params.num_decoders)
    chair_sum = total_sum = 0.0
    tokens = 0
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
        sums += report.expert_losses
        chair_sum += report.chair_loss
        total_sum += report.total
        tokens += report.token_count
    assert report is not None
    return LossReport(
        expert_losses=[float(v / tokens) for v in sums],
        chair_loss=chair_sum / tokens,
        total=total_sum / tokens,
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
class TrainResult:
    history: list[EpochRecord]
    best_epoch: int
    best_score: float | None


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
) -> TrainResult:
    """Multi-epoch training with optional best-epoch selection.

    ``valid_scorer(params) -> float`` is called after every epoch; the
    parameter snapshot with the highest score is restored at the end. With
    no scorer the final-epoch parameters stand. A non-finite batch loss
    raises DomainError naming the epoch and the batch.
    """
    rng = np.random.default_rng(seed)
    adam_state = AdamState.like(params.values)
    history: list[EpochRecord] = []
    best_score: float | None = None
    best_epoch = epochs
    best_values: Array | None = None
    for epoch in range(1, epochs + 1):
        try:
            report = train_epoch(params, samples, scheme, opt, adam_state, rng, expert_of)
        except DomainError as exc:
            raise DomainError(f"epoch {epoch}, {exc}") from None
        record = EpochRecord(epoch, report)
        if valid_scorer is not None:
            record.valid_score = float(valid_scorer(params))
            if best_score is None or record.valid_score > best_score:
                best_score = record.valid_score
                best_epoch = epoch
                best_values = params.values.copy()
        history.append(record)
        if progress is not None:
            progress(record)
    if best_values is not None:
        params.values[...] = best_values
    return TrainResult(history, best_epoch, best_score)


# ---------------------------------------------------------------------------
# Verification


def teacher_forced_accuracy(params: ModelParams, samples: list[EncodedSample]) -> float:
    """Fraction of response tokens where argmax(combined) hits the target, one forward per group."""
    hits = 0
    for group in groups(samples):
        contexts, responses = [s.context_ids for s in group], [s.response_ids for s in group]
        chosen = forward_teacher_forced(params, contexts, responses).readout.combined.argmax(axis=-1)
        hits += int(np.count_nonzero(chosen == np.concatenate(responses)))
    total = sum(len(s.response_ids) for s in samples)
    return hits / total if total else 0.0


# Relative disagreement below this gradient magnitude is treated as absolute
# (finite-difference noise would otherwise dominate near-zero coordinates).
GRAD_CHECK_FLOOR = 1e-4


# The forward's stages in order. A stage reads the outputs of the stages before it,
# and a coordinate's first stage is the first that reads its tensor.
ENCODE, RECURRENCE, READOUT, LOSS = range(4)
# Keyed by module, the first part of a tensor's name. Attention is encode's, because
# ``encode_context`` builds the attention keys.
FIRST_STAGE = {
    "embedding": ENCODE, "encoder": ENCODE, "attn": ENCODE, "cell": RECURRENCE,
    "proj": READOUT, "gating": READOUT, "scheme": LOSS,
}


class StagedLoss:
    """The summed loss of ``samples`` from any stage on, over cached earlier stages.

    Built from the model as it is: each group's inputs, ``ForwardCache`` and
    ``group_loss``. A call recomputes every group from ``stage`` on and reuses
    the cached outputs of the stages before it, so it gives the full forward's
    value, bit for bit, while no changed value is read before ``stage``.
    """

    def __init__(
        self, params: ModelParams, samples: list[EncodedSample], scheme: SchemeConfig, expert_of: dict[str, int],
    ) -> None:
        self.params, self.scheme = params, scheme
        self.cached = []
        for group in groups(samples):
            inputs = group_inputs(group, expert_of, params.num_decoders)
            cache = forward_teacher_forced(params, inputs.contexts, inputs.responses)
            self.cached.append((inputs, cache, group_loss(cache.readout, inputs)))

    def __call__(self, stage: int) -> float:
        mu, lam = resolve_scheme_weights(self.scheme, self.params)
        return summed_loss((self._group_loss(stage, *group) for group in self.cached), mu, lam)[2]

    def _group_loss(
        self, stage: int, inputs: GroupInputs, cache: ForwardCache, cached: tuple[Array, float],
    ) -> tuple[Array, float]:
        params = self.params
        if stage == LOSS:
            return cached
        if stage == ENCODE:
            cache = forward_teacher_forced(params, inputs.contexts, inputs.responses)
        elif stage == RECURRENCE:
            cache = decode_teacher_forced(params, cache.enc, inputs.responses)
        out = readout(params, cache.decoders.trace.hidden[1:][cache.rows]) if stage == READOUT else cache.readout
        return group_loss(out, inputs)


def grad_check(
    params: ModelParams,
    samples: list[EncodedSample],
    scheme: SchemeConfig,
    expert_of: dict[str, int],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Compares every coordinate of the parameter arena (S1's mu/lambda
    logits included) on the summed batch loss. Intended for tiny instances.
    Each +-epsilon loss is a ``StagedLoss`` from the coordinate's
    ``FIRST_STAGE`` on, so most coordinates skip the encoder, and many the
    recurrence too. The table checks itself: for each tensor it places after
    *encode*, its first coordinate's +epsilon loss is also taken from *encode*,
    and two losses that differ return ``math.inf``. No samples is a
    DomainError; any non-finite analytic gradient, numeric gradient or error
    returns ``math.inf``, so it can never pass.
    """
    if not samples:
        raise DomainError("cannot check gradients on no samples")
    params.grads[...] = 0.0
    train_batch(params, samples, scheme, expert_of)
    analytic = params.grads.copy()
    params.grads[...] = 0.0
    if not np.isfinite(analytic).all():
        return math.inf

    loss = StagedLoss(params, samples, scheme, expert_of)
    tensors = params.tensors()
    sizes = [t.value.size for t in tensors]
    stages = np.repeat([FIRST_STAGE[t.name.split(".")[0]] for t in tensors], sizes).tolist()
    firsts = set(np.cumsum([0, *sizes[:-1]]).tolist())
    worst = 0.0
    for idx, (a, stage) in enumerate(zip(analytic, stages)):
        original = params.values[idx]
        params.values[idx] = original + epsilon
        up = loss(stage)
        misplaced = stage > ENCODE and idx in firsts and up != loss(ENCODE)
        params.values[idx] = original - epsilon
        down = loss(stage)
        params.values[idx] = original
        numeric = (up - down) / (2.0 * epsilon)
        err = abs(a - numeric) / max(abs(a) + abs(numeric), GRAD_CHECK_FLOOR)
        if misplaced or not math.isfinite(err):
            return math.inf
        worst = max(worst, err)
    return worst
