"""Corpus metrics: BLEU, inform/success proxies, Score, paired t-test.

Inform and Success are placeholder-containment proxies: a response informs
when the goal names no entity placeholder or the generated tokens contain
it; it succeeds when it informs and every requested placeholder appears.
(The original benchmark grounds these in a database lookup; the proxy
preserves the ordering semantics success <= inform and is labeled as a
proxy in every report.)

Score = 0.5*Inform + 0.5*Success + BLEU, all in percent space.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

from .data import Sample
from .errors import DomainError

BLEU_MAX_ORDER = 4
_PROXY_NOTE = "inform/success are placeholder-containment proxies"


def _ngram_counts(tokens: list[str], order: int) -> Counter:
    return Counter(
        tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1)
    )


def bleu_corpus(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    """Corpus-level BLEU-4, single reference per hypothesis.

    Clipped modified n-gram counts are pooled over the whole corpus before
    the precision ratios are formed; weights are uniform 1/4; brevity
    penalty is exp(1 - r/c) when c < r. No smoothing: any pooled p_n of
    zero sends the score to exactly 0.
    """
    if len(hypotheses) != len(references):
        raise DomainError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise DomainError("BLEU of an empty corpus")
    matched = [0] * BLEU_MAX_ORDER
    possible = [0] * BLEU_MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, BLEU_MAX_ORDER + 1):
            hyp_counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            possible[n - 1] += max(len(hyp) - n + 1, 0)
            matched[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
    log_sum = 0.0
    for n in range(BLEU_MAX_ORDER):
        if matched[n] == 0 or possible[n] == 0:
            return 0.0
        log_sum += math.log(matched[n] / possible[n]) / BLEU_MAX_ORDER
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_sum)


def _informed(sample: Sample, generated: list[str]) -> bool:
    if sample.goal is None or sample.goal.entity is None:
        return True
    return sample.goal.entity in generated


def _successful(sample: Sample, generated: list[str]) -> bool:
    requested = sample.goal.requested if sample.goal is not None else []
    return _informed(sample, generated) and all(token in generated for token in requested)


def composite_score(inform_pct: float, success_pct: float, bleu_pct: float) -> float:
    """0.5*Inform + 0.5*Success + BLEU, inputs already in percent space."""
    return 0.5 * inform_pct + 0.5 * success_pct + bleu_pct


# ---------------------------------------------------------------------------
# Paired t-test


_TINY = 1e-300


def _away_from_zero(value: float) -> float:
    return _TINY if abs(value) < _TINY else value


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the incomplete-beta continued fraction, two half-steps per m.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _away_from_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _away_from_zero(1.0 + num * d)
            c = _away_from_zero(1.0 + num / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued fraction, split at the symmetry point."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_pvalue(t: float, df: int) -> float:
    """Two-tailed p-value of Student's t via I_{df/(df+t^2)}(df/2, 1/2)."""
    if df < 1:
        raise DomainError("t distribution needs df >= 1")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def paired_t_test(scores_a: list[float], scores_b: list[float]) -> tuple[float, float]:
    """(t statistic, two-tailed p) of paired differences a_i - b_i.

    Zero-variance conventions: all differences equal and zero -> (0, 1); all
    equal and nonzero -> (signed inf, 0), even where their rounded mean is not them.
    """
    if len(scores_a) != len(scores_b):
        raise DomainError("paired t-test requires equally long score lists")
    n = len(scores_a)
    if n < 2:
        raise DomainError("paired t-test requires at least 2 pairs")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if all(d == diffs[0] for d in diffs):
        mean, var = diffs[0], 0.0
    sd = math.sqrt(var)
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean * math.sqrt(n) / sd
    return t, t_pvalue(t, n - 1)


# ---------------------------------------------------------------------------
# Report


@dataclass
class IntentMetrics:
    inform: float
    success: float
    bleu: float
    count: int

    @property
    def score(self) -> float:
        return composite_score(100.0 * self.inform, 100.0 * self.success, 100.0 * self.bleu)


@dataclass
class MetricsReport:
    """Overall plus per-intent inform/success/BLEU/Score (rates in [0, 1])."""

    overall: IntentMetrics
    per_intent: dict[str, IntentMetrics] = field(default_factory=dict)

    def to_json(self) -> str:
        def row(m: IntentMetrics) -> dict:
            return {**asdict(m), "score": m.score}

        payload = {
            "overall": row(self.overall),
            "per_intent": {intent: row(m) for intent, m in sorted(self.per_intent.items())},
            "note": _PROXY_NOTE,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_table(self) -> str:
        header = f"{'intent':<14}{'Inform%':>10}{'Success%':>10}{'BLEU%':>10}{'Score':>10}{'turns':>8}"
        lines = [f"# {_PROXY_NOTE}", header, "-" * len(header)]

        def fmt(name: str, m: IntentMetrics) -> str:
            return (
                f"{name:<14}{100 * m.inform:>10.2f}{100 * m.success:>10.2f}"
                f"{100 * m.bleu:>10.2f}{m.score:>10.2f}{m.count:>8d}"
            )

        for intent in sorted(self.per_intent):
            lines.append(fmt(intent, self.per_intent[intent]))
        lines.append("-" * len(header))
        lines.append(fmt("overall", self.overall))
        return "\n".join(lines)


def build_report(
    samples: list[Sample], generated: list[list[str]]
) -> MetricsReport:
    """One row per intent plus the overall row; a row's rates are means of per-sample indicators."""
    if len(samples) != len(generated):
        raise DomainError("sample/generation count mismatch")
    if not samples:
        raise DomainError("report of an empty sample set")
    informed = [_informed(s, g) for s, g in zip(samples, generated)]
    successful = [_successful(s, g) for s, g in zip(samples, generated)]

    def metrics_for(idx: list[int]) -> IntentMetrics:
        return IntentMetrics(
            inform=sum(informed[i] for i in idx) / len(idx),
            success=sum(successful[i] for i in idx) / len(idx),
            bleu=bleu_corpus([generated[i] for i in idx], [samples[i].response for i in idx]),
            count=len(idx),
        )

    intents = sorted({s.intent for s in samples})
    per_intent = {
        intent: metrics_for([i for i, s in enumerate(samples) if s.intent == intent])
        for intent in intents
    }
    return MetricsReport(metrics_for(list(range(len(samples)))), per_intent)
