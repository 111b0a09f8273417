"""Shared test helpers: finite-difference oracles and tiny model fixtures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tokmoe import VariantConfig
from tokmoe.data import EncodedSample, Sample
from tokmoe.tensor import ParamSlot


def fd_grad(func, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array.

    Kept independent of the library's backward code on purpose: this is
    the oracle the analytic gradients are judged against.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = func(x)
        flat[i] = original - eps
        down = func(x)
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def max_rel_err(analytic, numeric, floor: float = 1e-3) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(n), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def brute_force_bleu(hypotheses, references) -> float:
    """Independent BLEU-4 oracle: clipped counts via explicit consumption.

    For every hypothesis n-gram occurrence, one matching reference n-gram
    occurrence is consumed from a pool; pooled corpus counts feed the
    geometric mean and the brevity penalty. No Counter arithmetic shared
    with the implementation under test.
    """
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
            pool = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            totals[n - 1] += len(hyp_grams)
            for gram in hyp_grams:
                if gram in pool:
                    pool.remove(gram)
                    matches[n - 1] += 1
    log_sum = 0.0
    for matched, total in zip(matches, totals):
        if matched == 0 or total == 0:
            return 0.0
        log_sum += 0.25 * math.log(matched / total)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_sum)


def slot(name: str, value) -> ParamSlot:
    """A float64 slot holding ``value``, with a zeroed gradient of its shape."""
    value = np.asarray(value, dtype=np.float64)
    return ParamSlot(name, value, np.zeros_like(value))


def tiny_variant(**overrides) -> VariantConfig:
    base = dict(hidden_size=3, embedding_size=3, attn_size=2, gate_hidden=4, gate_out=3)
    base.update(overrides)
    return VariantConfig(**base)


def tiny_samples() -> list[EncodedSample]:
    # Two intents, vocabulary ids < 6, responses end on the EOS id (3).
    return [
        EncodedSample([4, 5, 4], [5, 4, 3], "alpha", Sample(["x"], ["y"], "alpha")),
        EncodedSample([5, 4], [4, 5, 3], "beta", Sample(["x"], ["y"], "beta")),
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
