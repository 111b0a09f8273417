"""Dense float64 kernels with explicit forward/backward pairs.

The tensor carrier is a plain ``numpy.ndarray`` with ``dtype=float64`` in
C (row-major) order: its ``shape`` plus the flat ``ravel()`` view are the
canonical (shape, values) representation that the checkpoint format
serializes. Arrays returned by an operation are treated as immutable;
gradients accumulate additively into ``ParamSlot.grad``, a view into the
model's flat gradient arena, which the training loop (single writer)
zeroes with one assignment.

Softmax, concat, tanh and sigmoid have paired ``*_backward`` functions
(the layers form matmul's gradients themselves). There is no graph or
tape; callers compose the backward calls in reverse order themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Probabilities are floored at this value before any log() so that
# cross-entropy on a near-zero probability stays finite.
PROB_FLOOR = 1e-12


@dataclass
class ParamSlot:
    """A named learnable tensor paired with its same-shape gradient buffer."""

    name: str
    value: Array
    grad: Array


def matmul(a: Array, b: Array) -> Array:
    """Rows times a stacked matrix: the (..., R, k) rows of ``a`` meet the (..., k, m) matrices of ``b``.

    Leading axes broadcast, so (n, B, k) rows and a stacked (n, k, m) ``b``
    give ``a[l] @ b[l]``, one GEMM per matrix; a (k,) ``a`` is one row. GEMM
    rows match one-row products to about 1e-11 relative, not bitwise.
    """
    return a @ b


def softmax(x: Array) -> Array:
    """Numerically stable softmax over the last axis (its max is always subtracted first)."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(grad: Array, out: Array) -> Array:
    """Backward through softmax over the last axis, given its output ``out``: y * (g - g.y)."""
    return out * (grad - matmul(grad[..., None, :], out[..., :, None])[..., 0])


def concat(parts: list[Array]) -> Array:
    """Concatenate along the last axis, in order (at least one part)."""
    return np.concatenate(parts, axis=-1)


def concat_backward(grad: Array, lengths: list[int]) -> list[Array]:
    """Split the upstream gradient back into per-part pieces along the last axis."""
    return np.split(grad, np.cumsum(lengths)[:-1], axis=-1)


def tanh(x: Array) -> Array:
    return np.tanh(x)


def tanh_backward(grad: Array, out: Array) -> Array:
    return grad * (1.0 - out * out)


def sigmoid(x: Array) -> Array:
    # Inputs are clamped to +-500 so exp() cannot overflow; the result is
    # already saturated to 0/1 far inside that range in float64.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -500.0), 500.0)))


def sigmoid_backward(grad: Array, out: Array) -> Array:
    return grad * out * (1.0 - out)
