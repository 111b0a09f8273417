"""Kernel-level forward values, backward-vs-finite-difference, and properties."""

import math

import numpy as np

import tokmoe.tensor as T

from conftest import fd_grad, max_rel_err


class TestMatmul:
    def test_identity(self):
        a = np.eye(2)
        b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
        np.testing.assert_array_equal(T.matmul(a, b), b)

    def test_hand_product(self):
        out = T.matmul(np.array([[1.0, 2.0]], dtype=np.float64), np.array([[3.0], [4.0]], dtype=np.float64))
        np.testing.assert_allclose(out, [[11.0]])

    def test_associativity_on_random_chains(self, rng):
        for _ in range(20):
            a = rng.uniform(-1, 1, (3, 4))
            b = rng.uniform(-1, 1, (4, 5))
            c = rng.uniform(-1, 1, (5, 2))
            left = T.matmul(T.matmul(a, b), c)
            right = T.matmul(a, T.matmul(b, c))
            assert max_rel_err(left, right, floor=1e-9) < 1e-9


class TestSoftmax:
    def test_uniform_over_equal_logits(self):
        np.testing.assert_allclose(T.softmax(np.array([0.0, 0.0, 0.0], dtype=np.float64)), [1 / 3] * 3, atol=1e-15)

    def test_closed_form_ratio(self):
        out = T.softmax(np.array([math.log(2.0), 0.0], dtype=np.float64))
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self, rng):
        x = rng.uniform(-5, 5, 7)
        for c in (-100.0, 3.5, 1e6):
            np.testing.assert_allclose(T.softmax(x + c), T.softmax(x), atol=1e-12)

    def test_simplex_property(self, rng):
        for _ in range(200):
            x = rng.uniform(-30, 30, rng.integers(1, 9))
            out = T.softmax(x)
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_backward_matches_finite_differences(self, rng):
        x = rng.uniform(-2, 2, 5)
        g = rng.uniform(-1, 1, 5)
        analytic = T.softmax_backward(g, T.softmax(x))
        numeric = fd_grad(lambda v: float(np.dot(T.softmax(v), g)), x.copy())
        assert max_rel_err(analytic, numeric) < 1e-6


class TestConcat:
    def test_single_part(self):
        np.testing.assert_array_equal(T.concat([np.array([1.0, 2.0], dtype=np.float64)]), [1.0, 2.0])

    def test_order_preserved(self):
        np.testing.assert_array_equal(
            T.concat([np.array([1.0], dtype=np.float64), np.array([2.0, 3.0], dtype=np.float64)]), [1.0, 2.0, 3.0]
        )

    def test_length_additivity(self, rng):
        parts = [rng.uniform(-1, 1, int(n)) for n in rng.integers(1, 6, size=5)]
        assert T.concat(parts).shape[0] == sum(p.shape[0] for p in parts)

    def test_backward_splits_by_offsets(self, rng):
        parts = [rng.uniform(-1, 1, n) for n in (2, 3, 1)]
        g = rng.uniform(-1, 1, 6)
        pieces = T.concat_backward(g, [2, 3, 1])
        np.testing.assert_array_equal(pieces[0], g[:2])
        np.testing.assert_array_equal(pieces[1], g[2:5])
        np.testing.assert_array_equal(pieces[2], g[5:])


class TestElementwise:
    def test_tanh_at_origin(self):
        np.testing.assert_array_equal(T.tanh(np.array([0.0], dtype=np.float64)), [0.0])

    def test_sigmoid_midpoint(self):
        np.testing.assert_array_equal(T.sigmoid(np.array([0.0], dtype=np.float64)), [0.5])

    def test_sigmoid_saturation_is_finite(self):
        out = T.sigmoid(np.array([-1e9, 1e9], dtype=np.float64))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_backwards_match_finite_differences(self, rng):
        x = rng.uniform(-2, 2, 6)
        g = rng.uniform(-1, 1, 6)

        analytic = T.tanh_backward(g, T.tanh(x))
        numeric = fd_grad(lambda v: float(np.dot(T.tanh(v), g)), x.copy())
        assert max_rel_err(analytic, numeric) < 1e-6

        analytic = T.sigmoid_backward(g, T.sigmoid(x))
        numeric = fd_grad(lambda v: float(np.dot(T.sigmoid(v), g)), x.copy())
        assert max_rel_err(analytic, numeric) < 1e-6

