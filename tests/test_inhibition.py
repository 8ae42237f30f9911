"""Lateral-inhibition layer: gating semantics and surrogate gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mweid import autodiff as ad
from mweid.autodiff import Parameter, backward, finite_difference_check, zero_grads
from mweid.inhibition import (INITIAL_BIAS, LateralInhibitionLayer, NotSquare,
                              heaviside_surrogate, zero_diag)


def layer_from(weight, bias, k=10.0):
    return LateralInhibitionLayer(Parameter(np.asarray(weight, float), "w"),
                                  Parameter(np.asarray(bias, float), "b"), k)


def random_layer(rng, d, k=10.0):
    return layer_from(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d), k)


class TestZeroDiag:
    def test_identity_becomes_zero(self):
        out = zero_diag(ad.tensor(np.eye(4)))
        assert np.array_equal(out.data, np.zeros((4, 4)))

    def test_all_ones(self):
        out = zero_diag(ad.tensor(np.ones((2, 2))))
        assert np.array_equal(out.data, [[0.0, 1.0], [1.0, 0.0]])

    def test_not_square(self):
        with pytest.raises(NotSquare):
            zero_diag(ad.tensor(np.ones((2, 3))))

    def test_gradient_ones_offdiag_zero_diag(self):
        m = Parameter(np.random.default_rng(0).uniform(-1, 1, (3, 3)), "m")
        backward(ad.sum_all(zero_diag(m)))
        expected = 1.0 - np.eye(3)
        assert np.array_equal(m.grad, expected)
        error = finite_difference_check(lambda: ad.sum_all(zero_diag(m)), [m])
        assert error < 1e-9


class TestHeavisideSurrogate:
    def test_forward_sign_pattern(self):
        out = heaviside_surrogate(ad.tensor([[-1.0, 0.0, 2.0]]), 10.0)
        assert np.array_equal(out.data, [[0.0, 0.0, 1.0]])

    def test_backward_at_zero_k4(self):
        p = Parameter(np.array([[0.0]]), "p")
        backward(ad.sum_all(heaviside_surrogate(p, 4.0)))
        assert p.grad[0, 0] == 1.0  # 4 * 0.5 * 0.5

    def test_surrogate_equals_fd_of_relaxed_gate(self):
        # The adjoint of the hard gate must equal finite differences of
        # the smooth gate sigma(k x), elementwise.
        rng = np.random.default_rng(1)
        k, h = 3.0, 1e-6
        x = rng.uniform(-1.5, 1.5, (4, 3))
        p = Parameter(x, "p")
        backward(ad.sum_all(heaviside_surrogate(p, k)))
        analytic = p.grad
        numeric = (1 / (1 + np.exp(-k * (x + h))) -
                   1 / (1 + np.exp(-k * (x - h)))) / (2 * h)
        assert np.allclose(analytic, numeric, rtol=0, atol=1e-6)

    def test_nonpositive_steepness_rejected(self):
        with pytest.raises(ValueError):
            heaviside_surrogate(ad.tensor([[1.0]]), 0.0)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_non_finite_steepness_rejected(self, k):
        with pytest.raises(ValueError, match=f"^surrogate steepness must be "
                                             f"finite, got {k}$"):
            heaviside_surrogate(ad.tensor([[1.0]]), k)


class TestForward:
    def test_positive_bias_passes_input_through(self):
        layer = layer_from(np.zeros((3, 3)), np.ones(3))
        x = ad.tensor([[0.5, -1.0, 2.0], [3.0, 0.25, -0.5]])
        assert np.array_equal(layer.forward(x).data, x.data)

    def test_negative_bias_closes_all_gates(self):
        layer = layer_from(np.zeros((3, 3)), -np.ones(3))
        x = ad.tensor([[0.5, -1.0, 2.0]])
        assert np.array_equal(layer.forward(x).data, np.zeros((1, 3)))

    def test_worked_two_dim_example(self):
        # W arranged so that W.T has off-diagonal (0.5, 1.0): the first
        # gate sees 1*0 + (-2)*1.0 + 0.1 = -1.9 (closed), the second
        # 1*0.5 + (-2)*0 + 0.2 = 0.7 (open).
        layer = layer_from([[0.0, 1.0], [0.5, 0.0]], [0.1, 0.2])
        out = layer.forward(ad.tensor([[1.0, -2.0]]))
        assert np.array_equal(out.data, [[0.0, -2.0]])

    def test_gate_threshold_is_strict(self):
        # Pre-activation exactly zero keeps the gate closed.
        layer = layer_from(np.zeros((2, 2)), np.zeros(2))
        out = layer.forward(ad.tensor([[5.0, -7.0]]))
        assert np.array_equal(out.data, [[0.0, 0.0]])

    def test_width_mismatch(self):
        layer = layer_from(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            layer.forward(ad.tensor([[1.0, 2.0, 3.0]]))

    def test_bad_bias_or_steepness_rejected(self):
        with pytest.raises(ValueError, match=r"^bias shape \(3,\) does not "
                                             r"match width 2$"):
            layer_from(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError,
                           match="^steepness must be positive, got -1.0$"):
            layer_from(np.zeros((2, 2)), np.zeros(2), k=-1.0)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_non_finite_steepness_rejected(self, k):
        with pytest.raises(ValueError,
                           match=f"^steepness must be finite, got {k}$"):
            layer_from(np.zeros((2, 2)), np.zeros(2), k=k)


class TestSelectivity:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_output_is_zero_or_input(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        layer = random_layer(rng, d)
        x = ad.tensor(rng.uniform(-3, 3, (int(rng.integers(1, 5)), d)))
        y = layer.forward(x).data
        assert np.all((y == 0.0) | (y == x.data))

    def test_diagonal_perturbation_is_inert(self):
        rng = np.random.default_rng(23)
        layer = random_layer(rng, 4)
        x = ad.tensor(rng.uniform(-2, 2, (3, 4)))
        base = layer.forward(x).data.copy()
        layer.weight.data[...] += np.diag(rng.uniform(5, 9, 4))
        assert np.array_equal(layer.forward(x).data, base)

    def test_diagonal_gradient_exactly_zero(self):
        rng = np.random.default_rng(29)
        layer = random_layer(rng, 4)
        x = ad.tensor(rng.uniform(-2, 2, (3, 4)))
        zero_grads(layer.parameters())
        backward(ad.sum_all(layer.forward(x)))
        assert np.array_equal(np.diag(layer.weight.grad), np.zeros(4))

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        layer = random_layer(rng, 3)
        x = rng.uniform(-2, 2, (5, 3))
        perm = rng.permutation(5)
        y = layer.forward(ad.tensor(x)).data
        y_perm = layer.forward(ad.tensor(x[perm])).data
        assert np.array_equal(y_perm, y[perm])


class TestRelaxed:
    def test_relaxed_converges_to_hard_as_k_grows(self):
        rng = np.random.default_rng(37)
        found = 0
        while found < 5:
            weight = rng.uniform(-1, 1, (3, 3))
            bias = rng.uniform(-1, 1, 3)
            x_data = rng.uniform(-2, 2, (4, 3))
            mask = 1.0 - np.eye(3)
            pre = x_data @ (weight.T * mask) + bias
            if np.abs(pre).min() < 0.15:
                continue  # keep pre-activations away from the jump
            found += 1
            x = ad.tensor(x_data)
            hard = layer_from(weight, bias, 10.0).forward(x).data
            gaps = []
            for k in (1.0, 10.0, 100.0):
                relaxed = layer_from(weight, bias, k).forward_relaxed(x).data
                gaps.append(np.abs(relaxed - hard).max())
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 1e-3

    def test_relaxed_layer_passes_gradient_check(self):
        rng = np.random.default_rng(41)
        layer = random_layer(rng, 3, k=4.0)
        x = ad.tensor(rng.uniform(-1, 1, (4, 3)))
        error = finite_difference_check(
            lambda: ad.sum_all(layer.forward_relaxed(x)),
            layer.parameters(), h=1e-5)
        assert error < 1e-6

    def test_hard_layer_fails_gradient_check(self):
        rng = np.random.default_rng(43)
        layer = random_layer(rng, 3, k=4.0)
        x = ad.tensor(rng.uniform(-1, 1, (4, 3)))
        error = finite_difference_check(
            lambda: ad.sum_all(layer.forward(x)), layer.parameters(), h=1e-5)
        assert error > 1e-2


class TestBuild:
    def test_initial_gates_open(self):
        layer = LateralInhibitionLayer(Parameter(np.zeros((4, 4)), "w"),
                                       Parameter(np.full(4, INITIAL_BIAS), "b"))
        x = ad.tensor(np.random.default_rng(0).uniform(-1, 1, (2, 4)))
        assert np.array_equal(layer.forward(x).data, x.data)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            LateralInhibitionLayer(Parameter(np.zeros((2, 3)), "w"),
                                   Parameter(np.zeros(2), "b"))
