"""Lateral-inhibition gating layer.

Each embedding dimension is switched fully on or off by a hard
threshold over a zero-diagonal linear vote of the *other* dimensions:

    Y = X * H(X @ zero_diag(W.T) + b)      (elementwise product per row)

The Heaviside step H (here with H(0) = 0, so only strictly positive
pre-activations open a gate) has an almost-everywhere-zero derivative,
so the backward pass substitutes the derivative of a steepened logistic,
k * sigma(k x) * (1 - sigma(k x)): a surrogate gradient. The forward
output is therefore always exactly 0 or exactly the input value, never
a rescaling, while training still receives a usable learning signal.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (Parameter, Tensor, _expit, _node, _require_2d, add,
                       matmul, mul, scale, sigmoid, transpose)


# Zero weights with this small positive bias start every gate open, so
# an untrained layer passes features through unchanged.
INITIAL_BIAS = 0.1


class NotSquare(ValueError):
    """zero_diag needs a square matrix."""


def zero_diag(m: Tensor) -> Tensor:
    """Copy of ``m`` with the main diagonal forced to zero.

    The backward pass routes adjoints only to off-diagonal entries, so
    diagonal parameters receive an exactly-zero gradient and stay inert
    under any optimizer.
    """
    _require_2d(m, "zero_diag")
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"zero_diag expects a square matrix, got {m.shape}")
    mask = 1.0 - np.eye(m.shape[0])
    return _node(m.data * mask, ((m, lambda g: g * mask),), "zero_diag")


def heaviside_surrogate(x: Tensor, k: float) -> Tensor:
    """Hard step forward (1 where x > 0, else 0), logistic-slope backward.

    The local derivative used in backprop is k * s * (1 - s) with
    s = sigma(k x); at x = 0 and k = 4 this is exactly 1. It is computed
    only when backward reaches the node, so tagging never pays for it.
    """
    k = float(k)
    if k <= 0:
        raise ValueError(f"surrogate steepness must be positive, got {k}")
    x_data = x.data
    gate = (x_data > 0).astype(np.float64)

    def vjp(g):
        s = _expit(k * x_data)
        return g * (k * s * (1.0 - s))

    return _node(gate, ((x, vjp),), "heaviside")


class LateralInhibitionLayer:
    """Square weight matrix, bias, and surrogate steepness k.

    The effective mixing matrix is zero_diag(W.T): a dimension never
    votes on its own gate. W's diagonal is untouched by training because
    its gradient is identically zero.
    """

    def __init__(self, weight: Parameter, bias: Parameter, steepness: float = 10.0):
        if weight.data.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise NotSquare(f"weight must be square, got {weight.shape}")
        if bias.shape != (weight.shape[0],):
            raise ValueError(
                f"bias shape {bias.shape} does not match width {weight.shape[0]}")
        if steepness <= 0:
            raise ValueError(f"steepness must be positive, got {steepness}")
        self.weight = weight
        self.bias = bias
        self.steepness = float(steepness)

    @property
    def width(self) -> int:
        return self.weight.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def _pre_activation(self, x: Tensor) -> Tensor:
        return add(matmul(x, zero_diag(transpose(self.weight))), self.bias)

    def forward(self, x: Tensor) -> Tensor:
        """Gate each row of x: output elements are exactly 0 or x[i][j]."""
        if x.data.ndim != 2 or x.shape[1] != self.width:
            raise ValueError(
                f"input shape {x.shape} does not match layer width {self.width}")
        return mul(x, heaviside_surrogate(self._pre_activation(x), self.steepness))

    def forward_relaxed(self, x: Tensor) -> Tensor:
        """Fully smooth variant: the gate is sigma(k * pre-activation).

        Its true gradient coincides with the surrogate gradient used by
        the hard layer's gate path, which makes it the reference network
        for finite-difference checking; as k grows its output converges
        to the hard layer's wherever no pre-activation is exactly zero.
        """
        gate = sigmoid(scale(self._pre_activation(x), self.steepness))
        return mul(x, gate)
