"""Minimal reverse-mode automatic differentiation over float64 arrays.

Each operation builds a Tensor node holding its forward value and the
vector-Jacobian products that route adjoints to its inputs. backward()
walks the interior nodes once in reverse topological order: it sums
their adjoints, adds each contribution into a Parameter leaf straight
into its gradient, and computes none for a constant (a leaf that is not
a Parameter). The graph is rebuilt by every forward pass. A Parameter
writes its value and gradient arrays in place and never rebinds them
(an ``Arena`` holds them as views into two flat buffers), and writes
its gradient only in the rows it names: an embedding lookup hands a
Parameter table a RowSparse adjoint that names the rows a step used,
any other adjoint names them all. A RowSparse adjoint sums the rows of
each id with one ``np.bincount``, adding them in order of occurrence as
``np.add.at`` does, so its sums are bitwise those of the dense adjoint.

Broadcasting is deliberately restricted to a trailing-axis vector
(bias-style) in add; everything else requires exact shapes.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class IndexOutOfVocab(ValueError):
    """An embedding id falls outside the table."""


class NotScalarLoss(ValueError):
    """backward() was asked to differentiate a non-scalar."""


class Tensor:
    """A float64 array plus the backward closures that produced it.

    ``vjps`` is a tuple of (parent, fn) pairs where fn maps this node's
    adjoint to the parent's adjoint contribution. Leaves have no vjps;
    only Parameter leaves hold a gradient.
    """

    __slots__ = ("data", "vjps", "op")

    def __init__(self, data, vjps=(), op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.vjps = tuple(vjps)
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(op={self.op}, shape={self.shape})"


_NO_ROWS = np.zeros(0, dtype=np.int64)
ALL_ROWS = ...  # indexes every entry, of a 0-d array too


_DATA = Tensor.data  # the slot that holds every tensor's value


class Parameter(Tensor):
    """A named trainable leaf tensor and its accumulated gradient.

    ``data`` is a copy of the given array, and it and ``grad`` are written
    in place only: rebinding either raises AttributeError, since a rebound
    array would no longer be the one an ``Arena`` updates. ``rows`` indexes
    the entries of ``grad`` written since the last ``zero_grad``, which
    are the only ones that may be nonzero: sorted row ids, or ``ALL_ROWS``.
    """

    __slots__ = ("name", "_grad", "rows")

    def __init__(self, data, name: str):
        _DATA.__set__(self, np.array(data, dtype=np.float64))
        self.vjps = ()
        self.op = "param"
        self.name = name
        self._grad = np.zeros_like(self.data)
        self.rows = _NO_ROWS

    def zero_grad(self) -> None:
        self._grad[self.rows] = 0.0
        self.rows = _NO_ROWS

    def accumulate(self, adjoint) -> None:
        """Add an adjoint into ``grad``; a RowSparse one only in its rows,
        with the same float result as adding it densified."""
        if not isinstance(adjoint, RowSparse):
            self._grad += adjoint
            self.rows = ALL_ROWS
            return
        ids, sums = adjoint.summed()
        if self.rows is _NO_ROWS:
            # The rows are zero and no sum is -0.0 (bincount starts each
            # from +0.0), so assigning them is bitwise adding them.
            self._grad[ids] = sums
            self.rows = ids  # already sorted and distinct
            return
        self._grad[ids] += sums
        if self.rows is not ALL_ROWS:
            self.rows = np.union1d(self.rows, ids)

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape})"


def _written_in_place(slot, what: str) -> property:
    """Read ``slot``; refuse to bind it to any other array. ``p.grad += g``
    writes in place and then binds the array it wrote, so it passes."""
    def rebind(param, value):
        if value is not slot.__get__(param):
            raise AttributeError(f"Parameter {param.name}: {what} is written "
                                 f"in place and never rebound")
    return property(slot.__get__, rebind)


Parameter.data = _written_in_place(_DATA, "data")
Parameter.grad = _written_in_place(Parameter._grad, "grad")


class Arena:
    """Parameters whose values are views into one flat buffer, ``data``,
    and whose gradients are views into a second, ``grad``: one call
    zeroes every gradient, and ``data -= alpha * grad`` is a plain SGD
    step of every value, the same floats as one step per parameter. Only
    dense parameters belong here: each call reads and writes every entry,
    even one that no gradient reached (``x - alpha * 0.0 == x``), so a
    large table updated in a few rows per step stays out.
    """

    def __init__(self, params):
        self.params = list(params)
        self.data = np.concatenate([p.data.reshape(-1) for p in self.params])
        self.grad = np.concatenate([p.grad.reshape(-1) for p in self.params])
        stop = 0
        for param in self.params:
            start, stop = stop, stop + param.data.size
            _DATA.__set__(param, self.data[start:stop].reshape(param.shape))
            param._grad = self.grad[start:stop].reshape(param.shape)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for param in self.params:
            param.rows = _NO_ROWS


class RowSparse:
    """The adjoint of a lookup into a ``shape`` table: ``rows[i]`` adds into
    row ``ids[i]``, and rows no id names are zero."""

    __slots__ = ("ids", "rows", "shape")

    def __init__(self, ids: np.ndarray, rows: np.ndarray, shape: tuple[int, int]):
        self.ids = ids
        self.rows = rows
        self.shape = shape

    def dense(self) -> np.ndarray:
        grad = np.zeros(self.shape)
        np.add.at(grad, self.ids, self.rows)
        return grad

    def summed(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted distinct ids, their rows of ``dense()``), with each id's
        rows summed in the same order as ``dense`` sums them: bincount adds
        the weights of each bin in input order, starting from 0.0."""
        ids, inverse = _unique(self.ids, self.shape[0])
        width = self.shape[1]
        bins = (inverse.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        sums = np.bincount(bins, weights=self.rows.reshape(-1),
                           minlength=len(ids) * width)
        # bincount gives integers when there is nothing to count.
        return ids, sums.astype(np.float64, copy=False).reshape(len(ids), width)


def _unique(ids: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` of ids in [0, n_rows), without
    sorting all n ids: ``slot`` maps each id to one of its positions, the
    positions that are their id's slot pick the distinct ids, and only those
    are sorted. ``slot`` is never zeroed, as only the entries the ids name
    are read, so the cost does not grow with ``n_rows``."""
    positions = np.arange(len(ids))
    slot = np.empty(n_rows, np.intp)
    slot[ids] = positions
    distinct = np.sort(ids[slot[ids] == positions])
    slot[distinct] = np.arange(len(distinct))
    return distinct, slot[ids]


def tensor(data) -> Tensor:
    return Tensor(data)


def _node(data, vjps: tuple, op: str) -> Tensor:
    """An operation's node. ``data`` is float64 and ``vjps`` a tuple, so
    only a numpy scalar (a 0-d result) is converted, to a 0-d array."""
    node = object.__new__(Tensor)
    node.data = data if type(data) is np.ndarray else np.asarray(data)
    node.vjps = vjps
    node.op = op
    return node


def _require_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise ShapeMismatch(f"{op} expects a 2-d tensor, got shape {x.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    return _node(a_data @ b_data,
                 ((a, lambda g: g @ b_data.T),
                  (b, lambda g: a_data.T @ g)),
                 "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add(matmul(x, w), b)`` as one node, for a bias vector ``b``: the
    same forward expression and the same vjps, so the same floats."""
    x_data, w_data, b_data = x.data, w.data, b.data
    if x_data.ndim != 2 or w_data.ndim != 2 or x_data.shape[1] != len(w_data) \
            or b_data.shape != w_data.shape[1:]:
        raise ShapeMismatch(f"linear: {x.shape} @ {w.shape} + {b.shape}")
    return _node(x_data @ w_data + b_data,
                 ((x, lambda g: g @ w_data.T),
                  (w, lambda g: x_data.T @ g),
                  (b, lambda g: g.sum(axis=0))),
                 "linear")


def transpose(x: Tensor) -> Tensor:
    _require_2d(x, "transpose")
    return _node(x.data.T, ((x, lambda g: g.T),), "transpose")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Identical shapes, or b a vector broadcast over a's rows."""
    if a.shape == b.shape:
        vjp_b = lambda g: g
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        vjp_b = lambda g: g.sum(axis=0)
    else:
        raise ShapeMismatch(f"add: shapes {a.shape} and {b.shape}")
    return _node(a.data + b.data, ((a, lambda g: g), (b, vjp_b)), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul: shapes {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data
    return _node(a_data * b_data,
                 ((a, lambda g: g * b_data), (b, lambda g: g * a_data)), "mul")


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _node(x.data * factor, ((x, lambda g: g * factor),), "scale")


def _expit(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) else;
    # e <= 1, so the numerator max(e, x >= 0) is 1 or e without a select.
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    s = _expit(x.data)
    return _node(s, ((x, lambda g: g * s * (1.0 - s)),), "sigmoid")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _node(np.where(mask, x.data, 0.0), ((x, lambda g: g * mask),), "relu")


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape
    return _node(x.data.sum(), ((x, lambda g: np.full(shape, float(g))),), "sum")


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    """Mean over all elements (axis=None, scalar) or over rows (axis=0,
    keeping a [1, d] shape so matmul still applies)."""
    if axis is None:
        count = x.data.size
        shape = x.data.shape
        return _node(x.data.mean(),
                     ((x, lambda g: np.full(shape, float(g) / count)),),
                     "mean")
    if axis != 0:
        raise ShapeMismatch("mean supports only axis=None or axis=0")
    _require_2d(x, "mean")
    count = x.shape[0]
    return _node(x.data.mean(axis=0, keepdims=True),
                 ((x, lambda g: np.repeat(g, count, axis=0) / count),),
                 "mean0")


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate 2-d tensors along the last axis."""
    if not parts:
        raise ShapeMismatch("concat of zero tensors")
    for part in parts:
        _require_2d(part, "concat")
    rows = parts[0].shape[0]
    if any(part.shape[0] != rows for part in parts):
        raise ShapeMismatch(
            f"concat: row counts differ: {[p.shape for p in parts]}")
    widths = [part.shape[1] for part in parts]
    offsets = np.cumsum([0] + widths)
    vjps = tuple((part, lambda g, lo=lo, hi=hi: g[:, lo:hi])
                 for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]))
    return _node(np.concatenate([p.data for p in parts], axis=1), vjps, "concat")


def _integers(values, error, what: str) -> np.ndarray:
    """``values`` as an int64 array; raise ``error`` if their dtype is not an
    integer one (bool included), which would be truncated in silence. An
    empty list, of dtype float64, passes."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu" and values.size:
        raise error(f"{what} must have an integer dtype, got {values.dtype}")
    return values.astype(np.int64, copy=False)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer id.

    Flat ids ``[n]`` give ``[n, e]``. An id matrix ``[n, k]`` gives
    ``[n, k * e]``: row i is the k table rows of ``ids[i]`` side by side,
    the same as concatenating k flat lookups, one per column.
    """
    _require_2d(table, "embedding_lookup")
    ids = _integers(ids, IndexOutOfVocab, "embedding ids")
    if ids.ndim not in (1, 2):
        raise ShapeMismatch(
            f"embedding_lookup expects a 1-d or 2-d id array, got {ids.shape}")
    vocab, width = table.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexOutOfVocab(
            f"ids must lie in [0, {vocab}), got range "
            f"[{ids.min()}, {ids.max()}]")
    flat = ids.reshape(-1)
    out_shape = (len(ids), width * (ids.shape[1] if ids.ndim == 2 else 1))
    sparse = isinstance(table, Parameter)  # the walk sums dense adjoints

    def vjp(g):
        adjoint = RowSparse(flat, g.reshape(flat.size, width), (vocab, width))
        return adjoint if sparse else adjoint.dense()

    return _node(table.data[flat].reshape(out_shape), ((table, vjp),),
                 "embedding")


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of row-wise softmax against integer labels."""
    _require_2d(logits, "softmax_cross_entropy")
    labels = _integers(labels, ShapeMismatch, "labels")
    n, n_classes = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatch(
            f"labels shape {labels.shape} does not match {n} logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeMismatch(f"labels must lie in [0, {n_classes})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    totals = exp.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    # The labels' log-probabilities alone: shifted - log(total), per row.
    loss = -(shifted[rows, labels] - np.log(totals[:, 0])).sum() / n

    def vjp(g):
        grad = exp / totals
        grad[rows, labels] -= 1.0
        return grad * (float(g) / n)

    return _node(loss, ((logits, vjp),), "softmax_ce")


def grad_reverse(x: Tensor, lam: float) -> Tensor:
    """Identity in the forward pass; multiplies the adjoint by -lam.

    With lam=0 the upstream gradient is exactly zero; nesting two
    reversal layers scales the adjoint by the (positive) product of
    their coefficients.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"reversal coefficient must be finite, got {lam}")
    if lam < 0:
        raise ValueError(f"reversal coefficient must be >= 0, got {lam}")
    if lam == 0.0:
        vjp = lambda g: np.zeros_like(g)
    else:
        vjp = lambda g: -lam * g
    return _node(x.data.copy(), ((x, vjp),), "grad_reverse")


def _topo_order(root: Tensor) -> list[Tensor]:
    """``root`` and the interior nodes it reaches, each after its inputs."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node.vjps:
            if parent.vjps and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into every Parameter the loss reaches.

    ``loss`` must hold a single value. An interior node's adjoint sums
    its contributions and lives for the duration of the walk. A
    contribution into a Parameter goes straight into its gradient G, in
    walk order: x then y make it ``(G + x) + y``, not ``G + (x + y)``,
    which is bitwise ``x + y`` after ``zero_grad`` but may differ in the
    last bits on a second backward without it. No vjp into a constant (a
    leaf that is not a Parameter) is called. Backpropagating two losses
    that share a subgraph sums their parameter gradients.
    """
    if loss.data.size != 1:
        raise NotScalarLoss(f"loss has shape {loss.shape}, expected a scalar")
    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    if isinstance(loss, Parameter):
        loss.accumulate(adjoints[id(loss)])
    for node in reversed(_topo_order(loss)):
        adjoint = adjoints.pop(id(node))
        for parent, vjp in node.vjps:
            if parent.vjps:
                contribution = vjp(adjoint)
                key = id(parent)
                previous = adjoints.get(key)
                adjoints[key] = contribution if previous is None \
                    else previous + contribution
            elif isinstance(parent, Parameter):
                parent.accumulate(vjp(adjoint))


def zero_grads(params) -> None:
    for param in params:
        param.zero_grad()


def finite_difference_check(f, params, h: float = 1e-5) -> float:
    """Compare tape gradients of ``f()`` against central differences.

    ``f`` must be a deterministic callable returning a scalar Tensor
    built from the given parameters. Returns the maximum relative error
    over all parameter components, with the relative denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    zero_grads(params)
    backward(f())
    analytic = [param.grad.copy() for param in params]
    worst = 0.0
    for param, grad in zip(params, analytic):
        flat = param.data.reshape(-1)
        for index in range(flat.size):
            original = flat[index]
            flat[index] = original + h
            plus = float(f().data)
            flat[index] = original - h
            minus = float(f().data)
            flat[index] = original
            numeric = (plus - minus) / (2.0 * h)
            a = grad.reshape(-1)[index]
            error = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, error)
    return worst
