"""Autodiff core: forward semantics, adjoints, gradient checking."""

import math
import re

import numpy as np
import pytest

from mweid import autodiff as ad
from mweid.autodiff import (IndexOutOfVocab, NotScalarLoss, Parameter,
                            ShapeMismatch, backward,
                            finite_difference_check, grad_reverse, zero_grads)
from conftest import bits, dense_lookup, reference_backward, refuse_constant_vjps


def param(data, name="p"):
    return Parameter(np.asarray(data, dtype=float), name)


class TestForward:
    def test_matmul_identity(self):
        b = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.tensor(np.eye(2))
        assert np.array_equal(ad.matmul(eye, b).data, b.data)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.tensor([[0.0]])).data[0, 0] == 0.5

    def test_sigmoid_extreme_inputs_stable(self):
        out = ad.sigmoid(ad.tensor([[-800.0, 800.0]])).data
        assert np.all(np.isfinite(out))
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_relu(self):
        out = ad.relu(ad.tensor([[-1.0, 0.0, 2.0]])).data
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_add_bias_broadcast(self):
        out = ad.add(ad.tensor([[1.0, 2.0], [3.0, 4.0]]), ad.tensor([10.0, 20.0]))
        assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_incompatible(self):
        with pytest.raises(ShapeMismatch):
            ad.add(ad.tensor(np.ones((2, 2))), ad.tensor(np.ones(3)))

    def test_mul_requires_equal_shapes(self):
        with pytest.raises(ShapeMismatch,
                           match=r"mul: shapes \(2, 3\) and \(3,\)"):
            ad.mul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones(3)))

    def test_mean_axis0_keeps_matrix(self):
        out = ad.mean(ad.tensor([[1.0, 3.0], [3.0, 5.0]]), axis=0)
        assert out.shape == (1, 2)
        assert np.array_equal(out.data, [[2.0, 4.0]])

    def test_concat_last_axis(self):
        out = ad.concat([ad.tensor([[1.0]]), ad.tensor([[2.0, 3.0]])])
        assert np.array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_embedding_lookup(self):
        table = ad.tensor([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = ad.embedding_lookup(table, [2, 0])
        assert np.array_equal(out.data, [[4.0, 5.0], [0.0, 1.0]])

    def test_embedding_out_of_vocab(self):
        table = ad.tensor(np.zeros((3, 2)))
        with pytest.raises(IndexOutOfVocab):
            ad.embedding_lookup(table, [3])
        with pytest.raises(IndexOutOfVocab):
            ad.embedding_lookup(table, [[0, 1], [2, 3]])

    def test_window_lookup_equals_concat_of_column_lookups(self):
        # The 2-d gather against its reference: one flat lookup per
        # column, concatenated. Forward equal bitwise; backward sums the
        # same adjoint rows in another order, so it agrees to 1e-12 of
        # the largest entry.
        rng = np.random.default_rng(8)
        ids = rng.integers(0, 6, size=(40, 5))
        ids[::3, 0] = 0  # the pad id, many times over
        weight = rng.standard_normal((40, 5 * 3))
        table = Parameter(rng.standard_normal((6, 3)), "table")

        gathered = ad.embedding_lookup(table, ids)
        ad.backward(ad.sum_all(ad.mul(gathered, ad.tensor(weight))))
        batched_grad = table.grad.copy()

        table.zero_grad()
        reference = ad.concat([ad.embedding_lookup(table, ids[:, k])
                               for k in range(ids.shape[1])])
        ad.backward(ad.sum_all(ad.mul(reference, ad.tensor(weight))))
        assert np.array_equal(gathered.data, reference.data)
        assert np.abs(batched_grad - table.grad).max() \
            <= 1e-12 * np.abs(table.grad).max()

    def test_cross_entropy_uniform_is_ln3(self):
        for label in range(3):
            loss = ad.softmax_cross_entropy(ad.tensor([[0.0, 0.0, 0.0]]), [label])
            assert loss.data == pytest.approx(np.log(3.0), rel=1e-15)

    def test_cross_entropy_label_bounds(self):
        with pytest.raises(ShapeMismatch):
            ad.softmax_cross_entropy(ad.tensor([[0.0, 0.0]]), [2])

    @pytest.mark.parametrize("call, message", [
        (lambda: ad.transpose(ad.tensor([1.0, 2.0])),
         "transpose expects a 2-d tensor, got shape (2,)"),
        (lambda: ad.mean(ad.tensor([[1.0]]), axis=1),
         "mean supports only axis=None or axis=0"),
        (lambda: ad.concat([]), "concat of zero tensors"),
        (lambda: ad.concat([ad.tensor(np.zeros((2, 1))),
                            ad.tensor(np.zeros((3, 1)))]),
         "concat: row counts differ: [(2, 1), (3, 1)]"),
        (lambda: ad.embedding_lookup(ad.tensor(np.zeros((4, 2))),
                                     np.zeros((1, 1, 1), dtype=int)),
         "embedding_lookup expects a 1-d or 2-d id array, got (1, 1, 1)"),
        (lambda: ad.softmax_cross_entropy(ad.tensor(np.zeros((2, 3))), [0]),
         "labels shape (1,) does not match 2 logit rows"),
    ], ids=["not-2d", "mean-axis", "empty-concat", "concat-rows", "id-rank",
            "labels-shape"])
    def test_shape_fault_is_named(self, call, message):
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("x, w, b", [
        (np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2)),
        (np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3)),
        (np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 2))),
        (np.zeros(3), np.zeros((3, 2)), np.zeros(2)),
        (np.zeros((2, 3)), np.zeros(3), np.zeros(())),
    ], ids=["inner", "bias-width", "bias-matrix", "x-1d", "w-1d"])
    def test_linear_shape_faults(self, x, w, b):
        message = f"linear: {x.shape} @ {w.shape} + {b.shape}"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            ad.linear(ad.tensor(x), ad.tensor(w), ad.tensor(b))


class TestIntegerIds:
    # A float or bool id or label would be truncated in silence.
    @pytest.mark.parametrize("ids", [[0.9, 2.7], np.array([True, False]),
                                     np.array([[1.0, 2.0]])])
    def test_embedding_refuses_ids_of_other_dtypes(self, ids):
        dtype = np.asarray(ids).dtype
        with pytest.raises(IndexOutOfVocab, match=f"^embedding ids must have "
                                                  f"an integer dtype, got "
                                                  f"{dtype}$"):
            ad.embedding_lookup(param(np.ones((4, 2))), ids)

    @pytest.mark.parametrize("labels", [[0.5, 2.9], np.array([True, False])])
    def test_cross_entropy_refuses_labels_of_other_dtypes(self, labels):
        dtype = np.asarray(labels).dtype
        with pytest.raises(ShapeMismatch, match=f"^labels must have an "
                                                f"integer dtype, got {dtype}$"):
            ad.softmax_cross_entropy(ad.tensor(np.zeros((2, 3))), labels)

    def test_integer_dtypes_and_empty_lists_pass(self):
        table = param(np.arange(8.0).reshape(4, 2))
        for ids in ([3, 0], np.array([3, 0], np.uint8),
                    np.array([3, 0], np.int32)):
            assert ad.embedding_lookup(table, ids).data.tolist() == \
                [[6.0, 7.0], [0.0, 1.0]]
        assert ad.embedding_lookup(table, []).shape == (0, 2)
        loss = ad.softmax_cross_entropy(ad.tensor(np.zeros((2, 4))),
                                        np.array([1, 3], np.int32))
        assert float(loss.data) == pytest.approx(math.log(4))
        # An empty list passes the dtype check and meets the shape check.
        with pytest.raises(ShapeMismatch, match="labels shape"):
            ad.softmax_cross_entropy(ad.tensor(np.zeros((2, 4))), [])


class TestParameter:
    def test_arrays_are_written_in_place_and_never_rebound(self):
        p = param([[1.0, 2.0]])
        data, grad = p.data, p.grad
        for name in ("data", "grad"):
            with pytest.raises(AttributeError, match=f"^Parameter p: {name} is "
                                                     f"written in place and "
                                                     f"never rebound$"):
                setattr(p, name, np.zeros((1, 2)))
        p.data[...] = [[3.0, 4.0]]
        p.data += 1.0  # in place, then bound to the array it wrote
        p.grad[0, 1] = 5.0
        p.grad *= 2.0
        assert p.data is data and p.grad is grad
        assert p.data.tolist() == [[4.0, 5.0]]
        assert p.grad.tolist() == [[0.0, 10.0]]

    def test_an_arena_holds_values_and_gradients_as_views(self):
        w, b = param([[1.0, 2.0], [3.0, 4.0]], "w"), param([5.0, 6.0], "b")
        b.grad[...] = [7.0, 8.0]
        arena = ad.Arena([w, b])
        assert arena.data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert arena.grad.tolist() == [0.0] * 4 + [7.0, 8.0]
        assert (w.shape, b.shape) == ((2, 2), (2,))
        arena.data[4] = -1.0
        w.accumulate(np.array([[0.0, 0.0], [9.0, 0.0]]))
        assert b.data.tolist() == [-1.0, 6.0]
        assert arena.grad[2] == 9.0 and w.rows is ad.ALL_ROWS
        arena.zero_grad()
        assert not w.grad.any() and not b.grad.any()
        assert w.rows.size == 0 and b.rows.size == 0


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        p = param([[1.0, -2.0], [3.0, 4.0]])
        backward(ad.sum_all(p))
        assert np.array_equal(p.grad, np.ones((2, 2)))

    def test_grad_of_sum_of_squares(self):
        p = param([[1.0, -2.0, 0.5]])
        backward(ad.sum_all(ad.mul(p, p)))
        assert np.allclose(p.grad, 2 * p.data, rtol=0, atol=0)

    def test_not_scalar_loss(self):
        p = param([[1.0, 2.0]])
        with pytest.raises(NotScalarLoss):
            backward(ad.mul(p, p))

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        w1 = param(rng.uniform(-1, 1, (3, 4)), "w1")
        b1 = param(rng.uniform(-1, 1, 4), "b1")
        w2 = param(rng.uniform(-1, 1, (4, 2)), "w2")
        x = ad.tensor(rng.uniform(-1, 1, (5, 3)))
        labels = np.array([0, 1, 1, 0, 1])

        def f():
            hidden = ad.relu(ad.add(ad.matmul(x, w1), b1))
            return ad.softmax_cross_entropy(ad.matmul(hidden, w2), labels)

        error = finite_difference_check(f, [w1, b1, w2], h=1e-5)
        assert error < 1e-6

    def test_gradient_linearity(self):
        rng = np.random.default_rng(5)
        p = param(rng.uniform(-1, 1, (2, 3)))

        def f():
            return ad.sum_all(ad.sigmoid(p))

        def g():
            return ad.mean(ad.mul(p, p))

        zero_grads([p])
        backward(f())
        grad_f = p.grad.copy()
        zero_grads([p])
        backward(g())
        grad_g = p.grad.copy()
        zero_grads([p])
        backward(ad.add(ad.scale(f(), 2.5), ad.scale(g(), -3.0)))
        combined = p.grad.copy()
        assert np.allclose(combined, 2.5 * grad_f - 3.0 * grad_g,
                           rtol=1e-12, atol=1e-15)

    def test_deterministic_gradients(self):
        def run():
            rng = np.random.default_rng(11)
            w = param(rng.uniform(-1, 1, (4, 4)), "w")
            x = ad.tensor(rng.uniform(-1, 1, (3, 4)))
            backward(ad.sum_all(ad.sigmoid(ad.matmul(x, w))))
            return w.grad

        assert np.array_equal(run(), run())

    def test_combined_backward_equals_two_passes(self):
        rng = np.random.default_rng(13)
        w = param(rng.uniform(-1, 1, (3, 3)), "w")
        x = ad.tensor(rng.uniform(-1, 1, (2, 3)))
        shared = ad.relu(ad.matmul(x, w))
        loss_a = ad.sum_all(ad.sigmoid(shared))
        loss_b = ad.mean(ad.mul(shared, shared))
        zero_grads([w])
        backward(loss_a)
        backward(loss_b)
        separate = w.grad.copy()
        zero_grads([w])
        backward(ad.add(loss_a, loss_b))
        combined = w.grad.copy()
        assert np.allclose(separate, combined, rtol=1e-12, atol=1e-15)

    def test_grad_accumulates_across_backward_calls(self):
        p = param([[1.0, 2.0]])
        backward(ad.sum_all(p))
        backward(ad.sum_all(p))
        assert np.array_equal(p.grad, np.full((1, 2), 2.0))


class TestRowSparseAdjoint:
    # The sparse adjoint against the dense rule: gradients equal bitwise.
    rng = np.random.default_rng(21)
    table_data = rng.standard_normal((7, 3))
    ids_a = np.array([[0, 4, 4], [2, 0, 6], [4, 4, 0]])  # repeats, pad id 0
    ids_b = np.array([5, 4, 5, 0])
    weight_a = rng.standard_normal((3, 9))
    weight_b = rng.standard_normal((4, 3))

    def two_lookups(self, lookup, table, through=lambda t: t):
        source = through(table)
        a = ad.mul(lookup(source, self.ids_a), ad.tensor(self.weight_a))
        b = ad.mul(lookup(source, self.ids_b), ad.tensor(self.weight_b))
        return ad.add(ad.sum_all(ad.sigmoid(a)), ad.sum_all(ad.mul(b, b)))

    def gradients(self, loss_of):
        sparse = param(self.table_data.copy(), "table")
        backward(loss_of(ad.embedding_lookup, sparse))
        dense = param(self.table_data.copy(), "table")
        backward(loss_of(dense_lookup, dense))
        return sparse, dense

    def test_two_lookups_of_one_table_sum(self):
        sparse, dense = self.gradients(self.two_lookups)
        assert np.array_equal(sparse.grad, dense.grad)
        # Each lookup's adjoint goes into the table's gradient on its own.
        assert sparse.rows.tolist() == [0, 2, 4, 5, 6]
        error = finite_difference_check(
            lambda: self.two_lookups(ad.embedding_lookup, sparse), [sparse])
        assert error < 1e-7

    def test_lookup_from_non_leaf_table_is_densified(self):
        def loss_of(lookup, table):
            return self.two_lookups(lookup, table,
                                    through=lambda t: ad.scale(t, 2.0))

        sparse, dense = self.gradients(loss_of)
        assert np.array_equal(sparse.grad, dense.grad)
        assert not sparse.grad[[1, 3]].any()
        error = finite_difference_check(
            lambda: loss_of(ad.embedding_lookup, sparse), [sparse])
        assert error < 1e-7

    def test_one_lookup_from_non_leaf_table(self):
        def loss_of(lookup, table):
            rows = lookup(ad.scale(table, 2.0), self.ids_a)
            return ad.sum_all(ad.sigmoid(ad.mul(rows, ad.tensor(self.weight_a))))

        sparse, dense = self.gradients(loss_of)
        assert np.array_equal(bits(sparse.grad), bits(dense.grad))
        assert not sparse.grad[[1, 3, 5]].any()
        # Only a Parameter table is handed a RowSparse adjoint.
        lookup = ad.embedding_lookup(ad.scale(sparse, 2.0), self.ids_a)
        ((_, vjp),) = lookup.vjps
        assert type(vjp(np.ones(lookup.shape))) is np.ndarray
        error = finite_difference_check(
            lambda: loss_of(ad.embedding_lookup, sparse), [sparse])
        assert error < 1e-7

    def test_backward_calls_accumulate_as_dense_rule(self):
        sparse = param(self.table_data.copy(), "table")
        dense = param(self.table_data.copy(), "table")
        for ids, weight in ((self.ids_a, self.weight_a),
                            (self.ids_b, self.weight_b)):
            for table, lookup in ((sparse, ad.embedding_lookup),
                                  (dense, dense_lookup)):
                out = ad.mul(lookup(table, ids), ad.tensor(weight))
                backward(ad.sum_all(ad.sigmoid(out)))
        assert np.array_equal(sparse.grad, dense.grad)
        assert sparse.rows.tolist() == [0, 2, 4, 5, 6]
        assert not sparse.grad[[1, 3]].any()
        sparse.zero_grad()
        assert not sparse.grad.any() and sparse.rows.size == 0

    def test_rows_and_grad_as_union1d_gives(self):
        # The first adjoint after zero_grad takes summed()'s ids as its rows;
        # the reference unions every adjoint's ids into the empty rows.
        rng = np.random.default_rng(22)
        table = param(self.table_data.copy(), "table")
        rows, grad = np.zeros(0, dtype=np.int64), table.grad.copy()
        for ids in (self.ids_b, self.ids_a):
            adjoint = ad.RowSparse(ids.reshape(-1),
                                   rng.standard_normal((ids.size, 3)),
                                   table.shape)
            table.accumulate(adjoint)
            summed_ids, sums = adjoint.summed()
            grad[summed_ids] += sums
            rows = np.union1d(rows, summed_ids)
            assert table.rows.dtype == rows.dtype
            assert np.array_equal(table.rows, rows)
            assert table.grad.tobytes() == grad.tobytes()

    def test_dense_adjoint_after_sparse_rows_zeroes_everything(self):
        table = param(self.table_data.copy(), "table")
        backward(ad.sum_all(ad.embedding_lookup(table, self.ids_b)))
        assert table.rows.tolist() == [0, 4, 5]
        backward(ad.sum_all(table))
        assert table.rows is ad.ALL_ROWS
        table.zero_grad()
        assert not table.grad.any() and table.rows.size == 0


def _masked_expit(x):
    """The form ``_expit`` replaced: each sign's branch on its own entries,
    scattered back through a boolean mask."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    ex = np.exp(x[~positive])
    out[~positive] = ex / (1.0 + ex)
    return out


class TestFastPathsMatchReferences:
    # Each fast path against the form it replaced, bit for bit.

    @pytest.mark.parametrize("case", ["random", "pad", "one-id", "last-row",
                                      "empty"])
    def test_summed_is_dense_bitwise(self, case):
        rng = np.random.default_rng(31)
        vocab, width, n = 50, 6, 400
        ids = {"random": rng.integers(0, vocab, n),
               "pad": np.where(rng.random(n) < 0.6, 0,
                               rng.integers(1, vocab, n)),
               "one-id": np.full(n, 7),
               "last-row": np.concatenate([rng.integers(0, vocab, n - 40),
                                           np.full(40, vocab - 1)]),
               "empty": np.zeros(0, dtype=np.int64)}[case]
        # Magnitudes over 16 decades: a sum's bits depend on its order.
        rows = (rng.standard_normal((len(ids), width))
                * 10.0 ** rng.integers(-8, 8, (len(ids), 1)))
        adjoint = ad.RowSparse(ids, rows, (vocab, width))
        summed_ids, sums = adjoint.summed()
        dense = adjoint.dense()
        assert summed_ids.tolist() == sorted(set(ids.tolist()))
        assert sums.dtype == np.float64
        assert sums.shape == (len(summed_ids), width)
        assert np.array_equal(bits(sums), bits(dense[summed_ids]))
        if len(ids):
            reversed_sums = ad.RowSparse(ids[::-1], rows[::-1],
                                         (vocab, width)).dense()
            assert not np.array_equal(reversed_sums, dense)

    @pytest.mark.parametrize("case", ["random", "large-table", "empty",
                                      "one-id", "all-equal", "ends",
                                      "one-row-table"])
    def test_unique_is_numpy_unique(self, case):
        rng = np.random.default_rng(32)
        n_rows, ids = {
            "random": (50, rng.integers(0, 50, 300)),
            "large-table": (100_000, rng.integers(0, 100_000, 300)),
            "empty": (50, np.zeros(0, dtype=np.int64)),
            "one-id": (50, np.array([17])),
            "all-equal": (50, np.full(40, 9)),
            "ends": (50, rng.permutation(np.repeat([0, 49, 7], 5))),
            "one-row-table": (1, np.zeros(6, dtype=np.int64))}[case]
        distinct, inverse = ad._unique(ids, n_rows)
        want_ids, want_inverse = np.unique(ids, return_inverse=True)
        assert distinct.dtype == want_ids.dtype
        assert np.array_equal(distinct, want_ids)
        assert np.array_equal(inverse, want_inverse)

    def test_negative_zero_rows_sum_to_positive_zero(self):
        # Row 1 takes only -0.0: its sum starts from +0.0, so it is +0.0
        # whether the adjoint is assigned (first after zero_grad) or added.
        rows = np.array([[-0.0, 2.0], [-0.0, -0.0], [-0.0, -0.0]])
        adjoint = ad.RowSparse(np.array([3, 1, 1]), rows, (4, 2))
        table = param(np.ones((4, 2)), "table")
        for _ in range(2):
            table.accumulate(adjoint)
            assert np.array_equal(bits(table.grad[1]), bits(np.zeros(2)))
            assert np.array_equal(bits(table.grad[[0, 2]]),
                                  bits(np.zeros((2, 2))))
        assert table.rows.tolist() == [1, 3]
        assert np.array_equal(bits(table.grad),
                              bits(adjoint.dense() + adjoint.dense()))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_linear_is_add_of_matmul_bitwise(self, rows):
        # One row is what the discriminator sees at batch 1.
        rng = np.random.default_rng(33 + rows)

        def spread(*shape):  # magnitudes over 16 decades
            return (rng.standard_normal(shape)
                    * 10.0 ** rng.integers(-8, 8, shape))

        x, w, b = ad.tensor(spread(rows, 5)), param(spread(5, 3), "w"), \
            param(spread(3), "b")
        g = spread(rows, 3)
        node = ad.linear(x, w, b)
        product = ad.matmul(x, w)
        summed = ad.add(product, b)
        assert node.op == "linear"
        assert np.array_equal(bits(node.data), bits(summed.data))
        assert [parent for parent, _ in node.vjps] == [x, w, b]
        to_x, to_w, to_b = (vjp for _, vjp in node.vjps)
        g_product = summed.vjps[0][1](g)
        assert np.array_equal(bits(to_x(g)), bits(product.vjps[0][1](g_product)))
        assert np.array_equal(bits(to_w(g)), bits(product.vjps[1][1](g_product)))
        assert np.array_equal(bits(to_b(g)), bits(summed.vjps[1][1](g)))

    def test_expit_is_the_masked_form_bitwise(self):
        rng = np.random.default_rng(32)
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0,
                            1e308, -1e308, np.inf, -np.inf])
        spread = rng.standard_normal(990) * 10.0 ** rng.integers(-4, 4, 990)
        for x in (special, spread.reshape(30, 33),
                  np.concatenate([special, spread]), *map(np.array, special)):
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                fast = ad._expit(x)
            assert fast.shape == x.shape
            assert np.array_equal(bits(fast), bits(_masked_expit(x)))
        assert ad._expit(special)[[0, 1, 8, 9]].tolist() == [0.5, 0.5, 1.0, 0.0]

    def test_backward_skips_constants_with_equal_gradients(self):
        rng = np.random.default_rng(33)
        const = ad.tensor(rng.standard_normal((3, 4)))
        shared = ad.tensor(rng.standard_normal(4))
        w_data, v_data = rng.standard_normal((4, 2)), rng.standard_normal((3, 4))

        def loss_and_params():
            # Constants meet parameters in mul, add, both sides of matmul and
            # concat; ``const`` feeds five nodes.
            w, v = param(w_data, "w"), param(v_data, "v")
            hidden = ad.relu(ad.add(ad.mul(v, const), shared))
            left = ad.matmul(const, ad.transpose(v))
            right = ad.matmul(ad.add(hidden, ad.mul(hidden, const)), w)
            mixed = ad.concat([right, ad.matmul(left, const), const])
            return ad.sum_all(ad.sigmoid(mixed)), [w, v]

        loss, params = loss_and_params()
        assert refuse_constant_vjps(loss) == 6
        backward(loss)
        reference_loss, reference_params = loss_and_params()
        reference_backward(reference_loss)
        for fast, slow in zip(params, reference_params):
            assert fast.grad.any(), fast.name
            assert np.array_equal(bits(fast.grad), bits(slow.grad)), fast.name

    def test_topo_order_lists_no_constant_but_the_root(self):
        # The graph of test_backward_skips_constants_with_equal_gradients.
        rng = np.random.default_rng(33)
        const = ad.tensor(rng.standard_normal((3, 4)))
        shared = ad.tensor(rng.standard_normal(4))
        w = param(rng.standard_normal((4, 2)), "w")
        v = param(rng.standard_normal((3, 4)), "v")
        hidden = ad.relu(ad.add(ad.mul(v, const), shared))
        left = ad.matmul(const, ad.transpose(v))
        right = ad.matmul(ad.add(hidden, ad.mul(hidden, const)), w)
        mixed = ad.concat([right, ad.matmul(left, const), const])
        loss = ad.sum_all(ad.sigmoid(mixed))
        order = ad._topo_order(loss)
        assert order[-1] is loss
        assert len(order) == len({id(node) for node in order}) == 12
        assert all(node.vjps for node in order)
        for root in (ad.tensor(2.0), w):
            assert ad._topo_order(root) == [root]

    def test_scalar_results_are_0d_arrays(self):
        x = param([[1.0, -2.0], [0.5, 3.0]])
        loss = ad.softmax_cross_entropy(x, [1, 0])
        for node in (ad.sum_all(x), ad.mean(x), loss, ad.add(loss, loss),
                     ad.mul(loss, loss), ad.scale(loss, 2.0)):
            assert type(node.data) is np.ndarray and node.data.shape == ()
            assert node.data.dtype == np.float64

    def test_a_leaf_loss(self):
        backward(ad.tensor(3.0))  # a constant: nothing to accumulate
        p = param([2.0])
        backward(p)
        assert p.grad.tolist() == [1.0]


class TestGradReverse:
    def test_forward_identity_for_any_lambda(self):
        x = ad.tensor([[1.0, -2.0, 3.0]])
        for lam in (0.0, 0.5, 5.0):
            assert np.array_equal(grad_reverse(x, lam).data, x.data)

    def test_lambda_zero_annihilates_gradient(self):
        p = param([[2.0, -3.0]])
        backward(ad.sum_all(ad.mul(grad_reverse(p, 0.0), p)))
        # Only the direct (second-factor) path contributes: d(sum(x*x))
        # through one frozen branch is x, not 2x.
        assert np.array_equal(p.grad, p.data)

    def test_reversal_negates_analytic_derivative(self):
        p = param([[3.0]])
        rev = grad_reverse(p, 1.0)
        backward(ad.sum_all(ad.mul(rev, rev)))
        assert p.grad[0, 0] == -6.0

    def test_nested_reversals_scale_positively(self):
        p = param([[3.0]])
        inner = grad_reverse(grad_reverse(p, 2.0), 0.5)
        backward(ad.sum_all(inner))
        assert p.grad[0, 0] == 1.0  # (-0.5) * (-2.0) * 1

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            grad_reverse(ad.tensor([[1.0]]), -0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match=f"^reversal coefficient must be "
                                             f"finite, got {lam}$"):
            grad_reverse(ad.tensor([[1.0]]), lam)


class TestFiniteDifference:
    def test_linear_function_near_exact(self):
        p = param([[1.0, -2.0, 3.0]])
        error = finite_difference_check(lambda: ad.sum_all(p), [p])
        assert error < 1e-10

    def test_sigmoid_chain(self):
        rng = np.random.default_rng(17)
        p = param(rng.uniform(-1, 1, (2, 3)))
        error = finite_difference_check(
            lambda: ad.sum_all(ad.sigmoid(ad.sigmoid(p))), [p])
        assert error < 1e-6

    def test_hard_step_negative_control_fails(self):
        # A true step has an almost-everywhere-zero derivative, so its
        # surrogate adjoint must disagree with finite differences.
        from mweid.inhibition import heaviside_surrogate
        p = param([[0.3, -0.4, 0.8]])
        error = finite_difference_check(
            lambda: ad.sum_all(heaviside_surrogate(p, 4.0)), [p])
        assert error > 0.9
