"""Autodiff primitives, init, Adam, checkpoints, and the gradient checker."""

import threading
import tracemalloc

import numpy as np
import pytest

import dgsum.numeric as nm
from dgsum.numeric import tensor
from dgsum.errors import ConfigError, DataError, NumericError, ShapeError
from oracles import (adam_step_oracle, adam_two_step_oracle, band_attention_oracle, exp,
                     gather_rows_dense_oracle, log, segment_sum)

RNG = np.random.default_rng(12345)


def rand_tensor(*shape, rg=True):
    return nm.Tensor(RNG.normal(size=shape), requires_grad=rg)


def check(loss_fn, params, tol=1e-6, **kw):
    err = nm.grad_check(loss_fn, params, **kw)
    assert err < tol, f"gradient check failed: rel err {err:.3e} >= {tol}"


class TestPrimitiveGradients:
    def test_matmul(self):
        a = rand_tensor(3, 4)
        b = rand_tensor(4, 2)
        check(lambda: nm.sum_(nm.mul(nm.matmul(a, b), rand_const(3, 2))), {"a": a, "b": b})

    def test_add_broadcast(self):
        a = rand_tensor(3, 4)
        b = rand_tensor(4)
        check(lambda: nm.sum_(nm.power(nm.add(a, b), 2.0)), {"a": a, "b": b})

    def test_mul_broadcast_column(self):
        a = rand_tensor(5, 3)
        b = rand_tensor(5, 1)
        check(lambda: nm.sum_(nm.mul(a, b)), {"a": a, "b": b})

    def test_div(self):
        a = rand_tensor(4)
        b = nm.Tensor(RNG.uniform(1.0, 2.0, size=4), requires_grad=True)
        check(lambda: nm.sum_(nm.div(a, b)), {"a": a, "b": b})

    def test_softmax(self):
        a = rand_tensor(3, 5)
        w = rand_const(3, 5)
        check(lambda: nm.sum_(nm.mul(nm.softmax(a), w)), {"a": a})

    def test_leaky_relu(self):
        a = rand_tensor(6, 3)
        check(lambda: nm.sum_(nm.leaky_relu(a, 0.2)), {"a": a})

    def test_elu(self):
        a = rand_tensor(6, 3)
        check(lambda: nm.sum_(nm.mul(nm.elu(a), rand_const(6, 3))), {"a": a})

    def test_relu(self):
        a = rand_tensor(6, 3)
        check(lambda: nm.sum_(nm.relu(a)), {"a": a})

    def test_mean_axis(self):
        a = rand_tensor(4, 3)
        check(lambda: nm.sum_(nm.power(nm.mean(a, axis=0), 2.0)), {"a": a})

    def test_mean_all(self):
        a = rand_tensor(4, 3)
        check(lambda: nm.mean(nm.power(a, 2.0)), {"a": a})

    def test_concat_and_slice(self):
        a = rand_tensor(2, 3)
        b = rand_tensor(4, 3)
        w = rand_const(6, 3)

        def loss():
            c = nm.concat([a, b], axis=0)
            return nm.sum_(nm.mul(nm.slice_axis(c, 0, 1, 5), nm.slice_axis(w, 0, 1, 5)))

        check(loss, {"a": a, "b": b})

    def test_gather_rows(self):
        a = rand_tensor(5, 3)
        idx = np.array([0, 2, 2, 4])
        check(lambda: nm.sum_(nm.power(nm.gather_rows(a, idx), 2.0)), {"a": a})

    def test_segment_sum(self):
        a = rand_tensor(6, 3)
        indptr = np.array([0, 1, 4, 6])
        check(lambda: nm.sum_(nm.mul(segment_sum(a, indptr), rand_const(3, 3))), {"a": a})

    def test_masked_fill(self):
        a = rand_tensor(4, 4)
        mask = RNG.random((4, 4)) < 0.3
        check(lambda: nm.sum_(nm.power(nm.masked_fill(a, mask, -5.0), 2.0)), {"a": a})

    def test_layer_norm(self):
        x = rand_tensor(4, 6)
        g = rand_tensor(6)
        b = rand_tensor(6)
        w = rand_const(4, 6)
        check(lambda: nm.sum_(nm.mul(nm.layer_norm(x, g, b), w)),
              {"x": x, "g": g, "b": b})

    def test_dropout(self):
        a = rand_tensor(8, 8)

        def loss():
            rng = np.random.default_rng(7)  # re-seeded per call: deterministic
            return nm.sum_(nm.dropout(a, 0.4, rng, train=True))

        check(loss, {"a": a})

    def test_cosine_sim(self):
        u = rand_tensor(5)
        v = rand_tensor(5)
        check(lambda: nm.cosine_sim(u, v), {"u": u, "v": v})

    def test_cross_entropy(self):
        logits = rand_tensor(4, 6)
        targets = np.array([1, 3, 0, 5])
        check(lambda: nm.cross_entropy_smoothed(logits, targets, 0.1), {"l": logits})

    def test_transpose_reshape(self):
        a = rand_tensor(3, 4)
        check(lambda: nm.sum_(nm.power(nm.reshape(nm.transpose(a), (2, 6)), 2.0)),
              {"a": a})

    def test_exp_log(self):
        a = nm.Tensor(RNG.uniform(0.5, 2.0, size=5), requires_grad=True)
        check(lambda: nm.sum_(log(exp(a))), {"a": a})

    @pytest.mark.parametrize("sa,sb", [((3, 2, 4, 5), (3, 2, 5, 2)),
                                       ((3, 2, 4, 5), (1, 2, 5, 2)),
                                       ((2, 3, 4), (4, 2)),
                                       ((4, 5), (2, 5, 3))])
    def test_matmul_stacked_and_broadcast(self, sa, sb):
        a, b = rand_tensor(*sa), rand_tensor(*sb)
        probe = rand_const(*np.broadcast_shapes(sa[:-2], sb[:-2]), sa[-2], sb[-1])
        check(lambda: nm.sum_(nm.mul(nm.matmul(a, b), probe)), {"a": a, "b": b})

    @pytest.mark.parametrize("shape,axes", [((2, 3, 4, 5), (0, 2, 1, 3)),
                                            ((2, 3, 4), (1, 2, 0)),
                                            ((3, 4), None)])
    def test_transpose_axes(self, shape, axes):
        a = rand_tensor(*shape)
        out = nm.transpose(a, axes)
        assert np.array_equal(out.data, np.transpose(a.data, axes))
        probe = rand_const(*out.shape)
        check(lambda: nm.sum_(nm.mul(nm.transpose(a, axes), probe)), {"a": a})


def rand_const(*shape):
    return nm.Tensor(np.random.default_rng(99).normal(size=shape))


DTYPES = {"double": np.float64, "single": np.float32}


def seeded_leaves(seed, *shapes, dtype=np.float64):
    """Leaves from their own generator, so the tests that draw from ``RNG``
    after them see the same values."""
    rng = np.random.default_rng(seed)
    return [nm.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
            for shape in shapes]


def one_key_row_mask(n):
    """``encoder_mask`` with a window of 1 and a delimiter at 2, whose first
    row may attend to key 3 only."""
    from oracles import encoder_mask
    m = encoder_mask(n, 1, [2])
    m[0] = nm.MASK_FILL
    m[0, 3] = 0.0
    return m


def heads(x, h, batch):
    """Rows ``x`` [batch·n, d] or [batch, n, d] as [batch, h, n, d/h]: the
    strided view the attention kernel takes of its operands."""
    return x.reshape(batch, -1, h, x.shape[-1] // h).swapaxes(1, 2)


def unheads(x, shape):
    return x.swapaxes(1, 2).reshape(shape)


class TestAttentionWeights:
    """``attention`` against the matmul/mul/add/softmax/matmul chain it
    replaces, run on leaves that wrap the head views the kernel takes of its
    rows: the attended values and the q, k and v gradients must be equal,
    not merely close."""

    @staticmethod
    def chain(q, k, v, h, mask, probe):
        """(out, dq, dk, dv) as rows, from the chain over head views."""
        kb = k.shape[0] if k.ndim == 3 else 1
        qh, kt, vh = (nm.Tensor(x, requires_grad=True) for x in (
            heads(q, h, kb), heads(k, h, kb).swapaxes(-1, -2), heads(v, h, kb)))
        scores = nm.mul(nm.matmul(qh, kt), 1.0 / np.sqrt(q.shape[1] // h))
        if mask is not None:
            scores = nm.add(scores, mask)
        out = nm.matmul(nm.softmax(scores), vh)
        nm.sum_(nm.mul(out, heads(probe, h, kb))).backward()
        return (unheads(out.data, q.shape), unheads(qh.grad, q.shape),
                unheads(kt.grad.swapaxes(-1, -2), k.shape), unheads(vh.grad, v.shape))

    @staticmethod
    def kernel(q, k, v, h, mask, probe):
        leaves = [nm.Tensor(x, requires_grad=True) for x in (q, k, v)]
        out = nm.attention(*leaves, h, mask)
        nm.sum_(nm.mul(out, probe)).backward()
        return (out.data,) + tuple(t.grad for t in leaves)

    @pytest.mark.parametrize("b,h", [(1, 1), (1, 4), (3, 1), (3, 4)])
    @pytest.mark.parametrize("k_batch", ["own", "broadcast"])
    @pytest.mark.parametrize("mask", ["none", "causal", "encoder"])
    def test_equals_composed_chain(self, b, h, k_batch, mask):
        """Query rows [b·n, d] over keys of their own batch [b, n, d], or over
        keys [n, d] that all b·n rows share; those rows form one batch, so
        the mask of one batch's n rows is tiled over the b batches."""
        from dgsum.text_model import causal_mask
        n, dh = 6, 3
        mask_add = {"none": None, "causal": causal_mask(n),
                    "encoder": one_key_row_mask(n)}[mask]
        kv_shape = (b, n, h * dh) if k_batch == "own" else (n, h * dh)
        if k_batch == "broadcast" and mask_add is not None:
            mask_add = np.tile(mask_add, (b, 1))
        q, k = RNG.normal(size=(b * n, h * dh)), RNG.normal(size=kv_shape)
        v = np.random.default_rng(20).normal(size=kv_shape)
        probe = rand_const(b * n, h * dh).data
        results = [fn(q, k, v, h, mask_add, probe) for fn in (self.kernel, self.chain)]
        for name, got, ref in zip(("out", "dq", "dk", "dv"), *results):
            assert got.shape == ref.shape, name
            assert np.array_equal(got, ref), name
        if mask == "encoder":  # row 0 of each batch weighs key 3 alone, by exactly 1.0
            assert np.array_equal(results[0][0][::n],
                                  np.broadcast_to(v[..., 3, :], (b, h * dh)))

    def test_grad_check(self):
        q = rand_tensor(12, 9)
        k = rand_tensor(6, 9)
        v, = seeded_leaves(21, (6, 9))
        probe = rand_const(12, 9)
        mask = np.tile(one_key_row_mask(6), (2, 1))
        check(lambda: nm.sum_(nm.mul(nm.attention(q, k, v, 3, mask), probe)),
              {"q": q, "k": k, "v": v})

    def test_shape_error_names_the_kernel(self):
        for shapes, n_heads in [
                (((4, 6), (1, 4, 8), (1, 4, 8)), 2),     # q width != key width
                (((4, 6), (1, 5, 6), (1, 4, 6)), 2),     # 5 keys, 4 values
                (((5, 6), (2, 4, 6), (2, 4, 6)), 2),     # 5 query rows in 2 key batches
                (((4, 6), (1, 4, 6), (1, 4, 6)), 4),     # width 6 in 4 heads
                (((4, 6), (1, 4, 6), (1, 4, 6)), 0),
                (((2, 2, 6), (1, 4, 6), (1, 4, 6)), 2),  # queries not rows
                (((4, 6), (1, 1, 4, 6), (1, 1, 4, 6)), 2)]:
            q, k, v = seeded_leaves(23, *shapes)
            with pytest.raises(ShapeError, match="^attention: "):
                nm.attention(q, k, v, n_heads)


class TestLinear:
    """``linear`` against the matmul/add chain it replaces in the text model:
    output and gradients must be equal, not merely close."""

    @staticmethod
    def chain(x, w, b=None):
        y = nm.matmul(x, w)
        return y if b is None else nm.add(y, b)

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_equals_matmul_add_chain(self, precision, x_shape, bias):
        dtype = DTYPES[precision]
        x, w, b = seeded_leaves(7, x_shape, (4, 3), (3,), dtype=dtype)
        b = b if bias else None
        leaves = [t for t in (x, w, b) if t is not None]
        probe = np.random.default_rng(8).normal(size=x_shape[:-1] + (3,)).astype(dtype)
        results = []
        for fn in (nm.linear, self.chain):
            for t in leaves:
                t.zero_grad()
            y = fn(x, w, b)
            # relu hands y a gradient with -0.0 entries where probe < 0
            nm.sum_(nm.mul(nm.relu(y), probe)).backward()
            results.append([y.data] + [t.grad for t in leaves])
        for got, ref in zip(*results):
            assert got.dtype == ref.dtype == dtype
            assert np.array_equal(got, ref)

    def test_grad_check(self):
        x, w, b = seeded_leaves(3, (2, 5, 4), (4, 3), (3,))
        probe = rand_const(2, 5, 3)
        check(lambda: nm.sum_(nm.mul(nm.linear(x, w, b), probe)), {"x": x, "w": w, "b": b})

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((5, 4), (3, 3), None),      # inner sizes differ
        ((5, 4), (4, 3), (4,)),      # bias of the input width
        ((5, 4), (4, 3), (1, 3)),    # bias with a row axis
        ((4,), (4, 3), None),        # no row axis
        ((5, 4), (2, 4, 3), None)])  # stacked weights
    def test_shape_error_names_the_primitive(self, x_shape, w_shape, b_shape):
        x, w, b = seeded_leaves(4, x_shape, w_shape, b_shape or ())
        with pytest.raises(ShapeError, match="linear"):
            nm.linear(x, w, None if b_shape is None else b)


class TestGradientOwnership:
    """A backward hands ``_accum`` only arrays it holds nowhere else, so a
    gradient kept without a copy is never another tensor's gradient or data."""

    @staticmethod
    def assert_apart(arrays):
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_one_tensor_twice_into_add(self):
        x, w = seeded_leaves(5, (3, 4), (4, 2))
        probe = rand_const(3, 2).data
        h = nm.linear(x, w)
        nm.sum_(nm.mul(nm.add(h, h), probe)).backward()
        assert np.array_equal(x.grad, (2.0 * probe) @ w.data.T)
        assert np.array_equal(w.grad, x.data.T @ (2.0 * probe))
        self.assert_apart([x.grad, w.grad, x.data, w.data, probe])

    def test_leaf_used_in_three_places(self):
        a, = seeded_leaves(6, (4, 4))
        probe, rows = rand_const(4, 4).data, np.array([3, 0, 3])

        def loss():
            return nm.add(nm.sum_(nm.mul(nm.matmul(a, a), probe)),
                          nm.sum_(nm.relu(nm.gather_rows(a, rows))))

        check(loss, {"a": a})
        a.zero_grad()
        loss().backward()
        used = np.zeros_like(a.data)
        np.add.at(used, rows, a.data[rows] > 0)
        expected = probe @ a.data.T + a.data.T @ probe + used
        assert np.allclose(a.grad, expected, rtol=1e-12, atol=1e-12)
        self.assert_apart([a.grad, a.data, probe])

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("prior", [False, True])
    def test_gather_rows_equals_dense_scatter(self, precision, prior):
        """Repeated rows, 1-d and 2-d indices, gathered from a table whose
        gradient does or does not exist yet: the row-sparse scatter gives
        the bits of the full-size one."""
        dtype = DTYPES[precision]
        rng = np.random.default_rng(11)
        table = nm.Tensor(rng.normal(size=(9, 3)).astype(dtype), requires_grad=True)
        rows1, rows2 = np.array([6, 1, 1, 3, 6, 6]), np.array([[1, 5], [1, 1], [8, 5]])
        probes = [rng.normal(size=s).astype(dtype) for s in ((6, 3), (3, 2, 3), (9, 3))]
        results = []
        for gather in (nm.gather_rows, gather_rows_dense_oracle):
            table.zero_grad()
            g1, g2 = gather(table, rows1), gather(table, rows2)
            loss = nm.add(nm.sum_(nm.mul(g1, probes[0])), nm.sum_(nm.mul(g2, probes[1])))
            if prior:  # backward runs the elu first: the table's first gradient
                loss = nm.add(loss, nm.sum_(nm.mul(nm.elu(table), probes[2])))
            loss.backward()
            results.append(table.grad)
        assert np.array_equal(*results)
        assert results[0].dtype == dtype
        ungathered = results[0][[0, 2, 4, 7]]
        assert not np.all(ungathered == 0.0) if prior else np.all(ungathered == 0.0)


class TestBandAttention:
    """``band_attention`` against the dense-mask path it replaces in the
    encoder: ``attention`` of the same rows under the encoder mask."""

    @staticmethod
    def operands(h, n, dh=3, seed=0):
        """Query, key and value rows [n, h·dh]."""
        rng = np.random.default_rng(seed)
        return [nm.Tensor(rng.normal(size=(n, h * dh)), requires_grad=True) for _ in range(3)]

    @pytest.mark.parametrize("n, window, glob", [
        (1, 1, []), (1, 4, [0]), (2, 1, [1]), (5, 2, []), (5, 5, [2]), (5, 9, [0, 4]),
        (16, 2, [0, 7]), (17, 3, [0, 1, 2, 16]), (24, 4, [5, 6, 7, 12]), (31, 1, [30]),
        (40, 4, [0, 5, 6, 39]), (64, 16, [0, 63]), (100, 40, [3, 50]),
        (213, 16, list(range(0, 213, 11))), (130, 7, list(range(0, 130, 2))),
        # about the 32-row blocks: rows on either side of a block edge, windows
        # of one row and wider than a block, delimiters on block edges or none
        (31, 40, [0, 30]), (32, 1, []), (32, 40, [31]), (33, 1, [32]), (33, 5, []),
        (65, 1, [31, 32, 63, 64]), (65, 40, [0, 32, 64]), (65, 7, [])])
    @pytest.mark.parametrize("b, h", [(1, 1), (2, 3)])
    def test_matches_the_dense_mask_oracle(self, n, window, glob, b, h):
        for seed in range(b):  # b independent inputs
            q, k, v = self.operands(h, n, seed=seed)
            probe = np.random.default_rng(1).normal(size=(n, h * 3))
            results = []
            for fn in (nm.band_attention, band_attention_oracle):
                for t in (q, k, v):
                    t.zero_grad()
                out = fn(q, k, v, h, window, glob)
                nm.sum_(nm.mul(out, probe)).backward()
                results.append((out.data, q.grad, k.grad, v.grad))
            for name, got, ref in zip(("out", "dq", "dk", "dv"), *results):
                assert got.shape == ref.shape, name
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @pytest.mark.parametrize("n, window, glob", [
        pytest.param(11, 2, [0, 4, 5, 10], id="2"),  # one block of rows
        pytest.param(11, 4, [0, 4, 5, 10], id="4"),
        pytest.param(70, 3, [0, 31, 32, 64, 69], id="three-blocks")])
    def test_grad_check(self, n, window, glob):
        q, k, v = self.operands(2, n, seed=3)
        probe = rand_const(n, 6)
        check(lambda: nm.sum_(nm.mul(nm.band_attention(q, k, v, 2, window, glob), probe)),
              {"q": q, "k": k, "v": v})

    @pytest.mark.parametrize("window", [80, 120, 240, 1000])
    def test_wide_window_needs_no_more_memory_than_dense(self, window):
        # a block of rows scores at most all n keys and the global ones, so
        # however wide the window, the blocks together hold about as many
        # weights as the dense n x n path
        def peak(fn):
            q, k, v = self.operands(2, 240, dh=8)
            tracemalloc.start()
            nm.sum_(fn(q, k, v, 2, window, [0, 120])).backward()
            got = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return got
        assert peak(nm.band_attention) <= peak(band_attention_oracle)

    GOOD = ((5, 6), (5, 6), (5, 6))

    @pytest.mark.parametrize("shapes, window, glob", [
        (((5, 6), (4, 6), (5, 6)), 2, []),           # keys of another length
        (((5, 6), (5, 8), (5, 6)), 2, []),           # keys of another width
        (((5, 6), (5, 6), (5, 8)), 2, []),           # values of another width
        (((1, 5, 6), (1, 5, 6), (1, 5, 6)), 2, []),  # a batch axis
        (((0, 6), (0, 6), (0, 6)), 2, []),           # no rows
        (GOOD, 0, []), (GOOD, 2, [5]), (GOOD, 2, [-1]),
        (((5, 5), (5, 5), (5, 5)), 2, [])])          # width 5 in 2 heads
    def test_shape_error_names_the_kernel(self, shapes, window, glob):
        q, k, v = (rand_tensor(*s) for s in shapes)
        with pytest.raises(ShapeError, match="band_attention"):
            nm.band_attention(q, k, v, 2, window, glob)


class TestTapeRelease:
    def test_leaves_keep_grad_intermediates_are_released(self):
        x, w = rand_tensor(3, 4), rand_tensor(4, 2)
        h = nm.matmul(x, w)
        s = nm.softmax(h)
        loss = nm.sum_(nm.power(s, 2.0))
        loss.backward()
        assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)
        for t in (h, s, loss):
            assert t.grad is None and t._parents == ()
        assert s.data.shape == (3, 2)  # forward values stay readable

    def test_second_backward_raises(self):
        x = rand_tensor(3)
        y = nm.power(x, 2.0)
        loss = nm.sum_(y)
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(NumericError, match="released"):
            loss.backward()
        with pytest.raises(NumericError, match="released"):
            nm.sum_(nm.mul(y, 3.0)).backward()  # a new root over a released node
        assert np.array_equal(x.grad, first)


class TestPrimitiveContracts:
    def test_softmax_rows_sum_to_one(self):
        a = rand_tensor(7, 9)
        s = nm.softmax(a)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-7)

    @pytest.mark.parametrize("shape", [(7,), (2, 3, 4, 5)])  # the compressor's; stacked heads
    def test_softmax_equals_the_formula(self, shape):
        a, = seeded_leaves(30, shape)
        g = np.random.default_rng(31).normal(size=shape)
        e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
        ref = e / e.sum(axis=-1, keepdims=True)
        s = nm.softmax(a)
        nm.sum_(nm.mul(s, g)).backward()
        assert np.array_equal(s.data, ref)
        assert np.array_equal(a.grad, ref * (g - (g * ref).sum(axis=-1, keepdims=True)))

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_and_mean_equal_numpy(self, axis, keepdims):
        """One backward serves every axis: it broadcasts the gradient of the
        kept-dims result back over the reduced axis."""
        a, = seeded_leaves(32, (3, 4, 5))
        for reduce, ref in ((nm.sum_, np.sum), (nm.mean, np.mean)):
            a.zero_grad()
            out = reduce(a, axis=axis, keepdims=keepdims)
            assert out.shape == ref(a.data, axis=axis, keepdims=keepdims).shape
            assert np.array_equal(out.data, ref(a.data, axis=axis, keepdims=keepdims))
            g = np.random.default_rng(33).normal(size=out.shape)
            nm.sum_(nm.mul(out, g)).backward()
            n = a.size // out.size
            want = g if keepdims or axis is None else np.expand_dims(g, axis)
            if reduce is nm.mean:
                want = want / n
            assert np.array_equal(a.grad, np.broadcast_to(want, a.shape))

    def test_concat_split_round_trip(self):
        a = rand_tensor(2, 3)
        b = rand_tensor(5, 3)
        c = nm.concat([a, b], axis=0)
        assert np.array_equal(nm.slice_axis(c, 0, 0, 2).data, a.data)
        assert np.array_equal(nm.slice_axis(c, 0, 2, 7).data, b.data)

    def test_matmul_shape_error_names_primitive(self):
        with pytest.raises(ShapeError, match="matmul"):
            nm.matmul(rand_tensor(3, 4), rand_tensor(3, 4))
        with pytest.raises(ShapeError, match="matmul"):
            nm.matmul(rand_tensor(2, 3, 4), rand_tensor(3, 4, 2))

    def test_stacked_matmul_equals_per_slice_products(self):
        a, b = rand_tensor(3, 2, 5, 4), rand_tensor(3, 2, 4, 6)
        g = RNG.normal(size=(3, 2, 5, 6))
        nm.sum_(nm.mul(nm.matmul(a, b), g)).backward()
        for i in range(3):
            for j in range(2):
                sa = nm.Tensor(a.data[i, j].copy(), requires_grad=True)
                sb = nm.Tensor(b.data[i, j].copy(), requires_grad=True)
                out = nm.matmul(sa, sb)
                nm.sum_(nm.mul(out, g[i, j])).backward()
                assert np.array_equal(out.data, a.data[i, j] @ b.data[i, j])
                assert np.array_equal(sa.grad, a.grad[i, j])
                assert np.array_equal(sb.grad, b.grad[i, j])

    def test_transpose_rejects_bad_axes(self):
        with pytest.raises(ShapeError, match="transpose"):
            nm.transpose(rand_tensor(2, 3, 4), (0, 1))
        with pytest.raises(ShapeError, match="transpose"):
            nm.transpose(rand_tensor(2, 3), (0, 0))

    @pytest.mark.parametrize("rows", [5, 220, 435])
    def test_layer_norm_equals_np_var_formula(self, rows):
        x = RNG.normal(size=(rows, 128)) * 3.0 + 1.0
        g, b = RNG.normal(size=128), RNG.normal(size=128)
        mu = x.mean(axis=-1, keepdims=True)
        ref = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)) * g + b
        assert np.array_equal(nm.layer_norm(x, g, b).data, ref)

    def test_segment_sum_values(self):
        a = rand_tensor(5, 2)
        got = segment_sum(a, [0, 2, 3, 5]).data
        ref = np.stack([a.data[0:2].sum(axis=0), a.data[2], a.data[3:5].sum(axis=0)])
        assert np.allclose(got, ref, rtol=1e-15, atol=0.0)

    def test_segment_sum_empty_segment_rejected(self):
        with pytest.raises(ShapeError, match="segment_sum"):
            segment_sum(rand_tensor(4, 2), [0, 2, 2, 4])

    def test_segment_sum_offsets_must_cover_rows(self):
        for indptr in ([1, 4], [0, 3], [0, 5], [], [0, 3, 2, 4]):
            with pytest.raises(ShapeError, match="segment_sum"):
                segment_sum(rand_tensor(4, 2), indptr)

    def test_add_shape_error(self):
        with pytest.raises(ShapeError, match="add"):
            nm.add(rand_tensor(3, 4), rand_tensor(2, 5))

    def test_double_path_accumulates(self):
        x = nm.Tensor(3.0, requires_grad=True)
        y = nm.add(x, x)
        y.backward()
        assert x.grad == 2.0

    def test_backward_replay_deterministic(self):
        x = rand_tensor(4, 4)
        w = rand_tensor(4, 4)
        grads = []
        for _ in range(2):
            x.zero_grad()
            w.zero_grad()
            loss = nm.sum_(nm.power(nm.matmul(nm.softmax(x), w), 2.0))
            loss.backward()
            grads.append((x.grad.copy(), w.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            rand_tensor(3).backward()

    def test_non_finite_loss_rejected(self):
        bad = nm.Tensor(np.inf, requires_grad=True)
        with pytest.raises(NumericError):
            bad.backward()

    def test_cosine_zero_norm_guard(self):
        z = nm.Tensor(np.zeros(4), requires_grad=True)
        v = rand_tensor(4)
        out = nm.cosine_sim(z, v)
        assert out.item() == 0.0

    def test_dropout_eval_identity(self):
        a = rand_tensor(5, 5)
        out = nm.dropout(a, 0.5, np.random.default_rng(0), train=False)
        assert out is a

    def test_dropout_scale_preserves_mean(self):
        a = nm.Tensor(np.ones((2000,)))
        out = nm.dropout(a, 0.25, np.random.default_rng(3), train=True)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_masked_fill_exact(self):
        a = nm.Tensor(np.ones((2, 2)))
        mask = np.array([[True, False], [False, True]])
        out = nm.masked_fill(a, mask, -1.0)
        assert out.data.tolist() == [[-1.0, 1.0], [1.0, -1.0]]

    def test_no_grad_holds_only_in_its_own_thread(self):
        entered, release = threading.Event(), threading.Event()
        inside = []

        def worker():
            with nm.no_grad():
                inside.append(nm.Tensor(1.0, requires_grad=True).requires_grad)
                entered.set()
                release.wait(timeout=10)

        t = threading.Thread(target=worker)
        t.start()
        try:
            assert entered.wait(timeout=10)
            assert nm.Tensor(1.0, requires_grad=True).requires_grad
        finally:
            release.set()
            t.join(timeout=10)
        assert not t.is_alive()
        assert inside == [False]


class TestCrossEntropyValues:
    def test_perfect_prediction_no_smoothing(self):
        logits = np.full((3, 5), -100.0)
        targets = np.array([0, 2, 4])
        logits[np.arange(3), targets] = 100.0
        loss = nm.cross_entropy_smoothed(nm.Tensor(logits), targets, 0.0)
        assert loss.item() < 1e-8

    def test_uniform_logits_ln_v(self):
        for v in (3, 7, 20):
            logits = nm.Tensor(np.zeros((4, v)))
            targets = np.array([0, 1, 2, 0])
            loss = nm.cross_entropy_smoothed(logits, targets, 0.1)
            assert abs(loss.item() - np.log(v)) < 1e-12

    def test_hand_computed_fixture(self):
        # T=2, V=3, eps=0.1: direct evaluation of the smoothed NLL formula
        logits = np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 0.0]])
        targets = np.array([0, 1])
        eps = 0.1
        expected = 0.0
        for t in range(2):
            row = logits[t]
            logp = row - np.log(np.exp(row).sum())
            q = np.full(3, eps / 2)
            q[targets[t]] = 1 - eps
            expected += -(q * logp).sum()
        expected /= 2
        loss = nm.cross_entropy_smoothed(nm.Tensor(logits), targets, eps)
        assert abs(loss.item() - expected) < 1e-12


class TestInitAndParams:
    def test_same_seed_identical(self):
        from dgsum.numeric import ParamStore
        a = ParamStore()
        b = ParamStore()
        a.add("w", (4, 5), np.random.default_rng(3))
        b.add("w", (4, 5), np.random.default_rng(3))
        assert np.array_equal(a["w"].data, b["w"].data)

    def test_different_seeds_differ(self):
        from dgsum.numeric import ParamStore
        a = ParamStore()
        b = ParamStore()
        a.add("w", (4, 5), np.random.default_rng(3))
        b.add("w", (4, 5), np.random.default_rng(4))
        assert not np.array_equal(a["w"].data, b["w"].data)

    def test_xavier_bounds(self):
        from dgsum.numeric import ParamStore, xavier_bound
        store = ParamStore()
        t = store.add("w", (30, 50), np.random.default_rng(0))
        bound = xavier_bound((30, 50))
        assert bound == pytest.approx(np.sqrt(6 / 80))
        assert np.all(np.abs(t.data) <= bound)

    def test_duplicate_name_rejected(self):
        from dgsum.numeric import ParamStore
        store = ParamStore()
        store.add("w", (2,), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            store.add("w", (2,), np.random.default_rng(0))

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        from dgsum.numeric import ParamStore
        store = ParamStore()
        rng = np.random.default_rng(11)
        store.add("layer.w", (7, 3), rng)
        store.add("layer.b", (3,), rng, init="zeros")
        path = tmp_path / "ckpt.npz"
        store.save(path)
        loaded = ParamStore.load(path)
        assert loaded.names() == store.names() or set(loaded.names()) == set(store.names())
        for name, t in store.items():
            assert np.array_equal(loaded[name].data, t.data)
            assert loaded[name].data.dtype == t.data.dtype

    def test_checkpoint_shape_mismatch_names_param(self, tmp_path):
        from dgsum.numeric import ParamStore
        store = ParamStore()
        store.add("layer.w", (7, 3), np.random.default_rng(0))
        path = tmp_path / "ckpt.npz"
        store.save(path)
        other = ParamStore()
        other.add("layer.w", (7, 4), np.random.default_rng(0))
        with pytest.raises(ConfigError) as err:
            other.load_data_from(path)
        assert f"{path}: checkpoint parameter 'layer.w'" in str(err.value)
        renamed = ParamStore()
        renamed.add("layer.v", (7, 3), np.random.default_rng(0))
        with pytest.raises(ConfigError) as err:
            renamed.load_data_from(path)
        assert f"{path}: checkpoint mismatch: missing ['layer.v']" in str(err.value)

    def test_checkpoint_missing_header(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, w=np.zeros(3))
        from dgsum.numeric import ParamStore
        with pytest.raises(DataError):
            ParamStore.load(path)

    def test_non_finite_checkpoint_names_the_first_such_parameter(self, tmp_path):
        from dgsum.numeric import ParamStore
        store = ParamStore()
        for name in ("a", "b", "c"):
            store.add(name, (2, 3), np.random.default_rng(0))
        store["b"].data[1, 2] = -np.inf
        store["c"].data[0, 0] = np.nan
        path = tmp_path / "ckpt.npz"
        store.save(path)
        with pytest.raises(DataError) as err:
            ParamStore.load(path)
        assert str(err.value) == f"{path}: parameter 'b' holds a non-finite value"


class TestAdam:
    def _single(self, value):
        from dgsum.numeric import ParamStore
        store = ParamStore()
        rng = np.random.default_rng(0)
        t = store.add("p", (1,), rng)
        t.data[:] = value
        return store, t

    def test_zero_grad_no_change(self):
        store, t = self._single(1.5)
        opt = nm.Adam(store, lr=0.1)
        t.grad = np.zeros(1)
        opt.step()
        assert t.data[0] == 1.5

    def test_lr_zero_identity(self):
        store, t = self._single(1.5)
        opt = nm.Adam(store, lr=0.0)
        t.grad = np.ones(1)
        opt.step()
        assert t.data[0] == 1.5

    def test_two_step_matches_hand_unrolled(self):
        store, t = self._single(1.0)
        opt = nm.Adam(store, lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        t.grad = np.array([0.5])
        opt.step()
        t.grad = np.array([-0.3])
        opt.step()
        expected = adam_two_step_oracle(1.0, 0.5, -0.3, 0.1, 0.9, 0.999, 1e-8)
        assert t.data[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_in_place_step_equals_the_formula(self, precision):
        """Three steps over parameters of mixed shapes give the bits of the
        formula with a fresh array per temporary."""
        from dgsum.numeric import ParamStore
        store, rng = ParamStore(DTYPES[precision]), np.random.default_rng(5)
        for i, shape in enumerate([(3, 4), (7,), (2, 3, 5), (1,), (6, 2)]):
            store.add(f"p{i}", shape, rng)
        data = {name: t.data.copy() for name, t in store.items()}
        m = {name: np.zeros_like(d) for name, d in data.items()}
        v = {name: np.zeros_like(d) for name, d in data.items()}
        opt = nm.Adam(store, lr=0.01)
        for step in (1, 2, 3):
            grads = {name: (rng.normal(size=d.shape) * 10.0 ** rng.integers(-3, 3))
                     .astype(d.dtype) for name, d in data.items()}
            for name, t in store.items():
                t.grad = grads[name].copy()
            opt.step()
            adam_step_oracle(data, grads, m, v, step, 0.01, 0.9, 0.999, 1e-8)
        for name, t in store.items():
            assert t.data.dtype == data[name].dtype == DTYPES[precision]
            assert np.array_equal(t.data, data[name]), name
            assert np.array_equal(opt._m[name], m[name]), name
            assert np.array_equal(opt._v[name], v[name]), name

    def test_non_finite_grad_aborts(self):
        store, t = self._single(1.0)
        opt = nm.Adam(store, lr=0.1)
        t.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="p"):
            opt.step()


class TestGradCheckHarness:
    def test_quadratic_tight(self):
        w = rand_tensor(4, 4)
        err = nm.grad_check(lambda: nm.sum_(nm.power(w, 2.0)), {"w": w})
        assert err < 1e-9

    def test_requires_double(self):
        w = nm.Tensor(rand_tensor(2, 2).data.astype(np.float32), requires_grad=True)
        with pytest.raises(NumericError):
            nm.grad_check(lambda: nm.sum_(w), {"w": w})

    def test_sampling_large_params(self):
        w = rand_tensor(40, 40)  # 1600 entries, sampled
        err = nm.grad_check(lambda: nm.mean(nm.power(w, 2.0)), {"w": w}, max_entries=64)
        assert err < 1e-6

    def test_harness_losses_pass_on_fresh_draws(self):
        """The two losses above, on 50 draws each: the central difference's
        own rounding is not counted as gradient error."""
        rng = np.random.default_rng(40)
        for _ in range(50):
            w = nm.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            assert nm.grad_check(lambda: nm.sum_(nm.power(w, 2.0)), {"w": w}) < 1e-9
            w = nm.Tensor(rng.normal(size=(40, 40)), requires_grad=True)
            assert nm.grad_check(lambda: nm.mean(nm.power(w, 2.0)), {"w": w}) < 1e-6

    @pytest.mark.parametrize("rel", [1e-8, 1e-5])
    def test_backward_off_by_a_small_relative_error_is_reported(self, rel):
        def square(a):  # a primitive whose backward is off by a factor 1 + rel
            def backward(g):
                tensor._accum(a, g * 2.0 * a.data * (1.0 + rel))
            return tensor._make(a.data ** 2, (a,), backward)

        w, = seeded_leaves(41, (5, 4))
        err = nm.grad_check(lambda: nm.sum_(square(w)), {"w": w})
        assert 0.9 * rel < err < 1.1 * rel
