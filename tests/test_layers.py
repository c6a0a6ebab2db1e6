import inspect
import tracemalloc

import numpy as np
import pytest

from oneshotid import capsules as C
from oneshotid import checkpoint as ckpt
from oneshotid import layers as L
from oneshotid import tensor as T
from oneshotid.errors import ConfigError, ShapeError

from gradcheck import check_grads, check_grads_sampled


def _conv_tensors(w, b):
    return T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)


class TestConv2d:
    def test_one_by_one_identity(self):
        x = T.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w, b = _conv_tensors(np.ones((1, 1, 1, 1)), np.zeros(1))
        y = L.conv2d(x, w, b, stride=1, padding=0)
        np.testing.assert_allclose(y.data, x.data)

    def test_all_ones_kernel_sums_window(self):
        x = T.Tensor(np.ones((1, 1, 5, 5)))
        w, b = _conv_tensors(np.ones((1, 1, 3, 3)), np.zeros(1))
        y = L.conv2d(x, w, b)
        assert y.shape == (1, 1, 3, 3)
        np.testing.assert_allclose(y.data, np.full((1, 1, 3, 3), 9.0))

    def test_channel_mismatch(self):
        x = T.Tensor(np.ones((1, 3, 5, 5)))
        w, b = _conv_tensors(np.ones((2, 2, 3, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            L.conv2d(x, w, b)

    def test_kernel_larger_than_input(self):
        x = T.Tensor(np.ones((1, 1, 2, 2)))
        w, b = _conv_tensors(np.ones((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            L.conv2d(x, w, b)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.5
        b = rng.normal(size=3)

        def f(xt, wt, bt):
            return T.tsum(T.square(L.conv2d(xt, wt, bt)))

        check_grads(f, [x, w, b], tol=1e-4)

    def test_strided_padded_gradients(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3)) * 0.5
        b = rng.normal(size=2)

        def f(xt, wt, bt):
            return T.tsum(T.square(L.conv2d(xt, wt, bt, stride=2, padding=1)))

        check_grads(f, [x, w, b], tol=1e-4)

    def test_known_stride_shape(self):
        x = T.Tensor(np.zeros((1, 1, 7, 7)))
        w, b = _conv_tensors(np.zeros((4, 1, 3, 3)), np.zeros(4))
        assert L.conv2d(x, w, b, stride=2).shape == (1, 4, 3, 3)


def conv2d_loop_reference(x, w, b, g, stride, pad):
    """Forward and (dx, dw, db) of a cross-correlation, one output element
    at a time, in float64; ``g`` is the upstream gradient of the output."""
    x, w, b, g = (np.asarray(a, dtype=np.float64) for a in (x, w, b, g))
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    sh, sw = stride
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = g.shape[2:]
    y = np.zeros((n, o, oh, ow))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ni in range(n):
        for oi in range(o):
            for i in range(oh):
                for j in range(ow):
                    rows = slice(i * sh, i * sh + kh)
                    cols = slice(j * sw, j * sw + kw)
                    y[ni, oi, i, j] = np.sum(xp[ni, :, rows, cols] * w[oi]) + b[oi]
                    dw[oi] += g[ni, oi, i, j] * xp[ni, :, rows, cols]
                    dxp[ni, :, rows, cols] += g[ni, oi, i, j] * w[oi]
    return y, dxp[:, :, pad : pad + h, pad : pad + wd], dw, g.sum(axis=(0, 2, 3))


def _conv2d_with_grads(x, w, b, g, stride, pad, x_requires_grad=True):
    xt = T.Tensor(x, requires_grad=x_requires_grad)
    wt, bt = _conv_tensors(w, b)
    with T.Tape():
        y = L.conv2d(xt, wt, bt, stride=stride, padding=pad)
        T.backward(T.tsum(T.mul(y, T.Tensor(g))))
    return y.data, xt.grad, wt.grad, bt.grad


def _assert_close_to_scale(got, want, rtol):
    """Elementwise error bounded by ``rtol`` times the largest |want|."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


# (N, C, H, W), (O, kh, kw), stride, padding
CONV_CASES = {
    "3x3-s1-p0": ((2, 3, 7, 6), (4, 3, 3), (1, 1), 0),
    "3x3-s2-p1": ((2, 2, 7, 8), (3, 3, 3), (2, 2), 1),
    "2x3-s12-p0": ((2, 3, 6, 7), (2, 2, 3), (1, 2), 0),
    "2x3-s12-p1-c1": ((3, 1, 5, 6), (2, 2, 3), (1, 2), 1),
    "9x9-s2-p0-c1": ((2, 1, 12, 11), (3, 9, 9), (2, 2), 0),
    "9x9-s1-p1": ((1, 2, 10, 9), (2, 9, 9), (1, 1), 1),
    # The last input row and column are under no tap.
    "9x9-s2-p0-edge": ((2, 3, 14, 12), (2, 9, 9), (2, 2), 0),
    # A kernel smaller than its stride leaves whole stride phases without a tap.
    "2x2-s3-p1": ((2, 3, 8, 7), (2, 2, 2), (3, 3), 1),
    "5x4-s23-p2": ((2, 3, 9, 11), (2, 5, 4), (2, 3), 2),
}


def _conv_case(case, dtype=np.float64):
    """Random x, weights, bias and upstream gradient for a CONV_CASES entry."""
    (n, c, h, w), (o, kh, kw), stride, pad = CONV_CASES[case]
    oh = (h + 2 * pad - kh) // stride[0] + 1
    ow = (w + 2 * pad - kw) // stride[1] + 1
    rng = np.random.default_rng(11)
    shapes = [(n, c, h, w), (o, c, kh, kw), (o,), (n, o, oh, ow)]
    return [rng.normal(size=s).astype(dtype) for s in shapes], stride, pad


class TestConv2dOracle:
    @pytest.mark.parametrize("case", list(CONV_CASES))
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_loop_reference(self, case, dtype, rtol):
        arrays, stride, pad = _conv_case(case, dtype)
        got = _conv2d_with_grads(*arrays, stride, pad)
        want = conv2d_loop_reference(*arrays, stride, pad)
        for name, a, ref in zip(("y", "dx", "dw", "db"), got, want):
            assert a.dtype == dtype, name
            _assert_close_to_scale(a, ref, rtol)
        # Input cells that no tap reaches get an exact zero gradient.
        np.testing.assert_array_equal(got[1][want[1] == 0], 0)

    @pytest.mark.parametrize("case", ["3x3-s2-p1", "9x9-s2-p0-c1"])
    def test_input_without_grad_gets_none_and_same_param_grads(self, case):
        (x, wts, b, g), stride, pad = _conv_case(case)
        with T.Tape() as tape:
            L.conv2d(T.Tensor(x), *_conv_tensors(wts, b), stride=stride, padding=pad)
            (_, _, bwd), = tape._entries
            dx, dw, db = bwd(g)
        assert dx is None
        y_ref, dx_ref, dw_ref, db_ref = _conv2d_with_grads(x, wts, b, g, stride, pad)
        assert dx_ref is not None
        np.testing.assert_array_equal(dw, dw_ref)
        np.testing.assert_array_equal(db, db_ref)
        y, x_grad, _, _ = _conv2d_with_grads(x, wts, b, g, stride, pad,
                                             x_requires_grad=False)
        assert x_grad is None
        np.testing.assert_array_equal(y, y_ref)

    def test_input_gradient_never_holds_a_column_gradient_matrix(self):
        rng = np.random.default_rng(12)
        x = T.Tensor(rng.normal(size=(2, 16, 24, 20)), requires_grad=True)
        wts, b = _conv_tensors(rng.normal(size=(8, 16, 9, 9)), np.zeros(8))
        with T.Tape() as tape:
            y = L.conv2d(x, wts, b, stride=2)
            (_, _, bwd), = tape._entries
            g = rng.normal(size=y.shape)
            tracemalloc.start()
            try:
                dx, _, _ = bwd(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert dx.shape == x.shape
        # The [C*kh*kw, N*oh*ow] column gradient alone would take this much.
        (n, c, _, _), (_, _, kh, kw), (oh, ow) = x.shape, wts.shape, y.shape[2:]
        assert peak < c * kh * kw * n * oh * ow * g.itemsize


class TestMaxPool:
    def test_two_by_two(self):
        x = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        y = L.maxpool2d(x, 2)
        np.testing.assert_allclose(y.data, [[[[4.0]]]])

    def test_constant_input_routes_to_first_element(self):
        x = T.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with T.Tape():
            y = L.maxpool2d(x, 2)
            T.backward(T.tsum(y))
        np.testing.assert_allclose(y.data, [[[[1.0]]]])
        np.testing.assert_allclose(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_window_does_not_fit(self):
        with pytest.raises(ShapeError):
            L.maxpool2d(T.Tensor(np.ones((1, 1, 2, 2))), 3)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        # distinct values so the argmax is stable under the probe step
        x = rng.permutation(16).astype(np.float64).reshape(1, 1, 4, 4)

        def f(xt):
            return T.tsum(T.square(L.maxpool2d(xt, 2)))

        check_grads(f, [x], tol=1e-4)

    def test_overlapping_windows_accumulate(self):
        x = T.Tensor(np.arange(9.0).reshape(1, 1, 3, 3), requires_grad=True)
        with T.Tape():
            y = L.maxpool2d(x, 2, stride=1)
            T.backward(T.tsum(y))
        # bottom-right corner (value 8) wins all four windows
        expected = np.zeros((1, 1, 3, 3))
        expected[0, 0, 2, 2] = 1.0
        expected[0, 0, 1, 1] = 1.0
        expected[0, 0, 1, 2] = 1.0
        expected[0, 0, 2, 1] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_overlapping_windows_float32_match_loop(self):
        rng = np.random.default_rng(13)
        x = rng.permutation(2 * 3 * 7 * 8).astype(np.float32).reshape(2, 3, 7, 8)
        g = rng.normal(size=(2, 3, 5, 3)).astype(np.float32)
        xt = T.Tensor(x, requires_grad=True)
        with T.Tape():
            y = L.maxpool2d(xt, 3, stride=(1, 2))
            T.backward(T.tsum(T.mul(y, T.Tensor(g))))
        want = np.zeros(x.shape)
        for idx in np.ndindex(*g.shape):
            ni, ci, i, j = idx
            win = x[ni, ci, i : i + 3, 2 * j : 2 * j + 3]
            r, s = np.unravel_index(np.argmax(win), win.shape)
            want[ni, ci, i + r, 2 * j + s] += g[idx]
        assert y.data.dtype == np.float32
        assert xt.grad.dtype == np.float32
        assert np.count_nonzero(want) < np.count_nonzero(g)  # windows overlap
        np.testing.assert_allclose(xt.grad, want, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("window, stride, channels", [
        ((2, 2), (2, 2), 1),
        ((2, 2), (2, 2), 3),
        ((3, 3), (3, 3), 2),
        ((2, 3), (2, 3), 2),
        ((2, 2), (1, 1), 2),   # overlapping
        ((3, 3), (2, 1), 1),   # overlapping
        ((2, 3), (1, 2), 3),   # overlapping
        ((2, 2), (3, 3), 2),   # gaps between windows
        ((2, 3), (4, 3), 1),   # gaps between rows of windows
    ])
    def test_matches_loop_reference(self, window, stride, channels, dtype):
        ph, pw = window
        sh, sw = stride
        rng = np.random.default_rng(17)
        # ReLU'd normals tie at zero in many windows; constant blocks tie
        # everywhere inside them.
        x = np.maximum(rng.normal(size=(2, channels, 11, 13)), 0.0)
        x[0, 0, 1:6, 2:9] = 0.75
        x[-1, -1, 4:10, 5:12] = 0.0
        x = x.astype(dtype)
        oh, ow = (11 - ph) // sh + 1, (13 - pw) // sw + 1
        g = rng.normal(size=(2, channels, oh, ow)).astype(dtype)

        want_y = np.zeros(g.shape, dtype)
        want_dx = np.zeros(x.shape, dtype)
        for ni, ci, i, j in np.ndindex(*g.shape):
            win = x[ni, ci, i * sh : i * sh + ph, j * sw : j * sw + pw]
            best = (0, 0)
            for r in range(ph):
                for s in range(pw):
                    if win[r, s] > win[best]:
                        best = (r, s)
            want_y[ni, ci, i, j] = win[best]
            want_dx[ni, ci, i * sh + best[0], j * sw + best[1]] += g[ni, ci, i, j]

        xt = T.Tensor(x, requires_grad=True)
        with T.Tape():
            y = L.maxpool2d(xt, window, stride=stride)
            T.backward(T.tsum(T.mul(y, T.Tensor(g))))
        assert y.data.dtype == dtype
        assert xt.grad.dtype == dtype
        np.testing.assert_array_equal(y.data, want_y)
        if sh >= ph and sw >= pw:
            np.testing.assert_array_equal(xt.grad, want_dx)
        else:
            tol = 1e-12 if dtype == np.float64 else 1e-5
            np.testing.assert_allclose(xt.grad, want_dx, rtol=tol, atol=tol)


class TestMergedCnn:
    def test_output_shape(self):
        stack = L.build_merged_cnn((96, 96, 2), seed=1)
        assert stack.output_shape == (2,)
        x = T.Tensor(np.zeros((1, 2, 96, 96)))
        assert stack(x).shape == (1, 2)

    def test_param_count_closed_form(self):
        stack = L.build_merged_cnn((96, 96, 2), seed=1)

        def conv_p(cin, cout):
            return 3 * 3 * cin * cout + cout

        # shape walk: 96 -> 94 -> 92 -> pool 46 -> 44 -> 42 -> pool 21
        flat = 64 * 21 * 21
        expected = (
            conv_p(2, 32) + conv_p(32, 32) + conv_p(32, 64) + conv_p(64, 64)
            + flat * 128 + 128 + 128 * 2 + 2
        )
        assert sum(p.size for p in stack.params()) == expected

    def test_zero_input_finite_logits(self):
        stack = L.build_merged_cnn((32, 32, 2), seed=2)
        y = stack(T.Tensor(np.zeros((3, 2, 32, 32))))
        assert np.isfinite(y.data).all()

    def test_too_small_for_two_pools(self):
        with pytest.raises(ShapeError):
            L.build_merged_cnn((8, 8, 2), seed=0)

    def test_declared_shapes_match_forward(self):
        stack = L.build_merged_cnn((40, 40, 2), seed=3)
        x = T.Tensor(np.random.default_rng(0).normal(size=(2, 2, 40, 40)))
        out = stack(x)
        assert tuple(out.shape[1:]) == stack.output_shape


class TestSiameseTower:
    def test_embedding_shape(self):
        tower = L.build_siamese_tower((100, 100, 1), seed=4)
        assert tower.output_shape == (5,)
        x = T.Tensor(np.zeros((2, 1, 100, 100)))
        assert tower(x).shape == (2, 5)

    def test_shared_tower_identical_embeddings(self):
        tower = L.build_siamese_tower((40, 40, 1), seed=5)
        x = np.random.default_rng(1).normal(size=(2, 1, 40, 40))
        a = tower(T.Tensor(x)).data
        b = tower(T.Tensor(x)).data
        assert np.array_equal(a, b)

    def test_shared_params_stay_identical_after_update(self):
        tower = L.build_siamese_tower((40, 40, 1), seed=5)
        # one stack serves both branches, so a parameter update is seen by
        # both; simulate a step and re-check
        for p in tower.params():
            p.data = p.data - 0.01
        x = np.random.default_rng(2).normal(size=(1, 1, 40, 40))
        a = tower(T.Tensor(x)).data
        b = tower(T.Tensor(x)).data
        assert np.array_equal(a, b)

    def test_reduced_variant_gradients(self):
        tower = L.build_siamese_tower((20, 20, 1), seed=6)
        x0 = np.random.default_rng(3).normal(size=(1, 1, 20, 20))
        inits = [p.data.copy() for p in tower.params()]
        param_layers = [l for l in tower.layers if l.params()]

        def forward_with(tensors):
            # splice probe tensors in place of the stored parameters so
            # gradients land on the probes, then restore
            it = iter(tensors)
            originals = []
            for layer in param_layers:
                for name, _ in layer.params():
                    originals.append((layer, name, getattr(layer, name)))
                    setattr(layer, name, next(it))
            try:
                return tower(T.Tensor(x0))
            finally:
                for layer, name, orig in originals:
                    setattr(layer, name, orig)

        def loss_fn(*tensors):
            return T.tsum(T.square(forward_with(tensors)))

        check_grads_sampled(loss_fn, inits, n=6, tol=1e-4, seed=7)


def test_dense_rejects_bad_input():
    d = L.Dense(4, 2)
    with pytest.raises(ShapeError):
        d(T.Tensor(np.ones((1, 5))))


def test_stack_rejects_wrong_input_shape():
    stack = L.build_merged_cnn((32, 32, 2), seed=0)
    with pytest.raises(ShapeError):
        stack(T.Tensor(np.zeros((1, 1, 32, 32))))


def test_activation_unknown_name():
    with pytest.raises(ShapeError):
        L.Activation("tanh")


def test_builders_are_seed_deterministic():
    a = L.build_merged_cnn((32, 32, 2), seed=11)
    b = L.build_merged_cnn((32, 32, 2), seed=11)
    for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    c = L.build_merged_cnn((32, 32, 2), seed=12)
    assert not np.array_equal(a.params()[0].data, c.params()[0].data)


# One small layer of each kind a checkpoint can hold, and an input shape
# for it without the batch axis.
PROTOCOL_CASES = {
    "conv": (lambda: L.Conv2d(2, 3, kernel=3, stride=(1, 2), padding=1), (2, 5, 6)),
    "maxpool": (lambda: L.MaxPool2d(2, stride=1), (2, 4, 5)),
    "dense": (lambda: L.Dense(4, 3), (4,)),
    "act": (lambda: L.Activation("leaky_relu"), (2, 3)),
    "flatten": (L.Flatten, (2, 3, 4)),
    "primary_caps": (lambda: C.PrimaryCapsuleLayer(2), (4, 3, 3)),
    "high_caps": (lambda: C.HighLevelCapsuleLayer(6, 2, 3, 4, routing_iters=2), (6, 2)),
}


@pytest.mark.parametrize("kind", sorted(ckpt._LAYER_CLASSES))
def test_checkpoint_layer_class_follows_layer_protocol(kind):
    cls = ckpt._LAYER_CLASSES[kind]
    assert issubclass(cls, L.Layer)
    params = inspect.signature(cls).parameters
    assert [f for f in cls.spec_fields if f not in params] == []


@pytest.mark.parametrize("kind", sorted(ckpt._LAYER_CLASSES))
def test_out_shape_matches_forward(kind):
    make, in_shape = PROTOCOL_CASES[kind]
    layer = make()
    assert layer.kind == kind
    x = T.Tensor(np.random.default_rng(0).normal(size=(2, *in_shape)))
    assert layer(x).shape == (2, *layer.out_shape(in_shape))


@pytest.mark.parametrize("kind", ["conv", "dense", "high_caps"])
def test_layer_built_without_rng_holds_zeros(kind):
    # The caller of a layer built without an rng sets its parameters itself.
    make, _ = PROTOCOL_CASES[kind]
    params = make().params()
    assert params and all(not p.data.any() for _, p in params)


@pytest.mark.parametrize("op", [
    lambda x: L.conv2d(x, T.Tensor(np.ones((1, 1, 2, 2))), T.Tensor(np.zeros(1)), stride=0),
    lambda x: L.maxpool2d(x, 2, stride=(2, 0)),
], ids=["conv2d", "maxpool2d"])
def test_functional_op_rejects_zero_stride(op):
    with pytest.raises(ConfigError, match="stride must be at least 1, got 0"):
        op(T.Tensor(np.ones((1, 1, 4, 4))))
