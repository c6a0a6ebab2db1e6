import numpy as np
import pytest

from oneshotid import capsules as C
from oneshotid import tensor as T
from oneshotid.errors import ConfigError, ShapeError, StateError

from gradcheck import check_grads, check_grads_sampled


def routing_oracle(u_hat, iters):
    """Straight-line reimplementation of the routing recurrence."""
    b = np.zeros(u_hat.shape[:-1])
    v = None
    for t in range(iters):
        e = np.exp(b - b.max(axis=-1, keepdims=True))
        c = e / e.sum(axis=-1, keepdims=True)
        s = (c[..., None] * u_hat).sum(axis=0)
        n = np.linalg.norm(s, axis=-1, keepdims=True)
        v = s * n / (1.0 + n * n)
        if t < iters - 1:
            b = b + (u_hat * v[None]).sum(axis=-1)
    return v


def taped_route(u_hat, iterations):
    """Routing composed from generic tape ops, as dynamic_route was before
    it became one op: the reference for its values and gradients."""
    b = T.Tensor(np.zeros(u_hat.shape[:-1], dtype=u_hat.dtype))
    history = []
    v = None
    for it in range(iterations):
        c = T.softmax(b, axis=-1)
        history.append(np.array(c.data, copy=True))
        cx = T.reshape(c, c.shape + (1,))
        s = T.tsum(T.mul(cx, u_hat), axis=-3)
        v = C.squash(s, axis=-1)
        if it < iterations - 1:
            vx = T.reshape(v, v.shape[:-2] + (1,) + v.shape[-2:])
            agreement = T.tsum(T.mul(u_hat, vx), axis=-1)
            b = T.add(b, agreement)
    return v, history


def fused_route(u_hat, iterations):
    v, state = C.dynamic_route(u_hat, iterations)
    return v, state.coupling_history


def routed_with_grad(route, u, iterations, weights):
    """v, coupling history and d sum(weights * v) / d u_hat of one call."""
    ut = T.Tensor(u, requires_grad=True)
    with T.Tape():
        v, history = route(ut, iterations)
        T.backward(T.tsum(T.mul(v, T.Tensor(weights))))
    return v.data, history, ut.grad


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestSquash:
    def test_zero_vector(self):
        v = C.squash(T.Tensor(np.zeros(4)), axis=-1)
        np.testing.assert_allclose(v.data, np.zeros(4))

    def test_unit_vector_halves(self):
        g = np.array([1.0, 0.0, 0.0])
        v = C.squash(T.Tensor(g), axis=-1)
        np.testing.assert_allclose(v.data, 0.5 * g)

    def test_huge_vector_saturates_below_one(self):
        g = np.zeros(3)
        g[0] = 1000.0
        n = np.linalg.norm(C.squash(T.Tensor(g), axis=-1).data)
        assert n < 1.0
        assert abs(n - 1.0) < 1e-5

    def test_range_and_direction(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = rng.normal(scale=rng.uniform(0.1, 50), size=(3, 6))
            v = C.squash(T.Tensor(g), axis=-1).data
            norms = np.linalg.norm(v, axis=-1)
            assert (norms >= 0).all() and (norms < 1).all()
            # parallel: cross-ratio of unit vectors is 1
            gu = g / np.linalg.norm(g, axis=-1, keepdims=True)
            vu = v / np.linalg.norm(v, axis=-1, keepdims=True)
            np.testing.assert_allclose(gu, vu, atol=1e-6)

    def test_gradients(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(4, 5)) + 0.3
        check_grads(lambda t: T.tsum(T.square(C.squash(t, axis=-1))), [g], tol=1e-4)
        check_grads(lambda t: T.tsum(T.square(C.squash(t, axis=0))), [g], tol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_forward_is_the_formula_exactly(self, dtype, axis):
        g = np.random.default_rng(79).normal(scale=3.0, size=(4, 6)).astype(dtype)
        n = np.sqrt((g * g).sum(axis=axis, keepdims=True))
        v = C.squash(T.Tensor(g), axis=axis).data
        assert v.dtype == dtype
        assert np.array_equal(v, g * (n / (1 + n * n)))

    def test_one_tape_entry_and_finite_gradient_at_zero(self):
        g = T.Tensor(np.zeros((2, 4)), requires_grad=True)
        with T.Tape() as tape:
            v = C.squash(g, axis=-1)
            assert len(tape) == 1
            T.backward(T.tsum(T.mul(v, T.Tensor(np.ones((2, 4))))))
        assert np.array_equal(g.grad, np.zeros((2, 4)))


class TestDynamicRoute:
    def test_rejects_zero_iterations(self):
        u = T.Tensor(np.zeros((3, 2, 2)))
        with pytest.raises(ConfigError):
            C.dynamic_route(u, 0)

    def test_first_iteration_couplings_uniform(self):
        rng = np.random.default_rng(19)
        u = T.Tensor(rng.normal(size=(4, 3, 2)))
        _, state = C.dynamic_route(u, 1)
        np.testing.assert_allclose(state.coupling_history[0], np.full((4, 3), 1 / 3))

    def test_single_output_capsule(self):
        rng = np.random.default_rng(23)
        u = rng.normal(size=(5, 1, 3))
        v, state = C.dynamic_route(T.Tensor(u), 3)
        for c in state.coupling_history:
            np.testing.assert_allclose(c, np.ones((5, 1)))
        s = u.sum(axis=0)[0]
        n = np.linalg.norm(s)
        np.testing.assert_allclose(v.data[0], s * n / (1 + n * n), atol=1e-12)

    def test_matches_scripted_oracle(self):
        rng = np.random.default_rng(29)
        for trial in range(5):
            u = rng.normal(size=(3, 2, 2))
            v, _ = C.dynamic_route(T.Tensor(u), 3)
            np.testing.assert_allclose(v.data, routing_oracle(u, 3), atol=1e-10)

    def test_oracle_on_larger_instances(self):
        rng = np.random.default_rng(31)
        u = rng.normal(size=(10, 4, 6))
        for iters in (1, 2, 5):
            v, _ = C.dynamic_route(T.Tensor(u), iters)
            np.testing.assert_allclose(v.data, routing_oracle(u, iters), atol=1e-10)

    def test_couplings_sum_to_one_every_iteration(self):
        rng = np.random.default_rng(37)
        u = T.Tensor(rng.normal(scale=3.0, size=(6, 4, 3)))
        _, state = C.dynamic_route(u, 4)
        for c in state.coupling_history:
            np.testing.assert_allclose(c.sum(axis=-1), np.ones(6), atol=1e-9)

    def test_state_does_not_leak_between_passes(self):
        rng = np.random.default_rng(41)
        u = T.Tensor(rng.normal(size=(4, 3, 2)))
        a, _ = C.dynamic_route(u, 3)
        b, _ = C.dynamic_route(u, 3)
        assert np.array_equal(a.data, b.data)

    def test_agreement_concentrates_on_consistent_capsule(self):
        # all predictions for capsule 0 agree; capsule 1 gets antipodal
        # predictions that cancel, so coupling to capsule 0 must grow
        p = np.array([1.0, 0.5])
        u = np.zeros((4, 2, 2))
        u[:, 0, :] = p
        u[0::2, 1, :] = p
        u[1::2, 1, :] = -p
        _, state = C.dynamic_route(T.Tensor(u), 4)
        c0 = [c[:, 0] for c in state.coupling_history]
        for earlier, later in zip(c0, c0[1:]):
            assert (later > earlier).all()

    def test_batched_routing_matches_per_example(self):
        rng = np.random.default_rng(43)
        u = rng.normal(size=(2, 5, 3, 4))
        v, _ = C.dynamic_route(T.Tensor(u), 3)
        for n in range(2):
            vn, _ = C.dynamic_route(T.Tensor(u[n]), 3)
            np.testing.assert_allclose(v.data[n], vn.data, atol=1e-12)

    def test_gradients_through_unrolled_iterations(self):
        rng = np.random.default_rng(47)
        u = rng.normal(size=(3, 2, 2))

        def f(t):
            v, _ = C.dynamic_route(t, 3)
            return T.tsum(T.square(v))

        check_grads(f, [u], tol=1e-3)

    @pytest.mark.parametrize("iters", [1, 4])
    def test_gradients_batched(self, iters):
        rng = np.random.default_rng(48)
        u = rng.normal(size=(2, 4, 3, 2))
        w = rng.normal(size=(2, 3, 2))

        def f(t):
            v, _ = C.dynamic_route(t, iters)
            return T.tsum(T.mul(v, T.Tensor(w)))

        check_grads(f, [u], tol=1e-3)

    @pytest.mark.parametrize("iters", [1, 2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_matches_taped_composition(self, lead, iters):
        rng = np.random.default_rng(61 + 10 * len(lead) + iters)
        u = rng.normal(size=lead + (7, 4, 5))
        w = rng.normal(size=lead + (4, 5))
        v, history, grad = routed_with_grad(fused_route, u, iters, w)
        v_ref, history_ref, grad_ref = routed_with_grad(taped_route, u, iters, w)
        assert v.shape == v_ref.shape and grad.shape == u.shape
        assert rel_diff(v, v_ref) < 1e-12
        assert len(history) == iters
        for c, c_ref in zip(history, history_ref):
            assert c.shape == lead + (7, 4)
            assert rel_diff(c, c_ref) < 1e-12
        assert rel_diff(grad, grad_ref) < 1e-12

    def test_one_tape_entry_per_call(self):
        u = T.Tensor(np.random.default_rng(71).normal(size=(2, 5, 3, 4)),
                     requires_grad=True)
        with T.Tape() as tape:
            C.dynamic_route(u, 4)
            assert len(tape) == 1

    def test_float32_stays_float32(self):
        u = T.Tensor(np.random.default_rng(73).normal(size=(2, 5, 3, 4)).astype(np.float32),
                     requires_grad=True)
        with T.Tape():
            v, state = C.dynamic_route(u, 3)
            T.backward(T.tsum(T.square(v)))
        assert v.dtype == np.float32
        assert u.grad.dtype == np.float32
        assert all(c.dtype == np.float32 for c in state.coupling_history)


def test_capsule_predict_values_and_grads():
    rng = np.random.default_rng(53)
    u = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(3, 2, 5, 4))
    out = C.capsule_predict(T.Tensor(u), T.Tensor(w))
    assert out.shape == (2, 3, 2, 5)
    # spot-check one entry against the plain matrix product
    np.testing.assert_allclose(out.data[1, 2, 0], w[2, 0] @ u[1, 2])
    check_grads(
        lambda ut, wt: T.tsum(T.square(C.capsule_predict(ut, wt))), [u, w], tol=1e-4
    )


class TestPrimaryCapsules:
    def test_capsule_count_formula(self):
        layer = C.PrimaryCapsuleLayer(n_p=8)
        assert layer.out_shape((256, 6, 6)) == (6 * 6 * 256 // 8, 8)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            C.PrimaryCapsuleLayer(n_p=3).out_shape((8, 2, 2))

    def test_forward_squashes(self):
        rng = np.random.default_rng(59)
        x = T.Tensor(rng.normal(size=(2, 8, 3, 3)))
        u = C.PrimaryCapsuleLayer(n_p=4).forward(x)
        assert u.shape == (2, 18, 4)
        norms = np.linalg.norm(u.data, axis=-1)
        assert (norms < 1).all()

    def test_forward_records_four_tape_entries(self):
        x = T.Tensor(np.random.default_rng(61).normal(size=(2, 8, 3, 3)), requires_grad=True)
        with T.Tape() as tape:
            C.PrimaryCapsuleLayer(n_p=4).forward(x)
            assert len(tape) == 4

    def test_grouping_keeps_channel_blocks_together(self):
        # channel block g at location (i,j) becomes one capsule vector
        x = np.zeros((1, 4, 2, 2))
        x[0, 2, 1, 0] = 7.0  # block 1 (channels 2..3), location (1,0)
        u = C.PrimaryCapsuleLayer(n_p=2).forward(T.Tensor(x))
        hot = np.nonzero(np.linalg.norm(u.data[0], axis=-1))[0]
        assert len(hot) == 1
        # capsule index = block * (h*w) + i*w + j = 1*4 + 1*2 + 0
        assert hot[0] == 6


@pytest.mark.parametrize("field", ["n_in", "n_p", "n_out", "d_out"])
def test_high_caps_rejects_sizes_below_one(field):
    sizes = {"n_in": 6, "n_p": 2, "n_out": 3, "d_out": 4, field: 0}
    with pytest.raises(ConfigError, match=f"{field} must be at least 1, got 0"):
        C.HighLevelCapsuleLayer(**sizes)


class TestBuildCapsnet:
    def test_primary_count_at_reference_geometry(self):
        stack = C.build_capsnet((28, 28, 1), n_classes=10, d_out=16, seed=1)
        high = stack.layers[-1]
        assert high.n_in == 1152  # 6*6*256/8

    def test_output_norms_below_one(self):
        stack = C.build_capsnet((14, 14, 1), n_classes=3, d_out=4,
                                conv_channels=(8, 8), kernels=(3, 3),
                                strides=(1, 1), n_p=4, seed=2)
        x = T.Tensor(np.random.default_rng(3).normal(size=(2, 1, 14, 14)))
        v = stack(x)
        assert v.shape == (2, 3, 4)
        norms = np.linalg.norm(v.data, axis=-1)
        assert (norms >= 0).all() and (norms < 1).all()

    def test_indivisible_capsule_length(self):
        with pytest.raises(ConfigError):
            C.build_capsnet((14, 14, 1), n_classes=3, d_out=16, conv_channels=(8, 9),
                            kernels=(3, 3), strides=(1, 1), n_p=4, seed=0)

    def test_gradients_through_network(self):
        stack = C.build_capsnet((10, 10, 1), n_classes=2, d_out=3,
                                conv_channels=(4, 4), kernels=(3, 3),
                                strides=(1, 1), n_p=2, routing_iters=3, seed=4)
        x0 = np.random.default_rng(5).normal(size=(1, 1, 10, 10))
        params = stack.params()
        inits = [p.data.copy() for p in params]
        layers = [l for l in stack.layers if l.params()]

        def loss_fn(*tensors):
            it = iter(tensors)
            originals = []
            for layer in layers:
                for name, _ in layer.params():
                    originals.append((layer, name, getattr(layer, name)))
                    setattr(layer, name, next(it))
            try:
                return T.tsum(T.square(stack(T.Tensor(x0))))
            finally:
                for layer, name, orig in originals:
                    setattr(layer, name, orig)

        check_grads_sampled(loss_fn, inits, n=5, tol=1e-3, seed=6)


class TestDecoder:
    def _decoder(self):
        return C.Decoder(n_classes=3, d_out=4, image_shape=(5, 5),
                         sizes=(8, 16), seed=7)

    def test_masking_ignores_other_capsules(self):
        dec = self._decoder()
        rng = np.random.default_rng(11)
        v = rng.normal(size=(1, 3, 4))
        a = dec.decode(T.Tensor(v), mask=1).data
        v2 = v.copy()
        v2[0, 0] += 5.0
        v2[0, 2] -= 3.0
        b = dec.decode(T.Tensor(v2), mask=1).data
        assert np.array_equal(a, b)

    def test_output_shape_and_range(self):
        dec = self._decoder()
        v = T.Tensor(np.random.default_rng(12).normal(size=(2, 3, 4)))
        out = dec.decode(v, mask=0)
        assert out.shape == (2, 5, 5)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_mask_out_of_range(self):
        dec = self._decoder()
        v = T.Tensor(np.zeros((1, 3, 4)))
        with pytest.raises(IndexError):
            dec.decode(v, mask=3)
        with pytest.raises(IndexError):
            dec.decode(v, mask=-1)

    def test_unbatched_capsules_rejected(self):
        with pytest.raises(ShapeError):
            self._decoder().decode(T.Tensor(np.zeros((3, 4))), mask=1)

    def test_gradients(self):
        dec = self._decoder()
        rng = np.random.default_rng(13)
        v = rng.normal(size=(1, 3, 4))

        def f(t):
            return T.tsum(T.square(dec.decode(t, mask=2)))

        check_grads(f, [v], tol=1e-4)


class TestGenerateImages:
    def _model(self):
        enc = C.build_capsnet((10, 10, 1), n_classes=2, d_out=3,
                              conv_channels=(4, 4), kernels=(3, 3),
                              strides=(1, 1), n_p=2, seed=14)
        dec = C.Decoder(n_classes=2, d_out=3, image_shape=(10, 10),
                        sizes=(8, 8), seed=15)
        return C.CapsNet(enc, dec, recon_threshold=0.5)

    def test_untrained_model_refuses(self):
        model = self._model()
        seeds = [np.zeros((1, 10, 10))]
        with pytest.raises(StateError):
            C.generate_images(model, seeds, 1, scale=0.1, seed=0)
        model.recon_loss = 0.9  # above threshold
        with pytest.raises(StateError):
            C.generate_images(model, seeds, 1, scale=0.1, seed=0)

    def test_zero_perturbation_is_plain_reconstruction(self):
        model = self._model()
        model.recon_loss = 0.1
        rng = np.random.default_rng(16)
        img = rng.uniform(size=(1, 10, 10))
        out = C.generate_images(model, [img], 1, scale=0.0, seed=0)[0]
        v = model.encoder(T.Tensor(img[None, ...]))
        mask = int(np.argmax(C.capsule_scores(v).data[0]))
        recon = model.decoder.decode(v, mask).data[0]
        np.testing.assert_allclose(out, recon)

    def test_count_and_range(self):
        model = self._model()
        model.recon_loss = 0.1
        rng = np.random.default_rng(17)
        seeds = [rng.uniform(size=(1, 10, 10)) for _ in range(2)]
        imgs = C.generate_images(model, seeds, 5, scale=0.2, seed=3)
        assert len(imgs) == 5
        for im in imgs:
            assert im.shape == (10, 10)
            assert (im >= 0).all() and (im <= 1).all()

    def test_deterministic_for_fixed_seed(self):
        model = self._model()
        model.recon_loss = 0.1
        rng = np.random.default_rng(18)
        seeds = [rng.uniform(size=(1, 10, 10))]
        a = C.generate_images(model, seeds, 3, scale=0.3, seed=9)
        b = C.generate_images(model, seeds, 3, scale=0.3, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
