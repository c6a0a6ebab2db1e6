import numpy as np
import pytest

from oneshotid import losses
from oneshotid import tensor as T
from oneshotid.errors import ConfigError, DataError, ShapeError

from gradcheck import check_grads


def center_oracle(x, w, b, labels, centroids, lam):
    """Scripted evaluation: summed CE over z = x@W + b plus the
    weighted squared pull toward per-class centroids."""
    z = x @ w + b
    total = 0.0
    for i, y in enumerate(labels):
        zi = z[i]
        e = np.exp(zi - zi.max())
        total += -np.log(e[y] / e.sum())
        diff = x[i] - centroids[y]
        total += lam * float(diff @ diff)
    return total


class TestContrastive:
    def test_identical_same_label_is_zero(self):
        e = T.Tensor([1.0, 2.0, 3.0])
        loss = losses.contrastive_loss(e, T.Tensor([1.0, 2.0, 3.0]), 1)
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_far_different_label_is_zero(self):
        e1 = T.Tensor([0.0, 0.0])
        e2 = T.Tensor([5.0, 0.0])
        loss = losses.contrastive_loss(e1, e2, 0, margin=1.0)
        np.testing.assert_allclose(loss.data, 0.0)

    def test_direct_evaluations(self):
        # D = 2, same label -> 2
        loss = losses.contrastive_loss(T.Tensor([2.0, 0.0]), T.Tensor([0.0, 0.0]), 1)
        np.testing.assert_allclose(loss.data, 2.0)
        # D = 1, different label, margin 3 -> (3-1)^2/2 = 2
        loss = losses.contrastive_loss(
            T.Tensor([1.0, 0.0]), T.Tensor([0.0, 0.0]), 0, margin=3.0
        )
        np.testing.assert_allclose(loss.data, 2.0)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            e1 = T.Tensor(rng.normal(size=4))
            e2 = T.Tensor(rng.normal(size=4))
            y = int(rng.integers(2))
            m = float(rng.uniform(0.1, 3.0))
            assert losses.contrastive_loss(e1, e2, y, m).data >= 0

    def test_symmetric_in_embeddings(self):
        rng = np.random.default_rng(5)
        e1 = rng.normal(size=6)
        e2 = rng.normal(size=6)
        a = losses.contrastive_loss(T.Tensor(e1), T.Tensor(e2), 0, 2.0).data
        b = losses.contrastive_loss(T.Tensor(e2), T.Tensor(e1), 0, 2.0).data
        np.testing.assert_allclose(a, b)

    def test_distance_scales_linearly(self):
        rng = np.random.default_rng(7)
        e1 = rng.normal(size=5)
        e2 = rng.normal(size=5)
        base = np.linalg.norm(e1 - e2)
        for s in (0.5, 2.0, 7.0):
            # same-label loss is D^2/2, so distance is sqrt(2 * loss)
            loss = losses.contrastive_loss(T.Tensor(s * e1), T.Tensor(s * e2), 1).data
            np.testing.assert_allclose(np.sqrt(2 * loss), s * base, atol=1e-9)

    def test_batch_is_mean_of_pairs(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        y = np.array([1, 0, 1])
        batch = losses.contrastive_loss(T.Tensor(a), T.Tensor(b), y).data
        singles = [
            losses.contrastive_loss(T.Tensor(a[i]), T.Tensor(b[i]), int(y[i])).data
            for i in range(3)
        ]
        np.testing.assert_allclose(batch, np.mean(singles))

    def test_empty_embedding_rejected(self):
        with pytest.raises(ShapeError):
            losses.contrastive_loss(T.Tensor(np.zeros(0)), T.Tensor(np.zeros(0)), 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            losses.contrastive_loss(T.Tensor(np.zeros(3)), T.Tensor(np.zeros(4)), 1)

    def test_nonbinary_label_rejected(self):
        with pytest.raises(DataError):
            losses.contrastive_loss(T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), 2)

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(ConfigError):
            losses.contrastive_loss(T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), 0, 0.0)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        e1 = rng.normal(size=(4, 5))
        e2 = rng.normal(size=(4, 5))
        y = np.array([1, 0, 1, 0])
        check_grads(
            lambda a, b: losses.contrastive_loss(a, b, y, margin=2.0), [e1, e2], tol=1e-4
        )

    def test_gradient_finite_at_zero_distance(self):
        e = np.ones((1, 3))
        t1 = T.Tensor(e.copy(), requires_grad=True)
        t2 = T.Tensor(e.copy(), requires_grad=True)
        with T.Tape():
            T.backward(losses.contrastive_loss(t1, t2, 1))
        assert np.isfinite(t1.grad).all() and np.isfinite(t2.grad).all()
        np.testing.assert_allclose(t1.grad, 0.0, atol=1e-7)


class TestCrossEntropy:
    def test_uniform_prediction(self):
        logits = T.Tensor([[0.0, 0.0]])
        for label in (0, 1):
            loss = losses.cross_entropy(logits, [label])
            np.testing.assert_allclose(loss.data, np.log(2.0))

    def test_saturated_correct(self):
        loss = losses.cross_entropy(T.Tensor([[1000.0, -1000.0]]), [0])
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-9)

    def test_label_out_of_range(self):
        logits = T.Tensor(np.zeros((2, 2)))
        with pytest.raises(IndexError):
            losses.cross_entropy(logits, [0, 2])
        with pytest.raises(IndexError):
            losses.cross_entropy(logits, [-1, 0])

    def test_gradients(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(4, 2))
        labels = np.array([0, 1, 1, 0])
        check_grads(lambda z: losses.cross_entropy(z, labels), [logits], tol=1e-4)

    def test_mean_over_batch(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=(3, 4))
        labels = [2, 0, 3]
        batch = losses.cross_entropy(T.Tensor(z), labels).data
        singles = [
            losses.cross_entropy(T.Tensor(z[i : i + 1]), [labels[i]]).data
            for i in range(3)
        ]
        np.testing.assert_allclose(batch, np.mean(singles))


class TestCenterLoss:
    def _setup(self, lam=0.3, b=4, d=3, k=2, seed=17):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(b, d))
        w = rng.normal(size=(d, k))
        bias = rng.normal(size=k)
        labels = rng.integers(0, k, size=b)
        cent = rng.normal(size=(k, d))
        state = losses.CenterState(k, d, lam=lam, centroids=cent)
        return x, w, bias, labels, cent, state

    def test_zero_balance_reduces_to_summed_cross_entropy(self):
        x, w, bias, labels, _, state = self._setup(lam=0.0)
        loss = losses.center_loss(
            T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), labels, state
        ).data
        per_mean = losses.cross_entropy(
            T.add(T.matmul(T.Tensor(x), T.Tensor(w)), T.Tensor(bias)), labels
        ).data
        np.testing.assert_allclose(loss, len(labels) * per_mean, rtol=1e-12)

    def test_zero_center_term_when_features_sit_on_centroids(self):
        x, w, bias, labels, cent, _ = self._setup()
        x = cent[labels]
        state = losses.CenterState(2, 3, lam=5.0, centroids=cent)
        with_pull = losses.center_loss(
            T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), labels, state
        ).data
        state0 = losses.CenterState(2, 3, lam=0.0, centroids=cent)
        without = losses.center_loss(
            T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), labels, state0
        ).data
        np.testing.assert_allclose(with_pull, without)

    def test_matches_scripted_oracle_single_sample(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(1, 3))
        w = rng.normal(size=(3, 2))
        bias = rng.normal(size=2)
        cent = rng.normal(size=(2, 3))
        labels = [1]
        state = losses.CenterState(2, 3, lam=0.7, centroids=cent)
        loss = losses.center_loss(
            T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), labels, state
        ).data
        expected = center_oracle(x, w, bias, labels, cent, 0.7)
        np.testing.assert_allclose(loss, expected, atol=1e-10)

    def test_oracle_on_batches(self):
        x, w, bias, labels, cent, state = self._setup(lam=0.25, b=6, seed=21)
        loss = losses.center_loss(
            T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), labels, state
        ).data
        np.testing.assert_allclose(
            loss, center_oracle(x, w, bias, labels, cent, 0.25), atol=1e-10
        )

    def test_rate_one_single_class_moves_centroid_to_batch_mean(self, monkeypatch):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        bias = np.zeros(2)
        state = losses.CenterState(2, 3, lam=0.1, centroids=np.zeros((2, 3)))
        losses.center_loss(T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), [0] * 5, state)
        np.testing.assert_allclose(state.centroids[0], 0.5 * x.mean(axis=0))
        monkeypatch.setattr(losses, "_CENTER_RATE", 1.0)
        state = losses.CenterState(2, 3, lam=0.1, centroids=np.zeros((2, 3)))
        losses.center_loss(T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), [0] * 5, state)
        np.testing.assert_allclose(state.centroids[0], x.mean(axis=0))
        np.testing.assert_allclose(state.centroids[1], np.zeros(3))

    def test_loss_uses_pre_update_centroids(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 2))
        bias = np.zeros(2)
        cent = rng.normal(size=(2, 3))
        state = losses.CenterState(2, 3, lam=1.0, centroids=cent)
        loss = losses.center_loss(
            T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), [0, 0], state
        ).data
        np.testing.assert_allclose(
            loss, center_oracle(x, w, bias, [0, 0], cent, 1.0), atol=1e-10
        )

    def test_unknown_label(self):
        x, w, bias, _, _, state = self._setup()
        with pytest.raises(IndexError):
            losses.center_loss(
                T.Tensor(x), (T.Tensor(w), T.Tensor(bias)), [0, 1, 2, 0], state
            )

    def test_negative_balance_rejected(self):
        with pytest.raises(ConfigError):
            losses.CenterState(2, 3, lam=-0.1, centroids=np.zeros((2, 3)))

    def test_gradients(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        bias = rng.normal(size=2)
        labels = [0, 1, 0]
        cent = rng.normal(size=(2, 4))

        def f(xt, wt, bt):
            state = losses.CenterState(2, 4, lam=0.4, centroids=cent)
            return losses.center_loss(xt, (wt, bt), labels, state)

        check_grads(f, [x, w, bias], tol=1e-4)


class TestReconstruction:
    def test_identity_is_zero(self):
        img = T.Tensor(np.random.default_rng(29).uniform(size=(4, 4)))
        np.testing.assert_allclose(losses.reconstruction_loss(img, img).data, 0.0)

    def test_zeros_vs_ones(self):
        a = T.Tensor(np.zeros((3, 5)))
        b = T.Tensor(np.ones((3, 5)))
        loss = losses.reconstruction_loss(a, b, weight=1.0)
        np.testing.assert_allclose(loss.data, 15.0)

    def test_default_weight_scales(self):
        a = T.Tensor(np.zeros((2, 2)))
        b = T.Tensor(np.ones((2, 2)))
        np.testing.assert_allclose(losses.reconstruction_loss(a, b).data, 4 * 0.0005)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.reconstruction_loss(T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros(4)))

    def test_gradients(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(size=(3, 4))
        b = rng.uniform(size=(3, 4))
        check_grads(
            lambda x: losses.reconstruction_loss(x, T.Tensor(b), weight=0.5), [a], tol=1e-4
        )
