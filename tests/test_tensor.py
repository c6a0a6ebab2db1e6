import numpy as np
import pytest

from oneshotid import tensor as T
from oneshotid.errors import NumericError, ShapeError, TapeError

from gradcheck import check_grads, numeric_grad, rel_error


def test_leaky_relu_values():
    x = T.Tensor([-1.0, 0.0, 2.0])
    y = T.leaky_relu(x, alpha=0.01)
    np.testing.assert_allclose(y.data, [-0.01, 0.0, 2.0])


def test_add_values():
    y = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
    np.testing.assert_allclose(y.data, [4.0, 6.0])


def test_relu_gradient_subgradient_zero():
    x = T.Tensor([-1.0, 2.0], requires_grad=True)
    with T.Tape():
        loss = T.tsum(T.relu(x))
        T.backward(loss)
    np.testing.assert_allclose(x.grad, [0.0, 1.0])


def test_relu_at_exactly_zero_has_zero_grad():
    x = T.Tensor([0.0], requires_grad=True)
    with T.Tape():
        T.backward(T.tsum(T.relu(x)))
    np.testing.assert_allclose(x.grad, [0.0])


def test_elementwise_scalar_broadcast_allowed():
    y = T.mul(T.Tensor([1.0, 2.0]), T.Tensor(3.0))
    np.testing.assert_allclose(y.data, [3.0, 6.0])


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(T.matmul(a, b).data, b.data)


def test_matmul_values():
    y = T.matmul(T.Tensor([[1.0, 0.0]]), T.Tensor([[2.0], [5.0]]))
    np.testing.assert_allclose(y.data, [[2.0]])


def test_matmul_dim_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_grads(lambda A, B: T.tsum(T.matmul(A, B)), [a, b], tol=1e-4)


def test_softmax_uniform():
    y = T.softmax(T.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(y.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_large_logits_no_overflow():
    y = T.softmax(T.Tensor([1000.0, 1000.0]))
    np.testing.assert_allclose(y.data, [0.5, 0.5])


def test_softmax_analytic():
    y = T.softmax(T.Tensor([0.0, np.log(3.0)]))
    np.testing.assert_allclose(y.data, [0.25, 0.75])


def test_softmax_empty_axis():
    with pytest.raises(ShapeError):
        T.softmax(T.Tensor(np.zeros((2, 0))))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = T.Tensor(rng.normal(scale=50.0, size=(4, 7)))
        y = T.softmax(x, axis=1)
        np.testing.assert_allclose(y.data.sum(axis=1), np.ones(4), atol=1e-9)
        assert (y.data > 0).all()


def test_backward_sum():
    x = T.Tensor(np.zeros(3), requires_grad=True)
    with T.Tape():
        T.backward(T.tsum(x))
    np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape():
        T.backward(T.tsum(T.square(x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_nonscalar_raises():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape():
        y = T.square(x)
        with pytest.raises(ShapeError):
            T.backward(y)


def test_backward_detached_raises():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.tsum(x)  # no tape open
    with pytest.raises(TapeError):
        T.backward(y)


def test_repeated_backward_accumulates():
    x = T.Tensor([3.0], requires_grad=True)
    with T.Tape():
        loss = T.tsum(T.square(x))
        T.backward(loss)
        T.backward(loss)
    np.testing.assert_allclose(x.grad, [12.0])


def test_backward_after_tape_close_raises():
    x = T.Tensor([3.0], requires_grad=True)
    with T.Tape():
        loss = T.tsum(T.square(x))
    with pytest.raises(TapeError):
        T.backward(loss)


def test_closed_tape_releases_graph():
    # the recorded graph must die with the block, not wait for a gc cycle
    # pass: entries hold the tensors and the tensors hold the tape
    x = T.Tensor(np.ones(16), requires_grad=True)
    with T.Tape() as tape:
        T.backward(T.tsum(T.square(x)))
        assert len(tape) == 2
    assert len(tape) == 0


def test_grads_add_across_separate_tapes():
    x = T.Tensor([2.0], requires_grad=True)
    for _ in range(2):
        with T.Tape():
            T.backward(T.tsum(T.square(x)))
    np.testing.assert_allclose(x.grad, [8.0])


def test_nonfinite_output_raises():
    x = T.Tensor([0.0])
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericError):
            T.tlog(x)
        with pytest.raises(NumericError):
            T.div(T.Tensor([1.0]), T.Tensor([0.0]))


def test_forward_determinism():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 5))
    a = T.softmax(T.Tensor(x), axis=1).data
    b = T.softmax(T.Tensor(x), axis=1).data
    assert np.array_equal(a, b)


class TestGradientCorrectness:
    """Central finite differences vs. the tape, per op, on random inputs."""

    def test_unary_ops(self):
        rng = np.random.default_rng(23)
        cases = [
            (T.square, rng.normal(size=(4, 3))),
            (T.sqrt, rng.uniform(0.5, 2.0, size=(4, 3))),
            (T.texp, rng.normal(size=(3, 3))),
            (T.tlog, rng.uniform(0.5, 3.0, size=(3, 3))),
            (T.sigmoid, rng.normal(size=(4, 2))),
            (T.neg, rng.normal(size=(5,))),
            # keep inputs away from the relu/leaky kink at 0
            (T.relu, rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.5),
            (lambda t: T.leaky_relu(t, 0.01), rng.normal(size=(4, 4)) * 2 + 0.3),
        ]
        for op, x in cases:
            x = np.where(np.abs(x) < 1e-3, 0.1, x)
            check_grads(lambda t, op=op: T.tsum(op(t)), [x], tol=1e-4)

    def test_binary_ops(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        c = rng.uniform(0.5, 2.0, size=(3, 4))
        check_grads(lambda x, y: T.tsum(T.add(x, y)), [a, b], tol=1e-4)
        check_grads(lambda x, y: T.tsum(T.sub(x, y)), [a, b], tol=1e-4)
        check_grads(lambda x, y: T.tsum(T.mul(x, y)), [a, b], tol=1e-4)
        check_grads(lambda x, y: T.tsum(T.div(x, y)), [a, c], tol=1e-4)

    def test_broadcast_grads(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(3, 4))
        s = rng.normal(size=(1,))
        check_grads(lambda x, y: T.tsum(T.mul(x, y)), [a, s], tol=1e-4)
        row = rng.normal(size=(1, 4))
        check_grads(lambda x, y: T.tsum(T.add(x, y)), [a, row], tol=1e-4)

    def test_reductions_and_shape_ops(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(3, 4, 2))
        check_grads(lambda t: T.tsum(T.square(T.tsum(t, axis=1))), [x], tol=1e-4)
        check_grads(lambda t: T.tsum(T.square(T.tmean(t, axis=(0, 2)))), [x], tol=1e-4)
        check_grads(lambda t: T.tsum(T.square(T.reshape(t, (6, 4)))), [x], tol=1e-4)
        check_grads(lambda t: T.tsum(T.square(T.transpose(t, (2, 0, 1)))), [x], tol=1e-4)

    def test_softmax_grad(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 5))
        check_grads(lambda t: T.tsum(T.mul(T.softmax(t, axis=1), T.Tensor(w))), [x], tol=1e-4)

    def test_l2norm_grad(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(4, 6)) + 0.5
        check_grads(lambda t: T.tsum(T.l2norm(t, axis=1)), [x], tol=1e-4)

    def test_logsumexp_grad(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(3, 5))
        check_grads(lambda t: T.tsum(T.logsumexp(t, axis=1)), [x], tol=1e-4)


def test_l2norm_values():
    x = T.Tensor([[3.0, 4.0], [0.0, 0.0]])
    n = T.l2norm(x, axis=1)
    np.testing.assert_allclose(n.data, [5.0, 0.0])


def test_l2norm_keepdims():
    x = T.Tensor(np.ones((2, 3)))
    assert T.l2norm(x, axis=1, keepdims=True).shape == (2, 1)


def test_numeric_grad_self_check():
    # sanity for the oracle itself: d/dx of x^3 at 2 is 12
    g = numeric_grad(lambda x: float(x[0] ** 3), np.array([2.0]))
    assert rel_error(g, np.array([12.0])) < 1e-8


def test_intermediate_grads_do_not_leak_between_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape():
        y = T.square(x)
        loss = T.tsum(y)
        T.backward(loss)
    assert y.grad is None  # intermediates keep no grad buffer
    np.testing.assert_allclose(x.grad, [2.0, 4.0])
