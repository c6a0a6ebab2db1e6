"""Dense n-dimensional tensors with reverse-mode automatic differentiation.

A forward pass runs inside a ``Tape`` context; every operation that touches
a tensor with ``requires_grad=True`` appends one entry to the active tape.
``backward(loss)`` replays the tape once in reverse and accumulates
gradients into the leaves.  Tapes are explicit and per-forward-pass: there
is no global graph, and a tape together with its tensors is meant to be
used by one worker at a time.

Every op validates that finite inputs produced finite outputs and raises
``NumericError`` otherwise; NaN/Inf never propagates silently.
"""

import threading

import numpy as np

from .errors import NumericError, ShapeError, TapeError

_EPS = 1e-8

_state = threading.local()


def _tape_stack():
    stack = getattr(_state, "tapes", None)
    if stack is None:
        stack = []
        _state.tapes = stack
    return stack


def active_tape():
    """The innermost open Tape of the current thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of ops executed during one forward pass.

    Entries are appended in execution order, which makes the record
    topologically sorted by construction: every input of entry k was
    produced by an earlier entry or is a leaf.
    """

    def __init__(self):
        self._entries = []
        self._closed = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        assert stack and stack[-1] is self, "tape stack corrupted"
        stack.pop()
        # Drop the recorded graph here rather than waiting for the cycle
        # collector: entries hold the tensors and the tensors hold the tape,
        # so a big forward pass would otherwise linger until a gc run.
        self._entries.clear()
        self._closed = True
        return False

    def __len__(self):
        return len(self._entries)

    def _record(self, out, inputs, backward_fn):
        self._entries.append((out, inputs, backward_fn))


class Tensor:
    """N-dimensional array of reals, optionally participating in a tape.

    ``data`` is the value buffer, ``grad`` (same shape, lazily created)
    accumulates d(loss)/d(self) across backward calls.  Tensors are value
    objects: ops return new tensors and never mutate inputs.  The only
    sanctioned in-place mutation is an optimizer updating ``data`` of a
    parameter between passes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")

    def zero_grad(self):
        self.grad = None

    def detach(self):
        """A view of the same data with no tape attachment."""
        t = Tensor(self.data, requires_grad=False)
        return t

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- operator sugar; all arithmetic routes through the module-level ops --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 or not isinstance(shape[0], (tuple, list)) else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_finite(data, op_name):
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{op_name} produced a non-finite value")


def from_op(op_name, data, inputs, backward_fn):
    """Wrap an op result, recording it on the active tape when tracked.

    ``backward_fn(g)`` must return one gradient array (or None) per input,
    given the upstream gradient ``g`` with the shape of ``data``.
    """
    _check_finite(data, op_name)
    out = Tensor(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = active_tape()
    if tape is not None and out.requires_grad:
        out._tape = tape
        tape._record(out, tuple(inputs), backward_fn)
    return out


def backward(loss):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

    The loss must be a scalar recorded on a tape.  Each tape entry is
    visited exactly once, in reverse execution order.  Calling backward
    again without clearing grads adds another full gradient on top.
    """
    if not isinstance(loss, Tensor):
        raise TapeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise TapeError("loss is not attached to a tape (was it computed inside `with Tape():`?)")
    if tape._closed:
        raise TapeError("the tape has been closed; call backward inside the `with Tape():` block")

    # Per-call gradient buffers for intermediates; leaves accumulate into
    # .grad so that repeated backward calls add up.
    grads = {id(loss): np.ones_like(loss.data)}
    for out, inputs, backward_fn in reversed(tape._entries):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        in_grads = backward_fn(g)
        for t, ig in zip(inputs, in_grads):
            if ig is None or not t.requires_grad:
                continue
            if t._tape is tape:
                acc = grads.get(id(t))
                grads[id(t)] = ig if acc is None else acc + ig
            else:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad = t.grad + ig


def _unbroadcast(g, shape):
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data
    ash, bsh = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return from_op("add", data, (a, b), bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data
    ash, bsh = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return from_op("sub", data, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return from_op("mul", data, (a, b), bwd)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data / b.data
    ad, bd = a.data, b.data

    def bwd(g):
        ga = _unbroadcast(g / bd, ad.shape)
        gb = _unbroadcast(-g * ad / (bd * bd), bd.shape)
        return ga, gb

    return from_op("div", data, (a, b), bwd)


def neg(x):
    x = _as_tensor(x)
    return from_op("neg", -x.data, (x,), lambda g: (-g,))


def square(x):
    x = _as_tensor(x)
    xd = x.data
    return from_op("square", xd * xd, (x,), lambda g: (2.0 * xd * g,))


def sqrt(x):
    x = _as_tensor(x)
    y = np.sqrt(x.data)

    def bwd(g):
        return (g / (2.0 * y + _EPS),)

    return from_op("sqrt", y, (x,), bwd)


def texp(x):
    x = _as_tensor(x)
    y = np.exp(x.data)
    return from_op("exp", y, (x,), lambda g: (g * y,))


def tlog(x):
    x = _as_tensor(x)
    xd = x.data
    return from_op("log", np.log(xd), (x,), lambda g: (g / xd,))


def relu(x):
    x = _as_tensor(x)
    mask = x.data > 0  # subgradient at 0 is 0
    return from_op("relu", np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def leaky_relu(x, alpha=0.01):
    x = _as_tensor(x)
    mask = x.data > 0
    data = np.where(mask, x.data, alpha * x.data)
    return from_op("leaky_relu", data, (x,), lambda g: (g * np.where(mask, 1.0, alpha),))


def sigmoid(x):
    x = _as_tensor(x)
    # stable in both tails
    xd = x.data
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    y[~pos] = e / (1.0 + e)
    return from_op("sigmoid", y, (x,), lambda g: (g * y * (1.0 - y),))


# ---------------------------------------------------------------------------
# linear algebra / shape ops
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Standard 2-D matrix product with dA = dC @ B^T, dB = A^T @ dC."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return from_op("matmul", ad @ bd, (a, b), bwd)


def reshape(x, shape):
    x = _as_tensor(x)
    old = x.shape
    return from_op("reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x, axes):
    x = _as_tensor(x)
    inv = np.argsort(axes)
    return from_op("transpose", x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def tsum(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    xshape = x.shape
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, xshape).copy(),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, [a % len(xshape) for a in axes])
        return (np.broadcast_to(g, xshape).copy(),)

    return from_op("sum", data, (x,), bwd)


def tmean(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    n = x.size if axis is None else np.prod(
        [x.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / float(n))


def softmax(x, axis=-1):
    """Max-stabilized softmax along ``axis``; rows sum to 1."""
    x = _as_tensor(x)
    if x.ndim == 0:
        raise ShapeError("softmax needs at least one axis")
    ax = axis % x.ndim
    if x.shape[ax] == 0:
        raise ShapeError("softmax over an empty axis")
    shifted = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=ax, keepdims=True)
        return ((g - dot) * y,)

    return from_op("softmax", y, (x,), bwd)


def l2norm(x, axis=-1, keepdims=False, eps=_EPS):
    """Euclidean norm along ``axis``.

    The backward pass divides by ``norm + eps`` so the gradient stays
    finite at the zero vector, where the exact norm is not differentiable.
    """
    x = _as_tensor(x)
    ax = axis % x.ndim
    n = np.sqrt((x.data * x.data).sum(axis=ax, keepdims=True))
    xd = x.data

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (g * xd / (n + eps),)

    data = n if keepdims else n.squeeze(ax)
    return from_op("l2norm", data, (x,), bwd)


def logsumexp(x, axis=-1, keepdims=False):
    """log(sum(exp(x))) along ``axis``, max-stabilized."""
    x = _as_tensor(x)
    ax = axis % x.ndim
    m = x.data.max(axis=ax, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=ax, keepdims=True)
    data = m + np.log(s)
    soft = e / s

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (g * soft,)

    return from_op("logsumexp", data if keepdims else data.squeeze(ax), (x,), bwd)
