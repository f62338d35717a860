"""Dense float64 tensors with taped reverse-mode differentiation.

A ``Graph`` records every differentiable op in construction order (an eager
tape); ``backward`` walks the tape in reverse and accumulates gradients into
leaf tensors that were created with ``requires_grad=True``.  Everything is
64-bit so finite-difference checks have enough headroom.

Fused ops with hand-written backwards record one node for what would be
many: a recurrent step (``rnn_step``) or sequence (``rnn_seq``) of either
cell kind, a teacher-forced decoder stack with its attention over every
step (``decoder_seq``), and the multi-head and additive attention blocks.
The multi-head block also runs on packed rows, the real positions of a
padded batch only (``attention``'s row layouts), so that every op around it
can skip the padding.
"""

import numpy as np

from .errors import InvalidShape

EPS_LOG = 1e-12  # floor inside cross-entropy so confident misses stay finite
LN_EPS = 1e-6    # layer-norm variance epsilon


class Graph:
    """Ordered tape of op output tensors; reverse order is a valid topo order."""

    current = None

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        self._prev = Graph.current
        Graph.current = self
        return self

    def __exit__(self, *exc):
        Graph.current = self._prev
        return False


class no_grad:
    """Context that disables tape recording (inference mode)."""

    def __enter__(self):
        self._prev = Graph.current
        Graph.current = None
        return self

    def __exit__(self, *exc):
        Graph.current = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _taped(parents):
    """Whether an op over ``parents`` goes on the tape (``_make``)."""
    return Graph.current is not None and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn):
    rg = _taped(parents)
    out = Tensor(data, requires_grad=rg)
    if rg:
        out._parents = parents
        out._backward = backward_fn
        Graph.current.nodes.append(out)
    return out


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops; a binary op's backward returns None for a parent that
# takes no gradient (a constant such as a mask or a positional table)

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(a.data * b.data, (a, b), bwd)


def neg(a):
    a = _as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def tanh(a):
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),))


def _sigmoid(v):
    """1 / (1 + exp(-v)) of an array, v floored at -500 so exp cannot
    overflow, computed in place on one temporary."""
    y = np.maximum(v, -500.0, out=np.empty(np.shape(v)))
    np.negative(y, out=y)
    np.exp(y, out=y)
    y += 1.0
    return np.reciprocal(y, out=y)


def sigmoid(a):
    a = _as_tensor(a)
    y = _sigmoid(a.data)
    return _make(y, (a,), lambda g: (g * y * (1.0 - y),))


def relu(a):
    a = _as_tensor(a)
    y = np.maximum(a.data, 0.0)
    return _make(y, (a,), lambda g: (g * (a.data > 0.0),))


def exp(a):
    a = _as_tensor(a)
    y = np.exp(a.data)
    return _make(y, (a,), lambda g: (g * y,))


def log(a):
    a = _as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    a = _as_tensor(a)
    y = np.sqrt(a.data)
    return _make(y, (a,), lambda g: (g * 0.5 / y,))


# ---------------------------------------------------------------------------
# linear algebra / structural ops

def matmul(a, b):
    """a @ b.  With a 2-D right operand (a weight), the left operand's
    leading axes are flattened so forward and backward are each one
    (N, k) @ (k, m) GEMM; only a batched right operand runs NumPy's stacked
    matmul.  No gradient is computed for a parent that needs none."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidShape("matmul requires tensors of rank >= 2")
    if b.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        y = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])

        def bwd(g):
            g2 = g.reshape(-1, g.shape[-1])
            return ((g2 @ b.data.T).reshape(a.shape) if a.requires_grad
                    else None,
                    a2.T @ g2 if b.requires_grad else None)

        return _make(y, (a, b), bwd)

    def bwd(g):
        return (_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                             a.shape) if a.requires_grad else None,
                _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                             b.shape) if b.requires_grad else None)

    return _make(np.matmul(a.data, b.data), (a, b), bwd)


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    y = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _make(y, tuple(tensors), bwd)


def stack(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    y = np.stack([t.data for t in tensors], axis=axis)

    def bwd(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return _make(y, tuple(tensors), bwd)


def getitem(a, key):
    a = _as_tensor(a)
    y = a.data[key]

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[key] += g
        return (ga,)

    return _make(np.array(y, copy=True), (a,), bwd)


def transpose(a, axes):
    a = _as_tensor(a)
    inv = np.argsort(axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _make(np.transpose(a.data, axes), (a,), bwd)


def reshape(a, shape):
    a = _as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    y = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(y, (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def gather_rows(a, idx):
    """a: (B, T, d), idx: (B,) -> (B, d), picking one row per batch item."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(a.shape[0])
    y = a.data[rows, idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] += g
        return (ga,)

    return _make(y.copy(), (a,), bwd)


def embedding(table, ids):
    """Row lookup: table (V, d), ids int array of any shape -> ids.shape + (d,)."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.intp)
    y = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _make(y.copy(), (table,), bwd)


# ---------------------------------------------------------------------------
# recurrent cells: one step op (one node per greedy decoder step) and one
# sequence op (one node per encoder recurrence), each written once for both
# cell kinds, as is the decoder op below; only a kind's step, step backward and
# state rows of dW differ (``_CELLS``).  W: (d + n, G * n) holds the gates side
# by side, its first d rows for the input x and the rest for h, so a step's
# pre-activations are x W_x + b + h W_h; the step functions take x W_x + b
# already computed, which lets a sequence project every step's input in one
# matmul before the recurrence.  A state is one (B, S) array whose first n
# columns are h: [h | c] for an LSTM (S = 2n), h for a GRU (S = n); the step
# functions take and return it whole, as do their backward passes with its
# gradient.  Entry 0 of a step's cache is the h it started from.  The step
# functions are the cell math only: padding is the sequence op's concern.

def _lstm_step(xa, s, W_h):
    """One LSTM step from [h | c] and the input's (B, 4n) part of the
    i|f|g|o pre-activations: c' = f*c + i*g, h' = o*tanh(c').  Returns
    [h' | c'] and the backward's cache."""
    n = W_h.shape[0]
    h, c = s[:, :n], s[:, n:]
    a = xa + h @ W_h
    sg = _sigmoid(a)
    i, f, o = sg[:, :n], sg[:, n:2 * n], sg[:, 3 * n:]
    g = np.tanh(a[:, 2 * n:3 * n])
    c2 = f * c + i * g
    tc = np.tanh(c2)
    return np.concatenate([o * tc, c2], axis=-1), (h, c, i, f, g, o, tc)


def _lstm_step_bwd(gs, W_h, cache):
    """Gradients of one LSTM step with respect to its (B, 4n) pre-activations
    and to the [h | c] it started from, given that of [h' | c']."""
    _, c, i, f, g, o, tc = cache
    n = c.shape[-1]
    gh, gc = gs[:, :n], gs[:, n:]
    dc2 = gc + gh * o * (1.0 - tc * tc)
    da = np.concatenate([dc2 * g * i * (1.0 - i), dc2 * c * f * (1.0 - f),
                         dc2 * i * (1.0 - g * g), gh * tc * o * (1.0 - o)],
                        axis=-1)
    return da, np.concatenate([da @ W_h.T, dc2 * f], axis=-1)


def _gru_step(xa, h, W_h):
    """One GRU step from h and the input's (B, 3n) part of the z|r|n
    pre-activations: h' = z*h + (1-z)*tanh(xa_n + (r*h) W_hn).  Returns h'
    and the backward's cache."""
    n = h.shape[-1]
    s = _sigmoid(xa[:, :2 * n] + h @ W_h[:, :2 * n])
    z, r = s[:, :n], s[:, n:]
    rh = r * h
    cand = np.tanh(xa[:, 2 * n:] + rh @ W_h[:, 2 * n:])
    return z * h + (1.0 - z) * cand, (h, z, r, rh, cand)


def _gru_step_bwd(gh, W_h, cache):
    """Gradients of one GRU step with respect to its (B, 3n) pre-activations
    and to the h it started from."""
    h, z, r, rh, cand = cache
    n = h.shape[-1]
    da_n = gh * (1.0 - z) * (1.0 - cand * cand)
    drh = da_n @ W_h[:, 2 * n:].T
    da = np.concatenate([(gh * h - gh * cand) * z * (1.0 - z),
                         drh * h * r * (1.0 - r), da_n], axis=-1)
    return da, gh * z + drh * r + da[:, :2 * n] @ W_h[:, :2 * n].T


def _rows(caches, i):
    """Entry ``i`` of every step's cache as (B*T, ·) rows, batch-major as the
    (B*T, G*n) pre-activation gradients are."""
    if len(caches) == 1:   # one step: its rows as they are, no copy
        return caches[0][i]
    return np.stack([c[i] for c in caches], axis=1).reshape(
        -1, caches[0][i].shape[-1])


def _lstm_dW_h(caches, da):
    """The state rows of an LSTM's dW from every step's cache."""
    return _rows(caches, 0).T @ da


def _gru_dW_h(caches, da):
    """The state rows of a GRU's dW: the z|r columns from h, the candidate
    columns from r*h (cache entry 3)."""
    n = caches[0][0].shape[-1]
    return np.concatenate([_rows(caches, 0).T @ da[:, :2 * n],
                           _rows(caches, 3).T @ da[:, 2 * n:]], axis=-1)


# kind -> (state width in multiples of n, step, step backward, dW state rows)
_CELLS = {"lstm": (2, _lstm_step, _lstm_step_bwd, _lstm_dW_h),
          "gru": (1, _gru_step, _gru_step_bwd, _gru_dW_h)}


def _input_projection(X, W, b):
    """Every step's x W_x + b for (B, T, d) inputs, as one (B*T, d) matmul
    and b added in place (one (B*T, G*n) array, not two)."""
    B, steps, d = X.shape
    XA = X.data.reshape(-1, d) @ W.data[:d]
    XA += b.data
    return XA.reshape(B, steps, -1)


def _dW(rows, da, dW_h):
    """dW and db from the (N, G*n) pre-activation gradients of the (N, d)
    input ``rows``, in single matmuls; ``dW_h`` is dW's state rows."""
    return np.concatenate([rows.T @ da, dW_h]), da.sum(axis=0)


def _grads(X, W, da, dW_h):
    """dX, dW and db from the (N, G*n) pre-activation gradients of X's N
    rows, in single matmuls; ``dW_h`` is dW's state rows."""
    d = X.shape[-1]
    dX = (da @ W.data[:d].T).reshape(X.shape)
    return (dX, *_dW(X.data.reshape(-1, d), da, dW_h))


def rnn_step(kind, x, state, W, b):
    """One step of an LSTM or GRU (``kind``) over (B, d) rows, as one taped
    op: the (B, S) state ([h | c] or h) in, the new state out.

    W: (d + n, G * n) and b: (G * n,) hold the gates side by side (i|f|g|o
    or z|r|n).  Every row steps.
    """
    x, state = _as_tensor(x), _as_tensor(state)
    W, b = _as_tensor(W), _as_tensor(b)
    _, step, step_bwd, dW_h = _CELLS[kind]
    d = x.shape[-1]
    W_h = W.data[d:]
    s, cache = step(x.data @ W.data[:d] + b.data, state.data, W_h)

    def bwd(g):
        da, ds = step_bwd(g, W_h, cache)
        dx, dW, db = _grads(x, W, da, dW_h([cache], da))
        return dx, ds, dW, db

    return _make(s, (x, state, W, b), bwd)


def rnn_seq(kind, X, W, b, mask=None, reverse=False):
    """An LSTM or GRU (``kind``) over (B, T, d) inputs from a zero state, as
    one taped op; W and b are ``rnn_step``'s.

    Every step's input is projected in one matmul before the recurrence, so
    each step multiplies only h @ W_h; the backward returns dX, dW and db
    from single matmuls over all steps.  ``reverse`` runs the last step
    first.  Rows where the (B, T) 0/1 ``mask`` is 0 keep their state at that
    step (padding), and their state's gradient passes through that step
    unchanged.  Returns every step's h as (B, T, n), in input order.
    """
    X, W, b = _as_tensor(X), _as_tensor(W), _as_tensor(b)
    B, steps, d = X.shape
    n = W.shape[0] - d
    width, step, step_bwd, dW_h = _CELLS[kind]
    W_h = W.data[d:]
    XA = _input_projection(X, W, b)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    H = np.empty((B, steps, n))
    s = np.zeros((B, width * n))
    caches = [None] * steps   # kept only for a taped op's backward
    keep = _taped((X, W, b))
    for t in order:
        s2, cache = step(XA[:, t], s, W_h)
        m = None if mask is None else mask[:, t, None]
        s = s2 if m is None else m * s2 + (1.0 - m) * s
        if keep:
            caches[t] = cache
        H[:, t] = s[:, :n]

    def bwd(G):
        dA = np.empty((B, steps, W.shape[1]))
        ds = np.zeros((B, width * n))
        for t in reversed(order):
            ds[:, :n] += G[:, t]    # h is also step t's output
            m = None if mask is None else mask[:, t, None]
            dA[:, t], ds_in = step_bwd(ds if m is None else m * ds, W_h,
                                       caches[t])
            ds = ds_in if m is None else ds_in + (1.0 - m) * ds
        flat = dA.reshape(B * steps, -1)
        return _grads(X, W, flat, dW_h(caches, flat))

    return _make(H, (X, W, b), bwd)


# ---------------------------------------------------------------------------
# fused attention: one node per attention call for the scores, softmax and
# weighted sum (multi-head scaled dot-product, and additive)

def _unpack(a, rows):
    """Packed (N, d) rows into the padded (B, t, d) layout of the (B, t)
    boolean ``rows``, row-major, zeros where it is False; with no layout,
    ``a`` as it is."""
    if rows is None:
        return a
    out = np.zeros(rows.shape + a.shape[-1:])
    out[rows] = a
    return out


def attention(q, k, v, heads, mask=None, q_rows=None, kv_rows=None):
    """Multi-head scaled dot-product attention over projected rows.

    q: (B, tq, d) and k, v: (B, tk, d) are split into ``heads`` slices of
    dk = d/heads; each head computes softmax(q_h k_hᵀ/√dk + mask) v_h, where
    ``mask`` is an additive constant that broadcasts to (B, heads, tq, tk).
    Returns the heads merged back into one (B, tq, d) node, and the
    (B, heads, tq, tk) weights as an untaped array.

    ``q_rows`` and ``kv_rows`` are optional row layouts: (B, tq) and
    (B, tk) booleans.  With one, q (or k and v) holds only the layout's
    positions as packed (N, d) rows, row-major.  The op scatters them into
    the padded layout, zeros elsewhere, and with ``q_rows`` returns the
    output's (N, d) rows at those positions; its backward does the same in
    reverse.  The mask must keep every query of the layout off the keys it
    leaves out.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    Q = _unpack(q.data, q_rows)
    K, V = _unpack(k.data, kv_rows), _unpack(v.data, kv_rows)
    B, _, d = Q.shape
    dk = d // heads

    def split(a):
        return np.transpose(a.reshape(B, a.shape[1], heads, dk), (0, 2, 1, 3))

    def merge(a, rows):
        """(B, heads, t, dk) -> (B, t, d), or its (N, d) rows at ``rows``."""
        a = np.transpose(a, (0, 2, 1, 3))
        return a.reshape(B, a.shape[1], d) if rows is None else (
            a[rows].reshape(-1, d))

    qh, kh, vh = split(Q), split(K), split(V)
    scale = 1.0 / np.sqrt(dk)
    w = _softmax(np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale, mask)

    def bwd(g):
        # each matmul in the order and layout of the backward pass over the
        # composed ops (dK as (qᵀ g_s)ᵀ), so the gradients equal that pass's
        gh = split(_unpack(g, q_rows))
        gw = np.matmul(gh, np.swapaxes(vh, -1, -2))
        gs = _softmax_bwd(w, gw) * scale
        gk = np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gs), -1, -2)
        gv = np.matmul(np.swapaxes(w, -1, -2), gh)
        return (merge(np.matmul(gs, kh), q_rows), merge(gk, kv_rows),
                merge(gv, kv_rows))

    return _make(merge(np.matmul(w, vh), q_rows), (q, k, v), bwd), w


def _additive_fwd(q, keys, v, H, mask):
    """Additive attention of (B, a) projected queries q over the (B, T, a)
    keys: u = tanh(k_j + q), energies u·v, softmax weights w over j
    (``mask`` an additive (B, T) constant) and the (B, d) context, the
    weighted sum of H's rows.  Returns the context, w and u."""
    B, n, a = keys.shape
    u = np.tanh(keys + q.reshape(B, 1, a))
    w = _softmax((u @ v).reshape(B, n), mask)
    return (w.reshape(B, 1, n) @ H).reshape(B, H.shape[2]), w, u


def _additive_bwd(g, H, w, u, v):
    """From the gradient g of ``_additive_fwd``'s context: those of the
    energies (B, T), of u (B, T, a), which is the keys', and of the
    projected queries (B, a)."""
    B, n, a = u.shape
    gw = (g.reshape(B, 1, -1) @ np.swapaxes(H, -1, -2)).reshape(B, n)
    ge = _softmax_bwd(w, gw)
    gu = ge[:, :, None] * v.reshape(1, 1, a) * (1.0 - u * u)
    return ge, gu, gu.sum(axis=1)


def additive_attention(s, W_s, keys, v, H, mask=None):
    """Additive (Bahdanau) attention of (B, h) query rows over (B, T, d)
    states, as one taped op: energies e_j = v·tanh(s W_s + k_j) over the
    (B, T, a) keys, softmax over j (``mask`` is an additive (B, T) constant),
    context = the weighted sum of H's rows.

    Returns the (B, d) context as one node and the (B, T) weights as an
    untaped array.
    """
    s, W_s, keys, v, H = (_as_tensor(t) for t in (s, W_s, keys, v, H))
    a = keys.shape[2]
    ctx, w, u = _additive_fwd(s.data @ W_s.data, keys.data, v.data, H.data,
                              mask)

    def bwd(g):
        ge, gu, gq = _additive_bwd(g, H.data, w, u, v.data)
        gv = u.reshape(-1, a).T @ ge.reshape(-1, 1)
        gH = w[:, :, None] * g[:, None, :]
        return gq @ W_s.data.T, s.data.T @ gq, gu, gv, gH

    return _make(ctx, (s, W_s, keys, v, H), bwd), w


# ---------------------------------------------------------------------------
# the teacher-forced recurrent decoder: every step of every decoder layer,
# and with attention every step's additive attention, as one node

def decoder_seq(kind, X, states, cells, context, attention=None):
    """A stack of LSTM or GRU (``kind``) decoder layers over every step of
    (B, S, e) teacher-forced inputs, as one taped op.

    ``states`` holds each layer's (B, S_w) initial state and ``cells`` its
    (W, b), as ``rnn_step`` takes them.  Layer 0's input at a step is the
    step's row of X and then the step's (B, c) context; each layer above
    reads the h of the layer below.  Without ``attention`` the context is
    the fixed (B, c) ``context``.  With ``attention`` = (W_s, keys, v,
    mask) it is ``additive_attention`` over the (B, T, c) states
    ``context``, and its query is the top layer's h after the step before
    (at step 0, that of the top initial state).

    Layer 0's X W_e + b is one matmul before the recurrence.  The backward
    runs back through time by hand and does per step only what the
    recurrence needs; every gradient that sums over the steps (each layer's
    dW and db, dX, and the attention's dW_s, keys, v and H) is one op after
    it.  Returns [top h | context] of every step as one (B, S, n + c) node.
    """
    X, context = _as_tensor(X), _as_tensor(context)
    states = [_as_tensor(st) for st in states]
    Ws = [_as_tensor(W) for W, _ in cells]
    bs = [_as_tensor(b) for _, b in cells]
    att = () if attention is None else tuple(
        _as_tensor(t) for t in attention[:3])
    width, step, step_bwd, dW_h = _CELLS[kind]
    B, steps, e = X.shape
    n = states[0].shape[1] // width
    c = context.shape[-1]
    layers = range(len(cells))
    W_x = [W.data[:-n] for W in Ws]   # input rows: e + c at layer 0, n above
    W_h = [W.data[-n:] for W in Ws]
    W_c = W_x[0][e:]
    XA = _input_projection(X, Ws[0], bs[0])
    out = np.empty((B, steps, n + c))
    parents = (X, context, *states, *Ws, *bs, *att)
    keep = _taped(parents)   # the backward's caches, kept only when taped
    caches = [[None] * steps for _ in layers]
    ins = [np.empty((B, steps, n)) if keep and l else None for l in layers]
    if attention is None:
        XA += (context.data @ W_c)[:, None]
        out[:, :, n:] = context.data[:, None]
    else:
        W_s, keys, v = (t.data for t in att)
        H, mask = context.data, attention[3]
        T_src, a = keys.shape[1:]
        if keep:
            Q = np.empty((steps, B, n))
            U = np.empty((steps, B, T_src, a))
            A = np.empty((steps, B, T_src))
    s = [st.data for st in states]
    q = s[-1][:, :n]
    for t in range(steps):
        xa = XA[:, t]
        if attention is not None:
            ctx, w, u = _additive_fwd(q @ W_s, keys, v, H, mask)
            out[:, t, n:] = ctx
            xa = xa + ctx @ W_c
            if keep:
                Q[t], U[t], A[t] = q, u, w
        for l in layers:
            if l:
                xa = h @ W_x[l] + bs[l].data
                if keep:
                    ins[l][:, t] = h
            s[l], cache = step(xa, s[l], W_h[l])
            h = s[l][:, :n]
            if keep:
                caches[l][t] = cache
        out[:, t, :n] = h
        q = h

    def bwd(G):
        dA = [np.empty((B, steps, W.shape[1])) for W in Ws]
        ds = [np.zeros(st.shape) for st in s]
        if attention is not None:
            GC, GQ = np.empty((steps, B, c)), np.empty((steps, B, a))
            GE, GU = np.empty((steps, B, T_src)), np.empty(U.shape)
        for t in reversed(range(steps)):
            ds[-1][:, :n] += G[:, t, :n]
            for l in reversed(layers):
                da, ds[l] = step_bwd(ds[l], W_h[l], caches[l][t])
                dA[l][:, t] = da
                if l:
                    ds[l - 1][:, :n] += da @ W_x[l].T
            if attention is not None:   # da is layer 0's
                GC[t] = G[:, t, n:] + da @ W_c.T
                GE[t], GU[t], GQ[t] = _additive_bwd(GC[t], H, A[t], U[t], v)
                ds[-1][:, :n] += GQ[t] @ W_s.T   # the query: the top h before
        flat = [da.reshape(B * steps, -1) for da in dA]
        rows = [np.concatenate([X.data.reshape(-1, e),
                                out[:, :, n:].reshape(-1, c)], axis=1)]
        rows += [ins[l].reshape(-1, n) for l in layers[1:]]
        dWs, dbs = zip(*(_dW(r, f, dW_h(caches[l], f))
                         for l, (r, f) in enumerate(zip(rows, flat))))
        dX = (flat[0] @ W_x[0][:e].T).reshape(X.shape)
        if attention is None:
            dctx = G[:, :, n:].sum(axis=1) + dA[0].sum(axis=1) @ W_c.T
            return (dX, dctx, *ds, *dWs, *dbs)
        dH = np.matmul(A.transpose(1, 2, 0), GC.transpose(1, 0, 2))
        return (dX, dH, *ds, *dWs, *dbs,
                Q.reshape(-1, n).T @ GQ.reshape(-1, a), GU.sum(axis=0),
                U.reshape(-1, a).T @ GE.reshape(-1, 1))

    return _make(out, parents, bwd)


# ---------------------------------------------------------------------------
# normalization / probability ops

def _softmax(z, mask, axis=-1):
    """The stable softmax of ``softmax`` and both attention ops: exp(z +
    mask) / its sum along ``axis``, the maximum subtracted first; ``mask``
    is an additive constant or None."""
    if mask is not None:
        z = z + mask
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_bwd(y, g, axis=-1):
    """The gradient of the logits of softmax output ``y`` from that of y."""
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def softmax(a, axis=-1, mask=None):
    """Stable softmax along ``axis``; ``mask`` is an additive constant applied
    to the logits before normalization (use large negatives to exclude slots).
    """
    a = _as_tensor(a)
    if a.data.size == 0 or a.data.shape[axis] == 0:
        raise InvalidShape("softmax over an empty axis")
    y = _softmax(a.data, mask, axis)
    return _make(y, (a,), lambda g: (_softmax_bwd(y, g, axis),))


def _row_mean(a):
    """Mean over the last axis, kept: the sum and division ``np.mean`` does,
    without its dispatch overhead."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then affine.
    Forward and backward reuse their temporaries in place."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.shape[-1] != gain.shape[-1] or x.shape[-1] != bias.shape[-1]:
        raise InvalidShape("layer_norm dims mismatch")
    xhat = x.data - _row_mean(x.data)
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(_row_mean(y) + LN_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data

    def bwd(g):
        dx = g * gain.data
        tmp = np.multiply(dx, xhat)
        m_dx, m_dxx = _row_mean(dx), _row_mean(tmp)
        dx -= m_dx
        dx -= np.multiply(xhat, m_dxx, out=tmp)
        dx *= inv
        axes = tuple(range(g.ndim - 1))
        return (dx, np.multiply(g, xhat, out=tmp).sum(axis=axes),
                g.sum(axis=axes))

    return _make(y, (x, gain, bias), bwd)


def cross_entropy(probs, target):
    """-ln(probs[target] + floor) for a single probability vector: one row
    of ``cross_entropy_rows`` at weight 1."""
    probs = _as_tensor(probs)
    if probs.ndim != 1:
        raise InvalidShape("cross_entropy expects a probability vector")
    target = int(target)
    if target < 0 or target >= probs.shape[0]:
        raise IndexError(f"target {target} out of range for {probs.shape[0]} classes")
    return cross_entropy_rows(reshape(probs, (1, -1)), [target], [1.0])


def cross_entropy_rows(probs, targets, weights):
    """Weighted sum of per-row cross-entropies.

    probs: (N, V) rows on the simplex; targets: (N,) ids; weights: (N,)
    constants (use them to fold in per-word and per-batch averaging).
    """
    probs = _as_tensor(probs)
    targets = np.asarray(targets, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    rows = np.arange(probs.shape[0])
    p = probs.data[rows, targets]
    y = -(weights * np.log(p + EPS_LOG)).sum()

    def bwd(g):
        gp = np.zeros_like(probs.data)
        gp[rows, targets] = -g * weights / (p + EPS_LOG)
        return (gp,)

    return _make(y, (probs,), bwd)


# ---------------------------------------------------------------------------
# backward pass and the finite-difference oracle

def backward(graph, loss):
    """Propagate d(loss)/d(leaf) into every requires_grad leaf tensor.

    Interior gradients live only for the duration of the call, so calling
    twice without zeroing doubles the leaf gradients (additive contract).
    """
    if loss.data.size != 1:
        raise InvalidShape("loss must be scalar")
    if not loss.requires_grad:
        return
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(graph.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            if p._backward is not None:
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
            else:
                p.accumulate(pg)


def finite_diff_check(f, params, eps=1e-5):
    """Max relative error between taped gradients and central differences.

    ``f`` must be a deterministic closure over ``params`` (a name -> Tensor
    mapping) returning a scalar loss Tensor.  Non-determinism is detected by
    comparing two forward passes and fails loudly.
    """
    with no_grad():
        v1 = f().item()
        v2 = f().item()
    if v1 != v2:
        raise RuntimeError("finite_diff_check: f is not deterministic")

    for t in params.values():
        t.zero_grad()
    with Graph() as g:
        loss = f()
        backward(g, loss)

    worst = 0.0
    for t in params.values():
        flat = t.data.reshape(-1)
        gflat = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                up = f().item()
            flat[i] = orig - eps
            with no_grad():
                dn = f().item()
            flat[i] = orig
            gfd = (up - dn) / (2.0 * eps)
            gad = gflat[i]
            # the 1e-6 floor keeps central-difference roundoff (~ulp(loss)/eps)
            # from dominating when the true gradient component is near zero
            err = abs(gad - gfd) / max(abs(gad), abs(gfd), 1e-6)
            worst = max(worst, err)
    return worst
