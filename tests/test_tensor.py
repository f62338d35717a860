import math
import weakref

import numpy as np
import pytest

from cogtrans import tensor as T
from cogtrans.errors import InvalidShape


def rng():
    return np.random.default_rng(0)


def leaf(data):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = T.softmax(leaf([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3)

    def test_two_to_one_ratio(self):
        out = T.softmax(leaf([math.log(2.0), 0.0]))
        assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-15)

    def test_no_overflow_on_large_logits(self):
        out = T.softmax(leaf([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(1.0)

    def test_empty_axis_rejected(self):
        with pytest.raises(InvalidShape):
            T.softmax(leaf(np.zeros(0)))

    def test_simplex_property(self):
        for _ in range(50):
            x = leaf(rng().normal(scale=5.0, size=rng().integers(1, 9)))
            out = T.softmax(x)
            assert (out.data >= 0).all()
            assert abs(out.data.sum() - 1.0) < 1e-12


class TestCrossEntropy:
    def test_confident_correct(self):
        loss = T.cross_entropy(leaf([1.0, 0.0]), 0)
        assert loss.item() == pytest.approx(0.0, abs=1e-11)

    def test_even_split(self):
        loss = T.cross_entropy(leaf([0.5, 0.5]), 1)
        assert loss.item() == pytest.approx(math.log(2.0))

    def test_floor_keeps_loss_finite(self):
        loss = T.cross_entropy(leaf([0.0, 1.0]), 0)
        assert loss.item() == pytest.approx(-math.log(1e-12))

    def test_bad_target(self):
        with pytest.raises(IndexError):
            T.cross_entropy(leaf([0.5, 0.5]), 2)


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf([1.0, 2.0, 3.0])
        with T.Graph() as g:
            loss = T.tsum(x)
            T.backward(g, loss)
        assert np.array_equal(x.grad, np.ones(3))

    def test_dot_gives_other_operand(self):
        w = leaf([1.0, -2.0, 0.5])
        x = np.array([3.0, 4.0, 5.0])
        with T.Graph() as g:
            loss = T.tsum(T.mul(w, T.Tensor(x)))
            T.backward(g, loss)
        assert np.allclose(w.grad, x)

    def test_two_layer_tanh_net_matches_finite_differences(self):
        r = rng()
        w1 = leaf(r.normal(size=(3, 4)))
        w2 = leaf(r.normal(size=(4, 2)))
        x = T.Tensor(r.normal(size=(5, 3)))

        def f():
            return T.tsum(T.tanh(T.tanh(x @ w1) @ w2))

        assert T.finite_diff_check(f, {"w1": w1, "w2": w2}) < 1e-4

    def test_non_scalar_loss_rejected(self):
        x = leaf([1.0, 2.0])
        with T.Graph() as g:
            y = T.mul(x, x)
            with pytest.raises(InvalidShape):
                T.backward(g, y)

    def test_accumulation_doubles_on_second_call(self):
        x = leaf([1.0, 2.0])
        with T.Graph() as g:
            loss = T.tsum(T.mul(x, x))
            T.backward(g, loss)
            first = x.grad.copy()
            T.backward(g, loss)
        assert np.allclose(x.grad, 2 * first)

    def test_fanout_accumulates(self):
        x = leaf([2.0])
        with T.Graph() as g:
            loss = T.tsum(T.add(T.mul(x, x), x))
            T.backward(g, loss)
        assert np.allclose(x.grad, [5.0])

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
    def test_constant_parent_gets_no_gradient(self, op):
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        c = T.Tensor(np.array([0.5, -1.0]))
        g = np.ones((2, 2))
        with T.Graph():
            for y, grads in ((op(x, c), (True, False)),
                             (op(c, x), (False, True))):
                got = y._backward(g)
                assert [pg is not None for pg in got] == list(grads)
                assert all(pg.shape == (2, 2) for pg in got if pg is not None)


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        w = leaf([3.0])
        err = T.finite_diff_check(lambda: T.tsum(T.mul(w, w)), {"w": w})
        assert err < 1e-8

    def test_constant_function(self):
        w = leaf([1.0])
        err = T.finite_diff_check(lambda: T.tsum(T.Tensor(np.ones(1))), {"w": w})
        assert err == 0.0

    def test_nondeterminism_detected(self):
        w = leaf([1.0])
        state = {"n": 0}

        def f():
            state["n"] += 1
            return T.tsum(T.mul(w, T.Tensor(np.array([float(state["n"])]))))

        with pytest.raises(RuntimeError):
            T.finite_diff_check(f, {"w": w})


def _seq_case(kind, x, w, b, mask, reverse):
    """A finite-difference case for ``rnn_seq`` of one cell kind."""
    name = (f"{kind}_seq" + ("_masked" if mask is not None else "")
            + ("_reverse" if reverse else ""))
    return (name, [x, w, b],
            lambda x, w, b: T.tsum(T.mul(
                y := T.rnn_seq(kind, x, w, b, mask, reverse), y)))


def _decoder_case(kind, layers, attend, masked):
    """A finite-difference case for ``decoder_seq``: ``layers`` stacked
    cells of one kind, the context fixed or attended (over a source whose
    first row is padded when ``masked``); every input takes a gradient."""
    r = np.random.default_rng(44)   # own stream: the other cases keep theirs
    B, steps, e, n, c, src, a = 2, 3, 2, 2, 3, 4, 2
    G = {"lstm": 4, "gru": 3}[kind]
    width = 2 if kind == "lstm" else 1
    arrays = [r.normal(size=(B, steps, e)),
              r.normal(size=(B, src, c) if attend else (B, c))]
    arrays += [r.normal(size=(B, width * n)) for _ in range(layers)]
    arrays += [r.normal(size=(e + c + n if l == 0 else 2 * n, G * n))
               for l in range(layers)]
    arrays += [r.normal(size=G * n) for _ in range(layers)]
    if attend:
        arrays += [r.normal(size=(n, a)), r.normal(size=(B, src, a)),
                   r.normal(size=(a, 1))]
    mask = np.where(np.array([[1, 1, 0, 0], [1, 1, 1, 1]]) > 0, 0.0, -1e9)
    name = (f"{kind}_decoder_{layers}_layers"
            + ("_attention" if attend else "") + ("_masked" if masked else ""))

    def fn(X, ctx, *rest):
        states, rest = rest[:layers], rest[layers:]
        cells = list(zip(rest[:layers], rest[layers:2 * layers]))
        attention = None
        if attend:
            attention = (*rest[2 * layers:], mask if masked else None)
        y = T.decoder_seq(kind, X, states, cells, ctx, attention)
        return T.tsum(T.mul(y, y))

    return name, arrays, fn


def _op_cases():
    r = np.random.default_rng(42)
    a32 = r.normal(size=(3, 2))
    b32 = r.normal(size=(3, 2))
    pos = np.abs(r.normal(size=(3, 2))) + 0.5
    m23 = r.normal(size=(2, 3))
    m34 = r.normal(size=(3, 4))
    batch = r.normal(size=(2, 3, 4))
    ids = np.array([[1, 0], [2, 1]])
    table = r.normal(size=(4, 3))
    gain = r.normal(size=4) + 1.0
    bias = r.normal(size=4)
    probs_src = r.normal(size=(3, 5))
    r.normal(size=30)   # drawn for no case, so the cases below keep theirs
    lstm_w, lstm_b = r.normal(size=(6, 16)), r.normal(size=16)
    gru_w, gru_b = r.normal(size=(6, 12)), r.normal(size=12)
    aq, ak, av = (r.normal(size=(2, 3, 4)) for _ in range(3))
    causal = np.triu(np.full((3, 3), -1e9), k=1)[None, None]
    rs = np.random.default_rng(43)   # own stream: the other cases keep their draws
    seq_x = rs.normal(size=(3, 4, 2))
    lengths = (np.arange(4)[None, :] < np.array([4, 1, 3])[:, None]).astype(np.float64)
    att_s, att_ws, att_keys = rs.normal(size=(2, 3)), rs.normal(size=(3, 4)), rs.normal(size=(2, 5, 4))
    att_v, att_h = rs.normal(size=(4, 1)), rs.normal(size=(2, 5, 3))
    att_mask = np.where(np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]]) > 0, 0.0, -1e9)
    key_mask = np.where(np.array([[1, 1, 0], [1, 1, 1]]) > 0, 0.0, -1e9)[:, None, None, :]
    # packed rows: 5 real positions of a (2, 4) query grid and of the (2, 3)
    # key/value grid that key_mask masks
    rp = np.random.default_rng(45)   # own stream, as above
    q_rows = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=bool)
    kv_rows = np.array([[1, 1, 0], [1, 1, 1]], dtype=bool)
    pq, pk, pv = (rp.normal(size=(5, 4)) for _ in range(3))
    causal4 = np.triu(np.full((4, 4), -1e9), k=1)[None, None]
    return [
        ("add", [a32, b32], lambda a, b: T.tsum(T.add(a, b))),
        ("add_broadcast", [a32, r.normal(size=(2,))],
         lambda a, b: T.tsum(T.add(a, b))),
        ("sub", [a32, b32], lambda a, b: T.tsum(T.sub(a, b))),
        ("mul", [a32, b32], lambda a, b: T.tsum(T.mul(a, b))),
        ("neg", [a32], lambda a: T.tsum(T.neg(a))),
        ("tanh", [a32], lambda a: T.tsum(T.tanh(a))),
        ("sigmoid", [a32], lambda a: T.tsum(T.sigmoid(a))),
        ("relu", [a32 + 0.3], lambda a: T.tsum(T.relu(a))),
        ("exp", [a32], lambda a: T.tsum(T.exp(a))),
        ("log", [pos], lambda a: T.tsum(T.log(a))),
        ("sqrt", [pos], lambda a: T.tsum(T.sqrt(a))),
        ("matmul", [m23, m34], lambda a, b: T.tsum(a @ b)),
        ("matmul_batched", [batch, m34.T[:4, :3].copy()],
         lambda a, b: T.tsum(a @ b)),
        ("matmul_stacked", [batch, batch.transpose(0, 2, 1).copy()],
         lambda a, b: T.tsum(T.mul(y := a @ b, y))),
        ("matmul_weight_only", [m34],
         lambda w: T.tsum(T.mul(y := T.Tensor(batch[:, :, :3]) @ w, y))),
        ("concat", [a32, b32], lambda a, b: T.tsum(T.mul(c := T.concat([a, b], axis=1), c))),
        ("stack", [a32, b32], lambda a, b: T.tsum(T.mul(s := T.stack([a, b], axis=0), s))),
        ("getitem", [batch], lambda a: T.tsum(T.mul(g := a[:, 1], g))),
        ("transpose", [batch], lambda a: T.tsum(T.mul(t := T.transpose(a, (1, 0, 2)), t))),
        ("reshape", [a32], lambda a: T.tsum(T.mul(rr := T.reshape(a, (2, 3)), rr))),
        ("tsum_axis", [batch], lambda a: T.tsum(T.mul(s := T.tsum(a, axis=1), s))),
        ("tmean", [batch], lambda a: T.tsum(T.mul(m := T.tmean(a, axis=2), m))),
        ("gather_rows", [batch], lambda a: T.tsum(T.mul(g := T.gather_rows(a, np.array([2, 0])), g))),
        ("embedding", [table], lambda t: T.tsum(T.mul(e := T.embedding(t, ids), e))),
        ("softmax", [m23], lambda a: T.tsum(T.mul(s := T.softmax(a, axis=-1), s))),
        ("softmax_masked", [m23],
         lambda a: T.tsum(T.mul(
             s := T.softmax(a, axis=-1, mask=np.array([[1, 1, 0], [1, 1, 1]])), s))),
        ("layer_norm", [batch[0], gain, bias],
         lambda x, gg, bb: T.tsum(T.mul(l := T.layer_norm(x, gg, bb), l))),
        ("cross_entropy", [np.array([0.2, 0.5, 0.3])],
         lambda p: T.cross_entropy(p, 1)),
        *(_seq_case(kind, seq_x, w, b, mask, reverse)
          for kind, w, b in (("lstm", lstm_w, lstm_b), ("gru", gru_w, gru_b))
          for mask in (None, lengths) for reverse in (False, True)),
        *(_decoder_case(kind, layers, attend, masked)
          for kind in ("lstm", "gru") for layers in (1, 2)
          for attend, masked in ((False, False), (True, False), (True, True))),
        ("additive_attention", [att_s, att_ws, att_keys, att_v, att_h],
         lambda s, ws, k, v, h: T.tsum(T.mul(
             c := T.additive_attention(s, ws, k, v, h, np.zeros((2, 5)))[0],
             c))),
        ("additive_attention_masked", [att_s, att_ws, att_keys, att_v, att_h],
         lambda s, ws, k, v, h: T.tsum(T.mul(
             c := T.additive_attention(s, ws, k, v, h, att_mask)[0], c))),
        ("attention", [aq, ak, av],
         lambda q, k, v: T.tsum(T.mul(y := T.attention(q, k, v, 2)[0], y))),
        ("attention_causal", [aq, ak, av],
         lambda q, k, v: T.tsum(T.mul(y := T.attention(q, k, v, 2, causal)[0], y))),
        ("attention_key_masked", [aq, ak, av],
         lambda q, k, v: T.tsum(T.mul(
             y := T.attention(q, k, v, 2, key_mask)[0], y))),
        ("attention_packed_causal", [pq, pk, pv],
         lambda q, k, v: T.tsum(T.mul(
             y := T.attention(q, k, v, 2, causal4, q_rows, q_rows)[0], y))),
        ("attention_packed_key_masked", [pq, pk, pv],
         lambda q, k, v: T.tsum(T.mul(
             y := T.attention(q, k, v, 2, key_mask, q_rows, kv_rows)[0], y))),
        ("cross_entropy_rows", [probs_src],
         lambda p: T.cross_entropy_rows(
             T.softmax(p, axis=-1), np.array([1, 0, 4]),
             np.array([0.5, 0.25, 0.25]))),
    ]


@pytest.mark.parametrize("case", _op_cases(), ids=lambda c: c[0])
def test_op_gradients_match_finite_differences(case):
    _, arrays, fn = case
    params = {f"p{i}": leaf(a) for i, a in enumerate(arrays)}
    err = T.finite_diff_check(lambda: fn(*params.values()), params)
    assert err < 1e-4


class _Cache(list):
    """A step cache, as a list so that it can be weakly referenced."""


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_rnn_seq_keeps_step_caches_only_when_taped(monkeypatch, kind):
    """Untaped (no graph, or no parent that needs a gradient), a step's
    cache is freed once the next step has run; taped, every step's cache is
    kept for the backward pass."""
    width, step, step_bwd, dW_h = T._CELLS[kind]
    refs, alive = [], []

    def watched_step(*args):
        alive.append(sum(ref() is not None for ref in refs))
        s, cache = step(*args)
        cache = _Cache(cache)
        refs.append(weakref.ref(cache))
        return s, cache

    monkeypatch.setitem(T._CELLS, kind, (width, watched_step, step_bwd, dW_h))
    r = np.random.default_rng(0)
    d, n, steps = 2, 3, 6
    X = r.normal(size=(2, steps, d))
    W = r.normal(size=(d + n, (4 if kind == "lstm" else 3) * n))
    b = np.zeros(W.shape[1])

    def run(*args):
        refs.clear()
        alive.clear()
        return T.rnn_seq(kind, *args)

    run(leaf(X), leaf(W), leaf(b))
    assert max(alive) <= 1
    with T.Graph():
        run(T.Tensor(X), T.Tensor(W), T.Tensor(b))
    assert max(alive) <= 1
    with T.Graph() as g:
        out = run(T.Tensor(X), leaf(W), leaf(b))
        assert alive[-1] == steps - 1
        T.backward(g, T.tsum(out))


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_decoder_seq_keeps_step_caches_only_when_taped(monkeypatch, kind):
    """As ``rnn_seq``: untaped, a step's cache is freed once the next cell
    step has run; taped, every step's cache of every layer is kept for the
    backward pass."""
    width, step, step_bwd, dW_h = T._CELLS[kind]
    refs, alive = [], []

    def watched_step(*args):
        alive.append(sum(ref() is not None for ref in refs))
        s, cache = step(*args)
        cache = _Cache(cache)
        refs.append(weakref.ref(cache))
        return s, cache

    monkeypatch.setitem(T._CELLS, kind, (width, watched_step, step_bwd, dW_h))
    r = np.random.default_rng(0)
    B, steps, e, n, c, G = 2, 6, 2, 3, 4, (4 if kind == "lstm" else 3)
    X, ctx = r.normal(size=(B, steps, e)), r.normal(size=(B, c))
    states = [r.normal(size=(B, width * n)) for _ in range(2)]
    Ws = [r.normal(size=(e + c + n, G * n)), r.normal(size=(2 * n, G * n))]
    bs = [np.zeros(G * n)] * 2

    def run(wrap):
        refs.clear()
        alive.clear()
        return T.decoder_seq(kind, T.Tensor(X),
                             [T.Tensor(st) for st in states],
                             [(wrap(W), wrap(b)) for W, b in zip(Ws, bs)],
                             T.Tensor(ctx))

    run(leaf)
    assert max(alive) <= 1
    with T.Graph():
        run(T.Tensor)
    assert max(alive) <= 1
    with T.Graph() as g:
        out = run(leaf)
        assert alive[-1] == 2 * steps - 1
        T.backward(g, T.tsum(out))


def test_no_grad_suppresses_taping():
    x = leaf([1.0])
    with T.Graph() as g:
        with T.no_grad():
            T.mul(x, x)
        assert len(g.nodes) == 0


def test_layer_norm_oracles():
    zeros = T.layer_norm(leaf([5.0, 5.0, 5.0]), T.Tensor(np.ones(3)),
                         T.Tensor(np.zeros(3)))
    assert np.allclose(zeros.data, 0.0, atol=1e-3)
    ident = T.layer_norm(leaf([1.0, -1.0]), T.Tensor(np.ones(2)),
                         T.Tensor(np.zeros(2)))
    assert np.allclose(ident.data, [1.0, -1.0], atol=1e-5)
    biased = T.layer_norm(leaf([3.0, 7.0]), T.Tensor(np.zeros(2)),
                          T.Tensor(np.array([4.0, 5.0])))
    assert np.allclose(biased.data, [4.0, 5.0])


def _clipped_sigmoid(v):
    """The sigmoid formula with NumPy's clip: the reference for the
    in-place ``_sigmoid``."""
    return 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))


def test_sigmoid_bitwise_equals_clipped_formula():
    special = [np.inf, -np.inf, np.nan, 500.0, -500.0, 800.0, -800.0, 0.0,
               -0.0, 499.9, -499.9, 36.0, -36.0, 745.2, -745.2]
    v = np.concatenate([special, np.random.default_rng(0).normal(
        scale=20.0, size=20 * 192 - len(special))]).reshape(20, 192)
    got = T._sigmoid(v)
    assert got.view(np.int64).tolist() == _clipped_sigmoid(v).view(
        np.int64).tolist()
    assert got[0, 0] == 1.0 and got[0, 5] == 1.0   # inf, 800
    for x in (0.3, -800.0):   # a 0-d array stays an array
        assert T._sigmoid(np.array(x)).tobytes() == _clipped_sigmoid(
            np.array(x)).tobytes()


def test_layer_norm_bit_identical_to_formula():
    """Forward and backward with reused temporaries give exactly the bits
    of the formula written with a new array per step."""
    r = np.random.default_rng(5)
    mean = T._row_mean
    for shape in ((7,), (5, 7), (3, 4, 64)):
        x, g = r.normal(size=shape), r.normal(size=shape)
        gain, bias = r.normal(size=shape[-1]), r.normal(size=shape[-1])
        with T.Graph():
            y = T.layer_norm(leaf(x), leaf(gain), leaf(bias))
            grads = y._backward(g)
        xc = x - mean(x)
        inv = 1.0 / np.sqrt(mean(xc * xc) + T.LN_EPS)
        xhat = xc * inv
        dxhat = g * gain
        axes = tuple(range(g.ndim - 1))
        want = [xhat * gain + bias,
                inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
                (g * xhat).sum(axis=axes) if axes else g * xhat,
                g.sum(axis=axes) if axes else g]
        for got, ref in zip([y.data, *grads], want):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
