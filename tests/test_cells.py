import numpy as np
import pytest

from cogtrans import cells, tensor as T
from cogtrans.cells import (
    birnn_summary,
    cell_step,
    dropout,
    init_cell_params,
    init_embedding,
    run_birnn,
    run_rnn,
)
from cogtrans.devanagari import build_vocab
from cogtrans.errors import InvalidArgument, InvalidShape
from cogtrans.models import ModelConfig, build_model
from cogtrans.synthetic import generate_pairs


def _zeroed(kind, in_dim, h):
    p = init_cell_params(kind, in_dim, h, np.random.default_rng(0))
    p.W.data[...] = 0.0
    p.b.data[...] = 0.0
    return p


def _rand(kind, in_dim, h, seed=0):
    return init_cell_params(kind, in_dim, h, np.random.default_rng(seed))


def _gates(p):
    """A cell's per-gate matrices and biases, W_i ... b_n, sliced out of
    its stacked W and b."""
    n = p.hidden_dim
    names = "ifgo" if p.kind == "lstm" else "zrn"
    out = {}
    for k, g in enumerate(names):
        out[f"W_{g}"] = p.W.data[:, k * n:(k + 1) * n]
        out[f"b_{g}"] = p.b.data[k * n:(k + 1) * n]
    return out


def _row(v):
    return T.Tensor(np.asarray(v, dtype=np.float64).reshape(1, -1))


def lstm_step(x, h, c, p):
    """One LSTM step of CellParams ``p`` on rows; returns (h', c')."""
    _, s = cell_step(x, T.concat([h, c], axis=-1), p)
    return s[:, :p.hidden_dim], s[:, p.hidden_dim:]


def gru_step(x, h, p):
    """One GRU step of CellParams ``p`` on rows; returns h'."""
    return cell_step(x, h, p)[0]


def _state(kind, rows, n):
    """A zero (rows, S) cell state: [h | c] for LSTM, h for GRU."""
    return T.Tensor(np.zeros((rows, 2 * n if kind == "lstm" else n)))


class TestLSTM:
    def test_zero_weights_zero_output(self):
        p = _zeroed("lstm", 3, 2)
        h, c = lstm_step(_row(np.ones(3)), _row(np.zeros(2)),
                         _row(np.zeros(2)), p)
        assert np.allclose(h.data, 0.0)
        assert np.allclose(c.data, 0.0)

    def test_saturated_gates_carry_cell(self):
        p = _zeroed("lstm", 2, 2)
        _gates(p)["b_f"][...] = 50.0
        _gates(p)["b_i"][...] = -50.0
        c0 = np.array([0.3, -0.7])
        _, c1 = lstm_step(_row(np.ones(2)), _row(np.zeros(2)), _row(c0), p)
        assert np.allclose(c1.data[0], c0, atol=1e-12)

    def test_matches_scalar_oracle(self):
        p = _rand("lstm", 2, 2, seed=3)
        x = np.array([0.3, -0.4])
        h0 = np.array([0.1, 0.2])
        c0 = np.array([-0.2, 0.5])
        h1, c1 = lstm_step(_row(x), _row(h0), _row(c0), p)
        z = np.concatenate([x, h0])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        w = _gates(p)
        i = sig(z @ w["W_i"] + w["b_i"])
        f = sig(z @ w["W_f"] + w["b_f"])
        g = np.tanh(z @ w["W_g"] + w["b_g"])
        o = sig(z @ w["W_o"] + w["b_o"])
        c_ref = f * c0 + i * g
        h_ref = o * np.tanh(c_ref)
        assert np.allclose(c1.data[0], c_ref, atol=1e-12)
        assert np.allclose(h1.data[0], h_ref, atol=1e-12)

    def test_dim_mismatch(self):
        p = _rand("lstm", 3, 2)
        with pytest.raises(InvalidShape):
            lstm_step(_row(np.ones(4)), _row(np.zeros(2)),
                      _row(np.zeros(2)), p)

    def test_forget_bias_initialized_positive(self):
        p = _rand("lstm", 3, 4, seed=1)
        h = p.hidden_dim
        assert (p.b.data[h:2 * h] >= 1.0 - 0.09).all()


class TestGRU:
    def test_zero_weights_halve_state(self):
        p = _zeroed("gru", 3, 2)
        h0 = np.array([0.4, -0.8])
        h1 = gru_step(_row(np.ones(3)), _row(h0), p)
        assert np.allclose(h1.data[0], 0.5 * h0)

    def test_saturated_update_gate_carries_state(self):
        p = _zeroed("gru", 2, 2)
        _gates(p)["b_z"][...] = 50.0
        h0 = np.array([0.3, -0.1])
        h1 = gru_step(_row(np.ones(2)), _row(h0), p)
        assert np.allclose(h1.data[0], h0, atol=1e-12)

    def test_matches_scalar_oracle(self):
        p = _rand("gru", 2, 2, seed=5)
        x = np.array([0.2, -0.6])
        h0 = np.array([0.4, 0.1])
        h1 = gru_step(_row(x), _row(h0), p)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        w = _gates(p)
        zc = np.concatenate([x, h0])
        z = sig(zc @ w["W_z"] + w["b_z"])
        r = sig(zc @ w["W_r"] + w["b_r"])
        n = np.tanh(np.concatenate([x, r * h0]) @ w["W_n"] + w["b_n"])
        h_ref = z * h0 + (1.0 - z) * n
        assert np.allclose(h1.data[0], h_ref, atol=1e-12)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_cell_step_gradients(kind):
    p = _rand(kind, 3, 4, seed=7)
    x = T.Tensor(np.random.default_rng(1).normal(size=(2, 3)))

    def f():
        h, state = cell_step(x, _state(kind, 2, 4), p)
        h, state = cell_step(x, state, p)
        return T.tsum(T.mul(h, h))

    assert T.finite_diff_check(f, {"W": p.W, "b": p.b}) < 1e-4


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_init_concatenates_per_gate_draws(kind):
    """W is each gate's uniform draw in gate order, side by side, from the
    same generator; b is zero but for an LSTM's forget-gate columns."""
    p = _rand(kind, 3, 4, seed=6)
    rng = np.random.default_rng(6)
    draws = [rng.uniform(-cells.INIT_SCALE, cells.INIT_SCALE, size=(7, 4))
             for _ in range(4 if kind == "lstm" else 3)]
    assert np.array_equal(p.W.data, np.concatenate(draws, axis=1))
    bias = np.zeros(len(draws) * 4)
    if kind == "lstm":
        bias[4:8] = cells.FORGET_BIAS
    assert np.array_equal(p.b.data, bias)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_masked_rows_keep_their_state(kind):
    """Padding is masked in the sequence op only: a row's outputs past its
    length repeat its last real one, and its real steps are those of the
    row run alone."""
    cell = _rand(kind, 3, 4, seed=2)
    X = T.Tensor(np.random.default_rng(3).normal(size=(3, 5, 3)))
    lengths = [5, 2, 4]
    mask = (np.arange(5)[None, :]
            < np.array(lengths)[:, None]).astype(np.float64)
    H = run_rnn(X, cell, mask).data
    for b, n in enumerate(lengths):
        alone = run_rnn(T.Tensor(X.data[b:b + 1, :n]), cell).data[0]
        assert np.allclose(H[b, :n], alone, rtol=0, atol=1e-12)
        assert (H[b, n:] == H[b, n - 1]).all()


@pytest.mark.parametrize("kind, nodes", [("lstm", 2), ("gru", 1)])
def test_cell_step_records_one_op_and_an_lstm_h_slice(kind, nodes):
    """A step is one taped op; an LSTM step adds one slice of h from its
    [h | c] state, a GRU step none."""
    x = T.Tensor(np.ones((2, 3)))
    cell = _rand(kind, 3, 4, seed=4)
    with T.Graph() as g:
        h, state = cell_step(x, _state(kind, 2, 4), cell)
    assert len(g.nodes) == nodes
    assert h.shape == (2, 4) and state is g.nodes[0]


def _freeze_composed(mask, new, old):
    m, keep = T.Tensor(mask[:, None]), T.Tensor(1.0 - mask[:, None])
    return m * new + keep * old


def _composed_lstm(x, s, W, b, mask=None):
    """The LSTM step on the [h | c] state as separate taped ops, one matmul
    per gate: the reference ``tensor.rnn_step`` must match."""
    n = s.shape[-1] // 2
    h, c = s[:, :n], s[:, n:]
    z = T.concat([x, h], axis=-1)

    def gate(k):
        return z @ W[:, k * n:(k + 1) * n] + b[k * n:(k + 1) * n]

    i, f, g, o = T.sigmoid(gate(0)), T.sigmoid(gate(1)), T.tanh(gate(2)), \
        T.sigmoid(gate(3))
    c2 = f * c + i * g
    h2 = o * T.tanh(c2)
    s2 = T.concat([h2, c2], axis=-1)
    return s2 if mask is None else _freeze_composed(mask, s2, s)


def _composed_gru(x, h, W, b, mask=None):
    """The GRU step as separate taped ops."""
    n = h.shape[-1]
    zc = T.concat([x, h], axis=-1)
    z = T.sigmoid(zc @ W[:, :n] + b[:n])
    r = T.sigmoid(zc @ W[:, n:2 * n] + b[n:2 * n])
    cand = T.tanh(T.concat([x, r * h], axis=-1) @ W[:, 2 * n:] + b[2 * n:])
    h2 = z * h + T.sub(1.0, z) * cand
    return h2 if mask is None else _freeze_composed(mask, h2, h)


def _composed_step(kind, x, s, W, b, mask=None):
    """One step of either kind as composed ops: the reference for
    ``tensor.rnn_step``."""
    return (_composed_lstm if kind == "lstm" else _composed_gru)(x, s, W, b,
                                                                 mask)


def _composed_seq(kind, X, W, b, mask=None, reverse=False):
    """The sequence op as composed steps from a zero state, each step
    sliced out of X and each step's h sliced out of its state, the outputs
    stacked: the reference for ``tensor.rnn_seq``."""
    B, steps, d = X.shape
    n = W.shape[0] - d
    s = _state(kind, B, n)
    out = [None] * steps
    for t in (reversed(range(steps)) if reverse else range(steps)):
        s = _composed_step(kind, X[:, t], s, W, b,
                           None if mask is None else mask[:, t])
        out[t] = s[:, :n]
    return T.stack(out, axis=1)


def _composed_additive_attention(s, W_s, keys, v, H, mask=None):
    """Additive attention as separate taped ops: the reference for
    ``tensor.additive_attention``."""
    B, n = H.shape[0], H.shape[1]
    q = T.reshape(s @ W_s, (B, 1, -1))
    e = T.reshape(T.tanh(keys + q) @ v, (B, n))
    alpha = T.softmax(e, axis=-1, mask=mask)
    ctx = T.reshape(T.reshape(alpha, (B, 1, n)) @ H, (B, H.shape[2]))
    return ctx, alpha.data


def _leaves(r, *shapes):
    return [T.Tensor(r.normal(size=s), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_fused_step_matches_composed_reference(kind, seed):
    r = np.random.default_rng(seed)
    B, d, n = 4, 3, 5
    S, G = (2 * n, 4) if kind == "lstm" else (n, 3)
    leaves = _leaves(r, (B, d), (B, S), (d + n, G * n), (G * n,))
    weight = T.Tensor(r.normal(size=(B, S)))
    results = []
    for step in (T.rnn_step, _composed_step):
        for t in leaves:
            t.zero_grad()
        with T.Graph() as g:
            y = step(kind, *leaves)
            T.backward(g, T.tsum(y * weight))
        results.append((y.data, [t.grad.copy() for t in leaves]))
    (y_f, g_f), (y_c, g_c) = results
    assert np.allclose(y_f, y_c, rtol=0, atol=1e-12)
    for a, b in zip(g_f, g_c):
        assert np.allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_sequence_op_matches_composed_steps(kind, masked, reverse, seed):
    r = np.random.default_rng(seed)
    B, steps, d, n = 4, 5, 3, 6
    G = 4 if kind == "lstm" else 3
    mask = None
    if masked:   # rows of lengths 5, 2, 4 and 1, padded at the end
        mask = (np.arange(steps)[None, :]
                < np.array([5, 2, 4, 1])[:, None]).astype(np.float64)
    leaves = _leaves(r, (B, steps, d), (d + n, G * n), (G * n,))
    weight = T.Tensor(r.normal(size=(B, steps, n)))
    results = []
    for seq in (T.rnn_seq, _composed_seq):
        for t in leaves:
            t.zero_grad()
        with T.Graph() as g:
            y = seq(kind, *leaves, mask, reverse)
            T.backward(g, T.tsum(y * weight))
        results.append((y.data, [t.grad.copy() for t in leaves]))
    (y_f, g_f), (y_c, g_c) = results
    assert np.allclose(y_f, y_c, rtol=0, atol=1e-12)
    for a, b in zip(g_f, g_c):
        assert np.allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("masked", [False, True])
def test_additive_attention_matches_composed_ops(masked, seed):
    r = np.random.default_rng(seed)
    B, steps, h, a, d = 3, 4, 5, 6, 7
    mask = None
    if masked:
        mask = np.where(np.arange(steps)[None, :]
                        < np.array([4, 2, 3])[:, None], 0.0, -1e9)
    leaves = _leaves(r, (B, h), (h, a), (B, steps, a), (a, 1), (B, steps, d))
    weight = T.Tensor(r.normal(size=(B, d)))
    results = []
    for attend in (T.additive_attention, _composed_additive_attention):
        for t in leaves:
            t.zero_grad()
        with T.Graph() as g:
            ctx, w = attend(*leaves, mask)
            T.backward(g, T.tsum(ctx * weight))
        results.append((ctx.data, w, [t.grad.copy() for t in leaves]))
    (c_f, w_f, g_f), (c_c, w_c, g_c) = results
    assert np.array_equal(c_f, c_c) and np.array_equal(w_f, w_c)
    for x, y in zip(g_f, g_c):
        assert np.allclose(x, y, rtol=0, atol=1e-12)


def test_run_rnn_checks_input_width():
    cell = _rand("lstm", 3, 2)
    with pytest.raises(InvalidShape):
        run_rnn(T.Tensor(np.zeros((1, 2, 4))), cell)


def _per_step_loss_batch(model, src, src_mask, tgt, tgt_len, tgt_mask,
                         train=True, rng=None):
    """A recurrent model's teacher-forced loss with one ``decode_step`` per
    target step, its top states and contexts stacked and joined, and the
    rows of the scored steps picked for the output layer: the reference for
    the one ``tensor.decoder_seq`` node of ``loss_batch``."""
    rng = rng or np.random.default_rng(0)
    enc, layers = model._start(src, src_mask, train, rng)
    emb_in = model._embed(tgt[:, :-1], train, rng)
    tops, ctxs = [], []
    for t in range(tgt.shape[1] - 1):
        h, ctx, layers, _ = model.decode_step(emb_in[:, t], layers, enc,
                                              train, rng)
        tops.append(h)
        ctxs.append(ctx)

    def rows(steps):   # (B, h) per step -> (B * steps, h), batch-major
        return T.reshape(T.stack(steps, axis=1), (-1, steps[0].shape[-1]))

    joined = T.concat([rows(tops), rows(ctxs)], axis=-1)
    probs = model._output_dist(joined[tgt_mask[:, 1:].reshape(-1) > 0])
    return model._loss_from_probs(probs, tgt, tgt_len, tgt_mask)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("arch", ["seq2seq", "am", "han"])
def test_model_losses_match_composed_steps(arch, seed, monkeypatch):
    """A model's loss and gradients through the fused ops (sequence ops,
    the decoder op) equal those through composed ops and one decoder step
    at a time, for both cell kinds, one and two decoder layers, and with
    and without dropout, whose masks are drawn alike."""
    pairs = generate_pairs(seed, 24)
    vocab = build_vocab(pairs)
    keep = cells._keep
    for cell in ("lstm", "gru"):
        for layers in (1, 2):
            for rate in (0.0, 0.1):
                cfg = ModelConfig(architecture=arch, cell=cell, hidden_dim=8,
                                  embed_dim=6, chunk_size=2,
                                  decoder_layers=layers, dropout=rate)
                model = build_model(cfg, vocab, seed=seed)
                results = []
                for composed in (False, True):
                    masks = []
                    monkeypatch.setattr(cells, "_keep", lambda *a: (
                        masks.append(keep(*a)) or masks[-1]))
                    if composed:
                        monkeypatch.setattr(T, "rnn_step", _composed_step)
                        monkeypatch.setattr(T, "rnn_seq", _composed_seq)
                        monkeypatch.setattr(T, "additive_attention",
                                            _composed_additive_attention)
                        monkeypatch.setattr(type(model), "loss_batch",
                                            _per_step_loss_batch)
                    model.zero_grads()
                    with T.Graph() as g:
                        loss = model.loss_words(
                            pairs, train=True,
                            rng=np.random.default_rng(seed))
                        T.backward(g, loss)
                    results.append((loss.item(), masks,
                                    {k: t.grad.copy()
                                     for k, t in model.params.items()}))
                    monkeypatch.undo()
                (loss_f, masks_f, grads_f), ref = results
                loss_c, masks_c, grads_c = ref
                assert abs(loss_f - loss_c) <= 1e-12
                for k in grads_f:
                    assert np.allclose(grads_f[k], grads_c[k], rtol=0,
                                       atol=1e-12), (cell, layers, rate, k)
                # embeddings of source and target, then the top states: one
                # (S, B, h) draw fused, S draws of (B, h) step by step
                assert len(masks_f) == (3 if rate else 0)
                if rate:
                    assert np.array_equal(masks_f[0], masks_c[0])
                    assert np.array_equal(masks_f[1], masks_c[1])
                    assert np.array_equal(masks_f[2], np.stack(masks_c[2:]))


def _sequence(n):
    return T.Tensor(np.stack([np.random.default_rng(i).normal(size=3)
                              for i in range(n)])[None])


class TestBidirectional:
    def test_length_and_dim(self):
        pf, pb = _rand("lstm", 3, 80, 0), _rand("lstm", 3, 80, 1)
        out = run_birnn(_sequence(4), pf, pb)
        assert out.shape[1] == 4
        assert out.shape[-1] == 160

    def test_single_step_is_concat_of_both_directions(self):
        pf, pb = _rand("gru", 3, 2, 0), _rand("gru", 3, 2, 1)
        x = T.Tensor(np.array([[0.1, 0.2, 0.3]]))
        out = run_birnn(T.reshape(x, (1, 1, 3)), pf, pb)
        hf = gru_step(x, T.Tensor(np.zeros((1, 2))), pf)
        hb = gru_step(x, T.Tensor(np.zeros((1, 2))), pb)
        assert np.allclose(out.data[:, 0],
                           np.concatenate([hf.data, hb.data], axis=-1))

    def test_reversal_symmetry(self):
        pf, pb = _rand("lstm", 3, 2, 0), _rand("lstm", 3, 2, 1)
        seq = _sequence(5)
        ab = run_birnn(seq, pf, pb)
        ba = run_birnn(T.Tensor(seq.data[:, ::-1]), pb, pf)
        h = 2
        for t in range(5):
            fwd, bwd = ab.data[0, t, :h], ab.data[0, t, h:]
            rb, rf = ba.data[0, 4 - t, :h], ba.data[0, 4 - t, h:]
            assert np.allclose(fwd, rf) and np.allclose(bwd, rb)

    def test_summary_is_each_direction_after_its_last_step(self):
        pf, pb = _rand("lstm", 3, 2, 0), _rand("lstm", 3, 2, 1)
        X = T.Tensor(np.random.default_rng(2).normal(size=(2, 4, 3)))
        mask = np.array([[1.0, 1, 1, 1], [1, 1, 0, 0]])
        out = birnn_summary(run_birnn(X, pf, pb, mask))
        fwd = run_rnn(X, pf, mask).data
        bwd = run_rnn(X, pb, mask, reverse=True).data
        # a padded row's forward state is frozen at its last real char
        assert np.array_equal(out.data[:, :2], fwd[:, -1])
        assert np.array_equal(fwd[1, -1], fwd[1, 1])
        assert np.array_equal(out.data[:, 2:], bwd[:, 0])


class TestDropout:
    def test_rate_zero_identity(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        r = np.random.default_rng(0)
        assert np.array_equal(dropout(x, 0.0, r).data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        r = np.random.default_rng(0)
        x = T.Tensor(np.ones((100, 1000)))
        out = dropout(x, 0.2, r)
        assert out.data.mean() == pytest.approx(1.0, rel=0.01)

    def test_bad_rate(self):
        x = T.Tensor(np.ones(3))
        with pytest.raises(InvalidArgument):
            dropout(x, 1.0, np.random.default_rng(0))
        with pytest.raises(InvalidArgument):
            dropout(x, -0.1, np.random.default_rng(0))


class TestEmbedding:
    def test_shapes_and_trainable(self):
        emb = init_embedding(7, 4, np.random.default_rng(0))
        assert emb.shape == (7, 4)
        assert emb.requires_grad

    def test_pretrained_rows_used(self):
        table = np.arange(12.0).reshape(4, 3)
        emb = init_embedding(4, 3, np.random.default_rng(0),
                             pretrained=table)
        assert np.array_equal(emb.data, table)
        assert emb.requires_grad

    def test_pretrained_shape_checked(self):
        with pytest.raises(InvalidShape):
            init_embedding(4, 3, np.random.default_rng(0),
                           pretrained=np.zeros((2, 3)))
