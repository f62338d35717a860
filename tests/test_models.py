import math

import numpy as np
import pytest

from cogtrans import models, tensor as T
from cogtrans.data_io import split_dataset
from cogtrans.devanagari import CharVocab, build_vocab, strip_trailing_repeats
from cogtrans.errors import (EmptyInput, InvalidArgument, InvalidShape,
                             UnmappedSymbol)
from cogtrans.models import (
    ModelConfig,
    attend_bahdanau,
    build_model,
    encode_batch,
    multi_head_attention,
    positional_encoding,
    transduce_batch,
    transduce_greedy,
)
from cogtrans.synthetic import generate_pairs
from cogtrans.training import OptimizerSpec, TrainConfig, train

PAIRS = [("abc", "abd"), ("ba", "ab"), ("cab", "cab")]


def _vocab():
    return build_vocab(PAIRS)


def _cfg(arch, **kw):
    base = dict(hidden_dim=6, embed_dim=5, d_model=8, num_heads=2,
                ffn_dim=12, num_layers=1, max_decode_len=10)
    base.update(kw)
    return ModelConfig(architecture=arch, **base)


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            ModelConfig(architecture="rnn").validate()
        with pytest.raises(InvalidArgument):
            ModelConfig(architecture="tn", d_model=10, num_heads=4).validate()
        with pytest.raises(InvalidArgument):
            ModelConfig(architecture="han", chunk_size=0).validate()
        with pytest.raises(InvalidArgument, match="script"):
            ModelConfig(architecture="am", script="latin").validate()
        assert ModelConfig(architecture="am").script == "raw"

    @pytest.mark.parametrize("field,value", [
        ("hidden_dim", 0), ("embed_dim", 0), ("encoder_layers", 0),
        ("decoder_layers", 0), ("num_layers", 0), ("num_heads", 0),
        ("num_heads", -2), ("d_model", 0), ("ffn_dim", 0),
        ("max_decode_len", 0), ("dropout", 1.0), ("dropout", -0.1)])
    def test_sizes_and_rate_checked(self, field, value):
        with pytest.raises(InvalidArgument, match=field):
            ModelConfig(architecture="tn", **{field: value}).validate()


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        pe = positional_encoding(3, 6)
        assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1])

    def test_bounded(self):
        pe = positional_encoding(50, 16)
        assert (np.abs(pe) <= 1.0).all()

    def test_position_one_values(self):
        pe = positional_encoding(2, 4)
        expected = [math.sin(1.0), math.cos(1.0),
                    math.sin(1e-2), math.cos(1e-2)]
        assert np.allclose(pe[1], expected, atol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(InvalidArgument):
            positional_encoding(4, 5)


class TestBahdanau:
    def _params(self, h, seed=0):
        r = np.random.default_rng(seed)
        return {
            "W_s": T.Tensor(r.normal(size=(h, h)), requires_grad=True),
            "W_h": T.Tensor(r.normal(size=(2 * h, h)), requires_grad=True),
            "v": T.Tensor(r.normal(size=(h, 1)), requires_grad=True),
        }

    def test_matches_independent_computation(self):
        h = 3
        p = self._params(h)
        r = np.random.default_rng(1)
        s = T.Tensor(r.normal(size=(1, h)))
        H = T.Tensor(r.normal(size=(1, 4, 2 * h)))
        ctx, alpha = attend_bahdanau(s, H, H @ p["W_h"], p, np.ones((1, 4)))
        assert ctx.shape == (1, 2 * h) and alpha.shape == (1, 4)
        e = np.tanh(s.data[0] @ p["W_s"].data
                    + H.data[0] @ p["W_h"].data) @ p["v"].data
        e = e.reshape(-1)
        a_ref = np.exp(e - e.max())
        a_ref /= a_ref.sum()
        assert np.allclose(alpha[0], a_ref, atol=1e-12)
        assert np.allclose(ctx.data[0], a_ref @ H.data[0], atol=1e-12)

    def test_row_stochastic(self):
        p = self._params(3)
        r = np.random.default_rng(2)
        H = T.Tensor(r.normal(size=(1, 5, 6)))
        _, alpha = attend_bahdanau(T.Tensor(r.normal(size=(1, 3))), H,
                                   H @ p["W_h"], p, np.ones((1, 5)))
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_when_states_equal(self):
        p = self._params(3)
        H = T.Tensor(np.tile(np.arange(6.0), (1, 4, 1)))
        ctx, alpha = attend_bahdanau(T.Tensor(np.zeros((1, 3))), H,
                                     H @ p["W_h"], p, np.ones((1, 4)))
        assert np.allclose(alpha, 0.25)
        assert np.allclose(ctx.data, H.data.mean(axis=1))

    def test_empty_states(self):
        p = self._params(3)
        with pytest.raises(EmptyInput):
            attend_bahdanau(T.Tensor(np.zeros((1, 3))),
                            T.Tensor(np.zeros((1, 0, 6))),
                            T.Tensor(np.zeros((1, 0, 3))), p, np.ones((1, 0)))


def _split_heads(x, heads):
    B, t, d = x.shape
    return T.transpose(T.reshape(x, (B, t, heads, d // heads)), (0, 2, 1, 3))


def _scatter(x, rows):
    """Packed (N, d) rows into the padded (B, t, d) layout of the (B, t)
    boolean ``rows``, zeros elsewhere, as the product with a constant 0/1
    matrix: each output element and each gradient element is one term, so
    both directions are exact."""
    if rows is None:
        return x
    select = np.zeros((rows.size, x.shape[0]))
    select[np.flatnonzero(rows), np.arange(x.shape[0])] = 1.0
    return T.reshape(T.Tensor(select) @ x, rows.shape + x.shape[-1:])


def _composed_attention(q, k, v, heads, W_o, mask, q_rows=None,
                        kv_rows=None):
    """``multi_head_attention`` as a chain of small taped ops (packed rows
    scattered into the padded layout, head split, scaled scores, an
    additive mask that is all zeros when nothing is masked, softmax,
    weighted sum, head merge, the packed query rows gathered back): the
    reference for the one fused ``tensor.attention`` node."""
    q, k, v = _scatter(q, q_rows), _scatter(k, kv_rows), _scatter(v, kv_rows)
    B, tq, d = q.shape
    qh, kh, vh = (_split_heads(x, heads) for x in (q, k, v))
    scores = qh @ T.transpose(kh, (0, 1, 3, 2)) * (1.0 / np.sqrt(d // heads))
    full = np.zeros((B, 1, tq, kh.shape[2]))
    if mask is not None:
        full += mask
    weights = T.softmax(scores, axis=-1, mask=full)
    out = T.reshape(T.transpose(weights @ vh, (0, 2, 1, 3)), (B, tq, d))
    if q_rows is not None:
        out = out[q_rows]
    return out @ W_o, weights.data


def _stacked_matmul(a, b):
    """``tensor.matmul`` as NumPy's stacked matmul for every operand shape,
    a broadcast weight's gradient summed over the batch afterwards: the
    reference for the one GEMM that a 2-D right operand runs."""
    a, b = T._as_tensor(a), T._as_tensor(b)

    def bwd(g):
        return (T._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                               a.shape),
                T._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                               b.shape))

    return T._make(np.matmul(a.data, b.data), (a, b), bwd)


class TestOneGemmMatmul:
    @pytest.mark.parametrize("t", [2, 5, 13])
    def test_flat_gemm_matches_stacked(self, t):
        """Forward bit-equal for more than one row per item; the
        gradients group their sums differently, so they differ in the last
        bits."""
        r = np.random.default_rng(t)
        a = T.Tensor(r.normal(size=(20, t, 64)), requires_grad=True)
        w = T.Tensor(r.normal(size=(64, 48)), requires_grad=True)
        g = r.normal(size=(20, t, 48))
        with T.Graph():
            y, ref = T.matmul(a, w), _stacked_matmul(a, w)
            grads, ref_grads = y._backward(g), ref._backward(g)
        assert np.array_equal(y.data, ref.data)
        for got, want in zip(grads, ref_grads):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    def test_constant_operand_gets_no_gradient(self):
        r = np.random.default_rng(0)
        a, w = r.normal(size=(3, 4, 5)), r.normal(size=(5, 2))
        g = r.normal(size=(3, 4, 2))
        with T.Graph():
            ga, gw = T.matmul(T.Tensor(a), T.Tensor(w, requires_grad=True)
                              )._backward(g)
            ga2, gw2 = T.matmul(T.Tensor(a, requires_grad=True), T.Tensor(w)
                                )._backward(g)
        assert ga is None and gw2 is None
        assert gw.shape == w.shape and ga2.shape == a.shape

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    @pytest.mark.parametrize("seed,dropout", [(0, 0.0), (1, 0.1), (2, 0.0)])
    def test_losses_and_gradients_match_stacked_path(self, arch, seed,
                                                     dropout, monkeypatch):
        pairs = generate_pairs(seed, 12)   # words of mixed length: padded
        vocab = build_vocab(pairs)
        cfg = _cfg(arch, d_model=64, num_heads=4, ffn_dim=24, num_layers=2,
                   decoder_layers=2, dropout=dropout)

        def run():
            model = build_model(cfg, vocab, seed=seed)
            with T.Graph() as g:
                loss = model.loss_words(pairs, train=True,
                                        rng=np.random.default_rng(seed))
                T.backward(g, loss)
            return loss.data, {k: t.grad for k, t in model.params.items()}

        loss, grads = run()
        monkeypatch.setattr(T, "matmul", _stacked_matmul)
        ref_loss, ref_grads = run()
        assert abs(loss - ref_loss) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            assert np.abs(grads[k] - ref_grads[k]).max() <= 1e-12, k


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("arch", ["seq2seq", "am", "han"])
def test_training_batch_records_one_decoder_node(arch, cell, monkeypatch):
    """Every decoder step of every layer, and its attention, is one taped
    node, so a batch records as many nodes for long targets as for short."""
    decoded = []
    fused = T.decoder_seq

    def spy(*args):
        decoded.append(fused(*args))
        return decoded[-1]

    monkeypatch.setattr(T, "decoder_seq", spy)
    vocab = build_vocab([("abcd", "abcd")])
    model = build_model(_cfg(arch, cell=cell, decoder_layers=2), vocab,
                        seed=0)
    nodes = []
    for length in (1, 3, 12):
        pairs = [("abcd", "ab" * length), ("dcb", "c" * length)]
        with T.Graph() as g:
            loss = model.loss_words(pairs, train=True)
            T.backward(g, loss)
        assert len(decoded) == len(nodes) + 1
        out = decoded[-1]
        assert out.shape == (2, 2 * length + 1, 3 * model.cfg.hidden_dim)
        assert sum(node is out for node in g.nodes) == 1
        nodes.append(len(g.nodes))
    assert len(set(nodes)) == 1


_PADDING_CASES = [("tn", "lstm")] + [
    (arch, cell) for arch in ("seq2seq", "am", "han") for cell in ("lstm", "gru")]


@pytest.mark.parametrize("arch,cell", _PADDING_CASES)
def test_padded_batch_equals_mean_of_single_words(arch, cell):
    """Without dropout, the loss of a padded batch of words of mixed length
    is the mean of the words' batch-of-one losses, and each parameter's
    gradient the mean of theirs.  A batch of one has no padding, so no
    padded position may reach the loss, whatever path leaves it out."""
    pairs = generate_pairs(3, 10)
    assert len({len(s) for s, _ in pairs}) > 2
    assert len({len(t) for _, t in pairs}) > 2
    vocab = build_vocab(pairs)
    model = build_model(_cfg(arch, cell=cell, d_model=16, ffn_dim=24,
                             num_layers=2, decoder_layers=2, chunk_size=3),
                        vocab, seed=1)

    def run(batch):
        model.zero_grads()
        with T.Graph() as g:
            loss = model.loss_words(batch, train=False)
            T.backward(g, loss)
        return loss.item(), {k: t.grad.copy() for k, t in model.params.items()}

    loss, grads = run(pairs)
    singles = [run([pair]) for pair in pairs]
    assert abs(loss - np.mean([l for l, _ in singles])) <= 1e-12
    for k, grad in grads.items():
        mean = np.mean([one[k] for _, one in singles], axis=0)
        assert np.abs(grad - mean).max() <= 1e-12, k


def _causal(t):
    return np.triu(np.full((t, t), -1e9), k=1)[None, None]


class TestMultiHeadAttention:
    """``multi_head_attention`` over rows that are already projected: the
    identity output projection leaves softmax(q kᵀ/√dk + mask) v."""

    def test_single_head_is_scaled_dot_product(self):
        d = 4
        r = np.random.default_rng(0)
        q = r.normal(size=(1, 3, d))
        k = r.normal(size=(1, 5, d))
        v = r.normal(size=(1, 5, d))
        out, w = multi_head_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v),
                                      1, T.Tensor(np.eye(d)), None)
        scores = q[0] @ k[0].T / math.sqrt(d)
        ref = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ref /= ref.sum(axis=-1, keepdims=True)
        assert np.allclose(out.data[0], ref @ v[0], atol=1e-12)
        assert np.allclose(w[0, 0], ref, atol=1e-12)

    def test_constant_keys_average_values(self):
        d = 4
        r = np.random.default_rng(1)
        q = r.normal(size=(1, 2, d))
        k = np.tile(r.normal(size=(1, 1, d)), (1, 6, 1))
        v = r.normal(size=(1, 6, d))
        out, _ = multi_head_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v),
                                      1, T.Tensor(np.eye(d)), None)
        assert np.allclose(out.data[0], np.tile(v[0].mean(axis=0), (2, 1)),
                           atol=1e-12)

    def test_causal_mask_blocks_future(self):
        d = 4
        r = np.random.default_rng(2)
        x1 = r.normal(size=(1, 5, d))
        x2 = x1.copy()
        x2[0, 3:] += 10.0
        o1, _ = multi_head_attention(T.Tensor(x1), T.Tensor(x1), T.Tensor(x1),
                                     2, T.Tensor(np.eye(d)), _causal(5))
        o2, _ = multi_head_attention(T.Tensor(x2), T.Tensor(x2), T.Tensor(x2),
                                     2, T.Tensor(np.eye(d)), _causal(5))
        assert np.array_equal(o1.data[0, :3], o2.data[0, :3])

    @staticmethod
    def _attention_case(mha, mode, seed):
        """Output, weights and every gradient of one attention block, its
        queries projected before its keys and values as the model does.

        The width is the benchmark model's, 64: at widths of 16 and below
        the matmuls that carry the gradient back to the inputs gave the same
        sums whatever the memory layout of the gradient they were handed, so
        a backward that handed over another layout went unnoticed."""
        r = np.random.default_rng(seed)
        B, t, d, heads = 2, 4, 64, 4
        p = {name: T.Tensor(r.normal(size=(d, d)), requires_grad=True)
             for name in ("W_q", "W_k", "W_v", "W_o")}
        x = T.Tensor(r.normal(size=(B, t, d)), requires_grad=True)
        mem = T.Tensor(r.normal(size=(B, t + 1, d)), requires_grad=True)
        probe = r.normal(size=(B, t, d))
        mask = None
        # packed modes: the real rows of words of 4 and 2 positions, over
        # keys of 5 and 3
        q_rows = kv_rows = None
        if mode.startswith("packed"):
            q_rows = np.arange(t)[None, :] < np.array([[t], [2]])
            kv_rows = np.arange(t + 1)[None, :] < np.array([[t + 1], [3]])
            probe = probe[q_rows]
        with T.Graph() as g:
            queries = x if q_rows is None else x[q_rows]
            if mode == "kv":   # one query over cached keys, as a decode step
                q = x[:, -1:] @ p["W_q"]
                probe = probe[:, -1:]
            else:
                q = queries @ p["W_q"]
            if mode in ("causal", "packed_causal"):
                keys, kv_rows = queries, q_rows
                mask = _causal(t)
            else:
                keys = mem if kv_rows is None else mem[kv_rows]
            k, v = keys @ p["W_k"], keys @ p["W_v"]
            if mode in ("key_masked", "packed_cross"):
                mask = np.zeros((B, 1, 1, t + 1))
                mask[1, ..., -2:] = -1e9
            out, w = mha(q, k, v, heads, p["W_o"], mask, q_rows, kv_rows)
            T.backward(g, T.tsum(T.mul(out, probe)))
        grads = [t.grad for t in (x, mem, *p.values())]
        return out.data, w, grads

    @pytest.mark.parametrize("mode", ["plain", "causal", "key_masked", "kv",
                                      "packed_causal", "packed_cross"])
    @pytest.mark.parametrize("seed", range(3))
    def test_fused_matches_composed_ops_exactly(self, mode, seed):
        out, w, grads = self._attention_case(multi_head_attention, mode, seed)
        ref_out, ref_w, ref_grads = self._attention_case(
            _composed_attention, mode, seed)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(w, ref_w)
        for got, want in zip(grads, ref_grads):
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)

    def test_indivisible_heads_rejected(self):
        x = T.Tensor(np.zeros((1, 2, 6)))
        with pytest.raises(InvalidArgument):
            multi_head_attention(x, x, x, 4, T.Tensor(np.eye(6)), None)


class TestDecoding:
    @pytest.mark.parametrize("arch", ["seq2seq", "am", "han", "tn"])
    def test_distributions_and_attention_rows(self, arch):
        model = build_model(_cfg(arch), _vocab(), seed=3)
        result = transduce_greedy(model, "abc")
        att = result.attention
        assert att.shape[1] == 5  # BOS + 3 chars + EOS
        if att.shape[0]:
            assert np.allclose(att.sum(axis=1), 1.0, atol=1e-6)
            assert (att >= 0).all()

    @pytest.mark.parametrize("arch", ["seq2seq", "am", "han", "tn"])
    def test_decoding_deterministic(self, arch):
        model = build_model(_cfg(arch), _vocab(), seed=4)
        r1 = transduce_greedy(model, "cab")
        r2 = transduce_greedy(model, "cab")
        assert r1.word == r2.word
        assert np.array_equal(r1.attention, r2.attention)

    def test_empty_word_rejected(self):
        model = build_model(_cfg("am"), _vocab(), seed=0)
        with pytest.raises(EmptyInput):
            transduce_greedy(model, "")

    @pytest.mark.parametrize("arch", ["seq2seq", "am", "han", "tn"])
    @pytest.mark.parametrize("stop", [True, False])
    def test_one_attention_row_per_decoder_step(self, arch, stop):
        """The step that emits EOS has its row too; a truncated decode has
        one row per emitted char."""
        vocab = _vocab()
        model = build_model(_cfg(arch), vocab, seed=3)
        sym = CharVocab.EOS if stop else vocab.index["a"]
        model.params["b_out"].data[sym] = 1e3
        src, _, mask = encode_batch(vocab, ["abc"])
        [(out, att, truncated)] = model.transduce_ids(src, mask)
        assert truncated is not stop
        assert len(out) == (0 if stop else model.cfg.max_decode_len)
        assert att.shape == (len(out) + (not truncated), 5)
        assert np.allclose(att.sum(axis=1), 1.0, atol=1e-6)

    def test_truncation_flagged(self):
        model = build_model(_cfg("am", max_decode_len=2), _vocab(), seed=0)
        result = transduce_greedy(model, "abc")
        if len(result.word) >= 2:
            assert result.truncated

    def test_unknown_chars_map_to_unk(self):
        model = build_model(_cfg("am"), _vocab(), seed=0)
        assert transduce_greedy(model, "zzz") is not None

    def test_peek_context_constant_am_context_varies(self):
        vocab = _vocab()
        s2s = build_model(_cfg("seq2seq"), vocab, seed=5)
        am = build_model(_cfg("am"), vocab, seed=5)
        for t in am.params.values():   # amplify random weights so the
            t.data *= 20.0             # per-step contexts visibly differ
        src = np.array([vocab.encode("abc")], dtype=np.intp)
        with T.no_grad():
            for model, varies in ((s2s, False), (am, True)):
                enc, layers = model._start(src, np.ones(src.shape), False,
                                           None)
                ctxs = []
                sym = 1
                for _ in range(3):
                    ctx, _ = model._context(layers, enc)
                    ctxs.append(ctx.data.copy())
                    x = T.embedding(model.params["embedding"], np.array([sym]))
                    h, ctx, layers, _ = model.decode_step(x, layers, enc,
                                                          False, None)
                    dist = model._output_dist(T.concat([h, ctx], axis=-1))
                    sym = int(np.argmax(dist.data))
                    assert dist.data.sum() == pytest.approx(1.0, abs=1e-12)
                deltas = [np.abs(ctxs[i] - ctxs[0]).max() for i in (1, 2)]
                if varies:
                    assert max(deltas) > 1e-9
                else:
                    assert max(deltas) == 0.0


def _per_word_greedy(model, word):
    """Greedy decoding of one word on its own (B = 1), step by step through
    the model's hooks: the reference for batched decoding."""
    src, _, mask = encode_batch(model.vocab, [word])
    prefix = [CharVocab.BOS]
    rows = []
    truncated = True
    with T.no_grad():
        state = model._decode_start(src, mask)
        for _ in range(model.cfg.max_decode_len):
            dist, att = model._decode_next(state,
                                           np.array([prefix], dtype=np.intp))
            rows.append(att[0])
            sym = int(np.argmax(dist[0]))
            if sym == CharVocab.EOS:
                truncated = False
                break
            prefix.append(sym)
    out = model.vocab.decode(prefix[1:])
    if model.cfg.architecture == "han":
        out = strip_trailing_repeats(out)
    return out, np.array(rows), truncated


_BATCH_CASES = [("tn", "lstm", 1)] + [
    (arch, cell, layers) for arch in ("seq2seq", "am", "han")
    for cell in ("lstm", "gru") for layers in (1, 2)]


class TestBatchDecoding:
    @staticmethod
    def _trained(arch, cell, layers):
        split = split_dataset(generate_pairs(5, 160), seed=5)
        cfg = ModelConfig(architecture=arch, cell=cell, decoder_layers=layers,
                          hidden_dim=16, embed_dim=8, d_model=16, num_heads=2,
                          ffn_dim=24, num_layers=1, chunk_size=3,
                          max_decode_len=6)
        model = train(cfg, TrainConfig(batch_size=16, max_epochs=10, seed=0,
                                       metrics_every=0),
                      OptimizerSpec("adam", lr=2e-2), split).model
        words = [src for src, _ in split.test]
        longest = max(words, key=len)
        # a 1-char word, the longest, and a repeated word, among words of
        # every length from 2 to 12
        return model, ["a", longest] + words + [words[3]]

    @pytest.mark.parametrize("arch,cell,layers", _BATCH_CASES)
    def test_batch_equals_per_word(self, arch, cell, layers, monkeypatch):
        model, words = self._trained(arch, cell, layers)
        if arch == "han":   # BOS + word + EOS fills the last chunk partly
            assert any((len(w) + 2) % 3 for w in words)
        flags = set()
        for endless in (False, True):
            if endless:   # a copy that never emits EOS: every row is cut
                model.params["b_out"].data[CharVocab.EOS] = -1e3
            refs = [_per_word_greedy(model, word) for word in words]
            # all words in one batch, then in length-sorted batches
            for size in (len(words), models.DECODE_BATCH, 5):
                monkeypatch.setattr(models, "DECODE_BATCH", size)
                batch = transduce_batch(model, words)
                assert len(batch) == len(words)
                for word, got, (out, att, truncated) in zip(words, batch, refs):
                    assert (got.word, got.truncated) == (out, truncated)
                    assert got.attention.shape == att.shape
                    assert att.shape[1] == len(word) + 2
                    assert np.allclose(got.attention, att, rtol=0, atol=1e-12)
                    assert np.allclose(got.attention.sum(axis=1), 1.0,
                                       rtol=0, atol=1e-9)
                    flags.add((endless, truncated))
        # rows that stop early and rows that are cut share a batch
        assert flags == {(False, False), (False, True), (True, True)}

    def test_empty_word_in_batch_rejected(self):
        model = build_model(_cfg("am"), _vocab(), seed=0)
        with pytest.raises(EmptyInput):
            transduce_batch(model, ["ab", ""])
        assert transduce_batch(model, []) == []


class TestHan:
    @staticmethod
    def _encode(model, word):
        src, _, mask = encode_batch(model.vocab, [word])
        with T.no_grad():
            return model._encode(src, mask, False, None)

    def test_chunking_and_attention_levels(self):
        vocab = build_vocab([("abcdefg", "abcdefg")])
        model = build_model(_cfg("han", chunk_size=3), vocab, seed=0)
        enc = self._encode(model, "abcdefg")
        assert enc.H.shape[:2] == (1, 3)   # 9 padded positions / 3
        assert enc.char_alpha.shape == (1, 3, 3)
        assert np.allclose(enc.char_alpha.sum(axis=2), 1.0, atol=1e-6)

    def test_single_chunk_degenerate(self):
        vocab = build_vocab([("ab", "ab")])
        model = build_model(_cfg("han", chunk_size=16), vocab, seed=0)
        enc = self._encode(model, "ab")
        assert enc.H.shape[:2] == (1, 1)
        assert enc.char_alpha.shape[:2] == (1, 1)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_greedy_encoder_masks_chunk_padding(self, cell):
        """Greedy decoding encodes a word as its row of a padded training
        batch does: the PAD symbols that fill its last chunk are masked."""
        words = ["abcdefg", "ab", "abcd", "cba", "abcde", "a"]
        vocab = build_vocab([(w, w) for w in words])
        model = build_model(_cfg("han", cell=cell, chunk_size=3), vocab,
                            seed=1)
        for t in model.params.values():   # large weights make the padding
            t.data *= 10.0                # show if it leaks into a state
        src, lens, mask = encode_batch(vocab, words)
        with T.no_grad():
            batch = model._encode(src, mask, False, None)
            for b, word in enumerate(words):
                if lens[b] % 3 == 0:
                    continue
                one, _, ones = encode_batch(vocab, [word])
                enc = model._decode_start(one, ones).enc
                K = enc.H.shape[1]
                assert K == -(-lens[b] // 3)
                assert np.allclose(enc.H.data[0], batch.H.data[b, :K],
                                   rtol=0, atol=1e-12)
                assert np.allclose(enc.final.data[0], batch.final.data[b],
                                   rtol=0, atol=1e-12)
                assert np.allclose(enc.char_alpha[0],
                                   batch.char_alpha[b, :K], rtol=0, atol=1e-12)

    @staticmethod
    def _composed_char_attention(model, S, mask):
        """The char-level pooling as composed taped ops: the reference for
        the one ``tensor.additive_attention`` call of ``_char_attention``."""
        p = model.params
        N, cs, d = S.shape
        e = T.reshape(T.tanh(S @ p["W_c"] + p["b_c"]) @ p["v_c"], (N, cs))
        add = np.where(mask > 0, 0.0, models.NEG_INF)
        add[mask.sum(axis=1) == 0] = 0.0   # a chunk of padding only: unmasked
        alpha = T.softmax(e, axis=-1, mask=add)
        pooled = T.reshape(T.reshape(alpha, (N, 1, cs)) @ S, (N, d))
        return pooled, alpha.data

    @pytest.mark.parametrize("seed", range(3))
    def test_char_pooling_matches_composed_ops(self, seed):
        words = ["abcdefg", "ab", "abcd"]
        vocab = build_vocab([(w, w) for w in words])
        model = build_model(_cfg("han", chunk_size=3), vocab, seed=seed)
        _, _, mask = encode_batch(vocab, words)    # 7 chars -> 3 chunks
        char_mask = np.pad(mask, ((0, 0), (0, 2))).reshape(-1, 3)
        assert 0 < char_mask.sum() < char_mask.size      # masked chars
        assert (char_mask.sum(axis=1) == 0).any()        # a chunk of padding
        r = np.random.default_rng(seed)
        S = T.Tensor(r.normal(size=(len(char_mask), 3, 12)),
                     requires_grad=True)
        C = T.Tensor(r.normal(size=(len(char_mask), 12)))
        names = ("W_c", "b_c", "v_c")

        def run(pool):
            model.zero_grads()
            S.zero_grad()
            with T.Graph() as g:
                pooled, alpha = pool(S, char_mask)
                T.backward(g, T.tsum(pooled * C))
            return (pooled.data, alpha,
                    [model.params[k].grad.copy() for k in names] + [S.grad])

        pooled, alpha, grads = run(model._char_attention)
        ref = run(lambda S, m: self._composed_char_attention(model, S, m))
        for got, want in zip([pooled, alpha, *grads],
                             [ref[0], ref[1], *ref[2]]):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert (alpha[char_mask.sum(axis=1) == 0] > 0).all()
        assert T.finite_diff_check(
            lambda: T.tsum(model._char_attention(S, char_mask)[0] * C),
            {k: model.params[k] for k in names}) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_output_cleaned_of_trailing_repeats(self, seed):
        vocab = build_vocab([("aab", "abb")])
        model = build_model(_cfg("han", max_decode_len=12), vocab, seed=seed)
        for t in model.params.values():   # large random weights decode
            t.data *= 30.0                # long runs of one character
        for word in ("ab", "aab", "baba"):
            out = transduce_greedy(model, word).word
            assert strip_trailing_repeats(out) == out

    def test_wx_output_cleaned_by_the_wx_rule(self):
        """A model of a WX corpus cleans the Devanagari its output spells
        (a trailing "aaa" is three repeated graphemes), and an output the
        codec cannot read comes back as decoded.  Large random weights
        decode long runs, some of them not WX."""
        vocab = build_vocab([("Jata", "kaZ")])
        seen = set()
        for seed in range(8):
            model = build_model(_cfg("han", script="wx", max_decode_len=12),
                                vocab, seed=seed)
            for t in model.params.values():
                t.data *= 30.0
            for word in ("Ja", "Jata", "kaZ", "taka"):
                src, _, mask = encode_batch(vocab, [word])
                raw = vocab.decode(model.transduce_ids(src, mask)[0][0])
                out = transduce_greedy(model, word).word
                try:
                    clean = strip_trailing_repeats(raw, script="wx")
                except UnmappedSymbol:
                    seen.add("unreadable")
                    assert out == raw
                    continue
                seen.add("cleaned" if clean != raw else "clean")
                assert out == clean
                assert strip_trailing_repeats(out, script="wx") == out
        assert seen == {"unreadable", "cleaned", "clean"}


class TestTransformer:
    def test_residual_skeleton(self):
        """With zero attention and FFN weights, unit gains and zero biases,
        every block is layer_norm(x + 0): the encoder layer returns the
        embedded rows normalized twice, one packed row per real position of
        a padded batch."""
        vocab = _vocab()
        model = build_model(_cfg("tn"), vocab, seed=1)
        for name, t in model.params.items():
            if "ln" in name and name.endswith("_g"):
                t.data[...] = 1.0
            elif "ln" in name and name.endswith("_b"):
                t.data[...] = 0.0
            elif any(k in name for k in ("W_q", "W_k", "W_v", "W_o",
                                          "W1", "W2", "b1", "b2")):
                t.data[...] = 0.0
        src, _, mask = encode_batch(vocab, ["abc", "a", "ba"])
        with T.no_grad():
            H = model._encode(src, mask, False, None)
            x = model._embed_pos(src, False, None).data[mask > 0]
        ref = x
        for _ in ("attention", "ffn"):
            ref = ref - ref.mean(axis=-1, keepdims=True)
            ref /= np.sqrt(ref.var(axis=-1, keepdims=True) + 1e-6)
        assert H.shape == (5 + 3 + 4, 8)
        assert np.allclose(H.data, ref, rtol=0, atol=1e-9)

    def test_forward_requires_source_mask(self):
        """Without a decode state, ``forward`` needs the source mask to
        pick the real source rows, and says so."""
        model = build_model(_cfg("tn"), _vocab(), seed=0)
        src, _, mask = encode_batch(model.vocab, ["abc"])
        with pytest.raises(InvalidArgument, match="src_mask"):
            model.forward(src, src[:, :2])
        probs, _ = model.forward(src, src[:, :2], mask)
        assert probs.shape == (1, 2, len(model.vocab))

    def test_causal_invariance_end_to_end(self):
        vocab = _vocab()
        model = build_model(_cfg("tn"), vocab, seed=2)
        src, _, smask = encode_batch(vocab, ["abc"])
        t1, _, _ = encode_batch(vocab, ["ab"])
        t2 = t1.copy()
        t2[0, -1] = vocab.index["c"]
        with T.no_grad():
            p1, _ = model.forward(src, t1, smask, False, None)
            p2, _ = model.forward(src, t2, smask, False, None)
        assert np.allclose(p1.data[0, :-1], p2.data[0, :-1], atol=1e-12)

    @staticmethod
    def _full_prefix_greedy(model, ids):
        """Greedy decoding that re-encodes the source and re-runs the whole
        prefix at every step: the reference for incremental decoding."""
        src = np.array([ids], dtype=np.intp)
        out = [CharVocab.BOS]
        truncated = True
        with T.no_grad():
            for _ in range(model.cfg.max_decode_len):
                probs, weights = model.forward(
                    src, np.array([out], dtype=np.intp), np.ones(src.shape))
                sym = int(np.argmax(probs.data[0, -1]))
                if sym == CharVocab.EOS:
                    truncated = False
                    break
                out.append(sym)
        return out[1:], weights[0].mean(axis=0), truncated

    def test_incremental_decoding_matches_full_prefix(self, monkeypatch):
        """Also for words truncated at ``max_decode_len``, whose last step
        fills the preallocated key/value cache exactly."""
        split = split_dataset(generate_pairs(5, 160), seed=5)
        words = [src for src, _ in split.test]
        flags = set()
        full = []
        extend = models.DecodeState.extend

        def spy(state, layer, k, v):
            keys, values = extend(state, layer, k, v)
            full.append(keys.shape[1] == state.self_kv[layer][0].shape[1])
            return keys, values

        monkeypatch.setattr(models.DecodeState, "extend", spy)
        for seed, max_len in ((0, 12), (1, 12), (2, 12), (3, 2)):
            cfg = _cfg("tn", d_model=16, ffn_dim=24, num_layers=2,
                       max_decode_len=max_len)
            model = train(cfg, TrainConfig(batch_size=16, max_epochs=6,
                                           seed=seed, metrics_every=0),
                          OptimizerSpec("adam", lr=1e-2), split).model
            src, _, mask = encode_batch(model.vocab, words)
            for word, (out, att, cut) in zip(words,
                                             model.transduce_ids(src, mask)):
                ids = model.vocab.encode(word)
                ref_out, ref_att, ref_cut = self._full_prefix_greedy(model, ids)
                assert (out, cut) == (ref_out, ref_cut)
                assert att.shape == ref_att.shape
                assert np.allclose(att, ref_att, rtol=0, atol=1e-12)
                flags.add(cut)
        assert flags == {False, True}
        assert any(full)

    @pytest.mark.parametrize("seed,dropout", [(0, 0.0), (1, 0.1), (2, 0.0)])
    def test_losses_and_gradients_match_composed_attention(self, seed,
                                                           dropout,
                                                           monkeypatch):
        """Training through the fused attention node is bit-equal to
        training through the composed op chain."""
        pairs = generate_pairs(seed, 12)   # words of mixed length: padded
        vocab = build_vocab(pairs)
        cfg = _cfg("tn", d_model=64, num_heads=4, ffn_dim=24, num_layers=2,
                   dropout=dropout)   # width 64: see _attention_case

        def run():
            model = build_model(cfg, vocab, seed=seed)
            with T.Graph() as g:
                loss = model.loss_words(pairs, train=True,
                                        rng=np.random.default_rng(seed))
                T.backward(g, loss)
            return loss.data, {k: t.grad for k, t in model.params.items()}

        loss, grads = run()
        monkeypatch.setattr(models, "multi_head_attention", _composed_attention)
        ref_loss, ref_grads = run()
        assert np.array_equal(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            assert np.array_equal(grads[k], ref_grads[k]), k

    def test_positional_table_grows_with_equal_rows(self):
        model = build_model(_cfg("tn"), _vocab(), seed=0)
        ids = np.array([[1, 2, 3]], dtype=np.intp)
        with T.no_grad():
            for start in (0, 2, 9, 40):
                x = model._embed_pos(ids, False, None, start=start)
                ref = (model.params["embedding"].data[ids] * np.sqrt(8)
                       + positional_encoding(start + 3, 8)[start:])
                assert np.array_equal(x.data, ref)
        assert len(model._pe) >= 43

    def test_empty_source_rejected(self):
        model = build_model(_cfg("tn"), _vocab(), seed=0)
        with pytest.raises(EmptyInput):
            transduce_greedy(model, "")

    def test_decode_cache_rejects_overflow_and_taped_keys(self):
        model = build_model(_cfg("tn", max_decode_len=3), _vocab(), seed=0)
        src, _, mask = encode_batch(model.vocab, ["abc", "ba"])
        prefix = np.full((2, 4), CharVocab.BOS, dtype=np.intp)
        with T.no_grad():
            state = model._decode_start(src, mask)
            for t in range(1, 4):
                model._decode_next(state, prefix[:, :t])
            with pytest.raises(InvalidShape, match="holds 3 positions"):
                model._decode_next(state, prefix)
        state = model._decode_start(src, mask)
        k = T.Tensor(np.zeros((2, 1, 8)))
        with pytest.raises(InvalidArgument, match="untaped"):
            state.extend(0, T.Tensor(k.data, requires_grad=True), k)
