import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cogtrans.devanagari import CharVocab
from cogtrans.embeddings import (
    CharLM,
    CharLMConfig,
    WordVectorStore,
    _windows,
    ft_avg_embed,
    train_char_lm,
)
from cogtrans import tensor as T
from cogtrans.cells import CellParams, dropout, run_rnn
from cogtrans.errors import (CogtransError, DivergedError, EmptyInput,
                             InvalidArgument, ParseError)


class TestWordVectorStore:
    def test_round_trip(self, tmp_path):
        store = WordVectorStore({"ab": [1.0, 2.0], "cd": [0.25, -3.5]})
        path = tmp_path / "vec.txt"
        store.save(path)
        loaded = WordVectorStore.load(path)
        assert len(loaded) == 2
        assert np.array_equal(loaded["ab"], [1.0, 2.0])
        assert np.array_equal(loaded["cd"], [0.25, -3.5])

    @pytest.mark.parametrize("word", ["", " ", "a b", "\t", "ab\n"])
    def test_save_rejects_empty_or_blank_words(self, tmp_path, word):
        path = tmp_path / "vec.txt"
        with pytest.raises(InvalidArgument, match="cannot write"):
            WordVectorStore({"ab": [1.0], word: [2.0]}).save(path)
        assert not path.exists()

    def test_load_without_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("ab 1.0 2.0\ncd 3.0 4.0\n", encoding="utf-8")
        store = WordVectorStore.load(path)
        assert len(store) == 2 and store.dim == 2

    def test_non_numeric_component_is_parse_error(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\nab 1.0 2.0\ncd 3.0 x4\n", encoding="utf-8")
        with pytest.raises(ParseError, match="'cd'") as exc:
            WordVectorStore.load(path)
        assert exc.value.line_no == 3
        assert str(exc.value).startswith(f"{path}: line 3: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_component_is_parse_error(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"ab 1.0 2.0\nfoo 1 {value}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="'foo'.*NaN or infinite") as exc:
            WordVectorStore.load(path)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("text, message", [
        ("ab 1.0 2.0\ncd 3.0\n", "line 2: vector for 'cd' has 1 components, "
         "expected 2"),
        ("ab\ncd 3.0\n", "line 1: vector for 'ab' has 0 components, "
         "expected at least 1"),
    ], ids=["dimension-mismatch", "no-components"])
    def test_bad_dimension_is_parse_error(self, tmp_path, text, message):
        path = tmp_path / "vec.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           f"{message}$"):
            WordVectorStore.load(path)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            WordVectorStore({"a": [1.0], "b": [1.0, 2.0]})

    def test_contains_normalizes(self):
        store = WordVectorStore({"क़": [1.0]})  # qa with combining nukta
        assert "क़" in store               # precomposed qa


# vector-file text: mostly "word v1 v2 ..." lines of numbers, with the tokens
# a reader must get right (NaN, infinities, underscores, a "count dim"
# header, non-ASCII digits, missing components) and free text
_NUMBER = (st.floats().map(repr) | st.integers(-5, 5).map(str)
           | st.sampled_from(["nan", "-inf", "1e400", "1_0", "\u0661", "x",
                              "0x1", ""]))
_CHAR = st.characters(codec="utf-8")   # what a UTF-8 file can hold
_WORD = st.text(_CHAR, min_size=1, max_size=3)
_VECTOR_LINE = st.tuples(_WORD, st.lists(_NUMBER, max_size=3)).map(
    lambda t: " ".join([t[0], *t[1]]))
_VECTOR_TEXT = (st.lists(_VECTOR_LINE | st.sampled_from(["2 2", ""]),
                         max_size=4).map("\n".join)
                | st.text(_CHAR, max_size=20))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_VECTOR_TEXT)
def test_any_vector_text_round_trips_or_names_the_file(tmp_path, text):
    """Any text is either finite vectors of one dimension that
    ``WordVectorStore.save`` writes back to the same vectors, or a
    ``CogtransError`` naming the file."""
    path = tmp_path / "v.vec"
    path.write_text(text, encoding="utf-8")
    try:
        store = WordVectorStore.load(path)
    except CogtransError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert all(np.isfinite(v).all() for v in store.vectors.values())
    again = tmp_path / "again.vec"
    store.save(again)
    back = WordVectorStore.load(again)
    assert back.dim == store.dim and back.vectors.keys() == store.vectors.keys()
    for word, vec in store.vectors.items():
        assert np.array_equal(back.vectors[word], vec)


class TestFtAvg:
    def test_single_word_chars_get_its_vector(self):
        store = WordVectorStore({"ab": [2.0, 4.0]})
        vocab = CharVocab(set("ab"))
        table, missing = ft_avg_embed(store, ["ab"], vocab)
        for ch in "ab":
            got = table.data[vocab.index[ch]]
            assert np.allclose(got, [2.0, 4.0])

    def test_count_weighted_mean(self):
        # 'a' appears twice in "aab" and once in "ac":
        # e_a = (2*v1 + 1*v2) / 3
        store = WordVectorStore({"aab": [3.0], "ac": [9.0]})
        vocab = CharVocab(set("aabc"))
        table, _ = ft_avg_embed(store, ["aab", "ac"], vocab)
        assert table.data[vocab.index["a"]][0] == \
            pytest.approx((2 * 3.0 + 9.0) / 3)

    def test_word_types_count_once_by_default(self):
        store = WordVectorStore({"a": [1.0], "ab": [7.0]})
        vocab = CharVocab(set("ab"))
        t1, _ = ft_avg_embed(store, ["a", "a", "a", "ab"], vocab)
        t2, _ = ft_avg_embed(store, ["a", "ab"], vocab)
        assert np.array_equal(t1.data, t2.data)

    def test_missing_chars_zero_and_listed(self):
        """An uncovered character gets a zero row and is named in the
        returned list, the one report of it: no warning is raised."""
        store = WordVectorStore({"ab": [1.0]})
        vocab = CharVocab(set("abxy"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, missing = ft_avg_embed(store, ["ab", "xy"], vocab)
        assert [m for m in missing if m not in CharVocab.SPECIALS] == ["x", "y"]
        assert np.array_equal(table.data[vocab.index["x"]], [0.0])

    def test_empty_store_rejected(self):
        with pytest.raises(EmptyInput):
            ft_avg_embed(WordVectorStore({}), ["ab"], CharVocab(set("ab")))


class TestWindows:
    def test_shapes_and_alignment(self):
        x, y = _windows([0, 1, 2, 3, 4], window=3)
        assert x.shape == (3, 2)
        assert np.array_equal(x, [[0, 1], [1, 2], [2, 3]])
        assert np.array_equal(y, [2, 3, 4])

    def test_short_input_empty(self):
        x, y = _windows([0, 1], window=5)
        assert x.shape == (0, 4) and len(y) == 0


class TestCharLM:
    CORPUS = "abababababababababababababababababababababababababab" * 4

    def _cfg(self, **kw):
        base = dict(window=4, hidden=8, embed_dim=6, dropout=0.0, lr=3e-2,
                    max_epochs=15, batch_size=16, seed=0, patience=5)
        base.update(kw)
        return CharLMConfig(**base)

    def test_learns_alternating_corpus(self):
        lm, table, ppl = train_char_lm(self.CORPUS, self._cfg())
        # a deterministic alternation is nearly fully predictable
        assert ppl < 1.5
        assert table.data.shape == (len(lm.vocab), 6)

    def test_perplexity_bounds(self):
        lm, _, ppl = train_char_lm(self.CORPUS, self._cfg(max_epochs=1))
        assert 1.0 <= ppl <= len(lm.vocab) * 1e6

    def test_untrained_near_uniform(self):
        vocab = CharVocab(set("ab"))
        lm = CharLM(self._cfg(), vocab, seed=0)
        x, y = _windows([vocab.index[c] for c in "abababababab"], 4)
        assert math.exp(lm.nll(x, y) / len(y)) == pytest.approx(len(vocab),
                                                               rel=0.3)

    def test_deterministic_given_seed(self):
        r1 = train_char_lm(self.CORPUS, self._cfg(max_epochs=2))
        r2 = train_char_lm(self.CORPUS, self._cfg(max_epochs=2))
        assert r1[2] == r2[2]
        assert np.array_equal(r1[1].data, r2[1].data)

    def test_bidirectional_direction(self):
        cfg = self._cfg(direction="bidirectional", max_epochs=1)
        lm, table, _ = train_char_lm(self.CORPUS, cfg)
        assert lm.params["W_out"].data.shape[0] == 2 * cfg.hidden

    @pytest.mark.parametrize("direction", ["forward", "bidirectional"])
    def test_loss_and_gradients_match_composed_reference(self, direction):
        """The LM on the shared runner (``cells.run_birnn`` and
        ``birnn_summary``) against its own composition of two ``run_rnn``
        calls: the last forward state and the first backward one, side by
        side.  Loss and every gradient are bit-equal."""
        cfg = self._cfg(direction=direction, dropout=0.3)
        vocab = CharVocab(set("abcd"))
        ids = np.random.default_rng(1).integers(0, len(vocab), size=(7, 3))
        targets = np.random.default_rng(2).integers(0, len(vocab), size=7)
        lm = CharLM(cfg, vocab, seed=4)

        def reference(rng):
            p = lm.params
            cell = {side: CellParams("lstm", cfg.embed_dim, cfg.hidden,
                                     p[f"{side}_W"], p[f"{side}_b"])
                    for side in ("fwd", "bwd") if f"{side}_W" in p}
            emb = dropout(T.embedding(p["embedding"], ids), cfg.dropout, rng)
            h = run_rnn(emb, cell["fwd"])[:, -1]
            if direction == "bidirectional":
                hb = run_rnn(emb, cell["bwd"], reverse=True)[:, 0]
                h = T.concat([h, hb], axis=-1)
            h = dropout(h, cfg.dropout, rng)
            probs = T.softmax(h @ p["W_out"] + p["b_out"], axis=-1)
            return T.cross_entropy_rows(probs, targets,
                                        np.full(len(targets), 1 / 7))

        runs = []
        for loss_fn in (lambda rng: lm.loss_batch(ids, targets, rng),
                        reference):
            lm.zero_grads()
            with T.Graph() as g:
                loss = loss_fn(np.random.default_rng(3))
                T.backward(g, loss)
            runs.append((loss.item(), {k: t.grad.copy()
                                       for k, t in lm.params.items()}))
        (got, got_grads), (want, want_grads) = runs
        assert got == want
        assert got_grads.keys() == want_grads.keys()
        for k in want_grads:
            assert np.array_equal(got_grads[k], want_grads[k]), k

    def test_corpus_too_short(self):
        with pytest.raises(InvalidArgument):
            train_char_lm("ab", self._cfg())

    def test_non_finite_loss_is_divergence(self, monkeypatch):
        monkeypatch.setattr(CharLM, "loss_batch",
                            lambda self, *args, **kw: T.Tensor(np.nan))
        with pytest.raises(DivergedError) as exc:
            train_char_lm(self.CORPUS, self._cfg())
        assert exc.value.epoch == 0

    def test_bad_config(self):
        with pytest.raises(InvalidArgument):
            CharLMConfig(window=1).validate()
        with pytest.raises(InvalidArgument):
            CharLMConfig(direction="sideways").validate()
        for field, value in (("hidden", 0), ("embed_dim", 0),
                             ("batch_size", 0), ("max_epochs", 0),
                             ("dropout", 1.0), ("dropout", -0.5),
                             ("seed", -1)):
            with pytest.raises(InvalidArgument, match=field):
                CharLMConfig(**{field: value}).validate()
