import math

import numpy as np
import pytest

from cogtrans.devanagari import CharVocab
from cogtrans.embeddings import (
    CharLM,
    CharLMConfig,
    WordVectorStore,
    _windows,
    ft_avg_embed,
    perplexity,
    train_char_lm,
)
from cogtrans import tensor as T
from cogtrans.errors import DivergedError, EmptyInput, InvalidArgument, ParseError


class TestWordVectorStore:
    def test_round_trip(self, tmp_path):
        store = WordVectorStore({"ab": [1.0, 2.0], "cd": [0.25, -3.5]})
        path = tmp_path / "vec.txt"
        store.save(path)
        loaded = WordVectorStore.load(path)
        assert len(loaded) == 2
        assert np.array_equal(loaded["ab"], [1.0, 2.0])
        assert np.array_equal(loaded["cd"], [0.25, -3.5])

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_component_is_parse_error(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"ab 1.0 2.0\nfoo 1 {value}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="'foo'.*NaN or infinite") as exc:
            WordVectorStore.load(path)
        assert exc.value.line_no == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            WordVectorStore({"a": [1.0], "b": [1.0, 2.0]})

    def test_contains_normalizes(self):
        store = WordVectorStore({"क़": [1.0]})  # qa with combining nukta
        assert "क़" in store               # precomposed qa


class TestFtAvg:
    def test_single_word_chars_get_its_vector(self):
        store = WordVectorStore({"ab": [2.0, 4.0]})
        table, missing = ft_avg_embed(store, ["ab"])
        vocab = CharVocab(set("ab"))
        for ch in "ab":
            got = table.data[vocab.index[ch]]
            assert np.allclose(got, [2.0, 4.0])

    def test_count_weighted_mean(self):
        # 'a' appears twice in "aab" and once in "ac":
        # e_a = (2*v1 + 1*v2) / 3
        store = WordVectorStore({"aab": [3.0], "ac": [9.0]})
        table, _ = ft_avg_embed(store, ["aab", "ac"])
        vocab = CharVocab(set("aabc"))
        assert table.data[vocab.index["a"]][0] == \
            pytest.approx((2 * 3.0 + 9.0) / 3)

    def test_word_types_count_once_by_default(self):
        store = WordVectorStore({"a": [1.0], "ab": [7.0]})
        t1, _ = ft_avg_embed(store, ["a", "a", "a", "ab"])
        t2, _ = ft_avg_embed(store, ["a", "ab"])
        assert np.array_equal(t1.data, t2.data)

    def test_missing_chars_zero_with_warning(self):
        store = WordVectorStore({"ab": [1.0]})
        with pytest.warns(UserWarning):
            table, missing = ft_avg_embed(store, ["ab", "xy"])
        vocab = CharVocab(set("abxy"))
        assert "x" in missing and "y" in missing
        assert np.array_equal(table.data[vocab.index["x"]], [0.0])

    def test_empty_store_rejected(self):
        with pytest.raises(EmptyInput):
            ft_avg_embed(WordVectorStore({}), ["ab"])


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
        lm, _, _ = train_char_lm(self.CORPUS, self._cfg(max_epochs=1))
        p = perplexity(lm, "abababab")
        assert 1.0 <= p <= len(lm.vocab) * 1e6

    def test_untrained_near_uniform(self):
        vocab = CharVocab(set("ab"))
        lm = CharLM(self._cfg(), vocab, seed=0)
        p = perplexity(lm, "abababababab")
        assert p == pytest.approx(len(vocab), rel=0.3)

    def test_deterministic_given_seed(self):
        r1 = train_char_lm(self.CORPUS, self._cfg(max_epochs=2))
        r2 = train_char_lm(self.CORPUS, self._cfg(max_epochs=2))
        assert r1[2] == r2[2]
        assert np.array_equal(r1[1].data, r2[1].data)

    def test_bidirectional_direction(self):
        cfg = self._cfg(direction="bidirectional", max_epochs=1)
        lm, table, _ = train_char_lm(self.CORPUS, cfg)
        assert lm.W_out.data.shape[0] == 2 * cfg.hidden

    def test_corpus_too_short(self):
        with pytest.raises(InvalidArgument):
            train_char_lm("ab", self._cfg())

    def test_non_finite_loss_is_divergence(self, monkeypatch):
        monkeypatch.setattr(CharLM, "loss_batch",
                            lambda self, *args, **kw: T.Tensor(np.nan))
        with pytest.raises(DivergedError) as exc:
            train_char_lm(self.CORPUS, self._cfg())
        assert exc.value.epoch == 0

    def test_held_out_too_short(self):
        lm, _, _ = train_char_lm(self.CORPUS, self._cfg(max_epochs=1))
        with pytest.raises(EmptyInput):
            perplexity(lm, "ab")

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
