import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cogtrans import oov
from cogtrans.errors import (CogtransError, EmptyInput, InvalidArgument,
                             InvalidAttention, ParseError)
from cogtrans.metrics import corpus_bleu, nfc
from cogtrans.oov import (
    AlignedSentencePair,
    align_from_attention,
    build_shortlist,
    correct_records,
    correct_translation,
    detect_oov,
    evaluate_pipeline,
    load_pipeline_file,
    save_pipeline_file,
    tokenize,
)


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("ab cd ef") == ["ab", "cd", "ef"]

    def test_punctuation_detached(self):
        assert tokenize("ab, cd.") == ["ab", ",", "cd", "."]
        assert tokenize('"ab"') == ['"', "ab", '"']

    def test_danda(self):
        assert tokenize("राम गया।") == ["राम", "गया", "।"]

    def test_empty(self):
        assert tokenize("") == []


class TestShortlist:
    CORPUS = ["a a a b b c", "a b d"]

    def test_frequency_order(self):
        sl = build_shortlist(self.CORPUS, 2)
        assert sl.words == ["a", "b"]
        assert sl.counts == [4, 3]

    def test_tie_breaks_lexicographic(self):
        sl = build_shortlist(["c a b"], 3)
        assert sl.words == ["a", "b", "c"]

    def test_k_exceeds_vocab(self):
        sl = build_shortlist(self.CORPUS, 100)
        assert len(sl) == 4

    def test_membership(self):
        sl = build_shortlist(self.CORPUS, 2)
        assert "a" in sl and "d" not in sl

    def test_errors(self):
        with pytest.raises(InvalidArgument):
            build_shortlist(self.CORPUS, 0)
        with pytest.raises(EmptyInput):
            build_shortlist([], 5)

    def test_top_is_the_shortlist_at_that_size(self):
        full = build_shortlist(self.CORPUS + ["d c"], 4)
        for K in (1, 2, 3, 4):
            ref = build_shortlist(self.CORPUS + ["d c"], K)
            cut = full.top(K)
            assert (cut.words, cut.counts, cut.K) == (ref.words, ref.counts, K)
        for K in (0, 5):
            with pytest.raises(InvalidArgument):
                full.top(K)


def _reference_tokenize(sentence):
    """The splitting loops ``tokenize`` runs on a chunk with edge punctuation,
    run here on every chunk."""
    tokens = []
    for chunk in sentence.split():
        head = 0
        while head < len(chunk) and chunk[head] in oov._PUNCT:
            tokens.append(chunk[head])
            head += 1
        tail = len(chunk)
        trailing = []
        while tail > head and chunk[tail - 1] in oov._PUNCT:
            trailing.append(chunk[tail - 1])
            tail -= 1
        if tail > head:
            tokens.append(chunk[head:tail])
        tokens.extend(reversed(trailing))
    return tokens


def _reference_shortlist(corpus, K):
    counts = Counter()
    for sentence in corpus:
        tokens = (_reference_tokenize(sentence) if isinstance(sentence, str)
                  else sentence)
        counts.update(nfc(t) for t in tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:K]
    return [w for w, _ in ranked], [c for _, c in ranked], K


# text over punctuation, spaces and spellings that NFC merges: U+0929
# against U+0928 U+093C, and U+0958 against U+0915 U+093C
_UNIT = st.sampled_from(["a", "b", ".", ",", "\u0964", "(", '"', " ",
                         "\u0929", "\u0928\u093c", "\u0958",
                         "\u0915\u093c"])
_TEXT = st.lists(_UNIT, max_size=12).map("".join)
_SENTENCE = _TEXT | st.lists(_TEXT.filter(bool), max_size=4)


@settings(max_examples=150, deadline=None)
@example(corpus=["(a.) \u0964\u0964 \"\u0929, \u0928\u093c"], K=3)
@given(corpus=st.lists(_SENTENCE, min_size=1, max_size=5),
       K=st.integers(1, 8))
def test_shortlist_equals_counting_each_normal_form(corpus, K):
    for sentence in corpus:
        if isinstance(sentence, str):
            assert tokenize(sentence) == _reference_tokenize(sentence)
    words, counts, K = _reference_shortlist(corpus, K)
    if not words:
        with pytest.raises(EmptyInput):
            build_shortlist(corpus, K)
        return
    sl = build_shortlist(corpus, K)
    assert (sl.words, sl.counts, sl.K) == (words, counts, K)


class TestDetectOov:
    def test_positions(self):
        sl = build_shortlist(["a b"], 2)
        assert detect_oov(["a", "x", "b", "y"], sl) == {1, 3}

    def test_punctuation_exempt(self):
        sl = build_shortlist(["a"], 1)
        assert detect_oov(["a", ",", "।"], sl) == set()


class TestAlignment:
    def test_argmax_mapping(self):
        att = np.array([[0.8, 0.1, 0.1],
                        [0.1, 0.8, 0.1],
                        [0.1, 0.8, 0.1]])
        assert align_from_attention(att) == {0: [0], 1: [1, 2]}

    def test_tie_takes_lowest_source_index(self):
        att = np.array([[0.5, 0.5]])
        assert align_from_attention(att) == {0: [0]}

    def test_non_stochastic_row_rejected(self):
        with pytest.raises(InvalidAttention):
            align_from_attention(np.array([[0.5, 0.3]]))

    @pytest.mark.parametrize("att", [[[np.nan, 1.0]], [[-0.5, 1.5]],
                                     [[0.5, 0.5], [1.0, np.nan]]],
                             ids=["nan", "negative", "nan-in-row-1"])
    def test_nan_or_negative_entry_rejected(self, att):
        with pytest.raises(InvalidAttention, match="not a weight >= 0"):
            align_from_attention(np.array(att))

    def test_non_2d_rejected(self):
        with pytest.raises(InvalidAttention):
            align_from_attention(np.ones(3))

    def test_tolerance(self):
        att = np.array([[0.9995, 0.0]])
        assert align_from_attention(att) == {0: [0]}


def _pair(source, target, att):
    return AlignedSentencePair(source=source, target=target,
                               attention=np.asarray(att, dtype=np.float64))


class TestCorrection:
    def test_aligned_oov_replaced(self):
        pair = _pair(["xx", "b"], ["XX", "B"], [[1.0, 0.0], [0.0, 1.0]])
        out, log = correct_translation(pair, {0}, str.upper)
        assert out == ["XX", "B"] and log == []
        out, log = correct_translation(pair, {0}, lambda w: w + "!")
        assert out == ["xx!", "B"]

    def test_one_to_many(self):
        pair = _pair(["xx"], ["p", "q"], [[1.0], [1.0]])
        out, _ = correct_translation(pair, {0}, str.upper)
        assert out == ["XX", "XX"]

    def test_unaligned_logged(self):
        pair = _pair(["a", "xx"], ["A"], [[1.0, 0.0]])
        out, log = correct_translation(pair, {1}, str.upper)
        assert out == ["A"]
        assert log == [("unaligned", 1, "xx")]

    def test_transducer_error_logged_and_skipped(self):
        def bad(word):
            raise RuntimeError("boom")

        pair = _pair(["xx"], ["A"], [[1.0]])
        out, log = correct_translation(pair, {0}, bad)
        assert out == ["A"]
        assert log[0][0] == "transducer-error" and log[0][1] == 0


def _each(transducer):
    """A list transducer that applies ``transducer`` to each word."""
    return lambda words: list(map(transducer, words))


class TestEvaluatePipeline:
    def test_perfect_transducer_improves(self):
        # the reference replaces "xx" with "yy"; alignment is diagonal
        records, refs = [], []
        for i in range(6):
            src = ["w%d" % i, "xx", "u%d" % i, "v%d" % i]
            tgt = ["w%d" % i, "xx", "u%d" % i, "v%d" % i]
            refs.append(["w%d" % i, "yy", "u%d" % i, "v%d" % i])
            records.append(_pair(src, tgt, np.eye(4)))
        corpus = [" ".join(r.source[0:1] + r.source[2:]) for r in records]
        rows = evaluate_pipeline(records, refs, corpus, [100], _each(
            lambda w: "yy" if w == "xx" else w))
        assert rows[0]["delta"] > 0
        assert rows[0]["corrected"] == pytest.approx(100.0)

    @staticmethod
    def _sweep():
        """Sentences whose words fall in and out of the shortlist as K
        grows (with count ties); the reference upper-cases the rare words."""
        corpus = ["a a a b b c d", "b c d e,", "e f g. a"]
        words = ["a", "b", "c", "d", "e", "f", "g", "h"]
        records, refs = [], []
        for i in range(6):
            src = [words[(i + k) % len(words)] for k in range(4)]
            records.append(_pair(src, list(src), np.eye(4)))
            refs.append([w.upper() if w in "fgh" else w for w in src])
        return records, refs, corpus

    def test_sweep_rows_equal_one_shortlist_per_size(self):
        records, refs, corpus = self._sweep()
        sizes = [3, 1, 8, 2, 5]
        rows = evaluate_pipeline(records, refs, corpus, sizes,
                                 _each(str.upper))
        baseline = corpus_bleu([r.target for r in records], refs)
        expected = []
        for K in sizes:
            shortlist = build_shortlist(corpus, K)
            fixed = [correct_translation(r, detect_oov(r.source, shortlist),
                                         str.upper)[0] for r in records]
            bleu = corpus_bleu(fixed, refs)
            expected.append({"K": K, "baseline": baseline, "corrected": bleu,
                             "delta": bleu - baseline})
        assert rows == expected
        assert len({row["corrected"] for row in rows}) > 1

    def test_correct_records_transduces_once_per_sweep(self):
        records, _, corpus = self._sweep()
        sizes = [3, 1, 8, 2, 5]
        calls = []

        def transduce(words):
            calls.append(words)
            return [w.upper() for w in words]

        out = correct_records(records, corpus, sizes, transduce)
        # K=3 flags d, e, f, g, h as the records go; K=1 adds b, c
        assert calls == [["d", "e", "f", "g", "h", "b", "c"]]
        assert out == [
            [correct_translation(r, detect_oov(r.source,
                                               build_shortlist(corpus, K)),
                                 str.upper)[0] for r in records]
            for K in sizes]

    @pytest.mark.parametrize("transduce", [
        lambda words: [w.upper() for w in words[1:]],
        lambda words: [w.upper() for w in words] + ["X"],
        lambda words: [None for w in words],
    ], ids=["short", "long", "not-strings"])
    def test_correct_records_wants_one_string_per_word(self, transduce):
        records, _, corpus = self._sweep()
        with pytest.raises(InvalidArgument, match="one string per word"):
            correct_records(records, corpus, [3], transduce)

    def test_corpus_tokenized_once_for_all_sizes(self, monkeypatch):
        records, refs, corpus = self._sweep()
        calls = []

        def counting(sentence):
            calls.append(sentence)
            return tokenize(sentence)

        monkeypatch.setattr(oov, "tokenize", counting)
        evaluate_pipeline(records, refs, corpus, [1, 2, 3, 4, 6],
                          _each(str.upper))
        assert calls == corpus

    def test_mismatched_lengths(self):
        with pytest.raises(InvalidArgument):
            evaluate_pipeline([], [["a"]], ["a"], [1], _each(str))
        with pytest.raises(InvalidArgument):
            evaluate_pipeline([], [], ["a"], [1], _each(str))


class TestPipelineFile:
    def _records(self):
        return [
            _pair(["a", "b"], ["A"], [[0.7, 0.3]]),
            _pair(["c"], ["C", "D"], [[1.0], [1.0]]),
        ]

    def test_round_trip(self, tmp_path):
        records = self._records()
        tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
        save_pipeline_file(records, tsv, mat)
        loaded = load_pipeline_file(tsv, mat)
        assert len(loaded) == 2
        for a, b in zip(records, loaded):
            assert a.source == b.source and a.target == b.target
            assert np.array_equal(a.attention, b.attention)

    @pytest.mark.parametrize("att", [[[0.5, 0.5]] * 3, [[0.2, 0.3, 0.5]] * 2],
                             ids=["extra-row", "extra-column"])
    def test_matrix_shape_must_match_tokens(self, tmp_path, att):
        tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
        records = [self._records()[0], _pair(["c", "d"], ["C", "D"], att)]
        save_pipeline_file(records, tsv, mat)
        with pytest.raises(InvalidArgument, match="line 2: attention matrix"):
            load_pipeline_file(tsv, mat)

    def test_malformed_line_names_file_and_line(self, tmp_path):
        tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
        save_pipeline_file(self._records(), tsv, mat)
        tsv.write_text("a b\tA\nnotab\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^" + re.escape(
                f"{tsv}: line 2: expected 'source tokens<TAB>target tokens'")):
            load_pipeline_file(tsv, mat)

    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    def test_bad_matrix_names_its_line(self, tmp_path, bad):
        tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
        records = self._records()
        records[1].attention = np.array([[1.0], [bad]])
        save_pipeline_file(records, tsv, mat)
        with pytest.raises(ParseError, match="^" + re.escape(
                f"{tsv}: line 2: attention matrix: entry (1, 0) is {bad}")):
            load_pipeline_file(tsv, mat)

    def test_records_aligned_once_as_read(self, tmp_path, monkeypatch):
        tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
        save_pipeline_file(self._records(), tsv, mat)
        calls = []
        monkeypatch.setattr(oov, "align_from_attention", lambda att: (
            calls.append(att) or align_from_attention(att)))
        records = load_pipeline_file(tsv, mat)
        assert [r.alignment for r in records] == [{0: [0]}, {0: [0, 1]}]
        for rec in records:   # correction reuses the alignment
            correct_translation(rec, {0}, str.upper)
        assert len(calls) == 2

    def test_byte_order_marks_are_no_part_of_a_token(self, tmp_path):
        """A byte-order mark is dropped wherever it stands, and a line of
        marks and whitespace is blank, so each record writes back as read."""
        tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
        save_pipeline_file(self._records(), tsv, mat)
        tsv.write_text(" \ufeffa\ufeff b\tA\n \ufeff\t\n\ufeffc\t\ufeffC D\n",
                       encoding="utf-8")
        records = load_pipeline_file(tsv, mat)
        assert [(r.source, r.target) for r in records] == [
            (["a", "b"], ["A"]), (["c"], ["C", "D"])]

    def test_sidecar_truncated(self, tmp_path):
        tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
        save_pipeline_file(self._records(), tsv, mat)
        mat.write_bytes(mat.read_bytes()[:-4])
        with pytest.raises(InvalidArgument):
            load_pipeline_file(tsv, mat)

    def test_sidecar_extra_bytes(self, tmp_path):
        tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
        save_pipeline_file(self._records(), tsv, mat)
        mat.write_bytes(mat.read_bytes() + b"\x00" * 8)
        with pytest.raises(InvalidArgument):
            load_pipeline_file(tsv, mat)


# pipeline text: tab-separated lines of tokens, with the characters a reader
# must get right: tabs, spaces and other whitespace, carriage returns and
# byte-order marks
_PIPE_CHAR = st.characters(codec="utf-8")
_PIPE_FIELD = st.text(st.sampled_from("ab \r\ufeff\x1c\u2028") | _PIPE_CHAR,
                      max_size=6)
_PIPE_LINE = (st.tuples(_PIPE_FIELD, _PIPE_FIELD)
              | st.lists(_PIPE_FIELD, max_size=3)).map("\t".join)
_PIPE_TEXT = st.lists(_PIPE_LINE, max_size=4).map("\n".join)


def _uniform_sidecar(text):
    """One uniform attention matrix per line of ``text`` that has two
    tab-separated fields, shaped by their whitespace-split tokens."""
    blob = b""
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        fields = line.split("\t")
        if len(fields) == 2:
            rows, cols = len(fields[1].split()), len(fields[0].split())
            blob += struct.pack("<II", rows, cols)
            blob += np.full((rows, cols), 1.0 / max(cols, 1),
                            dtype="<f8").tobytes()
    return blob


def _as_tuples(records):
    return [(r.source, r.target, r.attention.tolist(), r.alignment)
            for r in records]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(text=" \ufeffa\tb", sidecar=None)   # a BOM after leading space
@example(text=" \ufeff\ta", sidecar=None)   # a token of one BOM
@example(text=" \ufeff\t", sidecar=None)    # BOMs but no token
@given(text=_PIPE_TEXT, sidecar=st.none() | st.binary(max_size=40))
def test_any_pipeline_text_round_trips_or_names_a_file(tmp_path, text,
                                                       sidecar):
    """Any text, with a sidecar of uniform matrices shaped by its lines
    (``sidecar`` None) or of arbitrary bytes, loads as records that
    ``save_pipeline_file`` writes back to the same records, or raises a
    ``CogtransError`` naming one of the two files."""
    tsv, mat = tmp_path / "p.tsv", tmp_path / "p.att"
    tsv.write_text(text, encoding="utf-8")
    mat.write_bytes(_uniform_sidecar(text) if sidecar is None else sidecar)
    try:
        records = load_pipeline_file(tsv, mat)
    except CogtransError as exc:
        assert str(exc).startswith((f"{tsv}: ", f"{mat}: "))
        return
    again_tsv, again_mat = tmp_path / "again.tsv", tmp_path / "again.att"
    save_pipeline_file(records, again_tsv, again_mat)
    assert _as_tuples(load_pipeline_file(again_tsv, again_mat)) == \
        _as_tuples(records)
