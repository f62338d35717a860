import math
import unicodedata
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogtrans import metrics
from cogtrans.errors import InvalidArgument
from cogtrans.metrics import (
    EvalReport,
    ItemRecord,
    char_bleu,
    corpus_bleu,
    edit_script,
    levenshtein,
    score_items,
    string_similarity,
    summary_table,
    word_accuracy,
    write_report_tsv,
)


def recursive_distance(a, b):
    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                   d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return d(len(a), len(b))


class TestLevenshtein:
    def test_oracles(self):
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("kitten", "sitting") == 3

    def test_against_recursive_oracle(self):
        r = np.random.default_rng(0)
        alphabet = "abcd"
        pairs = [("".join(r.choice(list(alphabet), size=r.integers(0, 9))),
                  "".join(r.choice(list(alphabet), size=r.integers(0, 9))))
                 for _ in range(300)]
        # composed against decomposed Devanagari, equal once NFC-normalized
        pairs += [("\u0929", "\u0928\u093c"),
                  ("\u0958\u093e", "\u0915\u093c\u093e"),
                  ("\u0915\u0929", "\u0928\u093c\u0916")]
        for a, b in pairs:
            assert levenshtein(a, b) == recursive_distance(metrics.nfc(a),
                                                           metrics.nfc(b))

    def test_metric_properties(self):
        r = np.random.default_rng(1)
        words = ["".join(r.choice(list("abc"), size=r.integers(0, 6)))
                 for _ in range(12)]
        for a in words:
            assert levenshtein(a, a) == 0
            for b in words:
                assert levenshtein(a, b) == levenshtein(b, a)
                for c in words:
                    assert (levenshtein(a, c)
                            <= levenshtein(a, b) + levenshtein(b, c))


class TestEditScript:
    def test_cost_matches_distance(self):
        r = np.random.default_rng(2)
        for _ in range(100):
            a = "".join(r.choice(list("abc"), size=r.integers(0, 7)))
            b = "".join(r.choice(list("abc"), size=r.integers(0, 7)))
            ops = edit_script(a, b)
            cost = sum(1 for op, _, _ in ops if op != "match")
            assert cost == levenshtein(a, b)

    def test_script_replays_to_target(self):
        ops = edit_script("kitten", "sitting")
        rebuilt = []
        for op, i, j in ops:
            if op in ("match", "sub", "ins"):
                rebuilt.append("sitting"[j])
        assert "".join(rebuilt) == "sitting"


class TestStringSimilarity:
    def test_identical(self):
        assert string_similarity("abc", "abc") == 100.0

    def test_disjoint(self):
        assert string_similarity("abc", "") == 0.0

    def test_single_substitution(self):
        assert string_similarity("abcd", "abed") == 87.5

    def test_both_empty(self):
        assert string_similarity("", "") == 100.0

    def test_range(self):
        r = np.random.default_rng(3)
        for _ in range(100):
            a = "".join(r.choice(list("ab"), size=r.integers(0, 6)))
            b = "".join(r.choice(list("ab"), size=r.integers(0, 6)))
            s = string_similarity(a, b)
            assert 0.0 <= s <= 100.0
            assert (s == 100.0) == (a == b)


class TestWordAccuracy:
    def test_indicator(self):
        assert word_accuracy("ab", "ab") == 1
        assert word_accuracy("ab", "ac") == 0

    def test_corpus_mean(self):
        items = [("a", "a"), ("b", "c"), ("d", "e"), ("f", "f")]
        mean = sum(word_accuracy(p, g) for p, g in items) / len(items) * 100
        assert mean == 50.0


class TestCharBleu:
    def test_identical(self):
        assert char_bleu("abcd", "abcd") == pytest.approx(100.0)

    def test_no_shared_unigram(self):
        assert char_bleu("ab", "cd") == 0.0

    def test_clipping_fixture(self):
        # the second "a" is clipped: precisions 4/5, 3/4, 2/3 and 1/2, no
        # brevity penalty
        expected = 100.0 * math.exp(0.25 * sum(
            map(math.log, (4 / 5, 3 / 4, 2 / 3, 1 / 2))))
        assert char_bleu("aabcd", "abcd") == pytest.approx(expected)

    def test_short_word_orders_dropped(self):
        assert char_bleu("a", "a") == pytest.approx(100.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidArgument):
            char_bleu("a", "")

    def test_empty_prediction_scores_zero(self):
        assert char_bleu("", "abc") == 0.0

    def test_symbol_renaming_invariance(self):
        table = str.maketrans("abcd", "wxyz")
        r = np.random.default_rng(4)
        for _ in range(50):
            a = "".join(r.choice(list("abcd"), size=r.integers(1, 8)))
            b = "".join(r.choice(list("abcd"), size=r.integers(1, 8)))
            assert char_bleu(a, b) == pytest.approx(
                char_bleu(a.translate(table), b.translate(table)))

    def test_brevity_penalty(self):
        # pred "abcd" vs ref "abcdabcd": every precision is 1
        val = char_bleu("abcd", "abcdabcd")
        assert val == pytest.approx(100.0 * math.exp(1 - 8 / 4))


def independent_corpus_bleu(preds, refs, max_n=4):
    def ngrams(toks, n):
        return Counter(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))

    log_sum = 0.0
    for n in range(1, max_n + 1):
        num = den = 0
        for p, r in zip(preds, refs):
            pc, rc = ngrams(p, n), ngrams(r, n)
            den += sum(pc.values())
            num += sum(min(v, rc[k]) for k, v in pc.items())
        if den == 0 or num == 0:
            return 0.0
        log_sum += math.log(num / den)
    plen = sum(len(p) for p in preds)
    rlen = sum(len(r) for r in refs)
    bp = 1.0 if plen >= rlen else math.exp(1 - rlen / plen)
    return 100.0 * bp * math.exp(log_sum / max_n)


class TestCorpusBleu:
    def test_identical(self):
        sents = [["a", "b", "c", "d", "e"], ["f", "g", "h", "i"]]
        assert corpus_bleu(sents, sents) == pytest.approx(100.0)

    def test_disjoint(self):
        assert corpus_bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) == 0.0

    def test_against_independent_implementation(self):
        preds = [["the", "cat", "sat", "on", "mat"],
                 ["dogs", "bark", "at", "night", "loudly"]]
        refs = [["the", "cat", "sat", "on", "the", "mat"],
                ["dogs", "bark", "loudly", "at", "night"]]
        assert corpus_bleu(preds, refs) == pytest.approx(
            independent_corpus_bleu(preds, refs), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument):
            corpus_bleu([["a"]], [])


class TestReports:
    def test_aggregates_are_means(self):
        items = [
            ItemRecord("s", "g", "g", 100.0, 1, 100.0),
            ItemRecord("s", "g", "x", 50.0, 0, 20.0),
        ]
        rep = EvalReport.from_items(items)
        assert rep.ss == 75.0 and rep.wa == 50.0 and rep.bleu == 60.0
        assert rep.n_items == 2

    def test_empty(self):
        rep = EvalReport.from_items([])
        assert rep.n_items == 0

    def test_score_items_cross_check(self):
        triples = [("ab", "ab", "ab"), ("cd", "cd", "ce")]
        rep = score_items(triples)
        assert rep.wa == pytest.approx(
            100.0 * np.mean([i.wa for i in rep.items]))
        assert rep.ss == pytest.approx(np.mean([i.ss for i in rep.items]))

    def test_tsv_round_trip(self, tmp_path):
        rep = score_items([("ab", "ab", "ab"), ("cd", "cd", "ce")])
        path = tmp_path / "report.tsv"
        write_report_tsv(rep, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("source\t")
        assert len(lines) == 4
        assert lines[-1].startswith("#aggregate")

    def test_summary_table_layout(self):
        rep = score_items([("a", "a", "a")])
        table = summary_table({"m1": rep, "m2": rep})
        lines = table.splitlines()
        assert lines[0] == "Metric\tm1\tm2"
        assert [ln.split("\t")[0] for ln in lines[1:]] == ["BLEU", "SS", "WA"]


# words over units that NFC merges or splits: U+0929 against U+0928 U+093C,
# and U+0958, which NFC decomposes to U+0915 U+093C
_UNITS = st.sampled_from(["a", "b", "\u0915", "\u093f", "\u0929",
                          "\u0928\u093c", "\u0958", "\u0915\u093c"])
_WORD = st.lists(_UNITS, max_size=6).map("".join)


@st.composite
def _triples(draw):
    gold = draw(_WORD)
    spellings = [gold] + [unicodedata.normalize(f, gold) for f in ("NFC", "NFD")]
    pred = draw(st.sampled_from(spellings) | _WORD)
    return draw(_WORD), gold, pred


def _tag(src, gold, pred):
    return ("z", pred[:1], "a")


@settings(max_examples=150, deadline=None)
@example(triples=[("s", "", ""), ("s", "", "a"), ("s", "a", ""),
                  ("s", "\u0929", "\u0928\u093c")])
@given(triples=st.lists(_triples(), max_size=8))
def test_score_items_equals_public_measures(triples):
    """Each item and aggregate of ``score_items`` equals the public
    measures composed on the raw strings, and ``tags_fn`` is called once
    per item in input order."""
    calls = []

    def recording(*triple):
        calls.append(triple)
        return _tag(*triple)

    rep = score_items(triples, tags_fn=recording)
    assert calls == triples
    ref = [
        ItemRecord(src, gold, pred, string_similarity(pred, gold),
                   word_accuracy(pred, gold),
                   char_bleu(pred, gold) if gold else 0.0,
                   tuple(sorted(_tag(src, gold, pred))))
        for src, gold, pred in triples
    ]
    assert rep.items == ref
    n = len(ref)
    assert rep.n_items == n
    if n:
        assert rep.bleu == sum(i.bleu for i in ref) / n
        assert rep.ss == sum(i.ss for i in ref) / n
        assert rep.wa == 100.0 * sum(i.wa for i in ref) / n
