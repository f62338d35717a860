"""Hand-worked cases for the benchmark's oracles.

Runs under pytest, and ``bench/run.py`` runs every ``test_*`` function here
before it trusts the oracles.
"""

import math

from oracles import char_bleu, corpus_bleu, rewrite, word_accuracy


def close(a, b):
    return abs(a - b) < 1e-9


def test_rewrite_rules_in_order():
    assert rewrite("yambo") == "jambo"          # initial y
    assert rewrite("ayb") == "ayb"              # y not initial
    assert rewrite("manA") == "malA"            # final nA
    assert rewrite("nAb") == "nAb"              # nA not final
    assert rewrite("aMbM") == "anabna"          # every M
    assert rewrite("yaMnA") == "janalA"         # all three rules
    assert rewrite("aM") == "ana"               # lower-case "na" stays
    assert rewrite("bcd") == "bcd"


def test_word_accuracy():
    assert word_accuracy(["ab", "c"], ["ab", "d"]) == 50.0
    assert word_accuracy(["x"], ["x"]) == 100.0


def test_char_bleu_identity_and_short_words():
    assert close(char_bleu("abcd", "abcd"), 100.0)
    # orders 3 and 4 are longer than both strings and drop out
    assert close(char_bleu("ab", "ab"), 100.0)
    # order 3 fits the reference but not the prediction: no 3-grams, so 0
    assert char_bleu("ab", "abc") == 0.0
    assert char_bleu("", "abc") == 0.0


def test_char_bleu_partial_match():
    # 1..4-gram precisions 4/5, 3/4, 2/3, 1/2; product 0.2
    assert close(char_bleu("abcdx", "abcde"), 100.0 * 0.2 ** 0.25)
    # all precisions 1, brevity penalty exp(1 - 5/4)
    assert close(char_bleu("abcd", "abcde"), 100.0 * math.exp(-0.25))
    # clipping: "aa" has one 1-gram match with "ab"
    assert char_bleu("aa", "ab") == 0.0         # 2-gram "aa" unmatched


def test_corpus_bleu_pools_counts():
    hyps = [list("abcd"), list("abcdef")]
    refs = [list("abcd"), list("abcdeg")]
    # pooled precisions: 9/10, 7/8, 5/6, 3/4; equal lengths, no penalty
    expect = 100.0 * math.exp((math.log(9 / 10) + math.log(7 / 8)
                               + math.log(5 / 6) + math.log(3 / 4)) / 4)
    assert close(corpus_bleu(hyps, refs), expect)
    assert close(corpus_bleu([list("abcd")], [list("abcde")]),
                 100.0 * math.exp(-0.25))
    assert corpus_bleu([list("abc")], [list("abc")]) == 0.0   # no 4-gram


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
    print("oracle cases pass")
