import numpy as np
import pytest

from cogtrans.errors import InvalidArgument
from cogtrans.synthetic import (
    ALPHABET,
    DEFAULT_RULESET,
    MAX_LEN,
    MIN_LEN,
    RewriteRule,
    generate_pairs,
    oracle_transduce,
)


class TestRewriteRule:
    def test_initial(self):
        rule = RewriteRule("initial", "y", "j")
        assert rule.apply("yab") == "jab"
        assert rule.apply("ayb") == "ayb"

    def test_final(self):
        rule = RewriteRule("final", "nA", "lA")
        assert rule.apply("banA") == "balA"
        assert rule.apply("nAba") == "nAba"

    def test_anywhere_all_occurrences(self):
        rule = RewriteRule("anywhere", "M", "na")
        assert rule.apply("aMbM") == "anabna"

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            RewriteRule("middle", "a", "b")
        with pytest.raises(InvalidArgument):
            RewriteRule("initial", "", "b")


class TestOracle:
    def test_rules_apply_in_order(self):
        assert oracle_transduce("yanA") == "jalA"
        assert oracle_transduce("MnA") == "nalA"

    def test_clean_word_unchanged(self):
        assert oracle_transduce("bcd") == "bcd"


class TestGeneratePairs:
    def test_deterministic_for_seed(self):
        assert generate_pairs(7, 200) == generate_pairs(7, 200)

    def test_seeds_differ(self):
        assert generate_pairs(1, 200) != generate_pairs(2, 200)

    def test_targets_match_oracle(self):
        for src, tgt in generate_pairs(3, 300):
            assert tgt == oracle_transduce(src)

    def test_source_lengths_and_alphabet(self):
        for src, _ in generate_pairs(4, 300):
            assert MIN_LEN <= len(src) <= MAX_LEN
            assert set(src) <= set(ALPHABET)

    def test_identity_fraction_near_target(self):
        pairs = generate_pairs(5, 2000)
        identity = sum(1 for s, t in pairs if s == t)
        assert 0.05 <= identity / len(pairs) <= 0.15

    def test_every_rule_exercised(self):
        pairs = generate_pairs(6, 600)
        for rule in DEFAULT_RULESET:
            assert any(rule.apply(src) != src for src, _ in pairs)

    def test_invalid_args(self):
        with pytest.raises(InvalidArgument):
            generate_pairs(0, 0)
