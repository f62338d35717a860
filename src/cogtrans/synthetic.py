"""Rule-based cognate-pair generator: a public, deterministic benchmark with
a known transduction oracle, used by the end-to-end tests and the CLI.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, require_seed

ALPHABET = tuple("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN")
MIN_LEN = 2
MAX_LEN = 12
IDENTITY_FRACTION = 0.10


@dataclass(frozen=True)
class RewriteRule:
    """Positional string rewrite: src -> repl anchored at initial/final/anywhere."""

    anchor: str
    src: str
    repl: str

    def __post_init__(self):
        if self.anchor not in ("initial", "final", "anywhere"):
            raise InvalidArgument(f"unknown anchor {self.anchor!r}")
        if not self.src:
            raise InvalidArgument("rule source must be nonempty")

    def apply(self, word):
        if self.anchor == "initial":
            if word.startswith(self.src):
                return self.repl + word[len(self.src):]
            return word
        if self.anchor == "final":
            if word.endswith(self.src):
                return word[: len(word) - len(self.src)] + self.repl
            return word
        return word.replace(self.src, self.repl)


DEFAULT_RULESET = (
    RewriteRule("initial", "y", "j"),
    RewriteRule("final", "nA", "lA"),
    RewriteRule("anywhere", "M", "na"),
)


def oracle_transduce(word):
    """Apply every rule left-to-right in ``DEFAULT_RULESET`` order."""
    for rule in DEFAULT_RULESET:
        word = rule.apply(word)
    return word


def _random_word(rng, alphabet, length):
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=length))


def _draw_pair(rng):
    length = int(rng.integers(MIN_LEN, MAX_LEN + 1))
    word = _random_word(rng, ALPHABET, length)
    if rng.random() < IDENTITY_FRACTION:
        # resample until no rule fires, so source == target exactly
        while oracle_transduce(word) != word:
            word = _random_word(rng, ALPHABET, length)
    else:
        # plant the pattern of a random rule so transductions dominate
        rule = DEFAULT_RULESET[int(rng.integers(0, len(DEFAULT_RULESET)))]
        if rule.anchor == "initial":
            word = rule.src + word[len(rule.src):]
        elif rule.anchor == "final":
            word = word[: max(0, len(word) - len(rule.src))] + rule.src
        else:
            pos = int(rng.integers(0, max(1, len(word) - len(rule.src) + 1)))
            word = word[:pos] + rule.src + word[pos + len(rule.src):]
    return word, oracle_transduce(word)


def iter_pairs(seed, n):
    """n seeded (source, target) pairs with target == oracle_transduce(source),
    drawn one at a time as they are read; the arguments are checked at once.

    Roughly IDENTITY_FRACTION of the pairs use rule-clean sources (target
    equals source); the rest are boosted so each rule's pattern appears with
    useful frequency instead of the tiny natural rate of uniform sampling.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    require_seed("seed", seed)
    rng = np.random.default_rng(seed)
    return (_draw_pair(rng) for _ in range(n))


def generate_pairs(seed, n):
    """``iter_pairs``'s n pairs as a list."""
    return list(iter_pairs(seed, n))
