"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions, apart from ``cogtrans``:
the three rewrite rules of the synthetic cognate generator, word accuracy,
character BLEU and corpus BLEU.  The benchmark scores the program's outputs
with these functions, never with the program's own scorers.
"""

import math


def rewrite(word):
    """The generator's rules in their fixed order: word-initial y -> j,
    word-final nA -> lA, then every M -> na."""
    if word[:1] == "y":
        word = "j" + word[1:]
    if word[-2:] == "nA":
        word = word[:-2] + "lA"
    return "na".join(word.split("M"))


def word_accuracy(predictions, golds):
    """Percentage of predictions identical to their gold string."""
    if len(predictions) != len(golds) or not golds:
        raise ValueError("word_accuracy needs equal, non-empty lists")
    hits = sum(1 for p, g in zip(predictions, golds) if p == g)
    return 100.0 * hits / len(golds)


def _gram_counts(units, n):
    counts = {}
    for i in range(len(units) - n + 1):
        gram = tuple(units[i:i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _clipped(pred_counts, ref_counts):
    return sum(min(c, ref_counts.get(g, 0)) for g, c in pred_counts.items())


def char_bleu(pred, ref, max_n=4):
    """Sentence BLEU over characters: clipped n-gram precisions up to
    ``max_n``, geometric mean, brevity penalty on character counts.  An order
    longer than both strings is left out of the mean; any other order with no
    match makes the score 0."""
    if not ref:
        raise ValueError("empty reference")
    if not pred:
        return 0.0
    log_sum, orders = 0.0, 0
    for n in range(1, max_n + 1):
        if n > len(pred) and n > len(ref):
            break
        pc = _gram_counts(pred, n)
        total = sum(pc.values())
        matched = _clipped(pc, _gram_counts(ref, n)) if total else 0
        if matched == 0:
            return 0.0
        log_sum += math.log(matched / total)
        orders += 1
    penalty = 1.0 if len(pred) >= len(ref) else math.exp(1.0 - len(ref) / len(pred))
    return 100.0 * penalty * math.exp(log_sum / orders)


def corpus_bleu(hypotheses, references, max_n=4):
    """Papineni corpus BLEU over token lists: clipped counts and totals are
    pooled over the corpus per order before the precisions are taken."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference counts differ")
    matched = [0] * max_n
    totals = [0] * max_n
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    for hyp, ref in zip(hypotheses, references):
        for n in range(1, max_n + 1):
            hc = _gram_counts(hyp, n)
            totals[n - 1] += sum(hc.values())
            matched[n - 1] += _clipped(hc, _gram_counts(ref, n))
    if hyp_len == 0 or min(matched) == 0:
        return 0.0
    log_mean = sum(math.log(m / t) for m, t in zip(matched, totals)) / max_n
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * penalty * math.exp(log_mean)
