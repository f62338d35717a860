"""Evaluation measures: Levenshtein, string similarity, word accuracy,
character n-gram BLEU and corpus-level token BLEU.

All functions treat a string as a sequence of NFC code points, which keeps
length well-defined for Devanagari combining marks.  ``score_items``
normalizes each prediction and gold once and scores the normal forms; an
exact match gets ``ss=100.0``, ``wa=1`` and ``bleu=100.0`` (``0.0`` for an
empty gold), the values the general formulas give for equal strings.
"""

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .errors import InvalidArgument


def nfc(s):
    return unicodedata.normalize("NFC", s)


def levenshtein(s1, s2):
    """Unit-cost edit distance over code points."""
    return _distance(nfc(s1), nfc(s2))


def _distance(a, b):
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def edit_script(s1, s2):
    """Minimal edit script from s1 to s2 as (op, i, j) triples.

    op is one of "match", "sub", "ins", "del"; i/j index into s1/s2 (the
    position an insert lands before, for "ins").
    """
    a, b = nfc(s1), nfc(s2)
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]):
            ops.append(("match" if a[i - 1] == b[j - 1] else "sub", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            ops.append(("del", i - 1, j))
            i -= 1
        else:
            ops.append(("ins", i, j - 1))
            j -= 1
    ops.reverse()
    return ops


def string_similarity(s1, s2):
    """(1 - edit_distance / (len(s1) + len(s2))) * 100; both-empty is 100."""
    return _similarity(nfc(s1), nfc(s2))


def _similarity(a, b):
    total = len(a) + len(b)
    if total == 0:
        return 100.0
    return (1.0 - _distance(a, b) / total) * 100.0


def word_accuracy(pred, gold):
    return 1 if nfc(pred) == nfc(gold) else 0


BLEU_ORDER = 4   # the longest n-gram every BLEU here counts


def _ngrams(units, n):
    """Counts of the length-n slices of a string or a tuple."""
    return Counter(units[i : i + n] for i in range(len(units) - n + 1))


def char_bleu(pred, ref, max_n=BLEU_ORDER):
    """BLEU over character n-grams with clipping and a brevity penalty on
    character counts.  Orders longer than both strings are dropped from the
    geometric mean so short words are not zeroed out.
    """
    if max_n < 1:
        raise InvalidArgument("max_n must be >= 1")
    p, r = nfc(pred), nfc(ref)
    if not r:
        raise InvalidArgument("empty reference")
    return _bleu(p, r, max_n)


def _bleu(p, r, max_n):
    """``char_bleu`` of a normalized prediction and non-empty reference."""
    if not p:
        return 0.0
    logs = []
    for n in range(1, max_n + 1):
        if n > len(p) and n > len(r):
            continue
        pc = _ngrams(p, n)
        rc = _ngrams(r, n)
        total = sum(pc.values())
        if total == 0:
            return 0.0
        clipped = sum(min(c, rc[g]) for g, c in pc.items())
        if clipped == 0:
            return 0.0
        logs.append(math.log(clipped / total))
    if not logs:
        return 0.0
    bp = 1.0 if len(p) >= len(r) else math.exp(1.0 - len(r) / len(p))
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


def corpus_bleu(pred_sentences, ref_sentences):
    """Papineni-style corpus BLEU over token n-grams: clipped counts are
    summed over the whole corpus before precisions are formed; the brevity
    penalty uses total lengths.  Sentences are token lists.
    """
    if len(pred_sentences) != len(ref_sentences):
        raise InvalidArgument("prediction/reference counts differ")
    clipped = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    pred_len = 0
    ref_len = 0
    for ptoks, rtoks in zip(pred_sentences, ref_sentences):
        ptoks, rtoks = tuple(ptoks), tuple(rtoks)
        pred_len += len(ptoks)
        ref_len += len(rtoks)
        for n in range(1, BLEU_ORDER + 1):
            pc = _ngrams(ptoks, n)
            rc = _ngrams(rtoks, n)
            totals[n - 1] += sum(pc.values())
            clipped[n - 1] += sum(min(c, rc[g]) for g, c in pc.items())
    logs = []
    for c, t in zip(clipped, totals):
        if t == 0 or c == 0:
            return 0.0
        logs.append(math.log(c / t))
    if pred_len == 0:
        return 0.0
    bp = 1.0 if pred_len >= ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


@dataclass
class ItemRecord:
    source: str
    gold: str
    prediction: str
    ss: float
    wa: int
    bleu: float
    tags: tuple = ()


@dataclass
class EvalReport:
    bleu: float = 0.0
    ss: float = 0.0
    wa: float = 0.0
    n_items: int = 0
    items: list = field(default_factory=list)
    truncated: int = 0      # decodes cut at max_decode_len, set by the decoder's caller

    @classmethod
    def from_items(cls, items):
        n = len(items)
        if n == 0:
            return cls()
        return cls(
            bleu=sum(i.bleu for i in items) / n,
            ss=sum(i.ss for i in items) / n,
            wa=100.0 * sum(i.wa for i in items) / n,
            n_items=n,
            items=list(items),
        )


def score_items(triples, tags_fn=None):
    """Build an EvalReport from (source, gold, prediction) triples."""
    items = []
    for src, gold, pred in triples:
        p, g = nfc(pred), nfc(gold)
        if tags_fn:
            tags = tuple(sorted(
                t.value if hasattr(t, "value") else str(t)
                for t in tags_fn(src, gold, pred)
            ))
        else:
            tags = ()
        if p == g:
            ss, wa, bleu = 100.0, 1, (100.0 if g else 0.0)
        else:
            ss, wa = _similarity(p, g), 0
            bleu = _bleu(p, g, BLEU_ORDER) if g else 0.0
        items.append(ItemRecord(source=src, gold=gold, prediction=pred,
                                ss=ss, wa=wa, bleu=bleu, tags=tags))
    return EvalReport.from_items(items)


def write_report_tsv(report, path):
    """One record per item plus an aggregate footer of ``key=value`` fields,
    the last of them the count of truncated decodes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("source\tgold\tprediction\tss\twa\tbleu\ttags\n")
        for it in report.items:
            fh.write(
                f"{it.source}\t{it.gold}\t{it.prediction}\t{it.ss:.4f}\t"
                f"{it.wa}\t{it.bleu:.4f}\t{','.join(it.tags)}\n"
            )
        fh.write(
            f"#aggregate\tn={report.n_items}\tbleu={report.bleu:.4f}\t"
            f"ss={report.ss:.4f}\twa={report.wa:.4f}\t"
            f"truncated={report.truncated}\n"
        )


def summary_table(reports):
    """Human-readable metric table: one column per named report."""
    names = list(reports)
    lines = ["Metric\t" + "\t".join(names)]
    for metric in ("bleu", "ss", "wa"):
        row = [metric.upper()] + [f"{getattr(reports[n], metric):.2f}" for n in names]
        lines.append("\t".join(row))
    return "\n".join(lines)
