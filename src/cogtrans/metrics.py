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
    return _table(nfc(s1), nfc(s2))[-1][-1]


def _table(a, b):
    """The edit-distance table: row i, column j holds the distance from
    a[:i] to b[:j]."""
    rows = [list(range(len(b) + 1))]
    for i, ca in enumerate(a, 1):
        prev, cur = rows[-1], [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        rows.append(cur)
    return rows


def edit_script(s1, s2):
    """Minimal edit script from s1 to s2 as (op, i, j) triples.

    op is one of "match", "sub", "ins", "del"; i/j index into s1/s2 (the
    position an insert lands before, for "ins").
    """
    a, b = nfc(s1), nfc(s2)
    dp = _table(a, b)
    ops = []
    i, j = len(a), len(b)
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
    return (1.0 - _table(a, b)[-1][-1] / total) * 100.0


def word_accuracy(pred, gold):
    return 1 if nfc(pred) == nfc(gold) else 0


BLEU_ORDER = 4   # the longest n-gram every BLEU here counts


def _ngrams(units, n):
    """Counts of the length-n slices of a string or a tuple."""
    return Counter(units[i : i + n] for i in range(len(units) - n + 1))


def char_bleu(pred, ref):
    """BLEU over character n-grams with clipping and a brevity penalty on
    character counts.  Orders longer than both strings are dropped from the
    geometric mean so short words are not zeroed out.
    """
    p, r = nfc(pred), nfc(ref)
    if not r:
        raise InvalidArgument("empty reference")
    return _bleu(p, r)


def _counts(pred, ref, orders):
    """Each order's (clipped, total) count of the n-grams of ``pred``,
    computed as it is read."""
    for n in orders:
        pc, rc = _ngrams(pred, n), _ngrams(ref, n)
        yield sum(min(c, rc[g]) for g, c in pc.items()), sum(pc.values())


def _combine(counts, pred_len, ref_len):
    """BLEU from each order's (clipped, total) counts: the geometric mean of
    the clipped precisions times the brevity penalty.  The first order with
    no match gives 0.0 and no later order is read; an empty prediction has
    no unigram, so the penalty never divides by a zero length."""
    logs = []
    for clipped, total in counts:
        if clipped == 0:   # clipped <= total, so this covers a total of 0
            return 0.0
        logs.append(math.log(clipped / total))
    bp = 1.0 if pred_len >= ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


def _bleu(p, r):
    """``char_bleu`` of a normalized prediction and non-empty reference."""
    orders = range(1, min(BLEU_ORDER, max(len(p), len(r))) + 1)
    return _combine(_counts(p, r, orders), len(p), len(r))


def corpus_bleu(pred_sentences, ref_sentences):
    """Papineni-style corpus BLEU over token n-grams: clipped counts are
    summed over the whole corpus before precisions are formed; the brevity
    penalty uses total lengths.  Sentences are token lists.
    """
    if len(pred_sentences) != len(ref_sentences):
        raise InvalidArgument("prediction/reference counts differ")
    clipped = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    pred_len = ref_len = 0
    for ptoks, rtoks in zip(pred_sentences, ref_sentences):
        ptoks, rtoks = tuple(ptoks), tuple(rtoks)
        pred_len += len(ptoks)
        ref_len += len(rtoks)
        for k, (c, t) in enumerate(_counts(ptoks, rtoks, range(1, BLEU_ORDER + 1))):
            clipped[k] += c
            totals[k] += t
    return _combine(zip(clipped, totals), pred_len, ref_len)


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
            bleu = _bleu(p, g) if g else 0.0
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
