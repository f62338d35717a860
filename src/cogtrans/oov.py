"""OOV correction for MT output: frequency shortlist, attention-based word
alignment, transduction splice-in, and before/after corpus BLEU.
``correct_records`` is the one path that flags, transduces and splices.
"""

import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .data_io import naming_source, read_text, tsv_rows
from .errors import EmptyInput, InvalidArgument, InvalidAttention, ParseError
from .metrics import corpus_bleu, nfc

ROW_SUM_TOL = 1e-3

# Devanagari danda, double danda, and common ASCII punctuation: ``tokenize``
# splits them off a word's ends as tokens of their own, and ``detect_oov``
# never flags them
_PUNCT = set("।॥.,!?;:\"'()[]{}")


@dataclass
class FrequencyShortlist:
    """Top-K words by corpus frequency, counts non-increasing in rank."""

    words: list
    counts: list
    K: int

    def __post_init__(self):
        self._set = set(self.words)

    def __contains__(self, word):
        return nfc(word) in self._set

    def __len__(self):
        return len(self.words)

    def top(self, K):
        """The shortlist of the first K words; K may not exceed ``self.K``.
        The ranking is a total order, so this equals ``build_shortlist`` of
        the same corpus at K."""
        if not 1 <= K <= self.K:
            raise InvalidArgument(f"K must be in [1, {self.K}], got {K}")
        return FrequencyShortlist(self.words[:K], self.counts[:K], K)


def tokenize(sentence):
    """Whitespace split with punctuation detached into separate tokens."""
    tokens = []
    for chunk in sentence.split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
            tokens.append(chunk)
            continue
        head = 0
        while head < len(chunk) and chunk[head] in _PUNCT:
            tokens.append(chunk[head])
            head += 1
        tail = len(chunk)
        trailing = []
        while tail > head and chunk[tail - 1] in _PUNCT:
            trailing.append(chunk[tail - 1])
            tail -= 1
        if tail > head:
            tokens.append(chunk[head:tail])
        tokens.extend(reversed(trailing))
    return tokens


def build_shortlist(corpus, K):
    """Top-K by token frequency; ties at equal count break lexicographically.
    Tokens are counted as written, then the counts of spellings that share
    an NFC form are summed under that form."""
    if K < 1:
        raise InvalidArgument("K must be >= 1")
    raw = Counter()
    for sentence in corpus:
        raw.update(tokenize(sentence) if isinstance(sentence, str) else sentence)
    counts = Counter()
    for token, c in raw.items():
        counts[nfc(token)] += c
    if not counts:
        raise EmptyInput("empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:K]
    return FrequencyShortlist(
        words=[w for w, _ in ranked], counts=[c for _, c in ranked], K=K
    )


def detect_oov(tokens, shortlist):
    """Positions of tokens absent from the shortlist (punctuation exempt)."""
    return {
        i for i, t in enumerate(tokens)
        if t not in shortlist and t not in _PUNCT
    }


@dataclass
class AlignedSentencePair:
    source: list
    target: list
    attention: np.ndarray  # rows = target positions, cols = source positions
    alignment: dict = field(default_factory=dict)  # source -> [target...]


def align_from_attention(att):
    """source position -> target positions claimed by each target row's argmax.

    Entries must be non-negative and rows stochastic within ROW_SUM_TOL;
    argmax ties take the lowest source index.  A source word may map to zero
    or several target words.
    """
    att = np.asarray(att, dtype=np.float64)
    if att.ndim != 2:
        raise InvalidAttention(f"attention must be 2-D, got shape {att.shape}")
    if not (att >= 0).all():   # a NaN compares False as well
        row, col = np.argwhere(~(att >= 0))[0]
        raise InvalidAttention(
            f"entry ({row}, {col}) is {att[row, col]}, not a weight >= 0")
    sums = att.sum(axis=1)
    off = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if off.size:
        raise InvalidAttention(f"row {off[0]} sums to {sums[off[0]]:.6f}, not 1")
    mapping = {}
    for row_idx, row in enumerate(att):
        src_idx = int(np.argmax(row))  # argmax takes the lowest index on ties
        mapping.setdefault(src_idx, []).append(row_idx)
    return mapping


def correct_translation(pair, oov_positions, transducer):
    """Replace target tokens aligned to OOV source positions by transductions.

    Returns (corrected tokens, log): the log records unaligned OOV words,
    transducer failures and empty transductions (the affected tokens are
    left unchanged).
    """
    if not pair.alignment:
        pair.alignment = align_from_attention(pair.attention)
    corrected = list(pair.target)
    log = []
    for pos in sorted(oov_positions):
        word = pair.source[pos]
        targets = pair.alignment.get(pos, [])
        if not targets:
            log.append(("unaligned", pos, word))
            continue
        try:
            replacement = transducer(word)
        except Exception as exc:  # a failing transducer must not kill the run
            log.append(("transducer-error", pos, f"{word}: {exc}"))
            continue
        if not replacement:
            log.append(("empty-transduction", pos, word))
            continue
        for t_pos in targets:
            corrected[t_pos] = replacement
    return corrected, log


def correct_records(records, shortlist_corpus, shortlist_sizes, transduce):
    """Each record's corrected target tokens, one list per shortlist size.

    The corpus is ranked once, at the largest size, and the ranking is cut
    for each size.  ``transduce`` is called once, with the distinct words
    flagged at any size in order of first appearance, and must return one
    string per word; each record is then spliced by ``correct_translation``
    through a lookup of those strings, and an empty one keeps the MT token.
    """
    ranked = build_shortlist(shortlist_corpus, max(shortlist_sizes, default=1))
    flagged = [[detect_oov(rec.source, shortlist) for rec in records]
               for shortlist in map(ranked.top, shortlist_sizes)]
    words = list(dict.fromkeys(rec.source[i] for per_size in flagged
                               for rec, oov in zip(records, per_size)
                               for i in sorted(oov)))
    out = list(transduce(words))
    if len(out) != len(words) or not all(isinstance(w, str) for w in out):
        raise InvalidArgument(
            f"transduce returned {len(out)} items for {len(words)} words; "
            "it must return one string per word")
    lookup = dict(zip(words, out)).__getitem__
    return [[correct_translation(rec, oov, lookup)[0]
             for rec, oov in zip(records, per_size)] for per_size in flagged]


def evaluate_pipeline(records, references, shortlist_corpus, shortlist_sizes,
                      transduce):
    """One (K, baseline BLEU, corrected BLEU, delta) row per shortlist size.

    records are AlignedSentencePairs; references are token lists aligned with
    them.  ``transduce`` maps a list of words to their transductions, as
    ``correct_records`` takes it.
    """
    if len(records) != len(references):
        raise InvalidArgument("record/reference counts differ")
    if not references:
        raise InvalidArgument("missing references")
    baseline = corpus_bleu([r.target for r in records], references)
    corrected = [corpus_bleu(tokens, references) for tokens in correct_records(
        records, shortlist_corpus, shortlist_sizes, transduce)]
    return [{"K": K, "baseline": baseline, "corrected": bleu,
             "delta": bleu - baseline}
            for K, bleu in zip(shortlist_sizes, corrected)]


# ---------------------------------------------------------------------------
# pipeline file format: sentences TSV + sidecar binary attention matrices

def save_pipeline_file(records, tsv_path, matrix_path):
    """TSV rows "source tokens<TAB>target tokens" (space-joined) plus a
    sidecar of per-record matrices: uint32 rows, uint32 cols, then row-major
    little-endian float64 entries."""
    with open(tsv_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(" ".join(rec.source) + "\t" + " ".join(rec.target) + "\n")
    with open(matrix_path, "wb") as fh:
        for rec in records:
            att = np.ascontiguousarray(rec.attention, dtype="<f8")
            fh.write(struct.pack("<II", att.shape[0], att.shape[1]))
            fh.write(att.tobytes())


def load_pipeline_file(tsv_path, matrix_path):
    """The records ``save_pipeline_file`` wrote, each aligned as it is read.
    A record's matrix must be an attention matrix with one row per target
    token and one column per source token."""
    records = []
    text = read_text(tsv_path)
    with open(matrix_path, "rb") as fh:
        blob = fh.read()
    off = 0
    with naming_source(tsv_path):
        for line_no, fields in tsv_rows(text, ("source tokens",
                                                "target tokens")):
            # no token holds a byte-order mark, which no line may start with
            source, target = (f.replace("\ufeff", "").split() for f in fields)
            if not source and not target:
                continue   # a line of byte-order marks and whitespace
            if off + 8 > len(blob):
                raise InvalidArgument(f"{matrix_path}: shorter than the TSV")
            rows, cols = struct.unpack_from("<II", blob, off)
            off += 8
            count = rows * cols
            if off + count * 8 > len(blob):
                raise InvalidArgument(f"{matrix_path}: shorter than the TSV")
            att = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
            off += count * 8
            if (rows, cols) != (len(target), len(source)):
                raise ParseError(
                    line_no, f"attention matrix is {rows}x{cols}, but the "
                    f"pair has {len(target)} target and {len(source)} source "
                    "tokens")
            att = att.reshape(rows, cols).copy()
            try:
                alignment = align_from_attention(att)
            except InvalidAttention as exc:
                raise ParseError(line_no, f"attention matrix: {exc}") from None
            records.append(AlignedSentencePair(source, target, att, alignment))
    if off != len(blob):
        raise InvalidArgument(f"{matrix_path}: longer than the TSV")
    return records
