"""WX <-> Devanagari codec, vocabulary construction, HAN post-processing and
the orthographic error-tag classifier.

The codec is table-driven and orthographic: a consonant without a following
vowel sign carries the inherent "a" in WX, a consonant followed by the virama
carries nothing.  The symbol table ships as a data file and is classified by
Unicode range, so round trips are exact on NFC input: ``wx_decode`` inverts
what ``wx_encode`` accepts, and its own output always re-encodes.  WX spells
a consonant + virama + vowel letter as it spells a consonant + vowel sign,
so ``wx_encode`` rejects that sequence, which Hindi orthography does not use.
"""

import enum
from importlib import resources

from .errors import InvalidArgument, UnmappedSymbol
from .metrics import edit_script, nfc

VIRAMA = "्"
ANUSVARA = "ं"
NUKTA = "़"
NA = "न"
RA = "र"
SSA = "ष"   # second member of the kRa conjunct
NYA = "ञ"   # second member of the jFa conjunct
KA = "क"
JA = "ज"
AA_MATRA = "ा"

_SIGN_RANGE = {0x0901, 0x0902, 0x0903}
_IND_VOWEL_RANGE = set(range(0x0904, 0x0915)) | {0x0960, 0x0961}
_CONSONANT_RANGE = set(range(0x0915, 0x093A))
_MATRA_RANGE = set(range(0x093E, 0x094D))
_DIGIT_RANGE = set(range(0x0966, 0x0970))

# short <-> long vowel pairs (independent letters and their signs)
_LENGTH_PAIRS = {
    frozenset("इई"),  # i / I letters
    frozenset("िी"),  # i / I signs
    frozenset("उऊ"),  # u / U letters
    frozenset("ुू"),  # u / U signs
    frozenset("अआ"),  # a / A letters
}


def _load_table():
    enc = {}
    text = resources.files("cogtrans.data").joinpath("wx_table.tsv").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cp_hex, wx = line.split("\t")
        cp = int(cp_hex, 16)
        kind = _classify(cp)
        enc[(chr(cp), kind)] = wx
    return enc


def _classify(cp):
    if cp in _SIGN_RANGE:
        return "sign"
    if cp == 0x093C:
        return "nukta"
    if cp in _IND_VOWEL_RANGE:
        return "vowel"
    if cp in _CONSONANT_RANGE:
        return "consonant"
    if cp in _MATRA_RANGE:
        return "matra"
    if cp == 0x094D:
        return "virama"
    if cp in _DIGIT_RANGE:
        return "digit"
    return "other"


_ENC = _load_table()
_CONS_WX = {wx: ch for (ch, kind), wx in _ENC.items() if kind == "consonant"}
_VOWEL_WX = {wx: ch for (ch, kind), wx in _ENC.items() if kind == "vowel"}
_MATRA_WX = {wx: ch for (ch, kind), wx in _ENC.items() if kind == "matra"}
_SIGN_WX = {wx: ch for (ch, kind), wx in _ENC.items() if kind == "sign"}
_DIGIT_WX = {wx: ch for (ch, kind), wx in _ENC.items() if kind == "digit"}
# the consonant + nukta pairs that NFC joins into one letter, which the
# table does not list: each is read as its consonant and "Z"
_NUKTA_LETTERS = {"\u0929": NA, "\u0931": RA}   # ऩ ऱ


def wx_encode(dev):
    """Devanagari -> WX-Latin (orthographic, no schwa deletion)."""
    s = nfc(dev)
    out = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        kind = _classify(ord(ch))
        if kind == "consonant":
            try:
                out.append(_ENC[(_NUKTA_LETTERS.get(ch, ch), "consonant")])
            except KeyError:
                raise UnmappedSymbol(ch, i) from None
            i += 1
            if ch in _NUKTA_LETTERS:
                out.append("Z")
            elif i < n and s[i] == NUKTA:
                out.append("Z")
                i += 1
            if i < n and _classify(ord(s[i])) == "matra":
                try:
                    out.append(_ENC[(s[i], "matra")])
                except KeyError:
                    raise UnmappedSymbol(s[i], i) from None
                i += 1
            elif i < n and s[i] == VIRAMA:
                i += 1  # bare consonant: no vowel letter
                if i < n and _classify(ord(s[i])) == "vowel":
                    raise InvalidArgument(
                        f"vowel letter {s[i]!r} after a virama at offset {i}: "
                        "WX would spell it as a vowel sign")
            else:
                out.append("a")  # inherent vowel
        elif kind in ("vowel", "sign", "digit"):
            try:
                out.append(_ENC[(ch, kind)])
            except KeyError:
                raise UnmappedSymbol(ch, i) from None
            i += 1
        else:
            raise UnmappedSymbol(ch, i)
    return "".join(out)


def wx_decode(wx):
    """WX-Latin -> Devanagari; exact inverse of wx_encode on its range."""
    out = []
    i = 0
    n = len(wx)
    while i < n:
        ch = wx[i]
        if ch in _CONS_WX:
            out.append(_CONS_WX[ch])
            i += 1
            if i < n and wx[i] == "Z":
                out.append(NUKTA)
                i += 1
            if i < n and (wx[i] in _VOWEL_WX or wx[i] == "a"):
                v = wx[i]
                if v != "a":
                    if v not in _MATRA_WX:
                        raise UnmappedSymbol(v, i)
                    out.append(_MATRA_WX[v])
                i += 1
            else:
                out.append(VIRAMA)
        elif ch in _VOWEL_WX or ch == "a":
            out.append("अ" if ch == "a" else _VOWEL_WX[ch])
            i += 1
        elif ch in _SIGN_WX:
            out.append(_SIGN_WX[ch])
            i += 1
        elif ch in _DIGIT_WX:
            out.append(_DIGIT_WX[ch])
            i += 1
        else:
            raise UnmappedSymbol(ch, i)
    return nfc("".join(out))


# ---------------------------------------------------------------------------
# vocabulary

class CharVocab:
    """Bidirectional symbol <-> id map with PAD/BOS/EOS/UNK specials."""

    PAD, BOS, EOS, UNK = 0, 1, 2, 3
    SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")

    def __init__(self, symbols):
        self.symbols = list(self.SPECIALS) + sorted(set(symbols) - set(self.SPECIALS))
        self.index = {s: i for i, s in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    def encode(self, word):
        return ([self.BOS] + [self.index.get(c, self.UNK) for c in nfc(word)]
                + [self.EOS])

    def decode(self, ids):
        """The symbols of ``ids``, the specials dropped."""
        return "".join(self.symbols[i] for i in ids if i >= len(self.SPECIALS))


def build_vocab(pairs):
    """Vocab over the union of source and target symbols of a pair corpus."""
    symbols = set()
    for src, tgt in pairs:
        symbols.update(nfc(src))
        symbols.update(nfc(tgt))
    return CharVocab(symbols)


# ---------------------------------------------------------------------------
# HAN post-processing

def strip_trailing_repeats(word, script=None):
    """Drop the final grapheme while it equals its predecessor.

    For WX input the rule is applied on the decoded Devanagari units (a
    trailing "tata" is two repeated graphemes, not four Latin letters).
    """
    if script == "wx":
        return wx_encode(strip_trailing_repeats(wx_decode(word)))
    s = nfc(word)
    while len(s) >= 2 and s[-1] == s[-2]:
        s = s[:-1]
    return s


# ---------------------------------------------------------------------------
# error taxonomy

class ErrorTag(enum.Enum):
    Halant = "Halant"
    Anusvara = "Anusvara"
    VowelQuality = "VowelQuality"
    ConjunctKRaJFa = "ConjunctKRaJFa"
    RephDiacritic = "RephDiacritic"
    VowelLength = "VowelLength"
    LongWord = "LongWord"
    IdenticalExpected = "IdenticalExpected"
    InvalidSequence = "InvalidSequence"


def _is_devanagari(s):
    return all(0x0900 <= ord(c) <= 0x097F for c in s)


def _is_vowelish(c):
    k = _classify(ord(c))
    return k in ("vowel", "matra")


def is_valid_sequence(word):
    """Structural well-formedness of a Devanagari letter sequence."""
    s = nfc(word)
    if not s:
        return False
    prev_kind = None
    for c in s:
        kind = _classify(ord(c))
        if kind == "other":
            return False
        if kind in ("matra", "virama", "nukta") and prev_kind != "consonant":
            # combining marks attach to a consonant (nukta'd consonants keep
            # kind "consonant" below)
            return False
        if kind == "sign" and prev_kind in (None, "virama"):
            return False
        prev_kind = "consonant" if kind == "nukta" else kind
    return True


def _covers(s, cluster, positions):
    """Whether an occurrence of ``cluster`` in ``s`` covers one of the
    indices ``positions``."""
    return any(s.startswith(cluster, i - k) for i in positions
               for k in range(min(i + 1, len(cluster))))


def classify_errors(source, gold, prediction, script="devanagari"):
    """Deterministic error tags for a (source, gold, prediction) triple.  A
    WX prediction the codec cannot read, as a model may write, is tagged
    ``InvalidSequence`` only."""
    if script == "wx":
        source, gold = wx_decode(source), wx_decode(gold)
        try:
            prediction = wx_decode(prediction)
        except UnmappedSymbol:
            return {ErrorTag.InvalidSequence}
    elif script != "devanagari":
        raise InvalidArgument(f"unknown script {script!r}")
    src, g, p = nfc(source), nfc(gold), nfc(prediction)
    for name, s in (("source", src), ("gold", g), ("prediction", p)):
        if s and not _is_devanagari(s):
            raise InvalidArgument(f"{name} is not in the declared script")

    tags = set()
    if p == g:
        return tags

    ops = edit_script(g, p)
    changed_gold = [(i, g[i]) for op, i, j in ops if op in ("sub", "del")]
    changed_pred = [(j, p[j]) for op, i, j in ops if op in ("sub", "ins")]
    subs = [(g[i], p[j]) for op, i, j in ops if op == "sub"]
    inserted = [c for _, c in changed_pred]
    deleted = [c for _, c in changed_gold]
    gold_positions = {i for i, _ in changed_gold}
    pred_positions = {j for j, _ in changed_pred}

    def neighborhood(s, positions):
        chars = set()
        for i in positions:
            for k in (i - 1, i, i + 1):
                if 0 <= k < len(s):
                    chars.add((k, s[k]))
        return chars

    region = neighborhood(g, gold_positions) | neighborhood(p, pred_positions)
    region_chars = {c for _, c in region}

    # anusvara: the sign itself in the diff, or a nasal NA inserted/deleted
    # where the source carries an anusvara
    nasal_rule = (NA in inserted or NA in deleted) and ANUSVARA in src
    if ANUSVARA in region_chars or nasal_rule:
        tags.add(ErrorTag.Anusvara)

    # halant: virama in the diff region, except viramas that merely attach a
    # nasal the anusvara rule already accounts for
    viramas = {(k, c) for k, c in region if c == VIRAMA}
    if nasal_rule:
        nasal_pred = {j for j, c in changed_pred if c == NA}
        nasal_gold = {i for i, c in changed_gold if c == NA}
        viramas = {
            (k, c)
            for k, c in viramas
            if not any(abs(k - m) <= 1 for m in nasal_pred | nasal_gold)
        }
    if viramas:
        tags.add(ErrorTag.Halant)

    for a, b in subs:
        if frozenset((a, b)) in _LENGTH_PAIRS:
            tags.add(ErrorTag.VowelLength)
        elif _is_vowelish(a) and _is_vowelish(b):
            tags.add(ErrorTag.VowelQuality)
    for op, i, j in ops:
        # bare insertion/deletion of the long-a sign is a length change
        if op == "ins" and p[j] == AA_MATRA:
            tags.add(ErrorTag.VowelLength)
        if op == "del" and g[i] == AA_MATRA:
            tags.add(ErrorTag.VowelLength)

    for cluster in (KA + VIRAMA + SSA, JA + VIRAMA + NYA):
        if _covers(g, cluster, gold_positions) or (
                cluster in src and (SSA in region_chars or NYA in region_chars)):
            tags.add(ErrorTag.ConjunctKRaJFa)

    reph = RA + VIRAMA
    if _covers(g, reph, gold_positions) or _covers(p, reph, pred_positions):
        tags.add(ErrorTag.RephDiacritic)

    if len(g) > 6:
        tags.add(ErrorTag.LongWord)
    if src == g:
        tags.add(ErrorTag.IdenticalExpected)
    if not is_valid_sequence(p):
        tags.add(ErrorTag.InvalidSequence)
    return tags
