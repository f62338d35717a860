import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogtrans.devanagari import (
    CharVocab,
    ErrorTag,
    build_vocab,
    classify_errors,
    is_valid_sequence,
    strip_trailing_repeats,
    wx_decode,
    wx_encode,
)
from cogtrans.errors import CogtransError, InvalidArgument, UnmappedSymbol
from cogtrans.metrics import nfc

WORDS = [
    "भेट", "भेंट", "प्रथा", "वृक्षा", "ज्ञान", "दर्शन", "यजमान", "जज़्बा",
    "कंगन", "नदी", "बड़ा", "कृष्ण", "हिंदी", "संस्कृत", "अंगूर", "ऋषि",
    "औरत", "ईख", "उल्लू", "ऊन", "एक", "ऐनक", "ओखली", "कक्षा",
    "चश्मा", "छात्र", "झण्डा", "ठंड", "ढोल", "१२३",
]


class TestCodec:
    def test_round_trip_identity(self):
        for word in WORDS:
            assert wx_decode(wx_encode(word)) == word

    def test_independent_vowel_a(self):
        assert wx_encode("अ") == "a"

    def test_long_a_letter_and_sign(self):
        assert wx_encode("आ") == "A"
        assert wx_encode("का") == "kA"

    def test_anusvara_is_m(self):
        assert wx_encode("ं") == "M"
        assert wx_encode("भेंट") == "BeMta"

    def test_inherent_vowel_and_virama(self):
        assert wx_encode("कल") == "kala"
        assert wx_encode("क्ल") == "kla"

    def test_nukta(self):
        assert wx_encode("ज़") == "jZa"
        assert wx_decode("jZa") == "ज़"

    def test_unmapped_symbol_offset(self):
        with pytest.raises(UnmappedSymbol) as exc:
            wx_encode("कx")
        assert exc.value.offset == 1
        with pytest.raises(UnmappedSymbol):
            wx_decode("k#")

    @pytest.mark.parametrize("wx, letter", [("nZa", "\u0929"),
                                            ("rZa", "\u0931")])
    def test_letter_nfc_joins_with_its_nukta(self, wx, letter):
        """NFC joins न and र with the nukta into one code point, which
        encodes as the consonant and "Z"."""
        assert wx_decode(wx) == letter
        assert wx_encode(letter) == wx
        assert wx_encode(letter + "ा") == wx[:-1] + "A"
        assert wx_encode("क" + letter + "्") == "ka" + wx[:-1]

    def test_vowel_letter_after_virama_is_an_error(self):
        """WX spells ट्औ as it spells टौ, so the encoder refuses it."""
        assert wx_decode("DatO") == "ढटौ"
        with pytest.raises(InvalidArgument, match="offset 3"):
            wx_encode("ढट्औ")
        with pytest.raises(InvalidArgument, match="offset 2"):
            wx_encode("क्अ")


# every letter of the WX table, and the Devanagari the codec reads plus the
# virama, the nukta, the letters NFC joins with it and a few it does not read
_WX_ALPHABET = "zMHZaAiIuUqQLeEoOkKgGfcCjJFtTdDNwWxXnpPbBmyrlvSRsh0123456789"
_DEVANAGARI = sorted(set("".join(wx_decode(c) for c in _WX_ALPHABET
                                 if c != "Z")
                         + "़ािीुूृॄेैोौ\u0929\u0931\u0933\u0934।ॐx"))


def _try(convert, text):
    """``convert(text)``, checked to be a string, or None when it raises a
    ``CogtransError``."""
    try:
        out = convert(text)
    except CogtransError:
        return None
    assert isinstance(out, str)
    return out


@settings(max_examples=600, deadline=None)
@example(text="ढट्औ")
@example(text="nZa")
@example(text="rZA")
@given(text=st.text(max_size=10)
       | st.text(st.sampled_from(_DEVANAGARI), max_size=10)
       | st.text(st.sampled_from(_WX_ALPHABET), max_size=10))
def test_wx_codec_returns_strings_or_typed_errors_and_inverts(text):
    """On any text, ``wx_encode`` and ``wx_decode`` each return a string or
    raise a ``CogtransError``; what the encoder accepts decodes back to its
    NFC form, and what the decoder writes encodes again."""
    wx = _try(wx_encode, text)
    if wx is not None:
        assert wx_decode(wx) == nfc(text)
    dev = _try(wx_decode, text)
    if dev is not None:
        assert wx_decode(wx_encode(dev)) == dev


class TestVocab:
    def test_specials_and_sorted_ids(self):
        vocab = build_vocab([("ab", "ba")])
        assert vocab.symbols[:4] == list(CharVocab.SPECIALS)
        assert vocab.symbols[4:] == ["a", "b"]
        assert (vocab.PAD, vocab.BOS, vocab.EOS, vocab.UNK) == (0, 1, 2, 3)

    def test_disjoint_alphabets_merged(self):
        vocab = build_vocab([("ab", "cd")])
        assert set("abcd") <= set(vocab.symbols)

    def test_rebuild_is_identical(self):
        pairs = [("xy", "yz"), ("ab", "ba")]
        assert build_vocab(pairs).symbols == build_vocab(pairs).symbols

    def test_encode_decode(self):
        vocab = build_vocab([("ab", "ba")])
        ids = vocab.encode("ab")
        assert ids[0] == vocab.BOS and ids[-1] == vocab.EOS
        assert vocab.decode(ids) == "ab"
        assert vocab.encode("q") == [vocab.BOS, vocab.UNK, vocab.EOS]

    def test_decode_drops_every_special(self):
        vocab = build_vocab([("ab", "ba")])
        assert vocab.decode([vocab.BOS, 4, vocab.UNK, 5, vocab.PAD,
                             vocab.EOS]) == "ab"
        assert vocab.decode(vocab.encode("aqb")) == "ab"


class TestStripTrailingRepeats:
    def test_wx_artifact(self):
        assert strip_trailing_repeats("Jatatatata", script="wx") == "Jata"

    def test_fixed_point(self):
        assert strip_trailing_repeats("Jata", script="wx") == "Jata"

    def test_plain_repeats(self):
        assert strip_trailing_repeats("abbb") == "ab"

    def test_idempotent(self):
        r = np.random.default_rng(0)
        for _ in range(300):
            w = "".join(r.choice(list("abc"), size=r.integers(0, 8)))
            once = strip_trailing_repeats(w)
            assert strip_trailing_repeats(once) == once


class TestValidity:
    def test_well_formed(self):
        for word in WORDS:
            assert is_valid_sequence(word)

    def test_violations(self):
        assert not is_valid_sequence("")
        assert not is_valid_sequence("ा")          # leading vowel sign
        assert not is_valid_sequence("क््ल")       # doubled virama
        assert not is_valid_sequence("ंक")         # leading anusvara


class TestClassifyErrors:
    def test_equal_prediction_is_clean(self):
        assert classify_errors("BeMta", "Beta", "Beta", script="wx") == set()

    def test_nasal_insertion_tags_anusvara_only(self):
        tags = classify_errors("BeMta", "Beta", "Benta", script="wx")
        assert tags == {ErrorTag.Anusvara}

    def test_halant(self):
        tags = classify_errors("vqkRa", "vqkRa", "vqkaRa", script="wx")
        assert ErrorTag.Halant in tags

    def test_long_word_with_vowel_length(self):
        gold = "kArAgArawAlA"       # 12 code points in Devanagari
        pred = "kArAgArawAla"
        tags = classify_errors(gold, gold, pred, script="wx")
        assert ErrorTag.LongWord in tags
        assert ErrorTag.VowelLength in tags

    def test_vowel_quality(self):
        tags = classify_errors("mela", "mela", "mila", script="wx")
        assert ErrorTag.VowelQuality in tags

    def test_identical_expected(self):
        tags = classify_errors("nadI", "nadI", "nadi", script="wx")
        assert ErrorTag.IdenticalExpected in tags

    def test_conjunct_cluster(self):
        tags = classify_errors("vqkRA", "vqkRA", "vqKA", script="wx")
        assert ErrorTag.ConjunctKRaJFa in tags

    def test_reph(self):
        tags = classify_errors("xarSana", "xarSana", "xaSana", script="wx")
        assert ErrorTag.RephDiacritic in tags

    def test_invalid_sequence(self):
        tags = classify_errors("कल", "कल", "कं", script="devanagari")
        assert is_valid_sequence("कं")
        tags = classify_errors("कल", "कल", "ंल", script="devanagari")
        assert ErrorTag.InvalidSequence in tags

    def test_unreadable_wx_prediction_is_an_invalid_sequence(self):
        assert classify_errors("mela", "mela", "meZZ", script="wx") == {
            ErrorTag.InvalidSequence}
        with pytest.raises(UnmappedSymbol):   # the data must be WX
            classify_errors("meZZ", "mela", "mela", script="wx")

    def test_script_mismatch(self):
        with pytest.raises(InvalidArgument):
            classify_errors("abc", "abc", "abd", script="devanagari")
        with pytest.raises(InvalidArgument):
            classify_errors("a", "b", "c", script="latin")
