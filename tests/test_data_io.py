import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cogtrans.cli import build_parser
from cogtrans.data_io import (
    load_cognate_tsv,
    load_config,
    parse_config,
    save_cognate_tsv,
    split_dataset,
)
from cogtrans.errors import (CogtransError, EmptyInput, InvalidArgument,
                             ParseError)
from cogtrans.models import ModelConfig
from cogtrans.oov import load_pipeline_file


class TestCognateTsv:
    def test_round_trip(self, tmp_path):
        pairs = [("भेंट", "भेट"), ("नदी", "नदी"), ("भेंट", "भेट")]
        path = tmp_path / "c.tsv"
        save_cognate_tsv(pairs, path)
        assert load_cognate_tsv(path) == pairs  # duplicates kept

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\n\n  \nc\td\n", encoding="utf-8")
        assert load_cognate_tsv(path) == [("a", "b"), ("c", "d")]

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\nbad line\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_cognate_tsv(path)
        assert exc.value.line_no == 2
        assert str(exc.value).startswith(f"{path}: line 2: ")

    def test_empty_field_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\t\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_cognate_tsv(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_no_pairs_is_empty_input(self, tmp_path, text):
        path = tmp_path / "c.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmptyInput) as exc:
            load_cognate_tsv(path)
        assert str(path) in str(exc.value)

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("\ufeffa\tb\nc\td\n", encoding="utf-8")
        assert load_cognate_tsv(path) == [("a", "b"), ("c", "d")]

    def test_normalization_unifies_qa_forms(self, tmp_path):
        import unicodedata
        path = tmp_path / "c.tsv"
        path.write_text("\u0958\tx\n", encoding="utf-8")  # precomposed qa
        (src, _), = load_cognate_tsv(path)
        assert src == unicodedata.normalize("NFC", "\u0958")


class TestSplit:
    def test_canonical_sizes(self):
        pairs = [(str(i), str(i)) for i in range(4220)]
        split = split_dataset(pairs, seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == \
            (2849, 316, 1055)

    def test_partition_no_loss_no_overlap(self):
        pairs = [(str(i), str(i)) for i in range(101)]
        split = split_dataset(pairs, seed=3)
        merged = split.train + split.validation + split.test
        assert sorted(merged) == sorted(pairs)

    def test_deterministic_per_seed(self):
        pairs = [(str(i), str(i)) for i in range(50)]
        assert split_dataset(pairs, 1).train == split_dataset(pairs, 1).train
        assert split_dataset(pairs, 1).train != split_dataset(pairs, 2).train

    def test_too_small(self):
        with pytest.raises(InvalidArgument):
            split_dataset([("a", "b")] * 3)


class TestConfig:
    TEXT = """
# run setup
model.script = wx
model.architecture = am
model.hidden_dim = 64
train.batch_size = 20
train.val_fraction = 0.1
optimizer.kind = adam
optimizer.lr = 1e-3
"""

    def test_sections_and_coercion(self):
        cfg = parse_config(self.TEXT)
        assert cfg.model == {"script": "wx", "architecture": "am",
                             "hidden_dim": 64}
        assert cfg.train["batch_size"] == 20
        assert cfg.train["val_fraction"] == 0.1
        assert cfg.optimizer == {"kind": "adam", "lr": 1e-3}

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("decoder.size = 4")
        with pytest.raises(ParseError):
            parse_config("paths.data = corpus.tsv")
        with pytest.raises(ParseError):   # now ``model.script``
            parse_config("script = wx")

    def test_missing_equals(self):
        with pytest.raises(ParseError) as exc:
            parse_config("just some words")
        assert exc.value.line_no == 1

    def test_bad_script(self):
        model = parse_config("model.script = latin").model
        with pytest.raises(InvalidArgument, match="script"):
            ModelConfig(architecture="am", **model).validate()

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.TEXT, encoding="utf-8")
        assert load_config(path).model["architecture"] == "am"

    def test_load_config_bad_line_names_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.hidden_dim = 4\nno key here\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="^" + re.escape(
                f"{path}: line 2: expected key=value")):
            load_config(path)

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\ufeffmodel.hidden_dim = 4\n", encoding="utf-8")
        assert load_config(path).model == {"hidden_dim": 4}


# text that is mostly tab-separated lines, with the characters a reader must
# get right: tabs, blank and space-only fields, carriage returns, byte-order
# marks, combining marks and other whitespace
_CHAR = st.characters(codec="utf-8")   # what a UTF-8 file can hold
_FIELD = st.text(st.sampled_from("ab \u0301\u0915\u093c\u0958\r\ufeff\x1c\u2028")
                 | _CHAR, max_size=4)
_TSV_LINE = st.lists(_FIELD, min_size=1, max_size=3).map("\t".join)
_TSV_TEXT = (st.lists(_TSV_LINE, max_size=5).map("\n".join)
             | st.text(_CHAR, max_size=20))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(text="\n\ufeffa\tb")   # a source word that starts with a BOM
@given(text=_TSV_TEXT)
def test_any_tsv_text_round_trips_or_names_the_file(tmp_path, text):
    """Any text is either pairs that ``save_cognate_tsv`` writes back to
    the same pairs, or a ``CogtransError`` naming the file."""
    path = tmp_path / "c.tsv"
    path.write_text(text, encoding="utf-8")
    try:
        pairs = load_cognate_tsv(path)
    except CogtransError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    again = tmp_path / "again.tsv"
    save_cognate_tsv(pairs, again)
    assert load_cognate_tsv(again) == pairs


def _read_pipeline(path):
    """The pipeline records of ``path`` as (source, target) text, read with
    a sidecar of two 1x1 matrices."""
    mat = path.with_suffix(".att")
    one = struct.pack("<II", 1, 1) + np.ones(1, dtype="<f8").tobytes()
    mat.write_bytes(one * 2)
    return [(" ".join(r.source), " ".join(r.target))
            for r in load_pipeline_file(path, mat)]


def _read_predictions(path):
    """The (source, gold, prediction) records ``error-report`` writes for
    the predictions file ``path``."""
    out = path.with_suffix(".report")
    args = build_parser().parse_args(["error-report", "--predictions",
                                      str(path), "--out", str(out)])
    args.func(args)
    lines = out.read_text(encoding="utf-8").splitlines()[1:-1]
    return [tuple(line.split("\t")[:3]) for line in lines]


# reader -> (its fields, its read function)
_TSV_READERS = {
    "cognate": (("source", "target"), load_cognate_tsv),
    "pipeline": (("source tokens", "target tokens"), _read_pipeline),
    "predictions": (("source", "gold", "prediction"), _read_predictions),
}


@pytest.mark.parametrize("reader", sorted(_TSV_READERS))
def test_tsv_readers_share_the_line_rules(tmp_path, capsys, reader):
    """The three tab-separated readers skip blank lines, drop a byte-order
    mark that starts a line, and reject a line of another field count,
    quoting it, with the file and line named."""
    names, read = _TSV_READERS[reader]
    row = tuple("कमल"[:len(names)])
    path = tmp_path / "rows.tsv"
    line = "\t".join(row)
    path.write_text(f"\ufeff{line}\n\n \t \n\ufeff{line}\n",
                    encoding="utf-8")
    assert read(path) == [row, row]
    bad = line + "\tम"
    path.write_text(f"{line}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read(path)
    assert str(exc.value) == (f"{path}: line 3: expected "
                              f"{'<TAB>'.join(names)!r}, got {bad!r}")
