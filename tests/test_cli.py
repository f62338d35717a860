import contextlib
import dataclasses
import io
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cogtrans import cli
from cogtrans.cli import _config, build_parser, run_cli
from cogtrans.data_io import load_cognate_tsv, parse_config
from cogtrans.devanagari import CharVocab, wx_decode, wx_encode
from cogtrans.embeddings import CharLMConfig
from cogtrans.errors import CogtransError
from cogtrans.metrics import nfc
from cogtrans.models import (ModelConfig, Transduction, transduce_batch,
                             transduce_greedy)
from cogtrans.oov import (
    AlignedSentencePair,
    build_shortlist,
    detect_oov,
    save_pipeline_file,
)
from cogtrans.synthetic import generate_pairs
from cogtrans.training import (
    OptimizerSpec,
    TrainConfig,
    average_checkpoints,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.tsv"
    assert run_cli(["synth-gen", "--seed", "1", "--n", "120",
                    "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("ckpt") / "am.ckpt"
    code = run_cli([
        "train", "--data", str(corpus), "--arch", "am",
        "--hidden-dim", "8", "--embed-dim", "6", "--epochs", "2",
        "--batch-size", "16", "--seed", "0", "--metrics-every", "0",
        "--out", str(out),
    ])
    assert code == 0 and out.exists()
    return out


HINDI = ["कमल", "नमक", "कलम", "मकान", "नाम", "काम", "राम", "दाम"]


def _train_tiny(data, out, *flags):
    assert run_cli(["train", "--data", str(data), "--arch", "am",
                    "--hidden-dim", "8", "--embed-dim", "6", "--epochs", "2",
                    "--metrics-every", "0", "--out", str(out), *flags]) == 0


@pytest.fixture(scope="module")
def devanagari_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("devanagari")
    data = tmp / "hi.tsv"
    data.write_text("".join(f"{w}\t{w}\n" for w in HINDI), encoding="utf-8")
    ckpt = tmp / "dev.ckpt"
    # enough training that the model writes more than EOS
    _train_tiny(data, ckpt, "--script", "devanagari", "--epochs", "20",
                "--lr", "0.01")
    return ckpt


class TestParser:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--data", "x", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2

    def test_bad_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--data", "x", "--arch", "cnn"])
        assert exc.value.code == 2

    def test_module_runs_main(self):
        """``python -m cogtrans.cli`` is the command line itself."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "cogtrans.cli", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        for command in ("train", "transduce", "evaluate", "pretrain-embed",
                        "tune", "oov-correct", "wx", "synth-gen",
                        "error-report"):
            assert command in done.stdout


# (flag, sample value, config class, field it sets, parsed value) for every
# config flag spelling of train and tune, and of pretrain-embed
_RUN_FLAGS = [
    ("--arch", "han", ModelConfig, "architecture", "han"),
    ("--script", "wx", ModelConfig, "script", "wx"),
    ("--cell", "gru", ModelConfig, "cell", "gru"),
    ("--hidden-dim", "12", ModelConfig, "hidden_dim", 12),
    ("--embed-dim", "7", ModelConfig, "embed_dim", 7),
    ("--dropout", "0.25", ModelConfig, "dropout", 0.25),
    ("--num-layers", "3", ModelConfig, "num_layers", 3),
    ("--num-heads", "2", ModelConfig, "num_heads", 2),
    ("--d-model", "16", ModelConfig, "d_model", 16),
    ("--ffn-dim", "40", ModelConfig, "ffn_dim", 40),
    ("--max-decode-len", "9", ModelConfig, "max_decode_len", 9),
    ("--batch-size", "5", TrainConfig, "batch_size", 5),
    ("--epochs", "3", TrainConfig, "max_epochs", 3),
    ("--patience", "2", TrainConfig, "patience", 2),
    ("--l2", "0.125", TrainConfig, "l2", 0.125),
    ("--seed", "4", TrainConfig, "seed", 4),
    ("--val-fraction", "0.2", TrainConfig, "val_fraction", 0.2),
    ("--metrics-every", "0", TrainConfig, "metrics_every", 0),
    ("--optimizer", "sgd", OptimizerSpec, "kind", "sgd"),
    ("--lr", "0.5", OptimizerSpec, "lr", 0.5),
    ("--decay", "0.75", OptimizerSpec, "decay", 0.75),
    ("--momentum", "0.5", OptimizerSpec, "momentum", 0.5),
]
_LM_FLAGS = [
    ("--window", "5", CharLMConfig, "window", 5),
    ("--hidden", "9", CharLMConfig, "hidden", 9),
    ("--dropout", "0.0", CharLMConfig, "dropout", 0.0),
    ("--direction", "bidirectional", CharLMConfig, "direction",
     "bidirectional"),
    ("--embed-dim", "6", CharLMConfig, "embed_dim", 6),
    ("--epochs", "4", CharLMConfig, "max_epochs", 4),
    ("--seed", "3", CharLMConfig, "seed", 3),
]
# the flags of the fields that had none
_NEW_FLAGS = [
    ("train", "--encoder-layers", "2", ModelConfig, "encoder_layers", 2),
    ("tune", "--decoder-layers", "3", ModelConfig, "decoder_layers", 3),
    ("train", "--chunk-size", "4", ModelConfig, "chunk_size", 4),
    ("pretrain-embed", "--lr", "0.01", CharLMConfig, "lr", 0.01),
    ("pretrain-embed", "--batch-size", "8", CharLMConfig, "batch_size", 8),
    ("pretrain-embed", "--patience", "2", CharLMConfig, "patience", 2),
]
_COMMAND_CLASSES = {"train": (ModelConfig, TrainConfig, OptimizerSpec),
                    "tune": (ModelConfig, TrainConfig, OptimizerSpec),
                    "pretrain-embed": (CharLMConfig,)}
_FLAG_SPELLINGS = {"architecture": "--arch", "max_epochs": "--epochs",
                   "kind": "--optimizer"}


def _parse(command, *flags):
    """``command``'s parsed arguments with its required flags filled in."""
    required = {"train": ["--data", "x", "--arch", "am"],
                "tune": ["--data", "x", "--axis", "lr=0.1", "--arch", "am"],
                "pretrain-embed": ["lm", "--corpus", "x", "--out", "y"]}
    return build_parser().parse_args([command, *required[command], *flags])


def _expected(cls, **values):
    """The ``cls`` config with ``values`` set; a ``ModelConfig`` is ``am``
    unless ``values`` names the architecture."""
    base = {"architecture": "am"} if cls is ModelConfig else {}
    return cls(**{**base, **values})


class TestConfigFlags:
    """Every config field is a flag, and each flag spelling sets its field."""

    @pytest.mark.parametrize(
        "command, flag, text, cls, field, value",
        [(cmd, *row) for cmd in ("train", "tune") for row in _RUN_FLAGS]
        + [("pretrain-embed", *row) for row in _LM_FLAGS],
        ids=[f"{cmd}{row[0]}" for cmd in ("train", "tune") for row in _RUN_FLAGS]
        + [f"pretrain-embed{row[0]}" for row in _LM_FLAGS])
    def test_flag_sets_its_field(self, command, flag, text, cls, field, value):
        args = _parse(command, flag, text)
        assert _config(cls, args) == _expected(cls, **{field: value})

    @pytest.mark.parametrize("command", sorted(_COMMAND_CLASSES))
    def test_no_flags_give_dataclass_defaults(self, command):
        args = _parse(command)
        for cls in _COMMAND_CLASSES[command]:
            assert _config(cls, args) == _expected(cls)
        if command != "pretrain-embed":
            assert args.split_seed == 0
            assert _parse(command, "--split-seed", "3").split_seed == 3

    @pytest.mark.parametrize("command, flag, text, cls, field, value",
                             _NEW_FLAGS, ids=[f"{r[0]}{r[1]}" for r in _NEW_FLAGS])
    def test_fields_without_a_flag_before(self, command, flag, text, cls,
                                          field, value):
        args = _parse(command, flag, text)
        assert _config(cls, args) == _expected(cls, **{field: value})

    @pytest.mark.parametrize("command", sorted(_COMMAND_CLASSES))
    def test_help_lists_every_field(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for cls in _COMMAND_CLASSES[command]:
            for f in dataclasses.fields(cls):
                flag = _FLAG_SPELLINGS.get(f.name,
                                           "--" + f.name.replace("_", "-"))
                assert re.search(rf"(?<![\w-]){flag}(?![\w-])", text), flag


class TestSynthGen:
    def test_writes_expected_pairs(self, corpus):
        assert load_cognate_tsv(corpus) == generate_pairs(1, 120)

    def test_prints_count_and_identity_pairs(self, tmp_path, capsys):
        out = tmp_path / "s.tsv"
        assert run_cli(["synth-gen", "--seed", "3", "--n", "200",
                        "--out", str(out)]) == 0
        pairs = generate_pairs(3, 200)
        identity = sum(s == t for s, t in pairs)
        assert capsys.readouterr().out == (
            f"wrote 200 pairs to {out} ({identity} identity)\n")
        assert load_cognate_tsv(out) == pairs

    def test_peak_memory_does_not_grow_with_n(self, tmp_path):
        """Each pair is written as it is drawn: ten times the pairs, no
        more memory (the whole list of 5000 pairs is about 700 KB)."""
        out = str(tmp_path / "s.tsv")
        run_cli(["synth-gen", "--n", "10", "--out", out])   # warm caches
        peaks = []
        for n in (500, 5000):
            tracemalloc.start()
            assert run_cli(["synth-gen", "--n", str(n), "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < peaks[0] + 32 * 1024


class TestWx:
    def test_encode_decode(self, capsys):
        assert run_cli(["wx", "encode", "भेंट"]) == 0
        assert capsys.readouterr().out.strip() == "BeMta"
        assert run_cli(["wx", "decode", "BeMta"]) == 0
        assert capsys.readouterr().out.strip() == "भेंट"

    def test_unmapped_is_error_exit_1(self, capsys):
        assert run_cli(["wx", "encode", "q#"]) == 1
        assert "error" in capsys.readouterr().err


class TestTrainAndFriends:
    def test_checkpoint_loadable(self, checkpoint):
        ckpt = load_checkpoint(checkpoint)
        assert ckpt.model_config.architecture == "am"

    def test_plot_written(self, corpus, tmp_path):
        out = tmp_path / "m.ckpt"
        svg = tmp_path / "loss.svg"
        code = run_cli([
            "train", "--data", str(corpus), "--arch", "seq2seq",
            "--hidden-dim", "8", "--embed-dim", "6", "--epochs", "2",
            "--batch-size", "16", "--metrics-every", "0",
            "--out", str(out), "--plot", str(svg),
        ])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_checkpoint_dir_env(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("COGTRANS_CHECKPOINT_DIR", str(tmp_path))
        code = run_cli([
            "train", "--data", str(corpus), "--arch", "seq2seq",
            "--hidden-dim", "8", "--embed-dim", "6", "--epochs", "1",
            "--batch-size", "16", "--metrics-every", "0",
        ])
        assert code == 0
        assert (tmp_path / "seq2seq.ckpt").exists()

    def test_missing_data_file_exit_1(self, capsys):
        assert run_cli(["train", "--data", "/nonexistent.tsv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_transduce(self, checkpoint, capsys):
        assert run_cli(["transduce", "--model", str(checkpoint),
                        "--word", "yab"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")  # exactly one prediction line

    def test_transduce_attention_rows(self, checkpoint, capsys):
        assert run_cli(["transduce", "--model", str(checkpoint),
                        "--word", "ab", "--attention"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for row in lines[1:]:
            vals = [float(x) for x in row.split("\t")]
            assert sum(vals) == pytest.approx(1.0, abs=1e-3)

    def test_evaluate(self, checkpoint, corpus, tmp_path, capsys):
        report = tmp_path / "report.tsv"
        assert run_cli(["evaluate", "--model", str(checkpoint),
                        "--data", str(corpus),
                        "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "bleu" in out.lower()
        assert report.exists()

    def test_evaluate_checkpoints_of_one_file_name(self, checkpoint, corpus,
                                                   tmp_path, capsys):
        """Three ``am.ckpt`` files in three directories: three columns and
        three reports."""
        paths = []
        for d in "abc":
            (tmp_path / d).mkdir()
            paths += ["--model", str(shutil.copy(checkpoint, tmp_path / d))]
        report = tmp_path / "report.tsv"
        assert run_cli(["evaluate", *paths, "--data", str(corpus),
                        "--report", str(report)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        names = ["am", "am.ckpt", "am.ckpt-2"]
        assert header.split("\t") == ["Metric", *names]
        for name in names:
            assert (tmp_path / f"report-{name}.tsv").exists()

    def test_negative_avg_last_exit_1(self, corpus, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail(
            "trained with a negative --avg-last"))
        out = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(corpus), "--arch", "am",
                        "--avg-last", "-3", "--out", str(out)]) == 1
        assert "--avg-last" in capsys.readouterr().err
        assert not out.exists()

    def test_avg_last_above_epochs_exit_1_before_training(
            self, corpus, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail(
            "trained with an --avg-last above --epochs"))
        out = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(corpus), "--arch", "am",
                        "--epochs", "3", "--avg-last", "5",
                        "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --avg-last 5 is above the run's 3 epochs\n")
        assert not out.exists()

    def test_avg_last_averages_the_epochs_early_stopping_left(
            self, corpus, tmp_path, capsys, monkeypatch):
        train, runs = cli.train, []

        def stopped_after_two(*args):
            result = train(*args)
            result.history = result.history[:2]   # as early stopping does
            runs.append(result)
            return result

        monkeypatch.setattr(cli, "train", stopped_after_two)
        out = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(corpus), "--arch", "am",
                        "--hidden-dim", "8", "--embed-dim", "6",
                        "--metrics-every", "0", "--epochs", "3",
                        "--avg-last", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().err.startswith(
            "warning: early stopping left 2 epochs")
        expected = average_checkpoints(runs[0].history, 2)
        params = load_checkpoint(out).params
        assert all(np.array_equal(params[k], v) for k, v in expected.items())

    def test_evaluate_report_counts_truncated_decodes(self, checkpoint, corpus,
                                                      tmp_path):
        # a copy of the model that never emits EOS: every decode is cut
        ckpt = load_checkpoint(checkpoint)
        params = dict(ckpt.params, b_out=ckpt.params["b_out"].copy())
        params["b_out"][CharVocab.EOS] = -1e3
        endless = tmp_path / "endless.ckpt"
        save_checkpoint(dataclasses.replace(
            ckpt, params=params, model_config=dataclasses.replace(
                ckpt.model_config, max_decode_len=3)), endless)
        report = tmp_path / "report.tsv"
        assert run_cli(["evaluate", "--model", str(checkpoint),
                        "--model", str(endless), "--data", str(corpus),
                        "--report", str(report)]) == 0
        pairs = load_cognate_tsv(corpus)
        model = cli.restore_model(ckpt)
        expected = {"am": sum(transduce_greedy(model, src).truncated
                              for src, _ in pairs),
                    "endless.ckpt": len(pairs)}
        for name, cut in expected.items():
            lines = (tmp_path / f"report-{name}.tsv").read_text(
                encoding="utf-8").splitlines()
            fields = dict(f.split("=", 1) for f in lines[-1].split("\t")[1:])
            assert int(fields["truncated"]) == cut
            assert set(fields) == {"n", "bleu", "ss", "wa", "truncated"}
        assert expected["am"] < len(pairs)

    def test_tune(self, corpus, capsys):
        code = run_cli([
            "tune", "--data", str(corpus), "--arch", "am",
            "--hidden-dim", "8", "--embed-dim", "6", "--epochs", "1",
            "--batch-size", "16", "--metrics-every", "1",
            "--axis", "lr=0.001,0.01",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("0.0") >= 2  # both grid rows present

    def test_train_without_arch_exit_1(self, corpus, capsys):
        assert run_cli(["train", "--data", str(corpus), "--epochs", "1"]) == 1
        assert "architecture" in capsys.readouterr().err

    def test_tune_without_arch_exit_1(self, corpus, capsys):
        assert run_cli(["tune", "--data", str(corpus),
                        "--axis", "lr=0.01"]) == 1
        assert "architecture" in capsys.readouterr().err

    def test_tune_bad_axis_value_exit_1(self, corpus, capsys):
        assert run_cli(["tune", "--data", str(corpus), "--arch", "am",
                        "--axis", "lr=0.01,abc"]) == 1
        err = capsys.readouterr().err
        assert "lr" in err and "'abc'" in err

    @pytest.mark.parametrize("flags", [
        ["--arch", "tn", "--num-heads", "0"],
        ["--arch", "tn", "--num-heads", "-2"],
        ["--arch", "tn", "--d-model", "0"],
        ["--arch", "am", "--embed-dim", "0"],
        ["--arch", "am", "--hidden-dim", "0"],
        ["--arch", "am", "--max-decode-len", "0"],
        ["--arch", "am", "--dropout", "1.0"],
    ])
    def test_bad_model_size_exit_1(self, corpus, capsys, flags):
        assert run_cli(["train", "--data", str(corpus), "--epochs", "1",
                        *flags]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_metrics_every_exit_1(self, corpus, tmp_path, capsys):
        out = tmp_path / "never.ckpt"
        assert run_cli(["train", "--data", str(corpus), "--arch", "am",
                        "--epochs", "1", "--metrics-every", "-1",
                        "--out", str(out)]) == 1
        assert "metrics_every" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_wins_over_flags(self, corpus, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("model.hidden_dim = 4\n", encoding="utf-8")
        out = tmp_path / "m.ckpt"
        assert run_cli([
            "train", "--data", str(corpus), "--config", str(conf),
            "--arch", "am", "--hidden-dim", "8", "--embed-dim", "6",
            "--epochs", "1", "--batch-size", "16", "--metrics-every", "0",
            "--out", str(out),
        ]) == 0
        cfg = load_checkpoint(out).model_config
        assert (cfg.architecture, cfg.hidden_dim, cfg.embed_dim) == ("am", 4, 6)

    def test_config_script_wins_over_flag(self, tmp_path):
        """``model.script`` keeps the rule of every other key: the file's
        ``model.script = devanagari`` wins over ``--script raw``, so the
        model is trained on WX and its checkpoint records the script."""
        data = tmp_path / "hi.tsv"
        data.write_text("".join(f"{w}\t{w}\n" for w in HINDI),
                        encoding="utf-8")
        conf = tmp_path / "run.conf"
        conf.write_text("model.script = devanagari\n", encoding="utf-8")
        out = tmp_path / "m.ckpt"
        assert run_cli([
            "train", "--data", str(data), "--config", str(conf),
            "--script", "raw", "--arch", "am", "--hidden-dim", "4",
            "--embed-dim", "4", "--epochs", "1", "--metrics-every", "0",
            "--out", str(out),
        ]) == 0
        ckpt = load_checkpoint(out)
        assert ckpt.model_config.script == "devanagari"
        symbols = set(ckpt.vocab_symbols) - set(CharVocab.SPECIALS)
        # the vocabulary holds the train and validation words' symbols
        assert symbols and symbols <= set("".join(map(wx_encode, HINDI)))

    @pytest.mark.parametrize("line, key", [
        ("model.hiden_dim = 4", "hiden_dim"),
        ("model.hidden_dim = 4.5", "hidden_dim"),
        ("train.batch_size = many", "batch_size"),
        ("paths.data = corpus.tsv", "paths.data"),
    ])
    def test_bad_config_key_or_value_exit_1(self, corpus, tmp_path, capsys,
                                            line, key):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "never.ckpt"
        assert run_cli(["train", "--data", str(corpus), "--config", str(conf),
                        "--arch", "am", "--epochs", "1",
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err and "Traceback" not in err
        assert not out.exists()

    def test_config_int_widens_to_float(self, corpus, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("model.dropout = 0\noptimizer.lr = 1\n",
                        encoding="utf-8")
        args = build_parser().parse_args(["train", "--data", "x",
                                          "--arch", "am"])
        run_cfg = cli.data_io.load_config(conf)
        assert _config(ModelConfig, args, run_cfg.model).dropout == 0.0
        assert type(_config(OptimizerSpec, args, run_cfg.optimizer).lr) is float

    def test_flags_fill_every_config(self):
        args = build_parser().parse_args([
            "train", "--data", "x", "--optimizer", "sgd", "--lr", "0.5",
            "--l2", "0.25", "--cell", "gru", "--arch", "han"])
        assert _config(OptimizerSpec, args) == OptimizerSpec("sgd", lr=0.5)
        assert _config(TrainConfig, args).l2 == 0.25
        assert _config(ModelConfig, args) == ModelConfig("han", cell="gru")


class TestPretrainEmbed:
    def test_ftavg(self, tmp_path, capsys):
        vec = tmp_path / "vectors.txt"
        vec.write_text("ab 1.0 2.0\nba 3.0 4.0\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab ba ab\n", encoding="utf-8")
        out = tmp_path / "chars.vec"
        assert run_cli(["pretrain-embed", "ftavg", "--corpus", str(corpus),
                        "--vectors", str(vec), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0].split()[1] == "2"  # dim header
        assert any(line.startswith("a ") for line in text.splitlines())

    def test_ftavg_vocabulary_of_nfc_tokens(self, tmp_path, capsys):
        """A token is averaged in its NFC form, so its characters are the
        NFC form's: U+0958 decomposes to U+0915 U+093C."""
        word = "\u0958\u093e"
        vec = tmp_path / "vectors.txt"
        vec.write_text(f"{nfc(word)} 1.0 0.5\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(word + "\n", encoding="utf-8")
        out = tmp_path / "chars.vec"
        assert run_cli(["pretrain-embed", "ftavg", "--corpus", str(corpus),
                        "--vectors", str(vec), "--out", str(out)]) == 0
        rows = [line.split() for line in out.read_text().splitlines()[1:]]
        assert sorted(row[0] for row in rows) == sorted(nfc(word))
        assert all(row[1:] == ["1.0", "0.5"] for row in rows)
        assert "uncovered" not in capsys.readouterr().err

    def test_ftavg_corpus_without_tokens_exit_1(self, tmp_path, capsys):
        vec = tmp_path / "vectors.txt"
        vec.write_text("ab 1.0 2.0\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("   ", encoding="utf-8")
        out = tmp_path / "chars.vec"
        assert run_cli(["pretrain-embed", "ftavg", "--corpus", str(corpus),
                        "--vectors", str(vec), "--out", str(out)]) == 1
        assert "no tokens" in capsys.readouterr().err
        assert not out.exists()

    def test_lm(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab" * 120, encoding="utf-8")
        out = tmp_path / "chars.vec"
        assert run_cli(["pretrain-embed", "lm", "--corpus", str(corpus),
                        "--out", str(out), "--window", "4", "--hidden", "8",
                        "--embed-dim", "6", "--epochs", "2",
                        "--dropout", "0.0"]) == 0
        assert "perplexity" in capsys.readouterr().out
        assert out.exists()

    def test_lm_vectors_of_spaced_corpus_load_in_train(self, corpus,
                                                       tmp_path, capsys):
        """Whitespace gets no vector, so the vector file of an LM trained
        on space-separated words is read back by ``train``."""
        words = tmp_path / "words.txt"
        words.write_text(" ".join(s for s, _ in generate_pairs(3, 60)) + "\n",
                         encoding="utf-8")
        vec = tmp_path / "lm.vec"
        assert run_cli(["pretrain-embed", "lm", "--corpus", str(words),
                        "--out", str(vec), "--window", "4", "--hidden", "8",
                        "--embed-dim", "6", "--epochs", "1"]) == 0
        err = capsys.readouterr().err
        assert "left out whitespace characters: '\\n' ' '" in err
        assert run_cli(["train", "--data", str(corpus), "--arch", "am",
                        "--embed-dim", "6", "--hidden-dim", "8",
                        "--epochs", "1", "--batch-size", "16",
                        "--metrics-every", "0", "--embed-vectors", str(vec),
                        "--out", str(tmp_path / "am.ckpt")]) == 0, \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--embed-dim", "0"], ["--hidden", "0"], ["--epochs", "0"],
        ["--dropout", "1.0"], ["--patience", "-1"]])
    def test_lm_bad_size_exit_1(self, tmp_path, capsys, flags):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab" * 120, encoding="utf-8")
        assert run_cli(["pretrain-embed", "lm", "--corpus", str(corpus),
                        "--out", str(tmp_path / "chars.vec"),
                        "--window", "4", *flags]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "chars.vec").exists()


class TestOovCorrect:
    def test_correct_mode(self, checkpoint, tmp_path, capsys):
        records = [AlignedSentencePair(
            source=["ya", "na"], target=["ya", "na"],
            attention=np.eye(2))]
        tsv, mat = tmp_path / "s.tsv", tmp_path / "s.att"
        save_pipeline_file(records, tsv, mat)
        sl = tmp_path / "mono.txt"
        sl.write_text("na na na\n", encoding="utf-8")
        out = tmp_path / "corrected.tsv"
        code = run_cli(["oov-correct", "--sentences", str(tsv),
                        "--matrices", str(mat), "--model", str(checkpoint),
                        "--shortlist-corpus", str(sl), "--sizes", "1",
                        "--out", str(out)])
        assert code == 0
        assert out.exists() and "\t" in out.read_text()


    # flagged (out-of-shortlist) words: ya, ka, ma at K=1; ya, ka at K=2;
    # ya at K=3 -- most recur across sentences and sizes
    SENTENCES = [["ya", "na", "ka", "ya"], ["ka", "ma", "ya", "na"]]
    MONO = "na na na ma ma ka\n"

    def _pipeline(self, tmp_path):
        records = [AlignedSentencePair(source=s, target=list(s),
                                       attention=np.eye(len(s)))
                   for s in self.SENTENCES]
        tsv, mat = tmp_path / "s.tsv", tmp_path / "s.att"
        save_pipeline_file(records, tsv, mat)
        sl = tmp_path / "mono.txt"
        sl.write_text(self.MONO, encoding="utf-8")
        refs = tmp_path / "refs.txt"
        refs.write_text("".join(" ".join(s) + "\n" for s in self.SENTENCES),
                        encoding="utf-8")
        return ["--sentences", str(tsv), "--matrices", str(mat),
                "--shortlist-corpus", str(sl)], refs

    def test_sizes_not_integers_exit_1(self, checkpoint, tmp_path, capsys):
        args, refs = self._pipeline(tmp_path)
        assert run_cli(["oov-correct", *args, "--model", str(checkpoint),
                        "--sizes", "20,abc", "--references", str(refs)]) == 1
        assert "--sizes" in capsys.readouterr().err

    def test_non_utf8_references_exit_1(self, checkpoint, tmp_path, capsys):
        args, refs = self._pipeline(tmp_path)
        refs.write_bytes(b"ya \xff na\n")
        assert run_cli(["oov-correct", *args, "--model", str(checkpoint),
                        "--sizes", "1,2", "--references", str(refs)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "utf-8" in err

    def test_several_sizes_need_references(self, checkpoint, tmp_path, capsys):
        args, _ = self._pipeline(tmp_path)
        out = tmp_path / "corrected.tsv"
        assert run_cli(["oov-correct", *args, "--model", str(checkpoint),
                        "--sizes", "20,40", "--out", str(out)]) == 1
        assert "--references" in capsys.readouterr().err
        assert not out.exists()

    def test_out_with_references_exit_1(self, tmp_path, capsys):
        """A sweep writes no corrected corpus, so ``--out`` with
        ``--references`` is an error before any input is read: here none
        of the inputs exists."""
        out = tmp_path / "corrected.tsv"
        missing = str(tmp_path / "missing")
        assert run_cli(["oov-correct", "--sentences", missing,
                        "--matrices", missing, "--model", missing,
                        "--shortlist-corpus", missing, "--sizes", "1",
                        "--references", missing, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--out" in err and "--references" in err
        assert not out.exists()

    def test_each_flagged_word_decoded_once_per_command(
            self, checkpoint, tmp_path, monkeypatch, capsys):
        args, refs = self._pipeline(tmp_path)
        calls = Counter()
        batches = []

        def counting(model, words):
            calls.update(words)
            batches.append(len(words))
            return transduce_batch(model, words)

        monkeypatch.setattr(cli, "transduce_batch", counting)
        argv = ["oov-correct", *args, "--model", str(checkpoint),
                "--sizes", "1,2,3", "--references", str(refs)]
        flagged = {s[i] for K in (1, 2, 3)
                   for s in self.SENTENCES
                   for i in detect_oov(s, build_shortlist([self.MONO], K))}
        assert flagged == {"ya", "ka", "ma"}
        assert run_cli(argv) == 0
        assert calls == Counter({w: 1 for w in flagged})
        assert run_cli(argv) == 0
        assert calls == Counter({w: 2 for w in flagged})
        out = tmp_path / "corrected.tsv"
        assert run_cli(["oov-correct", *args, "--model", str(checkpoint),
                        "--sizes", "1", "--out", str(out)]) == 0
        assert calls == Counter({w: 3 for w in flagged})
        assert batches == [len(flagged)] * 3   # one batch per command


class TestModelScript:
    """The script is a model setting: ``train --script`` records it in the
    checkpoint, and ``transduce`` and ``evaluate`` read it from there."""

    def test_transduce_devanagari_model_in_and_out(self, devanagari_checkpoint,
                                                   capsys):
        ckpt = devanagari_checkpoint
        model = restore_model(load_checkpoint(ckpt))
        capsys.readouterr()
        for word in HINDI[:3]:
            assert run_cli(["transduce", "--model", str(ckpt),
                            "--word", word]) == 0
            out = capsys.readouterr().out.splitlines()[0]
            assert out == wx_decode(
                transduce_greedy(model, wx_encode(word)).word)
            assert out and all(0x0900 <= ord(c) <= 0x097F for c in out)

    def test_transduce_unreadable_wx_output_printed_unchanged(
            self, devanagari_checkpoint, monkeypatch, capsys):
        monkeypatch.setattr(cli, "transduce_greedy",
                            lambda model, word: Transduction("kaZ", None))
        assert run_cli(["transduce", "--model", str(devanagari_checkpoint),
                        "--word", "कमल"]) == 0
        out, err = capsys.readouterr()
        assert out == "kaZ\n"
        assert "warning:" in err and "'Z'" in err

    @staticmethod
    def _oov_correct(ckpt, tmp_path, source, target):
        """The corrected target of one sentence whose words all but "और"
        are flagged."""
        records = [AlignedSentencePair(source=source, target=target,
                                       attention=np.eye(len(source)))]
        tsv, mat = tmp_path / "s.tsv", tmp_path / "s.att"
        save_pipeline_file(records, tsv, mat)
        sl = tmp_path / "mono.txt"
        sl.write_text("और और\n", encoding="utf-8")
        out = tmp_path / "corrected.tsv"
        assert run_cli(["oov-correct", "--sentences", str(tsv),
                        "--matrices", str(mat), "--model", str(ckpt),
                        "--shortlist-corpus", str(sl), "--sizes", "1",
                        "--out", str(out)]) == 0
        [line] = out.read_text(encoding="utf-8").splitlines()
        return line.split("\t")[1].split()

    def test_oov_correct_devanagari_model_as_transduce(
            self, devanagari_checkpoint, tmp_path, capsys):
        """Flagged Devanagari words are corrected to what ``transduce``
        prints for them."""
        source = ["कमल", "और", "नमक"]
        corrected = self._oov_correct(devanagari_checkpoint, tmp_path,
                                      source, list(source))
        expected = []
        for word in source:
            if word == "और":
                expected.append(word)
                continue
            assert run_cli(["transduce", "--model", str(devanagari_checkpoint),
                            "--word", word]) == 0
            expected.append(capsys.readouterr().out.splitlines()[-1])
        assert corrected == expected
        assert all(0x0900 <= ord(c) <= 0x097F for c in "".join(corrected))

    def test_oov_correct_keeps_mt_token_without_devanagari_output(
            self, devanagari_checkpoint, tmp_path, monkeypatch):
        """A flagged word the codec cannot encode, an empty output and WX
        the codec cannot read each keep the MT token."""
        outputs = {wx_encode("कमल"): "kaZ", wx_encode("नमक"): "",
                   wx_encode("मकान"): wx_encode("नाम")}
        seen = []

        def fake(model, words):
            seen.extend(words)
            return [Transduction(outputs[w], None) for w in words]

        monkeypatch.setattr(cli, "transduce_batch", fake)
        corrected = self._oov_correct(
            devanagari_checkpoint, tmp_path, ["कमल", "नमक", "मकान", "An"],
            ["t1", "t2", "t3", "t4"])
        assert corrected == ["t1", "t2", "नाम", "t4"]
        assert sorted(seen) == sorted(outputs)

    def test_evaluate_raw_and_wx_checkpoints_in_one_call(self, tmp_path,
                                                         capsys):
        """Both models read the WX file as it is; only the ``wx`` model's
        report has error tags."""
        data = tmp_path / "wx.tsv"
        data.write_text("".join(f"{wx_encode(w)}\t{wx_encode(w)}\n"
                                for w in HINDI), encoding="utf-8")
        raw, wx = tmp_path / "raw.ckpt", tmp_path / "wx.ckpt"
        _train_tiny(data, raw)
        _train_tiny(data, wx, "--script", "wx")
        report = tmp_path / "r.tsv"
        capsys.readouterr()
        assert run_cli(["evaluate", "--model", str(raw), "--model", str(wx),
                        "--data", str(data), "--report", str(report)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "Metric\tam\twx.ckpt"
        rows = {}
        for name in ("am", "wx.ckpt"):
            lines = (tmp_path / f"r-{name}.tsv").read_text(
                encoding="utf-8").splitlines()[1:-1]
            rows[name] = [line.split("\t") for line in lines]
            assert len(rows[name]) == len(HINDI)
        assert not any(row[6] for row in rows["am"])
        # a wrong prediction of a word its gold spells again is tagged
        assert any(row[6] for row in rows["wx.ckpt"])
        for _, gold, pred, *_, tags in rows["wx.ckpt"]:
            assert bool(tags) == (pred != gold)

    def test_tune_script_axis_exit_1(self, corpus, capsys):
        assert run_cli(["tune", "--data", str(corpus), "--arch", "am",
                        "--axis", "script=wx"]) == 1
        assert "script" in capsys.readouterr().err

    def test_embed_vectors_name_uncovered_symbols(self, tmp_path, capsys):
        data = tmp_path / "wx.tsv"
        data.write_text("kamala\tkamala\nnAma\tnAma\nrAma\trAma\n"
                        "xAma\txAma\n", encoding="utf-8")
        vec = tmp_path / "part.vec"
        vec.write_text("k 1 0 0 0 0 0\na 0 1 0 0 0 0\n", encoding="utf-8")
        _train_tiny(data, tmp_path / "m.ckpt", "--embed-vectors", str(vec))
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if "uncovered" in l)
        vocab = set(load_checkpoint(tmp_path / "m.ckpt").vocab_symbols)
        assert set(line.split(": ", 1)[1].split()) == (
            vocab - set(CharVocab.SPECIALS) - {"k", "a"})

    def test_embed_vectors_in_another_script_exit_1(self, tmp_path, capsys):
        """A Devanagari LM's vectors cover none of the WX symbols a
        devanagari model is trained on."""
        text = tmp_path / "hi.txt"
        text.write_text(" ".join(HINDI * 20) + "\n", encoding="utf-8")
        vec = tmp_path / "lm.vec"
        assert run_cli(["pretrain-embed", "lm", "--corpus", str(text),
                        "--out", str(vec), "--window", "4", "--hidden", "8",
                        "--embed-dim", "6", "--epochs", "1"]) == 0
        data = tmp_path / "hi.tsv"
        data.write_text("".join(f"{w}\t{w}\n" for w in HINDI),
                        encoding="utf-8")
        out = tmp_path / "never.ckpt"
        assert run_cli(["train", "--data", str(data), "--arch", "am",
                        "--script", "devanagari", "--embed-dim", "6",
                        "--embed-vectors", str(vec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {vec}: no vector for any" in err
        assert "another script" in err
        assert not out.exists()


class TestContentErrorsNameTheLine:
    """A codec or script error in a file's content names the file and
    line, and exits 1."""

    def test_train_devanagari_unmapped_symbol(self, tmp_path, capsys):
        data = tmp_path / "hi.tsv"
        data.write_text("कमल\tकमल\nकxम\tकम\nनमक\tनमक\nनाम\tनाम\n",
                        encoding="utf-8")
        out = tmp_path / "m.ckpt"
        assert run_cli(["train", "--data", str(data), "--arch", "am",
                        "--script", "devanagari", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: line 2: unmapped symbol 'x' at offset 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_wx_corpus_the_codec_cannot_read(self, tmp_path, capsys, command):
        """A ``wx`` model is trained only on WX that its own ``evaluate``
        can score: an unreadable word is an error before training."""
        data = tmp_path / "wx.tsv"
        data.write_text("kamala\tkamala\nnAma\tnAma\nrAma\tylLa\n"
                        "xAma\txAma\n", encoding="utf-8")
        out = tmp_path / "m.ckpt"
        argv = ([command, "--data", str(data), "--arch", "am", "--script",
                 "wx", "--hidden-dim", "4", "--embed-dim", "4",
                 "--epochs", "1"]
                + (["--out", str(out)] if command == "train"
                   else ["--axis", "hidden_dim=4"]))
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: line 3: unmapped symbol 'L' at offset 2\n")
        assert not out.exists()

    def test_evaluate_wx_model_unmapped_gold(self, devanagari_checkpoint,
                                             tmp_path, capsys):
        ckpt = load_checkpoint(devanagari_checkpoint)
        wx = tmp_path / "wx.ckpt"
        save_checkpoint(dataclasses.replace(
            ckpt, model_config=dataclasses.replace(ckpt.model_config,
                                                   script="wx")), wx)
        data = tmp_path / "gold.tsv"
        data.write_text("kamala\tkamala\nnamaka\tnamak%\n", encoding="utf-8")
        assert run_cli(["evaluate", "--model", str(wx),
                        "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: line 2: unmapped symbol '%' at offset 5\n")

    def test_error_report_gold_not_in_script(self, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        preds.write_text("कमल\tकमल\tकमल\nकमल\tkamal\tकमल\n",
                         encoding="utf-8")
        out = tmp_path / "report.tsv"
        assert run_cli(["error-report", "--predictions", str(preds),
                        "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {preds}: line 2: gold is not in the declared script\n")
        assert not out.exists()


class TestErrorReport:
    def test_wx_report(self, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        preds.write_text("BeMta\tBeta\tBenta\nnadI\tnadI\tnadI\n",
                         encoding="utf-8")
        out = tmp_path / "report.tsv"
        assert run_cli(["error-report", "--predictions", str(preds),
                        "--script", "wx", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "2 records" in text
        assert "Anusvara" in text
        assert out.exists()


# predictions text: lines of mostly three tab-separated fields over the
# letters of the declared script, and in half the files also over the
# characters a reader must get right (Latin that neither script holds, tabs,
# carriage returns, byte-order marks, other whitespace) and any other
_PRED_LETTERS = {"devanagari": "कमलर्ांि", "wx": "kmlraAiMZ"}
_PRED_ODD = (st.sampled_from(["x", "%", " ", "\r", "\ufeff", "\u2028"])
             | st.characters(codec="utf-8"))


@st.composite
def _predictions(draw):
    """(lines, script) of a predictions file."""
    script = draw(st.sampled_from(sorted(_PRED_LETTERS)))
    chars = st.sampled_from(_PRED_LETTERS[script])
    if draw(st.booleans()):
        chars = chars | _PRED_ODD
    field = st.text(chars, max_size=5)
    line = (st.tuples(field, field, field) | st.tuples(field, field, field)
            | st.lists(field, max_size=4)).map("\t".join)
    return draw(st.lists(line, max_size=4)), script


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(file=(["कम\tकम\tक"], "devanagari"))
@example(file=(["kama\tkaZ%\tkama"], "wx"))
@given(file=_predictions())
def test_any_predictions_text_reports_or_names_the_file(tmp_path, file):
    """Any predictions text gives ``error-report`` one record per non-blank
    line (a leading byte-order mark dropped), or ``error:`` naming the file
    and exit code 1."""
    (lines, script), preds = file, tmp_path / "preds.tsv"
    out = tmp_path / "report.tsv"
    preds.write_text("\n".join(lines), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(["error-report", "--predictions", str(preds),
                        "--script", script, "--out", str(out)])
    if code:
        assert code == 1
        assert stderr.getvalue().startswith(f"error: {preds}: ")
        return
    text = preds.read_text(encoding="utf-8")   # newlines as the reader's
    rows = [line.lstrip("\ufeff").split("\t") for line in text.split("\n")
            if line.lstrip("\ufeff").strip()]
    assert stdout.getvalue().startswith(f"wrote {len(rows)} records")
    report = out.read_text(encoding="utf-8").split("\n")
    assert [line.split("\t")[:3] for line in report[1:-2]] == rows


class TestTypedInputErrors:
    """Bad seeds and unreadable text end in ``error:`` and exit code 1."""

    @staticmethod
    def _run(argv, tmp_path, **paths):
        """``run_cli`` on ``argv`` with its {placeholders} filled in; asserts
        exit code 1 and no ``--out`` file."""
        out = tmp_path / "out"
        assert run_cli([a.format(out=out, **paths) for a in argv]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{corpus}", "--arch", "am", "--seed", "-1",
         "--out", "{out}"],
        ["train", "--data", "{corpus}", "--arch", "am", "--split-seed", "-1",
         "--out", "{out}"],
        ["tune", "--data", "{corpus}", "--arch", "am", "--axis", "lr=0.01",
         "--seed", "-1"],
        ["synth-gen", "--n", "5", "--seed", "-1", "--out", "{out}"],
        ["pretrain-embed", "lm", "--corpus", "{corpus}", "--seed", "-1",
         "--out", "{out}"],
    ], ids=["train", "train-split-seed", "tune", "synth-gen", "pretrain-lm"])
    def test_negative_seed_exit_1(self, corpus, tmp_path, capsys, argv):
        self._run(argv, tmp_path, corpus=corpus)
        err = capsys.readouterr().err
        assert "error:" in err and "seed must be >= 0" in err

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{bad}", "--arch", "am", "--out", "{out}"],
        ["train", "--data", "{corpus}", "--config", "{bad}", "--arch", "am",
         "--out", "{out}"],
        ["evaluate", "--data", "{bad}", "--model", "{ckpt}",
         "--report", "{out}"],
        ["pretrain-embed", "lm", "--corpus", "{bad}", "--out", "{out}"],
        ["pretrain-embed", "ftavg", "--corpus", "{corpus}",
         "--vectors", "{bad}", "--out", "{out}"],
        ["pretrain-embed", "ftavg", "--corpus", "{bad}",
         "--vectors", "{vec}", "--out", "{out}"],
        ["error-report", "--predictions", "{bad}", "--out", "{out}"],
    ], ids=["train-data", "train-config", "evaluate-data", "lm-corpus",
            "ftavg-vectors", "ftavg-corpus", "error-report-predictions"])
    def test_non_utf8_text_exit_1(self, corpus, checkpoint, tmp_path, capsys,
                                  argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\u00e9\tcafe\tcafe\n".encode("latin-1"))
        vec = tmp_path / "good.vec"
        vec.write_text("cafe 1.0 2.0\n", encoding="utf-8")
        self._run(argv, tmp_path, bad=bad, corpus=corpus, ckpt=checkpoint,
                  vec=vec)
        err = capsys.readouterr().err
        assert "error:" in err and "utf-8" in err and str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["train", "--lr", "nan"],
        ["train", "--lr", "inf"],
        ["train", "--decay", "nan"],
        ["train", "--decay=-inf"],
        ["train", "--momentum", "nan"],
        ["train", "--momentum", "inf"],
        ["train", "--l2", "nan"],
        ["train", "--l2", "inf"],
        ["train", "--l2=-0.5"],
        ["train", "--config", "{cfg}"],
        ["tune", "--axis", "lr=0.01,nan"],
        ["tune", "--axis", "l2=inf"],
        ["train", "--decay=-1.0"],
        ["train", "--optimizer", "momentum", "--momentum", "1.5"],
        ["train", "--config", "{rho}"],
    ], ids=["lr-nan", "lr-inf", "decay-nan", "decay-neg-inf", "momentum-nan",
            "momentum-inf", "l2-nan", "l2-inf", "l2-negative",
            "config-lr-nan", "axis-lr-nan", "axis-l2-inf", "decay-negative",
            "momentum-above-1", "config-adadelta-decay-above-1"])
    def test_non_finite_hyperparameter_exit_1(self, corpus, tmp_path, capsys,
                                              argv):
        cfg, rho = tmp_path / "run.conf", tmp_path / "rho.conf"
        cfg.write_text("optimizer.lr = nan\n", encoding="utf-8")
        rho.write_text("optimizer.kind = adadelta\noptimizer.decay = 1.5\n",
                       encoding="utf-8")
        out = [] if argv[0] == "tune" else ["--out", "{out}"]
        self._run([*argv, "--data", "{corpus}", "--arch", "am", "--epochs",
                   "1", *out], tmp_path, corpus=corpus, cfg=cfg, rho=rho)
        err = capsys.readouterr().err
        assert "error:" in err and "must be" in err   # not a divergence

    def test_non_utf8_stdin_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(b"kara\xe9\n"), encoding="utf-8"))
        assert run_cli(["wx", "decode"]) == 1
        err = capsys.readouterr().err
        assert "error: standard input:" in err and "utf-8" in err

    @pytest.mark.parametrize("text", ["", "0 32\n"],
                             ids=["empty", "header-only"])
    def test_vector_file_without_vectors_exit_1(self, corpus, tmp_path,
                                                capsys, text):
        vec = tmp_path / "none.vec"
        vec.write_text(text, encoding="utf-8")
        self._run(["train", "--data", "{corpus}", "--arch", "am",
                   "--embed-vectors", "{vec}", "--out", "{out}"],
                  tmp_path, corpus=corpus, vec=vec)
        err = capsys.readouterr().err
        assert "error:" in err and str(vec) in err

    def test_ftavg_without_vectors_exit_1(self, corpus, tmp_path, capsys):
        self._run(["pretrain-embed", "ftavg", "--corpus", "{corpus}",
                   "--out", "{out}"], tmp_path, corpus=corpus)
        err = capsys.readouterr().err
        assert "error:" in err and "--vectors" in err

    def test_empty_evaluate_data_exit_1(self, checkpoint, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        self._run(["evaluate", "--model", "{ckpt}", "--data", "{empty}",
                   "--report", "{out}"], tmp_path, ckpt=checkpoint,
                  empty=empty)
        err = capsys.readouterr().err
        assert "error:" in err and str(empty) in err

    def test_nan_attention_exit_1(self, checkpoint, tmp_path, capsys):
        tsv, mat = tmp_path / "s.tsv", tmp_path / "s.att"
        save_pipeline_file([AlignedSentencePair(
            source=["ya", "na"], target=["ya", "na"],
            attention=np.array([[1.0, 0.0], [np.nan, 1.0]]))], tsv, mat)
        mono = tmp_path / "mono.txt"
        mono.write_text("ya\n", encoding="utf-8")
        self._run(["oov-correct", "--sentences", "{tsv}", "--matrices", "{mat}",
                   "--model", "{ckpt}", "--shortlist-corpus", "{mono}",
                   "--sizes", "1", "--out", "{out}"], tmp_path, tsv=tsv,
                  mat=mat, ckpt=checkpoint, mono=mono)
        assert (f"error: {tsv}: line 1: attention matrix: entry (1, 0) is nan"
                in capsys.readouterr().err)

    def test_non_numeric_vector_exit_1(self, corpus, tmp_path, capsys):
        vec = tmp_path / "bad.vec"
        vec.write_text("ab 1.0 2.0\nba 3.0 four\n", encoding="utf-8")
        self._run(["pretrain-embed", "ftavg", "--corpus", "{corpus}",
                   "--vectors", "{vec}", "--out", "{out}"],
                  tmp_path, corpus=corpus, vec=vec)
        assert f"error: {vec}: line 2:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        (["train", "--data", "{corpus}", "--arch", "am", "--embed-vectors",
          "{bad}", "--out", "{out}"], "ab 1.0 2.0\nba 3.0 four\n"),
        (["evaluate", "--data", "{bad}", "--model", "{ckpt}",
          "--report", "{out}"], "ab\tab\nnotab\n"),
        (["train", "--data", "{corpus}", "--config", "{bad}", "--arch", "am",
          "--out", "{out}"], "model.hidden_dim = 8\nno key here\n"),
        (["error-report", "--predictions", "{bad}", "--out", "{out}"],
         "a\tb\tc\nnotab\n"),
        (["oov-correct", "--sentences", "{bad}", "--matrices", "{mat}",
          "--model", "{ckpt}", "--shortlist-corpus", "{corpus}",
          "--sizes", "1", "--out", "{out}"], "a\tb\nnotab\n"),
    ], ids=["embed-vectors", "evaluate-data", "config", "error-report",
            "oov-sentences"])
    def test_bad_line_names_file_and_line(self, corpus, checkpoint, tmp_path,
                                          capsys, argv, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        mat = tmp_path / "one.att"   # the matrix of line 1's pair only
        save_pipeline_file([AlignedSentencePair(["a"], ["b"], np.ones((1, 1)))],
                           tmp_path / "unused.tsv", mat)
        self._run(argv, tmp_path, bad=bad, corpus=corpus, ckpt=checkpoint,
                  mat=mat)
        assert f"error: {bad}: line 2: " in capsys.readouterr().err


_SECTIONS = {"model": ModelConfig, "train": TrainConfig,
             "optimizer": OptimizerSpec}
_CONFIG_KEYS = st.sampled_from(
    ["model.script", "paths.data", "paths.checkpoints", "model.", "train",
     "optimizer.kind.x", "model.hidden_dim.", " train.seed"]
    + [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
       for f in dataclasses.fields(cls)])
_CONFIG_VALUES = (
    st.integers(-3, 300).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.sampled_from(["true", "False", "lstm", "gru", "am", "tn", "han",
                       "seq2seq", "adam", "SGD+Nesterov", "raw", "wx",
                       "devanagari", "", "1e400", "0x10", "1_0"])
    | st.text(max_size=8))
_KEY_VALUE_LINES = st.tuples(_CONFIG_KEYS, _CONFIG_VALUES).map(" = ".join)
# mostly key = value lines, so that many drawn files parse
_CONFIG_LINES = st.one_of(_KEY_VALUE_LINES, _KEY_VALUE_LINES, _KEY_VALUE_LINES,
                          st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@example(lines=["paths.data = corpus.tsv"], arch_flag=True)
@given(lines=st.lists(_CONFIG_LINES, max_size=5), arch_flag=st.booleans())
def test_config_file_gives_typed_configs_or_typed_errors(lines, arch_flag):
    """Any config-file text, through ``parse_config``, ``_config`` and the
    checks, gives configs whose fields hold values of their types (from
    keys that name a section's field), or a ``CogtransError``."""
    argv = ["train", "--data", "x"] + (["--arch", "am"] if arch_flag else [])
    args = build_parser().parse_args(argv)
    text = "\n".join(lines)
    try:
        run_cfg = parse_config(text)
    except CogtransError:
        return
    for line in text.splitlines():   # each key is in a section
        line = line.split("#", 1)[0].strip()
        if line:
            key = line.split("=", 1)[0].strip()
            assert key.split(".", 1)[0] in _SECTIONS
    for section, cls in _SECTIONS.items():
        try:
            cfg = _config(cls, args, getattr(run_cfg, section))
            cfg = cfg.normalized() if cls is OptimizerSpec else cfg.validate()
        except CogtransError:
            continue
        for f in dataclasses.fields(cls):
            value = getattr(cfg, f.name)
            assert type(value) is f.type or (value is None
                                             and f.default is None)
