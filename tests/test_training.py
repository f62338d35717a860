import dataclasses
import hashlib
import json
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cogtrans import tensor as T, training
from cogtrans.cli import run_cli
from cogtrans.data_io import DatasetSplit
from cogtrans.embeddings import CharLM, CharLMConfig, train_char_lm
from cogtrans.errors import (
    ChecksumError,
    CogtransError,
    DivergedError,
    EmptyInput,
    IncompatibleCheckpoint,
    InvalidArgument,
    MissingGrad,
)
from cogtrans.models import ModelConfig, TransductionModel, transduce_greedy
from cogtrans.training import (
    ADAGRAD_EPS,
    ADADELTA_EPS,
    ADADELTA_RHO,
    CHECKPOINT_FORMAT,
    CHECKPOINT_MAGIC,
    RMSPROP_EPS,
    RMSPROP_RHO,
    Checkpoint,
    Optimizer,
    OptimizerSpec,
    TrainConfig,
    TrainResult,
    _header_dict,
    average_checkpoints,
    grid_search,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)


def _param(value, grad):
    t = T.Tensor(np.array([value]), requires_grad=True)
    t.grad = np.array([grad])
    return t


def _step(kind, value, grad, **kw):
    p = _param(value, grad)
    Optimizer(OptimizerSpec(kind, **kw)).step({"p": p})
    return p.data[0]


class TestOptimizerFirstSteps:
    def test_sgd(self):
        assert _step("sgd", 1.0, 0.5, lr=0.1) == pytest.approx(0.95)

    def test_momentum_first_step_is_plain_sgd(self):
        assert _step("momentum", 1.0, 0.5, lr=0.1, momentum=0.9) == \
            pytest.approx(0.95)

    def test_nesterov(self):
        # v1 = -lr g; theta += mu v1 - lr g = -(1+mu) lr g
        assert _step("nesterov", 1.0, 0.5, lr=0.1, momentum=0.9) == \
            pytest.approx(1.0 - 1.9 * 0.1 * 0.5)

    def test_adam_unit_gradient(self):
        moved = _step("adam", 0.0, 1.0, lr=1e-3)
        assert abs(moved - (-1e-3)) < 1e-9

    def test_rmsprop(self):
        g = 0.5
        expect = -0.1 * g / (math.sqrt((1 - RMSPROP_RHO) * g * g) + RMSPROP_EPS)
        assert _step("rmsprop", 0.0, g, lr=0.1) == pytest.approx(expect)

    def test_adagrad(self):
        g = 0.5
        expect = -0.1 * g / (math.sqrt(g * g) + ADAGRAD_EPS)
        assert _step("adagrad", 0.0, g, lr=0.1) == pytest.approx(expect)

    def test_adadelta(self):
        g = 0.5
        a = (1 - ADADELTA_RHO) * g * g
        expect = -math.sqrt(ADADELTA_EPS) / math.sqrt(a + ADADELTA_EPS) * g
        assert _step("adadelta", 0.0, g, lr=1.0) == pytest.approx(expect)

    def test_aliases(self):
        assert OptimizerSpec("SGD+momentum").normalized().kind == "momentum"
        assert OptimizerSpec("Adam").normalized().kind == "adam"

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgument):
            OptimizerSpec("adamw").normalized()

    @pytest.mark.parametrize("spec,ok", [
        (OptimizerSpec("sgd", decay=1.0), True),
        (OptimizerSpec("adam", decay=0.0), False),
        (OptimizerSpec("adadelta", decay=0.0), True),
        (OptimizerSpec("adadelta", decay=1.0), False),
        (OptimizerSpec("momentum", momentum=0.0), True),
        (OptimizerSpec("nesterov", momentum=1.0), False),
    ], ids=["lr-factor-1", "lr-factor-0", "rho-0", "rho-1", "momentum-0",
            "momentum-1"])
    def test_rate_ranges(self, spec, ok):
        if ok:
            spec.normalized()
        else:
            with pytest.raises(InvalidArgument, match="must be in"):
                spec.normalized()

    def test_missing_grad(self):
        p = T.Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(MissingGrad):
            Optimizer(OptimizerSpec("sgd")).step({"p": p})

    def test_l2_adds_to_gradient(self):
        p = _param(2.0, 0.0)
        Optimizer(OptimizerSpec("sgd", lr=0.1)).step({"p": p}, l2=0.5)
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_state_shapes_mirror_params(self):
        r = np.random.default_rng(0)
        params = {
            "a": T.Tensor(r.normal(size=(3, 4)), requires_grad=True),
            "b": T.Tensor(r.normal(size=5), requires_grad=True),
        }
        opt = Optimizer(OptimizerSpec("adam"))
        for _ in range(3):
            for t in params.values():
                t.grad = np.ones_like(t.data)
            opt.step(params)
        for name, t in params.items():
            for buf in opt.state[name].values():
                assert buf.shape == t.data.shape

    def test_lr_decay_per_epoch(self):
        opt = Optimizer(OptimizerSpec("sgd", lr=0.1, decay=0.5))
        assert opt.effective_lr(0) == 0.1
        assert opt.effective_lr(2) == pytest.approx(0.025)


def _toy_split(n=60, seed=0):
    r = np.random.default_rng(seed)
    words = ["".join(r.choice(list("abcd"), size=r.integers(2, 5)))
             for _ in range(n)]
    pairs = [(w, w) for w in words]
    cut = int(n * 0.8)
    return DatasetSplit(train=pairs[:cut], validation=pairs[cut:], test=[])


def _small_cfgs(max_epochs=3, **train_kw):
    mc = ModelConfig(architecture="am", hidden_dim=8, embed_dim=6,
                     max_decode_len=8)
    tc = TrainConfig(batch_size=16, max_epochs=max_epochs, seed=1,
                     metrics_every=0, **train_kw)
    return mc, tc


class TestTrain:
    def test_empty_train_set(self):
        mc, tc = _small_cfgs()
        with pytest.raises(EmptyInput):
            train(mc, tc, OptimizerSpec("adam"),
                  DatasetSplit(train=[], validation=[], test=[]))

    def test_history_and_best(self):
        mc, tc = _small_cfgs(max_epochs=4)
        res = train(mc, tc, OptimizerSpec("adam", lr=2e-3), _toy_split())
        assert len(res.history) == 4
        assert res.best.val_loss == min(c.val_loss for c in res.history)
        assert res.history[0].epoch == 0

    def test_patience_zero_stops_at_first_non_improvement(self):
        mc, tc = _small_cfgs(max_epochs=40, patience=0)
        # a huge lr makes progress erratic, forcing an early non-improvement
        res = train(mc, tc, OptimizerSpec("sgd", lr=5.0), _toy_split())
        losses = [c.val_loss for c in res.history]
        if len(losses) < 40:
            best = losses[0]
            stops = 0
            for v in losses[1:]:
                if v < best:
                    best = v
                else:
                    stops += 1
            assert losses[-1] >= min(losses[:-1])

    def test_divergence_reported_with_epoch(self):
        from cogtrans.devanagari import build_vocab

        split = _toy_split()
        vocab = build_vocab(split.train)
        table = np.zeros((len(vocab), 6))
        table[5, 0] = np.nan
        mc, tc = _small_cfgs(max_epochs=5)
        with pytest.raises(DivergedError) as exc:
            train(mc, tc, OptimizerSpec("adam"), split,
                  embedding=table, vocab=vocab)
        assert exc.value.epoch == 0

    def test_identical_seeds_identical_loss_curves(self):
        mc, tc = _small_cfgs(max_epochs=3)
        r1 = train(mc, tc, OptimizerSpec("adam"), _toy_split())
        r2 = train(mc, tc, OptimizerSpec("adam"), _toy_split())
        assert [c.train_loss for c in r1.history] == \
            [c.train_loss for c in r2.history]
        assert [c.val_loss for c in r1.history] == \
            [c.val_loss for c in r2.history]


@pytest.mark.parametrize("loop", ["train", "train_char_lm"])
def test_batch_tape_freed_before_next_forward(monkeypatch, loop):
    """No batch's graph or loss is still alive when the next forward pass
    (training or held-out) starts."""
    backward = T.backward
    tapes, live = [], []

    def recording_backward(graph, loss):
        tapes.append((weakref.ref(graph), weakref.ref(loss.data)))
        backward(graph, loss)

    def watched(forward):
        def forward_after_check(*args, **kwargs):
            live.append(sum(ref() is not None for pair in tapes for ref in pair))
            return forward(*args, **kwargs)
        return forward_after_check

    monkeypatch.setattr(T, "backward", recording_backward)
    if loop == "train":
        monkeypatch.setattr(TransductionModel, "loss_words",
                            watched(TransductionModel.loss_words))
        mc, tc = _small_cfgs(max_epochs=1)
        train(mc, tc, OptimizerSpec("adam"), _toy_split())
    else:
        monkeypatch.setattr(CharLM, "loss_batch", watched(CharLM.loss_batch))
        train_char_lm("ab" * 60, CharLMConfig(window=4, hidden=4, embed_dim=3,
                                              batch_size=16, max_epochs=1))
    assert len(live) >= len(tapes) > 1
    assert not any(live)


class TestAverageCheckpoints:
    def _ckpt(self, value, epoch=0):
        return Checkpoint(params={"w": np.full((2, 2), float(value))},
                          epoch=epoch, train_loss=0.0, val_loss=0.0)

    def test_last_only(self):
        hist = [self._ckpt(0), self._ckpt(2)]
        assert np.array_equal(average_checkpoints(hist, 1)["w"],
                              np.full((2, 2), 2.0))

    def test_pairwise_mean(self):
        hist = [self._ckpt(0), self._ckpt(2)]
        assert np.array_equal(average_checkpoints(hist, 2)["w"],
                              np.full((2, 2), 1.0))

    def test_mean_of_last_six(self):
        hist = [self._ckpt(i) for i in range(10)]
        expect = np.mean([float(i) for i in range(4, 10)])
        got = average_checkpoints(hist, 6)["w"]
        assert np.allclose(got, expect, atol=1e-12)

    def test_permutation_invariance_and_idempotence(self):
        hist = [self._ckpt(5), self._ckpt(1), self._ckpt(3)]
        fwd = average_checkpoints(hist, 3)["w"]
        rev = average_checkpoints(hist[::-1], 3)["w"]
        assert np.array_equal(fwd, rev)
        same = [self._ckpt(7)] * 4
        assert np.array_equal(average_checkpoints(same, 4)["w"],
                              same[0].params["w"])

    def test_bad_k(self):
        hist = [self._ckpt(0)]
        with pytest.raises(InvalidArgument):
            average_checkpoints(hist, 2)
        with pytest.raises(InvalidArgument):
            average_checkpoints(hist, 0)


class TestCheckpointIO:
    def _trained(self):
        mc, tc = _small_cfgs(max_epochs=2)
        return train(mc, tc, OptimizerSpec("adam"), _toy_split())

    def test_round_trip_byte_identical(self, tmp_path):
        res = self._trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(res.best, path)
        first = path.read_bytes()
        loaded = load_checkpoint(path)
        save_checkpoint(loaded, path)
        assert path.read_bytes() == first
        for name, arr in res.best.params.items():
            assert np.array_equal(loaded.params[name], arr)

    def test_truncation_detected(self, tmp_path):
        res = self._trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(res.best, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_corruption_detected(self, tmp_path):
        res = self._trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(res.best, path)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    @staticmethod
    def _rewrite_header(path, edit):
        """Re-save a checkpoint with an edited header and a valid checksum,
        as an older or foreign writer would have made it.  ``edit`` changes
        the JSON header in place, or returns the raw header bytes."""
        body = path.read_bytes()[:-32]
        off = len(CHECKPOINT_MAGIC)
        (hlen,) = struct.unpack_from("<I", body, off)
        header = json.loads(body[off + 4 : off + 4 + hlen])
        raw = edit(header)
        if raw is None:
            raw = json.dumps(header, sort_keys=True).encode("utf-8")
        blob = (CHECKPOINT_MAGIC + struct.pack("<I", len(raw)) + raw
                + body[off + 4 + hlen :])
        path.write_bytes(blob + hashlib.sha256(blob).digest())

    @pytest.mark.parametrize("fmt", [1, 2])
    def test_old_formats_rejected(self, tmp_path, fmt):
        """Format 1 had two more config fields; formats 1 and 2 kept one
        matrix and one bias per gate."""
        res = self._trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(res.best, path)

        def to_old_format(header):
            header["format"] = fmt
            if fmt == 1:
                header["model_config"].update(beam_width=1, l2=0.0)

        self._rewrite_header(path, to_old_format)
        with pytest.raises(IncompatibleCheckpoint, match=f"format {fmt}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda header: b"\xff" + json.dumps(header).encode("utf-8"),
        lambda header: header.pop("arrays") and None,
        lambda header: header["arrays"][-1].update(shape=[10 ** 6]),
        lambda header: b"[" * 100_000,
        lambda header: header["arrays"][-1].update(shape=[1] * 100),
    ], ids=["header-not-utf8", "no-arrays", "shape-past-payload",
            "header-nested-too-deep", "shape-too-many-dims"])
    def test_malformed_header_is_a_typed_error(self, tmp_path, edit):
        res = self._trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(res.best, path)
        self._rewrite_header(path, edit)
        with pytest.raises((ChecksumError, IncompatibleCheckpoint)):
            load_checkpoint(path)
        assert run_cli(["transduce", "--model", str(path), "--word", "ab"]) == 1

    def test_header_without_script_loads_as_raw(self, tmp_path):
        """A header written before models recorded their script, at the
        same format, loads as a ``raw`` model."""
        best = self._trained().best
        path = tmp_path / "m.ckpt"
        cfg = dataclasses.replace(best.model_config, script="devanagari")
        save_checkpoint(dataclasses.replace(best, model_config=cfg), path)
        assert load_checkpoint(path).model_config.script == "devanagari"
        self._rewrite_header(
            path, lambda header: header["model_config"].pop("script") and None)
        assert load_checkpoint(path).model_config.script == "raw"
        assert CHECKPOINT_FORMAT == 3

    def test_unknown_model_config_key_rejected(self, tmp_path):
        res = self._trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(res.best, path)
        self._rewrite_header(
            path, lambda header: header["model_config"].update(no_such_key=3))
        with pytest.raises(IncompatibleCheckpoint, match="no_such_key"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("hidden_dim", "8"), ("dropout", None), ("architecture", 5),
        ("script", 5)])
    def test_wrong_typed_model_config_value_rejected(self, tmp_path, key,
                                                     value, capsys):
        res = self._trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(res.best, path)
        self._rewrite_header(
            path, lambda header: header["model_config"].update({key: value}))
        with pytest.raises(IncompatibleCheckpoint, match=key):
            load_checkpoint(path)
        assert run_cli(["transduce", "--model", str(path),
                        "--word", "kama"]) == 1
        assert key in capsys.readouterr().err

    def test_restore_model_decodes(self, tmp_path):
        res = self._trained()
        path = tmp_path / "m.ckpt"
        save_checkpoint(res.best, path)
        model = restore_model(load_checkpoint(path))
        out = transduce_greedy(model, "abc")
        assert out.word == transduce_greedy(res.model, "abc").word


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)

_ARRAY_SPECS = st.lists(st.fixed_dictionaries({
    "name": st.text(max_size=3) | _JSON,
    "shape": st.lists(st.integers(-1, 4), max_size=3) | _JSON,
}) | _JSON, max_size=3)


def _valid_checkpoint_parts():
    """The JSON header and the payload of a small valid checkpoint."""
    ckpt = Checkpoint(params={"w": np.arange(6.0).reshape(2, 3),
                              "b": np.ones(2)},
                      epoch=1, train_loss=0.5, val_loss=0.6,
                      model_config=ModelConfig(architecture="am"),
                      vocab_symbols=("a", "b"))
    header = json.loads(json.dumps(_header_dict(ckpt)))
    payload = b"".join(a.astype("<f8").tobytes() for a in ckpt.params.values())
    return header, payload


@st.composite
def _checksum_valid_bodies(draw):
    """Checkpoint bodies with a valid checksum: mostly a valid header with
    keys dropped or replaced (the array list by near-valid specs), else raw
    header bytes; mostly the true header length; the true payload, a slice
    of it, or drawn bytes."""
    header, payload = _valid_checkpoint_parts()
    if draw(st.integers(0, 3)) == 0:
        raw = draw(st.binary(max_size=40))
    else:
        if draw(st.booleans()):
            header["arrays"] = draw(_ARRAY_SPECS)
        for key in draw(st.lists(st.sampled_from(sorted(header)), max_size=2,
                                 unique=True)):
            if draw(st.booleans()):
                del header[key]
            else:
                header[key] = draw(_JSON)
        raw = json.dumps(header).encode("utf-8")
    hlen = len(raw)
    if draw(st.integers(0, 3)) == 0:
        hlen = draw(st.integers(0, 2 ** 32 - 1))
    payload = draw(st.just(payload)
                   | st.builds(payload.__getitem__, st.slices(len(payload)))
                   | st.binary(max_size=40))
    body = CHECKPOINT_MAGIC + struct.pack("<I", hlen) + raw + payload
    return body + hashlib.sha256(body).digest()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=_checksum_valid_bodies())
def test_checksum_valid_body_loads_or_raises_typed_error(tmp_path, blob):
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except CogtransError:
        pass


class TestGridSearch:
    def test_single_point_matches_direct_run(self):
        mc, tc = _small_cfgs(max_epochs=2)
        tc = dataclasses.replace(tc, metrics_every=1)
        rows, skipped = grid_search({"lr": [1e-3]}, mc, tc,
                                    OptimizerSpec("adam"), _toy_split(),
                                    base_seed=3)
        assert len(rows) == 1 and not skipped
        assert {"lr", "bleu", "ss", "wa", "ep"} <= set(rows[0])

    def test_axis_cardinality(self):
        mc, tc = _small_cfgs(max_epochs=1)
        rows, _ = grid_search({"batch_size": [1, 4, 8, 16, 20]}, mc, tc,
                              OptimizerSpec("adam"), _toy_split(n=24))
        assert len(rows) == 5

    def test_invalid_combination_skipped_with_reason(self):
        mc, tc = _small_cfgs(max_epochs=1)
        mc = dataclasses.replace(mc, architecture="tn", d_model=8,
                                 num_heads=2, ffn_dim=8, num_layers=1)
        rows, skipped = grid_search({"num_heads": [2, 3]}, mc, tc,
                                    OptimizerSpec("adam"), _toy_split(n=24))
        assert len(rows) == 1
        assert len(skipped) == 1 and "reason" in skipped[0]

    def test_out_of_range_rate_skipped_with_reason(self):
        mc, tc = _small_cfgs(max_epochs=1)
        rows, skipped = grid_search({"decay": [0.5, 1.5]}, mc, tc,
                                    OptimizerSpec("sgd"), _toy_split(n=24))
        assert [row["decay"] for row in rows] == [0.5]
        assert skipped == [{"decay": 1.5,
                            "reason": "decay must be in (0, 1], got 1.5"}]

    def test_empty_space_rejected(self):
        mc, tc = _small_cfgs()
        with pytest.raises(InvalidArgument):
            grid_search({}, mc, tc, OptimizerSpec("adam"), _toy_split())
        with pytest.raises(InvalidArgument):
            grid_search({"lr": []}, mc, tc, OptimizerSpec("adam"),
                        _toy_split())

    def test_unknown_axis_rejected(self):
        mc, tc = _small_cfgs()
        with pytest.raises(InvalidArgument):
            grid_search({"warp": [1]}, mc, tc, OptimizerSpec("adam"),
                        _toy_split())

    @staticmethod
    def _seeds_run(space, monkeypatch, base_seed=0):
        """The train seeds ``grid_search`` runs over ``space``, with
        ``train`` stubbed to record them."""
        seeds = []

        def fake_train(mc, tc, op, data):
            seeds.append(tc.seed)
            best = Checkpoint(params={}, epoch=0, train_loss=0.0,
                              val_loss=0.0)
            return TrainResult([best], best, None)

        monkeypatch.setattr(training, "train", fake_train)
        mc, tc = _small_cfgs()
        rows, _ = grid_search(space, mc, tc, OptimizerSpec("adam"),
                              _toy_split(), base_seed=base_seed)
        return seeds, rows

    def test_seed_axis_runs_its_seeds(self, monkeypatch):
        seeds, rows = self._seeds_run({"seed": [5, 9], "lr": [1e-3]},
                                      monkeypatch, base_seed=2)
        assert seeds == [5, 9]
        assert [row["seed"] for row in rows] == [5, 9]

    def test_seeds_derived_without_seed_axis(self, monkeypatch):
        seeds, _ = self._seeds_run({"lr": [1e-3, 1e-2]}, monkeypatch,
                                   base_seed=2)
        assert seeds == [2 * 100003, 2 * 100003 + 1]
