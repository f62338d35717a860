"""The benchmark's span tracer (``bench/tracer.py``) wraps cogtrans layer
functions by name from outside the package.  A refactor that moves a call
off one of those names silently drops its spans; these tests catch that
with traced ``cogtrans transduce`` and ``cogtrans evaluate`` runs on tiny
checkpoints of all four architectures.
"""

import importlib.util
import os

import pytest

import cogtrans
from cogtrans import models, tensor as T
from cogtrans.cli import run_cli
from cogtrans.data_io import load_cognate_tsv
from cogtrans.devanagari import build_vocab
from cogtrans.synthetic import generate_pairs

_TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")

_TINY = {"tn": ["--d-model", "8", "--num-heads", "2", "--ffn-dim", "12",
                "--num-layers", "1"]}
_TINY_RECURRENT = ["--hidden-dim", "6", "--embed-dim", "5"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, arch, commands):
    """Train a tiny ``arch`` checkpoint on 40 words, then trace the
    ``cogtrans`` commands that ``commands(checkpoint, corpus)`` lists;
    returns the tracer module and the tracer."""
    corpus = tmp_path / "corpus.tsv"
    ckpt = tmp_path / f"{arch}.ckpt"
    assert run_cli(["synth-gen", "--seed", "2", "--n", "40",
                    "--out", str(corpus)]) == 0
    assert run_cli(["train", "--data", str(corpus), "--arch", arch,
                    *_TINY.get(arch, _TINY_RECURRENT), "--epochs", "1",
                    "--batch-size", "16", "--metrics-every", "0",
                    "--max-decode-len", "6", "--out", str(ckpt)]) == 0

    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install(cogtrans)
    try:
        tracer.scope = arch
        tracer.enabled = True
        for argv in commands(str(ckpt), str(corpus)):   # as the bench calls
            assert cogtrans.cli.run_cli(argv) == 0
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert cogtrans.cli.transduce_greedy is models.transduce_greedy
    assert cogtrans.cli.transduce_batch is models.transduce_batch
    return tracer_mod, tracer


def _traced_transduce(tmp_path, arch):
    """``cogtrans transduce`` on each of the 40 words, one call per word."""
    return _traced(tmp_path, arch, lambda ckpt, corpus: [
        ["transduce", "--model", ckpt, "--word", src]
        for src, _ in load_cognate_tsv(corpus)])


@pytest.mark.parametrize("arch", ["seq2seq", "am", "han"])
def test_traced_evaluate_reaches_every_decode_layer(tmp_path, arch):
    tracer_mod, tracer = _traced_transduce(tmp_path, arch)
    name, phase = tracer_mod.NAME, tracer_mod.PHASE
    in_transduce = {rec[name] for rec in tracer.spans
                    if rec[phase] == "models.transduce"}
    assert {"models.transduce", "models.decode_step", "models.encode",
            "cells.step"} <= in_transduce
    words = sum(rec[name] == "models.transduce" for rec in tracer.spans)
    assert words == 40
    counts = tracer.counts()
    assert counts[f"models.encode.{arch}"] == words
    assert counts[f"models.decode_step.{arch}"] >= words


def test_traced_tn_evaluate_encodes_each_word_once(tmp_path):
    tracer_mod, tracer = _traced_transduce(tmp_path, "tn")
    name, phase = tracer_mod.NAME, tracer_mod.PHASE
    words = sum(rec[name] == "models.transduce" for rec in tracer.spans)
    assert words == 40
    counts = tracer.counts()
    assert counts["models.encode.tn"] == words
    steps = sum(rec[name] == "models.tn_forward"
                and rec[phase] == "models.transduce" for rec in tracer.spans)
    assert steps >= words
    assert counts["models.tn_forward.tn"] == steps


@pytest.mark.parametrize("arch", ["seq2seq", "am", "han", "tn"])
def test_traced_evaluate_decodes_in_batches(tmp_path, arch):
    """``cogtrans evaluate`` encodes its 40 words once per batch of up to
    ``DECODE_BATCH`` words, and steps each batch's decoder below the
    ``cli.evaluate`` span."""
    batches = -(-40 // models.DECODE_BATCH)
    tracer_mod, tracer = _traced(tmp_path, arch, lambda ckpt, corpus: [
        ["evaluate", "--model", ckpt, "--data", corpus]])
    name, root = tracer_mod.NAME, tracer_mod.ROOT
    counts = tracer.counts()
    assert counts[f"models.encode.{arch}"] == batches
    assert not any(rec[name] == "models.transduce" for rec in tracer.spans)
    step = "models.tn_forward" if arch == "tn" else "models.decode_step"
    steps = [rec for rec in tracer.spans if rec[name] == step]
    # lockstep: one step per decoder position, at most --max-decode-len
    assert batches <= len(steps) <= 6 * batches
    assert all(tracer.spans[rec[root]][name] == "cli.evaluate"
               for rec in steps)


def _traced_training_batch(cfg):
    """Tape one training batch of a tiny model under the tracer; returns
    the tracer module, the tracer and the batch's graph."""
    pairs = generate_pairs(2, 16)
    model = models.build_model(cfg, build_vocab(pairs), seed=0)
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install(cogtrans)
    try:
        tracer.scope = cfg.architecture
        tracer.enabled = True
        with T.Graph() as graph:
            T.backward(graph, model.loss_words(pairs))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert len(graph.nodes) > 0
    return tracer_mod, tracer, graph


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_traced_training_batch_counts_every_tape_node(cell):
    """The tracer counts tape nodes through its patch of ``tensor._make``;
    an op that built nodes through another reference to ``_make`` would be
    missed here.  Both cell kinds, so both state layouts ([h | c] and h)."""
    tracer_mod, tracer, graph = _traced_training_batch(
        models.ModelConfig(architecture="am", cell=cell, hidden_dim=6,
                           embed_dim=5))
    assert tracer.counts()["tape_nodes.am"] == len(graph.nodes)
    # ops the tracer does not name count as "other": the encoder's two
    # sequence nodes and the one decoder node of every step and layer
    assert tracer.ops[("am", "other")][tracer_mod.TAPE] == 3


def test_traced_tn_training_batch_counts_every_tape_node():
    """The same for ``tn``, whose attention blocks are fused nodes."""
    tracer_mod, tracer, graph = _traced_training_batch(
        models.ModelConfig(architecture="tn", d_model=8, num_heads=2,
                           ffn_dim=12, num_layers=1))
    assert tracer.counts()["tape_nodes.tn"] == len(graph.nodes)
    assert any(rec[tracer_mod.NAME] == "models.attention"
               for rec in tracer.spans)
