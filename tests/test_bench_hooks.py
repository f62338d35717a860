"""The benchmark's span tracer (``bench/tracer.py``) wraps cogtrans layer
functions by name from outside the package.  A refactor that moves a call
off one of those names silently drops its spans; this test catches that
with a traced ``cogtrans evaluate`` on a tiny ``am`` checkpoint.
"""

import importlib.util
import os

import cogtrans
from cogtrans import models
from cogtrans.cli import run_cli

_TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_evaluate_reaches_every_decode_layer(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    ckpt = tmp_path / "am.ckpt"
    assert run_cli(["synth-gen", "--seed", "2", "--n", "40",
                    "--out", str(corpus)]) == 0
    assert run_cli(["train", "--data", str(corpus), "--arch", "am",
                    "--hidden-dim", "6", "--embed-dim", "5", "--epochs", "1",
                    "--batch-size", "16", "--metrics-every", "0",
                    "--max-decode-len", "6", "--out", str(ckpt)]) == 0

    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install(cogtrans)
    try:
        tracer.scope = "am"
        tracer.enabled = True
        assert run_cli(["evaluate", "--model", str(ckpt),
                        "--data", str(corpus)]) == 0
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert cogtrans.cli.transduce_greedy is models.transduce_greedy

    name, phase = tracer_mod.NAME, tracer_mod.PHASE
    in_transduce = {rec[name] for rec in tracer.spans
                    if rec[phase] == "models.transduce"}
    assert {"models.transduce", "models.decode_step", "models.encode",
            "cells.step"} <= in_transduce
    words = sum(rec[name] == "models.transduce" for rec in tracer.spans)
    assert words == 40
    assert tracer.counts()["models.encode.am"] == words
