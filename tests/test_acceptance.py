"""End-to-end acceptance checks.  Each test prints one pass/fail line."""

import math
import os
import pickle
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

import cogtrans
from cogtrans import tensor as T
from cogtrans.cli import run_cli
from cogtrans.data_io import split_dataset
from cogtrans.devanagari import build_vocab, strip_trailing_repeats, wx_decode, wx_encode
from cogtrans.embeddings import WordVectorStore, ft_avg_embed
from cogtrans.metrics import char_bleu, corpus_bleu, levenshtein, string_similarity
from cogtrans.models import ModelConfig, build_model, transduce_greedy
from cogtrans.oov import AlignedSentencePair, correct_translation, detect_oov, evaluate_pipeline, build_shortlist
from cogtrans.synthetic import ALPHABET, generate_pairs, oracle_transduce
from cogtrans.training import (
    Checkpoint,
    Optimizer,
    OptimizerSpec,
    TrainConfig,
    average_checkpoints,
    evaluate_model,
    train,
)


def _report(capsys, n, desc, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {n:02d}] FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"[criterion {n:02d}] PASS - {desc}")


# ---------------------------------------------------------------------------
# shared expensive fixture: four architectures on the seeded benchmark
#
# The four trainings are independent and seeded, so they run in two child
# processes (this file run as a script), each training its lane of
# architectures one after the other with one BLAS thread; the lanes are
# balanced by epoch cost.  ``elapsed`` is the sum of the per-architecture
# wall times, the quantity one process training all four would measure.

BENCHMARK_LANES = (("am", "han"), ("tn", "seq2seq"))


def _benchmark_split():
    return split_dataset(generate_pairs(7, 3000), seed=7)


def _train_benchmark_arch(arch, split):
    if arch == "tn":
        cfg = ModelConfig(architecture="tn", d_model=64, num_heads=4,
                          num_layers=2, ffn_dim=128, dropout=0.1,
                          max_decode_len=16)
        opt = OptimizerSpec("adam", lr=1e-3)
        epochs = 60
    else:
        cfg = ModelConfig(architecture=arch, hidden_dim=48, embed_dim=32,
                          max_decode_len=16)
        opt = OptimizerSpec("adam", lr=2e-3)
        epochs = 45
    tc = TrainConfig(batch_size=20, max_epochs=epochs, patience=epochs,
                     seed=7, metrics_every=0)
    start = time.monotonic()
    result = train(cfg, tc, opt, split)
    scores = evaluate_model(result.model, split.test)
    return {"result": result, "scores": scores,
            "seconds": time.monotonic() - start}


def _run_lane(out_path, archs):
    split = _benchmark_split()
    runs = {arch: _train_benchmark_arch(arch, split) for arch in archs}
    with open(out_path, "wb") as fh:
        pickle.dump(runs, fh)


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("benchmark")
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(cogtrans.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src_root, os.environ.get("PYTHONPATH")) if p))
    lanes = []
    try:
        for i, archs in enumerate(BENCHMARK_LANES):
            out, log = tmp / f"lane{i}.pkl", tmp / f"lane{i}.log"
            with open(log, "wb") as fh:
                proc = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(out), *archs],
                    env=env, stdin=subprocess.DEVNULL, stdout=fh,
                    stderr=subprocess.STDOUT)
            lanes.append((proc, archs, out, log))
        runs = {}
        for proc, archs, out, log in lanes:
            if proc.wait() != 0:
                raise RuntimeError(f"benchmark lane {archs} failed:\n"
                                   + log.read_text(errors="replace"))
            with open(out, "rb") as fh:
                runs.update(pickle.load(fh))
    finally:
        for proc, *_ in lanes:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    runs = {arch: runs[arch] for arch in ("seq2seq", "am", "han", "tn")}
    return {"split": _benchmark_split(), "runs": runs,
            "elapsed": sum(r["seconds"] for r in runs.values())}


# ---------------------------------------------------------------------------

def test_criterion_01_gradients(capsys):
    def check():
        start = time.monotonic()
        import test_tensor as tt

        for case in tt._op_cases():
            name, arrays, fn = case
            params = {f"p{i}": tt.leaf(a) for i, a in enumerate(arrays)}
            err = T.finite_diff_check(lambda: fn(*params.values()), params)
            assert err < 1e-4, f"op {name}: {err}"

        vocab = build_vocab([("abc", "abd"), ("ba", "ab")])
        batch = [("abc", "abd"), ("ba", "ab")]
        for arch in ("seq2seq", "am", "han", "tn"):
            cfg = ModelConfig(architecture=arch, hidden_dim=6, embed_dim=5,
                              d_model=8, num_heads=2, ffn_dim=10,
                              num_layers=1, dropout=0.0, chunk_size=2,
                              max_decode_len=8)
            model = build_model(cfg, vocab, seed=0)
            err = T.finite_diff_check(
                lambda: model.loss_words(batch, train=False), model.params)
            assert err < 1e-4, f"{arch}: {err}"
        assert time.monotonic() - start < 60.0

    _report(capsys, 1, "finite-difference gradients, ops and architectures",
            check)


def test_criterion_02_metric_oracles(capsys):
    def check():
        import sys
        sys.setrecursionlimit(20000)

        def oracle(a, b):
            @lru_cache(maxsize=None)
            def d(i, j):
                if i == 0:
                    return j
                if j == 0:
                    return i
                return min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                           d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
            return d(len(a), len(b))

        r = np.random.default_rng(0)
        letters = list("abcde")
        for _ in range(1000):
            a = "".join(r.choice(letters, size=r.integers(0, 9)))
            b = "".join(r.choice(letters, size=r.integers(0, 9)))
            got = levenshtein(a, b)
            assert got == oracle(a, b), (a, b, got)
            sim = string_similarity(a, b)
            total = len(a) + len(b)
            expect = 100.0 if total == 0 else \
                (1 - oracle(a, b) / total) * 100
            assert sim == pytest.approx(expect)
        assert string_similarity("abcd", "abed") == pytest.approx(87.5)

        for _ in range(100):
            w = "".join(r.choice(letters, size=r.integers(1, 13)))
            assert char_bleu(w, w) == pytest.approx(100.0)

        # independent corpus BLEU on a 2-sentence fixture
        hyps = [list("abcab"), list("aabb")]
        refs = [list("abcaa"), list("abab")]
        got = corpus_bleu(hyps, refs)

        def ngrams(seq, n):
            out = {}
            for i in range(len(seq) - n + 1):
                g = tuple(seq[i:i + n])
                out[g] = out.get(g, 0) + 1
            return out

        log_p = 0.0
        for n in range(1, 5):
            match = total = 0
            for h, f in zip(hyps, refs):
                hg, fg = ngrams(h, n), ngrams(f, n)
                match += sum(min(c, fg.get(g, 0)) for g, c in hg.items())
                total += sum(hg.values())
            log_p += 0.25 * math.log(match / total)
        hyp_len = sum(len(h) for h in hyps)
        ref_len = sum(len(f) for f in refs)
        bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
        assert got == pytest.approx(100.0 * bp * math.exp(log_p), abs=1e-9)

    _report(capsys, 2, "metric oracles (edit distance, SS, char and corpus "
            "BLEU)", check)


def test_criterion_03_split(capsys):
    def check():
        pairs = [(str(i), str(i)) for i in range(4220)]
        split = split_dataset(pairs, seed=0)
        sizes = (len(split.train), len(split.validation), len(split.test))
        assert sizes == (2849, 316, 1055), sizes

    _report(capsys, 3, "dataset split 4220 -> 2849/316/1055", check)


def test_criterion_04_end_to_end(capsys, benchmark_runs):
    def check():
        scores = {a: r["scores"] for a, r in benchmark_runs["runs"].items()}
        for arch in ("am", "tn"):
            assert scores[arch]["wa"] >= 90.0, (arch, scores[arch])
            assert scores[arch]["bleu"] >= 95.0, (arch, scores[arch])
        bleus = {a: s["bleu"] for a, s in scores.items()}
        lowest = min(bleus, key=bleus.get)
        assert lowest == "seq2seq", bleus
        assert bleus["seq2seq"] < min(v for a, v in bleus.items()
                                      if a != "seq2seq")
        assert benchmark_runs["elapsed"] < 1800.0

    _report(capsys, 4, "benchmark end-to-end: AM and TN >= 90 WA / 95 BLEU, "
            "plain seq2seq strictly lowest BLEU", check)


def test_criterion_05_embedding_init_trend(capsys):
    def check():
        pairs = generate_pairs(11, 800)
        split = split_dataset(pairs, seed=11)
        vocab = build_vocab(split.train + split.validation)
        dim = 24

        def word_vec(w):
            v = np.zeros(dim)
            for ch in w:
                v[ALPHABET.index(ch) % dim] += 1.0
            v[-1] = len(w) / 12.0
            return v / max(np.linalg.norm(v), 1e-9)

        words = {w for s, t in split.train + split.validation for w in (s, t)}
        store = WordVectorStore({w: word_vec(w) for w in words})
        tokens = [w for s, t in split.train + split.validation
                  for w in (s, t)]
        ft_table, _ = ft_avg_embed(store, tokens, vocab=vocab)
        zero_table = np.zeros((len(vocab), dim))

        cfg = ModelConfig(architecture="am", hidden_dim=32, embed_dim=dim,
                          max_decode_len=16)
        tc = TrainConfig(batch_size=20, max_epochs=30, patience=30, seed=5,
                         metrics_every=1)
        curves = {}
        for name, emb in (("ftavg", ft_table.data), ("zero", zero_table)):
            res = train(cfg, tc, OptimizerSpec("adam", lr=2e-3), split,
                        embedding=emb, vocab=vocab)
            curves[name] = [(c.epoch, c.metrics["bleu"])
                            for c in res.history if c.metrics]
        best = {k: max(b for _, b in v) for k, v in curves.items()}
        assert best["ftavg"] >= best["zero"], best
        # convergence: first epoch reaching the weaker run's best score
        threshold = min(best.values())
        conv = {k: next(e for e, b in v if b >= threshold)
                for k, v in curves.items()}
        assert conv["ftavg"] <= conv["zero"], conv

    _report(capsys, 5, "pretrained embedding init scores and converges no "
            "worse than zero init at a 30-epoch budget", check)


def test_criterion_06_checkpoint_averaging(capsys):
    def check():
        r = np.random.default_rng(0)
        hist = [Checkpoint(params={"w": r.normal(size=(7, 5)),
                                   "b": r.normal(size=3)},
                           epoch=i, train_loss=0.0, val_loss=0.0)
                for i in range(9)]
        avg = average_checkpoints(hist, 6)
        for name in ("w", "b"):
            expect = np.mean([c.params[name] for c in hist[-6:]], axis=0)
            assert np.abs(avg[name] - expect).max() < 1e-12

    _report(capsys, 6, "last-6 checkpoint average equals elementwise mean",
            check)


def test_criterion_07_optimizer_steps(capsys):
    def check():
        def step(kind, value, grad, **kw):
            p = T.Tensor(np.array([value]), requires_grad=True)
            p.grad = np.array([grad])
            Optimizer(OptimizerSpec(kind, **kw)).step({"p": p})
            return p.data[0]

        moved = step("adam", 0.0, 1.0, lr=1e-3)
        assert abs(moved - (-1e-3)) < 1e-9
        assert step("sgd", 1.0, 0.5, lr=0.1) == pytest.approx(0.95)
        assert step("momentum", 1.0, 0.5, lr=0.1, momentum=0.9) == \
            pytest.approx(0.95)
        assert step("nesterov", 1.0, 0.5, lr=0.1, momentum=0.9) == \
            pytest.approx(1.0 - (1 + 0.9) * 0.1 * 0.5)
        g = 0.5
        assert step("rmsprop", 0.0, g, lr=0.1) == pytest.approx(
            -0.1 * g / (math.sqrt(0.1 * g * g) + 1e-8))
        assert step("adagrad", 0.0, g, lr=0.1) == pytest.approx(
            -0.1 * g / (math.sqrt(g * g) + 1e-8))
        assert step("adadelta", 0.0, g, lr=1.0) == pytest.approx(
            -math.sqrt(1e-6) / math.sqrt(0.05 * g * g + 1e-6) * g)

    _report(capsys, 7, "optimizer first steps match closed forms", check)


def test_criterion_08_postprocess(capsys):
    def check():
        assert strip_trailing_repeats("Jatatatata", script="wx") == "Jata"
        r = np.random.default_rng(1)
        letters = list("abc")
        for _ in range(1000):
            w = "".join(r.choice(letters, size=r.integers(0, 10)))
            once = strip_trailing_repeats(w)
            assert strip_trailing_repeats(once) == once

    _report(capsys, 8, "trailing-repeat stripping fixes the known artifact "
            "and is idempotent", check)


def test_criterion_09_oov_pipeline(capsys, benchmark_runs):
    def check():
        split = benchmark_runs["split"]
        am = benchmark_runs["runs"]["am"]["result"].model
        invocab = sorted({s for s, t in split.train if s == t})
        oov_words = sorted({s for s, t in split.test if s != t})
        assert len(invocab) >= 50 and len(oov_words) >= 200

        @lru_cache(maxsize=None)
        def transducer(word):
            return transduce_greedy(am, word).word

        r = np.random.default_rng(99)
        records, references = [], []
        n_tok = 10
        for _ in range(500):
            common = list(r.choice(invocab, size=n_tok - 2))
            rare = list(r.choice(oov_words, size=2, replace=False))
            slots = sorted(r.choice(n_tok, size=2, replace=False))
            tokens = []
            it = iter(common)
            for i in range(n_tok):
                tokens.append(rare.pop(0) if i in slots else next(it))
            records.append(AlignedSentencePair(
                source=tokens, target=list(tokens),
                attention=np.eye(n_tok)))
            references.append([oracle_transduce(t) for t in tokens])

        shortlist_corpus = [" ".join(invocab)]
        rows = evaluate_pipeline(records, references, shortlist_corpus,
                                 [len(invocab)],
                                 lambda words: list(map(transducer, words)))
        assert rows[0]["delta"] >= 3.0, rows

        # non-OOV-aligned tokens must never change
        shortlist = build_shortlist(shortlist_corpus, len(invocab))
        for rec in records:
            oov_pos = detect_oov(rec.source, shortlist)
            corrected, _ = correct_translation(rec, oov_pos, transducer)
            for i, (old, new) in enumerate(zip(rec.target, corrected)):
                if i not in oov_pos:
                    assert old == new

    _report(capsys, 9, "OOV correction lifts corpus BLEU by >= 3 and only "
            "touches OOV-aligned tokens", check)


def test_criterion_10_codec(capsys):
    def check():
        corpus = [
            "भेट", "भेंट", "प्रथा", "वृक्षा", "ज्ञान", "दर्शन", "यजमान",
            "जज़्बा", "कंगन", "नदी", "बड़ा", "कृष्ण", "हिंदी", "संस्कृत",
            "अंगूर", "ऋषि", "औरत", "ईख", "उल्लू", "ऊन", "एक", "ऐनक",
            "ओखली", "कक्षा", "चश्मा", "छात्र", "झण्डा", "ठंड", "ढोल",
            "कारागारवाला", "१२३", "घमंड", "फल", "थाली", "धागा", "भाषा",
        ]
        for word in corpus:
            assert wx_decode(wx_encode(word)) == word, word
        assert wx_encode("ं") == "M"
        assert wx_encode("भेंट") == "BeMta"

    _report(capsys, 10, "WX round trip is the identity; anusvara maps to M",
            check)


def test_criterion_11_determinism(capsys, tmp_path):
    def check():
        corpus = tmp_path / "corpus.tsv"
        assert run_cli(["synth-gen", "--seed", "3", "--n", "200",
                        "--out", str(corpus)]) == 0
        blobs = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"run-{tag}.ckpt"
            report = tmp_path / f"report-{tag}.tsv"
            args = ["train", "--data", str(corpus), "--arch", "am",
                    "--hidden-dim", "12", "--embed-dim", "8",
                    "--epochs", "3", "--batch-size", "20", "--seed", "4",
                    "--metrics-every", "0", "--out", str(ckpt)]
            assert run_cli(args) == 0
            assert run_cli(["evaluate", "--model", str(ckpt),
                            "--data", str(corpus),
                            "--report", str(report)]) == 0
            blobs.append((ckpt.read_bytes(), report.read_bytes()))
        assert blobs[0][0] == blobs[1][0], "checkpoints differ"
        assert blobs[0][1] == blobs[1][1], "reports differ"

    _report(capsys, 11, "identical seeds give byte-identical checkpoints "
            "and reports", check)


if __name__ == "__main__":
    # child of the benchmark_runs fixture: OUT_PATH ARCH...
    _run_lane(sys.argv[1], sys.argv[2:])
