"""The benchmark's workloads: train, decode and oov-correct.

Each workload is one closed-loop caller in one process: it builds its inputs
from the seed, then runs rounds of the same operations, each call waiting for
the previous one.  Every round checks the program's outputs with the
benchmark's own oracles.  Decode and oov-correct first train their fixture
models (``am`` and ``tn``) in two child processes, one per model, and wait
for both to end.  Every timed call is measured in wall seconds and in
nominal seconds (``speed``).
"""

import contextlib
import io
import itertools
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
from speed import NOMINAL_PROBE_S, SpeedProbe
import cogtrans
from cogtrans import cli, data_io, synthetic, training
from cogtrans import tensor as T
from cogtrans.models import ModelConfig
from cogtrans.training import OptimizerSpec, TrainConfig

clock = time.perf_counter

ARCHS = ("seq2seq", "am", "han", "tn")
CORPUS_SEED = 7          # the seed-7 corpus and split of the acceptance tests
CORPUS_SIZE = 3000
BATCH = 20
SETUP_REPEATS = 5

# fixture models for decode and oov-correct: (epochs, Adam lr), the lr
# decaying x0.7 per epoch; both reach >= 95 WA on held-out words
FIXTURE_TRAINING = {"am": (5, 1e-2), "tn": (5, 5e-3)}
FIXTURE_DECAY = 0.7


def model_config(arch):
    """The acceptance-fixture model sizes."""
    if arch == "tn":
        return ModelConfig(architecture="tn", d_model=64, num_heads=4,
                           num_layers=2, ffn_dim=128, dropout=0.1,
                           max_decode_len=16)
    return ModelConfig(architecture=arch, hidden_dim=48, embed_dim=32,
                       max_decode_len=16)


def corpus_split():
    pairs = synthetic.generate_pairs(CORPUS_SEED, CORPUS_SIZE)
    return pairs, data_io.split_dataset(pairs, seed=CORPUS_SEED)


def generator_mismatches(pairs):
    return [(s, t) for s, t in pairs if oracles.rewrite(s) != t]


def heldout_words(seed, exclude, per_length, lengths, changed_only=False):
    """``per_length`` distinct generator sources of each length, in the order
    a seed-derived stream gives them, none in ``exclude``; with
    ``changed_only`` only words a rule rewrites.  Fixed length quotas keep
    the decoding work the same on every seed."""
    want = {n: per_length for n in lengths}
    words, seen = [], set(exclude)
    for src, _ in synthetic.generate_pairs(1_000_000 + seed,
                                           100 * per_length * len(want)):
        if (src in seen or not want.get(len(src))
                or (changed_only and oracles.rewrite(src) == src)):
            continue
        seen.add(src)
        words.append(src)
        want[len(src)] -= 1
        if not any(want.values()):
            return words
    raise RuntimeError(f"too few held-out words for seed {seed}")


def train_fixture(arch, path):
    """Train one fixture model on the seed-7 split and save its
    best-validation checkpoint.  Runs in a child process (``fixture.py``);
    returns the median probe time seen while it trained."""
    with SpeedProbe() as probe:
        _, split = corpus_split()
        epochs, lr = FIXTURE_TRAINING[arch]
        result = training.train(
            model_config(arch),
            TrainConfig(batch_size=BATCH, max_epochs=epochs, patience=epochs,
                        seed=CORPUS_SEED, metrics_every=0),
            OptimizerSpec("adam", lr=lr, decay=FIXTURE_DECAY), split)
        training.save_checkpoint(result.best, path)
        return probe.median()


def train_fixtures(workdir):
    """Train the fixtures in parallel, one child process each, and wait for
    every child to end; return their checkpoint paths and the nominal
    seconds the training took."""
    paths = {a: os.path.join(workdir, f"{a}.ckpt") for a in FIXTURE_TRAINING}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cogtrans.__file__)))
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "fixture.py")
    t0 = clock()
    procs = []
    try:
        for a, p in paths.items():
            procs.append(subprocess.Popen([sys.executable, script, src, a, p],
                                          stdout=subprocess.PIPE, text=True))
        outs = [proc.communicate()[0] for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    for a, proc in zip(paths, procs):
        if proc.returncode != 0:
            raise RuntimeError(f"fixture training ({a}) exit {proc.returncode}")
    probes = [float(out.split()[-1]) for out in outs]
    return paths, (clock() - t0) * NOMINAL_PROBE_S / statistics.median(probes)


class Round:
    """The outcome of one round: per scope the items done, the nominal and
    wall seconds the calls took, and an output-quality score."""

    def __init__(self):
        self.items, self.seconds, self.wall, self.quality = {}, {}, {}, {}
        self.attempted = self.failed = 0
        self.problems = []      # wrong outputs
        self.errors = []        # operations that failed

    def done(self, scope, items, timing, quality):
        wall, nominal = timing
        self.items[scope] = self.items.get(scope, 0) + items
        self.seconds[scope] = self.seconds.get(scope, 0.0) + nominal
        self.wall[scope] = self.wall.get(scope, 0.0) + wall
        self.quality[scope] = quality

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    @property
    def total_seconds(self):
        return sum(self.seconds.values())


class Workload:
    name = None
    scopes = ()         # the models each round runs, in order

    def __init__(self, seed, workdir, probe):
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.problems = []

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        """Build the inputs SETUP_REPEATS times; nominal seconds, median."""
        return statistics.median(self.probe.time(self.build_inputs)[2]
                                 for _ in range(SETUP_REPEATS))

    def _call(self, tracer, scope, fn):
        """Run one operation; return (its result, (wall s, nominal s))."""
        if tracer is not None:
            tracer.scope, tracer.enabled = scope, True
        try:
            out, wall, nominal = self.probe.time(fn)
            return out, (wall, nominal)
        finally:
            if tracer is not None:
                tracer.enabled = False

    def _cli(self, tracer, scope, argv, rnd):
        """One in-process ``cogtrans`` command; None when it fails."""
        rnd.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, timing = self._call(tracer, scope,
                                          lambda: cli.run_cli(argv))
        except Exception as exc:  # an escaped exception fails the operation
            code = repr(exc)
        if code != 0:
            rnd.failed += 1
            rnd.errors.append(f"{argv[0]} ({scope}) exit {code}: "
                                f"{err.getvalue().strip()}")
            return None
        return out.getvalue(), timing


# ---------------------------------------------------------------------------

class TrainWorkload(Workload):
    """``training.train`` for EPOCHS epochs per architecture, seeded like the
    acceptance fixture; the run's seed picks the gradient-check sample."""

    name = "train"
    scopes = ARCHS
    EPOCHS = 2
    GRAD_BATCH = 4
    GRAD_PARAMS = 4
    FD_EPS = 1e-6

    def build_inputs(self):
        pairs, self.split = corpus_split()
        self.bad_pairs = generator_mismatches(pairs)

    def setup(self):
        seconds = super().setup()
        if self.bad_pairs:
            self.problems.append(f"generator targets differ from the rules: "
                                 f"{self.bad_pairs[:3]}")
        pool = len(self.split.train) + len(self.split.validation)
        # train() re-cuts round(10%) of the pool for validation every epoch
        self.pairs_per_epoch = pool - int(round(0.1 * pool))
        return seconds

    def run_round(self, tracer):
        rnd = Round()
        for arch in self.scopes:
            cfg = model_config(arch)
            opt = OptimizerSpec("adam", lr=1e-3 if arch == "tn" else 2e-3)
            tc = TrainConfig(batch_size=BATCH, max_epochs=self.EPOCHS,
                             patience=self.EPOCHS, seed=CORPUS_SEED,
                             metrics_every=0)
            rnd.attempted += 1
            try:
                result, timing = self._call(
                    tracer, arch, lambda: training.train(cfg, tc, opt, self.split))
            except Exception as exc:  # a failed operation is counted, not fatal
                rnd.failed += 1
                rnd.errors.append(f"train ({arch}): {exc!r}")
                continue
            losses = [c.train_loss for c in result.history]
            rnd.check(len(losses) == self.EPOCHS,
                      f"{arch}: {len(losses)} epochs run")
            # a non-finite batch loss makes its epoch mean non-finite
            rnd.check(all(math.isfinite(x) for x in losses),
                      f"{arch}: non-finite epoch loss {losses}")
            rnd.check(losses[-1] < losses[0],
                      f"{arch}: loss did not fall {losses}")
            for msg in self.gradient_mismatches(result.model):
                rnd.check(False, f"{arch}: {msg}")
            rnd.done(arch, len(losses) * self.pairs_per_epoch, timing,
                     100.0 * (1.0 - losses[-1] / losses[0]))
        return rnd

    def gradient_mismatches(self, model):
        """Taped gradients against central differences of ``loss_words`` at
        the largest-gradient and one random coordinate of a few parameters."""
        rng = np.random.default_rng(self.seed)
        train = self.split.train
        batch = [train[i] for i in rng.choice(len(train), self.GRAD_BATCH,
                                              replace=False)]
        model.zero_grads()
        with T.Graph() as graph:
            T.backward(graph, model.loss_words(batch, train=False))
        names = sorted(model.params)
        bad = []
        for i in rng.choice(len(names), self.GRAD_PARAMS, replace=False):
            p = model.params[names[i]]
            grad = (np.zeros(p.data.size) if p.grad is None
                    else p.grad.reshape(-1).copy())
            flat = p.data.reshape(-1)
            for k in sorted({int(np.argmax(np.abs(grad))),
                             int(rng.integers(flat.size))}):
                orig = flat[k]
                values = []
                for delta in (self.FD_EPS, -self.FD_EPS):
                    flat[k] = orig + delta
                    with T.no_grad():
                        values.append(model.loss_words(batch, train=False).item())
                flat[k] = orig
                fd = (values[0] - values[1]) / (2.0 * self.FD_EPS)
                if abs(grad[k] - fd) > 1e-6 + 1e-4 * max(abs(grad[k]), abs(fd)):
                    bad.append(f"d loss/d {names[i]}[{k}]: taped {grad[k]:.9g}, "
                               f"central difference {fd:.9g}")
        model.zero_grads()
        return bad


# ---------------------------------------------------------------------------

class FixtureWorkload(Workload):
    """A workload that first trains the am and tn fixture models."""

    scopes = tuple(FIXTURE_TRAINING)

    def setup(self):
        self.ckpt, seconds = train_fixtures(self.workdir)
        seconds += super().setup()
        pairs, self.split = corpus_split()
        bad = generator_mismatches(pairs)
        if bad:
            self.problems.append(f"generator targets differ from the rules: "
                                 f"{bad[:3]}")
        return seconds


class DecodeWorkload(FixtureWorkload):
    """``cogtrans evaluate --report`` over unique held-out words."""

    name = "decode"
    PER_LENGTH = 20                 # of each generator length 2..12
    WORDS = PER_LENGTH * 11
    WA_MIN, BLEU_MIN = 90.0, 95.0

    def build_inputs(self):
        pairs, _ = corpus_split()
        self.words = heldout_words(self.seed, {s for s, _ in pairs},
                                   self.PER_LENGTH, range(2, 13))
        self.golds = [oracles.rewrite(w) for w in self.words]
        with open(self.path("heldout.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{w}\t{g}\n" for w, g in zip(self.words, self.golds))

    def run_round(self, tracer):
        rnd = Round()
        for arch in self.scopes:
            report = self.path(f"report-{arch}.tsv")
            res = self._cli(tracer, arch, [
                "evaluate", "--model", self.ckpt[arch],
                "--data", self.path("heldout.tsv"), "--report", report], rnd)
            if res is not None:
                rnd.done(arch, self.WORDS, res[1],
                         self.check_report(rnd, arch, report))
        return rnd

    def check_report(self, rnd, arch, path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = [ln.split("\t") for ln in lines[1:-1]]
        footer = dict(f.split("=", 1) for f in lines[-1].split("\t")[1:])
        if not rnd.check([r[0] for r in rows] == self.words
                         and [r[1] for r in rows] == self.golds,
                         f"{arch}: report rows do not match the input file"):
            return 0.0
        preds = [r[2] for r in rows]
        wa = oracles.word_accuracy(preds, self.golds)
        bleu = statistics.fmean(oracles.char_bleu(p, g)
                                for p, g in zip(preds, self.golds))
        rnd.check(abs(float(footer["wa"]) - wa) <= 5e-5,
                  f"{arch}: report WA {footer['wa']} != recount {wa:.4f}")
        rnd.check(wa >= self.WA_MIN, f"{arch}: WA {wa:.2f} < {self.WA_MIN}")
        rnd.check(bleu >= self.BLEU_MIN,
                  f"{arch}: char BLEU {bleu:.2f} < {self.BLEU_MIN}")
        return bleu


class OovWorkload(FixtureWorkload):
    """``cogtrans oov-correct`` over MT-like sentences: a K sweep with
    ``--references``, then a corrected corpus at the K that flags exactly
    the rare words."""

    name = "oov-correct"
    SENTENCES = 30
    TOKENS = 10
    # rare-word positions, cycled over the sentences: the same positions on
    # every seed keep the baseline BLEU, and so the gain, comparable
    RARE_SLOTS = ((1, 6), (3, 8), (0, 5), (2, 9), (4, 7))
    LENGTHS = range(3, 13)  # two words of each length per pool and band
    # common words come in three frequency bands of 20 (ranks 0-19, 20-39,
    # 40-59) and fill 4, 2 and 2 slots of every sentence; so K = 20, 40, 60
    # flag 6, 4 and 2 words per sentence on every seed, the last exactly
    # the rare ones
    BAND_SLOTS = (4, 2, 2)
    SIZES = (20, 40, 60)
    GAIN_MIN = 3.0

    def build_inputs(self):
        rng = np.random.default_rng(self.seed)
        pairs, split = corpus_split()
        identity = sorted({s for s, t in split.train if s == t})
        bands = [[] for _ in self.BAND_SLOTS]
        for n in self.LENGTHS:
            same = [w for w in identity if len(w) == n]
            picks = rng.choice(len(same), 2 * len(bands), replace=False)
            for i, pick in enumerate(picks):
                bands[i // 2].append(same[pick])
        for band in bands:
            rng.shuffle(band)
        common = [w for band in bands for w in band]      # in rank order
        self.rare = heldout_words(self.seed, {s for s, _ in pairs}, 2,
                                  self.LENGTHS, changed_only=True)
        rng.shuffle(self.rare)
        # every word of a band, and of the rare pool, recurs equally often
        cycles = [itertools.cycle(band) for band in bands]
        rare = itertools.cycle(self.rare)
        self.records, self.refs = [], []
        n = self.TOKENS
        for _ in range(self.SENTENCES):
            slots = self.RARE_SLOTS[len(self.records) % len(self.RARE_SLOTS)]
            kinds = [b for b, k in enumerate(self.BAND_SLOTS) for _ in range(k)]
            rng.shuffle(kinds)
            kinds = iter(kinds)
            tokens = [next(rare) if i in slots else next(cycles[next(kinds)])
                      for i in range(n)]
            # soft attention whose row argmax is the diagonal: clipped noise
            # stays below the +3 diagonal margin
            logits = np.clip(rng.normal(0.0, 0.5, (n, n)), -1.0, 1.0) + 3.0 * np.eye(n)
            att = np.exp(logits)
            att /= att.sum(axis=1, keepdims=True)
            # the MT output keeps OOV words as they are; references rewrite them
            self.records.append((tokens, list(tokens), att))
            self.refs.append([oracles.rewrite(t) for t in tokens])
        with open(self.path("sentences.tsv"), "w", encoding="utf-8") as fh:
            for src, tgt, _ in self.records:
                fh.write(" ".join(src) + "\t" + " ".join(tgt) + "\n")
        with open(self.path("attention.bin"), "wb") as fh:
            for _, _, att in self.records:
                fh.write(np.array(att.shape, dtype="<u4").tobytes())
                fh.write(np.ascontiguousarray(att, dtype="<f8").tobytes())
        with open(self.path("references.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(r) + "\n" for r in self.refs)
        # monolingual corpus for the shortlist: the rank-i common word
        # 200 - 3i times, so no two ranks tie, and no rare word at all
        mono = [w for i, w in enumerate(common) for _ in range(200 - 3 * i)]
        rng.shuffle(mono)
        with open(self.path("mono.txt"), "w", encoding="utf-8") as fh:
            for i in range(0, len(mono), 12):
                fh.write(" ".join(mono[i:i + 12]) + "\n")
        self.baseline = oracles.corpus_bleu([r[1] for r in self.records], self.refs)

    def run_round(self, tracer):
        rnd = Round()
        common_args = ["--sentences", self.path("sentences.tsv"),
                       "--matrices", self.path("attention.bin"),
                       "--shortlist-corpus", self.path("mono.txt")]
        for arch in self.scopes:
            sweep = self._cli(tracer, arch, [
                "oov-correct", *common_args, "--model", self.ckpt[arch],
                "--sizes", ",".join(map(str, self.SIZES)),
                "--references", self.path("references.txt")], rnd)
            out_path = self.path(f"corrected-{arch}.tsv")
            final = self._cli(tracer, arch, [
                "oov-correct", *common_args, "--model", self.ckpt[arch],
                "--sizes", str(self.SIZES[-1]), "--out", out_path], rnd)
            if sweep is None or final is None:
                continue
            bleu = self.check(rnd, arch, sweep[0], out_path)
            rnd.done(arch, self.SENTENCES * (len(self.SIZES) + 1),
                     (sweep[1][0] + final[1][0], sweep[1][1] + final[1][1]),
                     bleu)
        return rnd

    def check(self, rnd, arch, table, out_path):
        rows = [ln.split("\t") for ln in table.splitlines()[1:]]
        printed = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
        if not rnd.check(sorted(printed) == sorted(self.SIZES),
                         f"{arch}: sweep printed K {sorted(printed)}"):
            return 0.0
        for K, (base, _) in printed.items():
            rnd.check(abs(base - self.baseline) <= 0.005 + 1e-9,
                      f"{arch}: K={K} baseline {base} != {self.baseline:.4f}")
        with open(out_path, encoding="utf-8") as fh:
            corrected = [ln.split("\t")[1].split() for ln in fh.read().splitlines()]
        if not rnd.check([len(c) for c in corrected]
                         == [len(r[1]) for r in self.records],
                         f"{arch}: corrected corpus has the wrong shape"):
            return 0.0
        rare = set(self.rare)
        for (src, tgt, att), new in zip(self.records, corrected):
            for t, (old, tok) in enumerate(zip(tgt, new)):
                if src[int(np.argmax(att[t]))] not in rare and old != tok:
                    rnd.check(False, f"{arch}: non-OOV token {old!r} became {tok!r}")
        bleu = oracles.corpus_bleu(corrected, self.refs)
        K = self.SIZES[-1]
        rnd.check(abs(printed[K][1] - bleu) <= 0.005 + 1e-9,
                  f"{arch}: K={K} corrected {printed[K][1]} != {bleu:.4f}")
        gain = bleu - self.baseline
        rnd.check(gain >= self.GAIN_MIN,
                  f"{arch}: BLEU gain {gain:.2f} < {self.GAIN_MIN}")
        return bleu


WORKLOADS = {w.name: w for w in (TrainWorkload, DecodeWorkload, OovWorkload)}
