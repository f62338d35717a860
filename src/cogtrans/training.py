"""Optimizers, the training loop, checkpoint averaging and persistence, and
the hyperparameter grid harness.

The training loop re-shuffles the train+validation pool before every epoch and
re-cuts the validation fraction, so the validation set is not fixed across
epochs; early stopping tracks the best validation loss with a patience budget.
"""

import dataclasses
import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import metrics
from .devanagari import CharVocab, build_vocab
from .errors import (
    ChecksumError,
    DivergedError,
    EmptyInput,
    IncompatibleCheckpoint,
    InvalidArgument,
    MissingGrad,
    build_config,
    require_positive,
    require_rate,
    require_seed,
)
from .models import ModelConfig, build_model, transduce_batch
from . import tensor as T

OPTIMIZER_KINDS = (
    "sgd", "momentum", "nesterov", "adam", "rmsprop", "adagrad", "adadelta",
)

_KIND_ALIASES = {
    "sgd+momentum": "momentum",
    "sgd+nesterov": "nesterov",
}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8
ADAGRAD_EPS = 1e-8
ADADELTA_RHO = 0.95
ADADELTA_EPS = 1e-6
DEFAULT_MOMENTUM = 0.9


@dataclass
class OptimizerSpec:
    """Update-rule choice plus its scalar hyperparameters.

    ``decay`` multiplies the learning rate once per epoch when set; for
    Adadelta it instead overrides the accumulator decay rho.
    """

    kind: str = "adam"
    lr: float = 1e-3
    decay: float = None
    momentum: float = None

    def normalized(self):
        kind = _KIND_ALIASES.get(self.kind.lower(), self.kind.lower())
        if kind not in OPTIMIZER_KINDS:
            raise InvalidArgument(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.lr < math.inf:
            raise InvalidArgument(
                f"learning rate must be positive and finite, got {self.lr}")
        if self.momentum is not None:
            require_rate("momentum", self.momentum)
        if self.decay is not None:
            if kind == "adadelta":   # decay is the accumulators' rho
                require_rate("decay", self.decay)
            elif not 0.0 < self.decay <= 1.0:   # a per-epoch factor on lr
                raise InvalidArgument(
                    f"decay must be in (0, 1], got {self.decay}")
        return dataclasses.replace(self, kind=kind)


class Optimizer:
    """Stateful parameter updater; state buffers mirror parameter shapes."""

    def __init__(self, spec):
        self.spec = spec.normalized()
        self.state = {}
        self.t = 0

    def effective_lr(self, epoch):
        """Learning rate after per-epoch multiplicative decay."""
        s = self.spec
        if s.kind == "adadelta" or s.decay is None:
            return s.lr
        return s.lr * s.decay ** epoch

    def _buf(self, name, shape, slot):
        st = self.state.setdefault(name, {})
        if slot not in st:
            st[slot] = np.zeros(shape)
        return st[slot]

    def step(self, params, l2=0.0, epoch=0):
        """Apply one update to every parameter from its accumulated grad."""
        self.t += 1
        s = self.spec
        lr = self.effective_lr(epoch)
        mu = DEFAULT_MOMENTUM if s.momentum is None else s.momentum
        for name, p in params.items():
            if p.grad is None:
                raise MissingGrad(f"no gradient for parameter {name!r}")
            g = p.grad
            if l2:
                g = g + l2 * p.data
            if s.kind == "sgd":
                p.data -= lr * g
            elif s.kind == "momentum":
                v = self._buf(name, p.data.shape, "v")
                v *= mu
                v -= lr * g
                p.data += v
            elif s.kind == "nesterov":
                v = self._buf(name, p.data.shape, "v")
                v *= mu
                v -= lr * g
                p.data += mu * v - lr * g
            elif s.kind == "adam":
                m = self._buf(name, p.data.shape, "m")
                v = self._buf(name, p.data.shape, "v")
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                mhat = m / (1.0 - ADAM_BETA1 ** self.t)
                vhat = v / (1.0 - ADAM_BETA2 ** self.t)
                p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            elif s.kind == "rmsprop":
                a = self._buf(name, p.data.shape, "a")
                a *= RMSPROP_RHO
                a += (1.0 - RMSPROP_RHO) * g * g
                p.data -= lr * g / (np.sqrt(a) + RMSPROP_EPS)
            elif s.kind == "adagrad":
                a = self._buf(name, p.data.shape, "a")
                a += g * g
                p.data -= lr * g / (np.sqrt(a) + ADAGRAD_EPS)
            elif s.kind == "adadelta":
                rho = ADADELTA_RHO if s.decay is None else s.decay
                a = self._buf(name, p.data.shape, "a")
                d = self._buf(name, p.data.shape, "d")
                a *= rho
                a += (1.0 - rho) * g * g
                delta = -np.sqrt(d + ADADELTA_EPS) / np.sqrt(a + ADADELTA_EPS) * g
                d *= rho
                d += (1.0 - rho) * delta * delta
                p.data += lr * delta


@dataclass
class TrainConfig:
    batch_size: int = 8
    max_epochs: int = 50
    patience: int = 7
    l2: float = 0.0
    seed: int = 0
    val_fraction: float = 0.1
    metrics_every: int = 1

    def validate(self):
        require_positive(self, ("batch_size", "max_epochs"))
        require_rate("val_fraction", self.val_fraction)
        if not 0.0 <= self.l2 < math.inf:
            raise InvalidArgument(f"l2 must be >= 0 and finite, got {self.l2}")
        if self.patience < 0:
            raise InvalidArgument("patience must be >= 0")
        if self.metrics_every < 0:   # 0 turns the per-epoch metrics off
            raise InvalidArgument("metrics_every must be >= 0")
        require_seed("seed", self.seed)
        return self


@dataclass
class Checkpoint:
    """One epoch's parameter snapshot plus its losses and metric readings."""

    params: dict
    epoch: int
    train_loss: float
    val_loss: float
    metrics: dict = field(default_factory=dict)
    model_config: ModelConfig = None
    vocab_symbols: tuple = ()


@dataclass
class TrainResult:
    history: list
    best: Checkpoint
    model: object


def _batches(pairs, batch_size):
    for i in range(0, len(pairs), batch_size):
        yield pairs[i : i + batch_size]


def _epoch_split(pool, rng, train_cfg):
    order = rng.permutation(len(pool))
    shuffled = [pool[i] for i in order]
    n_val = int(round(train_cfg.val_fraction * len(pool)))
    n_val = min(n_val, len(pool) - 1)
    return shuffled[n_val:], shuffled[:n_val]


def evaluate_model(model, pairs):
    """Greedy-decode every pair (``transduce_batch``) and aggregate
    BLEU/SS/WA."""
    decoded = transduce_batch(model, [src for src, _ in pairs])
    triples = [(src, gold, out.word)
               for (src, gold), out in zip(pairs, decoded)]
    report = metrics.score_items(triples)
    return {"bleu": report.bleu, "ss": report.ss, "wa": report.wa}


def train_step(model, opt, loss_fn, epoch, l2=0.0):
    """One update of ``model``'s parameters from the loss that ``loss_fn()``
    records on a fresh tape; returns the loss value.  A non-finite loss
    raises DivergedError carrying ``epoch``."""
    model.zero_grads()
    with T.Graph() as g:
        loss = loss_fn()
        value = loss.item()
        if not np.isfinite(value):
            raise DivergedError(epoch)
        T.backward(g, loss)
    del g, loss   # free the tape now, not after the next batch's forward
    opt.step(model.params, l2=l2, epoch=epoch)
    return value


def train(model_cfg, train_cfg, opt_spec, data, embedding=None, vocab=None):
    """Fit a model on a DatasetSplit-like object with .train/.validation.

    Returns a TrainResult whose history holds one Checkpoint per epoch and
    whose best checkpoint minimizes validation loss.  A non-finite loss
    raises DivergedError carrying the epoch index.
    """
    train_cfg.validate()
    pool = list(data.train)
    if not pool:
        raise EmptyInput("empty train set")
    pool += data.validation
    if vocab is None:
        vocab = build_vocab(pool)
    model = build_model(model_cfg, vocab, seed=train_cfg.seed,
                        embedding=embedding)
    opt = Optimizer(opt_spec)
    rng = np.random.default_rng(train_cfg.seed)
    history = []
    best = None
    stale = 0
    for epoch in range(train_cfg.max_epochs):
        tr, va = _epoch_split(pool, rng, train_cfg)
        epoch_loss = 0.0
        n_batches = 0
        for batch in _batches(tr, train_cfg.batch_size):
            epoch_loss += train_step(
                model, opt,
                lambda: model.loss_words(batch, train=True, rng=rng),
                epoch, l2=train_cfg.l2)
            n_batches += 1
        train_loss = epoch_loss / max(n_batches, 1)
        if va:
            with T.no_grad():
                val_loss = model.loss_words(va, train=False).item()
        else:
            val_loss = train_loss
        if not np.isfinite(val_loss):
            raise DivergedError(epoch)
        snap = None
        if train_cfg.metrics_every and (epoch + 1) % train_cfg.metrics_every == 0:
            snap = evaluate_model(model, va or tr)
        ckpt = Checkpoint(
            params=model.export_params(),
            epoch=epoch,
            train_loss=train_loss,
            val_loss=val_loss,
            metrics=snap or {},
            model_config=model_cfg,
            vocab_symbols=tuple(vocab.symbols),
        )
        history.append(ckpt)
        if best is None or val_loss < best.val_loss:
            best = ckpt
            stale = 0
        else:
            stale += 1
            if stale > train_cfg.patience:
                break
    return TrainResult(history=history, best=best, model=model)


def average_checkpoints(history, k):
    """Element-wise mean of the last k parameter snapshots."""
    if not 1 <= k <= len(history):
        raise InvalidArgument(
            f"cannot average {k} of {len(history)} checkpoints"
        )
    window = history[-k:]
    return {
        name: np.mean([c.params[name] for c in window], axis=0)
        for name in window[0].params
    }


# ---------------------------------------------------------------------------
# grid search

# every field a grid axis may set: name -> (its config class, its type)
CONFIG_FIELDS = {f.name: (cls, f.type)
                 for cls in (ModelConfig, TrainConfig, OptimizerSpec)
                 for f in dataclasses.fields(cls)}


def grid_search(space, model_cfg, train_cfg, opt_spec, data, base_seed=0):
    """One independent seeded run per combination of the axis lists.

    ``space`` maps field names (of ModelConfig, TrainConfig or OptimizerSpec)
    to value lists; without a ``seed`` axis each run's seed is derived from
    ``base_seed`` and the combination's index.  Returns (rows, skipped): each
    row carries the combination plus bleu/ss/wa and the best-validation epoch
    ("ep"); invalid combinations and diverged runs are recorded in
    ``skipped`` with a reason.
    """
    if not space:
        raise InvalidArgument("empty search space")
    axes = sorted(space)
    for axis in axes:
        if axis not in CONFIG_FIELDS:
            raise InvalidArgument(f"unknown hyperparameter {axis!r}")
        if axis == "script":   # the corpus is converted once, before the grid
            raise InvalidArgument("script cannot be a grid axis")
        if not space[axis]:
            raise InvalidArgument(f"empty axis {axis!r}")
    rows = []
    skipped = []
    for idx, values in enumerate(product(*(space[a] for a in axes))):
        combo = dict(zip(axes, values))
        mc, tc, op = (
            dataclasses.replace(base, **{k: v for k, v in combo.items()
                                         if CONFIG_FIELDS[k][0] is type(base)})
            for base in (model_cfg, train_cfg, opt_spec)
        )
        if "seed" not in combo:
            tc = dataclasses.replace(tc, seed=base_seed * 100003 + idx)
        try:
            mc.validate()
            tc.validate()
            op.normalized()
        except InvalidArgument as exc:
            skipped.append({**combo, "reason": str(exc)})
            continue
        try:
            result = train(mc, tc, op, data)
        except DivergedError as exc:
            skipped.append({**combo, "reason": f"diverged at epoch {exc.epoch}"})
            continue
        rows.append({
            **combo,
            "bleu": result.best.metrics.get("bleu", float("nan")),
            "ss": result.best.metrics.get("ss", float("nan")),
            "wa": result.best.metrics.get("wa", float("nan")),
            "ep": result.best.epoch,
        })
    return rows, skipped


def grid_table(rows, axes, metric="bleu"):
    """Appendix-style text table: one row per combination with metric + ep."""
    header = list(axes) + [metric.upper(), "ep"]
    lines = ["\t".join(header)]
    for row in rows:
        cells = [str(row[a]) for a in axes]
        cells.append(f"{row[metric]:.2f}")
        cells.append(str(row["ep"]))
        lines.append("\t".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# checkpoint persistence

CHECKPOINT_MAGIC = b"CGTCKPT\x01"
CHECKPOINT_FORMAT = 3
_HEADER_KEYS = frozenset(("model_config", "vocab", "epoch", "train_loss",
                          "val_loss", "metrics", "arrays"))


def _header_dict(ckpt):
    return {
        "format": CHECKPOINT_FORMAT,
        "model_config": dataclasses.asdict(ckpt.model_config),
        "vocab": list(ckpt.vocab_symbols),
        "epoch": ckpt.epoch,
        "train_loss": ckpt.train_loss,
        "val_loss": ckpt.val_loss,
        "metrics": ckpt.metrics,
        "arrays": [
            {"name": name, "shape": list(ckpt.params[name].shape)}
            for name in ckpt.params
        ],
    }


def save_checkpoint(ckpt, path):
    """Write magic + JSON header + little-endian float64 arrays + sha256.

    The write is atomic (temp file then rename) and byte-deterministic for
    equal checkpoints.
    """
    if ckpt.model_config is None:
        raise InvalidArgument("checkpoint has no model config")
    header = json.dumps(_header_dict(ckpt), sort_keys=True,
                        ensure_ascii=False).encode("utf-8")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", len(header))
    blob += header
    for name in ckpt.params:
        blob += np.ascontiguousarray(ckpt.params[name], dtype="<f8").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(bytes(blob))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_header(raw):
    """The JSON header, checked to be an object of the current format with
    every key ``load_checkpoint`` reads."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8 or JSON
        raise IncompatibleCheckpoint(
            f"checkpoint header is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise IncompatibleCheckpoint("checkpoint header is not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise IncompatibleCheckpoint(
            f"unsupported checkpoint format {header.get('format')!r}"
        )
    missing = sorted(_HEADER_KEYS - header.keys())
    if missing:
        raise IncompatibleCheckpoint(f"checkpoint header lacks {missing}")
    vocab, arrays = header["vocab"], header["arrays"]
    if not (isinstance(vocab, list) and all(isinstance(s, str) for s in vocab)):
        raise IncompatibleCheckpoint("checkpoint vocab is not a list of strings")
    if not (isinstance(arrays, list) and all(map(_array_spec_ok, arrays))):
        raise IncompatibleCheckpoint("checkpoint array list is malformed")
    return header


def _array_spec_ok(spec):
    return (isinstance(spec, dict) and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in spec["shape"]))


def _model_config(raw):
    """The header's model config: a JSON object of ``ModelConfig`` fields,
    each value of its field's type, else ``IncompatibleCheckpoint``."""
    if not isinstance(raw, dict):
        raise IncompatibleCheckpoint("checkpoint model config is not an object")
    return build_config(ModelConfig, raw, "checkpoint model config",
                        IncompatibleCheckpoint)


def load_checkpoint(path):
    """Inverse of save_checkpoint; verifies the checksum, the format version
    and the header's layout.  A malformed file raises ``ChecksumError`` or
    ``IncompatibleCheckpoint``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 + 32:
        raise ChecksumError("checkpoint file truncated")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError("checkpoint checksum mismatch")
    if not body.startswith(CHECKPOINT_MAGIC):
        raise IncompatibleCheckpoint("not a checkpoint file")
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<I", body, off)
    off += 4
    header = _read_header(body[off : off + hlen])
    off += hlen
    cfg = _model_config(header["model_config"])
    params = {}
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        count = math.prod(shape)
        if off + count * 8 > len(body):
            raise ChecksumError("checkpoint payload length mismatch")
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=off)
        try:
            params[spec["name"]] = arr.reshape(shape).copy()
        except ValueError as exc:   # more dimensions than NumPy allows
            raise IncompatibleCheckpoint(
                f"checkpoint array {spec['name']!r}: {exc}") from None
        off += count * 8
    if off != len(body):
        raise ChecksumError("checkpoint payload length mismatch")
    return Checkpoint(
        params=params,
        epoch=header["epoch"],
        train_loss=header["train_loss"],
        val_loss=header["val_loss"],
        metrics=header["metrics"],
        model_config=cfg,
        vocab_symbols=tuple(header["vocab"]),
    )


def restore_model(ckpt):
    """Build a model from a checkpoint's config/vocab and load its weights."""
    vocab = CharVocab(ckpt.vocab_symbols)
    if tuple(vocab.symbols) != tuple(ckpt.vocab_symbols):
        raise IncompatibleCheckpoint("checkpoint vocab is not in canonical order")
    model = build_model(ckpt.model_config, vocab, seed=0)
    model.load_params(ckpt.params)
    return model
