"""Character-embedding pretraining: averaging word vectors per character
(ft-Avg) and next-character language-model training (LM-LSTM).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .cells import (birnn_summary, dropout, init_cell_params,
                    init_embedding, run_birnn, run_rnn, uniform)
from .data_io import naming_source, read_text
from .devanagari import CharVocab
from .errors import (EmptyInput, InvalidArgument, ParseError,
                     require_positive, require_rate, require_seed)
from .metrics import nfc
from .models import ModelBase
from .training import Optimizer, OptimizerSpec, train_step


def writable(word):
    """Whether ``word`` survives the vector file's whitespace split."""
    return word.split() == [word]


class WordVectorStore:
    """word -> fixed-dimension vector map, loadable from the common text
    release format ("word v1 v2 ... vD", optional "count dim" first line)."""

    def __init__(self, vectors):
        self.vectors = {}
        self.dim = None
        for word, vec in vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.ndim != 1:
                raise InvalidArgument(f"vector for {word!r} is not 1-D")
            if self.dim is None:
                self.dim = vec.shape[0]
            elif vec.shape[0] != self.dim:
                raise InvalidArgument(
                    f"vector for {word!r} has dimension {vec.shape[0]}, "
                    f"expected {self.dim}"
                )
            self.vectors[nfc(word)] = vec

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, word):
        return nfc(word) in self.vectors

    def __getitem__(self, word):
        return self.vectors[nfc(word)]

    @classmethod
    def load(cls, path):
        vectors = {}
        with naming_source(path):
            for line_no, line in enumerate(read_text(path).split("\n"), 1):
                parts = line.split()
                if not parts or (line_no == 1 and len(parts) == 2
                                 and all(p.isdigit() for p in parts)):
                    continue   # blank, or the optional "count dim" header
                try:
                    vec = [float(x) for x in parts[1:]]
                except ValueError:
                    raise ParseError(line_no, f"vector for {parts[0]!r} has "
                                     "a non-numeric component") from None
                if not all(map(math.isfinite, vec)):
                    raise ParseError(line_no, f"vector for {parts[0]!r} has "
                                     "a NaN or infinite component")
                dim = len(vec) if not vectors else dim
                if not dim or len(vec) != dim:
                    raise ParseError(line_no, f"vector for {parts[0]!r} has "
                                     f"{len(vec)} components, expected "
                                     f"{dim or 'at least 1'}")
                vectors[parts[0]] = vec
        if not vectors:
            raise EmptyInput(f"{path}: no word vectors")
        return cls(vectors)

    def save(self, path):
        """Write the text format ``load`` reads; a word must be non-empty
        and hold no whitespace, which ``load`` splits on."""
        for word in self.vectors:
            if not writable(word):
                raise InvalidArgument(f"cannot write a vector for {word!r}: "
                                      "a word is non-empty, without whitespace")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(self.vectors)} {self.dim or 0}\n")
            for word in sorted(self.vectors):
                nums = " ".join(repr(float(x)) for x in self.vectors[word])
                fh.write(f"{word} {nums}\n")


def ft_avg_embed(store, corpus, vocab):
    """Character embeddings as count-weighted means of word vectors.

    e_c = sum_w count(c, w) * v_w / sum_w count(c, w), where count(c, w) is
    the number of occurrences of c in w and each word type of the corpus
    counts once.  Returns the trainable (len(vocab), dim) table and the
    symbols of ``vocab`` that no stored word holds, whose rows are zero.
    """
    if len(store) == 0:
        raise EmptyInput("empty word-vector store")
    words = dict.fromkeys(nfc(token) for token in corpus)   # first-seen order
    dim = store.dim
    table = np.zeros((len(vocab), dim))
    totals = np.zeros(len(vocab))
    for word in words:
        if word not in store:
            continue
        vec = store[word]
        for ch in set(word):
            idx = vocab.index.get(ch)
            if idx is None:
                continue
            count = word.count(ch)
            table[idx] += count * vec
            totals[idx] += count
    covered = totals > 0
    table[covered] /= totals[covered, None]
    missing = [vocab.symbols[i] for i in range(len(vocab)) if not covered[i]]
    return T.Tensor(table, requires_grad=True), missing


# ---------------------------------------------------------------------------
# character language model

HOLDOUT_FRACTION = 0.1   # corpus tail held out for perplexity and stopping
DIRECTIONS = ("forward", "bidirectional")


@dataclass
class CharLMConfig:
    window: int = 30
    hidden: int = 75
    dropout: float = 0.5
    direction: str = "forward"
    embed_dim: int = 32
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 7
    seed: int = 0

    def validate(self):
        if self.window < 2:
            raise InvalidArgument("window must be >= 2")
        if self.direction not in DIRECTIONS:
            raise InvalidArgument(f"unknown direction {self.direction!r}")
        if self.patience < 0:
            raise InvalidArgument("patience must be >= 0")
        require_positive(self, ("hidden", "embed_dim", "batch_size",
                                "max_epochs"))
        require_rate("dropout", self.dropout)
        require_seed("seed", self.seed)
        return self


class CharLM(ModelBase):
    """LSTM next-character predictor over sliding windows: the forward
    LSTM's last state, or both directions' ``cells.birnn_summary``, feeds a
    softmax.  Draw order: embedding, forward cell, backward cell, W_out."""

    def _build(self, rng, embedding):
        cfg = self.cfg
        V = len(self.vocab)
        self.params["embedding"] = init_embedding(V, cfg.embed_dim, rng,
                                                  pretrained=embedding)
        sides = ("fwd_", "bwd_")[:1 + (cfg.direction == "bidirectional")]
        self.lstms = [init_cell_params("lstm", cfg.embed_dim, cfg.hidden, rng)
                      for _ in sides]
        for side, cell in zip(sides, self.lstms):
            self.params.update({f"{side}W": cell.W, f"{side}b": cell.b})
        self._add("W_out", uniform(rng, len(sides) * cfg.hidden, V))
        self._add("b_out", np.zeros(V))

    def _probs(self, ids, train, rng):
        """Next-char distributions (n, V) of the (n, window - 1) contexts
        ``ids``, with dropout when ``train``."""
        x = self._embed(ids, train, rng)
        h = (birnn_summary(run_birnn(x, *self.lstms)) if len(self.lstms) == 2
             else run_rnn(x, *self.lstms)[:, -1])
        if train and self.cfg.dropout > 0:
            h = dropout(h, self.cfg.dropout, rng)
        return T.softmax(h @ self.params["W_out"] + self.params["b_out"],
                         axis=-1)

    def loss_batch(self, ids, targets, rng):
        weights = np.full(len(targets), 1.0 / len(targets))
        return T.cross_entropy_rows(self._probs(ids, True, rng), targets,
                                    weights)

    def nll(self, ids, targets):
        """Total negative log-likelihood of the targets, in nats: the
        training loss (``cross_entropy_rows``) with every row weighted 1."""
        with T.no_grad():
            return T.cross_entropy_rows(self._probs(ids, False, None), targets,
                                        np.ones(len(targets))).item()


def _windows(ids, window):
    """Sliding (window-1)-char contexts and their next-char targets."""
    ctx = window - 1
    idx = np.arange(ctx)[None, :] + np.arange(len(ids) - ctx)[:, None]
    return np.asarray(ids, dtype=np.intp)[idx], np.asarray(ids[ctx:], dtype=np.intp)


def train_char_lm(corpus, cfg):
    """Fit the LM on a raw text corpus; returns (lm, its embedding table,
    held-out perplexity).

    The corpus tail (HOLDOUT_FRACTION) is held out for the perplexity
    estimate and early stopping (cfg.patience), scored cfg.batch_size
    windows at a time, so memory does not grow with it.
    """
    cfg.validate()
    text = nfc(corpus)
    if len(text) <= cfg.window:
        raise InvalidArgument("corpus shorter than the LM window")
    vocab = CharVocab(set(text))
    ids = [vocab.index.get(c, CharVocab.UNK) for c in text]
    cut = max(cfg.window, int(len(ids) * (1.0 - HOLDOUT_FRACTION)))
    train_x, train_y = _windows(ids[:cut], cfg.window)
    held_x, held_y = _windows(ids[cut - cfg.window + 1:], cfg.window)
    lm = CharLM(cfg, vocab, seed=cfg.seed)
    opt = Optimizer(OptimizerSpec("adam", lr=cfg.lr))
    rng = np.random.default_rng(cfg.seed)
    best = math.inf
    best_params = None
    stale = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_y))
        for i in range(0, len(order), cfg.batch_size):
            sel = order[i : i + cfg.batch_size]
            train_step(lm, opt, lambda: lm.loss_batch(
                train_x[sel], train_y[sel], rng), epoch)
        nll = sum(lm.nll(held_x[i:i + cfg.batch_size],
                         held_y[i:i + cfg.batch_size])
                  for i in range(0, len(held_y), cfg.batch_size))
        if nll < best - 1e-9:
            best = nll
            best_params = lm.export_params()
            stale = 0
        else:
            stale += 1
            if stale > cfg.patience:
                break
    if best_params is not None:
        lm.load_params(best_params)
    ppl = math.exp(best / len(held_y))
    return lm, lm.params["embedding"], ppl
