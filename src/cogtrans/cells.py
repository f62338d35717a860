"""Recurrent cells, embeddings and dropout.

LSTM and GRU steps accept either single vectors (d,) or batched rows (B, d);
all gate matrices are (input_dim + hidden_dim, hidden_dim) so one concat and
one matmul per gate does the work.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import InvalidArgument, InvalidShape
from .tensor import Tensor

LSTM_GATES = ("i", "f", "g", "o")
GRU_GATES = ("z", "r", "n")

INIT_SCALE = 0.08         # uniform(-0.08, 0.08) for recurrent weights
FORGET_BIAS = 1.0         # stabilizes early LSTM training


@dataclass
class CellParams:
    kind: str                       # "lstm" | "gru"
    input_dim: int
    hidden_dim: int
    weights: dict = field(default_factory=dict)   # name -> Tensor
    prefix: str = ""                # weight-name prefix inside ``weights``


def init_cell_params(kind, input_dim, hidden_dim, rng, prefix=""):
    gates = LSTM_GATES if kind == "lstm" else GRU_GATES
    w = {}
    for g in gates:
        mat = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(input_dim + hidden_dim, hidden_dim))
        b = np.zeros(hidden_dim)
        if kind == "lstm" and g == "f":
            b += FORGET_BIAS
        w[f"{prefix}W_{g}"] = Tensor(mat, requires_grad=True)
        w[f"{prefix}b_{g}"] = Tensor(b, requires_grad=True)
    return CellParams(kind, input_dim, hidden_dim, w, prefix)


def _gate(p, name, z):
    w = p.weights
    return z @ w[f"{p.prefix}W_{name}"] + w[f"{p.prefix}b_{name}"]


def _check_dims(x, h, p):
    if x.shape[-1] != p.input_dim or h.shape[-1] != p.hidden_dim:
        raise InvalidShape(
            f"cell expects input {p.input_dim} / hidden {p.hidden_dim}, "
            f"got {x.shape[-1]} / {h.shape[-1]}"
        )


def _rowed(t):
    return (T.reshape(t, (1, -1)), True) if t.ndim == 1 else (t, False)


def lstm_step(x, h, c, p):
    """One LSTM step: c' = f*c + i*g, h' = o*tanh(c')."""
    _check_dims(x, h, p)
    x, squeeze = _rowed(x)
    h, _ = _rowed(h)
    c, _ = _rowed(c)
    z = T.concat([x, h], axis=-1)
    i = T.sigmoid(_gate(p, "i", z))
    f = T.sigmoid(_gate(p, "f", z))
    g = T.tanh(_gate(p, "g", z))
    o = T.sigmoid(_gate(p, "o", z))
    c2 = f * c + i * g
    h2 = o * T.tanh(c2)
    if squeeze:
        return T.reshape(h2, (-1,)), T.reshape(c2, (-1,))
    return h2, c2


def gru_step(x, h, p):
    """One GRU step: h' = z*h + (1-z)*n with reset-gated candidate n."""
    _check_dims(x, h, p)
    x, squeeze = _rowed(x)
    h, _ = _rowed(h)
    zc = T.concat([x, h], axis=-1)
    z = T.sigmoid(_gate(p, "z", zc))
    r = T.sigmoid(_gate(p, "r", zc))
    nc = T.concat([x, r * h], axis=-1)
    n = T.tanh(_gate(p, "n", nc))
    h2 = z * h + (1.0 - z) * n
    if squeeze:
        return T.reshape(h2, (-1,))
    return h2


def cell_step(x, state, p):
    """Uniform step interface; state is (h, c) for LSTM, (h,) for GRU."""
    if p.kind == "lstm":
        h, c = lstm_step(x, state[0], state[1], p)
        return h, (h, c)
    h = gru_step(x, state[0], p)
    return h, (h,)


def zero_state(p, batch=None):
    shape = (p.hidden_dim,) if batch is None else (batch, p.hidden_dim)
    if p.kind == "lstm":
        return (Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))
    return (Tensor(np.zeros(shape)),)


def dropout(x, rate, mode, rng):
    """Inverted dropout: kept units scaled by 1/(1-rate) so E[out] == x."""
    if not 0.0 <= rate < 1.0:
        raise InvalidArgument(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return x
    if mode != "train":
        raise InvalidArgument(f"unknown dropout mode {mode!r}")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


@dataclass
class EmbeddingTable:
    table: Tensor          # (vocab_size, embed_dim)
    trainable: bool = True

    @property
    def vocab_size(self):
        return self.table.shape[0]

    @property
    def embed_dim(self):
        return self.table.shape[1]


def init_embedding(vocab_size, embed_dim, rng, pretrained=None, trainable=True):
    if pretrained is not None:
        if isinstance(pretrained, EmbeddingTable):
            pretrained = pretrained.table
        if isinstance(pretrained, Tensor):
            pretrained = pretrained.data
        data = np.array(pretrained, dtype=np.float64)
        if data.shape != (vocab_size, embed_dim):
            raise InvalidShape(
                f"pretrained embedding shape {data.shape} != {(vocab_size, embed_dim)}"
            )
    else:
        data = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size, embed_dim))
    return EmbeddingTable(Tensor(data, requires_grad=trainable), trainable)
