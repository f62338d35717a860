"""Recurrent cells and their runners, the embedding initialiser and dropout.

A cell stores its gates side by side, as PyTorch's ``nn.LSTM`` does: one
(input_dim + hidden_dim, G * hidden_dim) matrix ``W`` and one (G *
hidden_dim,) bias ``b``, gates i|f|g|o for LSTM and z|r|n for GRU; the
checkpoint keeps the same two arrays.  A whole recurrence over (B, T, d)
inputs from a zero state (``run_rnn``: the encoders and the char LM) is one
taped op (``tensor.rnn_seq``) that projects every step's input in one
matmul, and ``run_birnn`` runs one each way for every bidirectional encoder
(the models' and the char LM's).  Under teacher forcing the models run a
whole decoder stack over every step as one taped op
(``tensor.decoder_seq``), with ``dropout_steps`` drawing its top states'
masks as per-step dropout would.  A step whose input depends on the step
before (``cell_step``: greedy decoding) is untaped and runs on arrays.  All
three run one step function per cell kind (``tensor._CELLS``) and carry a
cell's state as one (B, S) array whose first hidden_dim columns are h
([h | c] for LSTM, h for GRU).  Only the sequence op masks padding: its
padded rows keep their state, while a decoder step steps every row.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InvalidShape, require_rate
from .tensor import Tensor

GATES = {"lstm": 4, "gru": 3}   # gates per kind: i|f|g|o, z|r|n

INIT_SCALE = 0.08         # uniform(-0.08, 0.08) for recurrent weights
FORGET_BIAS = 1.0         # stabilizes early LSTM training


def uniform(rng, *shape):
    """A ``shape`` array drawn uniform(-INIT_SCALE, INIT_SCALE) from ``rng``."""
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


@dataclass
class CellParams:
    """An LSTM or GRU cell: W is (input_dim + hidden_dim, G * hidden_dim)
    and b is (G * hidden_dim,), the gates side by side."""

    kind: str                       # "lstm" | "gru"
    input_dim: int
    hidden_dim: int
    W: Tensor
    b: Tensor


def init_cell_params(kind, input_dim, hidden_dim, rng):
    """Each gate's matrix drawn uniform(-0.08, 0.08) in gate order, then
    side by side; biases zero but an LSTM's forget gate (columns
    [h:2h]), which starts at 1."""
    W = np.concatenate([
        uniform(rng, input_dim + hidden_dim, hidden_dim)
        for _ in range(GATES[kind])], axis=1)
    b = np.zeros(GATES[kind] * hidden_dim)
    if kind == "lstm":
        b[hidden_dim:2 * hidden_dim] = FORGET_BIAS
    return CellParams(kind, input_dim, hidden_dim,
                      Tensor(W, requires_grad=True),
                      Tensor(b, requires_grad=True))


def cell_step(x, state, cell):
    """One untaped step of a cell over (B, d) array rows: the (B, S) state
    ([h | c] for LSTM, h for GRU) in, the new state out.  It is the kind's
    step in ``tensor._CELLS``, which ``tensor.rnn_seq`` and
    ``tensor.decoder_seq`` run too.  Every row steps.
    """
    width, step = T._CELLS[cell.kind][:2]
    d, n = cell.input_dim, cell.hidden_dim
    if x.shape[-1] != d or state.shape[-1] != width * n:
        raise InvalidShape(
            f"cell expects input {d} / state {width * n}, "
            f"got {x.shape[-1]} / {state.shape[-1]}"
        )
    W = cell.W.data
    return step(x @ W[:d] + cell.b.data, state, W[d:])[0]


def run_rnn(X, cell, mask=None, reverse=False):
    """Run a cell over (B, T, d) inputs from a zero state, last step first
    when ``reverse``, as one taped op; returns every step's (B, T, h)
    output in input order.  Where the (B, T) 0/1 ``mask`` is 0 (padding)
    the state stays put."""
    if X.shape[-1] != cell.input_dim:
        raise InvalidShape(f"cell expects input {cell.input_dim}, "
                           f"got {X.shape[-1]}")
    return T.rnn_seq(cell.kind, X, cell.W, cell.b, mask, reverse)


def run_birnn(X, fwd_cell, bwd_cell, mask=None):
    """``run_rnn`` each way over X, the (B, T, 2h) states side by side."""
    return T.concat([run_rnn(X, fwd_cell, mask),
                     run_rnn(X, bwd_cell, mask, reverse=True)], axis=-1)


def birnn_summary(H):
    """The (B, 2h) summary of ``run_birnn``'s states H: each direction's
    state after its last step (the forward half of step T - 1, frozen at a
    padded row's last char, and the backward half of step 0), one slice."""
    n = H.shape[-1] // 2
    return H[:, np.repeat([H.shape[1] - 1, 0], n), np.arange(2 * n)]


def _keep(shape, rate, rng):
    """An inverted-dropout mask of ``shape`` drawn from ``rng``: 0 where a
    unit is dropped, 1/(1-rate) where it is kept."""
    require_rate("dropout rate", rate)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(x, rate, rng):
    """Inverted dropout for training: kept units scaled by 1/(1-rate) so
    E[out] == x.  Callers skip it outside training."""
    return x * Tensor(_keep(x.shape, rate, rng))


def dropout_steps(x, rate, rng, width):
    """``dropout`` of the first ``width`` columns of (B, S, ·) step rows,
    the other columns kept as they are.  The mask is drawn step by step, as
    S draws of (B, width) in step order, so it is the mask that dropping
    each step's rows in turn draws."""
    B, S, _ = x.shape
    mask = np.ones(x.shape)
    mask[:, :, :width] = np.swapaxes(_keep((S, B, width), rate, rng), 0, 1)
    return x * Tensor(mask)


def init_embedding(vocab_size, embed_dim, rng, pretrained=None):
    """A trainable (vocab_size, embed_dim) table: the rows of the
    ``pretrained`` array when given, else uniform(-0.08, 0.08)."""
    if pretrained is not None:
        data = np.array(pretrained, dtype=np.float64)
        if data.shape != (vocab_size, embed_dim):
            raise InvalidShape(
                f"pretrained embedding shape {data.shape} != {(vocab_size, embed_dim)}"
            )
    else:
        data = uniform(rng, vocab_size, embed_dim)
    return Tensor(data, requires_grad=True)
