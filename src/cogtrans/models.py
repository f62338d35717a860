"""The four transduction architectures and greedy decoding.

* seq2seq  - encoder-decoder where the encoder summary is fed ("peeked") to
             the decoder at every step
* am       - additive-attention alignment model: a fresh context per step
* han      - hierarchical attention: char-level attention
             (``tensor.additive_attention``) pools fixed-size chunks, and
             the decoder's step attention runs over the chunk-level states
* tn       - transformer: multi-head self-attention, residuals, layer norm

All models share the taped tensor core, train on padded batches, score
only each word's real target positions (``_loss_from_probs``), and decode
greedily through one loop (``transduce_ids``) that steps
a padded batch of words in lockstep through each family's start and
next-step hooks; each row stops at its own EOS, and its attention is cut to
its own steps and source length.  ``transduce_batch`` decodes a list of
words this way, and ``transduce_greedy`` is a batch of one.  Each
recurrent cell is one ``cells.CellParams`` whose gates are stored side by
side, registered in ``params`` (``ModelBase``, shared with the char LM) as
``{prefix}W`` and ``{prefix}b``.  The recurrent models run
each bidirectional encoder layer through ``cells.run_birnn``, one taped op
each way over the whole (B, T, d) sequence (every step's input projected
in one matmul, ``tensor.rnn_seq``).  Under teacher forcing the whole
decoder stack, every step of every layer with its attention, is one taped
op (``tensor.decoder_seq``) that returns [top h | context] for every step,
and the output layer runs once per batch over the rows of the scored
steps.  Greedy decoding is untaped and runs on arrays: each
``decode_step`` runs the attention and cell math of ``decoder_seq``
(``attend_bahdanau``, ``cells.cell_step``) on each layer's state, [h | c]
for LSTM and h for GRU.  The additive-attention keys ``H @ W_h`` are
computed once per batch.
``tn`` trains on packed rows: after the embedding, positional rows and
dropout, which run on the padded (B, T, d) shape, it gathers the real rows
of each side once, the source positions and the scored target positions,
and every projection, FFN, residual add, layer norm and the output layer
run on those (N, d) rows only.  Attention (``tensor.attention``) scatters
them into the padded layout inside its one node; causal attention never
lets a scored position read a target row that was left out.  ``tn``
decodes incrementally on dense (B, 1, d) rows: it encodes the word,
unpacks the encoder rows and projects each decoder layer's cross-attention
keys/values once, and writes
each layer's self-attention keys/values into a cache preallocated for
``max_decode_len`` positions (``DecodeState``), so every step runs the
decoder on the new position only and copies no earlier one.  Every product
with a weight is one GEMM over the flattened rows (``tensor.matmul``).
The model projects each ``tn`` attention block's
queries, keys and values and builds its masks once per pass, and
``multi_head_attention`` runs the scores, mask, softmax and weighted sum of
all heads as one taped op (``tensor.attention``) and the output projection.
"""

from dataclasses import dataclass

import numpy as np

from . import cells, tensor as T
from .cells import (birnn_summary, cell_step, init_cell_params,
                    init_embedding, run_birnn, uniform)
from .devanagari import CharVocab, strip_trailing_repeats, wx_decode, wx_encode
from .errors import (EmptyInput, InvalidArgument, InvalidShape,
                     UnmappedSymbol, require_positive, require_rate)
from .tensor import Tensor

NEG_INF = -1e9

ARCHITECTURES = ("seq2seq", "am", "han", "tn")


def _readable_wx(word):
    """``word`` if the WX codec reads it, which scoring a WX model needs."""
    wx_decode(word)
    return word


# each script a model's corpus may arrive in -> the (read, write) pair that
# turns a word into the model's input and its output back; each raises
# UnmappedSymbol or InvalidArgument on a word it cannot carry
SCRIPTS = {"devanagari": (wx_encode, wx_decode), "wx": (_readable_wx, str),
           "raw": (str, str)}


@dataclass
class ModelConfig:
    architecture: str
    cell: str = "lstm"
    hidden_dim: int = 32
    encoder_layers: int = 1
    decoder_layers: int = 1
    embed_dim: int = 32
    dropout: float = 0.0
    script: str = "raw"
    max_decode_len: int = 32
    # transformer-only
    num_layers: int = 2
    num_heads: int = 4
    d_model: int = 64
    ffn_dim: int = 128
    # han-only
    chunk_size: int = 3

    def validate(self):
        if self.architecture not in ARCHITECTURES:
            raise InvalidArgument(f"unknown architecture {self.architecture!r}")
        if self.script not in SCRIPTS:
            raise InvalidArgument(f"unknown script {self.script!r}")
        if self.cell not in cells.GATES:
            raise InvalidArgument(f"unknown cell {self.cell!r}")
        require_positive(self, ("hidden_dim", "embed_dim", "encoder_layers",
                                "decoder_layers", "num_layers", "num_heads",
                                "d_model", "ffn_dim", "max_decode_len"))
        require_rate("dropout", self.dropout)
        if self.architecture == "tn":
            if self.d_model % 2 != 0:
                raise InvalidArgument("d_model must be even")
            if self.d_model % self.num_heads != 0:
                raise InvalidArgument("d_model must be divisible by num_heads")
        if self.architecture == "han" and self.chunk_size < 1:
            raise InvalidArgument("chunk_size must be >= 1")
        return self


@dataclass
class EncoderOutput:
    """What a recurrent encoder hands the decoder for one batch.

    ``keys`` is filled in after encoding (``_RecurrentModel._start``): every
    decoder step of the batch reads it, so it is computed once, not at every
    step.  Greedy decoding holds them all as arrays (``_decode_start``).
    """

    H: Tensor                       # (B, T, 2h) states the decoder attends over
    final: Tensor                   # (B, 2h) summary: decoder init, seq2seq context
    mask: np.ndarray                # (B, T) 0/1 over H's rows, 0 at padding
    char_alpha: np.ndarray | None = None   # han: (B, K, chunk) char-level weights
    keys: Tensor | None = None      # (B, T, a) attention keys H @ W_h (am, han)


@dataclass
class RecurrentDecodeState:
    """One batch's greedy decoding, as arrays: encoder output, decoder
    layers' states, T."""

    enc: EncoderOutput
    states: list
    n_src: int


@dataclass
class Transduction:
    word: str
    attention: np.ndarray           # decoder steps x encoder steps
    truncated: bool = False


def encode_batch(vocab, words):
    """Pad a list of words to a (B, T) id array plus lengths and 0/1 mask."""
    ids = [vocab.encode(w) for w in words]
    lens = np.array([len(x) for x in ids], dtype=np.intp)
    tmax = int(lens.max())
    out = np.full((len(ids), tmax), CharVocab.PAD, dtype=np.intp)
    for b, x in enumerate(ids):
        out[b, : len(x)] = x
    mask = (np.arange(tmax)[None, :] < lens[:, None]).astype(np.float64)
    return out, lens, mask


def positional_encoding(length, d_model):
    """Sinusoidal position matrix (length, d_model)."""
    if d_model % 2 != 0:
        raise InvalidArgument("d_model must be even")
    pos = np.arange(length)[:, None].astype(np.float64)
    div = np.power(10000.0, np.arange(0, d_model, 2) / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(pos / div)
    pe[:, 1::2] = np.cos(pos / div)
    return pe


def _additive_mask(mask):
    """The additive mask of a 0/1 mask: 0 where it is 1, NEG_INF where 0."""
    return np.where(mask > 0, 0.0, NEG_INF)


def attend_bahdanau(s_prev, H, keys, p, mask):
    """Additive attention: energies_j = v.tanh(W_s s + k_j), k_j = W_h h_j,
    untaped, on arrays: a greedy decoder step's attention.

    s_prev: (B, h_dec); H: (B, T, d_enc); keys: H @ W_h, (B, T, a), which
    do not depend on the decoder step and so are computed once per batch;
    p: the arrays ``W_s`` and ``v``; mask: (B, T) 0/1 over H's rows, 0 at
    padding.  Returns the (B, d_enc) context and the (B, T) weights alpha,
    on the simplex per row.
    """
    if H.shape[1] == 0:
        raise EmptyInput("attention over empty encoder states")
    return T._additive_fwd(s_prev @ p["W_s"], keys, p["v"], H,
                           _additive_mask(mask))[:2]


def multi_head_attention(q, k, v, heads, W_o, mask, q_rows=None,
                         kv_rows=None):
    """Multi-head scaled dot-product attention of projected (B, tq, d)
    queries over projected (B, tk, d) keys and values, then the output
    projection ``W_o``.  ``mask`` is an additive constant that broadcasts to
    (B, heads, tq, tk), or None when no key is masked.  The scores, mask,
    softmax and weighted sum are one taped op (``tensor.attention``), which
    takes packed (N, d) queries, or keys and values, with their (B, t)
    boolean row layouts ``q_rows`` and ``kv_rows``; the output then has the
    queries' packed rows.  Returns the output and the (B, heads, tq, tk)
    weights as an array.
    """
    if q.shape[-1] % heads != 0:
        raise InvalidArgument("model dim not divisible by head count")
    out, weights = T.attention(q, k, v, heads, mask, q_rows, kv_rows)
    return out @ W_o, weights


def _key_mask(src_mask):
    """The additive (B, 1, 1, T) mask over the source keys from the (B, T)
    0/1 source mask."""
    return _additive_mask(src_mask)[:, None, None, :]


def _scored(tgt_mask):
    """The (B, T-1) boolean over the teacher-forced decoder positions whose
    next char is scored, from the (B, T) 0/1 target mask: every position up
    to the one that predicts EOS.  Each row's are a prefix."""
    return tgt_mask[:, 1:] > 0


class ModelBase:
    """The parameter registry of the transducers and the char LM: the
    subclass's ``_build(rng, embedding)`` fills ``params`` in the order it
    draws from the seeded ``rng``; ``_embed`` reads ``params["embedding"]``."""

    def __init__(self, cfg, vocab, seed=0, embedding=None):
        cfg.validate()
        self.cfg = cfg
        self.vocab = vocab
        rng = np.random.default_rng(seed)
        self.params = {}
        self._build(rng, embedding)

    def _add(self, name, array):
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t

    def zero_grads(self):
        for t in self.params.values():
            t.zero_grad()

    def export_params(self):
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_params(self, arrays):
        for k, t in self.params.items():
            if k not in arrays or arrays[k].shape != t.data.shape:
                raise InvalidShape(f"parameter {k} missing or mis-shaped")
            t.data[...] = arrays[k]

    def _embed(self, ids, train, rng):
        x = T.embedding(self.params["embedding"], ids)
        if train and self.cfg.dropout > 0:
            x = cells.dropout(x, self.cfg.dropout, rng)
        return x


class TransductionModel(ModelBase):
    """Batching, cells, the output layer and the greedy-decode loop.

    Subclasses build their parameters in ``_build`` and provide
    ``loss_batch`` (teacher-forced loss of a padded batch) and the two
    decoding hooks that ``transduce_ids`` calls over (B, ...) batches:
    ``_decode_start(src, src_mask)`` encodes the (B, T) source ids, padded
    where the 0/1 mask is 0, and returns the decoding state;
    ``_decode_next(state, prefix)`` takes the (B, t) ids decoded so far, BOS
    first, and returns the next-char distributions (B, V) and the
    decoder-over-source attention rows (B, T), zero over each row's padding.
    """

    def _add_cell(self, in_dim, prefix, rng):
        p = init_cell_params(self.cfg.cell, in_dim, self.cfg.hidden_dim, rng)
        self.params.update({f"{prefix}W": p.W, f"{prefix}b": p.b})
        return p

    def _output_dist(self, rows):
        """Next-char distributions (N, V) from (N, h + c) rows of a top
        decoder state and its context side by side: one step's rows when
        decoding, every step's rows of a batch at once under teacher
        forcing."""
        logits = rows @ self.params["W_out"] + self.params["b_out"]
        return T.softmax(logits, axis=-1)

    # -- public API --------------------------------------------------------
    def loss_words(self, pairs, train=True, rng=None):
        src, _, sm = encode_batch(self.vocab, [p[0] for p in pairs])
        tgt, tl, tm = encode_batch(self.vocab, [p[1] for p in pairs])
        return self.loss_batch(src, sm, tgt, tl, tm, train=train, rng=rng)

    def transduce_ids(self, src, src_mask):
        """Greedy decoding of a padded (B, T) batch of source ids, every row
        stepped in lockstep until each has emitted EOS or ``max_decode_len``
        steps have passed.  Returns per row (output ids, attention,
        truncated): the attention matrix has one row per decoder step of
        that row, the step that emits EOS included, and one column per
        real source symbol; ``truncated`` is set when the row never emitted
        EOS.  A finished row stays in the batch; what it decodes after its
        EOS is dropped."""
        B = src.shape[0]
        prefix = np.full((B, 1), CharVocab.BOS, dtype=np.intp)
        done = np.zeros(B, dtype=bool)
        steps = np.full(B, self.cfg.max_decode_len)
        rows = []
        with T.no_grad():
            state = self._decode_start(src, src_mask)
            for t in range(self.cfg.max_decode_len):
                dist, att = self._decode_next(state, prefix)
                rows.append(att)
                sym = np.argmax(dist, axis=-1)
                stop = (sym == CharVocab.EOS) & ~done
                steps[stop] = t + 1
                done |= stop
                if done.all():
                    break
                prefix = np.concatenate([prefix, sym[:, None]], axis=1)
        att = np.stack(rows, axis=1)                        # (B, steps, T)
        lens = src_mask.sum(axis=1).astype(np.intp)
        chars = steps - done    # a row that stopped spent its last step on EOS
        return [(prefix[b, 1:1 + chars[b]].tolist(),
                 att[b, :steps[b], :lens[b]], not done[b]) for b in range(B)]

    def _loss_from_probs(self, probs, tgt, tgt_len, tgt_mask):
        """Mean CE over real target chars per word, then mean over words,
        from the (N, V) distributions of the scored positions only
        (``_scored``), row-major."""
        rows = _scored(tgt_mask)
        w = tgt_mask[:, 1:] / (tgt_len - 1.0)[:, None] / tgt.shape[0]
        return T.cross_entropy_rows(probs, tgt[:, 1:][rows], w[rows])


def build_model(cfg, vocab, seed=0, embedding=None):
    cls = {
        "seq2seq": Seq2SeqPeekModel,
        "am": AlignmentModel,
        "han": HierarchicalAttentionModel,
        "tn": TransformerModel,
    }[cfg.validate().architecture]
    return cls(cfg, vocab, seed=seed, embedding=embedding)


# ---------------------------------------------------------------------------
# recurrent family

class _RecurrentModel(TransductionModel):
    uses_attention = False
    builds_encoder = True

    def _build(self, rng, embedding):
        cfg = self.cfg
        self.params["embedding"] = init_embedding(
            len(self.vocab), cfg.embed_dim, rng, pretrained=embedding)
        self.enc_cells = []
        if self.builds_encoder:
            in_dim = cfg.embed_dim
            for l in range(cfg.encoder_layers):
                self.enc_cells.append(
                    (self._add_cell(in_dim, f"enc{l}_fwd_", rng),
                     self._add_cell(in_dim, f"enc{l}_bwd_", rng))
                )
                in_dim = 2 * cfg.hidden_dim
        ctx_dim = 2 * cfg.hidden_dim
        self.dec_cells = []
        in_dim = cfg.embed_dim + ctx_dim
        for l in range(cfg.decoder_layers):
            self.dec_cells.append(self._add_cell(in_dim, f"dec{l}_", rng))
            in_dim = cfg.hidden_dim
        self._add("W_init", uniform(rng, 2 * cfg.hidden_dim, cfg.hidden_dim))
        self._add("b_init", np.zeros(cfg.hidden_dim))
        self._add("W_out", uniform(rng, cfg.hidden_dim + ctx_dim, len(self.vocab)))
        self._add("b_out", np.zeros(len(self.vocab)))
        if self.uses_attention:
            self._add("W_s", uniform(rng, cfg.hidden_dim, cfg.hidden_dim))
            self._add("W_h", uniform(rng, 2 * cfg.hidden_dim, cfg.hidden_dim))
            self._add("v", uniform(rng, cfg.hidden_dim, 1))

    def _encode(self, src, src_mask, train, rng):
        H = self._embed(src, train, rng)
        for fwd_cell, bwd_cell in self.enc_cells:
            H = run_birnn(H, fwd_cell, bwd_cell, src_mask)   # (B, T, 2h)
        return EncoderOutput(H, birnn_summary(H), src_mask)

    def _start(self, src, src_mask, train, rng):
        """Encode a batch and set up its decoder: the attention keys, once
        per batch, and each decoder layer's initial state."""
        enc = self._encode(src, src_mask, train, rng)
        if self.uses_attention:
            enc.keys = enc.H @ self.params["W_h"]
        return enc, self._init_dec_state(enc.final, src.shape[0])

    def _init_dec_state(self, final, batch):
        """Each decoder layer's initial (B, S) state: h = tanh(final W_init
        + b_init) for the first layer and zeros above it; an LSTM's c starts
        at zero."""
        zeros = Tensor(np.zeros((batch, self.cfg.hidden_dim)))
        h = T.tanh(final @ self.params["W_init"] + self.params["b_init"])
        states = []
        for _ in self.dec_cells:
            states.append(h if self.cfg.cell == "gru"
                          else T.concat([h, zeros], axis=-1))
            h = zeros
        return states

    def decode_step(self, x_emb, states, enc):
        """One untaped greedy decoder step for a batch of array rows.

        x_emb: (B, embed) embedded previous symbols; states: each decoder
        layer's (B, S) state, as ``cell_step`` takes it.  The context is the
        encoder summary (seq2seq) or attention over H (am, han) from the top
        h.  Returns the top h (B, h) and the context (B, 2h), which the
        output layer reads side by side, then the new states and the
        attention weights (None without attention).  ``loss_batch`` runs
        the same math over all steps as one op.
        """
        n = self.cfg.hidden_dim
        if self.uses_attention:
            p = {k: self.params[k].data for k in ("W_s", "v")}
            ctx, alpha = attend_bahdanau(states[-1][:, :n], enc.H, enc.keys,
                                         p, enc.mask)
        else:
            ctx, alpha = enc.final, None
        h = np.concatenate([x_emb, ctx], axis=-1)
        new_states = []
        for cell, state in zip(self.dec_cells, states):
            new_states.append(cell_step(h, state, cell))
            h = new_states[-1][:, :n]
        return h, ctx, new_states, alpha

    def loss_batch(self, src, src_mask, tgt, tgt_len, tgt_mask, train=True,
                   rng=None):
        """Teacher-forced loss: every decoder step of every layer, and its
        attention, is one taped op (``tensor.decoder_seq``), which computes
        what ``decode_step`` computes at each step.  Dropout on the top
        states draws the masks that per-step dropout draws; then only the
        scored steps' rows reach the output layer."""
        rng = rng or np.random.default_rng(0)
        enc, states = self._start(src, src_mask, train, rng)
        emb_in = self._embed(tgt[:, :-1], train, rng)
        if self.uses_attention:
            p = self.params
            context = enc.H
            attention = (p["W_s"], enc.keys, p["v"], _additive_mask(enc.mask))
        else:
            context, attention = enc.final, None
        out = T.decoder_seq(self.cfg.cell, emb_in, states,
                            [(c.W, c.b) for c in self.dec_cells], context,
                            attention)
        if train and self.cfg.dropout > 0:
            out = cells.dropout_steps(out, self.cfg.dropout, rng,
                                      self.cfg.hidden_dim)
        probs = self._output_dist(out[_scored(tgt_mask)])
        return self._loss_from_probs(probs, tgt, tgt_len, tgt_mask)

    def _decode_start(self, src, src_mask):
        """Encode a batch and set up its decoder, as arrays."""
        enc, states = self._start(src, src_mask, False, None)
        enc.H, enc.final = enc.H.data, enc.final.data
        if enc.keys is not None:
            enc.keys = enc.keys.data
        return RecurrentDecodeState(enc, [s.data for s in states],
                                    src.shape[1])

    def _decode_next(self, state, prefix):
        x = self.params["embedding"].data[prefix[:, -1]]
        h, ctx, state.states, alpha = self.decode_step(x, state.states,
                                                       state.enc)
        rows = Tensor(np.concatenate([h, ctx], axis=-1))
        return (self._output_dist(rows).data,
                self._attention_rows(alpha, state))

    def _attention_rows(self, alpha, state):
        if alpha is None:   # seq2seq: the summary weighs each real char alike
            mask = state.enc.mask
            return mask / mask.sum(axis=1, keepdims=True)
        return alpha


class Seq2SeqPeekModel(_RecurrentModel):
    """No attention: the encoder summary is re-fed at every decoder step."""


class AlignmentModel(_RecurrentModel):
    """Bahdanau-style additive attention over raw encoder states."""

    uses_attention = True


class HierarchicalAttentionModel(_RecurrentModel):
    """Two attention levels: char-level pooling per chunk, then an
    attention-equipped decoder over chunk-level states."""

    uses_attention = True
    builds_encoder = False

    def _build(self, rng, embedding):
        super()._build(rng, embedding)
        cfg = self.cfg
        h2 = 2 * cfg.hidden_dim
        self.char_cells = (self._add_cell(cfg.embed_dim, "chr_fwd_", rng),
                           self._add_cell(cfg.embed_dim, "chr_bwd_", rng))
        self.chunk_cells = (self._add_cell(h2, "chk_fwd_", rng),
                            self._add_cell(h2, "chk_bwd_", rng))
        self._add("W_c", uniform(rng, h2, cfg.hidden_dim))
        self._add("b_c", np.zeros(cfg.hidden_dim))
        self._add("v_c", uniform(rng, cfg.hidden_dim, 1))

    def _char_attention(self, S, mask):
        """S: (N, cs, 2h) states -> pooled (N, 2h) and weights (N, cs) of
        the additive attention v_c·tanh(W_c s_j + b_c) with a learned query:
        one ``tensor.additive_attention`` call whose query is ones and whose
        query weight is b_c as a row."""
        add = _additive_mask(mask)
        # a chunk of padding only stays unmasked; its zero states weigh alike
        add[mask.sum(axis=1) == 0] = 0.0
        p = self.params
        return T.additive_attention(
            Tensor(np.ones((S.shape[0], 1))),
            T.reshape(p["b_c"], (1, -1)), S @ p["W_c"], p["v_c"], S, add)

    def _encode(self, src, src_mask, train, rng):
        cfg = self.cfg
        B, tmax = src.shape
        cs = cfg.chunk_size
        K = -(-tmax // cs)
        pad = K * cs - tmax
        src_p = np.pad(src, ((0, 0), (0, pad)), constant_values=CharVocab.PAD)
        # the PAD symbols that fill the last chunk are masked
        mask_p = np.pad(src_mask, ((0, 0), (0, pad)))
        emb = self._embed(src_p, train, rng)
        flat = T.reshape(emb, (B * K, cs, cfg.embed_dim))
        char_mask = mask_p.reshape(B * K, cs)
        S = run_birnn(flat, *self.char_cells, char_mask)
        pooled, char_alpha = self._char_attention(S, char_mask)
        chunk_in = T.reshape(pooled, (B, K, 2 * cfg.hidden_dim))
        chunk_mask = (mask_p.reshape(B, K, cs).sum(axis=2) > 0).astype(np.float64)
        H = run_birnn(chunk_in, *self.chunk_cells, chunk_mask)   # (B, K, 2h)
        return EncoderOutput(H, birnn_summary(H), chunk_mask,
                             char_alpha.reshape(B, K, cs))

    def _attention_rows(self, alpha, state):
        # expand chunk weights to char columns through the char-level weights;
        # a row's padding columns get no weight: a masked char none within
        # its chunk, a chunk of padding only none at chunk level
        w = alpha[:, :, None] * state.enc.char_alpha          # (B, K, chunk)
        rows = w.reshape(len(w), -1)[:, :state.n_src]
        total = rows.sum(axis=1, keepdims=True)
        return rows / np.where(total > 0, total, 1.0)


# ---------------------------------------------------------------------------
# transformer

class TransformerModel(TransductionModel):
    def _build(self, rng, embedding):
        cfg = self.cfg
        V = len(self.vocab)
        d, f = cfg.d_model, cfg.ffn_dim
        self.params["embedding"] = init_embedding(V, d, rng,
                                                  pretrained=embedding)
        for side, n in (("enc", cfg.num_layers), ("dec", cfg.num_layers)):
            for l in range(n):
                blocks = ["self"] if side == "enc" else ["self", "cross"]
                for blk in blocks:
                    for w in ("W_q", "W_k", "W_v", "W_o"):
                        self._add(f"{side}{l}_{blk}_{w}", uniform(rng, d, d))
                for i, _ in enumerate(blocks + ["ffn"]):
                    self._add(f"{side}{l}_ln{i}_g", np.ones(d))
                    self._add(f"{side}{l}_ln{i}_b", np.zeros(d))
                self._add(f"{side}{l}_ffn_W1", uniform(rng, d, f))
                self._add(f"{side}{l}_ffn_b1", np.zeros(f))
                self._add(f"{side}{l}_ffn_W2", uniform(rng, f, d))
                self._add(f"{side}{l}_ffn_b2", np.zeros(d))
        self._add("W_out", uniform(rng, d, V))
        self._add("b_out", np.zeros(V))
        self._pe = positional_encoding(0, d)   # grown by _embed_pos

    def _kv(self, x, name):
        """The keys and values of attention block ``name`` over rows x."""
        return x @ self.params[name + "W_k"], x @ self.params[name + "W_v"]

    def _self_kv(self, y, l, state):
        """Decoder layer l's self-attention keys and values: y's, or with a
        ``DecodeState`` those of every position decoded so far."""
        kv = self._kv(y, f"dec{l}_self_")
        return kv if state is None else state.extend(l, *kv)

    def _ln(self, x, side, l, i):
        return T.layer_norm(x, self.params[f"{side}{l}_ln{i}_g"],
                            self.params[f"{side}{l}_ln{i}_b"])

    def _ffn(self, x, side, l):
        p = self.params
        h = T.relu(x @ p[f"{side}{l}_ffn_W1"] + p[f"{side}{l}_ffn_b1"])
        return h @ p[f"{side}{l}_ffn_W2"] + p[f"{side}{l}_ffn_b2"]

    def _embed_pos(self, ids, train, rng, start=0):
        """Embed target positions start, start+1, ... of ``ids``'s columns."""
        d = self.cfg.d_model
        end = start + ids.shape[1]
        if len(self._pe) < end:   # rows do not depend on the table's length
            self._pe = positional_encoding(max(end, 2 * len(self._pe)), d)
        x = T.embedding(self.params["embedding"], ids) * np.sqrt(d)
        x = x + Tensor(self._pe[start:end])
        if train and self.cfg.dropout > 0:
            x = cells.dropout(x, self.cfg.dropout, rng)
        return x

    def _encode(self, src, src_mask, train, rng):
        """The top encoder states of the real source positions, where the
        (B, T) 0/1 ``src_mask`` is 1, as packed (N, d) rows, row-major."""
        rows = src_mask > 0
        x = self._embed_pos(src, train, rng)[rows]
        p, mask = self.params, _key_mask(src_mask)
        for l in range(self.cfg.num_layers):
            n = f"enc{l}_self_"
            a = multi_head_attention(x @ p[n + "W_q"], *self._kv(x, n),
                                     self.cfg.num_heads, p[n + "W_o"], mask,
                                     rows, rows)[0]
            x = self._ln(x + a, "enc", l, 0)
            x = self._ln(x + self._ffn(x, "enc", l), "enc", l, 1)
        return x

    def _decode(self, tgt_in, enc_out, src_mask, train, rng, state=None,
                tgt_rows=None):
        """The top decoder states and the last layer's cross-attention
        weights (B, heads, t, T).  Without a state the source is
        ``_encode``'s packed rows; with ``tgt_rows``, a (B, t) boolean, only
        those target positions run, as packed rows, and the states come
        back packed.  Each block projects its queries before
        its keys and values: ``tensor.backward`` adds the gradient parts of
        the block input in the reverse of that order, and another order
        changes the gradients in their last bits.  The projections are
        arguments of ``multi_head_attention``, evaluated left to right, so
        none outlives its block."""
        p, heads = self.params, self.cfg.num_heads
        if state is None:
            start, key_mask, src_rows = 0, _key_mask(src_mask), src_mask > 0
            t = tgt_in.shape[1]
            causal = np.triu(np.full((t, t), NEG_INF), k=1)[None, None]
        else:   # the one new position attends to every cached one
            start, key_mask, src_rows = state.length, state.key_mask, None
            causal = None
        y = self._embed_pos(tgt_in[:, start:], train, rng, start=start)
        if tgt_rows is not None:
            y = y[tgt_rows]
        for l in range(self.cfg.num_layers):
            weights = None   # free the previous layer's before this one runs
            n = f"dec{l}_self_"
            a = multi_head_attention(y @ p[n + "W_q"],
                                     *self._self_kv(y, l, state), heads,
                                     p[n + "W_o"], causal, tgt_rows,
                                     tgt_rows)[0]
            y = self._ln(y + a, "dec", l, 0)
            n = f"dec{l}_cross_"
            a, weights = multi_head_attention(
                y @ p[n + "W_q"],
                *(self._kv(enc_out, n) if state is None else state.cross[l]),
                heads, p[n + "W_o"], key_mask, tgt_rows, src_rows)
            y = self._ln(y + a, "dec", l, 1)
            y = self._ln(y + self._ffn(y, "dec", l), "dec", l, 2)
        if state is not None:
            state.length = tgt_in.shape[1]
        return y, weights

    def forward(self, src, tgt_in, src_mask=None, train=False, rng=None,
                state=None, tgt_rows=None):
        """Next-char distributions (B, T_tgt, V) under teacher forcing, and
        the last decoder layer's cross-attention weights (B, heads, T_tgt,
        T_src), from the ``encode_batch`` ids ``src`` and 0/1 ``src_mask``,
        which is required.  The encoder runs on the real source positions
        only.  With ``tgt_rows``, a (B, T_tgt) boolean, so does the decoder:
        only those positions of ``tgt_in`` run, and their distributions come
        back as packed (N, V) rows, row-major.

        With a ``DecodeState`` from ``_decode_start`` (greedy decoding),
        ``src`` and ``src_mask`` are not read: the state holds the source's
        projected keys/values and its mask.  ``tgt_in`` is then the whole
        prefix decoded so far, one position longer than at the state's
        previous call, and the distributions and weights cover only that
        position.
        """
        if train and rng is None:
            rng = np.random.default_rng(0)
        if state is None:
            if src_mask is None:
                raise InvalidArgument("forward needs the source mask "
                                      "(src_mask) unless it decodes from a "
                                      "DecodeState")
            if src.shape[1] == 0:
                raise EmptyInput("empty source")
        enc = (self._encode(src, src_mask, train, rng) if state is None
               else None)
        y, weights = self._decode(tgt_in, enc, src_mask, train, rng, state,
                                  tgt_rows)
        logits = y @ self.params["W_out"] + self.params["b_out"]
        return T.softmax(logits, axis=-1), weights

    def loss_batch(self, src, src_mask, tgt, tgt_len, tgt_mask, train=True,
                   rng=None):
        """Teacher-forced loss; the decoder runs on the scored positions
        only (``_scored``), which causal attention lets read no other."""
        probs, _ = self.forward(src, tgt[:, :-1], src_mask=src_mask,
                                train=train, rng=rng,
                                tgt_rows=_scored(tgt_mask))
        return self._loss_from_probs(probs, tgt, tgt_len, tgt_mask)

    def _decode_start(self, src, src_mask):
        """Encode the source, unpack its rows into the padded (B, T, d)
        layout (zeros at padding, which the key mask hides), project each
        decoder layer's cross-attention keys/values and allocate its
        self-attention cache, once per decoded batch."""
        packed = self._encode(src, src_mask, False, None)
        enc = Tensor(T._unpack(packed.data, src_mask > 0))
        layers = range(self.cfg.num_layers)
        shape = (src.shape[0], self.cfg.max_decode_len, self.cfg.d_model)
        return DecodeState(
            _key_mask(src_mask),
            [self._kv(enc, f"dec{l}_cross_") for l in layers],
            [(np.empty(shape), np.empty(shape)) for _ in layers])

    def _decode_next(self, state, prefix):
        probs, weights = self.forward(None, prefix, state=state)
        return probs.data[:, -1], weights[:, :, -1].mean(axis=1)


@dataclass
class DecodeState:
    """One batch's ``tn`` decoding cache, made by ``_decode_start`` and
    extended by ``TransformerModel.forward``.

    ``key_mask`` is the additive mask over the cross-attention keys
    (``_key_mask``), ``cross`` each decoder layer's projected
    cross-attention (keys, values), ``self_kv`` each decoder layer's
    self-attention (keys, values) as preallocated (B, max_decode_len, d)
    arrays whose first ``length`` positions hold the target positions
    decoded so far.
    """

    key_mask: np.ndarray
    cross: list
    self_kv: list
    length: int = 0

    def extend(self, layer, k, v):
        """Write the new positions' keys k and values v into ``layer``'s
        cache after the ``length`` cached ones, and return views of the
        (keys, values) of every position so far.  Decoding is untaped, so
        k and v must not require a gradient."""
        if k.requires_grad or v.requires_grad:
            raise InvalidArgument("the decode cache holds untaped keys and "
                                  "values only")
        K, V = self.self_kv[layer]
        end = self.length + k.shape[1]
        if end > K.shape[1]:
            raise InvalidShape(f"decode cache holds {K.shape[1]} positions, "
                               f"asked for {end}")
        K[:, self.length:end] = k.data
        V[:, self.length:end] = v.data
        return Tensor(K[:, :end]), Tensor(V[:, :end])


# ---------------------------------------------------------------------------
# word-level convenience

# Words per lockstep batch.  A batch steps every row until its longest
# decode ends, and its encoder and decoder states grow with its rows, so
# transduce_batch sorts the words by length and decodes them in batches of
# this size.  On the benchmark's am and tn models (one BLAS thread), sorted
# batches of 32 decoded its 220 held-out words 29% (am) and 21% (tn) faster
# than one batch of all 220 and as fast as batches of 64, and raised peak
# memory over the per-word decoder's by 2.0 MiB where 64 raised it by 5.7
# (BENCH_batched_decode.json).
DECODE_BATCH = 32


def transduce_batch(model, words):
    """Greedy transduction of a list of words; returns one ``Transduction``
    per word, in input order: the string, the decoder-over-encoder
    attention matrix (one row per decoder step, one column per source
    symbol, BOS and EOS included) and a truncation flag.  The words are
    decoded in lockstep batches of up to ``DECODE_BATCH`` words of similar
    length (``transduce_ids``).

    ``han`` output is cleaned of repeated trailing graphemes, as the paper
    does before scoring: of the Devanagari a WX word spells when the model's
    script is not ``raw``, and a word the WX codec cannot read is left as it
    is.  The attention matrix keeps one row per decoder step.
    """
    if not all(words):
        raise EmptyInput("empty word")
    out = [None] * len(words)
    script = None if model.cfg.script == "raw" else "wx"
    order = sorted(range(len(words)), key=lambda i: len(words[i]))
    for start in range(0, len(order), DECODE_BATCH):
        rows = order[start:start + DECODE_BATCH]
        src, _, mask = encode_batch(model.vocab, [words[i] for i in rows])
        decoded = model.transduce_ids(src, mask)
        for i, (ids, att, truncated) in zip(rows, decoded):
            word = model.vocab.decode(ids)
            if model.cfg.architecture == "han":
                try:
                    word = strip_trailing_repeats(word, script)
                except UnmappedSymbol:   # WX the codec cannot read
                    pass
            out[i] = Transduction(word, att, truncated)
    return out


def transduce_greedy(model, word):
    """Greedy transduction of one word: a batch of one."""
    return transduce_batch(model, [word])[0]
