"""Span tracing of cogtrans from outside the program.

``Tracer.install`` replaces layer functions of the loaded ``cogtrans``
modules with timing wrappers; ``uninstall`` puts the originals back.  Each
wrapped layer call records one span (name, start, end, parent span, scope),
kept in memory until the benchmark writes them out.  Tensor ops run about a
million times per training round, far too many to keep as spans, so they
are tallied per (scope, op) instead: nodes built, nodes put on the tape,
forward self time and backward time.  The scope is the architecture the
workload is exercising, set by the caller.
"""

import json
import statistics
import time
from collections import Counter, defaultdict

clock = time.perf_counter

# tensor ops tallied by name; nodes built by any other op count as "other"
OPS = ("add", "sub", "mul", "neg", "tanh", "sigmoid", "relu", "matmul",
       "concat", "stack", "getitem", "transpose", "reshape", "tsum",
       "embedding", "softmax", "layer_norm", "cross_entropy_rows")
_WRAPPED_OPS = OPS + ("exp", "log", "sqrt", "tmean", "gather_rows",
                      "cross_entropy")

# spans that start a phase; every span below one inherits its phase
PHASES = ("batch.forward", "eval.forward", "models.transduce")

NAME, START, END, PARENT, SCOPE, PHASE, ROOT, NOTE = range(8)
NODES, TAPE, CALLS, FWD, BWD_CALLS, BWD = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = defaultdict(lambda: [0, 0, 0, 0.0, 0, 0.0])
        self.scope = None
        self.enabled = False
        self._open = []
        self._op_stack = []
        self._patches = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, note=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            spans = tracer.spans
            parent = tracer._open[-1] if tracer._open else -1
            if parent < 0:
                phase, root = None, len(spans)
            else:
                phase, root = spans[parent][PHASE], spans[parent][ROOT]
            if label in PHASES:
                phase = label
            rec = [label, 0.0, 0.0, parent, tracer.scope, phase, root, None]
            tracer._open.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                tracer._open.pop()
            if note is not None:
                rec[NOTE] = note(args, out)
            return out

        return wrapper

    def _op(self, name, fn):
        tracer = self

        def op(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack = tracer._op_stack
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat = tracer.ops[(tracer.scope, name)]
                stat[CALLS] += 1
                stat[FWD] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return op

    def _make(self, fn, graph_cls):
        tracer = self

        def make(data, parents, backward_fn):
            if not tracer.enabled:
                return fn(data, parents, backward_fn)
            name = tracer._op_stack[-1][0] if tracer._op_stack else "other"
            stat = tracer.ops[(tracer.scope, name if name in OPS else "other")]
            stat[NODES] += 1
            if graph_cls.current is None:
                return fn(data, parents, backward_fn)

            def timed_backward(g):
                t0 = clock()
                try:
                    return backward_fn(g)
                finally:
                    stat[BWD] += clock() - t0
                    stat[BWD_CALLS] += 1

            out = fn(data, parents, timed_backward)
            if out._backward is not None:
                stat[TAPE] += 1
            return out

        return make

    # -- installation -----------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, cogtrans):
        """Wrap the layer boundaries of an imported ``cogtrans`` package.

        Names are patched where the caller looks them up: ``models`` holds
        its own reference to ``cell_step``, ``cli`` to ``transduce_greedy``,
        ``load_checkpoint`` and ``restore_model``, and ``oov`` to
        ``corpus_bleu``.
        """
        T, models, training = cogtrans.tensor, cogtrans.models, cogtrans.training
        cli, metrics, oov = cogtrans.cli, cogtrans.metrics, cogtrans.oov
        for name in _WRAPPED_OPS:
            self._patch(T, name, self._op(name, getattr(T, name)))
        self._patch(T, "_make", self._make(T._make, T.Graph))
        span = self._span
        self._patch(T, "backward", span("tensor.backward", T.backward))
        self._patch(models, "cell_step", span("cells.step", models.cell_step))
        for name in ("attend_bahdanau", "multi_head_attention"):
            self._patch(models, name, span("models.attention",
                                           getattr(models, name)))
        base = models.TransductionModel
        self._patch(base, "loss_words", span(
            lambda args: ("batch.forward" if T.Graph.current is not None
                          else "eval.forward"), base.loss_words))
        self._patch(base, "_output_dist",
                    span("models.output", base._output_dist))
        for cls in (models._RecurrentModel, models.HierarchicalAttentionModel,
                    models.TransformerModel):
            self._patch(cls, "_encode", span("models.encode",
                                             cls.__dict__["_encode"]))
        rec = models._RecurrentModel
        self._patch(rec, "decode_step", span("models.decode_step",
                                             rec.decode_step))
        tn = models.TransformerModel
        self._patch(tn, "forward", span("models.tn_forward", tn.forward))
        self._patch(tn, "_decode", span("models.decoder", tn._decode))
        self._patch(cli, "transduce_greedy", span(
            "models.transduce", cli.transduce_greedy,
            note=lambda args, out: (args[1], bool(out.truncated))))
        self._patch(training.Optimizer, "step",
                    span("training.optimizer", training.Optimizer.step))
        self._patch(training, "train", span("training.train", training.train))
        self._patch(cli, "load_checkpoint",
                    span("training.load_checkpoint", cli.load_checkpoint))
        self._patch(cli, "restore_model",
                    span("training.restore_model", cli.restore_model))
        self._patch(metrics, "score_items",
                    span("metrics.score_items", metrics.score_items))
        self._patch(oov, "corpus_bleu",
                    span("metrics.corpus_bleu", oov.corpus_bleu))
        for name, label in (("align_from_attention", "oov.align"),
                            ("detect_oov", "oov.detect"),
                            ("build_shortlist", "oov.shortlist")):
            self._patch(oov, name, span(label, getattr(oov, name)))
        self._patch(cli, "run_cli", span(lambda args: "cli." + args[0][0],
                                         cli.run_cli))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------
    def counts(self):
        """Work counts that must repeat exactly when a round is repeated."""
        out = Counter()
        for (scope, op), stat in self.ops.items():
            out[f"tape_nodes.{scope}"] += stat[TAPE]
            out[f"op_nodes.{op}"] += stat[NODES]
        for rec in self.spans:
            name, scope = rec[NAME], rec[SCOPE]
            if name in ("cells.step", "models.encode", "models.transduce",
                        "models.decode_step", "models.tn_forward"):
                out[f"{name}.{scope}"] += 1
        return dict(out)

    def write(self, fh, round_index):
        """Append this tracer's spans and op tallies as JSON lines."""
        for i, rec in enumerate(self.spans):
            fh.write(json.dumps({
                "round": round_index, "id": i, "name": rec[NAME],
                "start": rec[START], "end": rec[END], "parent": rec[PARENT],
                "scope": rec[SCOPE]}) + "\n")
        for (scope, op), stat in sorted(self.ops.items(),
                                        key=lambda kv: (str(kv[0][0]), kv[0][1])):
            fh.write(json.dumps({
                "round": round_index, "op": op, "scope": scope,
                "nodes": stat[NODES], "tape_nodes": stat[TAPE],
                "calls": stat[CALLS], "forward_s": stat[FWD],
                "backward_calls": stat[BWD_CALLS], "backward_s": stat[BWD]})
                + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

TRAIN_ARCHS = ("seq2seq", "am", "han", "tn")
RECURRENT = ("seq2seq", "am", "han")
ATTENTION = ("am", "han", "tn")
DECODED = ("am", "tn")


def layer_unit(name):
    if "_us" in name:
        return "us"
    if "_ms" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


def _tail(values):
    """The highest percentile with at least ten samples beyond it; the
    median when there are fewer than forty samples."""
    ordered = sorted(values)
    if len(ordered) < 40:
        return ordered[len(ordered) // 2] if ordered else 0.0
    return ordered[len(ordered) - 11]


def layer_metrics(tracers):
    """Per-layer metrics from the tracers of repeated traced rounds.

    Per-batch figures cover training batches (the taped forward and what it
    calls), per-word figures cover ``transduce_greedy`` calls, and totals
    are per round.  Layer times are inclusive of the layers they call,
    except ``cli.self_ms`` and the ``tn`` output time, which subtract child
    spans.  A layer a workload does not reach reads 0.
    """
    rounds = len(tracers)
    total, count, self_time = Counter(), Counter(), Counter()
    transduce = defaultdict(list)
    truncated = Counter()
    oov_calls, oov_unique, oov_ms = 0, 0, 0.0
    for tr in tracers:
        spans = tr.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        unique = defaultdict(set)
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            for key in ((rec[NAME], rec[SCOPE], rec[PHASE]),
                        (rec[NAME], rec[SCOPE], "*"), (rec[NAME], "*", "*")):
                total[key] += dur
                count[key] += 1
                self_time[key] += dur - child[i]
            if rec[NAME] == "models.transduce":
                transduce[rec[SCOPE]].append(dur)
                word, cut = rec[NOTE]
                truncated[rec[SCOPE]] += cut
                if spans[rec[ROOT]][NAME] == "cli.oov-correct":
                    oov_calls += 1
                    oov_ms += dur
                    unique[rec[ROOT]].add(word)
        oov_unique += sum(len(words) for words in unique.values())

    def ms(key, per):
        return 1e3 * total[key] / per if per else 0.0

    m = {}
    for a in TRAIN_ARCHS:
        batches = count[("batch.forward", a, "batch.forward")]
        tape = sum(st[TAPE] for tr in tracers
                   for (scope, _), st in tr.ops.items() if scope == a)
        m[f"tensor.tape_nodes_per_batch.{a}"] = tape / batches if batches else 0.0
        m[f"tensor.forward_ms_per_batch.{a}"] = ms(("batch.forward", a, "*"), batches)
        m[f"tensor.backward_ms_per_batch.{a}"] = ms(("tensor.backward", a, "*"), batches)
        m[f"training.optimizer_ms_per_batch.{a}"] = ms(("training.optimizer", a, "*"), batches)
        m[f"models.encode_ms_per_batch.{a}"] = ms(("models.encode", a, "batch.forward"), batches)
        if a == "tn":
            out = 1e3 * self_time[("models.tn_forward", a, "batch.forward")]
            m[f"models.output_ms_per_batch.{a}"] = out / batches if batches else 0.0
        else:
            m[f"models.output_ms_per_batch.{a}"] = ms(("models.output", a, "batch.forward"), batches)
        if a in ATTENTION:
            m[f"models.attention_ms_per_batch.{a}"] = ms(
                ("models.attention", a, "batch.forward"), batches)
        if a in RECURRENT:
            steps = count[("cells.step", a, "batch.forward")]
            m[f"cells.steps_per_batch.{a}"] = steps / batches if batches else 0.0
            used = steps + count[("cells.step", a, "models.transduce")]
            busy = (total[("cells.step", a, "batch.forward")]
                    + total[("cells.step", a, "models.transduce")])
            m[f"cells.step_us.{a}"] = 1e6 * busy / used if used else 0.0
    for a in DECODED:
        words = len(transduce[a])
        step = "models.tn_forward" if a == "tn" else "models.decode_step"
        steps = count[(step, a, "models.transduce")]
        m[f"models.decode_steps_per_word.{a}"] = steps / words if words else 0.0
        encodes = count[("models.encode", a, "models.transduce")]
        m[f"models.encode_calls_per_word.{a}"] = encodes / words if words else 0.0
        m[f"models.transduce_ms_p50.{a}"] = 1e3 * (statistics.median(transduce[a])
                                                    if words else 0.0)
        m[f"models.transduce_ms_tail.{a}"] = 1e3 * _tail(transduce[a])
        m[f"models.truncated_words.{a}"] = truncated[a] / rounds
        calls = count[("cli.evaluate", a, "*")] + count[("cli.oov-correct", a, "*")]
        restore = (total[("training.load_checkpoint", a, "*")]
                   + total[("training.restore_model", a, "*")])
        m[f"training.restore_ms.{a}"] = 1e3 * restore / calls if calls else 0.0
        m[f"metrics.score_items_ms.{a}"] = ms(("metrics.score_items", a, "*"), calls)
    m["metrics.corpus_bleu_ms"] = ms(("metrics.corpus_bleu", "*", "*"), rounds)
    m["oov.transducer_calls"] = oov_calls / rounds
    m["oov.unique_words_transduced"] = oov_unique / rounds
    m["oov.transducer_ms"] = 1e3 * oov_ms / rounds
    for name in ("align", "detect", "shortlist"):
        m[f"oov.{name}_ms"] = ms((f"oov.{name}", "*", "*"), rounds)
    for cmd in ("evaluate", "oov-correct"):
        key = (f"cli.{cmd}", "*", "*")
        m[f"cli.self_ms.{cmd}"] = (1e3 * self_time[key] / count[key]
                                   if count[key] else 0.0)
    per_op = defaultdict(lambda: [0, 0, 0.0, 0, 0.0])
    for tr in tracers:
        for (_, op), st in tr.ops.items():
            agg = per_op[op if op in OPS else "other"]
            agg[0] += st[NODES]
            agg[1] += st[CALLS]
            agg[2] += st[FWD]
            agg[3] += st[BWD_CALLS]
            agg[4] += st[BWD]
    for op in OPS + ("other",):
        nodes, calls, fwd, bwd_calls, bwd = per_op[op]
        m[f"tensor.op_nodes.{op}"] = nodes / rounds
        m[f"tensor.op_forward_us.{op}"] = 1e6 * fwd / calls if calls else 0.0
        m[f"tensor.op_backward_us.{op}"] = 1e6 * bwd / bwd_calls if bwd_calls else 0.0
    return m
