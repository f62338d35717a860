"""Command-line surface: training, transduction, evaluation, pretraining,
tuning, OOV correction, the WX codec, synthetic data generation, and error
reports.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import data_io, embeddings, metrics, oov, synthetic, training
from .cells import GATES
from .devanagari import (
    CharVocab,
    build_vocab,
    classify_errors,
    wx_decode,
    wx_encode,
)
from .errors import (CogtransError, EmptyInput, InvalidArgument,
                     UnmappedSymbol, build_config, require_finite,
                     require_type)
from .models import (ARCHITECTURES, SCRIPTS, ModelConfig, transduce_batch,
                     transduce_greedy)
from .training import (
    OptimizerSpec,
    TrainConfig,
    average_checkpoints,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)


CHECKPOINT_DIR_ENV = "COGTRANS_CHECKPOINT_DIR"


def _config(cls, args, section=None):
    """A ``cls`` config from the flags named after its fields, then the keys
    of a ``--config`` section, which win over the flags."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if getattr(args, f.name, None) is not None}
    return build_config(cls, {**flags, **(section or {})}, "run config")


def _axis(text):
    """``name=v1,v2,...`` -> (name, values converted to the field's type);
    the name must be a config field's."""
    name, sep, values = text.partition("=")
    if not sep:
        raise CogtransError(f"--axis expects name=v1,v2,..., got {text!r}")
    if name not in training.CONFIG_FIELDS:
        raise InvalidArgument(f"--axis: unknown hyperparameter {name!r}")
    kind = training.CONFIG_FIELDS[name][1]
    out = [require_type(f"--axis {name}", kind, data_io._coerce(raw))
           for raw in values.split(",")]
    if kind is float:   # no float field takes NaN or infinity
        for value in out:
            require_finite(f"--axis {name}", value)
    return name, out


def _sizes(text):
    """``K1,K2,...`` -> the shortlist sizes of ``--sizes``, each >= 1."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise CogtransError(
            f"--sizes expects comma-separated integers, got {text!r}"
        ) from None
    for K in sizes:
        if K < 1:
            raise InvalidArgument(f"--sizes: K must be >= 1, got {K}")
    return sizes


def _at_line(path, line_no, fn, *args):
    """``fn(*args)``; a codec or script error names ``path`` and the line."""
    try:
        return fn(*args)
    except (InvalidArgument, UnmappedSymbol) as exc:
        raise InvalidArgument(f"{path}: line {line_no}: {exc}") from None


def _model_pairs(path, rows, script):
    """The pairs of ``path``'s ``cognate_rows`` as a model of ``script``
    reads them (``SCRIPTS``)."""
    read = SCRIPTS[script][0]
    return [(_at_line(path, n, read, src), _at_line(path, n, read, tgt))
            for n, src, tgt in rows]


def _tagger(path, lines, triples, script):
    """``score_items``' tags function: ``classify_errors`` of each of the
    ``triples``, read from lines ``lines`` of ``path``, computed once."""
    tags = {triple: _at_line(path, n, classify_errors, *triple, script)
            for n, triple in zip(lines, triples)}
    return lambda *triple: tags[triple]


def _wx_or_empty(convert, word):
    """``convert(word)``, or "" where the WX codec cannot read ``word``."""
    try:
        return convert(word)
    except (UnmappedSymbol, InvalidArgument):
        return ""


def _loss_curve_svg(history, path):
    """Minimal SVG line chart of train/validation loss per epoch."""
    width, height, pad = 640, 400, 45
    xs = [c.epoch for c in history]
    series = {
        "train": [c.train_loss for c in history],
        "validation": [c.val_loss for c in history],
    }
    lo = min(min(v) for v in series.values())
    hi = max(max(v) for v in series.values())
    span = (hi - lo) or 1.0
    xspan = (max(xs) - min(xs)) or 1

    def pt(x, y):
        px = pad + (x - min(xs)) / xspan * (width - 2 * pad)
        py = height - pad - (y - lo) / span * (height - 2 * pad)
        return f"{px:.1f},{py:.1f}"

    colors = {"train": "#1f77b4", "validation": "#d62728"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" '
        f'font-size="14">loss per epoch</text>',
    ]
    for name, values in series.items():
        points = " ".join(pt(x, y) for x, y in zip(xs, values))
        parts.append(
            f'<polyline fill="none" stroke="{colors[name]}" '
            f'stroke-width="1.5" points="{points}"/>'
        )
    parts.append(
        f'<text x="{pad}" y="{height-10}" font-size="11">'
        f'epochs {min(xs)}..{max(xs)}; loss {lo:.4f}..{hi:.4f} '
        f'(blue train, red validation)</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_train(args):
    if args.avg_last < 0:
        raise CogtransError(f"--avg-last must be >= 0, got {args.avg_last}")
    run_cfg = (data_io.load_config(args.config) if args.config
               else data_io.RunConfig())
    model_cfg = _config(ModelConfig, args, run_cfg.model).validate()
    train_cfg = _config(TrainConfig, args, run_cfg.train).validate()
    if args.avg_last > train_cfg.max_epochs:
        raise CogtransError(f"--avg-last {args.avg_last} is above the run's "
                            f"{train_cfg.max_epochs} epochs")
    opt = _config(OptimizerSpec, args, run_cfg.optimizer).normalized()
    pairs = _model_pairs(args.data, data_io.cognate_rows(args.data),
                         model_cfg.script)
    split = data_io.split_dataset(pairs, seed=args.split_seed)
    vocab = build_vocab(split.train + split.validation)
    embedding = None
    if args.embed_vectors:
        store = embeddings.WordVectorStore.load(args.embed_vectors)
        # a symbol with no vector starts from a zero row
        symbols = vocab.symbols[len(CharVocab.SPECIALS):]
        missing = [s for s in symbols if s not in store]
        if len(missing) == len(symbols):
            raise EmptyInput(
                f"{args.embed_vectors}: no vector for any of the "
                f"{len(symbols)} vocabulary symbols; the vectors may be in "
                f"another script than the model's ({model_cfg.script})")
        if missing:
            print(f"uncovered characters: {' '.join(missing)}",
                  file=sys.stderr)
        embedding = np.array([store[s] if s in store else np.zeros(store.dim)
                              for s in vocab.symbols])
    result = train(model_cfg, train_cfg, opt, split, embedding, vocab)
    ckpt = result.best
    if args.avg_last > 1:
        k = min(args.avg_last, len(result.history))
        if k < args.avg_last:
            print(f"warning: early stopping left {k} epochs; --avg-last "
                  f"averages those {k}", file=sys.stderr)
        avg = average_checkpoints(result.history, k)
        ckpt = dataclasses.replace(result.best, params=avg)
    out = args.out or os.path.join(os.environ.get(CHECKPOINT_DIR_ENV, "."),
                                   f"{model_cfg.architecture}.ckpt")
    save_checkpoint(ckpt, out)
    if args.plot:
        _loss_curve_svg(result.history, args.plot)
    # a split of at least 4 pairs holds at least one test pair
    test_metrics = training.evaluate_model(restore_model(ckpt), split.test)
    print(f"checkpoint: {out}")
    print(f"epochs run: {len(result.history)}  best epoch: {result.best.epoch}")
    print(f"best validation loss: {result.best.val_loss:.6f}")
    for key, value in sorted(test_metrics.items()):
        print(f"test {key}: {value:.4f}")
    return 0


def _cmd_transduce(args):
    model = restore_model(load_checkpoint(args.model))
    read, write = SCRIPTS[model.cfg.script]
    result = transduce_greedy(model, read(args.word))
    word = result.word
    try:
        word = write(word)
    except UnmappedSymbol as exc:
        print(f"warning: output is WX the codec cannot read ({exc}); "
              "printed unchanged", file=sys.stderr)
    print(word)
    if args.attention:
        for row in result.attention:
            print("\t".join(f"{x:.4f}" for x in row))
    if result.truncated:
        print("warning: decode truncated at max length", file=sys.stderr)
    return 0


def _cmd_evaluate(args):
    rows = data_io.cognate_rows(args.data)
    reports = {}
    for path in args.model:
        model = restore_model(load_checkpoint(path))
        arch, script = model.cfg.architecture, model.cfg.script
        pairs = _model_pairs(args.data, rows, script)
        decoded = transduce_batch(model, [src for src, _ in pairs])
        triples = [(src, gold, out.word)
                   for (src, gold), out in zip(pairs, decoded)]
        tags_fn = (None if script == "raw" else
                   _tagger(args.data, [n for n, _, _ in rows], triples, "wx"))
        report = metrics.score_items(triples, tags_fn=tags_fn)
        report.truncated = sum(out.truncated for out in decoded)
        name = arch if arch not in reports else os.path.basename(path)
        k = 1
        while name in reports:   # the same file name in another directory
            k += 1
            name = f"{os.path.basename(path)}-{k}"
        reports[name] = report
        if args.report:
            base, ext = os.path.splitext(args.report)
            out = args.report if len(args.model) == 1 else f"{base}-{name}{ext}"
            metrics.write_report_tsv(report, out)
    print(metrics.summary_table(reports))
    return 0


def _cmd_pretrain_embed(args):
    if args.mode == "lm":
        lm, table, ppl = embeddings.train_char_lm(
            data_io.read_text(args.corpus),
            _config(embeddings.CharLMConfig, args))
        vocab = lm.vocab
        print(f"held-out perplexity: {ppl:.4f}")
    else:
        if args.vectors is None:
            raise CogtransError("pretrain-embed ftavg needs --vectors")
        store = embeddings.WordVectorStore.load(args.vectors)
        tokens = [metrics.nfc(token)
                  for token in data_io.read_text(args.corpus).split()]
        if not tokens:
            raise EmptyInput(f"{args.corpus}: no tokens")
        vocab = CharVocab({c for t in tokens for c in t})
        table, missing = embeddings.ft_avg_embed(store, tokens, vocab)
        real = [m for m in missing if m not in CharVocab.SPECIALS]
        if real:
            print(f"uncovered characters: {' '.join(real)}", file=sys.stderr)
    symbols = [s for s in vocab.symbols if s not in CharVocab.SPECIALS]
    blank = [s for s in symbols if not embeddings.writable(s)]
    if blank:
        print(f"left out whitespace characters: {' '.join(map(repr, blank))}",
              file=sys.stderr)
    out_store = embeddings.WordVectorStore({
        sym: table.data[vocab.index[sym]]
        for sym in symbols if embeddings.writable(sym)
    })
    out_store.save(args.out)
    print(f"wrote {len(out_store)} character vectors to {args.out}")
    return 0


def _cmd_tune(args):
    model_cfg = _config(ModelConfig, args).validate()
    space = {}
    for name, values in map(_axis, args.axis):
        if name in space:
            raise InvalidArgument(f"--axis {name} given twice")
        space[name] = values
    pairs = _model_pairs(args.data, data_io.cognate_rows(args.data),
                         model_cfg.script)
    split = data_io.split_dataset(pairs, seed=args.split_seed)
    rows, skipped = training.grid_search(
        space, model_cfg, _config(TrainConfig, args).validate(),
        _config(OptimizerSpec, args).normalized(),
        split, base_seed=args.seed or 0,
    )
    print(training.grid_table(rows, sorted(space), metric=args.metric))
    for entry in skipped:
        reason = entry.pop("reason")
        print(f"skipped {entry}: {reason}", file=sys.stderr)
    return 0


def _cmd_oov_correct(args):
    sizes = _sizes(args.sizes)
    if len(sizes) > 1 and not args.references:
        raise CogtransError(
            "several --sizes need --references; a corrected corpus uses one size"
        )
    if args.references and args.out:
        raise CogtransError(
            "--out takes no --references; a sweep writes no corrected corpus"
        )
    records = oov.load_pipeline_file(args.sentences, args.matrices)
    model = restore_model(load_checkpoint(args.model))
    read, write = SCRIPTS[model.cfg.script]

    def transduce(words):
        # rare words recur across sentences and shortlist sizes: every
        # flagged word is decoded once, all in one batch.  A word the script
        # cannot carry either way becomes "", which keeps the MT token
        inputs = {w: _wx_or_empty(read, w) for w in words}
        readable = [w for w in words if inputs[w]]
        decoded = transduce_batch(model, [inputs[w] for w in readable])
        out = {w: _wx_or_empty(write, t.word)
               for w, t in zip(readable, decoded)}
        return [out.get(w, "") for w in words]

    corpus = data_io.read_text(args.shortlist_corpus).splitlines()
    if args.references:
        refs = [line.split()
                for line in data_io.read_text(args.references).splitlines()
                if line.strip()]
        rows = oov.evaluate_pipeline(records, refs, corpus, sizes, transduce)
        print("K\tbaseline\tcorrected\tdelta")
        for row in rows:
            print(f"{row['K']}\t{row['baseline']:.2f}\t"
                  f"{row['corrected']:.2f}\t{row['delta']:+.2f}")
    else:
        [corrected] = oov.correct_records(records, corpus, sizes, transduce)
        # every line before the file opens: an error writes none
        lines = [" ".join(rec.source) + "\t" + " ".join(tokens) + "\n"
                 for rec, tokens in zip(records, corrected)]
        out_path = args.out or "corrected.tsv"
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        print(f"wrote corrected corpus to {out_path}")
    return 0


def _cmd_wx(args):
    convert = wx_encode if args.mode == "encode" else wx_decode
    with data_io.naming_source("standard input"):
        words = args.word or sys.stdin.read().split()
    for word in words:
        print(convert(word))
    return 0


def _cmd_synth_gen(args):
    identity = 0

    def counted(pairs):   # each pair is written as it is drawn
        nonlocal identity
        for src, tgt in pairs:
            identity += src == tgt
            yield src, tgt

    data_io.save_cognate_tsv(
        counted(synthetic.iter_pairs(args.seed, args.n)), args.out)
    print(f"wrote {args.n} pairs to {args.out} ({identity} identity)")
    return 0


def _cmd_error_report(args):
    path = args.predictions
    with data_io.naming_source(path):
        rows = list(data_io.tsv_rows(data_io.read_text(path),
                                     ("source", "gold", "prediction")))
    triples = [tuple(fields) for _, fields in rows]
    report = metrics.score_items(triples, tags_fn=_tagger(
        path, [n for n, _ in rows], triples, args.script))
    metrics.write_report_tsv(report, args.out)
    counts = {}
    for item in report.items:
        for tag in item.tags:
            counts[tag] = counts.get(tag, 0) + 1
    print(f"wrote {report.n_items} records to {args.out}")
    for tag in sorted(counts):
        print(f"{tag}\t{counts[tag]}")
    return 0


# ---------------------------------------------------------------------------

# flag spellings other than --field-name, and the values a str field takes
_FLAG_NAMES = {"architecture": "--arch", "max_epochs": "--epochs",
               "kind": "--optimizer"}
_CHOICES = {"architecture": ARCHITECTURES, "cell": tuple(GATES),
            "script": tuple(SCRIPTS), "kind": training.OPTIMIZER_KINDS,
            "direction": embeddings.DIRECTIONS}


def add_config_flags(p, *classes):
    """One flag per field of each config dataclass in ``classes``, typed as
    the field; it defaults to ``None``, so ``_config`` leaves the dataclass
    default in place."""
    for cls in classes:
        for f in dataclasses.fields(cls):
            flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
            p.add_argument(flag, dest=f.name, type=f.type,
                           choices=_CHOICES.get(f.name))


def build_parser():
    parser = argparse.ArgumentParser(prog="cogtrans")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a transduction model")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--embed-vectors", dest="embed_vectors")
    p.add_argument("--avg-last", dest="avg_last", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--plot")
    add_config_flags(p, ModelConfig, TrainConfig, OptimizerSpec)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("transduce", help="transduce one word")
    p.add_argument("--model", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--attention", action="store_true")
    p.set_defaults(func=_cmd_transduce)

    p = sub.add_parser("evaluate", help="score checkpoints on a cognate file")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pretrain-embed", help="pretrain character embeddings")
    p.add_argument("mode", choices=("lm", "ftavg"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--vectors", help="word-vector file (ftavg mode)")
    p.add_argument("--out", required=True)
    add_config_flags(p, embeddings.CharLMConfig)
    p.set_defaults(func=_cmd_pretrain_embed)

    p = sub.add_parser("tune", help="hyperparameter grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--axis", action="append", required=True,
                   help="name=v1,v2,... (repeatable)")
    p.add_argument("--metric", choices=("bleu", "ss", "wa"), default="bleu")
    add_config_flags(p, ModelConfig, TrainConfig, OptimizerSpec)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("oov-correct", help="correct OOV words in MT output")
    p.add_argument("--sentences", required=True)
    p.add_argument("--matrices", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--shortlist-corpus", dest="shortlist_corpus",
                   required=True)
    p.add_argument("--sizes", default="15000")
    p.add_argument("--references")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oov_correct)

    p = sub.add_parser("wx", help="convert between Devanagari and WX")
    p.add_argument("mode", choices=("encode", "decode"))
    p.add_argument("word", nargs="*")
    p.set_defaults(func=_cmd_wx)

    p = sub.add_parser("synth-gen", help="generate a synthetic cognate corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_gen)

    p = sub.add_parser("error-report", help="tag and aggregate prediction errors")
    p.add_argument("--predictions", required=True,
                   help="TSV of source, gold, prediction")
    p.add_argument("--script", choices=("devanagari", "wx"),
                   default="devanagari")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_error_report)

    return parser


def run_cli(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CogtransError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
