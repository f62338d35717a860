"""Cognate-corpus ingestion, the 3:1-then-0.1 dataset split, and line-based
key=value run configuration.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, InvalidArgument, ParseError, require_seed
from .metrics import nfc


@dataclass
class DatasetSplit:
    train: list
    validation: list
    test: list


@contextmanager
def naming_source(name):
    """Name the text's source (a path, or "standard input") in the errors of
    the block that reads it: a ``UnicodeDecodeError`` becomes
    ``InvalidArgument``, and a ``ParseError`` ("line N: ...") gets the name
    in front.  Every line-based reader parses inside this block."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InvalidArgument(f"{name}: {exc}") from None
    except ParseError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def read_text(path):
    """The text of the UTF-8 file at ``path`` without a leading byte-order
    mark, newlines as text mode reads them; a file that is not UTF-8 raises
    ``InvalidArgument`` naming it."""
    with naming_source(path), open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def tsv_rows(text, names):
    """(line number, fields) of each non-blank line of ``text``, split at
    tabs into one field per entry of ``names``, after a byte-order mark that
    starts the line is dropped (files joined end to end carry one at each
    join).  Another field count raises ``ParseError`` quoting the line; the
    caller's ``naming_source`` names the file."""
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.lstrip("\ufeff")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(names):
            raise ParseError(line_no, f"expected {'<TAB>'.join(names)!r}, "
                             f"got {line!r}")
        yield line_no, fields


def cognate_rows(path):
    """(line number, source, target) of each "source<TAB>target" line of
    ``path`` (``tsv_rows``), NFC-normalized; duplicate pairs are kept (a
    source word may have several legitimate cognates).  An empty field
    raises ParseError, and a file with no pair ``EmptyInput``, naming the
    file."""
    rows = []
    with naming_source(path):
        for line_no, fields in tsv_rows(read_text(path), ("source", "target")):
            if not all(fields):
                line = "\t".join(fields)
                raise ParseError(line_no, "expected 'source<TAB>target', "
                                 f"got {line!r}")
            rows.append((line_no, *map(nfc, fields)))
    if not rows:
        raise EmptyInput(f"{path}: no cognate pairs")
    return rows


def load_cognate_tsv(path):
    """The (source, target) pairs of ``cognate_rows``."""
    return [(src, tgt) for _, src, tgt in cognate_rows(path)]


def save_cognate_tsv(pairs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for src, tgt in pairs:
            fh.write(f"{src}\t{tgt}\n")


def split_dataset(pairs, seed=0):
    """Seeded shuffle; floor-quarter test cut, then round(0.1) validation cut.

    round() is Python's banker's rounding: 4220 pairs give the canonical
    2849/316/1055 split.
    """
    if len(pairs) < 4:
        raise InvalidArgument("need at least 4 pairs to split")
    require_seed("seed", seed)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    n_test = len(shuffled) // 4
    rest = shuffled[: len(shuffled) - n_test]
    test = shuffled[len(shuffled) - n_test:]
    n_val = int(round(0.1 * len(rest)))
    n_val = min(n_val, len(rest) - 1)
    validation = rest[len(rest) - n_val:] if n_val else []
    train = rest[: len(rest) - n_val]
    return DatasetSplit(train=train, validation=validation, test=test)


# ---------------------------------------------------------------------------
# run configuration

@dataclass
class RunConfig:
    """Sectioned hyperparameters parsed from key=value lines."""

    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)


def _coerce(value):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def parse_config(text):
    """Parse "section.key = value" lines into a RunConfig.

    Sections: model.*, train.*, optimizer.*.  Comments (#) and blank lines
    are ignored.
    """
    kwargs = {"model": {}, "train": {}, "optimizer": {}}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith(("model.", "train.", "optimizer.")):
            section, sub = key.split(".", 1)
            kwargs[section][sub] = _coerce(value)
        else:
            raise ParseError(line_no, f"unknown config key {key!r}")
    return RunConfig(**kwargs)


def load_config(path):
    with naming_source(path):
        return parse_config(read_text(path))
