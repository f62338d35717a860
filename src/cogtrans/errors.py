"""Shared exception types and the config checks that raise them."""

import dataclasses
import math


class CogtransError(Exception):
    """Base for all toolkit errors."""


class InvalidShape(CogtransError, ValueError):
    pass


class EmptyInput(CogtransError, ValueError):
    pass


class InvalidArgument(CogtransError, ValueError):
    pass


class MissingGrad(CogtransError, RuntimeError):
    pass


class DivergedError(CogtransError, RuntimeError):
    def __init__(self, epoch):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


class ParseError(InvalidArgument):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnmappedSymbol(CogtransError, ValueError):
    def __init__(self, symbol, offset):
        super().__init__(f"unmapped symbol {symbol!r} at offset {offset}")
        self.symbol = symbol
        self.offset = offset


class InvalidAttention(CogtransError, ValueError):
    pass


class IncompatibleCheckpoint(CogtransError, RuntimeError):
    pass


class ChecksumError(CogtransError, RuntimeError):
    pass


def require_positive(cfg, names):
    """Raise ``InvalidArgument`` for the first field of ``cfg`` named in
    ``names`` that is below 1."""
    for name in names:
        if getattr(cfg, name) < 1:
            raise InvalidArgument(f"{name} must be >= 1, got {getattr(cfg, name)}")


def require_rate(name, value):
    """Raise ``InvalidArgument`` unless 0 <= value < 1."""
    if not 0.0 <= value < 1.0:
        raise InvalidArgument(f"{name} must be in [0, 1), got {value}")


def require_finite(name, value):
    """Raise ``InvalidArgument`` if ``value`` is NaN or infinite."""
    if not math.isfinite(value):
        raise InvalidArgument(f"{name} must be finite, got {value}")


def require_seed(name, value):
    """Raise ``InvalidArgument`` unless ``value`` can seed a generator
    (``np.random.default_rng`` takes no negative seed)."""
    if value < 0:
        raise InvalidArgument(f"{name} must be >= 0, got {value}")


def require_type(where, kind, value, error=InvalidArgument):
    """``value`` as a config field of type ``kind``: an int widens to a
    float; any other mismatch raises ``error`` naming ``where``."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise error(f"{where}: {value!r} is not a {kind.__name__}")
    return value


def build_config(cls, values, where, error=InvalidArgument):
    """A ``cls`` config dataclass from the untrusted mapping ``values`` (the
    ``where`` it came from): each key must name a field and hold a value of
    that field's type, and every field without a default must be given;
    else ``error`` naming the key."""
    fields = dataclasses.fields(cls)
    types = {f.name: f.type for f in fields}
    kwargs = {}
    for key, value in values.items():
        if key not in types:
            raise error(f"{where} key {key!r} names no {cls.__name__} field")
        kwargs[key] = require_type(f"{where} key {key!r}", types[key], value,
                                   error)
    for f in fields:
        if f.name not in kwargs and f.default is dataclasses.MISSING:
            raise error(f"no {f.name} given in the {where}")
    return cls(**kwargs)
