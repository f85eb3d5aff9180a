"""Exception types shared across the package, and the one reader of
config values."""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager


class SensanError(Exception):
    """Base class for semantic failures (bad input, broken preconditions,
    non-convergent computations). Message text is part of the contract and
    is matched by callers, keep it stable."""


class ConfigError(SensanError):
    """Invalid CLI or config-file input. Carries the offending key (an
    index for a list item) so the CLI can report it and exit with status
    2."""

    def __init__(self, key, message: str):
        self.key = key
        where = f"item {key}" if isinstance(key, int) else f"config key '{key}'"
        super().__init__(f"{where}: {message}")


_REQUIRED = object()
_EXPECTED = {float: "a number", int: "an integer", bool: "true or false",
             str: "a string", list: "a list", dict: "an object"}


def _as_kind(value, kind):
    """value as a JSON value of type kind, or None when it is not one."""
    if isinstance(value, bool) or kind is bool:
        return value if isinstance(value, bool) and kind is bool else None
    if kind is list:
        return list(value) if isinstance(value, (list, tuple)) else None
    if kind not in (int, float):
        return value if isinstance(value, kind) else None
    if kind is int and isinstance(value, numbers.Integral):
        return int(value)   # of any size: float() would overflow past 2^1023
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x) or (kind is int and not x.is_integer()):
        return None
    return int(value) if kind is int else x


def read(spec, key, kind, default=_REQUIRED, *, lo=None, hi=None,
         choices=None, of=None):
    """spec[key] checked as a JSON value of type kind (float, int, bool,
    str, list or dict); spec is an object, or a list read by index.

    A missing key or a null gives default, and is an error without one.
    A bool is only true or false, an int is integral, a float is finite.
    lo and hi bound a number, or a list's length, inclusively; choices
    lists the allowed values; of is the kind of every item of a list.
    Every failure raises ConfigError naming key.
    """
    value = spec.get(key) if isinstance(spec, dict) else spec[key]
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(key, "required")
        return default
    got = _as_kind(value, kind)
    if got is None:
        raise ConfigError(key, f"expected {_EXPECTED[kind]}, got {value!r}")
    size, what = (len(got), " items") if kind is list else (got, "")
    if lo is not None and size < lo:
        raise ConfigError(key, f"expected at least {lo}{what}, got {value!r}")
    if hi is not None and size > hi:
        raise ConfigError(key, f"expected at most {hi}{what}, got {value!r}")
    if choices is not None and got not in choices:
        raise ConfigError(key, f"expected one of {', '.join(map(repr, choices))}"
                          f", got {value!r}")
    if of is not None:
        with nested(key):
            got = [read(got, i, of) for i in range(len(got))]
    return got


@contextmanager
def nested(key):
    """Re-raise a SensanError or OSError from the block as a ConfigError
    under key, so a problem in a nested object names its whole path."""
    try:
        yield
    except (SensanError, OSError) as exc:
        raise ConfigError(key, str(exc)) from None
