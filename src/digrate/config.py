"""One reader for every JSON input (configs, `bounds` params, bundle
manifests, audit sidecars) and every file they name. It imports nothing
from the package, so every module can read through it."""

from __future__ import annotations

import json
import sys
from pathlib import Path


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def read_input(path: str | Path, what: str) -> str:
    """The text of a file that a config or command names; a path that cannot
    be read is a ConfigError naming what it was read for."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{what}: cannot read {path}: {exc.strerror}") from exc


def decode_json(text: str, what: str):
    """The value of a JSON text; a syntax error is a ConfigError naming `what`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: not valid JSON: {exc.msg} "
                          f"(line {exc.lineno}, column {exc.colno})") from exc


_REQUIRED = object()


def _finite(v) -> bool:  # json also reads NaN, Infinity and 400-digit integers
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _numbers(v, size: int = 0) -> bool:  # nonempty, and `size` long if given
    return (isinstance(v, list) and len(v) > 0 and len(v) == (size or len(v))
            and all(map(_finite, v)))


def _matrix(v) -> bool:  # nonempty, every row as long as the first
    return (isinstance(v, list) and len(v) > 0 and isinstance(v[0], list)
            and all(_numbers(row, len(v[0])) for row in v))


# what a config entry may hold, by the words that name it in errors; a bool
# is only "a boolean" (JSON true is not the integer 1)
_KINDS = {
    "a boolean": lambda v: isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int),
    "a positive integer": lambda v: isinstance(v, int) and v > 0,
    "a nonnegative integer": lambda v: isinstance(v, int) and v >= 0,
    "a number": _finite,
    "a positive number": lambda v: _finite(v) and v > 0,
    "a number in (0, 1]": lambda v: _finite(v) and 0 < v <= 1,
    "a string": lambda v: isinstance(v, str),
    "a list of numbers": _numbers,
    # a run's output series: a diverged run's hold NaN and infinities
    "a list of numbers, NaN or infinities": lambda v: isinstance(v, list) and all(
        isinstance(e, float) or _finite(e) for e in v),
    "two positive numbers": lambda v: _numbers(v, 2) and min(v) > 0,
    "a matrix of numbers": _matrix,
    "a list of integer pairs": lambda v: isinstance(v, list) and all(
        isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in v),
    "an object": lambda v: isinstance(v, dict),
    "a string or an object": lambda v: isinstance(v, (str, dict)),
    "a number or 'empirical'": lambda v: v == "empirical" or _finite(v),
    "a number or 'certified'": lambda v: v == "certified" or _finite(v),
    "'zeros' or 'random'": lambda v: v in ("zeros", "random"),
    "'undirected' or 'directed'": lambda v: v in ("undirected", "directed"),
}


class ConfigBlock:
    """Typed reads from one JSON object of a config or params file; each bad
    read, and each key that no read asked for, is a ConfigError naming the
    block. The config root has no name (`where` is empty): its errors name
    the field, or `config`."""

    def __init__(self, raw, where: str = ""):
        self.where, self.name = where, where or "config"
        if not isinstance(raw, dict):
            raise ConfigError(f"{self.name}: must be an object, got {raw!r}")
        self.raw, self.read = raw, set()

    def __call__(self, key: str, kind: str = "an integer", default=_REQUIRED):
        """raw[key], checked to be `kind` (a key of _KINDS). A missing or
        null entry gives `default`, and is an error without one."""
        self.read.add(key)
        value = self.raw.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self.name}: needs {key!r}")
            return default
        if isinstance(value, bool) != (kind == "a boolean") or not _KINDS[kind](value):
            at = f"{self.where}: {key}=" if self.where else f"{key}: "
            raise ConfigError(f"{at}{value!r} is not {kind}")
        return value

    def block(self, key: str) -> "ConfigBlock":
        """raw[key] as a block of its own, named `where.key` (`key` at the root)."""
        self.read.add(key)
        return ConfigBlock(self.raw.get(key), f"{self.where}.{key}".lstrip("."))

    def done(self) -> None:
        """Reject the keys that no read asked for, such as a misspelt one."""
        unread = sorted(set(self.raw) - self.read)
        if unread:
            raise ConfigError(f"{self.name}: unknown keys {', '.join(unread)}")
