"""Flat key=value run configuration files.

The format is deliberately minimal: UTF-8 text, one ``key = value`` pair per
line, ``#`` comments and blank lines allowed.  Unknown keys are rejected, as
are malformed values; every error names the offending key.  Parsing followed
by serialization round-trips to the same values.
"""

from __future__ import annotations


class ConfigError(ValueError):
    pass


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_str(key, raw):
    return raw


def _parse_floats(key, raw):
    return tuple(_parse_float(key, part) for part in raw.split(","))


def _parse_init(key, raw):
    parts = [p.strip() for p in raw.split(",")]
    if parts[0] not in ("gaussian", "uniform") or len(parts) != 3:
        raise ConfigError(
            f"key {key!r}: expected 'gaussian,mean,var' or 'uniform,a,b', got {raw!r}"
        )
    return (parts[0], _parse_float(key, parts[1]), _parse_float(key, parts[2]))


_KEY_PARSERS = {
    "scheme": _parse_str,
    "objective": _parse_str,
    "dim": _parse_int,
    "shift": _parse_floats,
    "N": _parse_int,
    "dt": _parse_float,
    "T": _parse_float,
    "m": _parse_float,
    "lambda": _parse_float,
    "sigma": _parse_float,
    "alpha": _parse_float,
    "lambda1": _parse_float,
    "lambda2": _parse_float,
    "sigma1": _parse_float,
    "sigma2": _parse_float,
    "nu": _parse_float,
    "beta": _parse_float,
    "init": _parse_init,
    "seed": _parse_int,
    "replicates": _parse_int,
    "out_path": _parse_str,
}

KNOWN_KEYS = frozenset(_KEY_PARSERS)


def parse_config(text: str) -> dict:
    """Parse config text into a dict of typed values."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r} on line {lineno}")
        if key in values:
            raise ConfigError(f"duplicate key {key!r} on line {lineno}")
        values[key] = _KEY_PARSERS[key](key, raw)
    return values


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def format_value(value) -> str:
    """A config value as text; floats with 17 significant digits, which
    round-trip, so equal values print as equal bytes."""
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize_config(values: dict) -> str:
    lines = [f"{key} = {format_value(values[key])}"
             for key in _KEY_PARSERS if key in values]
    return "\n".join(lines) + "\n"


def require_keys(values: dict, keys, context: str) -> None:
    """Raise a ConfigError naming the first missing required key."""
    for key in keys:
        if key not in values:
            raise ConfigError(f"{context}: missing required key: {key}")
