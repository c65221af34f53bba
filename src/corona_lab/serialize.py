"""JSON and CSV helpers: the one place that knows the artifact encoding.

Complex values travel as [re, im] pairs of finite numbers both ways:
``dumps`` writes any complex (numpy's included) as a pair, arrays as lists
and numpy scalars as Python numbers, and ``as_complex`` reads a pair back.
Dicts are strict.  All emitters go through ``dumps`` or ``csv_rows`` so
identical inputs produce byte identical files.
"""

import cmath
import json

import numpy as np

from .errors import ConfigError


def as_complex(pair, where: str = "value") -> complex:
    """A finite complex from a number or an [re, im] pair, or ConfigError naming where."""
    if isinstance(pair, (int, float, complex)):
        parts = (pair.real, pair.imag)
    elif isinstance(pair, (list, tuple)) and len(pair) == 2:
        parts = pair
    else:
        raise ConfigError(f"{where}: expected [re, im] pair, got {pair!r}")
    if not all(isinstance(part, (int, float)) for part in parts):
        raise ConfigError(f"{where}: expected numeric [re, im] pair")
    try:
        z = complex(*parts)
    except OverflowError:       # an integer part beyond the float range
        z = complex(cmath.inf)
    if not cmath.isfinite(z):
        raise ConfigError(f"{where}: expected finite [re, im] parts, got {pair!r}")
    return z


def as_number(value, where: str = "value", kind=float):
    """kind(value), or ConfigError naming where."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def as_list(value, where: str = "list", item=None) -> list:
    """Entries of a JSON list, each read as item(entry, "where[i]") if given."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return [x if item is None else item(x, f"{where}[{i}]") for i, x in enumerate(value)]


def complex_list(pairs, where: str = "list") -> list:
    return as_list(pairs, where, as_complex)


def strict_keys(d: dict, required, optional=(), where: str = "object") -> None:
    """Reject unknown keys so config typos surface as usage errors."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    for k in required:
        if k not in d:
            raise ConfigError(f"{where}: missing key '{k}'")
    allowed = set(required) | set(optional)
    for k in d:
        if k not in allowed:
            raise ConfigError(f"{where}: unknown key '{k}'")


def _encode(obj):
    """json's hook for what it cannot write itself; np.float64 is a float."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot encode {type(obj).__name__} as JSON")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_encode) + "\n"


def csv_rows(columns) -> str:
    """CSV lines of equal-length real columns, each value as %.17g."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = np.column_stack(columns).ravel().tolist()
    return row * len(columns[0]) % tuple(values)


def csv_text(header: str, columns) -> str:
    """CSV of equal-length real columns under header."""
    return header + "\n" + csv_rows(columns)


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read ({e.strerror or e})")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ConfigError(f"{path}: invalid JSON ({e})")
