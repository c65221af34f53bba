"""JSON and CSV helpers: complex values travel as [re, im] pairs, dicts are strict.

All emitters go through ``dumps`` or ``csv_text`` so identical inputs
produce byte identical files.
"""

import json

import numpy as np

from .errors import ConfigError


def cpair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def as_complex(pair, where: str = "value") -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"{where}: expected [re, im] pair, got {pair!r}")
    re, im = pair
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise ConfigError(f"{where}: expected numeric [re, im] pair")
    return complex(re, im)


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


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def csv_text(header: str, columns) -> str:
    """CSV of equal-length real columns under header, each value as %.17g."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = np.column_stack(columns).ravel().tolist()
    return header + "\n" + row * len(columns[0]) % tuple(values)


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})")
