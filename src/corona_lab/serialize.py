"""JSON helpers: complex values travel as [re, im] pairs, dicts are strict.

All emitters go through ``dumps`` so identical inputs produce byte identical
files.
"""

import json

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
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def complex_list(pairs, where: str = "list") -> list:
    if not isinstance(pairs, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of [re, im] pairs")
    return [as_complex(p, f"{where}[{i}]") for i, p in enumerate(pairs)]


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


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})")
