"""JSON and CSV helpers: the one place that knows the artifact encoding.

Complex values travel as [re, im] pairs of finite numbers both ways:
``dumps`` writes any complex (numpy's included) as a pair, arrays as lists,
numpy scalars as Python numbers and records as their ``to_dict``, and
``as_complex`` reads a pair back.
Dicts are strict.  All emitters go through ``dumps`` or ``csv_rows`` so
identical inputs produce byte identical files.

``dumps`` is the one JSON writer; ``json`` only parses.  It writes the
bytes of ``json.dumps(obj, sort_keys=True, indent=2, default=_encode)``
plus a newline, its test oracle, without json's pure-Python indenting
encoder: each list of floats, of complex values or of equal-length float
rows is formatted by one ``%`` over one template, as ``csv_rows`` does.

``as_list`` reads its entries under the list's own name and names an entry,
``where[i]``, only to reject it: on a ConfigError it reads the list again
with indexed names, so the message is that of the first bad entry.  No item
reader's other errors name the list (``FunctionSpec.polynomial`` and
``rational``, ``GridSpec`` and ``check_disc`` name a fixed thing), so
those messages are the same either way.
"""

import cmath
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import ConfigError
from .records import Record


def as_complex(pair, where: str = "value") -> complex:
    """A finite complex from a number or an [re, im] pair, or ConfigError naming where;
    a bool, bare or as a part, is not a number, as for as_number."""
    if type(pair) is list and len(pair) == 2:
        re, im = pair
        if type(re) is float and type(im) is float and math.isfinite(re) and math.isfinite(im):
            return complex(re, im)
    if isinstance(pair, (int, float, complex)):
        parts = (pair.real, pair.imag)
    elif isinstance(pair, (list, tuple)) and len(pair) == 2:
        parts = pair
    else:
        raise ConfigError(f"{where}: expected [re, im] pair, got {pair!r}")
    for value in (pair, *parts):
        if isinstance(value, bool):         # an int to isinstance
            raise ConfigError(f"{where}: expected a number, got {value!r}")
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
    """kind(value) of a JSON int or float, never a string or bool, or ConfigError
    naming where; an int kind takes only a value equal to its int, so 9.99 is not 9."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = kind(value)
    except (ValueError, OverflowError):     # int(nan), int(inf), float(10**400)
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if kind is int and number != value:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return number


def as_finite(value, where: str = "value") -> float:
    """as_number of a key that must be finite: NaN, Infinity and 1e400, which the
    JSON reader takes as floats, are ConfigError naming where."""
    if type(value) is float and math.isfinite(value):
        return value
    number = as_number(value, where)
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def as_list(value, where: str, item) -> list:
    """Entries of a JSON list, each read as item(entry, where); a
    ConfigError names the first bad entry as "where[i]"."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    try:
        return [item(x, where) for x in value]
    except ConfigError:
        return [item(x, f"{where}[{i}]") for i, x in enumerate(value)]


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
    """json's hook for what it cannot write itself; np.float64 is a float,
    and a record, one held in a record's fields too, is its to_dict."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Record):
        return obj.to_dict()
    raise TypeError(f"cannot encode {type(obj).__name__} as JSON")


def _float(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _block(items, inner: str):
    """The lines of a list of floats, of complex values or of equal-length
    float rows, by one % over one template; None for any other list, and for
    NaN and infinities, which float.__repr__ does not spell as JSON."""
    kinds, width, row = set(map(type, items)), 1, "%s"
    if kinds == {complex}:
        items, kinds = [(z.real, z.imag) for z in items], {tuple}
    if kinds <= {list, tuple}:
        widths = set(map(len, items))
        if len(widths) > 1 or 0 in widths:
            return None
        width, items = widths.pop(), list(chain.from_iterable(items))
        row = "[" + inner + "  " + ("," + inner + "  ").join(["%s"] * width) + inner + "]"
    try:
        text = ("," + inner).join([row] * (len(items) // width)) % tuple(
            map(float.__repr__, items))
    except TypeError:
        return None
    return None if "n" in text else text


def _dump(obj, indent: str, seen=None) -> str:
    """json's text of obj with its closing line at indent; seen holds the
    ids of the containers around obj."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if id(obj) in seen:
        raise ValueError("Circular reference detected")
    seen.add(id(obj))
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        text = "[" + inner + (_block(obj, inner) or ("," + inner).join(
            [_dump(x, inner, seen) for x in obj])) + indent + "]" if obj else "[]"
    elif isinstance(obj, dict):
        text = "{" + inner + ("," + inner).join(
            [_key(k) + ": " + _dump(v, inner, seen) for k, v in sorted(obj.items())]
        ) + indent + "}" if obj else "{}"
    else:
        text = _dump(_encode(obj), indent, seen)
    seen.remove(id(obj))
    return text


def _key(key) -> str:
    """A dict key as json converts it, after sorting; a bool is an int."""
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):
        return _string(_dump(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dumps(obj) -> str:
    """obj as sorted, 2-space-indented JSON and a newline."""
    return _dump(obj, "\n", set()) + "\n"


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
