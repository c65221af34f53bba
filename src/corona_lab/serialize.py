"""JSON and CSV helpers: the one place that knows the artifact encoding.

Complex values travel as [re, im] pairs of finite numbers both ways:
``dumps`` writes any complex (numpy's included) as a pair, arrays as lists,
numpy scalars as Python numbers and records as their ``to_dict``, and
``as_complex`` reads a pair back.
Dicts are strict.  All emitters go through ``dumps`` or ``csv_rows`` so
identical inputs produce byte identical files.  The format of an artifact
belongs to the object it holds: its ``to_dict`` for JSON, and for CSV its
``to_csv``, which writes the header and the rows through ``csv_rows``.

``csv_rows`` writes each float in the bytes of '%.17g' without a conversion
call per value: ``_csv_cells`` finds the digits of every value with
1e-4 <= |x| < 10 at once in integer arithmetic and writes it as a template
cell and an int; any other value is '%.17g' itself.

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
from functools import cache
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


@cache
def _tables():
    """5^s and 10^s exactly (s <= 22, so 10^s is an exact float too), 10^k up
    to 10^17, and the %-template cells: at 160 * sign + 16 * digit + zeros
    the sign, integer digit, point and leading fraction zeros before "%s",
    and at 320 '%.17g', each ended by a comma; from 321 on the same cells
    ended by a newline."""
    cells = [f"{sign}{digit}.{'0' * zeros}%s" for sign in ("", "-") for digit in range(10)
             for zeros in range(16)] + ["%.17g"]
    return (np.array([5 ** s for s in range(23)], dtype=np.uint64),
            np.array([float(10 ** s) for s in range(23)]),
            np.array([10 ** k for k in range(18)], dtype=np.uint64),
            np.array([cell + end for end in ",\n" for cell in cells], dtype=object))


def _scaled(v, m, w, e):
    """floor(v 10^(16 - e)), and whether the rest rounds it up, half to even.

    v = m 2^(-16 - w) exactly, so v 10^s = m 5^s / 2^t with 30 < t < 50.  The
    float product is within 2^11 of the quotient, so m 5^s - d 2^t is below
    2^61 and its uint64 wrap-around is exact; its floor division by 2^t
    corrects d."""
    p5, p10f, _, _ = _tables()
    s, t = 16 - e, w + e
    d = (v * p10f[s]).astype(np.uint64)
    r = (m * p5[s] - (d << t.view(np.uint64))).view(np.int64)
    k = r >> t
    d += k.view(np.uint64)
    return d, (r - (k << t) + (d & 1).view(np.int64) - 1) >> (t - 1) > 0


def _csv_cells(table) -> tuple:
    """The %-template cells of a 2-D float array's CSV rows and their
    arguments: each value's text is its '%.17g' text.

    For 1e-4 <= |x| < 10 the 17 digits are D = x 10^(16 - X) rounded half to
    even, X the decimal exponent, in integer arithmetic (after Adams, "Ryu
    revisited", 2019).  X starts from np.log10 and is set by the exact check
    10^16 <= floor(x 10^(16 - X)) < 10^17, so a wrong start changes no digit.
    No rounding carries D to 10^17: the largest float below each power of
    ten from 1e-3 to 10 is more than 5e-18 below it, relatively.  The cell
    holds the sign, the integer digit, the point and the fraction's leading
    zeros, and the argument is D's fraction less its trailing zeros.  Every
    other value, an integer among them, is '%.17g' with the value itself."""
    _, _, p10, cells = _tables()
    x = np.asarray(table, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    sel = np.flatnonzero((a >= 1e-4) & (a < 10))
    v = a[sel]
    bits = v.view(np.uint64)
    m = (bits & (2 ** 52 - 1)) | 2 ** 52
    w = 1059 - (bits >> 52).view(np.int64)
    e = np.floor(np.log10(v)).astype(np.int64)
    d, up = _scaled(v, m, w, e)
    bad = np.flatnonzero((d < p10[16]) | (d >= p10[17]))
    while bad.size:
        e[bad] += np.where(d[bad] < p10[16], -1, 1)
        d[bad], up[bad] = _scaled(v[bad], m[bad], w[bad], e[bad])
        bad = bad[(d[bad] < p10[16]) | (d[bad] >= p10[17])]
    d += up
    digit, frac = np.divmod(d, p10[np.minimum(16 - e, 17)])
    zeros = np.maximum(-1 - e, 0)
    few = np.flatnonzero(frac < p10[15])
    zeros[few] = 16 - np.searchsorted(p10, frac[few], side="right")
    at = np.full(flat.size, 320)
    at[sel] = np.where(frac > 0, 160 * np.signbit(flat[sel]) + 16 * digit.view(np.int64) + zeros, 320)
    strip = np.flatnonzero(frac % 10 == 0)
    strip = strip[frac[strip] > 0]
    while strip.size:
        frac[strip] //= 10
        strip = strip[frac[strip] % 10 == 0]
    slow = np.flatnonzero(at == 320)
    if slow.size:
        args = np.empty(flat.size, dtype=object)
        args[sel] = frac
        args[slow] = flat[slow]
        frac = args
    at = at.reshape(x.shape)
    at[:, -1] += 321
    return cells[at], frac.tolist()


def csv_rows(columns, lead=()) -> str:
    """CSV lines of equal-length real columns, each value as %.17g, after
    the lead columns: object arrays of text, each entry with its own comma
    and without %."""
    cells, args = _csv_cells(np.column_stack(columns))
    return "".join(np.column_stack((*lead, cells)).ravel().tolist()) % tuple(args)


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
