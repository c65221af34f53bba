"""Independent validators, one per op kind.

A validator recomputes what an op claims from first principles with numpy
and never calls the corona_lab function that produced the artifact.  Each
takes the op (its ``data`` holds the generated inputs) and the artifact
bytes, and raises ``Invalid`` with a reason when the artifact is wrong.
"""

import csv
import io
import json
import math

import numpy as np

TWO_PI = 2 * math.pi


class Invalid(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Invalid(message)


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _carr(pairs) -> np.ndarray:
    return np.array([_c(p) for p in pairs], dtype=complex)


def _blaschke(zeros: np.ndarray, z) -> np.ndarray:
    """Direct (n, m) product of normalized factors, rotation zero."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    a = zeros[:, None]
    mod = np.abs(a)
    unit = np.where(mod == 0, -1.0 + 0j, np.conj(a) / np.where(mod == 0, 1, mod))
    return np.prod(unit * (a - z[None, :]) / (1 - np.conj(a) * z[None, :]), axis=0)


def _mobius(c: complex, z):
    return (z + c) / (1 + np.conj(c) * z)


def _tails(points: np.ndarray) -> np.ndarray:
    """Separation tails prod_{j != k} |z_j - z_k| / |1 - conj(z_k) z_j|."""
    zj, zk = points[:, None], points[None, :]
    rho = np.abs(zj - zk) / np.abs(1 - np.conj(zk) * zj)
    np.fill_diagonal(rho, 1.0)
    return np.prod(rho, axis=0)


def _polyval(coeffs, z):
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], z)


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def _json(artifact: bytes):
    try:
        return json.loads(artifact.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise Invalid(f"artifact is not JSON: {e}")


def _csv_rows(artifact: bytes, header: list) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(artifact.decode())))
    _require(rows and rows[0] == header, f"CSV header {rows[:1]} != {header}")
    return np.array([[float(x) for x in r] for r in rows[1:]], dtype=float)


def _sample_points(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    boundary = np.exp(1j * rng.uniform(-math.pi, math.pi, 256))
    interior = np.sqrt(rng.uniform(0, 1, 256)) * np.exp(1j * rng.uniform(-math.pi, math.pi, 256))
    return np.concatenate([boundary, interior])


def _eval_function(doc: dict, z: np.ndarray) -> np.ndarray:
    data = doc["data"]
    if doc["kind"] == "polynomial":
        return _polyval(_carr(data["coeffs"]), z)
    if doc["kind"] == "rational":
        return _polyval(_carr(data["num"]), z) / _polyval(_carr(data["den"]), z)
    raise Invalid(f"unexpected solution kind {doc['kind']!r}")


def _step_value(pieces, theta: np.ndarray) -> np.ndarray:
    th = np.where(theta >= math.pi, theta - TWO_PI, theta)
    out = np.zeros(th.shape)
    for a, b, c in pieces:
        out[(th >= a) & (th < b)] = c
    return out


def _cdf(pieces, theta: float) -> float:
    return sum(c * (min(theta, b) - a) / TWO_PI for a, b, c in pieces if theta > a)


def _tail(pieces, theta: float) -> float:
    return sum(c * (b - max(theta, a)) / TWO_PI for a, b, c in pieces if theta < b)


def quartile_angles(pieces) -> tuple:
    """Leftmost angle with a quarter of the mass below, rightmost with a
    quarter above."""
    acc = 0.0
    for a, b, c in pieces:
        m = c * (b - a) / TWO_PI
        if c > 0 and acc + m >= 0.25:
            alpha = a + (0.25 - acc) * TWO_PI / c
            break
        acc += m
    acc = 0.0
    for a, b, c in reversed(pieces):
        m = c * (b - a) / TWO_PI
        if c > 0 and acc + m >= 0.25:
            beta = b - (0.25 - acc) * TWO_PI / c
            break
        acc += m
    return alpha, beta


def _moment(pieces, k: int) -> complex:
    """Closed-form integral of e^{ik theta} against a step density dm."""
    return sum(c * (np.exp(1j * k * b) - np.exp(1j * k * a)) / (2j * math.pi * k)
               for a, b, c in pieces)


# ---------------------------------------------------------------- validators

def blaschke_point(op, artifact):
    value = _c(_json(artifact)["value"])
    want = _blaschke(_carr(op["data"]["zeros"]), _c(op["data"]["at"]))[0]
    _require(abs(value - want) <= 1e-13, f"value {value} != direct product {want}")


def _load_pairs(path: str, key: str) -> np.ndarray:
    with open(path) as fh:
        return _carr(json.load(fh)[key])


def _call_inputs(op) -> tuple:
    return (_load_pairs(op["params"]["zeros"], "zeros"),
            _load_pairs(op["params"]["points"], "points"))


def blaschke_values(op, artifact):
    zeros, points = _call_inputs(op)
    got = np.frombuffer(artifact, dtype=complex)
    want = _blaschke(zeros, points)
    _require(got.shape == want.shape and _close(got, want, 0, 1e-11),
             f"values differ from the direct product by {np.max(np.abs(got - want)):.3e}")


def blaschke_derivative(op, artifact):
    zeros, points = _call_inputs(op)
    got = np.frombuffer(artifact, dtype=complex)
    a = zeros[:, None]
    z = points[None, :]
    logder = np.sum((np.abs(a) ** 2 - 1) / ((a - z) * (1 - np.conj(a) * z)), axis=0)
    want = _blaschke(zeros, points) * logder
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    _require(got.shape == want.shape and float(err.max()) <= 1e-9,
             f"derivative differs from B * sum of log-derivatives by {float(err.max()):.3e}")


def bezout(op, artifact):
    d = op["data"]
    cert = _json(artifact)
    sols = cert["solutions"]
    funcs = [_carr(f) for f in d["functions"]]
    _require(len(sols) == len(funcs), "solution count differs from function count")
    z = _sample_points(d["seed"])
    acc = sum(_polyval(f, z) * _eval_function(u, z) for f, u in zip(funcs, sols))
    residual = float(np.max(np.abs(acc - 1)))
    _require(residual <= d["tol"], f"recomputed residual {residual:.3e} > tol {d['tol']}")
    _require(cert["passing"] is True and cert["residual_sup"] <= d["tol"],
             f"certificate reports residual {cert['residual_sup']} passing {cert['passing']}")
    if "anchor" in d:
        got = [[_c(p) for p in u["data"]["coeffs"]] for u in sols]
        want = [[complex(c) for c in u] for u in d["anchor"]]
        _require(got == want, f"anchor certificate {got} != {want}")


def unsolvable(op, artifact):
    doc = _json(artifact)
    _require(doc.get("error") == "UnsolvableError", f"expected UnsolvableError, got {doc}")
    root = _c(op["data"]["root"])
    roots = [_c(r) for r in doc.get("roots", [])]
    _require(any(abs(r - root) <= 1e-6 for r in roots),
             f"reported roots {roots} miss the common zero {root}")


def check_report(op, artifact):
    d = op["data"]
    rep = _json(artifact)
    _require(rep["passing"] is True and rep["residual_sup"] <= d["tol"],
             f"check failed: residual {rep['residual_sup']}")
    _require(rep["samples"] == d["samples"], f"{rep['samples']} samples, expected {d['samples']}")


def delta(op, artifact):
    rep = _json(artifact)
    ang = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    radii = 1 - 0.5 ** np.arange(1, 9)
    pts = np.concatenate(([0j], (radii[:, None] * np.exp(1j * ang[None, :])).ravel(),
                          np.exp(1j * np.linspace(-math.pi, math.pi, 256, endpoint=False))))
    total = sum(np.abs(_polyval(_carr(f), pts)) for f in op["data"]["functions"])
    want = float(total.min())
    _require(_close(rep["value"], want, 1e-12), f"delta {rep['value']} != grid minimum {want}")
    at = float(sum(abs(_polyval(_carr(f), _c(rep["argmin"])))
                   for f in op["data"]["functions"]))
    _require(_close(at, want, 1e-12), f"sum at argmin {at} != minimum {want}")


def tails(op, artifact):
    rep = _json(artifact)
    pts = _carr(op["data"]["points"])
    want = _tails(pts)
    got = np.array(rep["tails"])
    _require(rep["count"] == pts.size and got.shape == want.shape, "tail count mismatch")
    _require(_close(got, want, 1e-12), "tails differ from the O(n^2) product beyond rtol 1e-12")
    _require(rep["carleson_constant"] == float(got.min()), "constant is not the minimum tail")
    _require(_close(rep["gap_sum"], float(np.sum(1 - np.abs(pts))), 1e-12), "gap sum mismatch")


def ladder(op, artifact):
    rep = _json(artifact)
    rows = rep["verification"]
    _require(len(rows) == op["data"]["rungs"], f"{len(rows)} rungs, expected {op['data']['rungs']}")
    for (rung, _eta, eps, minimum), want_eps in zip(rows, op["data"]["eps"]):
        _require(eps == want_eps and minimum > 1 - eps,
                 f"rung {rung}: minimum {minimum} not above 1 - {eps}")
    s = rep["s"]
    _require(all(x < y for x, y in zip(s, s[1:])), "cut radii not increasing")
    idx = rep["indices"]
    _require(all(x < y for x, y in zip(idx, idx[1:])), "candidate indices not increasing")


def trace_csv(op, artifact):
    d = op["data"]
    rows = _csv_rows(artifact, ["grid_re", "grid_im", "j", "re", "im"])
    radial = -(-d["grid_size"] // 8)
    radii = d["grid_radius"] * np.arange(1, radial + 1) / radial
    angles = TWO_PI * np.arange(8) / 8 - math.pi
    grid = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    cs = _carr(d["points"])
    _require(rows.shape == (cs.size * grid.size, 5), f"CSV shape {rows.shape}")
    zeros = _carr(d["zeros"])
    want = np.concatenate([_blaschke(zeros, _mobius(c, grid)) for c in cs])
    got = rows[:, 3] + 1j * rows[:, 4]
    _require(_close(rows[:, 0] + 1j * rows[:, 1], np.tile(grid, cs.size), 0, 1e-15),
             "grid columns differ")
    _require(_close(got, want, 0, 1e-11),
             f"samples differ from f o L_c by {float(np.max(np.abs(got - want))):.3e}")


def l2(op, artifact):
    rep = _json(artifact)
    n = rep["n_fft"]
    theta = TWO_PI * np.arange(n) / n - math.pi
    e = np.exp(1j * theta)
    vals = _blaschke(_carr(op["data"]["zeros"]), _mobius(_c(op["data"]["c"]), e))
    a1 = np.mean(vals * np.conj(e))
    parseval = float(np.mean(np.abs(vals) ** 2))
    dist = math.sqrt(max(0.0, parseval + 1 - 2 * abs(a1)))
    _require(abs(rep["distance"] - dist) <= 1e-9, f"distance {rep['distance']} != {dist}")
    _require(abs(rep["parseval"] - 1) <= 1e-9, f"parseval {rep['parseval']} != 1")


def fit(op, artifact):
    rep = _json(artifact)
    pieces = rep["pieces"]
    mass = sum(c * (b - a) / TWO_PI for a, b, c in pieces)
    _require(abs(mass - 1) <= 1e-12, f"fitted mass {mass}")
    _require(all(c >= 0 for _, _, c in pieces), "negative level")
    eps = op["data"]["eps"]
    own = [abs(_moment(pieces, k) - _c(v)) for v, k in op["data"]["targets"]]
    _require(max(own, default=0.0) <= eps, f"recomputed residuals {own} exceed eps {eps}")
    _require(_close(rep["residuals"], own, 0, 1e-9), "reported residuals differ from recomputed")


def quartiles(op, artifact):
    rep = _json(artifact)
    pieces = op["data"]["pieces"]
    _require(abs(_cdf(pieces, rep["alpha"]) - 0.25) <= 1e-10, "cdf(alpha) != 1/4")
    _require(abs(_tail(pieces, rep["beta"]) - 0.25) <= 1e-10, "tail(beta) != 1/4")
    mu = _cdf(pieces, op["data"]["window"]) - _cdf(pieces, 0.0)
    tag = "left" if mu <= 0.25 else ("straddle" if mu <= 0.75 else "right")
    _require(rep["case_tag"] == tag, f"case tag {rep['case_tag']} != {tag}")


def _base_edges(pieces) -> np.ndarray:
    return np.array(sorted({x for a, b, _ in pieces for x in (a, b)}))


def pushforward(op, artifact):
    rep = _json(artifact)
    _require(abs(rep["mass"] - 1) <= 1e-10, f"pushforward mass {rep['mass']} not within 1e-10 of 1")
    edges = _base_edges(op["data"]["pieces"])
    image = np.angle(_mobius(_c(op["data"]["c"]), np.exp(1j * np.array(rep["breakpoints"]))))
    gap = np.abs(np.angle(np.exp(1j * (image[:, None] - edges[None, :])))).min(axis=1)
    _require(len(rep["breakpoints"]) == edges.size and float(gap.max()) <= 1e-9,
             "breakpoints do not map onto the base breakpoints")


def pushforward_csv(op, artifact):
    d = op["data"]
    rows = _csv_rows(artifact, ["theta", "u"])
    theta = np.linspace(-math.pi, math.pi, d["samples"], endpoint=False)
    _require(rows.shape == (theta.size, 2) and bool(np.all(rows[:, 0] == theta)),
             "sample angles differ")
    c = _c(d["c"])
    e = np.exp(1j * theta)
    image = np.angle(_mobius(c, e))
    jac = (1 - abs(c) ** 2) / np.abs(1 + np.conj(c) * e) ** 2
    want = _step_value(d["pieces"], image) * jac
    edges = _base_edges(d["pieces"])
    near_jump = np.abs(np.angle(np.exp(1j * (image[:, None] - edges[None, :])))).min(axis=1) <= 1e-9
    ok = (np.abs(rows[:, 1] - want) <= 1e-12 * np.maximum(1, np.abs(want))) | near_jump
    _require(bool(np.all(ok)), "pushforward samples differ from s(arg L_c) |L_c'|")


def align(op, artifact):
    pieces = _json(artifact)["pieces"]
    mass = sum(c * (b - a) / TWO_PI for a, b, c in pieces)
    _require(abs(mass - 1) <= 1e-12, f"aligned mass {mass}")
    a2, b2 = quartile_angles(pieces)
    g = (b2 - a2) / 2
    _require(0 < g < math.pi / 2, "aligned quartile arc spans half the circle or more")
    center = np.exp(1j * (a2 + b2) / 2) / math.cos(g)
    radius = math.tan(g)
    alpha, beta = op["data"]["alpha"], op["data"]["beta"]
    h = (beta - alpha) / 2
    mid = math.cos(h) / (1 + math.sin(h)) * np.exp(1j * (alpha + beta) / 2)
    miss = abs(abs(mid - center) - radius)
    _require(miss <= 1e-8, f"quartile arc misses the target midpoint by {miss:.3e}")


def cluster(op, artifact):
    rep = _json(artifact)
    pts = _carr(op["data"]["points"])
    eps = op["data"]["eps"]
    b = _blaschke(pts, pts)
    values = [pts, b, b * b]
    limits = [_c(v) for v in rep["limits"]]
    _require(_close(limits, [1, 0, 0], 0, 1e-6), f"limits {limits} != (1, 0, 0)")
    idx = rep["indices"]
    _require(len(idx) >= 3 and idx[-1] == pts.size - 1, f"survivors {idx}")
    for vals, lim in zip(values, limits):
        _require(bool(np.all(np.abs(vals[idx] - lim) < eps)), "a survivor misses its limit")


def schwarz(op, artifact):
    rows = _json(artifact)
    pts = _carr(op["data"]["points"])
    want = _tails(pts)
    _require(len(rows) == pts.size, "row count mismatch")
    for (j, vre, vim, inv, tail), t in zip(rows, want):
        _require(abs(complex(vre, vim)) <= 1e-12, f"row {j}: B does not vanish at its zero")
        # these points come within 3e-6 of the circle, where each factor's
        # 1 - conj(w) z loses digits, so the tails agree to 1e-9, not 1e-12
        _require(abs(tail - t) <= 1e-9, f"row {j}: tail {tail} != {t}")
        _require(abs(inv - t) <= 1e-9, f"row {j}: Schwarz identity gap {abs(inv - t):.3e}")


def poisson(op, artifact):
    got = _c(_json(artifact))
    want = complex(_polyval(_carr(op["data"]["coeffs"]), _c(op["data"]["z"])))
    _require(abs(got - want) <= 1e-10 * max(1.0, abs(want)),
             f"Poisson integral {got} != f(z) {want}")
