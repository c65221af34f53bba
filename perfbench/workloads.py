"""Seeded inputs and fixed op lists for the four benchmark workloads.

``build(workload, seed, work, scale)`` writes every input file under the
``work`` directory and returns the op list.  The op list (ids, argv shapes,
sizes) is the same for every seed; only the numbers in the input files and
inline arguments depend on the seed.  Every op names the independent
validator that checks its artifact and the data that validator needs.

Op fields:
  id      unique name, stable across seeds
  argv    corona-lab argv (``cli`` ops; ``--out`` names the artifact file)
  call    name of a library call run in-process (``call`` ops)
  params  input file paths for a ``call`` op
  rc      expected exit code (cli ops)
  check   validator name (see validate.py) and ``data`` its parameters
  slope   (layer, size) when the op is one rung of a size ladder
"""

import json
import math
import os

import numpy as np

from validate import quartile_angles

WORKLOADS = ("cli-small", "disc-sequences", "circle-density", "bezout")
IN_PROCESS = {"disc-sequences", "circle-density", "bezout"}

SIZES = {
    "full": {
        "interp": (100, 200, 400),
        "ladder": (50, 100, 200, 400),
        "eval": (50, 100, 200),
        "eval_points": 4096,
        "schwarz": (20, 40, 80),
        "l2": (10, 50, 200),
        "trace": (40, 400),
        "push": (1, 10, 50, 200),
        "samples": (50, 2048),
        "quartiles": 50,
        "align": 16,
        "fit": ((16, 4), (64, 8), (256, 16)),
        "poisson_degree": 8,
        "degrees": (4, 6, 8, 10),
    },
    "smoke": {
        "interp": (5, 8),
        "ladder": (6, 10),
        "eval": (3, 5),
        "eval_points": 16,
        "schwarz": (4, 6),
        "l2": (2, 3),
        "trace": (4, 8),
        "push": (1, 3),
        "samples": (3, 16),
        "quartiles": 4,
        "align": 4,
        "fit": ((4, 2), (8, 2)),
        "poisson_degree": 3,
        "degrees": (2, 3),
    },
}


class _Writer:
    """Writes input files below ``work/in`` and names artifacts below
    ``work/out``; paths are kept relative to the checkout root so artifacts
    that quote a path are identical across checkouts."""

    def __init__(self, work: str):
        self.work = work
        os.makedirs(os.path.join(work, "in"), exist_ok=True)
        os.makedirs(os.path.join(work, "out"), exist_ok=True)

    def put(self, name: str, doc) -> str:
        path = os.path.join(self.work, "in", name)
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path

    def out(self, op_id: str) -> str:
        safe = op_id.replace("/", "_").replace("=", "")
        return os.path.join(self.work, "out", safe)


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _pairs(zs) -> list:
    return [_pair(z) for z in zs]


def _inline(doc) -> str:
    return json.dumps(doc)


def _disc_points(rng, n: int, rmax: float) -> list:
    r = rmax * np.sqrt(rng.uniform(0, 1, n))
    t = rng.uniform(-math.pi, math.pi, n)
    return [complex(z) for z in r * np.exp(1j * t)]


def _poly_doc(coeffs) -> dict:
    return {"kind": "polynomial", "data": {"coeffs": _pairs(coeffs)}}


def _step_density(rng, pieces: int, lo: float = -math.pi,
                  hi: float = math.pi) -> list:
    """Contiguous unit-mass step density with ``pieces`` arcs inside [lo, hi]."""
    inner = np.sort(rng.uniform(lo, hi, pieces - 1)) if pieces > 1 else np.array([])
    edges = [lo] + [float(x) for x in inner] + [hi]
    levels = rng.uniform(0.2, 2.0, pieces)
    mass = sum(c * (b - a) / (2 * math.pi)
               for a, b, c in zip(edges, edges[1:], levels))
    return [[a, b, float(c / mass)] for a, b, c in zip(edges, edges[1:], levels)]


def _cli(op_id, argv, out, check, data=None, rc=0, slope=None) -> dict:
    op = {"id": op_id, "argv": list(argv) + ["--out", out], "out": out,
          "rc": rc, "check": check, "data": data or {}}
    if slope:
        op["slope"] = list(slope)
    return op


def _call(op_id, call, params, check, data=None, slope=None) -> dict:
    op = {"id": op_id, "call": call, "params": params, "check": check,
          "data": data or {}}
    if slope:
        op["slope"] = list(slope)
    return op


# ------------------------------------------------------------------ cli-small

ANCHOR_PAIR = [[0, 0, 1], [-0.5, 1]]          # (z^2, z - 1/2)
ANCHOR_CERT = [[4], [-2, -4]]                  # (4, -4z - 2)


def _cli_small(w: _Writer, rng, sizes) -> list:
    ops = []
    zero = _disc_points(rng, 1, 0.9)[0]
    at = _disc_points(rng, 1, 0.9)[0]
    ops.append(_cli("blaschke-eval", ["blaschke-eval", "--zeros", _inline([_pair(zero)]),
                                      "--at", _inline(_pair(at))],
                    w.out("blaschke-eval"), "blaschke_point",
                    {"zeros": [_pair(zero)], "at": _pair(at)}))

    anchor = w.put("anchor.json", {"functions": [_poly_doc(c) for c in ANCHOR_PAIR]})
    cert = w.put("anchor_cert.json", {"solutions": [_poly_doc(c) for c in ANCHOR_CERT]})
    ops.append(_cli("corona-solve", ["corona-solve", "--in", anchor],
                    w.out("corona-solve"), "bezout",
                    {"functions": [_pairs(c) for c in ANCHOR_PAIR], "tol": 1e-8, "anchor": ANCHOR_CERT,
                     "seed": int(rng.integers(1 << 30))}))
    check_seed = int(rng.integers(1 << 30))
    ops.append(_cli("corona-check", ["corona-check", "--in", anchor, "--cert", cert,
                                     "--seed", str(check_seed)],
                    w.out("corona-check"), "check_report",
                    {"tol": 1e-8, "samples": 10000 + 2 * 256 + 17}))

    pair = [[complex(c) for c in rng.normal(size=4) + 1j * rng.normal(size=4)]
            for _ in range(2)]
    inst = w.put("delta_pair.json", {"functions": [_poly_doc(c) for c in pair]})
    ops.append(_cli("delta", ["delta", "--in", inst], w.out("delta"), "delta",
                    {"functions": [_pairs(c) for c in pair]}))

    pts = _disc_points(rng, 8, 0.9)
    seq = w.put("seq8.json", {"points": _pairs(pts)})
    ops.append(_cli("interp-check", ["interp-check", "--points", seq],
                    w.out("interp-check"), "tails", {"points": _pairs(pts)}))

    # the 30-zero, five-rung ladder of acceptance criterion 10
    zeros = w.put("ladder30.json", {"zeros": [[1 - 2.0 ** -k, 0.0] for k in range(1, 31)]})
    cands = w.put("ladder30_cands.json",
                  {"points": [[1 - 3.0 ** -n, 0.0] for n in range(1, 33)]})
    eps = [2.0 ** -j for j in range(1, 6)]
    eta = [1 - 2.0 ** -j for j in range(1, 6)]
    ops.append(_cli("ladder", ["ladder", "--zeros", zeros, "--candidates", cands,
                               "--eps", _inline(eps), "--eta", _inline(eta),
                               "--ell", "0.5"],
                    w.out("ladder"), "ladder", {"eps": eps, "rungs": 5}))

    fzeros = _disc_points(rng, 3, 0.8)
    fn = w.put("trace_fn.json", {"kind": "finite_blaschke",
                                 "data": {"zeros": _pairs(fzeros), "rotation": 0.0}})
    tpts = _geometric(rng, 8, 0.7, 0.3)
    tseq = w.put("trace_seq8.json", {"points": _pairs(tpts)})
    ops.append(_cli("hoffman-trace", ["hoffman-trace", "--function", fn, "--points", tseq],
                    w.out("hoffman-trace"), "trace_csv",
                    {"zeros": _pairs(fzeros), "points": _pairs(tpts),
                     "grid_size": 40, "grid_radius": 0.9}))

    lzeros = _disc_points(rng, 4, 0.7)
    c = _disc_points(rng, 1, 0.3)[0]
    ops.append(_cli("l2-identity", ["l2-identity", "--zeros", _inline(_pairs(lzeros)),
                                    "--c", _inline(_pair(c))],
                    w.out("l2-identity"), "l2", {"zeros": _pairs(lzeros), "c": _pair(c)}))

    ops.append(_fit_op(w, rng, "measure-fit", 8, 2))

    dens = _step_density(rng, 8)
    dfile = w.put("density8.json", {"pieces": dens})
    ops.append(_cli("quartiles", ["quartiles", "--density", dfile], w.out("quartiles"),
                    "quartiles", {"pieces": dens, "window": math.pi}))

    ops.append(_push_op(w, rng, "pushforward", 1))
    ops.append(_align_op(w, rng, "align-arcs", 4))

    ratio = float(rng.uniform(0.45, 0.55))
    cpts = [1 - ratio ** j for j in range(1, 31)]
    bz = {"zeros": _pairs(cpts), "rotation": 0.0}
    sq = {"zeros": _pairs(cpts + cpts), "rotation": 0.0}
    fns = w.put("cluster_fns.json", {"functions": [
        _poly_doc([0, 1]),
        {"kind": "finite_blaschke", "data": bz},
        {"kind": "finite_blaschke", "data": sq}]})
    cseq = w.put("cluster_seq.json", {"points": _pairs(cpts)})
    ops.append(_cli("cluster-scenario", ["cluster-scenario", "--functions", fns,
                                         "--points", cseq],
                    w.out("cluster-scenario"), "cluster",
                    {"points": _pairs(cpts), "eps": 1e-6}))
    return ops


def _geometric(rng, n: int, ratio: float, spread: float) -> list:
    """Points (1 - ratio^k) e^{i t_k}, k = 1..n, with seeded angles."""
    t = rng.uniform(-spread, spread, n)
    return [complex((1 - ratio ** k) * np.exp(1j * t[k - 1])) for k in range(1, n + 1)]


def _fit_op(w: _Writer, rng, op_id: str, bins: int, targets: int, slope=None) -> dict:
    """measure-fit over ``bins`` equal bins of the circle; targets are the
    moments z^1..z^targets of a seeded step density on the same bins, so an
    exact nonnegative fit exists."""
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    partition = [[float(a), float(b)] for a, b in zip(edges, edges[1:])]
    levels = rng.uniform(0.2, 2.0, bins)
    levels = levels / float(np.sum(levels * np.diff(edges)) / (2 * math.pi))
    entries = []
    for k in range(1, targets + 1):
        moment = sum(c * (np.exp(1j * k * b) - np.exp(1j * k * a)) / (2j * math.pi * k)
                     for (a, b), c in zip(partition, levels))
        coeffs = [0] * k + [1]
        entries.append({"function": _poly_doc(coeffs), "value": _pair(moment)})
    spec = w.put(f"{op_id.replace('/', '_')}.json",
                 {"targets": entries, "partition": partition})
    return _cli(op_id, ["measure-fit", "--in", spec], w.out(op_id), "fit",
                {"targets": [[e["value"], k] for k, e in enumerate(entries, 1)],
                 "eps": 1e-3}, slope=slope)


def _push_op(w: _Writer, rng, op_id: str, pieces: int, samples: int = 0,
             slope=None) -> dict:
    dens = _step_density(rng, pieces, -2.5, 2.5)
    c = _disc_points(rng, 1, 0.6)[0]
    dfile = w.put(f"{op_id.replace('/', '_')}.json", {"pieces": dens})
    argv = ["pushforward", "--density", dfile, "--c", _inline(_pair(c))]
    check = "pushforward"
    if samples:
        argv += ["--samples", str(samples)]
        check = "pushforward_csv"
    return _cli(op_id, argv, w.out(op_id), check,
                {"pieces": dens, "c": _pair(c), "samples": samples}, slope=slope)


def _align_op(w: _Writer, rng, op_id: str, pieces: int) -> dict:
    # case a needs alpha# <= alpha <= 0 <= beta <= beta#; a contiguous
    # support has no gap at either endpoint
    while True:
        dens = _step_density(rng, pieces, -2.0, 2.0)
        a_sharp, b_sharp = quartile_angles(dens)
        if a_sharp < 0 < b_sharp:
            break
    alpha = a_sharp * float(rng.uniform(0.3, 0.9))
    beta = b_sharp * float(rng.uniform(0.3, 0.9))
    dfile = w.put(f"{op_id}.json", {"pieces": dens})
    return _cli(op_id, ["align-arcs", "--density", dfile, "--alpha", repr(alpha),
                        "--beta", repr(beta), "--case", "a"],
                w.out(op_id), "align", {"alpha": alpha, "beta": beta})


# ------------------------------------------------------------- disc-sequences

def _disc_sequences(w: _Writer, rng, sizes) -> list:
    ops = []
    for n in sizes["interp"]:
        pts = _disc_points(rng, n, 0.95)
        f = w.put(f"interp{n}.json", {"points": _pairs(pts)})
        ops.append(_cli(f"interp-check/n={n}", ["interp-check", "--points", f],
                        w.out(f"interp-check/n={n}"), "tails", {"points": _pairs(pts)},
                        slope=("blaschke.carleson", n)))
    eps = [0.5, 0.25, 0.125]
    eta = [0.5, 0.75, 0.875]
    cands = w.put("ladder_cands.json",
                  {"points": [[1 - 3.0 ** -m, 0.0] for m in range(1, 33)]})
    for n in sizes["ladder"]:
        # alternate sides of the candidate ray at 0.1..0.2 rad, so the scan
        # length depends little on the seed
        angles = rng.uniform(0.04, 0.2, n) * (-1.0) ** np.arange(n)
        zeros = [(1 - 0.5 / k ** 2) * np.exp(1j * angles[k - 1]) for k in range(1, n + 1)]
        f = w.put(f"ladder{n}.json", {"zeros": _pairs(zeros)})
        ops.append(_cli(f"ladder/n={n}", ["ladder", "--zeros", f, "--candidates", cands,
                                          "--eps", _inline(eps), "--eta", _inline(eta),
                                          "--ell", "0.5"],
                        w.out(f"ladder/n={n}"), "ladder", {"eps": eps, "rungs": 3},
                        slope=("blaschke.ladder", n)))
    m = sizes["eval_points"]
    for n in sizes["eval"]:
        zf = w.put(f"bzeros{n}.json", {"zeros": _pairs(_disc_points(rng, n, 0.95))})
        pf = w.put(f"bpoints{n}.json", {"points": _pairs(_disc_points(rng, m, 0.99))})
        params = {"zeros": zf, "points": pf}
        ops.append(_call(f"blaschke-value/n={n}", "blaschke_value", params,
                         "blaschke_values"))
        ops.append(_call(f"blaschke-derivative/n={n}", "blaschke_derivative", params,
                         "blaschke_derivative", slope=("blaschke.derivative", n)))
    for n in sizes["schwarz"]:
        pts = _geometric(rng, n, 0.85, 0.3)
        f = w.put(f"schwarz{n}.json", {"points": _pairs(pts)})
        ops.append(_call(f"schwarz-check/n={n}", "schwarz_check", {"points": f},
                         "schwarz", {"points": _pairs(pts)}))
    for n in sizes["l2"]:
        zeros = _disc_points(rng, n, 0.7)
        c = _disc_points(rng, 1, 0.3)[0]
        ops.append(_cli(f"l2-identity/n={n}",
                        ["l2-identity", "--zeros", _inline(_pairs(zeros)),
                         "--c", _inline(_pair(c))],
                        w.out(f"l2-identity/n={n}"), "l2",
                        {"zeros": _pairs(zeros), "c": _pair(c)}))
    n, grid = sizes["trace"]
    fzeros = _disc_points(rng, 5, 0.8)
    fn = w.put("trace_fn.json", {"kind": "finite_blaschke",
                                 "data": {"zeros": _pairs(fzeros), "rotation": 0.0}})
    pts = _geometric(rng, n, 0.85, 0.3)
    seq = w.put(f"trace_seq{n}.json", {"points": _pairs(pts)})
    ops.append(_cli(f"hoffman-trace/n={n}",
                    ["hoffman-trace", "--function", fn, "--points", seq,
                     "--grid-size", str(grid)],
                    w.out(f"hoffman-trace/n={n}"), "trace_csv",
                    {"zeros": _pairs(fzeros), "points": _pairs(pts),
                     "grid_size": grid, "grid_radius": 0.9}))
    return ops


# ------------------------------------------------------------- circle-density

def _circle_density(w: _Writer, rng, sizes) -> list:
    ops = [_push_op(w, rng, f"pushforward/p={p}", p, slope=("measures.pushforward", p))
           for p in sizes["push"]]
    p, samples = sizes["samples"]
    ops.append(_push_op(w, rng, f"pushforward-csv/p={p}", p, samples=samples))
    dens = _step_density(rng, sizes["quartiles"])
    f = w.put("quartiles.json", {"pieces": dens})
    ops.append(_cli("quartiles", ["quartiles", "--density", f], w.out("quartiles"),
                    "quartiles", {"pieces": dens, "window": math.pi}))
    ops.append(_align_op(w, rng, "align-arcs", sizes["align"]))
    for bins, targets in sizes["fit"]:
        ops.append(_fit_op(w, rng, f"measure-fit/{bins}x{targets}", bins, targets,
                           slope=("measures.fit", bins)))
    deg = sizes["poisson_degree"]
    coeffs = [complex(c) for c in rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)]
    z = _disc_points(rng, 1, 0.8)[0]
    f = w.put("poisson.json", {"coeffs": _pairs(coeffs), "z": _pair(z)})
    ops.append(_call("poisson-integral", "poisson_integral", {"input": f}, "poisson",
                     {"coeffs": _pairs(coeffs), "z": _pair(z)}))
    return ops


# --------------------------------------------------------------------- bezout

def _roots_apart(roots_f, roots_g, gap: float) -> bool:
    d = np.abs(np.asarray(roots_f)[:, None] - np.asarray(roots_g)[None, :])
    return bool(d.min() >= gap)


def _full_mantissa(rng, n: int) -> np.ndarray:
    """Random doubles of modulus in [1/2, 1): every one has the same binary
    exponent and a full 53-bit mantissa, so the exact solver's bit lengths,
    and with them its cost, do not drift with the seed."""
    return rng.uniform(0.5, 1.0, n) * rng.choice((-1.0, 1.0), n)


def _pair_53bit(rng, d: int) -> list:
    """Two degree-d polynomials with full-mantissa complex coefficients whose
    roots stay at least 0.25 apart, so the pair is coprime and well
    conditioned."""
    while True:
        f, g = (_full_mantissa(rng, d + 1) + 1j * _full_mantissa(rng, d + 1)
                for _ in range(2))
        if _roots_apart(np.roots(f[::-1]), np.roots(g[::-1]), 0.25):
            return [[complex(c) for c in f], [complex(c) for c in g]]


def _dyadic_poly(rng, d: int) -> list:
    re = rng.integers(-8, 9, d + 1)
    im = rng.integers(-8, 9, d + 1)
    if re[-1] == 0 and im[-1] == 0:
        re[-1] = 8
    return [complex(a / 8, b / 8) for a, b in zip(re, im)]


def _pair_dyadic(rng, d: int) -> list:
    """Two degree-d polynomials with coefficients k/8 (3-bit dyadic), roots
    at least 0.1 apart."""
    while True:
        f, g = _dyadic_poly(rng, d), _dyadic_poly(rng, d)
        if _roots_apart(np.roots(f[::-1]), np.roots(g[::-1]), 0.1):
            return [f, g]


def _poly_mul(f, g) -> list:
    return [complex(c) for c in np.convolve(f, g)]


def _bezout_instance_ops(w: _Writer, rng, tag: str, funcs, slope=None) -> list:
    inst = w.put(f"{tag}.json", {"functions": [_poly_doc(c) for c in funcs]})
    data = {"functions": [_pairs(c) for c in funcs], "tol": 1e-8,
            "seed": int(rng.integers(1 << 30))}
    exact_out = w.out(f"solve-exact/{tag}")
    deg = max(len(c) for c in funcs) - 1
    ops = [
        _cli(f"solve-exact/{tag}", ["corona-solve", "--in", inst, "--method", "exact"],
             exact_out, "bezout", data, slope=slope),
        _cli(f"solve-numeric/{tag}", ["corona-solve", "--in", inst, "--method", "numeric",
                                      "--degree-cap", str(deg)],
             w.out(f"solve-numeric/{tag}"), "bezout", data),
        _cli(f"check/{tag}", ["corona-check", "--in", inst, "--cert", exact_out,
                              "--seed", str(data["seed"])],
             w.out(f"check/{tag}"), "check_report",
             {"tol": 1e-8, "samples": 10000 + 2 * 256 + 17}),
        _cli(f"delta/{tag}", ["delta", "--in", inst], w.out(f"delta/{tag}"), "delta",
             {"functions": data["functions"]}),
    ]
    return ops


def _bezout(w: _Writer, rng, sizes) -> list:
    ops = []
    for d in sizes["degrees"]:
        ops += _bezout_instance_ops(w, rng, f"d{d}-53bit", _pair_53bit(rng, d),
                                    slope=("exactpoly.xgcd", d))
        ops += _bezout_instance_ops(w, rng, f"d{d}-dyadic", _pair_dyadic(rng, d))
    d = sizes["degrees"][0]
    triple = [_dyadic_poly(rng, d) for _ in range(3)]
    f = w.put("triple.json", {"functions": [_poly_doc(c) for c in triple]})
    ops.append(_cli("solve-exact/k3", ["corona-solve", "--in", f, "--method", "exact"],
                    w.out("solve-exact/k3"), "bezout",
                    {"functions": [_pairs(c) for c in triple], "tol": 1e-8,
                     "seed": int(rng.integers(1 << 30))}))
    # common factor (z - r): rational solutions when |r| > 1, none when |r| < 1
    p, q = _pair_dyadic(rng, d - 1)
    for tag, lo, hi, rc in (("rational", 12, 20, 0), ("unsolvable", 0, 6, 1)):
        root = complex(int(rng.integers(lo, hi + 1)) / 8
                       * [1, 1j, -1, -1j][int(rng.integers(0, 4))])
        funcs = [_poly_mul([-root, 1], p), _poly_mul([-root, 1], q)]
        f = w.put(f"{tag}.json", {"functions": [_poly_doc(c) for c in funcs]})
        data = {"functions": [_pairs(c) for c in funcs], "tol": 1e-8,
                "seed": int(rng.integers(1 << 30)), "root": _pair(root)}
        ops.append(_cli(f"solve-exact/{tag}", ["corona-solve", "--in", f, "--method", "exact"],
                        w.out(f"solve-exact/{tag}"),
                        "bezout" if rc == 0 else "unsolvable", data, rc=rc))
    return ops


_BUILDERS = {
    "cli-small": _cli_small,
    "disc-sequences": _disc_sequences,
    "circle-density": _circle_density,
    "bezout": _bezout,
}


def build(workload: str, seed: int, work: str, scale: str = "full") -> list:
    """Write the workload's inputs under ``work`` and return its op list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](_Writer(work), rng, SIZES[scale])
