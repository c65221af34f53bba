"""corona-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run sets the workload up ``SETUPS`` times, each in a
fresh process, then times complete passes over the workload's op list for
at least ``--seconds`` seconds in the last of them, and reports the
end-to-end metrics.  Those times are normalised by a reference kernel
timed next to each of them (see ``normalised``), because the machine's
speed drifts.  With ``--trace 1`` one session alternates untraced and
traced passes for ``--seconds`` seconds, and reports the per-layer metrics
plus the tracing overhead.  The last line of stdout is
one JSON object; the full record (seed, op list, environment, artifact
hashes, spans) goes to ``perfbench/out/<workload>/``.

Everything runs single-threaded (BLAS pinned to one thread); the cli-small
workload starts one CLI subprocess at a time.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracer  # noqa: E402
from worker import MIN_PASSES, REFERENCE_S, reference_seconds  # noqa: E402
from workloads import IN_PROCESS, WORKLOADS  # noqa: E402

SETUPS = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# span name -> per-layer metric; self time in ms summed over one pass
LAYER_TIMES = {
    "cli.parse": "cli.parse_ms",
    "serialize.load": "serialize.load_ms",
    "serialize.dumps": "serialize.dumps_ms",
    "blaschke.eval": "blaschke.eval_ms",
    "blaschke.derivative": "blaschke.derivative_ms",
    "blaschke.carleson": "blaschke.carleson_ms",
    "blaschke.ladder": "blaschke.ladder_ms",
    "blaschke.min_modulus": "blaschke.min_modulus_ms",
    "blaschke.compose": "blaschke.compose_ms",
    "hoffman.schwarz": "hoffman.schwarz_ms",
    "hoffman.trace": "hoffman.trace_ms",
    "hoffman.csv": "hoffman.csv_ms",
    "hoffman.l2": "hoffman.l2_ms",
    "measures.pushforward_mass": "measures.pushforward_mass_ms",
    "measures.density_eval": "measures.density_eval_ms",
    "measures.fit": "measures.fit_ms",
    "measures.nnls": "measures.nnls_ms",
    "measures.quartiles": "measures.quartiles_ms",
    "measures.align": "measures.align_ms",
    "measures.poisson": "measures.poisson_ms",
    "quadrature.piecewise": "quadrature.piecewise_ms",
    "corona.exact": "corona.exact_ms",
    "corona.numeric": "corona.numeric_ms",
    "corona.check": "corona.check_ms",
    "corona.delta": "corona.delta_ms",
    "exactpoly.xgcd": "exactpoly.xgcd_ms",
    "exactpoly.combination": "exactpoly.combination_ms",
    "functions.eval": "functions.eval_ms",
    "functions.sup_norm": "functions.sup_norm_ms",
}

# span name -> metric counting its spans in one pass
SPAN_COUNTS = {
    "blaschke.carleson": "blaschke.carleson_calls",
    "measures.density_eval": "measures.density_eval_calls",
}

# counters recorded by the tracer, per pass
COUNTERS = (
    "disc_geometry.pseudo_distance_calls",
    "disc_geometry.mobius_calls",
    "exactpoly.divmod_calls",
    "quadrature.integrand_calls",
    "quadrature.nodes_evaluated",
)

# size-ladder layer (as tagged in workloads.py) -> span timed at each size
SLOPES = {
    "blaschke.derivative": "blaschke.derivative",
    "blaschke.carleson": "blaschke.carleson",
    "blaschke.ladder": "blaschke.ladder",
    "measures.pushforward": "measures.pushforward_mass",
    "measures.fit": "measures.fit",
    "exactpoly.xgcd": "exactpoly.xgcd",
}

IMPORTS = ("interpreter", "numpy", "scipy_optimize", "corona_lab")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"import.{k}_ms": "ms" for k in IMPORTS}
    units.update({m: "ms" for m in LAYER_TIMES.values()})
    units.update({m: "count" for m in SPAN_COUNTS.values()})
    units.update({m: "count" for m in COUNTERS})
    units["serialize.out_bytes"] = "bytes"
    units["blaschke.ladder_candidates_scanned"] = "count"
    units.update({f"{layer}_slope": "log-log" for layer in SLOPES})
    units["trace.overhead_ms"] = "ms"
    return units


# ------------------------------------------------------------------ helpers

def tail_ops(min_passes: int) -> int:
    """How many of the slowest ops lie beyond the tail op: enough for at
    least TAIL_BEYOND samples beyond it at the minimum pass count.  The tail
    reads one op's median, so it names the same op whatever the number of
    passes."""
    return math.ceil(TAIL_BEYOND / min_passes)


def loglog_slope(sizes, times) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(), "cpu": cpu}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, budget: float, deadline: float,
               importtime: bool = False) -> tuple:
    """Run one worker session; returns (result dict, spawn time, stderr)."""
    os.makedirs(os.path.join(OUT, workload), exist_ok=True)
    result_path = os.path.join(OUT, workload, f"session-{mode}.json")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--budget", repr(budget), "--result", result_path]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} session overran the {DEADLINE_S:.0f} s deadline")
    stderr = err.decode(errors="replace")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} session exited {proc.returncode}:\n{stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result, spawned, stderr


def failures(sessions) -> tuple:
    """(attempted, failed, reasons) of the timed executions in the last
    session; an op whose bytes differ between sessions fails everywhere."""
    last = sessions[-1]
    attempted = len(last["samples"])
    reasons = dict(last["invalid"])
    for other in sessions[:-1]:
        for op_id, digest in other["sha256"].items():
            if digest is not None and last["sha256"].get(op_id) not in (None, digest):
                reasons.setdefault(op_id, "artifact bytes differ between sessions")
    ids = [op["id"] for op in last["ops"]]
    failed = sum(1 for i, *_ in last["samples"] if ids[i] in reasons)
    return attempted, max(failed, last["failed"]), reasons


# ---------------------------------------------------------------- end to end

def normalised(seconds: float, ref: float) -> float:
    """A wall time scaled to the reference speed: the machine's speed drifts
    by up to 2x within a minute, and the reference kernel timed next to the
    measurement drifts with it."""
    return seconds * REFERENCE_S / ref


def normalised_samples(samples) -> dict:
    """op index -> its normalised times.  ``samples`` are (op, wall, ref) in
    execution order, ref timed just before the op; each op is scaled by the
    median of the four reference runs around it (before the previous op,
    before it, after it, after the next op)."""
    refs = [ref for _, _, ref in samples]
    per_op = {}
    for k, (i, dt, _) in enumerate(samples):
        local = statistics.median(refs[max(0, k - 1):k + 3])
        per_op.setdefault(i, []).append(normalised(dt, local))
    return per_op


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    sessions, setups, setups_raw = [], [], []
    for k in range(SETUPS):
        mode = "measure" if k == SETUPS - 1 else "setup"
        # reference runs just before the spawn and just after the set-up
        refs = [reference_seconds() for _ in range(3)]
        result, spawned, _ = run_worker(workload, seed, mode, seconds, deadline)
        setups_raw.append(result["setup_end"] - spawned)
        setups.append(normalised(setups_raw[-1],
                                 statistics.median(refs + result["setup_refs"])))
        sessions.append(result)
    last = sessions[-1]
    ops = last["ops"]
    # each op's median over the passes
    medians = sorted(statistics.median(v)
                     for v in normalised_samples(last["samples"]).values())
    beyond = tail_ops(MIN_PASSES[workload])
    attempted, failed, reasons = failures(sessions)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / sum(medians),
        "op_p50_ms": 1000 * statistics.median(medians),
        "op_tail_ms": 1000 * medians[-1 - beyond],
        "peak_rss_mb": last["peak_rss_mb"],
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "environment": environment(),
        "ops": [{k: op[k] for k in ("id", "argv", "call", "params", "rc") if k in op}
                for op in ops],
        "metrics": metrics, "error_rate": failed / attempted,
        "tail_percentile": 100 * (1 - (beyond + 0.5) / len(ops)),
        "samples": len(last["samples"]), "reference_ms": 1000 * REFERENCE_S,
        "pass_wall_s": [p["wall"] for p in last["passes"]],
        "setup_s_each": setups, "setup_wall_s_each": setups_raw,
        # timed executions in order: op index, wall ms, reference ms before it
        "samples_ms": [[i, 1000 * dt, 1000 * ref] for i, dt, ref in last["samples"]],
        "sha256": last["sha256"], "failures": reasons,
    }
    return metrics, attempted, failed, record


# ------------------------------------------------------------------ traced

def _pass_spans(all_spans, lo: int, hi: int) -> list:
    """Spans of one pass with parent indices rebased onto the slice."""
    return [[n, s, e, p - lo if p >= lo else -1, op] for n, s, e, p, op in all_spans[lo:hi]]


def _ladder_candidates(ops) -> int:
    total = 0
    for op in ops:
        path = os.path.join(ROOT, op.get("out", ""))
        if op.get("check") == "ladder" and os.path.exists(path):
            with open(path) as fh:
                total += json.load(fh)["indices"][-1] + 1
    return total


def layer_metrics(result: dict, import_ms: dict) -> tuple:
    """Per-layer metrics from one traced session, plus stability notes."""
    ops = result["ops"]
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    per_pass = []
    for p in traced:
        spans = _pass_spans(result["spans"], *p["spans"])
        selft = tracer.self_times(spans)
        counts = tracer.span_counts(spans)
        row = {metric: 1000 * selft.get(name, 0.0) for name, metric in LAYER_TIMES.items()}
        row.update({metric: counts.get(name, 0) for name, metric in SPAN_COUNTS.items()})
        row.update({name: p["counts"].get(name, 0) for name in COUNTERS})
        for layer, span in SLOPES.items():
            by_op = tracer.inclusive_by_op(spans, span)
            row[f"_{layer}"] = {i: by_op.get(i, 0.0) for i, op in enumerate(ops)
                                if op.get("slope", [None])[0] == layer}
        per_pass.append(row)

    metrics = {f"import.{k}_ms": import_ms[k] for k in IMPORTS}
    for metric in LAYER_TIMES.values():
        metrics[metric] = statistics.median(r[metric] for r in per_pass)
    counts_stable = True
    for metric in list(SPAN_COUNTS.values()) + list(COUNTERS):
        values = {r[metric] for r in per_pass}
        counts_stable &= len(values) == 1
        metrics[metric] = per_pass[0][metric]
    metrics["serialize.out_bytes"] = sum(result["out_bytes"])
    metrics["blaschke.ladder_candidates_scanned"] = _ladder_candidates(ops)
    for layer in SLOPES:
        idx = sorted(per_pass[0][f"_{layer}"], key=lambda i: ops[i]["slope"][1])
        if len(idx) < 2:
            metrics[f"{layer}_slope"] = 0.0
            continue
        sizes = [ops[i]["slope"][1] for i in idx]
        times = [statistics.median(r[f"_{layer}"][i] for r in per_pass) for i in idx]
        metrics[f"{layer}_slope"] = loglog_slope(sizes, times)
    # passes alternate untraced, traced: compare each pair
    metrics["trace.overhead_ms"] = 1000 * statistics.median(
        t["wall"] - u["wall"] for u, t in zip(untraced, traced))
    return metrics, counts_stable, len(traced), len(untraced)


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    in_process = workload in IN_PROCESS
    result, _, stderr = run_worker(workload, seed, "trace", seconds, deadline,
                                   importtime=in_process)
    if in_process:
        import_ms = tracer.parse_importtime(stderr)
    else:
        # one import per CLI call: sum over each traced pass, median over passes
        k = len(result["ops"])
        chunks = [result["import_stderr"][j:j + k]
                  for j in range(0, len(result["import_stderr"]), k)]
        sums = [{key: sum(tracer.parse_importtime(s)[key] for s in chunk) for key in IMPORTS}
                for chunk in chunks if len(chunk) == k]
        import_ms = {key: statistics.median(s[key] for s in sums) for key in IMPORTS}
    metrics, counts_stable, n_traced, n_untraced = layer_metrics(result, import_ms)
    attempted, failed, reasons = failures([result])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "environment": environment(),
        "metrics": metrics, "counts_stable": counts_stable, "traced_passes": n_traced,
        "untraced_passes": n_untraced, "sha256": result["sha256"], "failures": reasons,
    }
    with open(os.path.join(OUT, workload, "spans.jsonl"), "w") as fh:
        ids = [op["id"] for op in result["ops"]]
        for name, start, end, parent, op in result["spans"]:
            fh.write(json.dumps([name, start, end, parent, ids[op] if op >= 0 else None]) + "\n")
    return metrics, attempted, failed, record


# -------------------------------------------------------------------- main

def report(workload: str, metrics: dict, units: dict, attempted: int, failed: int,
           record: dict) -> None:
    print(f"== {workload} seed {record['seed']}")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{record['tail_percentile']:.1f}, n={record['samples']})"
        print(f"{name:40s} {value:14.6g} {units[name]}{note}")
    if "error_rate" in record:
        print(f"{'error_rate':40s} {record['error_rate']:14.6g} ratio"
              f"  ({failed} of {attempted} ops failed)")
    for op_id, why in record["failures"].items():
        print(f"FAILED {op_id}: {why}")


def run_one(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple:
    if trace:
        metrics, attempted, failed, record = measure_traced(workload, seed, seconds, deadline)
        units = per_layer_units()
    else:
        metrics, attempted, failed, record = measure(workload, seed, seconds, deadline)
        units = dict(END_TO_END)
    with open(os.path.join(OUT, workload, "results.json" if not trace else "layers.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    report(workload, metrics, units, attempted, failed, record)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed


def smoke() -> int:
    """Every op and validator at tiny sizes, plus one traced pass."""
    failed = 0
    for workload in WORKLOADS:
        result, _, _ = run_worker(workload, 1, "smoke", 0.0, time.monotonic() + DEADLINE_S)
        bad = result["invalid"]
        spans = len(result.get("spans", []))
        print(f"smoke {workload}: {len(result['ops'])} ops, {spans} spans, "
              f"{len(bad)} failed")
        for op_id, why in bad.items():
            print(f"FAILED {op_id}: {why}")
        failed += len(bad)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "corona_lab", "cli.py")):
        sys.stderr.write(f"no corona_lab sources under {os.path.join(ROOT, 'src')}; "
                         "run from a corona-lab checkout\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        if args.workload != "all":
            deadline = time.monotonic() + DEADLINE_S
            metrics, attempted, failed = run_one(args.workload, args.seed, args.seconds,
                                                 bool(args.trace), deadline)
        else:
            metrics, attempted, failed = {}, 0, 0
            for workload in WORKLOADS:
                deadline = time.monotonic() + DEADLINE_S
                m, a, f = run_one(workload, args.seed, args.seconds, bool(args.trace),
                                  deadline)
                metrics.update({f"{workload}.{k}": v for k, v in m.items()})
                attempted += a
                failed += f
    except BenchError as e:
        sys.stderr.write(f"benchmark error: {e}\n")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
