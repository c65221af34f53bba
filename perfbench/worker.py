"""One benchmark session in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --mode MODE \
        --budget SECONDS --result PATH

MODE is ``setup`` (set up and stop), ``measure`` (set up, then time
complete passes over the op list for at least ``--budget`` seconds),
``trace`` (as measure, alternating untraced passes with passes run under
the tracer) or ``smoke`` (tiny sizes, in-process, one untraced and one
traced pass).

Set-up is: import corona_lab (in-process workloads only), generate the
seeded inputs, and one untimed warm-up pass.  The cli-small warm-up is a
single CLI call, because each of its timed ops is a cold process start
anyway.  Every op's artifact is validated the first time it is produced
and must repeat byte for byte afterwards.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# minimum timed passes per workload, so the tail percentile has a fixed rank
MIN_PASSES = {"cli-small": 2, "disc-sequences": 10, "circle-density": 12, "bezout": 5}

CLI_TIMEOUT_S = 120


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# typical reference_seconds() on the machine the bounds were set on; run.py
# scales every timed wall time by REFERENCE_S over the reference time
# measured next to it
REFERENCE_S = 0.0045


def reference_seconds() -> float:
    """Wall time of one run of a fixed kernel that uses no corona_lab code.
    It mixes the three kinds of work the workloads do: interpreted integer,
    float and dict work; numpy complex arithmetic on a 4096-point array that
    stays in cache; and numpy streaming through fresh 4 MiB arrays, which
    slows with the host's memory traffic as the largest ops do."""
    import numpy as np
    t0 = time.perf_counter()
    acc, table = 0, {}
    for k in range(12000):
        acc += (k * k) % 7
        table[k & 255] = acc * 0.5
    z = np.exp(1j * np.linspace(0.0, 6.0, 4096))
    a = 0.3 + 0.4j
    for _ in range(24):
        z = (z - a) / (1 - np.conj(a) * z)
    big = np.ones(1 << 18, dtype=complex) * (0.5 + 0.1j) + 1.0
    float(np.abs(big).sum() + np.abs(z).sum())
    return time.perf_counter() - t0


class Session:
    def __init__(self, workload: str, seed: int, scale: str, in_process: bool):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.in_process = in_process
        self.work = os.path.relpath(os.path.join(HERE, "out", "work", workload), ROOT)
        self.ops = []
        self.first = {}        # op index -> sha256 of the first artifact
        self.invalid = {}      # op index -> reason
        self.samples = []      # (op index, seconds, reference seconds) of timed executions
        self.failed = 0
        self.out_bytes = {}    # op index -> artifact size
        self.import_stderr = []
        self.tracer = None

    # ------------------------------------------------------------- set-up

    def setup(self) -> None:
        if self.in_process:
            sys.path.insert(0, SRC)
            import corona_lab.cli  # noqa: F401  (timed as part of set-up)
        import workloads
        self.ops = workloads.build(self.workload, self.seed, self.work, self.scale)
        self.prepared = {i: self._prepare(op) for i, op in enumerate(self.ops) if "call" in op}

    def _prepare(self, op) -> dict:
        """Load a call op's input files into Python values, outside the timing."""
        import numpy as np
        loaded = {}
        for key, path in op["params"].items():
            with open(path) as fh:
                loaded[key] = json.load(fh)
        if "zeros" in loaded:
            loaded["zeros"] = tuple(complex(*p) for p in loaded["zeros"]["zeros"])
        if "points" in loaded:
            loaded["points"] = [complex(*p) for p in loaded["points"]["points"]]
            if op["call"].startswith("blaschke"):
                loaded["points"] = np.array(loaded["points"])
        return loaded

    # ---------------------------------------------------------- execution

    def execute(self, i: int, traced: bool = False) -> tuple:
        """Run op i once; returns (seconds, artifact bytes or None, error)."""
        op = self.ops[i]
        if "call" in op:
            return self._call(i)
        if os.path.exists(op["out"]):
            os.remove(op["out"])
        if self.in_process:
            return self._cli_inprocess(op)
        return self._cli_subprocess(i, op, traced)

    def _collect(self, op, rc, stderr: bytes) -> tuple:
        if rc != op["rc"]:
            return None, f"exit {rc}, expected {op['rc']}: {stderr[-300:]!r}"
        if op["rc"] != 0:
            return stderr, None
        try:
            with open(op["out"], "rb") as fh:
                return fh.read(), None
        except OSError as e:
            return None, f"no artifact: {e}"

    def _cli_inprocess(self, op) -> tuple:
        from corona_lab import cli
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op["argv"])
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
        dt = time.perf_counter() - t0
        return (dt,) + self._collect(op, rc, err.getvalue().encode())

    def _cli_subprocess(self, i: int, op, traced: bool) -> tuple:
        if traced:
            spans = os.path.join(self.work, f"spans-{i}.json")
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "clitrace.py"),
                   spans, "--"] + op["argv"]
        else:
            cmd = [sys.executable, "-m", "corona_lab"] + op["argv"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, f"timed out after {CLI_TIMEOUT_S} s"
        dt = time.perf_counter() - t0
        stderr = proc.stderr
        if traced:
            text = stderr.decode(errors="replace")
            self.import_stderr.append(text)
            stderr = "".join(line for line in text.splitlines(True)
                             if not line.startswith("import time:")).encode()
            self._absorb_spans(spans, i)
        return (dt,) + self._collect(op, proc.returncode, stderr)

    def _absorb_spans(self, path: str, i: int) -> None:
        with open(path) as fh:
            doc = json.load(fh)
        os.remove(path)
        base = len(self.tracer.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1, i])
        for name, n in doc["counts"].items():
            self.tracer.counts[name] = self.tracer.counts.get(name, 0) + n

    def _call(self, i: int) -> tuple:
        import numpy as np
        from corona_lab import blaschke, hoffman, measures
        from corona_lab.functions import FunctionSpec
        op, inp = self.ops[i], self.prepared[i]
        name = op["call"]
        t0 = time.perf_counter()
        if name in ("blaschke_value", "blaschke_derivative"):
            b = blaschke.BlaschkeProduct(inp["zeros"])
            pts = inp["points"]
            result = b(pts) if name == "blaschke_value" else b.derivative(pts)
        elif name == "schwarz_check":
            result = hoffman.schwarz_check(blaschke.DiscSequence(tuple(inp["points"])))
        elif name == "poisson_integral":
            f = FunctionSpec.polynomial([complex(*p) for p in inp["input"]["coeffs"]])
            result = measures.poisson_integral(f, complex(*inp["input"]["z"]))
        else:
            raise ValueError(f"unknown call {name}")
        dt = time.perf_counter() - t0
        if name == "schwarz_check":
            artifact = json.dumps([[r.index, r.value.real, r.value.imag,
                                    r.derivative_invariant, r.separation_tail]
                                   for r in result]).encode()
        elif name == "poisson_integral":
            artifact = json.dumps([result.real, result.imag]).encode()
        else:
            artifact = np.asarray(result, dtype=complex).tobytes()
        return dt, artifact, None

    def run_op(self, i: int, traced: bool = False) -> tuple:
        """Execute, then validate on first sight or compare bytes after."""
        import validate
        if self.tracer is not None and traced:
            self.tracer.op = i
            rec = self.tracer.begin("op")
        try:
            dt, artifact, error = self.execute(i, traced)
        except Exception as e:  # an op that raises is a failed op, not a crash
            dt, artifact, error = 0.0, None, f"raised {type(e).__name__}: {e}"
        finally:
            if self.tracer is not None and traced:
                self.tracer.end(rec)
        if error is None:
            digest = hashlib.sha256(artifact).hexdigest()
            self.out_bytes[i] = len(artifact)
            if i not in self.first:
                self.first[i] = digest
                try:
                    getattr(validate, self.ops[i]["check"])(self.ops[i], artifact)
                except validate.Invalid as e:
                    self.invalid[i] = f"validator: {e}"
                except Exception as e:
                    self.invalid[i] = f"validator raised {type(e).__name__}: {e}"
            elif digest != self.first[i]:
                error = "artifact bytes differ from the first execution"
        else:
            self.first.setdefault(i, None)
        if error is not None:
            self.invalid.setdefault(i, error)
        return dt, error is None and i not in self.invalid

    def warm_up(self) -> None:
        indices = range(len(self.ops)) if self.in_process else range(1)
        for i in indices:
            self.run_op(i)

    def timed_pass(self, traced: bool = False) -> float:
        wall = 0.0
        for i in range(len(self.ops)):
            ref = reference_seconds()
            dt, ok = self.run_op(i, traced)
            wall += dt
            self.samples.append((i, dt, ref))
            self.failed += not ok
        return wall


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "smoke"), required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    smoke = args.mode == "smoke"
    import workloads
    in_process = smoke or args.workload in workloads.IN_PROCESS
    s = Session(args.workload, args.seed, "smoke" if smoke else "full", in_process)
    s.setup()
    s.warm_up()
    # long-lived objects from imports and set-up leave the collector's view,
    # so a full collection does not stall a timed op for ~25 ms now and then
    gc.collect()
    gc.freeze()
    result = {"setup_end": time.monotonic(), "ops": s.ops, "seed": args.seed,
              "setup_refs": [reference_seconds() for _ in range(3)]}

    passes = []
    if args.mode == "measure":
        t0 = time.monotonic()
        while len(passes) < MIN_PASSES[args.workload] or time.monotonic() - t0 < args.budget:
            passes.append({"wall": s.timed_pass(), "traced": False})
    elif args.mode in ("trace", "smoke"):
        # untraced and traced passes alternate, so the tracing overhead is
        # taken between neighbouring passes while the machine drifts
        import tracer
        s.tracer = tracer.Tracer()
        t0 = time.monotonic()
        while not passes or time.monotonic() - t0 < args.budget:
            passes.append({"wall": s.timed_pass(), "traced": False})
            restore = tracer.install(s.tracer) if in_process else None
            start, counts = len(s.tracer.spans), dict(s.tracer.counts)
            try:
                wall = s.timed_pass(traced=True)
            finally:
                if restore:
                    restore()
            passes.append({"wall": wall, "traced": True,
                           "spans": [start, len(s.tracer.spans)],
                           "counts": {k: v - counts.get(k, 0)
                                      for k, v in s.tracer.counts.items()}})

    result.update({
        "passes": passes,
        "samples": s.samples,
        "failed": s.failed,
        "invalid": {s.ops[i]["id"]: why for i, why in sorted(s.invalid.items())},
        "sha256": {s.ops[i]["id"]: h for i, h in sorted(s.first.items())},
        "out_bytes": [s.out_bytes.get(i, 0) for i in range(len(s.ops))],
        "peak_rss_mb": _peak_rss_mb(in_process),
        "import_stderr": s.import_stderr,
    })
    if s.tracer is not None:
        result["spans"] = s.tracer.spans
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
