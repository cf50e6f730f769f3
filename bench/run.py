"""chshlab benchmark: closed-loop workloads through the public CLI entry.

Usage, from the root of a chshlab checkout:

    python3 bench/run.py --workload scenario_batch --seed 1 --seconds 30 --trace 0

One client drives chshlab in this process, one operation at a time, each
waiting for the previous one: CLI commands go through `chshlab.cli.main`, and
`optimize_settings`, which has no CLI command, is called as a library
function.  Every result is checked against the numpy references in
`oracles.py`.  Inputs come from `--seed` and are written before any timing.

A round is the workload's own operation list with the reference ops of
`workloads.REFERENCE` spread evenly between its operations.  With
`--trace 0` rounds repeat until the round boundary nearest to `--seconds`
(at least `MIN_ROUNDS`) and the end-to-end metrics are printed.  With
`--trace 1` one untraced and one traced round run, the per-layer metrics of
the traced round are printed, and its spans are written to `.bench_out/`.
The last line of stdout is the JSON result; a readable summary, with the
unscaled end-to-end figures, goes to stderr.

Timing on a shared machine.  The benchmark process shares its cores with
other tenants, which shows in two ways, both far larger than the changes the
benchmark must resolve.  First, the process is descheduled now and then for
milliseconds; that alone decided the analyze p99.  So in-process operations
are timed in thread CPU time (`time.thread_time`, user + system), which
equals their wall time on an unshared core; only the setup probes, which are
child processes, are timed by the wall clock.  Second, the speed of the core
drifts by 20% and more over tens of seconds.  So every `CAL_EVERY_S` between
operations the benchmark times a fixed numpy kernel that never calls chshlab,
and reports every time at a reference speed: each operation's time is
multiplied by `CAL_NOMINAL_S` over the median kernel time within
`CAL_WINDOW_S` of it.  A change to chshlab cannot move the kernel, so it
moves the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads, here and in child processes
THREAD_PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
CAL_EVERY_S = 0.05
CAL_WINDOW_S = 0.5
CAL_NOMINAL_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "analyze_ms_p50": "ms",
    "analyze_ms_p99": "ms",
    "identity_trials_per_s": "1/s",
    "shots_per_s": "1/s",
    "sweep_s": "s",
    "optimize_s_p50": "s",
}

_CAL_RHO = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex) + 0.05j * np.triu(np.ones((4, 4)), 1)
_CAL_RHO = _CAL_RHO + np.triu(_CAL_RHO, 1).conj().T


def calibration_kernel() -> float:
    """Fixed work shaped like chshlab's: small complex matrix algebra, a
    Hermitian eigensolve and JSON, driven by the interpreter."""
    acc = 0.0
    for k in range(12):
        a = _CAL_RHO[:2, :2] * (k + 1)
        c = np.kron(a, a.conj().T) + _CAL_RHO
        acc += float(np.max(np.abs(np.linalg.eigvalsh(c)))) + float(np.trace(_CAL_RHO @ c).real)
    json.dumps({"acc": [acc] * 40})
    return acc


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Executes operations in a closed loop and checks each result."""

    def __init__(self, workdir: Path):
        from chshlab import cli, quantum, sweep  # importable once main() has found src/

        # modules, not functions, so that calls see the tracer's wrappers
        self.cli, self.quantum, self.sweep = cli, quantum, sweep
        self.out = workdir / "out.json"
        self.attempted = 0
        self.failures: list[str] = []
        self.calibration: list[tuple[float, float]] = []  # (start, kernel CPU seconds)

    def execute(self, op) -> tuple[float, float]:
        """Run one operation; return its wall-clock start and its time (oracle
        work excluded), then take a calibration sample if one is due."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            elapsed, problems = self._execute(op)
        except Exception as exc:  # a crash is one failed operation, not a dead run
            elapsed, problems = 0.0, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{op.kind} {' '.join(op.argv)}: {'; '.join(problems)}")
        now = time.perf_counter()
        if not self.calibration or now - self.calibration[-1][0] >= CAL_EVERY_S:
            cpu = time.thread_time()
            calibration_kernel()
            self.calibration.append((now, time.thread_time() - cpu))
        return start, elapsed

    def _execute(self, op) -> tuple[float, list[str]]:
        if op.kind == "setup":
            return self._setup()
        if op.kind == "optimize":
            state = self.quantum.DensityMatrix(op.rho)
            start = time.thread_time()
            result = self.sweep.optimize_settings(state, restarts=op.size)
            elapsed = time.thread_time() - start
            return elapsed, oracles.check_optimize(op.rho, result.s_value)
        self.out.unlink(missing_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            start = time.thread_time()
            rc = self.cli.main(op.argv)
            elapsed = time.thread_time() - start
        if rc != op.expect_rc:
            return elapsed, [f"exit {rc}, expected {op.expect_rc}"]
        if op.kind == "check-identity":
            return elapsed, oracles.check_identity_stdout(stdout.getvalue())
        if rc not in (0, 3):
            return elapsed, []
        # documents are read from --output: without it, simulate prints
        # summary lines after the JSON document on stdout
        doc = json.loads(self.out.read_text(encoding="utf-8"))
        if op.kind == "analyze":
            return elapsed, oracles.check_analyze(op.scenario, doc)
        if op.kind == "simulate":
            return elapsed, oracles.check_simulate(op.scenario, op.size // 4, doc, op.digest)
        return elapsed, oracles.check_sweep(doc)

    @staticmethod
    def _setup() -> tuple[float, list[str]]:
        """A fresh `python -m chshlab.cli --version` process, timed end to end."""
        env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "chshlab.cli", "--version"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith("chshlab "):
            return elapsed, [f"exit {proc.returncode}, stdout {proc.stdout!r}"]
        return elapsed, []

    def run_round(self, ops, reference_ops) -> list[tuple]:
        """Own ops in order, reference ops spread evenly between them; one
        (kind, start, seconds, size, own) record per operation."""
        records, done = [], 0
        for i, op in enumerate(ops):
            records.append((op.kind, *self.execute(op), op.size, True))
            upto = (i + 1) * len(reference_ops) // len(ops)
            for ref in reference_ops[done:upto]:
                records.append((ref.kind, *self.execute(ref), ref.size, False))
            done = upto
        return records


def speed_scaled(rounds, calibration) -> list[list[tuple]]:
    """(kind, seconds, size, own) records, each time multiplied by
    CAL_NOMINAL_S over the median kernel time within CAL_WINDOW_S of its
    operation (the nearest sample if none is that close)."""
    starts = [t for t, _ in calibration]

    def scale(start, elapsed):
        lo = bisect.bisect_left(starts, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(starts, start + elapsed + CAL_WINDOW_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(starts) - 1)
            hi = lo + 1
        return CAL_NOMINAL_S / statistics.median(d for _, d in calibration[lo:hi])

    return [[(k, t * scale(s, t), n, own) for k, s, t, n, own in rs] for rs in rounds]


def end_to_end(rounds) -> tuple[dict, dict]:
    """End-to-end metrics over (kind, seconds, size, own) records of all
    rounds, and the sample count behind each."""
    by_kind: dict[str, list[tuple[float, int]]] = {}
    for kind, elapsed, size, _ in (r for records in rounds for r in records):
        by_kind.setdefault(kind, []).append((elapsed, size))

    def times(kind):
        return [t for t, _ in by_kind[kind]]

    def rate(kind):
        return sum(n for _, n in by_kind[kind]) / sum(times(kind))

    analyze_ms = 1e3 * np.array(times("analyze"))
    metrics = {
        "setup_s": statistics.median(times("setup")),
        "wall_s": statistics.median(sum(t for _, t, _, own in rs if own) for rs in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "analyze_ms_p50": float(np.percentile(analyze_ms, 50)),
        "analyze_ms_p99": float(np.percentile(analyze_ms, 99)),
        "identity_trials_per_s": rate("check-identity"),
        "shots_per_s": rate("simulate"),
        "sweep_s": statistics.median(times("sweep")),
        "optimize_s_p50": statistics.median(times("optimize")),
    }
    samples = {kind: len(v) for kind, v in by_kind.items()}
    samples["rounds"] = len(rounds)
    return metrics, samples


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def untraced_run(runner, ops, reference_ops, args):
    rounds = []
    start = time.perf_counter()
    # stop at the round boundary nearest to --seconds
    while (len(rounds) < MIN_ROUNDS
           or (time.perf_counter() - start) * (1.0 + 0.5 / len(rounds)) < args.seconds):
        rounds.append(runner.run_round(ops, reference_ops))
    raw, samples = end_to_end([[(k, t, n, own) for k, _, t, n, own in rs] for rs in rounds])
    scaled, _ = end_to_end(speed_scaled(rounds, runner.calibration))
    samples["calibration"] = len(runner.calibration)
    return scaled, {"samples": samples, "metrics": scaled, "raw_metrics": raw}


def traced_run(runner, ops, reference_ops, args):
    def own_time(records):
        return sum(t for _, _, t, _, own in records if own)

    untraced = own_time(runner.run_round(ops, reference_ops))
    tracer = tracing.Tracer(lambda: runner.attempted)
    tracer.install()
    try:
        traced = own_time(runner.run_round(ops, reference_ops))
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    metrics = tracer.metrics()
    metrics.update({"trace.wall_s": traced, "trace.overhead_s": traced - untraced})
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced,
                     "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chshlab" / "__init__.py").is_file():
        print(f"error: no chshlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # a terminated run still removes its inputs (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, reference_ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(workdir)
        # warm-up: one operation of each kind, so lazy imports and first-call
        # set-up are not timed; its results are checked like any other
        for op in {op.kind: op for op in reversed(ops + reference_ops)}.values():
            runner.execute(op)
        # the inputs live for the whole run; keep them out of the collections
        # that chshlab's own allocations trigger
        gc.collect()
        gc.freeze()
        run = traced_run if args.trace else untraced_run
        metrics, summary = run(runner, ops, reference_ops, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary.update(workload=args.workload, seed=args.seed, machine=machine_info(),
                   attempted=runner.attempted, failed=len(runner.failures))
    print(json.dumps(summary, indent=1), file=sys.stderr)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    units = tracing.metric_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
