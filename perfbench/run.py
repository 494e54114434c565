"""quotlat benchmark: one closed-loop client runs a workload and checks every op.

Usage:
    python3 perfbench/run.py --workload {catalog,lookup,sym2,snf} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports quotlat from ./src.

--trace 0 measures the end-to-end metrics: the ops run in seeded rounds, one
at a time, until --seconds have passed and the current round has finished.
--trace 1 runs each op of the first rounds of the same seeded stream twice,
untraced and with the outside-in tracer (tracer.py), and reports the
per-layer metrics and the tracing overhead; traced CLI ops go through
cli_trace.py in a fresh interpreter.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
OP_TIMEOUT_S = 150
# rounds of the seeded stream that a traced run replays (fixed, so that the
# exact counters repeat); a traced run takes 7-14 s on 2 cores
TRACE_ROUNDS = {"catalog": 2, "lookup": 1, "sym2": 1, "snf": 4}
# layers each workload must reach; zero calls fails the traced run
REQUIRED = {
    "catalog": (
        "scenario.load_catalog",
        "scenario.load_scenario",
        "scenario.verify_scenario",
        "scenario.run_normality",
        "hilb2_ring.s_lattice_gram",
        "toric_weight.weight_lookup",
        "quotient_lattice.bb_quotient",
        "quotient_lattice.quotient_middle_lattice",
        "quotient_lattice.lattices_match",
        "normality.check_surface",
        "lattice_core.invariant_summary",
    ),
    "lookup": (
        "scenario.load_catalog",
        "scenario.load_scenario",
        "scenario.run_normality",
        "toric_weight.weight_lookup",
        "toric_weight.weight_dim2",
        "lattice_core.invariant_summary",
    ),
    "sym2": ("gmodule.PrimeOrderAction", "gmodule.sym2_action", "gmodule.jordan_profile"),
    "snf": ("linalg.smith_normal_form",),
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QUOTLAT_CATALOG", None)
    # ops import from cached bytecode, as an installed package does; the
    # first set-up probe writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], env: dict) -> tuple[float, int, bytes, bytes, float]:
    """Wall seconds, exit code, stdout, stderr and peak RSS (MB) of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, b"".join(err), usage.ru_maxrss / 1024


def measure_setup(workload: str, seed: int, env: dict) -> float:
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        elapsed, rc, _, err, _ = run_child(argv, env)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}: {err.decode(errors='replace')[-300:]}")
        if i:  # the first probe compiles bytecode and warms the file cache
            times.append(elapsed)
    return statistics.median(times)


class Client:
    """Runs one op at a time and applies the workload's correctness gate."""

    def __init__(self, workload: str):
        self.workload = workload
        self.cli = workload in workloads.CLI_WORKLOADS
        self.env = child_env()
        self.seen: dict = {}
        self.peak_rss_mb = 0.0
        self.errors: list[str] = []
        if not self.cli:
            import quotlat  # noqa: F401  (imported before the first timed op)

    def run_op(self, op) -> tuple[float, bool]:
        """Latency and gate verdict of one untraced op."""
        if self.cli:
            argv = [sys.executable, "-m", "quotlat.cli", *op.argv]
            elapsed, rc, out, err, rss = run_child(argv, self.env)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            return elapsed, self._gate(op, workloads.check_cli(self.workload, op, rc, out, self.seen), err)
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing op is counted, not fatal
            self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, False
        elapsed = time.perf_counter() - start
        return elapsed, self._gate(op, op.check(result))

    def run_traced(self, op) -> tuple[float, bool, dict | None]:
        """Latency, gate verdict and tracer summary of one traced op."""
        if not self.cli:
            trace = tracer.Tracer()
            trace.install()
            try:
                elapsed, ok = self.run_op(op)
            finally:
                trace.uninstall()
            return elapsed, ok, trace.summary()
        argv = [sys.executable, str(HERE / "cli_trace.py"), *op.argv]
        elapsed, rc, out, err, _ = run_child(argv, self.env)
        if rc == 3:
            raise tracer.LayerMissing(err.decode(errors="replace").strip().removeprefix("error: "))
        try:
            payload = json.loads(out)
        except ValueError:
            self.errors.append(f"{op}: cli_trace.py exited {rc} without a result {err[-300:]!r}")
            return elapsed, False, None
        stdout = payload["stdout"].encode()
        ok = self._gate(op, workloads.check_cli(self.workload, op, payload["rc"], stdout, self.seen), err)
        return elapsed, ok, payload["summary"]

    def _gate(self, op, reason: str | None, stderr: bytes = b"") -> bool:
        if reason is not None:
            self.errors.append(f"{op}: {reason} {stderr[-300:]!r}")
        return reason is None


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    Below 20 samples that percentile lies under the median, so the maximum is
    reported instead, as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def machine_facts() -> str:
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"impl={platform.python_implementation()} machine={platform.machine()}"
    )


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    client = Client(workload)
    setup_s = measure_setup(workload, seed, client.env)
    stream = workloads.rounds(workload, seed)
    latencies: list[float] = []
    failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in next(stream):
            elapsed, ok = client.run_op(op)
            latencies.append(elapsed if ok else float("inf"))
            failed += not ok
    wall = time.perf_counter() - start
    attempted = len(latencies)
    busy = sum(x for x in latencies if x != float("inf"))
    tail_s, tail_pct = tail(latencies)
    if not client.cli:
        client.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": (attempted - failed) / busy if busy else 0.0,
        "peak_rss_mb": client.peak_rss_mb,
    }
    print(f"workload {workload} seed {seed}: closed loop, 1 client, {attempted} ops in {wall:.1f} s; {machine_facts()}")
    for name, value in values.items():
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_ratio':<12} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"  op_tail_s is p{tail_pct:.1f} of {attempted} samples")
    for line in client.errors[:10]:
        print(f"  FAILED {line}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def traced(workload: str, seed: int) -> dict:
    client = Client(workload)
    stream = workloads.rounds(workload, seed)
    ops = [op for _ in range(TRACE_ROUNDS[workload]) for op in next(stream)]
    plain_s = traced_s = 0.0
    failed = 0
    total = tracer.Tracer().summary()
    for i, op in enumerate(ops):
        # alternate which pass goes first, so neither always meets warm caches
        for tracing in (False, True) if i % 2 == 0 else (True, False):
            if tracing:
                elapsed, ok, summary = client.run_traced(op)
                traced_s += elapsed
                if summary is not None:
                    total = tracer.merge(total, summary)
            else:
                elapsed, ok = client.run_op(op)
                plain_s += elapsed
            failed += not ok
    attempted = 2 * len(ops)
    print(f"workload {workload} seed {seed}: traced {len(ops)} ops; {machine_facts()}")
    for line in client.errors[:10]:
        print(f"  FAILED {line}")
    unreached = [name for name in REQUIRED[workload] if total["layers"][name][0] == 0]
    if workload == "catalog":
        unreached += [f"scenario.verify_scenario.{row}" for row, t in total["rows"].items() if t <= 0]
    if unreached:
        raise SystemExit(f"layers the {workload} workload must reach report zero calls: {', '.join(unreached)}")
    metrics = tracer.layer_metrics(total, traced_s / plain_s)
    exact = {name: metrics[name][0] for name in tracer.EXACT}
    print(f"  exact counters {json.dumps(exact)}")
    print(f"  trace.overhead_ratio {traced_s / plain_s:.4f} ({traced_s:.2f} s traced / {plain_s:.2f} s untraced)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "quotlat" / "__init__.py").is_file():
        print(f"error: no quotlat sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = traced(args.workload, args.seed) if args.trace else end_to_end(args.workload, args.seed, args.seconds)
    except tracer.LayerMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
