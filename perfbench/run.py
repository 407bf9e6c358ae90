#!/usr/bin/env python3
"""valfield benchmark: one closed-loop caller issuing checked requests.

    python3 perfbench/run.py --workload approx --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; valfield is imported from ``src/``
there.  The workload is built from ``--seed`` (see workloads.py), then its
operations run one after another, in whole passes over the workload,
for about ``--seconds`` and at least MIN_OPS operations.
Every answer is checked outside the timed region.  The last line of
standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of one traced pass
(``--trace 1``); a summary with sample counts goes to standard error.
``--workload all`` runs every workload in turn, one process each.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# Other tenants of a shared machine slow the interpreter by up to a half,
# in bursts.  A fixed loop of interpreter work (``calibrate``) is timed
# between every two requests, and each request's time is scaled by
# CALIBRATION_REF_S over the mean loop time around and during it: times
# read as on a machine where the loop takes CALIBRATION_REF_S, about this
# loop's time on an unloaded 2.1 GHz Xeon.
CALIBRATION_REF_S = 0.0004
# While requests run, the loop is also timed every PROBE_INTERVAL_S from a
# timer signal, so a request of seconds is scaled by the speed over its
# whole duration; the probes' own time is taken out of the request's.
PROBE_INTERVAL_S = 0.05
# at least this many operations per run, so ten lie beyond the p90
MIN_OPS = 100
# a run stops after the operation that crosses this, whatever its length
HARD_STOP_S = 120.0
NAMES = ("approx", "search", "certify", "lift")


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return time.perf_counter() - t0


def scale(seconds: float, calibrations) -> float:
    """``seconds`` as on a machine where ``calibrate`` takes CALIBRATION_REF_S."""
    return seconds * CALIBRATION_REF_S * len(calibrations) / sum(calibrations)


class Speed:
    """Calibration samples: one between every two requests and, inside a
    ``with`` block, one every PROBE_INTERVAL_S from a timer signal."""

    def __init__(self) -> None:
        self.samples = []
        self.probe_s = 0.0  # seconds spent in timer probes

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.probe_s += time.perf_counter() - t0

    def __enter__(self) -> "Speed":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _probes_blocked(block: bool) -> None:
    signal.pthread_sigmask(signal.SIG_BLOCK if block else signal.SIG_UNBLOCK, {signal.SIGALRM})


def setup(name: str, seed: int):
    """Import valfield afresh and build every input; returns (seconds, ops)."""
    for mod in [m for m in sys.modules if m in ("valfield", "workloads", "ref") or m.startswith("valfield.")]:
        del sys.modules[mod]
    before = calibrate()
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    ops = workloads.build(name, seed)
    elapsed = time.perf_counter() - t0
    after = calibrate()
    origin = Path(sys.modules["valfield"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"valfield was imported from {origin}, not from {SRC}")
    return scale(elapsed, [before, after]), ops


class Pass:
    """Answers and timings of one or more passes over the operations."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.latencies = []  # scaled seconds per request, see CALIBRATION_REF_S
        self.wall = []  # unscaled seconds per request
        self.first = [None] * len(ops)  # answer of the first execution
        self.error = [None] * len(ops)  # exception text of the first execution
        self.runs = [0] * len(ops)
        self.changed = [0] * len(ops)  # executions whose answer differs from the first
        self.speed = Speed()
        self.speed.samples.append(calibrate())

    def run_once(self, i: int) -> None:
        op, speed = self.ops[i], self.speed
        _probes_blocked(True)
        first, probe_s, t0 = len(speed.samples) - 1, speed.probe_s, time.perf_counter()
        _probes_blocked(False)
        try:
            answer, text = op.call(), None
        except Exception as exc:  # a raising request is a failed answer
            answer, text = None, f"{op.kind} raised {type(exc).__name__}: {exc}"
        _probes_blocked(True)
        elapsed = time.perf_counter() - t0 - (speed.probe_s - probe_s)
        speed.samples.append(calibrate())
        _probes_blocked(False)
        self.wall.append(elapsed)
        self.latencies.append(scale(elapsed, speed.samples[first:]))
        if text is None:
            try:
                answer = op.answer(answer)
            except Exception as exc:  # an unreadable answer is a failed one
                answer, text = None, f"{op.kind} answer unreadable: {type(exc).__name__}: {exc}"
        if self.runs[i] == 0:
            self.first[i], self.error[i] = answer, text
        elif (text, answer) != (self.error[i], self.first[i]):
            self.changed[i] += 1
        self.runs[i] += 1

    def check(self):
        """(attempted, failed, failure texts) over every execution."""
        failures = []
        failed = 0
        for i, op in enumerate(self.ops):
            if not self.runs[i]:
                continue
            problem = self.error[i]
            if problem is None:
                try:
                    problem = op.check(self.first[i])
                except Exception as exc:  # the answer could not be read
                    problem = f"{op.kind} check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(problem)
                failed += self.runs[i]
            elif self.changed[i]:
                failures.append(f"{op.kind}: {self.changed[i]} repeats answered differently")
                failed += self.changed[i]
        return sum(self.runs), failed, failures


def measure(ops, seconds: float) -> Pass:
    """Whole passes over the operations, stopping at the pass boundary
    nearest to ``seconds`` once MIN_OPS requests are done."""
    result = Pass(ops)
    start = time.perf_counter()
    passes = 0
    with result.speed:
        while True:
            for i in range(len(ops)):
                result.run_once(i)
                if time.perf_counter() - start > HARD_STOP_S:
                    return result
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 0.5) / passes >= seconds and len(result.latencies) >= MIN_OPS:
                return result


def percentiles(samples):
    """(p50, p90) of a list of seconds, in milliseconds."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive") if len(samples) > 1 else samples * 99
    return cuts[49] * 1e3, cuts[89] * 1e3


def end_to_end(result: Pass, attempted: int, failed: int, setups):
    """name -> (value, unit, sample count)"""
    lat = result.latencies
    p50, p90 = percentiles(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_s": ((attempted - failed) / sum(lat), "1/s", len(lat)),
        "latency_p50_ms": (p50, "ms", len(lat)),
        "latency_p90_ms": (p90, "ms", len(lat)),
        "checked_ratio": ((attempted - failed) / attempted, "ratio", attempted),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
    }


def traced(ops, workload: str, seed: int):
    """One untraced and one traced pass over the same operations."""
    import spans

    plain = Pass(ops)
    for i in range(len(ops)):
        plain.run_once(i)
    tracer = spans.Tracer()
    tracer.install(namespaces=[sys.modules["workloads"]])
    result = Pass(ops)
    try:
        for i in range(len(ops)):
            result.run_once(i)
    finally:
        tracer.uninstall()
    for i in range(len(ops)):
        if (plain.error[i], plain.first[i]) != (result.error[i], result.first[i]):
            result.changed[i] += 1
    n = len(ops)
    metrics = {name: (value, unit, n) for name, (value, unit) in tracer.metrics().items()}
    metrics["trace.overhead_ratio"] = (sum(result.latencies) / sum(plain.latencies), "ratio", n)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "untraced_s": sum(plain.wall),
                   "traced_s": sum(result.wall), "spans": tracer.span_tree()}, fh)
    return result, metrics, tracer


def summarize(workload: str, metrics, result: Pass, tracer=None) -> None:
    err = sys.stderr
    print(f"== {workload}", file=err)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:7s} (n={n})", file=err)
    p50, p90 = percentiles(result.wall)
    print(f"  unscaled wall time: {len(result.wall) / sum(result.wall):.6g} requests/s, "
          f"p50 {p50:.6g} ms, p90 {p90:.6g} ms", file=err)
    if tracer is not None:
        total = sum(tracer.layer_self.values())
        print(f"  time by layer, as a share of the {total:.3f} s spent inside valfield:", file=err)
        print(f"    {'layer':14s} {'self':>9s} {'share':>6s} {'busy':>9s} {'share':>6s}", file=err)
        for layer, s in sorted(tracer.layer_self.items(), key=lambda kv: -kv[1]):
            b = tracer.layer_busy[layer]
            print(f"    {layer:14s} {s:8.3f}s {100 * s / total:5.1f}% {b:8.3f}s {100 * b / total:5.1f}%", file=err)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, ops = setup(workload, seed)
        setups.append(elapsed)
    if trace:
        result, metrics, tracer = traced(ops, workload, seed)
    else:
        result, tracer = measure(ops, seconds), None
    attempted, failed, failures = result.check()
    if not trace:
        metrics = end_to_end(result, attempted, failed, setups)
    for text in failures:
        print(f"FAILED: {text}", file=sys.stderr)
    summarize(workload, metrics, result, tracer)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        code = 0
        for name in NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code
    if not (SRC / "valfield" / "__init__.py").is_file():
        print(f"error: no valfield sources under {SRC}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
