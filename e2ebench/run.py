"""End-to-end, layer-by-layer benchmark of the paper's figure workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload fig05-fair --seconds 30 --trace 0

Each measurement is a fresh single-threaded worker process
(``e2ebench/worker.py``), run one at a time; with ``--workload all`` the
workers of the four workloads are interleaved round-robin.  Workers are
launched in rounds while the next round still ends within ``--seconds``
(at least two rounds), and every metric is the median over the runs that
passed the correctness gate.

The host's speed swings within seconds and drifts over minutes, so the
parent pins itself and its workers to one CPU and times a fixed
yardstick there right before and after each worker.  Every host time is
reported scaled to the reference host's speed: times the run's
``host_scale``, ``REFERENCE_YARDSTICK_S`` over the mean of its two
yardstick timings.

``--trace 0`` reports the end-to-end metrics, measured with no tracing:

* ``wall_s`` -- worker start (imports included) to the validated result;
* ``setup_s`` -- worker start to the first entry into ``Simulator.run``;
* ``hops_per_s`` -- packets transmitted over all egress ports, per
  (scaled) host second inside ``Simulator.run``;
* ``peak_rss_mb`` -- the worker's peak resident memory.

``--trace 1`` alternates a plain run, a ``cProfile`` run and a
pending-event high-water run, and reports the per-layer metrics (see
``layers.py`` and ``README.md``) with ``trace_overhead``, the profiled
wall time over the plain one.

Every run passes a correctness gate: the public post-run audits, and
digests of the simulated result and of the per-port totals, compared
with ``digests.json`` where it pins the seed and otherwise with the
first run of the set.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run set's record (host fingerprint, calibration, every run).
"""

from __future__ import annotations

import argparse
import compileall
import heapq
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORK_DIR = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
from layers import LAYERS, unmapped_modules  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

HASH_SEED = "0"
HARD_LIMIT_S = 150.0        # the whole set must end well inside 180 s

# The calibration yardstick: a fixed pure-Python load shaped like the
# simulator's inner loop (a heap of small slotted objects, dict updates)
# followed by plain integer arithmetic.  The parent times it right before
# and right after every worker, on the same CPU.
YARDSTICK_EVENTS = 20_000
YARDSTICK_LOOPS = 300_000
# The yardstick's time on the reference host (2-vCPU Xeon, Python
# 3.11.7) when unloaded.  Host times are reported scaled to that speed.
REFERENCE_YARDSTICK_S = 0.055

END_TO_END = {"wall_s": "s", "setup_s": "s", "hops_per_s": "1/s",
              "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  Layer self times come from the
# cProfile run, counters from the plain run, the high-water mark from the
# hook run.
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({
    "sim.events_real": "count", "sim.events_credited": "count",
    "sim.events_cancelled": "count", "sim.pending_hwm": "count",
    "sim.calendar_engaged": "count", "sim.ns_per_event": "ns/event",
    "net.port.arrivals": "count", "net.port.drops": "count",
    "net.port.hops": "count", "net.port.drop_ratio": "ratio",
    "net.port.ns_per_arrival": "ns/arrival", "net.build_s": "s",
    "core.steals": "count", "core.protected_drops": "count",
    "core.steals_per_arrival": "ratio",
    "transport.segments": "count", "transport.retx_ratio": "ratio",
    "transport.timeouts": "count", "apps.flows_done": "count",
    "workloads.gen_s": "s", "metrics.samples": "count",
    "telemetry.records": "count", "telemetry.bytes": "bytes",
    "telemetry.ns_per_record": "ns/record", "trace_overhead": "x",
})


class BenchError(Exception):
    """The benchmark cannot run here (no sources, unmapped modules)."""


# -- host fingerprint and calibration -----------------------------------------

class _Event:
    __slots__ = ("time", "key")

    def __init__(self, time_ns: int, key: int) -> None:
        self.time = time_ns
        self.key = key


def yardstick() -> float:
    """Seconds for the fixed calibration load (a host-speed yardstick)."""
    start = time.perf_counter()
    heap: list = []
    totals: Dict[int, int] = {}
    for i in range(YARDSTICK_EVENTS):
        heapq.heappush(heap, (i * 7919 % 10007, i, _Event(i, i & 15)))
        if len(heap) > 512:
            when, _, event = heapq.heappop(heap)
            totals[event.key] = totals.get(event.key, 0) + when
    acc = 0
    for i in range(YARDSTICK_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep the parent and its workers on one CPU, so the yardstick times
    the CPU the worker ran on."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], env=env,
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint() -> Dict[str, object]:
    revision = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": revision or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "pythonhashseed": HASH_SEED,
    }


# -- workers ------------------------------------------------------------------

def launch(workload: str, seed: int, scale: str, mode: str,
           timeout_s: float) -> Dict[str, object]:
    """Run one worker to completion; returns its report or an error."""
    trace_path = None
    command = [sys.executable, WORKER, workload, "--seed", str(seed),
               "--scale", scale, "--mode", mode]
    if WORKLOADS[workload].traced:
        os.makedirs(WORK_DIR, exist_ok=True)
        trace_path = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}.jsonl")
        command += ["--trace-path", trace_path]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout_s:.0f} s"}
    finally:
        if trace_path is not None and os.path.exists(trace_path):
            os.remove(trace_path)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {done.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable report: {lines[-1][:200]}"}


def load_pins(scale: str) -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(DIGESTS) as handle:
        return json.load(handle).get(scale, {})


def pinned_digests(pins, workload: str, seed: int) -> Optional[Dict]:
    """Pinned digests for this seed, or ``None`` (repeat agreement)."""
    entry = pins.get(workload, {})
    return entry.get("any", entry.get(str(seed)))


def gate(report: Dict, expected: Optional[Dict[str, str]]) -> List[str]:
    """Problems with one run: errors, failed audits, digest mismatches."""
    if "error" in report:
        return [report["error"]]
    problems = [f"audit: {problem}" for problem in report["audit"]]
    if expected is not None:
        digests = report["digests"]
        for key in sorted(set(expected) | set(digests)):
            if expected.get(key) != digests.get(key):
                problems.append(f"digest {key}: {digests.get(key)} != "
                                f"expected {expected.get(key)}")
    return problems


class RunSet:
    """Runs workers for a set of workloads and applies the gate."""

    def __init__(self, workloads: List[str], seed: int, scale: str,
                 modes: List[str]) -> None:
        self.workloads = workloads
        self.seed = seed
        self.scale = scale
        self.modes = modes
        self.pins = load_pins(scale)
        self.reference: Dict[str, Dict[str, str]] = {}
        self.runs: List[Dict] = []
        self.last_calibration_s: Optional[float] = None

    def expected(self, workload: str) -> Optional[Dict[str, str]]:
        pinned = pinned_digests(self.pins, workload, self.seed)
        return pinned if pinned is not None else self.reference.get(workload)

    def one(self, workload: str, mode: str, timeout_s: float) -> None:
        """Run one worker between two yardstick timings.  The host's
        speed swings within seconds, so the worker's host times are
        scaled by the yardstick timed around it (see ``host_scale``)."""
        before = self.last_calibration_s
        if before is None:
            before = yardstick()
        report = launch(workload, self.seed, self.scale, mode, timeout_s)
        after = self.last_calibration_s = yardstick()
        report["calibration_s"] = [before, after]
        report["host_scale"] = REFERENCE_YARDSTICK_S / ((before + after) / 2)
        report.setdefault("workload", workload)
        report.setdefault("mode", mode)
        problems = gate(report, self.expected(workload))
        if "digests" in report:
            self.reference.setdefault(workload, report["digests"])
        report["problems"] = problems
        for problem in problems:
            print(f"FAILED {workload} [{mode}]: {problem}", file=sys.stderr)
        self.runs.append(report)

    def measure(self, seconds: float, min_rounds: int) -> None:
        """Run rounds of workers (every workload, every mode) until the
        next round would end after ``seconds``."""
        start = time.perf_counter()
        rounds = 0
        while True:
            for workload in self.workloads:
                for mode in self.modes:
                    elapsed = time.perf_counter() - start
                    self.one(workload, mode, HARD_LIMIT_S - elapsed)
            rounds += 1
            elapsed = time.perf_counter() - start
            next_end = elapsed + elapsed / rounds
            if rounds >= min_rounds and next_end > seconds:
                break
            if next_end > HARD_LIMIT_S:
                break

    def usable(self, workload: str, mode: str) -> List[Dict]:
        """Runs that passed the gate; failing that, runs that finished
        (their figures are still reported, with ``correct`` false)."""
        finished = [run for run in self.runs if run["workload"] == workload
                    and run["mode"] == mode and "digests" in run]
        return [run for run in finished if not run["problems"]] or finished

    @property
    def failed(self) -> int:
        return sum(bool(run["problems"]) for run in self.runs)


# -- metrics ------------------------------------------------------------------

def end_to_end(runs: List[Dict]) -> Dict[str, List[float]]:
    """Per-run samples of every end-to-end metric, host times scaled to
    the reference host's speed."""
    return {
        "wall_s": [run["wall_s"] * run["host_scale"] for run in runs],
        "setup_s": [run["setup_s"] * run["host_scale"] for run in runs],
        "hops_per_s": [run["counters"]["net.port.hops"]
                       / (run["run_s"] * run["host_scale"]) for run in runs],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(plain: List[Dict], profiled: List[Dict],
              hwm: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics: medians of profiled times, exact counters."""
    counts = dict(plain[0]["counters"])
    counts["sim.pending_hwm"] = hwm[0]["counters"]["sim.pending_hwm"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = statistics.median(
            [run["layers"]["self_s"][layer] * run["host_scale"]
             for run in profiled])
    for name in ("net.build_s", "workloads.gen_s"):
        values[name] = statistics.median(
            [run["layers"][name] * run["host_scale"] for run in profiled])
    for name in PER_LAYER:
        if name in counts:
            values[name] = counts[name]
    values["sim.ns_per_event"] = _ratio(
        values["sim.self_s"] * 1e9, counts["sim.events_real"])
    values["net.port.drop_ratio"] = _ratio(
        counts["net.port.drops"], counts["net.port.arrivals"])
    values["net.port.ns_per_arrival"] = _ratio(
        values["net.port.self_s"] * 1e9, counts["net.port.arrivals"])
    values["core.steals_per_arrival"] = _ratio(
        counts["core.steals"], counts["core.arrivals"])
    values["transport.retx_ratio"] = _ratio(
        counts["transport.retransmissions"], counts["transport.segments"])
    values["telemetry.ns_per_record"] = _ratio(
        values["telemetry.self_s"] * 1e9, counts["telemetry.records"])
    values["trace_overhead"] = _ratio(
        statistics.median([run["wall_s"] * run["host_scale"]
                           for run in profiled]),
        statistics.median([run["wall_s"] * run["host_scale"]
                           for run in plain]))
    return {name: values[name] for name in PER_LAYER}


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_end_to_end(workload: str, samples: Dict[str, List[float]],
                     runs: List[Dict]) -> None:
    print(f"\n{workload}: end-to-end, {len(samples['wall_s'])} runs "
          f"(median, quartiles, min..max), host times scaled to the "
          f"reference host")
    for name, unit in END_TO_END.items():
        values = samples[name]
        low, high = _quartiles(values)
        print(f"  {name:<12} {statistics.median(values):>14.6g} {unit:<4} "
              f"q1 {low:.6g}  q3 {high:.6g}  "
              f"range {min(values):.6g}..{max(values):.6g}")
    scales = [run["host_scale"] for run in runs]
    low, high = _quartiles(scales)
    print(f"  unscaled medians: wall_s "
          f"{statistics.median(run['wall_s'] for run in runs):.6g} s, "
          f"setup_s {statistics.median(run['setup_s'] for run in runs):.6g}"
          f" s; host_scale {statistics.median(scales):.4g} "
          f"(q1 {low:.4g}, q3 {high:.4g})")


def print_per_layer(workload: str, values: Dict[str, float],
                    profiled_runs: int) -> None:
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    print(f"\n{workload}: per-layer self time under cProfile "
          f"(median of {profiled_runs} runs), "
          f"trace_overhead {values['trace_overhead']:.3f}x")
    for layer in LAYERS:
        self_s = values[f"{layer}.self_s"]
        share = 100 * _ratio(self_s, total)
        print(f"  {layer:<20} {self_s:>9.4f} s {share:6.1f} %")
    print(f"{workload}: per-layer counters")
    for name, unit in PER_LAYER.items():
        if not name.endswith(".self_s") and name != "trace_overhead":
            print(f"  {name:<28} {values[name]:>16.6g} {unit}")


# -- entry point --------------------------------------------------------------

def preflight() -> None:
    """Fail fast when the sources are missing or a module has no layer."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no sources at {os.path.relpath(SRC)}/repro; "
                         "run from a full checkout")
    unmapped = unmapped_modules(SRC)
    if unmapped:
        raise BenchError("modules outside every layer (extend "
                         "e2ebench/layers.py): " + ", ".join(unmapped))
    # Byte-compile up front so no measured worker pays for it.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)


def pin(workloads: List[str], seed: int, scale: str) -> None:
    """Record the digests of one run per workload in digests.json."""
    with open(DIGESTS) as handle:
        table = json.load(handle)
    entries = table.setdefault(scale, {})
    for workload in workloads:
        report = launch(workload, seed, scale, "plain", HARD_LIMIT_S)
        problems = gate(report, None)
        if problems:
            raise BenchError(f"{workload}: " + "; ".join(problems))
        key = str(seed) if WORKLOADS[workload].seeded else "any"
        entries.setdefault(workload, {})[key] = report["digests"]
        print(f"pinned {scale}/{workload}/{key}")
    with open(DIGESTS, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's digests in digests.json "
                             "instead of measuring")
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        preflight()
        if args.pin:
            pin(workloads, args.seed, args.scale)
            return 0
        modes = ["plain", "profile", "hwm"] if args.trace else ["plain"]
        pin_to_one_cpu()
        runs = RunSet(workloads, args.seed, args.scale, modes)
        runs.measure(args.seconds, min_rounds=1 if args.trace else 2)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    metrics: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        plain = runs.usable(workload, "plain")
        if not plain:
            print(f"{workload}: no run finished", file=sys.stderr)
            return 1
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        if args.trace:
            profiled = runs.usable(workload, "profile")
            hwm = runs.usable(workload, "hwm")
            if not profiled or not hwm:
                print(f"{workload}: no traced run finished",
                      file=sys.stderr)
                return 1
            values = per_layer(plain, profiled, hwm)
            print_per_layer(workload, values, len(profiled))
            units = PER_LAYER
        else:
            samples = end_to_end(plain)
            print_end_to_end(workload, samples, plain)
            values = {name: statistics.median(v)
                      for name, v in samples.items()}
            units = END_TO_END
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}

    # Each worker's second timing is the next one's first: count it once.
    calibration = [runs.runs[0]["calibration_s"][0]] + [
        run["calibration_s"][1] for run in runs.runs]
    low, high = _quartiles(calibration)
    record = {
        "host": fingerprint(),
        "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "calibration_s": {"median": statistics.median(calibration), "q1": low,
                          "q3": high, "n": len(calibration)},
        "runs": [{key: run.get(key) for key in
                  ("workload", "mode", "calibration_s", "host_scale",
                   "wall_s", "setup_s", "run_s", "peak_rss_mb",
                   "problems")}
                 for run in runs.runs],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": runs.failed == 0,
                      "attempted": len(runs.runs), "failed": runs.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        sys.exit(2)
