"""Microbenchmark suite for the simulator hot path (``repro bench``).

Each bench runs the *same deterministic workload* twice in one
invocation — once under :data:`repro.perf.config.REFERENCE` (every fast
path disabled: fresh allocations, per-publish payload closures, O(M)
victim rescans, per-packet meter subscription) and once under
:data:`~repro.perf.config.FAST` — and reports both wall times, the
speedup, and the workload's operation counters.  Because the reference
run *is* the pre-optimisation code path, every emitted ``BENCH_*.json``
carries its own baseline: the speedups are self-contained and
machine-independent, which is what the regression tier compares (see
``benchmarks/perf/`` and :mod:`repro.perf.baseline`).

The suite also doubles as a differential test: the two runs must agree
on every operation counter (packets enqueued/dropped/transmitted,
threshold steals, events executed, meter-sample digest).  A mismatch
means a fast path changed semantics and is reported as a failure, not a
slow run.

Benches
-------

``event_loop``
    Raw engine throughput: parallel self-rescheduling callback chains.
    Isolates event pooling.
``enqueue_dequeue_<scheme>``
    Port replay at ~1.6x offered load for dynaq / besteffort / pql:
    classification, admission, DRR scheduling, transmit, delivery.
``dynaq_steal_storm``
    Alternating hot queues force Algorithm 1 to shuttle thresholds back
    and forth — worst case for the victim search.
``incast_burst``
    Synchronised bursts into a rotating queue: admission storms and
    drop-heavy operation.
``fig05_traced``
    Fig. 5-style staggered-stop workload on a 4-queue DRR port with a
    TraceBus attached and a PortThroughputMeter sampling — the
    configuration every experiment in this repository actually runs.
``fig05_untraced``
    The same workload with no trace bus and no meter: the floor the
    tracing layer is measured against.
``fig05_diagnosed``
    ``fig05_traced`` with the ``queue_diagnosis`` perf switch on (on
    *both* sides): the sketch maintenance cost the ``--diagnose-out``
    flag buys, gated like every other bench.  The sketch's update and
    snapshot counters join the op-equality check.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from ..experiments.runner import buffer_factory
from ..metrics.throughput import PortThroughputMeter
from ..net.packet import Packet
from ..net.port import EgressPort
from ..queueing.schedulers.drr import DRRScheduler
from ..sim.engine import Simulator
from ..sim.trace import TraceBus
from ..sim.units import gbps, kilobytes, microseconds
from .config import FAST, REFERENCE, active_config, use_config
from .pool import PacketPool

SCHEMA = "repro.bench/1"

#: Wire parameters shared by the port-replay benches (the testbed's).
RATE_BPS = gbps(1)
BUFFER_BYTES = kilobytes(85)
PROP_DELAY_NS = microseconds(5)
PACKET_BYTES = 1500
RTT_NS = microseconds(500)

#: Arrival interval for ~1.6x offered load: 1500 B at 1 Gbps is 12 us on
#: the wire, so one arrival every 7.5 us oversubscribes the link.
ARRIVAL_INTERVAL_NS = 7_500


# Canonical home is repro.errors; re-exported here because this module
# defined it first and old call sites import it from here.
from ..errors import BenchError  # noqa: E402


class _Sink:
    """Delivery endpoint: counts receipts, recycles pooled packets."""

    def __init__(self, pool: Optional[PacketPool] = None) -> None:
        self.received = 0
        self.received_bytes = 0
        self.pool = pool

    def receive(self, packet: Packet) -> None:
        self.received += 1
        self.received_bytes += packet.size
        if self.pool is not None:
            self.pool.release(packet)


class _Feeder:
    """Deterministic packet generator driving one port.

    ``classes`` maps an arrival index to a service class (or ``None`` to
    skip the slot — how the fig05 bench stops queues).  It is a list
    precomputed *outside* the timed region, and arrivals are delivered
    in batches of :attr:`BATCH` per feeder event, so the harness's own
    per-arrival overhead stays a small fraction of the measured port
    work.  The logical packet sequence is identical with and without
    pooling; only the allocation strategy differs.
    """

    BATCH = 16

    def __init__(self, sim: Simulator, port: EgressPort,
                 classes: List[Optional[int]],
                 interval_ns: int = ARRIVAL_INTERVAL_NS,
                 pool: Optional[PacketPool] = None,
                 packets: Optional[List[Optional[Packet]]] = None) -> None:
        self.sim = sim
        self.port = port
        self.classes = classes
        self.total = len(classes)
        self.interval_ns = interval_ns
        self.pool = pool
        self.packets = packets
        self.sent = 0
        self._index = 0
        self._step = interval_ns * self.BATCH
        # Pre-materialised stream: slice the per-tick bursts up front —
        # like the Packet prebuild itself, this is harness setup and
        # stays outside the timed region.
        self._chunks = (None if packets is None else
                        [[p for p in packets[i:i + self.BATCH]
                          if p is not None]
                         for i in range(0, self.total, self.BATCH)])

    def start(self) -> None:
        # Pre-schedule the whole tick train (setup time, not timed):
        # the chain used to re-schedule itself from inside each tick,
        # paying one schedule() call per burst inside the measured run.
        # Same event count as the chain: one tick per burst plus the
        # final no-op that used to notice the stream was exhausted.
        step = self._step
        schedule = self.sim.schedule
        ticks = (self.total + self.BATCH - 1) // self.BATCH + 1
        for i in range(ticks):
            schedule(step * (i + 1), self._tick)

    def _tick(self) -> None:
        index = self._index
        if index >= self.total:
            return
        stop = min(index + self.BATCH, self.total)
        self._index = stop
        send = self.port.send
        packets = self.packets
        sent = 0
        if packets is not None:
            # Pre-materialised stream (fig05): the timed region measures
            # port work, not harness allocation, on both config sides.
            chunk = self._chunks[index // self.BATCH]
            sent = len(chunk)
            for packet in chunk:
                send(packet)
        else:
            classes = self.classes
            pool = self.pool
            now = self.sim.now
            while index < stop:
                service_class = classes[index]
                if service_class is not None:
                    if pool is not None:
                        packet = pool.acquire(
                            index, "bench", "sink", PACKET_BYTES,
                            service_class=service_class, created_at=now)
                    else:
                        packet = Packet(index, "bench", "sink",
                                        PACKET_BYTES,
                                        service_class=service_class,
                                        created_at=now)
                    send(packet)
                    sent += 1
                index += 1
        self.sent += sent


def _make_port(sim: Simulator, scheme_key: str, num_queues: int,
               trace: Optional[TraceBus]) -> EgressPort:
    manager = buffer_factory(scheme_key, rtt_ns=RTT_NS)()
    return EgressPort(
        sim, "bench->sink", rate_bps=RATE_BPS,
        prop_delay_ns=PROP_DELAY_NS, buffer_bytes=BUFFER_BYTES,
        scheduler=DRRScheduler([1500.0] * num_queues),
        buffer_manager=manager, trace=trace)


def _port_ops(port: EgressPort, sink: _Sink,
              sim: Simulator) -> Dict[str, int]:
    ops = {
        "enqueued": port.enqueued_packets,
        "dropped": port.dropped_packets,
        "transmitted": port.transmitted_packets,
        "tx_bytes": port.transmitted_bytes,
        "received": sink.received,
        "events": sim.events_executed,
    }
    moves = getattr(port.buffer_manager, "threshold_moves", None)
    if moves is not None:
        ops["steals"] = moves
        ops["protected_drops"] = port.buffer_manager.protected_drops
    sketch = getattr(port, "_sketch", None)
    if sketch is not None:
        # Diagnosis benches: both sides must have seen the identical
        # packet stream through the sketch too.
        ops["sketch_updates"] = sketch.updates
        ops["sketch_snapshots"] = sketch.snapshots_taken
    return ops


def _replay(scheme_key: str, pattern: Callable[[int], Optional[int]],
            total: int, *, num_queues: int = 4, traced: bool = False,
            metered: bool = False,
            meter_interval_ns: Optional[int] = None,
            use_pool: Optional[bool] = None,
            prebuilt: bool = False) -> Dict[str, Any]:
    """Run one port-replay workload under the *active* perf config.

    ``use_pool`` selects the feeder's allocation strategy: ``None``
    follows the active config's ``packet_pooling`` switch (the
    enqueue/dequeue benches, which exercise the pool), ``False`` forces
    plain allocation on both sides (the fig05 benches, which mirror the
    experiment runs — their transports allocate packets directly).
    ``prebuilt`` materialises the Packet objects before the clock starts
    (identically on both sides), so the timed region is pure port work.
    """
    sim = Simulator()
    trace = TraceBus() if traced else None
    port = _make_port(sim, scheme_key, num_queues, trace)
    if use_pool is None:
        use_pool = active_config().packet_pooling
    pool = PacketPool() if use_pool else None
    sink = _Sink(pool)
    port.connect(sink)
    meter = None
    if metered:
        meter = PortThroughputMeter(sim, port,
                                    meter_interval_ns
                                    or total * ARRIVAL_INTERVAL_NS // 8)
    # Materialise the arrival sequence before the clock starts: the
    # pattern function is workload *generation*, not simulator work.
    classes = [pattern(i) for i in range(total)]
    packets = None
    if prebuilt:
        packets = [
            None if service_class is None
            else Packet(index, "bench", "sink", PACKET_BYTES,
                        service_class=service_class)
            for index, service_class in enumerate(classes)]
    feeder = _Feeder(sim, port, classes, pool=pool, packets=packets)
    feeder.start()
    start = time.perf_counter()
    sim.run(until=(total + 50) * ARRIVAL_INTERVAL_NS)
    elapsed = time.perf_counter() - start
    ops = _port_ops(port, sink, sim)
    ops["sent"] = feeder.sent
    if meter is not None:
        # Exact digest of the sample series: both meter backends must
        # produce bit-identical samples (see metrics/throughput.py).
        digest = hash(tuple(
            (s.time_ns, s.per_queue_bps) for s in meter.samples))
        ops["meter_samples"] = len(meter.samples)
        ops["meter_digest"] = digest
    return {"seconds": elapsed, "ops": ops}


# -- workload patterns --------------------------------------------------------


def _round_robin(num_queues: int) -> Callable[[int], Optional[int]]:
    return lambda index: index % num_queues


def _steal_storm(index: int) -> Optional[int]:
    # 512-arrival phases alternating between two hot queues, with a
    # trickle on the others so they stay active (and protected).
    phase, slot = divmod(index, 512)
    if slot % 8 == 7:
        return 2 + (slot // 8) % 2
    return phase % 2


def _incast(index: int) -> Optional[int]:
    # 64-packet synchronised bursts into a rotating queue, then silence
    # for the rest of the 256-slot window while the buffer drains.
    window, slot = divmod(index, 256)
    if slot < 64:
        return window % 4
    return None


def _fig05_pattern(total: int) -> Callable[[int], Optional[int]]:
    """Fig. 5-style mix: queue k weighted like 2^(k+1) flows, queues
    stopping in reverse order at staggered fractions of the run."""
    weights = (2, 4, 8, 16)
    cumulative = (2, 6, 14, 30)
    stops = (1.0, 0.85, 0.7, 0.55)  # fraction of the run each queue lives

    def pattern(index: int) -> Optional[int]:
        slot = (index * 7919) % cumulative[-1]
        for queue in range(4):
            if slot < cumulative[queue]:
                break
        if index >= total * stops[queue]:
            return None
        return queue

    return pattern


def _with_diagnosis(thunk: Callable[[], Dict[str, Any]]
                    ) -> Callable[[], Dict[str, Any]]:
    """Run ``thunk`` with ``queue_diagnosis`` flipped on over whichever
    side (REFERENCE or FAST) the harness installed."""
    def run() -> Dict[str, Any]:
        with use_config(active_config().clone(queue_diagnosis=True)):
            return thunk()
    return run


# -- the suite ----------------------------------------------------------------


class _TickChain:
    """Self-rescheduling countdown; a named bound method keeps the
    scheduled heap picklable (see tests/test_schedule_lint.py)."""

    def __init__(self, sim: Simulator, remaining: int) -> None:
        self.sim = sim
        self.remaining = remaining

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining > 0:
            self.sim.schedule(10, self.tick)


def _bench_event_loop(scale: float) -> Dict[str, Any]:
    total = int(50_000 * scale)
    sim = Simulator()
    chain = _TickChain(sim, total)
    for _ in range(4):  # four interleaved chains keep the heap honest
        sim.schedule(10, chain.tick)
    start = time.perf_counter()
    sim.run()
    return {"seconds": time.perf_counter() - start,
            "ops": {"events": sim.events_executed}}


def _suite(scale: float) -> List[Dict[str, Any]]:
    """(name, thunk) pairs; each thunk runs under the active config."""
    n = max(int(20_000 * scale), 512)
    fig05_total = max(int(24_000 * scale), 512)
    return [
        {"name": "event_loop",
         "run": lambda: _bench_event_loop(scale)},
        {"name": "enqueue_dequeue_dynaq",
         "run": lambda: _replay("dynaq", _round_robin(4), n)},
        {"name": "enqueue_dequeue_besteffort",
         "run": lambda: _replay("besteffort", _round_robin(4), n)},
        {"name": "enqueue_dequeue_pql",
         "run": lambda: _replay("pql", _round_robin(4), n)},
        {"name": "dynaq_steal_storm",
         "run": lambda: _replay("dynaq", _steal_storm, n)},
        {"name": "incast_burst",
         "run": lambda: _replay("dynaq", _incast, n)},
        {"name": "fig05_traced",
         "run": lambda: _replay("dynaq", _fig05_pattern(fig05_total),
                                fig05_total, traced=True, metered=True,
                                use_pool=False, prebuilt=True)},
        {"name": "fig05_untraced",
         "run": lambda: _replay("dynaq", _fig05_pattern(fig05_total),
                                fig05_total, use_pool=False,
                                prebuilt=True)},
        {"name": "fig05_diagnosed",
         "run": _with_diagnosis(
             lambda: _replay("dynaq", _fig05_pattern(fig05_total),
                             fig05_total, traced=True, metered=True,
                             use_pool=False, prebuilt=True))},
    ]


def run_suite(*, quick: bool = False, scale: float = 1.0,
              repeats: int = 3,
              progress: Optional[Callable[[str], None]] = None
              ) -> Dict[str, Any]:
    """Run every bench reference-then-fast and return the report dict.

    ``quick`` shrinks the workloads ~8x for CI smoke runs; ``scale``
    multiplies workload sizes on top of that.  Each bench runs
    ``repeats`` interleaved reference/fast pairs and reports the
    **minimum** wall time per side — the standard way to strip scheduler
    and allocator noise from a microbenchmark.  Op-counter disagreement
    between any pair of runs raises :class:`BenchError` — a bench that
    got faster by doing different work is a bug, not a result.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    effective = scale * (0.125 if quick else 1.0)
    results: List[Dict[str, Any]] = []
    for spec in _suite(effective):
        name = spec["name"]
        if progress is not None:
            progress(name)
        reference_runs: List[Dict[str, Any]] = []
        fast_runs: List[Dict[str, Any]] = []
        for _ in range(repeats):
            for config, runs in ((REFERENCE, reference_runs),
                                 (FAST, fast_runs)):
                # Freeze the caller's heap so no timed gen-2 pass walks it.
                gc.collect()
                gc.freeze()
                try:
                    with use_config(config.clone()):
                        runs.append(spec["run"]())
                finally:
                    gc.unfreeze()
        reference = min(reference_runs, key=lambda run: run["seconds"])
        for run in reference_runs + fast_runs:
            if run["ops"] != reference["ops"]:
                raise BenchError(
                    f"{name}: reference and fast runs disagree: "
                    f"{reference['ops']} != {run['ops']}")
        fast = min(fast_runs, key=lambda run: run["seconds"])
        fast_s = fast["seconds"]
        speedup = (reference["seconds"] / fast_s if fast_s > 0
                   else float("inf"))
        results.append({
            "name": name,
            "reference": reference,
            "fast": fast,
            "speedup": round(speedup, 3),
            "repeats": repeats,
            "ops_equal": True,
        })
    return {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick": quick,
        "scale": scale,
        "repeats": repeats,
        "fast_config": FAST.as_dict(),
        "benches": results,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def default_report_path() -> str:
    """``BENCH_<date>.json`` in the current directory."""
    return time.strftime("BENCH_%Y%m%d.json")


def format_table(report: Dict[str, Any]) -> str:
    """Human-readable summary of one report."""
    lines = ["bench".ljust(28) + "reference(s)".rjust(13)
             + "fast(s)".rjust(10) + "speedup".rjust(9) + "  ops"]
    for bench in report["benches"]:
        ops = bench["fast"]["ops"]
        note = (f"events={ops.get('events', '-')}"
                + (f" steals={ops['steals']}" if "steals" in ops else "")
                + (f" drops={ops['dropped']}" if "dropped" in ops else ""))
        lines.append(
            bench["name"].ljust(28)
            + f"{bench['reference']['seconds']:.3f}".rjust(13)
            + f"{bench['fast']['seconds']:.3f}".rjust(10)
            + f"{bench['speedup']:.2f}x".rjust(9)
            + f"  {note}")
    return "\n".join(lines)
