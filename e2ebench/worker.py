"""One benchmark run of one workload, in a fresh interpreter.

Usage (the benchmark's ``run.py`` launches this; ``src`` must be on
``PYTHONPATH``)::

    python3 e2ebench/worker.py WORKLOAD --seed N --scale full \
        --mode plain|profile|hwm [--trace-path FILE]

Modes:

* ``plain`` -- no instrumentation beyond two wrappers: the topology
  builder (to capture the ``Network``) and the instance's
  ``Simulator.run`` (to time the event loop).  End-to-end metrics come
  from these runs.
* ``profile`` -- the same run under ``cProfile`` from the first line of
  this file, imports included; yields per-layer self time.
* ``hwm`` -- the same run with a ``Simulator.profiler`` hook that records
  the pending-event high-water mark.  The hook switches the engine to its
  general loop, so this run is used for nothing else.

Prints one JSON object on its last stdout line.  The order of the tail
is fixed: stop the loop clock, read peak RSS, run the post-run audits,
compute the digests (streamed), stop the wall clock.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


class Probe:
    """Captures every built ``Network`` and times its event loop."""

    def __init__(self, high_water: bool) -> None:
        self.nets = []
        self.first_run = None
        self.run_s = 0.0
        self.high_water = high_water
        self.pending_hwm = 0

    def install(self) -> None:
        from repro.experiments import simulation, testbed
        for module in (testbed, simulation):
            module.build_star = self._wrap_builder(module.build_star)

    def _wrap_builder(self, build):
        def wrapped(*args, **kwargs):
            net = build(*args, **kwargs)
            self._attach(net)
            return net
        return wrapped

    def _attach(self, net) -> None:
        self.nets.append(net)
        sim = net.sim
        run = sim.run

        def timed_run(*args, **kwargs):
            start = time.perf_counter()
            if self.first_run is None:
                self.first_run = start
            try:
                run(*args, **kwargs)
            finally:
                self.run_s += time.perf_counter() - start

        sim.run = timed_run
        if self.high_water:
            sim.profiler = _HighWater(self, sim)

    def ports(self):
        for net in self.nets:
            for host in net.hosts.values():
                yield host.nic
            for switch in net.switches.values():
                yield from switch.port_list()

    def senders(self):
        for net in self.nets:
            for host in net.hosts.values():
                yield from host.senders.values()


class _HighWater:
    """``Simulator.profiler`` hook, called after every event of the
    engine's general loop, where ``pending()`` is exact."""

    def __init__(self, probe: Probe, sim) -> None:
        self.probe = probe
        self.pending = sim.pending

    def record(self, callback, elapsed_s, heap_len) -> None:
        pending = self.pending()
        if pending > self.probe.pending_hwm:
            self.probe.pending_hwm = pending


def audit(probe: Probe):
    """Public post-run audits; returns problem strings (none = pass)."""
    problems = []
    for net in probe.nets:
        problems.extend(f"sim: {p}" for p in net.sim.audit_counters())
    for port in probe.ports():
        problems.extend(f"{port.name}: {p}"
                        for p in port.audit_conservation())
        check = getattr(port.buffer_manager, "audit_thresholds", None)
        problem = check() if check is not None else None
        if problem is not None:
            problems.append(f"{port.name}: {problem}")
    return problems


def port_totals(probe: Probe):
    """Per-port conservation terms, the digest every workload pins."""
    rows = []
    for port in probe.ports():
        manager = port.buffer_manager
        rows.append([port.name, port.enqueued_packets, port.dropped_packets,
                     port.transmitted_packets,
                     getattr(manager, "threshold_moves", 0),
                     getattr(manager, "protected_drops", 0)])
    return sorted(rows)


def counters(probe: Probe, outcome, rows):
    """Layer counters read after the run (none of them timed)."""
    sims = [net.sim for net in probe.nets]
    scheduled = sum(sim.events_scheduled for sim in sims)
    cancelled = sum(sim.events_cancelled for sim in sims)
    real = scheduled - cancelled - sum(sim.pending() for sim in sims)
    dynaq_ports = {port.name for port in probe.ports()
                   if hasattr(port.buffer_manager, "threshold_moves")}
    dynaq = [row for row in rows if row[0] in dynaq_ports]
    senders = list(probe.senders())
    return {
        "sim.events_real": real,
        "sim.events_credited":
            sum(sim.events_executed for sim in sims) - real,
        "sim.events_cancelled": cancelled,
        # The one private read: there is no public flag, and reading the
        # attribute defensively keeps this 0 once the calendar is gone.
        "sim.calendar_engaged": sum(
            getattr(sim, "_cal", None) is not None for sim in sims),
        "net.port.arrivals": sum(row[1] + row[2] for row in rows),
        "net.port.drops": sum(row[2] for row in rows),
        "net.port.hops": sum(row[3] for row in rows),
        "core.arrivals": sum(row[1] + row[2] for row in dynaq),
        "core.steals": sum(row[4] for row in dynaq),
        "core.protected_drops": sum(row[5] for row in dynaq),
        "transport.segments": sum(s.packets_sent for s in senders),
        "transport.retransmissions": sum(s.retransmissions for s in senders),
        "transport.timeouts": sum(s.timeouts for s in senders),
        "apps.flows_done": sum(bool(s.complete) for s in senders),
        "metrics.samples": outcome.samples,
        "telemetry.records": outcome.records,
        "telemetry.bytes": (os.path.getsize(outcome.trace_path)
                            if outcome.trace_path else 0),
    }


def profile_layers(profiler):
    import pstats

    from layers import LayerResolver, entry_cumulative, layer_self_times
    stats = pstats.Stats(profiler).stats
    resolver = LayerResolver(SRC)
    layers = layer_self_times(stats, resolver)
    return {
        "self_s": layers,
        "net.build_s": entry_cumulative(stats, resolver, "net",
                                        ("build_star", "build_leaf_spine")),
        "workloads.gen_s": entry_cumulative(stats, resolver, "workloads"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("plain", "profile", "hwm"),
                        default="plain")
    parser.add_argument("--trace-path")
    args = parser.parse_args(argv)

    profiler = None
    if args.mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()

    from workloads import SCALES, WORKLOADS, behaviour_digests, sha256_json
    workload = WORKLOADS[args.workload]
    probe = Probe(high_water=args.mode == "hwm")
    probe.install()
    outcome = workload.run(args.seed, SCALES[args.scale], args.trace_path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = audit(probe)
    rows = port_totals(probe)
    digests = behaviour_digests(outcome)
    digests["ports"] = sha256_json(rows)
    end = time.perf_counter()
    if profiler is not None:
        profiler.disable()

    report = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "wall_s": end - T0,
        "setup_s": probe.first_run - T0,
        "run_s": probe.run_s,
        "peak_rss_mb": peak_rss_mb,
        "audit": problems,
        "digests": digests,
        "counters": counters(probe, outcome, rows),
    }
    if args.mode == "hwm":
        report["counters"]["sim.pending_hwm"] = probe.pending_hwm
    if profiler is not None:
        report["layers"] = profile_layers(profiler)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # Skip interpreter teardown: it is never measured, and freeing a
    # large world only delays the next worker.
    os._exit(code)
