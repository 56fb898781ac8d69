"""Unit tests for the discrete-event kernel."""

import pickle

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError


def test_schedule_and_run_executes_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_timestamp_executes_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_run_until_is_inclusive():
    sim = Simulator()
    hits = []
    sim.schedule(100, hits.append, "at-100")
    sim.schedule(101, hits.append, "at-101")
    sim.run(until=100)
    assert hits == ["at-100"]
    assert sim.now == 100


def test_run_until_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until=500)
    assert sim.now == 500


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(5, lambda: order.append("nested"))

    sim.schedule(1, first)
    sim.run()
    assert order == ["first", "nested"]
    assert sim.now == 6


def test_cancel_prevents_execution():
    sim = Simulator()
    hits = []
    event = sim.schedule(10, hits.append, "x")
    sim.cancel(event)
    sim.run()
    assert hits == []


def test_cancel_none_is_noop():
    sim = Simulator()
    sim.cancel(None)  # must not raise


def test_cancel_after_execution_is_noop():
    sim = Simulator()
    hits = []
    event = sim.schedule(1, hits.append, "x")
    sim.run()
    sim.cancel(event)
    assert hits == ["x"]


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_at_in_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_stop_halts_after_current_callback():
    sim = Simulator()
    order = []

    def stopper():
        order.append("stop")
        sim.stop()

    sim.schedule(1, stopper)
    sim.schedule(2, order.append, "never")
    sim.run()
    assert order == ["stop"]
    assert sim.pending() == 1


def test_run_resumes_after_stop():
    sim = Simulator()
    order = []
    sim.schedule(1, lambda: (order.append("a"), sim.stop()))
    sim.schedule(2, order.append, "b")
    sim.run()
    sim.run()
    assert order[-1] == "b"


def test_max_events_bounds_execution():
    sim = Simulator()
    count = []
    for _ in range(100):
        sim.schedule(1, count.append, 1)
    sim.run(max_events=10)
    assert len(count) == 10


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.cancel(e1)
    assert sim.pending() == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    e1 = sim.schedule(1, lambda: None)
    sim.schedule(7, lambda: None)
    sim.cancel(e1)
    assert sim.peek_time() == 7


def test_peek_time_empty_heap():
    sim = Simulator()
    assert sim.peek_time() is None


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_cancel_after_execution_keeps_pending_exact():
    # The O(1) live counter must not double-decrement when an already
    # executed event is cancelled.  pooling=False so the executed handle
    # is not recycled into the survivor; retained-handle cancellation
    # under pooling goes through cancel_versioned (test_perf_pooling.py).
    sim = Simulator(pooling=False)
    executed = sim.schedule(1, lambda: None)
    sim.run()
    survivor = sim.schedule(5, lambda: None)
    assert sim.pending() == 1
    sim.cancel(executed)  # no-op: already consumed by the run loop
    assert sim.pending() == 1
    sim.cancel(survivor)
    assert sim.pending() == 0


def test_double_cancel_counts_once():
    sim = Simulator()
    event = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending() == 1
    assert sim.events_cancelled == 1


def test_scheduled_and_cancelled_counters():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(4)]
    sim.cancel(events[0])
    sim.cancel(events[2])
    sim.run()
    assert sim.events_scheduled == 4
    assert sim.events_cancelled == 2
    assert sim.events_executed == 2
    assert sim.pending() == 0


def test_profiler_hook_records_each_event():
    sim = Simulator()

    class Probe:
        def __init__(self):
            self.calls = []

        def record(self, callback, elapsed_s, heap_len):
            self.calls.append((callback, elapsed_s, heap_len))

    probe = Probe()
    sim.profiler = probe
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run()
    assert len(probe.calls) == 2
    assert all(elapsed >= 0 for _, elapsed, _ in probe.calls)


def test_reentrant_run_raises():
    sim = Simulator()
    caught = []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            caught.append(True)

    sim.schedule(1, reenter)
    sim.run()
    assert caught == [True]


def test_callback_args_passed_through():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda a, b: seen.append((a, b)), 1, "two")
    sim.run()
    assert seen == [(1, "two")]


def test_deterministic_event_sequence():
    """Two identical simulations produce identical execution traces."""
    def build_and_run():
        sim = Simulator()
        trace = []

        def emit(tag):
            trace.append((sim.now, tag))
            if tag < 3:
                sim.schedule(10 - tag, emit, tag + 1)

        sim.schedule(5, emit, 0)
        sim.schedule(5, emit, 2)
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


# -- event accounting ---------------------------------------------------------


@pytest.mark.parametrize("pooling", [True, False])
def test_event_accounting_is_exact_mid_run(pooling):
    """``scheduled == executed + cancelled + pending()`` holds inside
    callbacks too: the pooled loop defers ``events_executed`` and the
    live count by the same amount."""
    sim = Simulator(pooling=pooling)
    audits = []

    def tick(n):
        audits.append(sim.audit_counters())
        doomed = sim.schedule(1, tick, -1)
        if n < 5:
            sim.schedule(2, tick, n + 1)
        sim.cancel(doomed)

    sim.schedule(1, tick, 0)
    sim.run()
    assert audits == [[]] * 6
    assert sim.events_scheduled == (sim.events_executed
                                    + sim.events_cancelled + sim.pending())


def test_audit_counters_reports_broken_event_accounting():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(3)]
    sim.cancel(events[1])
    sim.run(until=1)
    assert sim.audit_counters() == []
    sim.events_executed += 1            # an event counted but never run
    problems = sim.audit_counters()
    assert len(problems) == 1
    assert problems[0].startswith("event accounting: scheduled 3 != "
                                  "executed 2 + cancelled 1 + pending 1")


# -- snapshot of a pooled simulator -------------------------------------------


class _Log:
    """Picklable callback target: logs tags; tag 0 chains a follow-up."""

    def __init__(self, sim):
        self.sim = sim
        self.tags = []

    def fire(self, tag):
        self.tags.append(tag)
        if tag == 0:
            self.sim.schedule(7, self.fire, -1)


def test_snapshot_restore_preserves_stale_handle_semantics():
    """A pickled-and-restored simulator honours versioned cancels taken
    before the snapshot: a handle whose event already fired stays a
    no-op after the restore."""
    sim = Simulator(pooling=True)
    log = _Log(sim)
    handles = [(event, event.gen) for event in (
        sim.schedule(10, log.fire, 0), sim.schedule(20, log.fire, 1))]
    sim.run(until=15)                   # first fires, handle recycled
    # One root, as repro.snapshot pickles a live world, so handle
    # aliasing survives the round trip.
    sim, log, handles = pickle.loads(pickle.dumps((sim, log, handles)))
    event, gen = handles[0]
    sim.cancel_versioned(event, gen)    # stale: must no-op
    sim.run()
    assert log.tags == [0, -1, 1]
    sim.check_consistency()


# -- integer horizon past 2**53 ns --------------------------------------------


def test_extreme_horizon_is_exact():
    """``run(until=...)`` past 2**53 ns must not round the horizon.

    2**53 + 1 is the first integer a double cannot represent; a float
    horizon sentinel would land the clock on 2**53 instead and run (or
    skip) events scheduled exactly at the boundary.  Covers the pooled
    loop and the general loop (forced via ``max_events``).
    """
    boundary = 2 ** 53 + 1
    fired = []

    sim = Simulator(pooling=True)
    sim.run(until=boundary)
    assert sim.now == boundary and isinstance(sim.now, int)
    sim.at(boundary + 1, fired.append, "pooled")
    sim.run(until=boundary)              # inclusive horizon: not yet
    assert fired == []
    sim.run(until=boundary + 1)
    assert fired == ["pooled"] and sim.now == boundary + 1

    general = Simulator(pooling=True)
    general.at(boundary + 1, fired.append, "general")
    general.run(until=boundary + 1, max_events=10)
    assert fired == ["pooled", "general"]
    assert general.now == boundary + 1 and isinstance(general.now, int)


# -- pool release when a callback raises --------------------------------------


def _raising_scenario(sim):
    done = []

    def boom():
        raise RuntimeError("boom")

    for i in range(4):
        sim.schedule(10 + i, done.append, i)
    sim.schedule(20, boom)
    sim.schedule(30, done.append, 99)
    return done


def test_raising_callback_keeps_pool_stats_identical():
    """A raising callback must leave identical pool/counter state in the
    pooled fast loop and the general loop (the general loop used to leak
    the consumed event instead of recycling it)."""
    stats = []
    for force_general in (False, True):
        sim = Simulator(pooling=True)
        done = _raising_scenario(sim)
        kwargs = {"max_events": 100} if force_general else {}
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=1_000, **kwargs)
        sim.check_consistency()          # resumable post-mortem state
        stats.append((sim.now, sim.pool_size(), sim.pending(),
                      sim.events_executed, sim.events_reused,
                      tuple(done)))
        # The run is resumable: the remaining event still fires.
        sim.run()
        assert done[-1] == 99
    assert stats[0] == stats[1]
