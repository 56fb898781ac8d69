"""Trace line encoders: byte-identical to ``json.dumps`` on every shape.

``encode_record`` formats the common record shape through a template and
``encode_packet_event`` formats a port's payload without building the
record dict; both must produce exactly the bytes of the general path.
"""

import json
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import (
    ALL_TOPICS,
    TOPIC_PACKET_DROP,
    TOPIC_PACKET_ENQUEUE,
    TraceBus,
)
from repro.snapshot import SimWorld
from repro.telemetry import JsonlSink, TraceRecorder, normalize
from repro.telemetry.records import (
    OPTIONAL_FIELDS,
    PACKET_TOPICS,
    RECORD_FIELDS,
    encode_packet_event,
    encode_record,
)

from conftest import make_packet


def mostly(exact, odd):
    """``exact`` nine draws in ten, ``odd`` otherwise."""
    return st.integers(0, 9).flatmap(lambda n: odd if n == 0 else exact)


TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f",
                              "é", " ", "\U0001f600", "a"])
             ).map("".join))
INTS = st.one_of(st.integers(), st.integers(2 ** 63, 2 ** 80),
                 st.integers(-2 ** 80, -2 ** 63))
ODD = st.one_of(st.booleans(), st.floats(), st.lists(INTS).map(tuple),
                st.lists(st.one_of(INTS, st.booleans(), st.floats())))
EXACT = st.one_of(st.none(), INTS, TEXT, st.lists(INTS))
VALUE = mostly(EXACT, ODD)


def expected(record):
    return json.dumps(record, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({field: VALUE for field in RECORD_FIELDS}))
def test_encode_record_matches_json_dumps_on_fixed_columns(record):
    assert encode_record(record) == expected(record)


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(
    {field: VALUE for field in RECORD_FIELDS},
    optional={field: st.one_of(VALUE, st.dictionaries(TEXT, INTS))
              for field in OPTIONAL_FIELDS}))
def test_encode_record_matches_json_dumps_with_optional_fields(record):
    assert encode_record(record) == expected(record)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(RECORD_FIELDS + OPTIONAL_FIELDS),
                       VALUE))
def test_encode_record_matches_json_dumps_on_partial_records(record):
    assert encode_record(record) == expected(record)


def test_exact_shapes_never_reach_json_dumps():
    record = {"time_ns": 2 ** 70, "topic": TOPIC_PACKET_DROP,
              "port": 's0->h"1\\', "queue": None, "flow": -3,
              "detail": "café\n", "queue_bytes": [], "threshold": [1, 2]}
    payload = dict(port="p", time=5, packet=make_packet(flow_id=7),
                   queue=1, detail="", queue_bytes=(1500, 0))
    lines = (expected(record),
             expected(normalize(TOPIC_PACKET_ENQUEUE, payload)))
    with mock.patch.object(json, "dumps", side_effect=AssertionError):
        assert (encode_record(record),
                encode_packet_event(TOPIC_PACKET_ENQUEUE, payload)) == lines


# -- port payloads -------------------------------------------------------------

PACKETS = mostly(
    st.one_of(st.none(), INTS.map(lambda flow: make_packet(flow_id=flow))),
    st.one_of(st.just(SimpleNamespace()),
              st.sampled_from([True, 1.5, None, "7"]).map(
                  lambda flow: make_packet(flow_id=flow))))
QUEUE_BYTES = mostly(
    st.one_of(st.none(), st.lists(INTS).map(tuple), st.lists(INTS)),
    st.lists(st.one_of(INTS, st.booleans())).map(tuple))
PORT_PAYLOAD = {
    "port": mostly(TEXT, st.integers()),
    "time": mostly(INTS,
                   st.one_of(st.booleans(), st.floats(0, 1e12))),
    "packet": PACKETS,
    "queue": mostly(st.one_of(st.none(), st.integers(0, 7)),
                    st.one_of(st.booleans(), st.floats(0, 8))),
    "detail": mostly(TEXT, st.integers()),
    "queue_bytes": QUEUE_BYTES,
}
TOPICS = mostly(st.sampled_from(sorted(PACKET_TOPICS)),
                st.sampled_from(ALL_TOPICS))


@settings(max_examples=300, deadline=None)
@given(TOPICS, st.fixed_dictionaries(
    PORT_PAYLOAD, optional={"flow": st.one_of(st.none(), INTS,
                                              st.booleans())}))
def test_encode_packet_event_matches_normalize(topic, payload):
    assert (encode_packet_event(topic, payload)
            == encode_record(normalize(topic, payload)))


@settings(max_examples=100, deadline=None)
@given(TOPICS, st.fixed_dictionaries({}, optional=PORT_PAYLOAD))
def test_encode_packet_event_matches_normalize_on_missing_keys(topic,
                                                               payload):
    assert (encode_packet_event(topic, payload)
            == encode_record(normalize(topic, payload)))


# -- recorder wiring -------------------------------------------------------------

def test_close_recorders_closes_jsonl_backed_recorder(tmp_path):
    trace = TraceBus()
    sink = JsonlSink(tmp_path / "t.jsonl")
    recorder = TraceRecorder(trace, sink, topics=sorted(PACKET_TOPICS))
    trace.publish(TOPIC_PACKET_ENQUEUE, port="p", time=1,
                  packet=make_packet(flow_id=3), queue=0, detail="",
                  queue_bytes=(1500,))
    world = SimWorld(kind="unit", net=SimpleNamespace(trace=trace),
                     finish=lambda world: None, horizon_ns=10)
    world.close_recorders()
    assert not any(trace.has_subscribers(topic) for topic in PACKET_TOPICS)
    trace.publish(TOPIC_PACKET_ENQUEUE, port="p", time=2,
                  packet=make_packet(), queue=0, detail="",
                  queue_bytes=(0,))
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert [json.loads(line)["time_ns"] for line in lines] == [1]
    assert recorder.records_written == sink.records_written == 1
