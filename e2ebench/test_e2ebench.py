"""Smoke tests of the benchmark itself, at the tiny scale.

Run from the repository root: ``python3 -m pytest e2ebench -q``.
"""

import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _main(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_every_module_has_one_layer():
    assert layers.unmapped_modules(run.SRC) == []
    for name in layers.repro_modules(run.SRC):
        assert layers.layer_of_module(name) in layers.LAYERS


def test_unmapped_module_is_reported(tmp_path):
    package = tmp_path / "repro" / "newlayer"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "cli.py").write_text("")
    (package / "__init__.py").write_text("")
    assert layers.unmapped_modules(str(tmp_path)) == [
        "repro.newlayer.__init__"]


def test_benchmark_json_names_every_metric():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END),
                                          (1, run.PER_LAYER)])
def test_tiny_smoke_of_all_workloads(trace, names):
    result = _main("--workload", "all", "--scale", "tiny",
                   "--seconds", "0", "--trace", str(trace))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS) * (3 if trace else 2)
    assert set(result["metrics"]) == {
        f"{workload}/{name}" for workload in WORKLOADS for name in names}
    if trace:
        traced = result["metrics"]["fig05-traced/telemetry.records"]
        assert traced["value"] > 0
        overhead = result["metrics"]["fig05-fair/trace_overhead"]
        assert overhead["value"] > 1


def test_tampered_digest_counts_as_failure(tmp_path, monkeypatch):
    with open(run.DIGESTS) as handle:
        pins = json.load(handle)
    entry = pins["tiny"]["fig05-fair"]["any"]
    entry["samples"] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "DIGESTS", str(tampered))
    result = _main("--workload", "fig05-fair", "--scale", "tiny",
                   "--seconds", "0")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_unpinned_seed_checks_repeat_agreement():
    report = {"audit": [], "digests": {"fct": "a", "ports": "b"}}
    assert run.gate(report, None) == []
    assert run.gate(report, {"fct": "a", "ports": "b"}) == []
    assert run.gate(report, {"fct": "a", "ports": "c"})
    assert run.pinned_digests({"fig08-fct": {"1": {}}}, "fig08-fct", 2) \
        is None
