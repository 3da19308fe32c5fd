"""Tests of the E21 harness itself (collected by the tier-1 run)."""

import json
import math
import statistics
from pathlib import Path

import pytest

from benchmarks.e21 import compare, harness, run, trace, workloads
from benchmarks.e21.metrics import (
    END_TO_END,
    PER_LAYER,
    SPAN_METRIC,
    WORKLOAD,
    Metric,
    as_output,
    spread,
    supported_percentile,
)
from repro.netkms.server import REPLAY_CACHE_LIMIT

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------- #
# Span arithmetic
# ---------------------------------------------------------------------- #


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        ["root", 0.0, 10.0, trace.NO_PARENT],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b", 9.0, 9.5, 0],
    ]
    summary = trace.self_times(spans)
    assert summary["root"] == (1, pytest.approx(2.5), pytest.approx(10.0))
    assert summary["a"] == (1, pytest.approx(2.0), pytest.approx(3.0))
    assert summary["a.inner"] == (1, pytest.approx(1.0), pytest.approx(1.0))
    assert summary["b"] == (2, pytest.approx(4.5), pytest.approx(4.5))
    # Self times under one root add up to the root's duration.
    assert sum(own for _calls, own, _total in summary.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_survives_exceptions():
    tracer = trace.Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError
        with tracer.span("sibling"):
            pass
    assert [(name, parent) for name, _s, _e, parent in tracer.spans] == [
        ("root", trace.NO_PARENT), ("child", 0), ("failing", 0), ("sibling", 0),
    ]
    assert all(end >= start for _n, start, end, _p in tracer.spans)


def test_tracing_restores_every_patched_callable():
    from repro.kms.store import KeyStore
    from repro.netkms import protocol

    before = (KeyStore.reserve, KeyStore.consuming, protocol.encode_frame)
    with trace.tracing():
        assert KeyStore.reserve is not before[0]
    assert (KeyStore.reserve, KeyStore.consuming, protocol.encode_frame) == before


# ---------------------------------------------------------------------- #
# Statistics helpers
# ---------------------------------------------------------------------- #


def test_percentile_rule_needs_ten_samples_beyond():
    assert supported_percentile(3_000) == 99.0
    assert supported_percentile(1_000) == 99.0
    assert supported_percentile(999) == 95.0
    assert supported_percentile(200) == 95.0
    assert supported_percentile(199) == 90.0
    assert supported_percentile(99) == 50.0


def test_spread_is_interquartile_share_of_median():
    assert spread([1.0]) == 0.0
    assert spread([10.0] * 8) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 10.0, 9.5, 10.5]
    assert 0.0 < spread(values) < 0.1


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #


def _side(value, spread_=0.01, values=None):
    return {"value": value, "spread": spread_, "values": values or [value]}


def test_compare_verdicts():
    timed = Metric("work_per_ref_s", "1/s", "higher", "", bound=0.10)
    lower = Metric("peak_rss_mb", "MiB", "lower", "", bound=0.10)
    exact = Metric("rekey_ok_share", "share", "higher", "", exact=True)
    assert compare.verdict(timed, _side(100.0), _side(120.0))[2] == "better"
    assert compare.verdict(timed, _side(100.0), _side(95.0))[2] == "same"
    assert compare.verdict(timed, _side(100.0), _side(80.0))[2] == "worse"
    assert compare.verdict(lower, _side(100.0), _side(120.0))[2] == "worse"
    # Spread beyond the bound: unresolved while the two sides' runs overlap...
    noisy_old = _side(100.0, 0.3, [80.0, 100.0, 120.0])
    assert compare.verdict(timed, noisy_old, _side(110.0, 0.3, [90.0, 110.0, 130.0]))[2] == (
        "unresolved")
    # ...resolved when every new run beats every old run.
    assert compare.verdict(timed, noisy_old, _side(150.0, 0.3, [130.0, 150.0, 170.0]))[2] == (
        "better")
    assert compare.verdict(exact, _side(0.5), _side(0.5))[2] == "same"
    assert compare.verdict(exact, _side(0.5), _side(0.4999))[2] == "worse"


def test_compare_exit_code_and_rows(tmp_path, capsys):
    def result(work_per_ref_s, yields=(200.0,)):
        return {"seed": 1, "size": "full", "runs": len(yields), "workloads": {"link_single": {
            "end_to_end": {"work_per_ref_s": _side(work_per_ref_s)},
            "workload_metrics": {"secret_bits_per_mslot": _side(
                statistics.median(yields), values=list(yields))},
            "per_layer": {"optics.transmit_s": {"value": 1.0, "unit": "s"}},
        }}}

    old, slow = tmp_path / "old.json", tmp_path / "slow.json"
    old.write_text(json.dumps(result(8.0)))
    slow.write_text(json.dumps(result(5.0)))
    assert compare.main([str(old), str(old)]) == 0
    assert compare.main([str(old), str(slow)]) == 1
    assert "optics.transmit_s" in capsys.readouterr().out
    # The same code run on three seeds and on the first of them only: the
    # exact yield is judged at the seed both ran, not median against value.
    three = result(8.0, yields=(200.0, 150.0, 120.0))
    rows = compare.compare(three, result(8.0))
    assert [row[-1] for row in rows if row[1] == "secret_bits_per_mslot"] == ["same"]
    rows = compare.compare(three, result(8.0, yields=(150.0,)))
    assert [row[-1] for row in rows if row[1] == "secret_bits_per_mslot"] == ["worse"]


# ---------------------------------------------------------------------- #
# The benchmark contract
# ---------------------------------------------------------------------- #


def test_benchmark_json_matches_the_metric_definitions():
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/e21"]
    assert contract["run_seconds"] == harness.RUN_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == workloads.WHY
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in WORKLOAD + PER_LAYER
    ]
    names = [m.name for m in END_TO_END + WORKLOAD + PER_LAYER]
    assert len(names) == len(set(names))
    assert {metric for _prefix, metric in SPAN_METRIC} <= {m.name for m in PER_LAYER}


def test_full_warm_up_fills_the_replay_cache():
    assert workloads.NetkmsServe.SIZES["full"]["warmup"] > REPLAY_CACHE_LIMIT


# ---------------------------------------------------------------------- #
# Every workload at smoke size
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def smoke():
    """One untraced and one traced smoke repetition of every workload (a
    constant stands in for the reference kernel: nothing is re-run)."""
    return {
        name: harness.measure(name, seconds=0.0, traced=True, size="smoke", min_reps=1,
                              sentinel=lambda: harness.SENTINEL_NOMINAL_S)
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_reports_every_metric(smoke, name):
    result = smoke[name]
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric, row in as_output(result["end_to_end"], END_TO_END).items():
        assert math.isfinite(row["value"]) and row["value"] > 0, metric
    layer = as_output({**result["workload_metrics"], **result["per_layer"]},
                      WORKLOAD + PER_LAYER)
    for metric, row in layer.items():
        # Tracing overhead is a difference of two timings; all else counts up.
        assert row["value"] >= 0 or metric == "bench.trace_overhead_share", metric

    # Layer self times plus the unattributed remainder are the traced wall.
    per_layer = result["per_layer"]
    wall = per_layer["bench.traced_wall_s"]
    attributed = sum(per_layer[metric] for metric in {m for _p, m in SPAN_METRIC})
    assert attributed + per_layer["bench.unattributed_share"] * wall == pytest.approx(
        wall, rel=0.05)


def test_smoke_profiles_match_the_sizing_runs(smoke):
    def seconds(name):
        return {m: v for m, v in smoke[name]["per_layer"].items() if m in
                {metric for _p, metric in SPAN_METRIC}}

    link = seconds("link_single")
    assert max(link, key=link.get) == "optics.transmit_s"
    soak = seconds("kms_soak")
    ike = soak.pop("ipsec.rekey_s") + soak.pop("ipsec.phase1_s") + soak.pop("crypto.prf_s")
    assert ike > max(soak.values())
    # The layers a workload bypasses record nothing.
    assert soak["optics.transmit_s"] == 0 and link["kms.store_s"] == 0
    assert seconds("netkms_serve")["optics.transmit_s"] == 0


def test_repetition_beside_a_slow_sentinel_is_run_again_once():
    # Readings: warm-up, after the imports, before and after the first
    # repetition (slow), before and after its re-run (slow again: kept anyway,
    # one retry only).
    readings = iter([1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    result = harness.measure("link_single", seconds=0.0, size="smoke", min_reps=1,
                             sentinel=readings.__next__)
    assert (result["reps"], result["reps_discarded"]) == (1, 1)
    assert result["sentinel_spread"] == pytest.approx(1.0)
    # The discarded repetition's outputs were still checked.
    assert result["correct"] and result["attempted"] == 2
    # Reference seconds: the kept repetition ran beside readings of 2.0.
    slowdown = 2.0 / harness.SENTINEL_NOMINAL_S
    assert result["end_to_end"]["work_per_ref_s"] == pytest.approx(
        result["workload_metrics"]["slots_per_s"] / 1e6 * slowdown)


def test_corrupting_one_served_byte_fails_the_run(monkeypatch, capsys):
    original = workloads.NetworkKmsClient.get_key
    calls = []

    async def corrupting_get_key(self, pair, bits):
        key = await original(self, pair, bits)
        calls.append(pair)
        # Past the warm-up, whose keys the workload does not keep.
        if len(calls) == workloads.NetkmsServe.SIZES["smoke"]["warmup"] + 10:
            key.key_bytes = bytes([key.key_bytes[0] ^ 1]) + key.key_bytes[1:]
        return key

    monkeypatch.setattr(workloads.NetworkKmsClient, "get_key", corrupting_get_key)
    # Seed 5 takes the self-consistency path: no pinned digest is involved.
    code = run.main(["--workload", "netkms_serve", "--seed", "5", "--seconds", "0", "--smoke"])
    assert code != 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
