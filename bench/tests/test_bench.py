"""Tests of the benchmark's own arithmetic; run with ``python -m pytest bench/tests``."""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("cli.main", 0.0, 10.0, None),
        _span("analysis.histogram", 1.0, 3.0, 0),
        _span("analysis.estimate_splitting_ratios", 4.0, 9.0, 0),
        _span("fitting.damped_least_squares", 4.5, 8.5, 2),
        _span("couplers.routing_by_bin", 5.0, 6.0, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["analysis.estimate_splitting_ratios_self_s"] == pytest.approx(1.0)
    assert metrics["fitting.damped_least_squares_s"] == pytest.approx(4.0)
    assert metrics["couplers.routing_by_bin_calls"] == 1


def test_tracer_records_parents_counts_and_restores():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    originals = (module.inner, module.outer)
    tracer.wrap(module, "inner", "inner", lambda args, result: {"items": result})
    tracer.wrap(module, "outer", "outer")

    assert module.outer(1) == 4
    tracer.restore()

    assert (module.inner, module.outer) == originals
    outer, inner = tracer.spans
    assert (outer["name"], outer["parent"], outer["start"], outer["end"]) == ("outer", None, 0, 3)
    assert (inner["name"], inner["parent"], inner["counts"]) == ("inner", 0, {"items": 2})
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER_UNITS
    # device_sparse runs by hand only, see run.py
    gated = {w["name"]: w["why"] for w in doc["workloads"]}
    assert gated == {n: run.WORKLOADS[n]["why"] for n in ("bright_4", "ratio_8")}
    for name, unit in [*declared.items(), *spans.PER_LAYER_UNITS.items()]:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    computed = spans.layer_metrics([]).keys() | {"trace.overhead_s"}
    assert computed == spans.PER_LAYER_UNITS.keys()


ONE_BIN = [[100.0, 100.0]]


def _rep(counts=((0, 100, 100, 0),), expected=ONE_BIN, eta_value=0.8, digest="d"):
    # counts columns: channel 0, channels 1..n, channels above n
    return {
        "exit_codes": [0, 0, 0],
        "digest": digest,
        "singles": {"counts": counts, "expected": expected, "variance": expected},
        "eta_dm": {"value": eta_value, "sigma": 0.01, "truth": 0.8},
    }


def _failed_ops_ratio(reps):
    attempted, failed = checks.tally(reps)
    return failed / attempted


def test_passing_run_has_zero_failed_ops_ratio():
    # 3 CLI calls + identity + singles + eta_dm per repetition
    assert checks.tally([_rep(), _rep()]) == (12, 0)


@pytest.mark.parametrize(
    "bad",
    [
        _rep(counts=((0, 100, 141, 0),)),  # channel 2 is 4.1 standard errors high
        _rep(counts=((1, 100, 100, 0),)),  # a record on channel 0
        _rep(counts=((0, 100, 100, 1),)),  # a record above the last channel
        # right channel totals, but 5.5 standard errors off in each bin
        _rep(counts=((0, 155, 45, 0), (0, 45, 155, 0)), expected=ONE_BIN * 2),
        _rep(eta_value=0.85),  # eta_dm pull of 5
        _rep(digest="other"),  # stream differs from the first repetition's
        {**_rep(), "exit_codes": [0, 5, 0]},  # a CLI call failed
        {**_rep(), "singles": None},  # no stream to check
    ],
)
def test_failed_check_raises_failed_ops_ratio(bad):
    assert _failed_ops_ratio([_rep(), bad]) == pytest.approx(1 / 12)


def test_expected_counts_merge_double_hits():
    rows = [[1.0, 0.0], [0.5, 0.5]]
    expected, variance = checks.expected_counts(0.5, 0.5, 1.0, rows, [10, 20])
    # bin 0: channel 1 fires unless both photons miss: 1 - 0.5**2 = 0.75
    # bin 1: each photon reaches each channel w.p. 0.25: 1 - 0.75**2 = 0.4375
    assert expected == pytest.approx(np.array([[7.5, 0.0], [8.75, 8.75]]))
    assert variance == pytest.approx(np.array([[1.875, 0.0], [20 * 0.4375 * 0.5625] * 2]))
    # a cell the model rules out must stay empty
    assert checks.singles_ok([[0, 8, 0, 0], [0, 9, 9, 0]], expected, variance)
    assert not checks.singles_ok([[0, 8, 1, 0], [0, 9, 9, 0]], expected, variance)
