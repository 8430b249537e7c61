"""The benchmark's ``--trace 1`` hooks name functions that exist where they are called.

bench/worker.py wraps demuxsim functions in the namespace where each caller
looks them up.  If one of those names is deleted or stops being the function
it is traced as, a traced run fails or silently records nothing, so this
checks the hooks against the real modules.
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

from demuxsim import analysis, cli, config, fitting, tags

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"

# every span name the per-layer metrics are computed from
TRACED = {
    "config.load_config",
    "cli.main",
    "simulate.simulate",
    "tags.write_stream",
    "tags.read_stream",
    "analysis.histogram",
    "analysis.count_nfold",
    "analysis.estimate_splitting_ratios",
    "analysis.eta_dm_from_ratios",
    "fitting.damped_least_squares",
    "fitting.finite_difference_jacobian",
    "couplers.routing_by_bin",
}


class RecordingTracer:
    """Stands in for spans.Tracer: records each hook without installing it."""

    def __init__(self):
        self.hooks = []

    def wrap(self, module, attr, name, counts=None):
        self.hooks.append((module, attr, name, getattr(module, attr)))


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_trace_hooks_wrap_the_functions_callers_use():
    tracer = RecordingTracer()
    load_worker()._wrap_layers(tracer, config, cli, analysis, fitting, tags)
    assert {name for _, _, name, _ in tracer.hooks} == TRACED
    for module, attr, name, target in tracer.hooks:
        layer, function = name.split(".")
        origin = importlib.import_module(f"demuxsim.{layer}")
        # a caller that imported a different function would bypass the span
        assert target is getattr(origin, function), f"{module.__name__}.{attr} is not {name}"


def test_one_traced_repetition_runs_in_process(tmp_path, monkeypatch):
    # the count lambdas and _check_inputs read demuxsim objects too; the
    # names test above never calls them, so run bright_4's calls on a small run
    monkeypatch.syspath_prepend(str(WORKER.parent))  # worker imports checks and spans
    analyses = [["--which", "ratios", "--pairs", "all"], ["--which", "nfold"]]
    result = tmp_path / "result.json"
    spec = {
        "config": str(WORKER.parent / "configs" / "bright_4.yaml"),
        "pulses": 20_000,
        "analyses": analyses,
        "check_eta": False,
        "seed": 3,
        "trace": True,
        "work": str(tmp_path),
        "result": str(result),
        "spawned": time.monotonic(),
    }
    load_worker().main(spec)
    rep = json.loads(result.read_text())
    assert rep["exit_codes"] == [0] * (1 + len(analyses))
    assert {span["name"] for span in rep["spans"]} <= TRACED
    (simulated,) = [span for span in rep["spans"] if span["name"] == "simulate.simulate"]
    assert simulated["counts"] == {"pulses": 20_000, "records": rep["records"]}
    assert rep["records"] > 0
    attempted, failed = importlib.import_module("checks").tally([rep])
    assert attempted > 0 and failed == 0
