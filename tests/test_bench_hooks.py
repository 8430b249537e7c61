"""The benchmark's ``--trace 1`` hooks name functions that exist where they are called.

bench/worker.py wraps demuxsim functions in the namespace where each caller
looks them up.  If one of those names is deleted or stops being the function
it is traced as, a traced run fails or silently records nothing, so this
checks the hooks against the real modules.
"""

import importlib
import importlib.util
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
