"""In-memory spans around demuxsim's public functions, and the per-layer metrics.

A Tracer replaces a module attribute with a wrapper that records one span per
call: name, start, end, the index of the enclosing span, and optional counts
taken from the call's arguments and result.  The wrapper is installed in the
namespace where the caller looks the name up (``cli.read_stream``, not
``tags.read_stream``), because ``from x import y`` binds its own reference.
``restore`` puts every original back.

Self time is a span's duration minus the time its direct children cover.
Calls run on one thread, so children never overlap and that time is the sum
of their durations.
"""

from __future__ import annotations

import functools
import time

# name -> unit of every per-layer metric a traced run reports
PER_LAYER_UNITS = {
    "config.load_s": "s",
    "simulate.simulate_s": "s",
    "simulate.pulses": "pulses",
    "simulate.records": "records",
    "simulate.records_per_pulse": "records/pulse",
    "tags.write_stream_s": "s",
    "tags.read_stream_s": "s",
    "tags.stream_bytes": "bytes",
    "analysis.histogram_s": "s",
    "analysis.histogram_calls": "count",
    "analysis.count_nfold_s": "s",
    "analysis.estimate_splitting_ratios_self_s": "s",
    "analysis.eta_dm_from_ratios_s": "s",
    "fitting.damped_least_squares_s": "s",
    "fitting.damped_least_squares_calls": "count",
    "fitting.iterations": "count",
    "fitting.finite_difference_jacobian_s": "s",
    "couplers.routing_by_bin_s": "s",
    "couplers.routing_by_bin_calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans from wrapped module attributes until restored."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Trace calls to ``module.attr`` as spans called ``name``.

        ``counts(args, result)`` may return a dict of numbers stored on the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": self.clock(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
            }
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                self._open.pop()
                span["end"] = self.clock()
            if counts is not None:
                span["counts"] = counts(args, result)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but trace.overhead_s)."""
    selfs = self_times(spans)

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name)

    def self_total(name):
        return sum(t for s, t in zip(spans, selfs) if s["name"] == name)

    pulses = count("simulate.simulate", "pulses")
    records = count("simulate.simulate", "records")
    return {
        "config.load_s": total("config.load_config"),
        "simulate.simulate_s": total("simulate.simulate"),
        "simulate.pulses": pulses,
        "simulate.records": records,
        "simulate.records_per_pulse": records / pulses if pulses else 0.0,
        "tags.write_stream_s": total("tags.write_stream"),
        "tags.read_stream_s": total("tags.read_stream"),
        "tags.stream_bytes": count("tags.write_stream", "bytes"),
        "analysis.histogram_s": total("analysis.histogram"),
        "analysis.histogram_calls": calls("analysis.histogram"),
        "analysis.count_nfold_s": total("analysis.count_nfold"),
        "analysis.estimate_splitting_ratios_self_s": self_total(
            "analysis.estimate_splitting_ratios"
        ),
        "analysis.eta_dm_from_ratios_s": total("analysis.eta_dm_from_ratios"),
        "fitting.damped_least_squares_s": total("fitting.damped_least_squares"),
        "fitting.damped_least_squares_calls": calls("fitting.damped_least_squares"),
        "fitting.iterations": count("fitting.damped_least_squares", "iterations"),
        "fitting.finite_difference_jacobian_s": total("fitting.finite_difference_jacobian"),
        "couplers.routing_by_bin_s": total("couplers.routing_by_bin"),
        "couplers.routing_by_bin_calls": calls("couplers.routing_by_bin"),
        "cli.self_s": self_total("cli.main"),
    }
