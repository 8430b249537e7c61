"""One benchmark repetition, run by run.py in a fresh interpreter.

Usage: python3 bench/worker.py SPEC_JSON

The worker imports demuxsim and loads the workload's config; the time from
the spawn recorded in the spec to that point is the set-up time.  It then
runs the workload's ``simulate`` call and its ``analyze`` calls back to back
through ``demuxsim.cli.main``, timing each.  Peak memory is read before
anything else happens.  Only then does it gather what the correctness checks
need, and it writes everything as JSON to ``spec["result"]``.

With ``spec["trace"]`` set, each layer's public functions are wrapped in spans
(see spans.py) from just after the import until the timed part ends.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _wrap_layers(tracer, config, cli, analysis, fitting, tags) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    tracer.wrap(config, "load_config", "config.load_config")
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(
        cli,
        "run_simulation",
        "simulate.simulate",
        lambda args, stream: {
            "pulses": args[0].resolved_pulse_count(),
            "records": len(stream),
        },
    )
    tracer.wrap(
        cli,
        "write_stream",
        "tags.write_stream",
        lambda args, _: {"bytes": len(args[0]) * tags.RECORD_BYTES},
    )
    tracer.wrap(cli, "read_stream", "tags.read_stream")
    for name in ("histogram", "count_nfold", "estimate_splitting_ratios", "eta_dm_from_ratios"):
        tracer.wrap(analysis, name, f"analysis.{name}")
    tracer.wrap(
        analysis,
        "damped_least_squares",
        "fitting.damped_least_squares",
        lambda _, fit: {"iterations": fit.iterations},
    )
    # analysis calls it for the identifiability check, fitting for numeric Jacobians
    tracer.wrap(analysis, "finite_difference_jacobian", "fitting.finite_difference_jacobian")
    tracer.wrap(fitting, "finite_difference_jacobian", "fitting.finite_difference_jacobian")
    # analysis looks it up once per fit model evaluation
    tracer.wrap(analysis, "routing_by_bin", "couplers.routing_by_bin")


def _call(cli, argv) -> tuple[int, float]:
    """Exit code and wall time of one CLI call; a crash counts as a failure."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start


def _check_inputs(spec, rc, stream_path: Path, work: Path) -> dict:
    """Observed and expected quantities for checks.tally, gathered untimed."""
    import checks
    import numpy as np
    from demuxsim.couplers import routing_by_bin, switching_efficiency
    from demuxsim.simulate import second_photon_probability
    from demuxsim.tags import sidecar_path

    out = {"digest": None, "singles": None, "records": 0}
    side = sidecar_path(stream_path)
    if stream_path.is_file() and side.is_file():
        digest = hashlib.sha256(stream_path.read_bytes())
        digest.update(side.read_bytes())
        out["digest"] = digest.hexdigest()
        # read the documented columnar layout directly, not through demuxsim
        meta = json.loads(side.read_text())
        n = meta["n_records"]
        channels = np.fromfile(stream_path, dtype="<u4", count=n).astype(np.int64)
        timestamps = np.fromfile(stream_path, dtype="<u8", count=n, offset=4 * n)
        sim = rc.sim_config(pulses=spec["pulses"], seed=spec["seed"])
        p1 = sim.emission_probability()
        p2 = second_photon_probability(p1, sim.emitter.g2_zero)
        rows = routing_by_bin(sim.network, sim.schedule, sim.couplers)
        period, outputs = rows.shape
        base, extra = divmod(spec["pulses"], period)
        expected, variance = checks.expected_counts(
            p1, p2, sim.transmission() * sim.eta_det, rows,
            [base + (b < extra) for b in range(period)],
        )
        bins = (timestamps // np.uint64(meta["pulse_period_ps"]) % np.uint64(period)).astype(np.int64)
        # column 0 collects channel 0, the last column every channel above n
        cells = bins * (outputs + 2) + np.minimum(channels, outputs + 1)
        counts = np.bincount(cells, minlength=period * (outputs + 2))
        out["singles"] = {
            "counts": counts.reshape(period, outputs + 2).tolist(),
            "expected": expected.tolist(),
            "variance": variance.tolist(),
        }
        out["records"] = n
    if spec["check_eta"]:
        ratios = work / "splitting_ratios.json"
        out["eta_dm"] = None
        if ratios.is_file():
            eta = json.loads(ratios.read_text())["eta_dm"]
            truth = switching_efficiency(rc.network, rc.schedule, rc.couplers)
            out["eta_dm"] = {"value": eta["value"], "sigma": eta["sigma"], "truth": truth}
    return out


def main(spec: dict) -> None:
    from demuxsim import analysis, cli, config, fitting, tags

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        _wrap_layers(tracer, config, cli, analysis, fitting, tags)
    rc = config.load_config(spec["config"])
    setup_s = time.monotonic() - spec["spawned"]

    work = Path(spec["work"])
    stream = work / "stream.tags"
    simulate = ["simulate", "--config", spec["config"], "--out", str(stream),
                "--pulses", str(spec["pulses"]), "--seed", str(spec["seed"])]
    analyses = [["analyze", "--config", spec["config"], "--stream", str(stream),
                 "--out-dir", str(work), *extra] for extra in spec["analyses"]]

    start = time.perf_counter()
    code, simulate_s = _call(cli, simulate)
    codes = [code]
    analyze_s = 0.0
    for argv in analyses:
        code, seconds = _call(cli, argv)
        codes.append(code)
        analyze_s += seconds
    pipeline_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    result = {
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "simulate_s": simulate_s,
        "analyze_s": analyze_s,
        "peak_rss_mb": peak_rss_mb,
        "pulses": spec["pulses"],
        "exit_codes": codes,
        **_check_inputs(spec, rc, stream, work),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
