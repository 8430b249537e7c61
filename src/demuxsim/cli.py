"""Command-line interface.

Subcommands: predict, simulate, analyze, fit-saturation.  Exit codes:
0 success, 2 configuration error, 3 I/O or unreadable data, 4 stream/config
incompatibility, 5 estimation or fit failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import RunConfig, load_config
from .simulate import simulate as run_simulation
from .errors import (
    CompatibilityError,
    ConfigError,
    DataError,
    DemuxError,
    DomainError,
    EstimationError,
    FitNonConvergenceError,
)
from .rates import crossover_n, predict_rates
from .tags import read_stream, write_csv, write_stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_COMPAT = 4
EXIT_NUMERIC = 5


def _out_dir(args) -> Path:
    path = Path(args.out_dir or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_channels(text: str) -> tuple[int, ...]:
    try:
        channels = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"--channels expects comma-separated integers, got {text!r}")
    if not channels:
        raise ConfigError("--channels is empty")
    return channels


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_predict(args) -> int:
    rc = load_config(args.config)
    pred_config = rc.prediction_config()
    if args.include_detectors:
        pred_config = dataclasses.replace(pred_config, include_detectors=True)
    n_max = args.n_max if args.n_max is not None else rc.prediction_n_max()
    # crossover_n refuses n_max < 1, so it runs before anything is written
    cross = crossover_n(pred_config, n_max=n_max)
    predictions = predict_rates(pred_config, range(1, n_max + 1))
    lines = ["n,scheme,rate_hz"]
    for p in predictions:
        lines.append(f"{p.n},{p.scheme},{p.rate_hz:.10e}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    where = "none within range" if cross is None else str(cross)
    print(f"# eta_dm={pred_config.eta_dm:.6f} include_detectors={pred_config.include_detectors} "
          f"crossover_n={where}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    rc = load_config(args.config)
    config = rc.sim_config(pulses=args.pulses, seed=args.seed)
    out = Path(args.out)
    if not out.parent.is_dir():  # before the first pulse: a run it cannot write is not drawn
        raise FileNotFoundError(f"output directory {out.parent} does not exist")
    stream = run_simulation(config, args.shards)  # refuses fewer than one shard
    write_stream(stream, out)
    if args.csv:
        write_csv(stream, out.with_suffix(out.suffix + ".csv"))
    print(f"pulses={config.resolved_pulse_count()} records={len(stream)}")
    if stream.meta.pulse_count:  # a run of no pulses has no acquisition time, so no rates
        for ch, rate in enumerate(stream.singles_rates_hz(), start=1):
            print(f"channel_{ch}_singles_hz={rate:.6g}")
    return EXIT_OK


def _check_compatibility(rc: RunConfig, stream) -> None:
    expected = rc.sim_config().stream_meta()
    if stream.meta.config_digest != expected.config_digest:
        raise CompatibilityError(
            "stream was produced by a different device configuration "
            f"(stream digest {stream.meta.config_digest[:12]}..., "
            f"config digest {expected.config_digest[:12]}...)"
        )
    # the digest covers the emitter and network, so a mismatch here means a
    # corrupt sidecar; refused before any analysis sizes an array or a rate by it
    for key in ("pump_rate_hz", "pulse_period_ps", "n_channels"):
        value, want = getattr(stream.meta, key), getattr(expected, key)
        if value != want:
            raise DataError(f"stream sidecar {key}={value!r}, but the configuration gives {want!r}")


def _load_streams(rc: RunConfig, paths) -> list:
    streams = []
    for path in paths:
        stream = read_stream(path)
        _check_compatibility(rc, stream)
        streams.append(stream)
    return streams


def cmd_analyze(args) -> int:
    if args.which != "eta-dm" and len(args.stream) > 1:
        raise ConfigError(f"--which {args.which} analyses one --stream, got {len(args.stream)}")
    rc = load_config(args.config)
    streams = _load_streams(rc, args.stream)
    return _ANALYSES[args.which](rc, streams, args, _out_dir(args))


def _pairs_for(args, stream) -> list[tuple[int, int]]:
    n = stream.meta.n_channels
    if args.pairs == "first":
        return [(1, b) for b in range(2, n + 1)]
    if args.pairs == "all":
        return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    pairs = []
    for chunk in args.pairs.split(";"):
        parts = chunk.split(",")
        try:
            a, b = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(
                f'--pairs expects "first", "all", or "a,b;c,d", got {args.pairs!r}'
            ) from None
        pairs.append((a, b))
    return pairs


def _analyze_histograms(rc, streams, args, out_dir: Path) -> int:
    stream = streams[0]
    hists = analysis.pair_histograms(stream, _pairs_for(args, stream), args.max_delay_bins)
    for hist in hists:
        path = out_dir / f"hist_{hist.channel_a}_{hist.channel_b}.csv"
        with path.open("w") as fh:
            fh.write("delay_bins,delay_s,counts\n")
            for d, c in zip(hist.delays, hist.counts):
                fh.write(f"{int(d)},{d * hist.bin_width_s:.12e},{int(c)}\n")
        print(f"wrote {path} total={hist.total()}")
    return EXIT_OK


def _analyze_nfold(rc, streams, args, out_dir: Path) -> int:
    stream = streams[0]
    channels = _parse_channels(args.channels) if args.channels else stream.meta.schedule_targets
    result = analysis.count_nfold(stream, channels)
    doc = {**dataclasses.asdict(result), "rate_hz": result.rate_hz, "sigma_hz": result.sigma_hz}
    path = out_dir / ("nfold_" + "_".join(str(c) for c in channels) + ".json")
    _write_json(path, doc)
    print(f"wrote {path} rate_hz={result.rate_hz:.6g} sigma_hz={result.sigma_hz:.3g}")
    return EXIT_OK


def _analyze_ratios(rc, streams, args, out_dir: Path) -> int:
    stream = streams[0]
    schedule = stream.meta.schedule_targets
    hists = analysis.pair_histograms(stream, _pairs_for(args, stream), args.max_delay_bins)
    fit = analysis.estimate_splitting_ratios(hists, rc.network, schedule)
    eta_dm, eta_sigma = analysis.eta_dm_from_ratios(fit, rc.network, schedule)
    fit_doc = fit.to_dict()
    doc = {
        "ratios": {
            name: fit_doc["parameters"][name] for name in analysis._ratio_params(rc.network)
        },
        "eta_dm": {"value": eta_dm, "sigma": eta_sigma},
        "fit": fit_doc,
    }
    path = out_dir / "splitting_ratios.json"
    _write_json(path, doc)
    print(f"wrote {path} eta_dm={eta_dm:.4f}+-{eta_sigma:.4f}")
    return EXIT_OK


def _analyze_eta_dm(rc, streams, args, out_dir: Path) -> int:
    points = []
    eta_sds = []
    weights = []
    for stream in streams:
        channels = tuple(stream.meta.schedule_targets)
        result = analysis.count_nfold(stream, channels)
        points.append(result)
        eta_sds.append(
            analysis.eta_sd_from_singles(
                stream.singles_rates_hz(), stream.meta.pump_rate_hz, rc.eta_det
            )
        )
        weights.append(len(stream))
    if not sum(weights):  # no singles to weight eta_sd by
        raise DataError("eta-dm needs records, but no --stream holds any")
    eta_sd = float(np.average(eta_sds, weights=weights))
    fit = analysis.fit_switching_efficiency(
        points, pump_rate_hz=streams[0].meta.pump_rate_hz, eta_det=rc.eta_det, eta_sd=eta_sd
    )
    doc = {
        "eta_sd": eta_sd,
        "points": [
            {"n": m.n, "channels": list(m.channels), "rate_hz": m.rate_hz, "sigma_hz": m.sigma_hz}
            for m in points
        ],
        "fit": fit.to_dict(),
    }
    path = out_dir / "eta_dm_fit.json"
    _write_json(path, doc)
    print(
        f"wrote {path} eta_dm={fit.value('eta_dm'):.4f}+-{fit.sigma('eta_dm'):.4f} "
        f"boundary={fit.at_boundary}"
    )
    return EXIT_OK


_ANALYSES = {
    "histograms": _analyze_histograms,
    "nfold": _analyze_nfold,
    "ratios": _analyze_ratios,
    "eta-dm": _analyze_eta_dm,
}


def cmd_fit_saturation(args) -> int:
    path = Path(args.data)
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header not in (["power_uw", "rate_hz"], ["power_uw", "rate_hz", "sigma_hz"]):
        raise DataError(f"{path}: expected header power_uw,rate_hz[,sigma_hz], got {header!r}")
    ragged = [row for row in rows if len(row) != len(header)]
    if ragged:  # a field the header does not name would be dropped unread
        raise DataError(
            f"{path}: rows must have the header's {len(header)} fields, got {','.join(ragged[0])!r}"
        )
    if len(rows) < 3:
        raise DataError(f"{path}: need at least 3 data rows, got {len(rows)}")
    try:
        power = [float(r[0]) for r in rows]
        rate = [float(r[1]) for r in rows]
        sigma = [float(r[2]) for r in rows] if len(header) == 3 else None
    except ValueError:
        raise DataError(f"{path}: rows must be numeric power_uw,rate_hz[,sigma_hz]") from None
    fit = analysis.fit_saturation(power, rate, sigma_hz=sigma)
    out_dir = _out_dir(args)
    _write_json(out_dir / "saturation_fit.json", fit.to_dict())
    curve_path = out_dir / "saturation_curve.csv"
    c_max, p0 = fit.values
    grid = np.linspace(0.0, max(power) * 1.2, 200)
    with curve_path.open("w") as fh:
        fh.write("power_uw,rate_hz\n")
        for x, y in zip(grid, analysis.saturation_model(grid, c_max, p0)):
            fh.write(f"{x:.6f},{y:.10e}\n")
    print(
        f"c_max_hz={fit.value('c_max_hz'):.4f}+-{fit.sigma('c_max_hz'):.4f} "
        f"p0_uw={fit.value('p0_uw'):.4f}+-{fit.sigma('p0_uw'):.4f} "
        f"iterations={fit.iterations}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demuxsim",
        description="Active single-photon demultiplexer: predictions, simulation, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="closed-form n-fold rate predictions")
    p.add_argument("--config", required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--include-detectors", action="store_true")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="Monte Carlo time-tag simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="binary stream output path")
    p.add_argument("--pulses", type=int, default=None, help="override pulse count")
    p.add_argument("--seed", type=int, default=None, help="override RNG seed")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--csv", action="store_true", help="also write a CSV export")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="histograms, n-fold rates, ratio and efficiency fits")
    p.add_argument("--config", required=True)
    p.add_argument("--stream", action="append", required=True,
                   help="stream path (repeatable for eta-dm)")
    p.add_argument("--which", required=True, choices=list(_ANALYSES))
    p.add_argument("--pairs", default="first",
                   help='"first", "all", or "a,b;c,d" pair list')
    p.add_argument("--channels", default=None, help="comma-separated channels for nfold")
    p.add_argument("--max-delay-bins", type=int, default=12)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit-saturation", help="fit the two-fold saturation curve")
    p.add_argument("--data", required=True, help="CSV with power_uw,rate_hz[,sigma_hz]")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_fit_saturation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, DataError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CompatibilityError as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except (EstimationError, FitNonConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DemuxError as exc:  # safety net for toolkit errors without a code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
