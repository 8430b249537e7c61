"""demuxsim benchmark: three CLI workloads, timed end to end and traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload bright_4 --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1

The load is a closed loop with one client.  Each repetition is a fresh worker
process (bench/worker.py) that imports demuxsim, loads the workload config and
runs the workload's ``simulate`` and ``analyze`` calls back to back through
``demuxsim.cli.main``.  Workers run one at a time, with BLAS/OpenMP threads
capped at the CPUs this process may use.  Repetitions start until the next
would overrun ``--seconds`` (at least MIN_ROUNDS), and every metric is the
median over them.

BENCHMARK.json gates bright_4 and ratio_8 only.  device_sparse stays runnable
here (and in ``--workload all``) but is not gated: on a shared 2-CPU host the
speed of compute-bound code drifts by 10-20% from one minute to the next, so
ratio_8 needs 60 s runs, and the time allowed for all runs fits 60 s runs of
two workloads but not of three.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate run
that alternates untraced and traced repetitions and reports the per-layer
metrics of spans.py, the median over traced repetitions, plus
``trace.overhead_s``: the median over rounds of traced minus untraced
``pipeline_s``.

Every repetition's outputs are checked (checks.py).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Without the demuxsim sources next to
the benchmark it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_ROUNDS = {False: 3, True: 2}  # by trace mode; a traced round is two workers
WORKER_TIMEOUT_S = 150

RATIOS = ["--which", "ratios", "--pairs", "all"]
NFOLD = ["--which", "nfold"]
# Every workload also counts n-folds, so each layer's spans occur on each.
WORKLOADS = {
    "device_sparse": {
        "why": "The paper's measured device, 0.5 s of light: about 0.23% of pulses "
               "give a record, so random draws are nearly all of the cost.",
        "config": "configs/device.yaml",
        "pulses": 40_000_000,
        "analyses": [RATIOS, NFOLD],
        "check_eta": True,
    },
    "bright_4": {
        "why": "Lossless 4-output tree at brightness 0.5: about 5M records and a "
               "60 MB stream, so tag I/O, pair histograms and n-fold counting dominate.",
        "config": "bench/configs/bright_4.yaml",
        "pulses": 10_000_000,
        "analyses": [RATIOS, NFOLD],
        # the ratio estimator's linear click model is biased at this brightness,
        # by several of its own standard errors, so eta_dm is not checked here
        "check_eta": False,
    },
    "ratio_8": {
        "why": "Lossless 8-output tree with 7 distinct couplers at brightness 0.04: "
               "28 pair histograms and a 42-parameter fit dominate the analysis.",
        "config": "bench/configs/ratio_8.yaml",
        "pulses": 4_000_000,
        "analyses": [RATIOS + ["--max-delay-bins", "16"], NFOLD],
        "check_eta": True,
    },
}

# name -> unit; failed_ops_ratio is printed too but is the JSON's failed/attempted
END_TO_END_UNITS = {
    "pipeline_s": "s",
    "sim_pulses_per_s": "pulses/s",
    "analyze_records_per_s": "records/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class HarnessError(RuntimeError):
    """A worker ended without a result, so the run measured nothing."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: str(NPROC) for var in THREAD_VARS})
    return env


def _run_worker(workload: dict, seed: int, work: Path, trace: bool, env: dict) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    spec = {
        "config": workload["config"],
        "pulses": workload["pulses"],
        "analyses": workload["analyses"],
        "check_eta": workload["check_eta"],
        "seed": seed,
        "trace": trace,
        "work": str(work),
        "result": str(result),
    }
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict[bool, list[dict]]:
    """Repetitions of one workload, keyed by whether they were traced."""
    workload = WORKLOADS[name]
    env = _worker_env()
    work = WORK / name
    reps = {False: [], True: []}
    rounds = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for traced in (False, True) if trace else (False,):
            reps[traced].append(_run_worker(workload, seed, work, traced, env))
        rounds.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS[trace] and elapsed + statistics.median(rounds) > seconds:
            return reps


def end_to_end(reps: list[dict]) -> dict[str, float]:
    def median(values):
        return statistics.median(list(values))

    return {
        "pipeline_s": median(r["pipeline_s"] for r in reps),
        "sim_pulses_per_s": median(r["pulses"] / r["simulate_s"] for r in reps),
        "analyze_records_per_s": median(r["records"] / r["analyze_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = [spans.layer_metrics(r["spans"]) for r in traced]
    out = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    # pair each traced repetition with the untraced one just before it, so
    # slow drifts in machine speed cancel
    out["trace.overhead_s"] = statistics.median(
        t["pipeline_s"] - u["pipeline_s"] for u, t in zip(untraced, traced)
    )
    return out


def environment() -> str:
    caps = " ".join(f"{var}={NPROC}" for var in THREAD_VARS)
    return (
        f"nproc={NPROC} python={platform.python_version()} numpy={version('numpy')} "
        f"scipy={version('scipy')} thread caps: {caps}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its report and return its result object."""
    reps = measure(name, seed, seconds, trace)
    attempted, failed = checks.tally(reps[False] + reps[True])
    if trace:
        values, units = per_layer(reps[False], reps[True]), spans.PER_LAYER_UNITS
    else:
        values, units = end_to_end(reps[False]), END_TO_END_UNITS
    print(f"# workload {name} seed={seed} trace={int(trace)}: {WORKLOADS[name]['why']}")
    print(f"# repetitions: {len(reps[False])} untraced, {len(reps[True])} traced")
    for key, value in values.items():
        print(f"{name:14s} {key:44s} {value:.6g} {units[key]}")
    print(f"{name:14s} {'failed_ops_ratio':44s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in ("src/demuxsim/cli.py", "configs/device.yaml") if not (ROOT / p).is_file()]
    if missing:
        print(f"demuxsim sources not found next to the benchmark: {missing}", file=sys.stderr)
        return 2

    # users run from compiled bytecode; do not time its first compilation
    compileall.compile_dir(ROOT / "src", quiet=1)
    print(f"# {environment()}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except HarnessError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
