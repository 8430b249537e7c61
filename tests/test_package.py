"""The package's public surface and its declared requirements."""

import importlib
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import demuxsim
from demuxsim import cli

PUBLIC = {
    "CoincidenceHistogram", "CompatibilityError", "ConfigError", "CouplerNode",
    "CouplerParams", "DataError", "DemuxError", "DemuxNetwork", "DomainError",
    "EmitterParams", "EstimationError", "FitNonConvergenceError", "FitResult",
    "LossBudget", "NFoldCounts", "PredictionConfig", "RatePrediction", "RunConfig",
    "SimConfig", "StreamMeta", "TimeTagStream",
    "balanced_network", "cascade_network", "channel_delay_bins",
    "compose_transmission", "count_nfold", "cross_fraction", "crossover_n",
    "damped_least_squares", "estimate_splitting_ratios",
    "eta_dm_from_ratios", "eta_sd_from_singles", "finite_difference_jacobian",
    "fit_saturation", "fit_switching_efficiency", "g2_ratio", "histogram",
    "load_config", "n_fold_rate", "pair_histograms", "physical_nfold_scaling",
    "predict_rates", "read_stream", "routing_by_bin", "s_active",
    "s_active_enumerated", "s_probabilistic", "saturation_brightness",
    "saturation_model", "schedule_for_cycle", "second_photon_probability",
    "sidecar_path", "simulate", "switching_efficiency",
    "write_csv", "write_stream",
}


def test_public_surface_is_pinned():
    # a change to the surface must show up as an edit of PUBLIC
    assert len(PUBLIC) == 56
    assert len(demuxsim.__all__) == len(set(demuxsim.__all__))
    assert set(demuxsim.__all__) == PUBLIC
    for name in demuxsim.__all__:
        assert getattr(demuxsim, name).__module__.startswith("demuxsim.")


@pytest.mark.parametrize(
    "layer", ["analysis", "config", "couplers", "errors", "fitting", "rates", "simulate", "tags"]
)
def test_each_module_defines_what_it_exports(layer):
    # demuxsim star-imports every module, so a name two modules exported would
    # silently resolve to the later one; each must be its own module's object
    module = importlib.import_module(f"demuxsim.{layer}")
    for name in module.__all__:
        obj = getattr(module, name)
        assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"
        assert getattr(demuxsim, name) is obj, f"demuxsim.{name}"
        assert name in demuxsim.__all__


def test_readme_library_example_runs(monkeypatch):
    # the block loads configs/device.yaml by a path relative to the repo root
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(root)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["eta"] == pytest.approx(0.809625)


def test_readme_config_block_loads():
    # the block documents every section, so a key the schema drops must leave it too
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Configuration\n", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("\n```", 1)[0]
    rc = demuxsim.RunConfig(yaml.safe_load(block), source="README.md")
    assert rc.sim_config().resolved_pulse_count() == 10_000_000
    assert rc.schedule == (1, 2, 3, 4)


def test_readme_commands_parse():
    # a flag the parser drops must leave the README's command block too
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert {argv[1] for argv in commands} == {"predict", "simulate", "analyze", "fit-saturation"}
    for argv in commands:
        assert argv[0] == "demuxsim"
        cli.build_parser().parse_args(argv[1:])


def test_version_matches_pyproject():
    # the sidecar will record the package version, so its two copies must agree
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert demuxsim.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]


def test_numpy_floor_has_bitwise_count():
    # analysis counts bits with np.bitwise_count, new in numpy 2.0; under the
    # old floor of 1.24, count_nfold ended in an AttributeError traceback
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    requires = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert "numpy>=2.0" in requires
    assert hasattr(np, "bitwise_count")


_PIPELINE = """
import sys
from pathlib import Path

root, work, package_dir = map(Path, sys.argv[1:])
sys.path.insert(0, str(package_dir))  # the demuxsim under test
import demuxsim
from demuxsim import cli

config, stream = str(root / "configs" / "device.yaml"), str(work / "run.tags")
powers = [60.0 * k for k in range(1, 13)]
rates = demuxsim.saturation_model(powers, 70.9, 348.0)
rows = "".join(f"{p},{r}\\n" for p, r in zip(powers, rates))
(work / "sat.csv").write_text("power_uw,rate_hz\\n" + rows)
analyze = ["analyze", "--config", config, "--stream", stream, "--out-dir", str(work), "--which"]
calls = [
    ["simulate", "--config", config, "--out", stream, "--pulses", "4000000", "--seed", "3"],
    [*analyze, "ratios", "--pairs", "all"],
    [*analyze, "nfold"],
    ["fit-saturation", "--data", str(work / "sat.csv"), "--out-dir", str(work)],
    ["predict", "--config", str(root / "configs" / "predict_fiber_qd.yaml")],
]
codes = [cli.main(argv) for argv in calls]
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"), file=sys.stderr)
"""


def test_runtime_dependencies_are_numpy_and_pyyaml():
    # scipy is a test dependency only: its import cost about 0.36 s and 50 MB
    # in every process, and every fit is numpy
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    requires = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [req.split(">=")[0] for req in requires] == ["numpy", "PyYAML"]


def test_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter runs each subcommand and then lists the scipy modules it loaded
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _PIPELINE, root, tmp_path, Path(demuxsim.__file__).parents[1]],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0] []"
