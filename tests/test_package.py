"""The package's public surface and its declared requirements."""

import importlib
from pathlib import Path

import numpy as np
import pytest
import yaml

import demuxsim

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
