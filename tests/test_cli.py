"""End-to-end command-line workflows and exit codes."""

import dataclasses
import importlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from demuxsim import cli, load_config, predict_rates, read_stream, tags
from demuxsim.analysis import NFoldCounts, saturation_model

ROOT = Path(__file__).resolve().parents[1]

BRIGHT_YAML = """\
config_version: 1
emitter:
  pump_rate_mhz: 80.0
  saturation_power_uw: 1.0
  max_brightness: 0.3
network:
  topology: balanced
  outputs: 4
couplers:
  sw1: {on: 0.87, off: 0.06}
  sw2: {on: 0.94, off: 0.13}
  sw3: {on: 0.90, off: 0.13}
simulation:
  pump_power_uw: 1000000.0
  pulses: 150000
  seed: 4242
"""


@pytest.fixture
def bright_config(tmp_path):
    path = tmp_path / "bright.yaml"
    path.write_text(BRIGHT_YAML)
    return path


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_stdout(capsys):
    assert run(["predict", "--config", "configs/device.yaml"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,scheme,rate_hz"
    rows = [line.split(",") for line in out[1:] if not line.startswith("#")]
    assert len(rows) == 12  # n_max 6, two schemes each
    rc = load_config("configs/device.yaml")
    expected = predict_rates(rc.prediction_config(), range(1, 7))
    for row, pred in zip(rows, expected):
        assert int(row[0]) == pred.n and row[1] == pred.scheme
        assert float(row[2]) == pytest.approx(pred.rate_hz, rel=1e-9)
    assert out[-1].startswith("# eta_dm=0.809625")


def device_yaml(tmp_path, old, new):
    """A copy of configs/device.yaml with one piece of its text replaced."""
    text = (ROOT / "configs" / "device.yaml").read_text()
    assert old in text
    path = tmp_path / "device.yaml"
    path.write_text(text.replace(old, new))
    return path


def test_predict_include_detectors(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    path = device_yaml(tmp_path, "  n_max: 6\n", "  n_max: 6\n  include_detectors: true\n")
    code = run(["predict", "--config", path, "--out", out])
    assert code == 0
    rc = load_config("configs/device.yaml")
    config = dataclasses.replace(rc.prediction_config(), include_detectors=True)
    expected = [f"{p.n},{p.scheme},{p.rate_hz:.10e}" for p in predict_rates(config, range(1, 7))]
    assert out.read_text().splitlines() == ["n,scheme,rate_hz"] + expected
    assert "include_detectors=True" in capsys.readouterr().out
    assert run(["predict", "--config", "configs/device.yaml", "--out", out]) == 0
    assert out.read_text().splitlines()[1:] != expected  # eta_det 0.30 is applied only on request


def test_predict_to_file(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code = run(
        ["predict", "--config", "configs/predict_resonant_qd.yaml", "--out", out]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,scheme,rate_hz"
    assert len(lines) == 21  # n_max 10
    summary = capsys.readouterr().out
    assert "crossover_n=5" in summary


def test_predict_refuses_n_max_below_one_before_writing(tmp_path, capsys):
    # the CSV header used to be written before crossover_n refused n_max 0
    config = device_yaml(tmp_path, "  n_max: 6\n", "  n_max: 0\n")
    assert run(["predict", "--config", config]) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "rates.csv"
    assert run(["predict", "--config", config, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flag", [["--n-max", "6"], ["--include-detectors"]], ids=["n-max", "include-detectors"]
)
def test_predict_options_live_in_the_config(flag):
    # prediction.n_max and prediction.include_detectors are the only way to set them
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["predict", "--config", "configs/device.yaml", *flag])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_round_trip(tmp_path, capsys, bright_config):
    out = tmp_path / "run.tags"
    assert run(["simulate", "--config", bright_config, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "pulses=150000" in stdout
    assert "channel_1_singles_hz=" in stdout
    stream = read_stream(out)
    assert stream.meta.pulse_count == 150000
    # lossless run detects about brightness * pulses photons
    assert abs(len(stream) - 45000) < 4 * np.sqrt(150000 * 0.3 * 0.7)


def test_simulate_zero_pulses_prints_no_rates(tmp_path, capsys, bright_config):
    # every channel's rate used to print as nan
    out = tmp_path / "empty.tags"
    assert run(["simulate", "--config", bright_config, "--out", out, "--pulses", 0]) == 0
    assert capsys.readouterr().out == "pulses=0 records=0\n"


def test_simulate_deterministic_and_shardable(tmp_path, bright_config):
    paths = [tmp_path / name for name in ("a.tags", "b.tags", "c.tags")]
    assert run(["simulate", "--config", bright_config, "--out", paths[0]]) == 0
    assert run(["simulate", "--config", bright_config, "--out", paths[1]]) == 0
    assert run(
        ["simulate", "--config", bright_config, "--out", paths[2], "--shards", "4"]
    ) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    metas = [json.loads((p.parent / (p.name + ".meta.json")).read_text()) for p in paths]
    assert metas[0] == metas[1] == metas[2]


@pytest.mark.parametrize("shards", [0, -4])
def test_exit_code_shard_count_below_one(tmp_path, bright_config, shards):
    # used to run single-shot and exit 0
    out = tmp_path / "run.tags"
    assert run(["simulate", "--config", bright_config, "--out", out, "--shards", shards]) == 2
    assert not out.exists()


def test_exit_code_negative_seed(tmp_path, bright_config):
    # used to end in a ValueError traceback from numpy's SeedSequence
    out = tmp_path / "run.tags"
    assert run(["simulate", "--config", bright_config, "--out", out, "--seed", -1]) == 2
    assert not out.exists()


def test_simulate_csv_and_overrides(tmp_path, bright_config):
    out = tmp_path / "run.tags"
    code = run(
        ["simulate", "--config", bright_config, "--out", out,
         "--pulses", "5000", "--seed", "1", "--csv"]
    )
    assert code == 0
    csv_lines = (tmp_path / "run.tags.csv").read_text().splitlines()
    assert csv_lines[0] == "channel,timestamp_ps"
    assert len(csv_lines) - 1 == len(read_stream(out))


def traced_peak(argv) -> int:
    """Peak bytes that tracemalloc saw allocated during one CLI call, which must succeed."""
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """A lossless 4-output run of about 3M records, its config and simulate's peak."""
    folder = tmp_path_factory.mktemp("big")
    config = folder / "big.yaml"
    config.write_text(BRIGHT_YAML.replace("max_brightness: 0.3", "max_brightness: 0.9"))
    out = folder / "run.tags"
    # each worker thread holds one block's draws, about 1.5 MB here, so the
    # bound below holds for a fixed worker count, not for every CPU count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("demuxsim.simulate"), "_WORKERS", 2)
        peak = traced_peak(["simulate", "--config", config, "--out", out, "--pulses", 3_400_000])
    return config, out, peak


def test_simulate_holds_the_stream_once(big_run):
    # the blocks used to be concatenated, and the singles cast every channel to intp
    config, out, peak = big_run
    assert len(read_stream(out)) > 2_000_000
    assert peak < 1.3 * out.stat().st_size


@pytest.mark.parametrize(
    "which", [["nfold"], ["ratios", "--pairs", "all"]], ids=["nfold", "ratios"]
)
def test_analysis_reads_the_stream_file_in_chunks(tmp_path, big_run, which):
    # read_stream used to load both whole columns
    config, out, _ = big_run
    peak = traced_peak(
        ["analyze", "--config", config, "--stream", out, "--which", *which,
         "--out-dir", tmp_path]
    )
    assert peak < out.stat().st_size / 2


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@pytest.fixture
def simulated_stream(tmp_path, bright_config):
    out = tmp_path / "run.tags"
    assert run(["simulate", "--config", bright_config, "--out", out]) == 0
    return out


def test_analyze_histograms(tmp_path, simulated_stream, bright_config):
    out_dir = tmp_path / "hists"
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "histograms", "--out-dir", out_dir]
    )
    assert code == 0
    files = sorted(p.name for p in out_dir.glob("hist_*.csv"))
    assert files == ["hist_1_2.csv", "hist_1_3.csv", "hist_1_4.csv"]
    lines = (out_dir / "hist_1_2.csv").read_text().splitlines()
    assert lines[0] == "delay_bins,delay_s,counts"
    assert len(lines) == 1 + 25  # +-12 bins


def test_analyze_nfold(tmp_path, simulated_stream, bright_config):
    out_dir = tmp_path / "nfold"
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--channels", "1,2", "--out-dir", out_dir]
    )
    assert code == 0
    doc = json.loads((out_dir / "nfold_1_2.json").read_text())
    assert doc["n"] == 2 and doc["channels"] == [1, 2]
    assert doc["count"] > 0
    assert doc["rate_hz"] == pytest.approx(doc["count"] / doc["acquisition_s"])


def test_nfold_json_is_the_counts_and_their_rate(tmp_path, simulated_stream, bright_config):
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path]
    )
    assert code == 0
    doc = json.loads((tmp_path / "nfold_1_2_3_4.json").read_text())
    names = {field.name for field in dataclasses.fields(NFoldCounts)}
    assert set(doc) == names | {"rate_hz", "sigma_hz"}


def test_analyze_nfold_counts_each_target_of_a_repeating_schedule_once(tmp_path, capsys):
    # schedule (1, 2, 1, 3) used to give "need >= 2 distinct channels, got (1, 2, 1, 3)"
    config = tmp_path / "repeat.yaml"
    config.write_text(BRIGHT_YAML + "schedule:\n  targets: [1, 2, 1, 3]\n")
    stream = tmp_path / "run.tags"
    assert run(["simulate", "--config", config, "--out", stream, "--pulses", 20_000]) == 0
    analyze = ["analyze", "--config", config, "--stream", stream, "--which"]
    assert run([*analyze, "nfold", "--out-dir", tmp_path / "default"]) == 0
    assert run([*analyze, "nfold", "--channels", "1,2,3", "--out-dir", tmp_path / "given"]) == 0
    doc = (tmp_path / "default" / "nfold_1_2_3.json").read_text()
    assert doc == (tmp_path / "given" / "nfold_1_2_3.json").read_text()
    assert json.loads(doc)["count"] > 0
    # the eta-dm model takes the schedule's period for n, so it still refuses it
    capsys.readouterr()
    assert run([*analyze, "eta-dm", "--out-dir", tmp_path]) == 2
    assert "need >= 2 distinct channels, got (1, 2, 1, 3)" in capsys.readouterr().err


def test_analyze_ratios(tmp_path, simulated_stream, bright_config):
    out_dir = tmp_path / "ratios"
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "ratios", "--pairs", "all", "--out-dir", out_dir]
    )
    assert code == 0
    doc = json.loads((out_dir / "splitting_ratios.json").read_text())
    assert doc["eta_dm"]["value"] == pytest.approx(0.809625, abs=0.03)
    assert doc["ratios"]["sw1:on"]["value"] == pytest.approx(0.87, abs=0.03)


def test_analyze_eta_dm_combines_streams(tmp_path, bright_config):
    # one pair-schedule run and one triple-schedule run pin the n-dependence
    base = load_config(bright_config).doc
    streams = []
    for name, targets in (("p2", [1, 2]), ("p3", [1, 2, 3])):
        doc = dict(base)
        doc["schedule"] = {"kind": "cyclic", "targets": targets}
        cfg_path = tmp_path / f"{name}.yaml"
        import yaml

        cfg_path.write_text(yaml.safe_dump(doc))
        out = tmp_path / f"{name}.tags"
        assert run(["simulate", "--config", cfg_path, "--out", out]) == 0
        streams.append(out)
    out_dir = tmp_path / "eta"
    code = run(
        ["analyze", "--config", bright_config, "--stream", streams[0],
         "--stream", streams[1], "--which", "eta-dm", "--out-dir", out_dir]
    )
    assert code == 0
    doc = json.loads((out_dir / "eta_dm_fit.json").read_text())
    eta = doc["fit"]["parameters"]["eta_dm"]
    assert 0.5 < eta["value"] < 1.0
    assert {p["n"] for p in doc["points"]} == {2, 3}


# ---------------------------------------------------------------------------
# fit-saturation
# ---------------------------------------------------------------------------

def test_fit_saturation_cli(tmp_path, capsys):
    data = tmp_path / "sat.csv"
    powers = np.linspace(60.0, 1500.0, 12)
    rates = saturation_model(powers, 70.9, 348.0)
    lines = ["power_uw,rate_hz"] + [f"{p:.3f},{r:.8f}" for p, r in zip(powers, rates)]
    data.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "fit"
    assert run(["fit-saturation", "--data", data, "--out-dir", out_dir]) == 0
    doc = json.loads((out_dir / "saturation_fit.json").read_text())
    assert doc["parameters"]["c_max_hz"]["value"] == pytest.approx(70.9, rel=1e-5)
    assert doc["parameters"]["p0_uw"]["value"] == pytest.approx(348.0, rel=1e-5)
    curve = (out_dir / "saturation_curve.csv").read_text().splitlines()
    assert curve[0] == "power_uw,rate_hz" and len(curve) == 201
    assert "c_max_hz=70.9" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_missing_config(tmp_path):
    assert run(["predict", "--config", tmp_path / "nope.yaml"]) == 3


def test_exit_code_invalid_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("config_version: 1\nemitter: {}\n")
    assert run(["predict", "--config", bad]) == 2


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_exit_code_config_version_not_an_integer(tmp_path, version):
    bad = tmp_path / "bad.yaml"
    bad.write_text(BRIGHT_YAML.replace("config_version: 1\n", f"config_version: {version}\n"))
    assert run(["predict", "--config", bad]) == 2


def test_exit_code_integral_float_count(tmp_path):
    # YAML reads 1.0e+7 as a float; it used to load as 10000000 pulses
    bad = tmp_path / "bad.yaml"
    bad.write_text(BRIGHT_YAML.replace("pulses: 150000\n", "pulses: 1.0e+7\n"))
    assert run(["simulate", "--config", bad, "--out", tmp_path / "run.tags"]) == 2
    assert not (tmp_path / "run.tags").exists()


@pytest.mark.parametrize(
    "old, key",
    [("saturation_power_uw: 1.0", "emitter.saturation_power_uw"), ("on: 0.87", "couplers.sw1.on")],
    ids=["emitter", "coupler-ratio"],
)
def test_exit_code_number_past_float_range(tmp_path, capsys, old, key):
    # an integer too large for a float used to end predict with an OverflowError traceback
    bad = tmp_path / "bad.yaml"
    bad.write_text(BRIGHT_YAML.replace(old, f"{old.split(':')[0]}: {10**400}"))
    assert run(["predict", "--config", bad]) == 2
    assert f"{key} is too large for a float" in capsys.readouterr().err


def test_exit_code_coupler_the_network_lacks(tmp_path, capsys):
    config = device_yaml(tmp_path, "  sw3: {on: 0.90, off: 0.13}\n",
                         "  sw3: {on: 0.90, off: 0.13}\n  sw4: {on: 0.5, off: 0.5}\n")
    assert run(["predict", "--config", config]) == 2
    assert "couplers section names ['sw4'], which the network lacks" in capsys.readouterr().err


def test_exit_code_pump_rate_past_2_thz(tmp_path, capsys):
    # 80 MHz written in Hz in the MHz field used to end simulate with an i/o error (exit 3)
    config = device_yaml(tmp_path, "pump_rate_mhz: 80.0", "pump_rate_mhz: 80000000")
    assert run(["simulate", "--config", config, "--out", tmp_path / "fast.tags"]) == 2
    analyze = ["analyze", "--config", config, "--stream", tmp_path / "fast.tags"]
    assert run([*analyze, "--which", "nfold", "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("pump_rate_hz=80000000000000.0" in line for line in err)
    assert not (tmp_path / "fast.tags").exists()


def test_exit_code_custom_network_root_not_a_node(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    network = "  topology: balanced\n  outputs: 4\n"
    bad.write_text(BRIGHT_YAML.replace(network, "  topology: custom\n  root: 3\n"))
    capsys.readouterr()
    assert run(["predict", "--config", bad]) == 2
    assert "malformed network node 3" in capsys.readouterr().err


def test_exit_code_custom_schedule(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        BRIGHT_YAML
        + "schedule:\n  kind: custom\n  targets: [1]\n"
        + "  bins:\n    - {sw1: on, sw2: on, sw3: on}\n"
    )
    assert run(["simulate", "--config", bad, "--out", tmp_path / "run.tags"]) == 2
    assert not (tmp_path / "run.tags").exists()


def test_exit_code_missing_output_dir(tmp_path, bright_config):
    out = tmp_path / "no_such_dir" / "run.tags"
    assert run(["simulate", "--config", bright_config, "--out", out]) == 3


def test_missing_output_dir_is_refused_before_simulating(tmp_path, monkeypatch, bright_config):
    # the whole run used to be simulated before the directory was looked at
    def refuse(config):
        raise AssertionError("simulated a run it cannot write")

    monkeypatch.setattr(cli, "run_simulation", refuse)
    out = tmp_path / "no_such_dir" / "run.tags"
    assert run(["simulate", "--config", bright_config, "--out", out, "--csv"]) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "bright.yaml"]


def test_exit_code_incompatible_stream(tmp_path, simulated_stream):
    other = tmp_path / "other.yaml"
    other.write_text(BRIGHT_YAML.replace("max_brightness: 0.3", "max_brightness: 0.2"))
    code = run(
        ["analyze", "--config", other, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path]
    )
    assert code == 4


def test_exit_code_corrupt_stream(tmp_path, simulated_stream, bright_config):
    simulated_stream.write_bytes(simulated_stream.read_bytes()[:-5])
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path]
    )
    assert code == 3


def test_exit_code_out_of_range_channel(tmp_path, simulated_stream, bright_config):
    raw = bytearray(simulated_stream.read_bytes())
    raw[:4] = np.array([5], dtype="<u4").tobytes()  # first record on channel 5 of 4
    simulated_stream.write_bytes(bytes(raw))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "histograms", "--out-dir", tmp_path]
    )
    assert code == 3


def read_columns(path):
    n = len(read_stream(path))
    return np.fromfile(path, "<u4", count=n), np.fromfile(path, "<u8", count=n, offset=4 * n)


@pytest.mark.parametrize("edit", ["swap-at-chunk-edge", "channel-0-last", "channel-5-last"])
def test_exit_code_bad_records_in_later_file_chunks(
    tmp_path, monkeypatch, simulated_stream, bright_config, edit
):
    monkeypatch.setattr(tags, "_CHUNK_RECORDS", 1000)
    channels, stamps = read_columns(simulated_stream)
    assert len(channels) > 3000
    if edit == "swap-at-chunk-edge":  # each chunk stays sorted on its own
        channels[[999, 1000]] = channels[[1000, 999]]
        stamps[[999, 1000]] = stamps[[1000, 999]]
    else:
        channels[-1] = int(edit.split("-")[1])
    simulated_stream.write_bytes(channels.tobytes() + stamps.tobytes())
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path / "out"]
    )
    assert code == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["histograms", "nfold", "ratios"])
def test_exit_code_data_file_changed_after_reading(
    tmp_path, monkeypatch, simulated_stream, bright_config, which
):
    def read_then_grow(path):
        stream = read_stream(path)
        with open(path, "ab") as fh:
            fh.write(bytes(tags.RECORD_BYTES))
        return stream

    monkeypatch.setattr(cli, "read_stream", read_then_grow)
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", which, "--pairs", "all", "--out-dir", tmp_path]
    )
    assert code == 3


@pytest.mark.parametrize("which", ["histograms", "nfold"])
def test_exit_code_data_file_rewritten_after_reading(
    tmp_path, monkeypatch, simulated_stream, bright_config, which
):
    def read_then_reverse(path):
        stream = read_stream(path)
        mtime_ns = os.stat(path).st_mtime_ns
        channels, stamps = read_columns(path)
        with open(path, "wb") as fh:
            fh.write(channels[::-1].tobytes() + stamps[::-1].tobytes())
        os.utime(path, ns=(mtime_ns + 10**9, mtime_ns + 10**9))
        return stream

    monkeypatch.setattr(cli, "read_stream", read_then_reverse)
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", which, "--out-dir", tmp_path]
    )
    assert code == 3


def test_exit_code_malformed_sidecar(tmp_path, simulated_stream, bright_config):
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    side.write_text(side.read_text().replace('"n_records"', '"records"'))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path]
    )
    assert code == 3


def test_exit_code_unidentifiable_ratios(tmp_path, simulated_stream, bright_config):
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "ratios", "--pairs", "1,2", "--out-dir", tmp_path]
    )
    assert code == 5


@pytest.mark.parametrize("pairs, n_params", [("first", 9), ("all", 12)])
def test_exit_code_schedule_that_cannot_separate_the_ratios(tmp_path, capsys, pairs, n_params):
    # output 4 is never scheduled, so the pair scales absorb what the ratios would
    # explain, though the ratio columns alone keep full rank
    config = tmp_path / "gap.yaml"
    config.write_text(BRIGHT_YAML + "schedule:\n  kind: cyclic\n  targets: [1, 2, 1, 3]\n")
    stream = tmp_path / "run.tags"
    assert run(["simulate", "--config", config, "--out", stream]) == 0
    capsys.readouterr()
    code = run(
        ["analyze", "--config", config, "--stream", stream,
         "--which", "ratios", "--pairs", pairs, "--out-dir", tmp_path / "out"]
    )
    assert code == 5
    err = capsys.readouterr().err
    assert "parameters, so the schedule or the pairs cannot separate" in err
    assert f"for {n_params} parameters" in err
    assert not (tmp_path / "out" / "splitting_ratios.json").exists()


def test_exit_code_bad_pairs(tmp_path, simulated_stream, bright_config):
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "histograms", "--pairs", "nonsense", "--out-dir", tmp_path]
    )
    assert code == 2


@pytest.mark.parametrize("which", ["histograms", "nfold", "ratios"])
def test_single_stream_analyses_refuse_extra_streams(tmp_path, simulated_stream, bright_config, which):
    # the second stream used to be read and silently dropped, with exit 0;
    # it is refused before anything is read, so a missing path is exit 2 too
    for extra in (simulated_stream, tmp_path / "missing.tags"):
        code = run(
            ["analyze", "--config", bright_config, "--stream", simulated_stream,
             "--stream", extra, "--which", which, "--out-dir", tmp_path / "out"]
        )
        assert code == 2
    assert not (tmp_path / "out").exists()


def test_exit_code_zero_pump_rate_sidecar(tmp_path, simulated_stream, bright_config):
    # a zero pump rate used to crash nfold with a ZeroDivisionError traceback
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    doc = json.loads(side.read_text())
    doc["pump_rate_hz"] = 0
    side.write_text(json.dumps(doc))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path]
    )
    assert code == 3


@pytest.mark.parametrize("which", ["nfold", "eta-dm"])
def test_exit_code_zero_pulse_stream(tmp_path, bright_config, which):
    # an empty run is valid, but it has no rates: both analyses used to end
    # with a ZeroDivisionError traceback from NFoldCounts.rate_hz (exit 1)
    stream = tmp_path / "empty.tags"
    assert run(["simulate", "--config", bright_config, "--pulses", 0, "--out", stream]) == 0
    assert read_stream(stream).meta.pulse_count == 0
    out_dir = tmp_path / "out"
    code = run(
        ["analyze", "--config", bright_config, "--stream", stream,
         "--which", which, "--out-dir", out_dir]
    )
    assert code == 3
    assert not list(out_dir.glob("*.json"))


def test_exit_code_eta_dm_on_streams_without_records(tmp_path, capsys):
    # 20 pulses at the device's brightness give no record, and eta-dm used to
    # end in a ZeroDivisionError traceback (exit 1) weighting eta_sd by records
    config = ROOT / "configs" / "device.yaml"
    stream = tmp_path / "empty.tags"
    assert run(["simulate", "--config", config, "--pulses", 20, "--seed", 1, "--out", stream]) == 0
    assert len(read_stream(stream)) == 0
    out_dir = tmp_path / "out"
    capsys.readouterr()
    code = run(
        ["analyze", "--config", config, "--stream", stream, "--stream", stream,
         "--which", "eta-dm", "--out-dir", out_dir]
    )
    assert code == 3
    assert "no --stream holds any" in capsys.readouterr().err
    assert not list(out_dir.glob("*.json"))


def test_exit_code_thin_saturation_data(tmp_path):
    data = tmp_path / "thin.csv"
    data.write_text("power_uw,rate_hz\n100,1.0\n200,2.0\n")
    assert run(["fit-saturation", "--data", data, "--out-dir", tmp_path]) == 3
    data.write_text("power_uw,rate_hz\n100,1.0\n200,abc\n300,3.0\n")
    assert run(["fit-saturation", "--data", data, "--out-dir", tmp_path]) == 3
    data.write_text("power,rate\n100,1.0\n200,2.0\n300,3.0\n")
    assert run(["fit-saturation", "--data", data, "--out-dir", tmp_path]) == 3


@pytest.mark.parametrize(
    "header, row",
    [("power_uw,rate_hz", "60,1.0,9"), ("power_uw,rate_hz", "60"),
     ("power_uw,rate_hz,sigma_hz", "60,1.0"), ("power_uw,rate_hz,sigma_hz", "60,1.0,0.1,7")],
)
def test_exit_code_saturation_row_fields_must_match_the_header(tmp_path, header, row):
    # a row with a field the header does not name used to be fitted on the named ones, exit 0
    powers = np.linspace(60.0, 1500.0, 12)
    rates = saturation_model(powers, 70.9, 348.0)
    lines = [",".join(map(str, [p, r, 0.001][: header.count(",") + 1])) for p, r in zip(powers, rates)]
    data = tmp_path / "sat.csv"
    data.write_text("\n".join([header, *lines[:5], row, *lines[5:]]) + "\n")
    out_dir = tmp_path / "fit"
    assert run(["fit-saturation", "--data", data, "--out-dir", out_dir]) == 3
    assert not (out_dir / "saturation_fit.json").exists()
    data.write_text("\n".join([header, *lines]) + "\n")
    assert run(["fit-saturation", "--data", data, "--out-dir", out_dir]) == 0


@pytest.mark.parametrize("header", ["power_uw,rate_hz,sigma", "power_uw,rate_hz,sigma_hz,note"])
def test_exit_code_saturation_header_must_be_exact(tmp_path, header):
    # a misspelled sigma_hz column used to be dropped: an unweighted fit, exit 0
    columns = header.count(",") + 1
    powers = np.linspace(60.0, 1500.0, 12)
    rates = saturation_model(powers, 70.9, 348.0)
    lines = [",".join(map(str, [p, r, 0.001, 1.0][:columns])) for p, r in zip(powers, rates)]
    data = tmp_path / "sat.csv"
    data.write_text("\n".join([header, *lines]) + "\n")
    out_dir = tmp_path / "fit"
    assert run(["fit-saturation", "--data", data, "--out-dir", out_dir]) == 3
    assert not (out_dir / "saturation_fit.json").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_exit_code_non_finite_saturation_data(tmp_path, bad):
    data = tmp_path / "sat.csv"
    data.write_text(f"power_uw,rate_hz\n100,10.0\n200,{bad}\n300,30.0\n400,35.0\n")
    out_dir = tmp_path / "fit"
    assert run(["fit-saturation", "--data", data, "--out-dir", out_dir]) == 3
    assert not (out_dir / "saturation_fit.json").exists()


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--config", "x"])  # missing required --stream/--which


def test_exit_code_overflowing_pulse_period_sidecar(tmp_path, simulated_stream, bright_config):
    # pulse_indices' uint64 cast used to end nfold with an OverflowError traceback
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    doc = json.loads(side.read_text())
    doc["pulse_period_ps"] = 2**70
    side.write_text(json.dumps(doc))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path / "out"]
    )
    assert code == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("version", [True, 1.0, 2.0])
def test_exit_code_sidecar_format_version_not_an_integer(
    tmp_path, simulated_stream, bright_config, version
):
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    side.write_text(json.dumps({**json.loads(side.read_text()), "format_version": version}))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path / "out"]
    )
    assert code == 3
    assert not (tmp_path / "out").exists()


def test_exit_code_version_1_sidecar(tmp_path, simulated_stream, bright_config):
    # version 1 also carried schedule_period; there is one reader, for version 2
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    doc = json.loads(side.read_text())
    doc.update(format_version=1, schedule_period=len(doc["schedule_targets"]))
    side.write_text(json.dumps(doc))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "ratios", "--out-dir", tmp_path / "out"]
    )
    assert code == 3
    assert not (tmp_path / "out").exists()


def test_exit_code_sidecar_unknown_keys(tmp_path, simulated_stream, bright_config):
    # a version-2 sidecar stating a schedule period used to be analysed
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    doc = json.loads(side.read_text())
    doc.update(schedule_period=3, seed=5)
    side.write_text(json.dumps(doc))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "ratios", "--out-dir", tmp_path / "out"]
    )
    assert code == 3
    assert not (tmp_path / "out").exists()


def test_exit_code_ratio_pairs_repeated(tmp_path, simulated_stream, bright_config):
    # (2,1) repeats (1,2)'s coincidences: the fit counted them twice and shrank every sigma
    out_dir = tmp_path / "out"
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "ratios", "--pairs", "1,2;1,3;1,4;2,1", "--out-dir", out_dir]
    )
    assert code == 2
    assert not (out_dir / "splitting_ratios.json").exists()


@pytest.mark.parametrize("n_channels", [5, 16])
@pytest.mark.parametrize("which", ["histograms", "nfold", "ratios"])
def test_exit_code_sidecar_channel_count_differs_from_network(
    tmp_path, simulated_stream, bright_config, which, n_channels
):
    # the digest matches, so the stream used to be analysed as a 5- or
    # 16-channel run of a 4-output tree, with exit 0
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    doc = json.loads(side.read_text())
    doc["n_channels"] = n_channels
    side.write_text(json.dumps(doc))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", which, "--out-dir", tmp_path / "out"]
    )
    assert code == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit",
    [
        {"pump_rate_hz": 1.6e8, "pulse_period_ps": 6250},
        {"pulse_period_ps": 6250},
        {"pump_rate_hz": 1.6e8},
    ],
    ids=["rate-and-period", "period", "rate"],
)
@pytest.mark.parametrize("which", ["nfold", "ratios"])
def test_exit_code_sidecar_pump_timing_differs_from_config(
    tmp_path, simulated_stream, bright_config, capsys, which, edit
):
    # the digest matches, so a sidecar edited to twice the pump rate used to be
    # analysed on its pulse grid, with exit 0: nfold found rate_hz=0
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    side.write_text(json.dumps({**json.loads(side.read_text()), **edit}))
    capsys.readouterr()
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", which, "--out-dir", tmp_path / "out"]
    )
    assert code == 3
    assert f"stream sidecar {next(iter(edit))}=" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["histograms", "nfold", "ratios"])
def test_exit_code_off_grid_timestamp(tmp_path, simulated_stream, bright_config, which):
    # the last record 1 ps past its pulse used to be counted on that pulse
    raw = bytearray(simulated_stream.read_bytes())
    last = np.frombuffer(raw[-8:], dtype="<u8") + np.uint64(1)
    raw[-8:] = last.tobytes()
    simulated_stream.write_bytes(bytes(raw))
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", which, "--out-dir", tmp_path / "out"]
    )
    assert code == 3


@pytest.mark.parametrize("which", ["histograms", "nfold", "ratios"])
def test_exit_code_records_past_the_sidecar_pulse_count(
    tmp_path, simulated_stream, bright_config, capsys, which
):
    # with pulse_count cut to a tenth, nfold used to report ten times the rate, with exit 0
    side = simulated_stream.parent / (simulated_stream.name + ".meta.json")
    doc = json.loads(side.read_text())
    doc["pulse_count"] //= 10
    side.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    capsys.readouterr()
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", which, "--out-dir", out_dir]
    )
    assert code == 3
    assert f"pulse_count {doc['pulse_count']}" in capsys.readouterr().err
    assert not list(out_dir.iterdir())


def test_zero_coincidence_nfold_reports_one_counts_sigma(tmp_path):
    # sigma_hz used to be 0 here, as if a rate of 0 were known exactly
    config = ROOT / "configs" / "device.yaml"
    stream = tmp_path / "short.tags"
    code = run(["simulate", "--config", config, "--pulses", 20_000, "--seed", 1, "--out", stream])
    assert code == 0
    code = run(
        ["analyze", "--config", config, "--stream", stream, "--which", "nfold",
         "--out-dir", tmp_path]
    )
    assert code == 0
    doc = json.loads((tmp_path / "nfold_1_2_3_4.json").read_text())
    assert doc["count"] == 0
    assert doc["sigma_hz"] == 1 / doc["acquisition_s"]


def test_exit_code_analyze_without_a_simulation_section(tmp_path, simulated_stream, capsys):
    # the stream check needs the section: the device digest covers simulation.pump_power_uw
    config = tmp_path / "no_simulation.yaml"
    config.write_text(BRIGHT_YAML.split("simulation:")[0])
    capsys.readouterr()
    code = run(
        ["analyze", "--config", config, "--stream", simulated_stream,
         "--which", "nfold", "--out-dir", tmp_path / "out"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "simulation section is required to simulate" in err
    assert "simulation.pump_power_uw" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("channels", ["a,b", ","])
def test_exit_code_bad_nfold_channels(tmp_path, simulated_stream, bright_config, channels):
    code = run(
        ["analyze", "--config", bright_config, "--stream", simulated_stream,
         "--which", "nfold", "--channels", channels, "--out-dir", tmp_path / "out"]
    )
    assert code == 2
    assert not list((tmp_path / "out").glob("*.json"))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("  outputs: 4\n", "", "missing network.outputs"),
        ("simulation:", "detectors:\n  efficiency: 1.5\nsimulation:", "detectors.efficiency"),
    ],
    ids=["balanced-without-outputs", "detector-efficiency-1.5"],
)
def test_exit_code_config_refusals(tmp_path, capsys, old, new, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(BRIGHT_YAML.replace(old, new))
    capsys.readouterr()
    assert run(["predict", "--config", bad]) == 2
    assert message in capsys.readouterr().err
