"""YAML configuration loading and strict-schema validation."""

import copy
import math

import pytest
import yaml

from demuxsim import ConfigError, DomainError, RunConfig, cli, load_config

BASE = yaml.safe_load(
    """
config_version: 1
emitter:
  pump_rate_mhz: 80.0
  saturation_power_uw: 348.0
  max_brightness: 0.030062
  g2_zero: 0.029
losses:
  mode_overlap: 0.85
  fresnel_in: 0.14
  fresnel_out: 0.14
  propagation_db_per_cm: 0.65
  device_length_cm: 5.0
network:
  topology: balanced
  outputs: 4
couplers:
  sw1: {on: 0.87, off: 0.06}
  sw2: {on: 0.94, off: 0.13}
  sw3: {on: 0.90, off: 0.13}
schedule:
  kind: cyclic
  targets: [1, 2, 3, 4]
detectors:
  efficiency: 0.30
simulation:
  pump_power_uw: 660.0
  pulses: 1000
  seed: 7041
prediction:
  n_max: 6
"""
)


def variant(**overrides) -> dict:
    doc = copy.deepcopy(BASE)
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


def test_shipped_device_config():
    rc = load_config("configs/device.yaml")
    assert rc.emitter.pump_rate_hz == 80e6
    assert rc.eta_det == 0.30
    assert rc.schedule.period == 4
    assert rc.schedule.targets == (1, 2, 3, 4)
    assert math.isclose(rc.sim_config(pulses=1).transmission(), 0.2974512704587243)
    # prediction eta_dm defaults to the configured table's switching efficiency
    assert math.isclose(rc.prediction_config().eta_dm, 0.809625, abs_tol=1e-12)
    assert rc.prediction_n_max() == 6


def test_shipped_projection_configs():
    qd = load_config("configs/predict_resonant_qd.yaml")
    assert qd.network.n_outputs == 8
    cfg = qd.prediction_config()
    assert cfg.eta_dm == 0.78
    assert not cfg.include_detectors
    assert math.isclose(cfg.transmission, 0.40562466, rel_tol=1e-9)
    assert math.isclose(cfg.source.saturated_brightness, 0.15 * 0.65, rel_tol=1e-12)
    fiber = load_config("configs/predict_fiber_qd.yaml")
    assert math.isclose(fiber.prediction_config().source.saturated_brightness, 0.14)


def test_yaml_boolean_coupler_states_are_normalized():
    # bare on/off keys arrive as YAML booleans and must still work
    rc = RunConfig(variant())
    assert rc.couplers["sw1"] == {"on": 0.87, "off": 0.06}


@pytest.mark.parametrize("version", [True, 1.0])
def test_config_version_must_be_an_integer(version):
    # both compare equal to 1, so a != test alone takes them for version 1
    with pytest.raises(ConfigError, match="config_version"):
        RunConfig(variant(config_version=version))


def test_unknown_and_missing_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig(variant(typo="x"))
    with pytest.raises(ConfigError, match="config_version"):
        RunConfig(variant(config_version=2))
    doc = variant()
    del doc["emitter"]["pump_rate_mhz"]
    with pytest.raises(ConfigError, match="pump_rate_mhz"):
        RunConfig(doc)
    doc = variant()
    doc["emitter"]["brightness"] = 0.1
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig(doc)
    with pytest.raises(ConfigError, match="mapping"):
        RunConfig(variant(emitter=[1, 2]))
    with pytest.raises(ConfigError, match="number"):
        RunConfig(variant(detectors={"efficiency": "high"}))


def test_losses_lumped_or_itemized_not_both():
    rc = RunConfig(variant(losses={"transmission": 0.30}))
    assert math.isclose(rc.budget.mode_overlap, 0.30)
    with pytest.raises(ConfigError, match="transmission excludes"):
        RunConfig(variant(losses={"transmission": 0.30, "mode_overlap": 0.9}))
    assert RunConfig(variant(losses=None)).budget.mode_overlap == 1.0


def test_simulation_pulse_duration_exclusivity():
    rc = RunConfig(variant())
    assert rc.sim_config().resolved_pulse_count() == 1000
    assert rc.sim_config(pulses=50).resolved_pulse_count() == 50
    assert rc.sim_config(seed=9).rng_seed == 9

    doc = variant()
    doc["simulation"]["duration_s"] = 1.0
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig(doc).sim_config()

    doc = variant()
    del doc["simulation"]["pulses"]
    doc["simulation"]["duration_s"] = 2.5e-5
    assert RunConfig(doc).sim_config().resolved_pulse_count() == 2000

    doc = variant()
    doc["simulation"]["seed"] = "lucky"
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(doc).sim_config()

    with pytest.raises(ConfigError, match="simulation section"):
        RunConfig(variant(simulation=None)).sim_config()


def test_schedule_section():
    rc = RunConfig(variant(schedule=None))
    assert rc.schedule.targets == (1, 2, 3, 4)

    rc = RunConfig(variant(schedule={"kind": "cyclic", "targets": [2, 4]}))
    assert rc.schedule.targets == (2, 4)

    custom = {
        "kind": "custom",
        "targets": [1, 2],
        "bins": [
            {"sw1": True, "sw2": True, "sw3": False},
            {"sw1": "on", "sw2": "off", "sw3": "off"},
        ],
    }
    rc = RunConfig(variant(schedule=custom))
    assert rc.schedule.bins[0] == {"sw1": "on", "sw2": "on", "sw3": "off"}
    assert rc.schedule.bins[1]["sw2"] == "off"

    with pytest.raises(ConfigError, match="bins is only valid"):
        RunConfig(variant(schedule={"kind": "cyclic", "bins": []}))
    with pytest.raises(ConfigError, match="requires targets and bins"):
        RunConfig(variant(schedule={"kind": "custom", "targets": [1]}))
    with pytest.raises(ConfigError, match="unknown schedule.kind"):
        RunConfig(variant(schedule={"kind": "random"}))


def test_network_section():
    rc = RunConfig(
        variant(
            network={"topology": "cascade", "outputs": 4},
            couplers={
                "sw1": {"on": 0.9, "off": 0.1},
                "sw2": {"on": 0.9, "off": 0.1},
                "sw3": {"on": 0.9, "off": 0.1},
            },
        )
    )
    assert rc.network.path_to(1) == (("sw1", "through"),)

    custom_net = {
        "topology": "custom",
        "root": {
            "coupler_id": "a",
            "through": 1,
            "cross": {"coupler_id": "b", "through": 2, "cross": 3},
        },
    }
    rc = RunConfig(
        variant(
            network=custom_net,
            couplers={"a": {"on": 0.9, "off": 0.1}, "b": {"on": 0.9, "off": 0.1}},
            schedule=None,
        )
    )
    assert rc.network.n_outputs == 3

    with pytest.raises(ConfigError, match="requires network.root"):
        RunConfig(variant(network={"topology": "custom"}))
    with pytest.raises(ConfigError, match="unknown network.topology"):
        RunConfig(variant(network={"topology": "ring", "outputs": 4}))


def test_couplers_must_cover_network():
    doc = variant(couplers={"sw1": {"on": 0.9, "off": 0.1}})
    with pytest.raises(ConfigError, match="lacks ratios for"):
        RunConfig(doc)
    with pytest.raises(ConfigError, match="couplers section is empty"):
        RunConfig(variant(couplers={}))
    doc = variant()
    doc["couplers"]["sw1"] = {"on": 1.2, "off": 0.1}
    with pytest.raises(ConfigError, match="lie in"):
        RunConfig(doc)


def test_physical_coupler_form():
    # quarter-wave coupler: full cross undriven, detuned to 50/50 when on
    doc = variant()
    doc["couplers"]["sw1"] = {
        "kappa_per_mm": 1.0,
        "length_mm": 3.0 * math.pi / 2.0,
        "delta_beta_per_volt_per_mm": 0.5,
        "voltages_v": {"off": 0.0, "on": 2.1518178130301418},
    }
    rc = RunConfig(doc)
    assert rc.couplers["sw1"]["off"] == pytest.approx(0.0, abs=1e-12)
    assert rc.couplers["sw1"]["on"] == pytest.approx(0.5, abs=1e-9)

    doc["couplers"]["sw1"] = {"kappa_per_mm": 1.0, "voltages_v": {"on": 0.0, "off": 0.0}}
    with pytest.raises(ConfigError, match="missing required"):
        RunConfig(doc)


def test_prediction_overrides():
    rc = RunConfig(variant(prediction={"eta_dm": 0.78, "include_detectors": True}))
    cfg = rc.prediction_config()
    assert cfg.eta_dm == 0.78 and cfg.include_detectors
    assert rc.prediction_n_max() == 10
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig(variant(prediction={"nmax": 5}))


def test_load_config_error_paths(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("emitter: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("\n")
    with pytest.raises(ConfigError, match="empty"):
        load_config(empty)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(scalar)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("emitter", "saturation_power_uw", math.nan),
        ("emitter", "pump_rate_mhz", math.inf),
        ("emitter", "max_brightness", -math.inf),
        ("simulation", "pump_power_uw", math.nan),
        ("losses", "mode_overlap", math.nan),
        ("prediction", "eta_dm", math.nan),
    ],
)
def test_non_finite_numbers_rejected(section, key, value):
    # NaN used to load and simulate zero records; an infinite pump rate
    # surfaced later as a misleading data error about unsorted records
    doc = variant()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
        RunConfig(doc)


@pytest.mark.parametrize(
    "section, key, value",
    [("network", "outputs", 4.7), ("simulation", "pulses", 100000.5), ("prediction", "n_max", 6.5)],
)
def test_non_integral_counts_rejected(section, key, value):
    # these used to be truncated silently (4.7 outputs built a 4-output tree)
    doc = variant()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
        RunConfig(doc)


def test_integral_floats_accepted_as_counts():
    doc = variant()
    doc["network"]["outputs"] = 4.0
    doc["simulation"]["pulses"] = 2000.0
    doc["prediction"]["n_max"] = 5.0
    rc = RunConfig(doc)
    assert rc.network.n_outputs == 4
    assert rc.sim_config().resolved_pulse_count() == 2000
    assert rc.prediction_n_max() == 5


def test_simulation_section_checked_at_load():
    # a broken simulation section fails when the document loads, not at simulate
    doc = variant()
    doc["simulation"]["pump_power_uw"] = "lots"
    with pytest.raises(ConfigError, match="simulation.pump_power_uw must be a number"):
        RunConfig(doc)


def test_simulation_values_checked_at_load(tmp_path):
    # a negative pump power used to load, and predict with it, and fail only at simulate
    doc = variant()
    doc["simulation"]["pump_power_uw"] = -1.0
    path = tmp_path / "negative.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(DomainError, match="pump_power_uw"):
        load_config(path)
    for command in (["predict"], ["simulate", "--out", str(tmp_path / "run.tags")]):
        assert cli.main(command + ["--config", str(path)]) == 2


@pytest.mark.parametrize("targets", [[1.7, 2.2], [1, "2"], [True, 2], "12"])
@pytest.mark.parametrize("kind", ["cyclic", "custom"])
def test_schedule_targets_must_be_outputs(kind, targets):
    # fractional targets used to be truncated to other outputs
    bins = [{"sw1": "on", "sw2": "on", "sw3": "off"}, {"sw1": "on", "sw2": "off", "sw3": "off"}]
    sched = {"kind": kind, "targets": targets} | ({"bins": bins} if kind == "custom" else {})
    with pytest.raises(ConfigError, match="schedule.targets must be a list of outputs"):
        RunConfig(variant(schedule=sched))


@pytest.mark.parametrize(
    "bin_1",
    [
        {"sw1": "on", "sw2": "off"},  # sw3 unset: used to load and fail at routing
        {"sw1": "on", "sw2": "off", "sw3": "off", "sw4": "on"},  # sw4 used to be ignored
    ],
    ids=["missing-coupler", "extra-coupler"],
)
def test_custom_schedule_bins_must_set_the_network_couplers(bin_1):
    doc = variant()
    doc["couplers"]["sw4"] = {"on": 0.9, "off": 0.1}
    bins = [{"sw1": "on", "sw2": "on", "sw3": "off"}, bin_1]
    doc["schedule"] = {"kind": "custom", "targets": [1, 2], "bins": bins}
    with pytest.raises(ConfigError, match=r"schedule.bins\[1\] must set exactly"):
        RunConfig(doc)


def test_coupler_voltages_must_be_finite():
    doc = variant()
    doc["couplers"]["sw1"] = {
        "kappa_per_mm": 1.0,
        "length_mm": 4.7,
        "delta_beta_per_volt_per_mm": 0.5,
        "voltages_v": {"off": 0.0, "on": math.nan},
    }
    with pytest.raises(ConfigError, match="couplers.sw1.voltages_v.on must be finite"):
        RunConfig(doc)


def test_prediction_values_checked_at_load(tmp_path):
    # eta_dm 1.5 used to load, and simulate and analyze with it; only predict refused it
    doc = variant(prediction={"eta_dm": 1.5})
    path = tmp_path / "eta.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(DomainError, match="eta_dm"):
        load_config(path)
    for command in (
        ["predict"],
        ["simulate", "--out", str(tmp_path / "run.tags")],
        ["analyze", "--stream", str(tmp_path / "run.tags"), "--which", "nfold"],
    ):
        assert cli.main(command + ["--config", str(path)]) == 2


@pytest.mark.parametrize("n_max", [0, -2])
def test_prediction_n_max_below_one_fails_at_load(n_max):
    # used to load, and predict then wrote its CSV header before refusing it
    with pytest.raises(ConfigError, match="prediction.n_max"):
        RunConfig(variant(prediction={"n_max": n_max}))


def test_null_prediction_section_loads_as_empty():
    doc = variant()
    doc["prediction"] = None
    rc = RunConfig(doc)
    assert rc.prediction_n_max() == 10
    assert math.isclose(rc.prediction_config().eta_dm, 0.809625, abs_tol=1e-12)
    assert not rc.prediction_config().include_detectors


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
def test_include_detectors_must_be_a_boolean(value):
    # bool("no") is True, so a quoted "no" used to switch the detectors on
    with pytest.raises(ConfigError, match="prediction.include_detectors"):
        RunConfig(variant(prediction={"include_detectors": value}))


def test_negative_seed_fails_at_load(tmp_path):
    # used to load and end simulate in a ValueError from numpy's SeedSequence
    doc = variant()
    doc["simulation"]["seed"] = -1
    path = tmp_path / "seed.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="rng_seed"):
        load_config(path)
    for command in (["predict"], ["simulate", "--out", str(tmp_path / "run.tags")]):
        assert cli.main(command + ["--config", str(path)]) == 2
