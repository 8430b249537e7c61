"""Strict YAML run-configuration schema.

Unknown keys are rejected rather than ignored, every physical quantity carries
its unit in the key name, and the schema is versioned via config_version.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any

import yaml

from .couplers import (
    CouplerNode,
    CouplerParams,
    DemuxNetwork,
    balanced_network,
    cascade_network,
    schedule_for_cycle,
    switching_efficiency,
)
from .errors import ConfigError, check_integer, check_unit_interval
from .rates import EmitterParams, LossBudget, PredictionConfig, compose_transmission
from .simulate import SimConfig

__all__ = ["load_config", "RunConfig"]

CONFIG_VERSION = 1

_EMITTER_KEYS = {
    "pump_rate_mhz": True,
    "saturation_power_uw": True,
    "max_brightness": True,
    "g2_zero": False,
    "polarized_fraction": False,
    "fiber_coupling": False,
}
_LOSSES_KEYS = {
    "mode_overlap": False,
    "fresnel_in": False,
    "fresnel_out": False,
    "propagation_db_per_cm": False,
    "device_length_cm": False,
    "transmission": False,
}
_NETWORK_KEYS = {"topology": True, "outputs": False, "root": False}
_SCHEDULE_KEYS = {"kind": False, "targets": False}
_DETECTOR_KEYS = {"efficiency": True}
_SIMULATION_KEYS = {
    "pump_power_uw": True,
    "pulses": True,
    "seed": True,
}
_PREDICTION_KEYS = {"eta_dm": False, "n_max": False, "include_detectors": False}
_COUPLER_STATE_KEYS = {"on": True, "off": True}
_COUPLER_PHYSICAL_KEYS = {
    "kappa_per_mm": True,
    "length_mm": True,
    "delta_beta_per_volt_per_mm": True,
    "voltages_v": True,
}
_TOP_KEYS = {
    "config_version": True,
    "emitter": True,
    "network": True,
    "couplers": True,
    "schedule": False,
    "losses": False,
    "detectors": False,
    "simulation": False,
    "prediction": False,
}


def _require_mapping(doc: Any, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(doc).__name__}")
    return doc


def _check_keys(doc: dict, allowed: dict, where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)!r}")
    missing = [k for k, required in allowed.items() if required and k not in doc]
    if missing:
        raise ConfigError(f"missing required key(s) in {where}: {missing!r}")


def _state_name(key: Any) -> str:
    # YAML 1.1 reads bare on/off as booleans; map them back to state names
    if key is True:
        return "on"
    if key is False:
        return "off"
    return str(key)


def _number(doc: dict, key: str, where: str) -> float:
    value = doc[key]  # every caller has checked that the key is present
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past float range
        raise ConfigError(f"{where}.{key} is too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return number


def _integer(doc: dict, key: str, where: str, minimum: int) -> int:
    if key not in doc:
        raise ConfigError(f"missing {where}.{key}")
    return check_integer(f"{where}.{key}", doc[key], minimum, ConfigError)


class RunConfig:
    """Validated configuration document, resolvable into toolkit objects."""

    def __init__(self, doc: dict, source: str = "<config>"):
        doc = _require_mapping(doc, source)
        _check_keys(doc, _TOP_KEYS, source)
        version = doc.get("config_version")
        if check_integer("config_version", version, 1, ConfigError) != CONFIG_VERSION:
            raise ConfigError(f"config_version must be {CONFIG_VERSION}, got {version!r}")
        self.doc = doc
        self.source = source
        self.emitter = self._build_emitter()
        self.network = self._build_network()
        self.couplers = self._build_couplers()
        self.schedule = self._build_schedule()
        self.budget = self._build_budget()
        self.eta_det = self._build_detector()
        self._validate_couplers_match_network()
        # simulation and prediction are optional, but a document with a typo
        # or an out-of-range value must not load cleanly, so both are built here
        self._simulation = self._build_simulation()
        self._prediction, self._n_max = self._build_prediction()

    # -- sections -----------------------------------------------------------

    def _build_emitter(self) -> EmitterParams:
        sec = _require_mapping(self.doc["emitter"], "emitter")
        _check_keys(sec, _EMITTER_KEYS, "emitter")
        # absent optional keys take EmitterParams' defaults
        values = {key: _number(sec, key, "emitter") for key in sec}
        values["pump_rate_hz"] = values.pop("pump_rate_mhz") * 1e6
        return EmitterParams(**values)

    def _build_network(self) -> DemuxNetwork:
        sec = _require_mapping(self.doc["network"], "network")
        _check_keys(sec, _NETWORK_KEYS, "network")
        topology = sec["topology"]
        if topology == "balanced":
            return balanced_network(_integer(sec, "outputs", "network", 2))
        if topology == "cascade":
            return cascade_network(_integer(sec, "outputs", "network", 2))
        if topology == "custom":
            if "root" not in sec:
                raise ConfigError("network.topology=custom requires network.root")
            return DemuxNetwork(self._parse_node(sec["root"], "network.root"))
        raise ConfigError(f"unknown network.topology {topology!r}")

    def _parse_node(self, doc: Any, where: str):
        if not isinstance(doc, dict):
            return doc  # a leaf, which DemuxNetwork checks is an output label
        _check_keys(doc, {"coupler_id": True, "through": True, "cross": True}, where)
        return CouplerNode(
            coupler_id=str(doc["coupler_id"]),
            through=self._parse_node(doc["through"], f"{where}.through"),
            cross=self._parse_node(doc["cross"], f"{where}.cross"),
        )

    def _build_couplers(self) -> dict[str, dict[str, float]]:
        sec = _require_mapping(self.doc["couplers"], "couplers")
        table: dict[str, dict[str, float]] = {}
        for cid, spec in sec.items():
            spec = _require_mapping(spec, f"couplers.{cid}")
            spec = {_state_name(k): v for k, v in spec.items()}
            if "voltages_v" in spec:
                _check_keys(spec, _COUPLER_PHYSICAL_KEYS, f"couplers.{cid}")
                where = f"couplers.{cid}.voltages_v"
                voltages = {
                    _state_name(k): v
                    for k, v in _require_mapping(spec["voltages_v"], where).items()
                }
                _check_keys(voltages, _COUPLER_STATE_KEYS, where)  # a schedule drives only these
                params = CouplerParams(
                    kappa_per_mm=_number(spec, "kappa_per_mm", f"couplers.{cid}"),
                    length_mm=_number(spec, "length_mm", f"couplers.{cid}"),
                    delta_beta_per_volt_per_mm=_number(
                        spec, "delta_beta_per_volt_per_mm", f"couplers.{cid}"
                    ),
                    state_voltages={k: _number(voltages, k, where) for k in voltages},
                )
                table[str(cid)] = params.ratios()
            else:
                _check_keys(spec, _COUPLER_STATE_KEYS, f"couplers.{cid}")
                ratios = {state: _number(spec, state, f"couplers.{cid}") for state in ("on", "off")}
                for state, value in ratios.items():
                    check_unit_interval(f"couplers.{cid}.{state}", value, ConfigError)
                table[str(cid)] = ratios
        if not table:
            raise ConfigError("couplers section is empty")
        return table

    def _build_schedule(self) -> tuple[int, ...]:
        sec = self.doc.get("schedule")
        sec = {} if sec is None else _require_mapping(sec, "schedule")
        kind = sec.get("kind", "cyclic")
        if kind != "cyclic":  # before the keys, so a custom table is refused for its kind
            raise ConfigError(f"unknown schedule.kind {kind!r}")
        _check_keys(sec, _SCHEDULE_KEYS, "schedule")
        targets = sec.get("targets")
        if targets is not None and not isinstance(targets, list):
            raise ConfigError(f"schedule.targets must be a list of outputs, got {targets!r}")
        try:
            return schedule_for_cycle(self.network, targets)
        except ConfigError as exc:
            raise ConfigError(f"schedule.targets must be a list of outputs: {exc}") from None

    def _build_budget(self) -> LossBudget:
        sec = self.doc.get("losses")
        sec = {} if sec is None else _require_mapping(sec, "losses")
        _check_keys(sec, _LOSSES_KEYS, "losses")
        if "transmission" in sec:
            extra = set(sec) - {"transmission"}
            if extra:
                raise ConfigError(
                    f"losses.transmission excludes itemized keys: {sorted(extra)!r}"
                )
            return LossBudget.from_transmission(_number(sec, "transmission", "losses"))
        # absent keys take LossBudget's defaults
        return LossBudget(**{key: _number(sec, key, "losses") for key in sec})

    def _build_detector(self) -> float:
        sec = self.doc.get("detectors")
        if sec is None:
            return 1.0
        sec = _require_mapping(sec, "detectors")
        _check_keys(sec, _DETECTOR_KEYS, "detectors")
        eta = _number(sec, "efficiency", "detectors")
        return check_unit_interval("detectors.efficiency", eta, ConfigError)

    def _validate_couplers_match_network(self) -> None:
        missing = [cid for cid in self.network.coupler_ids if cid not in self.couplers]
        if missing:
            raise ConfigError(f"couplers section lacks ratios for {missing!r}")
        # an extra id would enter the device digest, so two files of one device would differ
        extra = [cid for cid in self.couplers if cid not in self.network.coupler_ids]
        if extra:
            raise ConfigError(f"couplers section names {extra!r}, which the network lacks")

    def _build_simulation(self) -> SimConfig | None:
        sec = self.doc.get("simulation")
        if sec is None:
            return None
        sec = _require_mapping(sec, "simulation")
        _check_keys(sec, _SIMULATION_KEYS, "simulation")
        return SimConfig(
            emitter=self.emitter,
            network=self.network,
            schedule=self.schedule,
            couplers=self.couplers,
            budget=self.budget,
            eta_det=self.eta_det,
            pump_power_uw=_number(sec, "pump_power_uw", "simulation"),
            rng_seed=sec["seed"],
            pulse_count=_integer(sec, "pulses", "simulation", 0),
        )

    def _build_prediction(self) -> tuple[PredictionConfig, int]:
        sec = self.doc.get("prediction")
        sec = {} if sec is None else _require_mapping(sec, "prediction")
        _check_keys(sec, _PREDICTION_KEYS, "prediction")
        include = sec.get("include_detectors", False)
        if not isinstance(include, bool):
            raise ConfigError(f"prediction.include_detectors must be a boolean, got {include!r}")
        if "eta_dm" in sec:
            eta_dm = _number(sec, "eta_dm", "prediction")
        else:
            eta_dm = switching_efficiency(self.network, self.schedule, self.couplers)
        n_max = _integer(sec, "n_max", "prediction", 1) if "n_max" in sec else 10
        prediction = PredictionConfig(
            source=self.emitter,
            transmission=compose_transmission(self.budget),
            eta_dm=eta_dm,
            eta_det=self.eta_det,
            include_detectors=include,
        )
        return prediction, n_max

    # -- resolved objects ----------------------------------------------------

    def sim_config(self, pulses: int | None = None, seed: int | None = None) -> SimConfig:
        if self._simulation is None:
            raise ConfigError("simulation section is required to simulate, and to check a "
                              "stream: its device digest covers simulation.pump_power_uw")
        run = {}
        if pulses is not None:
            run["pulse_count"] = pulses
        if seed is not None:
            run["rng_seed"] = seed
        return dataclasses.replace(self._simulation, **run)

    def prediction_config(self) -> PredictionConfig:
        return self._prediction

    def prediction_n_max(self) -> int:
        return self._n_max


def load_config(path) -> RunConfig:
    """Load and validate a YAML configuration file.

    Unreadable paths raise OSError (an I/O failure); malformed or invalid
    content raises ConfigError.
    """
    path = Path(path)
    text = path.read_text()
    try:
        # libyaml's parser where PyYAML was built with it; both give the same documents
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if doc is None:
        raise ConfigError(f"config {path} is empty")
    return RunConfig(doc, source=str(path))
