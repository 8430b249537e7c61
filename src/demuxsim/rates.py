"""Closed-form rate laws for active temporal-to-spatial demultiplexing.

An actively switched 1-to-n network routes successive pulses of a triggered
single-photon stream to n spatial outputs.  The functions here predict n-fold
coincidence rates for that scheme and for the passive (probabilistic) baseline
in which each photon picks an output at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .errors import (
    DomainError,
    check_integer,
    check_non_negative,
    check_positive,
    check_unit_interval,
)

__all__ = [
    "EmitterParams",
    "LossBudget",
    "RatePrediction",
    "PredictionConfig",
    "s_active",
    "s_active_enumerated",
    "s_probabilistic",
    "n_fold_rate",
    "compose_transmission",
    "saturation_brightness",
    "predict_rates",
    "crossover_n",
]


@dataclass(frozen=True)
class EmitterParams:
    """Triggered single-photon source feeding the demultiplexer.

    max_brightness is the per-pulse photon probability at full saturation,
    before polarization filtering and source-to-device coupling.  The product
    max_brightness * polarized_fraction * fiber_coupling is the saturated
    per-pulse probability of a photon arriving at the network input.
    """

    pump_rate_hz: float
    saturation_power_uw: float
    max_brightness: float
    g2_zero: float = 0.0
    polarized_fraction: float = 1.0
    fiber_coupling: float = 1.0

    def __post_init__(self) -> None:
        check_positive("pump_rate_hz", self.pump_rate_hz)
        check_positive("saturation_power_uw", self.saturation_power_uw)
        check_unit_interval("max_brightness", self.max_brightness)
        check_unit_interval("polarized_fraction", self.polarized_fraction)
        check_unit_interval("fiber_coupling", self.fiber_coupling)
        if not 0.0 <= self.g2_zero < 1.0:
            raise DomainError(f"g2_zero must lie in [0, 1), got {self.g2_zero!r}")

    @property
    def saturated_brightness(self) -> float:
        """Per-pulse photon probability at the network input, fully saturated."""
        return self.max_brightness * self.polarized_fraction * self.fiber_coupling

    def input_brightness(self, pump_power_uw: float) -> float:
        """Per-pulse photon probability at the network input at a given pump power."""
        factor = saturation_brightness(pump_power_uw, self.saturation_power_uw, 1.0)
        return self.saturated_brightness * factor


@dataclass(frozen=True)
class LossBudget:
    """Multiplicative transmission budget of the switching chip.

    Total transmission is
    mode_overlap * (1 - fresnel_in) * (1 - fresnel_out) * 10**(-alpha*L/10).
    """

    mode_overlap: float = 1.0
    fresnel_in: float = 0.0
    fresnel_out: float = 0.0
    propagation_db_per_cm: float = 0.0
    device_length_cm: float = 0.0

    def __post_init__(self) -> None:
        check_unit_interval("mode_overlap", self.mode_overlap)
        check_unit_interval("fresnel_in", self.fresnel_in)
        check_unit_interval("fresnel_out", self.fresnel_out)
        check_non_negative("propagation_db_per_cm", self.propagation_db_per_cm)
        check_non_negative("device_length_cm", self.device_length_cm)

    @classmethod
    def from_transmission(cls, transmission: float) -> "LossBudget":
        """Budget with a single lumped transmission factor."""
        check_unit_interval("transmission", transmission)
        return cls(mode_overlap=transmission)


@dataclass(frozen=True)
class RatePrediction:
    """Predicted n-fold coincidence rate for one scheme."""

    n: int
    scheme: str  # "active" or "probabilistic"
    rate_hz: float


@dataclass(frozen=True)
class PredictionConfig:
    """Inputs for rate prediction.

    transmission is the lumped device transmission, compose_transmission of
    a LossBudget when the losses are itemized.
    """

    source: EmitterParams
    transmission: float
    eta_dm: float
    eta_det: float = 1.0
    include_detectors: bool = False

    def __post_init__(self) -> None:
        check_unit_interval("transmission", self.transmission)
        check_unit_interval("eta_dm", self.eta_dm)
        check_unit_interval("eta_det", self.eta_det)


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------

def s_active(n: int, eta_dm: float) -> float:
    """Cycle-rate scaling factor of the actively switched scheme.

    (1/n) * [eta^n + (n-1)*((1-eta)/(n-1))^n]; the n = 1 limit is 1.  The
    second term is the all-misrouted contribution of a uniform misrouting
    model and matches exhaustive enumeration only for n <= 3 (see
    s_active_enumerated).
    """
    n = check_integer("n", n, 1)
    check_unit_interval("eta_dm", eta_dm)
    if n == 1:
        return 1.0
    return (eta_dm**n + (n - 1) * ((1.0 - eta_dm) / (n - 1)) ** n) / n


def s_active_enumerated(n: int, eta_dm: float) -> float:
    """Same quantity by brute-force enumeration of the uniform-misroute model.

    Counts the all-correct assignment plus every derangement (each photon on a
    wrong output, all n outputs covered), with per-photon probabilities eta to
    the scheduled output and (1-eta)/(n-1) to each other output.  Agrees with
    s_active exactly for n in {2, 3}; for n >= 4 there are more derangements
    than the closed form's n-1 copies, so the enumerated value is larger.
    """
    n = check_integer("n", n, 1)
    if n > 8:
        raise DomainError("enumeration is factorial in n; use n <= 8")
    check_unit_interval("eta_dm", eta_dm)
    if n == 1:
        return 1.0
    miss = (1.0 - eta_dm) / (n - 1)
    total = 0.0
    for perm in permutations(range(n)):
        fixed = sum(1 for i, p in enumerate(perm) if i == p)
        if fixed == n or fixed == 0:  # all correct, or a derangement
            total += eta_dm**fixed * miss ** (n - fixed)
    return total / n


def s_probabilistic(n: int) -> float:
    """Scaling factor of the passive baseline: (1/n)^n."""
    n = check_integer("n", n, 1)
    return (1.0 / n) ** n


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def n_fold_rate(
    n: int,
    pump_rate_hz: float,
    eta_sd: float,
    eta_det: float,
    s_dm: float,
) -> float:
    """n-fold coincidence rate R * (eta_sd * eta_det)^n * s_dm."""
    n = check_integer("n", n, 1)
    check_positive("pump_rate_hz", pump_rate_hz)
    check_unit_interval("eta_sd", eta_sd)
    check_unit_interval("eta_det", eta_det)
    check_unit_interval("s_dm", s_dm)
    return pump_rate_hz * (eta_sd * eta_det) ** n * s_dm


def compose_transmission(budget: LossBudget) -> float:
    """Total device transmission from a LossBudget."""
    attenuation = 10.0 ** (-budget.propagation_db_per_cm * budget.device_length_cm / 10.0)
    return (
        budget.mode_overlap
        * (1.0 - budget.fresnel_in)
        * (1.0 - budget.fresnel_out)
        * attenuation
    )


def saturation_brightness(pump_power_uw: float, p0_uw: float, max_value: float) -> float:
    """Saturating brightness max_value * (1 - exp(-P/P0)); max_value lies in [0, 1]."""
    check_non_negative("pump_power_uw", pump_power_uw)
    check_positive("p0_uw", p0_uw)
    check_unit_interval("max_value", max_value)
    return max_value * (1.0 - math.exp(-pump_power_uw / p0_uw))


def _predictions(config: PredictionConfig, n: int) -> tuple[RatePrediction, RatePrediction]:
    """The active and the probabilistic prediction; the passive baseline is lossless."""
    n = check_integer("n", n, 1)  # stored in each prediction as a Python int
    brightness, pump_rate_hz = config.source.saturated_brightness, config.source.pump_rate_hz
    eta_det = config.eta_det if config.include_detectors else 1.0
    s_dm = s_active(n, config.eta_dm)
    active = n_fold_rate(n, pump_rate_hz, brightness * config.transmission, eta_det, s_dm)
    passive = n_fold_rate(n, pump_rate_hz, brightness, eta_det, s_probabilistic(n))
    return RatePrediction(n, "active", active), RatePrediction(n, "probabilistic", passive)


def predict_rates(config: PredictionConfig, n_values) -> list[RatePrediction]:
    """Predicted n-fold rates for both schemes over the requested channel counts.

    Returns an (n, scheme)-ordered list; an empty n_values yields an empty list.
    With include_detectors False the detector term is dropped from both schemes
    (rates at the device outputs rather than after detection).
    """
    return [prediction for n in n_values for prediction in _predictions(config, n)]


def crossover_n(config: PredictionConfig, n_max: int) -> int | None:
    """Smallest n in [1, n_max] where the active scheme strictly beats the passive one.

    Both schemes use the same configuration.  Returns None when the active
    scheme never wins within n_max.
    """
    for n in range(1, check_integer("n_max", n_max, 1) + 1):
        active, passive = _predictions(config, n)
        if active.rate_hz > passive.rate_hz:
            return n
    return None
