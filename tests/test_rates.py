"""Closed-form scaling laws, loss budget, and rate predictions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from demuxsim import (
    DomainError,
    EmitterParams,
    LossBudget,
    PredictionConfig,
    compose_transmission,
    crossover_n,
    n_fold_rate,
    predict_rates,
    s_active,
    s_active_enumerated,
    s_probabilistic,
    saturation_brightness,
)

etas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------

def test_perfect_switching_scales_as_inverse_n():
    for n in range(1, 11):
        assert s_active(n, 1.0) == 1.0 / n


def test_probabilistic_baseline_exact():
    for n in range(1, 11):
        assert s_probabilistic(n) == (1.0 / n) ** n


def test_single_channel_has_no_demux_penalty():
    for eta in (0.0, 0.3, 0.78, 1.0):
        assert s_active(1, eta) == 1.0


def test_s_active_known_value():
    # (0.78**2 + (0.22)**2) / 2, evaluated by hand
    assert math.isclose(s_active(2, 0.78), 0.3284, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(s_active(6, 0.78), 0.037533272830928, rel_tol=1e-12)


@given(st.integers(min_value=2, max_value=10), etas)
def test_s_active_bounded_and_minimal_at_uniform(n, eta):
    s = s_active(n, eta)
    assert 0.0 < s <= 1.0 / n + 1e-15
    # eta = 1/n makes the scheduled and misrouted branches identical, the
    # scheme's worst case
    assert s >= s_active(n, 1.0 / n) - 1e-15


@given(etas)
def test_enumeration_matches_closed_form_for_two_and_three(eta):
    for n in (2, 3):
        assert abs(s_active(n, eta) - s_active_enumerated(n, eta)) <= 1e-12


@given(st.floats(min_value=0.01, max_value=0.99))
def test_enumeration_gap_at_four_is_extra_derangements(eta):
    # 9 derangements of 4 items vs the closed form's n-1 = 3 copies
    gap = s_active_enumerated(4, eta) - s_active(4, eta)
    assert gap >= 0.0
    expected = (9 - 3) * ((1.0 - eta) / 3.0) ** 4 / 4.0
    # the gap is a difference of O(0.1) quantities, so compare absolutely
    assert abs(gap - expected) <= 1e-13


@given(etas)
def test_enumeration_of_one_output_is_one(eta):
    assert s_active_enumerated(1, eta) == s_active(1, eta) == 1.0


def test_domain_validation():
    with pytest.raises(DomainError):
        s_active(0, 0.5)
    with pytest.raises(DomainError):
        s_active(2, 1.5)
    with pytest.raises(DomainError):
        s_probabilistic(0)
    with pytest.raises(DomainError):
        s_active_enumerated(9, 0.5)  # factorial guard


@pytest.mark.parametrize(
    "build",
    [
        lambda: EmitterParams(pump_rate_hz=1.0, saturation_power_uw=0.0, max_brightness=0.1),
        lambda: LossBudget(propagation_db_per_cm=-0.1),
        lambda: LossBudget(device_length_cm=-1.0),
        lambda: saturation_brightness(1.0, 0.0, 0.2),
        lambda: saturation_brightness(1.0, -348.0, 0.2),
        lambda: saturation_brightness(-1.0, 348.0, 0.2),
        lambda: s_active_enumerated(0, 0.5),
    ],
    ids=[
        "zero-saturation-power", "negative-propagation-loss", "negative-device-length",
        "zero-p0", "negative-p0", "negative-power", "enumerated-n-0",
    ],
)
def test_out_of_range_parameters_are_refused(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: EmitterParams(pump_rate_hz=bad, saturation_power_uw=1.0, max_brightness=0.5),
        lambda bad: EmitterParams(pump_rate_hz=8e7, saturation_power_uw=bad, max_brightness=0.5),
        lambda bad: n_fold_rate(2, bad, 0.5, 0.5, 0.25),
        lambda bad: saturation_brightness(bad, 1.0, 0.5),
        lambda bad: saturation_brightness(1.0, bad, 0.5),
        lambda bad: LossBudget(propagation_db_per_cm=bad),
        lambda bad: LossBudget(device_length_cm=bad),
    ],
    ids=[
        "emitter-pump-rate", "emitter-saturation-power", "n-fold-pump-rate", "power", "p0",
        "propagation-loss", "device-length",
    ],
)
def test_non_finite_rate_inputs_are_refused(build, bad):
    # NaN used to pass every "<= 0" check and come out as a rate of nan; an
    # infinite saturation power gave a brightness of 0, and a NaN or infinite
    # loss built a budget that simulate died on with a bare ValueError
    with pytest.raises(DomainError, match="finite"):
        build(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: s_active(2.5, 0.8),
        lambda: s_active(True, 0.8),
        lambda: s_active_enumerated(3.0, 0.8),
        lambda: s_probabilistic(2.5),
        lambda: n_fold_rate(2.5, 8e7, 0.5, 0.5, 0.25),
        lambda: predict_rates(resonant_qd_config(), [2.5]),
        lambda: crossover_n(resonant_qd_config(), 3.5),
    ],
    ids=["s-active", "s-active-bool", "enumerated", "probabilistic", "n-fold", "predict", "crossover"],
)
def test_photon_numbers_must_be_integers(build):
    # s_active(2.5, 0.8) used to return 0.2329 and s_active(True, 0.8) 1.0, and
    # predict_rates gave rates for n = 2.5; s_active_enumerated(3.0, 0.8) and
    # crossover_n(config, 3.5) raised a bare TypeError
    with pytest.raises(DomainError, match=r"must be an integer >= 1, got (2\.5|True|3\.0|3\.5)"):
        build()


def test_numpy_photon_numbers_are_stored_as_ints():
    predictions = predict_rates(resonant_qd_config(), np.arange(1, 4))
    assert [(type(p.n), p.n) for p in predictions[::2]] == [(int, 1), (int, 2), (int, 3)]
    assert s_active(np.int64(3), 0.8) == s_active(3, 0.8)
    assert crossover_n(resonant_qd_config(), np.int64(10)) == 5


# ---------------------------------------------------------------------------
# rate law and transmission
# ---------------------------------------------------------------------------

def test_two_fold_rate_example():
    # 80 MHz, eta_sd 0.76%, detectors 30%, S = 0.3284
    rate = n_fold_rate(2, 8.0e7, 0.0076, 0.30, 0.3284)
    assert math.isclose(rate, 136.5723648, rel_tol=1e-12)


def test_rate_law_composition():
    assert n_fold_rate(3, 1e6, 0.5, 0.5, 0.25) == 1e6 * (0.5 * 0.5) ** 3 * 0.25
    with pytest.raises(DomainError):
        n_fold_rate(0, 1e6, 0.5, 0.5, 0.25)
    with pytest.raises(DomainError):
        n_fold_rate(2, -1.0, 0.5, 0.5, 0.25)


def test_measured_chip_transmission():
    budget = LossBudget(
        mode_overlap=0.85,
        fresnel_in=0.14,
        fresnel_out=0.14,
        propagation_db_per_cm=0.65,
        device_length_cm=5.0,
    )
    t = compose_transmission(budget)
    # 0.85 * 0.86 * 0.86 * 10**(-0.325), evaluated independently
    assert math.isclose(t, 0.2974512704587243, rel_tol=1e-12)


def test_default_budget_is_lossless():
    assert compose_transmission(LossBudget()) == 1.0


def test_lumped_transmission_budget():
    budget = LossBudget.from_transmission(0.3)
    assert math.isclose(compose_transmission(budget), 0.3, rel_tol=1e-12)


def test_saturation_curve():
    assert saturation_brightness(0.0, 348.0, 0.2) == 0.0
    # one saturation power: 1 - 1/e
    assert math.isclose(
        saturation_brightness(348.0, 348.0, 1.0), 0.6321205588285577, rel_tol=1e-12
    )
    assert saturation_brightness(1e9, 348.0, 0.2) == pytest.approx(0.2, rel=1e-9)


def test_emitter_validation_and_brightness_chain():
    src = EmitterParams(
        pump_rate_hz=80e6,
        saturation_power_uw=348.0,
        max_brightness=0.15,
        polarized_fraction=0.5,
        fiber_coupling=0.65,
    )
    assert math.isclose(src.saturated_brightness, 0.15 * 0.5 * 0.65, rel_tol=1e-12)
    assert src.input_brightness(1e9) == pytest.approx(src.saturated_brightness, rel=1e-9)
    with pytest.raises(DomainError):
        EmitterParams(pump_rate_hz=0.0, saturation_power_uw=1.0, max_brightness=0.1)
    with pytest.raises(DomainError):
        EmitterParams(pump_rate_hz=1.0, saturation_power_uw=1.0, max_brightness=1.5)
    with pytest.raises(DomainError):
        EmitterParams(
            pump_rate_hz=1.0, saturation_power_uw=1.0, max_brightness=0.1, g2_zero=1.0
        )


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def resonant_qd_config() -> PredictionConfig:
    # 15% polarised brightness, 65% fibre coupling, facets assumed coated
    source = EmitterParams(
        pump_rate_hz=80e6,
        saturation_power_uw=348.0,
        max_brightness=0.15,
        fiber_coupling=0.65,
    )
    return PredictionConfig(
        source=source, transmission=0.3 / (0.86 * 0.86), eta_dm=0.78
    )


def test_six_photon_projection_resonant_qd():
    rates = {(p.n, p.scheme): p.rate_hz for p in predict_rates(resonant_qd_config(), [6])}
    expected = 80e6 * (0.15 * 0.65 * 0.3 / 0.86**2) ** 6 * s_active(6, 0.78)
    assert math.isclose(rates[(6, "active")], expected, rel_tol=1e-12)
    assert math.isclose(rates[(6, "active")], 0.0115, rel_tol=0.01)


def test_six_photon_projection_fiber_qd():
    source = EmitterParams(
        pump_rate_hz=80e6, saturation_power_uw=348.0, max_brightness=0.14
    )
    config = PredictionConfig(source=source, transmission=0.3 / (0.86 * 0.86), eta_dm=0.78)
    rates = {(p.n, p.scheme): p.rate_hz for p in predict_rates(config, [6])}
    assert math.isclose(rates[(6, "active")], 0.100697978, rel_tol=1e-8)
    assert math.isclose(rates[(6, "active")], 0.100, rel_tol=0.01)


def test_probabilistic_baseline_excludes_device_transmission():
    config = resonant_qd_config()
    rates = {(p.n, p.scheme): p.rate_hz for p in predict_rates(config, [1])}
    # the passive comparison point is a lossless splitter network fed by the
    # bare source
    assert math.isclose(rates[(1, "probabilistic")], 80e6 * 0.0975, rel_tol=1e-12)
    assert math.isclose(
        rates[(1, "active")], 80e6 * 0.0975 * config.transmission, rel_tol=1e-12
    )


def test_active_scheme_wins_from_five_channels():
    assert crossover_n(resonant_qd_config(), n_max=10) == 5
    assert crossover_n(resonant_qd_config(), n_max=4) is None


def test_detector_inclusion_scales_both_schemes():
    source = EmitterParams(pump_rate_hz=80e6, saturation_power_uw=1.0, max_brightness=0.2)
    base = PredictionConfig(source=source, transmission=0.5, eta_dm=0.8, eta_det=0.3)
    with_det = PredictionConfig(
        source=source, transmission=0.5, eta_dm=0.8, eta_det=0.3, include_detectors=True
    )
    for n in (1, 2, 3):
        r0 = {p.scheme: p.rate_hz for p in predict_rates(base, [n])}
        r1 = {p.scheme: p.rate_hz for p in predict_rates(with_det, [n])}
        assert math.isclose(r1["active"], r0["active"] * 0.3**n, rel_tol=1e-12)
        assert math.isclose(
            r1["probabilistic"], r0["probabilistic"] * 0.3**n, rel_tol=1e-12
        )


def test_prediction_uses_composed_budget():
    source = EmitterParams(pump_rate_hz=80e6, saturation_power_uw=1.0, max_brightness=0.2)
    budget = LossBudget(mode_overlap=0.5, fresnel_in=0.1, fresnel_out=0.0)
    config = PredictionConfig(source=source, transmission=compose_transmission(budget), eta_dm=0.9)
    assert math.isclose(config.transmission, 0.45, rel_tol=1e-12)
