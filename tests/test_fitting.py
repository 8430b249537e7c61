"""Least-squares engine against known solutions and scipy."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import curve_fit

from demuxsim import (
    DomainError,
    FitNonConvergenceError,
    FitResult,
    damped_least_squares,
    finite_difference_jacobian,
)
from demuxsim import fitting

RNG = np.random.default_rng(20260815)


def test_exact_linear_fit():
    x = np.linspace(0.0, 10.0, 20)
    y = 2.5 * x - 1.25

    def residuals(p):
        return p[0] * x + p[1] - y

    fit = damped_least_squares(residuals, [1.0, 0.0], names=("slope", "offset"))
    assert fit.value("slope") == pytest.approx(2.5, abs=1e-9)
    assert fit.value("offset") == pytest.approx(-1.25, abs=1e-9)
    assert fit.residual_norm < 1e-8


def test_weighted_exponential_matches_curve_fit():
    # dual check: same weighted problem through scipy with absolute_sigma
    x = np.linspace(50.0, 1500.0, 15)
    true = (71.0, 350.0)
    rng = np.random.default_rng(7)
    sigma = np.full_like(x, 0.8)
    y = true[0] * (1.0 - np.exp(-x / true[1])) + rng.normal(0.0, sigma)

    def model(xv, a, p0):
        return a * (1.0 - np.exp(-xv / p0))

    def residuals(p):
        return (model(x, *p) - y) / sigma

    ours = damped_least_squares(residuals, [50.0, 200.0], names=("a", "p0"))
    ref_values, ref_cov = curve_fit(
        model, x, y, p0=[50.0, 200.0], sigma=sigma, absolute_sigma=True
    )
    assert ours.values == pytest.approx(ref_values, rel=1e-6)
    assert ours.sigmas == pytest.approx(np.sqrt(np.diag(ref_cov)), rel=1e-2)


def test_analytic_jacobian_path():
    x = np.linspace(0.0, 1.0, 30)
    y = 3.0 * np.exp(-2.0 * x)

    def residuals(p):
        return p[0] * np.exp(-p[1] * x) - y

    def jacobian(p):
        e = np.exp(-p[1] * x)
        return np.column_stack([e, -p[0] * x * e])

    fit = damped_least_squares(residuals, [1.0, 1.0], jacobian_fn=jacobian)
    assert fit.values == pytest.approx((3.0, 2.0), rel=1e-8)


def test_finite_difference_jacobian_accuracy():
    def residuals(p):
        return np.array([p[0] ** 2 + p[1], math.sin(p[0] * p[1])])

    x = np.array([1.3, 0.4])
    jac = finite_difference_jacobian(residuals, x)
    analytic = np.array(
        [
            [2 * x[0], 1.0],
            [x[1] * math.cos(x[0] * x[1]), x[0] * math.cos(x[0] * x[1])],
        ]
    )
    np.testing.assert_allclose(jac, analytic, rtol=1e-5, atol=1e-6)


def test_bounds_clip_and_flag():
    x = np.linspace(0.0, 1.0, 10)
    y = 2.0 * x  # unconstrained optimum at slope 2

    def residuals(p):
        return p[0] * x - y

    fit = damped_least_squares(residuals, [0.5], bounds=[(0.0, 1.0)])
    assert fit.values[0] == pytest.approx(1.0, abs=1e-9)
    assert fit.at_boundary
    free = damped_least_squares(residuals, [0.5], bounds=[(0.0, 5.0)])
    assert free.values[0] == pytest.approx(2.0, abs=1e-9)
    assert not free.at_boundary


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 1)
    x = np.linspace(0.0, 1.0, 10)
    y = 3.0 * np.exp(-2.0 * x)

    def residuals(p):
        return p[0] * np.exp(-p[1] * x) - y

    with pytest.raises(FitNonConvergenceError) as err:
        damped_least_squares(residuals, [100.0, 50.0])
    assert err.value.iterations == 1


def test_input_validation():
    with pytest.raises(DomainError):
        damped_least_squares(lambda p: p, [])
    with pytest.raises(DomainError):
        damped_least_squares(lambda p: p, [[1.0, 2.0]])


def test_result_accessors():
    fit = FitResult(
        names=("a", "b"),
        values=(1.0, 2.0),
        sigmas=(0.1, 0.2),
        covariance=np.eye(2),
        residual_norm=0.5,
        iterations=3,
    )
    assert fit.value("b") == 2.0
    assert fit.sigma("a") == 0.1
    doc = fit.to_dict()
    assert doc["parameters"]["a"] == {"value": 1.0, "sigma": 0.1}
    assert doc["iterations"] == 3 and "converged" not in doc
    with pytest.raises(ValueError):
        fit.value("missing")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_params=st.integers(1, 5),
    extra_rows=st.integers(1, 15),
    analytic=st.booleans(),
)
@example(seed=19553, n_params=1, extra_rows=1, analytic=False)
def test_linear_problems_match_lstsq(seed, n_params, extra_rows, analytic):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_params + extra_rows, n_params))
    assume(np.linalg.cond(a) < 1e3)
    b = a @ rng.normal(0.0, 10.0, n_params) + rng.normal(size=a.shape[0])

    def residuals(x):
        return a @ x - b

    fit = damped_least_squares(
        residuals, np.zeros(n_params), jacobian_fn=(lambda x: a) if analytic else None
    )
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)
    # the solver stops on relative tolerances, so errors scale with the solution
    np.testing.assert_allclose(fit.values, expected, rtol=1e-6, atol=1e-6 * np.abs(expected).max())
    cov = np.linalg.inv(a.T @ a)
    # forward differences perturb small covariance entries by ~1e-9 of the largest
    np.testing.assert_allclose(fit.covariance, cov, rtol=1e-5, atol=1e-7 * np.abs(cov).max())
    assert fit.residual_norm == pytest.approx(np.linalg.norm(a @ expected - b), rel=1e-9)
    assert not fit.at_boundary


def test_start_outside_bounds_is_clipped():
    x = np.linspace(0.0, 1.0, 10)
    y = 0.5 * x + 0.25

    def residuals(p):
        return p[0] * x + p[1] - y

    fit = damped_least_squares(residuals, [7.0, -3.0], bounds=[(0.0, 1.0), (0.0, 1.0)])
    assert fit.values == pytest.approx((0.5, 0.25), abs=1e-8)
    assert not fit.at_boundary


def test_at_boundary_flags_only_pinned_fits():
    x = np.linspace(0.0, 1.0, 10)
    y = 2.0 * x - 0.5  # unconstrained optimum: slope 2, offset -0.5

    def residuals(p):
        return p[0] * x + p[1] - y

    pinned = damped_least_squares(residuals, [1.0, 0.5], bounds=[(0.0, 5.0), (0.0, 5.0)])
    assert pinned.values[1] == pytest.approx(0.0, abs=1e-9)
    assert pinned.at_boundary
    free = damped_least_squares(residuals, [1.0, 0.5], bounds=[(0.0, 5.0), (-5.0, 5.0)])
    assert free.values == pytest.approx((2.0, -0.5), abs=1e-8)
    assert not free.at_boundary
    assert not damped_least_squares(residuals, [1.0, 0.5]).at_boundary


def test_non_convergence_error_carries_diagnostics(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 3)
    x = np.linspace(0.0, 1.0, 10)
    y = 3.0 * np.exp(-2.0 * x)

    def residuals(p):
        return p[0] * np.exp(-p[1] * x) - y

    with pytest.raises(FitNonConvergenceError) as err:
        damped_least_squares(residuals, [100.0, 50.0])
    assert isinstance(err.value.iterations, int) and 1 <= err.value.iterations <= 3
    assert math.isfinite(err.value.residual_norm) and err.value.residual_norm > 0.0
    assert f"{err.value.residual_norm:.6g}" in str(err.value)
