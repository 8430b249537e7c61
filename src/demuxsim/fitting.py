"""Bounded least squares: Levenberg-Marquardt in trust-region form (Moré,
Lecture Notes in Math. 630, 105 (1978)) with Coleman-Li scaling at the
bounds (Coleman & Li, SIAM J. Optim. 6, 418 (1996)), the scaling of the
trust-region reflective method (Branch, Coleman & Li, SIAM J. Sci. Comput.
21, 1 (1999)), with analytic or numeric Jacobians.  Parameter uncertainties
come from the unscaled inverse normal matrix, the right covariance when
residuals are pre-weighted by known measurement errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitNonConvergenceError

__all__ = ["FitResult", "damped_least_squares", "finite_difference_jacobian"]

# residual evaluations a fit may spend before it raises FitNonConvergenceError
_MAX_EVALUATIONS = 200
_EPS = np.finfo(float).eps
# tolerance on the relative cost change, the relative step and the scaled
# gradient; far above the ~eps**(2/3) error of central differences
_TOL = 1e-8


@dataclass(frozen=True)
class FitResult:
    """Converged fit: parameter values, 1-sigma errors, and diagnostics."""

    names: tuple[str, ...]
    values: tuple[float, ...]
    sigmas: tuple[float, ...]
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    at_boundary: bool = False

    def value(self, name: str) -> float:
        return self.values[self.names.index(name)]

    def sigma(self, name: str) -> float:
        return self.sigmas[self.names.index(name)]

    def to_dict(self) -> dict:
        return {
            "parameters": {
                name: {"value": v, "sigma": s}
                for name, v, s in zip(self.names, self.values, self.sigmas)
            },
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "at_boundary": self.at_boundary,
        }


def finite_difference_jacobian(residual_fn, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian for models without an analytic one.

    Parameter j steps by eps**(1/3) * max(|x[j]|, 1), about 6e-6 * max(|x[j]|, 1),
    each way.
    """
    x = np.asarray(x, dtype=float)
    steps = np.diag(_EPS ** (1 / 3) * np.maximum(np.abs(x), 1.0))
    values = [np.asarray(residual_fn(x + h), dtype=float) - residual_fn(x - h) for h in steps]
    return np.column_stack(values) / (2.0 * np.diag(steps))


def _trust_region_step(uf, s, vt, radius: float, alpha: float, full_rank: bool):
    """Moré's step: the p minimising ||J p + f|| with ||p|| <= radius, and its alpha.

    J = U diag(s) vt and uf = U^T f.  This is the Gauss-Newton step when it
    fits, else the Levenberg-Marquardt step -(J^T J + alpha)^-1 J^T f of
    length radius, alpha from safeguarded Newton steps that start at the
    last call's alpha.
    """
    if full_rank and np.linalg.norm(uf / s) <= radius:
        return -vt.T @ (uf / s), 0.0
    suf = s * uf

    def phi(a):  # ||p(a)|| - radius, and its derivative in a
        length = np.linalg.norm(suf / (s**2 + a))
        return length - radius, -np.sum(suf**2 / (s**2 + a) ** 3) / length

    upper, lower = np.linalg.norm(suf) / radius, 0.0
    if full_rank:  # phi is convex, so a Newton step from 0 stays below its root
        value, slope = phi(0.0)
        lower = -value / slope
    for _ in range(10):
        if not lower < alpha <= upper:
            alpha = max(0.001 * upper, (lower * upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        lower = max(lower, alpha - value / slope)
        alpha -= (value + radius) * value / (slope * radius)
        if abs(value) < 0.01 * radius:
            break
    step = -vt.T @ (suf / (s**2 + alpha))
    return step * (radius / np.linalg.norm(step)), alpha


def damped_least_squares(
    residual_fn,
    x0,
    jacobian_fn=None,
    names=None,
    bounds=None,
) -> FitResult:
    """Minimize ||residual_fn(x)||^2 from x0 by bounded Levenberg-Marquardt steps.

    residual_fn maps a parameter vector to the (already weighted) residuals;
    jacobian_fn is its analytic Jacobian, finite differences when omitted.
    bounds is a sequence of (lo, hi) pairs.  x0 is clipped into them, and no
    residual is evaluated on a bound: a step that would reach one stops
    short of it.  A solution within 1e-8 of a bound is reported with
    at_boundary=True.  The fit stops when a good step lowers the cost by
    less than 1e-8 of it, a step (taken or not) is shorter than 1e-8 of
    ||x||, or the scaled gradient is below 1e-8.  The result's iterations
    counts Jacobian evaluations (accepted steps plus the start).  Raises
    FitNonConvergenceError when the budget of residual evaluations runs out
    first.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("x0 must be a non-empty 1-d parameter vector")
    names = tuple(names) if names is not None else tuple(f"p{i}" for i in range(x.size))
    if jacobian_fn is None:
        jacobian_fn = lambda xv: finite_difference_jacobian(residual_fn, xv)
    no_bounds = np.outer([-np.inf, np.inf], np.ones(x.size))
    lo, hi = np.array(bounds, dtype=float).T if bounds is not None else no_bounds
    x = np.clip(x, lo, hi)
    pad = 1e-10 * np.maximum(np.abs(x), 1.0)
    x = np.clip(x, lo + pad, hi - pad)
    inside = np.nextafter(lo, hi), np.nextafter(hi, lo)

    def scaling(x, g):
        # Coleman-Li: the distance to the bound that -g points at (else 1),
        # and its derivative in x
        to_hi, to_lo = (g < 0) & np.isfinite(hi), (g > 0) & np.isfinite(lo)
        return np.select([to_hi, to_lo], [hi - x, x - lo], 1.0), to_lo - to_hi.astype(float)

    f = np.asarray(residual_fn(x), dtype=float)
    jac = np.asarray(jacobian_fn(x), dtype=float)
    cost, evaluations, iterations = f @ f / 2, 1, 1
    radius = np.linalg.norm(x / np.sqrt(scaling(x, jac.T @ f)[0])) or 1.0
    alpha, converged = 0.0, False
    while True:
        g = jac.T @ f
        v, dv = scaling(x, g)
        g_norm = np.max(np.abs(g * v))
        if converged or g_norm < _TOL:
            break
        if evaluations >= _MAX_EVALUATIONS:
            residual_norm = float(np.linalg.norm(f))
            raise FitNonConvergenceError(
                f"no convergence after {_MAX_EVALUATIONS} residual evaluations "
                f"(residual norm {residual_norm:.6g})",
                iterations=iterations,
                residual_norm=residual_norm,
            )
        # steps p_h in scaled variables, x + d * p_h, on the model ||J d p_h + f||^2
        # plus the Coleman-Li curvature p_h^T diag(g * dv) p_h, as extra rows
        d, curvature = np.sqrt(v), g * dv
        jac_h = jac * d
        augmented = np.vstack([jac_h, np.diag(np.sqrt(curvature))])
        u, s, vt = np.linalg.svd(augmented, full_matrices=False)
        uf = u[: f.size].T @ f
        full_rank = f.size >= x.size and s[-1] > _EPS * f.size * s[0]
        theta = max(0.995, 1.0 - g_norm)  # share of the way to a bound that a cut step goes
        reduction = -1.0
        while reduction <= 0 and evaluations < _MAX_EVALUATIONS:
            step_h, alpha = _trust_region_step(uf, s, vt, radius, alpha, full_rank)
            step = d * step_h
            room = np.divide(
                np.where(step > 0, hi, lo) - x, step, out=np.full(x.size, np.inf), where=step != 0
            )
            if room.min() <= 1.0:  # x + step would reach a bound: stop short of it
                step_h *= theta * room.min()
                step = d * step_h
            model = jac_h @ step_h
            predicted = -((model @ model + step_h @ (curvature * step_h)) / 2 + (d * g) @ step_h)
            x_new = np.clip(x + step, *inside)
            f_new = np.asarray(residual_fn(x_new), dtype=float)
            evaluations += 1
            length = np.linalg.norm(step_h)
            if not np.all(np.isfinite(f_new)):
                radius = 0.25 * length
                continue
            cost_new = f_new @ f_new / 2
            reduction = cost - cost_new
            ratio = reduction / predicted if predicted > 0 else float(predicted == reduction == 0)
            converged = (reduction < _TOL * cost and ratio > 0.25) or (
                np.linalg.norm(step) < _TOL * (_TOL + np.linalg.norm(x))
            )
            if converged:
                break
            if ratio < 0.25:
                new_radius = 0.25 * length
            else:
                new_radius = 2.0 * radius if ratio > 0.75 and length > 0.95 * radius else radius
            alpha *= radius / new_radius
            radius = new_radius
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            jac = np.asarray(jacobian_fn(x), dtype=float)
            iterations += 1

    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    # a bound is active within 1e-8 of it (relative, for a bound beyond 1)
    gap, nearest = np.minimum(x - lo, hi - x), np.where(x - lo <= hi - x, lo, hi)
    return FitResult(
        names=names,
        values=tuple(float(v) for v in x),
        sigmas=tuple(float(s) for s in np.sqrt(np.clip(np.diag(cov), 0.0, None))),
        covariance=cov,
        residual_norm=float(np.linalg.norm(f)),
        iterations=iterations,
        at_boundary=bool(np.any(np.isfinite(gap) & (gap <= _TOL * np.maximum(abs(nearest), 1.0)))),
    )
