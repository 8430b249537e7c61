"""Bounded least squares: scipy's trust-region reflective solver (Branch,
Coleman & Li, SIAM J. Sci. Comput. 21, 1 (1999)) with analytic or numeric
Jacobians.  Parameter uncertainties come from the unscaled inverse normal
matrix, the right covariance when residuals are pre-weighted by known
measurement errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import DomainError, FitNonConvergenceError

__all__ = ["FitResult", "damped_least_squares", "finite_difference_jacobian"]

# residual evaluations a fit may spend before it raises FitNonConvergenceError
_MAX_EVALUATIONS = 200


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
    """Forward-difference Jacobian for models without an analytic one.

    Parameter j steps by 1e-7 * max(|x[j]|, 1).
    """
    r0 = np.asarray(residual_fn(x), dtype=float)
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        xs = x.copy()
        h = 1e-7 * max(abs(xs[j]), 1.0)
        xs[j] += h
        jac[:, j] = (np.asarray(residual_fn(xs), dtype=float) - r0) / h
    return jac


def damped_least_squares(
    residual_fn,
    x0,
    jacobian_fn=None,
    names=None,
    bounds=None,
) -> FitResult:
    """Minimize ||residual_fn(x)||^2 from x0 by the trust-region reflective method.

    residual_fn maps a parameter vector to the (already weighted) residuals;
    jacobian_fn is its analytic Jacobian, finite differences when omitted.
    bounds is a sequence of (lo, hi) pairs; x0 is clipped into them, and a
    solution with an active bound is reported with at_boundary=True.
    The result's iterations counts Jacobian evaluations (accepted steps plus
    the start).  Raises FitNonConvergenceError when the budget of
    residual evaluations runs out first.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("x0 must be a non-empty 1-d parameter vector")
    names = tuple(names) if names is not None else tuple(f"p{i}" for i in range(x.size))
    if jacobian_fn is None:
        jacobian_fn = lambda xv: finite_difference_jacobian(residual_fn, xv)
    lo, hi = np.array(bounds, dtype=float).T if bounds is not None else (-np.inf, np.inf)

    res = least_squares(
        residual_fn,
        np.clip(x, lo, hi),
        jac=jacobian_fn,
        bounds=(lo, hi),
        method="trf",
        max_nfev=_MAX_EVALUATIONS,
    )
    residual_norm = float(np.linalg.norm(res.fun))
    if res.status == 0:
        raise FitNonConvergenceError(
            f"no convergence after {_MAX_EVALUATIONS} residual evaluations "
            f"(residual norm {residual_norm:.6g})",
            iterations=int(res.njev),
            residual_norm=residual_norm,
        )

    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    return FitResult(
        names=names,
        values=tuple(float(v) for v in res.x),
        sigmas=tuple(float(s) for s in np.sqrt(np.clip(np.diag(cov), 0.0, None))),
        covariance=cov,
        residual_norm=residual_norm,
        iterations=int(res.njev),
        at_boundary=bool(np.any(res.active_mask)),
    )
