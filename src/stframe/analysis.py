"""Residuals for the universal 4D curvature identity and the Einstein /
weakly-Einstein conditions, plus the forbidden Ricci-eigenvalue patterns."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Curvature4, derived_tensors, ricci, summary

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ResidualReport:
    matrix: np.ndarray
    max_abs: float
    relative: float
    passes: bool
    tol: float


def _report(matrix: np.ndarray, norm: float, tol: float) -> ResidualReport:
    """norm is the power of |R| that matches the residual's degree in R, so
    relative, and with it the verdict, does not depend on the scale of R;
    the residuals of the zero tensor are zero."""
    max_abs = float(np.abs(matrix).max())
    relative = max_abs / norm if max_abs else 0.0
    return ResidualReport(
        matrix=matrix,
        max_abs=max_abs,
        relative=relative,
        passes=relative < tol,
        tol=tol,
    )


def identity_residual(R: Curvature4, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residual of the universal identity
    Rcheck - 2 rhocheck - Lrho + tau rho - (|R|^2 - 4|rho|^2 + tau^2)/4 g = 0,
    which vanishes for every algebraic curvature tensor in dimension 4.
    """
    rho = ricci(R)
    rcheck, rhocheck, lrho = derived_tensors(R)
    s = summary(R)
    matrix = (
        rcheck
        - 2.0 * rhocheck
        - lrho
        + s.tau * rho
        - 0.25 * (s.normR2 - 4.0 * s.normRho2 + s.tau ** 2) * np.eye(4)
    )
    return _report(matrix, s.normR2, tol)


def weakly_einstein_residual(R: Curvature4, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residual of Rcheck_ij = |R|^2/4 delta_ij; passing means weakly Einstein."""
    rcheck, _, _ = derived_tensors(R)
    s = summary(R)
    matrix = rcheck - 0.25 * s.normR2 * np.eye(4)
    return _report(matrix, s.normR2, tol)


def einstein_residual(R: Curvature4, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residual of rho = (tau/4) g; passing means Einstein."""
    rho = ricci(R)
    s = summary(R)
    matrix = rho - 0.25 * s.tau * np.eye(4)
    return _report(matrix, math.sqrt(s.normR2), tol)


def reduced_identity_residual(R: Curvature4, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residual of the identity obtained by subtracting the weakly-Einstein
    condition from the universal identity:
    2 rho.rho + Lrho - tau rho - |rho|^2 g + (tau^2/4) g = 0.
    Passes exactly when weakly_einstein_residual passes.
    """
    rho = ricci(R)
    _, rhocheck, lrho = derived_tensors(R)
    s = summary(R)
    matrix = (
        2.0 * rhocheck
        + lrho
        - s.tau * rho
        - (s.normRho2 - 0.25 * s.tau ** 2) * np.eye(4)
    )
    return _report(matrix, s.normR2, tol)


def forbidden_pattern(eigenvalues, tol: float) -> int | None:
    """Match the forbidden patterns: three equal nonzero Ricci eigenvalues and
    one zero.  Returns the pattern id (1..4, by the position of the zero:
    zero in slot 4 -> 1, slot 3 -> 2, slot 2 -> 3, slot 1 -> 4) or None.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (4,):
        raise ValueError("expected four eigenvalues")
    s = max(1.0, float(np.abs(lam).max()))
    thresh = tol * s
    for zero_pos in range(4):
        rest = np.delete(lam, zero_pos)
        if (
            abs(lam[zero_pos]) <= thresh
            and np.abs(rest - rest.mean()).max() <= thresh
            and np.all(np.abs(rest) > thresh)
        ):
            return 4 - zero_pos
    return None
