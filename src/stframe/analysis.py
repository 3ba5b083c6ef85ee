"""Residuals for the universal 4D curvature identity and the Einstein /
weakly-Einstein conditions, plus the forbidden Ricci-eigenvalue patterns."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import _EYE, Curvature4, _dot, _lrho, _max_reduce, _rcheck, _vdot, ricci

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False, init=False)
class ResidualReport:
    matrix: np.ndarray
    max_abs: float
    relative: float
    passes: bool
    tol: float

    def __init__(self, matrix, max_abs, relative, passes, tol):
        # one update of the instance dict, not the generated __init__'s
        # object.__setattr__ per field; setting a field still raises
        self.__dict__.update(matrix=matrix, max_abs=max_abs, relative=relative,
                             passes=passes, tol=tol)


def _report(matrix: np.ndarray, norm: float, tol: float) -> ResidualReport:
    """norm is the power of |R| that matches the residual's degree in R, so
    relative, and with it the verdict, does not depend on the scale of R;
    the residuals of the zero tensor are zero."""
    max_abs = float(_max_reduce(np.abs(matrix), axis=None))
    relative = max_abs / norm if max_abs else 0.0
    return ResidualReport(matrix, max_abs, relative, relative < tol, tol)


def _trace(rho: np.ndarray) -> float:
    """rho.trace() bit for bit on floats: numpy adds the diagonal in order onto +0.0."""
    d0, d1, d2, d3 = rho.diagonal().tolist()
    return 0.0 + d0 + d1 + d2 + d3


def _reduced_matrix(R: Curvature4) -> np.ndarray:
    """2 rho.rho + Lrho - tau rho - |rho|^2 g + (tau^2/4) g, with rho and 2 rho computed once."""
    rho = ricci(R)
    two_rho, tau = 2.0 * rho, _trace(rho)
    return (
        _dot(two_rho, rho)
        + _lrho(R, two_rho)
        - tau * rho
        - (float(_vdot(rho, rho)) - 0.25 * tau ** 2) * _EYE
    )


def identity_residual(R: Curvature4, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residual of the universal identity
    Rcheck - 2 rhocheck - Lrho + tau rho - (|R|^2 - 4|rho|^2 + tau^2)/4 g = 0,
    which vanishes for every algebraic curvature tensor in dimension 4; it is
    the weakly-Einstein residual minus the reduced one.
    """
    normR2 = float(_vdot(R.comp, R.comp))
    matrix = _rcheck(R) - 0.25 * normR2 * _EYE - _reduced_matrix(R)
    return _report(matrix, normR2, tol)


def weakly_einstein_residual(R: Curvature4, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residual of Rcheck_ij = |R|^2/4 delta_ij; passing means weakly Einstein."""
    normR2 = float(_vdot(R.comp, R.comp))
    return _report(_rcheck(R) - 0.25 * normR2 * _EYE, normR2, tol)


def einstein_residual(R: Curvature4, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residual of rho = (tau/4) g; passing means Einstein."""
    rho = ricci(R)
    matrix = rho - 0.25 * _trace(rho) * _EYE
    return _report(matrix, math.sqrt(_vdot(R.comp, R.comp)), tol)


def reduced_identity_residual(R: Curvature4, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residual of the identity obtained by subtracting the weakly-Einstein
    condition from the universal identity:
    2 rho.rho + Lrho - tau rho - |rho|^2 g + (tau^2/4) g = 0.
    Passes exactly when weakly_einstein_residual passes.
    """
    return _report(_reduced_matrix(R), float(_vdot(R.comp, R.comp)), tol)


def forbidden_pattern(eigenvalues, tol: float) -> int | None:
    """Match the forbidden patterns: three equal nonzero Ricci eigenvalues and
    one zero, judged against tol * max|lambda| (a match has max|lambda| > 0).
    Returns the pattern id (1..4, by the position of the zero: zero in slot
    4 -> 1, slot 3 -> 2, slot 2 -> 3, slot 1 -> 4) or None.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (4,):
        raise ValueError("expected four eigenvalues")
    # four floats: plain Python is cheaper than numpy here
    lam = lam.tolist()
    thresh = tol * max(map(abs, lam))
    for zero_pos, zero in enumerate(lam):
        if abs(zero) <= thresh:
            rest = lam[:zero_pos] + lam[zero_pos + 1:]
            mean = sum(rest) / 3.0
            if thresh < min(map(abs, rest)) and max(abs(x - mean) for x in rest) <= thresh:
                return 4 - zero_pos
    return None
