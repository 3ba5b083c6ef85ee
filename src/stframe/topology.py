"""Gauss-Bonnet / Pontryagin integrand vectors in a generalized Singer-Thorpe
frame, the deficit f from the Ricci eigenvalues of a sign case, and the
Euler number / Pontryagin number / lower-bound round trip for
constant-integrand inputs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CaseRelationViolated, OrientationReversed, SymmetryViolation, ValidationError,
)
from .frames import SIGN_CASES, SIGN_TOLERANCE, _VECTORS_FLAT, _deficit, st_components
from .tensor import Curvature4, Frame4


@dataclass(frozen=True, eq=False)
class STVectors:
    """Plane-curvature and double-plane component vectors read off an oriented
    generalized Singer-Thorpe frame."""

    a_prime: np.ndarray   # (R'_1212, R'_1313, R'_1414)
    a_dprime: np.ndarray  # (R'_3434, R'_2424, R'_2323)
    b: np.ndarray         # (R'_1234, R'_1342, R'_1423)

    @property
    def a(self) -> np.ndarray:
        return 0.5 * (self.a_prime + self.a_dprime)


@dataclass(frozen=True)
class InvariantReport:
    chi_density: float
    p1_density: float
    f: float
    volume: float | None = None
    chi: float | None = None
    p1: float | None = None
    C: float | None = None
    bound_plus_ok: bool | None = None
    bound_minus_ok: bool | None = None
    hitchin_ok: bool | None = None


def st_vectors(R: Curvature4, F: Frame4) -> STVectors:
    """Read the a', a'', b vectors off the components of R in F.

    Requires an ST frame with orientation +1 (the b vector flips sign under
    orientation reversal).  Raises SymmetryViolation when b breaks the
    first-Bianchi constraint b1+b2+b3 = 0.
    """
    if F.orientation < 0:
        raise OrientationReversed("b is only defined in a det +1 frame")
    return vectors_from_components(st_components(R, F), R.scale)


def vectors_from_components(c: np.ndarray, scale: float) -> STVectors:
    """st_vectors from the components c of a tensor of tolerance scale
    R.scale in an oriented ST frame, such as STReport.components."""
    a_prime, a_dprime, b = c.reshape(-1)[_VECTORS_FLAT]
    v = STVectors(a_prime=a_prime, a_dprime=a_dprime, b=b)
    bianchi = abs(float(v.b.sum()))
    if bianchi > 1e-10 * scale:
        # b1 + b2 + b3 is the Bianchi sum at index (0, 1, 2, 3)
        raise SymmetryViolation("first Bianchi identity", (0, 1, 2, 3), bianchi)
    return v


def f_value(v: STVectors) -> float:
    """Non-positive deficit f = |a|^2 - |a'|^2; zero exactly at Einstein points."""
    a = v.a
    return float(a @ a - v.a_prime @ v.a_prime)


def f_by_case(eigenvalues, case: str) -> float:
    """The deficit f = -|rho_0|^2 / 4 from the Ricci eigenvalues of a sign
    case, rho_0 the traceless Ricci tensor.

    The eigenvalues must be ordered as in the classifying frame.  The case's
    relation is checked to SIGN_TOLERANCE * max(1, max|lambda|), which ignores
    the tensor's scale: Ricci-flat noise eigenvalues fail it (CaseRelationViolated)
    above max|R| ~ 1e7.  A caller who holds R should read
    find_st_basis(R).sign_cases.f, one f for every case it admits at R's scale.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (4,):
        raise ValueError("expected four eigenvalues")
    if case not in SIGN_CASES:
        raise ValueError(f"unknown sign case {case!r}")
    scale = max(1.0, float(np.abs(lam).max()))
    if SIGN_CASES[case].relation(*lam) > SIGN_TOLERANCE * scale:
        raise CaseRelationViolated(f"eigenvalues violate the relation of case ({case})")
    return _deficit(lam)


def densities(v: STVectors) -> tuple[float, float]:
    """Pointwise Euler and Pontryagin integrands:
    chi density (<a',a''> + |b|^2) / (4 pi^2), p1 density <a'+a'', b> / (2 pi^2)."""
    chi_d = (float(v.a_prime @ v.a_dprime) + float(v.b @ v.b)) / (4 * math.pi ** 2)
    p1_d = float((v.a_prime + v.a_dprime) @ v.b) / (2 * math.pi ** 2)
    return chi_d, p1_d


def homogeneous_invariants(
    R: Curvature4, F: Frame4, volume: float | None = None
) -> InvariantReport:
    """Closed-form invariants for a constant-curvature-field input.

    With a caller-supplied total volume: chi, p1, the bound constant
    C = f * volume / (2 pi^2), both Theorem-C bound flags 2 chi +- p1 >= C and
    the Hitchin flag 2 chi >= 3 |sigma| with sigma = p1 / 3.
    """
    return invariants_from_vectors(st_vectors(R, F), R.scale, volume)


def invariants_from_vectors(
    v: STVectors, scale: float, volume: float | None = None
) -> InvariantReport:
    """homogeneous_invariants from ST vectors already read off the frame;
    scale is the tensor's tolerance scale R.scale, and the bound flags allow
    a slack of 1e-9 * scale^2 * volume.  A volume so large that chi, p1, C or
    the slack overflows raises ValidationError: every flag would pass."""
    chi_d, p1_d = densities(v)
    f = f_value(v)
    if volume is None:
        return InvariantReport(chi_density=chi_d, p1_density=p1_d, f=f)
    if volume <= 0:
        raise ValueError("volume must be positive")
    chi = chi_d * volume
    p1 = p1_d * volume
    C = f * volume / (2 * math.pi ** 2)
    slack = 1e-9 * scale ** 2 * volume
    if not all(map(math.isfinite, (chi, p1, C, slack))):
        raise ValidationError("volume", f"{volume:g} overflows chi, p1, C or the bound slack")
    return InvariantReport(
        chi_density=chi_d,
        p1_density=p1_d,
        f=f,
        volume=volume,
        chi=chi,
        p1=p1,
        C=C,
        bound_plus_ok=bool(2 * chi + p1 >= C - slack),
        bound_minus_ok=bool(2 * chi - p1 >= C - slack),
        hitchin_ok=bool(2 * chi >= abs(p1) - slack),
    )
