"""Dense 4D algebraic curvature tensors, contractions and frame changes.

Conventions follow R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_[X,Y] Z with
components R_ijkl = g(R(e_i,e_j)e_k, e_l) in an orthonormal frame; with this
sign the sectional curvature of the plane (e_i, e_j) equals R_ijji.  The
convention is pinned by a unit test reproducing the solvable-group tensor with
Ricci eigenvalues (-8, 0, 2, -2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import FrameNotOrthogonal, SymmetryViolation

DIM = 4

_FRAME_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


_EYE = _frozen(np.eye(DIM))
_max_reduce = np.maximum.reduce  # ndarray.max() without its Python wrapper, NaN included


# The LAPACK gufuncs that np.linalg.eigh and np.linalg.det call, without their
# Python wrappers, and the BLAS-backed C functions that np.dot and np.vdot
# dispatch to, without numpy's __array_function__ (NEP 18) dispatch layer:
# the same bits, cheaper a call.
# tests/test_frames.py::test_lapack_seam_equals_numpy_bit_for_bit pins all four.
# Where LAPACK fails, eigh_lo fills its outputs with NaN (and numpy warns of
# an invalid value) instead of raising LinAlgError; frames._checked_eigh turns
# the NaN into NoConvergence.

_dot = np.dot._implementation
_vdot = np.vdot._implementation


def _eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(M): ascending eigenvalues and eigenvector columns."""
    return _umath_linalg.eigh_lo(M, signature="d->dd")


def _det(M):
    """np.linalg.det(M), of one matrix or of a stack."""
    return _umath_linalg.det(M, signature="d->d")


@dataclass(frozen=True, eq=False)
class Curvature4:
    """All 256 components of an algebraic curvature tensor at a point.

    Construct through make_curvature or project_to_curvature; the pair
    antisymmetries and the pair-exchange symmetry hold exactly, the first
    Bianchi identity to construction tolerance.
    """

    comp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comp", _frozen(self.comp))

    @property
    def scale(self) -> float:
        """Tolerance scale s = max |R_ijkl|, and 1 for the zero tensor."""
        return float(_max_reduce(np.abs(self.comp), axis=None)) or 1.0


@dataclass(frozen=True, eq=False)
class Frame4:
    """Orthonormal frame: rows are the new frame vectors in reference coordinates.

    One reduction |m m^T - I| checks orthonormality and finiteness (a NaN or
    an infinite entry makes the diagonal of m m^T non-finite)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        err = _max_reduce(np.abs(m @ m.T - _EYE), axis=None) if m.shape == (DIM, DIM) else np.nan
        if not err <= _FRAME_TOL * 10:
            if m.shape != (DIM, DIM) or not np.isfinite(m).all():
                raise FrameNotOrthogonal("frame must be a finite 4x4 matrix")
            raise FrameNotOrthogonal(f"frame not orthogonal: |F F^T - I| = {err:.3e}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def orientation(self) -> int:
        return 1 if _det(self.matrix) > 0 else -1


def identity_frame() -> Frame4:
    return Frame4(np.eye(DIM))


def compose(g: Frame4, f: Frame4) -> Frame4:
    """Frame obtained by applying g on top of f (rotate(rotate(R,f),g) = rotate(R, compose(g,f)))."""
    return Frame4(g.matrix @ f.matrix)


def random_frame(rng: np.random.Generator) -> Frame4:
    """Seeded random special-orthogonal frame (det +1)."""
    q, r = np.linalg.qr(rng.normal(size=(DIM, DIM)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [2, 3]] = q[:, [3, 2]]
    return Frame4(q.T)


class ScalarSummary(NamedTuple):
    normR2: float
    normRho2: float
    tau: float


def _pair_symmetrize(raw: np.ndarray) -> np.ndarray:
    """Enforce the pair antisymmetries and the pair-exchange symmetry exactly."""
    t = 0.25 * (
        raw
        - raw.transpose(1, 0, 2, 3)
        - raw.transpose(0, 1, 3, 2)
        + raw.transpose(1, 0, 3, 2)
    )
    return 0.5 * (t + t.transpose(2, 3, 0, 1))


def _bianchi_sum(t: np.ndarray) -> np.ndarray:
    return t + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)


def make_curvature(raw: np.ndarray) -> Curvature4:
    """Validate a raw 4x4x4x4 array as an algebraic curvature tensor.

    Raises SymmetryViolation naming the failed identity, the worst index
    tuple and its magnitude.  On success the pair symmetries are re-enforced
    exactly by symmetrization.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (DIM,) * 4:
        raise SymmetryViolation("shape", raw.shape, float("nan"))
    # max |R_ijkl| is both the finiteness test (NaN and inf make it
    # non-finite) and the tolerance's scale
    scale = float(_max_reduce(np.abs(raw), axis=None))
    if not scale < math.inf:
        raise SymmetryViolation("finiteness", (), float("nan"))
    tol = 1e-10 * scale
    checks = [
        ("antisymmetry in first pair", raw + raw.transpose(1, 0, 2, 3)),
        ("antisymmetry in last pair", raw + raw.transpose(0, 1, 3, 2)),
        ("pair-exchange symmetry", raw - raw.transpose(2, 3, 0, 1)),
        ("first Bianchi identity", _bianchi_sum(raw)),
    ]
    for name, resid in checks:
        worst = _max_reduce(np.abs(resid), axis=None)
        if worst > tol:
            idx = np.unravel_index(np.abs(resid).argmax(), resid.shape)
            raise SymmetryViolation(name, tuple(int(i) for i in idx), float(worst))
    return Curvature4(_pair_symmetrize(raw))


def project_to_curvature(raw: np.ndarray) -> Curvature4:
    """Orthogonal projection of an arbitrary array onto algebraic curvature tensors.

    Antisymmetrizes both pairs, symmetrizes pair exchange, then removes the
    totally alternating part to enforce the first Bianchi identity.  Idempotent
    and the identity on inputs that already satisfy the invariants.
    """
    raw = np.asarray(raw, dtype=float)
    t = _pair_symmetrize(raw)
    t = t - _bianchi_sum(t) / 3.0
    return Curvature4(t)


#: (16, 256) map from the flat components to the flat Ricci tensor, already
#: symmetrized, 0.5 (R_aija + R_ajia): rows (i, j) and (j, i) are equal
_RICCI = _frozen(0.5 * (
    np.einsum("ad,bi,cj->ijabcd", _EYE, _EYE, _EYE)
    + np.einsum("ad,bj,ci->ijabcd", _EYE, _EYE, _EYE)
).reshape(16, 256))


def ricci(R: Curvature4) -> np.ndarray:
    """Ricci tensor rho_ij = sum_a R_aija (symmetric 4x4); _dot is @'s BLAS call, cheaper."""
    return _dot(_RICCI, R.comp.reshape(256)).reshape(DIM, DIM)


def _rcheck(R: Curvature4) -> np.ndarray:
    """Rcheck_ij = sum_abc R_abci R_abcj = (M^T M)_ij, M = comp.reshape(64, 4); see ricci."""
    m = R.comp.reshape(-1, DIM)
    return _dot(m.T, m)


def _lrho(R: Curvature4, two_rho: np.ndarray) -> np.ndarray:
    """(Lrho)_ij = 2 sum_ab R_iabj rho_ab, given two_rho = 2 rho: one batched
    (16,) @ (4, 16, 4) product on the components as they lie, symmetrized."""
    lrho = two_rho.reshape(16) @ R.comp.reshape(DIM, 16, DIM)
    return 0.5 * (lrho + lrho.T)


def summary(R: Curvature4) -> ScalarSummary:
    """(|R|^2, |rho|^2, tau), with rho computed once."""
    rho = ricci(R)
    return ScalarSummary(
        normR2=float(_vdot(R.comp, R.comp)),
        normRho2=float(np.sum(rho * rho)),
        tau=float(np.trace(rho)),
    )


def derived_tensors(R: Curvature4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Rcheck, rhocheck, Lrho) with
    Rcheck_ij = sum_abc R_abci R_abcj, rhocheck = rho.rho,
    (Lrho)_ij = 2 sum_ab R_iabj rho_ab, with rho computed once.
    """
    rho = ricci(R)
    return _rcheck(R), rho @ rho, _lrho(R, 2.0 * rho)


def rotate(R: Curvature4, F: Frame4) -> Curvature4:
    """Components of R in the frame F: R'_ijkl = R(e'_i, e'_j, e'_k, e'_l)."""
    # k[(i, j), (a, b)] = m_ia m_jb, np.kron(m, m) bit for bit, acts on both
    # index pairs at once
    m = F.matrix
    k = (m[:, None, :, None] * m[None, :, None, :]).reshape(16, 16)
    return Curvature4((k @ R.comp.reshape(16, 16) @ k.T).reshape((DIM,) * 4))
