"""Shared fixtures: independent plain-loop contraction oracles and frozen
curvature tensors with known structure.

The oracle functions deliberately avoid numpy vectorized contractions so that
test expectations are computed by a second, independent code path.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import stframe as sf


# --- independent contraction oracles -----------------------------------------

def loop_ricci(comp: np.ndarray) -> np.ndarray:
    rho = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            rho[i, j] = sum(comp[a, i, j, a] for a in range(4))
    return rho


def loop_norm_r2(comp: np.ndarray) -> float:
    total = 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    total += comp[i, j, k, l] ** 2
    return total


def loop_rcheck(comp: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            out[i, j] = sum(
                comp[a, b, c, i] * comp[a, b, c, j]
                for a in range(4)
                for b in range(4)
                for c in range(4)
            )
    return out


def loop_lrho(comp: np.ndarray) -> np.ndarray:
    rho = loop_ricci(comp)
    out = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            out[i, j] = 2.0 * sum(
                comp[i, a, b, j] * rho[a, b] for a in range(4) for b in range(4)
            )
    return out


def loop_rotate(comp: np.ndarray, m: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4, 4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    out[i, j, k, l] = sum(
                        m[i, a] * m[j, b] * m[k, c] * m[l, d] * comp[a, b, c, d]
                        for a in range(4)
                        for b in range(4)
                        for c in range(4)
                        for d in range(4)
                    )
    return out


# --- frame-free invariant oracle ---------------------------------------------

def _permutation_sign(p) -> int:
    """Sign of a permutation of (0, 1, 2, 3), and 0 when an index repeats."""
    if len(set(p)) < 4:
        return 0
    inversions = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
    return -1 if inversions % 2 else 1


#: the basis e_a ^ e_b (a < b) of Lambda^2, and orthonormal bases of Lambda-
#: and Lambda+ in it: the -1 and the +1 eigenvectors of the Hodge star
#: *(e_a ^ e_b) = sum_{c < d} eps_abcd e_c ^ e_d
_PAIRS = [(a, b) for a in range(4) for b in range(a + 1, 4)]
_HODGE_STAR = np.array(
    [[_permutation_sign((a, b, c, d)) for a, b in _PAIRS] for c, d in _PAIRS], dtype=float
)
_LAMBDA_MINUS, _LAMBDA_PLUS = np.split(np.linalg.eigh(_HODGE_STAR)[1], 2, axis=1)


def frame_free_invariants(comp: np.ndarray) -> tuple[float, float, float]:
    """(f, chi density, p1 density) of a weakly-Einstein tensor, read without
    a frame: f = -|rho_0|^2 / 4 with rho_0 = rho - tau g / 4 the traceless
    Ricci tensor, the Chern-Gauss-Bonnet integrand
    (|R|^2 - 4 |rho|^2 + tau^2) / (32 pi^2), and the signature-formula
    integrand (|A|^2 - |C|^2) / (4 pi^2), with A and C the Lambda+ Lambda+ and
    Lambda- Lambda- blocks of the curvature operator."""
    rho = loop_ricci(comp)
    tau = sum(rho[i, i] for i in range(4))
    rho0 = rho - tau / 4 * np.eye(4)
    f = -float(np.sum(rho0 * rho0)) / 4
    chi = (loop_norm_r2(comp) - 4 * float(np.sum(rho * rho)) + tau ** 2) / (32 * math.pi ** 2)
    op = np.array([[comp[a, b, c, d] for c, d in _PAIRS] for a, b in _PAIRS])
    A = _LAMBDA_PLUS.T @ op @ _LAMBDA_PLUS
    C = _LAMBDA_MINUS.T @ op @ _LAMBDA_MINUS
    p1 = (float(np.sum(A * A)) - float(np.sum(C * C))) / (4 * math.pi ** 2)
    return f, chi, p1


# --- exact oracle ----------------------------------------------------------------

def exact_lie_group_curvature(c) -> np.ndarray:
    """Exact components R_ijkl of the left-invariant metric whose orthonormal
    frame has the rational structure constants c: the Koszul formula of
    lie_group_curvature run on fractions.Fraction object arrays."""
    c = np.array(c, dtype=object) + Fraction(0)
    gamma = (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0)) * Fraction(1, 2)
    return (
        np.einsum("jkm,iml->ijkl", gamma, gamma)
        - np.einsum("ikm,jml->ijkl", gamma, gamma)
        - np.einsum("ijm,mkl->ijkl", c, gamma)
    )


def exact_lie_group_residuals(c) -> tuple[np.ndarray, np.ndarray]:
    """Exact weakly-Einstein and Einstein residual matrices
    (Rcheck - |R|^2/4 g, rho - tau/4 g) of exact_lie_group_curvature(c)."""
    comp = exact_lie_group_curvature(c)
    m = comp.reshape(64, 4)
    norm_r2 = sum(x * x for x in comp.flat)
    rho = np.einsum("aija->ij", comp)
    tau = sum(rho.diagonal())
    eye = np.eye(4, dtype=int).astype(object)
    return m.T @ m - eye * (norm_r2 / 4), rho - eye * (tau / 4)


# --- frozen tensor fixtures ---------------------------------------------------

def symmetry_orbit(i, j, k, l) -> tuple:
    """((index tuple, sign), ...): the components that the pair
    antisymmetries and the pair exchange tie to R_ijkl, with their signs."""
    return (
        ((i, j, k, l), 1),
        ((j, i, k, l), -1),
        ((i, j, l, k), -1),
        ((j, i, l, k), 1),
        ((k, l, i, j), 1),
        ((l, k, i, j), -1),
        ((k, l, j, i), -1),
        ((l, k, j, i), 1),
    )


def curvature_from_components(entries: dict) -> sf.Curvature4:
    """Build a Curvature4 from 1-based independent components {(i,j,k,l): v},
    filling the full symmetry orbit of each entry."""
    comp = np.zeros((4, 4, 4, 4))
    for (i, j, k, l), v in entries.items():
        for idx, s in symmetry_orbit(i - 1, j - 1, k - 1, l - 1):
            comp[idx] = s * v
    return sf.make_curvature(comp)


#: 1-based planes of a' and a'' and index tuples of b in a generalized
#: Singer-Thorpe frame
ST_A_PRIME_PLANES = ((1, 2), (1, 3), (1, 4))
ST_A_DPRIME_PLANES = ((3, 4), (2, 4), (2, 3))
ST_B_INDICES = ((1, 2, 3, 4), (1, 3, 4, 2), (1, 4, 2, 3))


def st_construction(a_prime, eps, b) -> sf.Curvature4:
    """Tensor whose identity frame is a generalized Singer-Thorpe frame with
    a' = a_prime, a'' = eps * a_prime and the given b (b1 + b2 + b3 = 0)."""
    entries = dict(zip(ST_B_INDICES, b))
    for (i, j), (k, l), a, e in zip(ST_A_PRIME_PLANES, ST_A_DPRIME_PLANES, a_prime, eps):
        entries[(i, j, i, j)] = a
        entries[(k, l, k, l)] = e * a
    return curvature_from_components(entries)


def fubini_study() -> sf.Curvature4:
    """CP^2 with the Fubini-Study metric of holomorphic sectional curvature 4:
    R_ijkl = d_jk d_il - d_ik d_jl + J_kj J_li - J_ki J_lj + 2 J_ij J_lk, with J
    the complex structure J e1 = e2, J e3 = e4 (Kobayashi & Nomizu II, ch. IX).
    Its sectional curvature is 4 on complex lines and 1 on totally real
    planes, and the volume of CP^2 is pi^2 / 2."""
    d, J = np.eye(4), np.zeros((4, 4))
    J[1, 0] = J[3, 2] = 1.0
    J[0, 1] = J[2, 3] = -1.0
    return sf.make_curvature(
        np.einsum("jk,il->ijkl", d, d) - np.einsum("ik,jl->ijkl", d, d)
        + np.einsum("kj,li->ijkl", J, J) - np.einsum("ki,lj->ijkl", J, J)
        + 2 * np.einsum("ij,lk->ijkl", J, J)
    )


#: per count of -1 entries in eps: the patterns its shapes take, each with
#: the number of -1 positions whose |a'_k| are set equal (none, two or three),
#: whether a'_1 + a'_2 + a'_3 = 0 (Ricci-flat, for eps = (1, 1, 1)) and the
#: number of shapes drawn
GENERATED_SHAPES = {
    0: (("I", 0, False, 150), ("I", 0, True, 50)),
    1: (("III", 0, False, 50),),
    2: (("V", 0, False, 50), ("II", 2, False, 50)),
    3: (("V", 0, False, 50), ("II", 2, False, 50), ("IV", 3, False, 50)),
}


def draw_st_shape(rng, eps, equal, flat):
    """(a', b) at unit size with |a'_k| equal on the first `equal` positions
    where eps is -1, and a'_3 = -a'_1 - a'_2 when flat; redrawn until every
    gap between the ST frame's Ricci eigenvalues is either an intended
    equality or at least 0.1."""
    same = [k for k in range(3) if eps[k] < 0][:equal]
    while True:
        a = rng.uniform(0.3, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
        for k in same[1:]:
            a[k] = abs(a[same[0]]) * rng.choice([-1.0, 1.0])
        if flat:
            a[2] = -a[0] - a[1]
        b = rng.uniform(-1.0, 1.0, 3)
        b[2] = -b[0] - b[1]
        gaps = np.diff(np.sort(np.diag(loop_ricci(st_construction(a, eps, b).comp))))
        if np.all((gaps < 1e-12) | (gaps >= 0.1)):
            return a, b


#: weakly-Einstein tensor whose Ricci spectrum has one repeated pair and two
#: distinct simple eigenvalues, and nonzero mixed components in its eigenbasis
#: (the closed form with a nonzero pair cluster)
PATTERN_II_COMPONENTS = {
    (1, 2, 1, 2): -1.0,
    (1, 2, 3, 4): -0.3436927825249169,
    (1, 3, 1, 3): -0.5,
    (1, 3, 1, 4): 0.4,
    (1, 3, 2, 4): 0.027354339114440795,
    (1, 4, 1, 4): 0.5,
    (1, 4, 2, 3): 0.37104712163935766,
    (2, 3, 2, 3): -0.49999999999999994,
    (2, 3, 2, 4): -0.4000000000000001,
    (2, 4, 2, 4): 0.49999999999999994,
    (3, 4, 3, 4): 1.0,
}

#: weakly-Einstein tensor with two repeated Ricci eigenvalue pairs and nonzero
#: mixed components in its eigenbasis (the closed form with a zero cluster)
PATTERN_III_COMPONENTS = {
    (1, 2, 1, 2): -1.0,
    (1, 2, 3, 4): 0.8133320710697904,
    (1, 3, 1, 3): 0.5777999530207595,
    (1, 3, 1, 4): 0.4,
    (1, 3, 2, 3): 0.3,
    (1, 3, 2, 4): 0.18857443346463837,
    (1, 4, 1, 4): -0.08051112725002718,
    (1, 4, 2, 3): -0.624757637605152,
    (1, 4, 2, 4): -0.3000000000000001,
    (2, 3, 2, 3): -0.08051112725002701,
    (2, 3, 2, 4): -0.39999999999999986,
    (2, 4, 2, 4): 0.5777999530207594,
    (3, 4, 3, 4): 1.0,
}

#: weakly-Einstein tensor with a triple Ricci eigenvalue and nonzero mixed
#: components in its eigenbasis (the closed form with a nonzero triple cluster)
PATTERN_IV_COMPONENTS = {
    (1, 2, 1, 2): -0.5,
    (1, 2, 1, 4): -0.07500716082854879,
    (1, 2, 2, 4): 0.4,
    (1, 2, 3, 4): 0.11007647598666541,
    (1, 3, 1, 3): -0.5,
    (1, 3, 1, 4): 0.017518157221602944,
    (1, 3, 2, 4): 0.10340580809501349,
    (1, 3, 3, 4): -0.4,
    (1, 4, 1, 4): 0.5,
    (1, 4, 2, 3): -0.006670667891651924,
    (2, 3, 2, 3): -0.5,
    (2, 3, 2, 4): -0.017518157221602944,
    (2, 3, 3, 4): -0.07500716082854879,
    (2, 4, 2, 4): 0.5000000000000001,
    (3, 4, 3, 4): 0.5,
}


@pytest.fixture
def pattern_ii_tensor():
    return curvature_from_components(PATTERN_II_COMPONENTS)


@pytest.fixture
def pattern_iii_tensor():
    return curvature_from_components(PATTERN_III_COMPONENTS)


@pytest.fixture
def pattern_iv_tensor():
    return curvature_from_components(PATTERN_IV_COMPONENTS)


#: gallery entries that are weakly Einstein, as (name, params) pairs
WEAKLY_EINSTEIN_GALLERY = (
    ("example-pm-c", {"c": 1.0}),
    ("example-pm-c", {"c": 3.0}),
    ("example4", {"a": 1.0, "b": 0.0}),
    ("example4", {"a": 1.0, "b": 0.5}),
    ("example4", {"a": 2.0, "b": 0.0}),
    ("example4", {"a": 2.0, "b": 0.5}),
    ("example6", {"m": 2}),
    ("example6", {"m": 3}),
    ("example-products", {"c1": 1.0, "c2": 1.0}),
)
