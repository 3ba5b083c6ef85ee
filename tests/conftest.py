"""Shared fixtures: independent plain-loop contraction oracles and frozen
curvature tensors with known structure.

The oracle functions deliberately avoid numpy vectorized contractions so that
test expectations are computed by a second, independent code path.
"""

from __future__ import annotations

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


# --- frozen tensor fixtures ---------------------------------------------------

def curvature_from_components(entries: dict) -> sf.Curvature4:
    """Build a Curvature4 from 1-based independent components {(i,j,k,l): v},
    filling the full symmetry orbit of each entry."""
    comp = np.zeros((4, 4, 4, 4))
    for (i, j, k, l), v in entries.items():
        i, j, k, l = i - 1, j - 1, k - 1, l - 1
        for (a, b, c, d), s in (
            ((i, j, k, l), 1.0),
            ((j, i, k, l), -1.0),
            ((i, j, l, k), -1.0),
            ((j, i, l, k), 1.0),
            ((k, l, i, j), 1.0),
            ((l, k, i, j), -1.0),
            ((k, l, j, i), -1.0),
            ((l, k, j, i), 1.0),
        ):
            comp[a, b, c, d] = s * v
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
