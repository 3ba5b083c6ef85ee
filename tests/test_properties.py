"""Hypothesis properties of the answer for one tensor, over randomly rotated
ST constructions of all eight sign tuples and all five Ricci patterns:
rotation, orientation reversal and scaling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stframe as sf
from stframe.topology import vectors_from_components

from conftest import GENERATED_SHAPES, draw_st_shape, st_construction

#: (eps, pattern, equal, flat) of every generated shape
SHAPES = [
    (eps, pattern, equal, flat)
    for eps in itertools.product((1, -1), repeat=3)
    for pattern, equal, flat, _ in GENERATED_SHAPES[eps.count(-1)]
]

#: about 1.5 ms an example; derandomized, so that a run is reproducible
PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

#: f, chi and p1 agree to this times max |R_ijkl|^2 (2.5e-14 was the worst
#: of 3,000 draws of each property, 2.6e-14 under rotation)
INVARIANT_TOL = 1e-12

shapes = st.sampled_from(SHAPES)
seeds = st.integers(0, 2 ** 32 - 1)


def rotated_shape(shape, seed):
    """A unit-size ST construction of the shape, randomly rotated."""
    eps, _, equal, flat = shape
    rng = np.random.default_rng(seed)
    a, b = draw_st_shape(rng, eps, equal, flat)
    return sf.rotate(st_construction(a, eps, b), sf.random_frame(rng))


def answer(R):
    """The frame report, then f and the chi and p1 densities read off it."""
    rep = sf.find_st_basis(R)
    v = vectors_from_components(rep.components, R.scale)
    return rep, sf.f_value(v), *sf.densities(v)


def verdicts(R):
    return tuple(
        check(R).passes
        for check in (sf.identity_residual, sf.einstein_residual, sf.weakly_einstein_residual)
    )


@PROPERTY_SETTINGS
@given(shape=shapes, seed=seeds, turn=seeds)
def test_rotation_keeps_pattern_cases_and_invariants(shape, seed, turn):
    R = rotated_shape(shape, seed)
    rep, f, chi, p1 = answer(R)
    turned, f_t, chi_t, p1_t = answer(sf.rotate(R, sf.random_frame(np.random.default_rng(turn))))
    assert rep.eigen.pattern.tag == turned.eigen.pattern.tag == shape[1]
    assert turned.sign_cases.cases == rep.sign_cases.cases
    tol = INVARIANT_TOL * R.scale ** 2
    assert f_t == pytest.approx(f, abs=tol)
    assert chi_t == pytest.approx(chi, abs=tol)
    assert p1_t == pytest.approx(p1, abs=tol)


@PROPERTY_SETTINGS
@given(shape=shapes, seed=seeds)
def test_orientation_reversal_keeps_f_chi_and_cases_and_flips_p1(shape, seed):
    R = rotated_shape(shape, seed)
    reflect = sf.Frame4(np.diag([1.0, 1.0, 1.0, -1.0]))  # e4 -> -e4
    assert reflect.orientation == -1
    rep, f, chi, p1 = answer(R)
    mirror, f_m, chi_m, p1_m = answer(sf.rotate(R, reflect))
    assert rep.eigen.pattern.tag == mirror.eigen.pattern.tag == shape[1]
    assert mirror.sign_cases.cases == rep.sign_cases.cases
    tol = INVARIANT_TOL * R.scale ** 2
    assert f_m == pytest.approx(f, abs=tol)
    assert chi_m == pytest.approx(chi, abs=tol)
    assert p1_m == pytest.approx(-p1, abs=tol)


@PROPERTY_SETTINGS
@given(shape=shapes, seed=seeds, exponent=st.floats(-12.0, 12.0))
def test_scaling_keeps_verdicts_and_cases_and_scales_invariants_quadratically(
    shape, seed, exponent
):
    lam = 10.0 ** exponent
    R = rotated_shape(shape, seed)
    S = sf.Curvature4(lam * R.comp)
    rep, f, chi, p1 = answer(R)
    scaled, f_s, chi_s, p1_s = answer(S)
    assert verdicts(S) == verdicts(R)
    assert scaled.eigen.pattern.tag == rep.eigen.pattern.tag == shape[1]
    assert scaled.sign_cases.cases == rep.sign_cases.cases
    tol = INVARIANT_TOL * S.scale ** 2
    assert f_s == pytest.approx(lam ** 2 * f, abs=tol)
    assert chi_s == pytest.approx(lam ** 2 * chi, abs=tol)
    assert p1_s == pytest.approx(lam ** 2 * p1, abs=tol)
