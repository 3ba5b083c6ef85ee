"""Eigenframes, multiplicity patterns, trig-polynomial maximization, the frame
penalty, sign-case classification and the generalized Singer-Thorpe search."""

import itertools
import math

import numpy as np
import pytest

import stframe as sf
from stframe.errors import (
    CaseRelationViolated,
    DegenerateFit,
    NoConvergence,
    NotSTFrame,
    NotWeaklyEinstein,
    SearchFailed,
)
from stframe.frames import MIXED_TRIPLES, PLANE_PAIRS, SIGN_CASES, penalty_tolerance

from conftest import WEAKLY_EINSTEIN_GALLERY, loop_ricci, loop_rotate, st_construction


# --- eigensolver --------------------------------------------------------------

def test_sym_eigen_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.normal(size=(4, 4))
        m = a + a.T
        eig, frame = sf.sym_eigen(m)
        expected = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.abs(eig - expected).max() < 1e-10
        # rows diagonalize m with the returned eigenvalues
        d = frame.matrix @ m @ frame.matrix.T
        assert np.abs(d - np.diag(eig)).max() < 1e-9
        assert frame.orientation == 1


def test_sym_eigen_handles_degenerate_spectra():
    eig, frame = sf.sym_eigen(np.diag([2.0, 2.0, 2.0, 2.0]))
    assert np.abs(eig - 2.0).max() == 0.0
    assert frame.orientation == 1


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(NoConvergence):
        sf.sym_eigen(np.arange(16.0).reshape(4, 4))
    with pytest.raises(NoConvergence):
        sf.sym_eigen(np.full((4, 4), np.nan))


# --- multiplicity patterns ----------------------------------------------------

def test_multiplicity_pattern_tags():
    cases = {
        (1.0, 1.0, 1.0, 1.0): "I",
        (3.0, 2.0, 2.0, 1.0): "II",
        (2.0, 2.0, 1.0, 1.0): "III",
        (2.0, 2.0, 2.0, 1.0): "IV",
        (4.0, 3.0, 2.0, 1.0): "V",
    }
    for lam, tag in cases.items():
        assert sf.multiplicity_pattern(lam, 1e-6).tag == tag


def test_multiplicity_pattern_canonical_order_moves_pair_first():
    # pair sits in the middle of the sorted spectrum
    p = sf.multiplicity_pattern((3.0, 1.0, 1.0, -2.0), 1e-6)
    assert p.tag == "II"
    assert p.canonical_order == (1, 2, 0, 3)
    p = sf.multiplicity_pattern((1.0, -1.0, -1.0, -3.0), 1e-6)
    assert p.canonical_order == (1, 2, 0, 3)


def test_multiplicity_pattern_canonical_order_moves_triple_first():
    p = sf.multiplicity_pattern((3.0, 1.0, 1.0, 1.0), 1e-6)
    assert p.tag == "IV"
    assert p.canonical_order == (1, 2, 3, 0)


def test_ricci_spectrum_of_gallery_tensor():
    R, meta = sf.gallery("example4", a=1.0, b=0.0)
    spec = sf.ricci_spectrum(R)
    assert np.abs(spec.eigenvalues - np.asarray(meta["eigenvalues"])).max() < 1e-10
    assert spec.pattern.tag == "II"


# --- penalty ------------------------------------------------------------------

def test_st_penalty_zero_in_adapted_frame():
    R = sf.surface_product(1.0, -1.0)
    assert sf.st_penalty(R, sf.identity_frame()) == 0.0


def test_st_penalty_positive_in_generic_frame():
    R = sf.surface_product(1.0, -1.0)
    F = sf.random_frame(np.random.default_rng(8))
    assert sf.st_penalty(R, F) > 1e-4


def _explicit_penalty(comp, scale):
    raw = sum(comp[i, j, j, k] ** 2 for i, j, k in MIXED_TRIPLES)
    raw += sum(
        (comp[i, j, i, j] ** 2 - comp[k, l, k, l] ** 2) ** 2
        for (i, j), (k, l) in PLANE_PAIRS
    )
    return raw / scale ** 4


def test_st_penalty_counts_all_terms():
    R = sf.random_curvature(41)
    assert len(MIXED_TRIPLES) == 24
    got = sf.st_penalty(R, sf.identity_frame())
    assert got == pytest.approx(_explicit_penalty(R.comp, R.scale), rel=1e-12)


def test_st_penalty_in_random_frame_matches_loop_rotation():
    R = sf.random_curvature(43)
    for seed in (10, 11, 12):
        F = sf.random_frame(np.random.default_rng(seed))
        expected = _explicit_penalty(loop_rotate(R.comp, F.matrix), R.scale)
        assert sf.st_penalty(R, F) == pytest.approx(expected, rel=1e-12)


# --- trigonometric interpolation ---------------------------------------------

_THREE = (0.0, math.pi / 4, math.pi / 2)
_FIVE = (0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2)


def brute_force_max(fun):
    grid = np.linspace(-math.pi, math.pi, 200001)
    return float(grid[np.argmax([fun(t) for t in grid])])


def test_trig_fit_recovers_frequency_two_maximum():
    b, c = 0.7, -0.4

    def fun(t):
        return 1.0 + b * math.cos(2 * t) + c * math.sin(2 * t)

    t = sf.trig_fit_extremum([fun(0.0), fun(math.pi / 4), fun(math.pi / 2)])
    assert fun(t) == pytest.approx(1.0 + math.hypot(b, c), abs=1e-9)


def _seeded_coefficients(seed, five_sample):
    a, b, c, d, e = np.random.default_rng(seed).uniform(-1.0, 1.0, size=5)
    return (a, b, c, d, e) if five_sample else (a, b, c, 0.0, 0.0)


@pytest.mark.parametrize(
    "coef, t_max",
    [
        pytest.param((0.3, -0.5, 0.2, 0.8, -0.1), None, id="mixed"),
        # -cos t: the maximum sits on the endpoint pi
        pytest.param((0.0, 0.0, 0.0, -1.0, 0.0), math.pi, id="minus-cos"),
        *(pytest.param(_seeded_coefficients(s, False), None, id=f"three-{s}") for s in range(3)),
        *(pytest.param(_seeded_coefficients(s, True), None, id=f"five-{s}") for s in range(3, 7)),
    ],
)
def test_trig_fit_recovers_mixed_frequency_maximum(coef, t_max):
    a, b, c, d, e = coef

    def fun(t):
        return a + b * math.cos(2 * t) + c * math.sin(2 * t) + d * math.cos(t) + e * math.sin(t)

    angles = _FIVE if d or e else _THREE
    t = sf.trig_fit_extremum([fun(x) for x in angles])
    assert -math.pi < t <= math.pi
    tol = 1e-9 * max(1.0, *(abs(x) for x in coef))
    assert fun(t) >= fun(brute_force_max(fun)) - tol
    if t_max is not None:
        assert t == pytest.approx(t_max, abs=1e-12)


def test_trig_fit_tie_break_prefers_smaller_angle():
    # pure cos(2t): maxima at 0 and pi; tie resolved at 0
    t = sf.trig_fit_extremum([2.0, 1.0, 0.0])
    assert t == pytest.approx(0.0, abs=1e-9)


def test_trig_fit_degenerate_raises_with_zero_angle():
    with pytest.raises(DegenerateFit) as exc:
        sf.trig_fit_extremum([1.0, 1.0, 1.0])
    assert exc.value.t_star == 0.0
    with pytest.raises(ValueError):
        sf.trig_fit_extremum([1.0, 2.0])


# --- sign-case classification -------------------------------------------------

def test_classify_rejects_non_st_frame():
    R = sf.surface_product(1.0, -1.0)
    F = sf.random_frame(np.random.default_rng(9))
    with pytest.raises(NotSTFrame):
        sf.classify_sign_cases(R, F)


def test_classify_opposite_surfaces():
    R = sf.surface_product(1.0, -1.0)
    out = sf.classify_sign_cases(R, sf.identity_frame())
    assert out.cases == ("ii", "vi", "vii", "viii")
    assert float(np.sum(out.eigenvalues)) == pytest.approx(0.0, abs=1e-12)


def test_classify_constant_curvature_is_case_i():
    R = sf.constant_curvature(1.0)
    out = sf.classify_sign_cases(R, sf.identity_frame())
    assert "i" in out.cases


def test_case_relation_violation_raises():
    # force the equal-plane sign pattern on a frame whose eigenvalues differ
    assert SIGN_CASES["i"].relation(1.0, 2.0, 3.0, 4.0) > 1.0
    assert SIGN_CASES["v"].relation(1.0, 2.0, 1.5, 1.5) == pytest.approx(0.0)
    assert SIGN_CASES["viii"].relation(1.0, 1.0, 1.0, 1.0) == pytest.approx(4.0)
    # an unknown case has no relation to check
    with pytest.raises(ValueError):
        sf.f_by_case([1.0, 2.0, 3.0, 4.0], "ix")


def test_f_by_case_checks_relation():
    with pytest.raises(CaseRelationViolated):
        sf.f_by_case([1.0, 2.0, 3.0, 4.0], "i")


# --- constructive search ------------------------------------------------------

def test_find_st_basis_requires_weakly_einstein():
    with pytest.raises(NotWeaklyEinstein):
        sf.find_st_basis(sf.surface_product(1.0, 2.0))


def test_find_st_basis_direct_path_on_adapted_tensor():
    R, _ = sf.gallery("example4", a=1.0, b=0.0)
    rep = sf.find_st_basis(R)
    assert rep.construction_path == "direct-eigenbasis"
    assert rep.penalty < penalty_tolerance(R)
    assert "v" in rep.sign_cases.cases
    assert rep.frame.orientation == 1


def test_find_st_basis_recovers_rotated_tensor():
    R, _ = sf.gallery("example4", a=1.0, b=0.5)
    Q = sf.random_frame(np.random.default_rng(7))
    rep = sf.find_st_basis(sf.rotate(R, Q))
    assert rep.penalty < penalty_tolerance(R)


def test_find_st_basis_pattern_ii_rotation(pattern_ii_tensor):
    rep = sf.find_st_basis(pattern_ii_tensor)
    assert rep.eigen.pattern.tag == "II"
    assert rep.construction_path == "closed-form"
    assert rep.penalty < penalty_tolerance(pattern_ii_tensor)


def test_find_st_basis_pattern_iii_rotation(pattern_iii_tensor):
    rep = sf.find_st_basis(pattern_iii_tensor)
    assert rep.eigen.pattern.tag == "III"
    assert rep.construction_path == "closed-form"
    assert rep.penalty < penalty_tolerance(pattern_iii_tensor)


def test_find_st_basis_pattern_iv_rotation(pattern_iv_tensor):
    rep = sf.find_st_basis(pattern_iv_tensor)
    assert rep.eigen.pattern.tag == "IV"
    assert rep.construction_path == "closed-form"
    assert rep.penalty < penalty_tolerance(pattern_iv_tensor)


def test_find_st_basis_einstein_tensor_in_generic_frame():
    R = sf.rotate(sf.constant_curvature(1.0), sf.random_frame(np.random.default_rng(10)))
    rep = sf.find_st_basis(R)
    assert rep.eigen.pattern.tag == "I"
    assert rep.penalty < penalty_tolerance(R)
    assert "i" in rep.sign_cases.cases


#: per count of -1 entries in eps: the patterns its shapes take, each with
#: the number of -1 positions whose |a'_k| are set equal (none, two or three),
#: and the number of shapes drawn
_GENERATED_SHAPES = {
    0: (("I", 0, 200),),
    1: (("III", 0, 50),),
    2: (("V", 0, 50), ("II", 2, 50)),
    3: (("V", 0, 50), ("II", 2, 50), ("IV", 3, 50)),
}


def _draw_shape(rng, eps, equal):
    """(a', b) at unit size with |a'_k| equal on the first `equal` positions
    where eps is -1; redrawn until every gap between the ST frame's Ricci
    eigenvalues is either an intended equality or at least 0.1."""
    same = [k for k in range(3) if eps[k] < 0][:equal]
    while True:
        a = rng.uniform(0.3, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
        for k in same[1:]:
            a[k] = abs(a[same[0]]) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-1.0, 1.0, 3)
        b[2] = -b[0] - b[1]
        gaps = np.diff(np.sort(np.diag(loop_ricci(st_construction(a, eps, b).comp))))
        if np.all((gaps < 1e-12) | (gaps >= 0.1)):
            return a, b


@pytest.mark.parametrize(
    "eps",
    list(itertools.product((1, -1), repeat=3)),
    ids=lambda eps: "".join("+" if e > 0 else "-" for e in eps),
)
def test_find_st_basis_on_generated_tensors(eps):
    # a' and a'' = eps a' and b placed in a frame, scaled and randomly rotated;
    # eps = (1, 1, 1) gives generic Einstein tensors
    rng = np.random.default_rng(sum(2 ** k for k, e in enumerate(eps) if e < 0))
    for pattern, equal, count in _GENERATED_SHAPES[list(eps).count(-1)]:
        for _ in range(count):
            a, b = _draw_shape(rng, eps, equal)
            s = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            R = sf.rotate(st_construction(s * a, eps, s * b), sf.random_frame(rng))
            rep = sf.find_st_basis(R)
            assert rep.construction_path in ("direct-eigenbasis", "closed-form")
            assert rep.penalty < penalty_tolerance(R)
            assert rep.eigen.pattern.tag == pattern
            f = sf.f_value(sf.st_vectors(R, rep.frame))
            assert f <= 1e-12 * R.scale ** 2  # f <= 0 up to rounding
            for case in rep.sign_cases.cases:
                f_case = sf.f_by_case(rep.sign_cases.eigenvalues, case)
                assert f_case == pytest.approx(f, abs=1e-9 * R.scale ** 2)


def test_find_st_basis_near_einstein_stays_closed_form():
    # a Ricci split of 2e-7 reads as pattern I, so the Lambda+ x Lambda- block
    # is not quite zero on its zero triple: the two eigenbases must be paired
    # so that what is left of it stays on the diagonal
    a, b = np.array([1e-7, 0.6, -0.8]), np.array([0.3, -0.5, 0.2])
    rng = np.random.default_rng(4)
    for _ in range(5):
        R = sf.rotate(st_construction(a, (-1, 1, 1), b), sf.random_frame(rng))
        rep = sf.find_st_basis(R)
        assert rep.eigen.pattern.tag == "I"
        assert rep.construction_path == "closed-form"
        assert rep.penalty < penalty_tolerance(R)


def test_find_st_basis_result_frame_is_oriented():
    for name, params in WEAKLY_EINSTEIN_GALLERY[:4]:
        R, _ = sf.gallery(name, **params)
        rep = sf.find_st_basis(R)
        assert rep.frame.orientation == 1


def test_find_st_basis_is_deterministic():
    R, _ = sf.gallery("example-pm-c", c=1.0)
    Q = sf.random_frame(np.random.default_rng(5))
    Rr = sf.rotate(R, Q)
    a = sf.find_st_basis(Rr, seed=3)
    b = sf.find_st_basis(Rr, seed=3)
    assert np.array_equal(a.frame.matrix, b.frame.matrix)
    assert a.penalty == b.penalty


def test_generic_fallback_fails_on_incompatible_tensor():
    R = sf.surface_product(1.0, 2.0)
    # not weakly Einstein: no generalized frame exists and the minimizer
    # stalls well above the feasibility threshold on every start
    _, best, per_start = sf.generic_st_fallback(R, n_starts=5, seed=0)
    assert best > 1e-6
    assert len(per_start) == 5


def test_search_failure_carries_diagnostics():
    try:
        sf.find_st_basis(sf.surface_product(1.0, 2.0), tol=1.0)
    except SearchFailed as e:
        assert e.best_penalty > 1e-6
        assert len(e.diagnostics) >= 1
    else:  # pragma: no cover
        pytest.fail("expected SearchFailed")
