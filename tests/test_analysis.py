"""Universal identity, Einstein / weakly-Einstein residuals and forbidden
Ricci-eigenvalue patterns."""

from fractions import Fraction

import numpy as np
import pytest

import stframe as sf
from stframe.sources import example4_algebra

from conftest import exact_lie_group_residuals, loop_lrho, loop_norm_r2, loop_rcheck, loop_ricci


def loop_identity_residual(comp: np.ndarray) -> np.ndarray:
    """Independent plain-loop evaluation of the universal identity residual."""
    rho = loop_ricci(comp)
    rcheck = loop_rcheck(comp)
    lrho = loop_lrho(comp)
    tau = float(np.trace(rho))
    norm_r2 = loop_norm_r2(comp)
    norm_rho2 = float(np.sum(rho * rho))
    return (
        rcheck
        - 2.0 * rho @ rho
        - lrho
        + tau * rho
        - 0.25 * (norm_r2 - 4.0 * norm_rho2 + tau ** 2) * np.eye(4)
    )


def test_identity_residual_matches_loop_oracle():
    R = sf.random_curvature(31)
    rep = sf.identity_residual(R)
    assert np.abs(rep.matrix - loop_identity_residual(R.comp)).max() < 1e-12


def test_identity_residual_vanishes_on_random_tensors():
    for seed in range(25):
        rep = sf.identity_residual(sf.random_curvature(seed))
        assert rep.passes
        assert rep.relative < 1e-12


def test_identity_residual_vanishes_on_gallery():
    for name in sf.GALLERY_NAMES:
        R, _ = sf.gallery(name)
        assert sf.identity_residual(R).relative < 1e-12


def test_residual_report_fields_are_consistent():
    # at 1e-3, |R|^2 = 2e-5 is below 1: a max(1, |R|^2) floor would show here
    for R in (sf.surface_product(1.0, 2.0), sf.surface_product(1e-3, 2e-3)):
        rep = sf.weakly_einstein_residual(R, tol=1e-9)
        assert rep.max_abs == pytest.approx(float(np.abs(rep.matrix).max()))
        assert rep.relative == pytest.approx(rep.max_abs / sf.summary(R).normR2)
        assert rep.tol == 1e-9
        assert rep.passes == (rep.relative < 1e-9)


def test_weakly_einstein_residual_known_matrix():
    # two-surface product with Gauss curvatures 1 and 2
    rep = sf.weakly_einstein_residual(sf.surface_product(1.0, 2.0))
    assert np.abs(rep.matrix - np.diag([-3.0, -3.0, 3.0, 3.0])).max() < 1e-10
    assert not rep.passes


#: verdicts are scale-free: the same tensors, randomly rotated, at these scales
SCALES = (1e-90, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e90)


def _rotated(R):
    return sf.rotate(R, sf.random_frame(np.random.default_rng(12)))


@pytest.mark.parametrize("s", SCALES, ids=lambda s: f"{s:g}")
def test_weakly_einstein_residual_passes_on_opposite_surfaces(s):
    for c in (1.0, 3.0):
        rep = sf.weakly_einstein_residual(_rotated(sf.surface_product(c * s, -c * s)))
        assert rep.passes
        assert rep.relative < 1e-12
    assert not sf.weakly_einstein_residual(_rotated(sf.surface_product(s, 2 * s))).passes


@pytest.mark.parametrize("s", SCALES, ids=lambda s: f"{s:g}")
def test_einstein_residual_detects_einstein_tensors(s):
    assert sf.einstein_residual(_rotated(sf.constant_curvature(s))).passes
    assert sf.einstein_residual(_rotated(sf.surface_product(s, s))).passes
    assert not sf.einstein_residual(_rotated(sf.surface_product(s, -s))).passes
    assert not sf.einstein_residual(_rotated(sf.surface_product(s, 2 * s))).passes


def test_einstein_residual_known_matrix():
    R, _ = sf.gallery("example4", a=1.0, b=0.0)
    rho = sf.ricci(R)
    assert rho[0, 0] == pytest.approx(-3.0, abs=1e-12)
    assert rho[1, 1] == pytest.approx(1.0, abs=1e-12)
    rep = sf.einstein_residual(R)
    assert not rep.passes
    tau = sf.summary(R).tau
    assert np.abs(rep.matrix - (rho - 0.25 * tau * np.eye(4))).max() < 1e-14


def _loop_residuals(comp: np.ndarray) -> dict:
    """Every residual's matrix built from the plain-loop oracles, with the
    residual's degree in R."""
    rho = loop_ricci(comp)
    weak = loop_rcheck(comp) - 0.25 * loop_norm_r2(comp) * np.eye(4)
    full = loop_identity_residual(comp)
    return {
        sf.identity_residual: (full, 2),
        sf.weakly_einstein_residual: (weak, 2),
        sf.einstein_residual: (rho - 0.25 * np.trace(rho) * np.eye(4), 1),
        sf.reduced_identity_residual: (weak - full, 2),
    }


@pytest.mark.parametrize("s", (1e-9, 1.0, 1e9), ids=lambda s: f"{s:g}")
def test_residual_kernels_match_loop_oracles(s):
    rng = np.random.default_rng(41)
    for seed in range(3):
        R = sf.rotate(sf.random_curvature(seed), sf.random_frame(rng))
        R = sf.make_curvature(s * R.comp)  # components of size about s
        for residual, (oracle, degree) in _loop_residuals(R.comp).items():
            err = np.abs(residual(R).matrix - oracle).max()
            assert err < 1e-12 * s ** degree, residual.__name__


def test_residuals_keep_no_state():
    R = sf.random_curvature(5)
    sf.identity_residual(R)
    sf.einstein_residual(R)
    sf.weakly_einstein_residual(R)
    spec = sf.ricci_spectrum(R)
    sf.forbidden_pattern(spec.eigenvalues, 1e-6)
    assert list(vars(R)) == ["comp"]


def test_a_nan_component_passes_no_check():
    # a Curvature4 built directly skips make_curvature's finiteness check:
    # NaN reaches every residual's max_abs and fails the verdict, and the
    # eigensolver refuses it
    comp = sf.random_curvature(5).comp.copy()
    comp[0, 1, 0, 1] = np.nan
    R = sf.Curvature4(comp)
    for residual in (sf.identity_residual, sf.einstein_residual, sf.weakly_einstein_residual):
        rep = residual(R)
        assert rep.passes is False
        assert np.isnan(rep.max_abs)
    with pytest.raises(sf.NoConvergence, match="finite"):
        sf.ricci_spectrum(R)
    # Python's max keeps a leading NaN and skips a trailing one: neither matches
    assert sf.forbidden_pattern([np.nan, 1.0, 1.0, 1.0], 1e-6) is None
    assert sf.forbidden_pattern([2.0, 2.0, 2.0, np.nan], 1e-6) is None


def test_reduced_identity_passes_iff_weakly_einstein():
    weakly = [sf.surface_product(1.0, -1.0), sf.gallery("example4", a=1.0)[0]]
    not_weakly = [sf.surface_product(1.0, 2.0), sf.space_form_product(1.0)]
    for R in weakly:
        assert sf.reduced_identity_residual(R).passes
    for R in not_weakly:
        assert not sf.reduced_identity_residual(R).passes


def test_reduced_identity_equals_identity_minus_weak_part():
    R = sf.random_curvature(37)
    full = sf.identity_residual(R).matrix
    weak = sf.weakly_einstein_residual(R).matrix
    reduced = sf.reduced_identity_residual(R).matrix
    assert np.abs(full - (weak - reduced)).max() < 1e-12


def test_forbidden_pattern_by_zero_position():
    assert sf.forbidden_pattern([2.0, 2.0, 2.0, 0.0], 1e-6) == 1
    assert sf.forbidden_pattern([1.0, 1.0, 0.0, 1.0], 1e-6) == 2
    assert sf.forbidden_pattern([-1.0, 0.0, -1.0, -1.0], 1e-6) == 3
    assert sf.forbidden_pattern([0.0, -2.0, -2.0, -2.0], 1e-6) == 4


def test_forbidden_pattern_rejects_non_matching_spectra():
    assert sf.forbidden_pattern([1.0, 2.0, 3.0, 0.0], 1e-6) is None
    assert sf.forbidden_pattern([0.0, 0.0, 0.0, 0.0], 1e-6) is None
    assert sf.forbidden_pattern([1.0, 1.0, 1.0, 1.0], 1e-6) is None
    with pytest.raises(ValueError):
        sf.forbidden_pattern([1.0, 2.0, 3.0], 1e-6)


@pytest.mark.parametrize(
    "s", (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12), ids=lambda s: f"{s:g}"
)
def test_forbidden_pattern_is_scale_free(s):
    # space_form_product(c) has Ricci eigenvalues (2c, 2c, 2c, 0)
    for c, pattern in ((s, 1), (-s, 4)):
        spec = sf.ricci_spectrum(_rotated(sf.space_form_product(c)), 1e-6)
        assert sf.forbidden_pattern(spec.eigenvalues, 1e-6) == pattern
    assert sf.forbidden_pattern(s * np.array([2.0, 2.0, 2.0, 1e-5]), 1e-6) is None
    assert sf.forbidden_pattern(s * np.array([2.0, 2.0, 2.0, 1e-7]), 1e-6) == 1


def test_forbidden_pattern_on_space_form_product():
    R = sf.space_form_product(1.0)
    eig = np.sort(np.linalg.eigvalsh(sf.ricci(R)))[::-1]
    assert sf.forbidden_pattern(eig, 1e-6) == 1
    rep = sf.weakly_einstein_residual(R)
    assert rep.matrix[3, 3] == pytest.approx(-3.0, abs=1e-10)
    assert not rep.passes


# --- exact verdicts on rational Lie algebras ----------------------------------

def _semidirect_constants(A) -> np.ndarray:
    """Structure constants of R x_A R^3: [e1, e_k] = sum_l A_lk e_l (k, l = 2..4),
    a Lie algebra for every 3x3 matrix A."""
    c = np.full((4, 4, 4), Fraction(0), dtype=object)
    c[0, 1:, 1:] = np.array(A, dtype=object).T
    c[1:, 0, 1:] = -c[0, 1:, 1:]
    return c


def _example4_matrix(a, b):
    return [[a, 0, 0], [0, -a, b], [0, -b, -a]]


def _seeded_semidirect_matrices(seed: int, count: int):
    """Rational A of three kinds: generic; lambda I + skew (hyperbolic
    space, Einstein); a diagonal entry plus a rotation-scaling block.  Each
    is scaled by 10^k, k in -3..3."""
    rng = np.random.default_rng(seed)

    def q():
        return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))

    for n in range(count):
        kind = n % 3
        if kind == 0:
            A = [[q() for _ in range(3)] for _ in range(3)]
        elif kind == 1:
            lam, x, y, z = q(), q(), q(), q()
            A = [[lam, x, y], [-x, lam, z], [-y, -z, lam]]
        else:
            a, b, d = q(), q(), q()
            A = [[a, 0, 0], [0, d, b], [0, -b, d]]
        s = Fraction(10) ** int(rng.integers(-3, 4))
        yield [[s * x for x in row] for row in A]


def _float_and_exact_verdicts(c_exact, c_float):
    R = sf.lie_group_curvature(sf.LieAlgebra4(c_float))[1]
    weak, einstein = sf.weakly_einstein_residual(R), sf.einstein_residual(R)
    exact_weak, exact_einstein = exact_lie_group_residuals(c_exact)
    # the float matrices agree with the exact ones to rounding
    norm_r2 = float(np.vdot(R.comp, R.comp))
    assert np.abs(weak.matrix - exact_weak.astype(float)).max() <= 1e-12 * norm_r2
    assert np.abs(einstein.matrix - exact_einstein.astype(float)).max() <= 1e-12 * norm_r2 ** 0.5
    return (weak.passes, einstein.passes), (not any(exact_weak.flat), not any(exact_einstein.flat))


@pytest.mark.parametrize(
    "a, b",
    [(Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(-1, 3)), (Fraction(1, 3), Fraction(5, 7)),
     (Fraction(-3, 2), Fraction(0)), (Fraction(0), Fraction(1))],
    ids=str,
)
def test_example4_verdicts_match_exact_oracle(a, b):
    c_exact = _semidirect_constants(_example4_matrix(a, b))
    c_float = example4_algebra(float(a), float(b)).c
    assert np.array_equal(c_float, c_exact.astype(float))
    float_verdicts, exact_verdicts = _float_and_exact_verdicts(c_exact, c_float)
    assert float_verdicts == exact_verdicts
    assert exact_verdicts == (True, a == 0)  # weakly Einstein; Einstein only when flat


def test_semidirect_verdicts_match_exact_oracle():
    seen = set()
    for A in _seeded_semidirect_matrices(seed=11, count=24):
        c_exact = _semidirect_constants(A)
        float_verdicts, exact_verdicts = _float_and_exact_verdicts(c_exact, c_exact.astype(float))
        assert float_verdicts == exact_verdicts, A
        seen.add(exact_verdicts)
    # the set holds Einstein, weakly-only and neither
    assert seen == {(True, True), (True, False), (False, False)}
