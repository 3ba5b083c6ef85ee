"""Tensor container, symmetry validation, contractions and frame changes."""

import dataclasses

import numpy as np
import pytest

import stframe as sf
from stframe.errors import FrameNotOrthogonal, SymmetryViolation
from stframe.sources import example4_algebra

from conftest import loop_lrho, loop_norm_r2, loop_rcheck, loop_ricci, loop_rotate


def test_make_curvature_accepts_valid_tensor():
    R = sf.surface_product(1.0, 2.0)
    assert R.comp.shape == (4, 4, 4, 4)
    assert R.comp[0, 1, 0, 1] == -1.0
    assert R.comp[2, 3, 2, 3] == -2.0


def test_make_curvature_rejects_bad_shape():
    with pytest.raises(SymmetryViolation):
        sf.make_curvature(np.zeros((3, 3, 3, 3)))


def test_make_curvature_rejects_nonfinite():
    comp = np.zeros((4, 4, 4, 4))
    comp[0, 1, 0, 1] = np.nan
    with pytest.raises(SymmetryViolation):
        sf.make_curvature(comp)


def test_make_curvature_rejects_first_pair_symmetry_violation():
    comp = np.zeros((4, 4, 4, 4))
    comp[0, 1, 0, 1] = 1.0  # orbit not filled: antisymmetry fails
    with pytest.raises(SymmetryViolation) as exc:
        sf.make_curvature(comp)
    assert "antisymmetry" in str(exc.value)
    assert exc.value.magnitude == pytest.approx(1.0)


def test_make_curvature_rejects_bianchi_violation():
    # fill pair symmetries consistently but break the cyclic identity
    comp = np.zeros((4, 4, 4, 4))
    for (i, j, k, l), s in (
        ((0, 1, 2, 3), 1.0),
        ((1, 0, 2, 3), -1.0),
        ((0, 1, 3, 2), -1.0),
        ((1, 0, 3, 2), 1.0),
        ((2, 3, 0, 1), 1.0),
        ((3, 2, 0, 1), -1.0),
        ((2, 3, 1, 0), -1.0),
        ((3, 2, 1, 0), 1.0),
    ):
        comp[i, j, k, l] = s
    with pytest.raises(SymmetryViolation) as exc:
        sf.make_curvature(comp)
    assert "Bianchi" in str(exc.value)


@pytest.mark.parametrize("s", (1e-12, 1e-3, 1e6), ids=lambda s: f"{s:g}")
def test_make_curvature_checks_are_scale_free(s):
    comp = s * sf.random_curvature(2).comp
    sf.make_curvature(comp)
    bad = comp.copy()
    bad[0, 1, 2, 3] += 1e-8 * s
    with pytest.raises(SymmetryViolation):
        sf.make_curvature(bad)
    assert np.abs(sf.make_curvature(np.zeros((4, 4, 4, 4))).comp).max() == 0.0


def test_projection_is_idempotent_and_fixes_valid_tensors():
    rng = np.random.default_rng(11)
    raw = rng.uniform(-1, 1, (4, 4, 4, 4))
    R1 = sf.project_to_curvature(raw)
    R2 = sf.project_to_curvature(R1.comp)
    assert np.abs(R1.comp - R2.comp).max() < 1e-14
    R = sf.surface_product(1.0, -2.0)
    assert np.abs(sf.project_to_curvature(R.comp).comp - R.comp).max() < 1e-14


def test_projection_output_satisfies_all_symmetries():
    raw = np.random.default_rng(5).uniform(-1, 1, (4, 4, 4, 4))
    c = sf.project_to_curvature(raw).comp
    assert np.abs(c + c.transpose(1, 0, 2, 3)).max() < 1e-14
    assert np.abs(c + c.transpose(0, 1, 3, 2)).max() < 1e-14
    assert np.abs(c - c.transpose(2, 3, 0, 1)).max() < 1e-14
    bianchi = c + c.transpose(0, 2, 3, 1) + c.transpose(0, 3, 1, 2)
    assert np.abs(bianchi).max() < 1e-14


def test_ricci_matches_loop_oracle():
    R = sf.random_curvature(3)
    rho = sf.ricci(R)
    oracle = loop_ricci(R.comp)
    assert np.abs(rho - oracle).max() < 1e-13
    assert np.abs(rho - rho.T).max() == 0.0


def test_summary_matches_loop_oracles():
    R = sf.random_curvature(7)
    s = sf.summary(R)
    assert s.normR2 == pytest.approx(loop_norm_r2(R.comp), abs=1e-12)
    rho = loop_ricci(R.comp)
    assert s.normRho2 == pytest.approx(float(np.sum(rho * rho)), abs=1e-12)
    assert s.tau == pytest.approx(float(np.trace(rho)), abs=1e-12)


def test_derived_tensors_match_loop_oracles():
    R = sf.random_curvature(13)
    rcheck, rhocheck, lrho = sf.derived_tensors(R)
    assert np.abs(rcheck - loop_rcheck(R.comp)).max() < 1e-12
    rho = loop_ricci(R.comp)
    assert np.abs(rhocheck - rho @ rho).max() < 1e-12
    assert np.abs(lrho - loop_lrho(R.comp)).max() < 1e-12


def test_rotate_matches_loop_oracle():
    R = sf.random_curvature(17)
    F = sf.random_frame(np.random.default_rng(2))
    rotated = sf.rotate(R, F)
    oracle = loop_rotate(R.comp, F.matrix)
    assert np.abs(rotated.comp - oracle).max() < 1e-12


def test_rotate_equals_kron_product_bit_for_bit():
    # each entry of rotate's (16, 16) factor is the one product m_ia m_jb
    # that np.kron(m, m) forms, so the rotated components keep every bit
    rng = np.random.default_rng(31)
    for seed in (31, 37, 41):
        R = sf.random_curvature(seed)
        for _ in range(4):
            F = sf.random_frame(rng)
            k = np.kron(F.matrix, F.matrix)
            expected = (k @ R.comp.reshape(16, 16) @ k.T).reshape(4, 4, 4, 4)
            assert np.array_equal(sf.rotate(R, F).comp, expected)


def test_rotate_identity_is_identity():
    R = sf.random_curvature(19)
    assert np.abs(sf.rotate(R, sf.identity_frame()).comp - R.comp).max() == 0.0


def test_rotate_composition_law():
    R = sf.random_curvature(23)
    rng = np.random.default_rng(4)
    f = sf.random_frame(rng)
    g = sf.random_frame(rng)
    lhs = sf.rotate(sf.rotate(R, f), g)
    rhs = sf.rotate(R, sf.compose(g, f))
    assert np.abs(lhs.comp - rhs.comp).max() < 1e-12


def test_rotation_preserves_scalar_invariants():
    R = sf.random_curvature(29)
    F = sf.random_frame(np.random.default_rng(6))
    s0, s1 = sf.summary(R), sf.summary(sf.rotate(R, F))
    assert s0.normR2 == pytest.approx(s1.normR2, rel=1e-12)
    assert s0.normRho2 == pytest.approx(s1.normRho2, rel=1e-12)
    assert s0.tau == pytest.approx(s1.tau, rel=1e-12)


def test_frame_rejects_non_orthogonal_matrix():
    with pytest.raises(FrameNotOrthogonal):
        sf.Frame4(np.ones((4, 4)))
    with pytest.raises(FrameNotOrthogonal, match="finite 4x4"):
        sf.Frame4(np.eye(3))
    # finiteness is read off |m m^T - I|: every non-finite entry must show
    # there (an infinite one meets zeros in the product, numpy's invalid flag)
    for bad in (np.nan, np.inf, -np.inf):
        for pos in ((0, 0), (2, 3)):
            m = np.eye(4)
            m[pos] = bad
            with np.errstate(invalid="ignore"), pytest.raises(
                FrameNotOrthogonal, match="finite 4x4"
            ):
                sf.Frame4(m)
    # finite entries whose products overflow are not orthonormal, not non-finite
    with np.errstate(over="ignore"), pytest.raises(FrameNotOrthogonal, match="not orthogonal"):
        sf.Frame4(np.full((4, 4), 1e200))


def test_random_frame_is_special_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        F = sf.random_frame(rng)
        assert np.abs(F.matrix @ F.matrix.T - np.eye(4)).max() < 1e-12
        assert F.orientation == 1
        assert np.linalg.det(F.matrix) == pytest.approx(1.0, abs=1e-12)


def test_random_frame_is_seeded_deterministic():
    a = sf.random_frame(np.random.default_rng(42)).matrix
    b = sf.random_frame(np.random.default_rng(42)).matrix
    assert np.array_equal(a, b)


def test_orientation_flips_under_row_swap():
    F = sf.identity_frame()
    swapped = sf.Frame4(F.matrix[[1, 0, 2, 3]])
    assert swapped.orientation == -1


def test_curvature_components_are_immutable():
    R = sf.surface_product(1.0, 1.0)
    with pytest.raises(ValueError):
        R.comp[0, 0, 0, 0] = 1.0


def test_scale_is_max_abs_component():
    tiny = sf.make_curvature(1e-3 * sf.surface_product(1.0, 1.0).comp)
    assert tiny.scale == 1e-3
    big = sf.surface_product(5.0, 1.0)
    assert big.scale == 5.0
    assert sf.make_curvature(np.zeros((4, 4, 4, 4))).scale == 1.0


def test_array_holding_classes_compare_by_identity():
    # a field-wise == would ask a numpy array for its truth value and raise
    R, _ = sf.gallery("example4", a=1.0, b=0.5)
    st = sf.find_st_basis(R)
    makers = {
        sf.Curvature4: lambda: sf.make_curvature(R.comp),
        sf.Frame4: lambda: sf.Frame4(st.frame.matrix),  # both share one array
        sf.ResidualReport: lambda: sf.weakly_einstein_residual(R),
        sf.RicciSpectrum: lambda: sf.ricci_spectrum(R),
        sf.SignCaseSet: lambda: sf.find_st_basis(R).sign_cases,
        sf.STReport: lambda: sf.find_st_basis(R),
        sf.STVectors: lambda: sf.st_vectors(R, st.frame),
        sf.LieAlgebra4: lambda: example4_algebra(1.0, 0.5),
        sf.Connection4: lambda: sf.lie_group_curvature(example4_algebra(1.0, 0.5))[0],
    }
    for cls, make in makers.items():
        a, b = make(), make()
        assert type(a) is cls
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True
        # frozen, and the instance holds its fields and nothing else
        names = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, None)
        assert set(vars(a)) == names
    # RicciSpectrum.frame is a cached_property: read once, it is held too
    spectrum = sf.ricci_spectrum(R)
    assert spectrum.frame is spectrum.frame
    names = {f.name for f in dataclasses.fields(sf.RicciSpectrum)}
    assert set(vars(spectrum)) == names | {"frame"}
