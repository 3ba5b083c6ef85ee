"""Integrand vectors, the deficit f, its per-case closed forms, and the
Euler / Pontryagin / lower-bound round trip for constant-integrand inputs."""

import json
import math

import numpy as np
import pytest

import stframe as sf
from stframe.errors import (
    CaseRelationViolated,
    NotSTFrame,
    OrientationReversed,
    SymmetryViolation,
    ValidationError,
)
from stframe.cli import main
from stframe.topology import STVectors, invariants_from_vectors, vectors_from_components

from conftest import (
    WEAKLY_EINSTEIN_GALLERY,
    draw_st_shape,
    frame_free_invariants,
    fubini_study,
    st_construction,
)


def test_st_vectors_on_opposite_surfaces():
    R = sf.surface_product(1.0, -1.0)
    v = sf.st_vectors(R, sf.identity_frame())
    assert np.abs(v.a_prime - np.array([-1.0, 0.0, 0.0])).max() < 1e-12
    assert np.abs(v.a_dprime - np.array([1.0, 0.0, 0.0])).max() < 1e-12
    assert np.abs(v.b).max() < 1e-12
    assert np.abs(v.a).max() < 1e-12


def test_st_vectors_requires_st_frame():
    R = sf.surface_product(1.0, -1.0)
    with pytest.raises(NotSTFrame):
        sf.st_vectors(R, sf.random_frame(np.random.default_rng(12)))


def test_st_vectors_rejects_first_bianchi_violation():
    # the R_1234 orbit alone: no mixed or plane components, so the identity
    # frame has penalty 0, but b = (1, 0, 0) breaks b1 + b2 + b3 = 0
    comp = np.zeros((4, 4, 4, 4))
    for (i, j, k, l), s in (
        ((0, 1, 2, 3), 1.0),
        ((1, 0, 2, 3), -1.0),
        ((0, 1, 3, 2), -1.0),
        ((1, 0, 3, 2), 1.0),
    ):
        comp[i, j, k, l] = comp[k, l, i, j] = s
    R = sf.Curvature4(comp)
    assert sf.st_penalty(R, sf.identity_frame()) == 0.0
    with pytest.raises(SymmetryViolation) as exc:
        sf.st_vectors(R, sf.identity_frame())
    assert exc.value.identity == "first Bianchi identity"
    assert exc.value.magnitude == 1.0


def test_st_vectors_requires_positive_orientation():
    R = sf.surface_product(1.0, -1.0)
    flipped = sf.Frame4(np.eye(4)[[1, 0, 2, 3]])
    with pytest.raises(OrientationReversed):
        sf.st_vectors(R, flipped)


def test_st_vectors_equal_their_scalar_reads(pattern_ii_tensor):
    tensors = [sf.gallery(name, **params)[0] for name, params in WEAKLY_EINSTEIN_GALLERY]
    pattern_v = st_construction((0.4, 0.7, 1.0), (1, -1, -1), (0.3, -0.8, 0.5))
    tensors += [pattern_ii_tensor, sf.rotate(pattern_v, sf.random_frame(np.random.default_rng(5)))]
    for R in tensors:
        c = sf.find_st_basis(R).components
        v = vectors_from_components(c, R.scale)
        assert np.array_equal(v.a_prime, [c[0, 1, 0, 1], c[0, 2, 0, 2], c[0, 3, 0, 3]])
        assert np.array_equal(v.a_dprime, [c[2, 3, 2, 3], c[1, 3, 1, 3], c[1, 2, 1, 2]])
        assert np.array_equal(v.b, [c[0, 1, 2, 3], c[0, 2, 3, 1], c[0, 3, 1, 2]])


def test_b_vector_flips_with_plane_swap():
    # a frame permuting the two surface factors still diagonalizes but reorders b
    R, _ = sf.gallery("example4", a=1.0, b=0.5)
    rep = sf.find_st_basis(R)
    v = sf.st_vectors(R, rep.frame)
    assert abs(float(v.b.sum())) < 1e-10 * R.scale


def test_f_value_nonpositive_on_weakly_einstein_gallery():
    for name, params in WEAKLY_EINSTEIN_GALLERY:
        R, _ = sf.gallery(name, **params)
        rep = sf.find_st_basis(R)
        f = sf.f_value(sf.st_vectors(R, rep.frame))
        assert f <= 1e-12 * R.scale ** 2


def test_f_value_known_values():
    R = sf.surface_product(1.0, 1.0)
    rep = sf.find_st_basis(R)
    f = sf.f_value(sf.st_vectors(R, rep.frame))
    assert abs(f) < 1e-10
    R2, _ = sf.gallery("example4", a=1.0, b=0.0)
    rep2 = sf.find_st_basis(R2)
    f2 = sf.f_value(sf.st_vectors(R2, rep2.frame))
    assert f2 == pytest.approx(-2.0, abs=1e-10)


def test_f_by_case_closed_forms():
    assert sf.f_by_case([1.0, 1.0, 1.0, 1.0], "i") == 0.0
    assert sf.f_by_case([1.0, 1.0, -1.0, -1.0], "ii") == pytest.approx(-1.0)
    assert sf.f_by_case([1.0, -1.0, 1.0, -1.0], "iii") == pytest.approx(-1.0)
    assert sf.f_by_case([1.0, -1.0, -1.0, 1.0], "iv") == pytest.approx(-1.0)
    # pair-sum relation: l1 + l2 = l3 + l4
    assert sf.f_by_case([-1.0, -1.0, 1.0, -3.0], "v") == pytest.approx(-2.0)
    assert sf.f_by_case([1.0, 1.0, -1.0, -1.0], "viii") == pytest.approx(-1.0)
    assert sf.f_by_case([3.0, -1.0, -1.0, -1.0], "viii") == pytest.approx(-3.0)


def test_f_by_case_validates_input():
    with pytest.raises(ValueError):
        sf.f_by_case([1.0, 2.0, 3.0], "i")
    with pytest.raises(ValueError):
        sf.f_by_case([0.0, 0.0, 0.0, 0.0], "ix")
    with pytest.raises(CaseRelationViolated):
        sf.f_by_case([1.0, 2.0, 3.0, 4.0], "ii")


def test_f_by_case_on_rotated_ricci_flat_tensor_at_unit_scale():
    # eps = (1, 1, 1) and a'_1 + a'_2 + a'_3 = 0 make the tensor Ricci-flat:
    # its Ricci eigenvalues are rounding noise, which the default relation
    # check, SIGN_TOLERANCE * max(1, max |lambda|), admits at unit scale
    rng = np.random.default_rng(3)
    R0 = st_construction((0.7, -0.2, -0.5), (1, 1, 1), (0.4, -0.9, 0.5))
    for _ in range(20):
        rep = sf.find_st_basis(sf.rotate(R0, sf.random_frame(rng)))
        assert rep.sign_cases.cases
        for case in rep.sign_cases.cases:
            f = sf.f_by_case(rep.sign_cases.eigenvalues, case)
            assert f == pytest.approx(0.0, abs=1e-12)


def test_sign_cases_f_on_rotated_ricci_flat_tensors_at_every_scale():
    # f_by_case sees only the eigenvalues and rejects a Ricci-flat tensor's
    # rounding-noise spectrum above a scale of about 1e7; the f that
    # find_st_basis carries is judged against the tensor's scale, and stays
    # at the frame-free f from 1e-9 to 1e12 (rounding noise: the worst of
    # 2,200 tensors in two sweeps was 9e-30 s^2)
    rng = np.random.default_rng(19)
    for exponent in range(-9, 13):
        s = 10.0 ** exponent
        for _ in range(10):
            a, b = draw_st_shape(rng, (1, 1, 1), 0, True)
            R = sf.rotate(st_construction(s * a, (1, 1, 1), s * b), sf.random_frame(rng))
            rep = sf.find_st_basis(R)
            f, _, _ = frame_free_invariants(R.comp)
            assert rep.sign_cases.cases
            assert rep.sign_cases.f == pytest.approx(f, abs=1e-28 * R.scale ** 2)


def test_f_by_case_matches_f_value_on_gallery():
    for name, params in WEAKLY_EINSTEIN_GALLERY:
        R, _ = sf.gallery(name, **params)
        rep = sf.find_st_basis(R)
        f = sf.f_value(sf.st_vectors(R, rep.frame))
        for case in rep.sign_cases.cases:
            f_closed = sf.f_by_case(rep.sign_cases.eigenvalues, case)
            assert f == pytest.approx(f_closed, abs=1e-8 * R.scale ** 2)


def test_invariants_match_frame_free_formulas_on_gallery():
    for name, params in WEAKLY_EINSTEIN_GALLERY:
        R, _ = sf.gallery(name, **params)
        v = sf.st_vectors(R, sf.find_st_basis(R).frame)
        assert (sf.f_value(v), *sf.densities(v)) == pytest.approx(
            frame_free_invariants(R.comp), abs=1e-12 * R.scale ** 2
        )


def test_densities_of_round_sphere():
    R = sf.constant_curvature(1.0)
    v = sf.st_vectors(R, sf.identity_frame())
    chi_d, p1_d = sf.densities(v)
    assert chi_d == pytest.approx(3.0 / (4 * math.pi ** 2))
    assert p1_d == pytest.approx(0.0, abs=1e-14)


def test_round_sphere_invariants():
    R = sf.constant_curvature(1.0)
    volume = 8.0 * math.pi ** 2 / 3.0
    inv = sf.homogeneous_invariants(R, sf.identity_frame(), volume)
    assert inv.chi == pytest.approx(2.0, abs=1e-10)
    assert inv.p1 == pytest.approx(0.0, abs=1e-10)
    assert inv.hitchin_ok
    assert inv.bound_plus_ok and inv.bound_minus_ok


def test_product_invariants_round_trip():
    for m in (2, 3):
        R, meta = sf.gallery("example6", m=m)
        rep = sf.find_st_basis(R)
        inv = sf.homogeneous_invariants(R, rep.frame, meta["volume"])
        assert inv.chi == pytest.approx(4.0 * (1 - m), abs=1e-9)
        assert inv.p1 == pytest.approx(0.0, abs=1e-9)
        assert inv.C == pytest.approx(8.0 * (1 - m), abs=1e-9)
        # equality in the lower bound: 2 chi +- p1 = C
        assert 2 * inv.chi + inv.p1 == pytest.approx(inv.C, abs=1e-9)
        assert 2 * inv.chi - inv.p1 == pytest.approx(inv.C, abs=1e-9)
        assert inv.bound_plus_ok and inv.bound_minus_ok
        assert not inv.hitchin_ok


def test_homogeneous_invariants_without_volume():
    R = sf.surface_product(1.0, -1.0)
    inv = sf.homogeneous_invariants(R, sf.identity_frame())
    assert inv.chi is None and inv.p1 is None and inv.C is None
    assert inv.f == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        sf.homogeneous_invariants(R, sf.identity_frame(), volume=-1.0)


def test_invariants_reject_a_volume_that_overflows():
    # chi and C overflow to -inf, and every bound flag would pass vacuously
    R, _ = sf.gallery("example-pm-c", c=1e140)
    rep = sf.find_st_basis(R)
    with pytest.raises(ValidationError, match="1e\\+100 overflows chi, p1, C or the bound slack"):
        sf.homogeneous_invariants(R, rep.frame, 1e100)
    v = vectors_from_components(rep.components, R.scale)
    with pytest.raises(ValidationError, match="'volume'"):
        invariants_from_vectors(v, R.scale, 1e100)
    assert math.isfinite(sf.homogeneous_invariants(R, rep.frame, 1.0).C)


#: invariants at volume 10 of st_construction((1, 0.6, 0.3), (1, -1, -1),
#: (0.3, -0.5, 0.2)), worked by hand from a' = (1, 0.6, 0.3),
#: a'' = (1, -0.6, -0.3) and b = (0.3, -0.5, 0.2)
P1_INVARIANTS = {
    "chi_density": 0.0235571751968435,  # (<a',a''> + |b|^2) / 4 pi^2 = 0.93 / 4 pi^2
    "p1_density": 0.0303963550927013,   # <a' + a'', b> / 2 pi^2 = 0.6 / 2 pi^2
    "f": -0.45,                         # |a|^2 - |a'|^2 = 1 - 1.45
    "chi": 0.235571751968435,
    "p1": 0.303963550927013,
    "C": -0.227972663195260,            # f * 10 / 2 pi^2
    "bound_plus_ok": True,
    "bound_minus_ok": True,
    "hitchin_ok": True,
}


def test_invariants_with_nonzero_p1_match_hand_values(capsys, tmp_path):
    R = st_construction((1, 0.6, 0.3), (1, -1, -1), (0.3, -0.5, 0.2))
    rep = sf.find_st_basis(R)
    inv = invariants_from_vectors(vectors_from_components(rep.components, R.scale), R.scale, 10.0)
    rows = [[*(i + 1 for i in idx), float(R.comp[idx])]
            for idx in np.ndindex(R.comp.shape) if R.comp[idx] != 0.0]
    doc = tmp_path / "p1.json"
    doc.write_text(json.dumps({"kind": "raw_curvature", "components": rows}))
    code = main(["invariants", "--input", str(doc), "--volume", "10", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out[out.index("{\n"):])
    for answer in (vars(inv), report):
        assert {k: answer[k] for k in P1_INVARIANTS} == pytest.approx(P1_INVARIANTS, rel=1e-12)


def test_bound_flags_disagree_on_vectors_of_unequal_length():
    # 2 chi +- p1 - C = (V / 2 pi^2) (|s/2 +- b|^2 + (|a'|^2 - |a''|^2) / 2) with
    # s = a' + a'': +3 and -1 times V / 2 pi^2 here.  Every weakly Einstein
    # tensor has |a'| = |a''|, so only hand-made vectors make the flags differ.
    v = STVectors(np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([1.0, -1.0, 0.0]))
    inv = invariants_from_vectors(v, 2.0, 10.0)
    assert inv.p1 == pytest.approx(20 / (2 * math.pi ** 2), rel=1e-12)
    assert inv.bound_plus_ok is True
    assert inv.bound_minus_ok is False


def test_hitchin_flag_reads_the_size_of_p1():
    # a' = (1, 1, 1), eps = (1, -1, -1), b = +-(-1/2, 1/4, 1/4) and volume
    # 2 pi^2: chi = -0.3125 and p1 = -+1, so 2 chi < |p1| on both, though
    # 2 chi >= p1 where p1 = -1
    for sign in (1, -1):
        b = sign * np.array([-0.5, 0.25, 0.25])
        inv = invariants_from_vectors(
            STVectors(np.ones(3), np.array([1.0, -1.0, -1.0]), b), 1.0, 2 * math.pi ** 2
        )
        assert (inv.chi, inv.p1) == pytest.approx((-0.3125, -sign), rel=1e-12)
        assert inv.hitchin_ok is False


def _closed_manifolds():
    """(name, tensor, volume, Ricci pattern, chi, p1, Hitchin flag) of closed
    4-manifolds whose curvature is the same at every point, so that their
    invariant totals are density times volume."""
    reverse = sf.Frame4(np.diag([1.0, 1.0, 1.0, -1.0]))  # reflects e4
    return (
        ("CP2", fubini_study(), math.pi ** 2 / 2, "I", 3, 3, True),
        ("CP2 reversed", sf.rotate(fubini_study(), reverse), math.pi ** 2 / 2, "I", 3, -3,
         True),
        ("S4", sf.constant_curvature(1.0), 8 * math.pi ** 2 / 3, "I", 2, 0, True),
        ("S2 x S2", sf.surface_product(1.0, 1.0), 16 * math.pi ** 2, "I", 4, 0, True),
        # genus 3: area 4 pi (g - 1) = 8 pi; f = -1, so C = -16 = 2 chi +- p1
        ("S2 x Sigma3", sf.surface_product(1.0, -1.0), 32 * math.pi ** 2, "III", -8, 0, False),
    )


#: how far an invariant total may sit from its integer n, per unit of
#: max(1, |n|): over 300 random rotations of each manifold the largest
#: distance was 27 eps per unit
INTEGER_SLACK = 64 * np.finfo(float).eps


def test_closed_manifolds_have_integer_chi_and_signature(capsys, tmp_path):
    # Chern-Gauss-Bonnet makes chi an integer, and the Hirzebruch signature
    # theorem makes p1 = 3 sigma one; CP2 is the one with p1 != 0, and p1
    # flips sign with the orientation
    rng = np.random.default_rng(16)
    for name, R0, volume, pattern, chi, p1, hitchin in _closed_manifolds():
        R = sf.rotate(R0, sf.random_frame(rng))
        rep = sf.find_st_basis(R)
        assert rep.eigen.pattern.tag == pattern, name
        inv = invariants_from_vectors(vectors_from_components(rep.components, R.scale),
                                      R.scale, volume)
        rows = [[*(i + 1 for i in idx), float(R.comp[idx])] for idx in np.ndindex(R.comp.shape)]
        doc = tmp_path / "manifold.json"
        doc.write_text(json.dumps({"kind": "raw_curvature", "components": rows}))
        code = main(["invariants", "--input", str(doc), "--volume", repr(volume), "--json", "-"])
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{\n"):])
        assert code == 0, name
        for got in ((inv.chi, inv.p1, inv.bound_plus_ok, inv.bound_minus_ok, inv.hitchin_ok),
                    tuple(report[k] for k in ("chi", "p1", "bound_plus_ok", "bound_minus_ok",
                                              "hitchin_ok"))):
            for total, n in zip(got[:2], (chi, p1)):
                assert abs(total - n) <= INTEGER_SLACK * max(1, abs(n)), (name, total, n)
            assert got[2:] == (True, True, hitchin), name
