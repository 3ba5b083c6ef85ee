"""Eigenframes, multiplicity patterns, trig-polynomial maximization, the frame
penalty, sign-case classification and the generalized Singer-Thorpe search."""

import contextlib
import itertools
import math

import numpy as np
import pytest

import stframe as sf
from stframe.cli import GALLERY_SUITE
from stframe.errors import (
    CaseRelationViolated,
    DegenerateFit,
    NoConvergence,
    NotSTFrame,
    NotWeaklyEinstein,
    SearchFailed,
    StframeError,
)
import stframe.frames
from stframe.frames import (
    MIXED_TRIPLES,
    PENALTY_TOLERANCE,
    PLANE_PAIRS,
    SIGN_CASES,
    _residuals,
    _sign_cases,
    st_components,
)
from stframe.topology import vectors_from_components

from conftest import (
    GENERATED_SHAPES,
    ST_A_DPRIME_PLANES,
    ST_A_PRIME_PLANES,
    ST_B_INDICES,
    WEAKLY_EINSTEIN_GALLERY,
    curvature_from_components,
    draw_st_shape,
    frame_free_invariants,
    loop_ricci,
    loop_rotate,
    st_construction,
    symmetry_orbit,
)


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
    # max |M_ij| is both the finiteness test and the symmetry scale
    for bad in (np.nan, np.inf, -np.inf):
        m = np.diag([4.0, 3.0, 2.0, 1.0])
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(NoConvergence, match="finite"):
            sf.sym_eigen(m)
    with pytest.raises(NoConvergence, match="finite"):
        sf.sym_eigen(np.eye(3))


@pytest.mark.parametrize("s", (1e-12, 1e-3, 1e6), ids=lambda s: f"{s:g}")
def test_sym_eigen_symmetry_check_is_scale_free(s):
    m = s * np.diag([4.0, 3.0, 2.0, 1.0])
    m[0, 1] = 1e-9 * s
    with pytest.raises(NoConvergence, match="symmetric"):
        sf.sym_eigen(m)
    eig, _ = sf.sym_eigen(np.zeros((4, 4)))
    assert np.abs(eig).max() == 0.0


def _seam_inputs():
    """Symmetric matrices of the sizes the frame search decomposes, with
    degenerate spectra among them."""
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        for _ in range(20):
            a = rng.normal(size=(n, n))
            yield a + a.T
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    yield np.diag([2.0, 2.0, 2.0, 2.0])
    yield np.zeros((4, 4))
    yield np.diag([3.0, 1.0, 1.0, 0.5])
    yield q @ np.diag([3.0, 1.0, 1.0, 0.5]) @ q.T


def test_lapack_seam_equals_numpy_bit_for_bit():
    # the frame search calls numpy's LAPACK gufuncs directly; a numpy release
    # that changes them fails here rather than moving answers silently
    for m in _seam_inputs():
        eig, vecs = sf.frames._eigh(m)
        expected_eig, expected_vecs = np.linalg.eigh(m)
        assert eig.tobytes() == expected_eig.tobytes()
        assert vecs.tobytes() == expected_vecs.tobytes()
        assert sf.frames._det(m).tobytes() == np.linalg.det(m).tobytes()
    rng = np.random.default_rng(18)
    for _ in range(20):
        stack = np.linalg.qr(rng.normal(size=(2, 3, 3)))[0]  # as _closed_form_frame's
        assert sf.frames._det(stack).tobytes() == np.linalg.det(stack).tobytes()
    # the contractions call the C functions np.dot and np.vdot dispatch to,
    # on the shapes of ricci, _rcheck, _reduced_matrix and the norms
    assert sf.tensor._dot is np.dot._implementation
    assert sf.tensor._vdot is np.vdot._implementation
    for _ in range(20):
        comp = rng.normal(size=(4, 4, 4, 4))
        m = comp.reshape(64, 4)
        a, b = rng.normal(size=(2, 4, 4))
        pairs = (
            (sf.tensor._RICCI, comp.reshape(256)),
            (rng.normal(size=(16, 256)), comp.reshape(256)),
            (m.T, m),
            (a, b),
        )
        for x, y in pairs:
            assert sf.tensor._dot(x, y).tobytes() == np.dot(x, y).tobytes()
        for x in (comp, a):
            assert sf.tensor._vdot(x, x).tobytes() == np.vdot(x, x).tobytes()


def test_checked_eigh_raises_when_lapack_returns_nan(monkeypatch):
    monkeypatch.setattr(
        sf.frames, "_eigh", lambda m: (np.full(4, np.nan), np.full((4, 4), np.nan))
    )
    with pytest.raises(NoConvergence, match="converge"):
        sf.sym_eigen(np.diag([4.0, 3.0, 2.0, 1.0]))
    with pytest.raises(NoConvergence):
        sf.ricci_spectrum(sf.gallery("example4", a=1.0, b=0.5)[0])


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


def loop_multiplicity_pattern(lam, threshold):
    """Transitive closure of near-equality over a sorted spectrum, one
    eigenvalue at a time: (tag, blocks, canonical_order)."""
    blocks = [[0]]
    for i in range(1, 4):
        if abs(lam[i] - lam[blocks[-1][-1]]) <= threshold:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
    tag = {(4,): "I", (2, 1, 1): "II", (2, 2): "III", (3, 1): "IV", (1, 1, 1, 1): "V"}[sizes]
    if tag == "II":
        pair = next(b for b in blocks if len(b) == 2)
        order = (*pair, *(i for i in range(4) if i not in pair))
    elif tag == "IV":
        triple = next(b for b in blocks if len(b) == 3)
        order = (*triple, *(i for i in range(4) if i not in triple))
    else:
        order = (0, 1, 2, 3)
    return tag, tuple(map(tuple, blocks)), order


def _pattern_fields(p):
    return p.tag, p.blocks, p.canonical_order


def test_multiplicity_pattern_matches_loop_oracle():
    t = 1e-6
    # all eight combinations of merged neighbours
    for merges in itertools.product((False, True), repeat=3):
        lam = [2.0]
        for merged in merges:
            lam.append(lam[-1] - (0.5 * t if merged else 1e3 * t))
        expected = loop_multiplicity_pattern(lam, t)
        assert _pattern_fields(sf.multiplicity_pattern(lam, t)) == expected, merges
    # a gap exactly equal to the threshold merges
    lam = (4.0, 3.0, 1.0, 0.0)
    assert _pattern_fields(sf.multiplicity_pattern(lam, 1.0)) == (
        loop_multiplicity_pattern(lam, 1.0)
    )
    assert sf.multiplicity_pattern(lam, 1.0).tag == "III"
    # a NaN eigenvalue is equal to nothing
    for lam in ((3.0, math.nan, 1.0, 1.0), (math.nan, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, math.nan)):
        p = sf.multiplicity_pattern(lam, 1e-6)
        assert _pattern_fields(p) == loop_multiplicity_pattern(lam, 1e-6), lam
    # seeded spectra with gaps on both sides of the threshold
    rng = np.random.default_rng(8)
    for _ in range(200):
        lam = np.cumsum(-rng.choice((0.0, 0.4, 1.0, 1.7), size=4)) + rng.normal()
        assert _pattern_fields(sf.multiplicity_pattern(lam, 1.0)) == (
            loop_multiplicity_pattern(lam.tolist(), 1.0)
        )


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


def test_ricci_spectrum_builds_its_frame_on_first_read(monkeypatch):
    built = []

    def counting_frame4(rows):
        built.append(rows)
        return sf.Frame4(rows)

    monkeypatch.setattr(sf.frames, "Frame4", counting_frame4)
    spec = sf.ricci_spectrum(sf.gallery("example4", a=1.0, b=0.5)[0])
    assert spec.pattern.tag == "II" and spec.eigenvalues.shape == (4,)
    assert built == []
    frame = spec.frame
    assert len(built) == 1
    assert spec.frame is frame and len(built) == 1


def test_ricci_spectrum_frame_is_sym_eigen_frame():
    tensors = [sf.gallery(name, **params)[0] for name, params in GALLERY_SUITE]
    tensors += [sf.random_curvature(seed) for seed in range(50)]
    for R in tensors:
        spec = sf.ricci_spectrum(R)
        eig, frame = sf.sym_eigen(sf.ricci(R))
        assert np.array_equal(spec.eigenvalues, eig)
        assert np.array_equal(spec.frame.matrix, frame.matrix)
        assert spec.frame.orientation == 1


def test_ricci_spectrum_rejects_non_finite_ricci_tensor():
    # components near the float maximum: the Ricci sums overflow to inf
    R = sf.Curvature4(1.5e308 * sf.space_form_product(1.0).comp)
    with np.errstate(over="ignore"), pytest.raises(NoConvergence, match="finite"):
        sf.ricci_spectrum(R)


# --- penalty ------------------------------------------------------------------

def test_st_penalty_zero_in_adapted_frame():
    R = sf.surface_product(1.0, -1.0)
    assert sf.st_penalty(R, sf.identity_frame()) == 0.0


def test_st_penalty_positive_in_generic_frame():
    R = sf.surface_product(1.0, -1.0)
    F = sf.random_frame(np.random.default_rng(8))
    assert sf.st_penalty(R, F) > 1e-4


def _explicit_penalty(comp, scale):
    mixed = sum(comp[i, j, j, k] ** 2 for i, j, k in MIXED_TRIPLES)
    planes = sum(
        (comp[i, j, i, j] ** 2 - comp[k, l, k, l] ** 2) ** 2
        for (i, j), (k, l) in PLANE_PAIRS
    )
    return mixed / scale ** 2 + planes / scale ** 4


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


def test_penalty_residuals_equal_their_scalar_reads(pattern_ii_tensor):
    # one gather of the 30 components gives each residual the bits of the
    # component read on its own and divided by the scale
    R = sf.random_curvature(47)
    F = sf.random_frame(np.random.default_rng(47))
    for T, comp in (
        (R, R.comp),
        (R, sf.rotate(R, F).comp),
        (pattern_ii_tensor, sf.find_st_basis(pattern_ii_tensor).components),
    ):
        s = T.scale
        expected = [comp[i, j, j, k] / s for i, j, k in MIXED_TRIPLES]
        for (i, j), (k, l) in PLANE_PAIRS:
            a, b = comp[i, j, i, j] / s, comp[k, l, k, l] / s
            expected.append(a * a - b * b)
        assert np.array_equal(_residuals(comp, s), np.array(expected))


def test_vectors_penalty_and_sign_test_read_the_same_components():
    # a distinct value at every position (b1 + b2 + b3 = 0 kept): the vectors
    # are read from the 1-based positions of the ST construction, and the
    # penalty's plane-pair residuals and the sign test read the same planes
    s = 256.0
    comp = np.arange(1.0, s + 1).reshape(4, 4, 4, 4)
    b_at = [tuple(i - 1 for i in idx) for idx in ST_B_INDICES]
    comp[b_at[2]] = -comp[b_at[0]] - comp[b_at[1]]
    a_prime = [comp[i - 1, j - 1, i - 1, j - 1] for i, j in ST_A_PRIME_PLANES]
    a_dprime = [comp[k - 1, l - 1, k - 1, l - 1] for k, l in ST_A_DPRIME_PLANES]
    v = vectors_from_components(comp, s)
    assert v.a_prime.tolist() == a_prime
    assert v.a_dprime.tolist() == a_dprime
    assert v.b.tolist() == [comp[idx] for idx in b_at]
    planes = [(a / s) * (a / s) - (b / s) * (b / s) for a, b in zip(a_prime, a_dprime)]
    assert _residuals(comp, s)[24:].tolist() == planes
    # one plane component alone fails the sign test at its own pair only,
    # and moves that pair's penalty residual only: +1 for a', -1 for a''
    for n, ((i, j), (k, l)) in enumerate(zip(ST_A_PRIME_PLANES, ST_A_DPRIME_PLANES)):
        for idx, residual in (((i, j, i, j), 1.0), ((k, l, k, l), -1.0)):
            comp = np.zeros((4, 4, 4, 4))
            comp[tuple(x - 1 for x in idx)] = 1.0
            expected = [0.0, 0.0, 0.0]
            expected[n] = residual
            assert _residuals(comp, 1.0)[24:].tolist() == expected
            with pytest.raises(NotSTFrame, match=rf"plane pair \({i}, {j}\)/\({k}, {l}\)"):
                _sign_cases(comp, 1.0)


def test_a_penalty_at_the_tolerance_is_refused_by_every_reader(monkeypatch):
    # a frame is accepted only below PENALTY_TOLERANCE: at it, each reader of
    # the frame refuses as the search does
    R = sf.surface_product(1.0, -1.0)
    F = sf.find_st_basis(R).frame
    monkeypatch.setattr(
        stframe.frames, "_penalty_of_components", lambda comp, scale: PENALTY_TOLERANCE
    )
    for read in (st_components, sf.classify_sign_cases, sf.st_vectors):
        with pytest.raises(NotSTFrame):
            read(R, F)
    with pytest.raises(SearchFailed) as exc:
        sf.find_st_basis(R)
    assert exc.value.penalty == PENALTY_TOLERANCE
    assert exc.value.construction_path == "closed-form"
    assert str(exc.value) == f"frame search failed: best penalty {PENALTY_TOLERANCE:.3e}"


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


def test_sign_case_table_derived_symbolically():
    # the ST-frame tensor of symbolic a', a'' = eps a' and b, for each case's
    # signs eps: its Ricci tensor is diagonal and free of b, the case's
    # relation between the diagonal entries vanishes identically, and the
    # deficit |a|^2 - |a'|^2 is -|rho_0|^2 / 4
    sympy = pytest.importorskip("sympy")
    a_prime = sympy.symbols("a1:4", real=True)
    b = sympy.symbols("b1:4", real=True)
    for case, (signs, relation) in SIGN_CASES.items():
        a_dprime = [e * a for e, a in zip(signs, a_prime)]
        entries = dict(zip(ST_B_INDICES, b))
        for (i, j), (k, l), a1, a2 in zip(ST_A_PRIME_PLANES, ST_A_DPRIME_PLANES, a_prime, a_dprime):
            entries[(i, j, i, j)], entries[(k, l, k, l)] = a1, a2
        comp = {}
        for (i, j, k, l), v in entries.items():
            for idx, sign in symmetry_orbit(i - 1, j - 1, k - 1, l - 1):
                comp[idx] = sign * v
        rho = sympy.Matrix(4, 4, lambda i, j: sum(comp.get((m, i, j, m), 0) for m in range(4)))
        assert rho.is_diagonal(), case
        assert not rho.free_symbols & set(b), case
        lam = rho.diagonal()
        assert relation(*lam) == 0, case
        tau = sum(lam)
        rho0_sq = sum((x - tau / 4) ** 2 for x in lam)
        a = [(a1 + a2) / 2 for a1, a2 in zip(a_prime, a_dprime)]
        f = sum(x ** 2 for x in a) - sum(x ** 2 for x in a_prime)
        assert sympy.expand(f + rho0_sq / 4) == 0, case


def test_f_by_case_checks_relation():
    with pytest.raises(CaseRelationViolated):
        sf.f_by_case([1.0, 2.0, 3.0, 4.0], "i")


def test_near_zero_plane_pair_drops_cases_whose_relation_misses():
    # both signs of the first plane pair pass the component test, but the
    # eigenvalue relation of one of the two cases they allow misses it: that
    # case is dropped, and the one left agrees with f
    R0 = st_construction((3e-9, 0.6, 1.3), (1, -1, -1), (0.3, -0.87, 0.57))
    rng = np.random.default_rng(20)
    for _ in range(20):
        R = sf.rotate(R0, sf.random_frame(rng))
        rep = sf.find_st_basis(R)
        f = sf.f_value(sf.st_vectors(R, rep.frame))
        assert rep.sign_cases.cases
        for case in rep.sign_cases.cases:
            f_case = sf.f_by_case(rep.sign_cases.eigenvalues, case)
            assert f_case == pytest.approx(f, abs=1e-12 * R.scale ** 2)


def unmatched_plane_pair_tensor(t: float) -> sf.Curvature4:
    """A tensor whose third plane pair misses an ST frame's by t:
    a' = (1, 0.6, t) and a'' = (1, 0.6, 0), rotated by one random frame.
    Its weakly Einstein residual moves by only about t^2."""
    entries = dict(zip(ST_B_INDICES, (0.3, -0.5, 0.2)))
    for (i, j), (k, l), a1, a2 in zip(
        ST_A_PRIME_PLANES, ST_A_DPRIME_PLANES, (1.0, 0.6, t), (1.0, 0.6, 0.0)
    ):
        entries[(i, j, i, j)] = a1
        entries[(k, l, k, l)] = a2
    R0 = curvature_from_components(entries)
    return sf.rotate(R0, sf.random_frame(np.random.default_rng(0)))


def test_unmatched_plane_pair_below_the_sign_tolerance_is_answered():
    R = unmatched_plane_pair_tensor(1e-9)
    assert sf.weakly_einstein_residual(R).passes
    assert sf.find_st_basis(R).sign_cases.cases == ("i", "ii")


@pytest.mark.xfail(
    strict=True, raises=NotSTFrame,
    reason="the second-order verdict passes a plane pair off by t below about 3e-5 and the "
    "first-order sign test refuses it",
)
@pytest.mark.parametrize("t", [1e-8, 1e-6, 4e-5])
def test_unmatched_plane_pair_the_verdict_passes_is_answered(t):
    R = unmatched_plane_pair_tensor(t)
    assert sf.weakly_einstein_residual(R).passes
    assert sf.find_st_basis(R).sign_cases.cases


# --- constructive search ------------------------------------------------------

def test_find_st_basis_requires_weakly_einstein():
    with pytest.raises(NotWeaklyEinstein):
        sf.find_st_basis(sf.surface_product(1.0, 2.0))


def test_find_st_basis_direct_path_on_adapted_tensor():
    # four distinct Ricci eigenvalues (pattern V), the only pattern whose
    # eigenbasis is unique; the eigenframe lists the construction's axes in
    # the order e2, e3, e4, e1, so eps = (1, -1, -1) reads as case vii
    R = st_construction((0.4, 0.7, 1.0), (1, -1, -1), (0.3, -0.8, 0.5))
    rep = sf.find_st_basis(R)
    assert rep.eigen.pattern.tag == "V"
    assert rep.construction_path == "direct-eigenbasis"
    assert rep.penalty < PENALTY_TOLERANCE
    assert rep.sign_cases.cases == ("vii",)
    assert rep.frame.orientation == 1


@pytest.mark.parametrize("s", (1e-90, 1e90), ids=lambda s: f"{s:g}")
def test_find_st_basis_at_extreme_scales(s):
    # the penalty divides the components by the scale before squaring them;
    # s^2 and s^4 themselves would underflow or overflow here
    Q = sf.random_frame(np.random.default_rng(9))
    for R0 in (
        st_construction((0.4, 0.7, 1.0), (1, -1, -1), (0.3, -0.8, 0.5)),
        sf.surface_product(1.0, -1.0),
    ):
        R1 = sf.rotate(R0, Q)
        unit = sf.find_st_basis(R1)
        R = sf.rotate(sf.make_curvature(s * R0.comp), Q)
        rep = sf.find_st_basis(R)
        assert rep.construction_path == unit.construction_path
        assert rep.penalty < PENALTY_TOLERANCE
        assert rep.sign_cases.cases == unit.sign_cases.cases
        f = sf.f_value(sf.st_vectors(R, rep.frame)) / s ** 2
        assert f == pytest.approx(sf.f_value(sf.st_vectors(R1, unit.frame)), abs=1e-12)


def test_find_st_basis_recovers_rotated_tensor():
    R, _ = sf.gallery("example4", a=1.0, b=0.5)
    Q = sf.random_frame(np.random.default_rng(7))
    rep = sf.find_st_basis(sf.rotate(R, Q))
    assert rep.penalty < PENALTY_TOLERANCE


def test_find_st_basis_pattern_ii_rotation(pattern_ii_tensor):
    rep = sf.find_st_basis(pattern_ii_tensor)
    assert rep.eigen.pattern.tag == "II"
    assert rep.construction_path == "closed-form"
    assert rep.penalty < PENALTY_TOLERANCE


def test_find_st_basis_pattern_iii_rotation(pattern_iii_tensor):
    rep = sf.find_st_basis(pattern_iii_tensor)
    assert rep.eigen.pattern.tag == "III"
    assert rep.construction_path == "closed-form"
    assert rep.penalty < PENALTY_TOLERANCE


def test_find_st_basis_pattern_iv_rotation(pattern_iv_tensor):
    rep = sf.find_st_basis(pattern_iv_tensor)
    assert rep.eigen.pattern.tag == "IV"
    assert rep.construction_path == "closed-form"
    assert rep.penalty < PENALTY_TOLERANCE


def test_find_st_basis_einstein_tensor_in_generic_frame():
    R = sf.rotate(sf.constant_curvature(1.0), sf.random_frame(np.random.default_rng(10)))
    rep = sf.find_st_basis(R)
    assert rep.eigen.pattern.tag == "I"
    assert rep.penalty < PENALTY_TOLERANCE
    assert "i" in rep.sign_cases.cases


@pytest.mark.parametrize(
    "eps",
    list(itertools.product((1, -1), repeat=3)),
    ids=lambda eps: "".join("+" if e > 0 else "-" for e in eps),
)
def test_find_st_basis_on_generated_tensors(eps):
    # a' and a'' = eps a' and b placed in a frame, scaled by 10^U(-12, 12) and
    # randomly rotated; eps = (1, 1, 1) gives generic Einstein tensors
    rng = np.random.default_rng(sum(2 ** k for k, e in enumerate(eps) if e < 0))
    for pattern, equal, flat, count in GENERATED_SHAPES[list(eps).count(-1)]:
        for _ in range(count):
            a, b = draw_st_shape(rng, eps, equal, flat)
            s = 10 ** rng.uniform(-12, 12)
            R = sf.rotate(st_construction(s * a, eps, s * b), sf.random_frame(rng))
            rep = sf.find_st_basis(R)
            assert rep.construction_path in ("direct-eigenbasis", "closed-form")
            assert rep.eigen.pattern.tag == pattern
            # the penalty and the sign cases were read from this one array
            assert np.array_equal(rep.components, sf.rotate(R, rep.frame).comp)
            assert not rep.components.flags.writeable
            # the frame checked on its own rotation, not through st_penalty
            F, m = rep.frame.matrix, np.abs(R.comp).max()
            c = np.einsum("ia,jb,kc,ld,abcd->ijkl", F, F, F, F, R.comp)
            assert max(abs(c[i, j, j, k]) for i, j, k in MIXED_TRIPLES) <= 1e-9 * m
            for (i, j), (k, l) in PLANE_PAIRS:
                assert abs(c[i, j, i, j] ** 2 - c[k, l, k, l] ** 2) <= 1e-9 * m * m
            v = sf.st_vectors(R, rep.frame)
            f = sf.f_value(v)
            assert f <= 1e-12 * R.scale ** 2  # f <= 0 up to rounding
            # f and the densities against their frame-free formulas
            assert (f, *sf.densities(v)) == pytest.approx(
                frame_free_invariants(R.comp), abs=1e-12 * R.scale ** 2
            )
            # f_by_case checks a case's relation against max(1, max |lambda|),
            # which a Ricci-flat spectrum (rounding noise) misses above a
            # scale of about 1e7, a known fault listed in CHANGES.md; on those
            # shapes only the f the sign-case set carries is checked
            assert rep.sign_cases.f == pytest.approx(f, abs=1e-9 * R.scale ** 2)
            for case in rep.sign_cases.cases:
                if not flat:
                    f_case = sf.f_by_case(rep.sign_cases.eigenvalues, case)
                    assert f_case == pytest.approx(f, abs=1e-9 * R.scale ** 2)


def test_closed_form_frame_lists_the_ricci_eigenvalues_in_canonical_order():
    # the closed form orders its rows as the spectrum's canonical eigenframe,
    # swapping e3 and e4 when that reaches det +1, so the frame's Ricci
    # diagonal is the canonically ordered spectrum up to its last two entries
    rng = np.random.default_rng(30)
    for minus, shapes in GENERATED_SHAPES.items():
        eps = (1,) * (3 - minus) + (-1,) * minus
        for pattern, equal, flat, _ in shapes:
            if pattern == "V":
                continue
            for _ in range(5):
                a, b = draw_st_shape(rng, eps, equal, flat)
                s = 10 ** rng.uniform(-6, 6)
                R = sf.rotate(st_construction(s * a, eps, s * b), sf.random_frame(rng))
                st = sf.find_st_basis(R)
                assert st.construction_path == "closed-form"
                want = st.eigen.eigenvalues[list(st.eigen.pattern.canonical_order)]
                got, tol = st.sign_cases.eigenvalues, 1e-9 * R.scale
                assert any(
                    np.abs(got - want[order]).max() <= tol
                    for order in ([0, 1, 2, 3], [0, 1, 3, 2])
                ), (pattern, got, want)


def test_find_st_basis_pattern_v_takes_eigenbasis_at_small_ricci_gaps():
    # rho is diagonal in an ST frame, so the Ricci eigenframe of four
    # distinct eigenvalues is an ST frame however close two of them are;
    # here one pair is set 10^U(-5.9, -3) * max |R| apart
    rng = np.random.default_rng(11)
    zero_b = (0.0, 0.0, 0.0)
    # per eps with a pattern-V shape, the Ricci eigenvalues of the unrotated
    # construction as a linear map of a' (b does not enter them)
    lam_of_a = {
        eps: np.array([np.diag(loop_ricci(st_construction(u, eps, zero_b).comp))
                       for u in np.eye(3)]).T
        for eps in itertools.product((1, -1), repeat=3) if eps.count(-1) >= 2
    }
    for n in range(200):
        eps = list(lam_of_a)[n % len(lam_of_a)]
        gap = 10 ** rng.uniform(-5.9, -3)
        Q = sf.random_frame(rng)
        while True:
            a = rng.uniform(0.3, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
            b = rng.uniform(-1.0, 1.0, 3)
            b[2] = -b[0] - b[1]
            p, q = rng.choice(4, 2, replace=False)
            d = lam_of_a[eps][p] - lam_of_a[eps][q]
            for _ in range(3):  # the gap relative to max |R| of the rotated tensor
                m = np.abs(sf.rotate(st_construction(a, eps, b), Q).comp).max()
                a = a + (gap * m - d @ a) * d / (d @ d)
            lam = lam_of_a[eps] @ a
            others = [abs(lam[i] - lam[j]) for i, j in itertools.combinations(range(4), 2)
                      if {i, j} != {p, q}]
            if min(others) >= 0.05 * m:
                break
        s = 10 ** rng.uniform(-3, 3)
        R = sf.rotate(st_construction(s * a, eps, s * b), Q)
        rep = sf.find_st_basis(R)
        assert rep.eigen.pattern.tag == "V"
        assert rep.construction_path == "direct-eigenbasis"
        assert rep.penalty < PENALTY_TOLERANCE
        assert rep.frame.orientation == 1
        F, m = rep.frame.matrix, np.abs(R.comp).max()
        c = np.einsum("ia,jb,kc,ld,abcd->ijkl", F, F, F, F, R.comp, optimize=True)
        assert max(abs(c[i, j, j, k]) for i, j, k in MIXED_TRIPLES) <= 1e-9 * m


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
        assert rep.penalty < PENALTY_TOLERANCE


def _near_split_shape(rng, family, delta):
    """(a', eps, b) at unit size of one of three near-degenerate families,
    whose Ricci eigenvalues lie about delta apart: eps = (1, -1, -1) with
    b = 0 and a' = (u, v + delta, v); eps = (-1, 1, 1) with a'_1 = delta / 2;
    eps = (-1, -1, 1) with a'_1 = a'_2 + delta."""
    a = rng.uniform(0.3, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
    b = rng.uniform(-1.0, 1.0, 3)
    b[2] = -b[0] - b[1]
    if family == 0:
        a[1] = a[2] + delta
        return a, (1, -1, -1), np.zeros(3)
    if family == 1:
        a[0] = delta / 2
        return a, (-1, 1, 1), b
    a[0] = a[1] + delta
    return a, (-1, -1, 1), b


@pytest.mark.parametrize("family", range(3))
def test_find_st_basis_answers_near_split_spectra(family):
    # the Ricci pattern the threshold reads can be one whose frame the tensor
    # does not have (a gap of delta ~ 1e-8 read as apart, or one read as
    # equal); the search then takes the reading whose frame passes
    rng = np.random.default_rng([family, 32])
    for _ in range(200):
        delta = 10 ** rng.uniform(-9, -4)
        a, eps, b = _near_split_shape(rng, family, delta)
        s = 10 ** rng.uniform(-3, 3)
        R = sf.rotate(st_construction(s * a, eps, s * b), sf.random_frame(rng))
        rep = sf.find_st_basis(R)
        assert rep.penalty < PENALTY_TOLERANCE
        assert (rep.construction_path == "direct-eigenbasis") == (rep.eigen.pattern.tag == "V")
        f = frame_free_invariants(R.comp)[0]
        assert rep.sign_cases.f == pytest.approx(f, rel=0, abs=1e-12 * R.scale ** 2)


def test_find_st_basis_result_frame_is_oriented():
    for name, params in WEAKLY_EINSTEIN_GALLERY[:4]:
        R, _ = sf.gallery(name, **params)
        rep = sf.find_st_basis(R)
        assert rep.frame.orientation == 1


def test_find_st_basis_is_deterministic():
    R, _ = sf.gallery("example-pm-c", c=1.0)
    Q = sf.random_frame(np.random.default_rng(5))
    Rr = sf.rotate(R, Q)
    a = sf.find_st_basis(Rr)
    b = sf.find_st_basis(Rr)
    assert np.array_equal(a.frame.matrix, b.frame.matrix)
    assert a.penalty == b.penalty


def test_generic_fallback_fails_on_incompatible_tensor():
    R = sf.surface_product(1.0, 2.0)
    # not weakly Einstein: no generalized frame exists and the minimizer
    # stalls well above the feasibility threshold on every start
    _, best, per_start = sf.generic_st_fallback(R, n_starts=5, seed=0)
    assert best > 1e-6
    assert len(per_start) == 5


def test_generic_fallback_needs_a_start():
    with pytest.raises(ValueError):
        sf.generic_st_fallback(sf.constant_curvature(1.0), n_starts=0)


def test_generic_fallback_finds_frame_of_feasible_tensor():
    # rotated ST constructions of pattern V and of pattern II (|a'_2| = |a'_3|
    # where eps is -1 repeats a Ricci eigenvalue, and leaves a circle of
    # frames): the minimizer reaches the tolerance within five starts, and
    # reproduces its answer from the seed
    rng = np.random.default_rng(12)
    shapes = (
        ("V", (0.4, 0.7, 1.0), (0.3, -0.8, 0.5)),
        ("II", (0.5, 0.8, -0.8), (0.2, 0.4, -0.6)),
    )
    for k, (pattern, a, b) in enumerate(shapes):
        for _ in range(3):
            R = sf.rotate(st_construction(a, (1, -1, -1), b), sf.random_frame(rng))
            assert sf.find_st_basis(R).eigen.pattern.tag == pattern
            F, best, per_start = sf.generic_st_fallback(R, n_starts=5, seed=k)
            assert best < PENALTY_TOLERANCE
            st_components(R, F)  # raises NotSTFrame on a frame above the tolerance
            G, _, again = sf.generic_st_fallback(R, n_starts=5, seed=k)
            assert np.array_equal(F.matrix, G.matrix)
            assert again == per_start


def sign_case_classes(cases) -> set:
    """The classes {i}, {ii, iii, iv}, {v, vi, vii} and {viii} of cases, as
    their numbers of -1 signs; a frame's row order moves a case inside its
    class only."""
    return {SIGN_CASES[c].signs.count(-1) for c in cases}


def test_generic_fallback_is_a_second_route_to_every_frame_free_output():
    # the fallback reads neither the Ricci pattern nor the closed form: on
    # five rotated, scaled draws of each generated shape, which cover all
    # five patterns, its frame gives the classes of the sign cases that
    # find_st_basis gives, and f and the chi and p1 densities within
    # 256 eps s^2 of find_st_basis's and of the frame-free values (2,360
    # such draws measured at most 98 eps s^2).  Five starts stalled in a
    # local minimum on 17 of 1,600 draws; each was answered within 9 starts
    rng = np.random.default_rng(14)
    patterns = set()
    for count, shapes in GENERATED_SHAPES.items():
        signs = [e for e in itertools.product((1, -1), repeat=3) if e.count(-1) == count]
        for pattern, equal, flat, _ in shapes:
            for _ in range(5):
                eps = signs[rng.integers(len(signs))]
                a, b = draw_st_shape(rng, eps, equal, flat)
                s = 10 ** rng.uniform(-3, 3)
                R = sf.rotate(st_construction(s * a, eps, s * b), sf.random_frame(rng))
                rep = sf.find_st_basis(R)
                patterns.add(rep.eigen.pattern.tag)
                F, best, _ = sf.generic_st_fallback(R, n_starts=20)
                assert best < PENALTY_TOLERANCE
                assert sign_case_classes(sf.classify_sign_cases(R, F).cases) == \
                    sign_case_classes(rep.sign_cases.cases)
                v, w = sf.st_vectors(R, F), vectors_from_components(rep.components, R.scale)
                got = (sf.f_value(v), *sf.densities(v))
                tol = 256 * np.finfo(float).eps * R.scale ** 2
                assert got == pytest.approx((sf.f_value(w), *sf.densities(w)), rel=0, abs=tol)
                assert got == pytest.approx(frame_free_invariants(R.comp), rel=0, abs=tol)
    assert patterns == {"I", "II", "III", "IV", "V"}


def _pass_the_precondition(monkeypatch):
    """Make find_st_basis take every tensor as weakly Einstein."""
    passing = sf.weakly_einstein_residual(sf.constant_curvature(1.0))
    monkeypatch.setattr(stframe.frames, "weakly_einstein_residual", lambda R: passing)


def test_search_failure_carries_penalty_and_path(monkeypatch):
    # S^2(1) x S^2(2) is not weakly Einstein and has no ST frame
    _pass_the_precondition(monkeypatch)
    with pytest.raises(SearchFailed) as exc:
        sf.find_st_basis(sf.surface_product(1.0, 2.0))
    e = exc.value
    assert e.penalty > 1e-6
    assert e.construction_path == "closed-form"
    assert str(e) == f"frame search failed: best penalty {e.penalty:.3e}"


def _perturbed_st_tensor(rng) -> sf.Curvature4:
    """An exact ST tensor of a random eps and GENERATED_SHAPES shape, plus
    delta = 10^U(-11, -5) times a projected Gaussian curvature tensor of
    unit scale, scaled by 10^U(-3, 3) and rotated."""
    eps = tuple(int(e) for e in rng.choice((1, -1), 3))
    shapes = GENERATED_SHAPES[eps.count(-1)]
    _, equal, flat, _ = shapes[rng.integers(len(shapes))]
    a, b = draw_st_shape(rng, eps, equal, flat)
    noise = sf.project_to_curvature(rng.normal(size=(4,) * 4)).comp
    delta = 10 ** rng.uniform(-11, -5) / np.abs(noise).max()
    comp = st_construction(a, eps, b).comp + delta * noise
    return sf.rotate(sf.make_curvature(10 ** rng.uniform(-3, 3) * comp), sf.random_frame(rng))


def test_the_search_finds_no_frame_the_verdict_refuses(monkeypatch):
    # find_st_basis takes no tol: a looser verdict would only hand the search
    # tensors it then refuses.  Of 400 perturbed ST tensors the default
    # verdict refuses about half; run past the verdict, the search answers
    # none of them (at DEFAULT_TOL = 1e-10 it would answer 42)
    rng = np.random.default_rng(7)
    refused = []
    for _ in range(400):
        R = _perturbed_st_tensor(rng)
        try:
            sf.find_st_basis(R)
        except NotWeaklyEinstein:
            refused.append(R)
        except StframeError:
            pass  # the verdict passes it and the search refuses it
    assert len(refused) > 100
    _pass_the_precondition(monkeypatch)
    answered = []
    for R in refused:
        with contextlib.suppress(StframeError):
            answered.append(sf.find_st_basis(R))
    assert answered == []
