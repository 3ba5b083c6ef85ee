"""Acceptance gate: one test per acceptance criterion, each printing a single
PASS/FAIL line.  Tolerances are part of the contract and must not be loosened.
"""

import json
import math

import numpy as np

import stframe as sf
from stframe.cli import main
from stframe.frames import PLANE_PAIRS
from stframe.sources import example_s2_1_algebra

from conftest import WEAKLY_EINSTEIN_GALLERY


def report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_convention_lock():
    conn, R = sf.lie_group_curvature(example_s2_1_algebra())
    gammas = {
        (1, 3, 4): -1.0,
        (2, 1, 2): -2.0,
        (3, 1, 3): 1.0,
        (3, 1, 4): -1.0,
        (4, 1, 3): -1.0,
        (4, 1, 4): 1.0,
    }
    ok = all(
        abs(conn.gamma[i - 1, j - 1, k - 1] - v) <= 1e-12
        for (i, j, k), v in gammas.items()
    )
    curvatures = {
        (1, 2, 1, 2): 4.0,
        (1, 4, 1, 4): 4.0,
        (2, 3, 2, 3): -2.0,
        (2, 4, 2, 4): -2.0,
        (1, 3, 1, 4): -2.0,
        (2, 3, 2, 4): 2.0,
    }
    ok &= all(
        abs(R.comp[i - 1, j - 1, k - 1, l - 1] - v) <= 1e-12
        for (i, j, k, l), v in curvatures.items()
    )
    eig = np.sort(np.linalg.eigvalsh(sf.ricci(R)))[::-1]
    ok &= bool(np.abs(eig - np.array([2.0, 0.0, -2.0, -8.0])).max() <= 1e-10)
    report(1, "solvable-group connection, curvature and Ricci spectrum", ok)


def test_criterion_02_universal_identity():
    ok = True
    for name in sf.GALLERY_NAMES:
        R, _ = sf.gallery(name)
        ok &= sf.identity_residual(R).relative < 1e-9
    for seed in range(1000):
        ok &= sf.identity_residual(sf.random_curvature(seed)).relative < 1e-9
        if not ok:
            break
    report(2, "universal identity on gallery and 1000 random tensors", ok)


def test_criterion_03_weakly_einstein_verdicts():
    ok = True
    for a in (1.0, 2.0):
        for b in (0.0, 0.5):
            R, _ = sf.gallery("example4", a=a, b=b)
            ok &= sf.weakly_einstein_residual(R).relative < 1e-12
    for c in (1.0, 3.0):
        ok &= sf.weakly_einstein_residual(sf.surface_product(c, -c)).relative < 1e-12
    rep = sf.weakly_einstein_residual(sf.surface_product(1.0, 2.0))
    ok &= not rep.passes
    ok &= bool(np.abs(rep.matrix - np.diag([-3.0, -3.0, 3.0, 3.0])).max() <= 1e-10)
    rep = sf.weakly_einstein_residual(sf.space_form_product(1.0))
    ok &= not rep.passes
    ok &= abs(rep.matrix[3, 3] - (-3.0)) <= 1e-10
    eig = np.sort(np.linalg.eigvalsh(sf.ricci(sf.space_form_product(1.0))))[::-1]
    ok &= sf.forbidden_pattern(eig, 1e-6) == 1
    report(3, "weakly-Einstein verdicts with known residual matrices", ok)


def test_criterion_04_not_einstein_witness():
    R, _ = sf.gallery("example4", a=1.0, b=0.0)
    rho = sf.ricci(R)
    ok = abs(rho[0, 0] - (-3.0)) <= 1e-12
    ok &= abs(rho[1, 1] - 1.0) <= 1e-12
    ok &= not sf.einstein_residual(R).passes
    report(4, "non-Einstein witness with exact Ricci entries", ok)


def test_criterion_05_frame_search_under_random_rotations():
    rng = np.random.default_rng(2026)
    frames = [sf.random_frame(rng) for _ in range(100)]
    ok = True
    for name, params in WEAKLY_EINSTEIN_GALLERY:
        R, _ = sf.gallery(name, **params)
        threshold = 1e-16 * R.scale ** 4
        for Q in frames:
            rep = sf.find_st_basis(sf.rotate(R, Q))
            ok &= rep.penalty < threshold
            comp = sf.rotate(sf.rotate(R, Q), rep.frame).comp
            for (i, j), (k, l) in PLANE_PAIRS:
                diff = abs(comp[i, j, i, j] ** 2 - comp[k, l, k, l] ** 2)
                ok &= diff <= 1e-8 * R.scale ** 2
            if not ok:
                break
        if not ok:
            break
    report(5, "frame recovery for rotated weakly-Einstein tensors (100 each)", ok)


def test_criterion_06_fallback_detects_infeasibility():
    R = sf.surface_product(1.0, 2.0)
    _, best, per_start = sf.generic_st_fallback(R, n_starts=20, seed=0)
    ok = len(per_start) == 20
    ok &= all(p >= 1e-6 for p in per_start)
    ok &= best >= 1e-6
    report(6, "no frame below penalty 1e-6 for the incompatible product", ok)


def test_criterion_07_einstein_unsquared_equalities():
    rng = np.random.default_rng(77)
    ok = True
    for R in (
        sf.constant_curvature(1.0),
        sf.constant_curvature(-1.0),
        sf.surface_product(1.0, 1.0),
    ):
        Rr = sf.rotate(R, sf.random_frame(rng))
        rep = sf.find_st_basis(Rr)
        comp = sf.rotate(Rr, rep.frame).comp
        for (i, j), (k, l) in PLANE_PAIRS:
            ok &= abs(comp[i, j, i, j] - comp[k, l, k, l]) <= 1e-8
    report(7, "unsquared plane equalities for rotated Einstein tensors", ok)


def test_criterion_08_sign_case_classification():
    R = sf.surface_product(1.0, -1.0)
    rep = sf.find_st_basis(R)
    ok = rep.sign_cases.cases == ("ii", "vi", "vii", "viii")
    ok &= abs(float(np.sum(rep.sign_cases.eigenvalues))) <= 1e-10
    R4, _ = sf.gallery("example4", a=1.0, b=0.0)
    rep4 = sf.find_st_basis(R4)
    ok &= "v" in rep4.sign_cases.cases
    lam = rep4.sign_cases.eigenvalues
    ok &= abs(lam[0] + lam[1] - lam[2] - lam[3]) <= 1e-10
    report(8, "sign cases for the split product and the group family", ok)


def test_criterion_09_f_cross_validation():
    ok = True
    for name, params in WEAKLY_EINSTEIN_GALLERY:
        R, meta = sf.gallery(name, **params)
        rep = sf.find_st_basis(R)
        f = sf.f_value(sf.st_vectors(R, rep.frame))
        for case in rep.sign_cases.cases:
            f_closed = sf.f_by_case(rep.sign_cases.eigenvalues, case)
            ok &= abs(f - f_closed) <= 1e-8 * R.scale ** 2
        ok &= f <= 1e-12 * R.scale ** 2
        if meta["einstein"]:
            ok &= abs(f) <= 1e-12 * R.scale ** 2
    ok &= abs(sf.f_value(sf.st_vectors(sf.surface_product(1.0, -1.0), sf.identity_frame())) - (-1.0)) <= 1e-10
    R4, _ = sf.gallery("example4", a=1.0, b=0.0)
    rep4 = sf.find_st_basis(R4)
    ok &= abs(sf.f_value(sf.st_vectors(R4, rep4.frame)) - (-2.0)) <= 1e-10
    report(9, "deficit f matches the closed forms and is non-positive", ok)


def test_criterion_10_invariant_round_trip():
    ok = True
    for m in (2, 3):
        R, meta = sf.gallery("example6", m=m)
        rep = sf.find_st_basis(R)
        inv = sf.homogeneous_invariants(R, rep.frame, meta["volume"])
        ok &= abs(inv.chi - 4.0 * (1 - m)) <= 1e-9
        ok &= abs(inv.p1) <= 1e-9
        ok &= abs(inv.C - 8.0 * (1 - m)) <= 1e-9
        ok &= abs(2 * inv.chi + inv.p1 - inv.C) <= 1e-9
        ok &= abs(2 * inv.chi - inv.p1 - inv.C) <= 1e-9
        ok &= not inv.hitchin_ok
    sphere = sf.constant_curvature(1.0)
    inv = sf.homogeneous_invariants(
        sphere, sf.identity_frame(), 8.0 * math.pi ** 2 / 3.0
    )
    ok &= abs(inv.chi - 2.0) <= 1e-9
    ok &= abs(inv.p1) <= 1e-9
    ok &= inv.hitchin_ok
    report(10, "Euler/Pontryagin round trip and sphere control", ok)


def test_criterion_11_first_bianchi_vector():
    ok = True
    rng = np.random.default_rng(11)
    frames = [sf.random_frame(rng) for _ in range(100)]
    for seed in range(100):
        R = sf.random_curvature(seed)
        tol = 1e-10 * R.scale
        for Q in frames:
            c = sf.rotate(R, Q).comp
            total = c[0, 1, 2, 3] + c[0, 2, 3, 1] + c[0, 3, 1, 2]
            ok &= abs(total) <= tol
            if not ok:
                break
        if not ok:
            break
    report(11, "double-plane components sum to zero in every frame", ok)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    commands = [
        ["identity", "--gallery", "example-s2-1"],
        ["check", "--gallery", "example-products", "--c1", "1", "--c2", "2"],
        ["frame", "--gallery", "example4", "--a", "1", "--b", "0.5"],
        ["invariants", "--gallery", "example6", "--m", "2"],
        ["fuzz", "--count", "20", "--seed", "9"],
        ["gallery", "--all"],
    ]
    ok = True
    for argv in commands:
        p1, p2 = tmp_path / "first.json", tmp_path / "second.json"
        main(argv + ["--json", str(p1)])
        main(argv + ["--json", str(p2)])
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        ok &= b1 == b2
        json.loads(b1.decode("utf-8"))  # well-formed JSON
    capsys.readouterr()
    report(12, "machine reports byte-identical across repeated runs", ok)
