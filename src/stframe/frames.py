"""Ricci eigenframes, multiplicity patterns, sign-case classification and the
generalized Singer-Thorpe basis search.

The search follows the constructive existence proof: canonicalize the Ricci
eigenbasis (LAPACK eigh) by multiplicity pattern, then remove the remaining
mixed curvature components with one-parameter rotations inside degenerate
eigenspaces.  Each rotation angle maximizes a trigonometric polynomial fitted
exactly to a few samples; its stationary points are the roots of one quartic.
A penalty minimizer over SO(4) serves as fallback for the fully degenerate
pattern and for any constructive path that stalls.  st_components rotates a
tensor into a found frame and checks its penalty on that one array; the sign
cases and the ST vectors are read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .analysis import weakly_einstein_residual
from .errors import (
    CaseRelationViolated,
    DegenerateFit,
    NoConvergence,
    NotSTFrame,
    NotWeaklyEinstein,
    SearchFailed,
)
from .tensor import Curvature4, Frame4, random_frame, ricci, rotate

DEFAULT_TOL_MULT = 1e-6

#: ordered (i, j, k) index triples of the 24 mixed components R_ijjk (i != k)
MIXED_TRIPLES = tuple(
    (i, j, k)
    for i in range(4)
    for j in range(4)
    for k in range(4)
    if i != k and j != i and j != k
)

#: the three opposite-plane pairs ((i,j),(k,l)) entering the squared equalities
PLANE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _flat_positions(indices) -> np.ndarray:
    """Positions of 4-index tuples in a flattened 4x4x4x4 array."""
    return np.ravel_multi_index(tuple(zip(*indices)), (4,) * 4)


#: flat positions of the mixed components R_ijjk, and of the plane components
#: R_ijij and R_klkl of the plane pairs
_MIXED_FLAT = _flat_positions((i, j, j, k) for i, j, k in MIXED_TRIPLES)
_PLANE_FLAT = (
    _flat_positions((i, j, i, j) for (i, j), _ in PLANE_PAIRS),
    _flat_positions((k, l, k, l) for _, (k, l) in PLANE_PAIRS),
)


# --- eigensolver -------------------------------------------------------------

def sym_eigen(M: np.ndarray) -> tuple[np.ndarray, Frame4]:
    """Diagonalization of a symmetric 4x4 matrix by LAPACK's eigh.

    Returns eigenvalues sorted descending and the frame whose rows are the
    matching orthonormal eigenvectors, orientation-corrected to det +1.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (4, 4) or not np.all(np.isfinite(M)):
        raise NoConvergence("input must be a finite 4x4 matrix")
    if np.abs(M - M.T).max() > 1e-12 * max(1.0, np.abs(M).max()):
        raise NoConvergence("input matrix is not symmetric")
    try:
        eig, vecs = np.linalg.eigh(M)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(str(e)) from e
    rows = vecs.T[::-1].copy()
    if np.linalg.det(rows) < 0:
        rows[3] = -rows[3]
    return eig[::-1].copy(), Frame4(rows)


# --- multiplicity patterns ---------------------------------------------------

@dataclass(frozen=True)
class MultiplicityPattern:
    """Eigenvalue-equality structure of a sorted Ricci spectrum."""

    tag: str
    blocks: tuple[tuple[int, ...], ...]
    canonical_order: tuple[int, int, int, int]


@dataclass(frozen=True)
class RicciSpectrum:
    eigenvalues: np.ndarray
    frame: Frame4
    pattern: MultiplicityPattern


def multiplicity_pattern(eigenvalues, tol_mult: float) -> MultiplicityPattern:
    """Group sorted eigenvalues by transitive closure of near-equality."""
    lam = np.asarray(eigenvalues, dtype=float)
    s = max(1.0, float(np.abs(lam).max()))
    blocks: list[list[int]] = [[0]]
    for i in range(1, 4):
        if abs(lam[i] - lam[blocks[-1][-1]]) <= tol_mult * s:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    sizes = sorted((len(b) for b in blocks), reverse=True)
    tag = {(4,): "I", (2, 1, 1): "II", (2, 2): "III", (3, 1): "IV", (1, 1, 1, 1): "V"}[
        tuple(sizes)
    ]
    # canonical slot assignment: repeated block first (pair for II/III, triple
    # for IV), remaining eigenvalues keep their descending order
    if tag == "II":
        pair = next(b for b in blocks if len(b) == 2)
        singles = [i for i in range(4) if i not in pair]
        order = (*pair, *singles)
    elif tag == "IV":
        triple = next(b for b in blocks if len(b) == 3)
        single = next(i for i in range(4) if i not in triple)
        order = (*triple, single)
    else:
        order = (0, 1, 2, 3)
    return MultiplicityPattern(
        tag=tag,
        blocks=tuple(tuple(b) for b in blocks),
        canonical_order=tuple(order),
    )


def ricci_spectrum(R: Curvature4, tol_mult: float = DEFAULT_TOL_MULT) -> RicciSpectrum:
    eig, frame = sym_eigen(ricci(R))
    return RicciSpectrum(
        eigenvalues=eig,
        frame=frame,
        pattern=multiplicity_pattern(eig, tol_mult),
    )


# --- penalty -----------------------------------------------------------------

def _penalty_of_components(comp: np.ndarray, scale: float) -> float:
    flat = comp.reshape(-1)
    mixed = flat[_MIXED_FLAT]
    first, second = flat[_PLANE_FLAT[0]], flat[_PLANE_FLAT[1]]
    planes = first * first - second * second
    return float(mixed @ mixed + planes @ planes) / scale ** 4


def st_penalty(R: Curvature4, F: Frame4) -> float:
    """Non-negative frame penalty; zero exactly on generalized Singer-Thorpe
    frames (all 24 mixed components R'_ijjk vanish and the three squared
    plane-pair equalities hold).  Normalized by scale^4."""
    return _penalty_of_components(rotate(R, F).comp, R.scale)


def penalty_tolerance(R: Curvature4) -> float:
    return 1e-16 * R.scale ** 4


def st_components(R: Curvature4, F: Frame4) -> np.ndarray:
    """Components of R in F, rotated once; raises NotSTFrame unless F is a
    generalized Singer-Thorpe frame of R."""
    comp = rotate(R, F).comp
    if _penalty_of_components(comp, R.scale) > penalty_tolerance(R):
        raise NotSTFrame("frame penalty above tolerance")
    return comp


# --- trigonometric interpolation ---------------------------------------------

_THREE = (0.0, math.pi / 4, math.pi / 2)
_FIVE = (0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2)

#: rows (1, cos 2t, sin 2t, cos t, sin t) at the five sample angles
_FIVE_DESIGN = np.array(
    [[1.0, math.cos(2 * t), math.sin(2 * t), math.cos(t), math.sin(t)] for t in _FIVE]
)


def trig_fit_extremum(samples) -> float:
    """Global maximizer on (-pi, pi] of the trig polynomial interpolating the
    given samples.

    3 samples at t = 0, pi/4, pi/2 fit A + B cos 2t + C sin 2t; 5 samples at
    t = 0, +-pi/4, +-pi/2 additionally fit D cos t + E sin t.  Raises
    DegenerateFit (carrying t_star = 0) when the fit is constant.  Ties between
    maxima go to the smallest |t|, then the smaller t.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape == (3,):
        a = 0.5 * (f[0] + f[2])
        coef = np.array([a, 0.5 * (f[0] - f[2]), f[1] - a, 0.0, 0.0])
    elif f.shape == (5,):
        coef = np.linalg.solve(_FIVE_DESIGN, f)
    else:
        raise ValueError("expected 3 or 5 samples")
    a, b, c, d, e = coef
    amplitude = max(abs(b), abs(c), abs(d), abs(e))
    if amplitude < 1e-14:
        raise DegenerateFit()

    def derivatives(t):
        c1, s1, c2, s2 = np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)
        return (
            a + b * c2 + c * s2 + d * c1 + e * s1,
            -2 * b * s2 + 2 * c * c2 - d * s1 + e * c1,
            -4 * b * c2 - 4 * c * s2 - d * c1 - e * s1,
        )

    # with z = e^{it}, z^2 f'(t) is a quartic in z whose unit-circle roots are
    # the stationary points; Newton steps polish their arguments
    t = np.angle(np.roots([c + 1j * b, 0.5 * (e + 1j * d), 0.0, 0.5 * (e - 1j * d), c - 1j * b]))
    for _ in range(4):
        _, d1, d2 = derivatives(t)
        t = t - np.divide(d1, d2, out=np.zeros_like(t), where=np.abs(d2) > 1e-12)
    t = np.angle(np.exp(1j * t))
    val, d1, _ = derivatives(t)
    stationary = np.abs(d1) <= 1e-9 * amplitude
    if not stationary.any():  # pragma: no cover - a maximum is always a root
        raise DegenerateFit()
    t, val = t[stationary], val[stationary]
    best = val.max()
    ties = t[val >= best - 1e-12 * max(1.0, abs(best))]
    t_star = min(ties, key=lambda x: (abs(x), x))
    if t_star <= -math.pi:
        t_star += 2 * math.pi
    return float(t_star)


# --- frame manipulation helpers ----------------------------------------------

def _plane_rotated(F: Frame4, p: int, q: int, t: float) -> Frame4:
    rows = F.matrix.copy()
    c, s = math.cos(t), math.sin(t)
    rp, rq = rows[p].copy(), rows[q].copy()
    rows[p] = c * rp + s * rq
    rows[q] = -s * rp + c * rq
    return Frame4(rows)


def _eval_R(R: Curvature4, x, y, z, w) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", R.comp, x, y, z, w))


def _maximize_plane(objective, three_sample: bool) -> float:
    """Maximizing angle of a one-plane rotation objective; 0 if constant."""
    angles = _THREE if three_sample else _FIVE
    try:
        return trig_fit_extremum([objective(t) for t in angles])
    except DegenerateFit:
        return 0.0


# --- sign-case classification ------------------------------------------------

@dataclass(frozen=True)
class SignCaseSet:
    """Sign cases admitted by a generalized Singer-Thorpe frame."""

    cases: tuple[str, ...]
    epsilons: dict
    eigenvalues: np.ndarray
    relation_residuals: dict


class SignCase(NamedTuple):
    """One sign case: the signs eps of R'_ijij = eps R'_klkl on the three
    PLANE_PAIRS, the residual of its Ricci-eigenvalue relation and its
    closed-form deficit f, both functions of the eigenvalues l1..l4."""

    signs: tuple[int, int, int]
    relation: Callable[..., float]
    f: Callable[..., float]


#: the eight sign cases, in their canonical order
SIGN_CASES = {
    "i": SignCase(
        (1, 1, 1),
        lambda l1, l2, l3, l4: max(abs(l1 - l2), abs(l1 - l3), abs(l1 - l4)),
        lambda l1, l2, l3, l4: 0.0,
    ),
    "ii": SignCase(
        (-1, 1, 1),
        lambda l1, l2, l3, l4: max(abs(l1 - l2), abs(l3 - l4)),
        lambda l1, l2, l3, l4: -0.25 * (l1 - l3) ** 2,
    ),
    "iii": SignCase(
        (1, -1, 1),
        lambda l1, l2, l3, l4: max(abs(l1 - l3), abs(l2 - l4)),
        lambda l1, l2, l3, l4: -0.25 * (l1 - l2) ** 2,
    ),
    "iv": SignCase(
        (1, 1, -1),
        lambda l1, l2, l3, l4: max(abs(l1 - l4), abs(l2 - l3)),
        lambda l1, l2, l3, l4: -0.25 * (l1 - l3) ** 2,
    ),
    "v": SignCase(
        (1, -1, -1),
        lambda l1, l2, l3, l4: abs(l1 + l2 - l3 - l4),
        lambda l1, l2, l3, l4: -0.25 * ((l1 - l3) ** 2 + (l1 - l4) ** 2),
    ),
    "vi": SignCase(
        (-1, 1, -1),
        lambda l1, l2, l3, l4: abs(l1 + l3 - l2 - l4),
        lambda l1, l2, l3, l4: -0.25 * ((l1 - l2) ** 2 + (l1 - l4) ** 2),
    ),
    "vii": SignCase(
        (-1, -1, 1),
        lambda l1, l2, l3, l4: abs(l1 + l4 - l2 - l3),
        lambda l1, l2, l3, l4: -0.25 * ((l1 - l2) ** 2 + (l1 - l3) ** 2),
    ),
    "viii": SignCase(  # tau = 0
        (-1, -1, -1),
        lambda l1, l2, l3, l4: abs(l1 + l2 + l3 + l4),
        lambda l1, l2, l3, l4: -0.25 * ((l1 + l2) ** 2 + (l1 + l3) ** 2 + (l1 + l4) ** 2),
    ),
}


def classify_sign_cases(
    R: Curvature4, F: Frame4, tol: float = 1e-8
) -> SignCaseSet:
    """Admissible sign patterns relating opposite-plane components in an ST frame.

    For each plane pair, a sign eps is admissible when
    |R'_ijij - eps R'_klkl| <= tol*scale; both signs are admissible when both
    components vanish.  Each reported case's eigenvalue relation is asserted.
    """
    scale = R.scale
    comp = st_components(R, F)
    lam = np.einsum("aija->ij", comp).diagonal().copy()
    epsilons_per_pair = []
    for (i, j), (k, l) in PLANE_PAIRS:
        a, b = comp[i, j, i, j], comp[k, l, k, l]
        signs = [e for e in (1, -1) if abs(a - e * b) <= tol * scale]
        if not signs:
            raise NotSTFrame(
                f"no admissible sign for plane pair {(i + 1, j + 1)}/{(k + 1, l + 1)}"
            )
        epsilons_per_pair.append(signs)
    cases = []
    epsilons = {}
    residuals = {}
    for case, (signs, relation, _) in SIGN_CASES.items():
        if not all(e in admissible for e, admissible in zip(signs, epsilons_per_pair)):
            continue
        resid = relation(*lam)
        if resid > tol * scale:
            raise CaseRelationViolated(
                f"case ({case}) eigenvalue relation residual {resid:.3e}"
            )
        cases.append(case)
        epsilons[case] = signs
        residuals[case] = resid
    return SignCaseSet(
        cases=tuple(cases),
        epsilons=epsilons,
        eigenvalues=lam,
        relation_residuals=residuals,
    )


# --- constructive search -----------------------------------------------------

@dataclass(frozen=True)
class STReport:
    frame: Frame4
    penalty: float
    construction_path: str
    sign_cases: SignCaseSet
    eigen: RicciSpectrum
    degenerate_fit: bool = False


def _rotation_case_ii(R: Curvature4, F0: Frame4) -> tuple[Frame4, bool]:
    """One rotation in the repeated-eigenvalue plane (slots 1,2)."""
    e = F0.matrix

    def phi(t):
        c, s = math.cos(t), math.sin(t)
        return _eval_R(R, c * e[0] + s * e[1], e[2], -s * e[0] + c * e[1], e[3])

    try:
        t = trig_fit_extremum([phi(a) for a in _THREE])
        degenerate = False
    except DegenerateFit:
        t, degenerate = 0.0, True
    return _plane_rotated(F0, 0, 1, t), degenerate


def _rotation_case_iii(
    R: Curvature4, F0: Frame4, rng: np.random.Generator
) -> tuple[Frame4, float]:
    """Coordinate ascent over rotations in the two eigen-planes maximizing the
    sectional component R(e1, e3, e1, e3); returns the best start's frame and
    penalty.  Stops at the first start whose penalty is below tolerance."""
    ptol = penalty_tolerance(R)
    best = None
    for start in range(4):
        F = F0
        if start > 0:
            F = _plane_rotated(F, 0, 1, rng.uniform(-math.pi, math.pi))
            F = _plane_rotated(F, 2, 3, rng.uniform(-math.pi, math.pi))
        for _ in range(300):
            e = F.matrix
            t1 = _maximize_plane(
                lambda t: _eval_R(
                    R,
                    math.cos(t) * e[0] + math.sin(t) * e[1],
                    e[2],
                    math.cos(t) * e[0] + math.sin(t) * e[1],
                    e[2],
                ),
                three_sample=True,
            )
            F = _plane_rotated(F, 0, 1, t1)
            e = F.matrix
            t2 = _maximize_plane(
                lambda t: _eval_R(
                    R,
                    e[0],
                    math.cos(t) * e[2] + math.sin(t) * e[3],
                    e[0],
                    math.cos(t) * e[2] + math.sin(t) * e[3],
                ),
                three_sample=True,
            )
            F = _plane_rotated(F, 2, 3, t2)
            # at criticality both update angles collapse to zero
            if max(abs(t1), abs(t2)) < 1e-12:
                break
        p = st_penalty(R, F)
        if best is None or p < best[1]:
            best = (F, p)
        if p < ptol:
            break
    return best


def _rotation_case_iv(
    R: Curvature4, F0: Frame4, rng: np.random.Generator
) -> tuple[Frame4, float]:
    """Coordinate ascent over the three Givens planes of the triple eigenspace
    maximizing R(e1, e2, e2, e4), followed by the fixed 45-degree rotation;
    returns the best start's frame and penalty.  Stops at the first start
    whose penalty is below tolerance."""
    ptol = penalty_tolerance(R)
    best = None
    for start in range(4):
        F = F0
        if start > 0:
            for p, q in ((0, 1), (0, 2), (1, 2)):
                F = _plane_rotated(F, p, q, rng.uniform(-math.pi, math.pi))
        for _ in range(300):
            e = F.matrix
            # plane (1,2): both argument slots rotate -> frequency-1 objective
            t1 = _maximize_plane(
                lambda t: _eval_R(
                    R,
                    math.cos(t) * e[0] + math.sin(t) * e[1],
                    -math.sin(t) * e[0] + math.cos(t) * e[1],
                    -math.sin(t) * e[0] + math.cos(t) * e[1],
                    e[3],
                ),
                three_sample=False,
            )
            F = _plane_rotated(F, 0, 1, t1)
            e = F.matrix
            # plane (1,3): first slot rotates -> frequency-1 objective
            t2 = _maximize_plane(
                lambda t: _eval_R(
                    R,
                    math.cos(t) * e[0] + math.sin(t) * e[2],
                    e[1],
                    e[1],
                    e[3],
                ),
                three_sample=False,
            )
            F = _plane_rotated(F, 0, 2, t2)
            e = F.matrix
            # plane (2,3): the repeated slot rotates -> frequency-2 objective
            t3 = _maximize_plane(
                lambda t: _eval_R(
                    R,
                    e[0],
                    math.cos(t) * e[1] + math.sin(t) * e[2],
                    math.cos(t) * e[1] + math.sin(t) * e[2],
                    e[3],
                ),
                three_sample=True,
            )
            F = _plane_rotated(F, 1, 2, t3)
            # at criticality all update angles collapse to zero
            if max(abs(t1), abs(t2), abs(t3)) < 1e-12:
                break
        F = _plane_rotated(F, 1, 2, math.pi / 4)
        p = st_penalty(R, F)
        if best is None or p < best[1]:
            best = (F, p)
        if p < ptol:
            break
    return best


# --- generic fallback --------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _golden_section(fun, lo, hi, iters=60):
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fun(x2)
    return x1 if f1 < f2 else x2


def _line_min(fun):
    """Minimize a pi-periodic smooth function of one angle: coarse grid plus
    golden-section refinement."""
    grid = np.linspace(-math.pi / 2, math.pi / 2, 49)
    vals = [fun(t) for t in grid]
    i = int(np.argmin(vals))
    h = grid[1] - grid[0]
    return _golden_section(fun, grid[i] - h, grid[i] + h)


def generic_st_fallback(
    R: Curvature4,
    n_starts: int = 20,
    seed: int = 0,
    max_sweeps: int = 100,
    initial: Frame4 | None = None,
) -> tuple[Frame4, float, list[float]]:
    """Minimize st_penalty over SO(4) by cyclic coordinate descent over the six
    Givens angles with golden-section line searches; deterministic seeded
    multi-start.  Returns (best frame, best penalty, per-start penalties)."""
    rng = np.random.default_rng(seed)
    ptol = penalty_tolerance(R)
    best = None
    start_penalties = []
    for start in range(n_starts):
        if start == 0 and initial is not None:
            F = initial
        else:
            F = random_frame(rng)
        p = st_penalty(R, F)
        for _ in range(max_sweeps):
            improved = p
            for plane in _PLANES:
                pq = plane

                def along(t):
                    return st_penalty(R, _plane_rotated(F, pq[0], pq[1], t))

                t = _line_min(along)
                cand = _plane_rotated(F, pq[0], pq[1], t)
                pc = st_penalty(R, cand)
                if pc < p:
                    F, p = cand, pc
            if p < ptol or improved - p < max(1e-18, 1e-3 * p):
                break
        start_penalties.append(p)
        if best is None or p < best[0]:
            best = (p, F)
        if p < ptol:
            break
    return best[1], best[0], start_penalties


# --- main entry --------------------------------------------------------------

def find_st_basis(
    R: Curvature4,
    tol: float = 1e-9,
    tol_mult: float = DEFAULT_TOL_MULT,
    seed: int = 0,
) -> STReport:
    """Find a generalized Singer-Thorpe frame of a weakly-Einstein tensor.

    Raises NotWeaklyEinstein when the precondition fails and SearchFailed when
    neither the constructive path nor the SO(4) fallback reaches the penalty
    tolerance.
    """
    wres = weakly_einstein_residual(R, tol)
    if not wres.passes:
        raise NotWeaklyEinstein(wres)
    spectrum = ricci_spectrum(R, tol_mult)
    pattern = spectrum.pattern
    F0 = Frame4(spectrum.frame.matrix[list(pattern.canonical_order)])
    ptol = penalty_tolerance(R)
    rng = np.random.default_rng(seed)

    # pattern V has no rotation path: no mixed components survive in any of
    # its Ricci eigenbases, so one above the tolerance is numerically
    # degenerate and goes to the fallback, as pattern I does
    frame, path, degenerate = F0, "direct-eigenbasis", False
    penalty = math.inf if pattern.tag == "I" else st_penalty(R, F0)
    if penalty >= ptol and pattern.tag == "II":
        frame, degenerate = _rotation_case_ii(R, F0)
        path, penalty = "rotation-II", st_penalty(R, frame)
    elif penalty >= ptol and pattern.tag == "III":
        frame, penalty = _rotation_case_iii(R, F0, rng)
        path = "rotation-III"
    elif penalty >= ptol and pattern.tag == "IV":
        frame, penalty = _rotation_case_iv(R, F0, rng)
        path = "rotation-IV"

    if penalty >= ptol:
        frame, penalty, diag = generic_st_fallback(R, seed=seed, initial=frame)
        path = "generic-fallback"
        if penalty >= ptol:
            raise SearchFailed(penalty, diag)

    if frame.orientation < 0:
        # swapping e3 and e4 permutes the penalty's terms: it stays the same
        frame = Frame4(frame.matrix[[0, 1, 3, 2]])
    return STReport(
        frame=frame,
        penalty=penalty,
        construction_path=path,
        sign_cases=classify_sign_cases(R, frame),
        eigen=spectrum,
        degenerate_fit=degenerate,
    )
