"""Ricci eigenframes, multiplicity patterns, sign-case classification and the
generalized Singer-Thorpe basis search.

The search builds the frame of a Ricci multiplicity pattern, read off the
penalty: each reading of the spectrum in turn until a frame passes.  In an ST
frame every mixed component R_ijjk vanishes, so the Ricci tensor is diagonal:
when the four Ricci eigenvalues are apart (pattern V) the Ricci eigenbasis
(LAPACK eigh) is the frame.  Otherwise the frame is read off the curvature
operator on Lambda^2 = Lambda+ + Lambda-: the singular vectors of its
Lambda+ x Lambda- block, made unique inside the cluster of equal singular
values that the pattern names by eigh of the diagonal blocks, give the
frame's self-dual and anti-self-dual bases, and so the frame.  The tensor is
rotated into a frame once; the penalty, the sign cases and the ST vectors are
all read from that one array.  A frame is accepted when its dimensionless
penalty is below PENALTY_TOLERANCE; every other tolerance is relative to the
tensor's scale max |R_ijkl|.
generic_st_fallback, a Levenberg-Marquardt minimizer of the penalty's 27
residuals over SO(4), is not part of the search; it checks infeasibility: on
a tensor with no frame its best penalty stays far above the tolerance, while
on one with a frame its default 20 seeded starts find one (5 starts missed
about 1% of such tensors; its docstring gives the measurement).
trig_fit_extremum maximizes a trigonometric polynomial fitted exactly to a
few samples at a root of one quartic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .analysis import weakly_einstein_residual
from .errors import (
    DegenerateFit,
    NoConvergence,
    NotSTFrame,
    NotWeaklyEinstein,
    SearchFailed,
)
from .tensor import (
    Curvature4, Frame4, _det, _eigh, _max_reduce, random_frame, ricci, rotate,
)

DEFAULT_TOL_MULT = 1e-6

#: a frame is a generalized Singer-Thorpe frame when its st_penalty is below this
PENALTY_TOLERANCE = 1e-16

#: relative tolerance (times the scale) under which the sign test
#: R'_ijij = eps R'_klkl admits both signs of a plane pair, and of
#: topology.f_by_case's check of a case's Ricci-eigenvalue relation
SIGN_TOLERANCE = 1e-8

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


#: flat positions of the mixed components R_ijjk, and of an ST frame's
#: vectors, one row each: a' and a'', the planes of PLANE_PAIRS, then b
_MIXED_FLAT = _flat_positions((i, j, j, k) for i, j, k in MIXED_TRIPLES)
_VECTORS_FLAT = np.stack((
    _flat_positions((i, j, i, j) for (i, j), _ in PLANE_PAIRS),
    _flat_positions((k, l, k, l) for _, (k, l) in PLANE_PAIRS),
    _flat_positions(((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))),
))
#: the 30 components the penalty reads: the mixed components, then a' and a''
_PENALTY_FLAT = np.concatenate((_MIXED_FLAT, *_VECTORS_FLAT[:2]))


# --- eigensolver -------------------------------------------------------------

def _checked_eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a symmetric 4x4 float array: eigenvalues descending (a reversed
    view) and eigh's eigenvector columns.  max |M_ij| is the finiteness test
    (NaN and inf make it non-finite); NoConvergence on a failure."""
    scale = _max_reduce(np.abs(M), axis=None) if M.shape == (4, 4) else math.nan
    if not scale < math.inf:
        raise NoConvergence("input must be a finite 4x4 matrix")
    eig, vecs = _eigh(M)
    if math.isnan(eig[0]):
        raise NoConvergence("Eigenvalues did not converge")  # numpy's message
    return eig[::-1], vecs


def _eigenframe(vecs: np.ndarray) -> Frame4:
    """eigh's eigenvector columns vecs as frame rows, descending, at det +1."""
    rows = vecs.T[::-1].copy()
    if _det(rows) < 0:
        rows[3] = -rows[3]
    return Frame4(rows)


def sym_eigen(M: np.ndarray) -> tuple[np.ndarray, Frame4]:
    """Diagonalization of a symmetric 4x4 matrix by LAPACK's eigh: eigenvalues
    sorted descending and the frame whose rows are the matching orthonormal
    eigenvectors at det +1; NoConvergence as _checked_eigh or if |M - M^T| > 1e-12 max |M|."""
    M = np.asarray(M, dtype=float)
    eig, vecs = _checked_eigh(M)
    if _max_reduce(np.abs(M - M.T), axis=None) > 1e-12 * _max_reduce(np.abs(M), axis=None):
        raise NoConvergence("input matrix is not symmetric")
    return eig, _eigenframe(vecs)


# --- multiplicity patterns ---------------------------------------------------

@dataclass(frozen=True)
class MultiplicityPattern:
    """Eigenvalue-equality structure of a sorted Ricci spectrum."""

    tag: str
    blocks: tuple[tuple[int, ...], ...]
    canonical_order: tuple[int, int, int, int]


@dataclass(frozen=True, eq=False, init=False)
class RicciSpectrum:
    """Eigenvalues of the Ricci tensor _rho, their pattern and eigenframe,
    built on first read."""

    eigenvalues: np.ndarray
    pattern: MultiplicityPattern
    _vectors: np.ndarray = field(repr=False)
    _rho: np.ndarray = field(repr=False)

    def __init__(self, eigenvalues, pattern, _vectors, _rho):
        # as analysis.ResidualReport: the fields in one update of the instance dict
        self.__dict__.update(eigenvalues=eigenvalues, pattern=pattern,
                             _vectors=_vectors, _rho=_rho)

    @functools.cached_property
    def frame(self) -> Frame4:
        return _eigenframe(self._vectors)


def _pattern_of_merges(merges: tuple[bool, bool, bool]) -> MultiplicityPattern:
    """Pattern of a sorted spectrum whose neighbours k, k+1 are equal iff merges[k]."""
    blocks = [[0]]
    for i, merged in enumerate(merges, start=1):
        if merged:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    sizes = tuple(sorted(map(len, blocks), reverse=True))
    tag = {(4,): "I", (2, 1, 1): "II", (2, 2): "III", (3, 1): "IV", (1, 1, 1, 1): "V"}[sizes]
    # canonical slot assignment: repeated block first (pair for II, triple
    # for IV), remaining eigenvalues keep their descending order
    first = max(blocks, key=len) if tag in ("II", "IV") else []
    return MultiplicityPattern(
        tag=tag,
        blocks=tuple(map(tuple, blocks)),
        canonical_order=(*first, *(i for i in range(4) if i not in first)),
    )


#: the pattern of each of the eight combinations of neighbour merges
_PATTERNS = {m: _pattern_of_merges(m) for m in itertools.product((False, True), repeat=3)}


def multiplicity_pattern(eigenvalues, threshold: float) -> MultiplicityPattern:
    """Group sorted eigenvalues by transitive closure of near-equality: two
    neighbours are equal when they differ by at most threshold (never when
    either is NaN).  The pattern depends only on the three neighbour
    comparisons and is looked up in a table built at import."""
    l0, l1, l2, l3 = np.asarray(eigenvalues, dtype=float).tolist()
    t = threshold
    return _PATTERNS[abs(l1 - l0) <= t, abs(l2 - l1) <= t, abs(l3 - l2) <= t]


def ricci_spectrum(R: Curvature4, tol_mult: float = DEFAULT_TOL_MULT) -> RicciSpectrum:
    """Eigenvalues and eigenframe (built only when read) of rho, symmetric by
    construction; those within tol_mult * R.scale of each other count as equal."""
    rho = ricci(R)
    eig, vecs = _checked_eigh(rho)
    return RicciSpectrum(eig, multiplicity_pattern(eig, tol_mult * R.scale), vecs, rho)


# --- penalty -----------------------------------------------------------------

def _residuals(comp: np.ndarray, scale: float) -> np.ndarray:
    """The 27 penalty residuals of components comp: the 24 mixed components
    over scale, then the three plane-pair differences a^2 - b^2 over scale^2."""
    read = comp.reshape(-1)[_PENALTY_FLAT] / scale
    first, second = read[24:27], read[27:]
    return np.concatenate((read[:24], first * first - second * second))


def _penalty_of_components(comp: np.ndarray, scale: float) -> float:
    r = _residuals(comp, scale)
    # the mixed and the plane-pair sums apart, so that every reported
    # penalty keeps its bits
    return float(r[:24] @ r[:24] + r[24:] @ r[24:])


def st_penalty(R: Curvature4, F: Frame4) -> float:
    """Non-negative dimensionless frame penalty; zero exactly on generalized
    Singer-Thorpe frames (all 24 mixed components R'_ijjk vanish and the
    three squared plane-pair equalities hold).  The mixed terms are divided
    by scale^2 and the plane-pair terms by scale^4."""
    return _penalty_of_components(rotate(R, F).comp, R.scale)


def st_components(R: Curvature4, F: Frame4) -> np.ndarray:
    """Components of R in F, rotated once; raises NotSTFrame unless F is a
    generalized Singer-Thorpe frame of R."""
    comp = rotate(R, F).comp
    if _penalty_of_components(comp, R.scale) >= PENALTY_TOLERANCE:
        raise NotSTFrame("frame penalty not below tolerance")
    return comp


# --- trigonometric interpolation ---------------------------------------------

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


# --- sign-case classification ------------------------------------------------

@dataclass(frozen=True, eq=False)
class SignCaseSet:
    """Sign cases that label a generalized Singer-Thorpe frame, and f, the
    one deficit -|rho_0|^2 / 4 of its Ricci diagonal, which every label
    shares: each case's closed form is f under that case's relation."""

    cases: tuple[str, ...]
    eigenvalues: np.ndarray
    f: float


class SignCase(NamedTuple):
    """One sign case: the signs eps of R'_ijij = eps R'_klkl on the three
    PLANE_PAIRS and the residual of its relation between the Ricci
    eigenvalues l1..l4."""

    signs: tuple[int, int, int]
    relation: Callable[..., float]


#: the eight sign cases, in their canonical order
SIGN_CASES = {
    "i": SignCase(
        (1, 1, 1),
        lambda l1, l2, l3, l4: max(abs(l1 - l2), abs(l1 - l3), abs(l1 - l4)),
    ),
    "ii": SignCase((-1, 1, 1), lambda l1, l2, l3, l4: max(abs(l1 - l2), abs(l3 - l4))),
    "iii": SignCase((1, -1, 1), lambda l1, l2, l3, l4: max(abs(l1 - l3), abs(l2 - l4))),
    "iv": SignCase((1, 1, -1), lambda l1, l2, l3, l4: max(abs(l1 - l4), abs(l2 - l3))),
    "v": SignCase((1, -1, -1), lambda l1, l2, l3, l4: abs(l1 + l2 - l3 - l4)),
    "vi": SignCase((-1, 1, -1), lambda l1, l2, l3, l4: abs(l1 + l3 - l2 - l4)),
    "vii": SignCase((-1, -1, 1), lambda l1, l2, l3, l4: abs(l1 + l4 - l2 - l3)),
    "viii": SignCase((-1, -1, -1), lambda l1, l2, l3, l4: abs(l1 + l2 + l3 + l4)),  # tau = 0
}


def _deficit(lam: np.ndarray) -> float:
    """The deficit f = -|rho_0|^2 / 4 of Ricci eigenvalues lam, rho_0 the
    traceless Ricci tensor: under each sign case's eigenvalue relation this
    is that case's closed form, so one formula serves all eight."""
    d = lam - lam.sum() / 4
    return -0.25 * float(d @ d)


def _sign_cases(comp: np.ndarray, scale: float) -> SignCaseSet:
    """Sign cases read off the components of a tensor in an accepted ST
    frame: pair k admits eps when |a'_k - eps a''_k| <= max(tol, |a'_k + eps
    a''_k|), tol = SIGN_TOLERANCE * scale, so both signs within tol, else the
    closer one; a case is admitted when its three signs are, so one always is."""
    tol = SIGN_TOLERANCE * scale
    lam = np.einsum("aiia->i", comp)
    # the tests on plain floats, which are cheaper than numpy scalars
    a_prime, a_dprime = comp.reshape(-1)[_VECTORS_FLAT[:2]].tolist()
    admitted = [
        [e for e in (1, -1) if abs(a - e * b) <= max(tol, abs(a + e * b))]
        for a, b in zip(a_prime, a_dprime)
    ]
    cases = tuple(
        case for case, (signs, _) in SIGN_CASES.items()
        if all(e in ok for e, ok in zip(signs, admitted))
    )
    return SignCaseSet(cases=cases, eigenvalues=lam, f=_deficit(lam))


def classify_sign_cases(R: Curvature4, F: Frame4) -> SignCaseSet:
    """Sign cases relating opposite-plane components in an ST frame F of R.

    NotSTFrame unless F's penalty is below PENALTY_TOLERANCE, the one
    acceptance rule; the sign test then only labels F.  A plane pair admits
    the sign eps when |R'_ijij - eps R'_klkl| is at most SIGN_TOLERANCE*scale
    or |R'_ijij + eps R'_klkl|: both signs when both components vanish, else
    the closer one.  The cases' eigenvalue relations are left to f_by_case.
    """
    return _sign_cases(st_components(R, F), R.scale)


# --- constructive search -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class STReport:
    frame: Frame4
    penalty: float
    construction_path: str
    sign_cases: SignCaseSet
    eigen: RicciSpectrum
    #: R in frame, read-only: the one array penalty and sign_cases were read from
    components: np.ndarray


def _wedge(p: int, q: int) -> np.ndarray:
    """The 2-form e_p ^ e_q as a flattened antisymmetric 4x4 matrix."""
    w = np.zeros((4, 4))
    w[p, q], w[q, p] = 1.0, -1.0
    return w.reshape(16)


#: rows: the self-dual, then the anti-self-dual 2-forms
#: omega(+-)_i = (e0^ei +- ej^ek) / sqrt 2, (i, j, k) cyclic; in their basis
#: 1/4 P R P^T is the curvature operator on Lambda+ + Lambda-
_LAMBDA_PM = np.array([
    (_wedge(0, i) + s * _wedge(j, k)) / math.sqrt(2)
    for s in (1, -1)
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
])
_QUARTER_LAMBDA_PM = 0.25 * _LAMBDA_PM

#: per multiplicity pattern but V (whose Ricci eigenbasis is the frame), the
#: positions (descending) of the cluster of equal singular values of Lambda+ x
#: Lambda-, and whether it is zero; pattern II's nonzero pair is read off the gaps
_CLUSTERS = {
    "I": ([0, 1, 2], True),
    "II": (None, False),
    "III": ([1, 2], True),
    "IV": ([0, 1, 2], False),
}


def _closed_form_frame(M, svd, rho, pattern: MultiplicityPattern) -> Frame4:
    """Generalized Singer-Thorpe frame of the Ricci reading pattern, read off
    the blocks of the curvature operator M on Lambda+ + Lambda-, given
    svd = np.linalg.svd(B) and the Ricci tensor rho; it edits copies of svd.

    In an oriented ST frame the blocks A (Lambda+ Lambda+), B (Lambda+
    Lambda-) and C (Lambda- Lambda-) are diagonal in the frame's omega(+-)
    bases, with B_ii = 0 or A_ii + C_ii = 0 for each i.  The singular vectors
    of B give those bases up to a rotation inside each cluster of equal
    singular values: independent eigenbases of A and C inside a zero
    cluster, one common eigenbasis of A - C (there C = -A) inside a nonzero
    one.  Then Omega_i = (omega'+_i + omega'-_i) / sqrt 2 = e0 ^ ei, e0 is
    the top eigenvector of sum Omega_i Omega_i^T and ei = -Omega_i e0.  The
    rows are ordered as pattern's canonical eigenframe, with e3 and e4
    swapped when that makes the orientation -1.
    """
    A, B, C = M[:3, :3], M[:3, 3:], M[3:, 3:]
    # U and V as the views (U, Vt.T) are laid out, so BLAS sums in one order
    up, sigma, um = svd[0].copy(), svd[1], svd[2].copy().T
    cluster, zero = _CLUSTERS[pattern.tag]
    if cluster is None:  # the closer of the two adjacent pairs
        cluster = [0, 1] if sigma[0] - sigma[1] < sigma[1] - sigma[2] else [1, 2]
    wp, wm = up[:, cluster], um[:, cluster]
    ap, cm = wp.T @ A @ wp, wm.T @ C @ wm
    if zero:
        qp, qm = _eigh(ap)[1], _eigh(cm)[1]
        # pair the two eigenbases so that what B has left sits on the diagonal
        b = np.abs(qp.T @ wp.T @ B @ wm @ qm)
        pairing = max(itertools.permutations(range(len(cluster))),
                      key=lambda p: b[range(len(p)), p].sum())
        up[:, cluster], um[:, cluster] = wp @ qp, wm @ qm[:, pairing]
    else:
        q = _eigh(ap - cm)[1]
        up[:, cluster], um[:, cluster] = wp @ q, wm @ q
    for u, det in zip((up, um), _det(np.stack((up, um)))):
        if det < 0:
            u[:, 2] = -u[:, 2]
    omega = ((up.T @ _LAMBDA_PM[:3] + um.T @ _LAMBDA_PM[3:]) / math.sqrt(2)).reshape(3, 4, 4)
    e0 = _eigh(np.einsum("iab,icb->ac", omega, omega))[1][:, -1]
    rows = np.concatenate((e0[None], -omega @ e0))
    # the order of pattern II's two equal-eigenvalue rows follows the last
    # bits of diag, so these einsums are not rewritten as matmuls
    diag = np.einsum("ia,ab,ib->i", rows, rho, rows)
    rows = rows[np.argsort(-diag, kind="stable")[list(pattern.canonical_order)]]
    if _det(rows) < 0:
        # swapping e3 and e4 permutes the penalty's terms: an ST frame stays one
        rows = rows[[0, 1, 3, 2]]
    return Frame4(rows)


# --- infeasibility check -----------------------------------------------------

#: the generators E = e_p e_q^T - e_q e_p^T of so(4), and their actions
#: kron(E, I) + kron(I, E) on the index pairs of the (16, 16) components
_SO4 = np.array([
    np.outer(u, v) - np.outer(v, u) for u, v in itertools.combinations(np.eye(4), 2)
])
_SO4_ON_PAIRS = np.array([np.kron(E, np.eye(4)) + np.kron(np.eye(4), E) for E in _SO4])


def _jacobian(comp: np.ndarray, scale: float) -> np.ndarray:
    """(27, 6) Jacobian of _residuals at components comp of R in a frame F,
    column k the derivative along exp(t E_k) F for E_k = _SO4[k]: there the
    (16, 16) components C move as L C + C L^T, L = _SO4_ON_PAIRS[k]."""
    lc = _SO4_ON_PAIRS @ comp.reshape(16, 16)
    d = (lc + lc.transpose(0, 2, 1)).reshape(6, 256) / scale
    flat = comp.reshape(-1) / scale
    first, second = _VECTORS_FLAT[:2]
    planes = 2 * (flat[first] * d[:, first] - flat[second] * d[:, second])
    return np.hstack((d[:, _MIXED_FLAT], planes)).T


def generic_st_fallback(
    R: Curvature4, n_starts: int = 20, seed: int = 0
) -> tuple[Frame4, float, list[float]]:
    """Minimize st_penalty over SO(4) by Levenberg-Marquardt from each of
    n_starts seeded random frames.

    Each iteration solves (J^T J + lam tr(J^T J)/6 I) x = -J^T r for the 27
    residuals r of the penalty and their analytic Jacobian J in the six
    generators of so(4).  It solves with lstsq, because a tensor whose frames
    have a stabilizer (as the SO(2) x SO(2) of a surface product) makes J^T J
    singular, and moves the frame by the Cayley transform of x, which keeps
    it orthogonal.  A step that does not lower the penalty is retried with
    ten times the damping lam.  A start stops when an accepted step lowers
    the penalty by less than a relative 1e-6, when the penalty is below
    PENALTY_TOLERANCE, or after 100 iterations; the search stops at the first
    start below PENALTY_TOLERANCE.  Returns (best frame, best penalty,
    per-start penalties).  At the default n_starts=20, a best penalty well
    above PENALTY_TOLERANCE shows that R has no generalized Singer-Thorpe
    frame.  Fewer starts can stall in a local minimum on a tensor that has
    one: with n_starts=5, 17 of 1,600 rotated, scaled tensors with a frame
    (5 of each generated shape, all five Ricci patterns) ended at best
    penalties of 0.17-2.0, and each was found within 9 starts."""
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    rng = np.random.default_rng(seed)
    best = None
    start_penalties = []
    for _ in range(n_starts):
        F = random_frame(rng)
        comp = rotate(R, F).comp
        p = _penalty_of_components(comp, R.scale)
        damping = 1e-3
        for _ in range(100):
            if p < PENALTY_TOLERANCE:
                break
            r, J = _residuals(comp, R.scale), _jacobian(comp, R.scale)
            H = J.T @ J
            x = np.linalg.lstsq(H + damping * np.trace(H) / 6 * np.eye(6), -J.T @ r)[0]
            X = np.tensordot(x, _SO4, 1) / 2
            cand = Frame4(np.linalg.solve(np.eye(4) - X, np.eye(4) + X) @ F.matrix)
            cand_comp = rotate(R, cand).comp
            pc = _penalty_of_components(cand_comp, R.scale)
            if pc >= p:
                damping *= 10
                continue
            decrease = (p - pc) / p
            F, comp, p = cand, cand_comp, pc
            damping /= 10
            if decrease < 1e-6:
                break
        start_penalties.append(p)
        if best is None or p < best[0]:
            best = (p, F)
        if p < PENALTY_TOLERANCE:
            break
    return best[1], best[0], start_penalties


# --- main entry --------------------------------------------------------------

def find_st_basis(R: Curvature4) -> STReport:
    """Find an oriented generalized Singer-Thorpe frame of a weakly-Einstein tensor.

    Tries the frame of the spectrum's reading at DEFAULT_TOL_MULT, then of each
    reading that merges the k smallest Ricci gaps (k = 0..3), and accepts the
    first below PENALTY_TOLERANCE; eigen.pattern names its reading, whose path
    is "direct-eigenbasis" for pattern V and "closed-form" otherwise; the
    closed-form readings share one curvature operator M and SVD of its block B,
    built at the first.  Raises NotWeaklyEinstein when the tensor fails the
    weakly Einstein verdict at DEFAULT_TOL (the search finds no frame for the
    tensors it refuses either, so no looser tol is offered) and SearchFailed,
    with the smallest penalty and its path, when no reading gives a frame.
    """
    wres = weakly_einstein_residual(R)
    if not wres.passes:
        raise NotWeaklyEinstein(wres)
    spectrum = ricci_spectrum(R)
    lam, scale, missed, operator = spectrum.eigenvalues.tolist(), R.scale, [], None
    gaps = [a - b for a, b in zip(lam, lam[1:])]
    readings = (_PATTERNS[tuple(x <= g for x in gaps)] for g in (-math.inf, *sorted(gaps)))
    # rho is diagonal in an ST frame, so when the Ricci eigenvalues are apart
    # (pattern V) the eigenframe is one; a repeated eigenvalue leaves the
    # eigenframe free inside its eigenspace, and the closed form picks it
    for pattern in dict.fromkeys((spectrum.pattern, *readings)):
        if pattern.tag == "V":
            frame, path = spectrum.frame, "direct-eigenbasis"
        else:
            if operator is None:
                M = _QUARTER_LAMBDA_PM @ R.comp.reshape(16, 16) @ _LAMBDA_PM.T
                operator = M, np.linalg.svd(M[:3, 3:])
            frame, path = _closed_form_frame(*operator, spectrum._rho, pattern), "closed-form"
        comp = rotate(R, frame).comp
        penalty = _penalty_of_components(comp, scale)
        if penalty < PENALTY_TOLERANCE:
            break
        missed.append((penalty, path))
    else:
        raise SearchFailed(*min(missed, key=lambda m: m[0]))
    if missed:
        spectrum = RicciSpectrum(spectrum.eigenvalues, pattern, spectrum._vectors, spectrum._rho)
    return STReport(
        frame=frame,
        penalty=penalty,
        construction_path=path,
        sign_cases=_sign_cases(comp, scale),
        eigen=spectrum,
        components=comp,
    )
