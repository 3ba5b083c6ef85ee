"""Seeded benchmark inputs and their truth, built with numpy alone.

Weakly Einstein tensors are placed in a generalized Singer-Thorpe frame from
a', a'' = eps * a' and b (b1 + b2 + b3 = 0), then rotated by a Haar-random
rotation with det +1.  Every expected answer is read off that construction
(or, for inputs that are not weakly Einstein, off an independent einsum); no
expected value comes from the program under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: planes of a'_k (R_1212, R_1313, R_1414) and of a''_k (R_3434, R_2424, R_2323)
A1_PLANES = ((0, 1), (0, 2), (0, 3))
A2_PLANES = ((2, 3), (1, 3), (1, 2))
#: index tuples of b_k (R_1234, R_1342, R_1423)
B_INDICES = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))

#: plane pairs ((i,j),(k,l)) whose squared curvatures agree in an ST frame
PLANE_PAIRS = tuple(zip(A1_PLANES, A2_PLANES))
#: (i, j, k) with R_ijjk a mixed component (i != k, j distinct from both)
MIXED_TRIPLES = tuple(
    (i, j, k) for i, j, k in itertools.permutations(range(4), 3)
)

LEVI_CIVITA = np.zeros((4,) * 4)
for _p in itertools.permutations(range(4)):
    LEVI_CIVITA[_p] = np.linalg.det(np.eye(4)[list(_p)])

#: overall scales spread log-uniformly over this range, where every answer of
#: the program is correct today
SCALE_RANGE = (0.1, 10.0)


@dataclass(frozen=True)
class Truth:
    """Expected answer for one input, from its construction."""

    weakly_einstein: bool
    einstein: bool
    eigenvalues: np.ndarray  # Ricci eigenvalues, descending
    pattern: str  # multiplicity pattern I..V
    forbidden: int | None = None
    f: float | None = None
    chi_density: float | None = None
    p1_density: float | None = None
    size: float = 1.0  # max |R_ijkl|, the scale of every tolerance


@dataclass(frozen=True)
class Case:
    """One benchmark input: components handed to the program plus its truth."""

    kind: str
    comp: np.ndarray
    truth: Truth
    known_fault: bool = False


# --- construction helpers ----------------------------------------------------

def set_orbit(comp: np.ndarray, idx, v: float) -> None:
    """Set R_ijkl = v on the whole orbit of the pair symmetries."""
    i, j, k, l = idx
    for (a, b, c, d), s in (
        ((i, j, k, l), 1.0), ((j, i, k, l), -1.0),
        ((i, j, l, k), -1.0), ((j, i, l, k), 1.0),
        ((k, l, i, j), 1.0), ((l, k, i, j), -1.0),
        ((k, l, j, i), -1.0), ((l, k, j, i), 1.0),
    ):
        comp[a, b, c, d] = s * v


def st_components(a1, eps, b) -> np.ndarray:
    """Tensor whose identity frame is a generalized Singer-Thorpe frame."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(eps, dtype=float) * a1
    comp = np.zeros((4,) * 4)
    for (i, j), v in zip(A1_PLANES, a1):
        set_orbit(comp, (i, j, i, j), v)
    for (i, j), v in zip(A2_PLANES, a2):
        set_orbit(comp, (i, j, i, j), v)
    for idx, v in zip(B_INDICES, b):
        set_orbit(comp, idx, v)
    return comp


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of SO(4); rows are the new frame vectors."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.linalg.det(q)
    return q


def rotate(comp: np.ndarray, q: np.ndarray) -> np.ndarray:
    """R'_ijkl = q_ia q_jb q_kc q_ld R_abcd."""
    return np.einsum("ia,jb,kc,ld,abcd->ijkl", q, q, q, q, comp, optimize=True)


def ricci(comp: np.ndarray) -> np.ndarray:
    return np.einsum("aija->ij", comp)


def ricci_eigenvalues(comp: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(ricci(comp))[::-1]


def weakly_einstein_gap(comp: np.ndarray) -> float:
    """max |Rcheck - |R|^2/4 g| / |R|^2, by an einsum of its own."""
    rcheck = np.einsum("abci,abcj->ij", comp, comp)
    norm2 = float(np.sum(comp * comp))
    return float(np.abs(rcheck - 0.25 * norm2 * np.eye(4)).max()) / norm2


def chi_density(comp: np.ndarray) -> float:
    """Gauss-Bonnet integrand (|R|^2 - 4|rho|^2 + tau^2) / (32 pi^2)."""
    rho = ricci(comp)
    return float(np.sum(comp * comp) - 4 * np.sum(rho * rho) + np.trace(rho) ** 2) / (
        32 * math.pi ** 2
    )


def p1_density(comp: np.ndarray) -> float:
    """Pontryagin integrand eps_ijkl R_ijab R_klab / (32 pi^2)."""
    return float(np.einsum("ijkl,ijab,klab->", LEVI_CIVITA, comp, comp, optimize=True)) / (
        32 * math.pi ** 2
    )


def pattern_of(lam: np.ndarray, rel: float = 1e-12) -> str:
    """Multiplicity pattern of an exactly constructed spectrum."""
    size = max(float(np.abs(lam).max()), 1e-300)
    blocks = [1]
    for x, y in zip(lam, lam[1:]):
        if abs(x - y) <= rel * size:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return {(4,): "I", (2, 1, 1): "II", (2, 2): "III", (3, 1): "IV", (1, 1, 1, 1): "V"}[
        tuple(sorted(blocks, reverse=True))
    ]


def st_truth(a1, eps, b) -> Truth:
    """Truth of the ST-frame tensor built from a', eps and b."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(eps, dtype=float) * a1
    b = np.asarray(b, dtype=float)
    # rho_ii = -(sum of the three plane curvatures R_ijij through e_i)
    lam = -np.array(
        [
            a1[0] + a1[1] + a1[2],
            a1[0] + a2[1] + a2[2],
            a1[1] + a2[0] + a2[2],
            a1[2] + a2[0] + a2[1],
        ]
    )
    lam = np.sort(lam)[::-1]
    pattern = pattern_of(lam)
    return Truth(
        weakly_einstein=True,
        einstein=pattern == "I",
        eigenvalues=lam,
        pattern=pattern,
        f=-float(sum(a * a for a, e in zip(a1, eps) if e < 0)),
        chi_density=(float(a1 @ a2) + float(b @ b)) / (4 * math.pi ** 2),
        p1_density=float((a1 + a2) @ b) / (2 * math.pi ** 2),
        size=float(max(np.abs(a1).max(), np.abs(b).max())),
    )


def _scale(rng: np.random.Generator) -> float:
    lo, hi = SCALE_RANGE
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _well_separated(lam: np.ndarray, pattern: str, size: float) -> bool:
    """Intended equalities exact, every other eigenvalue gap at least size/10."""
    gaps = np.diff(lam)
    distinct = sum(1 for g in gaps if abs(g) > 1e-12 * size)
    want = {"I": 0, "II": 2, "III": 1, "IV": 1, "V": 3}[pattern]
    return distinct == want and all(
        abs(g) >= 0.1 * size for g in gaps if abs(g) > 1e-12 * size
    )


#: eps choices per pattern; "equal" marks which a'_k are set equal
PATTERN_RECIPES = {
    "I": ((1, 1, 1), ()),
    "III": ((-1, 1, 1), ()),
    "V": ((-1, -1, 1), ()),
    "II": ((-1, -1, 1), (0, 1)),
    "IV": ((-1, -1, -1), (0, 1, 2)),
}


def draw_shape(rng: np.random.Generator, pattern: str):
    """(a', eps, b) at unit scale for a weakly Einstein tensor of the pattern.

    The -1 entries of eps sit at random positions; |a'_k| lies in [0.3, 1]
    and |b_k| <= 1, so no plane pair is degenerate, and every eigenvalue gap
    that is not an intended equality is at least a tenth of the largest entry.
    """
    base_eps, equal = PATTERN_RECIPES[pattern]
    while True:
        perm = rng.permutation(3)
        a1 = rng.uniform(0.3, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
        if equal:
            a1[list(equal)] = a1[equal[0]]
        b = rng.uniform(-1.0, 1.0, 3)
        b[2] = -b[0] - b[1]
        a1, eps = a1[perm], np.asarray(base_eps, dtype=float)[perm]
        truth = st_truth(a1, eps, b)
        if (
            np.abs(b).max() <= 1.0
            and truth.pattern == pattern
            and _well_separated(truth.eigenvalues, pattern, truth.size)
        ):
            return a1, eps, b


def st_case(kind: str, a1, eps, b, rng: np.random.Generator) -> Case:
    """ST-frame tensor from (a', eps, b), rotated by a random rotation."""
    comp = rotate(st_components(a1, eps, b), random_rotation(rng))
    return Case(kind, comp, st_truth(a1, eps, b))


def weakly_einstein_case(rng: np.random.Generator, pattern: str) -> Case:
    """Rotated weakly Einstein tensor of a random shape of the pattern."""
    a1, eps, b = draw_shape(rng, pattern)
    s = _scale(rng)
    return st_case(f"we-{pattern}", s * a1, eps, s * b, rng)


# --- inputs that are not weakly Einstein -------------------------------------

def _plain_truth(comp: np.ndarray, pattern: str, forbidden: int | None = None) -> Truth:
    gap = weakly_einstein_gap(comp)
    if gap < 1e-3:
        raise RuntimeError(f"input meant to fail the test is weakly Einstein ({gap:.2e})")
    lam = ricci_eigenvalues(comp)
    return Truth(
        weakly_einstein=False,
        einstein=False,
        eigenvalues=lam,
        pattern=pattern,
        forbidden=forbidden,
        size=float(np.abs(comp).max()),
    )


def random_projection(rng: np.random.Generator) -> Case:
    """Orthogonal projection of an iid uniform array onto curvature tensors,
    redrawn until its Ricci eigenvalues are clearly distinct."""
    while True:
        raw = _scale(rng) * rng.uniform(-1.0, 1.0, (4,) * 4)
        t = 0.25 * (
            raw
            - raw.transpose(1, 0, 2, 3)
            - raw.transpose(0, 1, 3, 2)
            + raw.transpose(1, 0, 3, 2)
        )
        t = 0.5 * (t + t.transpose(2, 3, 0, 1))
        t = t - (t + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)) / 3.0
        lam = ricci_eigenvalues(t)
        if np.abs(np.diff(lam)).min() >= 1e-3 * np.abs(t).max():
            return Case("random", t, _plain_truth(t, "V"))


def surface_product_comp(c1: float, c2: float) -> np.ndarray:
    """Product of surfaces of Gaussian curvature c1 (plane 12) and c2 (plane 34)."""
    comp = np.zeros((4,) * 4)
    set_orbit(comp, (0, 1, 0, 1), -c1)
    set_orbit(comp, (2, 3, 2, 3), -c2)
    return comp


def surface_product(rng: np.random.Generator) -> Case:
    """Rotated surface product with c1^2 != c2^2."""
    s = _scale(rng)
    c1 = s * rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
    c2 = s * rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
    while abs(abs(c1) - abs(c2)) < 0.1 * s:
        c2 = s * rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
    comp = rotate(surface_product_comp(c1, c2), random_rotation(rng))
    return Case("surface-product", comp, _plain_truth(comp, "III"))


def space_form_product(rng: np.random.Generator) -> Case:
    """Rotated product of a 3D space form of curvature c with a line."""
    c = _scale(rng) * rng.choice([-1.0, 1.0])
    comp = np.zeros((4,) * 4)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        set_orbit(comp, (i, j, i, j), -c)
    comp = rotate(comp, random_rotation(rng))
    # spectrum (2c, 2c, 2c, 0): forbidden pattern 1 (zero last) or 4 (zero first)
    return Case("space-form-product", comp, _plain_truth(comp, "IV", 1 if c > 0 else 4))


def lie_group_comp(brackets: dict) -> np.ndarray:
    """Curvature of a left-invariant metric by the Koszul formula (0-based brackets)."""
    c = np.zeros((4,) * 3)
    for (i, j), terms in brackets.items():
        for k, v in terms.items():
            c[i, j, k] = v
            c[j, i, k] = -v
    gamma = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))
    return (
        np.einsum("jkm,iml->ijkl", gamma, gamma)
        - np.einsum("ikm,jml->ijkl", gamma, gamma)
        - np.einsum("ijm,mkl->ijkl", c, gamma)
    )


def example_s2_1(rng: np.random.Generator) -> Case:
    """Rotated solvable group [e1,e2]=2e2, [e1,e3]=-e3, [e1,e4]=2e3-e4."""
    comp = lie_group_comp({(0, 1): {1: 2.0}, (0, 2): {2: -1.0}, (0, 3): {2: 2.0, 3: -1.0}})
    comp = rotate(comp, random_rotation(rng))
    return Case("example-s2-1", comp, _plain_truth(comp, "V"))


def example4_comp(a: float, b: float) -> np.ndarray:
    """Solvable group [e1,e2]=a e2, [e1,e3]=-a e3 - b e4, [e1,e4]=b e3 - a e4."""
    return lie_group_comp({(0, 1): {1: a}, (0, 2): {2: -a, 3: -b}, (0, 3): {2: b, 3: -a}})


def example4_truth(a: float, b: float) -> Truth:
    """Spectrum (a^2, -a^2, -a^2, -3a^2) and f = -2a^4 from the paper; the
    densities from the invariant Gauss-Bonnet and Pontryagin integrands."""
    comp = example4_comp(a, b)
    a2 = a * a
    return Truth(
        weakly_einstein=True,
        einstein=False,
        eigenvalues=np.array([a2, -a2, -a2, -3 * a2]),
        pattern="II",
        f=-2 * a2 * a2,
        chi_density=chi_density(comp),
        p1_density=p1_density(comp),
        size=float(np.abs(comp).max()),
    )


#: non-weakly-Einstein tensors scaled by 1e-6, identical for every seed.  The
#: program judges each of them weakly Einstein today (the max(1, |R|^2) floor
#: of its residuals), so each is answered wrongly and counted as failed.
TINY_SCALE = 1e-6


def tiny_slice() -> list[Case]:
    rng = np.random.default_rng(20101018)
    cases = []
    for c1, c2 in ((1.0, 2.0), (-1.0, 3.0)):
        comp = rotate(surface_product_comp(TINY_SCALE * c1, TINY_SCALE * c2), random_rotation(rng))
        cases.append(Case("tiny-surface-product", comp, _plain_truth(comp, "III"), known_fault=True))
    return cases


# --- workload input sets -----------------------------------------------------

#: one block of `screen` inputs, besides the two of the fixed tiny slice
SCREEN_MIX = (
    ("random", 8),
    ("surface-product", 4),
    ("space-form-product", 4),
    ("example-s2-1", 2),
    ("we-I", 4),
    ("we-II", 4),
    ("we-III", 4),
    ("we-IV", 4),
    ("we-V", 4),
)
#: blocks per round: 200 inputs, about 0.07 s, so that a 30 s run answers
#: each input hundreds of times and its fastest answer escapes interference
SCREEN_BLOCKS = 5

_MAKERS = {
    "random": random_projection,
    "surface-product": surface_product,
    "space-form-product": space_form_product,
    "example-s2-1": example_s2_1,
}


def screen_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    tiny = tiny_slice()
    cases = []
    for _ in range(SCREEN_BLOCKS):
        for kind, n in SCREEN_MIX:
            for _ in range(n):
                if kind.startswith("we-"):
                    cases.append(weakly_einstein_case(rng, kind[3:]))
                else:
                    cases.append(_MAKERS[kind](rng))
        cases += tiny
    return cases


#: `report` inputs: raw_curvature documents whose search needs no ascent,
#: plus two gallery constructions of each kind
REPORT_MIX = (("doc-V", 12), ("doc-II", 12), ("example4", 2), ("example6", 2))


def report_cases(seed: int) -> list:
    """[(case, gallery argv or None)] for one round of `report`: 28 inputs,
    about 0.15 s, so that a 30 s run answers each input some two hundred
    times and its fastest answer escapes interference."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for kind, n in REPORT_MIX:
        for _ in range(n):
            if kind.startswith("doc-"):
                out.append((weakly_einstein_case(rng, kind[4:]), None))
            elif kind == "example4":
                a = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
                b = float(rng.uniform(-1.0, 1.0))
                case = Case("example4", example4_comp(a, b), example4_truth(a, b))
                out.append((case, ["--gallery", "example4", "--a", repr(a), "--b", repr(b)]))
            else:
                m = int(rng.integers(2, 7))
                # S^2(1) x genus-m surface(-1): a' = (-1, 0, 0), a'' = (1, 0, 0)
                truth = st_truth((-1.0, 0.0, 0.0), (-1, 1, 1), (0.0, 0.0, 0.0))
                case = Case("example6", surface_product_comp(1.0, -1.0), truth)
                out.append((case, ["--gallery", "example6", "--m", str(m)]))
    return out


#: `st_iterative` draws its shapes from this fixed seed, so every round asks
#: the ascents for nearly the same work whatever --seed is (their trig-fit
#: counts vary by about 5% with the rotation).  S^2(c) x S^2(c) is taken whole
#: from it: the fallback's work on it swings sixfold with rotation and scale
#: (1347 to 8739 penalty evaluations), which would otherwise decide the run's
#: median.  --seed draws the other scales and rotations.
SHAPE_SEED = 1010_3822
ITERATIVE_MIX = (("einstein-const", 2), ("einstein-s2xs2", 2), ("we-III", 4), ("we-IV", 4))


def iterative_cases(seed: int) -> list[Case]:
    shapes = np.random.default_rng(SHAPE_SEED)
    rng = np.random.default_rng([seed, 3])
    cases = []
    for kind, n in ITERATIVE_MIX:
        for _ in range(n):
            if kind == "einstein-const":
                # constant curvature c: every plane R_ijij = -c
                c = _scale(rng) * rng.choice([-1.0, 1.0])
                cases.append(st_case(kind, (-c, -c, -c), (1, 1, 1), (0.0, 0.0, 0.0), rng))
            elif kind == "einstein-s2xs2":
                # S^2(c) x S^2(c): R_1212 = R_3434 = -c
                c = _scale(shapes) * shapes.choice([-1.0, 1.0])
                cases.append(st_case(kind, (-c, 0.0, 0.0), (1, 1, 1), (0.0, 0.0, 0.0), shapes))
            else:
                a1, eps, b = draw_shape(shapes, kind[3:])
                s = _scale(rng) * rng.choice([-1.0, 1.0])
                cases.append(st_case(kind, s * a1, eps, s * b, rng))
    return cases
