"""Constructors for curvature tensors: Lie groups, products, space forms,
seeded random tensors, JSON ingestion and the worked-example gallery."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    JacobiViolation,
    ParseError,
    UnknownGalleryName,
    ValidationError,
)
from .tensor import (
    _EYE,
    DIM,
    Curvature4,
    make_curvature,
    project_to_curvature,
)


#: largest accepted max |c_ijk|: below it the sums of products of structure
#: constants that the Jacobi test and the curvature take stay finite
MAX_STRUCTURE_CONSTANT = 1e150


@dataclass(frozen=True, eq=False)
class LieAlgebra4:
    """Structure constants of a 4D metric Lie algebra: [e_i, e_j] = sum_k c_ijk e_k
    for an orthonormal basis."""

    c: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.c, dtype=float)
        if c.shape != (DIM,) * 3 or not np.all(np.isfinite(c)):
            raise JacobiViolation("structure constants must be a finite 4x4x4 array")
        scale = float(np.abs(c).max())
        if scale > MAX_STRUCTURE_CONSTANT:
            raise JacobiViolation(
                f"structure constants too large: max |c_ijk| = {scale:.3e} exceeds "
                f"{MAX_STRUCTURE_CONSTANT:g}, so their products overflow"
            )
        anti = np.abs(c + c.transpose(1, 0, 2)).max()
        if anti > 1e-10 * scale:
            raise JacobiViolation(f"c_ijk != -c_jik: worst residual {anti:.3e}")
        jac = (
            np.einsum("ijm,mkl->ijkl", c, c)
            + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c)
        )
        worst = np.abs(jac).max()
        if not worst <= 1e-10 * scale * scale:  # NaN fails too
            raise JacobiViolation(f"Jacobi identity fails: worst residual {worst:.3e}")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class Connection4:
    """Levi-Civita connection coefficients Gamma_ijk = <nabla_{e_i} e_j, e_k>."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(self.gamma, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)


def lie_group_curvature(g: LieAlgebra4) -> tuple[Connection4, Curvature4]:
    """Connection and curvature of the left-invariant metric with orthonormal frame.

    Koszul formula Gamma_ijk = (c_ijk - c_jki + c_kij)/2, then
    R_ijkl = sum_m (Gamma_jkm Gamma_iml - Gamma_ikm Gamma_jml - c_ijm Gamma_mkl).
    """
    c = g.c
    gamma = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))
    R = (
        np.einsum("jkm,iml->ijkl", gamma, gamma)
        - np.einsum("ikm,jml->ijkl", gamma, gamma)
        - np.einsum("ijm,mkl->ijkl", c, gamma)
    )
    return Connection4(gamma), make_curvature(R)


def surface_product(c1: float, c2: float) -> Curvature4:
    """Product of surfaces with Gaussian curvatures c1 (plane e1,e2) and c2 (plane e3,e4)."""
    comp = np.zeros((DIM,) * 4)
    _set_orbit(comp.reshape(-1), 0, 1, 0, 1, -c1)
    _set_orbit(comp.reshape(-1), 2, 3, 2, 3, -c2)
    return make_curvature(comp)


def space_form_product(c: float) -> Curvature4:
    """Product of a 3D space of constant sectional curvature c and a real line."""
    comp = np.zeros((DIM,) * 4)
    for i in range(3):
        for j in range(i + 1, 3):
            _set_orbit(comp.reshape(-1), i, j, i, j, -c)
    return make_curvature(comp)


def constant_curvature(c: float) -> Curvature4:
    """Space form: R_ijkl = c (delta_il delta_jk - delta_ik delta_jl)."""
    comp = c * (np.einsum("il,jk->ijkl", _EYE, _EYE) - np.einsum("ik,jl->ijkl", _EYE, _EYE))
    return make_curvature(comp)


def random_curvature(seed: int) -> Curvature4:
    """Deterministic random algebraic curvature tensor (projection of iid uniform[-1,1])."""
    rng = np.random.default_rng(seed)
    return project_to_curvature(rng.uniform(-1.0, 1.0, size=(DIM,) * 4))


# --- gallery -----------------------------------------------------------------

def _lie_algebra(rows) -> LieAlgebra4:
    """The algebra with c_ijk = v and c_jik = -v for each 1-based row
    (i, j, k, v), written in order."""
    c = np.zeros((DIM,) * 3)
    for i, j, k, v in rows:
        c[i - 1, j - 1, k - 1] = v
        c[j - 1, i - 1, k - 1] = -v
    return LieAlgebra4(c)


def example_s2_1_algebra() -> LieAlgebra4:
    """Solvable group with [e1,e2]=2e2, [e1,e3]=-e3, [e1,e4]=2e3-e4."""
    return _lie_algebra([(1, 2, 2, 2.0), (1, 3, 3, -1.0), (1, 4, 3, 2.0), (1, 4, 4, -1.0)])


def example4_algebra(a: float, b: float) -> LieAlgebra4:
    """Solvable group with [e1,e2]=a e2, [e1,e3]=-a e3 - b e4, [e1,e4]=b e3 - a e4."""
    return _lie_algebra([(1, 2, 2, a), (1, 3, 3, -a), (1, 3, 4, -b), (1, 4, 3, b), (1, 4, 4, -a)])


#: each gallery entry's name, the numeric parameters it reads and their defaults
GALLERY_ENTRIES = {
    "example-s2-1": {},
    "example-products": {"c1": 1.0, "c2": 1.0},
    "example-spaceform": {"c": 1.0},
    "example-pm-c": {"c": 1.0},
    "example4": {"a": 1.0, "b": 0.0},
    "example6": {"m": 2.0},
}
GALLERY_NAMES = tuple(GALLERY_ENTRIES)

#: every numeric parameter some gallery entry reads
GALLERY_PARAMS = tuple(dict.fromkeys(p for reads in GALLERY_ENTRIES.values() for p in reads))


def gallery(name: str, **params: float) -> tuple[Curvature4, dict]:
    """Gallery tensor plus its name, parameters and stored expectations
    (verdicts, eigenvalues, pattern, cases, volume).

    Eigenvalue expectations are listed in descending order to match the
    eigensolver output.  A parameter that the entry does not read, or that
    is not a finite number, is a ValidationError.
    """
    defaults = GALLERY_ENTRIES.get(name)
    if defaults is None:
        raise UnknownGalleryName(f"unknown gallery name {name!r}; known: {GALLERY_NAMES}")
    p = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise ValidationError(
                key, f"not read by {name}, which reads {', '.join(defaults) or 'no parameters'}"
            )
        if not _all_finite((value,)):
            raise ValidationError(key, "must be a finite number")
        p[key] = float(value)
    # every entry is an algebraic curvature tensor
    meta = {"name": name, **p, "identity_ok": True}
    if name == "example-s2-1":
        _, R = lie_group_curvature(example_s2_1_algebra())
        meta.update(
            eigenvalues=[2.0, 0.0, -2.0, -8.0],
            weakly_einstein=False,
            einstein=False,
            pattern="V",
        )
    elif name == "example-products":
        c1, c2 = p["c1"], p["c2"]
        R = surface_product(c1, c2)
        meta.update(
            eigenvalues=sorted([c1, c1, c2, c2], reverse=True),
            weakly_einstein=c1 * c1 == c2 * c2,
            einstein=c1 == c2,
            pattern="I" if c1 == c2 else "III",
        )
    elif name == "example-spaceform":
        c = p["c"]
        R = space_form_product(c)
        meta.update(
            eigenvalues=sorted([2 * c, 2 * c, 2 * c, 0.0], reverse=True),
            weakly_einstein=c == 0.0,
            einstein=c == 0.0,
            pattern="I" if c == 0.0 else "IV",
            forbidden_pattern=None if c == 0.0 else (1 if c > 0 else 4),
        )
    elif name == "example-pm-c":
        c = p["c"]
        R = surface_product(c, -c)
        meta.update(
            eigenvalues=sorted([c, c, -c, -c], reverse=True),
            weakly_einstein=True,
            einstein=c == 0.0,
            pattern="I" if c == 0.0 else "III",
            cases=["ii", "vi", "vii", "viii"] if c != 0.0 else None,
            f=-(c * c) if c != 0 else 0.0,
        )
    elif name == "example4":
        a, b = p["a"], p["b"]
        if a == 0.0:
            raise ValidationError("a", "example4 requires a != 0")
        _, R = lie_group_curvature(example4_algebra(a, b))
        a2 = a * a
        meta.update(
            eigenvalues=[a2, -a2, -a2, -3 * a2],
            weakly_einstein=True,
            einstein=False,
            pattern="II",
            cases=["v"],
            f=-2 * a2 * a2,
        )
    else:  # example6
        m = p["m"]
        if not (m.is_integer() and m >= 2):
            raise ValidationError("m", "example6 requires an integer genus m >= 2")
        m = int(m)
        # Unit sphere (K=+1) times genus-m surface (K=-1); the surface volume
        # 4*pi*(m-1) comes from the 2D Gauss-Bonnet theorem.
        volume = 4 * math.pi * 4 * math.pi * (m - 1)
        if not math.isfinite(volume):
            raise ValidationError("m", "example6 genus m too large: its volume overflows")
        R = surface_product(1.0, -1.0)
        meta.update(
            m=m,
            eigenvalues=[1.0, 1.0, -1.0, -1.0],
            weakly_einstein=True,
            einstein=False,
            pattern="III",
            cases=["ii", "vi", "vii", "viii"],
            volume=volume,
            chi=float(4 * (1 - m)),
            p1=0.0,
            C=float(8 * (1 - m)),
            hitchin_ok=False,
        )
    return R, meta


# --- JSON ingestion ----------------------------------------------------------

#: each document kind that takes numbers: the fields it reads, in order, and
#: the constructor that takes them
_NUMBER_KINDS = {
    "surface_product": (("c1", "c2"), surface_product),
    "space_form_product": (("c",), space_form_product),
    "constant_curvature": (("c",), constant_curvature),
}
_KINDS = ("lie_group", *_NUMBER_KINDS, "raw_curvature", "gallery")


@dataclass(frozen=True)
class GeometrySpec:
    kind: str
    params: dict = field(default_factory=dict)
    volume: float | None = None


def _require_number(obj: dict, key: str) -> float:
    if key not in obj:
        raise ValidationError(key, "required field missing")
    v = obj[key]
    if type(v) not in (int, float) or not _all_finite((v,)):
        raise ValidationError(key, "must be a finite number")
    return float(v)


def _all_finite(values) -> bool:
    try:
        return all(map(math.isfinite, values))
    except (OverflowError, TypeError):  # an int beyond the float range, or no number
        return False


_INDICES = frozenset((1, 2, 3, 4))


def _require_rows(key: str, entries: list, shape: str, width: int) -> list[tuple]:
    """The rows [index, ..., value] of a list of width-long rows, each index an
    integer in 1..4 and the value a finite number, checked column by column."""
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {width}):
        raise ValidationError(key, f"each row must be {shape}")
    if not entries:
        return []
    *indices, values = zip(*entries)
    for column in indices:
        # type() rather than isinstance(): JSON true and false are not indices
        if not (set(map(type, column)) <= {int} and set(column) <= _INDICES):
            raise ValidationError(key, "indices must be integers in 1..4")
    if not (set(map(type, values)) <= {int, float} and _all_finite(values)):
        raise ValidationError(key, "value must be a finite number")
    return list(zip(*indices, map(float, values)))


def load_spec(text: str) -> GeometrySpec:
    """Parse and validate a JSON geometry document (1-based indices).  A key
    other than kind, volume and the fields of its kind is a ValidationError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.pos, e.msg) from e
    except RecursionError as e:
        raise ParseError(0, "document nests too deeply") from e
    if not isinstance(doc, dict):
        raise ValidationError("document", "must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValidationError("kind", f"must be one of {_KINDS}")
    volume = None
    if "volume" in doc:
        volume = _require_number(doc, "volume")
        if volume <= 0:
            raise ValidationError("volume", "must be positive")

    params: dict = {}
    if kind in _NUMBER_KINDS:
        params = {key: _require_number(doc, key) for key in _NUMBER_KINDS[kind][0]}
    elif kind == "lie_group":
        entries = doc.get("c")
        if not isinstance(entries, list):
            raise ValidationError("c", "must be a list of [i, j, k, value] rows")
        params["c"] = _require_rows("c", entries, "[i, j, k, value]", 4)
    elif kind == "raw_curvature":
        entries = doc.get("components")
        if not isinstance(entries, list):
            raise ValidationError("components", "must be a list of [i, j, k, l, value]")
        params["components"] = _require_rows(
            "components", entries, "[i, j, k, l, value]", 5
        )
        closure = doc.get("symmetry_closure", False)
        if type(closure) is not bool:
            raise ValidationError("symmetry_closure", "must be true or false")
        params["symmetry_closure"] = closure
    elif kind == "gallery":
        name = doc.get("name")
        if not isinstance(name, str) or name not in GALLERY_NAMES:
            raise ValidationError("name", f"must be one of {GALLERY_NAMES}")
        params["name"] = name
        for key in GALLERY_PARAMS:
            if key in doc:
                params[key] = _require_number(doc, key)
    for key in doc:
        if key not in params and key not in ("kind", "volume"):
            raise ValidationError(key, f"not read by a {kind} document")
    return GeometrySpec(kind=kind, params=params, volume=volume)


def realize(spec: GeometrySpec) -> tuple[Curvature4, dict]:
    """Build the curvature tensor described by a GeometrySpec."""
    p = spec.params
    meta: dict = {}
    if spec.kind in _NUMBER_KINDS:
        R = _NUMBER_KINDS[spec.kind][1](**p)
    elif spec.kind == "lie_group":
        _, R = lie_group_curvature(_lie_algebra(p["c"]))
    elif spec.kind == "raw_curvature":
        # plain list writes in document order: the last row (or closure
        # orbit) to name a component sets it, which a fancy-indexed numpy
        # assignment with repeated indices does not promise
        flat = [0.0] * DIM ** 4
        if p["symmetry_closure"]:
            for i, j, k, l, v in p["components"]:
                _set_orbit(flat, i - 1, j - 1, k - 1, l - 1, v)
        else:
            for i, j, k, l, v in p["components"]:
                flat[64 * i + 16 * j + 4 * k + l - 85] = v
        R = make_curvature(np.array(flat).reshape((DIM,) * 4))
    elif spec.kind == "gallery":
        R, meta = gallery(**p)
    else:  # pragma: no cover - guarded by load_spec
        raise ValidationError("kind", "unknown kind")
    if spec.volume is not None:
        meta["volume"] = spec.volume
    return R, meta


def _set_orbit(flat, i: int, j: int, k: int, l: int, v: float) -> None:
    """Fill the full symmetry orbit of one listed component (0-based indices)
    in the 256 flat components of a 4x4x4x4 array, in a fixed order."""
    ij, ji, kl, lk = 4 * i + j, 4 * j + i, 4 * k + l, 4 * l + k
    for pos, s in (
        (16 * ij + kl, 1.0),
        (16 * ji + kl, -1.0),
        (16 * ij + lk, -1.0),
        (16 * ji + lk, 1.0),
        (16 * kl + ij, 1.0),
        (16 * lk + ij, -1.0),
        (16 * kl + ji, -1.0),
        (16 * lk + ji, 1.0),
    ):
        flat[pos] = s * v
