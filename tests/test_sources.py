"""Curvature constructors, the worked-example gallery and JSON ingestion."""

import json
import math

import numpy as np
import pytest

import stframe as sf
from stframe.errors import (
    JacobiViolation,
    ParseError,
    UnknownGalleryName,
    ValidationError,
)
from stframe.sources import example4_algebra, example_s2_1_algebra


# --- Lie group curvature ------------------------------------------------------

def test_lie_algebra_rejects_non_antisymmetric_constants():
    c = np.zeros((4, 4, 4))
    c[0, 1, 2] = 1.0  # c_jik = -c_ijk not filled
    with pytest.raises(JacobiViolation):
        sf.LieAlgebra4(c)


def _non_jacobi_constants() -> np.ndarray:
    c = np.zeros((4, 4, 4))
    # [e1,e2]=e2, [e1,e3]=e3, [e2,e3]=e1 fails Jacobi on (e1,e2,e3)
    for (i, j, k) in ((0, 1, 1), (0, 2, 2), (1, 2, 0)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return c


def test_lie_algebra_rejects_jacobi_violation():
    with pytest.raises(JacobiViolation):
        sf.LieAlgebra4(_non_jacobi_constants())


@pytest.mark.parametrize("s", (1e-12, 1e-6, 1e6), ids=lambda s: f"{s:g}")
def test_lie_algebra_checks_are_scale_free(s):
    with pytest.raises(JacobiViolation, match="Jacobi"):
        sf.LieAlgebra4(s * _non_jacobi_constants())
    c = s * example4_algebra(1.0, 0.5).c.copy()
    c[0, 1, 1] += 1e-8 * s  # c_ijk != -c_jik by 1e-8 of the size
    with pytest.raises(JacobiViolation, match="c_ijk"):
        sf.LieAlgebra4(c)
    sf.LieAlgebra4(s * example4_algebra(1.0, 0.5).c)
    sf.LieAlgebra4(np.zeros((4, 4, 4)))


def test_lie_algebra_rejects_constants_whose_products_overflow():
    c = example4_algebra(1.0, 0.5).c
    top = sf.sources.MAX_STRUCTURE_CONSTANT / np.abs(c).max()
    sf.LieAlgebra4(top * c)
    with pytest.raises(JacobiViolation, match=r"too large: max \|c_ijk\| = 1\.000e\+151"):
        sf.LieAlgebra4(10 * top * c)


def test_solvable_group_connection_coefficients():
    conn, _ = sf.lie_group_curvature(example_s2_1_algebra())
    g = conn.gamma
    expected = {
        (1, 3, 4): -1.0,
        (2, 1, 2): -2.0,
        (3, 1, 3): 1.0,
        (3, 1, 4): -1.0,
        (4, 1, 3): -1.0,
        (4, 1, 4): 1.0,
    }
    for (i, j, k), v in expected.items():
        assert g[i - 1, j - 1, k - 1] == pytest.approx(v, abs=1e-12)


def test_solvable_group_curvature_components():
    _, R = sf.lie_group_curvature(example_s2_1_algebra())
    c = R.comp
    expected = {
        (1, 2, 1, 2): 4.0,
        (1, 4, 1, 4): 4.0,
        (2, 3, 2, 3): -2.0,
        (2, 4, 2, 4): -2.0,
        (1, 3, 1, 4): -2.0,
        (2, 3, 2, 4): 2.0,
    }
    for (i, j, k, l), v in expected.items():
        assert c[i - 1, j - 1, k - 1, l - 1] == pytest.approx(v, abs=1e-12)
    assert c[0, 2, 0, 2] == pytest.approx(0.0, abs=1e-12)


def test_solvable_group_ricci_eigenvalues():
    _, R = sf.lie_group_curvature(example_s2_1_algebra())
    eig = np.sort(np.linalg.eigvalsh(sf.ricci(R)))
    assert np.abs(eig - np.array([-8.0, -2.0, 0.0, 2.0])).max() < 1e-10


def test_one_parameter_group_family_curvature():
    for a in (1.0, 2.0):
        for b in (0.0, 0.5):
            _, R = sf.lie_group_curvature(example4_algebra(a, b))
            c = R.comp
            a2 = a * a
            assert c[0, 1, 0, 1] == pytest.approx(a2, abs=1e-12)
            assert c[0, 2, 0, 2] == pytest.approx(a2, abs=1e-12)
            assert c[0, 3, 0, 3] == pytest.approx(a2, abs=1e-12)
            assert c[1, 2, 1, 2] == pytest.approx(-a2, abs=1e-12)
            assert c[1, 3, 1, 3] == pytest.approx(-a2, abs=1e-12)
            assert c[2, 3, 2, 3] == pytest.approx(a2, abs=1e-12)


# --- product and space-form constructors -------------------------------------

def test_surface_product_components_and_sectional_sign():
    R = sf.surface_product(2.0, -3.0)
    # sectional curvature of the (e_i, e_j) plane is R_ijji
    assert R.comp[0, 1, 1, 0] == pytest.approx(2.0)
    assert R.comp[2, 3, 3, 2] == pytest.approx(-3.0)
    assert R.comp[0, 2, 2, 0] == 0.0


def test_space_form_product_ricci():
    R = sf.space_form_product(1.0)
    rho = sf.ricci(R)
    assert np.abs(rho - np.diag([2.0, 2.0, 2.0, 0.0])).max() < 1e-12


def test_constant_curvature_sectional_values():
    R = sf.constant_curvature(2.0)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert R.comp[i, j, j, i] == pytest.approx(2.0)
    rho = sf.ricci(R)
    assert np.abs(rho - 6.0 * np.eye(4)).max() < 1e-12


def test_random_curvature_is_deterministic_and_valid():
    R1 = sf.random_curvature(123)
    R2 = sf.random_curvature(123)
    assert np.array_equal(R1.comp, R2.comp)
    # idempotent re-validation
    sf.make_curvature(R1.comp)
    assert np.abs(sf.random_curvature(124).comp - R1.comp).max() > 1e-3


# --- gallery ------------------------------------------------------------------

def test_gallery_names_and_unknown_name():
    assert set(sf.GALLERY_NAMES) == {
        "example-s2-1",
        "example-products",
        "example-spaceform",
        "example-pm-c",
        "example4",
        "example6",
    }
    with pytest.raises(UnknownGalleryName):
        sf.gallery("no-such-example")


@pytest.mark.parametrize("name", sf.GALLERY_NAMES)
def test_gallery_metadata_is_self_consistent(name):
    R, meta = sf.gallery(name)
    assert meta["name"] == name
    eig = np.sort(np.linalg.eigvalsh(sf.ricci(R)))[::-1]
    assert np.abs(eig - np.asarray(meta["eigenvalues"])).max() < 1e-9
    assert sf.weakly_einstein_residual(R).passes == meta["weakly_einstein"]
    assert sf.einstein_residual(R).passes == meta["einstein"]


#: each entry at its defaults, then points where a stored pattern takes its other branch
GALLERY_POINTS = [
    *((name, {}) for name in sf.GALLERY_NAMES),
    ("example-products", {"c1": 1.0, "c2": 2.0}),
    ("example-products", {"c1": 1.0, "c2": -1.0}),
    ("example-products", {"c1": 0.0, "c2": 0.0}),
    ("example-spaceform", {"c": 0.0}),
    ("example-spaceform", {"c": -1.0}),
    ("example-pm-c", {"c": 0.0}),
    ("example4", {"a": -1.0, "b": 3.0}),
]


@pytest.mark.parametrize("name, params", GALLERY_POINTS)
def test_gallery_stored_identity_verdict_and_pattern_hold(name, params):
    R, meta = sf.gallery(name, **params)
    assert sf.identity_residual(R).passes == meta["identity_ok"]
    assert sf.ricci_spectrum(R).pattern.tag == meta["pattern"]


def test_gallery_example6_volume_and_expectations():
    for m in (2, 3):
        _, meta = sf.gallery("example6", m=m)
        assert meta["volume"] == pytest.approx(16 * math.pi ** 2 * (m - 1))
        assert meta["chi"] == 4 * (1 - m)
        assert meta["p1"] == 0.0
        assert meta["C"] == 8 * (1 - m)
    with pytest.raises(ValidationError):
        sf.gallery("example6", m=1)


def test_gallery_example4_rejects_degenerate_parameter():
    with pytest.raises(ValidationError):
        sf.gallery("example4", a=0.0)


def test_gallery_refuses_parameters_the_entry_does_not_read():
    for name, param in (("example4", "c"), ("example6", "a"), ("example-s2-1", "m")):
        with pytest.raises(ValidationError) as exc:
            sf.gallery(name, **{param: 2.0})
        assert exc.value.field == param
        with pytest.raises(ValidationError):
            sf.realize(sf.load_spec(json.dumps({"kind": "gallery", "name": name, param: 2.0})))
    # an unknown name is reported as such, whatever parameters come with it
    with pytest.raises(UnknownGalleryName):
        sf.gallery("no-such-example", a=1.0)


#: each gallery entry's parameters and their defaults
GALLERY_DEFAULTS = {
    "example-s2-1": {},
    "example-products": {"c1": 1.0, "c2": 1.0},
    "example-spaceform": {"c": 1.0},
    "example-pm-c": {"c": 1.0},
    "example4": {"a": 1.0, "b": 0.0},
    "example6": {"m": 2.0},
}


@pytest.mark.parametrize("name", sf.GALLERY_NAMES)
def test_gallery_metadata_holds_the_parameters_and_the_expectations(name):
    _, meta = sf.gallery(name)
    defaults = GALLERY_DEFAULTS[name]
    assert {k: meta[k] for k in defaults} == defaults
    expectations = {
        "identity_ok", "eigenvalues", "weakly_einstein", "einstein", "pattern",
        "forbidden_pattern", "cases", "f", "volume", "chi", "p1", "C", "hitchin_ok",
    }
    assert set(meta) <= {"name", *defaults, *expectations}


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10 ** 400], ids=["nan", "inf", "-inf", "10**400"]
)
def test_gallery_parameters_must_be_finite_numbers(value):
    for name, defaults in GALLERY_DEFAULTS.items():
        for param in defaults:
            with pytest.raises(ValidationError) as exc:
                sf.gallery(name, **{param: value})
            assert exc.value.field == param
            assert exc.value.constraint == "must be a finite number"


# --- JSON ingestion -----------------------------------------------------------

def test_load_spec_rejects_malformed_json():
    with pytest.raises(ParseError):
        sf.load_spec("{not json")


def test_load_spec_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        sf.load_spec(json.dumps({"kind": "mystery"}))
    with pytest.raises(ValidationError):
        sf.load_spec(json.dumps([1, 2, 3]))


def test_load_spec_rejects_bad_values():
    with pytest.raises(ValidationError):
        sf.load_spec(json.dumps({"kind": "surface_product", "c1": 1.0}))
    with pytest.raises(ValidationError):
        sf.load_spec(json.dumps({"kind": "surface_product", "c1": 1.0, "c2": "x"}))
    with pytest.raises(ValidationError):
        sf.load_spec(
            json.dumps({"kind": "constant_curvature", "c": 1.0, "volume": -2.0})
        )
    with pytest.raises(ValidationError):
        sf.load_spec(
            json.dumps({"kind": "lie_group", "c": [[0, 2, 2, 1.0]]})
        )
    with pytest.raises(ValidationError):
        sf.load_spec(
            json.dumps({"kind": "raw_curvature", "components": [[1, 2, 1, 1.0]]})
        )
    # JSON booleans are neither indices nor values, and a huge integer is no
    # finite float
    for rows in (
        [[True, 2, 1, 2, -1.0]],
        [[1, 2, 1, 2, -1.0], [1, 2, 1, False, -1.0]],
        [[1, 2, 1, 2, False]],
        [[1, 2, 1, 2, 10 ** 400]],
    ):
        with pytest.raises(ValidationError) as err:
            sf.load_spec(json.dumps({"kind": "raw_curvature", "components": rows}))
        assert err.value.field == "components"
    for rows in ([[1, 2, 2, True]], [[1, True, 2, 1.0]]):
        with pytest.raises(ValidationError) as err:
            sf.load_spec(json.dumps({"kind": "lie_group", "c": rows}))
        assert err.value.field == "c"
    for closure in ("no", 1, None):
        doc = {
            "kind": "raw_curvature",
            "components": [[1, 2, 1, 2, -1.0]],
            "symmetry_closure": closure,
        }
        with pytest.raises(ValidationError) as err:
            sf.load_spec(json.dumps(doc))
        assert err.value.field == "symmetry_closure"
    with pytest.raises(ValidationError):
        sf.load_spec(json.dumps({"kind": "surface_product", "c1": 10 ** 400, "c2": 1.0}))


def test_load_spec_refuses_keys_its_kind_does_not_read():
    for doc, key in (
        ({"kind": "lie_group", "c": [], "components": []}, "components"),
        ({"kind": "surface_product", "c1": 1.0, "c2": -1.0, "symmetry_closure": True},
         "symmetry_closure"),
        ({"kind": "space_form_product", "c": 1.0, "c1": 1.0}, "c1"),
        ({"kind": "constant_curvature", "c": 1.0, "volume_": 5}, "volume_"),
        ({"kind": "raw_curvature", "components": [], "c": 1.0}, "c"),
        ({"kind": "gallery", "name": "example4", "Name": "example6"}, "Name"),
    ):
        with pytest.raises(ValidationError) as err:
            sf.load_spec(json.dumps({**doc, "volume": 2.0}))
        assert err.value.field == key
        assert err.value.constraint == f"not read by a {doc['kind']} document"
        del doc[key]
        assert sf.load_spec(json.dumps({**doc, "volume": 2.0})).volume == 2.0


def test_surface_product_round_trip_through_json():
    doc = {"kind": "surface_product", "c1": 1.0, "c2": -1.0, "volume": 2.5}
    R, meta = sf.realize(sf.load_spec(json.dumps(doc)))
    assert np.abs(R.comp - sf.surface_product(1.0, -1.0).comp).max() == 0.0
    assert meta == {"volume": 2.5}


def test_lie_group_round_trip_through_json():
    doc = {
        "kind": "lie_group",
        "c": [[1, 2, 2, 2.0], [1, 3, 3, -1.0], [1, 4, 3, 2.0], [1, 4, 4, -1.0]],
    }
    R, _ = sf.realize(sf.load_spec(json.dumps(doc)))
    _, expected = sf.lie_group_curvature(example_s2_1_algebra())
    assert np.abs(R.comp - expected.comp).max() < 1e-12


def test_raw_curvature_with_symmetry_closure():
    doc = {
        "kind": "raw_curvature",
        "components": [[1, 2, 1, 2, -1.0], [3, 4, 3, 4, -1.0]],
        "symmetry_closure": True,
    }
    R, _ = sf.realize(sf.load_spec(json.dumps(doc)))
    assert np.abs(R.comp - sf.surface_product(1.0, 1.0).comp).max() == 0.0


def _row_loop(rows, closure: bool) -> np.ndarray:
    """Reference for realize: each row written into a zero array in document
    order, under closure followed by its whole symmetry orbit."""
    comp = np.zeros((4,) * 4)
    for i, j, k, l, v in rows:
        i, j, k, l = i - 1, j - 1, k - 1, l - 1
        comp[i, j, k, l] = v
        if closure:
            for idx, s in (
                ((i, j, k, l), 1.0), ((j, i, k, l), -1.0),
                ((i, j, l, k), -1.0), ((j, i, l, k), 1.0),
                ((k, l, i, j), 1.0), ((l, k, i, j), -1.0),
                ((k, l, j, i), -1.0), ((l, k, j, i), 1.0),
            ):
                comp[idx] = s * v
    return comp


def _rows(comp: np.ndarray) -> list:
    return [[i + 1, j + 1, k + 1, l + 1, float(comp[i, j, k, l])]
            for i, j, k, l in np.ndindex(comp.shape)]


def test_raw_curvature_rows_are_written_in_document_order():
    rng = np.random.default_rng(7)
    first, last = _rows(sf.random_curvature(1).comp), _rows(sf.random_curvature(2).comp)
    rng.shuffle(first)
    rng.shuffle(last)
    # every component is named twice; the later row wins
    plain = first + last
    # each orbit is named first through a member with a wrong value, then
    # through its representative, whose orbit overwrites it
    closed = []
    for i, j, k, l, v in _rows(sf.random_curvature(3).comp):
        if i < j and k < l and (i, j) <= (k, l):
            closed += [[k, l, j, i, 9.0 + v], [j, i, k, l, -7.0], [i, j, k, l, v]]
    for rows, closure in ((plain, False), (closed, True)):
        doc = {"kind": "raw_curvature", "components": rows, "symmetry_closure": closure}
        R, _ = sf.realize(sf.load_spec(json.dumps(doc)))
        assert np.array_equal(R.comp, sf.make_curvature(_row_loop(rows, closure)).comp)


def test_raw_curvature_without_closure_requires_full_orbit():
    # a lone R_1212 breaks the pair antisymmetries by all of its size, however small
    for value in (-1.0, -1e-12):
        doc = {
            "kind": "raw_curvature",
            "components": [[1, 2, 1, 2, value]],
            "symmetry_closure": False,
        }
        with pytest.raises(sf.SymmetryViolation, match="antisymmetry"):
            sf.realize(sf.load_spec(json.dumps(doc)))


def test_gallery_round_trip_through_json():
    doc = {"kind": "gallery", "name": "example4", "a": 2.0, "b": 0.5}
    R, meta = sf.realize(sf.load_spec(json.dumps(doc)))
    expected, _ = sf.gallery("example4", a=2.0, b=0.5)
    assert np.abs(R.comp - expected.comp).max() == 0.0
    assert meta["a"] == 2.0
