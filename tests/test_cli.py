"""Command-line interface: subcommands, exit codes, JSON reports."""

import json
import math
import operator
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stframe as sf
import stframe.cli
from stframe.cli import GALLERY_SUITE, _SUBCOMMANDS, build_parser, main, render_json

from conftest import WEAKLY_EINSTEIN_GALLERY, st_construction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json", "-")
    # the machine report is the trailing JSON object on stdout
    start = out.index("{\n")
    return code, json.loads(out[start:]), err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_identity_on_gallery(capsys):
    code, rep, _ = run_json(capsys, "identity", "--gallery", "example-s2-1")
    assert code == 0
    assert rep["identity_ok"] is True
    assert rep["identity_residual"]["relative"] < 1e-9


def test_check_weakly_einstein_failure_exit_code(capsys, tmp_path):
    path = write_doc(
        tmp_path, "product-1-2.json", {"kind": "surface_product", "c1": 1.0, "c2": 2.0}
    )
    code, rep, _ = run_json(capsys, "check", "--input", path)
    assert code == 1
    assert rep["verdicts"]["weakly_einstein"] is False
    diag = rep["weakly_einstein_residual"]["matrix"]
    assert diag[0] == pytest.approx(-3.0, abs=1e-10)
    assert diag[15] == pytest.approx(3.0, abs=1e-10)


def test_check_reports_forbidden_pattern(capsys, tmp_path):
    path = write_doc(
        tmp_path, "spaceform.json", {"kind": "space_form_product", "c": 1.0}
    )
    code, rep, _ = run_json(capsys, "check", "--input", path)
    assert code == 1
    assert rep["forbidden_pattern"] == 1
    assert rep["weakly_einstein_residual"]["matrix"][15] == pytest.approx(-3.0, abs=1e-10)
    # the pattern is judged relative to the eigenvalues' size
    for c, pattern in (("1e-9", 1), ("-1e-9", 4)):
        code, rep, _ = run_json(capsys, "check", "--gallery", "example-spaceform", f"--c={c}")
        assert code == 1
        assert rep["forbidden_pattern"] == pattern


def test_frame_on_group_example_file(capsys, tmp_path):
    path = write_doc(
        tmp_path,
        "example4.json",
        {"kind": "gallery", "name": "example4", "a": 1.0, "b": 0.0},
    )
    code, rep, _ = run_json(capsys, "frame", "--input", path)
    assert code == 0
    assert rep["verdicts"]["weakly_einstein"] is True
    assert rep["verdicts"]["einstein"] is False
    assert "v" in rep["sign_cases"]
    assert rep["penalty"] < 1e-16


def test_frame_not_weakly_einstein_exit_code(capsys):
    code, rep, _ = run_json(
        capsys, "frame", "--gallery", "example-products", "--c1", "1", "--c2", "2"
    )
    assert code == 1
    assert rep["verdicts"]["weakly_einstein"] is False


def test_invariants_gallery_example6(capsys):
    code, rep, _ = run_json(capsys, "invariants", "--gallery", "example6", "--m", "2")
    assert code == 0
    assert rep["chi"] == pytest.approx(-4.0, abs=1e-9)
    assert rep["p1"] == pytest.approx(0.0, abs=1e-9)
    assert rep["C"] == pytest.approx(-8.0, abs=1e-9)
    assert rep["bound_plus_ok"] is True
    assert rep["bound_minus_ok"] is True
    assert rep["hitchin_ok"] is False


def test_invariants_with_explicit_volume(capsys, tmp_path):
    path = write_doc(
        tmp_path, "sphere.json", {"kind": "constant_curvature", "c": 1.0}
    )
    volume = str(8.0 * 3.141592653589793 ** 2 / 3.0)
    code, rep, _ = run_json(capsys, "invariants", "--input", path, "--volume", volume)
    assert code == 0
    assert rep["chi"] == pytest.approx(2.0, abs=1e-9)
    assert rep["hitchin_ok"] is True


def test_invariants_f_by_case_maps_each_sign_case_to_the_one_deficit(capsys):
    for name, params in WEAKLY_EINSTEIN_GALLERY:
        flags = [x for k, v in params.items() for x in (f"--{k}", str(v))]
        code, rep, _ = run_json(capsys, "invariants", "--gallery", name, *flags)
        st = sf.find_st_basis(sf.gallery(name, **params)[0])
        assert code == 0
        assert list(rep["f_by_case"]) == rep["sign_cases"] == list(st.sign_cases.cases)
        assert isinstance(st.sign_cases.f, float)
        assert all(f == st.sign_cases.f for f in rep["f_by_case"].values())


def test_fuzz_identity_statistics(capsys):
    code, rep, _ = run_json(capsys, "fuzz", "--count", "25", "--seed", "7")
    assert code == 0
    assert rep["identity_ok"] is True
    assert rep["count"] == 25
    assert rep["max_relative_residual"] < 1e-9


def test_gallery_list(capsys):
    code, rep, _ = run_json(capsys, "gallery", "--list")
    assert code == 0
    assert "example4" in rep["names"]


def test_gallery_single_entry(capsys):
    code, rep, _ = run_json(capsys, "gallery", "--name", "example4", "--a", "1")
    assert code == 0
    assert rep["all_ok"] is True
    assert rep["runs"][0]["mismatches"] == []


def test_gallery_all(capsys):
    code, rep, _ = run_json(capsys, "gallery", "--all")
    assert code == 0
    assert rep["all_ok"] is True
    assert len(rep["runs"]) >= 10


def _add_one(value):
    return value + 1.0


#: each stored expectation: a gallery entry that compares it, and a wrong value for it
WRONG_EXPECTATIONS = {
    "eigenvalues": ("example4", lambda eig: [lam + 1.0 for lam in eig]),
    "identity_ok": ("example4", operator.not_),
    "weakly_einstein": ("example-s2-1", operator.not_),
    "einstein": ("example4", operator.not_),
    "pattern": ("example4", lambda pattern: "I"),
    "forbidden_pattern": ("example-spaceform", lambda pattern: 2),
    "cases": ("example4", lambda cases: ["i"]),
    "f": ("example4", _add_one),
    "chi": ("example6", _add_one),
    "p1": ("example6", _add_one),
    "C": ("example6", _add_one),
    "hitchin_ok": ("example6", operator.not_),
}


@pytest.mark.parametrize("key", WRONG_EXPECTATIONS)
def test_gallery_compares_every_stored_expectation(capsys, monkeypatch, key):
    name, wrong = WRONG_EXPECTATIONS[key]
    real = stframe.cli.gallery

    def perturbed(*args, **params):
        R, meta = real(*args, **params)
        return R, {**meta, key: wrong(meta[key])}

    monkeypatch.setattr(stframe.cli, "gallery", perturbed)
    code, rep, _ = run_json(capsys, "gallery", "--name", name)
    assert code == 1 and rep["all_ok"] is False
    assert rep["runs"][0]["mismatches"] == [key]


@pytest.mark.parametrize("name, params", GALLERY_SUITE)
def test_gallery_entry_agrees_with_check_and_invariants(capsys, name, params):
    flags = [f"--{k}={v}" for k, v in params.items()]
    _, rep, _ = run_json(capsys, "gallery", "--name", name, *flags)
    entry = rep["runs"][0]
    _, check, _ = run_json(capsys, "check", "--gallery", name, *flags)
    assert entry["eigenvalues"] == check["eigenvalues"]
    assert entry["weakly_einstein"] == check["verdicts"]["weakly_einstein"]
    assert entry["einstein"] == check["verdicts"]["einstein"]
    if entry["weakly_einstein"]:
        _, inv, _ = run_json(capsys, "invariants", "--gallery", name, *flags)
        keys = ("penalty", "sign_cases", "f", "chi", "p1", "C", "hitchin_ok")
        assert {k: entry.get(k) for k in keys} == {k: inv.get(k) for k in keys}


def test_gallery_takes_exactly_one_mode(capsys):
    for argv, field in (
        ((), "name"),
        (("--all", "--name", "example4", "--a", "3"), "name"),
        (("--list", "--name", "example4"), "name"),
        (("--list", "--all"), "name"),
        (("--all", "--a", "3"), "a"),
        (("--list", "--m", "2"), "m"),
    ):
        code, out, err = run(capsys, "gallery", *argv, "--json", "-")
        assert code == 2 and out == ""
        assert f"invalid field '{field}'" in err


#: the (subcommand, flag) pairs whose flag the subcommand does not read
REMOVED_FLAGS = [
    ("identity", "--volume"),
    ("identity", "--tol-mult"),
    ("identity", "--seed"),
    ("check", "--volume"),
    ("check", "--tol-mult"),  # pattern reads the frame search's first reading
    ("check", "--seed"),
    ("frame", "--volume"),
    ("frame", "--tol"),  # the frame search's precondition is the default verdict
    ("frame", "--tol-mult"),  # the frame search reads its pattern off the penalty
    ("frame", "--seed"),
    ("invariants", "--tol"),
    ("invariants", "--tol-mult"),
    ("invariants", "--seed"),
    ("fuzz", "--tol-mult"),
    ("gallery", "--input"),
    ("gallery", "--gallery"),
    ("gallery", "--volume"),
    ("gallery", "--tol"),
    ("gallery", "--tol-mult"),
    ("gallery", "--seed"),
]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_subcommands_reject_flags_they_do_not_read(capsys, command, flag):
    source = {"fuzz": [], "gallery": ["--all"]}.get(command, ["--gallery", "example4"])
    with pytest.raises(SystemExit) as exc:
        main([command, *source, flag, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the subcommand's own parser reports the flag, with its own usage line
    assert err.startswith(f"usage: stframe {command} ")
    assert f"stframe {command}: error: unrecognized arguments: {flag} 1" in err


#: the parameters each gallery entry reads; it refuses the others
GALLERY_READS = {
    "example-s2-1": (),
    "example-products": ("c1", "c2"),
    "example-spaceform": ("c",),
    "example-pm-c": ("c",),
    "example4": ("a", "b"),
    "example6": ("m",),
}
UNREAD_PARAMS = [
    (name, param)
    for name, reads in GALLERY_READS.items()
    for param in ("c1", "c2", "c", "a", "b", "m")
    if param not in reads
]
TENSOR_COMMANDS = ("identity", "check", "frame", "invariants")


def test_gallery_entries_take_the_parameters_they_read(capsys):
    assert len(UNREAD_PARAMS) == 29
    assert sf.GALLERY_NAMES == tuple(GALLERY_READS)
    for name, reads in GALLERY_READS.items():
        for param in reads:
            code, rep, _ = run_json(capsys, "check", "--gallery", name, f"--{param}", "2")
            assert code in (0, 1) and rep["input"][param] == 2.0


@pytest.mark.parametrize("name,param", UNREAD_PARAMS)
def test_gallery_parameter_the_entry_does_not_read_exits_two(capsys, tmp_path, name, param):
    doc = write_doc(tmp_path, "gallery.json", {"kind": "gallery", "name": name, param: 2.0})
    for argv in (
        *((command, "--gallery", name, f"--{param}", "2") for command in TENSOR_COMMANDS),
        ("gallery", "--name", name, f"--{param}", "2"),
        ("check", "--input", doc),
    ):
        code, out, err = run(capsys, *argv, "--json", "-")
        assert code == 2 and out == ""
        assert err == f"error: invalid field '{param}': not read by {name}, which reads " \
            f"{', '.join(GALLERY_READS[name]) or 'no parameters'}\n"


def test_document_key_its_kind_does_not_read_exits_two(capsys, tmp_path):
    for n, (doc, key) in enumerate((
        ({"kind": "constant_curvature", "c": 1.0, "volume_": 5, "a": 3}, "volume_"),
        ({"kind": "surface_product", "c1": 1.0, "c2": -1.0, "symmetry_closure": "yes"},
         "symmetry_closure"),
        ({"kind": "gallery", "name": "example4", "volume_": 5}, "volume_"),
    )):
        path = write_doc(tmp_path, f"doc{n}.json", doc)
        for command in ("invariants", "check"):
            code, out, err = run(capsys, command, "--input", path, "--json", "-")
            assert code == 2 and out == ""
            assert err == f"error: invalid field '{key}': not read by a {doc['kind']} document\n"


@pytest.mark.parametrize("command", TENSOR_COMMANDS)
def test_gallery_parameter_with_input_exits_two(capsys, tmp_path, command):
    doc = write_doc(tmp_path, "sphere.json", {"kind": "constant_curvature", "c": 1.0})
    code, out, err = run(capsys, command, "--input", doc, "--c", "5", "--json", "-")
    assert code == 2 and out == ""
    assert err == "error: invalid field 'c': gallery parameters need --gallery\n"


def outcome(capsys, call):
    """call()'s result, or ("SystemExit", code), after its stdout and stderr."""
    try:
        result = call()
    except SystemExit as e:
        result = ("SystemExit", e.code)
    captured = capsys.readouterr()
    return captured.out, captured.err, result


#: argv that argparse answers itself, and its SystemExit code: help, usage
#: errors of each subcommand's parser, and argv with no subcommand
ARGPARSE_EXITS = [
    *(([command, *rest], code) for command in _SUBCOMMANDS for rest, code in (
        (["-h"], 0), (["--no-such-flag"], 2), (["--tol", "x"], 2), (["--json"], 2),
    )),
    ([], 2), (["-h"], 0), (["--version"], 0), (["no-such-command", "-h"], 2),
]


@pytest.mark.parametrize("argv,code", ARGPARSE_EXITS)
def test_main_exits_as_the_top_level_parser_does(capsys, argv, code):
    # main hands an argv that starts with a subcommand straight to that
    # subcommand's parser: help, usage and errors stay the top-level
    # parser's own, to the byte
    expected = outcome(capsys, lambda: build_parser().parse_args(argv))
    assert expected[2] == ("SystemExit", code)
    assert outcome(capsys, lambda: main(argv)) == expected


@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_subcommand_parsers_parse_as_the_top_level_parser_does(command):
    commands = {}
    parser = build_parser(commands)
    tol = ["--tol", "1e-9"] if "tol" in _SUBCOMMANDS[command][2] else []
    for argv in ([command], [command, *tol, "--json", "-"]):
        args = parser.parse_args(argv)
        assert args.command == command
        assert commands[command].parse_args(argv[1:]) == args


def test_reports_echo_the_settings_their_command_takes(capsys):
    # example-s2-1 is not weakly Einstein: check, frame and invariants exit 1 on it
    for command, settings, s2_1_code in (
        ("identity", ["tol"], 0),
        ("check", ["tol"], 1),
        ("frame", [], 1),
        ("invariants", [], 1),
    ):
        for name, expected_code in (("example4", 0), ("example-s2-1", s2_1_code)):
            code, rep, _ = run_json(capsys, command, "--gallery", name)
            assert code == expected_code
            assert list(rep)[:2 + len(settings)] == ["command", "input", *settings]
            assert not ({"tol", "tol_mult", "seed"} - set(settings)) & set(rep)


def test_usage_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "identity")
    assert code == 2
    code, _, err = run(capsys, "identity", "--gallery", "no-such-entry")
    assert code == 2
    code, _, err = run(capsys, "identity", "--input", str(tmp_path / "missing.json"))
    assert code == 2
    # --input and --gallery exclude one another, whether or not the file exists
    code, out, err = run(capsys, "identity", "--input", str(tmp_path / "missing.json"),
                         "--gallery", "example4")
    assert code == 2 and "invalid field 'input'" in err and out == ""
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "identity", "--input", str(bad))
    assert code == 2
    code, _, err = run(capsys, "identity", "--input", str(tmp_path))
    assert code == 2 and "cannot read" in err
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"kind": "gallery", "name": "caf\xe9"}')
    code, _, err = run(capsys, "identity", "--input", str(latin))
    assert code == 2 and "cannot read" in err
    code, _, err = run(capsys, "fuzz", "--count", "-3")
    assert code == 2 and "count" in err
    code, _, err = run(capsys, "fuzz", "--count", "0")
    assert code == 2
    code, out, err = run(capsys, "fuzz", "--count", "3", "--seed", "-1")
    assert code == 2 and "invalid field 'seed'" in err and out == ""
    code, _, err = run(capsys, "invariants", "--gallery", "example6", "--m", "2.5")
    assert code == 2 and "integer genus" in err
    for volume in ("-1", "0", "nan", "inf"):
        code, out, err = run(
            capsys, "invariants", "--gallery", "example6", "--m", "2", "--volume", volume,
            "--json", "-",
        )
        assert code == 2 and "volume" in err and out == ""
    # a volume whose products with the densities overflow would make every
    # bound flag pass vacuously
    code, out, err = run(
        capsys, "invariants", "--gallery", "example-pm-c", "--c", "1e140",
        "--volume", "1e100", "--json", "-",
    )
    assert code == 2 and "volume" in err and out == ""
    # so would a genus whose volume overflows
    for command in (("invariants", "--gallery"), ("gallery", "--name")):
        code, out, err = run(capsys, *command, "example6", "--m", "1e307", "--json", "-")
        assert code == 2 and "'m'" in err and out == ""
    # a tolerance that is not a positive finite number makes every verdict vacuous
    for value in ("inf", "nan", "-1", "0"):
        code, out, err = run(
            capsys, "check", "--gallery", "example4", "--a", "1", "--b", "0.5", "--tol", value,
            "--json", "-",
        )
        assert code == 2 and out == ""
        assert "invalid field 'tol': must be a positive finite number" in err
    code, out, err = run(capsys, "fuzz", "--count", "5", "--tol", "-1")
    assert code == 2 and "'tol'" in err and out == ""
    doc = tmp_path / "genus.json"
    doc.write_text('{"kind": "gallery", "name": "example6", "m": 2.5}')
    code, _, err = run(capsys, "invariants", "--input", str(doc))
    assert code == 2 and "integer genus" in err
    # documents whose tensor fails a curvature identity are bad input too
    doc = tmp_path / "one-component.json"
    for value in ("-1.0", "-1e-12"):
        doc.write_text(f'{{"kind": "raw_curvature", "components": [[1, 2, 1, 2, {value}]]}}')
        code, _, err = run(capsys, "check", "--input", str(doc))
        assert code == 2 and str(doc) in err and "antisymmetry" in err
    doc = tmp_path / "not-jacobi.json"
    doc.write_text('{"kind": "lie_group", "c": [[1, 2, 3, 1.0], [3, 4, 1, 1.0]]}')
    code, _, err = run(capsys, "check", "--input", str(doc))
    assert code == 2 and str(doc) in err and "Jacobi" in err
    # gallery parameters that are not finite, or that put the tensor's scale
    # outside the supported range, are bad input too
    for argv, field in (
        (("check", "--gallery", "example4", "--a", "nan"), "a"),
        (("check", "--gallery", "example-products", "--c1", "inf"), "c1"),
        (("gallery", "--name", "example4", "--b=-inf"), "b"),
    ):
        code, out, err = run(capsys, *argv, "--json", "-")
        assert code == 2 and out == ""
        assert f"invalid field '{field}': must be a finite number" in err
    for argv in (
        ("invariants", "--gallery", "example-pm-c", "--c", "1e200"),
        ("check", "--gallery", "example-products", "--c1", "1e200", "--c2", "1"),
        ("frame", "--gallery", "example-pm-c", "--c", "1e-200"),
        ("gallery", "--name", "example-pm-c", "--c", "1e-200"),
    ):
        code, out, err = run(capsys, *argv, "--json", "-")
        assert code == 2 and out == "" and "lies outside [1e-140, 1e+140]" in err
    doc = tmp_path / "tiny.json"
    doc.write_text('{"kind": "surface_product", "c1": 1e-150, "c2": -1e-150}')
    code, _, err = run(capsys, "check", "--input", str(doc))
    assert code == 2 and str(doc) in err and "lies outside" in err


def test_a_tolerance_past_its_bound_is_a_usage_error(capsys):
    # --tol 0.5 once passed example-products (2, 1), which has no ST frame,
    # as weakly Einstein: every subcommand that takes --tol refuses a value
    # past its bound, and answers at the bound
    tensor = ("--gallery", "example-products", "--c1", "2", "--c2", "1")
    commands = [c for c, (_, _, flags) in _SUBCOMMANDS.items() if "tol" in flags]
    assert commands == ["identity", "check", "fuzz"]
    for command in commands:
        argv = (command, *(("--count", "2") if command == "fuzz" else tensor))
        code, out, err = run(capsys, *argv, "--tol", "0.5", "--json", "-")
        assert (code, out) == (2, "")
        assert err == "error: invalid field 'tol': must be at most 0.001\n"
        code, out, err = run(capsys, *argv, "--tol", "0.001", "--json", "-")
        assert (code, err) == (1 if command == "check" else 0, "")


def test_a_near_split_spectrum_gets_its_frame(capsys, tmp_path):
    # a' = (0.5, 0.3 + 1e-7, 0.3), eps = (1, -1, -1), b = 0, rotated: its
    # Ricci eigenvalues (0.1, -0.5 + 1e-7, -0.5 - 1e-7, -1.1) are apart, while
    # the default threshold reads the middle pair as equal (pattern II), and
    # that reading's frame misses the penalty tolerance
    R = sf.rotate(st_construction((0.5, 0.3 + 1e-7, 0.3), (1, -1, -1), (0.0, 0.0, 0.0)),
                  sf.random_frame(np.random.default_rng(0)))
    assert sf.ricci_spectrum(R).pattern.tag == "II"
    rows = [[*(i + 1 for i in idx), float(R.comp[idx])] for idx in np.ndindex(R.comp.shape)]
    path = write_doc(tmp_path, "near-split.json", {"kind": "raw_curvature", "components": rows})
    code, rep, _ = run_json(capsys, "frame", "--input", path)
    assert code == 0
    assert rep["pattern"] == "V" and rep["construction_path"] == "direct-eigenbasis"
    assert rep["sign_cases"] == ["vii"]
    code, rep, _ = run_json(capsys, "invariants", "--input", path)
    assert code == 0 and rep["sign_cases"] == ["vii"]


def test_overflowing_structure_constants_are_one_usage_error(capsys, tmp_path):
    doc = write_doc(tmp_path, "huge.json", {
        "kind": "lie_group", "c": [[1, 2, 2, 1e200], [1, 3, 3, -1e200]],
    })
    for argv, size in (
        (("identity", "--gallery", "example4", "--a", "1", "--b", "1e300"), "1.000e+300"),
        (("check", "--input", doc), "1.000e+200"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"structure constants too large: max |c_ijk| = {size}" in err


def test_underflowing_structure_constants_are_one_usage_error(capsys, tmp_path):
    # below max |c_ijk| ~ 1.5e-154 every product in the curvature underflows
    # to 0, and example4 at a = 1e-200 was answered as the flat tensor
    doc = write_doc(tmp_path, "tiny.json", {
        "kind": "lie_group", "c": [[1, 2, 2, 1e-200], [1, 3, 3, -1e-200]],
    })
    for argv in (
        ("check", "--gallery", "example4", "--a", "1e-200"),
        ("gallery", "--name", "example4", "--a=1e-200"),
        ("check", "--input", doc),
        ("frame", "--input", doc),
        ("invariants", "--input", doc),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            code, out, err = run(capsys, *argv, "--json", "-")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "structure constants too small: max |c_ijk| = 1.000e-200 is below 1e-150" in err


def test_consecutive_calls_share_no_state(capsys):
    code, rep, _ = run_json(
        capsys, "invariants", "--gallery", "example6", "--m", "2", "--volume", "5",
    )
    assert code == 0
    assert rep["input"] == {"kind": "gallery", "name": "example6", "m": 2.0}
    assert rep["volume"] == 5.0
    # the next call reads the entry's own volume, 16 pi^2 (m - 1), not 5
    code, rep, _ = run_json(capsys, "invariants", "--gallery", "example6", "--m", "2")
    assert code == 0 and rep["volume"] == pytest.approx(16 * math.pi ** 2)
    code, rep, _ = run_json(capsys, "invariants", "--gallery", "example4")
    assert code == 0
    assert rep["input"] == {"kind": "gallery", "name": "example4"}
    assert not {"volume", "chi", "p1", "C"} & set(rep)
    code, rep, _ = run_json(
        capsys, "check", "--gallery", "example-products", "--c1", "1", "--c2", "2"
    )
    assert code == 1
    assert rep["command"] == "check"
    assert rep["input"] == {"kind": "gallery", "name": "example-products", "c1": 1.0, "c2": 2.0}


def test_one_rotation_per_answer(capsys, monkeypatch, pattern_ii_tensor):
    # the tensor is rotated into its frame once; the penalty, the sign cases
    # and the ST vectors are all read from that one array
    import stframe.tensor

    Q = sf.random_frame(np.random.default_rng(3))
    pattern_v = sf.rotate(st_construction((0.4, 0.7, 1.0), (1, -1, -1), (0.3, -0.8, 0.5)), Q)
    calls = []
    original = stframe.tensor.rotate

    def counting(*args):
        calls.append(args)
        return original(*args)

    # every binding of rotate inside the package
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stframe" and getattr(module, "rotate", None) is original:
            monkeypatch.setattr(module, "rotate", counting)
    for R, path in ((pattern_v, "direct-eigenbasis"), (pattern_ii_tensor, "closed-form")):
        calls.clear()
        assert sf.find_st_basis(R).construction_path == path
        assert len(calls) == 1
    calls.clear()
    code, rep, _ = run_json(capsys, "invariants", "--gallery", "example6", "--m", "2")
    assert code == 0 and rep["chi"] == pytest.approx(-4.0, abs=1e-9)
    assert len(calls) == 1
    calls.clear()
    code, rep, _ = run_json(capsys, "gallery", "--name", "example6", "--m", "2")
    assert code == 0 and rep["runs"][0]["mismatches"] == []
    assert len(calls) == 1


def test_json_report_written_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["identity", "--gallery", "example-pm-c", "--c", "1", "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["command"] == "identity"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["check", "--gallery", "example4"], 0),
        (["check", "--gallery", "example-s2-1"], 1),
        (["frame", "--gallery", "example4", "--a", "1", "--b", "0.5"], 0),
        (["frame", "--gallery", "example-s2-1"], 1),
        (["invariants", "--gallery", "example6", "--m", "2"], 0),
        (["invariants", "--gallery", "example-s2-1"], 1),
    ],
)
def test_json_file_holds_the_text_printed_after_the_human_lines(capsys, tmp_path, argv, code):
    path = tmp_path / "report.json"
    assert main(argv + ["--json", str(path)]) == code
    human = capsys.readouterr().out
    assert main(argv + ["--json", "-"]) == code
    assert capsys.readouterr().out == human + path.read_text(encoding="utf-8")


def test_machine_reports_are_byte_identical(capsys, tmp_path):
    commands = [
        ["frame", "--gallery", "example4", "--a", "1", "--b", "0.5"],
        ["invariants", "--gallery", "example6", "--m", "2"],
        ["fuzz", "--count", "10", "--seed", "5"],
        ["gallery", "--name", "example-pm-c", "--c", "3"],
    ]
    for argv in commands:
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(argv + ["--json", str(p1)])
        main(argv + ["--json", str(p2)])
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()


def test_machine_reports_are_typed_strict_json(capsys, tmp_path):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    commands = [
        ["identity", "--gallery", "example-s2-1"],
        ["check", "--gallery", "example-products", "--c1", "1", "--c2", "2"],
        ["frame", "--gallery", "example4", "--a", "1", "--b", "0.5"],
        ["invariants", "--gallery", "example6", "--m", "2"],
        ["fuzz", "--count", "20", "--seed", "9"],
        ["gallery", "--all"],
    ]
    path = tmp_path / "report.json"
    for argv in commands:
        main(argv + ["--json", str(path)])
        json.loads(path.read_text(), parse_constant=reject)
    capsys.readouterr()
    # the frame's exact 0.0 and 1.0 entries come back as the same floats
    code, rep, _ = run_json(capsys, "frame", "--gallery", "example4", "--a", "1", "--b", "0.5")
    assert code == 0
    st = sf.find_st_basis(sf.gallery("example4", a=1.0, b=0.5)[0])
    for key, values in (
        ("st_frame", st.frame.matrix.ravel().tolist()),
        ("eigenvalues", st.eigen.eigenvalues.tolist()),
    ):
        assert all(type(x) is float for x in rep[key])
        assert rep[key] == values


#: JSON-like trees: str keys; str (non-ASCII and control characters
#: included), bool, None, int (huge ones too), float and np.float64 values;
#: lists, tuples and dicts, empty ones included
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e300])
_JSON_LEAVES = (
    st.text()
    | st.booleans()
    | st.none()
    | st.integers()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | _FINITE
    | _FINITE.map(np.float64)
    | st.lists(_FINITE)
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_JSON_TREES)
def test_render_json_writes_what_json_dumps_writes(tree):
    assert render_json(tree) == json.dumps(tree, indent=2, allow_nan=False)


def test_render_json_leaves_other_keys_to_json_dumps():
    obj = {1: 2, None: [], 0.5: {}, False: "x", "k": {7: [1.0, 2.0]}}
    assert render_json(obj) == json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.int64(1), object()]
)
def test_render_json_raises_what_json_dumps_raises(bad):
    for obj in (bad, [bad], [0.5, bad], ["a", bad], {"k": bad}, {"k": [1.0, 2.0, bad]}):
        with pytest.raises((ValueError, TypeError)) as expected:
            json.dumps(obj, indent=2, allow_nan=False)
        assert type(expected.value) is (ValueError if isinstance(bad, float) else TypeError)
        with pytest.raises(type(expected.value)) as raised:
            render_json(obj)
        assert str(raised.value) == str(expected.value)


# --- every document ends in an exit code of the contract ----------------------

#: documents nested past the parser's recursion limit
DEEP_DOCUMENTS = {"arrays": "[" * 5000, "objects": '{"a": ' * 3000}


@pytest.mark.parametrize("shape", DEEP_DOCUMENTS)
@pytest.mark.parametrize("command", TENSOR_COMMANDS)
def test_deeply_nested_document_exits_two(capsys, tmp_path, command, shape):
    doc = tmp_path / "deep.json"
    doc.write_text(DEEP_DOCUMENTS[shape])
    code, out, err = run(capsys, command, "--input", str(doc), "--json", "-")
    assert code == 2 and out == ""
    assert err == "error: parse error at 0: document nests too deeply\n"


#: hostile values for a document field: numbers at the edges of the float
#: range and beyond it, values that are no number, rows and names
_SCALARS = st.sampled_from(
    [0, 1, -1, 2, 0.5, 5e-324, 1e150, 1.7e308, -1.7e308, 10 ** 400, True, False, "1", None, []]
)
_ROWS = st.lists(
    st.lists(st.integers(1, 4), min_size=3, max_size=4).flatmap(
        lambda indices: _SCALARS.map(lambda value: [*indices, value])
    )
    | st.lists(st.integers(-1, 5) | _SCALARS, max_size=6),
    max_size=6,
)
_NAMES = st.sampled_from(
    [*sf.GALLERY_NAMES, "no-such-entry", "lie_group", "surface_product", "raw_curvature"]
)
#: one valid document of each kind, which the property edits
_VALID_DOCUMENTS = [
    {"kind": "lie_group",
     "c": [[1, 2, 2, 1], [1, 3, 3, -1], [1, 3, 4, -0.5], [1, 4, 3, 0.5], [1, 4, 4, -1]]},
    {"kind": "surface_product", "c1": 1, "c2": -1},
    {"kind": "space_form_product", "c": 1},
    {"kind": "constant_curvature", "c": -1, "volume": 2},
    {"kind": "raw_curvature", "components": [[1, 2, 1, 2, -1.0], [3, 4, 3, 4, 2.0]],
     "symmetry_closure": True},
    {"kind": "gallery", "name": "example6", "m": 3},
]
_FIELDS = sorted(
    {key for doc in _VALID_DOCUMENTS for key in doc} | {*stframe.cli.GALLERY_PARAMS, "unread"}
)
_EDITED_DOCUMENTS = st.builds(
    lambda doc, removed, edits: {k: v for k, v in {**doc, **edits}.items() if k not in removed},
    st.sampled_from(_VALID_DOCUMENTS),
    st.sets(st.sampled_from(_FIELDS), max_size=1),
    st.dictionaries(st.sampled_from(_FIELDS), _SCALARS | _ROWS | _NAMES | _JSON_TREES,
                    max_size=2),
)
_NESTED_DOCUMENTS = st.builds(
    operator.mul, st.sampled_from(["[", '{"a": ', '{"kind": "gallery", "name": [']),
    st.sampled_from([1, 100, 2000, 5000]),
)
_DOCUMENTS = st.one_of(
    _EDITED_DOCUMENTS.map(json.dumps), _JSON_TREES.map(json.dumps), _NESTED_DOCUMENTS
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(TENSOR_COMMANDS), text=_DOCUMENTS)
def test_every_document_ends_in_an_exit_code_of_the_contract(capsys, tmp_path, command, text):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    code, out, err = run(capsys, command, "--input", str(doc), "--json", "-")
    assert code in (0, 1, 2, 3)
    if code >= 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
    if code == 2:
        assert out == ""
