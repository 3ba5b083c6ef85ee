"""Command-line interface: subcommands, exit codes, JSON reports."""

import json

import pytest

from stframe.cli import main


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


def test_usage_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "identity")
    assert code == 2
    code, _, err = run(capsys, "identity", "--gallery", "no-such-entry")
    assert code == 2
    code, _, err = run(capsys, "identity", "--input", str(tmp_path / "missing.json"))
    assert code == 2
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
    code, _, err = run(capsys, "invariants", "--gallery", "example6", "--m", "2.5")
    assert code == 2 and "integer genus" in err
    for volume in ("-1", "0", "nan", "inf"):
        code, out, err = run(
            capsys, "invariants", "--gallery", "example6", "--m", "2", "--volume", volume,
            "--json", "-",
        )
        assert code == 2 and "volume" in err and out == ""
    doc = tmp_path / "genus.json"
    doc.write_text('{"kind": "gallery", "name": "example6", "m": 2.5}')
    code, _, err = run(capsys, "invariants", "--input", str(doc))
    assert code == 2 and "integer genus" in err
    # documents whose tensor fails a curvature identity are bad input too
    doc = tmp_path / "one-component.json"
    doc.write_text('{"kind": "raw_curvature", "components": [[1, 2, 1, 2, -1.0]]}')
    code, _, err = run(capsys, "check", "--input", str(doc))
    assert code == 2 and str(doc) in err and "antisymmetry" in err
    doc = tmp_path / "not-jacobi.json"
    doc.write_text('{"kind": "lie_group", "c": [[1, 2, 3, 1.0], [3, 4, 1, 1.0]]}')
    code, _, err = run(capsys, "check", "--input", str(doc))
    assert code == 2 and str(doc) in err and "Jacobi" in err


def test_consecutive_calls_share_no_state(capsys):
    code, rep, _ = run_json(
        capsys, "invariants", "--gallery", "example6", "--m", "2", "--volume", "5"
    )
    assert code == 0
    assert rep["input"] == {"kind": "gallery", "name": "example6", "m": 2.0}
    assert rep["volume"] == 5.0
    code, rep, _ = run_json(capsys, "invariants", "--gallery", "example4")
    assert code == 0
    assert rep["input"] == {"kind": "gallery", "name": "example4"}
    assert rep["seed"] == 0
    assert not {"volume", "chi", "p1", "C"} & set(rep)
    code, rep, _ = run_json(
        capsys, "check", "--gallery", "example-products", "--c1", "1", "--c2", "2"
    )
    assert code == 1
    assert rep["command"] == "check"
    assert rep["input"] == {"kind": "gallery", "name": "example-products", "c1": 1.0, "c2": 2.0}


def test_one_st_vectors_call_per_answer(capsys, monkeypatch):
    import stframe.cli
    import stframe.topology

    calls = []
    original = stframe.topology.st_vectors

    def counting(*args):
        calls.append(args)
        return original(*args)

    # both bindings: the CLI's own, and the one homogeneous_invariants reads
    monkeypatch.setattr(stframe.cli, "st_vectors", counting)
    monkeypatch.setattr(stframe.topology, "st_vectors", counting)
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


def test_machine_reports_are_byte_identical(capsys, tmp_path):
    commands = [
        ["frame", "--gallery", "example4", "--a", "1", "--b", "0.5", "--seed", "3"],
        ["invariants", "--gallery", "example6", "--m", "2", "--seed", "1"],
        ["fuzz", "--count", "10", "--seed", "5"],
        ["gallery", "--name", "example-pm-c", "--c", "3"],
    ]
    for argv in commands:
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(argv + ["--json", str(p1)])
        main(argv + ["--json", str(p2)])
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
