"""Compare the CLI answers of two stframe checkouts byte for byte.

    python3 tools/same_answers.py OLD_CHECKOUT NEW_CHECKOUT

Loads ``src/stframe`` of each checkout under its own module name and runs,
in-process:

- ``invariants``, ``frame``, ``check`` and ``identity`` with ``--json -`` on
  the 28 `report` inputs of seeds 1-20;
- ``frame`` and ``invariants`` with ``--json -`` on 4 rotated weakly
  Einstein documents of each Ricci pattern I, III and IV per seed 1-20, which
  the `report` inputs (patterns II and V and axis-aligned gallery entries)
  lack: they take the closed form's zero-cluster pairing and its pattern-IV
  branch;
- ``check``, ``identity``, ``frame`` and ``invariants`` with ``--json -`` on
  the 200 `screen` inputs of seeds 1-3, which add tensors that are not weakly
  Einstein (the exit-1 reports of ``frame`` and ``invariants``),
  forbidden-pattern space-form products and the tiny-scale slice, and on one
  document per seed scaled below the supported range (exit code 2);
- ``check``, ``identity``, ``frame`` and ``invariants`` with ``--json -`` on
  a fixed document of each kind: Lie groups (one failing the Jacobi
  identity), surface and space-form products (one missing its field),
  constant curvature, raw components closed under the symmetries, gallery
  entries with parameters and a volume, an unknown kind and a document
  nested past the parser's recursion limit;
- ``check``, ``identity``, ``frame`` and ``invariants`` with ``--json -`` on
  a tensor whose third plane pair misses an ST frame's by 1e-6, and on an
  exact ST tensor plus 1.2e-8 times ``random_curvature(0)``: each passes
  the weakly Einstein verdict, and ``frame`` and ``invariants`` refuse it
  with exit code 3 (these outputs move once such an input is answered);
- ``check``, ``frame`` and ``invariants`` with ``--json -`` on a tensor
  whose Ricci eigenvalues lie within 1% of its scale, and on one two of
  whose Ricci eigenvalues lie 2e-7 apart, which the default ``tol_mult``
  reads as one (pattern II): on the latter the frame of the pattern the
  threshold reads misses the penalty tolerance, and the frame search goes
  on to the reading whose frame passes;
- ``check`` and ``invariants`` on a gallery entry with no ``--json`` and
  with ``--json PATH``, whose written bytes are compared too, and
  ``gallery --list`` with and without ``--json -``;
- the refusals of bad settings (exit code 2): ``fuzz --count 0``, ``fuzz
  --seed -1``, ``--tol 0`` and ``--tol nan``, ``--input`` together with
  ``--gallery``, a gallery parameter with ``--input``, and an input file
  that does not exist;
- ``gallery --all --json -`` and the commands of acceptance criterion 12;
- ``check``, ``identity`` and ``fuzz`` with ``--tol 0.5``, past the CLI's
  tolerance bound, ``frame`` and ``invariants`` with ``--tol``, and
  ``check``, ``frame`` and ``invariants`` with ``--tol-mult``, which they
  do not take;
- ``gallery --name ... --json -`` on the points ``--all`` lacks: zero and
  Einstein tensors, forbidden pattern 4 and parameters an entry refuses
  (exit code 2);
- the command lines argparse answers itself: no arguments, ``--version``,
  ``-h``, an unknown subcommand, each subcommand's ``-h``, an unknown flag, a
  bad float and a flag with its value missing.

Input documents are built from NEW_CHECKOUT's ``benchmarks/inputs.py``.
Stdout, stderr, the exit code (or the ``SystemExit`` code, or the type of
an exception that escapes ``cli.main``) and the bytes a ``--json PATH``
writes must agree.
Prints how many outputs differ; exits 1 if any do.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = range(1, 21)
SCREEN_SEEDS = range(1, 4)
#: the patterns the `report` inputs lack, and how many rotated weakly
#: Einstein documents of each a seed draws (from default_rng([seed, 4]))
ROTATED_PATTERNS = ("I", "III", "IV")
ROTATED_PER_PATTERN = 4
#: scales a document below the CLI's supported range, so that the usage
#: error (exit code 2) and its message are compared too
OUT_OF_RANGE = 1e-150
#: gallery points that ``gallery --all`` lacks, as NAME and its parameter flags
GALLERY_POINTS = [
    ["example-products", "--c1=1", "--c2=-1"],
    ["example-products", "--c1=2", "--c2=1"],
    ["example-products", "--c1=0", "--c2=0"],
    ["example-spaceform", "--c=-1"],
    ["example-spaceform", "--c=0"],
    ["example-pm-c", "--c=0"],
    ["example-pm-c", "--c=-2"],
    ["example4", "--a=-1", "--b=3"],
    ["example4", "--a=0"],
    ["example6", "--m=5"],
    ["example6", "--m=2.5"],
    ["example-s2-1"],
]
#: a tensor with no ST frame, which a --tol of 0.5 passed as weakly Einstein
VACUOUS = ["--gallery", "example-products", "--c1", "2", "--c2", "1"]
#: the gallery entry the report writers and the tolerance refusals run on
EXAMPLE4 = ["--gallery", "example4", "--a", "1", "--b", "0.5"]
#: (a', eps, b) of a weakly Einstein tensor whose Ricci eigenvalues lie
#: within 1% of its scale, and the seed of its rotation
MERGED_SPECTRUM = ((0.002, 0.6, -0.9), (-1, 1, 1), (0.3, -0.3, 0.0))
MERGED_SEED = 2
#: (a', eps, b) of a weakly Einstein tensor whose Ricci eigenvalues
#: (0.1, -0.5 + 1e-7, -0.5 - 1e-7, -1.1) the default tol_mult reads as
#: pattern II, whose frame it does not have; rotated by seed 0
NEAR_SPLIT = ((0.5, 0.3 + 1e-7, 0.3), (1, -1, -1), (0.0, 0.0, 0.0))
#: (a', eps, b) of an exact ST tensor, and the size of the random_curvature(0)
#: added to it: the sum passes the weakly Einstein verdict (relative residual
#: 9.15e-10), and the frame search refuses it (best penalty 1.438e-16)
NEAR_VERDICT = ((1.0, 0.6, -0.3), (1, 1, 1), (0.3, -0.5, 0.2))
NEAR_VERDICT_NOISE = 1.2e-8
FIXED = [
    ["gallery", "--all", "--json", "-"],
    *(["gallery", "--name", *point, "--json", "-"] for point in GALLERY_POINTS),
    ["identity", "--gallery", "example-s2-1", "--json", "-"],
    ["check", "--gallery", "example-products", "--c1", "1", "--c2", "2", "--json", "-"],
    ["frame", "--gallery", "example4", "--a", "1", "--b", "0.5", "--json", "-"],
    ["invariants", "--gallery", "example6", "--m", "2", "--json", "-"],
    ["fuzz", "--count", "20", "--seed", "9", "--json", "-"],
    [],
    ["--version"],
    ["-h"],
    ["no-such-command"],
    ["identity", "-h"], ["check", "-h"], ["frame", "-h"],
    ["invariants", "-h"], ["fuzz", "-h"], ["gallery", "-h"],
    ["check", "--gallery", "example4", "--no-such-flag"],
    ["check", "--gallery", "example4", "--tol", "x"],
    ["frame", "--gallery"],
    *([command, *VACUOUS, "--tol", "0.5", "--json", "-"]
      for command in ("check", "identity", "frame", "invariants")),
    ["fuzz", "--count", "20", "--seed", "9", "--tol", "0.5", "--json", "-"],
    *([command, *VACUOUS, "--tol-mult", "0.5", "--json", "-"]
      for command in ("check", "frame", "invariants")),
    ["check", *EXAMPLE4],
    ["invariants", *EXAMPLE4],
    ["gallery", "--list"],
    ["gallery", "--list", "--json", "-"],
    ["fuzz", "--count", "0"],
    ["fuzz", "--seed", "-1"],
    ["check", *EXAMPLE4, "--tol", "0"],
    ["check", *EXAMPLE4, "--tol", "nan"],
]

TENSOR_COMMANDS = ("check", "identity", "frame", "invariants")
#: each fixed document by file name, as the text written there
DOCUMENTS = {
    name: json.dumps(doc) for name, doc in {
        "example4.json": {"kind": "lie_group", "c": [
            [1, 2, 2, 1.0], [1, 3, 3, -1.0], [1, 3, 4, -0.5], [1, 4, 3, 0.5], [1, 4, 4, -1.0],
        ]},
        "example-s2-1.json": {"kind": "lie_group", "c": [
            [1, 2, 2, 2.0], [1, 3, 3, -1.0], [1, 4, 3, 2.0], [1, 4, 4, -1.0],
        ]},
        "not-jacobi.json": {"kind": "lie_group", "c": [[1, 2, 3, 1.0], [3, 4, 1, 1.0]]},
        "surfaces.json": {"kind": "surface_product", "c1": 1.0, "c2": -1.0},
        "surfaces-no-c2.json": {"kind": "surface_product", "c1": 1.0},
        "space-form.json": {"kind": "space_form_product", "c": -2.0},
        "sphere.json": {"kind": "constant_curvature", "c": 1.0, "volume": 8.0},
        "closure.json": {"kind": "raw_curvature", "symmetry_closure": True, "components": [
            [1, 2, 1, 2, -1.0], [3, 4, 3, 4, 1.0], [1, 3, 1, 3, 0.5],
        ]},
        "gallery-example4.json": {"kind": "gallery", "name": "example4", "a": 2, "b": 0.5,
                                  "volume": 3.0},
        "gallery-pm-c.json": {"kind": "gallery", "name": "example-pm-c", "c": 2,
                              "volume": 10.0},
        "gallery-example6.json": {"kind": "gallery", "name": "example6", "m": 3},
        "unknown-kind.json": {"kind": "hyperbolic"},
    }.items()
}
DOCUMENTS["deep.json"] = "[" * 5000


def load_cli(checkout: Path, name: str):
    """stframe.cli of a checkout, imported as the package ``name``."""
    src = checkout / "src" / "stframe"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def answer(cli, argv: list) -> tuple:
    """Stdout, stderr, the exit code and, for ``--json PATH``, the bytes
    written to PATH (None when it wrote none), which is then removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse's help, version and usage errors
            code = ("SystemExit", e.code)
        except Exception as e:  # an exception that escapes is an answer too
            code = ("raised", type(e).__name__)
    written = None
    target = argv[argv.index("--json") + 1] if "--json" in argv[:-1] else "-"
    if target != "-" and Path(target).exists():
        written = Path(target).read_bytes()
        Path(target).unlink()
    return out.getvalue(), err.getvalue(), code, written


def document(comp: np.ndarray, path: Path) -> list:
    """Write comp to path as a raw_curvature document; the argv that reads it."""
    rows = [[*(i + 1 for i in idx), float(comp[idx])]
            for idx in np.ndindex(comp.shape) if comp[idx] != 0.0]
    path.write_text(json.dumps({"kind": "raw_curvature", "components": rows}))
    return ["--input", str(path)]


def argvs(checkout: Path, workdir: Path, sf):
    """Every command line to compare, with sf NEW_CHECKOUT's stframe
    package; the input documents go into workdir."""
    sys.path.insert(0, str(checkout / "benchmarks"))
    import inputs

    yield from FIXED
    for name, text in DOCUMENTS.items():
        (workdir / name).write_text(text)
        for command in TENSOR_COMMANDS:
            yield [command, "--input", str(workdir / name), "--json", "-"]
    # the tensor tests/test_frames.py's unmatched_plane_pair_tensor(1e-6)
    # builds: a' = (1, 0.6, 1e-6), a'' = (1, 0.6, 0), b = (0.3, -0.5, 0.2)
    comp = np.zeros((4,) * 4)
    for idx, v in zip(inputs.B_INDICES, (0.3, -0.5, 0.2)):
        inputs.set_orbit(comp, idx, v)
    for (i, j), (k, l), a1, a2 in zip(inputs.A1_PLANES, inputs.A2_PLANES,
                                      (1.0, 0.6, 1e-6), (1.0, 0.6, 0.0)):
        inputs.set_orbit(comp, (i, j, i, j), a1)
        inputs.set_orbit(comp, (k, l, k, l), a2)
    frame = sf.random_frame(np.random.default_rng(0))
    unmatched = document(sf.rotate(sf.make_curvature(comp), frame).comp,
                         workdir / "unmatched.json")
    near_verdict = document(inputs.st_components(*NEAR_VERDICT)
                            + NEAR_VERDICT_NOISE * sf.random_curvature(0).comp,
                            workdir / "near-verdict.json")
    for source in (unmatched, near_verdict):
        for command in TENSOR_COMMANDS:
            yield [command, *source, "--json", "-"]
    q = inputs.random_rotation(np.random.default_rng(MERGED_SEED))
    merged = document(inputs.rotate(inputs.st_components(*MERGED_SPECTRUM), q),
                      workdir / "merged-spectrum.json")
    q = inputs.random_rotation(np.random.default_rng(0))
    near_split = document(inputs.rotate(inputs.st_components(*NEAR_SPLIT), q),
                          workdir / "near-split.json")
    for source in (merged, near_split):
        for command in ("check", "frame", "invariants"):
            yield [command, *source, "--json", "-"]
    for command in ("check", "invariants"):
        yield [command, *EXAMPLE4, "--json", str(workdir / f"{command}-report.json")]
    yield ["check", *unmatched, "--gallery", "example4"]
    yield ["check", *unmatched, "--c", "1"]
    yield ["check", "--input", str(workdir / "no-such-file.json")]
    for seed in SEEDS:
        for n, (case, source) in enumerate(inputs.report_cases(seed)):
            if source is None:
                source = document(case.comp, workdir / f"seed{seed}-doc{n:02d}.json")
            for command in ("invariants", "frame", "check", "identity"):
                yield [command, *source, "--json", "-"]
        rng = np.random.default_rng([seed, 4])
        for pattern in ROTATED_PATTERNS:
            for n in range(ROTATED_PER_PATTERN):
                case = inputs.weakly_einstein_case(rng, pattern)
                source = document(case.comp, workdir / f"seed{seed}-{pattern}{n}.json")
                for command in ("frame", "invariants"):
                    yield [command, *source, "--json", "-"]
    for seed in SCREEN_SEEDS:
        cases = inputs.screen_cases(seed)
        sources = [document(case.comp, workdir / f"screen{seed}-{n:03d}.json")
                   for n, case in enumerate(cases)]
        sources.append(document(OUT_OF_RANGE * cases[0].comp, workdir / f"screen{seed}-out.json"))
        for source in sources:
            for command in TENSOR_COMMANDS:
                yield [command, *source, "--json", "-"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, metavar="OLD_CHECKOUT")
    parser.add_argument("new", type=Path, metavar="NEW_CHECKOUT")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    clis = load_cli(old, "stframe_old"), load_cli(new, "stframe_new")
    total = differ = 0
    with tempfile.TemporaryDirectory() as workdir:
        for command in argvs(new, Path(workdir), sys.modules["stframe_new"]):
            first, second = (answer(cli, command) for cli in clis)
            total += 1
            if first != second:
                differ += 1
                print("differs:", " ".join(command))
    print(f"{differ} of {total} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
