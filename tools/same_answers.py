"""Compare the CLI answers of two stframe checkouts byte for byte.

    python3 tools/same_answers.py OLD_CHECKOUT NEW_CHECKOUT

Loads ``src/stframe`` of each checkout under its own module name and runs,
in-process, ``invariants --json -`` and ``frame --json -`` on the 28 `report`
inputs of seeds 1-20 (documents built from NEW_CHECKOUT's
``benchmarks/inputs.py``), ``gallery --all --json -`` and the commands of
acceptance criterion 12.  Stdout, stderr and the exit code must agree.
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
FIXED = [
    ["gallery", "--all", "--json", "-"],
    ["identity", "--gallery", "example-s2-1", "--json", "-"],
    ["check", "--gallery", "example-products", "--c1", "1", "--c2", "2", "--json", "-"],
    ["frame", "--gallery", "example4", "--a", "1", "--b", "0.5", "--seed", "3", "--json", "-"],
    ["invariants", "--gallery", "example6", "--m", "2", "--seed", "1", "--json", "-"],
    ["fuzz", "--count", "20", "--seed", "9", "--json", "-"],
    ["gallery", "--all", "--seed", "4", "--json", "-"],
]


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def argvs(checkout: Path, workdir: Path):
    """Every command line to compare; the report documents go into workdir."""
    sys.path.insert(0, str(checkout / "benchmarks"))
    import inputs

    yield from FIXED
    for seed in SEEDS:
        for n, (case, source) in enumerate(inputs.report_cases(seed)):
            if source is None:
                rows = [[*(i + 1 for i in idx), float(case.comp[idx])]
                        for idx in np.ndindex(case.comp.shape) if case.comp[idx] != 0.0]
                path = workdir / f"seed{seed}-doc{n:02d}.json"
                path.write_text(json.dumps({"kind": "raw_curvature", "components": rows}))
                source = ["--input", str(path)]
            for command in ("invariants", "frame"):
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
        for command in argvs(new, Path(workdir)):
            first, second = (answer(cli, command) for cli in clis)
            total += 1
            if first != second:
                differ += 1
                print("differs:", " ".join(command))
    print(f"{differ} of {total} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
