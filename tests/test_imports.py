"""Set-up cost: an answer loads no module beyond stframe, the standard library
and what a bare `import numpy` loads.  Each check runs in a fresh interpreter,
since this test session has long since loaded numpy.random, hypothesis and
the rest."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the five verdict calls of a `screen` answer
SCREEN_ANSWER = """
import stframe as sf
R = sf.gallery("example4")[0]
sf.identity_residual(R, 1e-9).passes
sf.einstein_residual(R, 1e-9).passes
sf.weakly_einstein_residual(R, 1e-9).passes
spec = sf.ricci_spectrum(R, 1e-6)
spec.pattern.tag
sf.forbidden_pattern(spec.eigenvalues, 1e-6)
"""

#: one `report` answer through the CLI
REPORT_ANSWER = """
import contextlib, io
import stframe.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert stframe.cli.main(["invariants", "--gallery", "example4", "--json", "-"]) == 0
"""


def loaded_modules(code: str) -> set:
    """The names in sys.modules after code runs in a fresh interpreter."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("code", [SCREEN_ANSWER, REPORT_ANSWER], ids=["screen", "report"])
def test_an_answer_loads_nothing_beyond_numpy_and_the_standard_library(code):
    allowed = loaded_modules("import numpy")
    extra = {
        name for name in loaded_modules(code) - allowed
        if name.split(".")[0] not in sys.stdlib_module_names | {"stframe"}
    }
    assert not extra, f"loaded beyond stframe, numpy and the standard library: {sorted(extra)}"
