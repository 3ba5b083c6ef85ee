"""The three workloads: what one operation sends to stframe, and how its
answer is checked against the truth of the input's construction.

Every call into stframe goes through a module attribute (``frames.find_st_basis``,
``cli.main``, ...), so that the traced run sees it when it wraps those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from stframe import analysis, cli, frames, tensor, topology

import inputs

#: the defaults of `stframe check`
TOL = 1e-9
TOL_MULT = 1e-6

#: check tolerances, relative to the construction's size m = max |R_ijkl|:
#: eigenvalues and f, chi, p1 against m and m^2; a frame's mixed components
#: and plane-pair differences against m and m^2
VALUE_REL = 1e-8
FRAME_REL = 1e-6


@dataclass
class Op:
    """One operation of a workload: ``run`` is timed, ``check`` is not."""

    kind: str
    known_fault: bool
    run: Callable[[], Any]
    check: Callable[[Any], list]


# --- shared checks -----------------------------------------------------------

def _off(name: str, got, want, tol: float) -> list:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
        return [f"{name} {np.round(got, 12).tolist()} != {np.round(want, 12).tolist()}"]
    return []


def _frame_problems(matrix, case: inputs.Case) -> list:
    """det +1, and an independent rotation of the input into the frame leaves
    the mixed components and the plane-pair differences within tolerance."""
    F = np.asarray(matrix, dtype=float).reshape(4, 4)
    m = case.truth.size
    out = []
    if np.abs(F @ F.T - np.eye(4)).max() > 1e-9:
        out.append("frame is not orthonormal")
    elif np.linalg.det(F) <= 0:
        out.append("frame has det -1")
    c = inputs.rotate(case.comp, F)
    mixed = max(abs(c[i, j, j, k]) for i, j, k in inputs.MIXED_TRIPLES)
    if mixed > FRAME_REL * m:
        out.append(f"mixed component {mixed:.3e} in the returned frame")
    pairs = max(abs(c[i, j, i, j] ** 2 - c[k, l, k, l] ** 2) for (i, j), (k, l) in inputs.PLANE_PAIRS)
    if pairs > FRAME_REL * m * m:
        out.append(f"plane-pair difference {pairs:.3e} in the returned frame")
    return out


def _invariant_problems(case: inputs.Case, f, f_cases: dict, chi, p1) -> list:
    t, m2 = case.truth, case.truth.size ** 2
    out = []
    if f > VALUE_REL * m2:
        out.append(f"f = {f!r} > 0")
    out += _off("f", f, t.f, VALUE_REL * m2)
    if not f_cases:
        out.append("no sign case reported")
    for name, fc in f_cases.items():
        out += _off(f"f_by_case[{name}]", fc, f, VALUE_REL * m2)
    out += _off("chi density", chi, t.chi_density, VALUE_REL * m2)
    out += _off("p1 density", p1, t.p1_density, VALUE_REL * m2)
    return out


def _identity_problems(R) -> list:
    return [] if analysis.identity_residual(R, TOL).passes else ["identity residual fails"]


def _guarded(check: Callable[[Any], list]) -> Callable[[Any], list]:
    def run(answer):
        try:
            return check(answer)
        except Exception as e:  # a malformed answer is a wrong answer
            return [f"unreadable answer: {e!r}"]

    return run


# --- screen ------------------------------------------------------------------

def _screen_op(case: inputs.Case) -> Op:
    R = tensor.make_curvature(case.comp)
    t = case.truth

    def run():
        idr = analysis.identity_residual(R, TOL)
        er = analysis.einstein_residual(R, TOL)
        wr = analysis.weakly_einstein_residual(R, TOL)
        spec = frames.ricci_spectrum(R, TOL_MULT)
        forbidden = analysis.forbidden_pattern(spec.eigenvalues, TOL_MULT)
        return idr.passes, er.passes, wr.passes, spec.eigenvalues, spec.pattern.tag, forbidden

    def check(answer):
        identity_ok, einstein, weakly, eig, pattern, forbidden = answer
        out = [] if identity_ok else ["identity residual fails"]
        if weakly != t.weakly_einstein:
            out.append(f"weakly Einstein verdict {weakly}")
        if einstein != t.einstein:
            out.append(f"Einstein verdict {einstein}")
        out += _off("eigenvalues", eig, t.eigenvalues, VALUE_REL * t.size)
        if pattern != t.pattern:
            out.append(f"pattern {pattern} != {t.pattern}")
        if forbidden != t.forbidden:
            out.append(f"forbidden pattern {forbidden} != {t.forbidden}")
        return out

    return Op(case.kind, case.known_fault, run, _guarded(check))


# --- report ------------------------------------------------------------------

def _raw_curvature_doc(comp: np.ndarray) -> str:
    rows = [
        [i + 1, j + 1, k + 1, l + 1, float(comp[i, j, k, l])]
        for i, j, k, l in np.ndindex(comp.shape)
        if comp[i, j, k, l] != 0.0
    ]
    return json.dumps({"kind": "raw_curvature", "components": rows})


def _json_report(text: str) -> dict:
    """The --json - report printed after the human-readable lines."""
    return json.loads(text[text.index("\n{\n") + 1:])


def _report_op(case: inputs.Case, source_argv: list) -> Op:
    argv = ["invariants", *source_argv, "--json", "-"]
    R = tensor.make_curvature(case.comp)
    identity = _identity_problems(R)
    t = case.truth
    volume = None
    if case.kind == "example6":
        volume = 16 * math.pi ** 2 * (int(source_argv[-1]) - 1)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(answer):
        code, text = answer
        if code != 0:
            return identity + [f"exit code {code}"]
        rep = _json_report(text)
        out = list(identity)
        if rep["verdicts"]["weakly_einstein"] is not True:
            out.append("not judged weakly Einstein")
        F = np.asarray(rep["st_frame"], dtype=float).reshape(4, 4)
        out += _frame_problems(F, case)
        vec = rep["st_vectors"]
        a1, a2, b = (np.asarray(vec[k], dtype=float) for k in ("a_prime", "a_dprime", "b"))
        c = inputs.rotate(case.comp, F)
        tol = VALUE_REL * t.size
        out += _off("a'", a1, [c[i, j, i, j] for i, j in inputs.A1_PLANES], tol)
        out += _off("a''", a2, [c[i, j, i, j] for i, j in inputs.A2_PLANES], tol)
        out += _off("b", b, [c[idx] for idx in inputs.B_INDICES], tol)
        # in an ST frame the Ricci tensor is diagonal with these entries
        lam = -np.array(
            [a1.sum(), a1[0] + a2[1] + a2[2], a1[1] + a2[0] + a2[2], a1[2] + a2[0] + a2[1]]
        )
        out += _off("eigenvalues", np.sort(lam)[::-1], t.eigenvalues, tol)
        out += _invariant_problems(
            case, rep["f"], rep["f_by_case"], rep["chi_density"], rep["p1_density"]
        )
        if volume is not None:
            chi, p1 = t.chi_density * volume, t.p1_density * volume
            C = t.f * volume / (2 * math.pi ** 2)
            for key, want in (("chi", chi), ("p1", p1), ("C", C)):
                out += _off(key, rep[key], want, VALUE_REL * max(1.0, abs(want)))
            slack = VALUE_REL * abs(C)
            for key, want in (
                ("bound_plus_ok", 2 * chi + p1 >= C - slack),
                ("bound_minus_ok", 2 * chi - p1 >= C - slack),
                ("hitchin_ok", 2 * chi >= abs(p1) - slack),
            ):
                if rep[key] is not want:
                    out.append(f"{key} {rep[key]}")
        return out

    return Op(case.kind, case.known_fault, run, _guarded(check))


# --- st_iterative ------------------------------------------------------------

def _iterative_op(case: inputs.Case) -> Op:
    R = tensor.make_curvature(case.comp)
    identity = _identity_problems(R)
    t = case.truth

    def run():
        rep = frames.find_st_basis(R)
        v = topology.st_vectors(R, rep.frame)
        f = topology.f_value(v)
        f_cases = {c: topology.f_by_case(rep.sign_cases.eigenvalues, c) for c in rep.sign_cases.cases}
        chi, p1 = topology.densities(v)
        return rep, f, f_cases, chi, p1

    def check(answer):
        rep, f, f_cases, chi, p1 = answer
        out = list(identity)
        out += _frame_problems(rep.frame.matrix, case)
        out += _off("eigenvalues", rep.eigen.eigenvalues, t.eigenvalues, VALUE_REL * t.size)
        out += _invariant_problems(case, f, f_cases, chi, p1)
        return out

    return Op(case.kind, case.known_fault, run, _guarded(check))


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """One round of the workload's operations for this seed.  `report`
    writes its input documents into ``workdir``."""
    if workload == "screen":
        return [_screen_op(c) for c in inputs.screen_cases(seed)]
    if workload == "report":
        ops = []
        for n, (case, gallery_argv) in enumerate(inputs.report_cases(seed)):
            if gallery_argv is None:
                path = workdir / f"doc{n:02d}.json"
                path.write_text(_raw_curvature_doc(case.comp), encoding="utf-8")
                gallery_argv = ["--input", str(path)]
            ops.append(_report_op(case, gallery_argv))
        return ops
    if workload == "st_iterative":
        return [_iterative_op(c) for c in inputs.iterative_cases(seed)]
    raise ValueError(f"unknown workload {workload!r}")
