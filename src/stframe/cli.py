"""Command-line surface: ingest a geometry document, run analyses, and emit
human-readable text plus a deterministic machine-readable JSON report."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .analysis import (
    einstein_residual,
    forbidden_pattern,
    identity_residual,
    weakly_einstein_residual,
)
from .errors import (
    JacobiViolation,
    NotWeaklyEinstein,
    ParseError,
    SearchFailed,
    StframeError,
    SymmetryViolation,
    UnknownGalleryName,
    ValidationError,
)
from .frames import find_st_basis, ricci_spectrum
from .sources import GALLERY_NAMES, gallery, load_spec, random_curvature, realize
from .topology import f_by_case, f_value, invariants_from_vectors, st_vectors

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_SEARCH = 3

_GALLERY_PARAM_FLAGS = ("c1", "c2", "c", "a", "b", "m")

#: parameter grid used by `gallery --all`
GALLERY_SUITE = (
    ("example-s2-1", {}),
    ("example-products", {"c1": 1.0, "c2": 2.0}),
    ("example-spaceform", {"c": 1.0}),
    ("example-pm-c", {"c": 1.0}),
    ("example-pm-c", {"c": 3.0}),
    ("example4", {"a": 1.0, "b": 0.0}),
    ("example4", {"a": 1.0, "b": 0.5}),
    ("example4", {"a": 2.0, "b": 0.0}),
    ("example4", {"a": 2.0, "b": 0.5}),
    ("example6", {"m": 2}),
    ("example6", {"m": 3}),
)


# --- deterministic JSON rendering -------------------------------------------

def render_json(obj, indent: int = 0) -> str:
    """JSON with every float printed with 17 significant digits (lossless and
    byte-stable across runs)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(obj)


def _floats(a) -> list[float]:
    return [float(x) for x in np.asarray(a).reshape(-1)]


# --- report assembly ---------------------------------------------------------

def _input_echo(args) -> dict:
    if args.gallery is not None:
        echo = {"kind": "gallery", "name": args.gallery}
        echo.update(_gallery_params(args))
        return echo
    return {"kind": "file", "path": args.input}


def _gallery_params(args) -> dict:
    return {
        k: getattr(args, k)
        for k in _GALLERY_PARAM_FLAGS
        if getattr(args, k, None) is not None
    }


def _load_tensor(args):
    if args.gallery is not None:
        R, meta = gallery(args.gallery, **_gallery_params(args))
        if args.volume is not None:
            meta = dict(meta)
            meta["volume"] = args.volume
        return R, meta
    if args.input is None:
        raise ValidationError("input", "either --input FILE or --gallery NAME required")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError("input", f"cannot read {args.input}: {e}") from e
    try:
        R, meta = realize(load_spec(text))
    except (SymmetryViolation, JacobiViolation) as e:
        raise ValidationError("input", f"{args.input}: {e}") from e
    if args.volume is not None:
        meta = dict(meta)
        meta["volume"] = args.volume
    return R, meta


def _residual_dict(rep) -> dict:
    return {
        "max_abs": rep.max_abs,
        "relative": rep.relative,
        "passes": rep.passes,
        "matrix": _floats(rep.matrix),
    }


def _emit(report: dict, args) -> None:
    _print_human(report)
    if args.json is not None:
        text = render_json(report) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)


def _print_human(report: dict, prefix: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{prefix}{key}:")
            _print_human(value, prefix + "  ")
        elif isinstance(value, (list, tuple)) and len(value) > 8:
            print(f"{prefix}{key}: [{len(value)} values]")
        else:
            print(f"{prefix}{key}: {value}")


# --- subcommands -------------------------------------------------------------

def _cmd_identity(args) -> int:
    R, _ = _load_tensor(args)
    rep = identity_residual(R, args.tol)
    report = {
        "command": "identity",
        "input": _input_echo(args),
        "tol": args.tol,
        "identity_residual": _residual_dict(rep),
        "identity_ok": rep.passes,
    }
    _emit(report, args)
    return EXIT_OK if rep.passes else EXIT_VERDICT


def _cmd_check(args) -> int:
    R, _ = _load_tensor(args)
    idrep = identity_residual(R, args.tol)
    erep = einstein_residual(R, args.tol)
    wrep = weakly_einstein_residual(R, args.tol)
    spec = ricci_spectrum(R, args.tol_mult)
    pattern_id = forbidden_pattern(spec.eigenvalues, args.tol_mult)
    report = {
        "command": "check",
        "input": _input_echo(args),
        "tol": args.tol,
        "tol_mult": args.tol_mult,
        "verdicts": {
            "identity_ok": idrep.passes,
            "einstein": erep.passes,
            "weakly_einstein": wrep.passes,
        },
        "eigenvalues": _floats(spec.eigenvalues),
        "pattern": spec.pattern.tag,
        "forbidden_pattern": pattern_id,
        "einstein_residual": _residual_dict(erep),
        "weakly_einstein_residual": _residual_dict(wrep),
    }
    _emit(report, args)
    return EXIT_OK if wrep.passes else EXIT_VERDICT


def _cmd_frame(args) -> int:
    R, _ = _load_tensor(args)
    erep = einstein_residual(R, args.tol)
    try:
        st = find_st_basis(R, tol=args.tol, tol_mult=args.tol_mult, seed=args.seed)
    except NotWeaklyEinstein as e:
        report = {
            "command": "frame",
            "input": _input_echo(args),
            "verdicts": {"weakly_einstein": False, "einstein": erep.passes},
            "weakly_einstein_residual": _residual_dict(e.report),
        }
        _emit(report, args)
        return EXIT_VERDICT
    report = {
        "command": "frame",
        "input": _input_echo(args),
        "tol": args.tol,
        "tol_mult": args.tol_mult,
        "seed": args.seed,
        "verdicts": {"weakly_einstein": True, "einstein": erep.passes},
        "eigenvalues": _floats(st.eigen.eigenvalues),
        "pattern": st.eigen.pattern.tag,
        "st_frame": _floats(st.frame.matrix),
        "penalty": st.penalty,
        "construction_path": st.construction_path,
        "sign_cases": list(st.sign_cases.cases),
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    R, meta = _load_tensor(args)
    volume = args.volume if args.volume is not None else meta.get("volume")
    try:
        st = find_st_basis(R, tol=args.tol, tol_mult=args.tol_mult, seed=args.seed)
    except NotWeaklyEinstein as e:
        report = {
            "command": "invariants",
            "input": _input_echo(args),
            "verdicts": {"weakly_einstein": False},
            "weakly_einstein_residual": _residual_dict(e.report),
        }
        _emit(report, args)
        return EXIT_VERDICT
    vec = st_vectors(R, st.frame)
    inv = invariants_from_vectors(vec, R.scale, volume)
    f_cases = {
        case: f_by_case(st.sign_cases.eigenvalues, case)
        for case in st.sign_cases.cases
    }
    report = {
        "command": "invariants",
        "input": _input_echo(args),
        "tol": args.tol,
        "tol_mult": args.tol_mult,
        "seed": args.seed,
        "verdicts": {"weakly_einstein": True},
        "st_frame": _floats(st.frame.matrix),
        "penalty": st.penalty,
        "sign_cases": list(st.sign_cases.cases),
        "st_vectors": {
            "a_prime": _floats(vec.a_prime),
            "a_dprime": _floats(vec.a_dprime),
            "b": _floats(vec.b),
            "a": _floats(vec.a),
        },
        "f": inv.f,
        "f_by_case": f_cases,
        "chi_density": inv.chi_density,
        "p1_density": inv.p1_density,
    }
    ok = True
    if volume is not None:
        report.update(
            volume=inv.volume,
            chi=inv.chi,
            p1=inv.p1,
            C=inv.C,
            bound_plus_ok=inv.bound_plus_ok,
            bound_minus_ok=inv.bound_minus_ok,
            hitchin_ok=inv.hitchin_ok,
        )
        ok = inv.bound_plus_ok and inv.bound_minus_ok
    _emit(report, args)
    return EXIT_OK if ok else EXIT_VERDICT


def _cmd_fuzz(args) -> int:
    if args.count < 1:
        raise ValidationError("count", "must be at least 1")
    worst = 0.0
    worst_seed = None
    for i in range(args.count):
        seed = args.seed + i
        rep = identity_residual(random_curvature(seed), args.tol)
        if rep.relative >= worst:
            worst = rep.relative
            worst_seed = seed
    ok = worst < args.tol
    report = {
        "command": "fuzz",
        "count": args.count,
        "seed": args.seed,
        "tol": args.tol,
        "max_relative_residual": worst,
        "worst_seed": worst_seed,
        "identity_ok": ok,
    }
    _emit(report, args)
    return EXIT_OK if ok else EXIT_VERDICT


def _gallery_diff(name: str, params: dict, tol: float, tol_mult: float, seed: int) -> dict:
    """Run the full pipeline on one gallery entry and diff against metadata."""
    R, meta = gallery(name, **params)
    mismatches = []
    spec = ricci_spectrum(R, tol_mult)
    expected_eig = np.asarray(meta["eigenvalues"], dtype=float)
    if np.abs(spec.eigenvalues - expected_eig).max() > 1e-9 * R.scale:
        mismatches.append("eigenvalues")
    wrep = weakly_einstein_residual(R, tol)
    if wrep.passes != meta["weakly_einstein"]:
        mismatches.append("weakly_einstein")
    erep = einstein_residual(R, tol)
    if erep.passes != meta["einstein"]:
        mismatches.append("einstein")
    if meta.get("forbidden_pattern") is not None:
        if forbidden_pattern(spec.eigenvalues, tol_mult) != meta["forbidden_pattern"]:
            mismatches.append("forbidden_pattern")
    entry = {
        "name": name,
        "params": dict(params),
        "eigenvalues": _floats(spec.eigenvalues),
        "weakly_einstein": wrep.passes,
        "einstein": erep.passes,
    }
    if wrep.passes:
        st = find_st_basis(R, tol=tol, tol_mult=tol_mult, seed=seed)
        entry["penalty"] = st.penalty
        entry["sign_cases"] = list(st.sign_cases.cases)
        if meta.get("cases") and not set(meta["cases"]) <= set(st.sign_cases.cases):
            mismatches.append("cases")
        vec = st_vectors(R, st.frame)
        f = f_value(vec)
        entry["f"] = f
        if "f" in meta and abs(f - meta["f"]) > 1e-8 * R.scale ** 2:
            mismatches.append("f")
        if "volume" in meta:
            inv = invariants_from_vectors(vec, R.scale, meta["volume"])
            entry.update(chi=inv.chi, p1=inv.p1, C=inv.C, hitchin_ok=inv.hitchin_ok)
            for key in ("chi", "p1", "C"):
                if abs(entry[key] - meta[key]) > 1e-9 * max(1.0, abs(meta[key])):
                    mismatches.append(key)
            if inv.hitchin_ok != meta["hitchin_ok"]:
                mismatches.append("hitchin_ok")
    entry["mismatches"] = mismatches
    entry["ok"] = not mismatches
    return entry


def _cmd_gallery(args) -> int:
    if args.list:
        report = {"command": "gallery", "names": list(GALLERY_NAMES)}
        _emit(report, args)
        return EXIT_OK
    if args.all:
        runs = [
            _gallery_diff(name, params, args.tol, args.tol_mult, args.seed)
            for name, params in GALLERY_SUITE
        ]
        ok = all(r["ok"] for r in runs)
        report = {"command": "gallery", "runs": runs, "all_ok": ok}
        _emit(report, args)
        return EXIT_OK if ok else EXIT_VERDICT
    if args.name is None:
        raise ValidationError("name", "one of --list, --all or --name required")
    entry = _gallery_diff(
        args.name, _gallery_params(args), args.tol, args.tol_mult, args.seed
    )
    report = {"command": "gallery", "runs": [entry], "all_ok": entry["ok"]}
    _emit(report, args)
    return EXIT_OK if entry["ok"] else EXIT_VERDICT


# --- argument parsing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, tensor_input: bool = True) -> None:
    if tensor_input:
        p.add_argument("--input", help="JSON geometry document")
        p.add_argument("--gallery", help="gallery entry name")
        for flag in _GALLERY_PARAM_FLAGS:
            p.add_argument(f"--{flag}", type=float, default=None)
        p.add_argument("--volume", type=float, default=None)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write machine report to PATH ('-' for stdout)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--tol-mult", dest="tol_mult", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stframe",
        description="Pointwise curvature analysis of 4D Riemannian metrics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identity", help="universal curvature identity residual")
    _add_common(p)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("check", help="Einstein / weakly-Einstein verdicts")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("frame", help="generalized Singer-Thorpe frame search")
    _add_common(p)
    p.set_defaults(func=_cmd_frame)

    p = sub.add_parser("invariants", help="integrand vectors and closed-form invariants")
    _add_common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("fuzz", help="random tensors through the identity residual")
    _add_common(p, tensor_input=False)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("gallery", help="run the worked-example regression suite")
    _add_common(p)
    p.add_argument("--list", action="store_true", help="list gallery names")
    p.add_argument("--all", action="store_true", help="run the whole suite")
    p.add_argument("--name", default=None, help="run a single gallery entry")
    p.set_defaults(func=_cmd_gallery)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        volume = getattr(args, "volume", None)
        if volume is not None and not 0 < volume < math.inf:
            raise ValidationError("volume", "must be a positive finite number")
        return args.func(args)
    except (ParseError, ValidationError, UnknownGalleryName, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SearchFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEARCH
    except StframeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEARCH


if __name__ == "__main__":
    sys.exit(main())
