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
    DEFAULT_TOL,
    einstein_residual,
    forbidden_pattern,
    identity_residual,
    weakly_einstein_residual,
)
from .errors import (
    JacobiViolation,
    NotWeaklyEinstein,
    ParseError,
    StframeError,
    SymmetryViolation,
    UnknownGalleryName,
    ValidationError,
)
from .frames import DEFAULT_TOL_MULT, find_st_basis, ricci_spectrum
from .sources import (
    GALLERY_NAMES, GALLERY_PARAMS, gallery, load_spec, random_curvature, realize,
)
from .topology import invariants_from_vectors, vectors_from_components

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_SEARCH = 3

#: supported range of a tensor's scale max |R_ijkl|: inside it |R|^2 and the
#: sums of squared components the residuals take stay normal floats
SCALE_RANGE = (1e-140, 1e140)

#: the largest --volume and --tol: a looser tol passes tensors that fail a
#: verdict (their relative residuals measure 0.017 and up)
_UPPER_BOUNDS = {"volume": math.inf, "tol": 1e-3}

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

def render_json(obj) -> str:
    """Strict JSON in two-space indent, one item per line, byte for byte as
    json.dumps(obj, indent=2, allow_nan=False) writes it.  Each float is
    written as its shortest round-trip repr, so a report parses back to the
    same doubles and is byte-stable across runs.  What _json does not write
    (a NaN or infinity, a key that is not a str, an unsupported type, a
    circular reference) goes to json.dumps, which raises its own error or
    writes it."""
    try:
        return _json(obj, "\n")
    except (_Unwritten, RecursionError):
        return json.dumps(obj, indent=2, allow_nan=False)


class _Unwritten(Exception):
    """A value _json leaves to json.dumps."""


_str_json = json.encoder.encode_basestring_ascii


def _json(o, newline: str) -> str:
    """o as json.dumps(o, indent=2, allow_nan=False) writes it, where newline
    is the line break and indent of the line o starts on; _Unwritten where
    it would not simply write o.  The type tests run in json.encoder's order,
    so subclasses of str, int and float are written as json.dumps writes them.
    json.dumps itself runs its pure-Python encoder here, since the C encoder
    serves only indent=None."""
    if isinstance(o, str):
        return _str_json(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if -math.inf < o < math.inf:
            return float.__repr__(o)
        raise _Unwritten
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if isinstance(o[0], float):
            # a list of finite floats in one join: float.__repr__ raises
            # TypeError on an item that is not a float, and "nan" and "inf"
            # are the only reprs it writes with an n
            try:
                items = ("," + inner).join(map(float.__repr__, o))
            except TypeError:
                items = None
            if items is not None and "n" not in items:
                return "[" + inner + items + newline + "]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in o]) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = []
        for k, v in o.items():
            if not isinstance(k, str):
                raise _Unwritten
            items.append(_str_json(k) + ": " + _json(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise _Unwritten


def _floats(a) -> list[float]:
    return np.asarray(a, dtype=float).ravel().tolist()


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
        for k in GALLERY_PARAMS
        if getattr(args, k, None) is not None
    }


def _header(args) -> dict:
    """A report's command and input, then tol when the subcommand takes it."""
    tol = {"tol": args.tol} if hasattr(args, "tol") else {}
    return {"command": args.command, "input": _input_echo(args), **tol}


def _load_tensor(args):
    if (args.input is None) == (args.gallery is None):
        raise ValidationError("input", "exactly one of --input FILE and --gallery NAME required")
    params = _gallery_params(args)
    if args.gallery is not None:
        load = functools.partial(gallery, args.gallery, **params)
        return _checked_tensor(args.gallery, load)
    if params:
        raise ValidationError(next(iter(params)), "gallery parameters need --gallery")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError("input", f"cannot read {args.input}: {e}") from e
    return _checked_tensor(args.input, lambda: realize(load_spec(text)))


def _checked_tensor(source: str, load):
    """load(), with a tensor that fails a curvature identity or whose scale
    lies outside SCALE_RANGE reported as bad input from source."""
    try:
        R, meta = load()
    except (SymmetryViolation, JacobiViolation) as e:
        raise ValidationError("input", f"{source}: {e}") from e
    lo, hi = SCALE_RANGE
    if not lo <= R.scale <= hi:
        raise ValidationError(
            "input", f"{source}: max |R_ijkl| = {R.scale:.3e} lies outside [{lo:g}, {hi:g}]"
        )
    return R, meta


def _residual_dict(rep) -> dict:
    return {
        "max_abs": rep.max_abs,
        "relative": rep.relative,
        "passes": rep.passes,
        "matrix": _floats(rep.matrix),
    }


def _emit(report: dict, args) -> None:
    """The human-readable lines, then with --json - the JSON report, in one
    write to stdout; with --json PATH the JSON report goes to PATH."""
    human = "".join(_human_lines(report))
    if args.json is None:
        sys.stdout.write(human)
    elif args.json == "-":
        sys.stdout.write(human + render_json(report) + "\n")
    else:
        sys.stdout.write(human)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(render_json(report) + "\n")


def _human_lines(report: dict, prefix: str = ""):
    for key, value in report.items():
        if isinstance(value, dict):
            yield f"{prefix}{key}:\n"
            yield from _human_lines(value, prefix + "  ")
        elif isinstance(value, (list, tuple)) and len(value) > 8:
            yield f"{prefix}{key}: [{len(value)} values]\n"
        else:
            yield f"{prefix}{key}: {value}\n"


def _st_basis(R, args, **verdicts):
    """find_st_basis(R), or None once the not-weakly-Einstein report, with
    verdicts after weakly_einstein, is emitted."""
    try:
        return find_st_basis(R)
    except NotWeaklyEinstein as e:
        report = _header(args)
        report.update(
            verdicts={"weakly_einstein": False, **verdicts},
            weakly_einstein_residual=_residual_dict(e.report),
        )
        _emit(report, args)
        return None


# --- subcommands -------------------------------------------------------------

def _cmd_identity(args) -> int:
    R, _ = _load_tensor(args)
    rep = identity_residual(R, args.tol)
    report = _header(args)
    report.update(identity_residual=_residual_dict(rep), identity_ok=rep.passes)
    _emit(report, args)
    return EXIT_OK if rep.passes else EXIT_VERDICT


def _check(R, tol: float) -> dict:
    """The check report after its header: verdicts at tol, and pattern and
    forbidden_pattern at DEFAULT_TOL_MULT, the frame search's first reading."""
    erep = einstein_residual(R, tol)
    wrep = weakly_einstein_residual(R, tol)
    spec = ricci_spectrum(R)
    return {
        "verdicts": {
            "identity_ok": identity_residual(R, tol).passes,
            "einstein": erep.passes,
            "weakly_einstein": wrep.passes,
        },
        "eigenvalues": _floats(spec.eigenvalues),
        "pattern": spec.pattern.tag,
        "forbidden_pattern": forbidden_pattern(spec.eigenvalues, DEFAULT_TOL_MULT),
        "einstein_residual": _residual_dict(erep),
        "weakly_einstein_residual": _residual_dict(wrep),
    }


def _cmd_check(args) -> int:
    R, _ = _load_tensor(args)
    report = _header(args)
    report.update(_check(R, args.tol))
    _emit(report, args)
    return EXIT_OK if report["verdicts"]["weakly_einstein"] else EXIT_VERDICT


def _cmd_frame(args) -> int:
    R, _ = _load_tensor(args)
    erep = einstein_residual(R)
    st = _st_basis(R, args, einstein=erep.passes)
    if st is None:
        return EXIT_VERDICT
    report = _header(args)
    report.update(
        verdicts={"weakly_einstein": True, "einstein": erep.passes},
        eigenvalues=_floats(st.eigen.eigenvalues),
        pattern=st.eigen.pattern.tag,
        st_frame=_floats(st.frame.matrix),
        penalty=st.penalty,
        construction_path=st.construction_path,
        sign_cases=list(st.sign_cases.cases),
    )
    _emit(report, args)
    return EXIT_OK


def _invariants(R, st, volume) -> dict:
    """The invariants report after its verdicts, read off st.components."""
    scale = R.scale
    vec = vectors_from_components(st.components, scale)
    inv = invariants_from_vectors(vec, scale, volume)
    report = {
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
        "f_by_case": dict.fromkeys(st.sign_cases.cases, st.sign_cases.f),
        "chi_density": inv.chi_density,
        "p1_density": inv.p1_density,
    }
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
    return report


def _cmd_invariants(args) -> int:
    R, meta = _load_tensor(args)
    volume = meta.get("volume") if args.volume is None else args.volume
    st = _st_basis(R, args)
    if st is None:
        return EXIT_VERDICT
    report = _header(args)
    report.update(verdicts={"weakly_einstein": True}, **_invariants(R, st, volume))
    _emit(report, args)
    ok = report.get("bound_plus_ok", True) and report.get("bound_minus_ok", True)
    return EXIT_OK if ok else EXIT_VERDICT


def _cmd_fuzz(args) -> int:
    if args.count < 1:
        raise ValidationError("count", "must be at least 1")
    if args.seed < 0:
        raise ValidationError("seed", "must be a non-negative integer")
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


def _gallery_diff(name: str, params: dict) -> dict:
    """The check answer and, for a weakly Einstein tensor, the invariants
    answer on one gallery entry, diffed against its stored expectations."""
    R, meta = _checked_tensor(name, functools.partial(gallery, name, **params))
    check = _check(R, DEFAULT_TOL)
    entry = {
        "name": name,
        "params": dict(params),
        "eigenvalues": check["eigenvalues"],
        "weakly_einstein": check["verdicts"]["weakly_einstein"],
        "einstein": check["verdicts"]["einstein"],
    }
    mismatches = []
    if np.abs(np.subtract(entry["eigenvalues"], meta["eigenvalues"])).max() > 1e-9 * R.scale:
        mismatches.append("eigenvalues")
    found = {**check["verdicts"], "pattern": check["pattern"]}
    mismatches += [
        key for key in ("identity_ok", "weakly_einstein", "einstein", "pattern")
        if found[key] != meta[key]
    ]
    if meta.get("forbidden_pattern") not in (None, check["forbidden_pattern"]):
        mismatches.append("forbidden_pattern")
    if entry["weakly_einstein"]:
        inv = _invariants(R, find_st_basis(R), meta.get("volume"))
        entry.update(penalty=inv["penalty"], sign_cases=inv["sign_cases"], f=inv["f"])
        if meta.get("cases") and not set(meta["cases"]) <= set(inv["sign_cases"]):
            mismatches.append("cases")
        if "f" in meta and abs(inv["f"] - meta["f"]) > 1e-8 * R.scale ** 2:
            mismatches.append("f")
        if "volume" in meta:
            entry.update((key, inv[key]) for key in ("chi", "p1", "C", "hitchin_ok"))
            for key in ("chi", "p1", "C"):
                if abs(entry[key] - meta[key]) > 1e-9 * max(1.0, abs(meta[key])):
                    mismatches.append(key)
            if inv["hitchin_ok"] != meta["hitchin_ok"]:
                mismatches.append("hitchin_ok")
    entry["mismatches"] = mismatches
    entry["ok"] = not mismatches
    return entry


def _cmd_gallery(args) -> int:
    params = _gallery_params(args)
    if args.list + args.all + (args.name is not None) != 1:
        raise ValidationError("name", "one of --list, --all or --name required")
    if params and args.name is None:
        raise ValidationError(next(iter(params)), "gallery parameters need --name")
    if args.list:
        report = {"command": "gallery", "names": list(GALLERY_NAMES)}
        _emit(report, args)
        return EXIT_OK
    suite = GALLERY_SUITE if args.all else ((args.name, params),)
    runs = [_gallery_diff(name, p) for name, p in suite]
    ok = all(r["ok"] for r in runs)
    report = {"command": "gallery", "runs": runs, "all_ok": ok}
    _emit(report, args)
    return EXIT_OK if ok else EXIT_VERDICT


# --- argument parsing --------------------------------------------------------

#: every flag's add_argument keywords, in --help order
_FLAGS = {
    "input": dict(help="JSON geometry document"),
    "gallery": dict(help="gallery entry name"),
    **{k: dict(type=float) for k in GALLERY_PARAMS},
    "volume": dict(type=float),
    "json": dict(metavar="PATH", help="write machine report to PATH ('-' for stdout)"),
    "tol": dict(type=float, default=DEFAULT_TOL),
    "seed": dict(type=int, default=0),
    "count": dict(type=int, default=100),
    "list": dict(action="store_true", help="list gallery names"),
    "all": dict(action="store_true", help="run the whole suite"),
    "name": dict(help="run a single gallery entry"),
}
_TENSOR_FLAGS = ("input", "gallery", *GALLERY_PARAMS, "json")

#: each subcommand's handler, help and the flags it reads
_SUBCOMMANDS = {
    "identity": (_cmd_identity, "universal curvature identity residual", (*_TENSOR_FLAGS, "tol")),
    "check": (_cmd_check, "Einstein / weakly-Einstein verdicts", (*_TENSOR_FLAGS, "tol")),
    "frame": (_cmd_frame, "generalized Singer-Thorpe frame search", _TENSOR_FLAGS),
    "invariants": (_cmd_invariants, "integrand vectors and closed-form invariants",
                   (*_TENSOR_FLAGS, "volume")),
    "fuzz": (_cmd_fuzz, "random tensors through the identity residual",
             ("json", "tol", "seed", "count")),
    "gallery": (_cmd_gallery, "run the worked-example regression suite",
                (*GALLERY_PARAMS, "json", "list", "all", "name")),
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports a flag it does not take, with its usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser(commands: dict | None = None) -> argparse.ArgumentParser:
    """The stframe parser; with commands, each subcommand's parser is also
    put there under its name."""
    parser = argparse.ArgumentParser(
        prog="stframe",
        description="Pointwise curvature analysis of 4D Riemannian metrics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for command, (func, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, keywords in _FLAGS.items():
            if flag in flags:
                p.add_argument(f"--{flag}", **keywords)
        p.set_defaults(func=func, command=command)
        if commands is not None:
            commands[command] = p
    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommands' parsers by name, built on first use
    and shared by every later call."""
    commands = {}
    return build_parser(commands), commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    # an argv that starts with a subcommand goes straight to its parser, which
    # the top-level parser would hand it to; the rest (no arguments, -h,
    # --version, an unknown name) goes through the top-level parser
    command = commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        for field, bound in _UPPER_BOUNDS.items():
            value = getattr(args, field, None)
            if value is not None and not 0 < value < math.inf:
                raise ValidationError(field, "must be a positive finite number")
            if value is not None and value > bound:
                raise ValidationError(field, f"must be at most {bound:g}")
        return args.func(args)
    except (ParseError, ValidationError, UnknownGalleryName, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except StframeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEARCH


if __name__ == "__main__":
    sys.exit(main())
