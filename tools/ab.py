"""Interleaved A/B timing of two stframe checkouts, beside an A/A control.

    python3 tools/ab.py OLD_CHECKOUT NEW_CHECKOUT --workload {report,screen} --rounds N

Loads ``src/stframe`` of OLD_CHECKOUT twice and of NEW_CHECKOUT once, each
under its own module name (``same_answers.load_cli``), in one process.  Each
round times one pass over the workload's inputs of seeds 1-2 (built from
NEW_CHECKOUT's ``benchmarks/inputs.py``) through each of the three packages,
in a shuffled order:

- ``report``: ``invariants SOURCE --json -`` through ``cli.main``, its output
  captured;
- ``screen``: the three verdicts, the Ricci spectrum and the forbidden pattern
  that ``benchmarks/workloads.py``'s screen operation asks for, on tensors
  built before the round.

Prints, per pass, the median and quartiles of the round's time ratio
NEW/OLD, and of OLD/OLD: two loads of one tree, whose spread is the noise a
NEW/OLD median has to clear.  It is a second witness beside the paired runs
of ``benchmarks/run.py``; it gates nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_answers import document, load_cli  # noqa: E402

SEEDS = (1, 2)


def report_pass(name: str, sources: list):
    """One pass of ``invariants --json -`` over sources through package name."""
    cli = importlib.import_module(f"{name}.cli")
    argvs = [["invariants", *source, "--json", "-"] for source in sources]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.main(argv)

    return run


def screen_pass(name: str, comps: list):
    """One pass of the screen operation over comps through package name."""
    analysis = importlib.import_module(f"{name}.analysis")
    frames = importlib.import_module(f"{name}.frames")
    tensors = [importlib.import_module(f"{name}.tensor").make_curvature(c) for c in comps]
    tol, tol_mult = analysis.DEFAULT_TOL, frames.DEFAULT_TOL_MULT

    def run():
        for R in tensors:
            analysis.identity_residual(R, tol)
            analysis.einstein_residual(R, tol)
            analysis.weakly_einstein_residual(R, tol)
            spectrum = frames.ricci_spectrum(R, tol_mult)
            analysis.forbidden_pattern(spectrum.eigenvalues, tol_mult)

    return run


def passes(workload: str, names: list, new: Path, workdir: Path) -> dict:
    """Each package's pass over the workload's inputs, by package name."""
    sys.path.insert(0, str(new / "benchmarks"))
    import inputs

    if workload == "screen":
        comps = [case.comp for seed in SEEDS for case in inputs.screen_cases(seed)]
        return {name: screen_pass(name, comps) for name in names}
    sources = []
    for seed in SEEDS:
        for n, (case, source) in enumerate(inputs.report_cases(seed)):
            if source is None:
                source = document(case.comp, workdir / f"seed{seed}-doc{n:02d}.json")
            sources.append(source)
    return {name: report_pass(name, sources) for name in names}


def summary(label: str, ratios: list) -> str:
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return f"{label}  median {median:.3f}  quartiles {q1:.3f}-{q3:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, metavar="OLD_CHECKOUT")
    parser.add_argument("new", type=Path, metavar="NEW_CHECKOUT")
    parser.add_argument("--workload", choices=("report", "screen"), required=True)
    parser.add_argument("--rounds", type=int, default=60)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    old, new = args.old.resolve(), args.new.resolve()
    names = ["stframe_old", "stframe_old_again", "stframe_new"]
    for name, checkout in zip(names, (old, old, new)):
        load_cli(checkout, name)
    rng = random.Random(0)
    times = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as workdir:
        runs = passes(args.workload, names, new, Path(workdir))
        for run in runs.values():  # warm up: imports, caches, first allocations
            run()
        for _ in range(args.rounds):
            order = names[:]
            rng.shuffle(order)
            for name in order:
                start = time.perf_counter()
                runs[name]()
                times[name].append(time.perf_counter() - start)
    old_t, again_t, new_t = (times[name] for name in names)
    old_ms, new_ms = (statistics.median(t) * 1e3 for t in (old_t, new_t))
    print(f"{args.workload}: {args.rounds} rounds; median pass OLD {old_ms:.1f} ms, "
          f"NEW {new_ms:.1f} ms")
    print(summary("NEW/OLD", [n / o for n, o in zip(new_t, old_t)]))
    print(summary("OLD/OLD", [a / o for a, o in zip(again_t, old_t)]) + "  (A/A control)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
