"""stframe benchmark: closed-loop workloads, one thread, one process.

    python3 benchmarks/run.py --workload screen --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; stframe is imported from ``src`` there.
With ``--trace 0`` the workload (``screen`` or ``report``) answers its whole
input set a whole number of times for at least ``--seconds`` seconds and
reports the end-to-end metrics.  With ``--trace 1`` the run makes one pass
over each input set of PER_LAYER, answering each input untraced and then
traced, and reports the per-layer metrics, named ``<set>.<layer metric>``.
Every answer is checked against the truth of its input's construction.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: fresh interpreters timed per run for setup_s (after one untimed warm-up)
SETUP_REPEATS = 7

#: per-layer metrics of each input set, named "<set>.<metric>" in the result:
#: the layers the set exercises today.  Path counts are kept for every
#: construction path; a time that is 0 in every run is left out.
#: `st_iterative` (iterative frame searches) is traced but not a timed
#: workload: its 0.1-1 s searches spread 21-37% between runs on a shared host.
PER_LAYER = {
    "screen": (
        "tensor.derived_tensors.ms",
        "analysis.residuals.ms",
        "frames.sym_eigen.calls",
        "frames.sym_eigen.ms",
        "trace.overhead.ms",
    ),
    "report": (
        "tensor.rotate.calls",
        "tensor.rotate.ms",
        "tensor.derived_tensors.ms",
        "analysis.residuals.ms",
        "sources.load_spec.ms",
        "sources.realize.ms",
        "frames.sym_eigen.calls",
        "frames.sym_eigen.ms",
        "frames.trig_fit.calls",
        "frames.trig_fit.ms",
        "frames.st_penalty.calls",
        "frames.st_penalty.ms",
        "frames.classify_sign_cases.ms",
        "frames.path.direct-eigenbasis.count",
        "frames.path.direct-eigenbasis.ms",
        "frames.path.rotation-II.count",
        "frames.path.rotation-II.ms",
        "frames.path.rotation-III.count",
        "frames.path.rotation-IV.count",
        "frames.path.generic-fallback.count",
        "topology.st_vectors.calls",
        "topology.st_vectors.ms",
        "topology.invariants.ms",
        "cli.self.ms",
        "cli.render_json.ms",
        "trace.overhead.ms",
    ),
    "st_iterative": (
        "tensor.rotate.calls",
        "tensor.rotate.ms",
        "analysis.residuals.ms",
        "frames.sym_eigen.calls",
        "frames.sym_eigen.ms",
        "frames.trig_fit.calls",
        "frames.trig_fit.ms",
        "frames.st_penalty.calls",
        "frames.st_penalty.ms",
        "frames.fallback.calls",
        "frames.fallback.ms",
        "frames.classify_sign_cases.ms",
        "frames.path.direct-eigenbasis.count",
        "frames.path.rotation-II.count",
        "frames.path.rotation-III.count",
        "frames.path.rotation-III.ms",
        "frames.path.rotation-IV.count",
        "frames.path.rotation-IV.ms",
        "frames.path.generic-fallback.count",
        "frames.path.generic-fallback.ms",
        "topology.st_vectors.calls",
        "topology.st_vectors.ms",
        "trace.overhead.ms",
    ),
}
WORKLOADS = ("screen", "report")


class Tally:
    """Attempted and failed operations; a failure outside the known-fault
    slice makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[tuple[str, list]] = []

    def answer(self, op) -> float:
        """Time one operation, check its answer, and return the seconds taken."""
        t0 = time.perf_counter()
        try:
            answer = op.run()
        except Exception as e:  # an operation that raises is a failed operation
            dt = time.perf_counter() - t0
            problems = [f"raised {e!r}"]
        else:
            dt = time.perf_counter() - t0
            problems = op.check(answer)
        self.attempted += 1
        if problems:
            self.failed += 1
            if not op.known_fault and len(self.unexpected) < 20:
                self.unexpected.append((op.kind, problems))
        return dt


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of import plus first answer."""
    workdir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def timed_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Whole rounds over the input set until ``seconds`` have passed.

    stframe is deterministic, so the answers to one input differ in time only
    by interference from other work on the machine; each input's latency is
    the fastest of its rounds, and the metrics are taken over those.
    """
    import workloads

    ops = workloads.build(workload, seed, workdir)
    setup = measure_setup(workload, seed, workdir / "probe")
    ops[0].run()  # warm-up, not counted
    tally, best = Tally(), [math.inf] * len(ops)
    rounds, start = 0, time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            best[i] = min(best[i], tally.answer(op))
        rounds += 1
    print(
        f"{workload}: {tally.attempted} operations in {rounds} rounds of {len(ops)}, "
        f"{tally.failed} failed",
        file=sys.stderr,
    )
    ms = [x * 1000.0 for x in best]
    metrics = {
        "tensors_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p99_ms": (statistics.quantiles(ms, n=100)[98], "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return _result(tally, metrics)


def _layer_value(key: str, tracer, n: int, overhead_s: float) -> tuple[float, str]:
    """Per-tensor value of one per-layer metric."""
    if key == "trace.overhead.ms":
        return overhead_s * 1000.0 / n, "ms"
    if key == "cli.self.ms":
        return tracer.self_time["cli"] * 1000.0 / n, "ms"
    if key.startswith("frames.path."):
        path, what = key[len("frames.path."):].rsplit(".", 1)
        durations = [dt for p, dt in tracer.paths if p == path]
        if what == "count":
            return len(durations) / n, "count"
        return sum(durations) * 1000.0 / n, "ms"
    layer, what = key.rsplit(".", 1)
    if what == "calls":
        return tracer.calls[layer] / n, "count"
    return tracer.total[layer] * 1000.0 / n, "ms"


def traced_run(workload: str, seed: int, workdir: Path) -> dict:
    """One pass over each input set, answering every input twice in a row:
    untraced, then traced.  The per-layer metrics come from the
    traced answers; trace.overhead.ms is the difference of the two.
    attempted and failed count the traced answers of ``workload``; a wrong
    answer anywhere makes the run incorrect."""
    import workloads
    from tracer import Tracer

    metrics, trace, wrong, own = {}, {}, [], None
    for name in PER_LAYER:
        (workdir / name).mkdir()
        ops = workloads.build(name, seed, workdir / name)
        ops[0].run()  # warm-up, not counted
        plain, tally, tracer = Tally(), Tally(), Tracer()
        untraced = traced = 0.0
        per_op = []
        for op in ops:
            untraced += plain.answer(op)
            first = len(tracer.paths)
            tracer.install()
            try:
                dt = tally.answer(op)
            finally:
                tracer.uninstall()
            traced += dt
            per_op.append(
                {"kind": op.kind, "ms": dt * 1000.0, "paths": [p for p, _ in tracer.paths[first:]]}
            )
        wrong += plain.unexpected + tally.unexpected
        if name == workload:
            own = tally
        for key in PER_LAYER[name]:
            metrics[f"{name}.{key}"] = _layer_value(key, tracer, len(ops), traced - untraced)
        trace[name] = {
            "untraced_ms": untraced * 1000.0,
            "traced_ms": traced * 1000.0,
            "layers": {
                layer: {
                    "calls": tracer.calls[layer],
                    "total_ms": tracer.total[layer] * 1000.0,
                    "self_ms": tracer.self_time[layer] * 1000.0,
                }
                for layer in sorted(tracer.calls)
            },
            "ops": per_op,
        }
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(trace, indent=1), encoding="utf-8")
    own.unexpected = wrong
    return _result(own, metrics)


def _result(tally: Tally, metrics: dict) -> dict:
    for kind, problems in tally.unexpected:
        print(f"wrong answer ({kind}): {'; '.join(problems)}", file=sys.stderr)
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "stframe" / "__init__.py").is_file():
        print(f"error: no stframe source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, workdir)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
