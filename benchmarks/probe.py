"""Set-up probe, run in a fresh interpreter by run.py:

    python3 benchmarks/probe.py WORKLOAD SEED WORKDIR

Prints the seconds spent importing the workload's stframe entry module plus
answering the workload's first input.  Building that input is not counted.
Needs ``src`` and ``benchmarks`` on PYTHONPATH.
"""

import time

t0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402

#: what a user of each workload imports
ENTRY_MODULE = {"screen": "stframe", "report": "stframe.cli"}


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    importlib.import_module(ENTRY_MODULE[workload])
    t1 = time.perf_counter()

    from pathlib import Path

    import workloads

    op = workloads.build(workload, seed, Path(workdir))[0]
    t2 = time.perf_counter()
    answer = op.run()
    t3 = time.perf_counter()
    problems = op.check(answer)
    if problems and not op.known_fault:
        print(f"first {workload} answer is wrong: {problems}", file=sys.stderr)
        return 1
    print(repr((t1 - t0) + (t3 - t2)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
