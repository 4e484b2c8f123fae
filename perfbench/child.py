"""One benchmark run of the qhecke CLI in a fresh interpreter.

Usage: child.py SPAWN_TIME TRACE_PATH [qhecke CLI arguments...]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on the machine), so
``setup_s`` covers interpreter start-up plus importing ``qhecke.cli``.
TRACE_PATH is ``-`` for an untraced run, otherwise the file the layer trace
is written to after the run.  Without CLI arguments the process only sets
up.  The last line on stdout is a JSON record of the timings.

The child also measures how fast the shared host ran it: ``probe_s`` is the
mean time of `probe_round`, a fixed pure-Python workload, timed right after
set-up, after the suite and, in an untraced run, every `SAMPLE_INTERVAL_S`
during the suite from a timer signal.  Those in-suite rounds are subtracted
from ``verify_s``.  The parent scales times by ``probe_s`` (see README.md).
"""

import gc
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

SAMPLE_INTERVAL_S = 0.25
EDGE_ROUNDS = 9   # rounds timed after set-up and after the suite; their median counts


def probe_round() -> float:
    """Seconds taken by one round of fixed Fraction and dict arithmetic.

    A round (a few ms) mixes big-integer gcds with small-object dict and
    tuple churn, the two kinds of work the suites do, over a working set
    too small to raise the child's peak RSS.  The garbage collector is off
    during the round, so the heap the suite holds does not change its time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    table: dict[tuple[int, int], int] = {}
    for i in range(5000):
        key = (i % 61, i % 67)
        table[key] = table.get(key, 0) + i
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def edge_probe() -> float:
    return sorted(probe_round() for _ in range(EDGE_ROUNDS))[EDGE_ROUNDS // 2]


def run_sampled(main, args) -> tuple[int, float, list[float]]:
    """Run `main(args)`, timing a probe round every SAMPLE_INTERVAL_S meanwhile.

    Returns main's result, its wall time without the rounds, and the rounds.
    """
    samples: list[float] = []
    overhead = [0.0]

    def on_timer(signum, frame):
        start = time.perf_counter()
        samples.append(probe_round())
        overhead[0] += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = time.perf_counter()
    try:
        rc = main(args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return rc, time.perf_counter() - start - overhead[0], samples


def main() -> int:
    spawned = float(sys.argv[1])
    trace_path = sys.argv[2]
    cli_args = sys.argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import qhecke.cli
    ready = time.monotonic()
    record = {"setup_s": ready - spawned}
    probes = [edge_probe()]
    if cli_args and trace_path == "-":
        record["rc"], record["verify_s"], samples = run_sampled(qhecke.cli.main, cli_args)
        probes += samples
    elif cli_args:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        record["rc"] = qhecke.cli.main(cli_args)
        record["verify_s"] = time.perf_counter() - start
        tracer.write(trace_path)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if cli_args:
        probes.append(edge_probe())
    record["probe_s"] = sum(probes) / len(probes)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
