"""End-to-end benchmark of the qhecke CLI verification suites.

Usage (from the repository root):

    python3 perfbench/run.py --workload hecke-r6 --seed 0 --seconds 58 --trace 0

Each verify run is a fresh ``qhecke verify ...`` process (``child.py``), so it
pays the per-process caches as a CLI user does.  The loop is closed with one
client: one child at a time, the next started when the previous one ended.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced runs.  The line before it
is a JSON record of the environment, the command line and every run, with
the sha256 of each report.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layertrace import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 5          # set-up-only children per run, besides the verify runs
CHILD_TIMEOUT_S = 120.0   # a verify run longer than this counts as failed
RUN_LIMIT_S = 160.0       # no child may run past this point of a benchmark run
ARBITRATION_PREFIX = "exact-arbitration:"
# child.probe_round's usual time on the host the benchmark was written on (README.md);
# every reported time is scaled by REFERENCE_PROBE_S / the child's own probe_s
REFERENCE_PROBE_S = 0.003


# workload name -> qhecke CLI arguments (README.md says why each was chosen)
WORKLOADS = {
    "hecke-r6": ("verify", "hecke", "--r", "6"),
    "tensor-specialized": ("verify", "alt-centralizer", "--m", "2", "--n", "1", "--r", "3"),
}

END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in ("qfield", "hecke", "alternating", "commutant",
                                            "tensor", "partitions", "suites")},
    "qfield.ops": "count",
    "hecke.mul.calls": "count",
    "hecke.table_s": "s",
    "hecke.tp_left_col.calls": "count",
    "hecke.tp_left_col.reuse": "ratio",
    "commutant.closure.tried": "count",
    "commutant.closure.accepted": "count",
    "commutant.nullspace.constraints": "count",
    "commutant.nullspace.nullity": "count",
    "commutant.contains.calls": "count",
    "tensor.matmul.calls": "count",
    "tensor.matmul.nnz": "count",
    "tensor.build_s": "s",
    "tensor.specialize.entries": "count",
    "suites.checks": "count",
    "suites.arbitrations": "count",
    "cli.emit_s": "s",
    "trace.overhead": "ratio",
    "fail_rate": "ratio",
}


def suite_seeds(seed: int):
    """The benchmark seed itself, then further suite seeds drawn from it."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


def run_child(cli_args, timeout: float, trace_path: Path | None = None) -> dict:
    """Start child.py, wait for it (at most `timeout` seconds) and parse its record."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), repr(spawned),
           str(trace_path) if trace_path else "-", *cli_args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"status": f"timeout after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return {"status": f"exit {proc.returncode}: {tail[0]}"}
    return {"status": "ok", **json.loads(out.strip().splitlines()[-1])}


def check_report(record: dict, report_path: Path) -> dict:
    """Apply the correctness gate to one finished verify run."""
    if record["status"] != "ok":
        return record
    if record["rc"] != 0:
        record["status"] = f"qhecke exit code {record['rc']}"
        return record
    data = report_path.read_bytes()
    record["sha256"] = hashlib.sha256(data).hexdigest()
    doc = json.loads(data)
    failed = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
    if doc["overall"] != "pass" or failed:
        record["status"] = f"report fails: overall {doc['overall']}, failed {failed}"
    record["checks"] = len(doc["checks"])
    record["arbitrations"] = sum(1 for c in doc["checks"]
                                 if c["name"].startswith(ARBITRATION_PREFIX))
    return record


def measure(cli_args: tuple[str, ...], seed: int, seconds: float, trace: bool, workdir: Path,
            *, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run the closed loop for one benchmark run and return every record.

    Untraced: the benchmark seed twice (the repetition whose report bytes
    must match), then new suite seeds drawn from it.  Traced: untraced and
    traced runs of the benchmark seed in turn.  After the first two runs, a
    run starts only if a run of median length would end within `seconds`.
    """
    started = time.monotonic()

    def budget() -> float:
        return min(timeout, RUN_LIMIT_S - (time.monotonic() - started))

    probes: list[dict] = []
    while len(probes) < SETUP_PROBES and budget() > 0:
        probes.append(run_child((), budget()))
        if probes[-1]["status"] != "ok":
            break
    seeds = suite_seeds(seed)
    first = next(seeds)
    runs: list[dict] = []
    reference: dict[int, str] = {}
    lengths: list[float] = []
    loop_start = time.monotonic()
    while len(runs) < 2 or (time.monotonic() - loop_start
                            + statistics.median(lengths) <= seconds):
        n = len(runs)
        if trace:
            suite_seed, traced = first, n % 2 == 1
        else:
            suite_seed, traced = (first if n < 2 else next(seeds)), False
        child_budget = budget()
        if child_budget <= 0:
            break
        report_path = workdir / f"report-{n}.json"
        trace_path = workdir / f"trace-{n}.json" if traced else None
        args = (*cli_args, "--seed", str(suite_seed), "--out", str(report_path))
        child_start = time.monotonic()
        record = run_child(args, child_budget, trace_path)
        lengths.append(time.monotonic() - child_start)
        record.update(seed=suite_seed, traced=traced)
        record = check_report(record, report_path)
        if record["status"] == "ok":
            ref = reference.setdefault(suite_seed, record["sha256"])
            if record["sha256"] != ref:
                record["status"] = "report bytes differ from the first run of this seed"
        if traced and record["status"] == "ok":
            record["layers"] = layer_metrics(json.loads(trace_path.read_text()))
        runs.append(record)
        if record["status"].startswith("timeout"):
            break
    return {"probes": probes, "runs": runs}


def at_reference_speed(record: dict, key: str) -> float:
    """A child's time `key` in seconds at reference host speed (see REFERENCE_PROBE_S)."""
    return record[key] * REFERENCE_PROBE_S / record["probe_s"]


def per_seed_median(runs: list[dict], value) -> float:
    """Median over suite seeds of each seed's median of `value(run)`, so a repeated
    seed counts once."""
    by_seed: dict[int, list[float]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(value(r))
    return statistics.median(statistics.median(v) for v in by_seed.values())


def summarize(result: dict, trace: bool) -> dict | None:
    """The metrics of one benchmark run, or None when a needed run kind never succeeded."""
    runs = result["runs"]
    ok = [r for r in runs if r["status"] == "ok"]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (trace and not traced):
        return None
    if not trace:
        setups = [at_reference_speed(r, "setup_s") for r in result["probes"] + ok
                  if "setup_s" in r]
        values = {
            "verify_s": per_seed_median(plain, lambda r: at_reference_speed(r, "verify_s")),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": per_seed_median(plain, lambda r: r["peak_rss_mb"]),
        }
        units = END_TO_END
    else:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name in traced[0]["layers"]}
        values["suites.checks"] = traced[0]["checks"]
        values["suites.arbitrations"] = traced[0]["arbitrations"]
        values["trace.overhead"] = (
            statistics.median(at_reference_speed(r, "verify_s") for r in traced)
            / statistics.median(at_reference_speed(r, "verify_s") for r in plain))
        values["fail_rate"] = (len(runs) - len(ok)) / len(runs)
        units = PER_LAYER
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def result_line(result: dict, trace: bool) -> dict | None:
    """The benchmark's final output object, or None when there are no metrics."""
    metrics = summarize(result, trace)
    if metrics is None:
        return None
    runs = result["runs"]
    failed = sum(1 for r in runs if r["status"] != "ok")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": args.seed,
        "command": shlex.join(sys.orig_argv),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qhecke" / "cli.py").is_file():
        print(f"error: no qhecke source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), Path(tmp))
    line = result_line(result, bool(args.trace))
    runs = result["runs"]
    for r in runs:
        r.pop("layers", None)
    print(json.dumps({"workload": args.workload, "environment": environment(args),
                      "probes": result["probes"], "runs": runs}))
    if line is None:
        print("error: no verify run of a needed kind succeeded", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
