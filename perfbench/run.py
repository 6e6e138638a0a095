"""Benchmark of tempo_dp: the parallel scan path beside the sequential oracle.

Run from the repository root:

    python3 perfbench/run.py --workload tracking_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads and their reasons are in workloads.py and BENCHMARK.json; ``all``
runs the four one after another, each in its own interpreter.

``--trace 0`` measures the end-to-end metrics with tracing off. It starts
SETUP_PROBES fresh interpreters that only set up (import tempo_dp, build
the workload, warm up both paths) and then one that sets up and measures:
interleaved (parallel, oracle) solve pairs, alternating which goes first,
every pair checked against the oracle and followed by the CLI's output step.
Timings are medians; the sample count and the highest percentile with ten
samples beyond it are printed too, not gated.

Times are in reference seconds: each sample is scaled by the ratio of
reference.NOMINAL_S to the time a fixed piece of reference work took just
before and after it, which cancels the drift of a shared machine's speed (see
reference.py). The unscaled medians are printed as ``raw``.
``par_over_seq`` is the median over pairs of the ratio of their wall
times: the two solves of a pair run back to back, so it needs no scaling,
and scaling would only add the reference work's own noise. The oracle counts as correct:
a pair fails when a solve raises or the results differ beyond the
tolerances in workloads.py, and ``pass_rate`` is 1 - error_rate.

``--trace 1`` runs one traced interpreter and reports the per-layer metrics
of layers.py, which also maps each to the end-to-end metric it should move.

Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Full records,
including the machine and library versions, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import ALL as WORKLOADS
from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
# One BLAS thread: the stacked engine issues many small batched calls that
# OpenBLAS does not split, and a second spinning thread only adds noise.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "par_solve_s": "s",
    "seq_solve_s": "s",
    "par_over_seq": "ratio",
    "write_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    """Run one interpreter to completion and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {argv[0]} {argv[1]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timing(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    out = {"median": statistics.median(v), "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = v[n - 11]
    return out


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    worker = [str(HERE / "worker.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    probes = [run_child(worker + ["setup"] + common, deadline) for _ in range(SETUP_PROBES)]
    res = run_child(worker + ["measure"] + common + ["--seconds", str(args.seconds)], deadline)
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    setups_raw = [p["setup_raw_s"] for p in probes] + [res["setup_raw_s"]]
    wall = {k: [w for w, _ in v] for k, v in res["samples"].items()}
    ref = {k: [r for _, r in v] for k, v in res["samples"].items()}
    stats = {
        "setup_s": timing(setups),
        "par_solve_s": timing(ref["par"]),
        "seq_solve_s": timing(ref["seq"]),
        "par_over_seq": timing([p / s for p, s in zip(wall["par"], wall["seq"])]),
        "write_s": timing(ref["write"]),
    }
    for name, key in (("par_solve_s", "par"), ("seq_solve_s", "seq"), ("write_s", "write")):
        stats[name]["raw"] = statistics.median(wall[key])
    stats["setup_s"]["raw"] = statistics.median(setups_raw)
    values = {k: v["median"] for k, v in stats.items()}
    values["peak_rss_mb"] = res["peak_rss_mb"]
    values["pass_rate"] = 1.0 - res["failed"] / res["attempted"]
    problems = [] if res["write_error"] is None else [res["write_error"]]
    record = dict(res, stats=stats, problems=problems, error_rate=res["failed"] / res["attempted"])
    return values, record


def traced(args, deadline: float) -> tuple[dict, dict]:
    argv = [str(HERE / "worker.py"), "trace", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    res = run_child(argv, deadline)
    return res["metrics"], res


def run_one(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        values, record = traced(args, deadline)
        units = {m.name: m.unit for m in PER_LAYER}
    else:
        values, record = end_to_end(args, deadline)
        units = END_TO_END_UNITS
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} missing or unexpected")
    stats = record.get("stats", {})
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, unit in units.items():
        extra = "  ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in stats.get(name, {}).items() if k != "median")
        print(f"  {name:34s} {values[name]:>14.6g} {unit:6s} {extra}")
    print(f"  error_rate {record['failed']}/{record['attempted']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print("env " + json.dumps(record["env"]))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    result = {
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own run.py process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S + 10)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args()
    if not (ROOT / "src" / "tempo_dp" / "__init__.py").is_file():
        print(f"perfbench: no tempo_dp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
