"""One fresh interpreter of the benchmark; run.py starts it and reads the
JSON object it prints as its last stdout line.

Modes:
  setup    import tempo_dp, build the workload, warm up both paths, report
           the time that took (one set-up sample);
  measure  the same set-up, then interleaved (parallel, oracle) solve pairs
           and the CLI's output step for ``--seconds``;
  trace    the same set-up, then traced and untraced repetitions, spans
           written to .perfbench_out/, and a tracemalloc pass.
"""

import time

T0 = time.perf_counter()  # set-up is timed from interpreter start, before any import

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path

import layers
import reference
import tracer as tracer_mod
import workloads
from tempo_dp import finite_dp, lqt

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

MIN_PAIRS = 5
MAX_RAISES = 5  # give up when this many pairs raised and none completed
MIN_REPS = 3


def _wall(fn):
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return wall, wall, out


def run_pair(case, par_first: bool, clock=None):
    """Time one parallel solve and one oracle solve, in the given order.

    Returns ({side: (wall s, reference s)}, parallel result, failure reason
    or None); the times are None when a solve raised. Without a
    reference.Clock both times are wall seconds.
    """
    timed = clock.time if clock else _wall
    times, outs = {}, {}
    side = "par"
    try:
        for side in ("par", "seq") if par_first else ("seq", "par"):
            wall, scaled, outs[side] = timed(case.par if side == "par" else case.seq)
            times[side] = (wall, scaled)
    except Exception as exc:  # a raising solve is a failed solve, not a crashed run
        traceback.print_exc()
        return None, None, f"{side} solve raised {type(exc).__name__}: {exc}"
    return times, outs["par"], case.check(outs["par"], outs["seq"])


def measure(case, seconds: float, out_dir: Path) -> dict:
    """Solve pairs for ``seconds``, each followed by the output step on its
    parallel result; every step is timed in wall and reference seconds."""
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = reference.Clock()
    start = time.perf_counter()
    samples = {"par": [], "seq": [], "write": []}
    attempted = failed = 0
    write_error = None
    while len(samples["par"]) < MIN_PAIRS or time.perf_counter() - start < seconds:
        times, par_out, err = run_pair(case, attempted % 2 == 0, clock)
        attempted += 1
        if err is not None:
            failed += 1
            print(f"perfbench: failed solve: {err}", file=sys.stderr)
        if times is None:
            if attempted >= MAX_RAISES and not samples["par"]:
                raise SystemExit("perfbench: every solve raised")
            continue
        wall_ms = {k: 1e3 * v[0] for k, v in times.items()}
        times["write"] = clock.time(lambda: workloads.write_outputs(case, out_dir, par_out, wall_ms))[:2]
        for k, v in times.items():
            samples[k].append(v)
        if len(samples["write"]) == 1:
            write_error = workloads.check_outputs(out_dir, par_out)
    return {
        "samples": samples,  # step -> [(wall s, reference s)]
        "attempted": attempted,
        "failed": failed,
        "write_error": write_error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(case, args, out_dir: Path) -> dict:
    tr = tracer_mod.Tracer()
    expected = workloads.EXPECTED_SPANS[args.workload]
    dim = getattr(case.problem, "D_x", 0)
    reps, traced_t, untraced_t, problems = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    clock = reference.Clock()
    while r < MIN_REPS or time.perf_counter() - start < args.seconds:
        outs = []
        for on in (False, True) if r % 2 == 0 else (True, False):
            if on:
                with tr.installed(), tr.solve(f"par-{r}"):
                    wall, scaled, out = clock.time(case.par)
                traced_t.append(scaled)
                scale = scaled / wall
            else:
                _, scaled, out = clock.time(case.par)
                untraced_t.append(scaled)
            outs.append(out)
        with tr.installed():
            with tr.solve(f"seq-{r}"):
                seq_out = case.seq()
            with tr.solve(f"build-{r}"):
                workloads.build(args.workload, args.seed, args.tiny)
            out_dir.mkdir(parents=True, exist_ok=True)
            with tr.solve(f"write-{r}"):
                workloads.write_outputs(case, out_dir, outs[0], {"par": 0.0, "seq": 0.0})
        for par_out in outs:
            attempted += 1
            err = case.check(par_out, seq_out)
            if err is not None:
                failed += 1
                print(f"perfbench: failed solve: {err}", file=sys.stderr)
        for kind, names in expected.items():
            seen = tr.summary(f"{kind}-{r}")[0]
            missing = [n for n in names if n not in seen]
            if missing:
                raise SystemExit(f"perfbench: expected spans never fired in the {kind} step: {missing}")
        problems += layers.depth_violations(tr.summary(f"par-{r}")[1])
        values = layers.rep_values(tr, f"par-{r}", f"seq-{r}", f"build-{r}", f"write-{r}", dim)
        reps.append(layers.scaled(values, scale))
        r += 1

    counts = {k: reps[0][k] for k in layers.EXACT}
    for rep in reps[1:]:
        for k in layers.EXACT:
            if rep[k] != counts[k]:
                problems.append(f"{k} changed between repetitions: {counts[k]} then {rep[k]}")
    problems += _compare_counts(args, counts)

    metrics = {k: statistics.median(rep[k] for rep in reps) for k in reps[0]}
    metrics.update(_peaks(case))
    metrics["trace.overhead_s"] = statistics.median(traced_t) - statistics.median(untraced_t)
    OUT.mkdir(exist_ok=True)
    tr.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return {
        "metrics": metrics,
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "traced_par_s": statistics.median(traced_t),
        "untraced_par_s": statistics.median(untraced_t),
    }


def _peaks(case) -> dict:
    """tracemalloc peak above the entry level, per wrapped call, in its own pass."""
    peaks = {"lqt.par_backward_peak_mb": 0.0, "finite_dp.solve_backward_peak_mb": 0.0}

    def peak(name):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    peaks[name] = max(peaks[name], mb)

            return wrapper

        return wrap

    tracemalloc.start()
    try:
        with tracer_mod.patched({
            (lqt, "parallel_backward"): peak("lqt.par_backward_peak_mb"),
            (finite_dp, "solve_backward"): peak("finite_dp.solve_backward_peak_mb"),
        }):
            case.par()
    finally:
        tracemalloc.stop()
    return peaks


def _compare_counts(args, counts: dict) -> list[str]:
    """Exact counts must match the last traced run of the same sources."""
    key = f"{args.workload}/{'tiny' if args.tiny else 'full'}/{source_sha256()}"
    path = OUT / "counts.json"
    OUT.mkdir(exist_ok=True)
    known = json.loads(path.read_text()) if path.is_file() else {}
    before = known.get(key)
    known[key] = counts
    path.write_text(json.dumps(known, indent=1))
    if before is not None and before != counts:
        return [f"exact counts {counts} differ from an earlier run of the same sources: {before}"]
    return []


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tempo_dp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    case = workloads.build(args.workload, args.seed, args.tiny)
    _, _, warmup_error = run_pair(case, True)
    setup_s = time.perf_counter() - T0
    out = {"setup_raw_s": setup_s, "setup_s": setup_s * reference.scale()}
    out_dir = OUT / f"out-{args.workload}-{os.getpid()}"
    if args.mode == "measure":
        out.update(measure(case, args.seconds, out_dir))
    elif args.mode == "trace":
        out.update(trace(case, args, out_dir))
    if args.mode != "setup":
        out["attempted"] += 1  # the warm-up pair is checked too
        if warmup_error is not None:
            out["failed"] += 1
            print(f"perfbench: failed warm-up solve: {warmup_error}", file=sys.stderr)
        out["env"] = environment(args.seed)
        for name in ("trajectory.csv", "runs.csv"):
            (out_dir / name).unlink(missing_ok=True)
        if out_dir.is_dir():
            out_dir.rmdir()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
