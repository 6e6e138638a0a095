"""Benchmark CLI: build a scenario, run sequential/parallel solvers, check
equivalence, and emit trajectory + run-record CSVs.

Exit codes: 0 success, 1 usage error, 2 solver error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import finite_dp, lqt, nonlinear, scenarios
from .errors import SolverError

__all__ = ["RunRecord", "build_scenario", "run_scenario", "main"]

SCENARIOS = ("tracking2d", "mass_spring", "routing", "unicycle")


@dataclass
class RunRecord:
    scenario: str
    backend: str
    T: int
    wall_ms: float
    combine_count: int
    combine_depth: int
    max_seq_par_deviation: float | None = None


def build_scenario(name: str, T: int, N: int = 4, Dx: int = 5, seed: int = 0):
    """The problem of scenario ``name`` over T steps."""
    if name == "tracking2d":
        return scenarios.build_tracking2d(T, seed=seed)
    if name == "mass_spring":
        return scenarios.build_mass_spring(N, T)
    if name == "routing":
        return scenarios.build_routing(Dx, T, seed=seed)
    if name == "unicycle":
        return scenarios.build_unicycle(T, seed=seed)
    raise ValueError(f"unknown scenario {name!r}")


def run_scenario(
    name: str,
    problem,
    backend: str = "both",
    traj_method: int = 1,
    block_size: int | None = None,
    iters: int = 10,
) -> tuple[list[RunRecord], dict]:
    """Solve ``problem`` once per requested backend; collect its
    trajectories and records.

    ``backend`` is "sequential", "parallel" or "both". LQT scenarios go
    through :func:`lqt.solve` and finite-state ones through
    :func:`finite_dp.solve`; ``block_size`` applies to LQT only. A record's
    ``wall_ms`` is the wall time of the one solve whose outputs are
    returned, first-call costs included (``perfbench/run.py`` times
    solves). The sequential row reports a backward pass over the N steps of
    the problem actually solved as N combines of depth N.
    """
    is_lqt = isinstance(problem, lqt.LqtProblem)
    if block_size is not None and not is_lqt:
        raise ValueError(f"block size applies to LQT scenarios only, not {name}")
    backends = ("sequential", "parallel") if backend == "both" else (backend,)
    records: list[RunRecord] = []
    outputs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for be in backends:
        if is_lqt:
            solve = partial(lqt.solve, problem, be, traj_method, block_size)
        elif isinstance(problem, finite_dp.FiniteProblem):
            solve = partial(finite_dp.solve, problem, be, traj_method)
        else:
            solve = partial(nonlinear.ilqt, problem, iters=iters, backend=be,
                            traj_method=traj_method, return_stats=True)
        t0 = time.perf_counter()
        xs, us, *_, stats = solve()  # ilqt's costs dropped
        ms = (time.perf_counter() - t0) * 1e3
        outputs[be] = (np.asarray(xs, dtype=np.float64), np.asarray(us, dtype=np.float64))
        records.append(RunRecord(name, be, problem.N, ms, stats.combine_count, stats.combine_depth))
    if len(backends) == 2:
        xs_a, us_a = outputs["sequential"]
        xs_b, us_b = outputs["parallel"]
        dev = float(np.max(np.abs(xs_a - xs_b)))
        if us_a.size:
            dev = max(dev, float(np.max(np.abs(us_a - us_b))))
        for rec in records:
            rec.max_seq_par_deviation = dev
    return records, outputs


def write_runs_csv(path, records: list[RunRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["scenario", "backend", "T", "wall_ms", "combine_count", "combine_depth",
             "max_seq_par_deviation"]
        )
        for r in records:
            dev = "" if r.max_seq_par_deviation is None else repr(r.max_seq_par_deviation)
            w.writerow([r.scenario, r.backend, r.T, f"{r.wall_ms:.3f}",
                        r.combine_count, r.combine_depth, dev])


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tempo-dp",
        description="Temporal-parallel optimal control benchmarks "
        "(off-grid moves in the routing scenario are infeasible, not clamped).",
    )
    ap.add_argument("scenario", choices=SCENARIOS)
    ap.add_argument("--T", type=int, required=True, help="number of time steps")
    ap.add_argument("--N", type=int, default=4, help="mass count (mass_spring)")
    ap.add_argument("--Dx", type=int, default=5, help="state count (routing)")
    ap.add_argument("--backend", choices=("seq", "par", "both"), default="both")
    ap.add_argument("--traj-method", type=int, choices=(1, 2), default=1)
    ap.add_argument("--block-size", type=int, default=None,
                    help="partial condensing block size (tracking2d, mass_spring)")
    ap.add_argument("--iters", type=int, default=10, help="linearization iterations (unicycle)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="output directory")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        problem = build_scenario(args.scenario, args.T, N=args.N, Dx=args.Dx, seed=args.seed)
    except ValueError as exc:
        print(f"tempo-dp: error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        records, outputs = run_scenario(
            args.scenario,
            problem,
            backend={"seq": "sequential", "par": "parallel"}.get(args.backend, args.backend),
            traj_method=args.traj_method,
            block_size=args.block_size,
            iters=args.iters,
        )
    except ValueError as exc:
        print(f"tempo-dp: error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"tempo-dp: solver error in {args.scenario}: {exc}", file=sys.stderr)
        return 2
    xs, us = outputs["parallel"] if "parallel" in outputs else outputs["sequential"]
    lqt.write_trajectory_csv(out_dir / "trajectory.csv", xs, us)
    write_runs_csv(out_dir / "runs.csv", records)
    for rec in records:
        dev = rec.max_seq_par_deviation
        dev = "" if dev is None else f"  max_seq_par_dev={dev:.3e}"
        print(
            f"{rec.scenario} {rec.backend}: T={rec.T} wall={rec.wall_ms:.3f} ms "
            f"combines={rec.combine_count} depth={rec.combine_depth}{dev}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
