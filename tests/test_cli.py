"""CLI tests: exit codes, output files, cross-backend deviation records."""

import csv
import math
import re

import numpy as np
import pytest

from helpers import README, readme_cli_examples
from tempo_dp import cli, finite_dp, lqt, nonlinear, scenarios
from tempo_dp.errors import SolverError


def read_runs(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestMain:
    def test_routing_both_backends(self, tmp_path):
        rc = cli.main(
            ["routing", "--T", "64", "--Dx", "5", "--backend", "both",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = read_runs(tmp_path / "runs.csv")
        assert {r["backend"] for r in rows} == {"sequential", "parallel"}
        for r in rows:
            assert float(r["max_seq_par_deviation"]) == 0.0  # exact arithmetic
        par = next(r for r in rows if r["backend"] == "parallel")
        # the backward scan covers T stage elements plus the terminal one
        assert int(par["combine_depth"]) <= 2 * int(np.ceil(np.log2(64 + 1))) + 1
        seq = next(r for r in rows if r["backend"] == "sequential")
        assert int(seq["combine_depth"]) == 64  # T elements + terminal, minus one
        assert (tmp_path / "trajectory.csv").exists()

    def test_tracking_parallel_only(self, tmp_path):
        rc = cli.main(
            ["tracking2d", "--T", "100", "--backend", "par", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = read_runs(tmp_path / "runs.csv")
        assert len(rows) == 1 and rows[0]["max_seq_par_deviation"] == ""

    def test_tracking_both_within_tolerance(self, tmp_path):
        rc = cli.main(
            ["tracking2d", "--T", "1000", "--backend", "both", "--traj-method", "2",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = read_runs(tmp_path / "runs.csv")
        assert all(float(r["max_seq_par_deviation"]) <= 1e-7 for r in rows)

    def test_block_size_condensing(self, tmp_path):
        T, B = 120, 4
        n = T // B + 1  # condensed stage elements plus the terminal one
        for method in ("1", "2"):
            out = tmp_path / method
            rc = cli.main(
                ["tracking2d", "--T", str(T), "--backend", "both", "--block-size", str(B),
                 "--traj-method", method, "--out", str(out)]
            )
            assert rc == 0
            rows = read_runs(out / "runs.csv")
            assert all(float(r["max_seq_par_deviation"]) <= 1e-7 for r in rows)
            # the parallel row reports the scan over the condensed problem
            par = next(r for r in rows if r["backend"] == "parallel")
            assert int(par["combine_count"]) <= 2 * n - 2
            assert int(par["combine_depth"]) <= 2 * int(np.ceil(np.log2(n))) + 1
            # so does the sequential row: Riccati ran over the T/B condensed steps
            seq = next(r for r in rows if r["backend"] == "sequential")
            assert int(seq["combine_count"]) == T // B
            assert int(seq["combine_depth"]) == T // B

    @pytest.mark.parametrize(
        "argv",
        [["routing", "--T", "16", "--Dx", "5"],
         ["unicycle", "--T", "20"]],
        ids=["routing", "unicycle"],
    )
    def test_block_size_rejected_off_lqt(self, tmp_path, argv, capsys):
        rc = cli.main(argv + ["--block-size", "4", "--out", str(tmp_path)])
        assert rc == 1
        assert "LQT scenarios only" in capsys.readouterr().err
        assert not (tmp_path / "runs.csv").exists()

    def test_block_size_zero_rejected(self, tmp_path, capsys):
        rc = cli.main(["tracking2d", "--T", "64", "--block-size", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert "block size must be >= 1" in capsys.readouterr().err

    def test_mass_spring(self, tmp_path):
        rc = cli.main(
            ["mass_spring", "--T", "100", "--N", "3", "--backend", "both",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = read_runs(tmp_path / "runs.csv")
        assert all(float(r["max_seq_par_deviation"]) <= 1e-7 for r in rows)

    def test_unicycle(self, tmp_path):
        rc = cli.main(
            ["unicycle", "--T", "50", "--backend", "both", "--iters", "4",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = read_runs(tmp_path / "runs.csv")
        assert all(float(r["max_seq_par_deviation"]) <= 1e-6 for r in rows)

    def test_unicycle_stats_without_re_solve(self, tmp_path, monkeypatch):
        calls = []
        original = lqt.parallel_backward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lqt, "parallel_backward", counting)
        iters = 3
        rc = cli.main(
            ["unicycle", "--T", "30", "--backend", "both", "--iters", str(iters),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert len(calls) == iters  # the parallel backend's one solve
        rows = read_runs(tmp_path / "runs.csv")
        par = next(r for r in rows if r["backend"] == "parallel")
        assert 0 < int(par["combine_depth"]) <= 2 * int(np.ceil(np.log2(30 + 1))) + 1
        seq = next(r for r in rows if r["backend"] == "sequential")
        assert int(seq["combine_count"]) == int(seq["combine_depth"]) == 30

    def test_usage_error_exit_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["not_a_scenario", "--T", "10", "--out", str(tmp_path)])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["routing", "--out", str(tmp_path)])  # missing --T
        assert exc.value.code == 1

    def test_builder_error_exit_1(self, tmp_path):
        rc = cli.main(["tracking2d", "--T", "5", "--out", str(tmp_path)])
        assert rc == 1  # horizon too short for the waypoint layout

    def test_solver_error_exit_2(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "run_scenario", boom)
        rc = cli.main(["routing", "--T", "8", "--out", str(tmp_path)])
        assert rc == 2

    def test_trajectory_csv_header(self, tmp_path):
        cli.main(["routing", "--T", "16", "--backend", "par", "--out", str(tmp_path)])
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "k,x_1,u_1"


class TestRunScenario:
    def test_library_backend_names(self):
        p = cli.build_scenario("tracking2d", 64)
        records, outputs = cli.run_scenario("tracking2d", p, backend="both")
        assert set(outputs) == {"sequential", "parallel"}
        assert [r.backend for r in records] == ["sequential", "parallel"]
        with pytest.raises(ValueError, match="unknown backend"):
            cli.run_scenario("tracking2d", p, backend="seq")

    @pytest.mark.parametrize("traj_method", [1, 2])
    @pytest.mark.parametrize("N", [0, 16])
    def test_routing_controls_along_trajectory(self, N, traj_method):
        if N:
            p = scenarios.build_routing(5, N, seed=2)
        else:
            p = finite_dp.FiniteProblem(D_x=3, D_u=2, S=0, T=0, f=np.empty((0, 3, 2)),
                                        ell=np.empty((0, 3, 2)), ell_T=[1.0, 0.0, 2.0], x_S=2)
        records, outputs = cli.run_scenario("routing", p, backend="both", traj_method=traj_method)
        xs, us = outputs["parallel"]
        pol = finite_dp.seq_bellman(p)
        assert xs.shape == (N + 1,) and us.shape == (N,)
        np.testing.assert_array_equal(us, [pol.u[k, int(xs[k])] for k in range(N)])
        np.testing.assert_array_equal(outputs["sequential"][1], us)
        assert all(r.max_seq_par_deviation == 0.0 for r in records)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="^unknown scenario 'nope'$"):
            cli.build_scenario("nope", 16)

    @pytest.mark.parametrize("backend", ["sequential", "parallel", "both"])
    def test_routing_unknown_trajectory_method(self, backend):
        p = cli.build_scenario("routing", 16)
        with pytest.raises(ValueError, match="unknown trajectory method 3"):
            cli.run_scenario("routing", p, backend=backend, traj_method=3)

    @pytest.mark.parametrize("backend", ["sequential", "parallel", "both"])
    @pytest.mark.parametrize(
        "name, module, entry",
        [("tracking2d", lqt, "solve"), ("routing", finite_dp, "solve"), ("unicycle", nonlinear, "ilqt")],
    )
    def test_one_solve_per_backend(self, name, module, entry, backend, monkeypatch):
        calls = []
        original = getattr(module, entry)

        def counting(*args, **kwargs):
            calls.append(kwargs.get("backend") or args[1])  # ilqt takes its backend by keyword
            return original(*args, **kwargs)

        monkeypatch.setattr(module, entry, counting)
        records, outputs = cli.run_scenario(name, cli.build_scenario(name, 32), backend=backend, iters=2)
        want = ["sequential", "parallel"] if backend == "both" else [backend]
        assert calls == want
        assert [r.backend for r in records] == want and list(outputs) == want
        assert all(r.T == 32 for r in records)


@pytest.mark.parametrize("argv", readme_cli_examples(),
                         ids=lambda argv: "-".join(word.lstrip("-") for word in argv))
def test_readme_example(argv, tmp_path):
    # each README example is a --backend both run; its two rows must agree
    # and report the combine trees of a chain and of the scan
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    rows = {row["backend"]: row for row in read_runs(tmp_path / "runs.csv")}
    assert sorted(rows) == ["parallel", "sequential"]
    bound = 0.0 if argv[0] == "routing" else 1e-6  # routing is exact
    for row in rows.values():
        assert float(row["max_seq_par_deviation"]) <= bound  # also fails on NaN
    B = int(argv[argv.index("--block-size") + 1]) if "--block-size" in argv else 1
    n = int(rows["sequential"]["T"]) // B  # the steps the backward pass covers
    # the sequential pass is n combines in a chain; the scan's tree makes
    # 2n - popcount(n) of them, at most 2 ceil(log2(n + 1)) + 1 deep
    seq, par = ((int(rows[be]["combine_count"]), int(rows[be]["combine_depth"]))
                for be in ("sequential", "parallel"))
    assert seq == (n, n)
    assert par[0] == 2 * n - bin(n).count("1")
    assert 0 < par[1] <= 2 * math.ceil(math.log2(n + 1)) + 1


def test_readme_library_sketch():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (library sketch)", "exec"), {"__name__": "__main__"})
