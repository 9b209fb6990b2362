"""CLI: metrics, policy files, sweep CSVs, subcommands, exit codes."""
from __future__ import annotations

import argparse
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacherec import cli, data, markov, policies, sim
from cacherec.cli import (EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_SOLVER, SweepSpec, apply_axis,
                          build_parser, gain, main, mph, read_policy_csv, run_sweep,
                          write_policy_csv, write_sweep_csv)
from cacherec.data import scenario_from_config
from cacherec.model import Policy, baseline_policy, validate_policy
from cacherec.policies import solve_named
from _oracles import dense_policy_csv, dense_validate_policy, sweep_each_cell
from conftest import (assert_canonical, bad_solver_cmd, random_positional_policy,
                      random_scenario, random_slate_policy, random_uniform_policy)


class TestGain:
    def test_tripling_is_200_percent(self):
        assert gain(60.0, 20.0) == pytest.approx(200.0)

    def test_equal_inputs_zero(self):
        assert gain(0.42, 0.42) == pytest.approx(0.0)

    def test_fifty_percent(self):
        assert gain(1.5, 1.0) == pytest.approx(50.0)

    def test_zero_reference_undefined(self):
        assert gain(0.5, 0.0) is None

    def test_scale_invariant_and_antisymmetric_around_equal(self):
        assert gain(0.6, 0.2) == pytest.approx(gain(6.0, 2.0))
        assert gain(0.25, 0.2) == pytest.approx(25.0)
        assert gain(0.15, 0.2) == pytest.approx(-25.0)


class TestMph:
    def test_half_popularity_cached(self):
        assert mph(np.array([0.5, 0.3, 0.2]), np.array([0.0, 1.0, 1.0])) == pytest.approx(50.0)

    def test_everything_cached(self):
        assert mph(np.array([0.5, 0.5]), np.zeros(2)) == pytest.approx(100.0)

    def test_nothing_cached(self):
        assert mph(np.array([0.5, 0.5]), np.ones(2)) == pytest.approx(0.0)

    def test_requires_binary_costs(self):
        with pytest.raises(ValueError):
            mph(np.array([1.0]), np.array([0.5]))


class TestPolicyFiles:
    def test_uniform_round_trip(self, tmp_path, rng):
        s = random_scenario(rng, k=6, n=2)
        p = random_uniform_policy(rng, s)
        f = tmp_path / "p.csv"
        write_policy_csv(f, p, meta={"note": "test"})
        back = read_policy_csv(f)
        assert not back.is_positional
        assert np.allclose(back.mats, p.mats, atol=0)

    def test_positional_round_trip(self, tmp_path, rng):
        s = random_scenario(rng, k=5, n=2, v="skewed")
        p = random_positional_policy(rng, s)
        f = tmp_path / "p.csv"
        write_policy_csv(f, p)
        back = read_policy_csv(f)
        assert back.is_positional
        assert np.allclose(back.mats, p.mats, atol=0)

    def test_missing_metadata_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("i,j,r\n0,1,1.0\n")
        with pytest.raises(ValueError, match="metadata"):
            read_policy_csv(f)

    UNIFORM_HEAD = "# cacherec-policy v1\n# variant: uniform\n# k: 3\ni,j,r\n"
    POSITIONAL_HEAD = ("# cacherec-policy v1\n# variant: positional\n# k: 3\n"
                       "# slots: 2\nn,i,j,r\n")

    @pytest.mark.parametrize("text,match", [
        (UNIFORM_HEAD + "0,1,1.0\n-1,0,1.0\n", r"line 6: content index outside 0\.\.2"),
        (UNIFORM_HEAD + "0,-1,1.0\n", r"line 5: content index outside"),
        (UNIFORM_HEAD + "3,0,1.0\n", r"line 5: content index outside"),
        (UNIFORM_HEAD + "0,3,1.0\n", r"line 5: content index outside"),
        (POSITIONAL_HEAD + "0,0,1,1.0\n", r"line 6: slot 0 outside 1\.\.2"),
        (POSITIONAL_HEAD + "3,0,1,1.0\n", r"line 6: slot 3 outside 1\.\.2"),
        (POSITIONAL_HEAD + "1,0,5,1.0\n", r"line 6: content index outside"),
        (UNIFORM_HEAD + "0,1\n", r"line 5: expected 3 fields"),
        (UNIFORM_HEAD + "0,1,nan\n", r"line 5: value 'nan' is not finite"),
        (UNIFORM_HEAD.split("\n", 1)[1] + "0,1,1.0\n", r"line 1: missing metadata header"),
        (UNIFORM_HEAD.replace("i,j,r\n", ""),
         r"line 4: end of file, expected the column header line"),
        ("\n", r"line 2: end of file, expected metadata header '# cacherec-policy v1'"),
    ], ids=["negative-row", "negative-col", "row-beyond-k", "col-beyond-k", "slot-zero",
            "slot-beyond", "positional-col-beyond-k", "short-entry", "nan-value",
            "no-header", "eof-before-column-header", "eof-before-schema"])
    def test_malformed_entries_rejected(self, tmp_path, text, match):
        f = tmp_path / "p.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=match) as err:
            read_policy_csv(f)
        assert str(f) in str(err.value)

    def test_column_header_required(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(self.UNIFORM_HEAD.replace("i,j,r\n", "") + "0,1,1.0\n1,0,1.0\n")
        with pytest.raises(ValueError, match=r"line 4: expected column header 'i,j,r'"):
            read_policy_csv(f)

    def test_metadata_after_column_header_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(self.UNIFORM_HEAD + "0,1,1.0\n# k: 4\n")
        with pytest.raises(ValueError, match=r"line 6: k metadata after the column header"):
            read_policy_csv(f)

    def test_eval_bad_index_exits_io(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("graph: {kind: matrix, u: [[0,1,1],[1,0,1],[1,1,0]]}\n"
                       "p0: [0.4, 0.3, 0.3]\nc: [0, 1, 1]\nalpha: 0.8\nn: 1\nq: 0\n")
        f = tmp_path / "p.csv"
        f.write_text(self.UNIFORM_HEAD + "0,1,1.0\n1,7,1.0\n2,0,1.0\n")
        assert main(["eval", "--config", str(cfg), "--policy", str(f)]) == EXIT_IO
        assert "content index outside" in capsys.readouterr().err

    def test_eval_unallocatable_declared_size_exits_io(self, tmp_path, capsys):
        # numpy refuses a 71 PiB array at once, so nothing large is allocated.
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("graph: {kind: poisson, k: 10}\n")
        f = tmp_path / "p.csv"
        f.write_text(self.UNIFORM_HEAD.replace("# k: 3", "# k: 100000000") + "0,1,1.0\n")
        assert main(["eval", "--config", str(cfg), "--policy", str(f)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f} line 4: declared size 100000000 x 100000000 "
                              "cannot be allocated")

    def test_declared_size_allocates_nothing_dense(self, tmp_path):
        # A 10 000-content policy with two entries: the reader's memory is
        # its row pointer, not the 800 MB dense view.
        f = tmp_path / "p.csv"
        f.write_text(self.UNIFORM_HEAD.replace("# k: 3", "# k: 10000") + "0,1,1.0\n9999,5,0.5\n")
        tracemalloc.start()
        try:
            policy = read_policy_csv(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"reader peaked at {peak / 1e6:.1f} MB"
        assert policy.k == 10_000 and policy.data.tolist() == [1.0, 0.5]

    def test_eval_declared_slots_beyond_k_exits_io(self, tmp_path, capsys):
        # Its dense view is only 8 GB, but 10**9 rows would need an 8 GB row
        # pointer; the slot count is refused before anything is allocated.
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("graph: {kind: poisson, k: 10}\n")
        f = tmp_path / "p.csv"
        f.write_text(self.POSITIONAL_HEAD.replace("# k: 3", "# k: 1")
                     .replace("# slots: 2", "# slots: 1000000000") + "1,0,0,1.0\n")
        tracemalloc.start()
        try:
            code = main(["eval", "--config", str(cfg), "--policy", str(f)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_IO
        assert peak < 1e7, f"eval peaked at {peak / 1e6:.1f} MB"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f} line 5: slots 1000000000 must be below k = 1")


def without_wall_time(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]


class TestSweep:
    def small_cfg(self):
        return {
            "graph": {"kind": "poisson", "k": 14, "mean_degree": 4},
            "n": 2, "alpha": 0.7, "q": 0.8, "zipf_s": 0.6,
            "cache_size": 2, "seed": 11,
        }

    def test_axis_application(self):
        cfg = self.small_cfg()
        assert apply_axis(cfg, "q", 0.5)["q"] == 0.5
        assert apply_axis(cfg, "alpha", 0.9)["alpha"] == 0.9
        assert apply_axis(cfg, "N", 3)["n"] == 3
        assert apply_axis(cfg, "C", 5)["cache_size"] == 5
        assert apply_axis(cfg, "s", 1.0)["zipf_s"] == 1.0
        hv = apply_axis(cfg, "Hv", 0.9)
        assert len(hv["v"]) == 2
        assert hv["v"][0] > hv["v"][1]
        with pytest.raises(ValueError):
            apply_axis(cfg, "bogus", 1)
        assert cfg == self.small_cfg()  # the copies left the config as it was

    def test_axis_counts_refuse_fractions(self):
        """N and C are counts, as in a config or a SweepSpec: 3.0 is 3, and a
        fraction or a bool raises naming the key instead of truncating."""
        cfg = self.small_cfg()
        assert apply_axis(cfg, "N", 3.0)["n"] == 3
        assert apply_axis(cfg, "C", 4.0)["cache_size"] == 4
        for axis, value, key in (("N", 2.5, "n"), ("C", 3.7, "cache_size"), ("N", True, "n")):
            with pytest.raises(ValueError, match=f"config key '{key}' must be a whole number"):
                apply_axis(cfg, axis, value)

    def test_rows_ordered_and_dominant(self):
        spec = SweepSpec(config=self.small_cfg(), axis="q",
                         values=[0.7, 0.9], policies=["P1", "P2"])
        rows = run_sweep(spec)
        assert [(r["value"], r["policy"]) for r in rows] == [
            (0.7, "P1"), (0.7, "P2"), (0.9, "P1"), (0.9, "P2")]
        for i in (0, 2):
            assert rows[i + 1]["chr"] >= rows[i]["chr"] - 1e-9
        # gain of the reference against itself is zero
        assert rows[0]["gain_pct"] == pytest.approx(0.0)
        assert rows[1]["gain_pct"] >= -1e-9

    def test_csv_deterministic_modulo_wall_time(self, tmp_path):
        spec = SweepSpec(config=self.small_cfg(), axis="q",
                         values=[0.8], policies=["P1", "P2"])
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(f1, spec, run_sweep(spec))
        write_sweep_csv(f2, spec, run_sweep(spec))

        def strip_wall(path):
            return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

        assert strip_wall(f1) == strip_wall(f2)

    def test_worker_pool_matches_sequential(self):
        cfg = self.small_cfg()
        seq = run_sweep(SweepSpec(config=cfg, axis="q", values=[0.7, 0.9],
                                  policies=["P1", "P2"], workers=1))
        par = run_sweep(SweepSpec(config=cfg, axis="q", values=[0.7, 0.9],
                                  policies=["P1", "P2"], workers=2))

        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

        assert strip(seq) == strip(par)

    def test_failed_cell_recorded(self):
        # Scenario requires N < K, so the N=50 cells fail and the N=2 cells solve.
        spec = SweepSpec(config=self.small_cfg(), axis="N", values=[2, 50],
                         policies=["P1", "P2"])
        rows = run_sweep(spec)
        assert [row["status"] for row in rows[:2]] == ["ok", "ok"]
        assert all(row["status"].startswith("error") for row in rows[2:])

    def test_alpha_zero_session_cell_solves(self):
        cfg = self.small_cfg()
        cfg["alpha"] = 0.0  # no recommendation is followed: LTEC is p0'c for any policy
        rows = run_sweep(SweepSpec(config=cfg, axis="q", values=[0.8], policies=["P1", "P2"]))
        assert [row["status"] for row in rows] == ["ok", "ok"]
        scenario, _ = scenario_from_config(apply_axis(cfg, "q", 0.8))
        assert rows[1]["ltec"] == pytest.approx(scenario.p0 @ scenario.c, abs=1e-12)

    def test_hv_axis_reports_entropy(self):
        spec = SweepSpec(config=self.small_cfg(), axis="Hv",
                         values=[0.9], policies=["P3"], reference="P3")
        rows = run_sweep(spec)
        assert rows[0]["status"] == "ok"
        assert 0.0 < rows[0]["value"] < 1.0  # realized click entropy

    @pytest.mark.parametrize("seeds", [[11], [11, 12]])
    @pytest.mark.parametrize("axis, values, names, graph", [
        ("q", [0.7, 0.95], ["baseline", "P1", "P2"], None),
        ("N", [2, 3, 10], ["P2", "P1"], None),  # N >= K = 10 fails
        ("alpha", [0.0, 0.8], ["baseline", "P1", "P2"], None),
        ("s", [0.3, 1.2], ["P1", "P2"], None),
        ("Hv", [0.5, 1.5], ["baseline", "P1", "P2", "P3"], None),
        ("C", [0, 3, 11], ["P1", "P2"], None),  # a cache of 11 > K fails
        ("q", [0.8, 0.9], ["P1", "P2"], {"kind": "poisson"}),  # no k
        ("q", [0.8], ["P1", "P2"], {"kind": "poisson", "k": 10, "mean_degree": 12}),
        ("alpha", [0.7], ["P1"], {"kind": "matrix", "u": [[0, 1], [1]]}),
    ])
    def test_rows_match_per_cell_rebuild(self, axis, values, names, graph, seeds):
        """A replication is one sweep per seed. In each, sharing the seed's
        graph and each axis point's scenario changes no row; wall_time_s
        aside."""
        for seed in seeds:
            cfg = {**self.small_cfg(), "seed": seed,
                   "graph": graph or {"kind": "poisson", "k": 10, "mean_degree": 3}}
            spec = SweepSpec(config=cfg, axis=axis, values=values, policies=names)
            got = without_wall_time(run_sweep(spec))
            assert got == sweep_each_cell(spec)
            if graph is not None:
                assert all(row["status"].startswith("error: ValueError") for row in got)

    def test_failed_solve_marks_only_its_row(self, monkeypatch):
        """P2 fails at q = 0.9 only, and P1 with its solver setting everywhere:
        the baseline rows and P2 at q = 0.7 still solve."""
        cfg = {**self.small_cfg(), "graph": {"kind": "poisson", "k": 10, "mean_degree": 3}}
        solve = policies.solve_named

        def failing(name, scenario, **kw):
            if name == "P2" and scenario.q == 0.9:
                raise RuntimeError("no P2 here")
            return solve(name, scenario, **(kw if name == "P1" else {}))

        monkeypatch.setattr(policies, "solve_named", failing)
        spec = SweepSpec(config=cfg, axis="q", values=[0.7, 0.9],
                         policies=["baseline", "P1", "P2"], solve_kw={"method": "external"})
        rows = run_sweep(spec)
        no_cmd = "error: ValueError: method='external' needs external_cmd"
        assert [row["status"] for row in rows] == [
            "ok", no_cmd, "ok", "ok", no_cmd, "error: RuntimeError: no P2 here"]
        assert without_wall_time(rows) == sweep_each_cell(spec)

    def test_workers_match_per_cell_rebuild(self):
        spec = SweepSpec(config=self.small_cfg(), axis="N", values=[2, 3, 14],
                         policies=["P1", "P2"], workers=2)
        got = without_wall_time(run_sweep(spec))
        assert got == sweep_each_cell(spec)
        assert [row["status"] == "ok" for row in got] == [True] * 4 + [False] * 2

    @pytest.fixture
    def spy(self, monkeypatch):
        """Every `solve_named` call of a sweep as (policy, alpha, q, start);
        P2 fails wherever the list `fail_p2_at` holds the scenario's alpha."""
        calls, fail_p2_at, solve = [], [], policies.solve_named

        def spying(name, scenario, **kw):
            calls.append((name, scenario.alpha, scenario.q, kw.get("start")))
            if name == "P2" and scenario.alpha in fail_p2_at:
                raise RuntimeError("no P2 here")
            return solve(name, scenario, **kw)

        monkeypatch.setattr(policies, "solve_named", spying)
        return calls, fail_p2_at

    def test_alpha_chain_matches_cold_cells_for_any_workers(self, spy):
        """An alpha sweep is one chain in the order given: its rows do not
        depend on workers, keep the statuses of cold per-cell solves and
        reach their LTEC."""
        calls, _ = spy
        spec = dict(config={**self.small_cfg(), "n": 3, "v": [0.5, 0.3, 0.2]}, axis="alpha",
                    values=[0.95, 0.0, 0.5, 0.8], policies=["baseline", "P1", "P2", "P3"])
        rows = without_wall_time(run_sweep(SweepSpec(workers=1, **spec)))
        assert rows == without_wall_time(run_sweep(SweepSpec(workers=2, **spec)))
        starts = [(name, alpha, start.name, start.problem.scenario.alpha)
                  for name, alpha, _, start in calls[:16] if start is not None]
        assert starts == [("P2", 0.95, "P1", 0.95),
                          ("P2", 0.0, "P2", 0.95), ("P3", 0.0, "P3", 0.95),
                          ("P2", 0.5, "P2", 0.0), ("P3", 0.5, "P3", 0.0),
                          ("P2", 0.8, "P2", 0.5), ("P3", 0.8, "P3", 0.5)]
        cold = sweep_each_cell(SweepSpec(**spec))
        assert [row["status"] for row in rows] == [row["status"] for row in cold] == ["ok"] * 16
        for got, want in zip(rows, cold):
            assert got["ltec"] == pytest.approx(want["ltec"], abs=1e-9)

    def test_failed_row_breaks_the_chain_of_its_policy(self, spy):
        """P2 fails at alpha = 0.5, so P2 at the next point starts cold and
        equals the cold cell; P3's chain goes on."""
        calls, fail_p2_at = spy
        fail_p2_at.append(0.5)
        spec = SweepSpec(config=self.small_cfg(), axis="alpha", values=[0.3, 0.5, 0.9],
                         policies=["baseline", "P2", "P3"], reference="baseline")
        rows = without_wall_time(run_sweep(spec))
        assert [row["status"] for row in rows[3:6]] == [
            "ok", "error: RuntimeError: no P2 here", "ok"]
        started = {(name, alpha): start for name, alpha, _, start in calls}
        assert started[("P2", 0.9)] is None
        assert started[("P3", 0.9)].problem.scenario.alpha == 0.5
        assert rows[7] == sweep_each_cell(spec)[7]

    def test_failed_point_breaks_the_chain(self, spy):
        """alpha = 1 is a number, so the sweep takes it, but no scenario has
        it: the next point starts cold."""
        calls, _ = spy
        spec = SweepSpec(config=self.small_cfg(), axis="alpha", values=[0.6, 1.0, 0.8],
                         policies=["P2"], reference="P2")
        rows = without_wall_time(run_sweep(spec))
        assert rows[1]["status"].startswith("error: ValueError: alpha must be in [0, 1)")
        assert [(name, alpha, start) for name, alpha, _, start in calls] == [
            ("P2", 0.6, None), ("P2", 0.8, None)]
        assert rows == sweep_each_cell(spec)

    @pytest.mark.parametrize("names, p2_start", [(["P1", "P2"], "P1"), (["P2", "P1"], None)])
    def test_p2_starts_from_an_earlier_p1_of_its_point(self, spy, names, p2_start):
        """Off the alpha axis no point carries anything to the next; a P2 row
        starts from its point's P1 result when P1 came first."""
        calls, _ = spy
        spec = SweepSpec(config=self.small_cfg(), axis="q", values=[0.7, 0.9], policies=names)
        rows = without_wall_time(run_sweep(spec))
        assert len(calls) == 4
        for name, _, q, start in calls:
            want = p2_start if name == "P2" else None
            assert (start and start.name) == want
            assert start is None or start.problem.scenario.q == q
        assert rows == sweep_each_cell(spec)

    def test_lp_methods_pass_no_start(self, spy):
        calls, _ = spy
        run_sweep(SweepSpec(config=self.small_cfg(), axis="alpha", values=[0.5, 0.8],
                            policies=["P1", "P2"], solve_kw={"method": "highs"}))
        assert len(calls) == 4 and all(start is None for *_, start in calls)

    @pytest.fixture
    def started(self, monkeypatch):
        """The worker counts of the pools a sweep starts; the fake pool maps
        in this process."""
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        return started

    def test_pool_never_outnumbers_the_points(self, started):
        """A process pool starts all its workers at the first task, so a
        sweep asks for no more workers than it has axis points, and runs one
        point without a pool."""
        spec = dict(config=self.small_cfg(), axis="q", policies=["P1", "P2"])
        rows = run_sweep(SweepSpec(values=[0.7, 0.9], workers=64, **spec))
        assert started == [2]
        run_sweep(SweepSpec(values=[0.7], workers=64, **spec))
        assert started == [2]
        assert without_wall_time(rows) == without_wall_time(
            run_sweep(SweepSpec(values=[0.7, 0.9], **spec)))

    def test_pool_receives_whole_chains(self, started):
        """An alpha sweep is one task, so it starts no pool whatever its
        workers; each other axis value is a task."""
        spec = dict(config=self.small_cfg(), policies=["P1", "P2"], workers=8)
        run_sweep(SweepSpec(axis="alpha", values=[0.5, 0.6, 0.7], **spec))
        assert started == []
        run_sweep(SweepSpec(axis="q", values=[0.5, 0.6, 0.7], **spec))
        assert started == [3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_graph_fails_every_row(self, started, workers):
        """A graph that cannot be built is every row's status, and no row has
        a gain, whether the points would run in order or on the pool."""
        cfg = {**self.small_cfg(), "graph": {"kind": "poisson", "mean_degree": 3}}
        rows = run_sweep(SweepSpec(config=cfg, axis="alpha", values=[0.5, 0.7],
                                   policies=["baseline", "P1"], workers=workers))
        assert len(rows) == 4
        for row in rows:
            assert row["status"] == ("error: ValueError: config key 'graph.k' is required "
                                     "for a poisson graph")
            assert (row["chr"], row["gain_pct"], row["wall_time_s"]) == (None, None, 0.0)
        assert started == []  # no point could build its scenario

    @pytest.mark.parametrize("axis, key", [("q", "q"), ("alpha", "alpha"), ("s", "zipf_s"),
                                           ("Hv", "v")])
    @pytest.mark.parametrize("bad", [True, "0.5", None, np.array([0.5])],
                             ids=["bool", "string", "none", "array"])
    def test_spec_refuses_a_value_that_is_not_a_number(self, axis, key, bad):
        """Every value is judged by its config key's rule before any row
        runs: a bool or a string is not coerced to a number. An Hv value is
        the exponent of the clicks `v`."""
        with pytest.raises(ValueError, match=f"^config key '{key}' must be a number, got "):
            SweepSpec(config=self.small_cfg(), axis=axis, values=[0.5, bad], policies=["P1"])

    @pytest.mark.parametrize("axis, changes, err", [
        ("q", {"alpha": "abc"}, "config key 'alpha' must be a number, got 'abc'"),
        ("alpha", {"cache_size": 2.5}, "config key 'cache_size' must be a whole number"),
    ], ids=["alpha-string", "fractional-cache"])
    def test_spec_refuses_a_malformed_key_the_axis_does_not_set(self, axis, changes, err):
        """Each value's config is read by the config rules before any row
        runs, the keys the axis leaves alone included."""
        with pytest.raises(ValueError, match=f"^{err}"):
            SweepSpec(config={**self.small_cfg(), **changes}, axis=axis, values=[0.5, 0.9],
                      policies=["P1", "P2"])

    def test_unusable_lp_solution_fails_its_row(self, tmp_path):
        rows = run_sweep(SweepSpec(
            config=self.small_cfg(), axis="q", values=[0.8], policies=["baseline", "P2"],
            reference="baseline", solve_kw={"method": "external",
                                            "external_cmd": bad_solver_cmd(tmp_path, "z0")}))
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error: SolverFailure: P2: z_0 = 0.000e+00 is not "
                                            "strictly positive")

    def test_graph_built_once_per_seed(self, monkeypatch):
        calls = []
        gen = data.gen_poisson_graph

        def spy(k, mean_degree, seed):
            calls.append(seed)
            return gen(k, mean_degree, seed)

        monkeypatch.setattr(data, "gen_poisson_graph", spy)
        rows = run_sweep(SweepSpec(config=self.small_cfg(), axis="alpha",
                                   values=[0.5, 0.7, 0.9], policies=["baseline", "P1", "P2"]))
        assert [row["status"] for row in rows] == ["ok"] * 9
        assert calls == [11]  # one graph per sweep

    def test_wall_time_is_solve_time(self):
        rows = run_sweep(SweepSpec(config=self.small_cfg(), axis="N", values=[2, 14],
                                   policies=["P1", "P2"]))
        assert all(row["wall_time_s"] > 0.0 for row in rows[:2])
        assert [row["wall_time_s"] for row in rows[2:]] == [0.0, 0.0]  # no solve ran

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(config=self.small_cfg(), axis="zipf", values=[1])
        with pytest.raises(ValueError, match="at least one axis value"):
            SweepSpec(config=self.small_cfg(), axis="q", values=[])
        with pytest.raises(ValueError, match="unknown policies"):
            SweepSpec(config=self.small_cfg(), axis="q", values=[0.5], policies=["P9"])
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            SweepSpec(config=self.small_cfg(), axis="q", values=[0.5], workers=0)
        with pytest.raises(ValueError, match=r"reference 'P3' is not among the swept "
                                             r"policies \['baseline', 'P2'\]"):
            SweepSpec(config=self.small_cfg(), axis="q", values=[0.5],
                      policies=["baseline", "P2"], reference="P3")
        for method in ("dense", "highs", "external"):
            with pytest.raises(ValueError, match=f"solver method '{method}' would be ignored"):
                SweepSpec(config=self.small_cfg(), axis="q", values=[0.5],
                          policies=["baseline"], reference="baseline",
                          solve_kw={"method": method})
        SweepSpec(config=self.small_cfg(), axis="q", values=[0.5], policies=["baseline"],
                  reference="baseline", solve_kw={"method": "auto"})


class TestCommands:
    @pytest.fixture
    def cfg_file(self, tmp_path):
        f = tmp_path / "scenario.yaml"
        f.write_text(
            "graph: {kind: poisson, k: 12, mean_degree: 4}\n"
            "alpha: 0.7\nn: 2\nq: 0.8\nzipf_s: 0.6\ncache_size: 2\nseed: 7\n")
        return f

    def test_gen(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "scen.npz"
        assert main(["gen", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "scenario: K=12" in stdout

    def test_solve_eval_sim_pipeline(self, cfg_file, tmp_path, capsys):
        policy_file = tmp_path / "policy.csv"
        code = main(["solve", "--problem", "uni", "--config", str(cfg_file),
                     "--out", str(policy_file)])
        assert code == EXIT_OK
        assert policy_file.exists()
        out = capsys.readouterr().out
        assert "LTEC=" in out and "CHR=" in out and "quality:" in out

        assert main(["eval", "--config", str(cfg_file),
                     "--policy", str(policy_file)]) == EXIT_OK
        assert "LTEC=" in capsys.readouterr().out

        assert main(["sim", "--config", str(cfg_file), "--policy", str(policy_file),
                     "--steps", "20000", "--seed", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cost_rate=" in out and "mean_cycle=" in out

    def test_eval_prints_quality_of_a_policy_within_its_tolerance(self, tmp_path, capsys):
        # Entries 4e-7 above the baseline's pass `evaluate` (EVAL_TOL = 1e-6),
        # and lift the achieved quality 8e-7 above its maximum of 2.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("graph: {kind: poisson, k: 30, mean_degree: 4}\nalpha: 0.8\nn: 2\n"
                       "q: 0.9\nzipf_s: 0.7\ncache_size: 2\nseed: 1\n")
        scenario, _ = scenario_from_config(data.load_config(cfg))
        policy_file = tmp_path / "p.csv"
        write_policy_csv(policy_file, Policy(
            "uniform", baseline_policy(scenario.u, scenario.n).mats * (1 + 4e-7)))
        assert main(["eval", "--config", str(cfg), "--policy", str(policy_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "LTEC=" in out and "quality: min=1.000000" in out

    def test_sim_unallocatable_steps_exits_io(self, cfg_file, tmp_path, capsys):
        # 10**13 steps need hundreds of TB of sampling arrays; the count is
        # refused before anything is drawn, so this allocates nothing large.
        policy_file = tmp_path / "policy.csv"
        assert main(["solve", "--problem", "uni", "--config", str(cfg_file),
                     "--out", str(policy_file)]) == EXIT_OK
        capsys.readouterr()
        assert main(["sim", "--config", str(cfg_file), "--policy", str(policy_file),
                     "--steps", "10000000000000"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: steps = 10000000000000 is too large")
        assert "cannot be allocated" in err and "Traceback" not in err

    def test_solve_greedy_and_pref(self, cfg_file, tmp_path):
        for problem in ("greedy", "pref"):
            out = tmp_path / f"{problem}.csv"
            assert main(["solve", "--problem", problem, "--config", str(cfg_file),
                         "--out", str(out)]) == EXIT_OK
            assert out.exists()

    def test_builtin_solver_flag_matches_auto(self, cfg_file, tmp_path, capsys):
        ltec = []
        for solver in ("auto", "builtin"):
            assert main(["solve", "--problem", "uni", "--config", str(cfg_file),
                         "--solver", solver, "--out", str(tmp_path / "p.csv")]) == EXIT_OK
            ltec.append(float(capsys.readouterr().out.split("LTEC=")[1].split()[0]))
        assert ltec[1] == pytest.approx(ltec[0], abs=1e-6)

    def test_oracle(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(
            "graph: {kind: matrix, u: [[0,1,1],[1,0,1],[1,1,0]]}\n"
            "p0: [0.4, 0.3, 0.3]\nc: [0, 1, 1]\nalpha: 0.8\nn: 1\nq: 0\n")
        assert main(["oracle", "--config", str(cfg)]) == EXIT_OK
        assert "brute-force optimum" in capsys.readouterr().out

    def test_oracle_out_evaluates_to_its_optimum(self, tmp_path, capsys):
        """The policy file `oracle --out` writes is read back by eval, which
        prints the same LTEC."""
        cfg, policy = tmp_path / "k6.yaml", tmp_path / "oracle.csv"
        cfg.write_text("graph: {kind: poisson, k: 6, mean_degree: 3}\nalpha: 0.8\nn: 2\n"
                       "q: 0.9\nzipf_s: 0.7\ncache_size: 1\nseed: 1\n")
        assert main(["oracle", "--config", str(cfg), "--out", str(policy)]) == EXIT_OK
        found = capsys.readouterr().out
        assert f"wrote {policy}" in found
        assert main(["eval", "--config", str(cfg), "--policy", str(policy)]) == EXIT_OK
        ltec = re.compile(r"LTEC=[0-9.]+")
        assert ltec.search(capsys.readouterr().out).group() == ltec.search(found).group()

    def test_solve_matches_oracle_on_tiny_instance(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(
            "graph: {kind: matrix, u: [[0,1,1],[1,0,1],[1,1,0]]}\n"
            "p0: [0.34, 0.33, 0.33]\nc: [0, 1, 1]\nalpha: 0.9\nn: 1\nq: 0\n")
        assert main(["oracle", "--config", str(cfg)]) == EXIT_OK
        oracle_out = capsys.readouterr().out
        assert main(["solve", "--problem", "uni", "--config", str(cfg),
                     "--out", str(tmp_path / "p.csv")]) == EXIT_OK
        solve_out = capsys.readouterr().out
        chr_oracle = float(oracle_out.split("CHR=")[1].split()[0])
        chr_lp = float(solve_out.split("CHR=")[1].split()[0])
        assert chr_lp == pytest.approx(chr_oracle, abs=1e-6)

    def test_all_cached_full_hit_rate(self, tmp_path, capsys):
        cfg = tmp_path / "cached.yaml"
        cfg.write_text(
            "graph: {kind: poisson, k: 10, mean_degree: 4}\n"
            "alpha: 0.7\nn: 2\nq: 0\ncache_size: 10\nseed: 2\n")
        assert main(["solve", "--problem", "uni", "--config", str(cfg),
                     "--out", str(tmp_path / "p.csv")]) == EXIT_OK
        assert "CHR=1.000000" in capsys.readouterr().out

    def test_sweep_command(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg_file), "--axis", "q",
                     "--values", "0.7,0.9", "--policies", "P1,P2",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cacherec-sweep")
        assert lines[2].startswith("axis,value,policy")
        assert len(lines) == 3 + 4

    @pytest.mark.parametrize("flags,err", [
        (["--policies", "baseline,P2", "--reference", "P3"],
         "gain reference 'P3' is not among the swept policies ['baseline', 'P2']"),
        (["--policies", "baseline", "--reference", "baseline", "--solver", "highs"],
         "solver method 'highs' would be ignored"),
    ], ids=["reference-not-swept", "solver-without-solve"])
    def test_sweep_spec_refusal_exits_io(self, cfg_file, tmp_path, capsys, flags, err):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_file), "--axis", "q", "--values", "0.7",
                     "--out", str(out)] + flags) == EXIT_IO
        assert err in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis,values", [("N", "2.5,3"), ("C", "1.5")],
                             ids=["N", "C"])
    def test_sweep_fractional_count_exits_io(self, cfg_file, tmp_path, capsys, axis, values):
        """N and C are counts: a fraction is refused, not truncated."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_file), "--axis", axis, "--values", values,
                     "--policies", "P1", "--out", str(out)]) == EXIT_IO
        key = "n" if axis == "N" else "cache_size"
        assert capsys.readouterr().err.startswith(f"error: config key '{key}' must be a whole")
        assert not out.exists()
        assert main(["sweep", "--config", str(cfg_file), "--axis", axis, "--values", "3,3.0",
                     "--policies", "P1", "--out", str(out)]) == EXIT_OK
        assert [line.split(",")[1] for line in out.read_text().splitlines()[3:]] == ["3", "3"]

    def test_sweep_one_hot_clicks_write_entropy_zero(self, cfg_file, tmp_path, capsys):
        """A huge position-zipf exponent makes the clicks one-hot: their
        entropy is written as 0, not -0."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_file), "--axis", "Hv", "--values", "1e308",
                     "--policies", "P1,P3", "--out", str(out)]) == EXIT_OK
        assert [line.split(",")[:2] for line in out.read_text().splitlines()[3:]] == [
            ["Hv", "0"], ["Hv", "0"]]

    def test_sweep_csv_row_stays_one_line(self, cfg_file, tmp_path, capsys):
        """A status with line breaks, here an external solver's stderr, is
        written on its row's one line."""
        out = tmp_path / "sweep.csv"
        cmd = "printf 'first, line\\nsecond\\r\\n' >&2; : {lp} {out}; exit 3"
        assert main(["sweep", "--config", str(cfg_file), "--axis", "q", "--values", "0.7",
                     "--policies", "P1", "--solver", "external", "--external-cmd", cmd,
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        fields = lines[3].split(",")
        assert len(fields) == 9
        assert "external solver exited 3: first; line second" in fields[3]

    def test_sweep_stdout_has_one_line_per_failed_row(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cmd = "sh -c 'echo a >&2; echo b >&2; exit 3'"
        assert main(["sweep", "--config", str(cfg_file), "--axis", "q", "--values", "0.7,0.8",
                     "--policies", "P1", "--solver", "external", "--external-cmd", cmd,
                     "--out", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote {out}: 2 rows, 2 failed"
        assert len(lines) == 3
        assert all("external solver exited 3: a b" in line for line in lines[1:])

    def test_solve_from_scenario_npz(self, cfg_file, tmp_path, capsys):
        npz = tmp_path / "scen.npz"
        assert main(["gen", "--config", str(cfg_file), "--out", str(npz)]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", "--problem", "uni", "--scenario", str(npz),
                     "--out", str(tmp_path / "p.csv")]) == EXIT_OK
        assert "LTEC=" in capsys.readouterr().out

    def test_ingest(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 0.9\n1 2 0.8\n2 3 0.7\n3 0 0.6\n0 2 0.5\n")
        cfg = tmp_path / "keys.yaml"
        cfg.write_text("n: 1\n")
        out = tmp_path / "scen.npz"
        assert main(["ingest", "--edges", str(edges), "--threshold", "0.1",
                     "--out", str(out), "--config", str(cfg)]) == EXIT_OK
        assert out.exists()
        assert "graph: nodes=4" in capsys.readouterr().out
        assert data.load_scenario_npz(out).n == 1

    @pytest.mark.parametrize("body,key", [
        ("graph: {kind: poisson, k: 30}\n", "graph"),
        ("n: 1\nseed: 3\n", "seed"),
    ], ids=["graph", "seed"])
    def test_ingest_refuses_graph_keys(self, tmp_path, capsys, body, key):
        """The edge list is the graph: a config's graph or seed would be ignored."""
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 0.9\n1 2 0.8\n2 3 0.7\n3 0 0.6\n")
        cfg = tmp_path / "keys.yaml"
        cfg.write_text(body)
        out = tmp_path / "scen.npz"
        assert main(["ingest", "--edges", str(edges), "--config", str(cfg),
                     "--out", str(out)]) == EXIT_IO
        assert f"error: config key '{key}' would be ignored" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["gen", "--config", str(missing)]) == EXIT_IO

    @pytest.mark.parametrize("body,problem", [
        ("graph: {kind: poisson\n  k: 30\n", "line 2: malformed config: expected ','"),
        ("graph: !!python/object:os.system {}\n",
         "line 1: malformed config: could not determine a constructor"),
    ], ids=["syntax", "unknown-tag"])
    def test_malformed_yaml_exits_io_naming_file(self, tmp_path, capsys, body, problem):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(body)
        assert main(["gen", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg} {problem}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"", b"PK\x03\x04 not a zip", b"\x93NUMPY"],
                             ids=["empty", "bad-zip", "npy-header"])
    def test_unreadable_scenario_exits_io_naming_file(self, tmp_path, capsys, content):
        npz = tmp_path / "scen.npz"
        npz.write_bytes(content)
        assert main(["eval", "--scenario", str(npz), "--policy", "p.csv"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {npz}: not a scenario .npz file")
        assert "Traceback" not in err

    @pytest.mark.parametrize("member,problem", [
        ("c", None), ("q", np.array([None], dtype=object)), ("alpha", np.array([0.5, 0.6])),
        ("n", np.array(2.7)), ("n", np.array(-1)), ("q", np.array(True)),
        ("alpha", np.array("0.5")), ("alpha", np.array([0.5]))],
        ids=["missing", "object-array", "non-scalar", "fractional-n", "negative-n", "bool-q",
             "string-alpha", "one-element-alpha"])
    def test_bad_scenario_member_exits_io_naming_file_and_member(
            self, cfg_file, tmp_path, capsys, member, problem):
        npz = tmp_path / "scen.npz"
        assert main(["gen", "--config", str(cfg_file), "--out", str(npz)]) == EXIT_OK
        with np.load(npz) as z:
            members = dict(z)
        if problem is None:
            del members[member]
        else:
            members[member] = problem
        np.savez(npz, **members)
        capsys.readouterr()
        assert main(["eval", "--scenario", str(npz), "--policy", "p.csv"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {npz}: ")
        assert f"'{member}'" in err
        assert err.count("\n") == 1

    def test_scenario_count_saved_as_a_whole_float_loads(self, cfg_file, tmp_path):
        """`n` follows the rule of config counts: 2.0 is the count 2."""
        npz = tmp_path / "scen.npz"
        assert main(["gen", "--config", str(cfg_file), "--out", str(npz)]) == EXIT_OK
        with np.load(npz) as z:
            members = dict(z)
        want = int(members["n"])
        members["n"] = np.array(float(want))
        np.savez(npz, **members)
        got = data.load_scenario_npz(npz).n
        assert (got, type(got)) == (want, int)

    @pytest.mark.parametrize("body,key", [
        ("graph: 5\n", "'graph'"),
        ("graph: {kind: poisson, k: 10}\nalpha: null\n", "'alpha'"),
        ("graph: {kind: poisson, k: 10}\nseed: [1]\n", "'seed'"),
        ("graph: {kind: poisson, k: 10}\nn: [2]\n", "'n'"),
        ("graph: {kind: matrix, u: 3}\n", "'graph.u'"),
        ("graph: {kind: poisson, k: 10}\ncache_size: 2.5\n", "'cache_size'"),
        ("graph: {kind: poisson, mean_degree: 3}\n", "'graph.k'"),
        ("graph: {kind: poisson, k: 100000000}\n", "'graph.k' = 100000000 is too large"),
    ], ids=["graph-int", "alpha-null", "seed-list", "n-list", "matrix-scalar",
            "fractional-cache", "poisson-no-k", "unallocatable-k"])
    def test_malformed_config_exits_io_naming_key(self, tmp_path, capsys, body, key):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(body)
        assert main(["gen", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: config key " + key)
        assert "Traceback" not in err

    def test_sweep_malformed_seed_exits_io_naming_key(self, tmp_path, capsys):
        """A seed that is not a count is refused before any row is solved."""
        cfg, out = tmp_path / "bad.yaml", tmp_path / "sweep.csv"
        for seed in ("[1]", "-1", "2.5"):
            cfg.write_text(f"graph: {{kind: poisson, k: 10}}\nseed: {seed}\n")
            assert main(["sweep", "--config", str(cfg), "--axis", "q", "--values", "0.5",
                         "--out", str(out)]) == EXIT_IO
            err = capsys.readouterr().err
            assert err.startswith("error: config key 'seed'"), err
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("n, shown", [("abc", "'abc'"), ("2.5", "2.5"), ("true", "True"),
                                          ("-1", "-1")])
    def test_sweep_hv_bad_config_n_exits_io_naming_it(self, tmp_path, capsys, n, shown):
        """The Hv axis sizes its clicks by the config's n, which follows the
        count rule before any row is solved."""
        cfg, out = tmp_path / "c.yaml", tmp_path / "sweep.csv"
        cfg.write_text("graph: {kind: poisson, k: 30, mean_degree: 4}\nalpha: 0.8\n"
                       f"n: {n}\nq: 0.9\nzipf_s: 0.7\ncache_size: 2\nseed: 1\n")
        assert main(["sweep", "--config", str(cfg), "--axis", "Hv", "--values", "0.5,1",
                     "--policies", "P1,P2", "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == \
            f"error: config key 'n' must be a whole number >= 0, got {shown}\n"
        assert not out.exists()

    def test_sweep_malformed_key_off_the_axis_exits_io(self, tmp_path, capsys):
        """alpha is not the swept key, but it is read by its rule before any
        row is solved."""
        cfg, out = tmp_path / "c.yaml", tmp_path / "sweep.csv"
        cfg.write_text("graph: {kind: poisson, k: 14, mean_degree: 4}\nalpha: abc\nn: 2\n"
                       "q: 0.9\nzipf_s: 0.7\ncache_size: 2\nseed: 1\n")
        assert main(["sweep", "--config", str(cfg), "--axis", "q", "--values", "0.8,0.9",
                     "--policies", "P1,P2", "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == \
            "error: config key 'alpha' must be a number, got 'abc'\n"
        assert not out.exists()

    def test_sim_validates_its_policy_once(self, cfg_file, tmp_path, monkeypatch, capsys):
        """simulate validates the policy; the analytic line reuses that check
        and prints what `markov.evaluate` gives."""
        policy_file = tmp_path / "policy.csv"
        assert main(["solve", "--problem", "pref", "--config", str(cfg_file),
                     "--out", str(policy_file)]) == EXIT_OK
        capsys.readouterr()
        calls = []

        def counting(*args, **kw):
            calls.append(kw.get("tol"))
            return validate_policy(*args, **kw)

        monkeypatch.setattr(sim, "validate_policy", counting)
        monkeypatch.setattr(markov, "validate_policy", counting)
        assert main(["sim", "--config", str(cfg_file), "--policy", str(policy_file),
                     "--steps", "2000"]) == EXIT_OK
        assert calls == [markov.EVAL_TOL]
        monkeypatch.undo()
        report = markov.evaluate(read_policy_csv(policy_file),
                                 scenario_from_config(data.load_config(cfg_file))[0])
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            f"analytic: LTEC={report.ltec:.6f} diff=")

    def test_infeasible_exit_code(self, cfg_file, monkeypatch, capsys):
        from cacherec import policies as pol

        def boom(*a, **kw):
            raise pol.InfeasibleProblem("forced for the test")

        monkeypatch.setattr(pol, "solve_session", boom)
        monkeypatch.setattr(pol, "solve_named",
                            lambda name, s, **kw: boom())
        assert main(["solve", "--problem", "uni", "--config",
                     str(cfg_file)]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("problem,kind,err", [
        ("uni", "fives", "P2: invalid policy: row 0 sums to 11, expected 2"),
        ("greedy", "fives", "P1: invalid policy: entry (0, 1) above 1: 5"),
        ("uni", "z0", "P2: z_0 = 0.000e+00 is not strictly positive"),
    ])
    def test_unusable_external_solution_exits_solver(self, cfg_file, tmp_path, capsys,
                                                     problem, kind, err):
        """An external solution that fails validation or cannot be recovered
        is a solver failure, whatever status the solver reported."""
        out = tmp_path / "p.csv"
        assert main(["solve", "--problem", problem, "--config", str(cfg_file),
                     "--solver", "external", "--external-cmd", bad_solver_cmd(tmp_path, kind),
                     "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err.startswith(f"solver failure: {err}")
        assert not out.exists()

    @pytest.mark.parametrize("graph,zipf_s,err", [
        ("{kind: poisson, k: 8, mean_degree: 3}", ".nan",
         "Zipf exponent zipf_s must be finite and nonnegative, got nan"),
        ("{kind: poisson, k: 8, mean_degree: 3}", ".inf",
         "Zipf exponent zipf_s must be finite and nonnegative, got inf"),
        ("{kind: edgelist, path: edges.txt, saturation: .nan}", "0.7",
         "saturation threshold must be finite, got nan"),
    ], ids=["zipf-nan", "zipf-inf", "saturation-nan"])
    def test_non_finite_config_parameter_exits_io_naming_it(self, tmp_path, capsys, graph,
                                                            zipf_s, err):
        (tmp_path / "edges.txt").write_text("0 1 0.9\n1 2 0.8\n2 3 0.05\n3 0 0.6\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"graph: {graph}\nzipf_s: {zipf_s}\nalpha: 0.7\nn: 2\nq: 0.8\n"
                       "cache_size: 2\n")
        assert main(["gen", "--config", str(cfg)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("line, key", [
        ("p0: ['0.4', '0.3', '0.3']", "p0"), ("c: [false, true, true]", "c"),
        ("v: ['1']", "v"), ("graph: {kind: matrix, u: [[0, '1'], [1, 0]]}", "graph.u")])
    def test_gen_refuses_a_list_element_that_is_not_a_number(self, tmp_path, capsys,
                                                             line, key):
        cfg = tmp_path / "bad.yaml"
        lines = {"graph": "graph: {kind: matrix, u: [[0, 1, 0.5], [1, 0, 1], [0.5, 1, 0]]}",
                 "n": "n: 1", "alpha": "alpha: 0.5", key.split(".")[0]: line}
        cfg.write_text("\n".join(lines.values()) + "\n")
        assert main(["gen", "--config", str(cfg)]) == EXIT_IO
        assert f"config key '{key}' must be a list of numbers" in capsys.readouterr().err

    def test_ingest_non_finite_threshold_exits_io_naming_it(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 0.9\n1 2 0.8\n2 3 0.05\n3 0 0.6\n")
        for value in ("nan", "inf", "-inf"):
            assert main(["ingest", "--edges", str(edges), f"--threshold={value}"]) == EXIT_IO
            assert "saturation threshold must be finite" in capsys.readouterr().err

    def test_sweep_zero_workers_exits_io_without_a_pool(self, cfg_file, tmp_path, monkeypatch,
                                                       capsys):
        def no_pool(*a, **kw):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        assert main(["sweep", "--config", str(cfg_file), "--axis", "q", "--values", "0.5",
                     "--workers", "0", "--out", str(tmp_path / "sweep.csv")]) == EXIT_IO
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv,err", [
        (["gen", "--config", "{cfg}"], "error: config key 'graph.k' = 400 is too large: its "
                                       "similarity matrix 400 x 400 cannot be allocated"),
        (["eval", "--config", "{small}", "--policy", "{policy}"],
         "line 4: declared size 400 x 400 cannot be allocated"),
        (["ingest", "--edges", "{edges}"],
         "edges.txt: its similarity matrix 400 x 400 cannot be allocated"),
    ], ids=["config-graph-k", "policy-file-k", "edge-list-nodes"])
    def test_dense_size_beyond_memory_exits_io_before_allocating(self, tmp_path, monkeypatch,
                                                                capsys, argv, err):
        # A 400 x 400 float matrix takes 1.28 MB; the machine is said to have 1 MB.
        cfg = tmp_path / "big.yaml"
        cfg.write_text("graph: {kind: poisson, k: 400}\n")
        small = tmp_path / "small.yaml"
        small.write_text("graph: {kind: poisson, k: 10}\n")
        policy = tmp_path / "p.csv"
        policy.write_text(TestPolicyFiles.UNIFORM_HEAD.replace("# k: 3", "# k: 400") +
                          "0,1,1.0\n")
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"{i} {i + 1}\n" for i in range(399)))
        import scipy.sparse.csgraph  # noqa: F401  (ingest imports it on first use)
        monkeypatch.setattr(data, "machine_memory", lambda: 2 ** 20)
        tracemalloc.start()
        try:
            code = main([a.format(cfg=cfg, small=small, policy=policy, edges=edges)
                         for a in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_IO
        assert err in capsys.readouterr().err
        assert peak < 5e5, f"peaked at {peak / 1e6:.2f} MB"


#: The scenario, output and solver flags. A subcommand that does not read one
#: refuses it; gen, ingest and sweep read no saved scenario, so no --scenario.
SHARED_FLAGS = ("--config", "--scenario", "--out", "--seed", "--solver", "--external-cmd",
                "--alpha", "--q", "--n", "--zipf-s", "--cache-size")
NO_SCENARIO_INPUT = ("gen", "ingest", "sweep")
#: Each subcommand's flags (beside -h); README's "Command line" table lists the same.
FLAGS = {
    "gen": {"--config", "--seed", "--out"},
    "ingest": {"--edges", "--threshold", "--component-first", "--config", "--out"},
    "solve": {"--problem", "--config", "--scenario", "--seed", "--alpha", "--q", "--n",
              "--zipf-s", "--cache-size", "--out", "--solver", "--external-cmd"},
    "eval": {"--policy", "--config", "--scenario", "--seed", "--alpha", "--q", "--n",
             "--zipf-s", "--cache-size"},
    "sim": {"--policy", "--steps", "--config", "--scenario", "--seed", "--alpha", "--q",
            "--n", "--zipf-s", "--cache-size"},
    "oracle": {"--cap", "--config", "--scenario", "--seed", "--alpha", "--q", "--n",
               "--zipf-s", "--cache-size", "--out"},
    "sweep": {"--axis", "--values", "--policies", "--reference", "--workers", "--config",
              "--seed", "--out", "--solver", "--external-cmd"},
}
#: A valid command line of each subcommand, before any optional flag.
BASE_ARGV = {
    "gen": ["gen", "--config", "c.yaml"],
    "ingest": ["ingest", "--edges", "edges.txt"],
    "solve": ["solve", "--problem", "uni", "--config", "c.yaml"],
    "eval": ["eval", "--policy", "p.csv", "--config", "c.yaml"],
    "sim": ["sim", "--policy", "p.csv", "--config", "c.yaml"],
    "oracle": ["oracle", "--config", "c.yaml"],
    "sweep": ["sweep", "--config", "c.yaml", "--axis", "q", "--values", "0.5"],
}


def parser_flags() -> dict[str, set[str]]:
    """Each subcommand's flags, as `build_parser()` declares them."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in p._actions if action.dest != "help"
                   for flag in action.option_strings}
            for name, p in subparsers.choices.items()}


DROPPED = [(name, flag) for name, flags in parser_flags().items() for flag in SHARED_FLAGS
           if flag not in flags and not (flag == "--scenario" and name in NO_SCENARIO_INPUT)]


class TestFlags:
    def test_each_subcommand_takes_only_its_flags(self):
        assert parser_flags() == FLAGS
        assert sum(map(len, FLAGS.values())) == 59
        assert len(DROPPED) == 87 - 59

    @pytest.mark.parametrize("name,flag", DROPPED, ids=[f"{n}{f}" for n, f in DROPPED])
    def test_dropped_flag_exits_io_naming_it(self, name, flag, capsys):
        build_parser().parse_args(BASE_ARGV[name])  # valid without the flag
        assert main(BASE_ARGV[name] + [flag, "1"]) == EXIT_IO
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_usage_errors_exit_io_and_help_exits_ok(self, capsys):
        assert main(["solve", "--config", "c.yaml"]) == EXIT_IO
        assert "the following arguments are required: --problem" in capsys.readouterr().err
        assert main(["solve", "--problem", "uni"]) == EXIT_IO
        assert "one of the arguments --config --scenario is required" in \
            capsys.readouterr().err
        assert main([]) == EXIT_IO
        for argv in (["-h"], ["solve", "-h"], ["sweep", "--help"]):
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out.startswith("usage: cacherec")

    @pytest.fixture
    def saved(self, tmp_path):
        """A config, the scenario gen saves from it and a P2 policy file."""
        cfg = tmp_path / "c.yaml"
        cfg.write_text("graph: {kind: poisson, k: 12, mean_degree: 4}\n"
                       "alpha: 0.7\nn: 2\nq: 0.8\ncache_size: 2\nseed: 7\n")
        npz, policy = tmp_path / "s.npz", tmp_path / "p.csv"
        assert main(["gen", "--config", str(cfg), "--out", str(npz)]) == EXIT_OK
        assert main(["solve", "--problem", "uni", "--config", str(cfg),
                     "--out", str(policy)]) == EXIT_OK
        return cfg, npz, policy

    @pytest.mark.parametrize("name", ["solve", "eval", "oracle"])
    @pytest.mark.parametrize("extra,flag", [
        (["--config", "{cfg}"], "--config"), (["--alpha", "0.3"], "--alpha"),
        (["--q", "0.5"], "--q"), (["--n", "3"], "--n"), (["--zipf-s", "1.0"], "--zipf-s"),
        (["--cache-size", "3"], "--cache-size"), (["--seed", "5"], "--seed"),
    ], ids=["config", "alpha", "q", "n", "zipf-s", "cache-size", "seed"])
    def test_saved_scenario_refuses_what_it_cannot_honour(self, saved, tmp_path, capsys,
                                                         name, extra, flag):
        cfg, npz, policy = saved
        capsys.readouterr()
        argv = {"solve": ["solve", "--problem", "uni", "--out", str(tmp_path / "q.csv")],
                "eval": ["eval", "--policy", str(policy)], "oracle": ["oracle"]}[name]
        assert main(argv + ["--scenario", str(npz)] + [a.format(cfg=cfg) for a in extra]) \
            == EXIT_IO
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "q.csv").exists()

    def test_sim_seed_seeds_the_sampler_of_a_saved_scenario(self, saved, capsys):
        _, npz, policy = saved
        capsys.readouterr()
        base = ["sim", "--scenario", str(npz), "--policy", str(policy), "--steps", "2000"]
        outs = []
        for seed in ("3", "3", "4"):
            assert main(base + ["--seed", seed]) == EXIT_OK
            outs.append(capsys.readouterr().out.split("analytic")[0])
        assert outs[0] == outs[1] != outs[2]
        assert "(seed 3)" in outs[0]

    TRIANGLE = "graph: {kind: matrix, u: [[0,1,1],[1,0,1],[1,1,0]]}\nn: 1\nq: 0\n"

    @pytest.mark.parametrize("body,argv,flag", [
        ("p0: [0.5, 0.3, 0.2]\n", ["solve", "--problem", "uni", "--zipf-s", "1.0"], "--zipf-s"),
        ("c: [0, 1, 1]\n", ["oracle", "--cache-size", "2"], "--cache-size"),
        ("", ["gen", "--seed", "3"], "--seed"),
        ("", ["solve", "--problem", "uni", "--seed", "3"], "--seed"),
        ("", ["sweep", "--axis", "q", "--values", "0.5", "--seed", "3"], "--seed"),
    ], ids=["zipf-s-beside-p0", "cache-size-beside-c", "gen-seed", "solve-seed", "sweep-seed"])
    def test_config_refuses_a_flag_it_would_ignore(self, tmp_path, capsys, body, argv, flag):
        cfg = tmp_path / "triangle.yaml"
        cfg.write_text(self.TRIANGLE + body)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"error: {flag} would be ignored: {cfg} ")
        assert not out.exists()

    def test_sim_seed_acts_on_a_graph_without_one(self, tmp_path, capsys):
        cfg, policy = tmp_path / "triangle.yaml", tmp_path / "p.csv"
        cfg.write_text(self.TRIANGLE)
        assert main(["solve", "--problem", "uni", "--config", str(cfg),
                     "--out", str(policy)]) == EXIT_OK
        assert main(["sim", "--config", str(cfg), "--policy", str(policy), "--steps", "100",
                     "--seed", "5"]) == EXIT_OK
        assert "(seed 5)" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["solve", "eval"])
    def test_override_applies_to_a_config(self, saved, tmp_path, capsys, name):
        cfg, _, policy = saved
        argv = {"solve": ["solve", "--problem", "uni", "--out", str(tmp_path / "q.csv")],
                "eval": ["eval", "--policy", str(policy)]}[name] + ["--config", str(cfg)]
        ltec = []
        for extra in ([], ["--alpha", "0.3"]):
            capsys.readouterr()
            assert main(argv + extra) == EXIT_OK
            ltec.append(float(capsys.readouterr().out.split("LTEC=")[1].split()[0]))
        assert ltec[0] != ltec[1]

    def test_external_cmd_needs_the_external_solver(self, saved, capsys):
        cfg = saved[0]
        capsys.readouterr()
        assert main(["solve", "--problem", "uni", "--config", str(cfg),
                     "--external-cmd", "mysolver {lp} {out}"]) == EXIT_IO
        assert "--external-cmd needs --solver external" in capsys.readouterr().err


POLICY_MUTANTS = ["", "x", "#", "-1", "0", "1", "2", "7", "0.5", "nan", "inf", "1e999",
                  "uniform", "positional", "# k: 2", "i,j,r", "1,2"]


@st.composite
def small_policies(draw):
    """A uniform or positional policy on K <= 5 contents (a few slots, fewer
    than K, since a slate shows at most K - 1 items)."""
    k = draw(st.integers(2, 5))
    slots = draw(st.integers(0, min(3, k - 1)))  # 0: uniform
    shape = (slots, k, k) if slots else (k, k)
    vals = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]) | st.floats(0.01, 1.0),
                         min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return Policy("positional" if slots else "uniform", np.reshape(vals, shape))


@given(small_policies(), st.lists(st.tuples(st.sampled_from(["drop", "dup", "token"]),
                                            st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                                            st.sampled_from(POLICY_MUTANTS)), max_size=3))
@settings(max_examples=200, deadline=None)
def test_policy_csv_round_trips_or_raises_value_error(policy, mutations):
    """A written policy reads back exactly. After dropped or duplicated lines
    it reads back as the entry lines left, or, if a header or metadata line
    moved, raises; after a changed token it reads back finite or raises. Every
    error names the file and line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        write_policy_csv(path, policy, meta={"note": "drawn"})
        back = read_policy_csv(path)
        assert back.kind == policy.kind and np.array_equal(back.mats, policy.mats)

        lines = path.read_text().splitlines()
        entries = lines[lines.index("n,i,j,r" if policy.is_positional else "i,j,r") + 1:]
        changed = moved_head = False
        for op, at, pos, token in mutations:
            if not lines:
                break
            i = at % len(lines)
            moved_head |= lines[i] not in entries
            if op == "drop":
                del lines[i]
            elif op == "dup":
                lines.insert(i, lines[i])
            else:
                changed = True
                fields = re.split(r"([,:])", lines[i])
                fields[2 * (pos % ((len(fields) + 1) // 2))] = token
                lines[i] = "".join(fields)
        path.write_text("\n".join(lines) + "\n")
        try:
            back = read_policy_csv(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path} line "), exc
            assert changed or moved_head, exc
            return
    assert np.all(np.isfinite(back.mats))
    if not changed:
        kept = np.zeros_like(policy.mats)
        for line in set(entries) & set(lines):
            *idx, val = line.split(",")
            idx = [int(x) for x in idx]
            if policy.is_positional:
                idx[0] -= 1
            kept[tuple(idx)] = float(val)
        assert np.array_equal(back.mats, kept)


def toy_benchmark_results():
    """Every solved policy of the benchmark's toy scenarios: baseline, P1 and
    P2 on uniform clicks, P3 and the positional baseline on skewed clicks."""
    def cfg(k, degree, n, seed, v="uniform"):
        return {"graph": {"kind": "poisson", "k": k, "mean_degree": degree}, "alpha": 0.8,
                "n": n, "v": v, "q": 0.9, "zipf_s": 0.7, "cache_size": max(1, k // 50),
                "seed": seed}

    out = []
    for k, degree, seed in ((16, 4, 0), (8, 3, 1), (30, 4, 2)):
        scenario, _ = scenario_from_config(cfg(k, degree, 2, seed))
        out += [(f"{name}-k{k}", solve_named(name, scenario))
                for name in ("baseline", "P1", "P2")]
    for k, degree, seed in ((12, 4, 3), (30, 4, 4)):
        scenario, _ = scenario_from_config(cfg(k, degree, 3, seed, [0.6, 0.3, 0.1]))
        out += [(f"{name}-k{k}", solve_named(name, scenario)) for name in ("baseline", "P3")]
    return out


@pytest.mark.parametrize("label,result", toy_benchmark_results(),
                         ids=[label for label, _ in toy_benchmark_results()])
def test_policy_file_bytes_match_dense_writer(tmp_path, label, result):
    """The file lists the stored entries in row-major order, exactly the
    lines the dense writer printed for the nonzeros, and reads back to the
    same arrays."""
    path = tmp_path / "p.csv"
    meta = {"problem": label, "ltec": f"{result.report.ltec:.12g}"}
    write_policy_csv(path, result.policy, meta=meta)
    assert path.read_text() == dense_policy_csv(result.policy, meta)
    back = read_policy_csv(path)
    for name in ("indptr", "indices", "data"):
        assert getattr(back, name).tobytes() == getattr(result.policy, name).tobytes()


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.booleans(),
       st.lists(st.tuples(st.sampled_from(["dup", "zero", "swap"]), st.integers(0, 10 ** 6),
                          st.integers(0, 10 ** 6)), max_size=4))
@settings(max_examples=200, deadline=None)
def test_policy_reader_keeps_last_value_and_drops_zeros(seed, k, positional, edits):
    """Entry lines in any order, repeated with other values or set to zero,
    read back as the dense array that applies them in file order, stored in
    canonical form; the reader's validation matches the dense oracle's."""
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, k=max(k, 3), v="skewed" if positional else None)
    policy = random_slate_policy(rng, s, positional)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        write_policy_csv(path, policy)
        lines = path.read_text().splitlines()
        head = lines.index("n,i,j,r" if positional else "i,j,r") + 1
        entries = lines[head:]
        for op, at, to in edits:
            if not entries:
                break
            line = entries[at % len(entries)]
            *idx, _ = line.split(",")
            if op == "dup":
                entries.insert(to % (len(entries) + 1), ",".join(idx + [repr(rng.random())]))
            elif op == "zero":
                entries.insert(to % (len(entries) + 1), ",".join(idx + ["-0.0"]))
            else:
                a, b = at % len(entries), to % len(entries)
                entries[a], entries[b] = entries[b], entries[a]
        path.write_text("\n".join(lines[:head] + entries) + "\n")
        back = read_policy_csv(path)
    want = np.zeros_like(policy.mats)
    for line in entries:
        *idx, val = line.split(",")
        idx = [int(x) for x in idx]
        if positional:
            idx[0] -= 1
        want[tuple(idx)] = float(val)
    assert np.array_equal(back.mats, want)
    assert_canonical(back)
    assert validate_policy(back, s) == dense_validate_policy(back, s)
