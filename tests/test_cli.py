"""CLI: metrics, policy files, sweep CSVs, subcommands, exit codes."""
from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacherec.cli import (EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, SweepSpec, apply_axis,
                          gain, main, mph, read_policy_csv, run_sweep,
                          write_policy_csv, write_sweep_csv)
from cacherec.data import scenario_from_config
from cacherec.model import Policy
from conftest import random_positional_policy, random_scenario, random_uniform_policy


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
        assert np.allclose(back.matrix, p.matrix, atol=0)

    def test_positional_round_trip(self, tmp_path, rng):
        s = random_scenario(rng, k=5, n=2, v="skewed")
        p = random_positional_policy(rng, s)
        f = tmp_path / "p.csv"
        write_policy_csv(f, p)
        back = read_policy_csv(f)
        assert back.is_positional
        assert np.allclose(back.slot_matrices, p.slot_matrices, atol=0)

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
    ], ids=["negative-row", "negative-col", "row-beyond-k", "col-beyond-k", "slot-zero",
            "slot-beyond", "positional-col-beyond-k", "short-entry", "nan-value",
            "no-header"])
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
                         values=[0.9], policies=["P3"])
        rows = run_sweep(spec)
        assert rows[0]["status"] == "ok"
        assert 0.0 < rows[0]["value"] < 1.0  # realized click entropy

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(config=self.small_cfg(), axis="zipf", values=[1])
        with pytest.raises(ValueError, match="at least one axis value"):
            SweepSpec(config=self.small_cfg(), axis="q", values=[])
        with pytest.raises(ValueError, match="unknown policies"):
            SweepSpec(config=self.small_cfg(), axis="q", values=[0.5], policies=["P9"])


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
        out = tmp_path / "scen.npz"
        assert main(["ingest", "--edges", str(edges), "--threshold", "0.1",
                     "--out", str(out), "--n", "1"]) == EXIT_OK
        assert out.exists()
        assert "graph: nodes=4" in capsys.readouterr().out

    def test_bad_config_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["gen", "--config", str(missing)]) == EXIT_IO

    @pytest.mark.parametrize("body,key", [
        ("graph: 5\n", "'graph'"),
        ("graph: {kind: poisson, k: 10}\nalpha: null\n", "'alpha'"),
        ("graph: {kind: poisson, k: 10}\nseed: [1]\n", "'seed'"),
        ("graph: {kind: poisson, k: 10}\nn: [2]\n", "'n'"),
        ("graph: {kind: matrix, u: 3}\n", "'graph.u'"),
        ("graph: {kind: poisson, k: 10}\ncache_size: 2.5\n", "'cache_size'"),
        ("graph: {kind: poisson, mean_degree: 3}\n", "'graph.k'"),
    ], ids=["graph-int", "alpha-null", "seed-list", "n-list", "matrix-scalar",
            "fractional-cache", "poisson-no-k"])
    def test_malformed_config_exits_io_naming_key(self, tmp_path, capsys, body, key):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(body)
        assert main(["gen", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: config key " + key)
        assert "Traceback" not in err

    def test_infeasible_exit_code(self, cfg_file, monkeypatch, capsys):
        from cacherec import policies as pol

        def boom(*a, **kw):
            raise pol.InfeasibleProblem("forced for the test")

        monkeypatch.setattr(pol, "solve_session", boom)
        monkeypatch.setattr(pol, "solve_named",
                            lambda name, s, **kw: boom())
        assert main(["solve", "--problem", "uni", "--config",
                     str(cfg_file)]) == EXIT_INFEASIBLE


POLICY_MUTANTS = ["", "x", "#", "-1", "0", "1", "2", "7", "0.5", "nan", "inf", "1e999",
                  "uniform", "positional", "# k: 2", "i,j,r", "1,2"]


@st.composite
def small_policies(draw):
    """A uniform or positional policy on K <= 5 contents (a few slots)."""
    k = draw(st.integers(2, 5))
    slots = draw(st.integers(0, 3))  # 0: uniform
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
