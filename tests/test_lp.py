"""LP builders, policy recovery, and optimality properties."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from cacherec import Scenario, evaluate, max_quality, quality_of, validate_policy
from cacherec.lp import (LpProblem, assemble_greedy_policy, build_greedy_row_lps,
                         build_positional_lp, build_session_lp, format_lp, recover_policy)
from cacherec.sim import brute_force_optimum
from cacherec.simplex import LpSolution, solve
from conftest import random_scenario
from _oracles import entrywise_session_lp


def small_scenario(seed=0, **kw) -> Scenario:
    return random_scenario(np.random.default_rng(seed), **kw)


def solve_session(scenario, method="dense"):
    prob = build_session_lp(scenario)
    sol = solve(prob, method=method)
    assert sol.status == "optimal", sol.message
    return prob, sol, recover_policy(sol, scenario, problem=prob)


class TestBuildSessionLp:
    def test_dimension_bookkeeping_k2(self):
        s = Scenario(u=[[0, 1], [1, 0]], c=[0, 1], p0=[0.5, 0.5], alpha=0.5, n=1)
        prob = build_session_lp(s)
        assert prob.n_vars == 4  # z0, z1, f0_1, f1_0
        assert [n for n in prob.var_names if n.startswith("f")] == ["f0_1", "f1_0"]
        assert sum(n.startswith("budget") for n in prob.eq_names) == 2
        assert sum(n.startswith("flow") for n in prob.eq_names) == 2

    def test_row_and_var_counts(self):
        s = small_scenario(1, k=6, n=2)
        prob = build_session_lp(s)
        k = s.k
        assert prob.n_vars == k * k             # K z's + K(K-1) f's
        assert prob.b_ub.shape[0] == k * k      # K quality + K(K-1) caps
        assert prob.b_eq.shape[0] == 2 * k      # budgets + flow balance

    def test_quality_rows_emitted_at_q_zero(self):
        s = small_scenario(2, q=0.0)
        prob = build_session_lp(s)
        assert sum(n.startswith("quality") for n in prob.ub_names) == s.k

    # K=4 with one zero similarity (u_03); the positional case adds q = 0 and a
    # zero-click slot, so its quality rows carry an explicit zero z term and
    # leave out the second f-block, as does its flow balance.
    LAYOUT_U = [[0, 1, .5, 0], [1, 0, .25, 1], [.5, .25, 0, .75], [0, 1, .75, 0]]

    @pytest.mark.parametrize("dump,build,changes", [
        ("session_lp_k4.txt", build_session_lp, {}),
        ("positional_lp_k4.txt", build_positional_lp, {"q": 0.0, "v": [1.0, 0.0]}),
    ], ids=["session", "positional"])
    def test_layout_matches_recorded_dump(self, dump, build, changes):
        s = Scenario(u=self.LAYOUT_U, c=[0, 1, 1, 2], p0=[.5, .25, .125, .125],
                     alpha=.5, n=2, q=.5).replace(**changes)
        golden = Path(__file__).parent / "golden" / dump
        assert format_lp(build(s)) == golden.read_text()

    def test_matches_entrywise_reference(self):
        # K = 2, N = 1, q = 0, binary and continuous u, and zero-click slots
        rng = np.random.default_rng(21)
        for case in range(60):
            k = int(rng.choice([2, 3, 5, 8]))
            n = int(rng.integers(1, k))
            s = random_scenario(rng, k=k, n=n, q=float(rng.choice([0.0, 0.6, 1.0])),
                                binary_costs=bool(case % 3))
            positional = bool(case % 2)
            if positional:
                v = rng.dirichlet(np.ones(n))
                if n > 1 and case % 4 == 3:
                    v[-1] = 0.0
                s = s.replace(v=v / v.sum())
            got = (build_positional_lp if positional else build_session_lp)(s)
            want = entrywise_session_lp(s, positional)
            assert format_lp(got) == format_lp(want)
            for a, b in ((got.a_eq, want.a_eq), (got.a_ub, want.a_ub)):
                for part in ("data", "indices", "indptr"):
                    assert getattr(a, part).tobytes() == getattr(b, part).tobytes(), part

    def test_alpha_required_positive(self):
        s = small_scenario(3, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            build_session_lp(s)


class TestRecoverPolicy:
    def test_simple_division(self):
        s = Scenario(u=[[0, 1], [1, 0]], c=[0, 1], p0=[0.5, 0.5], alpha=0.5, n=1, q=0.0)
        prob, sol, rec = solve_session(s)
        assert np.allclose(rec.policy.matrix, [[0, 1], [1, 0]])
        assert rec.residuals <= 1e-9

    def test_round_trip_identity(self):
        for seed in range(6):
            s = small_scenario(seed, k=6, n=2, alpha=0.7, q=0.6)
            prob, sol, rec = solve_session(s)
            rep = evaluate(rec.policy, s)
            want = (1 - s.alpha) * rec.objective_value
            assert rep.ltec == pytest.approx(want, rel=1e-8)
            assert validate_policy(rec.policy, s, tol=1e-6) == []

    def test_rejects_non_optimal(self):
        s = small_scenario(4, k=4, n=1)
        bad = LpSolution(status="infeasible", x=np.zeros(16), objective=0.0,
                         iterations=0, max_residual=0.0)
        with pytest.raises(ValueError, match="status"):
            recover_policy(bad, s)

    def test_near_zero_z_flagged(self):
        s = small_scenario(5, k=3, n=1)
        x = np.zeros(9)
        fake = LpSolution(status="optimal", x=x, objective=0.0,
                          iterations=0, max_residual=0.0)
        with pytest.raises(ValueError, match="strictly positive"):
            recover_policy(fake, s)

    def test_quality_constraint_tight_at_full_quality(self):
        for seed in range(3):
            s = small_scenario(seed, k=5, n=2, q=1.0, alpha=0.5)
            _, _, rec = solve_session(s)
            achieved = quality_of(rec.policy, s)
            assert np.allclose(achieved, max_quality(s.u, s.n), atol=1e-6)


class TestOptimality:
    def test_lp_below_brute_force(self):
        s = Scenario(u=np.ones((3, 3)) - np.eye(3), c=[0, 1, 1],
                     p0=np.full(3, 1 / 3), alpha=0.9, n=1, q=0.0)
        _, sol, rec = solve_session(s)
        lp_ltec = (1 - s.alpha) * rec.objective_value
        best, best_policy = brute_force_optimum(s)
        assert lp_ltec <= best + 1e-6
        # rows 1 and 2 should route to the cached item 0
        assert best_policy.matrix[1, 0] == 1.0
        assert best_policy.matrix[2, 0] == 1.0

    def test_monotone_in_quality_floor(self):
        s = small_scenario(6, k=7, n=2, alpha=0.8)
        objs = []
        for q in (0.0, 0.3, 0.6, 0.9, 1.0):
            _, sol, rec = solve_session(s.replace(q=q))
            objs.append((1 - s.alpha) * rec.objective_value)
        for lo, hi in zip(objs, objs[1:]):
            assert hi >= lo - 1e-9

    def test_dominates_any_feasible_policy(self):
        from conftest import random_uniform_policy
        rng = np.random.default_rng(8)
        s = small_scenario(7, k=6, n=2, q=0.0)
        _, _, rec = solve_session(s)
        lp_ltec = (1 - s.alpha) * rec.objective_value
        for _ in range(5):
            other = random_uniform_policy(rng, s)
            assert lp_ltec <= evaluate(other, s).ltec + 1e-8


class TestGreedy:
    def test_mass_on_cached_related_item(self):
        # one cached item with zero similarity still attracts leftover budget
        u = np.zeros((5, 5))
        u[0] = [0, 1.0, 1.0, 0.2, 0.0]
        u = np.maximum(u, u.T)
        s = Scenario(u=u, c=[1, 1, 1, 1, 0], p0=np.full(5, 0.2),
                     alpha=0.8, n=2, q=0.8)
        probs = build_greedy_row_lps(s)
        sol = solve(probs[0], method="dense")
        assert sol.status == "optimal"
        x = dict(zip(probs[0].var_names, sol.x))
        assert x["r0_4"] == pytest.approx(0.4, abs=1e-9)
        assert sol.objective == pytest.approx(1.6, abs=1e-9)

    def test_zero_costs_any_vertex(self):
        s = small_scenario(9, k=5, n=2)
        s = s.replace(c=np.zeros(5))
        xs = []
        for prob in build_greedy_row_lps(s):
            sol = solve(prob, method="dense")
            assert sol.status == "optimal"
            xs.append(sol.x)
        policy = assemble_greedy_policy(xs, s)
        assert validate_policy(policy, s, tol=1e-9) == []

    def test_assemble_rejects_wrong_row_lengths(self):
        s = small_scenario(9, k=4, n=2)
        with pytest.raises(ValueError, match="3 entries each"):
            assemble_greedy_policy([np.ones(2)] * 4, s)
        with pytest.raises(ValueError):
            assemble_greedy_policy([np.ones(3)] * 3 + [np.ones(2)], s)
        with pytest.raises(ValueError, match="need 4 row solutions"):
            assemble_greedy_policy([np.ones(3)] * 3, s)

    def test_single_cached_item_needs_full_quality(self):
        # at q=1 and N=1, the top item must be recommended even if not cached
        u = np.zeros((3, 3))
        u[0] = [0, 0.9, 0.4]
        u = np.maximum(u, u.T)
        s = Scenario(u=u, c=[1, 1, 0], p0=np.full(3, 1 / 3), alpha=0.5, n=1, q=1.0)
        sol = solve(build_greedy_row_lps(s)[0], method="dense")
        x = dict(zip(build_greedy_row_lps(s)[0].var_names, sol.x))
        assert x["r0_1"] == pytest.approx(1.0)

    def test_joint_lp_equals_row_decomposition(self):
        s = small_scenario(10, k=5, n=2, q=0.5)
        k = s.k
        probs = build_greedy_row_lps(s)
        sols = [solve(p, method="dense") for p in probs]
        row_total = sum(float(s.p0[i]) * sols[i].objective for i in range(k))

        # joint myopic LP over all rows at once
        nv = k * (k - 1)
        cols = {(i, j): i * (k - 1) + (j if j < i else j - 1)
                for i in range(k) for j in range(k) if j != i}
        c = np.zeros(nv)
        for (i, j), col in cols.items():
            c[col] = s.p0[i] * s.c[j]
        a_eq = np.zeros((k, nv))
        a_ub = np.zeros((k, nv))
        qmax = max_quality(s.u, s.n)
        for (i, j), col in cols.items():
            a_eq[i, col] = 1.0
            a_ub[i, col] = -s.u[i, j]
        joint = LpProblem(
            c=c, a_eq=sparse.csr_matrix(a_eq), b_eq=np.full(k, float(s.n)),
            a_ub=sparse.csr_matrix(a_ub), b_ub=-s.q * qmax,
            lb=np.zeros(nv), ub=np.ones(nv),
            var_names=[f"r{i}_{j}" for (i, j) in sorted(cols, key=cols.get)])
        jsol = solve(joint, method="dense")
        assert jsol.status == "optimal"
        assert jsol.objective == pytest.approx(row_total, abs=1e-9)


class TestPositional:
    def test_n1_coincides_with_uniform_lp(self):
        s = small_scenario(11, k=5, n=1, q=0.7)
        uni = build_session_lp(s)
        pos = build_positional_lp(s)
        assert np.array_equal(uni.c, pos.c)
        assert (uni.a_eq != pos.a_eq).nnz == 0
        assert (uni.a_ub != pos.a_ub).nnz == 0
        assert np.array_equal(uni.b_eq, pos.b_eq)
        assert np.array_equal(uni.b_ub, pos.b_ub)
        # identical problems + deterministic solver => identical policies
        su = solve(uni, method="dense")
        sp = solve(pos, method="dense")
        ru = recover_policy(su, s, positional=False, problem=uni)
        rp = recover_policy(sp, s, positional=True, problem=pos)
        assert np.allclose(ru.policy.matrix, rp.policy.slot_matrices[0], atol=1e-6)

    def test_uniform_clicks_match_uniform_optimum(self):
        for seed in (12, 13, 14):
            s = small_scenario(seed, k=5, n=2, q=0.6)
            assert s.uniform_clicks
            _, _, rec_uni = solve_session(s)
            pos_prob = build_positional_lp(s)
            pos_sol = solve(pos_prob, method="dense")
            assert pos_sol.status == "optimal"
            assert pos_sol.objective == pytest.approx(rec_uni.objective_value, abs=1e-8)

    def test_positional_round_trip(self):
        s = small_scenario(15, k=5, n=2, q=0.5, v="skewed")
        prob = build_positional_lp(s)
        sol = solve(prob, method="dense")
        assert sol.status == "optimal"
        rec = recover_policy(sol, s, positional=True, problem=prob)
        assert validate_policy(rec.policy, s, tol=1e-6) == []
        rep = evaluate(rec.policy, s)
        assert rep.ltec == pytest.approx((1 - s.alpha) * rec.objective_value, rel=1e-8)

    def test_zero_click_slot_reduces_to_single_slot(self):
        # v = [1, 0]: the second slot is never clicked and never scores
        # quality, so the optimum equals the one-slot problem's optimum
        s2 = small_scenario(18, k=6, n=2, q=0.8, v=None).replace(v=np.array([1.0, 0.0]))
        s1 = s2.replace(n=1)
        pos = solve(build_positional_lp(s2), method="dense")
        uni = solve(build_session_lp(s1), method="dense")
        assert pos.status == uni.status == "optimal"
        assert pos.objective == pytest.approx(uni.objective, abs=1e-8)

    def test_skewed_clicks_beat_or_match_uniform_policy(self):
        s = small_scenario(16, k=6, n=2, q=0.7, v="skewed")
        pos_prob = build_positional_lp(s)
        pos_sol = solve(pos_prob, method="dense")
        rec_pos = recover_policy(pos_sol, s, positional=True, problem=pos_prob)
        # the uniform-click optimum placed agnostically is a feasible positional
        # policy, so the position-aware optimum can only be better
        _, _, rec_uni = solve_session(s)
        uni_ltec = (1 - s.alpha) * rec_uni.objective_value
        pos_ltec = (1 - s.alpha) * rec_pos.objective_value
        assert pos_ltec <= uni_ltec + 1e-8


class TestBackendsAgree:
    def test_highs_same_objective(self):
        s = small_scenario(17, k=6, n=2, q=0.8)
        prob = build_session_lp(s)
        dense = solve(prob, method="dense")
        highs = solve(prob, method="highs")
        assert dense.status == highs.status == "optimal"
        assert dense.objective == pytest.approx(highs.objective, rel=1e-7)
