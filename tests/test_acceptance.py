"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Criteria 1-2 are statistical (3-sigma coverage) and run with pinned seeds;
everything else is deterministic at the stated tolerances. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from cacherec import (baseline_policy, entropy, evaluate, max_quality,
                      quality_of, validate_policy)
from cacherec.data import gen_poisson_graph, scenario_from_config, zipf_popularity
from cacherec.lp import (build_positional_lp, build_session_lp, recover_policy)
from cacherec.policies import solve_greedy, solve_positional, solve_session
from cacherec.sim import brute_force_optimum, simulate
from cacherec.simplex import solve
from _oracles import vertex_optimum
from conftest import (random_box_lp, random_positional_policy, random_scenario,
                      random_uniform_policy)


def criterion(num: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {description}" + (f" | {detail}" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


K100_CONFIG = {
    "graph": {"kind": "poisson", "k": 100, "mean_degree": 8},
    "alpha": 0.8, "n": 2, "zipf_s": 0.7, "cache_size": 2, "seed": 42,
}


def test_criterion_1_analytic_vs_simulation():
    """20 seeded random scenarios: simulation within 3 stderr of the analytic rate."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(20):
        k = int(rng.integers(8, 51))
        n = int(rng.integers(1, 4))
        alpha = [0.5, 0.7, 0.9][case % 3]
        if case % 2:
            s = random_scenario(rng, k=k, n=n, alpha=alpha, v="skewed")
            p = random_positional_policy(rng, s)
        else:
            s = random_scenario(rng, k=k, n=n, alpha=alpha)
            p = random_uniform_policy(rng, s)
        rep = simulate(p, s, steps=10 ** 6, seed=int(rng.integers(2 ** 31)))
        want = evaluate(p, s).ltec
        z = abs(rep.empirical_cost_rate - want) / rep.stderr
        worst = max(worst, z)
        assert z <= 3.0, f"case {case}: |{rep.empirical_cost_rate} - {want}| = {z:.2f} stderr"
    elapsed = time.perf_counter() - t0
    criterion(1, "analytic-simulation agreement (20 cases, 1e6 steps)",
              worst <= 3.0 and elapsed < 300.0,
              f"max |z|={worst:.2f}, {elapsed:.1f}s")


def test_criterion_2_cycle_length_law():
    """Mean renewal-cycle length matches 1/(1-alpha) within 3 stderr."""
    details = []
    ok = True
    for alpha, seed in ((0.5, 11), (0.8, 12)):
        s = random_scenario(np.random.default_rng(seed), k=12, n=2, alpha=alpha)
        p = random_uniform_policy(np.random.default_rng(seed + 1), s)
        rep = simulate(p, s, steps=500_000, seed=seed)
        want = 1.0 / (1.0 - alpha)
        gap = abs(rep.mean_cycle_length - want)
        ok &= gap <= 3.0 * rep.cycle_length_stderr
        details.append(f"alpha={alpha}: {rep.mean_cycle_length:.4f} vs {want} "
                       f"(3se={3 * rep.cycle_length_stderr:.4f})")
    criterion(2, "renewal cycle-length law", ok, "; ".join(details))


def test_criterion_3_lp_vs_brute_force():
    """On 50 tiny instances the LP never exceeds the deterministic optimum,
    and matches it when its solution is integral."""
    rng = np.random.default_rng(777)
    worst_gap = -np.inf
    integral_cases = 0
    for case in range(50):
        k = int(rng.integers(3, 7))
        n = int(rng.integers(1, min(3, k)))
        q = [0.0, 0.5, 0.9][case % 3]
        alpha = [0.9, 0.5, 0.7][case % 3]
        s = random_scenario(rng, k=k, n=n, q=q, alpha=alpha)
        prob = build_session_lp(s)
        sol = solve(prob, method="dense")
        assert sol.status == "optimal", sol.message
        rec = recover_policy(sol, s, problem=prob)
        lp_ltec = (1 - s.alpha) * rec.objective_value
        best, _ = brute_force_optimum(s)
        worst_gap = max(worst_gap, lp_ltec - best)
        assert lp_ltec <= best + 1e-6, f"case {case}: LP {lp_ltec} > brute force {best}"

        # round-trip identity holds on every solved instance (criterion 4 support)
        assert evaluate(rec.policy, s).ltec == pytest.approx(lp_ltec, rel=1e-8)

        r = rec.policy.mats
        if np.all((np.abs(r) <= 1e-6) | (np.abs(r - 1.0) <= 1e-6)):
            integral_cases += 1
            assert abs(lp_ltec - best) <= 1e-6, \
                f"case {case}: integral LP {lp_ltec} != brute force {best}"
    criterion(3, "LP vs brute force on 50 instances",
              worst_gap <= 1e-6,
              f"max LP-BF gap={worst_gap:.2e}, integral cases={integral_cases}")


def test_criterion_4_round_trip_identity():
    """Recovered policies re-evaluate to (1-alpha) c'z and validate at 1e-6."""
    rng = np.random.default_rng(4444)
    worst_rel = 0.0
    checked = 0
    for case in range(12):
        positional = case % 3 == 2
        method = "highs" if case % 4 == 3 else "dense"
        k = 30 if method == "highs" else int(rng.integers(4, 9))
        s = random_scenario(rng, k=k, n=int(rng.integers(1, 3)),
                            q=float(rng.uniform(0.3, 1.0)),
                            v="skewed" if positional else None)
        builder = build_positional_lp if positional else build_session_lp
        prob = builder(s)
        sol = solve(prob, method=method)
        assert sol.status == "optimal", sol.message
        rec = recover_policy(sol, s, positional=positional, problem=prob)
        want = (1 - s.alpha) * rec.objective_value
        got = evaluate(rec.policy, s).ltec
        rel = abs(got - want) / max(abs(want), 1e-30)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-8, f"case {case}: round-trip rel err {rel:.2e}"
        assert validate_policy(rec.policy, s, tol=1e-6) == [], f"case {case}"
        checked += 1
    criterion(4, "round-trip identity + recovered-policy feasibility",
              checked == 12, f"12 instances, max rel err={worst_rel:.2e}")


def test_criterion_5_dominance_and_monotonicity():
    """K=100 synthetic scenario: CHR(P2) >= CHR(P1) and nonincreasing in q."""
    chr1, chr2 = [], []
    for q in (0.7, 0.8, 0.9, 0.95):
        cfg = dict(K100_CONFIG, q=q)
        s, _ = scenario_from_config(cfg)
        chr1.append(solve_greedy(s, method="dense").report.chr)
        chr2.append(solve_session(s, method="highs").report.chr)
    dominance = all(b >= a - 1e-9 for a, b in zip(chr1, chr2))
    monotone = all(nxt <= cur + 1e-9 for cur, nxt in zip(chr2, chr2[1:]))
    criterion(5, "CHR(P2) >= CHR(P1), CHR(P2) nonincreasing in q",
              dominance and monotone,
              f"P1={[f'{x:.3f}' for x in chr1]}, P2={[f'{x:.3f}' for x in chr2]}")


def test_criterion_6_positional_coincidences():
    """Uniform clicks: position-aware LP matches the uniform LP; N=1 policies agree."""
    rng = np.random.default_rng(666)
    worst = 0.0
    for case in range(10):
        s = random_scenario(rng, k=int(rng.integers(5, 10)),
                            n=int(rng.integers(2, 4)), q=float(rng.uniform(0.2, 1.0)))
        assert s.uniform_clicks
        uni = solve(build_session_lp(s), method="dense")
        pos = solve(build_positional_lp(s), method="dense")
        assert uni.status == pos.status == "optimal"
        worst = max(worst, abs(uni.objective - pos.objective))
        assert abs(uni.objective - pos.objective) <= 1e-8, f"case {case}"

    worst_entry = 0.0
    for case in range(5):
        s = random_scenario(rng, k=int(rng.integers(4, 8)), n=1,
                            q=float(rng.uniform(0.2, 1.0)))
        pu = build_session_lp(s)
        pp = build_positional_lp(s)
        ru = recover_policy(solve(pu, method="dense"), s, problem=pu)
        rp = recover_policy(solve(pp, method="dense"), s, positional=True, problem=pp)
        gap = np.abs(ru.policy.mats - rp.policy.mats[0]).max()
        worst_entry = max(worst_entry, gap)
        assert gap <= 1e-6, f"case {case}: entrywise gap {gap:.2e}"
    criterion(6, "uniform-v objectives match (10 cases); N=1 policies agree (5 cases)",
              True, f"max obj gap={worst:.2e}, max entry gap={worst_entry:.2e}")


def test_criterion_7_entropy_trend():
    """K=100: CHR(P3) nonincreasing in click entropy and never below CHR(P2)."""
    cfg = dict(K100_CONFIG, q=0.9)
    s, _ = scenario_from_config(cfg)
    chr2 = solve_session(s, method="highs").report.chr
    vs = ([0.8, 0.2], [0.7, 0.3], [0.6, 0.4], [0.5, 0.5])
    hs, chr3 = [], []
    for v in vs:
        sv = s.replace(v=np.array(v))
        hs.append(entropy(sv.v))
        chr3.append(solve_positional(sv, method="highs").report.chr)
    assert hs == sorted(hs), "entropy should increase along the click list"
    monotone = all(nxt <= cur + 1e-9 for cur, nxt in zip(chr3, chr3[1:]))
    dominates = all(c3 >= chr2 - 1e-9 for c3 in chr3)
    criterion(7, "CHR(P3) nonincreasing in H_v and >= CHR(P2)",
              monotone and dominates,
              f"P2={chr2:.4f}, P3={[f'{x:.4f}' for x in chr3]} at Hv={[f'{h:.3f}' for h in hs]}")


def test_criterion_8_solver_correctness():
    """Bundled simplex equals exhaustive vertex enumeration on 100 small LPs
    and classifies infeasible/unbounded instances."""
    rng = np.random.default_rng(888)
    worst = 0.0
    for case in range(100):
        prob = random_box_lp(rng, n_vars=int(rng.integers(2, 9)))
        sol = solve(prob, method="dense")
        status, _, obj = vertex_optimum(prob)
        assert sol.status == status == "optimal", f"case {case}: {sol.status} vs {status}"
        gap = abs(sol.objective - obj)
        worst = max(worst, gap)
        assert gap <= 1e-9, f"case {case}: |{sol.objective} - {obj}| = {gap:.2e}"

    from scipy import sparse
    from cacherec.lp import LpProblem
    infeas = LpProblem(
        c=np.array([0.0]), a_eq=sparse.csr_matrix(np.array([[1.0], [1.0]])),
        b_eq=np.array([0.0, 1.0]), a_ub=sparse.csr_matrix((0, 1)), b_ub=np.array([]),
        lb=np.zeros(1), ub=np.full(1, np.inf), var_names=["x0"])
    unbounded = LpProblem(
        c=np.array([-1.0]), a_eq=sparse.csr_matrix((0, 1)), b_eq=np.array([]),
        a_ub=sparse.csr_matrix((0, 1)), b_ub=np.array([]),
        lb=np.zeros(1), ub=np.full(1, np.inf), var_names=["x0"])
    statuses_ok = (solve(infeas, method="dense").status == "infeasible"
                   and solve(unbounded, method="dense").status == "unbounded")
    criterion(8, "simplex matches vertex enumeration (100 LPs) + status classification",
              statuses_ok, f"max obj gap={worst:.2e}")


def test_criterion_9_baseline_exactness():
    """Baseline achieves the per-content maximum exactly; at q=1 the LP is tight."""
    rng = np.random.default_rng(999)
    for _ in range(20):
        s = random_scenario(rng)
        base = baseline_policy(s.u, s.n)
        exact = np.array_equal(quality_of(base, s), max_quality(s.u, s.n))
        assert exact

    worst = 0.0
    for seed in (1, 2, 3):
        s = random_scenario(np.random.default_rng(seed), k=6, n=2, q=1.0, alpha=0.6)
        prob = build_session_lp(s)
        sol = solve(prob, method="dense")
        assert sol.status == "optimal"
        rec = recover_policy(sol, s, problem=prob)
        gap = np.abs(quality_of(rec.policy, s) - s.q * max_quality(s.u, s.n)).max()
        worst = max(worst, gap)
        assert gap <= 1e-6
    criterion(9, "baseline quality exact; q=1 LP quality tight",
              True, f"max LP quality gap at q=1: {worst:.2e}")


def test_criterion_10_data_pipeline():
    """Synthetic graphs hit the target arc count; Zipf normalizes to 1e-12."""
    arcs = []
    for seed in range(10):
        _, stats = gen_poisson_graph(1000, 8, seed=seed)
        arcs.append(stats.arcs)
        assert abs(stats.arcs - 7980) / 7980 <= 0.10, f"seed {seed}: {stats.arcs} arcs"
    zipf_ok = True
    for k in (10, 100, 1000, 10_000):
        for s_exp in (0.4, 0.7, 1.0):
            p = zipf_popularity(k, s_exp)
            zipf_ok &= abs(float(p.sum()) - 1.0) <= 1e-12 and bool(np.all(p > 0))
    criterion(10, "poisson graph arcs within 10% of 7980; zipf sums to 1",
              zipf_ok, f"arcs over 10 seeds: min={min(arcs)}, max={max(arcs)}")
