"""Monte Carlo simulator and exhaustive search."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacherec import (Policy, Scenario, baseline_policy, data, evaluate, markov,
                      scenario_from_config, sim, solve_positional, solve_session)
from cacherec.sim import (_guide_search, _sample_path, _step, _step_table,
                          brute_force_optimum, simulate)
from _oracles import csr_arrays, dense_click_kernel, dense_sample_path, dense_step_table
from conftest import (CORRUPTIONS, corrupt_policy, random_dense_policy,
                      random_positional_policy, random_scenario, random_slate_policy,
                      random_uniform_policy)


def two_state(alpha=0.5):
    s = Scenario(u=[[0, 1], [1, 0]], c=[0, 1], p0=[0.5, 0.5], alpha=alpha, n=1)
    return s, Policy("uniform", [[0, 1], [1, 0]])


class TestSimulate:
    def test_iid_when_alpha_zero(self, rng):
        s = random_scenario(rng, alpha=0.0, binary_costs=False)
        p = random_uniform_policy(rng, s)
        rep = simulate(p, s, steps=200_000, seed=1)
        want = float(s.p0 @ s.c)
        assert abs(rep.empirical_cost_rate - want) <= 3 * rep.stderr
        assert rep.mean_cycle_length == pytest.approx(1.0)

    def test_forced_two_state_matches_analytic(self):
        s, p = two_state()
        rep = simulate(p, s, steps=300_000, seed=2)
        assert abs(rep.empirical_cost_rate - 0.5) <= 3 * rep.stderr

    def test_cycle_length_law(self):
        s, p = two_state(alpha=0.8)
        rep = simulate(p, s, steps=300_000, seed=3)
        assert abs(rep.mean_cycle_length - 5.0) <= 3 * rep.cycle_length_stderr

    def test_positional_matches_analytic(self, rng):
        s = random_scenario(rng, k=8, n=2, alpha=0.7, v="skewed")
        p = random_positional_policy(rng, s)
        rep = simulate(p, s, steps=400_000, seed=4)
        want = evaluate(p, s).ltec
        assert abs(rep.empirical_cost_rate - want) <= 3 * rep.stderr

    @pytest.mark.parametrize("steps", [1, 2, 50, 99, 100, 101])
    def test_stderr_follows_one_batch_rule(self, rng, steps):
        """min(N_BATCHES, steps) batches: bitwise the i.i.d. error below
        N_BATCHES steps, the batch-means error from there, NaN for one step."""
        s = random_scenario(rng, k=6, binary_costs=False)
        p = random_uniform_policy(rng, s)
        rep = simulate(p, s, steps=steps, seed=5)
        costs = s.c[_sample_path(p, s, steps, np.random.default_rng(5))[0]]
        if steps == 1:
            assert math.isnan(rep.stderr)
            return
        if steps < sim.N_BATCHES:
            want = costs.std(ddof=1) / math.sqrt(steps)
        else:
            size = steps // sim.N_BATCHES
            batches = costs[: sim.N_BATCHES * size].reshape(sim.N_BATCHES, size).mean(axis=1)
            want = batches.std(ddof=1) / math.sqrt(sim.N_BATCHES)
        assert rep.stderr.hex() == float(want).hex()

    def test_seed_reproducibility(self, rng):
        s = random_scenario(rng, k=6)
        p = random_uniform_policy(rng, s)
        a = simulate(p, s, steps=5_000, seed=42)
        b = simulate(p, s, steps=5_000, seed=42)
        assert a == b
        c = simulate(p, s, steps=5_000, seed=43)
        assert c.empirical_cost_rate != a.empirical_cost_rate

    @pytest.mark.parametrize("steps, seed", [
        (1000.0, 2.0), (np.int64(1000), np.int64(2)), (1000, np.float64(2.0))])
    def test_whole_float_and_numpy_counts_run(self, steps, seed):
        s, p = two_state()
        rep = simulate(p, s, steps=steps, seed=seed)
        assert (rep.steps, rep.seed) == (1000, 2)
        assert type(rep.steps) is int and type(rep.seed) is int
        assert rep == simulate(p, s, steps=1000, seed=2)

    @pytest.mark.parametrize("key, value", [
        ("seed", 2.7), ("seed", True), ("seed", np.float64(3.9)), ("seed", -1), ("seed", "1"),
        ("steps", True), ("steps", 1000.5), ("steps", np.float64(10.2)), ("steps", None),
    ])
    def test_fractional_or_bool_count_raises_naming_it(self, key, value):
        s, p = two_state()
        kw = {"steps": 1000, "seed": 2, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be a whole number >= 0"):
            simulate(p, s, **kw)

    def test_invalid_policy_rejected(self, rng):
        s = random_scenario(rng, k=5, n=2)
        with pytest.raises(ValueError, match="invalid policy"):
            simulate(Policy("uniform", np.zeros((5, 5))), s, steps=10, seed=0)

    def test_nan_entry_rejected(self):
        # NaN fails every comparison, so only an explicit check keeps a NaN
        # row, whose kernel support is empty, away from the sampler.
        s = Scenario(u=np.ones((4, 4)), c=[0, 1, 0, 1], p0=np.full(4, 0.25), alpha=0.5, n=1)
        r = np.roll(np.eye(4), 1, axis=1)  # the 4-cycle 0 -> 1 -> 2 -> 3 -> 0
        r[0, 1] = np.nan
        p = Policy("uniform", r)
        with pytest.raises(ValueError, match=r"invalid policy: entry \(0, 1\) not finite"):
            simulate(p, s, steps=100, seed=0)
        with pytest.raises(ValueError, match=r"invalid policy: entry \(0, 1\) not finite"):
            evaluate(p, s)

    def test_rate_within_cost_range(self, rng):
        s = random_scenario(rng, binary_costs=False)
        p = random_uniform_policy(rng, s)
        rep = simulate(p, s, steps=10_000, seed=5)
        assert s.c.min() <= rep.empirical_cost_rate <= s.c.max()
        assert rep.mean_cycle_length > 0

    def test_never_self_loops_via_recommendations(self, rng):
        # r_ii = 0: within a cycle, consecutive repeats are impossible
        s = random_scenario(rng, k=4, n=1, alpha=0.9)
        p = random_uniform_policy(rng, s)
        path, lengths, _ = _sample_path(p, s, 50_000, np.random.default_rng(6))
        boundaries = set(np.cumsum(lengths[:-1]).tolist())  # renewals may repeat
        repeats = np.flatnonzero(path[1:] == path[:-1]) + 1
        assert all(int(i) in boundaries for i in repeats)


def graph_scenario(k: int, n: int, v="uniform", q: float = 0.9,
                   alpha: float = 0.8) -> Scenario:
    scenario, _ = scenario_from_config({
        "graph": {"kind": "poisson", "k": k, "mean_degree": 6}, "alpha": alpha, "n": n,
        "v": v, "q": q, "zipf_s": 0.7, "cache_size": max(1, k // 10), "seed": 5})
    return scenario


def oracle_cases():
    """(label, policy, scenario) for the sparse-vs-dense sampler comparison."""
    rng = np.random.default_rng(77)
    uni, p2_sc = graph_scenario(60, 2), graph_scenario(40, 2)
    pos, p3_sc = (graph_scenario(k, 3, v=[0.6, 0.3, 0.1]) for k in (60, 30))
    p2 = solve_session(p2_sc).policy
    assert np.any((p2.mats > 0) & (p2.mats < 1))  # a fractional optimum
    dense_sc = random_scenario(rng, k=30, n=3, alpha=0.85)
    iid = random_scenario(rng, k=12, n=2, alpha=0.0)
    return [
        ("uniform-baseline", baseline_policy(uni.u, uni.n), uni),
        ("positional-baseline", baseline_policy(pos.u, pos.n, pos.v), pos),
        ("session-optimum", p2, p2_sc),
        ("positional-optimum", solve_positional(p3_sc).policy, p3_sc),
        ("dense-rows", random_dense_policy(rng, dense_sc), dense_sc),
        ("alpha-zero", random_uniform_policy(rng, iid), iid),
    ]


CASES = oracle_cases()


class TestSparseSampler:
    @pytest.mark.parametrize("label,policy,scenario", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_paths_match_dense_oracle(self, label, policy, scenario, seed):
        got = _sample_path(policy, scenario, 30_000, np.random.default_rng(seed))
        want = dense_sample_path(policy, scenario, 30_000, np.random.default_rng(seed))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    @pytest.mark.parametrize("label,policy,scenario", CASES, ids=[c[0] for c in CASES])
    def test_followed_requests_have_positive_probability(self, label, policy, scenario):
        path, lengths, _ = _sample_path(policy, scenario, 20_000, np.random.default_rng(1))
        followed = np.ones(path.size, dtype=bool)
        followed[np.concatenate([[0], np.cumsum(lengths[:-1])])] = False
        kernel = dense_click_kernel(policy, scenario)
        assert np.all(kernel[path[:-1][followed[1:]], path[1:][followed[1:]]] > 0.0)

    def test_rounding_overflow_stays_on_support(self):
        # Row 0's cumsum ends at 0.6, below the draws 0.7 and 0.999: the dense
        # scan would clamp to content K-1 = 4, which row 0 never recommends.
        kernel = np.array([[0.0, 0.3, 0.0, 0.3, 0.0],
                           [0.5, 0.0, 0.5, 0.0, 0.0],
                           [0.0, 0.0, 0.0, 0.0, 1.0],
                           [0.2, 0.2, 0.2, 0.0, 0.4],
                           [1.0, 0.0, 0.0, 0.0, 0.0]])
        table = _step_table(csr_arrays(kernel))
        u = np.array([0.0, 0.3, 0.31, 0.6, 0.7, 0.999])
        got = _step(table, np.zeros(u.size, dtype=np.int64), u)
        assert got.tolist() == [1, 1, 3, 3, 3, 3]
        got = _step(table, np.array([1, 2, 3, 3, 4]), np.array([0.5, 0.99, 0.61, 0.6, 0.5]))
        assert got.tolist() == [0, 4, 4, 2, 0]

    def test_row_without_support_raises(self):
        kernel = np.array([[0.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [0.5, 0.5, 0.0]])
        with pytest.raises(ValueError, match="row 1 has no positive entry"):
            _step_table(csr_arrays(kernel))

    def test_step_table_refused_before_allocation(self, monkeypatch):
        # Rows of 2, 1 and 3 support entries pad to width 4: two tables of
        # 3 x 4 entries, 192 bytes.
        kernel = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5]])
        kernel = csr_arrays(kernel)
        monkeypatch.setattr(data, "machine_memory", lambda: 191)
        with pytest.raises(ValueError, match="step table 2 x 3 x 4 cannot be allocated"):
            _step_table(kernel)
        monkeypatch.setattr(data, "machine_memory", lambda: 192)
        assert _step_table(kernel)[2] == 4
        # Row 0 stores a tolerated negative entry and a zero beside its one
        # positive entry: the running sums need a 3 x 3 scratch table (72
        # bytes) beside the two 3 x 1 tables (48 bytes).
        kernel = (np.array([0, 3, 4, 5]), np.array([0, 1, 2, 0, 1]),
                  np.array([-1e-9, 0.0, 1.0, 1.0, 1.0]))
        monkeypatch.setattr(data, "machine_memory", lambda: 71)
        with pytest.raises(ValueError, match="running sums 3 x 3 cannot be allocated"):
            _step_table(kernel)
        monkeypatch.setattr(data, "machine_memory", lambda: 72)
        assert _step_table(kernel)[1].tolist() == [2, 0, 1]

    def test_memory_independent_of_catalog_width(self):
        # A per-step (active cycles, K) float temporary would take about
        # 50 000 x 400 x 8 B = 160 MB at t = 1 for these sizes.
        s = graph_scenario(400, 2)
        p = baseline_policy(s.u, s.n)
        tracemalloc.start()
        try:
            simulate(p, s, steps=250_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"simulate peaked at {peak / 1e6:.1f} MB"


class TestBruteForce:
    def test_routes_to_cached_item(self):
        s = Scenario(u=np.ones((3, 3)) - np.eye(3), c=[0, 1, 1],
                     p0=np.full(3, 1 / 3), alpha=0.9, n=1, q=0.0)
        best, policy = brute_force_optimum(s)
        assert policy.mats[1, 0] == 1.0
        assert policy.mats[2, 0] == 1.0
        assert best == pytest.approx(evaluate(policy, s).ltec)

    def test_full_quality_forces_baseline(self, rng):
        # q = 1 with unique top-N sets leaves exactly one feasible policy
        s = random_scenario(rng, k=5, n=2, q=1.0)
        u = rng.random((5, 5))
        u = np.maximum(u, u.T)  # distinct values => unique top-2 sets
        np.fill_diagonal(u, 0.0)
        s = s.replace(u=u)
        from cacherec.model import baseline_policy
        best, policy = brute_force_optimum(s)
        assert np.array_equal(policy.mats, baseline_policy(s.u, s.n).mats)

    def test_constant_costs_make_everything_equal(self, rng):
        s = random_scenario(rng, k=4, n=1, q=0.0)
        kappa = 0.7
        s = s.replace(c=np.full(4, kappa))
        best, _ = brute_force_optimum(s)
        assert best == pytest.approx(kappa)

    def test_cap_enforced(self, rng):
        s = random_scenario(rng, k=8, n=3, q=0.0)
        with pytest.raises(ValueError, match="cap"):
            brute_force_optimum(s, cap=10)

    def test_cap_refused_at_the_first_row_past_it(self):
        # Each row scans C(99, 3) = 156 849 slates; rows 0..3 already pass the
        # cap, so the other 96 rows are never scanned.
        s, _ = scenario_from_config({"graph": {"kind": "poisson", "k": 100}, "n": 3,
                                     "q": 0.9, "seed": 1})
        with pytest.raises(ValueError, match=r"of rows 0\.\.3 exceed the cap"):
            brute_force_optimum(s)

    def test_batched_scores_match_evaluator(self, rng, monkeypatch):
        # the vectorized scorer must agree with the per-policy evaluator
        monkeypatch.setattr(sim, "BRUTE_FORCE_CHUNK", 7)  # odd chunk exercises batching
        s = random_scenario(rng, k=5, n=2, q=0.0)
        best, policy = brute_force_optimum(s)
        assert best == pytest.approx(evaluate(policy, s).ltec, rel=1e-12)

    def test_positional_scenarios_rejected(self, rng):
        s = random_scenario(rng, k=5, n=2, v="skewed")
        with pytest.raises(ValueError, match="uniform-click"):
            brute_force_optimum(s)


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 9), st.booleans(),
       st.sampled_from(["mix", "slates"]),
       st.lists(st.sampled_from(CORRUPTIONS), max_size=2))
@settings(max_examples=300, deadline=None)
def test_support_on_entries_matches_dense_oracle(seed, k, positional, source, how):
    """The click kernel built from the policy's entries is the dense kernel,
    entry for entry, and its step table is the dense reference table: the
    same columns and width and bitwise the same thresholds (or the same
    error)."""
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, k=k, v="skewed" if positional else None)
    if source == "slates":
        policy = random_slate_policy(rng, s, positional)
    else:
        policy = (random_positional_policy if positional else random_uniform_policy)(rng, s)
    policy = corrupt_policy(rng, policy, how)
    kernel = markov.click_kernel(policy, s)
    dense = dense_click_kernel(policy, s)
    assert np.all(np.diff(kernel[0]) >= 0) and kernel[0][-1] == kernel[1].size
    scattered = np.zeros((k, k))
    scattered[np.repeat(np.arange(k), np.diff(kernel[0])), kernel[1]] = kernel[2]
    assert scattered.tobytes() == dense.tobytes()

    def table(fn, kernel):
        try:
            return fn(kernel)
        except ValueError as exc:
            return str(exc)

    got, want = table(_step_table, kernel), table(dense_step_table, dense)
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3000),
       st.sampled_from(["uniform", "zipf", "ties", "short"]))
@settings(max_examples=200, deadline=None)
def test_guide_search_matches_searchsorted(seed, k, shape):
    """The guide-table search returns searchsorted's index for draws at 0,
    at cumulative sums, just below 1 and past a float total below 1."""
    rng = np.random.default_rng(seed)
    if shape == "zipf":
        p = 1.0 / np.arange(1, k + 1) ** rng.uniform(0.5, 2.0)
    else:
        p = rng.random(k)
    if shape == "ties":  # zero-probability contents repeat a cumulative sum
        p[rng.random(k) < 0.5] = 0.0
        p[rng.integers(k)] = 1.0
    cum = np.cumsum(p / p.sum())
    if shape == "short":
        cum *= 1.0 - rng.uniform(1e-16, 1e-3)
    below_one = np.nextafter(1.0, 0.0)
    past = cum[-1] + (1.0 - cum[-1]) * rng.random(20) if cum[-1] < 1.0 else []
    r = np.concatenate([[0.0, below_one], cum[cum < 1.0][:200], rng.random(500),
                        np.minimum(past, below_one)])
    assert np.array_equal(_guide_search(cum, r), np.searchsorted(cum, r, side="right"))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.booleans())
@settings(max_examples=200, deadline=None)
def test_step_table_matches_dense_scan(seed, k, short):
    """A step picks the first support column whose cumulative sum reaches the
    draw, or the row's last support column where the draw passes a row total
    below 1. For draws above 0 that is the dense inverse-CDF scan's pick,
    clamped to the last support column; a draw of 0 stops the dense scan on
    a zero column that precedes the support."""
    rng = np.random.default_rng(seed)
    kernel = np.zeros((k, k))
    for i in range(k):
        cols = rng.choice(k, rng.integers(1, k + 1), replace=False)
        kernel[i, cols] = rng.random(cols.size) + 1e-3
        kernel[i] /= kernel[i].sum()
        if short and rng.random() < 0.5:  # a total below 1, as rounding can leave
            kernel[i] *= 1.0 - rng.uniform(1e-16, 1e-2)
    row_cum = np.cumsum(kernel, axis=1)
    current = rng.integers(k, size=400)
    u = rng.random(400)
    u[:50] = np.nextafter(1.0, 0.0)
    u[50:100] = 0.0
    at = rng.integers(k, size=100)  # draws equal to a cumulative sum of their row
    u[100:200] = np.minimum(row_cum[current[100:200], at], np.nextafter(1.0, 0.0))
    last = k - 1 - np.argmax(kernel[:, ::-1] > 0.0, axis=1)
    hit = (kernel[current] > 0.0) & (row_cum[current] >= u[:, None])
    want = np.where(hit.any(axis=1), hit.argmax(axis=1), last[current])
    scan = np.minimum((row_cum[current] < u[:, None]).sum(axis=1), last[current])
    assert np.array_equal(want[u > 0.0], scan[u > 0.0])
    got = _step(_step_table(csr_arrays(kernel)), current, u)
    assert np.array_equal(got, want)
