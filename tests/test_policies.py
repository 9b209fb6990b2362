"""Row-kernel solvers (method="auto") against the LP oracle."""
from __future__ import annotations

import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacherec import Scenario, quality_profile, scenario_from_config, validate_policy
from cacherec import Policy, data, markov, model, policies
from cacherec.lp import build_greedy_row_lps, build_positional_lp, build_session_lp
from cacherec.simplex import solve
from conftest import bad_solver_cmd, random_scenario
from _oracles import evaluate_each_round, mix_value

TOL = 1e-9

CASES = list(itertools.product(["uniform", "skewed"], [0.0, 0.5, 1.0], [0.0, 0.5, 0.95],
                               [True, False]))


def lp_value(problem) -> float:
    sol = solve(problem, method="highs")
    assert sol.status == "optimal", sol.message
    return sol.objective


def session_reference(s, positional: bool) -> float:
    if s.alpha == 0.0:
        return float(s.p0 @ s.c)  # G = I: every feasible policy costs p0'c
    build = build_positional_lp if positional else build_session_lp
    return (1.0 - s.alpha) * lp_value(build(s))


def assert_feasible(result, s):
    assert result.status == "optimal"
    assert validate_policy(result.policy, s) == []
    assert quality_profile(result.policy, s).ratio().min() >= s.q - 1e-9
    assert result.residual <= 1e-9


@pytest.mark.parametrize("v,q,alpha,binary", CASES,
                         ids=[f"{v}-q{q}-a{a}-{'bin' if b else 'cont'}" for v, q, a, b in CASES])
def test_kernel_matches_lp_oracle(v, q, alpha, binary):
    seed = CASES.index((v, q, alpha, binary))
    rng = np.random.default_rng(7000 + seed)
    k = int(rng.integers(5, 13))
    s = random_scenario(rng, k=k, n=int(rng.integers(1, 4)), q=q, alpha=alpha,
                        v=None if v == "uniform" else "skewed", binary_costs=binary)

    p1 = policies.solve_greedy(s)
    assert_feasible(p1, s)
    rows = build_greedy_row_lps(s)
    assert p1.objective == pytest.approx(
        sum(p * lp_value(row) for p, row in zip(s.p0, rows)), abs=TOL)

    for solver, positional in ((policies.solve_session, False),
                               (policies.solve_positional, True)):
        result = solver(s)
        assert_feasible(result, s)
        assert result.report.ltec == pytest.approx(session_reference(s, positional), abs=TOL)
        assert result.objective * (1.0 - s.alpha) == pytest.approx(result.report.ltec, abs=TOL)


def test_lp_methods_still_route_to_the_lp():
    s = random_scenario(np.random.default_rng(3), k=6, n=2, alpha=0.7, q=0.8)
    auto = policies.solve_session(s)
    for method in ("dense", "highs"):
        oracle = policies.solve_session(s, method=method)
        assert oracle.report.ltec == pytest.approx(auto.report.ltec, abs=TOL)
    assert policies.solve_greedy(s, method="dense").objective == pytest.approx(
        policies.solve_greedy(s).objective, abs=TOL)


def test_iteration_cap_raises_solver_failure(monkeypatch):
    s = random_scenario(np.random.default_rng(5), k=30, n=2, alpha=0.9, q=0.8,
                        binary_costs=False)
    want = policies.solve_session(s)
    rounds = want.iterations - 1  # one kernel call per round after the P1 start
    assert rounds >= 2  # P1 start is not optimal here
    monkeypatch.setattr(policies, "MAX_ROUNDS", rounds)
    got = policies.solve_session(s)
    assert np.array_equal(got.policy.data, want.policy.data)
    assert got.report.ltec == want.report.ltec
    for cap in (rounds - 1, 1):
        monkeypatch.setattr(policies, "MAX_ROUNDS", cap)
        with pytest.raises(policies.SolverFailure, match="policy iteration"):
            policies.solve_session(s)


def test_kernel_step_cap_counts_only_steps_that_leave_rows_open(monkeypatch):
    s, _ = scenario_from_config({
        "graph": {"kind": "poisson", "k": 100, "mean_degree": 8}, "alpha": 0.8, "n": 3,
        "q": 0.9, "zipf_s": 0.7, "cache_size": 2, "seed": 0})
    # A kernel call runs `_select` once a step, and once before its first
    # step for the mu = 0 pick when some row is cold: its start lo meets the
    # floor or its start is one slate. Here only the first call has one.
    calls, cold_calls = [], []
    kernel, select = policies.row_kernel, policies._select

    def counting_kernel(values, u, weights, floor, start):
        q_lo = policies._weigh(u[np.arange(u.shape[0])[:, None], start.lo], weights)
        cold = ((q_lo >= floor) | (start.lo == start.hi).all(axis=1)).any()
        cold_calls.append(bool(cold))
        calls.append(-1 if cold else 0)
        return kernel(values, u, weights, floor, start)

    def counting_select(*args):
        calls[-1] += 1
        return select(*args)

    monkeypatch.setattr(policies, "row_kernel", counting_kernel)
    monkeypatch.setattr(policies, "_select", counting_select)
    want = policies.solve_session(s)
    monkeypatch.undo()
    need = max(calls)
    assert need >= 2
    assert not cold_calls[calls.index(need)]  # the longest call has no cold row

    # The last allowed step closes every row: that call solves.
    monkeypatch.setattr(policies, "MAX_KERNEL_STEPS", need)
    got = policies.solve_session(s)
    assert np.array_equal(got.policy.data, want.policy.data)
    assert got.report.ltec == want.report.ltec
    monkeypatch.setattr(policies, "MAX_KERNEL_STEPS", need - 1)
    with pytest.raises(policies.SolverFailure,
                       match=rf"row kernel: [1-9][0-9]* rows still open after {need - 1} steps"):
        policies.solve_session(s)


def test_quality_floor_not_undercut_by_rounding_slack():
    # Content 2 is free and only 1e-13 short of content 1's quality, so at
    # q = 1 the floor still rules it out after content 0.
    u = [[0, 1, 1 - 1e-13], [1, 0, 1], [1 - 1e-13, 1, 0]]
    s = Scenario(u=u, c=[1, 1, 0], p0=np.full(3, 1 / 3), alpha=0.5, n=1, q=1.0)
    for solver in (policies.solve_greedy, policies.solve_session, policies.solve_positional):
        result = solver(s)
        mats = result.policy.mats.reshape(-1, 3, 3)
        assert mats[:, 0, 2].max() == 0.0
        assert_feasible(result, s)


def test_select_is_ordered_with_ties_to_lowest_index():
    # Binary u and small-integer V leave many equal scores in every row.
    rng = np.random.default_rng(11)
    k = 40
    u = (rng.random((k, k)) < 0.3).astype(float)
    values = rng.integers(0, 3, k).astype(float)
    rows = np.sort(rng.choice(k, size=25, replace=False))
    for mu in (np.zeros(rows.size), np.ones(rows.size), rng.integers(0, 3, rows.size) / 2):
        score = values[None, :] - mu[:, None] * u[rows]
        score[np.arange(rows.size), rows] = np.inf
        for n in (1, 2, 3, 7):
            want = np.argsort(score, axis=1, kind="stable")[:, :n]
            assert np.array_equal(model._select(values, u, mu, rows, n), want)
    # top_slates is the selector at V = 0 and mu = 1 over every row.
    score = -u
    np.fill_diagonal(score, np.inf)
    for n in (1, 2, 3, 7):
        want = np.argsort(score, axis=1, kind="stable")[:, :n]
        assert np.array_equal(model.top_slates(u, n), want)
        assert np.array_equal(model.top_slates(u.tolist(), n), want)


def slate_mix_quality(sol, u, weights):
    rows = np.arange(u.shape[0])[:, None]
    return (sol.theta * policies._weigh(u[rows, sol.lo], weights)
            + (1.0 - sol.theta) * policies._weigh(u[rows, sol.hi], weights))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 15), st.booleans())
@settings(max_examples=150, deadline=None)
def test_weigh_is_row_local_and_left_to_right(seed, m, n, skewed):
    """A row's weighed sum is bitwise the same in any block it is gathered
    in, and is the plain left-to-right sum of its N products."""
    rng = np.random.default_rng(seed)
    block = rng.random((m, n)) * rng.choice([1.0, 1e-3, 1e3], size=(m, 1))
    weights = np.ones(n)
    if skewed:
        weights = np.sort(rng.dirichlet(np.full(n, 0.5)))[::-1].copy()
    got = policies._weigh(block, weights)
    sub = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
    assert got[sub].tobytes() == policies._weigh(block[sub], weights).tobytes()
    for i in range(m):
        want = 0.0
        for t in range(n):
            want += block[i, t] * weights[t]
        assert got[i] == want


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 24), st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_warm_start_reaches_the_cold_optimum(seed, k, q, positional, tied_values):
    """From any start whose hi rows meet the floor, the kernel ends at the
    same row values as from the max-quality bracket (top, top, 1), and
    meets every floor."""
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, k=k, n=int(rng.integers(1, min(4, k))), q=q,
                        v="skewed" if positional else None)
    weights, floor, _, top_start = policies._row_problem(s, positional)
    kernel = functools.partial(policies.row_kernel, u=s.u, weights=weights, floor=floor)
    values = rng.integers(0, 4, k).astype(float) if tied_values else rng.uniform(0, 3, k)
    cold, want, _ = kernel(values, start=top_start)
    other = kernel(rng.uniform(0, 3, k), start=top_start)[0]
    dearest = model._select(-values, s.u, np.zeros(k), np.arange(k), s.n)
    starts = {
        "P1": kernel(s.c, start=top_start)[0],
        "other round": other,
        "lo == hi": policies.RowSolution(other.hi, other.hi, np.ones(k)),
        # Rows whose dearest slate misses the floor start with hi cheaper than lo.
        "hi cheaper": policies.RowSolution(dearest, cold.hi, np.zeros(k)),
    }
    slack = 1e-12 * (1.0 + floor)
    for label, start in starts.items():
        warm, got, _ = kernel(values, start=start)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * values.max(),
                                   err_msg=label)
        assert np.all(slate_mix_quality(warm, s.u, weights) >= floor - slack), label


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.integers(1, 15),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_top_bracket_meets_every_floor(seed, k, n, q, positional, tied):
    """Every row's top slate meets its floor exactly, for every N, and a
    first call from the bracket (top, top, 1) gives every row the
    selector's mu = 0 pick as lo wherever that pick meets the floor."""
    rng = np.random.default_rng(seed)
    k = max(k, n + 1)
    s = random_scenario(rng, k=k, n=n, q=q, v="skewed" if positional else None)
    if tied:
        s = s.replace(u=rng.integers(0, 4, (k, k)) / 3)
    weights, floor, _, start = policies._row_problem(s, positional)
    top = model.top_slates(s.u, s.n)
    assert np.array_equal(start.lo, top) and np.array_equal(start.hi, top)
    assert np.all(start.theta == 1.0)
    rows = np.arange(k)
    assert np.all(policies._weigh(s.u[rows[:, None], top], weights) >= floor)
    values = rng.integers(0, 4, k).astype(float)
    sol, _, _ = policies.row_kernel(values, s.u, weights, floor, start)
    cheapest = model._select(values, s.u, np.zeros(k), rows, s.n)
    meets = policies._weigh(s.u[rows[:, None], cheapest], weights) >= floor
    assert np.array_equal(sol.lo[meets], cheapest[meets])


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.integers(1, 15),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_kernel_costs_are_its_slates_priced_afresh(seed, k, n, q, positional, tied):
    """The costs a kernel call returns are bitwise a row-by-row pricing of
    the slates it returns and of the start it was given, whether that start
    is the top bracket or an earlier call's result."""
    rng = np.random.default_rng(seed)
    k = max(k, n + 1)
    s = random_scenario(rng, k=k, n=n, q=q, v="skewed" if positional else None)
    if tied:
        s = s.replace(u=rng.integers(0, 4, (k, k)) / 3)
    weights, floor, _, top = policies._row_problem(s, positional)
    kernel = functools.partial(policies.row_kernel, u=s.u, weights=weights, floor=floor)
    earlier = kernel(rng.uniform(0, 3, k), start=top)[0]
    for start in (top, earlier):
        values = rng.integers(0, 4, k).astype(float) if tied else rng.uniform(0, 3, k)
        sol, cost, start_cost = kernel(values, start=start)
        assert cost.tobytes() == mix_value(sol, values, weights).tobytes()
        assert start_cost.tobytes() == mix_value(start, values, weights).tobytes()


def test_top_bracket_row_below_its_floor_starts_from_the_cheapest_slate():
    # A caller's floor may sit above a row's top quality. That row still
    # takes its mu = 0 slate as lo and top as hi; resuming from the
    # one-slate bracket (top, top) would split it at mu = 0 / 0.
    rng = np.random.default_rng(5)
    s = random_scenario(rng, k=12, n=3, q=1.0)
    weights, floor, _, start = policies._row_problem(s, positional=False)
    top_quality = s.u[0, start.hi[0]] @ weights
    floor = floor.copy()
    floor[0] = top_quality + 32.0 * np.finfo(float).eps * (1.0 + top_quality)
    values = s.u[0].copy()  # the most similar items cost the most
    sol, _, _ = policies.row_kernel(values, s.u, weights, floor, start)
    cheapest = model._select(values, s.u, np.zeros(1), np.zeros(1, dtype=np.intp), s.n)[0]
    assert not np.array_equal(cheapest, start.hi[0])
    assert np.array_equal(sol.lo[0], cheapest) and np.array_equal(sol.hi[0], start.hi[0])
    assert np.isfinite(sol.theta).all()


@pytest.mark.parametrize("name", ["P1", "P2", "P3"])
def test_policy_iteration_matches_per_round_evaluation(name):
    """Solving each round's session system from the CSR click kernel
    changes no bit of the answer against the dense kernel's plain
    reduced solve; P1 is the first round."""
    for seed in range(40):
        rng = np.random.default_rng(9100 + seed)
        s = random_scenario(rng, k=int(rng.integers(4, 31)), q=float(rng.choice([0.0, 0.9, 1.0])),
                            v="skewed" if seed % 2 else None, binary_costs=seed % 3 != 0)
        policy, report, calls, objective = evaluate_each_round(s, name)
        got = policies.solve_named(name, s)
        assert got.policy.kind == policy.kind, seed
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.policy, field), getattr(policy, field)), seed
        assert (got.iterations, got.objective) == (calls, objective), seed
        for field in ("ltec", "chr", "residual"):
            assert getattr(got.report, field) == getattr(report, field), (seed, field)
        assert got.report.cost_to_go.tobytes() == report.cost_to_go.tobytes(), seed


def test_rows_worth_zero_do_not_flip_on_rounding_noise():
    # Two cached contents both have V ~ 0, and each flip between them
    # "improved" a row by ~1e-16; a margin relative to the row's own value
    # let P2 cycle until it gave up after MAX_ROUNDS.
    rng = np.random.default_rng(364)
    s = random_scenario(rng, k=int(rng.integers(4, 41)))
    assert (s.k, s.n) == (24, 1)
    result = policies.solve_session(s)
    assert result.iterations == 2
    assert result.report.ltec == pytest.approx(session_reference(s, False), abs=1e-12)


def test_highs_oracle_agrees_with_kernel_at_tight_tolerances():
    # At HiGHS's default feasibility tolerances its optimum here sat 3.6e-9
    # above the kernel's.
    rng = np.random.default_rng(373)
    s = random_scenario(rng, k=int(rng.integers(4, 41)), v="skewed")
    assert (s.k, s.n) == (25, 3)
    assert policies.solve_positional(s).report.ltec == pytest.approx(
        session_reference(s, True), abs=1e-11)


@pytest.mark.parametrize("method", ["auto", "dense"])
def test_every_solver_returns_the_report_evaluate_gives(method):
    """The one exit, `_finish`, gives every solver's result, and its report
    is bitwise what `markov.evaluate` gives for the returned policy."""
    s = random_scenario(np.random.default_rng(3100), k=7, n=2, v="skewed")
    for name in policies.POLICY_NAMES:
        got = policies.solve_named(name, s, method=method)
        want = markov.evaluate(got.policy, s)
        assert (got.name, got.status) == (name, "optimal")
        assert got.seconds > 0.0
        for field in ("ltec", "chr", "residual"):
            assert getattr(got.report, field) == getattr(want, field), (name, field)
        assert got.report.cost_to_go.tobytes() == want.cost_to_go.tobytes(), name
    base = policies.solve_baseline(s)
    assert (base.objective, base.iterations, base.residual) == (None, 0, 0.0)


def test_exit_checks_the_policy_at_the_solvers_tolerance():
    """Entries 2e-7 above 1 break FEAS_TOL, the row kernel's tolerance, but
    not EVAL_TOL, the tolerance of a policy recovered from an LP solution."""
    s = random_scenario(np.random.default_rng(3101), k=6, n=2)
    base = model.baseline_policy(s.u, s.n)
    nudged = Policy.from_entries("uniform", s.k, s.k, base.rows * s.k + base.indices,
                                 base.data * (1.0 + 2e-7))
    t0 = time.perf_counter()
    with pytest.raises(policies.SolverFailure, match=r"^P2: invalid policy: entry \(0, "):
        policies._finish("P2", s, nudged, t0)
    got = policies._finish("P2", s, nudged, t0, tol=markov.EVAL_TOL, objective=1.5,
                           iterations=3, residual=0.25)
    assert (got.objective, got.iterations, got.residual) == (1.5, 3, 0.25)
    assert got.report.ltec == markov.evaluate(nudged, s).ltec


@pytest.mark.parametrize("name,kind,err", [
    ("P1", "fives", r"^P1: invalid policy: entry \(0, 1\) above 1: 5"),
    ("P2", "fives", r"^P2: invalid policy: "),
    ("P3", "fives", r"^P3: invalid policy: "),
    ("P2", "z0", r"^P2: z_0 = 0\.000e\+00 is not strictly positive"),
    ("P3", "z0", r"^P3: z_0 = 0\.000e\+00 is not strictly positive"),
])
def test_unusable_lp_solution_is_a_solver_failure(tmp_path, name, kind, err):
    """An LP solution reported optimal that fails validation, or whose z
    cannot be divided by, is a SolverFailure naming the policy."""
    s = random_scenario(np.random.default_rng(3102), k=6, n=2, v="skewed")
    with pytest.raises(policies.SolverFailure, match=err):
        policies.solve_named(name, s, method="external",
                             external_cmd=bad_solver_cmd(tmp_path, kind))


# ---------------------------------------------------------------------------
# Starts: P2 and P3 begin policy iteration from an earlier result.

def poisson_scenario(k: int, n: int, seed: int, skewed: bool = False, **keys) -> Scenario:
    u, _ = data.gen_poisson_graph(k, 3.0, seed)
    v = None if not skewed else np.array([0.6, 0.4] if n == 2 else [0.5, 0.3, 0.2])
    p0 = data.zipf_popularity(k, 0.7)
    return Scenario(u=u, c=data.place_cache(p0, max(1, k // 5)), p0=p0, n=n, v=v,
                    **{"alpha": 0.8, "q": 0.9, **keys})


def assert_same_result(got, want):
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.policy, field), getattr(want.policy, field)), field
    for field in ("ltec", "chr", "residual"):
        assert getattr(got.report, field) == getattr(want.report, field), field
    assert got.report.cost_to_go.tobytes() == want.report.cost_to_go.tobytes()
    assert (got.objective, got.residual) == (want.objective, want.residual)


@pytest.mark.parametrize("seed", range(6))
def test_p1_start_on_its_scenario_is_the_cold_solve_less_one_call(seed):
    """P2's first round is P1's whole solve, so starting from P1's result
    changes no bit of P2's and saves that round's kernel call."""
    s = poisson_scenario(12 + 3 * seed, 2, seed, alpha=[0.0, 0.5, 0.9][seed % 3])
    p1 = policies.solve_greedy(s)
    cold, warm = policies.solve_session(s), policies.solve_session(s, start=p1)
    assert_same_result(warm, cold)
    assert warm.iterations == cold.iterations - 1
    assert warm.slates is not None and warm.problem.scenario is s


def test_start_from_another_alpha_reaches_the_cold_optimum():
    s = poisson_scenario(30, 2, 5)
    for name in ("P2", "P3"):
        before = policies.solve_named(name, s.replace(alpha=0.3))
        cold = policies.solve_named(name, s)
        warm = policies.solve_named(name, s, start=before)
        assert warm.report.ltec == pytest.approx(cold.report.ltec, abs=TOL)
        assert warm.iterations < cold.iterations


@pytest.mark.parametrize("case, err", [
    ("other q", r"^P2: the P2 start solves other rows: its quality floors differ$"),
    ("other u", r"^P2: the P2 start solves other rows: its u, quality floors differ$"),
    # At q = 0 every floor is 0 on both graphs, but the start's slates
    # were picked on the other u.
    ("other u, q = 0", r"^P2: the P2 start solves other rows: its u differ$"),
    ("P3 result", r"^P2: the P3 start solves other rows: its slot weights, quality floors, "
                  r"click placement differ$"),
    ("baseline", r"^P2: a start needs the row kernel's slates; the baseline result has none$"),
    ("LP result", r"^P2: a start needs the row kernel's slates; the P1 result has none$"),
    ("highs", r"^P2: a start needs method 'auto', not 'highs'$"),
])
def test_start_on_other_rows_is_refused(case, err):
    q = 0.0 if case == "other u, q = 0" else 0.9
    s = poisson_scenario(12, 2, 1, skewed=True, q=q)
    start, method = policies.solve_session(s), "auto"
    if case == "other q":
        start = policies.solve_session(s.replace(q=0.8))
    elif case.startswith("other u"):
        start = policies.solve_session(poisson_scenario(12, 2, 2, skewed=True, q=q))
    elif case == "P3 result":
        start = policies.solve_positional(s)
    elif case == "baseline":
        start = policies.solve_baseline(s)
    elif case == "LP result":
        start = policies.solve_greedy(s, method="highs")
    else:
        method = "highs"
    with pytest.raises(ValueError, match=err):
        policies.solve_session(s, method=method, start=start)


def test_p3_refuses_a_start_placed_by_other_clicks():
    """Slot weights sorted the same, but the clicks favour another slot, so
    the start's policy puts the slates in the wrong places."""
    s = poisson_scenario(12, 2, 1, skewed=True)
    flipped = policies.solve_positional(s.replace(v=s.v[::-1]))
    with pytest.raises(ValueError, match=r"^P3: the P3 start solves other rows: its "
                                         r"click placement differ$"):
        policies.solve_positional(s, start=flipped)


@given(st.integers(0, 2 ** 32 - 1), st.integers(6, 30), st.sampled_from([2, 3]),
       st.booleans(), st.sampled_from([0.5, 0.9, 1.0]), st.floats(0.0, 0.99),
       st.floats(0.0, 0.99))
@settings(max_examples=60, deadline=None)
def test_started_solves_reach_the_cold_optimum(seed, k, n, skewed, q, alpha, other):
    """P2 started from P1's result, and P2 and P3 started from their optimum
    at another alpha, reach the cold LTEC with a valid policy that meets
    every floor."""
    s = poisson_scenario(k, n, seed, skewed=skewed, q=q, alpha=alpha)
    starts = {"P2": [policies.solve_greedy(s), policies.solve_session(s.replace(alpha=other))],
              "P3": [policies.solve_positional(s.replace(alpha=other))]}
    for name, froms in starts.items():
        cold = policies.solve_named(name, s)
        for start in froms:
            got = policies.solve_named(name, s, start=start)
            assert got.report.ltec == pytest.approx(cold.report.ltec, abs=TOL), (name, start.name)
            assert validate_policy(got.policy, s) == []
            assert quality_profile(got.policy, s).ratio().min() >= q - 1e-9
            assert got.residual <= 1e-9
