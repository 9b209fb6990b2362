"""Analytic session evaluation: fundamental matrix, cycle cost, cost rate.

The program reaches G = (I - Q)^{-1} only through the cost to go G c of
`markov.solve`; with c = 1 that is the row sums G 1. The visit rates G' p0
come from the dense `_oracles.dense_fundamental_matrix`, and are tied to the
program by p0' G c = (G' p0)' c.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacherec import Policy, Scenario, evaluate, markov
from cacherec.model import slate_policy
from _oracles import dense_click_kernel, dense_fundamental_matrix, reduced_dense_solve
from conftest import (random_dense_policy, random_positional_policy, random_scenario,
                      random_slate_policy, random_uniform_policy)


def two_state(alpha=0.5, c=(0, 1), p0=(0.5, 0.5)):
    s = Scenario(u=[[0, 1], [1, 0]], c=list(c), p0=list(p0), alpha=alpha, n=1)
    p = Policy("uniform", [[0, 1], [1, 0]])
    return s, p


def transient_kernel(policy, scenario) -> np.ndarray:
    """Q = alpha * click kernel, densified from `markov.click_kernel`."""
    indptr, cols, vals = markov.click_kernel(policy, scenario)
    q = np.zeros((scenario.k, scenario.k))
    q[np.repeat(np.arange(scenario.k), np.diff(indptr)), cols] = vals
    return scenario.alpha * q


def cycle_cost(policy, scenario) -> float:
    """Expected total access cost over one renewal cycle, p0' G c."""
    return float(scenario.p0 @ evaluate(policy, scenario).cost_to_go)


def row_sums(policy, scenario) -> np.ndarray:
    """G 1: the cost to go when every request costs 1."""
    return evaluate(policy, scenario.replace(c=np.ones(scenario.k))).cost_to_go


def visit_rates(policy, scenario) -> np.ndarray:
    """z = G' p0, from the dense oracle."""
    return dense_fundamental_matrix(policy, scenario).T @ scenario.p0


class TestFundamentalMatrix:
    def test_identity_when_alpha_zero(self, rng):
        # G = I: each product of G returns its vector unchanged.
        s = random_scenario(rng, alpha=0.0)
        p = random_uniform_policy(rng, s)
        assert evaluate(p, s).cost_to_go.tobytes() == s.c.tobytes()
        assert np.array_equal(row_sums(p, s), np.ones(s.k))
        assert np.array_equal(visit_rates(p, s), s.p0)

    def test_hand_inverted_2x2(self):
        # G = [[4/3, 2/3], [2/3, 4/3]] for alpha = 0.5, seen through G c,
        # G' p0 and G 1.
        s, p = two_state()
        g = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        assert np.allclose(evaluate(p, s).cost_to_go, g @ s.c)
        assert np.allclose(visit_rates(p, s), g.T @ s.p0)
        assert np.allclose(row_sums(p, s), g.sum(axis=1))

    def test_row_sums_are_cycle_length(self, rng):
        for _ in range(5):
            s = random_scenario(rng)
            p = random_uniform_policy(rng, s)
            assert np.allclose(row_sums(p, s), 1.0 / (1.0 - s.alpha))

    def test_invalid_policy_rejected(self, rng):
        s = random_scenario(rng, k=5, n=2)
        with pytest.raises(ValueError, match="invalid policy"):
            evaluate(Policy("uniform", np.zeros((5, 5))), s)


class TestCycleQuantities:
    def test_zero_costs(self, rng):
        s = random_scenario(rng)
        s = s.replace(c=np.zeros(s.k))
        p = random_uniform_policy(rng, s)
        assert cycle_cost(p, s) == pytest.approx(0.0)

    def test_alpha_zero_is_single_request(self, rng):
        s = random_scenario(rng, alpha=0.0, binary_costs=False)
        p = random_uniform_policy(rng, s)
        assert cycle_cost(p, s) == pytest.approx(float(s.p0 @ s.c))

    def test_hand_case_cost(self):
        s, p = two_state()
        assert cycle_cost(p, s) == pytest.approx(1.0)


class TestEvaluate:
    def test_hand_case_ltec(self):
        s, p = two_state()
        rep = evaluate(p, s)
        assert rep.ltec == pytest.approx(0.5)
        assert rep.chr == pytest.approx(0.5)
        assert s.p0 @ row_sums(p, s) == pytest.approx(2.0)  # cycle length

    def test_alpha_zero_iid(self, rng):
        s = random_scenario(rng, alpha=0.0, binary_costs=False)
        p = random_uniform_policy(rng, s)
        assert evaluate(p, s).ltec == pytest.approx(float(s.p0 @ s.c))

    def test_all_cached_is_free(self, rng):
        s = random_scenario(rng)
        s = s.replace(c=np.zeros(s.k))
        rep = evaluate(random_uniform_policy(rng, s), s)
        assert rep.ltec == pytest.approx(0.0)
        assert rep.chr == pytest.approx(1.0)

    def test_chr_none_for_general_costs(self, rng):
        s = random_scenario(rng, binary_costs=False)
        assert evaluate(random_uniform_policy(rng, s), s).chr is None

    def test_visit_rate_normalization(self, rng):
        for _ in range(5):
            s = random_scenario(rng)
            p = random_uniform_policy(rng, s)
            z = visit_rates(p, s)
            assert (1.0 - s.alpha) * z.sum() == pytest.approx(1.0)
            assert s.p0 @ row_sums(p, s) == pytest.approx(1.0 / (1.0 - s.alpha))
            assert evaluate(p, s).ltec == pytest.approx((1.0 - s.alpha) * float(z @ s.c))

    def test_visit_rate_fixed_point(self, rng):
        # z_j = (alpha/N) sum_i z_i r_ij + p0_j
        s = random_scenario(rng)
        p = random_uniform_policy(rng, s)
        z = visit_rates(p, s)
        want = (s.alpha / s.n) * (p.mats.T @ z) + s.p0
        assert np.allclose(z, want)
        assert cycle_cost(p, s) == pytest.approx(float(z @ s.c))

    def test_positional_fixed_point(self, rng):
        s = random_scenario(rng, v="skewed")
        p = random_positional_policy(rng, s)
        z = visit_rates(p, s)
        q = transient_kernel(p, s)
        assert np.allclose(z, q.T @ z + s.p0)
        assert (1.0 - s.alpha) * z.sum() == pytest.approx(1.0)
        assert cycle_cost(p, s) == pytest.approx(float(z @ s.c))

    def test_relabeling_equivariance(self, rng):
        s = random_scenario(rng, k=7)
        p = random_uniform_policy(rng, s)
        perm = rng.permutation(s.k)
        s2 = Scenario(u=s.u[np.ix_(perm, perm)], c=s.c[perm], p0=s.p0[perm],
                      alpha=s.alpha, n=s.n, v=s.v, q=s.q)
        p2 = Policy("uniform", p.mats[np.ix_(perm, perm)])
        assert evaluate(p2, s2).ltec == pytest.approx(evaluate(p, s).ltec)

    def test_positional_matches_direct_inverse(self, rng):
        s = random_scenario(rng, v="skewed")
        p = random_positional_policy(rng, s)
        q = transient_kernel(p, s)
        want = (1 - s.alpha) * float(s.p0 @ np.linalg.inv(np.eye(s.k) - q) @ s.c)
        assert evaluate(p, s).ltec == pytest.approx(want)


class TestTransientMatrix:
    def test_uniform_scaling(self):
        s, p = two_state(alpha=0.8)
        assert np.allclose(transient_kernel(p, s), 0.8 * np.array([[0, 1], [1, 0]]))

    def test_positional_mixture(self, rng):
        s = random_scenario(rng, v="skewed")
        p = random_positional_policy(rng, s)
        want = s.alpha * sum(s.v[i] * p.mats[i] for i in range(s.n))
        assert np.allclose(transient_kernel(p, s), want)


def random_slates(rng, k: int, n: int, overlap: str):
    """(K, N) slates lo and hi of distinct items other than the row's own.
    "equal": hi is lo; "shuffled": hi is lo in another order; "some": hi
    keeps part of lo, in any columns; "random": independent draws."""
    lo, hi = np.empty((k, n), dtype=np.intp), np.empty((k, n), dtype=np.intp)
    for i in range(k):
        others = np.delete(np.arange(k), i)
        lo[i] = rng.choice(others, size=n, replace=False)
        if overlap == "equal":
            hi[i] = lo[i]
        elif overlap == "shuffled":
            hi[i] = rng.permutation(lo[i])
        elif overlap == "some":
            keep = lo[i, :int(rng.integers(0, n + 1))]
            rest = rng.choice(np.setdiff1d(others, keep), size=n - keep.size, replace=False)
            hi[i] = rng.permutation(np.concatenate([keep, rest]))
        else:
            hi[i] = rng.choice(others, size=n, replace=False)
    return lo, hi


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 12),
       st.sampled_from(["equal", "shuffled", "some", "random"]),
       st.sampled_from(["zero", "one", "random"]),
       st.sampled_from([None, "uniform", "skewed", "tied"]))
@settings(max_examples=200, deadline=None)
def test_factor_is_dgetrf_of_the_dense_policys_session_system(seed, k, overlap, theta, clicks):
    """`solve` of a slate policy factors (LAPACK dgesv, through
    np.linalg.solve) the dense policy's session system on the contents its
    slates show: V and the residual are bitwise those of
    `reduced_dense_solve` on alpha * the dense policy's click kernel."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, min(4, k)))
    s = random_scenario(rng, k=k, n=n, alpha=float(rng.choice([0.0, 0.8, rng.random()])))
    if clicks == "skewed":
        s = s.replace(v=rng.dirichlet(np.ones(n)))
    elif clicks == "tied" and n == 3:
        s = s.replace(v=[0.2, 0.4, 0.4])  # slots 1 and 2 tie
    lo, hi = random_slates(rng, k, n, overlap)
    th = {"zero": np.zeros(k), "one": np.ones(k), "random": rng.random(k)}[theta]
    slots = None if clicks is None else s.v

    policy = slate_policy(lo, hi, th, slots)
    got = markov.solve(policy, s)
    values, residual = reduced_dense_solve(s.alpha * dense_click_kernel(policy, s), s.c)
    assert got.cost_to_go.tobytes() == values.tobytes()
    assert got.residual == residual


def test_evaluate_report_from_shared_builder():
    """`evaluate` is validation, then the report of `solve`."""
    s = random_scenario(np.random.default_rng(4), k=9, v="skewed")
    p = random_positional_policy(np.random.default_rng(5), s)
    want = markov.solve(p, s)
    got = evaluate(p, s)
    for field in ("ltec", "chr", "residual"):
        assert getattr(got, field) == getattr(want, field)
    assert got.cost_to_go.tobytes() == want.cost_to_go.tobytes()


def test_evaluate_solves_only_on_the_recommended_contents(monkeypatch):
    """`evaluate` hands LAPACK I - Q on the contents some slate shows only:
    at K = 8 with slates drawn from contents 0-5, one 6 x 6 solve."""
    seen = []
    dense_solve = np.linalg.solve

    def spy(a, b):
        seen.append(a.shape)
        return dense_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    s = random_scenario(np.random.default_rng(2), k=8, n=2)
    slates = np.array([[(i + 1) % 6, (i + 2) % 6] for i in range(8)])
    policy = slate_policy(slates, slates, np.ones(8))
    got = evaluate(policy, s)
    assert seen == [(6, 6)]
    full = dense_solve(np.eye(8) - s.alpha * dense_click_kernel(policy, s), s.c)
    assert np.allclose(got.cost_to_go, full, rtol=0.0, atol=1e-12 * np.abs(full).max())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_rejects_a_non_finite_kernel(bad):
    """Also when the bad entry sits in a slot of click weight 0, where the
    slot sum would multiply it by 0."""
    s = Scenario(u=np.ones((3, 3)), c=[0, 1, 1], p0=[0.4, 0.3, 0.3], alpha=0.8, n=1)
    unclicked = Scenario(u=s.u, c=s.c, p0=s.p0, alpha=s.alpha, n=2, v=[1.0, 0.0])
    mats = np.full((3, 3), 0.5)
    mats[1, 2] = bad
    for policy, scenario in ((Policy("uniform", mats), s), (Policy("positional", mats[None]), s),
                             (Policy("positional", [np.full((3, 3), 0.5), mats]), unclicked)):
        with pytest.raises(ValueError, match="NaN or infinite"):
            markov.solve(policy, scenario)


def test_factor_rejects_a_slot_sum_that_overflows():
    """Finite entries whose weighted slot sum exceeds the largest float."""
    s = Scenario(u=np.ones((3, 3)), c=[0, 1, 1], p0=[0.4, 0.3, 0.3], alpha=0.8, n=2,
                 v=[0.5 + 4e-10, 0.5 + 4e-10])
    mats = np.full((2, 3, 3), 0.5)
    mats[:, 1, 2] = np.finfo(float).max
    with pytest.raises(ValueError, match="NaN or infinite"):
        markov.solve(Policy("positional", mats), s)


def test_factor_rejects_a_singular_system():
    # I - Q = [[1, -1], [-1, 1]]: the second pivot is exactly zero.
    s, _ = two_state(alpha=0.5)
    with pytest.raises(ValueError, match="singular"):
        markov.solve(Policy("uniform", [[0.0, 2.0], [2.0, 0.0]]), s)


def with_entry(policy: Policy, at: int, value: float) -> Policy:
    """The policy with its stored entry number `at` set to `value`."""
    data = policy.data.copy()
    data[at] = value
    return Policy.from_entries(policy.kind, policy.k, policy.indptr.size - 1,
                               policy.rows * policy.k + policy.indices, data)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40),
       st.sampled_from(["uniform", "positional", "two-slate", "dense-row", "one-reached"]),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_solve_matches_the_full_dense_solve(seed, k, shape, zero_weight):
    """On random uniform, positional, two-slate and dense-row policies (every
    content reached) and on one that reaches a single content, with alpha in
    [0, 0.99] and click weights that may be 0: `solve` is within
    1e-12 * max|V| of np.linalg.solve of the whole I - Q, its residual is as
    small, alpha = 0 gives c bitwise, and a NaN or infinity in the kernel or
    a singular system raises ValueError."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, min(4, k)))
    v = rng.dirichlet(np.ones(n))
    if zero_weight:
        v[rng.integers(n)] = 0.0
        v = v / v.sum() if v.sum() > 0 else np.eye(n)[0]
    alpha = float(rng.choice([0.0, 0.99, rng.uniform(0.0, 0.99)]))
    s = random_scenario(rng, k=k, n=n, alpha=alpha, binary_costs=bool(rng.random() < 0.5))
    s = s.replace(v=v)
    if shape == "uniform":
        policy = random_uniform_policy(rng, s)
    elif shape == "positional":
        policy = random_positional_policy(rng, s)
    elif shape == "two-slate":
        policy = random_slate_policy(rng, s, positional=bool(rng.random() < 0.5))
    elif shape == "dense-row":  # every column holds an entry: R is all of K
        policy = random_dense_policy(rng, s)
    else:  # every row but j follows to j, and j's row is empty
        j = int(rng.integers(k))
        mats = np.zeros((k, k))
        mats[:, j] = n
        mats[j, j] = 0.0
        policy = Policy("uniform", mats)

    got = markov.solve(policy, s)
    full = np.linalg.solve(np.eye(k) - s.alpha * dense_click_kernel(policy, s), s.c)
    scale = 1e-12 * np.abs(full).max()
    assert np.allclose(got.cost_to_go, full, rtol=0.0, atol=scale)
    assert got.residual <= scale
    assert markov.solve(policy, s.replace(alpha=0.0)).cost_to_go.tobytes() == s.c.tobytes()

    for bad in (np.nan, np.inf):
        # A zero click weight times an infinite entry is a NaN of the kernel.
        with pytest.raises(ValueError, match="NaN or infinite"), np.errstate(invalid="ignore"):
            markov.solve(with_entry(policy, int(rng.integers(policy.data.size)), bad), s)
    # Q a permutation without fixed points: every cycle makes I - Q singular.
    perm = rng.permutation(k)
    while np.any(perm == np.arange(k)):
        perm = rng.permutation(k)
    with pytest.raises(ValueError, match="singular"):
        markov.solve(Policy("uniform", 2.0 * n * np.eye(k)[perm]), s.replace(alpha=0.5))


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 12), st.booleans(),
       st.sampled_from(["mix", "slates"]))
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_dense_oracle(seed, k, positional, source):
    """`evaluate` agrees with the dense solves built from the dense policy:
    bitwise with `reduced_dense_solve` on the solvers' two-slate policies,
    whose click kernel entries have at most two terms, and to 1e-12 with the
    solve of the whole I - Q on any policy."""
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, k=k, v="skewed" if positional else None)
    if source == "slates":
        policy = random_slate_policy(rng, s, positional)
    else:
        policy = (random_positional_policy if positional else random_uniform_policy)(rng, s)
    q = s.alpha * dense_click_kernel(policy, s)
    full = np.linalg.solve(np.eye(k) - q, s.c)
    got = evaluate(policy, s)
    if source == "slates":
        values, residual = reduced_dense_solve(q, s.c)
        assert got.cost_to_go.tobytes() == values.tobytes()
        assert got.residual == residual
    assert np.allclose(got.cost_to_go, full, rtol=0.0, atol=1e-12 * np.abs(full).max())
    assert abs(got.ltec - (1.0 - s.alpha) * float(s.p0 @ full)) <= 1e-12
