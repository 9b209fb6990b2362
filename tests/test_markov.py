"""Analytic session evaluation: fundamental matrix, cycle cost, cost rate.

G = (I - Q)^{-1} is reached only through the report of `evaluate`: the
cost to go G c, the visit rates G' p0 and the row sums G 1.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgetrf

from cacherec import Policy, Scenario, evaluate, markov
from cacherec.model import slate_policy
from _oracles import dense_click_kernel
from conftest import (random_positional_policy, random_scenario, random_slate_policy,
                      random_uniform_policy)


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


class TestFundamentalMatrix:
    def test_identity_when_alpha_zero(self, rng):
        # G = I: each product of G returns its vector unchanged.
        s = random_scenario(rng, alpha=0.0)
        rep = evaluate(random_uniform_policy(rng, s), s)
        assert np.array_equal(rep.cost_to_go, s.c)
        assert np.array_equal(rep.z, s.p0)
        assert np.array_equal(rep.g_row_sums, np.ones(s.k))

    def test_hand_inverted_2x2(self):
        # G = [[4/3, 2/3], [2/3, 4/3]] for alpha = 0.5, seen through G c,
        # G' p0 and G 1.
        s, p = two_state()
        g = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        rep = evaluate(p, s)
        assert np.allclose(rep.cost_to_go, g @ s.c)
        assert np.allclose(rep.z, g.T @ s.p0)
        assert np.allclose(rep.g_row_sums, g.sum(axis=1))

    def test_row_sums_are_cycle_length(self, rng):
        for _ in range(5):
            s = random_scenario(rng)
            p = random_uniform_policy(rng, s)
            assert np.allclose(evaluate(p, s).g_row_sums, 1.0 / (1.0 - s.alpha))

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
        assert rep.cycle_length == pytest.approx(2.0)

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
            rep = evaluate(random_uniform_policy(rng, s), s)
            assert (1.0 - s.alpha) * rep.z.sum() == pytest.approx(1.0)
            assert rep.cycle_length == pytest.approx(1.0 / (1.0 - s.alpha))
            assert np.allclose(rep.g_row_sums, 1.0 / (1.0 - s.alpha))

    def test_visit_rate_fixed_point(self, rng):
        # z_j = (alpha/N) sum_i z_i r_ij + p0_j
        s = random_scenario(rng)
        p = random_uniform_policy(rng, s)
        z = evaluate(p, s).z
        want = (s.alpha / s.n) * (p.mats.T @ z) + s.p0
        assert np.allclose(z, want)

    def test_positional_fixed_point(self, rng):
        s = random_scenario(rng, v="skewed")
        p = random_positional_policy(rng, s)
        rep = evaluate(p, s)
        q = transient_kernel(p, s)
        assert np.allclose(rep.z, q.T @ rep.z + s.p0)
        assert (1.0 - s.alpha) * rep.z.sum() == pytest.approx(1.0)

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
    """`factor` of a slate policy gives bitwise the LU factors and pivots
    that dgetrf gives for I - alpha * the dense policy's click kernel."""
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
    lu, piv = markov.factor(policy, s)
    want_lu, want_piv, info = dgetrf(np.eye(k) - s.alpha * dense_click_kernel(policy, s))
    assert info == 0
    assert np.ascontiguousarray(lu).tobytes() == np.ascontiguousarray(want_lu).tobytes()
    assert piv.tobytes() == want_piv.tobytes()


def test_evaluate_report_from_shared_builder():
    """`evaluate` is `factor`, the solve for G c and `report` over the
    policy's factors."""
    s = random_scenario(np.random.default_rng(4), k=9, v="skewed")
    p = random_positional_policy(np.random.default_rng(5), s)
    lu = markov.factor(p, s)
    want = markov.report(lu, s, lu_solve(lu, s.c))
    got = evaluate(p, s)
    for field in ("ltec", "chr", "cycle_length"):
        assert getattr(got, field) == getattr(want, field)
    for field in ("cost_to_go", "z", "g_row_sums"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_evaluate_factors_a_fortran_buffer_in_place(monkeypatch):
    """`evaluate` hands `dgetrf` the Fortran-ordered I - Q it built from
    the policy's entries, which LAPACK overwrites instead of copying."""
    seen = []

    def spy(a, **kw):
        lu, piv, info = dgetrf(a, **kw)
        seen.append((a.flags.f_contiguous, kw.get("overwrite_a"), np.shares_memory(lu, a)))
        return lu, piv, info

    monkeypatch.setattr(markov, "dgetrf", spy)
    s = random_scenario(np.random.default_rng(2), k=8, v="skewed")
    evaluate(random_positional_policy(np.random.default_rng(3), s), s)
    assert seen == [(True, True, True)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_rejects_a_non_finite_kernel(bad):
    s = Scenario(u=np.ones((3, 3)), c=[0, 1, 1], p0=[0.4, 0.3, 0.3], alpha=0.8, n=1)
    mats = np.full((3, 3), 0.5)
    mats[1, 2] = bad
    for policy in (Policy("uniform", mats), Policy("positional", mats[None])):
        with pytest.raises(ValueError, match="NaN or infinite"):
            markov.factor(policy, s)


def test_factor_rejects_a_singular_system():
    # I - Q = [[1, -1], [-1, 1]]: the second pivot is exactly zero.
    s, _ = two_state(alpha=0.5)
    with pytest.raises(ValueError, match="singular"):
        markov.factor(Policy("uniform", [[0.0, 2.0], [2.0, 0.0]]), s)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.sampled_from([0, 1]),
       st.sampled_from([None, 1, 3]))
@settings(max_examples=100, deadline=None)
def test_solve_is_scipy_lu_solve(seed, k, trans, columns):
    """`markov.solve` over the factors of `factor` gives bitwise what
    `scipy.linalg.lu_solve` gives, and leaves the right-hand side alone."""
    rng = np.random.default_rng(seed)
    kernel = rng.random((k, k))
    kernel /= kernel.sum(axis=1, keepdims=True)
    s = random_scenario(rng, k=k, n=1, alpha=float(rng.uniform(0.0, 0.99)))
    lu = markov.factor(Policy("uniform", kernel), s)
    b = rng.standard_normal(k if columns is None else (k, columns))
    before = b.copy()
    got = markov.solve(lu, b, trans=trans)
    want = lu_solve(lu, b, trans=trans)
    assert got.shape == want.shape == b.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(b, before)


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 12), st.booleans(),
       st.sampled_from(["mix", "slates"]))
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_dense_oracle(seed, k, positional, source):
    """`evaluate` agrees with one dense solve of (I - Q) V = c built from the
    dense policy: bitwise on the solvers' two-slate policies, whose click
    kernel entries have at most two terms, and to 1e-12 on any policy."""
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, k=k, v="skewed" if positional else None)
    if source == "slates":
        policy = random_slate_policy(rng, s, positional)
    else:
        policy = (random_positional_policy if positional else random_uniform_policy)(rng, s)
    lu = lu_factor(np.eye(k) - s.alpha * dense_click_kernel(policy, s))
    values = lu_solve(lu, s.c)
    got = evaluate(policy, s)
    if source == "slates":
        assert got.cost_to_go.tobytes() == values.tobytes()
        assert got.z.tobytes() == lu_solve(lu, s.p0, trans=1).tobytes()
    assert np.allclose(got.cost_to_go, values, rtol=0.0, atol=1e-12 * np.abs(values).max())
    assert abs(got.ltec - (1.0 - s.alpha) * float(s.p0 @ values)) <= 1e-12
