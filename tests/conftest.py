"""Shared generators for scenarios, policies, and random LPs."""
from __future__ import annotations

import sys

import numpy as np
import pytest

from cacherec import Policy, Scenario
from cacherec.model import slate_policy
from cacherec.lp import LpProblem
from scipy import sparse


def random_scenario(rng: np.random.Generator, k: int | None = None,
                    n: int | None = None, alpha: float | None = None,
                    q: float | None = None, v: np.ndarray | str | None = None,
                    binary_costs: bool = True) -> Scenario:
    """A feasible random instance: random similarity graph, positive popularity."""
    k = int(k if k is not None else rng.integers(4, 12))
    n = int(n if n is not None else rng.integers(1, min(4, k)))
    alpha = float(alpha if alpha is not None else rng.uniform(0.3, 0.9))
    q = float(q if q is not None else rng.uniform(0.0, 1.0))
    if rng.random() < 0.5:
        u = (rng.random((k, k)) < rng.uniform(0.2, 0.6)).astype(float)
    else:
        u = rng.random((k, k)) * (rng.random((k, k)) < 0.7)
    u = np.maximum(u, u.T)
    np.fill_diagonal(u, 0.0)
    p0 = rng.dirichlet(np.full(k, 2.0))
    p0 = np.maximum(p0, 1e-6)
    p0 = p0 / p0.sum()
    if binary_costs:
        c = np.ones(k)
        cached = rng.choice(k, size=max(1, k // 4), replace=False)
        c[cached] = 0.0
    else:
        c = rng.uniform(0.0, 3.0, size=k)
    if v == "skewed":
        raw = rng.uniform(0.5, 2.0, size=n)
        v = np.sort(raw / raw.sum())[::-1]
    return Scenario(u=u, c=c, p0=p0, alpha=alpha, n=n, v=v, q=q)


def random_uniform_policy(rng: np.random.Generator, scenario: Scenario,
                          mixtures: int = 4) -> Policy:
    """Random feasible fractional policy: convex mix of deterministic slates."""
    k, n = scenario.k, scenario.n
    w = rng.dirichlet(np.ones(mixtures))
    r = np.zeros((k, k))
    for m in range(mixtures):
        for i in range(k):
            others = np.delete(np.arange(k), i)
            picks = rng.choice(others, size=n, replace=False)
            r[i, picks] += w[m]
    return Policy("uniform", r)


def random_dense_policy(rng: np.random.Generator, scenario: Scenario) -> Policy:
    """Random feasible policy whose rows are positive off the diagonal: an
    even mix of the flat policy N/(K-1) and `random_uniform_policy`."""
    k, n = scenario.k, scenario.n
    flat = np.full((k, k), n / (k - 1))
    np.fill_diagonal(flat, 0.0)
    return Policy("uniform", 0.5 * flat + 0.5 * random_uniform_policy(rng, scenario).mats)


def random_positional_policy(rng: np.random.Generator, scenario: Scenario,
                             mixtures: int = 4) -> Policy:
    """Random feasible positional policy: convex mix of deterministic slate placements."""
    k, n = scenario.k, scenario.n
    w = rng.dirichlet(np.ones(mixtures))
    mats = np.zeros((n, k, k))
    for m in range(mixtures):
        for i in range(k):
            others = np.delete(np.arange(k), i)
            picks = rng.choice(others, size=n, replace=False)
            for slot in range(n):
                mats[slot, i, picks[slot]] += w[m]
    return Policy("positional", mats)


def random_slate_policy(rng: np.random.Generator, scenario: Scenario,
                        positional: bool) -> Policy:
    """A policy of the shape the solvers return: per content, a mix of two
    random slates with a random weight, which may be 0 or 1."""
    k, n = scenario.k, scenario.n
    lo, hi = np.empty((k, n), dtype=np.intp), np.empty((k, n), dtype=np.intp)
    for i in range(k):
        others = np.delete(np.arange(k), i)
        lo[i] = rng.choice(others, size=n, replace=False)
        hi[i] = rng.permutation(lo[i]) if rng.random() < 0.3 else rng.choice(
            others, size=n, replace=False)
    theta = rng.choice([0.0, 1.0, rng.random()], size=k)
    return slate_policy(lo, hi, theta, scenario.v if positional else None)


#: Ways `corrupt_policy` breaks a policy.
CORRUPTIONS = ("nan", "negative", "above-one", "diagonal", "row-sum", "cross-slot", "zero")


def corrupt_policy(rng: np.random.Generator, policy: Policy, how: list[str]) -> Policy:
    """The policy with each corruption in `how` applied to its dense view at
    a random row: a NaN, a negative entry, an entry above 1, a nonzero
    diagonal, a scaled row sum, one item in two slots (positional only) or a
    stored entry set to zero."""
    mats = policy.mats
    k = policy.k
    rows = mats.reshape(-1, k)
    for kind in how:
        r = int(rng.integers(rows.shape[0]))
        i = r % k
        j = int(rng.choice(np.delete(np.arange(k), i)))
        if kind == "nan":
            rows[r, j] = np.nan
        elif kind == "negative":
            rows[r, j] = -rng.uniform(1e-3, 1.0)
        elif kind == "above-one":
            rows[r, j] = 1.0 + rng.uniform(1e-3, 1.0)
        elif kind == "diagonal":
            rows[r, i] = rng.uniform(1e-3, 1.0)
        elif kind == "row-sum":
            rows[r] *= rng.uniform(0.5, 1.5)
        elif kind == "cross-slot" and policy.is_positional and mats.shape[0] > 1:
            other = (r // k + 1) % mats.shape[0]
            mats[other, i, j] = mats[r // k, i, j] = rng.uniform(0.5, 1.0)
        elif kind == "zero":
            stored = np.flatnonzero(rows[r])
            if stored.size:
                rows[r, rng.choice(stored)] = 0.0
    return Policy(policy.kind, mats)


def assert_canonical(policy: Policy) -> None:
    """Columns increase within each row and no stored entry is zero."""
    indptr, cols = policy.indptr, policy.indices
    assert indptr[0] == 0 and np.all(np.diff(indptr) >= 0)
    assert indptr[-1] == cols.size == policy.data.size
    assert np.all((cols >= 0) & (cols < policy.k))
    step = np.diff(cols)
    starts = np.zeros(cols.size, dtype=bool)
    starts[indptr[:-1][indptr[:-1] < cols.size]] = True
    assert np.all(step[~starts[1:]] > 0)
    assert np.all(policy.data != 0.0)


def random_box_lp(rng: np.random.Generator, n_vars: int | None = None) -> LpProblem:
    """Random LP with finite box bounds (bounded region => vertex optimum).

    Built around a known interior point so the instance is always feasible.
    """
    n = int(n_vars if n_vars is not None else rng.integers(2, 6))
    mu = int(rng.integers(1, 4))
    me = int(rng.integers(0, 2)) if n > 2 else 0
    lb = np.zeros(n)
    ub = rng.uniform(0.5, 2.0, size=n)
    x0 = ub * rng.uniform(0.2, 0.8, size=n)
    a_ub = rng.normal(size=(mu, n)).round(3)
    b_ub = a_ub @ x0 + rng.uniform(0.05, 1.0, size=mu)
    a_eq = rng.normal(size=(me, n)).round(3)
    b_eq = a_eq @ x0
    c = rng.normal(size=n).round(3)
    return LpProblem(
        c=c, a_eq=sparse.csr_matrix(a_eq) if me else sparse.csr_matrix((0, n)),
        b_eq=b_eq, a_ub=sparse.csr_matrix(a_ub), b_ub=b_ub,
        lb=lb, ub=ub, var_names=[f"x{i}" for i in range(n)], name="random-box-lp")


#: Result files of external solvers whose solution is unusable: every dumped
#: variable 5 (entries above 1), or "optimal" with z0 = 0 and every other
#: variable at its lower bound (a session LP's z cannot be divided by).
BAD_SOLUTIONS = {
    "fives": "names = [ln.split()[1] for ln in open(sys.argv[1]) if ln.startswith('var ')]\n"
             "open(sys.argv[2], 'w').write(''.join(f'{n}=5\\n' for n in names))\n",
    "z0": "open(sys.argv[2], 'w').write('status=optimal\\nz0=0\\n')\n",
}


def bad_solver_cmd(tmp_path, kind: str) -> str:
    """An --external-cmd that writes the BAD_SOLUTIONS[kind] result file."""
    script = tmp_path / f"{kind}_solver.py"
    script.write_text("import sys\n" + BAD_SOLUTIONS[kind])
    return f"{sys.executable} {script} {{lp}} {{out}}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
