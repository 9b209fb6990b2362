"""Analytic policy evaluation via the session absorbing Markov chain.

A session alternates between runs of recommendation-followed requests and
renewals where the user picks from the whole catalog. Each run is an
absorbing chain over the K contents whose transient kernel is
Q = alpha * R/N for uniform clicks, or Q = alpha * sum_n v_n * R^n when
the user prefers some slate positions. The cost to go V = (I - Q)^{-1} c
gives the expected per-cycle cost p0' V and the long-term expected cost per
request (LTEC) = (1 - alpha) * p0' V. A cycle lasts 1/(1 - alpha) requests
on average under every valid policy, so nothing needs solving for it.

Column j of Q is zero unless some slate shows j. `solve` therefore solves
only on the set R of recommended contents, the columns the click kernel
reaches: (I - Q_RR) V_R = c_R is one dense LAPACK solve, and every other
content takes V_i = c_i + sum_j Q_ij V_j over its row. The fundamental
matrix (I - Q)^{-1} is never formed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Policy, Scenario, slot_sum, validate_policy

#: Validation tolerance used before evaluating; loose enough to accept
#: policies recovered from LP solutions at solver accuracy.
EVAL_TOL = 1e-6


@dataclass(frozen=True)
class EvalReport:
    """Analytic evaluation of a policy on a scenario.

    ltec: expected cost per request over a long session.
    cost_to_go: (K,) expected cost accumulated over the rest of a cycle
       entered at each content, V = (I - Q)^{-1} c; p0' V is the cycle cost.
    chr: cache hit rate, 1 - ltec; only defined for binary costs (1 = miss).
    residual: max_i |V_i - c_i - sum_j Q_ij V_j|, how far the computed V is
       from solving its session system.
    """

    ltec: float
    cost_to_go: np.ndarray
    chr: float | None
    residual: float


def click_kernel(policy: Policy, scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-stochastic next-content distribution of a user who follows the
    recommendation: R/N for uniform clicks, sum_n v_n R^n for positional.

    Returned as K-row CSR arrays (indptr, indices, data) with columns
    increasing in each row; entry for entry it equals the dense kernel."""
    if policy.is_positional:
        return slot_sum(policy, scenario.v)
    return policy.indptr, policy.indices, policy.data / scenario.n


def solve(policy: Policy, scenario: Scenario) -> EvalReport:
    """The report of the policy's session system V = c + Q V, for
    Q = alpha * `click_kernel`; the policy is not validated.

    R is the set of columns holding a nonzero entry of Q. I - Q on R x R is
    written into a zeroed (|R|, |R|) buffer, entry for entry the principal
    submatrix of np.eye(K) - Q, and np.linalg.solve (LAPACK dgesv) gives
    V_R. One bincount over the nonzero entries, each row's terms added to
    0.0 in column order, gives Q V: it is V_i - c_i for every content
    outside R, whose column of Q is zero, and the residual elsewhere.
    Raises ValueError when the policy or Q holds a NaN or an infinity, or
    when I - Q is singular.
    """
    nonfinite = "session system I - Q contains NaN or infinite values"
    if not np.isfinite(policy.data).all():  # before a slot weight of 0 multiplies it
        raise ValueError(nonfinite)
    indptr, cols, vals = click_kernel(policy, scenario)
    if not np.isfinite(vals).all():  # a slot sum can overflow; alpha < 1 cannot
        raise ValueError(nonfinite)
    q = scenario.alpha * vals
    k = scenario.k
    live = q != 0.0
    rows = np.repeat(np.arange(k), indptr[1:] - indptr[:-1])[live]
    cols, q = cols[live], q[live]
    reached = np.zeros(k, dtype=bool)
    reached[cols] = True
    r = np.flatnonzero(reached)
    at = np.zeros(k, dtype=np.intp)  # position in R of each member of R
    at[r] = np.arange(r.size)
    inner = reached[rows]
    a = np.zeros((r.size, r.size))
    a[at[rows[inner]], at[cols[inner]]] = -q[inner]
    a.flat[::r.size + 1] += 1.0
    values = scenario.c.copy()
    try:
        values[r] = np.linalg.solve(a, values[r])
    except np.linalg.LinAlgError:
        raise ValueError("singular session system; the policy violates its invariants") from None
    qv = np.bincount(rows, q * values[cols], minlength=k)
    rest = ~reached
    values[rest] += qv[rest]
    residual = float(np.abs(values - scenario.c - qv).max())
    if not math.isfinite(residual):  # a NaN or an infinity in V
        raise ValueError("singular session system; the policy violates its invariants")
    ltec = float((1.0 - scenario.alpha) * (scenario.p0 @ values))
    return EvalReport(ltec=ltec, cost_to_go=values,
                      chr=1.0 - ltec if scenario.binary_costs else None, residual=residual)


def evaluate(policy: Policy, scenario: Scenario) -> EvalReport:
    """LTEC, hit rate, cost to go and residual of a policy, from `solve`.

    Raises ValueError for a policy that fails validation at EVAL_TOL.
    """
    bad = validate_policy(policy, scenario, tol=EVAL_TOL)
    if bad:
        raise ValueError("invalid policy: " + "; ".join(bad[:5]))
    return solve(policy, scenario)
