"""Analytic policy evaluation via the session absorbing Markov chain.

A session alternates between runs of recommendation-followed requests and
renewals where the user picks from the whole catalog. Each run is an
absorbing chain over the K contents whose transient kernel is
Q = alpha * R/N for uniform clicks, or Q = alpha * sum_n v_n * R^n when
the user prefers some slate positions. Everything of interest falls out of
the fundamental matrix G = (I - Q)^{-1}: expected per-cycle cost p0' G c,
expected cycle length 1/(1 - alpha), and the long-term expected cost per
request (LTEC) = (1 - alpha) * p0' G c. `evaluate` never forms G: one LU
of I - Q gives G c, G' p0 and G 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .model import Policy, Scenario, slot_sum, validate_policy

#: Validation tolerance used before evaluating; loose enough to accept
#: policies recovered from LP solutions at solver accuracy.
EVAL_TOL = 1e-6


@dataclass(frozen=True)
class EvalReport:
    """Analytic evaluation of a policy on a scenario.

    ltec: expected cost per request over a long session.
    cost_to_go: (K,) expected cost accumulated over the rest of a cycle
       entered at each content, G c; p0' cost_to_go is the cycle cost.
    chr: cache hit rate, 1 - ltec; only defined for binary costs (1 = miss).
    z: (K,) scaled visit rates, z = G' p0; (1 - alpha) * z_j is the long-run
       probability that a request is for content j.
    g_row_sums: (K,) row sums of G (expected cycle length started from each
       content); equals 1/(1 - alpha) everywhere for a valid policy.
    cycle_length: expected renewal-cycle length p0' G 1 = 1/(1 - alpha).
    """

    ltec: float
    cost_to_go: np.ndarray
    chr: float | None
    z: np.ndarray
    g_row_sums: np.ndarray
    cycle_length: float


def click_kernel(policy: Policy, scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-stochastic next-content distribution of a user who follows the
    recommendation: R/N for uniform clicks, sum_n v_n R^n for positional.

    Returned as K-row CSR arrays (indptr, indices, data) with columns
    increasing in each row; entry for entry it equals the dense kernel."""
    if policy.is_positional:
        return slot_sum(policy, scenario.v)
    return policy.indptr, policy.indices, policy.data / scenario.n


def factor(policy: Policy, scenario: Scenario):
    """LU factors (lu, piv) of the policy's session system I - Q, for
    Q = alpha * `click_kernel`, from LAPACK's dgetrf; `solve` takes them.

    I - Q is written into a zeroed Fortran-ordered (K, K) buffer, which
    dgetrf factors in place. Entry for entry it equals
    np.eye(K) - alpha * kernel: off the diagonal 0 - alpha * q, so zeros
    keep a positive sign. Raises ValueError when I - Q holds a NaN or an
    infinity, or when it is singular.
    """
    indptr, cols, vals = click_kernel(policy, scenario)
    off = np.subtract(0.0, scenario.alpha * vals)
    if not np.isfinite(off).all():  # adding 1 to a finite entry keeps it finite
        raise ValueError("session system I - Q contains NaN or infinite values")
    k = scenario.k
    a = np.zeros((k, k), order="F")
    a[np.repeat(np.arange(k), np.diff(indptr)), cols] = off
    a.flat[::k + 1] += 1.0
    lu, piv, info = dgetrf(a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrf")
    if np.abs(np.diag(lu)).min() < 1e-300:
        raise ValueError("singular session system; the policy violates its invariants")
    return lu, piv


def solve(lu, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with (I - Q) x = b, or (I - Q)' x = b for trans=1, from the factors
    of `factor`; b is a (K,) vector or a (K, m) matrix and is not
    overwritten."""
    x, info = dgetrs(*lu, b, trans=trans)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrs")
    return x


def report(lu, scenario: Scenario, values: np.ndarray) -> EvalReport:
    """The `EvalReport` of the policy whose factors are `lu`, where values
    is its cost to go G c. Two more solves give the visit rates and row sums."""
    z = solve(lu, scenario.p0, trans=1)         # G' p0
    g1 = solve(lu, np.ones(scenario.k))         # G 1
    ltec = float((1.0 - scenario.alpha) * (scenario.p0 @ values))
    return EvalReport(
        ltec=ltec,
        cost_to_go=values,
        chr=1.0 - ltec if scenario.binary_costs else None,
        z=z,
        g_row_sums=g1,
        cycle_length=float(scenario.p0 @ g1),
    )


def evaluate(policy: Policy, scenario: Scenario) -> EvalReport:
    """Full analytic report: LTEC, hit rate, visit rates, cycle diagnostics.

    One LU factorization serves all three solves (cost, visit rates, row sums).
    Raises ValueError for a policy that fails validation at EVAL_TOL.
    """
    bad = validate_policy(policy, scenario, tol=EVAL_TOL)
    if bad:
        raise ValueError("invalid policy: " + "; ".join(bad[:5]))
    lu = factor(policy, scenario)
    return report(lu, scenario, solve(lu, scenario.c))
