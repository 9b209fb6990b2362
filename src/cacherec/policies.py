"""High-level policy construction: baseline, myopic (P1), and the two
long-session optima (P2 uniform clicks, P3 position-aware).

The default solvers (method="auto") work row by row. The quality floor binds
each content's slate separately, so minimizing the session cost p0' G c is a
discounted MDP over the contents, with discount alpha and one polytope of
slate mixtures per content. `row_kernel` solves the per-row problem
"cheapest slate mix meeting the floor" for a value vector V, for all rows at
once. One routine, `_row_solve`, serves P1, P2 and P3: policy iteration
(Howard 1960; Puterman 1994, ch. 6) from the kernel's slates at V = c, the
first Bellman step from V = c, which starts from the max-quality slates of
`model.top_slates`. `_weigh` prices and rates every slate, slot by slot, so
a row's sums do not depend on the rows weighed with it. Each round builds
the policy of the current slates (`model.slate_policy`) and solves its
session system V = c + Q V by `markov.solve`, the routine `markov.evaluate`
calls, which factors I - Q only on the contents some slate shows. P1 stops
after this first evaluation. P2 and P3 replace each row the kernel improves
by more than a rounding margin, starting its call from the current slates.
When no row changes, the last round's policy is the result, with that
round's report.

An explicit LP method ("dense", "highs" or "external") instead builds the
K^2-variable LP of `cacherec.lp` and solves it with `cacherec.simplex`; that
path is kept as an independent oracle. The positional optimum is compared
against the uniform one on equal footing: a uniform-click policy whose slate
is placed uniformly at random over the positions is insensitive to the click
distribution, so its session cost is exactly its uniform-click cost.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp, markov, simplex
from .markov import EvalReport
from .model import (Policy, Scenario, _select, baseline_policy, quality_of, slate_policy,
                    slot_order, top_slates, validate_policy)

POLICY_NAMES = ("baseline", "P1", "P2", "P3")

#: Policy-iteration rounds before giving up. Each round strictly improves at
#: least one row and the rows' vertex sets are finite, so PI terminates; in
#: practice it takes a handful of rounds.
MAX_ROUNDS = 100
#: Breakpoint-search steps a row-kernel call may take; a row still open after
#: the last of them is a SolverFailure.
MAX_KERNEL_STEPS = 200
#: A row is replaced only when its new value is lower by this margin relative
#: to max |V|, so rounding noise cannot make policy iteration cycle. A margin
#: relative to the row's own value would vanish on rows whose value is ~0.
IMPROVE_RTOL = 1e-12


class InfeasibleProblem(RuntimeError):
    """The LP reported an infeasible constraint system."""


class SolverFailure(RuntimeError):
    """The solver failed (unbounded, iteration limit, backend error)."""


@dataclass(frozen=True)
class PolicyResult:
    """A solved policy plus its analytic evaluation and solver diagnostics.

    On the default row-kernel path (method="auto"):
      iterations: row-kernel calls; 1 for P1, and for P2/P3 one for the P1
        start plus one per policy-iteration round.
      residual: largest shortfall of a content's slate quality below its
        floor; slate budgets and bounds hold by construction.
      objective: P1's myopic cost sum_i p0_i r_i'c; for P2/P3 the cycle cost
        p0'V with V = G c, so LTEC = (1 - alpha) * objective.
    On an LP path these are the simplex iterations, the largest LP constraint
    violation and the LP objective (P1: the same myopic cost; P2/P3: c'z).
    """

    name: str
    policy: Policy
    report: EvalReport
    objective: float | None
    status: str
    iterations: int
    residual: float
    seconds: float


# ---------------------------------------------------------------------------
# Row kernel.

class RowSolution(NamedTuple):
    """Per row i, the slate mix theta_i * lo[i] + (1 - theta_i) * hi[i].

    lo and hi are (K, N) item indices; column t is the item shown with slot
    weight w_t.
    """

    lo: np.ndarray
    hi: np.ndarray
    theta: np.ndarray


def _weigh(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_t block[:, t] * weights[t] per row of an (m, N) block, added slot
    by slot without BLAS, so a row's sum does not depend on its block. Every
    slate cost sum_t w_t V[s_t] and quality sum_t w_t u_i[s_t] is weighed here."""
    total = block[:, 0] * weights[0]
    for t in range(1, weights.size):
        total += block[:, t] * weights[t]
    return total


def row_kernel(values: np.ndarray, u: np.ndarray, weights: np.ndarray,
               floor: np.ndarray, start: RowSolution) -> RowSolution:
    """Cheapest slate mix meeting each row's quality floor, for all rows at once.

    values is the (K,) value vector V, weights the N slot weights in
    decreasing order and floor the (K,) quality floors. start is where the
    search begins: the max-quality bracket (top, top, 1) of
    `model.top_slates`, or an earlier result of this kernel for the same u,
    weights and floor, such as the previous policy-iteration round's. It
    changes where the search begins, not the optimal value it ends at.

    Row i solves  min sum_t w_t V[s_t]  subject to  sum_t w_t u_i[s_t] >= floor_i
    over mixtures of slates s of N distinct items other than i. With unit
    weights this is the row LP  min V.r, sum r = N, u_i.r >= floor_i,
    0 <= r <= 1, r_ii = 0. With the click probabilities sorted in decreasing
    order as weights it is the positional row LP: by the rearrangement
    inequality the item with the smallest score takes the largest weight.
    Both sums are weighed once, when a slate is picked; floors are exact.

    Dualizing the floor with a multiplier mu leaves "take the N smallest
    V - mu u"; `model._select` takes them smallest first with ties to the
    lowest index, so the kernel is deterministic. Each row keeps a bracket:
    a slate lo below the floor and a slate hi that meets it. A row whose
    start lo meets its floor, or whose start is one slate (lo = hi, as in
    every row of the top bracket), first takes its cheapest slate (mu = 0)
    and keeps it if it meets the floor; if not, that slate is lo and the
    start hi is hi, so even a one-slate start that misses the floor gets a
    finite theta. Every other row begins from its start bracket.

    Each step splits the bracket at mu >= 0 where the two slates'
    Lagrangian lines V(s) - mu Q(s) cross, and picks the slate x minimizing
    V - mu Q there. If x beats the lines, it replaces the end on its side
    of the floor. If not, the lines' minimum is the dual function at mu, so
    for mu > 0 the mix of lo and hi that meets the floor exactly costs the
    dual bound and is optimal within rounding. When the crossing lies below
    0 (hi is cheaper than lo), mu is clipped to 0 and nothing beats hi, so
    hi alone is a cheapest slate and meets the floor: theta is 0.
    """
    k, n = u.shape[0], weights.size
    rows = np.arange(k)[:, None]
    lo, hi = start.lo.copy(), start.hi.copy()
    q_lo = _weigh(u[rows, lo], weights)
    cold = np.flatnonzero((q_lo >= floor) | (lo == hi).all(axis=1))
    lo[cold] = _select(values, u, np.zeros(cold.size), cold, n)
    q_lo[cold] = _weigh(u[rows[cold], lo[cold]], weights)
    feasible = q_lo >= floor
    hi[feasible] = lo[feasible]
    q_hi = _weigh(u[rows, hi], weights)
    v_lo, v_hi = _weigh(values[lo], weights), _weigh(values[hi], weights)
    active = np.flatnonzero(~feasible)

    for _ in range(MAX_KERNEL_STEPS):
        if active.size == 0:
            break
        vl, vh, ql, qh = v_lo[active], v_hi[active], q_lo[active], q_hi[active]
        mu = np.maximum((vh - vl) / (qh - ql), 0.0)
        x = _select(values, u, mu, active, n)
        v_x, q_x = _weigh(values[x], weights), _weigh(u[rows[active], x], weights)
        line = np.minimum(vl - mu * ql, vh - mu * qh)
        tol = 8.0 * np.finfo(float).eps * (np.abs(vl) + np.abs(vh) + mu * (ql + qh))
        open_ = v_x - mu * q_x < line - tol
        up = open_ & (q_x >= floor[active])
        down = open_ & ~up
        at = active[up]
        hi[at], v_hi[at], q_hi[at] = x[up], v_x[up], q_x[up]
        at = active[down]
        lo[at], v_lo[at], q_lo[at] = x[down], v_x[down], q_x[down]
        active = active[open_]
    if active.size:
        raise SolverFailure(f"row kernel: {active.size} rows still open after "
                            f"{MAX_KERNEL_STEPS} steps")

    gap = q_hi - q_lo
    theta = np.divide(q_hi - floor, gap, out=np.ones(k), where=gap > 0)
    theta[v_hi < v_lo] = 0.0  # mu clipped at 0
    return RowSolution(lo, hi, np.clip(theta, 0.0, 1.0))


def _mix_value(sol: RowSolution, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's weighted cost of the slate mix `sol` under a value vector."""
    return (sol.theta * _weigh(values[sol.lo], weights)
            + (1.0 - sol.theta) * _weigh(values[sol.hi], weights))


def _row_problem(scenario: Scenario, positional: bool):
    """Slot weights in decreasing order, per-row quality floors, the click
    distribution (None for uniform clicks, whose slates are unordered) and
    the max-quality bracket (top, top, 1) the first kernel call starts from.
    A floor is q times top's weighed quality, which top meets: fl(q x) <= x."""
    u, n, k = scenario.u, scenario.n, scenario.k
    v = scenario.v if positional else None
    weights = np.ones(n) if v is None else v[slot_order(v)]
    top = top_slates(u, n)
    floor = scenario.q * _weigh(u[np.arange(k)[:, None], top], weights)
    return weights, floor, v, RowSolution(top, top, np.ones(k))


def _row_solve(scenario: Scenario, name: str) -> PolicyResult:
    """P1, P2 or P3 by the row kernel; P1 is the first round, whose objective
    is the myopic cost."""
    t0 = time.perf_counter()
    weights, floor, v, start = _row_problem(scenario, positional=name == "P3")
    sol = row_kernel(scenario.c, scenario.u, weights, floor, start)
    calls = 1
    for _ in range(MAX_ROUNDS):
        policy = slate_policy(*sol, v)
        report = markov.solve(policy, scenario)
        values = report.cost_to_go
        if name == "P1":
            objective = float(scenario.p0 @ _mix_value(sol, scenario.c, weights))
            break
        new = row_kernel(values, scenario.u, weights, floor, sol)
        calls += 1
        old = _mix_value(sol, values, weights)
        margin = IMPROVE_RTOL * np.abs(values).max()
        better = _mix_value(new, values, weights) < old - margin
        if not better.any():
            objective = float(scenario.p0 @ values)
            break
        sol = RowSolution(np.where(better[:, None], new.lo, sol.lo),
                          np.where(better[:, None], new.hi, sol.hi),
                          np.where(better, new.theta, sol.theta))
    else:
        raise SolverFailure(f"{name}: policy iteration did not settle in "
                            f"{MAX_ROUNDS} rounds")
    bad = validate_policy(policy, scenario)
    if bad:
        raise SolverFailure(f"{name}: invalid policy: " + "; ".join(bad[:5]))
    shortfall = floor - quality_of(policy, scenario)
    return PolicyResult(
        name=name, policy=policy, report=report,
        objective=objective, status="optimal", iterations=calls,
        residual=float(max(shortfall.max(), 0.0)), seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# LP oracle paths.

def _raise_for_status(solution, what: str):
    if solution.status == "optimal":
        return
    if solution.status == "infeasible":
        raise InfeasibleProblem(f"{what}: infeasible ({solution.message})")
    raise SolverFailure(f"{what}: solver returned {solution.status} ({solution.message})")


def _greedy_lp(scenario: Scenario, **solve_kw) -> PolicyResult:
    t0 = time.perf_counter()
    problems = lp.build_greedy_row_lps(scenario)
    xs, iters, resid = [], 0, 0.0
    for prob in problems:
        sol = simplex.solve(prob, **solve_kw)
        _raise_for_status(sol, prob.name)
        xs.append(sol.x)
        iters += sol.iterations
        resid = max(resid, sol.max_residual)
    k = scenario.k
    ii, jj = lp._off_diagonal(k)  # row i's LP lists r_ij over j != i in order
    policy = Policy.from_entries("uniform", k, k, ii * k + jj, np.concatenate(xs))
    report = markov.evaluate(policy, scenario)
    myopic_cost = float(sum(p0i * (prob.c @ x)
                            for p0i, prob, x in zip(scenario.p0, problems, xs)))
    return PolicyResult(
        name="P1", policy=policy, report=report, objective=myopic_cost,
        status="optimal", iterations=iters, residual=resid,
        seconds=time.perf_counter() - t0)


def _session_lp(scenario: Scenario, positional: bool, name: str, **solve_kw) -> PolicyResult:
    t0 = time.perf_counter()
    builder = lp.build_positional_lp if positional else lp.build_session_lp
    problem = builder(scenario)
    sol = simplex.solve(problem, **solve_kw)
    _raise_for_status(sol, problem.name)
    rec = lp.recover_policy(sol, scenario, positional=positional, problem=problem)
    report = markov.evaluate(rec.policy, scenario)
    return PolicyResult(
        name=name, policy=rec.policy, report=report,
        objective=rec.objective_value,
        status=sol.status, iterations=sol.iterations, residual=rec.residuals,
        seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Public solvers. method="auto" runs the row kernel; any other method names
# an LP backend of `simplex.solve`, which receives the remaining keywords.

def solve_baseline(scenario: Scenario) -> PolicyResult:
    """Most-similar-items policy; positional variant when clicks are non-uniform."""
    t0 = time.perf_counter()
    v = None if scenario.uniform_clicks else scenario.v
    policy = baseline_policy(scenario.u, scenario.n, v)
    report = markov.evaluate(policy, scenario)
    return PolicyResult(
        name="baseline", policy=policy, report=report, objective=None,
        status="optimal", iterations=0, residual=0.0,
        seconds=time.perf_counter() - t0)


def solve_greedy(scenario: Scenario, method: str = "auto", **solve_kw) -> PolicyResult:
    """P1: myopic policy minimizing only the next request's expected cost.

    Under binary costs many slates tie on that cost, so P1 is one of several
    myopic optima: the row kernel picks it by the lowest-index tie rule of
    `top_slates`. Its `objective` is unique, but its LTEC and hit rate, and
    every gain measured against it, depend on that rule.
    """
    if method == "auto":
        return _row_solve(scenario, "P1")
    return _greedy_lp(scenario, method=method, **solve_kw)


def solve_session(scenario: Scenario, method: str = "auto", **solve_kw) -> PolicyResult:
    """P2: optimal long-session policy under uniform clicks."""
    if method == "auto":
        return _row_solve(scenario, "P2")
    return _session_lp(scenario, positional=False, name="P2", method=method, **solve_kw)


def solve_positional(scenario: Scenario, method: str = "auto", **solve_kw) -> PolicyResult:
    """P3: optimal long-session policy aware of the position click distribution."""
    if method == "auto":
        return _row_solve(scenario, "P3")
    return _session_lp(scenario, positional=True, name="P3", method=method, **solve_kw)


def solve_named(name: str, scenario: Scenario, **solve_kw) -> PolicyResult:
    """Dispatch on the policy names used across sweeps and the CLI."""
    table = {
        "baseline": lambda s, **_: solve_baseline(s),  # no solver: ignores solve_kw
        "P1": solve_greedy,
        "P2": solve_session,
        "P3": solve_positional,
    }
    if name not in table:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(table)}")
    return table[name](scenario, **solve_kw)
