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
`model.top_slates`. Each round builds the policy of the current slates
(`model.slate_policy`) and solves its session system V = c + Q V by
`markov.solve`. P1 stops after this first evaluation. P2 and P3 call the
kernel once a round from the current slates and replace each row whose
returned cost under V beats its start's by more than a rounding margin.
When no row changes, the last round's policy is the result, with that
round's report. P2 and P3 may instead start from an earlier result whose
slates solve the same rows (`_check_start`), such as P1's on the same
scenario, or the optimum at another alpha: alpha enters only the
evaluation, so any such result is a feasible first round, and policy
iteration converges from any feasible start (Puterman 1994, sec. 6.4).

An explicit LP method ("dense", "highs" or "external") instead builds the
K^2-variable LP of `cacherec.lp` and solves it with `cacherec.simplex`; that
path is kept as an independent oracle. The positional optimum is compared
against the uniform one on equal footing: a uniform-click policy whose slate
is placed uniformly at random over the positions is insensitive to the click
distribution, so its session cost is exactly its uniform-click cost.

Every solver returns through one exit, `_finish`: it validates the policy
(at `markov.EVAL_TOL` for an LP recovery) and raises SolverFailure for a
violation, takes the kernel's last report or solves the session system
once, and builds the `PolicyResult`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp, markov, simplex
from .markov import EvalReport
from .model import (FEAS_TOL, Policy, Scenario, _select, baseline_policy, quality_of,
                    slate_policy, slot_order, top_slates, validate_policy)

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
#: Relative rounding margin by which a kernel step's slate must beat its bracket.
LINE_RTOL = 8.0 * np.finfo(float).eps


class InfeasibleProblem(RuntimeError):
    """The LP reported an infeasible constraint system."""


class SolverFailure(RuntimeError):
    """The solver failed (unbounded, iteration limit, backend error)."""


@dataclass(frozen=True)
class PolicyResult:
    """A solved policy plus its analytic evaluation and solver diagnostics.

    On the default row-kernel path (method="auto"):
      iterations: the row-kernel calls of this solve; 1 for P1, and for a
        cold P2/P3 one for the P1 round plus one per policy-iteration round.
        A P2/P3 given a start makes only the rounds' calls, so one started
        from P1's result on its scenario reports one fewer than cold.
      residual: largest shortfall of a content's slate quality below its
        floor; slate budgets and bounds hold by construction.
      objective: P1's myopic cost sum_i p0_i r_i'c; for P2/P3 the cycle cost
        p0'V with V = G c, so LTEC = (1 - alpha) * objective.
      slates: the kernel's final RowSolution, whose `slate_policy` is
        `policy`; problem: the rows those slates solve. Together they make
        this result a start of a later P2 or P3 solve.
    On an LP path these are the simplex iterations, the largest LP constraint
    violation and the LP objective (P1: the same myopic cost; P2/P3: c'z).
    The baseline has no objective, 0 iterations and residual 0. Neither has
    slates or a problem. status is always "optimal": a failed solve raises.
    seconds includes the exit's checks.
    """

    name: str
    policy: Policy
    report: EvalReport
    objective: float | None
    status: str
    iterations: int
    residual: float
    seconds: float
    slates: RowSolution | None = None
    problem: RowProblem | None = None


def _finish(name: str, scenario: Scenario, policy: Policy, t0: float,
            report: EvalReport | None = None, tol: float = FEAS_TOL,
            objective: float | None = None, iterations: int = 0,
            residual: float = 0.0, slates: RowSolution | None = None,
            problem: RowProblem | None = None) -> PolicyResult:
    """The one exit of every solver: a policy that fails `validate_policy` at
    `tol` raises SolverFailure; `markov.solve` gives its report unless the
    solver passes its last round's; the clock is read last."""
    bad = validate_policy(policy, scenario, tol=tol)
    if bad:
        raise SolverFailure(f"{name}: invalid policy: " + "; ".join(bad[:5]))
    return PolicyResult(
        name=name, policy=policy, report=report or markov.solve(policy, scenario),
        objective=objective, status="optimal", iterations=iterations, residual=residual,
        seconds=time.perf_counter() - t0, slates=slates, problem=problem)


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


class RowProblem(NamedTuple):
    """The rows a row-kernel solve solves: the scenario's u, the slot weights
    in decreasing order, the per-row quality floors, and the click
    distribution that places the slates (None for a uniform policy). alpha,
    c and p0 enter only the evaluation, so slates solved for one problem
    are feasible in every scenario with the same u, weights, floors and
    placement."""

    scenario: Scenario
    weights: np.ndarray
    floor: np.ndarray
    v: np.ndarray | None


def _weigh(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_t block[:, t] * weights[t] per row of an (m, N) block, added slot
    by slot without BLAS, so a row's sum does not depend on its block. Every
    slate cost sum_t w_t V[s_t] and quality sum_t w_t u_i[s_t] is weighed here."""
    total = block[:, 0] * weights[0]
    for t in range(1, weights.size):
        total += block[:, t] * weights[t]
    return total


def row_kernel(values: np.ndarray, u: np.ndarray, weights: np.ndarray, floor: np.ndarray,
               start: RowSolution) -> tuple[RowSolution, np.ndarray, np.ndarray]:
    """Cheapest slate mix meeting each row's quality floor, for all rows at once.

    values is the (K,) value vector V, weights the N slot weights in
    decreasing order and floor the (K,) quality floors. start is where the
    search begins: the max-quality bracket (top, top, 1) of
    `model.top_slates`, or an earlier result of this kernel for the same u,
    weights and floor, such as the previous policy-iteration round's. It
    changes where the search begins, not the optimal value it ends at.
    Returns (solution, cost, start_cost): the optimal mixes and each row's
    cost theta V(lo) + (1 - theta) V(hi) under values, for the solution and
    for start, from the sums the search weighed.

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
    a slate lo below the floor and a slate hi that meets it. A cold row,
    whose start lo meets its floor or whose start is one slate (lo = hi, as
    in every row of the top bracket), first takes its cheapest slate (mu = 0)
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
    q_lo, q_hi = _weigh(u[rows, lo], weights), _weigh(u[rows, hi], weights)
    v_lo, v_hi = _weigh(values[lo], weights), _weigh(values[hi], weights)
    start_cost = start.theta * v_lo + (1.0 - start.theta) * v_hi
    cold = np.flatnonzero((q_lo >= floor) | (lo == hi).all(axis=1))
    if cold.size:
        lo[cold] = _select(values, u, np.zeros(cold.size), cold, n)
        q_lo[cold] = _weigh(u[rows[cold], lo[cold]], weights)
        v_lo[cold] = _weigh(values[lo[cold]], weights)
    feasible = q_lo >= floor
    hi[feasible], q_hi[feasible], v_hi[feasible] = lo[feasible], q_lo[feasible], v_lo[feasible]
    active = np.flatnonzero(~feasible)

    for _ in range(MAX_KERNEL_STEPS):
        if active.size == 0:
            break
        vl, vh, ql, qh = v_lo[active], v_hi[active], q_lo[active], q_hi[active]
        mu = np.maximum((vh - vl) / (qh - ql), 0.0)
        x = _select(values, u, mu, active, n)
        v_x, q_x = _weigh(values[x], weights), _weigh(u[rows[active], x], weights)
        line = np.minimum(vl - mu * ql, vh - mu * qh)
        tol = LINE_RTOL * (np.abs(vl) + np.abs(vh) + mu * (ql + qh))
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
    theta = np.clip(theta, 0.0, 1.0)
    return RowSolution(lo, hi, theta), theta * v_lo + (1.0 - theta) * v_hi, start_cost


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


def _check_start(start: PolicyResult, problem: RowProblem, name: str) -> None:
    """Raise ValueError unless `start` is a row-kernel result whose slates
    solve exactly the rows of `problem`: the same u, slot weights, floors and
    slate placement, compared as arrays. Floors that are equal on another u
    do not make its slates feasible, so u is compared too."""
    if start.slates is None:
        raise ValueError(f"{name}: a start needs the row kernel's slates; the "
                         f"{start.name} result has none")
    had = start.problem
    differ = [what for what, a, b in (("u", had.scenario.u, problem.scenario.u),
                                      ("slot weights", had.weights, problem.weights),
                                      ("quality floors", had.floor, problem.floor),
                                      ("click placement", had.v, problem.v))
              if not (a is b or np.array_equal(a, b))]
    if differ:
        raise ValueError(f"{name}: the {start.name} start solves other rows: its "
                         f"{', '.join(differ)} differ")


def _row_solve(scenario: Scenario, name: str, start: PolicyResult | None = None) -> PolicyResult:
    """P1, P2 or P3 by the row kernel; P1 is the first round, whose objective
    is the myopic cost. A P2 or P3 `start` (see `_check_start`) replaces the
    first round's kernel call and `slate_policy`: its slates and policy are
    the first round's, evaluated by `markov.solve`, or, when it was solved on
    this very scenario, with its report."""
    t0 = time.perf_counter()
    weights, floor, v, top = _row_problem(scenario, positional=name == "P3")
    problem = RowProblem(scenario, weights, floor, v)
    if start is None:
        sol, cost, _ = row_kernel(scenario.c, scenario.u, weights, floor, top)
        policy, report, calls = slate_policy(*sol, v), None, 1
    else:
        _check_start(start, problem, name)
        sol, policy, calls = start.slates, start.policy, 0
        report = start.report if start.problem.scenario is scenario else None
    for _ in range(MAX_ROUNDS):
        report = report or markov.solve(policy, scenario)
        values = report.cost_to_go
        if name == "P1":
            objective = float(scenario.p0 @ cost)
            break
        new, cost, start_cost = row_kernel(values, scenario.u, weights, floor, sol)
        calls += 1
        margin = IMPROVE_RTOL * np.abs(values).max()
        better = cost < start_cost - margin
        if not better.any():
            objective = float(scenario.p0 @ values)
            break
        sol = RowSolution(np.where(better[:, None], new.lo, sol.lo),
                          np.where(better[:, None], new.hi, sol.hi),
                          np.where(better, new.theta, sol.theta))
        policy, report = slate_policy(*sol, v), None
    else:
        raise SolverFailure(f"{name}: policy iteration did not settle in "
                            f"{MAX_ROUNDS} rounds")
    shortfall = floor - quality_of(policy, scenario)
    return _finish(name, scenario, policy, t0, report, objective=objective,
                   iterations=calls, residual=float(max(shortfall.max(), 0.0)),
                   slates=sol, problem=problem)


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
    problems, sols = lp.build_greedy_row_lps(scenario), []
    for prob in problems:
        sols.append(simplex.solve(prob, **solve_kw))
        _raise_for_status(sols[-1], prob.name)
    k = scenario.k
    ii, jj = lp._off_diagonal(k)  # row i's LP lists r_ij over j != i in order
    policy = Policy.from_entries("uniform", k, k, ii * k + jj, np.concatenate([s.x for s in sols]))
    myopic_cost = float(sum(p0i * (prob.c @ sol.x)
                            for p0i, prob, sol in zip(scenario.p0, problems, sols)))
    return _finish("P1", scenario, policy, t0, tol=markov.EVAL_TOL, objective=myopic_cost,
                   iterations=sum(sol.iterations for sol in sols),
                   residual=max(sol.max_residual for sol in sols))


def _session_lp(scenario: Scenario, positional: bool, name: str,
                start: PolicyResult | None = None, **solve_kw) -> PolicyResult:
    if start is not None:
        raise ValueError(f"{name}: a start needs method 'auto', not {solve_kw['method']!r}")
    t0 = time.perf_counter()
    problem = (lp.build_positional_lp if positional else lp.build_session_lp)(scenario)
    sol = simplex.solve(problem, **solve_kw)
    _raise_for_status(sol, problem.name)
    try:
        rec = lp.recover_policy(sol, scenario, positional=positional, problem=problem)
    except ValueError as exc:  # z at or below Z_FLOOR, or a solution of the wrong size
        raise SolverFailure(f"{name}: {exc}") from None
    return _finish(name, scenario, rec.policy, t0, tol=markov.EVAL_TOL,
                   objective=rec.objective_value, iterations=sol.iterations,
                   residual=rec.residuals)


# ---------------------------------------------------------------------------
# Public solvers. method="auto" runs the row kernel; any other method names
# an LP backend of `simplex.solve`, which receives the remaining keywords.

def solve_baseline(scenario: Scenario) -> PolicyResult:
    """Most-similar-items policy; positional variant when clicks are non-uniform."""
    t0 = time.perf_counter()
    v = None if scenario.uniform_clicks else scenario.v
    return _finish("baseline", scenario, baseline_policy(scenario.u, scenario.n, v), t0)


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


def solve_session(scenario: Scenario, method: str = "auto",
                  start: PolicyResult | None = None, **solve_kw) -> PolicyResult:
    """P2: optimal long-session policy under uniform clicks.

    `start`, an earlier row-kernel result whose slates solve the same rows
    (P1's on this scenario, or P2's at another alpha), is where policy
    iteration begins instead of the P1 round. It changes the kernel calls,
    not the optimum: LTEC agrees with a cold solve to rounding. A start on
    other rows, one without slates (the baseline, an LP result) or one
    given with a method other than "auto" raises ValueError.
    """
    if method == "auto":
        return _row_solve(scenario, "P2", start)
    return _session_lp(scenario, positional=False, name="P2", start=start, method=method,
                       **solve_kw)


def solve_positional(scenario: Scenario, method: str = "auto",
                     start: PolicyResult | None = None, **solve_kw) -> PolicyResult:
    """P3: optimal long-session policy aware of the position click distribution.

    `start` is as in `solve_session`; only a P3 result with the same u,
    clicks and floors (P3's at another alpha, say) solves the same rows.
    """
    if method == "auto":
        return _row_solve(scenario, "P3", start)
    return _session_lp(scenario, positional=True, name="P3", start=start, method=method,
                       **solve_kw)


def solve_named(name: str, scenario: Scenario, **solve_kw) -> PolicyResult:
    """Dispatch on the policy names used across sweeps and the CLI; P2 and P3
    take a `start` keyword (see `solve_session`), and P1 takes none."""
    table = {"baseline": lambda s, **_: solve_baseline(s),  # no solver: ignores solve_kw
             "P1": solve_greedy, "P2": solve_session, "P3": solve_positional}
    if name not in table:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(table)}")
    return table[name](scenario, **solve_kw)
