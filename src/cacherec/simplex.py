"""LP solving: a bundled dense two-phase simplex plus pluggable backends.

The bundled method is a tableau primal simplex with variable bounds handled
natively (nonbasic variables may sit at either bound; no bound rows are
added). Entering variables follow Dantzig's rule until 50 consecutive
degenerate pivots, after which Bland's rule takes over to rule out cycling.
Phase 1 minimizes the sum of one artificial per row; leftover artificials
name the tightest row on infeasibility.

The dense tableau (method="dense") is meant for desk-scale problems (a few
thousand variables). method="auto" and method="highs" use scipy's HiGHS,
and method="external" shells out to a user-configured solver through the
plain-text interchange dump.
"""
from __future__ import annotations

import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lp import LpProblem, format_lp, parse_solution_text

_PIVOT_TOL = 1e-10
_STALL_LIMIT = 50


@dataclass
class LpSolution:
    """Outcome of one solve.

    status is one of "optimal", "infeasible", "unbounded", "iteration-limit",
    or "error" (backend failure). x has one entry per problem variable; on a
    non-optimal status it holds the last iterate and should not be trusted.
    """

    status: str
    x: np.ndarray
    objective: float
    iterations: int
    max_residual: float
    message: str = ""


def solve(problem: LpProblem, *, method: str = "auto", feas_tol: float = 1e-8,
          opt_tol: float = 1e-9, max_iters: int | None = None,
          external_cmd: str | None = None) -> LpSolution:
    """Solve an LpProblem; infeasible/unbounded are reported via status, never raised."""
    if method == "dense":
        return _solve_dense(problem, feas_tol, opt_tol, max_iters)
    if method in ("auto", "highs"):
        return _solve_highs(problem)
    if method == "external":
        if not external_cmd:
            raise ValueError("method='external' needs external_cmd")
        return _solve_external(problem, external_cmd)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Bundled dense simplex.

@dataclass
class _Tableau:
    t: np.ndarray             # (m, ncols) current B^{-1} [A | I]
    rc: np.ndarray            # (ncols,) reduced costs for the active phase
    xb: np.ndarray            # (m,) values of basic variables (shifted space)
    basis: np.ndarray         # (m,) column index of each basic variable
    rng: np.ndarray           # (ncols,) bound ranges ub - lb (inf allowed)
    at_upper: np.ndarray      # (ncols,) nonbasic-at-upper flags
    allowed: np.ndarray       # (ncols,) columns permitted to enter
    iterations: int = 0
    bland: bool = False
    stall: int = 0

    def in_basis(self) -> np.ndarray:
        mask = np.zeros(self.t.shape[1], dtype=bool)
        mask[self.basis] = True
        return mask


def _iterate(tab: _Tableau, opt_tol: float, max_iters: int) -> str:
    """Run pivots until optimal/unbounded/iteration-limit for the current costs."""
    while True:
        if tab.iterations >= max_iters:
            return "iteration-limit"

        in_basis = tab.in_basis()
        movable = ~in_basis & tab.allowed & (tab.rng > 0)
        improving = movable & np.where(tab.at_upper, tab.rc > opt_tol, tab.rc < -opt_tol)
        if not improving.any():
            return "optimal"
        if tab.bland:
            e = int(np.flatnonzero(improving)[0])
        else:
            gain = np.where(improving, np.abs(tab.rc), -np.inf)
            e = int(np.argmax(gain))

        sigma = -1.0 if tab.at_upper[e] else 1.0
        col = sigma * tab.t[:, e]

        # Ratio test: xb(t) = xb - t*col must stay inside the basic bounds,
        # and the entering variable cannot move past its own opposite bound.
        ratios = np.full(col.shape[0], np.inf)
        hits_upper = np.zeros(col.shape[0], dtype=bool)
        pos = col > _PIVOT_TOL
        if pos.any():
            ratios[pos] = np.maximum(tab.xb[pos], 0.0) / col[pos]
        basis_rng = tab.rng[tab.basis]
        neg = (col < -_PIVOT_TOL) & np.isfinite(basis_rng)
        if neg.any():
            ratios[neg] = np.maximum(basis_rng[neg] - tab.xb[neg], 0.0) / (-col[neg])
            hits_upper[neg] = True

        t_rows = float(ratios.min()) if ratios.size else np.inf
        t_flip = float(tab.rng[e])
        t_step = min(t_rows, t_flip)
        if not np.isfinite(t_step):
            return "unbounded"

        tab.iterations += 1
        if t_flip < t_rows - 1e-15:
            # The entering variable hits its other bound first: flip, no pivot.
            tab.xb -= t_flip * col
            tab.at_upper[e] = not tab.at_upper[e]
            continue

        cand = np.flatnonzero(ratios <= t_step + 1e-12)
        if tab.bland:
            r = int(cand[np.argmin(tab.basis[cand])])
        else:
            r = int(cand[np.argmax(np.abs(col[cand]))])

        tab.xb -= t_step * col
        leaving = int(tab.basis[r])
        tab.at_upper[leaving] = bool(hits_upper[r])
        tab.xb[r] = t_step if sigma > 0 else tab.rng[e] - t_step
        tab.at_upper[e] = False

        piv = tab.t[r, e]
        tab.t[r, :] /= piv
        other = tab.t[:, e].copy()
        other[r] = 0.0
        tab.t -= np.outer(other, tab.t[r, :])
        tab.rc -= tab.rc[e] * tab.t[r, :]
        tab.basis[r] = e

        if t_step <= 1e-12:
            tab.stall += 1
            if tab.stall >= _STALL_LIMIT:
                tab.bland = True
        else:
            tab.stall = 0


def _solve_dense(problem: LpProblem, feas_tol: float, opt_tol: float,
                 max_iters: int | None) -> LpSolution:
    n = problem.n_vars
    me, mu = problem.b_eq.shape[0], problem.b_ub.shape[0]
    m = me + mu
    if np.any(~np.isfinite(problem.lb)):
        raise ValueError("bundled simplex needs finite lower bounds; use method='highs'")

    a = np.zeros((m, n + mu))
    if me:
        a[:me, :n] = problem.a_eq.toarray()
    if mu:
        a[me:, :n] = problem.a_ub.toarray()
        a[me:, n:] = np.eye(mu)
    b = np.concatenate([problem.b_eq, problem.b_ub])

    lb = np.concatenate([problem.lb, np.zeros(mu)])
    ub = np.concatenate([problem.ub, np.full(mu, np.inf)])
    rng_real = ub - lb
    b_shift = b - a @ lb

    flip = b_shift < 0
    a[flip] *= -1.0
    b_shift[flip] *= -1.0

    ncols = n + mu + m
    tab = _Tableau(
        t=np.hstack([a, np.eye(m)]),
        rc=np.zeros(ncols),
        xb=b_shift.copy(),
        basis=np.arange(n + mu, ncols),
        rng=np.concatenate([rng_real, np.full(m, np.inf)]),
        at_upper=np.zeros(ncols, dtype=bool),
        allowed=np.ones(ncols, dtype=bool),
    )
    if max_iters is None:
        max_iters = 2000 + 200 * (m + n)

    # Phase 1: minimize the sum of artificials. With the artificial basis,
    # the reduced cost of column j is -sum_i a_ij.
    tab.rc[: n + mu] = -tab.t[:, : n + mu].sum(axis=0)
    status = _iterate(tab, opt_tol, max_iters)
    if status != "optimal":
        return _finish(problem, tab, lb, n, status if status == "iteration-limit" else "error",
                       message=f"phase 1 ended with {status}")

    art_mask = tab.basis >= n + mu
    infeasibility = float(tab.xb[art_mask].sum()) if art_mask.any() else 0.0
    scale = 1.0 + (np.abs(b).max() if b.size else 0.0)
    if infeasibility > feas_tol * scale:
        names = problem.eq_names + problem.ub_names
        rows = np.flatnonzero(art_mask)
        worst = rows[np.argmax(tab.xb[rows])]
        row_id = int(tab.basis[worst]) - (n + mu)
        return _finish(problem, tab, lb, n, "infeasible",
                       message=f"tightest row: {names[row_id]} "
                               f"(phase-1 residual {tab.xb[worst]:.3e})")

    _purge_artificials(tab, n + mu)
    tab.allowed[n + mu:] = False

    # Phase 2: real objective over structural columns (slacks cost nothing).
    cost = np.zeros(tab.t.shape[1])
    cost[:n] = problem.c
    tab.rc = cost - cost[tab.basis] @ tab.t
    tab.rc[tab.basis] = 0.0
    tab.stall = 0
    status = _iterate(tab, opt_tol, max_iters)
    return _finish(problem, tab, lb, n, status)


def _purge_artificials(tab: _Tableau, n_real: int) -> None:
    """Pivot leftover (zero-valued) artificials out of the basis; drop redundant rows."""
    drop: list[int] = []
    for r in range(tab.basis.shape[0]):
        if tab.basis[r] < n_real:
            continue
        row = tab.t[r, :n_real]
        cand = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
        cand = cand[~np.isin(cand, tab.basis)]
        if cand.size == 0:
            drop.append(r)
            continue
        e = int(cand[0])
        piv = tab.t[r, e]
        tab.t[r, :] /= piv
        other = tab.t[:, e].copy()
        other[r] = 0.0
        tab.t -= np.outer(other, tab.t[r, :])
        tab.basis[r] = e
        tab.xb[r] = 0.0
        tab.at_upper[e] = False
    if drop:
        keep = np.setdiff1d(np.arange(tab.basis.shape[0]), drop)
        tab.t = tab.t[keep]
        tab.xb = tab.xb[keep]
        tab.basis = tab.basis[keep]


def _finish(problem: LpProblem, tab: _Tableau, lb_all: np.ndarray, n: int,
            status: str, message: str = "") -> LpSolution:
    n_real = lb_all.shape[0]
    x_shift = np.zeros(tab.t.shape[1])
    finite_up = np.isfinite(tab.rng) & tab.at_upper
    x_shift[finite_up] = tab.rng[finite_up]
    x_shift[tab.basis] = tab.xb
    x_all = lb_all + x_shift[:n_real]
    x = x_all[:n]
    if status == "optimal":
        # round numeric dust onto the bounds before reporting residuals
        near_lo = np.abs(x - problem.lb) < 1e-11
        x[near_lo] = problem.lb[near_lo]
        hi = np.isfinite(problem.ub)
        near_hi = hi & (np.abs(x - problem.ub) < 1e-11)
        x[near_hi] = problem.ub[near_hi]
    return LpSolution(
        status=status,
        x=x,
        objective=float(problem.c @ x),
        iterations=tab.iterations,
        max_residual=problem.residual(x),
        message=message,
    )


# ---------------------------------------------------------------------------
# scipy (HiGHS) backend for desk-class problems that outgrow the dense tableau.

_HIGHS_STATUS = {0: "optimal", 1: "iteration-limit", 2: "infeasible", 3: "unbounded"}


def _solve_highs(problem: LpProblem) -> LpSolution:
    from scipy.optimize import linprog

    res = linprog(
        problem.c,
        A_ub=problem.a_ub if problem.b_ub.size else None,
        b_ub=problem.b_ub if problem.b_ub.size else None,
        A_eq=problem.a_eq if problem.b_eq.size else None,
        b_eq=problem.b_eq if problem.b_eq.size else None,
        bounds=np.column_stack([problem.lb, problem.ub]),
        method="highs",
    )
    status = _HIGHS_STATUS.get(res.status, "error")
    x = np.asarray(res.x, dtype=float) if res.x is not None else np.full(problem.n_vars, np.nan)
    residual = problem.residual(x) if np.all(np.isfinite(x)) else np.inf
    return LpSolution(
        status=status,
        x=x,
        objective=float(res.fun) if res.fun is not None else np.nan,
        iterations=int(np.sum(res.nit)) if res.nit is not None else 0,
        max_residual=residual,
        message=str(res.message or ""),
    )


# ---------------------------------------------------------------------------
# Subprocess hook: dump the LP, run a user command, read back name=value pairs.

def _external_error(problem: LpProblem, message: str) -> LpSolution:
    return LpSolution(status="error", x=np.full(problem.n_vars, np.nan), objective=np.nan,
                      iterations=0, max_residual=np.inf, message=message)


def _solve_external(problem: LpProblem, command: str) -> LpSolution:
    with tempfile.TemporaryDirectory(prefix="cacherec-lp-") as tmp:
        lp_path = Path(tmp) / "problem.lp"
        out_path = Path(tmp) / "solution.txt"
        lp_path.write_text(format_lp(problem))
        if "{lp}" in command or "{out}" in command:
            cmd = command.format(lp=lp_path, out=out_path)
        else:
            cmd = f"{command} {lp_path} {out_path}"
        proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
        if proc.returncode != 0:
            return _external_error(problem, f"external solver exited {proc.returncode}: "
                                            f"{proc.stderr[-500:]}")
        if not out_path.exists():
            return _external_error(problem, "external solver wrote no solution file")
        try:
            status, x, objective = parse_solution_text(out_path.read_text(), problem)
        except ValueError as exc:
            return _external_error(problem, f"external solver output: {exc}")
    if objective is None:
        objective = float(problem.c @ x)
    return LpSolution(
        status=status,
        x=x,
        objective=objective,
        iterations=0,
        max_residual=problem.residual(x),
        message="external",
    )
