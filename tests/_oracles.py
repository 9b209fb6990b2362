"""Independent brute-force oracles used only by the test suite.

`vertex_optimum` enumerates every basic point of an LP with finite box
bounds: all equality rows are active, every choice of the remaining active
constraints is solved as a square system, and feasible candidates are ranked
by objective. For a bounded feasible region this equals the LP optimum, with
no simplex machinery involved.

`dense_sample_path` is the simulator's inverse-CDF sampler in its plain
form: every followed request counts, over the whole cumulative row of the
click kernel, the entries below its uniform draw. The production sampler
searches only each row's nonzero support and must return bitwise the same
paths.

`entrywise_session_lp` emits the session LP one coefficient at a time from
nested loops over contents, with the f-column of pair (i, j) computed by
index arithmetic. `lp.build_session_lp` and `build_positional_lp` assemble
each constraint family from index arrays and must build the same problem,
entry for entry.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse

from cacherec import markov
from cacherec.lp import LpProblem
from cacherec.model import max_quality


def vertex_optimum(problem, tol: float = 1e-7):
    """Exhaustive vertex enumeration. Returns (status, x, objective)."""
    n = problem.n_vars
    a_eq = problem.a_eq.toarray()
    me = a_eq.shape[0]
    if me > n:
        raise ValueError("more equality rows than variables")
    if np.any(~np.isfinite(problem.lb)) or np.any(~np.isfinite(problem.ub)):
        raise ValueError("vertex enumeration needs finite bounds")

    rows = [problem.a_ub.toarray()] if problem.b_ub.size else [np.zeros((0, n))]
    rhs = [problem.b_ub] if problem.b_ub.size else [np.zeros(0)]
    rows.append(-np.eye(n))
    rhs.append(-problem.lb)
    rows.append(np.eye(n))
    rhs.append(problem.ub)
    cons_a = np.vstack(rows)
    cons_b = np.concatenate(rhs)

    need = n - me
    combos = np.array(list(itertools.combinations(range(cons_a.shape[0]), need)), dtype=int)
    if combos.size == 0:
        combos = np.zeros((1, 0), dtype=int)
    n_combo = combos.shape[0]

    mats = np.empty((n_combo, n, n))
    rhss = np.empty((n_combo, n))
    if me:
        mats[:, :me, :] = a_eq[None]
        rhss[:, :me] = problem.b_eq[None]
    if need:
        mats[:, me:, :] = cons_a[combos]
        rhss[:, me:] = cons_b[combos]

    sv = np.linalg.svd(mats, compute_uv=False)
    ok = sv[:, -1] > 1e-9 * np.maximum(sv[:, 0], 1.0)
    if not ok.any():
        return "infeasible", None, None
    xs = np.linalg.solve(mats[ok], rhss[ok][..., None])[..., 0]

    feas = np.all(cons_a @ xs.T <= cons_b[:, None] + tol, axis=0)
    if me:
        feas &= np.all(np.abs(a_eq @ xs.T - problem.b_eq[:, None]) <= tol, axis=0)
    if not feas.any():
        return "infeasible", None, None
    objs = xs @ problem.c
    objs[~feas] = np.inf
    best = int(np.argmin(objs))
    return "optimal", xs[best], float(objs[best])


def dense_sample_path(policy, scenario, steps: int, rng: np.random.Generator):
    """Reference for `sim._sample_path`: same draws, O(K) scan per step.

    Returns (path, cycle_lengths, truncated).
    """
    k, alpha = scenario.k, scenario.alpha
    if alpha == 0.0:
        lengths = np.ones(steps, dtype=np.int64)
    else:
        chunks = []
        total = 0
        est = int(steps * (1.0 - alpha)) + 16
        while total < steps:
            block = rng.geometric(1.0 - alpha, size=est)
            chunks.append(block)
            total += int(block.sum())
            est = max(16, est // 4)
        lengths = np.concatenate(chunks)
    ends = np.cumsum(lengths)
    n_cycles = int(np.searchsorted(ends, steps)) + 1
    lengths = lengths[:n_cycles]
    truncated = int(ends[n_cycles - 1]) > steps
    if truncated:
        lengths[-1] -= int(ends[n_cycles - 1]) - steps
    offsets = np.concatenate([[0], np.cumsum(lengths[:-1])])

    row_cum = np.cumsum(markov.click_kernel(policy, scenario), axis=1)

    path = np.empty(steps, dtype=np.int64)
    p0_cum = np.cumsum(scenario.p0)
    starts = np.searchsorted(p0_cum, rng.random(n_cycles), side="right")
    starts = np.minimum(starts, k - 1)
    path[offsets] = starts

    current = starts.copy()
    for t in range(1, int(lengths.max())):
        active = lengths > t
        cur = current[active]
        u = rng.random(cur.shape[0])
        nxt = np.minimum((row_cum[cur] < u[:, None]).sum(axis=1), k - 1)
        path[offsets[active] + t] = nxt
        current[active] = nxt
    return path, lengths, truncated


def entrywise_session_lp(scenario, positional: bool) -> LpProblem:
    """The uniform (P2) or positional (P3) session LP, built entry by entry."""
    k, n, alpha, u = scenario.k, scenario.n, scenario.alpha, scenario.u
    blocks = n if positional else 1
    v = scenario.v if positional else None
    size = k * (k - 1)
    nv = k + blocks * size

    def f(i, j, b):
        return k + b * size + i * (k - 1) + (j if j < i else j - 1)

    qmax = max_quality(u, n, v)
    ub, eq = ([], [], []), ([], [], [])  # rows, cols, values
    ub_rhs, ub_names, eq_rhs, eq_names = [], [], [], []

    def emit(mat, row, col, val):
        mat[0].append(row)
        mat[1].append(col)
        mat[2].append(val)

    for i in range(k):  # quality
        for b in range(blocks):
            w = v[b] if positional else 1.0
            for j in range(k):
                if j != i and u[i, j] != 0.0 and w != 0.0:
                    emit(ub, i, f(i, j, b), -w * u[i, j])
        emit(ub, i, i, scenario.q * qmax[i])
        ub_rhs.append(0.0)
        ub_names.append(f"quality_{i}")
    for i in range(k):  # slate caps
        for j in range(k):
            if j != i:
                for b in range(blocks):
                    emit(ub, len(ub_rhs), f(i, j, b), 1.0)
                emit(ub, len(ub_rhs), i, -1.0)
                ub_rhs.append(0.0)
                ub_names.append(f"cap_{i}_{j}")
    for b in range(blocks):  # slate budget
        for i in range(k):
            for j in range(k):
                if j != i:
                    emit(eq, len(eq_rhs), f(i, j, b), 1.0)
            emit(eq, len(eq_rhs), i, -1.0 if positional else -float(n))
            eq_rhs.append(0.0)
            eq_names.append(f"budget_{b + 1}_{i}" if positional else f"budget_{i}")
    for j in range(k):  # flow balance
        emit(eq, len(eq_rhs), j, 1.0)
        for b in range(blocks):
            w = alpha * v[b] if positional else alpha / n
            for i in range(k):
                if i != j and w != 0.0:
                    emit(eq, len(eq_rhs), f(i, j, b), -w)
        eq_rhs.append(float(scenario.p0[j]))
        eq_names.append(f"flow_{j}")

    tags = [f"f{b + 1}_" for b in range(blocks)] if positional else ["f"]
    names = [f"z{i}" for i in range(k)] + [f"{tag}{i}_{j}" for tag in tags
                                           for i in range(k) for j in range(k) if j != i]
    c = np.zeros(nv)
    c[:k] = scenario.c

    def csr(mat, rows):
        return sparse.coo_matrix((mat[2], (mat[0], mat[1])), shape=(rows, nv)).tocsr()

    return LpProblem(
        c=c, a_eq=csr(eq, len(eq_rhs)), b_eq=np.array(eq_rhs),
        a_ub=csr(ub, len(ub_rhs)), b_ub=np.array(ub_rhs),
        lb=np.zeros(nv), ub=np.full(nv, np.inf), var_names=names,
        eq_names=eq_names, ub_names=ub_names,
        name="positional-session-lp" if positional else "session-lp")
