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

`dense_validate_policy`, `dense_click_kernel`, `dense_step_table` and
`dense_policy_csv` are the policy checks, click kernel, sampler step table and
policy file computed on the dense (K, K) matrix or (N, K, K) stack of a
policy. The production versions visit only the stored entries of the CSR
policy and must return the same violations, the same kernel, bitwise the
same cumulative sums and the same file bytes.

`reduced_dense_solve` is `markov.solve` on a dense Q: the recommended
contents R are the columns of Q with a nonzero entry, V_R comes from
np.linalg.solve of the principal submatrix of I - Q on R, and each other
V_i = c_i + sum_j Q_ij V_j is added up in a Python loop in column order.
The production routine builds I - Q on R from the click kernel's CSR
entries and sums with one bincount, and must return bitwise the same V and
residual. `dense_fundamental_matrix` inverts the whole I - Q, for the facts
about the visit rates G'p0 and the row sums G 1 that no program reads.

`evaluate_each_round` is the row-kernel solver in its plain form: every
round builds the dense policy and solves its session system from its
`dense_click_kernel` by `reduced_dense_solve`; P1 stops after the first
round. The production routine goes through the policy's CSR click kernel,
and must return bitwise the same policy, report, objective and kernel
calls.

`sweep_each_cell` is the parameter sweep in its plain form: every
(axis value, policy) cell applies the axis and rebuilds the graph and the
scenario from the config for each seed. `cli.run_sweep` builds each seed's
graph once and each axis value's scenario once, and must return the same
rows, `wall_time_s` aside.

`entrywise_session_lp` emits the session LP one coefficient at a time from
nested loops over contents, with the f-column of pair (i, j) computed by
index arithmetic. `lp.build_session_lp` and `build_positional_lp` assemble
each constraint family from index arrays and must build the same problem,
entry for entry.

`dense_edgelist` is `data.load_edgelist` after its line parser, in its plain
dense form: a Python loop takes each pair's largest weight into a (K, K)
matrix, which is symmetrized by its elementwise max with its transpose,
saturated as a whole and cut to the largest component of its positive
entries with one np.ix_ copy. The production reader does all of this on
edge arrays and densifies once, and must return bitwise the same matrix and
the same statistics.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy import sparse

from cacherec import data, markov, policies
from cacherec.cli import apply_axis, gain, mph
from cacherec.lp import LpProblem
from cacherec.model import FEAS_TOL, entropy, max_quality, slate_policy


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


def dense_validate_policy(policy, scenario, tol: float = FEAS_TOL) -> list[str]:
    """Reference for `model.validate_policy`, on the dense view."""
    k, n = scenario.k, scenario.n
    if policy.k != k:
        raise ValueError(f"policy is {policy.k}x{policy.k}, scenario has K={k}")
    out: list[str] = []

    def entry(idx) -> str:
        """'entry (i, j)', with its slot ahead for a positional policy."""
        *slot, i, j = (int(x) for x in idx)
        return f"slot {slot[0]} entry ({i}, {j})" if slot else f"entry ({i}, {j})"

    def check_box(mat: np.ndarray, sums: np.ndarray):
        # NaN fails every comparison below. A non-finite entry also leaves its
        # row sum non-finite, so only then are the entries searched.
        if not np.isfinite(sums).all():
            for idx in np.argwhere(~np.isfinite(mat))[:20]:
                out.append(f"{entry(idx)} not finite: {mat[tuple(idx)]}")
        diag = np.abs(np.diagonal(mat, axis1=-2, axis2=-1))
        for *slot, i in np.argwhere(diag > tol):
            out.append(f"{entry((*slot, i, i))} on the diagonal is nonzero: "
                       f"{diag[(*slot, i)]:.3g}")
        for idx in np.argwhere(mat < -tol)[:20]:
            out.append(f"{entry(idx)} negative: {mat[tuple(idx)]:.3g}")
        for idx in np.argwhere(mat > 1.0 + tol)[:20]:
            out.append(f"{entry(idx)} above 1: {mat[tuple(idx)]:.3g}")

    if not policy.is_positional:
        r = policy.mats
        sums = r.sum(axis=1)
        check_box(r, sums)
        for i in np.flatnonzero(np.abs(sums - n) > tol):
            out.append(f"row {int(i)} sums to {sums[i]:.9g}, expected {n} "
                       f"(off by {abs(sums[i] - n):.3g})")
    else:
        if policy.n_slots != n:
            raise ValueError(f"policy has {policy.n_slots} slot matrices, scenario has N={n}")
        mats = policy.mats
        sums = mats.sum(axis=2)
        check_box(mats, sums)
        for sn, i in np.argwhere(np.abs(sums - 1.0) > tol):
            out.append(f"slot {int(sn)} row {int(i)} sums to {sums[sn, i]:.9g}, expected 1 "
                       f"(off by {abs(sums[sn, i] - 1.0):.3g})")
        cross = mats.sum(axis=0)
        for i, j in np.argwhere(cross > 1.0 + tol):
            out.append(f"entry ({int(i)}, {int(j)}) appears in slots with total frequency "
                       f"{cross[i, j]:.9g} > 1")
    return out


def dense_click_kernel(policy, scenario) -> np.ndarray:
    """Reference for `markov.click_kernel`, as a dense (K, K) array."""
    if policy.is_positional:
        return np.einsum("n,nij->ij", scenario.v, policy.mats)
    return policy.mats / scenario.n


def dense_fundamental_matrix(policy, scenario) -> np.ndarray:
    """G = (I - Q)^{-1} of a policy's session chain, by a dense inverse."""
    q = scenario.alpha * dense_click_kernel(policy, scenario)
    return np.linalg.inv(np.eye(scenario.k) - q)


def reduced_dense_solve(q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Reference for `markov.solve` on a dense (K, K) Q: (V, residual)."""
    k = c.size
    reached = np.flatnonzero((q != 0.0).any(axis=0))
    values = c.copy()
    values[reached] = np.linalg.solve((np.eye(k) - q)[np.ix_(reached, reached)], c[reached])
    qv = np.zeros(k)
    for i in range(k):
        total = 0.0
        for j in np.flatnonzero(q[i]):
            total += q[i, j] * values[j]
        qv[i] = total
    outside = np.setdiff1d(np.arange(k), reached)
    values[outside] = c[outside] + qv[outside]
    return values, float(np.abs(values - c - qv).max())


def dense_step_table(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference for `sim._step_table`, from a dense (K, K) kernel, row by row:
    the row's cumulative sums at its positive columns."""
    support = [np.flatnonzero(row > 0.0) for row in kernel]
    empty = [i for i, cols in enumerate(support) if cols.size == 0]
    if empty:
        raise ValueError(f"click kernel row {empty[0]} has no positive entry "
                         f"({len(empty)} such rows)")
    width = 1 << (max(cols.size for cols in support) - 1).bit_length()
    thr = np.full((kernel.shape[0], width), np.inf)
    table = np.empty((kernel.shape[0], width), dtype=np.intp)
    for i, cols in enumerate(support):
        cum = np.cumsum(kernel[i])[cols]
        thr[i, :cols.size - 1] = cum[:-1]
        table[i] = cols[-1]
        table[i, :cols.size] = cols
    return thr.ravel(), table.ravel(), width


def dense_policy_csv(policy, meta: dict | None = None) -> str:
    """Reference for `cli.write_policy_csv`: the file text, from the dense view."""
    lines = ["# cacherec-policy v1", f"# variant: {policy.kind}", f"# k: {policy.k}"]
    if policy.is_positional:
        lines.append(f"# slots: {policy.n_slots}")
    for key, val in (meta or {}).items():
        lines.append(f"# {key}: {val}")
    if policy.is_positional:
        lines.append("n,i,j,r")
        mats = policy.mats
        for slot in range(mats.shape[0]):
            for i, j in np.argwhere(mats[slot] != 0.0):
                lines.append(f"{slot + 1},{i},{j},{mats[slot, i, j]:.17g}")
    else:
        lines.append("i,j,r")
        for i, j in np.argwhere(policy.mats != 0.0):
            lines.append(f"{i},{j},{policy.mats[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def csr_arrays(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of the nonzero entries of a 2-D array."""
    rows, cols = np.nonzero(dense)
    return np.searchsorted(rows, np.arange(dense.shape[0] + 1)), cols, dense[rows, cols]


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

    row_cum = np.cumsum(dense_click_kernel(policy, scenario), axis=1)

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


def mix_value(sol, values, weights) -> np.ndarray:
    """Each row's cost theta * V(lo) + (1 - theta) * V(hi) of a slate mix,
    one row at a time, with V(s) the left-to-right sum of w_t V[s_t]."""
    cost = np.empty(sol.theta.size)
    for i, theta in enumerate(sol.theta):
        v_lo = v_hi = 0.0
        for t, w in enumerate(weights):
            v_lo += values[sol.lo[i, t]] * w
            v_hi += values[sol.hi[i, t]] * w
        cost[i] = theta * v_lo + (1.0 - theta) * v_hi
    return cost


def evaluate_each_round(scenario, name: str):
    """Reference for `policies._row_solve` on P1, P2 or P3. Returns (policy,
    report, kernel calls, objective): P1's objective is its myopic cost, and
    P2's and P3's the cycle cost p0'V."""
    weights, floor, v, start = policies._row_problem(scenario, positional=name == "P3")
    kernel = functools.partial(policies.row_kernel, u=scenario.u, weights=weights,
                               floor=floor)
    sol, _, _ = kernel(scenario.c, start=start)
    calls = 1
    for _ in range(policies.MAX_ROUNDS):
        policy = slate_policy(*sol, v)
        q = scenario.alpha * dense_click_kernel(policy, scenario)
        values, residual = reduced_dense_solve(q, scenario.c)
        ltec = float((1.0 - scenario.alpha) * (scenario.p0 @ values))
        report = markov.EvalReport(
            ltec=ltec, cost_to_go=values, chr=1.0 - ltec if scenario.binary_costs else None,
            residual=residual)
        if name == "P1":
            myopic_cost = scenario.p0 @ mix_value(sol, scenario.c, weights)
            return policy, report, calls, float(myopic_cost)
        new, _, _ = kernel(values, start=sol)
        calls += 1
        old = mix_value(sol, values, weights)
        margin = policies.IMPROVE_RTOL * np.abs(values).max()
        better = mix_value(new, values, weights) < old - margin
        if not better.any():
            return policy, report, calls, float(scenario.p0 @ values)
        sol = policies.RowSolution(np.where(better[:, None], new.lo, sol.lo),
                                   np.where(better[:, None], new.hi, sol.hi),
                                   np.where(better, new.theta, sol.theta))
    raise AssertionError("policy iteration did not settle")


def _sweep_cell(cfg, axis, value, policy_name, solve_kw) -> dict:
    row = {"axis": axis, "policy": policy_name, "status": "ok",
           "chr": None, "ltec": None, "mph": None, "value": value}
    try:
        scenario, _ = data.scenario_from_config(apply_axis(cfg, axis, value))
        report = policies.solve_named(policy_name, scenario, **solve_kw).report
        row["ltec"] = report.ltec
        row["chr"] = report.chr
        row["mph"] = mph(scenario.p0, scenario.c) if scenario.binary_costs else None
        row["value"] = entropy(scenario.v) if axis == "Hv" else value
    except policies.InfeasibleProblem as exc:
        row["status"] = f"infeasible: {exc}"
    except Exception as exc:
        row["status"] = f"error: {type(exc).__name__}: {exc}"
    return row


def sweep_each_cell(spec) -> list[dict]:
    """Reference for `cli.run_sweep`: the rows, without wall_time_s, of a
    sweep that rebuilds the scenario in every cell."""
    rows = [_sweep_cell(spec.config, spec.axis, value, name, spec.solve_kw)
            for value in spec.values for name in spec.policies]
    per_value = len(spec.policies)
    for block in range(len(spec.values)):
        group = rows[block * per_value: (block + 1) * per_value]
        ref = next((r for r in group if r["policy"] == spec.reference), None)
        for row in group:
            row["gain_pct"] = gain(row["chr"], ref["chr"]) if ref and ref["status"] == "ok" \
                else None
    return rows


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


def dense_edgelist(edges, saturation_threshold: float,
                   component_before_saturation: bool = False):
    """Reference for `data.load_edgelist` on the parsed (i, j, w) edges of a
    file: the similarity matrix and GraphStats, or ValueError when the
    largest component has fewer than 2 nodes."""
    from scipy.sparse.csgraph import connected_components

    remap = {node: pos for pos, node in enumerate(sorted({x for i, j, _ in edges
                                                          for x in (i, j)}))}
    k = len(remap)
    u = np.zeros((k, k))
    for i, j, w in edges:
        a, b = remap[i], remap[j]
        if a != b:
            u[a, b] = max(u[a, b], w)
    u = np.maximum(u, u.T)

    def saturate(mat):
        return mat if saturation_threshold < 0 else (mat > saturation_threshold).astype(float)

    def largest_component(mat):
        n_comp, labels = connected_components(sparse.csr_matrix(mat > 0), directed=False)
        if n_comp <= 1:
            return mat
        keep = np.flatnonzero(labels == int(np.argmax(np.bincount(labels))))
        return mat[np.ix_(keep, keep)]

    if component_before_saturation:
        u = saturate(largest_component(u))
    else:
        u = largest_component(saturate(u))
    if u.shape[0] < 2:
        raise ValueError("largest component has fewer than 2 nodes")
    deg = (u > 0).sum(axis=1)
    arcs = int(deg.sum())
    return u, data.GraphStats(nodes=u.shape[0], arcs=arcs, mean_neighbors=arcs / u.shape[0],
                              std_neighbors=float(deg.std()))
