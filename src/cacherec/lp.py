"""Linear programs for cost-optimal recommendation policies.

The long-session objective (1-alpha) * p0' (I - Q(R))^{-1} c is nonlinear in
the policy, but substituting z' = p0' (I - Q)^{-1} and f_ij = z_i * r_ij
turns it into a plain LP over (z, f):

    minimize    c' z
    subject to  sum_j f_ij u_ij >= z_i * q * qmax_i          (quality)
                sum_j f_ij = N * z_i                         (slate budget)
                f_ij <= z_i                                  (r_ij <= 1)
                f_ij >= 0, diagonal dropped
                z_j - (alpha/N) sum_i f_ij = p0_j            (flow balance)

Strictly positive p0 keeps z positive, so the map r_ij = f_ij / z_i recovers
a policy from any optimal (z, f), and the session cost of that policy is
exactly (1-alpha) * c' z. The position-aware variant carries one f-block per
slot; the myopic variant optimizes each row of R directly and needs no
change of variables.

After eliminating the fixed diagonal, the uniform-click LP has K^2 variables
(K of them z), K^2 inequality rows and 2K equality rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .model import Policy, Scenario, max_quality

#: Recovered z entries below this signal a violated p0 > 0 precondition.
Z_FLOOR = 1e-12

DUMP_HEADER = "# cacherec lp dump v1"


@dataclass
class LpProblem:
    """Standard-form LP: minimize c'x s.t. a_eq x = b_eq, a_ub x <= b_ub, lb <= x <= ub."""

    c: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    var_names: list[str]
    eq_names: list[str] = field(default_factory=list)
    ub_names: list[str] = field(default_factory=list)
    name: str = "lp"

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.b_ub = np.asarray(self.b_ub, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        n = self.c.shape[0]
        self.a_eq = sparse.csr_matrix(self.a_eq, shape=(self.b_eq.shape[0], n))
        self.a_ub = sparse.csr_matrix(self.a_ub, shape=(self.b_ub.shape[0], n))
        if not self.eq_names:
            self.eq_names = [f"eq{i}" for i in range(self.b_eq.shape[0])]
        if not self.ub_names:
            self.ub_names = [f"le{i}" for i in range(self.b_ub.shape[0])]
        if len(self.var_names) != n:
            raise ValueError(f"{len(self.var_names)} names for {n} variables")
        if len(set(self.var_names)) != n:
            raise ValueError("variable names must be unique")
        if len(self.eq_names) != self.b_eq.shape[0] or len(self.ub_names) != self.b_ub.shape[0]:
            raise ValueError("row-name counts do not match row counts")
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if np.any(self.lb > self.ub):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    def residual(self, x: np.ndarray) -> float:
        """Largest constraint/bound violation at x (0 means feasible)."""
        worst = 0.0
        if self.b_eq.size:
            worst = max(worst, float(np.abs(self.a_eq @ x - self.b_eq).max()))
        if self.b_ub.size:
            worst = max(worst, float(np.maximum(self.a_ub @ x - self.b_ub, 0.0).max()))
        worst = max(worst, float(np.maximum(self.lb - x, 0.0).max(initial=0.0)))
        finite = np.isfinite(self.ub)
        if finite.any():
            worst = max(worst, float(np.maximum(x[finite] - self.ub[finite], 0.0).max()))
        return worst


@dataclass(frozen=True)
class RecoveredPolicy:
    """Policy rebuilt from an optimal (z, f) solution.

    objective_value is c'z; the session cost of the policy is
    (1 - alpha) * objective_value. residuals is the largest LP constraint
    violation at the solution vector.
    """

    policy: Policy
    z: np.ndarray
    objective_value: float
    residuals: float


class _VarIndex:
    """Index arithmetic for the [z | f-blocks] variable layout (diagonal dropped)."""

    def __init__(self, k: int, blocks: int):
        self.k = k
        self.blocks = blocks
        self.block_size = k * (k - 1)

    @property
    def n_vars(self) -> int:
        return self.k + self.blocks * self.block_size

    def z(self, i: int) -> int:
        return i

    def f(self, i: int, j: int, block: int = 0) -> int:
        if i == j:
            raise ValueError("diagonal entries are eliminated")
        return self.k + block * self.block_size + i * (self.k - 1) + (j if j < i else j - 1)

    def names(self, positional: bool) -> list[str]:
        out = [f"z{i}" for i in range(self.k)]
        for b in range(self.blocks):
            tag = f"f{b + 1}_" if positional else "f"
            for i in range(self.k):
                for j in range(self.k):
                    if j != i:
                        out.append(f"{tag}{i}_{j}")
        return out

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a solution vector into z (K,) and f (blocks, K, K) with zero diagonal."""
        k = self.k
        z = np.asarray(x[:k], dtype=float)
        f = np.zeros((self.blocks, k, k))
        body = np.asarray(x[k:], dtype=float).reshape(self.blocks, k, k - 1)
        for i in range(k):
            cols = [j for j in range(k) if j != i]
            f[:, i, cols] = body[:, i, :]
        return z, f


def _session_lp(scenario: Scenario, positional: bool) -> LpProblem:
    k, n, alpha = scenario.k, scenario.n, scenario.alpha
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"the long-session LP needs alpha in (0, 1), got {alpha}")
    u = scenario.u
    blocks = n if positional else 1
    v = scenario.v if positional else None
    idx = _VarIndex(k, blocks)
    nv = idx.n_vars

    qmax = max_quality(u, n, v)

    c = np.zeros(nv)
    c[:k] = scenario.c

    ub_rows: list[int] = []
    ub_cols: list[int] = []
    ub_vals: list[float] = []
    ub_rhs: list[float] = []
    ub_names: list[str] = []

    # quality: -sum_(j,n) weight * u_ij * f^n_ij + q * qmax_i * z_i <= 0
    for i in range(k):
        row = len(ub_rhs)
        for b in range(blocks):
            w = v[b] if positional else 1.0
            for j in range(k):
                if j != i and u[i, j] != 0.0 and w != 0.0:
                    ub_rows.append(row)
                    ub_cols.append(idx.f(i, j, b))
                    ub_vals.append(-w * u[i, j])
        ub_rows.append(row)
        ub_cols.append(idx.z(i))
        ub_vals.append(scenario.q * qmax[i])
        ub_rhs.append(0.0)
        ub_names.append(f"quality_{i}")

    # slate caps: sum_n f^n_ij <= z_i  (uniform: f_ij <= z_i), i.e. r_ij <= 1
    for i in range(k):
        for j in range(k):
            if j == i:
                continue
            row = len(ub_rhs)
            for b in range(blocks):
                ub_rows.append(row)
                ub_cols.append(idx.f(i, j, b))
                ub_vals.append(1.0)
            ub_rows.append(row)
            ub_cols.append(idx.z(i))
            ub_vals.append(-1.0)
            ub_rhs.append(0.0)
            ub_names.append(f"cap_{i}_{j}")

    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_vals: list[float] = []
    eq_rhs: list[float] = []
    eq_names: list[str] = []

    # slate budget: per position sum_j f^n_ij = z_i (uniform: sum_j f_ij = N z_i)
    for b in range(blocks):
        for i in range(k):
            row = len(eq_rhs)
            for j in range(k):
                if j != i:
                    eq_rows.append(row)
                    eq_cols.append(idx.f(i, j, b))
                    eq_vals.append(1.0)
            eq_rows.append(row)
            eq_cols.append(idx.z(i))
            eq_vals.append(-float(n) if not positional else -1.0)
            eq_rhs.append(0.0)
            eq_names.append(f"budget_{i}" if not positional else f"budget_{b + 1}_{i}")

    # flow balance: z_j - alpha * sum_(i,n) weight * f^n_ij = p0_j
    for j in range(k):
        row = len(eq_rhs)
        eq_rows.append(row)
        eq_cols.append(idx.z(j))
        eq_vals.append(1.0)
        for b in range(blocks):
            w = (alpha * v[b]) if positional else (alpha / n)
            for i in range(k):
                if i != j and w != 0.0:
                    eq_rows.append(row)
                    eq_cols.append(idx.f(i, j, b))
                    eq_vals.append(-w)
        eq_rhs.append(float(scenario.p0[j]))
        eq_names.append(f"flow_{j}")

    a_ub = sparse.coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(ub_rhs), nv)).tocsr()
    a_eq = sparse.coo_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(eq_rhs), nv)).tocsr()
    return LpProblem(
        c=c,
        a_eq=a_eq,
        b_eq=np.array(eq_rhs),
        a_ub=a_ub,
        b_ub=np.array(ub_rhs),
        lb=np.zeros(nv),
        ub=np.full(nv, np.inf),
        var_names=idx.names(positional),
        eq_names=eq_names,
        ub_names=ub_names,
        name="positional-session-lp" if positional else "session-lp",
    )


def build_session_lp(scenario: Scenario) -> LpProblem:
    """LP whose optimum minimizes the long-session cost under uniform clicks."""
    return _session_lp(scenario, positional=False)


def build_positional_lp(scenario: Scenario) -> LpProblem:
    """LP whose optimum minimizes the long-session cost with position preference."""
    return _session_lp(scenario, positional=True)


def build_greedy_row_lps(scenario: Scenario) -> list[LpProblem]:
    """One tiny LP per content, minimizing only the next request's cost.

    Row i: minimize sum_j r_ij c_j over 0 <= r_ij <= 1 (j != i) subject to the
    quality floor and the slate budget. The joint myopic objective
    p0' R c separates over rows, so solving them independently is exact.
    """
    k, n = scenario.k, scenario.n
    qmax = max_quality(scenario.u, n)
    out = []
    for i in range(k):
        cols = [j for j in range(k) if j != i]
        u_row = scenario.u[i, cols]
        c_row = scenario.c[cols]
        a_ub = sparse.csr_matrix(-u_row[None, :])
        a_eq = sparse.csr_matrix(np.ones((1, k - 1)))
        out.append(LpProblem(
            c=c_row.copy(),
            a_eq=a_eq,
            b_eq=np.array([float(n)]),
            a_ub=a_ub,
            b_ub=np.array([-scenario.q * qmax[i]]),
            lb=np.zeros(k - 1),
            ub=np.ones(k - 1),
            var_names=[f"r{i}_{j}" for j in cols],
            eq_names=[f"budget_{i}"],
            ub_names=[f"quality_{i}"],
            name=f"greedy-row-{i}",
        ))
    return out


def assemble_greedy_policy(row_solutions: list[np.ndarray], scenario: Scenario) -> Policy:
    """Stack per-row myopic solutions (length K-1 each) into a uniform policy."""
    k = scenario.k
    if len(row_solutions) != k:
        raise ValueError(f"need {k} row solutions, got {len(row_solutions)}")
    r = np.zeros((k, k))
    for i, x in enumerate(row_solutions):
        cols = [j for j in range(k) if j != i]
        r[i, cols] = x
    return Policy.uniform(r)


def recover_policy(solution, scenario: Scenario, positional: bool = False,
                   z_floor: float = Z_FLOOR,
                   problem: LpProblem | None = None) -> RecoveredPolicy:
    """Map an optimal (z, f) LP solution back to a recommendation policy.

    Requires solution.status == "optimal" and every z_j > z_floor (guaranteed
    by strictly positive p0; a near-zero z means the precondition or the
    solver failed).
    """
    if getattr(solution, "status", "optimal") != "optimal":
        raise ValueError(f"cannot recover a policy from status {solution.status!r}")
    x = np.asarray(solution.x, dtype=float)
    k, n = scenario.k, scenario.n
    blocks = n if positional else 1
    idx = _VarIndex(k, blocks)
    if x.shape[0] != idx.n_vars:
        raise ValueError(f"solution has {x.shape[0]} variables, expected {idx.n_vars}")
    z, f = idx.unpack(x)
    if np.any(z <= z_floor):
        j = int(np.argmin(z))
        raise ValueError(
            f"z_{j} = {z[j]:.3e} is not strictly positive; p0 > 0 must have been "
            "violated or the solver failed")
    mats = f / z[None, :, None]
    policy = Policy.positional(mats) if positional else Policy.uniform(mats[0])

    if problem is None:
        problem = _session_lp(scenario, positional)
    return RecoveredPolicy(
        policy=policy,
        z=z,
        objective_value=float(scenario.c @ z),
        residuals=problem.residual(x),
    )


# ---------------------------------------------------------------------------
# Plain-text interchange dump, for debugging against external solvers.

def format_lp(problem: LpProblem) -> str:
    """Serialize an LpProblem to the line-oriented interchange format."""
    lines = [DUMP_HEADER, f"problem {problem.name}", "minimize"]
    for i, name in enumerate(problem.var_names):
        lines.append(f"var {name} obj {float(problem.c[i])!r} "
                     f"lb {float(problem.lb[i])!r} ub {float(problem.ub[i])!r}")

    def emit(kind: str, mat: sparse.csr_matrix, rhs: np.ndarray, names: list[str]):
        csr = mat.tocsr()
        for r in range(rhs.shape[0]):
            lo, hi = csr.indptr[r], csr.indptr[r + 1]
            terms = " ".join(
                f"{problem.var_names[c]} {float(val)!r}"
                for c, val in zip(csr.indices[lo:hi], csr.data[lo:hi]))
            lines.append(f"{kind} {names[r]} rhs {float(rhs[r])!r} : {terms}")

    emit("eq", problem.a_eq, problem.b_eq, problem.eq_names)
    emit("le", problem.a_ub, problem.b_ub, problem.ub_names)
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_lp(text: str) -> LpProblem:
    """Rebuild an LpProblem from its interchange dump.

    A malformed dump raises ValueError naming the offending line.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or lines[0] != DUMP_HEADER:
        raise ValueError("line 1: not a recognized lp dump (bad header)")
    name = "lp"
    var_names: list[str] = []
    obj: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    rows = {"eq": [], "le": []}
    var_index: dict[str, int] = {}

    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln or ln == "minimize" or ln.startswith("#"):
            continue
        if ln == "end":
            break
        tok = ln.split()
        try:
            if tok[0] == "problem":
                name = tok[1] if len(tok) > 1 else name
            elif tok[0] == "var":
                if len(tok) != 8 or tok[2::2] != ["obj", "lb", "ub"]:
                    raise ValueError("expected 'var <name> obj <c> lb <l> ub <u>'")
                if tok[1] in var_index:
                    raise ValueError(f"variable {tok[1]!r} declared twice")
                c, lo, hi = map(float, tok[3::2])
                if np.isnan(c) or not lo <= hi:  # NaN bounds fail the comparison
                    raise ValueError(f"need a numeric objective and lb <= ub, got {ln!r}")
                var_index[tok[1]] = len(var_names)
                var_names.append(tok[1])
                obj.append(c)
                lb.append(lo)
                ub.append(hi)
            elif tok[0] in rows:
                if len(tok) < 5 or tok[2] != "rhs" or tok[4] != ":":
                    raise ValueError(f"expected '{tok[0]} <name> rhs <b> : <var> <coef> ...'")
                body = tok[5:]
                if len(body) % 2:
                    raise ValueError(f"odd term list in row {tok[1]!r}")
                unknown = [var for var in body[::2] if var not in var_index]
                if unknown:
                    raise ValueError(f"row {tok[1]!r} names undeclared variable {unknown[0]!r}")
                rhs, *coefs = map(float, [tok[3], *body[1::2]])
                if np.isnan([rhs, *coefs]).any():
                    raise ValueError(f"NaN in row {tok[1]!r}")
                terms = [(var_index[var], coef) for var, coef in zip(body[::2], coefs)]
                rows[tok[0]].append((tok[1], rhs, terms))
            else:
                raise ValueError(f"unrecognized dump line: {ln!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None

    nv = len(var_names)

    def to_sparse(entries):
        names, rhs = [], []
        r_idx, c_idx, vals = [], [], []
        for r, (rname, rval, terms) in enumerate(entries):
            names.append(rname)
            rhs.append(rval)
            for col, val in terms:
                r_idx.append(r)
                c_idx.append(col)
                vals.append(val)
        mat = sparse.coo_matrix((vals, (r_idx, c_idx)), shape=(len(entries), nv)).tocsr()
        return mat, np.array(rhs), names

    a_eq, b_eq, eq_names = to_sparse(rows["eq"])
    a_ub, b_ub, ub_names = to_sparse(rows["le"])
    return LpProblem(
        c=np.array(obj), a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
        lb=np.array(lb), ub=np.array(ub), var_names=var_names,
        eq_names=eq_names, ub_names=ub_names, name=name,
    )


def parse_solution_text(text: str, problem: LpProblem) -> tuple[str, np.ndarray, float | None]:
    """Parse an external solver's "name=value" result file.

    Returns (status, x, objective); unknown variables raise, missing ones
    default to their lower bound. Lines "status=..." and "objective=..." are
    recognized; status defaults to "optimal" when x entries are present.
    A malformed line or a non-finite value raises ValueError naming the line.
    """
    status = None
    objective = None
    x = np.where(np.isfinite(problem.lb), problem.lb, 0.0).astype(float)
    seen = False
    index = {nm: i for i, nm in enumerate(problem.var_names)}
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, eq, val = ln.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if not eq:
                raise ValueError(f"expected name=value, got {ln!r}")
            if key == "status":
                status = val
                continue
            if key != "objective" and key not in index:
                raise ValueError(f"unknown variable {key!r}")
            number = float(val)
            if not np.isfinite(number):
                raise ValueError(f"{key} is not finite: {val!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if key == "objective":
            objective = number
        else:
            x[index[key]] = number
            seen = True
    if status is None:
        status = "optimal" if seen else "solver-error"
    return status, x, objective
