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

Variable layout: x = [z | f-block 1 | ... | f-block B], B = 1 for uniform
clicks or N (one per slot). A block lists f_ij over the off-diagonal pairs
(ii, jj) = nonzero(~eye(K)) in row-major order: block b (from 0) is columns
K + b K(K-1) + arange(K(K-1)). Rows: K quality, then one cap per pair (<=);
B*K budget rows block by block, then K flow rows (=). Every builder and the
recovery index through this one layout.
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


def _off_diagonal(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every off-diagonal pair (i, j), in row-major order."""
    return np.nonzero(~np.eye(k, dtype=bool))


def _csr(shape: tuple[int, int], *terms) -> sparse.csr_matrix:
    """Sum COO terms (rows, cols, values), each broadcast to one shape, into CSR."""
    rows, cols, vals = (np.concatenate([a.ravel() for a in part])
                        for part in zip(*(np.broadcast_arrays(*t) for t in terms)))
    return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _names(ii: np.ndarray, jj: np.ndarray, k: int, n: int, positional: bool):
    """Variable, equality-row and inequality-row names, in column and row order."""
    pairs = [f"{i}_{j}" for i, j in zip(ii.tolist(), jj.tolist())]
    blocks = [f"{b + 1}_" for b in range(n)] if positional else [""]
    ks = range(k)
    return ([f"z{i}" for i in ks] + [f"f{b}{p}" for b in blocks for p in pairs],
            [f"budget_{b}{i}" for b in blocks for i in ks] + [f"flow_{j}" for j in ks],
            [f"quality_{i}" for i in ks] + [f"cap_{p}" for p in pairs])


def _session_lp(scenario: Scenario, positional: bool) -> LpProblem:
    k, n, alpha = scenario.k, scenario.n, scenario.alpha
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"the long-session LP needs alpha in (0, 1), got {alpha}")
    w = scenario.v if positional else np.ones(1)        # click weight of each f-block
    flow_w = alpha * w if positional else np.array([alpha / n])
    blocks = w.size
    ii, jj = _off_diagonal(k)
    m = ii.size
    z = np.arange(k)                                    # column of z_i
    f = k + np.arange(blocks * m).reshape(blocks, m)    # f[b, p]: column of f^b at pair p
    nv = k + blocks * m
    qmax = max_quality(scenario.u, n, scenario.v if positional else None)
    uij = scenario.u[ii, jj]
    # Terms whose u_ij or click weight is zero are left out; the z_i term of a
    # quality row stays, as an explicit zero when q * qmax_i = 0.
    nz, live, flowing = np.flatnonzero(uij), np.flatnonzero(w), np.flatnonzero(flow_w)
    cap = k + np.arange(m)                              # row of cap_ij
    budget = k * np.arange(blocks)[:, None]             # first row of budget block b
    flow = blocks * k                                   # first flow row

    a_ub = _csr(
        (k + m, nv),
        # quality_i: q qmax_i z_i - sum_(b,j) w_b u_ij f^b_ij <= 0
        (z, z, scenario.q * qmax), (ii[nz], f[live][:, nz], -w[live, None] * uij[nz]),
        # cap_ij: sum_b f^b_ij - z_i <= 0, i.e. r_ij <= 1
        (cap, f, 1.0), (cap, ii, -1.0))
    a_eq = _csr(
        (flow + k, nv),
        # budget_(b,i): sum_j f^b_ij - N z_i = 0 (per slot: - z_i)
        (budget + ii, f, 1.0), (budget + z, z, -1.0 if positional else -float(n)),
        # flow_j: z_j - sum_(b,i) flow_w_b f^b_ij = p0_j
        (flow + z, z, 1.0), (flow + jj, f[flowing], -flow_w[flowing, None]))

    var_names, eq_names, ub_names = _names(ii, jj, k, n, positional)
    return LpProblem(
        c=np.concatenate([scenario.c, np.zeros(nv - k)]),
        a_eq=a_eq,
        b_eq=np.concatenate([np.zeros(flow), scenario.p0]),
        a_ub=a_ub,
        b_ub=np.zeros(k + m),
        lb=np.zeros(nv),
        ub=np.full(nv, np.inf),
        var_names=var_names,
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
    return [LpProblem(
        c=scenario.c[cols],
        a_eq=sparse.csr_matrix(np.ones((1, k - 1))),
        b_eq=np.array([float(n)]),
        a_ub=sparse.csr_matrix(-scenario.u[i, cols][None, :]),
        b_ub=np.array([-scenario.q * qmax[i]]),
        lb=np.zeros(k - 1),
        ub=np.ones(k - 1),
        var_names=[f"r{i}_{j}" for j in cols],
        eq_names=[f"budget_{i}"],
        ub_names=[f"quality_{i}"],
        name=f"greedy-row-{i}",
    ) for i, cols in enumerate(_off_diagonal(k)[1].reshape(k, k - 1))]


def assemble_greedy_policy(row_solutions: list[np.ndarray], scenario: Scenario) -> Policy:
    """Stack per-row myopic solutions (length K-1 each) into a uniform policy."""
    k = scenario.k
    if len(row_solutions) != k:
        raise ValueError(f"need {k} row solutions, got {len(row_solutions)}")
    body = np.vstack(row_solutions)  # raises on rows of unequal length
    if body.shape != (k, k - 1):
        raise ValueError(f"row solutions need {k - 1} entries each, got {body.shape[1]}")
    r = np.zeros((k, k))
    r[_off_diagonal(k)] = body.ravel()
    return Policy.uniform(r)


def recover_policy(solution, scenario: Scenario, positional: bool = False,
                   problem: LpProblem | None = None) -> RecoveredPolicy:
    """Map an optimal (z, f) LP solution back to a recommendation policy.

    Requires solution.status == "optimal" and every z_j > Z_FLOOR (guaranteed
    by strictly positive p0; a near-zero z means the precondition or the
    solver failed).
    """
    if getattr(solution, "status", "optimal") != "optimal":
        raise ValueError(f"cannot recover a policy from status {solution.status!r}")
    x = np.asarray(solution.x, dtype=float)
    k = scenario.k
    blocks = scenario.n if positional else 1
    ii, jj = _off_diagonal(k)
    nv = k + blocks * ii.size
    if x.shape[0] != nv:
        raise ValueError(f"solution has {x.shape[0]} variables, expected {nv}")
    z = x[:k]
    if np.any(z <= Z_FLOOR):
        j = int(np.argmin(z))
        raise ValueError(
            f"z_{j} = {z[j]:.3e} is not strictly positive; p0 > 0 must have been "
            "violated or the solver failed")
    f = np.zeros((blocks, k, k))
    f[:, ii, jj] = x[k:].reshape(blocks, -1)
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
        cells = [(r, col, val) for r, (_, _, terms) in enumerate(entries) for col, val in terms]
        r_idx, c_idx, vals = zip(*cells) if cells else ((), (), ())
        mat = sparse.coo_matrix((vals, (r_idx, c_idx)), shape=(len(entries), nv)).tocsr()
        return mat, np.array([e[1] for e in entries]), [e[0] for e in entries]

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
