"""Domain types: problem scenarios, recommendation policies, quality accounting.

A `Scenario` bundles everything the optimizers and evaluators need: the
content similarity matrix, per-content access costs, catalog popularity,
the probability that a request follows the recommender, the number of
recommendation slots, the per-position click distribution, and the required
quality level. A `Policy` is either a single row-budget matrix (the user
clicks uniformly over the slots) or one row-stochastic matrix per slot
(the user clicks position n with probability v_n).

A policy is held as one CSR matrix of plain numpy arrays, in canonical form
(columns increasing within a row, no entry stored twice or as zero), with
the slot matrices stacked slot-major. Validation, quality and the slot sums
of the click kernel visit only the stored entries; the dense (K, K) matrix
or (N, K, K) stack is built only on request, for the LP oracle and tests.
"""
from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass

import numpy as np

#: Default feasibility tolerance for policy validation. LP solver tolerance
#: propagates into recovered policies, so checks cannot be exact.
FEAS_TOL = 1e-7


def _as_vector(x, k: int | None, name: str) -> np.ndarray:
    arr = np.array(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if k is not None and arr.shape[0] != k:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {k}")
    _require_finite(arr, name)
    return arr


def _whole(val, name: str) -> int:
    """A count as a nonnegative int; a fraction, a negative, a bool or a
    non-number raises ValueError naming the count."""
    if isinstance(val, (float, np.floating)) and val.is_integer():
        val = int(val)
    if isinstance(val, (int, np.integer)) and not isinstance(val, bool) and val >= 0:
        return int(val)
    raise ValueError(f"{name} must be a whole number >= 0, got {reprlib.repr(val)}")


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance, holding read-only copies of its arrays.

    Attributes:
        u: (K, K) pairwise similarity scores in [0, 1]; diagonal forced to 0.
        c: (K,) nonnegative access costs. Binary {0, 1} with 1 = cache miss
           for hit-rate scenarios.
        p0: (K,) catalog popularity; strictly positive, sums to 1.
        alpha: probability a request follows the recommender, in [0, 1).
        n: number of recommendation slots, a whole number with 1 <= n <= K-1.
        v: (n,) position click probabilities, sums to 1. Defaults to uniform.
        q: required fraction of the per-content maximum quality, in [0, 1].
    """

    u: np.ndarray
    c: np.ndarray
    p0: np.ndarray
    alpha: float
    n: int
    v: np.ndarray | None = None
    q: float = 1.0

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"u must be square, got shape {u.shape}")
        k = u.shape[0]
        _require_finite(u, "u")
        np.fill_diagonal(u, 0.0)
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise ValueError("similarity scores must lie in [0, 1]")

        c = _as_vector(self.c, k, "c")
        if np.any(c < 0.0):
            raise ValueError("access costs must be nonnegative")

        p0 = _as_vector(self.p0, k, "p0")
        if abs(p0.sum() - 1.0) > 1e-9:
            raise ValueError(f"p0 must sum to 1, got {p0.sum()!r}")
        if np.any(p0 <= 0.0):
            raise ValueError("p0 must be strictly positive for every content")

        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")

        n = _whole(self.n, "n")
        if not 1 <= n <= k - 1:
            raise ValueError(f"n must satisfy 1 <= n <= K-1, got n={n}, K={k}")

        v = self.v
        if v is None:
            v = np.full(n, 1.0 / n)
        else:
            v = _as_vector(v, n, "v")
            if np.any(v < 0.0) or abs(v.sum() - 1.0) > 1e-9:
                raise ValueError("v must be a probability vector over the slots")

        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")

        for arr in (u, c, p0, v):
            arr.flags.writeable = False  # its own copies, validated once
        for name, val in (("u", u), ("c", c), ("p0", p0), ("v", v), ("n", n)):
            object.__setattr__(self, name, val)

    @property
    def k(self) -> int:
        """Catalog size."""
        return self.u.shape[0]

    @functools.cached_property
    def uniform_clicks(self) -> bool:
        """Every slot is clicked with probability 1/N, to within 1e-12."""
        return bool(np.all(np.abs(self.v - 1.0 / self.n) <= 1e-12))

    @functools.cached_property
    def binary_costs(self) -> bool:
        """Every access cost is 0 or 1 (1 = cache miss)."""
        return bool(np.all((self.c == 0.0) | (self.c == 1.0)))

    def replace(self, **changes) -> "Scenario":
        """Return a copy with the given fields replaced (re-validated)."""
        kwargs = dict(u=self.u, c=self.c, p0=self.p0, alpha=self.alpha,
                      n=self.n, v=self.v, q=self.q)
        if "n" in changes and "v" not in changes:
            kwargs["v"] = None  # slot count changed: fall back to uniform clicks
        kwargs.update(changes)
        return Scenario(**kwargs)


def _canonical(key: np.ndarray, val: np.ndarray, rows: int, k: int):
    """Canonical CSR arrays (indptr, indices, data) of `rows` rows of width k
    from values at distinct flat keys row * k + column, in any order: zero
    values are dropped and the keys sorted."""
    keep = val != 0.0
    key, val = key[keep], val[keep]
    order = key.argsort()
    key = key[order]
    return key.searchsorted(np.arange(0, (rows + 1) * k, k)), key % k, val[order]


@dataclass(frozen=True, eq=False, init=False)
class Policy:
    """Recommendation policy, held as one CSR matrix of plain numpy arrays.

    kind "uniform": K rows; entry (i, j) is the probability that j appears
    somewhere in the slate shown after i, and each row sums to the slot
    count N.

    kind "positional": N*K rows in slot-major order; entry (n*K + i, j) is
    the probability that slot n shows j after i, and each row sums to 1.

    Row r's entries are data[indptr[r]:indptr[r+1]] at the columns
    indices[indptr[r]:indptr[r+1]]. The form is canonical: columns increase
    within each row, and no entry is stored twice or stored as zero. A policy
    that mixes two slates per content has at most 2N entries per content.

    Every constructor goes through one canonicalizer, which takes distinct
    flat keys row * K + column in any order, drops zero values and sorts.
    `Policy(kind, dense)` converts a dense (K, K) matrix or (N, K, K) stack;
    `Policy.from_entries` takes keys and values as they come. `.mats` builds
    the dense view on demand, for the LP oracle, the demos and the tests.
    """

    kind: str
    k: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __init__(self, kind: str, mats):
        mats = np.asarray(mats, dtype=float)
        if kind == "uniform":
            if mats.ndim != 2 or mats.shape[0] != mats.shape[1]:
                raise ValueError(f"uniform policy needs a square matrix, got {mats.shape}")
        elif kind == "positional":
            if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
                raise ValueError(f"positional policy needs an (N, K, K) stack, got {mats.shape}")
        else:
            raise ValueError(f"unknown policy kind {kind!r}")
        flat = mats.ravel()
        key = np.flatnonzero(flat)
        self._set(kind, mats.shape[-1], math.prod(mats.shape[:-1]), key, flat[key])

    def _set(self, kind: str, k: int, rows: int, key, val) -> None:
        if kind not in ("uniform", "positional"):
            raise ValueError(f"unknown policy kind {kind!r}")
        if rows < 0 or rows % max(k, 1) or (kind == "uniform" and rows != k):
            raise ValueError(f"{kind} policy on K={k} cannot have {rows} rows")
        indptr, indices, data = _canonical(key, val, rows, k)
        if indptr[0] != 0 or indptr[-1] != data.size:
            raise ValueError(f"entry keys must lie in 0..{rows * k - 1}")
        for arr in (indptr, indices, data):
            arr.flags.writeable = False  # `rows` is cached from indptr
        # A frozen dataclass: fields are set once, through __dict__.
        self.__dict__.update(kind=kind, k=int(k), indptr=indptr, indices=indices, data=data)

    @classmethod
    def from_entries(cls, kind: str, k: int, rows: int, key, val) -> "Policy":
        """Policy of `rows` rows from entry values `val` at distinct flat keys
        `key` = row * K + column, in any order; zero values are not stored."""
        policy = cls.__new__(cls)
        policy._set(kind, k, rows, np.asarray(key, dtype=np.intp), np.asarray(val, dtype=float))
        return policy

    @property
    def is_positional(self) -> bool:
        return self.kind == "positional"

    @property
    def n_slots(self) -> int | None:
        """Slot count for positional policies (None for uniform)."""
        return (self.indptr.size - 1) // self.k if self.is_positional else None

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """Row of every stored entry: n*K + i for slot n of a positional
        policy, i for a uniform one."""
        return np.repeat(np.arange(self.indptr.size - 1), self.indptr[1:] - self.indptr[:-1])

    @property
    def mats(self) -> np.ndarray:
        """Dense view: the (K, K) matrix, or the (N, K, K) slot stack."""
        out = np.zeros((self.indptr.size - 1, self.k))
        out[self.rows, self.indices] = self.data
        return out.reshape(-1, self.k, self.k) if self.is_positional else out


def slot_sum(policy: Policy, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sum_n weights[n] * R^n over the slot matrices of a positional policy,
    as K-row CSR arrays (indptr, indices, data) with columns increasing in
    each row.

    Each entry's terms are added in slot order, starting from zero, which is
    the order of a sum over the dense (N, K, K) stack, so the two agree
    bitwise: the policy stores its entries slot-major, and bincount adds the
    weights of a group to 0.0 in array order (so a lone -0.0 sums to 0.0).
    """
    k = policy.k
    slot, i = np.divmod(policy.rows, k)
    terms = np.asarray(weights, dtype=float)[slot] * policy.data
    key, group = np.unique(i * k + policy.indices, return_inverse=True)
    return key.searchsorted(np.arange(0, (k + 1) * k, k)), key % k, np.bincount(group, terms)


@dataclass(frozen=True)
class QualityProfile:
    """Per-content maximum achievable quality and quality achieved by a policy;
    `achieved` may pass `q_max` by the tolerance `validate_policy` grants."""

    q_max: np.ndarray
    achieved: np.ndarray

    def __post_init__(self):
        if self.q_max.shape != self.achieved.shape:
            raise ValueError("q_max and achieved must have the same shape")

    def ratio(self) -> np.ndarray:
        """achieved / q_max, treating rows with q_max == 0 as fully satisfied."""
        out = np.ones_like(self.q_max)
        pos = self.q_max > 0
        out[pos] = self.achieved[pos] / self.q_max[pos]
        return out


def validate_policy(policy: Policy, scenario: Scenario, tol: float = FEAS_TOL) -> list[str]:
    """Check every policy invariant; return a list of human-readable violations.

    An empty list means the policy is feasible within `tol`. Dimension
    mismatches raise instead of being reported, since no entry-level
    diagnosis is possible. Only the stored entries are visited; an entry not
    stored is zero and breaks no bound.
    """
    k, n = scenario.k, scenario.n
    if policy.k != k:
        raise ValueError(f"policy is {policy.k}x{policy.k}, scenario has K={k}")
    if policy.is_positional and policy.n_slots != n:
        raise ValueError(f"policy has {policy.n_slots} slot matrices, scenario has N={n}")
    out: list[str] = []
    rows, j, val = policy.rows, policy.indices, policy.data

    def entry(at) -> str:
        """'entry (i, j)', with its slot ahead for a positional policy."""
        slot, i = divmod(int(rows[at]), k)
        where = f"entry ({i}, {int(j[at])})"
        return f"slot {slot} {where}" if policy.is_positional else where

    # NaN fails every comparison below. A non-finite entry also leaves its row
    # sum non-finite, so only then are the entries searched.
    sums = np.bincount(rows, weights=val, minlength=policy.indptr.size - 1)
    if not np.isfinite(sums).all():
        for at in (~np.isfinite(val)).nonzero()[0][:20]:
            out.append(f"{entry(at)} not finite: {val[at]}")
    diagonal = (rows % k if policy.is_positional else rows) == j
    for at in (diagonal & (np.abs(val) > tol)).nonzero()[0]:
        out.append(f"{entry(at)} on the diagonal is nonzero: {np.abs(val[at]):.3g}")
    for at in (val < -tol).nonzero()[0][:20]:
        out.append(f"{entry(at)} negative: {val[at]:.3g}")
    for at in (val > 1.0 + tol).nonzero()[0][:20]:
        out.append(f"{entry(at)} above 1: {val[at]:.3g}")

    if not policy.is_positional:
        for row in (np.abs(sums - n) > tol).nonzero()[0]:
            out.append(f"row {int(row)} sums to {sums[row]:.9g}, expected {n} "
                       f"(off by {abs(sums[row] - n):.3g})")
    else:
        sums = sums.reshape(n, k)
        for sn, row in np.argwhere(np.abs(sums - 1.0) > tol):
            out.append(f"slot {int(sn)} row {int(row)} sums to {sums[sn, row]:.9g}, "
                       f"expected 1 (off by {abs(sums[sn, row] - 1.0):.3g})")
        indptr, cols, cross = slot_sum(policy, np.ones(n))
        for at in (cross > 1.0 + tol).nonzero()[0]:
            i = int(indptr.searchsorted(at, side="right")) - 1
            out.append(f"entry ({i}, {int(cols[at])}) appears in slots with "
                       f"total frequency {cross[at]:.9g} > 1")
    return out


def _select(values: np.ndarray, u: np.ndarray, mu: np.ndarray, rows: np.ndarray,
            n: int) -> np.ndarray:
    """(rows.size, n) indices of the N smallest scores V - mu_i u_i in each
    row i of `rows`, smallest first; equal scores go to the lowest index, and
    row i never picks item i. The scores are built in one K-wide buffer per
    row, and N passes of `argmin` each overwrite their pick with inf."""
    score = u[rows]
    score *= -mu[:, None]
    score += values
    at = np.arange(rows.size)
    score[at, rows] = np.inf
    pick = np.empty((rows.size, n), dtype=np.intp)
    for t in range(n):
        pick[:, t] = score.argmin(axis=1)
        score[at, pick[:, t]] = np.inf
    return pick


def top_slates(u: np.ndarray, n: int) -> np.ndarray:
    """(K, N) indices of each content's N most similar other items, most
    similar first; equal scores go to the lowest index. This is `_select`
    at V = 0 and mu = 1 over every row."""
    u = np.asarray(u, dtype=float)
    k = u.shape[0]
    if n >= k:
        raise ValueError(f"need n < K, got n={n}, K={k}")
    return _select(np.zeros(k), u, np.ones(k), np.arange(k), n)


def slot_order(v: np.ndarray) -> np.ndarray:
    """Slots from most to least clicked, ties by lowest slot.

    By the rearrangement inequality, the best placement of a slate puts its
    t-th most similar (or t-th cheapest) item in slot slot_order(v)[t].
    """
    v = np.asarray(v, dtype=float)
    return np.argsort(-v, kind="stable")


def slate_policy(lo: np.ndarray, hi: np.ndarray, theta: np.ndarray,
                 v: np.ndarray | None = None) -> Policy:
    """Policy that shows slate lo[i] with probability theta_i after content i,
    and slate hi[i] otherwise.

    lo and hi are (K, N) item indices. Without `v` the slates are unordered
    and the policy is uniform; with `v`, column t of each slate goes to slot
    slot_order(v)[t] and the policy is positional. Row i of a uniform policy
    holds lo[i] and hi[i]; row n*K + i of a positional one holds the lo and
    hi items of slot n. An item both show (in the same slot, for a
    positional policy) keeps its lo entry, 1.0, and drops its hi entry, 0.0,
    so no entry repeats.
    """
    k, n = lo.shape
    if v is not None and np.shape(v) != (n,):
        raise ValueError(f"v must have length n={n}, got shape {np.shape(v)}")
    row = np.arange(k)[:, None]
    if v is None:
        same = lo[:, :, None] == hi[:, None, :]
        shared_lo, shared_hi = same.any(axis=2), same.any(axis=1)
        kind, rows = "uniform", k
    else:
        shared_lo = shared_hi = lo == hi
        row = slot_order(v) * k + row  # slot of slate column t, after content i
        kind, rows = "positional", n * k
    theta = theta[:, None]
    on_lo, on_hi = np.where(shared_lo, 1.0, theta), np.where(shared_hi, 0.0, 1.0 - theta)
    key = np.concatenate([row * k + lo, row * k + hi], axis=1)
    return Policy.from_entries(kind, k, rows, key, np.concatenate([on_lo, on_hi], axis=1))


def baseline_policy(u: np.ndarray, n: int, v: np.ndarray | None = None) -> Policy:
    """Similarity-only policy: always recommend the N most similar items.

    With `v` given, returns the positional variant that places the t-th most
    similar item in the t-th most clicked slot, which attains the positional
    maximum quality exactly. Ties are broken by lowest content index.
    """
    top = top_slates(u, n)
    return slate_policy(top, top, np.ones(top.shape[0]), v)


def _slate_quality(policy: Policy, u: np.ndarray, v: np.ndarray | None) -> np.ndarray:
    """Per-content quality: each row's sum of r_ij u_ij, taken over its
    entries in column order; for a positional policy the per-slot sums are
    weighted by v."""
    rows, k = policy.rows, policy.k
    i = rows % k if policy.is_positional else rows
    per_row = np.bincount(rows, weights=policy.data * u[i, policy.indices],
                          minlength=policy.indptr.size - 1)
    if not policy.is_positional:
        return per_row
    return np.asarray(v, dtype=float) @ per_row.reshape(-1, k)


def max_quality(u: np.ndarray, n: int, v: np.ndarray | None = None) -> np.ndarray:
    """Per-content maximum slate quality, the quality floor's reference q_max.

    Without `v` (uniform clicks) this is the sum of the N largest
    off-diagonal scores. With position click probabilities `v` it is the
    click-weighted quality of the best placement, which puts the t-th most
    similar item in the t-th most clicked slot. Either way it is
    `quality_of` the baseline policy, bit for bit.
    """
    u = np.asarray(u, dtype=float)
    return _slate_quality(baseline_policy(u, n, v), u, v)


def quality_of(policy: Policy, scenario: Scenario) -> np.ndarray:
    """Expected per-content slate quality under a policy."""
    if policy.k != scenario.k:
        raise ValueError("policy/scenario dimension mismatch")
    if policy.is_positional and policy.n_slots != scenario.n:
        raise ValueError("policy slot count does not match scenario")
    return _slate_quality(policy, scenario.u, scenario.v)


def quality_profile(policy: Policy, scenario: Scenario) -> QualityProfile:
    """Maximum vs achieved quality for every content under a policy."""
    v = scenario.v if policy.is_positional else None
    return QualityProfile(q_max=max_quality(scenario.u, scenario.n, v),
                          achieved=quality_of(policy, scenario))


def entropy(v) -> float:
    """Normalized entropy of a position click distribution.

    Uses the base-N logarithm so the uniform vector scores exactly 1 and a
    deterministic click scores 0. A single slot has entropy 0 by convention.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a nonempty vector")
    if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
        raise ValueError(f"v must be a probability vector, got sum {v.sum()!r}")
    n = v.size
    if n == 1:
        return 0.0
    pos = v[v > 0]
    return float(0.0 - (pos * (np.log(pos) / np.log(n))).sum())  # +0.0, not -0.0
