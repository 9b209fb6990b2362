"""Stochastic session simulation and exhaustive search.

The simulator plays the request process exactly as modeled: each renewal
cycle starts with a draw from the catalog popularity, then keeps following
recommendations with probability alpha per step. Cycle lengths are therefore
geometric and independent of the visited path, which lets the simulator draw
all cycle lengths up front and advance every active cycle in lock-step with
vectorized sampling - the produced request sequence is distributed exactly
like the sequential step-by-step walk.

Every draw is an inverse-CDF pick. Cycle starts search the popularity CDF
through a guide table of M >= 4K buckets. A followed request searches its
row of a step table: the running sums of the click kernel's rows, from
one cumsum, at their positive entries, padded to one power-of-two width
W. A step is log2(W) branch-free rounds of flat takes and compares for
all active cycles at once. The tables take O(K W + K) memory. The
sampled paths are bitwise those of a dense scan over each cumulative row
wherever that scan stays on the row's support. It leaves the support for
a draw above a row total that rounding left below 1, where it lands on
content K - 1 and the step table on the row's last positive entry, and
for a draw of exactly 0 in a row whose first entry is 0.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import data, markov
from .model import Policy, Scenario, _whole, max_quality, slate_policy, validate_policy

#: Number of batches used for the batch-means standard error.
N_BATCHES = 100

#: Default ceiling on the number of deterministic policies the exhaustive
#: search will evaluate.
BRUTE_FORCE_CAP = 10 ** 6
#: Candidate policies the exhaustive search scores per batched solve.
BRUTE_FORCE_CHUNK = 50_000


@dataclass(frozen=True)
class SimReport:
    """Empirical averages from one simulated session.

    stderr is the batch-means standard error of the per-request cost (the
    request stream is autocorrelated within renewal cycles, so plain i.i.d.
    errors would be too small): the requests are cut into min(N_BATCHES,
    steps) batches of steps // that many, any rest dropped, so below
    N_BATCHES steps each batch is one request and it is the i.i.d. error.
    It is NaN for one step. cycle_length_stderr is the plain standard error
    over completed cycles.
    """

    steps: int
    empirical_cost_rate: float
    empirical_chr: float | None
    mean_cycle_length: float
    stderr: float
    seed: int
    cycle_length_stderr: float
    n_cycles: int


def _step_table(kernel) -> tuple[np.ndarray, np.ndarray, int]:
    """A click kernel's positive entries padded to one width, for
    fixed-depth inverse-CDF steps.

    kernel is K-row CSR arrays (indptr, indices, data), columns increasing
    in each row, as `markov.click_kernel` returns. Returns (thr, cols,
    width), two flat arrays of K rows of `width` entries (the most positive
    entries any row has, rounded up to a power of two); row i starts at
    i * width. thr holds the row's cumulative sums at every positive entry
    but the last, then +inf; cols holds the row's positive columns, then
    its last positive column again. Counting a row's thresholds below u
    therefore picks the first positive column whose cumulative sum reaches
    u, or the last one when rounding leaves the row total below u.

    The running sums are those of a dense row cumsum, negative entries
    included: each row's stored entries are scattered into a zeroed scratch
    table, as wide as the most any row stores, and summed by one cumsum,
    one entry at a time from the first on. Raises ValueError for a row with
    no positive entry, which has nothing to sample, and, before allocating
    them, when the two tables (16 K width bytes) or the scratch table
    exceed the machine's memory.
    """
    indptr, cols, vals = kernel
    k = indptr.size - 1
    positive = vals > 0.0
    seen = np.zeros(vals.size + 1, dtype=np.intp)  # positive entries before each
    np.cumsum(positive, out=seen[1:])
    counts = seen[indptr[1:]] - seen[indptr[:-1]]
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"click kernel row {empty[0]} has no positive entry "
                         f"({empty.size} such rows)")
    width = 1 << int(counts.max() - 1).bit_length()
    data.check_fits((2, k, width), "the sampler's step table")
    stored = np.diff(indptr)
    data.check_fits((k, int(stored.max())), "the sampler's running sums")
    at = np.arange(stored.max()) < stored[:, None]  # where the entries go, row by row
    cum = np.zeros(at.shape)
    cum[at] = vals
    np.cumsum(cum, axis=1, out=cum)
    at[at] = positive
    cum = cum[at]  # the sums at the positive entries; frees the scratch table
    at = np.arange(width) < counts[:, None]
    thr = np.full(at.shape, np.inf)
    thr[at] = cum
    thr[np.arange(k), counts - 1] = np.inf
    cols = cols[positive]
    table = np.repeat(cols[seen[indptr[1:]] - 1], width).reshape(k, width)
    table[at] = cols
    return thr.ravel(), table.ravel(), width


def _step(table: tuple[np.ndarray, np.ndarray, int], current: np.ndarray,
          u: np.ndarray) -> np.ndarray:
    """Inverse-CDF step from each content current[j] with uniform u[j].

    log2(width) branch-free rounds of a binary search over each row of the
    step table: a round with stride s moves to the upper half when the
    threshold s - 1 entries on is below u. Thresholds increase along a row,
    so the search ends on the count of the row's thresholds below u.
    """
    thr, cols, width = table
    pos = current * width
    s = width >> 1
    while s:
        pos += (thr[s - 1:].take(pos) < u) * s
        s >>= 1
    return cols.take(pos)


def _guide_search(cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """`np.searchsorted(cum, r, side="right")` by a guide table (Chen & Asau 1974).

    cum is nondecreasing and r lies in [0, 1). With M >= 4K buckets, M a power
    of two, r * M and b / M are exact, so guide[floor(r * M)] counts the cum
    entries <= b / M <= r: a lower bound on the answer. An upward scan over
    the draws still undecided, past +inf appended to cum, then gives
    searchsorted's index.
    """
    k = cum.size
    m = 1 << (4 * k - 1).bit_length()
    guide = np.searchsorted(cum, np.arange(m) / m, side="right")
    idx = guide.take((r * m).astype(np.intp))
    cum = np.append(cum, np.inf)
    todo = np.flatnonzero(cum.take(idx) <= r)
    while todo.size:
        idx[todo] += 1
        todo = todo.take(np.flatnonzero(cum.take(idx.take(todo)) <= r.take(todo)))
    return idx


def _sample_path(policy: Policy, scenario: Scenario, steps: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, bool]:
    """Draw one session of `steps` requests.

    Returns (path, cycle_lengths, truncated): the visited contents in request
    order, the length of each renewal cycle (the last one possibly cut short
    at `steps`), and whether that cut happened.
    """
    k, alpha = scenario.k, scenario.alpha

    # Draw renewal-cycle lengths until they cover the requested step count.
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

    path = np.empty(steps, dtype=np.int64)
    starts = np.minimum(_guide_search(np.cumsum(scenario.p0), rng.random(n_cycles)), k - 1)
    path[offsets] = starts

    # Advance every active cycle by one followed request per step, drawing
    # one uniform per active cycle in cycle order. An active cycle carries its
    # next path position and its end, where the next cycle starts.
    table = _step_table(markov.click_kernel(policy, scenario))
    live = np.flatnonzero(lengths > 1)
    pos = offsets.take(live) + 1
    end = pos + lengths.take(live) - 1
    current = starts.take(live)
    while pos.size:
        current = _step(table, current, rng.random(pos.size))
        path[pos] = current
        pos += 1
        live = np.flatnonzero(pos < end)
        if live.size < pos.size:
            pos, end, current = pos.take(live), end.take(live), current.take(live)
    return path, lengths, truncated


def simulate(policy: Policy, scenario: Scenario, steps: int, seed: int) -> SimReport:
    """Simulate `steps` requests and report empirical cost rate and cycle stats.

    The cost rate's standard error is the batch-means error over
    min(N_BATCHES, steps) equal batches (see `SimReport`).

    Raises ValueError, before drawing anything, when eight 8-byte values a
    step exceed the machine's memory: the sampling arrays peak at 57 bytes a
    step (alpha = 0, where every cycle has one request) and fewer for larger
    alpha. steps and seed are whole numbers: a fraction or a bool raises
    ValueError too."""
    steps, seed = _whole(steps, "steps"), _whole(seed, "seed")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    data.check_fits((8, steps), f"steps = {steps} is too large: its sampling arrays")
    bad = validate_policy(policy, scenario, tol=markov.EVAL_TOL)
    if bad:
        raise ValueError("invalid policy: " + "; ".join(bad[:5]))
    path, lengths, truncated = _sample_path(policy, scenario, steps,
                                            np.random.default_rng(seed))
    costs = scenario.c[path]
    rate = float(costs.mean())
    hit_rate = 1.0 - rate if scenario.binary_costs else None

    n_batches = min(N_BATCHES, steps)
    size = steps // n_batches
    batches = costs[: n_batches * size].reshape(n_batches, size).mean(axis=1)
    stderr = float(batches.std(ddof=1) / math.sqrt(n_batches)) if n_batches > 1 else float("nan")

    completed = lengths[:-1] if truncated else lengths
    if completed.size:
        mean_len = float(completed.mean())
        len_se = (float(completed.std(ddof=1) / math.sqrt(completed.size))
                  if completed.size > 1 else float("nan"))
    else:
        mean_len = float(lengths[-1])
        len_se = float("nan")

    return SimReport(
        steps=steps,
        empirical_cost_rate=rate,
        empirical_chr=hit_rate,
        mean_cycle_length=mean_len,
        stderr=stderr,
        seed=seed,
        cycle_length_stderr=len_se,
        n_cycles=int(completed.size),
    )


# ---------------------------------------------------------------------------
# Exhaustive search over deterministic policies (oracle for the LP).

def brute_force_optimum(scenario: Scenario, cap: int = BRUTE_FORCE_CAP) -> tuple[float, Policy]:
    """Best deterministic slate assignment by exhaustive enumeration.

    Enumerates every policy whose rows are N-subsets meeting the quality
    floor, scores each through the same session-chain formula the analytic
    evaluator uses, and returns the smallest cost with its policy. Intended
    as an independent check for the LP pipeline at toy sizes. The count of
    candidate policies is multiplied up row by row, and ValueError is raised
    at the first row where it passes `cap`, before later rows are enumerated.
    """
    if not scenario.uniform_clicks:
        raise ValueError("exhaustive search covers the uniform-click model only")
    k, n, alpha = scenario.k, scenario.n, scenario.alpha
    qmax = max_quality(scenario.u, n)
    rows, total = [], 1
    for i in range(k):
        floor = scenario.q * qmax[i] - 1e-9
        cands = [c for c in itertools.combinations([j for j in range(k) if j != i], n)
                 if scenario.u[i, list(c)].sum() >= floor]
        if not cands:
            raise ValueError(f"row {i} has no feasible slate: quality floor unattainable")
        total *= len(cands)
        if total > cap:
            raise ValueError(f"{total} candidate policies of rows 0..{i} exceed the cap of {cap}")
        rows.append(cands)

    eye = np.eye(k)
    best_cost = np.inf
    best_combo: tuple[tuple[int, ...], ...] | None = None
    it = itertools.product(*rows)
    while True:
        block = list(itertools.islice(it, BRUTE_FORCE_CHUNK))
        if not block:
            break
        bsz = len(block)
        r = np.zeros((bsz, k, k))
        rows_idx = np.repeat(np.arange(k)[None, :], bsz, axis=0)
        slates = np.array(block)                      # (bsz, k, n)
        b_idx = np.arange(bsz)[:, None, None]
        r[b_idx, rows_idx[:, :, None], slates] = 1.0
        rhs = np.broadcast_to(scenario.c[:, None], (bsz, k, 1))
        y = np.linalg.solve(eye[None] - (alpha / n) * r, rhs)[..., 0]
        costs = (1.0 - alpha) * (y @ scenario.p0)
        local = int(np.argmin(costs))
        if costs[local] < best_cost:
            best_cost = float(costs[local])
            best_combo = block[local]

    slates = np.array(best_combo)
    policy = slate_policy(slates, slates, np.ones(k))
    report = markov.evaluate(policy, scenario)  # authoritative evaluation
    return report.ltec, policy
