"""Domain types: validation, quality accounting, baseline, entropy."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from cacherec import (Policy, Scenario, baseline_policy, entropy, markov, max_quality,
                      quality_of, quality_profile, validate_policy)
from cacherec.model import FEAS_TOL, _canonical, slate_policy, slot_sum, top_slates
from _oracles import dense_validate_policy, entry_loop_csr, shared_item_slate_csr
from conftest import (CORRUPTIONS, assert_canonical, corrupt_policy, random_positional_policy,
                      random_scenario, random_slate_policy, random_uniform_policy)

U5 = np.array([
    [0.0, 1.0, 1.0, 0.2, 0.0],
    [1.0, 0.0, 0.3, 0.0, 0.6],
    [1.0, 0.3, 0.0, 0.5, 0.0],
    [0.2, 0.0, 0.5, 0.0, 0.9],
    [0.0, 0.6, 0.0, 0.9, 0.0],
])


def scenario5(**kw) -> Scenario:
    defaults = dict(u=U5, c=[1, 1, 1, 1, 0], p0=np.full(5, 0.2), alpha=0.8, n=2, q=0.8)
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenario:
    def test_diagonal_forced_zero(self):
        u = U5.copy()
        u[0, 0] = 0.7
        s = scenario5(u=u)
        assert s.u[0, 0] == 0.0

    def test_rejects_bad_popularity(self):
        with pytest.raises(ValueError, match="sum to 1"):
            scenario5(p0=[0.5, 0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="strictly positive"):
            scenario5(p0=[0.5, 0.5, 0.0, 0.0, 0.0])

    def test_rejects_bad_alpha_n_q(self):
        with pytest.raises(ValueError):
            scenario5(alpha=1.0)
        with pytest.raises(ValueError):
            scenario5(n=5)
        with pytest.raises(ValueError):
            scenario5(q=1.5)

    def test_n_follows_the_rule_of_config_counts(self):
        """2.0 is the count 2; a fraction, a negative or a bool is refused, not
        truncated."""
        s = scenario5(n=2.0)
        assert (s.n, type(s.n)) == (2, int)
        for bad in (2.7, -1, True, "2"):
            with pytest.raises(ValueError, match="^n must be a whole number >= 0"):
                scenario5(n=bad)

    @pytest.mark.parametrize("field", ["alpha", "q"])
    def test_alpha_and_q_follow_the_rule_of_config_numbers(self, field):
        """A real number of any type is stored as a float; a bool, a string,
        None or an array is refused naming the field, not compared or stored."""
        s = scenario5(**{field: np.float32(0.5)})
        assert (getattr(s, field), type(getattr(s, field))) == (0.5, float)
        for bad in (np.array([0.5]), np.array(0.5), True, np.bool_(True), "0.5", None):
            with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
                scenario5(**{field: bad})

    def test_uniform_click_default(self):
        s = scenario5()
        assert np.allclose(s.v, 0.5)
        assert s.uniform_clicks

    @pytest.mark.parametrize("field", ["u", "c", "p0", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, bad):
        s = scenario5(v=[0.5, 0.5])
        arr = np.array(getattr(s, field), dtype=float)
        arr.flat[1] = bad
        with pytest.raises(ValueError, match=f"^{field} contains NaN"):
            scenario5(**{field: arr, **({} if field == "v" else {"v": [0.5, 0.5]})})

    def test_uniform_clicks_exact(self):
        assert scenario5(v=[0.5, 0.5]).uniform_clicks
        assert not scenario5(v=[0.5 + 4e-6, 0.5 - 4e-6]).uniform_clicks

    def test_flags_follow_replace(self):
        """The cost and click flags are computed once per scenario; a replaced
        scenario computes its own."""
        s = scenario5(v=[0.7, 0.3])
        assert s.binary_costs and not s.uniform_clicks
        fractional = s.replace(c=[1, 0.5, 1, 1, 0])
        assert not fractional.binary_costs and s.binary_costs
        assert s.replace(n=3).uniform_clicks and not s.uniform_clicks
        assert not s.replace(v=[0.5, 0.5]).replace(v=[0.6, 0.4]).uniform_clicks
        assert fractional.replace(c=[1, 0, 1, 1, 0]).binary_costs

    def test_holds_read_only_copies(self):
        """A validated scenario cannot be changed through its arrays or the
        caller's: a negative cost would otherwise pass with binary_costs
        cached as True."""
        u, c, p0, v = U5.copy(), np.array([1.0, 1, 1, 1, 0]), np.full(5, 0.2), np.array([0.7, 0.3])
        s = Scenario(u=u, c=c, p0=p0, alpha=0.8, n=2, v=v, q=0.8)
        assert s.binary_costs
        for name, mine in (("u", u), ("c", c), ("p0", p0), ("v", v)):
            arr = getattr(s, name)
            assert arr is not mine and not np.shares_memory(arr, mine), name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
            mine[0] = -5.0  # the caller's own arrays stay writeable
        assert s.c[0] == 1.0 and s.binary_costs and s.u[0, 0] == 0.0

    def test_replace_resets_clicks_on_new_n(self):
        s = scenario5(v=[0.7, 0.3])
        s2 = s.replace(n=3)
        assert np.allclose(s2.v, 1 / 3)


class TestValidatePolicy:
    def test_forced_2x2_policy(self):
        s = Scenario(u=[[0, 1], [1, 0]], c=[0, 1], p0=[0.5, 0.5], alpha=0.5, n=1)
        assert validate_policy(Policy("uniform", [[0, 1], [1, 0]]), s) == []

    def test_fractional_row_with_budget_two(self):
        # a row like [0, 1, 0.5, 0.5, 0]: one item always shown, two split evenly
        r = np.zeros((5, 5))
        r[0] = [0, 1, 0.5, 0.5, 0]
        for i in range(1, 5):
            r[i, (i + 1) % 5] = 1.0
            r[i, (i + 2) % 5] = 1.0
        assert validate_policy(Policy("uniform", r), scenario5()) == []

    def test_diagonal_violation_named(self):
        r = np.array([[0.1, 1.0], [1.0, 0.0]])
        s = Scenario(u=[[0, 1], [1, 0]], c=[0, 1], p0=[0.5, 0.5], alpha=0.5, n=1)
        msgs = validate_policy(Policy("uniform", r), s)
        assert any("diagonal" in m and "0" in m for m in msgs)
        assert any("row 0" in m for m in msgs)  # budget broken too

    def test_dimension_mismatch_raises(self):
        s = scenario5()
        with pytest.raises(ValueError, match="K=5"):
            validate_policy(Policy("uniform", np.zeros((3, 3))), s)

    def test_positional_cross_slot_cap(self):
        mats = np.zeros((2, 3, 3))
        mats[0, 0, 1] = 1.0
        mats[1, 0, 1] = 1.0  # same item in both slots: total frequency 2
        mats[0, 1, 0] = mats[1, 1, 2] = 1.0
        mats[0, 2, 0] = mats[1, 2, 1] = 1.0
        s = Scenario(u=np.ones((3, 3)) - np.eye(3), c=[0, 1, 1],
                     p0=np.full(3, 1 / 3), alpha=0.5, n=2)
        msgs = validate_policy(Policy("positional", mats), s)
        assert any("slots with total frequency" in m for m in msgs)

    def test_messages_name_plain_indices(self):
        """Every kind of violation prints plain integers, never a numpy
        scalar repr such as np.int64(0), and names the slot when positional."""
        s = Scenario(u=np.ones((3, 3)) - np.eye(3), c=[0, 1, 1],
                     p0=np.full(3, 1 / 3), alpha=0.5, n=2)
        r = np.array([[0.5, 1.0, 0.0], [1.0, 0.0, -0.5], [1.0, 1.5, np.nan]])
        uniform = validate_policy(Policy("uniform", r), s)
        mats = np.stack([r / 2, r / 2])
        mats[1, 0, 1] = 2.0
        positional = validate_policy(Policy("positional", mats), s)
        for msgs in (uniform, positional):
            assert not [m for m in msgs if "np." in m]
        kinds = {"entry (2, 2) not finite: nan", "entry (0, 0) on the diagonal is nonzero: 0.5",
                 "entry (1, 2) negative: -0.5", "entry (2, 1) above 1: 1.5", "row 0 sums to 1.5",
                 "row 1 sums to 0.5"}
        assert all(any(m.startswith(kind) for m in uniform) for kind in kinds), uniform
        kinds = {"slot 1 entry (2, 2) not finite", "slot 0 entry (0, 0) on the diagonal",
                 "slot 1 entry (1, 2) negative", "slot 1 entry (0, 1) above 1",
                 "slot 1 row 0 sums to", "entry (0, 1) appears in slots"}
        assert all(any(m.startswith(kind) for m in positional) for kind in kinds), positional


class TestTopSlates:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_matches_stable_argsort_on_ties(self, n):
        rng = np.random.default_rng(41)
        k = 30
        u = rng.integers(0, 3, (k, k)) / 2.0  # three values: ties in every row
        u[:3] = 0.0
        np.fill_diagonal(u, 1.0)
        masked = u.copy()
        np.fill_diagonal(masked, -1.0)
        want = np.argsort(-masked, axis=1, kind="stable")[:, :n]
        assert np.array_equal(top_slates(u, n), want)


class TestMaxQuality:
    def test_two_strong_neighbors(self):
        # top-2 of [0, 1, 1, 0.2, 0] is 2.0
        assert max_quality(U5, 2)[0] == pytest.approx(2.0)

    def test_all_zero_similarity(self):
        assert np.all(max_quality(np.zeros((4, 4)), 2) == 0.0)

    def test_sorted_sum_by_hand(self):
        u = np.zeros((4, 4))
        u[0] = [0, 0.5, 0.3, 0.2]
        assert max_quality(u, 2)[0] == pytest.approx(0.8)

    def test_n_too_large(self):
        with pytest.raises(ValueError):
            max_quality(U5, 5)

    def test_monotone_in_n(self, rng):
        for _ in range(10):
            s = random_scenario(rng, k=8)
            vals = [max_quality(s.u, n) for n in range(1, 8)]
            for lo, hi in zip(vals, vals[1:]):
                assert np.all(hi >= lo - 1e-12)


class TestMaxQualityPositional:
    def test_sorted_pairing(self):
        got = max_quality(U5, 2, np.array([0.8, 0.2]))
        assert got[0] == pytest.approx(0.8 * 1.0 + 0.2 * 1.0)

    def test_uniform_clicks_scale(self, rng):
        s = random_scenario(rng, k=9, n=3)
        got = max_quality(s.u, 3, np.full(3, 1 / 3))
        assert np.allclose(got, max_quality(s.u, 3) / 3)

    def test_single_strong_item_pairs_largest_click(self):
        u = np.zeros((4, 4))
        u[0] = [0, 1, 0, 0]
        got = max_quality(u, 2, np.array([0.7, 0.3]))
        assert got[0] == pytest.approx(0.7)

    def test_click_order_irrelevant(self):
        a = max_quality(U5, 2, np.array([0.8, 0.2]))
        b = max_quality(U5, 2, np.array([0.2, 0.8]))
        assert np.allclose(a, b)


class TestBaselinePolicy:
    def test_top_two_row(self):
        r = baseline_policy(U5, 2).mats
        assert list(r[0]) == [0, 1, 1, 0, 0]

    def test_tie_break_lowest_index(self):
        u = np.ones((4, 4)) - np.eye(4)
        r = baseline_policy(u, 1).mats
        assert r[0, 1] == 1.0 and r[2, 0] == 1.0

    def test_top_two_selection(self):
        u = np.zeros((4, 4))
        u[0] = [0, 0.2, 0.9, 0.5]
        assert list(baseline_policy(u, 2).mats[0]) == [0, 0, 1, 1]

    def test_always_valid_and_exact(self, rng):
        for _ in range(10):
            s = random_scenario(rng)
            base = baseline_policy(s.u, s.n)
            assert validate_policy(base, s, tol=0.0) == []
            assert np.array_equal(quality_of(base, s), max_quality(s.u, s.n))

    def test_positional_baseline_exact(self, rng):
        for _ in range(10):
            s = random_scenario(rng, v="skewed")
            base = baseline_policy(s.u, s.n, s.v)
            assert validate_policy(base, s, tol=0.0) == []
            want = max_quality(s.u, s.n, s.v)
            assert np.allclose(quality_of(base, s), want, atol=1e-12)

    @pytest.mark.parametrize("v", [None, [1 / 3] * 3, [0.2, 0.5, 0.3], [0.4, 0.2, 0.4]])
    def test_tie_heavy_rows_match_per_row_reference(self, v):
        rng = np.random.default_rng(31)
        k, n = 36, 3
        u = (rng.random((k, k)) < 0.4).astype(float)
        u[:4] = 0.0  # rows where every candidate ties at zero
        np.fill_diagonal(u, 1.0)  # self must never be picked, whatever its score
        s = Scenario(u=u, c=np.ones(k), p0=np.full(k, 1 / k), alpha=0.5, n=n, v=v)
        slots = sorted(range(n), key=lambda t: -s.v[t])  # stable: ties keep slot order
        want = np.zeros((n, k, k))
        for i in range(k):
            row = u[i].copy()
            row[i] = -1.0
            items = np.argsort(-row, kind="stable")[:n]
            for rank, slot in enumerate(slots):
                want[slot, i, items[rank]] = 1.0
        if v is None:
            got = baseline_policy(u, n)
            assert np.array_equal(got.mats, want.sum(axis=0))
            assert np.array_equal(max_quality(u, n), (want.sum(axis=0) * s.u).sum(axis=1))
        else:
            got = baseline_policy(u, n, s.v)
            assert np.array_equal(got.mats, want)
            want_q = np.einsum("n,nij,ij->i", s.v, want, s.u)
            assert np.allclose(max_quality(u, n, s.v), want_q, rtol=0.0, atol=1e-15)
        assert np.array_equal(quality_of(got, s), max_quality(s.u, n, None if v is None else s.v))


class TestQualityOf:
    def test_fractional_row_quality(self):
        r = np.zeros((5, 5))
        r[0] = [0, 0.8, 0.8, 0, 0.4]
        for i in range(1, 5):
            r[i, (i + 1) % 5] = r[i, (i + 2) % 5] = 1.0
        got = quality_of(Policy("uniform", r), scenario5())
        assert got[0] == pytest.approx(1.6)  # 0.8 of the max 2.0

    def test_zero_row_scores_zero(self):
        r = np.zeros((5, 5))
        got = quality_of(Policy("uniform", r), scenario5())
        assert np.all(got == 0.0)

    def test_profile_invariant(self, rng):
        for _ in range(10):
            s = random_scenario(rng)
            prof = quality_profile(random_uniform_policy(rng, s), s)
            assert np.all(prof.achieved <= prof.q_max + 1e-7)
            assert np.all(prof.ratio() <= 1.0 + 1e-9)

    def test_positional_profile(self, rng):
        s = random_scenario(rng, v="skewed")
        prof = quality_profile(random_positional_policy(rng, s), s)
        assert np.all(prof.achieved <= prof.q_max + 1e-7)


@given(st.integers(0, 2 ** 32 - 1), st.integers(9, 200), st.integers(1, 4), st.booleans())
@settings(max_examples=100, deadline=None)
def test_max_quality_against_dense_row_sums(seed, k, n, positional):
    """max_quality adds a row's entries in column order. numpy's pairwise
    sum over the dense row, which it replaced, adds the same terms in
    another order once a row holds three or more: uniform clicks with N >= 3
    can then differ in the last bits, while N <= 2 and every positional
    floor (one entry per slot row) stay bitwise equal."""
    rng = np.random.default_rng(seed)
    u = rng.random((k, k))
    np.fill_diagonal(u, 0.0)
    v = np.sort(rng.dirichlet(np.ones(n)))[::-1] if positional else None
    got = max_quality(u, n, v)
    policy = baseline_policy(u, n, v)
    if positional:
        assert np.array_equal(got, v @ (policy.mats * u).sum(axis=2))
        return
    cols = np.sort(top_slates(u, n), axis=1)
    in_column_order = np.zeros(k)
    for t in range(n):
        in_column_order += u[np.arange(k), cols[:, t]]
    assert np.array_equal(got, in_column_order)
    dense = (policy.mats * u).sum(axis=1)
    if n <= 2:
        assert np.array_equal(got, dense)
    else:
        assert np.all(np.abs(got - dense) <= n * np.spacing(dense))


class TestEntropy:
    def test_uniform_is_one(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert entropy(np.full(7, 1 / 7)) == pytest.approx(1.0)

    def test_deterministic_is_zero(self):
        for v in ([1.0, 0.0], [0.0, 1.0, 0.0]):
            assert entropy(v) == 0.0
            assert math.copysign(1.0, entropy(v)) == 1.0  # +0.0, not -0.0

    def test_skewed_pair(self):
        assert entropy([0.8, 0.2]) == pytest.approx(0.72193, abs=1e-5)

    def test_single_slot(self):
        assert entropy([1.0]) == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.4])

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant_and_bounded(self, weights):
        v = np.array(weights) / np.sum(weights)
        h = entropy(v)
        assert 0.0 <= h <= 1.0 + 1e-12
        perm = np.random.default_rng(0).permutation(v)
        assert entropy(perm) == pytest.approx(h, abs=1e-12)
        if not np.allclose(v, 1 / v.size):
            assert h < 1.0


class TestSparsePolicy:
    def test_dense_constructor_drops_zeros_and_sorts(self):
        p = Policy("uniform", [[0.0, 0.5, 0.5], [1.0, 0.0, -0.0], [0.25, 0.75, 0.0]])
        assert p.indptr.tolist() == [0, 2, 3, 5]
        assert p.indices.tolist() == [1, 2, 0, 0, 1]
        assert p.data.tolist() == [0.5, 0.5, 1.0, 0.25, 0.75]

    def test_positional_rows_are_slot_major(self):
        mats = np.zeros((2, 3, 3))
        mats[1, 0, 2] = mats[0, 2, 1] = 1.0
        p = Policy("positional", mats)
        assert p.n_slots == 2 and p.k == 3
        assert p.rows.tolist() == [2, 3]  # slot 0 row 2, then slot 1 row 0
        assert np.array_equal(p.mats, mats)

    def test_arrays_are_read_only(self):
        p = baseline_policy(U5, 2)
        with pytest.raises(ValueError):
            p.data[0] = 0.5

    @pytest.mark.parametrize("kind,rows", [("uniform", 4), ("positional", 7), ("other", 3)])
    def test_inconsistent_csr_rejected(self, kind, rows):
        with pytest.raises(ValueError):
            Policy.from_entries(kind, 3, rows, np.zeros(0, dtype=np.intp), np.zeros(0))

    @pytest.mark.parametrize("key", [-1, 9])
    def test_entry_key_outside_the_rows_rejected(self, key):
        with pytest.raises(ValueError, match=r"keys must lie in 0\.\.8"):
            Policy.from_entries("uniform", 3, 3, [0, key], [0.5, 0.5])

    @pytest.mark.parametrize("val", [[0.5], [0.5, 0.5, 0.5]])
    def test_keys_and_values_of_other_lengths_rejected(self, val):
        with pytest.raises(ValueError, match=rf"2 entry keys for {len(val)} values"):
            Policy.from_entries("uniform", 3, 3, [1, 5], val)

    def test_repeated_key_stores_its_sum(self):
        """Key 1 given twice is stored once, as 0.5 + 0.5: the dense view,
        the row sums that validation takes and the session solve agree."""
        p = Policy.from_entries("uniform", 3, 3, [1, 1, 5, 6], [0.5, 0.5, 1.0, 1.0])
        assert (p.indptr.tolist(), p.indices.tolist(), p.data.tolist()) == (
            [0, 1, 2, 3], [1, 2, 0], [1.0, 1.0, 1.0])
        dense = Policy("uniform", p.mats)
        assert dense.mats.sum(axis=1).tolist() == [1.0, 1.0, 1.0]
        s = Scenario(u=np.ones((3, 3)), c=[0, 1, 1], p0=[0.4, 0.3, 0.3], alpha=0.8, n=1, q=0.0)
        assert validate_policy(p, s) == []
        got, want = markov.solve(p, s), markov.solve(dense, s)
        assert got.cost_to_go.tobytes() == want.cost_to_go.tobytes()
        assert (got.ltec, got.residual) == (want.ltec, want.residual)


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_entries_and_slot_sum_match_dense_stack(seed, k, n):
    """On random (N, K, K) stacks with sparse and dense rows and negative
    entries: the nonzero entries given in shuffled order, with zeros at some
    other keys, build the same arrays as the dense constructor, which match
    scipy's CSR of the stack; and slot_sum under click weights with a zero
    slot is bitwise a slot-order loop over the dense stack."""
    rng = np.random.default_rng(seed)
    density = rng.choice([0.05, 0.3, 1.0], size=(n, k, 1))
    mats = rng.uniform(-0.5, 1.0, (n, k, k)) * (rng.random((n, k, k)) < density)
    for kind, dense in (("uniform", mats[0]), ("positional", mats)):
        want = Policy(kind, dense)
        flat = dense.ravel()
        stored, zero = np.flatnonzero(flat), np.flatnonzero(flat == 0.0)
        zero = rng.choice(zero, size=zero.size // 2, replace=False)
        key = rng.permutation(np.concatenate([stored, zero]))
        got = Policy.from_entries(kind, k, flat.size // k, key,
                                  np.where(np.isin(key, zero), -0.0, flat[key]))
        oracle = sparse.csr_matrix(dense.reshape(-1, k))
        assert np.array_equal(want.indptr, oracle.indptr)
        assert np.array_equal(want.indices, oracle.indices)
        assert want.data.tobytes() == oracle.data.tobytes()
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    weights = rng.dirichlet(np.ones(n))
    weights[rng.integers(n)] = 0.0
    loop = np.zeros((k, k))
    for t in range(n):
        loop += weights[t] * mats[t]
    indptr, cols, total = slot_sum(Policy("positional", mats), weights)
    rows = np.repeat(np.arange(k), np.diff(indptr))
    assert np.all(np.diff(rows * k + cols) > 0)
    summed = np.zeros((k, k))
    summed[rows, cols] = total
    assert summed.tobytes() == loop.tobytes()


#: Values whose sums depend on the order they are added in, or cancel.
AWKWARD = [0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 5e-324, -5e-324]


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_canonical_matches_entry_loop(seed, rows, k, size):
    """Keys in 0..rows*k-1 in shuffled order, most of them repeated, with
    negative values, exact cancellations and -0.0: the canonical arrays are
    bitwise those of a loop that adds each key's values to 0.0 in the order
    given, drops zero sums and sorts."""
    rng = np.random.default_rng(seed)
    key = rng.integers(0, rows * k, size=size)
    val = np.where(rng.random(size) < 0.5, rng.uniform(-1.0, 1.0, size),
                   rng.choice(AWKWARD, size))
    twin = rng.random(size) < 0.3  # a second entry of opposite sign at the same key
    key, val = np.concatenate([key, key[twin]]), np.concatenate([val, -val[twin]])
    order = rng.permutation(key.size)
    key, val = key[order], val[order]
    got, want = _canonical(key, val, rows, k), entry_loop_csr(key, val, rows, k)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.booleans())
@settings(max_examples=300, deadline=None)
def test_slate_policy_matches_shared_item_oracle(seed, k, positional):
    """Two slates per content that share items, in the same slot or not,
    with theta 0, 1, subnormal or random: the policy's arrays are bitwise
    those of the shared-item construction, in which no key repeats."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, k))
    lo, hi = np.empty((k, n), dtype=np.intp), np.empty((k, n), dtype=np.intp)
    for i in range(k):
        others = np.delete(np.arange(k), i)
        lo[i] = rng.choice(others, size=n, replace=False)
        how = rng.integers(3)
        if how == 0:  # the same items, in other slots
            hi[i] = rng.permutation(lo[i])
        elif how == 1:  # the same slate with some slots changed
            hi[i] = lo[i]
            free = np.setdiff1d(others, lo[i])
            at = rng.choice(n, size=min(int(rng.integers(n + 1)), free.size), replace=False)
            hi[i, at] = rng.choice(free, size=at.size, replace=False)
        else:
            hi[i] = rng.choice(others, size=n, replace=False)
    theta = np.where(rng.random(k) < 0.5, rng.random(k),
                     rng.choice([0.0, 1.0, 5e-324, 1e-310, 1.0 - 2.0 ** -53], size=k))
    v = None
    if positional:
        v = rng.integers(1, 4, size=n).astype(float)  # ties in the slot order too
        v /= v.sum()
    policy = slate_policy(lo, hi, theta, v)
    assert policy.kind == ("positional" if positional else "uniform")
    for name, want in zip(("indptr", "indices", "data"), shared_item_slate_csr(lo, hi, theta, v)):
        got = getattr(policy, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 9), st.booleans(),
       st.sampled_from(["mix", "slates"]),
       st.lists(st.sampled_from(CORRUPTIONS), max_size=3))
@settings(max_examples=300, deadline=None)
def test_validation_on_entries_matches_dense_oracle(seed, k, positional, source, how):
    """On random and corrupted policies, the CSR checks report the dense
    checks' violations in the same order and words, the policy is in
    canonical form, and Policy -> dense view -> Policy is bitwise the same."""
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, k=k, v="skewed" if positional else None)
    if source == "slates":
        policy = random_slate_policy(rng, s, positional)
    else:
        policy = (random_positional_policy if positional else random_uniform_policy)(rng, s)
    policy = corrupt_policy(rng, policy, how)
    assert_canonical(policy)
    for tol in (FEAS_TOL, 1e-6):
        assert validate_policy(policy, s, tol) == dense_validate_policy(policy, s, tol)
    back = Policy(policy.kind, policy.mats)
    for name in ("indptr", "indices", "data"):
        assert getattr(back, name).tobytes() == getattr(policy, name).tobytes()
