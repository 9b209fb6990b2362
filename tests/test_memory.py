"""Memory of the graph builds and the policy paths at K = 1000: no (N, K, K)
stack and no copy of a (K, K) array beyond the one each step needs."""
from __future__ import annotations

import tracemalloc

import pytest

from cacherec import (evaluate, gen_poisson_graph, load_edgelist, max_quality,
                      scenario_from_config, simulate, solve_positional)

K = 1000
#: One (K, K) float array; the similarity matrix, the LU of `evaluate` and the
#: score buffer that `top_slates` selects from each need one.
DENSE = K * K * 8


@pytest.fixture(scope="module")
def p3():
    cfg = {"graph": {"kind": "poisson", "k": K, "mean_degree": 8}, "alpha": 0.8, "n": 3,
           "v": [0.6, 0.3, 0.1], "q": 0.9, "zipf_s": 0.7, "cache_size": K // 50, "seed": 1}
    scenario, _ = scenario_from_config(cfg)
    return scenario, solve_positional(scenario).policy


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_max_quality_builds_no_slot_stack(p3):
    scenario, _ = p3
    peak = peak_bytes(lambda: max_quality(scenario.u, 3, scenario.v))
    assert peak < 1.5 * DENSE, f"max_quality peaked at {peak / 1e6:.1f} MB"


def test_evaluate_factors_without_a_copy(p3):
    scenario, policy = p3
    peak = peak_bytes(lambda: evaluate(policy, scenario))
    assert peak < 1.5 * DENSE, f"evaluate peaked at {peak / 1e6:.1f} MB"


def test_simulate_reads_only_the_entries(p3):
    scenario, policy = p3
    assert policy.data.size <= 2 * 3 * K
    peak = peak_bytes(lambda: simulate(policy, scenario, steps=10_000, seed=0))
    assert peak < 1e6, f"simulate peaked at {peak / 1e6:.2f} MB"


def test_poisson_graph_builds_one_dense_matrix():
    peak = peak_bytes(lambda: gen_poisson_graph(K, 8, 1))
    assert peak < 1.5 * DENSE, f"gen_poisson_graph peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("threshold", [-1.0, 0.25])
def test_edgelist_builds_one_dense_matrix(tmp_path, threshold):
    f = tmp_path / "edges.txt"
    f.write_text("".join(f"{i} {(i + d) % K} 0.{d}\n" for d in (1, 2, 3, 4) for i in range(K)))
    load_edgelist(f, threshold)  # the first call imports scipy's graph routines
    peak = peak_bytes(lambda: load_edgelist(f, threshold))
    assert peak < 1.5 * DENSE, f"load_edgelist peaked at {peak / 1e6:.1f} MB"
