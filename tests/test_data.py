"""Graph ingestion, synthetic graphs, popularity, cache placement, configs."""
from __future__ import annotations

import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacherec.data import (GraphStats, gen_poisson_graph, load_config,
                           load_edgelist, load_scenario_npz, place_cache,
                           save_scenario_npz, scenario_from_config, zipf_popularity)
from cacherec.model import Scenario


class TestLoadEdgelist:
    def test_saturation_drops_weak_component(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("1 2 0.5\n2 3 0.05\n")
        u, stats = load_edgelist(f, 0.1)
        # the weak edge saturates to 0, node 3 falls out of the main component
        assert u.shape == (2, 2)
        assert u[0, 1] == 1.0 and u[1, 0] == 1.0
        assert stats.nodes == 2 and stats.arcs == 2
        assert stats.mean_neighbors == pytest.approx(1.0)

    def test_negative_threshold_keeps_raw_weights(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1 0.37\n1 2 0.9\n")
        u, _ = load_edgelist(f, -1.0)
        assert u[0, 1] == pytest.approx(0.37)
        assert u[2, 1] == pytest.approx(0.9)

    def test_default_weight_and_comments(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("# a comment\n\n0 1\n1 2 0.8  # trailing\n")
        u, _ = load_edgelist(f, 0.5)
        assert u[0, 1] == 1.0
        assert u[1, 2] == 1.0  # 0.8 > 0.5 saturates to 1

    def test_malformed_line_numbered(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1\nnot an edge line at all\n")
        with pytest.raises(ValueError, match="line 2"):
            load_edgelist(f, -1)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no nodes"):
            load_edgelist(f, -1)

    def test_symmetrized_by_max(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1 0.2\n1 0 0.6\n")
        u, _ = load_edgelist(f, -1)
        assert u[0, 1] == u[1, 0] == pytest.approx(0.6)

    def test_stats_match_published_style_table(self, tmp_path):
        # 757 nodes with 2982 undirected edges -> 5964 arcs, mean 7.87...
        k = 757
        lines = []
        degree_budget = 2982
        for d in (1, 2, 3, 4):
            for i in range(k):
                if len(lines) == degree_budget:
                    break
                lines.append(f"{i} {(i + d) % k}")
        f = tmp_path / "edges.txt"
        f.write_text("\n".join(lines) + "\n")
        _, stats = load_edgelist(f, -1.0)
        assert stats.nodes == 757
        assert stats.arcs == 5964
        assert stats.mean_neighbors == pytest.approx(7.87, abs=0.01)

    def test_component_order_switch(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("1 2 0.5\n2 3 0.05\n")
        # component first: all three nodes connect, then saturation zeroes 2-3
        u, stats = load_edgelist(f, 0.1, component_before_saturation=True)
        assert stats.nodes == 3
        assert u[1, 2] == 0.0

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e999", "-0.5"])
    def test_bad_weight_names_path_and_line(self, tmp_path, weight):
        f = tmp_path / "edges.txt"
        f.write_text(f"0 1\n1 2 {weight}\n")
        with pytest.raises(ValueError, match=r"line 2: weight .* not a finite nonnegative") as err:
            load_edgelist(f, -1)
        assert str(f) in str(err.value)


EDGE_MUTANTS = ["", "x", "#", "-1", "0", "3", "1.5", "0.25", "nan", "inf", "-inf", "1e999",
                "-0.5", "1 2", "\u0661"]


@st.composite
def weighted_paths(draw):
    """A connected symmetric similarity matrix (a weighted path plus chords)."""
    k = draw(st.integers(2, 6))
    weight = st.floats(0.01, 1.0)
    u = np.zeros((k, k))
    for i in range(k - 1):
        u[i, i + 1] = draw(weight)
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              max_size=4)):
        if i != j:
            u[min(i, j), max(i, j)] = draw(weight)
    return np.maximum(u, u.T)


@given(weighted_paths(), st.lists(st.tuples(st.sampled_from(["drop", "dup", "token", "insert"]),
                                            st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                                            st.sampled_from(EDGE_MUTANTS)), max_size=3))
@settings(max_examples=200, deadline=None)
def test_edgelist_round_trips_or_raises_value_error(u, mutations):
    """An edge list of u reads back as u; a mutated one reads back as a valid
    similarity matrix or raises ValueError naming the file."""
    edges = zip(*np.nonzero(np.triu(u)))
    lines = ["# drawn graph"] + [f"{i} {j} {float(u[i, j])!r}" for i, j in edges]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.txt"
        path.write_text("\n".join(lines) + "\n")
        back, stats = load_edgelist(path, -1.0)
        assert np.array_equal(back, u) and stats.arcs == int((u > 0).sum())

        for op, at, pos, token in mutations:
            i = at % len(lines)
            toks = lines[i].split() or [""]
            if op == "drop":
                del lines[i]
            elif op == "dup":
                lines.insert(i, lines[i])
            elif op == "token":
                toks[pos % len(toks)] = token
                lines[i] = " ".join(toks)
            else:
                toks.insert(pos % (len(toks) + 1), token)
                lines[i] = " ".join(toks)
            if not lines:
                break
        path.write_text("\n".join(lines) + "\n")
        try:
            back, stats = load_edgelist(path, -1.0)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
    assert back.shape[0] >= 2 and np.array_equal(back, back.T)
    assert np.all(np.isfinite(back)) and np.all(back >= 0) and not np.diag(back).any()
    assert stats.nodes == back.shape[0] and stats.arcs == int((back > 0).sum())


class TestPoissonGraph:
    def test_deterministic_given_seed(self):
        u1, _ = gen_poisson_graph(50, 6, seed=9)
        u2, _ = gen_poisson_graph(50, 6, seed=9)
        assert np.array_equal(u1, u2)
        u3, _ = gen_poisson_graph(50, 6, seed=10)
        assert not np.array_equal(u1, u3)

    def test_structure(self):
        u, stats = gen_poisson_graph(80, 5, seed=1)
        assert np.array_equal(u, u.T)
        assert np.all(np.diag(u) == 0)
        assert set(np.unique(u)) <= {0.0, 1.0}
        assert stats.mean_neighbors == pytest.approx(stats.arcs / stats.nodes)

    def test_mean_degree_close_to_target(self):
        _, stats = gen_poisson_graph(600, 8, seed=2)
        assert abs(stats.mean_neighbors - 8) / 8 < 0.10

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            gen_poisson_graph(10, 9.5, seed=0)
        with pytest.raises(ValueError):
            gen_poisson_graph(10, 0.0, seed=0)

    def test_tiny_degree_gives_empty_graph(self):
        u, stats = gen_poisson_graph(40, 1e-9, seed=3)
        assert stats.arcs == 0
        assert np.all(u == 0)


class TestZipfPopularity:
    def test_zero_exponent_uniform(self):
        assert np.allclose(zipf_popularity(7, 0.0), 1 / 7)

    def test_two_item_catalog(self):
        assert np.allclose(zipf_popularity(2, 1.0), [2 / 3, 1 / 3])

    def test_sums_to_one_large(self):
        for s in (0.0, 0.4, 0.8, 1.2):
            p = zipf_popularity(10_000, s)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    def test_rank_permutation(self):
        ranks = np.array([2, 0, 1])  # item 1 is the most popular
        p = zipf_popularity(3, 1.0, ranks=ranks)
        assert np.argmax(p) == 1
        assert p.sum() == pytest.approx(1.0)

    def test_monotone_in_index_by_default(self):
        p = zipf_popularity(50, 0.9)
        assert np.all(np.diff(p) < 0)


class TestPlaceCache:
    def test_top_one(self):
        assert list(place_cache(np.array([0.5, 0.3, 0.2]), 1)) == [0, 1, 1]

    def test_everything_cached(self):
        assert np.all(place_cache(np.array([0.5, 0.3, 0.2]), 3) == 0)

    def test_nothing_cached(self):
        assert np.all(place_cache(np.array([0.5, 0.3, 0.2]), 0) == 1)

    def test_tie_break_lowest_index(self):
        c = place_cache(np.array([0.25, 0.25, 0.25, 0.25]), 2)
        assert list(c) == [0, 0, 1, 1]

    @given(st.integers(0, 12), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_exactly_c_zeros(self, cache, k):
        cache = min(cache, k)
        p0 = zipf_popularity(k, 0.8)
        c = place_cache(p0, cache)
        assert int((c == 0).sum()) == cache
        assert set(np.unique(c)) <= {0.0, 1.0}


class TestConfig:
    def test_poisson_config_round_trip(self, tmp_path):
        cfg_file = tmp_path / "scenario.yaml"
        cfg_file.write_text(
            "graph: {kind: poisson, k: 40, mean_degree: 6}\n"
            "alpha: 0.8\nn: 2\nq: 0.9\nzipf_s: 0.7\ncache_size: 3\nseed: 5\n")
        cfg = load_config(cfg_file)
        scenario, stats = scenario_from_config(cfg)
        assert scenario.k == 40
        assert scenario.alpha == 0.8
        assert int((scenario.c == 0).sum()) == 3
        assert isinstance(stats, GraphStats)

    def test_explicit_vectors_override(self):
        cfg = {
            "graph": {"kind": "matrix", "u": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]},
            "p0": [0.5, 0.25, 0.25],
            "c": [0, 1, 1],
            "n": 1, "alpha": 0.5, "q": 0.5,
        }
        scenario, stats = scenario_from_config(cfg)
        assert stats is None
        assert np.allclose(scenario.p0, [0.5, 0.25, 0.25])
        assert list(scenario.c) == [0, 1, 1]

    def test_click_vector(self):
        cfg = {"graph": {"kind": "poisson", "k": 10, "mean_degree": 3},
               "n": 2, "v": [0.8, 0.2], "seed": 1}
        scenario, _ = scenario_from_config(cfg)
        assert np.allclose(scenario.v, [0.8, 0.2])

    def test_edgelist_config(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        cfg = {"graph": {"kind": "edgelist", "path": "edges.txt"},
               "n": 1, "alpha": 0.6, "cache_size": 1}
        scenario, stats = scenario_from_config(cfg, base_dir=tmp_path)
        assert scenario.k == 4
        assert stats.arcs == 10

    def test_missing_graph_section(self):
        with pytest.raises(ValueError, match="graph"):
            scenario_from_config({"alpha": 0.5})

    POISSON = {"graph": {"kind": "poisson", "k": 10, "mean_degree": 3}}

    @pytest.mark.parametrize("changes,key", [
        ({"graph": 5}, "'graph'"),
        ({"alpha": None}, "'alpha'"),
        ({"seed": [1]}, "'seed'"),
        ({"n": [2]}, "'n'"),
        ({"graph": {"kind": "matrix", "u": 3}}, "'graph.u'"),
        ({"cache_size": 2.5}, "'cache_size'"),
        ({"graph": {"kind": "poisson", "mean_degree": 3}}, "'graph.k'"),
        ({"graph": {"kind": "edgelist"}}, "'graph.path'"),
        ({"graph": {"kind": "poisson", "k": 10.5}}, "'graph.k'"),
        ({"seed": -1}, "'seed'"),
        ({"q": "high"}, "'q'"),
        ({"p0": [0.5, 0.5]}, "'p0'"),
        ({"v": {"a": 1}}, "'v'"),
    ], ids=["graph-int", "alpha-null", "seed-list", "n-list", "matrix-scalar",
            "fractional-cache", "poisson-no-k", "edgelist-no-path", "fractional-k",
            "negative-seed", "q-string", "p0-length", "v-mapping"])
    def test_malformed_value_names_key(self, changes, key):
        with pytest.raises(ValueError, match=key):
            scenario_from_config({**self.POISSON, **changes})

    def test_integral_floats_accepted_as_counts(self):
        scenario, _ = scenario_from_config({**self.POISSON, "n": 2.0, "cache_size": 3.0})
        assert scenario.n == 2 and int((scenario.c == 0).sum()) == 3

    def test_npz_round_trip(self, tmp_path):
        cfg = {"graph": {"kind": "poisson", "k": 12, "mean_degree": 4},
               "n": 2, "v": [0.7, 0.3], "alpha": 0.75, "q": 0.85, "seed": 3}
        scenario, _ = scenario_from_config(cfg)
        path = tmp_path / "scen.npz"
        save_scenario_npz(path, scenario)
        back = load_scenario_npz(path)
        assert np.array_equal(back.u, scenario.u)
        assert np.array_equal(back.c, scenario.c)
        assert np.allclose(back.p0, scenario.p0)
        assert back.alpha == scenario.alpha
        assert back.n == scenario.n
        assert np.allclose(back.v, scenario.v)
        assert back.q == scenario.q


CONFIG_BASES = [
    {"graph": {"kind": "poisson", "k": 8, "mean_degree": 3}, "alpha": 0.8, "n": 2, "q": 0.5,
     "zipf_s": 0.7, "cache_size": 2, "seed": 1, "v": "uniform"},
    {"graph": {"kind": "matrix", "u": [[0, 1, 0.5], [1, 0, 1], [0.5, 1, 0]]},
     "p0": [0.5, 0.25, 0.25], "c": [0, 1, 1], "n": 2, "alpha": 0.5, "q": 0.5, "v": [0.7, 0.3]},
]
TOP_KEYS = ["graph", "alpha", "n", "q", "v", "p0", "c", "zipf_s", "cache_size", "seed"]
GRAPH_KEYS = ["kind", "k", "mean_degree", "u"]
#: Any value a YAML document can hold. Numbers stay small, so no draw asks
#: for a large graph.
config_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-3.0, 12.0)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), "uniform", "poisson",
                       "matrix", "edgelist"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10)


@given(st.sampled_from(CONFIG_BASES),
       st.lists(st.tuples(st.booleans(), st.sampled_from(TOP_KEYS + GRAPH_KEYS),
                          config_values), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_mutated_config_builds_or_raises_value_error(base, mutations):
    """Each mutation deletes one top-level or graph key or sets it to a drawn value."""
    cfg = copy.deepcopy(base)
    for delete, key, value in mutations:
        target = cfg["graph"] if key in GRAPH_KEYS and isinstance(cfg.get("graph"), dict) else cfg
        if delete:
            target.pop(key, None)
        else:
            target[key] = value
    try:
        scenario, _ = scenario_from_config(cfg)
    except ValueError:
        return
    assert isinstance(scenario, Scenario)
