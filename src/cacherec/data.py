"""Scenario construction: graph ingestion, synthetic graphs, popularity, caching.

The edge-list reader and the random-graph generator both produce a symmetric
zero-diagonal similarity matrix together with simple graph statistics
("arcs" counts directed neighbor links, i.e. twice the undirected edge
count). Popularity follows a Zipf law over catalog ranks and the cache holds
the most popular contents.

A scenario can also be assembled from a single YAML/JSON config document;
see `scenario_from_config` for the recognized keys.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .model import Scenario


@dataclass(frozen=True)
class GraphStats:
    """Node/arc counts of a similarity graph. mean_neighbors == arcs / nodes."""

    nodes: int
    arcs: int
    mean_neighbors: float
    std_neighbors: float


def _stats_of(u: np.ndarray) -> GraphStats:
    deg = (u > 0).sum(axis=1)
    nodes = u.shape[0]
    arcs = int(deg.sum())
    return GraphStats(
        nodes=nodes,
        arcs=arcs,
        mean_neighbors=arcs / nodes,
        std_neighbors=float(deg.std()),
    )


def _largest_component(u: np.ndarray) -> np.ndarray:
    n_comp, labels = connected_components(csr_matrix(u > 0), directed=False)
    if n_comp <= 1:
        return u
    sizes = np.bincount(labels)
    keep = np.flatnonzero(labels == int(np.argmax(sizes)))
    return u[np.ix_(keep, keep)]


def load_edgelist(path, saturation_threshold: float,
                  component_before_saturation: bool = False) -> tuple[np.ndarray, GraphStats]:
    """Read a "i j [w]" edge list into a similarity matrix.

    Weights above `saturation_threshold` saturate to 1, the rest drop to 0;
    a negative threshold keeps the raw weights. The matrix is symmetrized by
    the elementwise max and reduced to its largest connected component
    (by default after saturation). '#' starts a comment, blank lines are
    skipped, node ids are remapped to 0..K-1 in sorted order. A malformed
    line or a negative or non-finite weight raises ValueError naming the
    path and line.
    """
    text = Path(path).read_text()
    edges: list[tuple[int, int, float]] = []
    ids: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path} line {lineno}: expected 'i j [w]', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
            if not 0.0 <= w < np.inf:
                raise ValueError(f"weight {parts[2]!r} is not a finite nonnegative number")
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
        ids.update((i, j))
        edges.append((i, j, w))
    if not ids:
        raise ValueError(f"{path}: no nodes found")

    remap = {node: pos for pos, node in enumerate(sorted(ids))}
    k = len(remap)
    u = np.zeros((k, k))
    for i, j, w in edges:
        a, b = remap[i], remap[j]
        if a == b:
            continue
        u[a, b] = max(u[a, b], w)
    u = np.maximum(u, u.T)

    def saturate(mat: np.ndarray) -> np.ndarray:
        if saturation_threshold < 0:
            return mat
        return (mat > saturation_threshold).astype(float)

    if component_before_saturation:
        u = saturate(_largest_component(u))
    else:
        u = _largest_component(saturate(u))
    np.fill_diagonal(u, 0.0)
    if u.shape[0] < 2:
        raise ValueError(f"{path}: largest component has fewer than 2 nodes")
    return u, _stats_of(u)


def gen_poisson_graph(k: int, mean_degree: float, seed: int) -> tuple[np.ndarray, GraphStats]:
    """Random graph with independent edges and the given expected degree."""
    if k < 2:
        raise ValueError("need at least 2 nodes")
    if not 0.0 < mean_degree < k - 1:
        raise ValueError(f"mean_degree must be in (0, {k - 1}), got {mean_degree}")
    p = mean_degree / (k - 1)
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(k, 1)
    mask = rng.random(iu[0].shape[0]) < p
    u = np.zeros((k, k))
    u[iu[0][mask], iu[1][mask]] = 1.0
    u = np.maximum(u, u.T)
    return u, _stats_of(u)


def zipf_popularity(k: int, s: float, ranks=None) -> np.ndarray:
    """Zipf popularity with exponent s over ranks 1..K (identity rank order
    by default; pass a permutation of 0..K-1 to reorder)."""
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    if ranks is None:
        rank = np.arange(1, k + 1, dtype=float)
    else:
        ranks = np.asarray(ranks)
        if sorted(ranks.tolist()) != list(range(k)):
            raise ValueError("ranks must be a permutation of 0..K-1")
        rank = ranks.astype(float) + 1.0
    weights = rank ** (-s)
    return weights / weights.sum()


def place_cache(p0: np.ndarray, cache_size: int) -> np.ndarray:
    """Binary miss-cost vector: 0 for the `cache_size` most popular contents
    (ties broken by lowest index), 1 elsewhere."""
    p0 = np.asarray(p0, dtype=float)
    k = p0.shape[0]
    if not 0 <= cache_size <= k:
        raise ValueError(f"cache size must be in [0, {k}], got {cache_size}")
    c = np.ones(k)
    cached = np.argsort(-p0, kind="stable")[:cache_size]
    c[cached] = 0.0
    return c


# ---------------------------------------------------------------------------
# Config documents and scenario files.

def load_config(path) -> dict:
    """Read a YAML (or JSON) scenario config into a dict."""
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a key/value document")
    return cfg


def _number(val, key: str) -> float:
    """A config scalar as float; anything but a real number raises naming the key."""
    if isinstance(val, (int, float, np.integer, np.floating)) and not isinstance(val, bool):
        try:
            return float(val)
        except OverflowError:
            pass
    raise ValueError(f"config key {key!r} must be a number, got {reprlib.repr(val)}")


def _count(val, key: str) -> int:
    """A config count as a nonnegative int; a fraction raises naming the key."""
    if isinstance(val, (float, np.floating)) and val.is_integer():
        val = int(val)
    if isinstance(val, (int, np.integer)) and not isinstance(val, bool) and val >= 0:
        return int(val)
    raise ValueError(f"config key {key!r} must be a whole number >= 0, got {reprlib.repr(val)}")


def _floats(val, key: str) -> np.ndarray:
    """A config list (or nested list) of numbers as a float array."""
    try:
        return np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r} must be a list of numbers, "
                         f"got {reprlib.repr(val)}") from None


def scenario_from_config(cfg: dict, base_dir=".") -> tuple[Scenario, GraphStats | None]:
    """Build a Scenario from a config dict.

    Recognized keys:
        graph:  {kind: poisson, k, mean_degree}              (synthetic)
                {kind: edgelist, path, saturation, component_first}
                {kind: matrix, u: [[...]]}                   (inline, tests)
        alpha, n, q: scalars
        v:      "uniform" or a list of N click probabilities
        p0:     explicit popularity list  |  zipf_s: exponent
        c:      explicit cost list        |  cache_size: count
        seed:   base RNG seed (graph generation; also returned to callers)

    A missing or mistyped value, or a non-integral count, raises ValueError
    naming its key.
    """
    cfg = dict(cfg)
    seed = _count(cfg.get("seed", 0), "seed")
    graph = cfg.get("graph")
    if graph is None:
        raise ValueError("config needs a 'graph' section")
    if not isinstance(graph, dict):
        raise ValueError(f"config key 'graph' must be a mapping, got {reprlib.repr(graph)}")
    kind = graph.get("kind", "poisson")
    needs = {"poisson": "k", "edgelist": "path", "matrix": "u"}
    if not isinstance(kind, str) or kind not in needs:
        raise ValueError(f"unknown graph kind {kind!r}")
    if needs[kind] not in graph:
        raise ValueError(f"config key 'graph.{needs[kind]}' is required for a {kind} graph")
    stats: GraphStats | None = None
    if kind == "poisson":
        k = _count(graph["k"], "graph.k")
        u, stats = gen_poisson_graph(
            k, _number(graph.get("mean_degree", 8.0), "graph.mean_degree"), seed)
    elif kind == "edgelist":
        if not isinstance(graph["path"], str):
            raise ValueError(f"config key 'graph.path' must be a file path, got {graph['path']!r}")
        u, stats = load_edgelist(
            Path(base_dir) / graph["path"],
            _number(graph.get("saturation", -1.0), "graph.saturation"),
            component_before_saturation=bool(graph.get("component_first", False)),
        )
        k = u.shape[0]
    else:
        u = _floats(graph["u"], "graph.u")
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"config key 'graph.u' must be a square matrix, got shape {u.shape}")
        k = u.shape[0]

    if "p0" in cfg:
        p0 = _floats(cfg["p0"], "p0")
        if p0.shape != (k,):
            raise ValueError(f"config key 'p0' must list {k} numbers, got shape {p0.shape}")
    else:
        p0 = zipf_popularity(k, _number(cfg.get("zipf_s", 0.7), "zipf_s"))

    if "c" in cfg:
        c = _floats(cfg["c"], "c")
    else:
        c = place_cache(p0, _count(cfg.get("cache_size", max(1, k // 50)), "cache_size"))

    v_cfg = cfg.get("v", "uniform")
    v = None if (v_cfg is None or v_cfg == "uniform") else _floats(v_cfg, "v")

    scenario = Scenario(
        u=u, c=c, p0=p0,
        alpha=_number(cfg.get("alpha", 0.8), "alpha"),
        n=_count(cfg.get("n", 2), "n"), v=v,
        q=_number(cfg.get("q", 0.9), "q"),
    )
    return scenario, stats


def save_scenario_npz(path, scenario: Scenario) -> None:
    """Persist a scenario to a single .npz file."""
    np.savez_compressed(
        path, u=scenario.u, c=scenario.c, p0=scenario.p0, v=scenario.v,
        alpha=scenario.alpha, n=scenario.n, q=scenario.q)


def load_scenario_npz(path) -> Scenario:
    with np.load(path) as z:
        return Scenario(
            u=z["u"], c=z["c"], p0=z["p0"], v=z["v"],
            alpha=float(z["alpha"]), n=int(z["n"]), q=float(z["q"]))
