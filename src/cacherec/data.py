"""Scenario construction: graph ingestion, synthetic graphs, popularity, caching.

The edge-list reader and the random-graph generator both build a graph as
edge arrays, which `_dense` makes a symmetric zero-diagonal similarity
matrix; they return it with simple graph statistics ("arcs" counts directed
neighbor links, i.e. twice the undirected edge count). Popularity follows a
Zipf law over catalog ranks and the cache holds the most popular contents.

A scenario can also be assembled from a single YAML/JSON config document;
see `scenario_from_config` for the recognized keys.
"""
from __future__ import annotations

import math
import os
import reprlib
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .model import Scenario, _real, _whole


@dataclass(frozen=True)
class GraphStats:
    """Node/arc counts of a similarity graph. mean_neighbors == arcs / nodes."""

    nodes: int
    arcs: int
    mean_neighbors: float
    std_neighbors: float


def _dense(k: int, a: np.ndarray, b: np.ndarray, w: np.ndarray, what: str) -> np.ndarray:
    """The symmetric (k, k) matrix of each pair's largest edge weight w, 0 off
    the edges (a, b); ValueError starting with `what` if it cannot fit."""
    check_fits((k, k), what)
    u = np.zeros((k, k))
    np.maximum.at(u, (a, b), w)
    np.maximum.at(u, (b, a), w)
    return u


def _stats_of(u: np.ndarray) -> GraphStats:
    deg, nodes = (u > 0).sum(axis=1), u.shape[0]
    arcs = int(deg.sum())
    return GraphStats(nodes=nodes, arcs=arcs, mean_neighbors=arcs / nodes,
                      std_neighbors=float(deg.std()))


def _largest_component(k: int, a: np.ndarray, b: np.ndarray,
                       w: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The size of the largest connected component of the positive-weight
    undirected edges (a, b, w) of a k-node graph (the one holding the lowest
    node among equals), and its edges with its nodes renumbered in order."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    pos = w > 0
    a, b, w = a[pos], b[pos], w[pos]
    _, labels = connected_components(csr_matrix((w, (a, b)), shape=(k, k)), directed=False)
    keep = labels == int(np.argmax(np.bincount(labels)))
    renumber = np.cumsum(keep) - 1
    inside = keep[a]  # an edge's two ends share a component
    return int(keep.sum()), renumber[a[inside]], renumber[b[inside]], w[inside]


def load_edgelist(path, saturation_threshold: float,
                  component_before_saturation: bool = False) -> tuple[np.ndarray, GraphStats]:
    """Read a "i j [w]" edge list into a similarity matrix.

    Weights above `saturation_threshold` saturate to 1, the rest drop to 0;
    a negative threshold keeps the raw weights. Each pair takes its largest
    weight in either order, self-loops are dropped, and the graph is reduced
    to the largest connected component of its positive-weight edges (by
    default after saturation), all on the edge arrays. '#' starts a comment,
    blank lines are skipped, node ids are remapped to 0..K-1 in sorted
    order. A non-finite threshold raises ValueError naming it; a malformed
    line, a negative or non-finite weight or a component too large for
    memory raises ValueError naming the path.
    """
    if not math.isfinite(saturation_threshold):  # NaN would keep the raw weights
        raise ValueError(f"saturation threshold must be finite, got {saturation_threshold}")
    text = Path(path).read_text()
    edges: list[tuple[int, int, float]] = []
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
        edges.append((i, j, w))
    if not edges:
        raise ValueError(f"{path}: no nodes found")

    src, dst, weights = zip(*edges)
    remap = {node: pos for pos, node in enumerate(sorted({*src, *dst}))}
    k = len(remap)
    a, b = (np.array([remap[node] for node in ends], dtype=np.intp) for ends in (src, dst))
    pair = a != b
    a, b, w = a[pair], b[pair], np.array(weights)[pair]

    if component_before_saturation:
        k, a, b, w = _largest_component(k, a, b, w)
    if saturation_threshold >= 0:
        w = (w > saturation_threshold).astype(float)
    if not component_before_saturation:
        k, a, b, w = _largest_component(k, a, b, w)
    if k < 2:
        raise ValueError(f"{path}: largest component has fewer than 2 nodes")
    u = _dense(k, a, b, w, f"{path}: its similarity matrix")
    return u, _stats_of(u)


def gen_poisson_graph(k: int, mean_degree: float, seed: int) -> tuple[np.ndarray, GraphStats]:
    """Random graph with independent edges and the given expected degree: one
    uniform draw per node pair i < j, in row-major order, decides its edge."""
    if k < 2:
        raise ValueError("need at least 2 nodes")
    if not 0.0 < mean_degree < k - 1:
        raise ValueError(f"mean_degree must be in (0, {k - 1}), got {mean_degree}")
    check_fits((k, k), "similarity matrix")
    p = mean_degree / (k - 1)
    rng = np.random.default_rng(seed)
    hits = np.flatnonzero(rng.random(k * (k - 1) // 2) < p)
    rows = np.arange(k - 1)
    first = rows * (2 * k - rows - 1) // 2  # pair index of (i, i + 1)
    i = np.searchsorted(first, hits, side="right") - 1
    j = hits - first[i] + i + 1
    u = _dense(k, i, j, np.ones(hits.size), "similarity matrix")
    return u, _stats_of(u)


def zipf_popularity(k: int, s: float) -> np.ndarray:
    """Zipf popularity with exponent s over ranks 1..K, content i at rank i + 1."""
    if not 0 <= s < math.inf:
        raise ValueError(f"Zipf exponent zipf_s must be finite and nonnegative, got {s}")
    weights = np.arange(1, k + 1, dtype=float) ** (-s)
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

def machine_memory() -> int:
    """Physical memory of the machine in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_fits(shape: tuple[int, ...], what: str) -> None:
    """Raise ValueError, starting with `what` and the shape, when a float
    array of `shape` would exceed the machine's memory. Nothing is allocated."""
    need, memory = 8 * math.prod(shape), machine_memory()
    if need > memory:
        raise ValueError(f"{what} {' x '.join(map(str, shape))} cannot be allocated: it "
                         f"takes {need / 2 ** 30:.3g} GiB, the machine has "
                         f"{memory / 2 ** 30:.3g} GiB")


def load_config(path) -> dict:
    """Read a YAML (or JSON) scenario config into a dict. A document that is
    not valid YAML raises ValueError naming the path and, where known, the
    line."""
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = "" if mark is None else f" line {mark.line + 1}"
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ValueError(f"{path}{where}: malformed config: {problem}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a key/value document")
    return cfg


def _number(val, key: str) -> float:
    """A config scalar as a float (`_real`); raises naming the key."""
    return _real(val, f"config key {key!r}")


def _count(val, key: str) -> int:
    """A config count as a nonnegative int (`_whole`); raises naming the key."""
    return _whole(val, f"config key {key!r}")


def _floats(val, key: str) -> np.ndarray:
    """A config list (or nested list) of numbers as a float array. Every
    element follows the rule of a config number (`_real`), so a string or a
    bool raises ValueError naming the key, as a ragged list does."""
    try:
        arr = np.asarray(val, dtype=float)
        if not (isinstance(val, np.ndarray) and val.dtype.kind in "iuf"):
            for x in np.asarray(val, dtype=object).flat:
                _real(x, key)
        return arr
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"config key {key!r} must be a list of numbers, "
                         f"got {reprlib.repr(val)}") from None


def graph_from_config(cfg: dict, base_dir=".") -> tuple[np.ndarray, GraphStats | None]:
    """The (K, K) similarity matrix and graph statistics (None for an inline
    matrix) that the config's `graph` section and `seed` describe; see
    `scenario_from_config` for the keys. A missing or mistyped value raises
    ValueError naming its key."""
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
    if kind == "poisson":
        k = _count(graph["k"], "graph.k")
        check_fits((k, k), f"config key 'graph.k' = {k} is too large: its similarity matrix")
        try:
            return gen_poisson_graph(
                k, _number(graph.get("mean_degree", 8.0), "graph.mean_degree"), seed)
        except MemoryError:
            raise ValueError(f"config key 'graph.k' = {k} is too large: "
                             f"a {k} x {k} graph cannot be allocated") from None
    if kind == "edgelist":
        if not isinstance(graph["path"], str):
            raise ValueError(f"config key 'graph.path' must be a file path, got {graph['path']!r}")
        return load_edgelist(
            Path(base_dir) / graph["path"],
            _number(graph.get("saturation", -1.0), "graph.saturation"),
            component_before_saturation=bool(graph.get("component_first", False)),
        )
    u = _floats(graph["u"], "graph.u")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"config key 'graph.u' must be a square matrix, got shape {u.shape}")
    return u, None


def scenario_keys(cfg: dict) -> dict:
    """The config's non-graph keys, each read by its config rule: alpha, q
    and zipf_s are numbers; n, and cache_size when present, are counts; p0
    and c when present, and v unless it is absent or "uniform", are lists of
    numbers (None otherwise). A missing scalar takes its default. A mistyped
    value raises ValueError naming its key. The checks that need the catalog
    size K are left to `scenario_on_graph`."""
    keys = {key: _number(cfg.get(key, default), key)
            for key, default in (("alpha", 0.8), ("q", 0.9), ("zipf_s", 0.7))}
    keys["n"] = _count(cfg.get("n", 2), "n")
    keys["cache_size"] = _count(cfg["cache_size"], "cache_size") if "cache_size" in cfg else None
    for key in ("p0", "c"):
        keys[key] = _floats(cfg[key], key) if key in cfg else None
    v = cfg.get("v", "uniform")
    keys["v"] = None if v is None or v == "uniform" else _floats(v, "v")
    return keys


def scenario_on_graph(cfg: dict, u: np.ndarray) -> Scenario:
    """The Scenario that the config's non-graph keys, read by `scenario_keys`,
    describe on the similarity matrix `u`, which is not modified: popularity,
    cache, clicks, alpha, n and q. A missing or mistyped value raises
    ValueError naming its key."""
    k, keys = u.shape[0], scenario_keys(cfg)
    p0 = keys["p0"]
    if p0 is None:
        p0 = zipf_popularity(k, keys["zipf_s"])
    elif p0.shape != (k,):
        raise ValueError(f"config key 'p0' must list {k} numbers, got shape {p0.shape}")
    c = keys["c"]
    if c is None:
        cache_size = keys["cache_size"]
        c = place_cache(p0, max(1, k // 50) if cache_size is None else cache_size)
    return Scenario(u=u, c=c, p0=p0, alpha=keys["alpha"], n=keys["n"], v=keys["v"],
                    q=keys["q"])


def scenario_from_config(cfg: dict, base_dir=".") -> tuple[Scenario, GraphStats | None]:
    """Build a Scenario from a config dict: `graph_from_config`, then
    `scenario_on_graph`.

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
    u, stats = graph_from_config(cfg, base_dir)
    return scenario_on_graph(cfg, u), stats


def save_scenario_npz(path, scenario: Scenario) -> None:
    """Persist a scenario to a single .npz file."""
    np.savez_compressed(
        path, u=scenario.u, c=scenario.c, p0=scenario.p0, v=scenario.v,
        alpha=scenario.alpha, n=scenario.n, q=scenario.q)


def load_scenario_npz(path) -> Scenario:
    """Read a scenario written by `save_scenario_npz`. A file that is not an
    .npz archive raises ValueError naming the path; one that lacks a member,
    or holds one that needs pickle, an `alpha` or `q` that is not a real
    number or an `n` that is not a whole number (the rules of config scalars
    and counts, applied to the 0-d member), names the member too."""
    with open(path, "rb") as fh:  # np.load leaves a path open when the zip is bad
        try:
            z = np.load(fh)
        except (EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not a scenario .npz file: {exc}") from None
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: not a scenario .npz file: it holds a single array")
        scalars = {"alpha": _real, "n": _whole, "q": _real}
        members = {}
        for key in ("u", "c", "p0", "v", "alpha", "n", "q"):
            try:
                members[key] = scalars[key](z[key][()], key) if key in scalars else z[key]
            except KeyError:
                raise ValueError(f"{path}: not a scenario .npz file: no member {key!r}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: member {key!r}: {exc}") from None
        return Scenario(**members)
