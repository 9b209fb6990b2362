"""Command-line harness: build scenarios, solve policies, evaluate, sweep.

Subcommands: gen, ingest, solve, eval, sim, sweep, oracle. Exit codes: 0 ok,
2 infeasible problem, 3 solver failure, 4 I/O, config or usage error.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data, markov, policies, sim
from .model import Policy, Scenario, entropy, quality_profile

SWEEP_SCHEMA = "# cacherec-sweep v1"
POLICY_SCHEMA = "# cacherec-policy v1"

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_SOLVER_METHODS = {"auto": "auto", "builtin": "dense", "highs": "highs", "external": "external"}
_PROBLEM_POLICY = {"greedy": "P1", "uni": "P2", "pref": "P3"}
#: What a sweep can vary: the quality floor q, the slot count N, alpha, the
#: popularity exponent s, the click entropy Hv and the cache size C.
SWEEP_AXES = ("q", "N", "alpha", "s", "Hv", "C")


def gain(chr_x: float, chr_y: float) -> float | None:
    """Relative hit-rate gain of X over Y in percent; None when undefined."""
    if chr_y is None or chr_x is None or chr_y <= 0:
        return None
    return (chr_x - chr_y) / chr_y * 100.0


def mph(p0: np.ndarray, c: np.ndarray) -> float:
    """Hit rate (percent) that caching alone would get from i.i.d. requests:
    the total popularity of the cached contents."""
    p0 = np.asarray(p0, dtype=float)
    c = np.asarray(c, dtype=float)
    if not np.all((c == 0) | (c == 1)):
        raise ValueError("mph needs binary costs (0 = cached)")
    return float(p0[c == 0].sum() * 100.0)


# ---------------------------------------------------------------------------
# Policy files.

def write_policy_csv(path, policy: Policy, meta: dict | None = None) -> None:
    """Write one line per stored entry, in row-major order (slot first)."""
    lines = [POLICY_SCHEMA, f"# variant: {policy.kind}", f"# k: {policy.k}"]
    if policy.is_positional:
        lines.append(f"# slots: {policy.n_slots}")
    for key, val in (meta or {}).items():
        lines.append(f"# {key}: {val}")
    slot, i = np.divmod(policy.rows, policy.k)
    slot, i, j, val = slot.tolist(), i.tolist(), policy.indices.tolist(), policy.data.tolist()
    if policy.is_positional:
        lines.append("n,i,j,r")
        lines += [f"{s + 1},{a},{b},{x:.17g}" for s, a, b, x in zip(slot, i, j, val)]
    else:
        lines.append("i,j,r")
        lines += [f"{a},{b},{x:.17g}" for a, b, x in zip(i, j, val)]
    Path(path).write_text("\n".join(lines) + "\n")


def _declared_shape(meta: dict) -> tuple[int, ...]:
    """The shape of the dense policy that the metadata lines declare.

    Raises ValueError when a positional policy declares k or more slots (a
    slate shows at most k - 1 items), or when the dense view would not fit
    in the machine's memory: no scenario of that size fits either, since its
    similarity matrix is a dense (K, K) array. Nothing is allocated for the
    checks. Together they bound the reader's row pointer, slots * k + 1
    entries, below the size of that similarity matrix.
    """
    variant, k = meta.get("variant"), meta.get("k")
    if variant is None or k is None:
        raise ValueError("missing variant/k metadata before the column header")
    if variant == "uniform":
        shape = (k, k)
    elif variant != "positional":
        raise ValueError(f"unknown variant {variant!r}")
    elif "slots" not in meta:
        raise ValueError("positional policy without slots metadata")
    elif meta["slots"] >= k:
        raise ValueError(f"slots {meta['slots']} must be below k = {k}: a slate "
                         f"shows at most k - 1 items")
    else:
        shape = (meta["slots"], k, k)
    data.check_fits(shape, "declared size")
    return shape


def _policy_entry(shape: tuple[int, ...], parts: list[str]) -> tuple[int, float]:
    """(row * k + j, value) of one "[n,]i,j,r" entry line, where row is
    (n - 1) * k + i for a positional policy; raises ValueError for a
    malformed one."""
    if len(parts) != len(shape) + 1:
        raise ValueError(f"expected {len(shape) + 1} fields, got {len(parts)}")
    *slot, i, j, val = parts
    n = int(slot[0]) if slot else 1
    i, j, val, k = int(i), int(j), float(val), shape[-1]
    if slot and not 1 <= n <= shape[0]:
        raise ValueError(f"slot {n} outside 1..{shape[0]}")
    if not (0 <= i < k and 0 <= j < k):
        raise ValueError(f"content index outside 0..{k - 1}")
    if not math.isfinite(val):
        raise ValueError(f"value {parts[-1]!r} is not finite")
    return ((n - 1) * k + i) * k + j, val


def read_policy_csv(path) -> Policy:
    """Read a policy file written by `write_policy_csv`.

    Raises ValueError, naming the file and line, for a missing header or
    metadata, a declared size too large for memory, a malformed entry, a
    non-finite value, or an index outside 0..k-1 (contents) or 1..slots
    (positions). The variant, k and slots metadata must precede the column
    header line. Entry lines may come in any order; when one repeats, the
    last value wins, and zero values are not stored.
    """
    meta: dict[str, int | str] = {}
    schema_seen, shape, lineno = False, None, 0
    entries: dict[int, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        try:
            if not line:
                continue
            if not schema_seen:
                if line != POLICY_SCHEMA:
                    raise ValueError(f"missing metadata header {POLICY_SCHEMA!r}")
                schema_seen = True
            elif line.startswith("#"):
                key, _, val = line.lstrip("#").partition(":")
                key, val = key.strip(), val.strip()
                if key in ("variant", "k", "slots") and shape is not None:
                    raise ValueError(f"{key} metadata after the column header")
                if key == "variant":
                    meta[key] = val
                elif key in ("k", "slots"):
                    meta[key] = int(val)
                    if meta[key] < 1:
                        raise ValueError(f"{key} must be positive")
            elif shape is None:  # the column header line ends the metadata
                shape = _declared_shape(meta)
                columns = "n,i,j,r" if len(shape) == 3 else "i,j,r"
                if line.replace(" ", "") != columns:
                    raise ValueError(f"expected column header {columns!r}, got {line!r}")
            else:
                at, val = _policy_entry(shape, line.split(","))
                entries[at] = val
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    if shape is None:
        missing = "the column header line" if schema_seen else f"metadata header {POLICY_SCHEMA!r}"
        raise ValueError(f"{path} line {lineno + 1}: end of file, expected {missing}")
    key = np.fromiter(entries.keys(), dtype=np.intp, count=len(entries))
    val = np.fromiter(entries.values(), dtype=float, count=len(entries))
    return Policy.from_entries(meta["variant"], shape[-1], math.prod(shape[:-1]), key, val)


# ---------------------------------------------------------------------------
# Sweeps.

@dataclass
class SweepSpec:
    """One parameter sweep: vary `axis` over `values` for each policy, on
    the graph of the config's `seed`.

    Hv values are position-zipf exponents; each cell's realized click
    entropy is reported as the axis value. N and C values are counts, and
    so is the config's `seed`, so a fraction is refused. The gain reference
    must be one of the policies. Under binary costs the default reference,
    P1, is one of several myopic optima, picked by the lowest-index tie rule
    (see `policies.solve_greedy`), so gains against it depend on that rule.
    A solver method other than "auto" needs a policy that runs a solver (P1,
    P2 or P3).
    """

    config: dict
    axis: str
    values: list
    policies: list[str] = field(default_factory=lambda: ["P1", "P2"])
    reference: str = "P1"
    solve_kw: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ValueError("sweep needs at least one axis value")
        if self.axis in ("N", "C"):  # the config keys n and cache_size are counts
            for value in self.values:
                data._count(value, "n" if self.axis == "N" else "cache_size")
        unknown = set(self.policies) - set(policies.POLICY_NAMES)
        if unknown:
            raise ValueError(f"unknown policies: {sorted(unknown)}")
        if not self.policies:
            raise ValueError("sweep needs at least one policy")
        if self.reference not in self.policies:
            raise ValueError(f"gain reference {self.reference!r} is not among the "
                             f"swept policies {self.policies}")
        method = self.solve_kw.get("method", "auto")
        if method != "auto" and not {"P1", "P2", "P3"} & set(self.policies):
            raise ValueError(f"solver method {method!r} would be ignored: the swept "
                             f"policies {self.policies} run no solver")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        data._count(self.config.get("seed", 0), "seed")


def apply_axis(cfg: dict, axis: str, value) -> dict:
    """Return a shallow config copy with one swept parameter applied; only
    top-level keys change, so nested values are shared with `cfg`."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    out = dict(cfg)
    if axis == "q":
        out["q"] = float(value)
    elif axis == "alpha":
        out["alpha"] = float(value)
    elif axis == "N":
        out["n"] = data._count(value, "n")
        out.pop("v", None)  # slot count changed: keep clicks uniform
    elif axis == "s":
        out["zipf_s"] = float(value)
        out.pop("p0", None)
    elif axis == "C":
        out["cache_size"] = data._count(value, "cache_size")
        out.pop("c", None)
    else:  # Hv
        n = int(out.get("n", 2))
        beta = float(value)
        weights = np.arange(1, n + 1, dtype=float) ** (-beta)
        out["v"] = (weights / weights.sum()).tolist()
    return out


def _status(exc: Exception) -> str:
    """A failed sweep row's status text."""
    if isinstance(exc, policies.InfeasibleProblem):
        return f"infeasible: {exc}"
    return f"error: {type(exc).__name__}: {exc}"


def _sweep_point(payload) -> list[dict]:
    """The rows of one axis value, one per policy in order.

    The axis is applied once, and one scenario is built on the sweep's graph
    and serves every policy. A row takes the status of the first failure
    among the axis, the graph, the scenario and its own solve. Its
    wall_time_s is its solve time.
    """
    cfg, axis, value, names, graph, solve_kw = payload
    rows = [{"axis": axis, "policy": name, "status": "ok", "chr": None, "ltec": None,
             "mph": None, "value": value, "wall_time_s": 0.0} for name in names]

    def fail(status: str) -> list[dict]:
        for row in rows:
            row["status"] = status
        return rows

    try:
        point_cfg = apply_axis(cfg, axis, value)
        if isinstance(graph, str):
            return fail(graph)
        scenario = data.scenario_on_graph(point_cfg, graph)
    except Exception as exc:
        return fail(_status(exc))
    cache_only = mph(scenario.p0, scenario.c) if scenario.binary_costs else None
    reported = entropy(scenario.v) if axis == "Hv" else value
    for row in rows:
        t0 = time.perf_counter()
        try:
            report = policies.solve_named(row["policy"], scenario, **solve_kw).report
            row.update(ltec=report.ltec, chr=report.chr, mph=cache_only, value=reported)
        except Exception as exc:  # record and keep sweeping
            row["status"] = _status(exc)
        row["wall_time_s"] = time.perf_counter() - t0
    return rows


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Execute every (axis value, policy) cell; row order is deterministic.

    The graph of the config's `seed` is built once for the whole sweep (no
    axis changes it); if that fails, its error is every row's status. Each
    axis value is one `_sweep_point` task, run in order or on the worker pool.
    """
    try:
        graph = data.graph_from_config(spec.config)[0]
    except Exception as exc:
        graph = _status(exc)
    points = [(spec.config, spec.axis, value, spec.policies, graph, spec.solve_kw)
              for value in spec.values]
    workers = min(spec.workers, len(points))  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_sweep_point, points))
    else:
        groups = list(map(_sweep_point, points))

    # attach gains against the reference policy at the same axis point
    for group in groups:
        ref = next((r for r in group if r["policy"] == spec.reference), None)
        for row in group:
            row["gain_pct"] = gain(row["chr"], ref["chr"]) if ref and ref["status"] == "ok" \
                else None
    return [row for group in groups for row in group]


def _fmt(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _one_line(status: str) -> str:
    """A row's status with its line breaks written as spaces, so that it
    stays on the row's one line in the CSV and on stdout."""
    return status.replace("\r", " ").replace("\n", " ")


def write_sweep_csv(path, spec: SweepSpec, rows: list[dict]) -> None:
    lines = [SWEEP_SCHEMA,
             f"# gain reference: {spec.reference}",
             "axis,value,policy,status,chr,ltec,gain_pct,mph_pct,wall_time_s"]
    for row in rows:
        lines.append(",".join([
            row["axis"], _fmt(row["value"]), row["policy"],
            _one_line(row["status"]).replace(",", ";"),
            _fmt(row["chr"]), _fmt(row["ltec"]), _fmt(row["gain_pct"]),
            _fmt(row["mph"]), _fmt(row["wall_time_s"]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands.

_OVERRIDES = ("alpha", "q", "n", "zipf_s", "cache_size", "seed")


def _config(args, sampler_seed: bool = False) -> dict:
    """The --config document with the override flags given applied. A flag
    that the document would ignore raises ValueError naming it, except
    --seed when it is the sampler's seed."""
    cfg = data.load_config(args.config)
    graph, ignored = cfg.get("graph"), {}
    if "p0" in cfg:
        ignored["zipf_s"] = "lists p0"
    if "c" in cfg:
        ignored["cache_size"] = "lists c"
    if isinstance(graph, dict) and graph.get("kind", "poisson") != "poisson" and not sampler_seed:
        ignored["seed"] = f"has a {graph['kind']} graph, which takes no seed"
    for key in _OVERRIDES:
        if getattr(args, key, None) is not None:
            if key in ignored:
                raise ValueError(f"--{key.replace('_', '-')} would be ignored: "
                                 f"{args.config} {ignored[key]}")
            cfg[key] = getattr(args, key)
    return cfg


def _load_scenario(args, sampler_seed: bool = False) -> Scenario:
    """The --config scenario with the overrides applied, or the saved
    --scenario. A saved scenario takes no override: one given raises
    ValueError naming its flag, except --seed when it is the sampler's seed."""
    if args.config:
        return data.scenario_from_config(_config(args, sampler_seed),
                                         base_dir=Path(args.config).parent)[0]
    for key in _OVERRIDES:
        if getattr(args, key) is not None and not (sampler_seed and key == "seed"):
            raise ValueError(f"--{key.replace('_', '-')} cannot change the saved "
                             f"--scenario {args.scenario}; use --config")
    return data.load_scenario_npz(args.scenario)


def _solve_kw(args) -> dict:
    kw = {"method": _SOLVER_METHODS[args.solver]}
    if args.solver == "external":
        if not args.external_cmd:
            raise ValueError("--solver external needs --external-cmd")
        kw["external_cmd"] = args.external_cmd
    elif args.external_cmd is not None:
        raise ValueError(f"--external-cmd needs --solver external, not {args.solver}")
    return kw


def _print_report(tag: str, report: markov.EvalReport, scenario: Scenario) -> None:
    """LTEC, hit rate, the mean cycle length 1/(1 - alpha) of every valid
    policy, and the residual of the analytic solve."""
    hit = "NA" if report.chr is None else f"{report.chr:.6f}"
    print(f"{tag}: LTEC={report.ltec:.6f} CHR={hit} "
          f"cycle_length={1.0 / (1.0 - scenario.alpha):.4f} residual={report.residual:.1e}")


def _print_quality(policy: Policy, scenario: Scenario) -> None:
    ratio = quality_profile(policy, scenario).ratio()
    print(f"quality: min={ratio.min():.6f} mean={ratio.mean():.6f} (fraction of max)")


def _save_scenario(scenario: Scenario, stats: data.GraphStats | None, out: str | None) -> int:
    """Describe a scenario built by gen or ingest, and write it to `out` if given."""
    if stats:
        print(f"graph: nodes={stats.nodes} arcs={stats.arcs} "
              f"mean_neighbors={stats.mean_neighbors:.2f} std={stats.std_neighbors:.2f}")
    print(f"scenario: K={scenario.k} N={scenario.n} alpha={scenario.alpha} "
          f"q={scenario.q} cached={int((scenario.c == 0).sum())}")
    if out:
        data.save_scenario_npz(out, scenario)
        print(f"wrote {out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    return _save_scenario(*data.scenario_from_config(
        _config(args), base_dir=Path(args.config).parent), args.out)


def cmd_ingest(args) -> int:
    u, stats = data.load_edgelist(args.edges, args.threshold,
                                  component_before_saturation=args.component_first)
    cfg = data.load_config(args.config) if args.config else {}
    for key in ("graph", "seed"):
        if key in cfg:
            raise ValueError(f"config key {key!r} would be ignored: the edge list "
                             f"{args.edges} is the graph")
    return _save_scenario(data.scenario_on_graph(cfg, u), stats, args.out)


def cmd_solve(args) -> int:
    scenario = _load_scenario(args)
    name = _PROBLEM_POLICY[args.problem]
    result = policies.solve_named(name, scenario, **_solve_kw(args))
    _print_report(name, result.report, scenario)
    _print_quality(result.policy, scenario)
    print(f"solver: status={result.status} iterations={result.iterations} "
          f"residual={result.residual:.3e} seconds={result.seconds:.3f}")
    out = args.out or "policy.csv"
    write_policy_csv(out, result.policy, meta={
        "problem": args.problem, "ltec": f"{result.report.ltec:.12g}",
        "alpha": scenario.alpha, "q": scenario.q})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    scenario = _load_scenario(args)
    policy = read_policy_csv(args.policy)
    report = markov.evaluate(policy, scenario)
    _print_report(args.policy, report, scenario)
    _print_quality(policy, scenario)
    return EXIT_OK


def cmd_sim(args) -> int:
    scenario = _load_scenario(args, sampler_seed=True)
    policy = read_policy_csv(args.policy)
    report = sim.simulate(policy, scenario, steps=args.steps, seed=args.seed or 0)
    hit = "NA" if report.empirical_chr is None else f"{report.empirical_chr:.6f}"
    print(f"simulated {report.steps} steps (seed {report.seed}): "
          f"cost_rate={report.empirical_cost_rate:.6f} (stderr {report.stderr:.2e}) "
          f"CHR={hit} mean_cycle={report.mean_cycle_length:.4f} "
          f"(stderr {report.cycle_length_stderr:.2e}, {report.n_cycles} cycles)")
    analytic = markov.evaluate(policy, scenario)
    print(f"analytic: LTEC={analytic.ltec:.6f} "
          f"diff={abs(analytic.ltec - report.empirical_cost_rate):.2e}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    scenario = _load_scenario(args)
    best, policy = sim.brute_force_optimum(scenario, cap=args.cap)
    hit = f" CHR={1 - best:.6f}" if scenario.binary_costs else ""
    print(f"brute-force optimum: LTEC={best:.6f}{hit}")
    if args.out:
        write_policy_csv(args.out, policy, meta={"problem": "oracle"})
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        config=_config(args),
        axis=args.axis,
        values=[float(v) for v in args.values.split(",")],
        policies=args.policies.split(","),
        reference=args.reference,
        solve_kw=_solve_kw(args),
        workers=args.workers,
    )
    rows = run_sweep(spec)
    out = args.out or "sweep.csv"
    write_sweep_csv(out, spec, rows)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"wrote {out}: {len(rows)} rows, {len(failed)} failed")
    for row in failed:
        print(f"  {row['axis']}={row['value']} {row['policy']}: {_one_line(row['status'])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cacherec",
        description="Cost-aware recommendation policies: solve, evaluate, simulate, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_input(p, seed_help="seed of the config's graph"):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="YAML/JSON scenario config")
        source.add_argument("--scenario", help="scenario .npz from gen/ingest; no overrides")
        p.add_argument("--seed", type=int, help=seed_help)
        for flag, kind in (("--alpha", float), ("--q", float), ("--n", int),
                           ("--zipf-s", float), ("--cache-size", int)):
            p.add_argument(flag, type=kind, help="overrides the config key")

    def solver(p):
        p.add_argument("--solver", choices=sorted(_SOLVER_METHODS), default="auto",
                       help="auto: policy iteration over the row kernel; "
                            "builtin, highs, external: the LP oracle")
        p.add_argument("--external-cmd",
                       help="external solver command; {lp} and {out} are substituted")

    p = sub.add_parser("gen", help="generate a scenario from a config")
    p.add_argument("--config", required=True, help="YAML/JSON scenario config")
    p.add_argument("--seed", type=int, help="seed of the config's graph")
    p.add_argument("--out", help="scenario .npz to write")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="build a scenario from an edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--threshold", type=float, default=-1.0,
                   help="saturate weights above this to 1 (negative keeps raw weights)")
    p.add_argument("--component-first", action="store_true",
                   help="extract the largest component before saturating")
    p.add_argument("--config", help="YAML/JSON config of the non-graph keys")
    p.add_argument("--out", help="scenario .npz to write")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("solve", help="solve one of the policy problems")
    p.add_argument("--problem", choices=sorted(_PROBLEM_POLICY), required=True)
    scenario_input(p)
    p.add_argument("--out", help="policy file to write (default policy.csv)")
    solver(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a policy file analytically")
    p.add_argument("--policy", required=True)
    scenario_input(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sim", help="Monte Carlo simulation of a policy file")
    p.add_argument("--policy", required=True)
    p.add_argument("--steps", type=int, default=10 ** 6)
    scenario_input(p, seed_help="seed of the sampler, and of the config's graph")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("oracle", help="exhaustive search over deterministic policies")
    p.add_argument("--cap", type=int, default=sim.BRUTE_FORCE_CAP)
    scenario_input(p)
    p.add_argument("--out", help="policy file to write")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--policies", default="P1,P2")
    p.add_argument("--reference", default="P1", help="gain reference policy")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; slower than 1 unless BLAS runs one thread")
    p.add_argument("--config", required=True, help="YAML/JSON scenario config")
    p.add_argument("--seed", type=int, help="seed of the config's graph")
    p.add_argument("--out", help="sweep CSV to write (default sweep.csv)")
    solver(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors exit 2, the infeasible code
        return EXIT_IO if exc.code else EXIT_OK
    except policies.InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except policies.SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
