"""Command-line harness: build scenarios, solve policies, evaluate, sweep.

Subcommands: gen, ingest, solve, eval, sim, sweep, oracle. Exit codes:
0 ok, 2 infeasible problem, 3 solver failure, 4 I/O or config error.
"""
from __future__ import annotations

import argparse
import copy
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
    lines = [POLICY_SCHEMA, f"# variant: {policy.kind}", f"# k: {policy.k}"]
    if policy.is_positional:
        lines.append(f"# slots: {policy.n_slots}")
    for key, val in (meta or {}).items():
        lines.append(f"# {key}: {val}")
    if policy.is_positional:
        lines.append("n,i,j,r")
        mats = policy.slot_matrices
        for slot in range(mats.shape[0]):
            for i, j in np.argwhere(mats[slot] != 0.0):
                lines.append(f"{slot + 1},{i},{j},{mats[slot, i, j]:.17g}")
    else:
        lines.append("i,j,r")
        for i, j in np.argwhere(policy.matrix != 0.0):
            lines.append(f"{i},{j},{policy.matrix[i, j]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _policy_array(meta: dict) -> np.ndarray:
    """The all-zero policy array that the metadata lines declare."""
    variant, k = meta.get("variant"), meta.get("k")
    if variant is None or k is None:
        raise ValueError("missing variant/k metadata before the column header")
    if variant == "uniform":
        return np.zeros((k, k))
    if variant != "positional":
        raise ValueError(f"unknown variant {variant!r}")
    if "slots" not in meta:
        raise ValueError("positional policy without slots metadata")
    return np.zeros((meta["slots"], k, k))


def _set_policy_entry(mats: np.ndarray, parts: list[str]) -> None:
    """Store one "[n,]i,j,r" entry; raises ValueError for a malformed one."""
    if len(parts) != mats.ndim + 1:
        raise ValueError(f"expected {mats.ndim + 1} fields, got {len(parts)}")
    idx = [int(x) for x in parts[:-1]]
    val = float(parts[-1])
    if mats.ndim == 3:
        if not 1 <= idx[0] <= mats.shape[0]:
            raise ValueError(f"slot {idx[0]} outside 1..{mats.shape[0]}")
        idx[0] -= 1
    k = mats.shape[-1]
    if not all(0 <= x < k for x in idx[-2:]):
        raise ValueError(f"content index outside 0..{k - 1}")
    if not math.isfinite(val):
        raise ValueError(f"value {parts[-1]!r} is not finite")
    mats[tuple(idx)] = val


def read_policy_csv(path) -> Policy:
    """Read a policy file written by `write_policy_csv`.

    Raises ValueError, naming the file and line, for a missing header or
    metadata, a malformed entry, a non-finite value, or an index outside
    0..k-1 (contents) or 1..slots (positions). The variant, k and slots
    metadata must precede the column header line.
    """
    meta: dict[str, int | str] = {}
    schema_seen, mats, lineno = False, None, 0
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
                if key in ("variant", "k", "slots") and mats is not None:
                    raise ValueError(f"{key} metadata after the column header")
                if key == "variant":
                    meta[key] = val
                elif key in ("k", "slots"):
                    meta[key] = int(val)
                    if meta[key] < 1:
                        raise ValueError(f"{key} must be positive")
            elif mats is None:  # the column header line ends the metadata
                mats = _policy_array(meta)
                columns = "n,i,j,r" if mats.ndim == 3 else "i,j,r"
                if line.replace(" ", "") != columns:
                    raise ValueError(f"expected column header {columns!r}, got {line!r}")
            else:
                _set_policy_entry(mats, line.split(","))
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    if mats is None:
        missing = "the column header line" if schema_seen else f"metadata header {POLICY_SCHEMA!r}"
        raise ValueError(f"{path} line {lineno + 1}: end of file, expected {missing}")
    return Policy(meta["variant"], mats)


# ---------------------------------------------------------------------------
# Sweeps.

@dataclass
class SweepSpec:
    """One parameter sweep: vary `axis` over `values` for each policy.

    Hv values are position-zipf exponents; each cell's realized click
    entropy is reported as the axis value. Multiple seeds average the
    reported metrics over scenario replications.
    """

    config: dict
    axis: str
    values: list
    policies: list[str] = field(default_factory=lambda: ["P1", "P2"])
    seeds: list[int] = field(default_factory=list)
    reference: str = "P1"
    solve_kw: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self):
        if self.axis not in ("q", "N", "alpha", "s", "Hv", "C"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ValueError("sweep needs at least one axis value")
        unknown = set(self.policies) - set(policies.POLICY_NAMES)
        if unknown:
            raise ValueError(f"unknown policies: {sorted(unknown)}")
        if not self.policies:
            raise ValueError("sweep needs at least one policy")
        if not self.seeds:
            self.seeds = [int(self.config.get("seed", 0))]


def apply_axis(cfg: dict, axis: str, value) -> dict:
    """Return a config copy with one swept parameter applied."""
    out = copy.deepcopy(cfg)
    if axis == "q":
        out["q"] = float(value)
    elif axis == "alpha":
        out["alpha"] = float(value)
    elif axis == "N":
        out["n"] = int(value)
        out.pop("v", None)  # slot count changed: keep clicks uniform
    elif axis == "s":
        out["zipf_s"] = float(value)
        out.pop("p0", None)
    elif axis == "C":
        out["cache_size"] = int(value)
        out.pop("c", None)
    elif axis == "Hv":
        n = int(out.get("n", 2))
        beta = float(value)
        weights = np.arange(1, n + 1, dtype=float) ** (-beta)
        out["v"] = (weights / weights.sum()).tolist()
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return out


def _sweep_cell(payload) -> dict:
    cfg, axis, value, policy_name, seeds, solve_kw = payload
    t0 = time.perf_counter()
    row = {"axis": axis, "policy": policy_name, "status": "ok",
           "chr": None, "ltec": None, "mph": None, "value": value}
    try:
        chrs, ltecs, mphs, axis_vals = [], [], [], []
        for seed in seeds:
            cell_cfg = apply_axis(cfg, axis, value)
            cell_cfg["seed"] = seed
            scenario, _ = data.scenario_from_config(cell_cfg)
            result = policies.solve_named(policy_name, scenario, **solve_kw)
            ltecs.append(result.report.ltec)
            chrs.append(result.report.chr)
            mphs.append(mph(scenario.p0, scenario.c) if scenario.binary_costs else None)
            axis_vals.append(entropy(scenario.v) if axis == "Hv" else value)
        row["ltec"] = float(np.mean(ltecs))
        row["chr"] = float(np.mean(chrs)) if None not in chrs else None
        row["mph"] = float(np.mean(mphs)) if None not in mphs else None
        row["value"] = axis_vals[0]
    except policies.InfeasibleProblem as exc:
        row["status"] = f"infeasible: {exc}"
    except Exception as exc:  # record and keep sweeping
        row["status"] = f"error: {type(exc).__name__}: {exc}"
    row["wall_time_s"] = time.perf_counter() - t0
    return row


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Execute every (axis value, policy) cell; row order is deterministic."""
    cells = [(spec.config, spec.axis, value, name, spec.seeds, spec.solve_kw)
             for value in spec.values for name in spec.policies]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    # attach gains against the reference policy at the same axis point
    per_value = len(spec.policies)
    for block in range(len(spec.values)):
        group = rows[block * per_value: (block + 1) * per_value]
        ref = next((r for r in group if r["policy"] == spec.reference), None)
        for row in group:
            g = gain(row["chr"], ref["chr"]) if ref and ref["status"] == "ok" else None
            row["gain_pct"] = g
    return rows


def _fmt(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_sweep_csv(path, spec: SweepSpec, rows: list[dict]) -> None:
    lines = [SWEEP_SCHEMA,
             f"# gain reference: {spec.reference}",
             "axis,value,policy,status,chr,ltec,gain_pct,mph_pct,wall_time_s"]
    for row in rows:
        lines.append(",".join([
            row["axis"], _fmt(row["value"]), row["policy"],
            row["status"].replace(",", ";"),
            _fmt(row["chr"]), _fmt(row["ltec"]), _fmt(row["gain_pct"]),
            _fmt(row["mph"]), _fmt(row["wall_time_s"]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands.

def _load_scenario(args) -> tuple[Scenario, dict]:
    cfg = {}
    if getattr(args, "config", None):
        cfg = data.load_config(args.config)
    for key in ("alpha", "q", "n", "zipf_s", "cache_size", "seed"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "scenario", None):
        return data.load_scenario_npz(args.scenario), cfg
    if not cfg:
        raise ValueError("provide --config or --scenario")
    scenario, _ = data.scenario_from_config(cfg, base_dir=Path(args.config).parent
                                            if getattr(args, "config", None) else ".")
    return scenario, cfg


def _solve_kw(args) -> dict:
    kw = {"method": _SOLVER_METHODS[args.solver]}
    if args.solver == "external":
        if not args.external_cmd:
            raise ValueError("--solver external needs --external-cmd")
        kw["external_cmd"] = args.external_cmd
    return kw


def _print_report(tag: str, report: markov.EvalReport) -> None:
    hit = "NA" if report.chr is None else f"{report.chr:.6f}"
    print(f"{tag}: LTEC={report.ltec:.6f} CHR={hit} "
          f"cycle_length={report.cycle_length:.4f}")


def cmd_gen(args) -> int:
    cfg = data.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    scenario, stats = data.scenario_from_config(cfg, base_dir=Path(args.config).parent)
    if stats:
        print(f"graph: nodes={stats.nodes} arcs={stats.arcs} "
              f"mean_neighbors={stats.mean_neighbors:.2f} std={stats.std_neighbors:.2f}")
    print(f"scenario: K={scenario.k} N={scenario.n} alpha={scenario.alpha} "
          f"q={scenario.q} cached={int((scenario.c == 0).sum())}")
    if args.out:
        data.save_scenario_npz(args.out, scenario)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    u, stats = data.load_edgelist(args.edges, args.threshold,
                                  component_before_saturation=args.component_first)
    print(f"graph: nodes={stats.nodes} arcs={stats.arcs} "
          f"mean_neighbors={stats.mean_neighbors:.2f} std={stats.std_neighbors:.2f}")
    cfg = data.load_config(args.config) if args.config else {}
    cfg["graph"] = {"kind": "matrix", "u": u.tolist()}
    if args.seed is not None:
        cfg["seed"] = args.seed
    scenario, _ = data.scenario_from_config(cfg)
    print(f"scenario: K={scenario.k} N={scenario.n} alpha={scenario.alpha} q={scenario.q}")
    if args.out:
        data.save_scenario_npz(args.out, scenario)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario, _ = _load_scenario(args)
    name = _PROBLEM_POLICY[args.problem]
    result = policies.solve_named(name, scenario, **_solve_kw(args))
    _print_report(name, result.report)
    qmin, qmean = result.quality_summary(scenario)
    print(f"quality: min={qmin:.6f} mean={qmean:.6f} (fraction of max)")
    print(f"solver: status={result.status} iterations={result.iterations} "
          f"residual={result.residual:.3e} seconds={result.seconds:.3f}")
    out = args.out or "policy.csv"
    write_policy_csv(out, result.policy, meta={
        "problem": args.problem, "ltec": f"{result.report.ltec:.12g}",
        "alpha": scenario.alpha, "q": scenario.q})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    scenario, _ = _load_scenario(args)
    policy = read_policy_csv(args.policy)
    report = markov.evaluate(policy, scenario)
    _print_report(args.policy, report)
    ratio = quality_profile(policy, scenario).ratio()
    print(f"quality: min={ratio.min():.6f} mean={ratio.mean():.6f} (fraction of max)")
    return EXIT_OK


def cmd_sim(args) -> int:
    scenario, _ = _load_scenario(args)
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
    scenario, _ = _load_scenario(args)
    best, policy = sim.brute_force_optimum(scenario, cap=args.cap)
    hit = f" CHR={1 - best:.6f}" if scenario.binary_costs else ""
    print(f"brute-force optimum: LTEC={best:.6f}{hit}")
    if args.out:
        write_policy_csv(args.out, policy, meta={"problem": "oracle"})
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = data.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    values = [float(v) for v in args.values.split(",")]
    spec = SweepSpec(
        config=cfg,
        axis=args.axis,
        values=values,
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
        print(f"  {row['axis']}={row['value']} {row['policy']}: {row['status']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cacherec",
        description="Cost-aware recommendation policies: solve, evaluate, simulate, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_input=True):
        p.add_argument("--config", help="YAML/JSON scenario config")
        if scenario_input:
            p.add_argument("--scenario", help="scenario .npz produced by gen/ingest")
        p.add_argument("--out", help="output path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--solver", choices=sorted(_SOLVER_METHODS), default="auto",
                       help="auto: policy iteration over the row kernel; "
                            "builtin, highs, external: the LP oracle")
        p.add_argument("--external-cmd", default=None,
                       help="external solver command; {lp} and {out} are substituted")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--zipf-s", dest="zipf_s", type=float, default=None)
        p.add_argument("--cache-size", dest="cache_size", type=int, default=None)

    p = sub.add_parser("gen", help="generate a scenario from a config")
    common(p, scenario_input=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="build a scenario from an edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--threshold", type=float, default=-1.0,
                   help="saturate weights above this to 1 (negative keeps raw weights)")
    p.add_argument("--component-first", action="store_true",
                   help="extract the largest component before saturating")
    common(p, scenario_input=False)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("solve", help="solve one of the policy problems")
    p.add_argument("--problem", choices=sorted(_PROBLEM_POLICY), required=True)
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a policy file analytically")
    p.add_argument("--policy", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sim", help="Monte Carlo simulation of a policy file")
    p.add_argument("--policy", required=True)
    p.add_argument("--steps", type=int, default=10 ** 6)
    common(p)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("oracle", help="exhaustive search over deterministic policies")
    p.add_argument("--cap", type=int, default=sim.BRUTE_FORCE_CAP)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("--axis", choices=["q", "N", "alpha", "s", "Hv", "C"], required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--policies", default="P1,P2")
    p.add_argument("--reference", default="P1", help="gain reference policy")
    p.add_argument("--workers", type=int, default=1)
    common(p, scenario_input=False)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
