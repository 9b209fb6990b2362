"""The three benchmark workloads and their correctness gate.

Each workload builds its inputs from the benchmark seed (`build`, the timed
set-up), computes reference answers outside any timed phase (`references`),
runs one pass over a fixed list of operations through cacherec's public API
(`run_pass`, the timed unit), and checks a pass's outputs (`check`).

An operation fails when it raises, returns a non-ok or non-optimal status,
yields a policy with `validate_policy` violations or below its quality
floor, reports an LTEC (P1: its myopic objective) more than `LTEC_TOL` from
the reference optimum, or, for a simulation, lands more than `SIM_SIGMAS`
batch-means standard errors from the analytic cost. The last four are wrong
answers; raising or a non-optimal status is a refusal.

References come from the LP oracle (`lp` builders solved by `simplex` with
HiGHS) for optimal policies, and from a dense linear solve written here for
fixed policies. For the default seed they are read from references.json,
recorded at the commit that added the benchmark.
"""
from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from cacherec import cli, data, lp, markov, model, policies, sim, simplex

LTEC_TOL = 1e-9
SIM_SIGMAS = 4.0
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Sizes per mode. "full" is what the benchmark measures; "toy" exists for
#: selfcheck.py and finishes in a few seconds.
SIZES = {
    "full": {
        # (policy, K, N, v, copies): copies are independent graphs per pass.
        "session": [("P2", 100, 2, "uniform", 16), ("P2", 200, 2, "uniform", 1),
                    ("P3", 60, 3, [0.6, 0.3, 0.1], 6)],
        "session_degree": 8,
        "sweep_k": 20, "sweep_degree": 4, "sweep_graphs": 3,
        "mc_k": 400, "mc_degree": 8, "mc_steps": 250_000,
    },
    "toy": {
        "session": [("P2", 16, 2, "uniform", 1), ("P3", 12, 3, [0.6, 0.3, 0.1], 1)],
        "session_degree": 4,
        "sweep_k": 8, "sweep_degree": 3, "sweep_graphs": 1,
        "mc_k": 30, "mc_degree": 4, "mc_steps": 20_000,
    },
}

SWEEP_AXES = (("q", [0.5, 0.9, 1.0]), ("alpha", [0.0, 0.5, 0.95]))
SWEEP_POLICIES = ["baseline", "P1", "P2"]
MC_CLICKS = ((2, "uniform"), (3, [0.6, 0.3, 0.1]))


def scenario_config(k: int, degree: float, n: int, graph_seed: int, v="uniform",
                    q: float = 0.9, alpha: float = 0.8) -> dict:
    """Poisson-graph scenario with Zipf(0.7) popularity and a K/50 cache."""
    return {"graph": {"kind": "poisson", "k": k, "mean_degree": degree},
            "alpha": alpha, "n": n, "v": v, "q": q, "zipf_s": 0.7,
            "cache_size": max(1, k // 50), "seed": graph_seed}


# ---------------------------------------------------------------------------
# Oracles.

def lp_optimum(problem) -> float:
    sol = simplex.solve(problem, method="highs")
    if sol.status != "optimal":
        raise RuntimeError(f"reference LP {problem.name}: {sol.status} ({sol.message})")
    return sol.objective


def session_optimum(scenario, positional: bool) -> float:
    """Optimal long-session LTEC; p0'c when alpha = 0, since then G = I."""
    if scenario.alpha == 0.0:
        return float(scenario.p0 @ scenario.c)
    build = lp.build_positional_lp if positional else lp.build_session_lp
    return (1.0 - scenario.alpha) * lp_optimum(build(scenario))


def myopic_optimum(scenario) -> float:
    """Optimal next-request cost p0'Rc over quality-feasible policies."""
    rows = lp.build_greedy_row_lps(scenario)
    return float(sum(p * lp_optimum(row) for p, row in zip(scenario.p0, rows)))


def fixed_policy_ltec(policy, scenario) -> float:
    """(1 - alpha) p0' (I - Q)^-1 c by one dense solve, independent of `markov`."""
    if policy.is_positional:
        q = scenario.alpha * np.tensordot(scenario.v, policy.mats, axes=1)
    else:
        q = (scenario.alpha / scenario.n) * policy.mats
    y = np.linalg.solve(np.eye(scenario.k) - q, scenario.c)
    return float((1.0 - scenario.alpha) * (scenario.p0 @ y))


# ---------------------------------------------------------------------------
# Checks shared by the workloads.

class Gate:
    """Operations attempted, failed, refused and answered wrongly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused: list[str] = []
        self.wrong: list[str] = []

    def refuse(self, tag: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.refused.append(f"{tag}: {why}")

    def judge(self, tag: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong.append(f"{tag}: " + "; ".join(problems))

    def add(self, other: "Gate") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused += other.refused
        self.wrong += other.wrong


def policy_problems(policy, scenario) -> list[str]:
    """Invariant violations and a missed quality floor."""
    out = model.validate_policy(policy, scenario)[:3]
    ratio = model.quality_profile(policy, scenario).ratio().min()
    if ratio < scenario.q - model.FEAS_TOL:
        out.append(f"quality ratio {ratio:.9g} below floor {scenario.q}")
    return out


def value_problem(label: str, value: float, ref: float) -> list[str]:
    if abs(value - ref) > LTEC_TOL:
        return [f"{label} {value!r} differs from reference {ref!r} by {abs(value - ref):.3g}"]
    return []


# ---------------------------------------------------------------------------
# Workloads.

class SessionSolve:
    """P2 at K=100 and K=200, P3 at K=60 (N=3): one large sparse LP each."""

    name = "session-solve"

    def __init__(self, seed: int, size: dict):
        self.seed, self.size = seed, size

    def build(self) -> None:
        self.instances = []
        for policy, k, n, v, copies in self.size["session"]:
            for _ in range(copies):
                graph_seed = self.seed * 1000 + len(self.instances)
                cfg = scenario_config(k, self.size["session_degree"], n, graph_seed, v)
                scenario, _ = data.scenario_from_config(cfg)
                self.instances.append((f"{policy}-k{k}-g{graph_seed}", policy, scenario))

    def references(self, known: dict) -> dict:
        return {key: known[key] if key in known else session_optimum(sc, policy == "P3")
                for key, policy, sc in self.instances}

    def run_pass(self) -> list:
        out = []
        for _, policy, scenario in self.instances:
            solve = policies.solve_positional if policy == "P3" else policies.solve_session
            try:
                out.append(solve(scenario))
            except Exception as exc:  # a raising solve is a counted failure
                out.append(exc)
        return out

    def check(self, outputs: list, refs: dict) -> Gate:
        gate = Gate()
        for (key, _, scenario), result in zip(self.instances, outputs):
            if isinstance(result, Exception) or result.status != "optimal":
                gate.refuse(key, repr(result) if isinstance(result, Exception) else result.status)
            else:
                gate.judge(key, policy_problems(result.policy, scenario)
                           + value_problem("LTEC", result.report.ltec, refs[key]))
        return gate

    def describe(self, pass_s: float) -> list[tuple[str, float, str]]:
        return [("solve_s", pass_s, "s"), ("instances", len(self.instances), "count")]


class SmallSweep:
    """`cli.run_sweep` over q and alpha for baseline, P1 and P2, on three
    K=20 graphs per pass."""

    name = "small-sweep"

    def __init__(self, seed: int, size: dict):
        self.seed, self.size = seed, size
        self.captured: list = []
        self._capture_results()

    def _capture_results(self) -> None:
        """Record each cell's PolicyResult, which sweep rows do not carry.

        run_sweep reaches solve_named through the `policies` module attribute,
        so replacing that attribute sees every cell; the cost is one extra
        Python call per cell.
        """
        solve_named = policies.solve_named
        captured = self.captured

        @functools.wraps(solve_named)
        def capture(name, scenario, **solve_kw):
            try:
                result = solve_named(name, scenario, **solve_kw)
            except Exception as exc:
                captured.append((scenario, exc))
                raise
            captured.append((scenario, result))
            return result

        policies.solve_named = capture

    def build(self) -> None:
        k, degree = self.size["sweep_k"], self.size["sweep_degree"]
        self.specs, self.cells = [], []
        for graph in range(self.size["sweep_graphs"]):
            graph_seed = self.seed * 1000 + graph
            base = scenario_config(k, degree, 2, graph_seed)
            for axis, values in SWEEP_AXES:
                self.specs.append(cli.SweepSpec(config=base, axis=axis, values=values,
                                                policies=SWEEP_POLICIES, reference="P1",
                                                workers=1))
                # Each cell's reference scenario, built from the config directly.
                for value in values:
                    cfg = scenario_config(k, degree, 2, graph_seed, **{axis: value})
                    scenario, _ = data.scenario_from_config(cfg)
                    for policy in SWEEP_POLICIES:
                        self.cells.append((f"g{graph_seed}/{axis}={value}/{policy}",
                                           policy, scenario))

    def references(self, known: dict) -> dict:
        refs = {}
        for key, policy, sc in self.cells:
            if key in known:
                refs[key] = known[key]
            elif policy == "baseline":
                refs[key] = fixed_policy_ltec(model.baseline_policy(sc.u, sc.n), sc)
            elif policy == "P1":
                refs[key] = myopic_optimum(sc)
            else:
                refs[key] = session_optimum(sc, positional=False)
        return refs

    def run_pass(self) -> tuple[list, list]:
        self.captured.clear()
        rows = [row for spec in self.specs for row in cli.run_sweep(spec)]
        return rows, list(self.captured)

    def check(self, outputs, refs: dict) -> Gate:
        rows, captured = outputs
        gate = Gate()
        if len(rows) != len(self.cells) or len(captured) != len(self.cells):
            gate.judge("sweep", [f"{len(rows)} rows and {len(captured)} solves "
                                 f"for {len(self.cells)} cells"])
            return gate
        p2_ref = {key.rsplit("/", 1)[0]: refs[key]
                  for key, policy, _ in self.cells if policy == "P2"}
        for (key, policy, _), row, (scenario, result) in zip(self.cells, rows, captured):
            if row["status"] != "ok" or isinstance(result, Exception) \
                    or result.status != "optimal":
                gate.refuse(key, row["status"])
                continue
            problems = policy_problems(result.policy, scenario)
            if policy == "P1":
                problems += value_problem("myopic cost", result.objective, refs[key])
                if row["ltec"] < p2_ref[key.rsplit("/", 1)[0]] - LTEC_TOL:
                    problems.append(f"LTEC {row['ltec']!r} beats the optimum")
            else:
                problems += value_problem("LTEC", row["ltec"], refs[key])
            gate.judge(key, problems)
        return gate

    def describe(self, pass_s: float) -> list[tuple[str, float, str]]:
        return [("sweep_cells_per_s", len(self.cells) / pass_s, "cells/s"),
                ("cells", len(self.cells), "count")]


class MonteCarlo:
    """What `cacherec sim` does, for a uniform N=2 and a positional N=3
    baseline policy at K=400: read the policy file, simulate, evaluate."""

    name = "monte-carlo"

    def __init__(self, seed: int, size: dict):
        self.seed, self.size = seed, size

    def build(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        k = self.size["mc_k"]
        self.items = []
        for i, (n, v) in enumerate(MC_CLICKS):
            graph_seed = self.seed * 1000 + i
            scenario, _ = data.scenario_from_config(
                scenario_config(k, self.size["mc_degree"], n, graph_seed, v))
            policy = model.baseline_policy(
                scenario.u, scenario.n, None if scenario.uniform_clicks else scenario.v)
            path = OUT_DIR / f"policy-{self.name}-seed{self.seed}-{i}.csv"
            cli.write_policy_csv(path, policy)
            self.items.append((f"baseline-n{n}-k{k}-g{graph_seed}", scenario, policy, path,
                               graph_seed))

    def references(self, known: dict) -> dict:
        return {key: known[key] if key in known else fixed_policy_ltec(policy, sc)
                for key, sc, policy, _, _ in self.items}

    def run_pass(self) -> list:
        out = []
        for _, scenario, _, path, sim_seed in self.items:
            try:
                policy = cli.read_policy_csv(path)
                report = sim.simulate(policy, scenario, steps=self.size["mc_steps"],
                                      seed=sim_seed)
                out.append((policy, report, markov.evaluate(policy, scenario)))
            except Exception as exc:  # a raising simulation is a counted failure
                out.append(exc)
        return out

    def check(self, outputs: list, refs: dict) -> Gate:
        gate = Gate()
        for (key, scenario, written, _, _), out in zip(self.items, outputs):
            if isinstance(out, Exception):
                gate.refuse(key, repr(out))
                continue
            policy, report, analytic = out
            problems = policy_problems(policy, scenario)
            if policy.kind != written.kind or not np.array_equal(policy.mats, written.mats):
                problems.append("policy read back differs from the policy written")
            problems += value_problem("LTEC", analytic.ltec, refs[key])
            gap = abs(report.empirical_cost_rate - refs[key])
            if not gap <= SIM_SIGMAS * report.stderr:
                problems.append(f"simulated cost off by {gap:.3g} "
                                f"> {SIM_SIGMAS:g} x stderr {report.stderr:.3g}")
            gate.judge(key, problems)
        return gate

    def describe(self, pass_s: float) -> list[tuple[str, float, str]]:
        steps = len(self.items) * self.size["mc_steps"]
        return [("sim_steps_per_s", steps / pass_s, "requests/s"), ("steps", steps, "count")]


WORKLOADS = {cls.name: cls for cls in (SessionSolve, SmallSweep, MonteCarlo)}
