"""Cost-aware recommendation policies for long viewing sessions.

Build a `Scenario` (similarity matrix, access costs, popularity, click
model), then solve for a policy: P1 (`solve_greedy`), P2 (`solve_session`)
and P3 (`solve_positional`) all run one row-kernel routine, of which P1 is
the first round. Evaluate a `Policy` analytically (`evaluate`: the LTEC and
the cost to go V = (I - Q)^{-1} c of the session chain, solved on the
recommended contents), and cross-check by simulation (`simulate`).
"""
from .data import (GraphStats, gen_poisson_graph, load_edgelist, place_cache,
                   scenario_from_config, zipf_popularity)
from .lp import (LpProblem, RecoveredPolicy, build_greedy_row_lps,
                 build_positional_lp, build_session_lp, format_lp, parse_lp,
                 recover_policy)
from .markov import EvalReport, click_kernel, evaluate
from .model import (Policy, QualityProfile, Scenario, baseline_policy, entropy,
                    max_quality, quality_of, quality_profile, validate_policy)
from .policies import (InfeasibleProblem, PolicyResult, SolverFailure,
                       solve_baseline, solve_greedy, solve_named,
                       solve_positional, solve_session)
from .sim import SimReport, brute_force_optimum, simulate
from .simplex import LpSolution, solve

__version__ = "0.1.0"

__all__ = [
    "EvalReport", "GraphStats", "InfeasibleProblem", "LpProblem", "LpSolution",
    "Policy", "PolicyResult", "QualityProfile", "RecoveredPolicy", "Scenario",
    "SimReport", "SolverFailure", "baseline_policy", "brute_force_optimum",
    "build_greedy_row_lps", "build_positional_lp", "build_session_lp", "click_kernel",
    "entropy", "evaluate", "format_lp", "gen_poisson_graph", "load_edgelist",
    "max_quality", "parse_lp", "place_cache", "quality_of", "quality_profile",
    "recover_policy", "scenario_from_config", "simulate", "solve", "solve_baseline",
    "solve_greedy", "solve_named", "solve_positional", "solve_session",
    "validate_policy", "zipf_popularity",
]
