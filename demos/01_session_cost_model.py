"""A guided tour of the session cost model on a 5-content catalog.

A user watches content after content. After each view the app shows N
recommended items; with probability alpha the user clicks one of them,
otherwise they search the catalog (popularity p0). Cached contents cost 0
to serve, everything else costs 1. We want recommendations that are still
relevant but steer long sessions toward cheap content.

Run: python demos/01_session_cost_model.py
"""
import numpy as np

from cacherec import (Policy, Scenario, baseline_policy, evaluate, max_quality,
                      quality_of, simulate, validate_policy)

# instead of a similarity graph, write one small matrix by hand: content 4
# is cached but unrelated to content 0, whose best matches are 1 and 2.
u = np.array([
    [0.0, 1.0, 1.0, 0.2, 0.0],
    [1.0, 0.0, 0.3, 0.0, 0.6],
    [1.0, 0.3, 0.0, 0.5, 0.0],
    [0.2, 0.0, 0.5, 0.0, 0.9],
    [0.0, 0.6, 0.0, 0.9, 0.0],
])
scenario = Scenario(
    u=u,
    c=[1, 1, 1, 1, 0],          # only content 4 is cached
    p0=np.full(5, 0.2),         # uniform catalog popularity
    alpha=0.8,                  # 80% of requests follow the recommender
    n=2,                        # two recommendation slots
    q=0.8,                      # demand 80% of the best achievable quality
)

print("=== quality accounting ===")
qmax = max_quality(u, scenario.n)
print(f"max achievable quality per content: {qmax}")
base = baseline_policy(u, scenario.n)
print(f"baseline slate for content 0: items {np.flatnonzero(base.mats[0])}")
print(f"baseline quality equals the max exactly: "
      f"{np.array_equal(quality_of(base, scenario), qmax)}")

# A policy may hedge: always show item 1, split the second slot between
# item 2 and the cached item 4. Quality drops to 80% of max but the session
# keeps drifting toward the cache.
r = base.mats
r[0] = [0.0, 1.0, 0.6, 0.0, 0.4]
nudged = Policy("uniform", r)
print(f"nudged policy row 0: {r[0]} -> quality {quality_of(nudged, scenario)[0]:.2f} "
      f"(floor is q*qmax = {scenario.q * qmax[0]:.2f})")
assert validate_policy(nudged, scenario) == []

print("\n=== the absorbing-chain machinery ===")
# with uniform clicks the user picks each of the N slate items alike, so the
# transient kernel is Q = alpha * R / N and the fundamental matrix G = (I - Q)^-1
q_kernel = scenario.alpha * nudged.mats / scenario.n
print(f"transient kernel row sums (all alpha): {q_kernel.sum(axis=1)}")
g = np.linalg.inv(np.eye(scenario.k) - q_kernel)
print(f"fundamental matrix row sums = expected cycle length "
      f"{g.sum(axis=1)[0]:.3f} = 1/(1-alpha) = {1 / (1 - scenario.alpha):.3f}")

print("\n=== cost per request: formula vs simulation ===")
for name, policy in (("baseline", base), ("nudged", nudged)):
    report = evaluate(policy, scenario)
    sim_report = simulate(policy, scenario, steps=400_000, seed=7)
    print(f"{name:>8}: analytic cost rate {report.ltec:.4f} (hit rate {report.chr:.4f}) | "
          f"simulated {sim_report.empirical_cost_rate:.4f} "
          f"+- {3 * sim_report.stderr:.4f}")

print("\nNudging one slate slot raised the hit rate even though the nudged "
      "item is unrelated: long sessions keep returning to the cache.")
