"""Myopic vs long-session optimization, cross-checked against brute force.

Three solvers compete on the same catalog:
  baseline - most similar items, ignores costs entirely
  P1       - myopic: minimize the cost of the *next* request only
  P2       - session optimum: minimize the long-run cost per request

On a small catalog we can also enumerate every deterministic policy and
confirm the session optimum is never beaten.

Run: python demos/02_optimal_vs_greedy.py
"""
from cacherec import Scenario, brute_force_optimum, gen_poisson_graph, place_cache, zipf_popularity
from cacherec.policies import solve_baseline, solve_greedy, solve_session

rng_seed = 20240401
k = 30
u, stats = gen_poisson_graph(k, 5, seed=rng_seed)
p0 = zipf_popularity(k, 0.7)
c = place_cache(p0, 2)
print(f"catalog: K={k}, {stats.arcs} similarity arcs, 2 cached contents "
      f"({100 * p0[c == 0].sum():.1f}% of i.i.d. popularity)")

print("\nhit rate by quality requirement:")
print(f"{'q':>6} {'baseline':>9} {'P1':>7} {'P2':>7} {'P2 gain over P1':>16}")
for q in (0.7, 0.8, 0.9, 0.95, 1.0):
    s = Scenario(u=u, c=c, p0=p0, alpha=0.8, n=2, q=q)
    chr_base = solve_baseline(s).report.chr
    chr_p1 = solve_greedy(s).report.chr
    chr_p2 = solve_session(s).report.chr
    gain = (chr_p2 - chr_p1) / chr_p1 * 100 if chr_p1 > 0 else float("nan")
    print(f"{q:>6.2f} {chr_base:>9.4f} {chr_p1:>7.4f} {chr_p2:>7.4f} {gain:>15.1f}%")

print("\nbrute-force check on a tiny instance (every deterministic policy):")
k_small = 6
u_small, _ = gen_poisson_graph(k_small, 3, seed=5)
p0_small = zipf_popularity(k_small, 0.6)
s_small = Scenario(u=u_small, c=place_cache(p0_small, 1), p0=p0_small,
                   alpha=0.8, n=2, q=0.5)
best_ltec, best_policy = brute_force_optimum(s_small)
optimum = solve_session(s_small)
print(f"  enumerated optimum cost rate: {best_ltec:.6f}")
print(f"  session optimum cost rate:    {optimum.report.ltec:.6f} "
      f"(can only be lower: the optimum may randomize)")
assert optimum.report.ltec <= best_ltec + 1e-9

print("\nThe myopic policy chases cached items one step ahead; the session optimum "
      "also routes through uncached contents that lead back to the cache, and "
      "the advantage widens as the quality floor tightens.")
