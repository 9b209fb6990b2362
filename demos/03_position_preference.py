"""When users favor the top of the list, placement becomes a control knob.

With position click probabilities v (v_1 >= v_2 >= ...), the optimizer no
longer just picks *which* items to show but *where* to put them. The
position-aware policy (P3) should therefore never lose to the
position-agnostic one (P2), and the two must coincide when clicks are
uniform or when there is a single slot.

Run: python demos/03_position_preference.py
"""
import numpy as np

from cacherec import Scenario, entropy, gen_poisson_graph, place_cache, zipf_popularity
from cacherec.policies import solve_positional, solve_session

k = 40
u, _ = gen_poisson_graph(k, 6, seed=99)
p0 = zipf_popularity(k, 0.7)
c = place_cache(p0, 2)
base = Scenario(u=u, c=c, p0=p0, alpha=0.8, n=2, q=0.9)

print("click-position preference, N=2, q=0.9")
chr_p2 = solve_session(base).report.chr
print(f"position-agnostic optimum (P2): hit rate {chr_p2:.4f} "
      "(insensitive to v: random placement washes positions out)\n")

print(f"{'v':>14} {'H_v':>6} {'P3':>8} {'gain over P2':>13}")
for v in ([0.95, 0.05], [0.8, 0.2], [0.65, 0.35], [0.5, 0.5]):
    s = base.replace(v=np.array(v))
    res = solve_positional(s)
    h = entropy(s.v)
    gain = (res.report.chr - chr_p2) / chr_p2 * 100
    print(f"{str(v):>14} {h:>6.3f} {res.report.chr:>8.4f} {gain:>12.1f}%")

print("\nskewed clicks help: the optimizer parks a quality item in the "
      "popular slot and uses the rest of the slate for cheap detours. "
      "At uniform clicks the placement freedom is worthless and P3 == P2.")

print("\nsingle slot: nothing to place, the two coincide exactly")
s1 = base.replace(n=1)
r2 = solve_session(s1).policy.mats
r3 = solve_positional(s1).policy.mats[0]
print(f"max |P2 - P3| entry difference at N=1: {np.abs(r2 - r3).max():.2e}")
