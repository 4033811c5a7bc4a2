"""Measured differencing errors against the rho-scanned certified bounds:
the bound tracks the error's exponential decay while staying above it.

Run:  python demos/05_bounds_vs_errors.py     (about a second)
"""

import math

from gegenspec import GAUSS
from gegenspec.experiments import TEST_FUNCTIONS, certify, scan_function

fn = TEST_FUNCTIONS["runge1"]
lam = 0.5

# the sup of |u| on each candidate ellipse depends only on rho: scan once
scan = scan_function(fn)

print("Gauss differencing of 1/(1+x^2), lambda = 0.5")
print("  n    measured error   scanned bound    rho*     bound/error")
for n in range(8, 68, 8):
    rec = certify(fn, lam, n, GAUSS, ("diff",), scan)["diff"]
    err, bound = rec.measured_error, rec.bound_total
    star = "*" if rec.backend == "hermite" else " "
    print(f"  {n:2d}{star}  {err:.6e}    {bound:.6e}   {rec.rho_star:.4f}   {bound / err:9.1f}")

print("""
rows marked * were measured by Hermite's formula: beyond n ~ 45 the true
error lives below the double-precision noise floor (~n^2 * 2e-16) of the
differentiation matrix, while the certified bound keeps shrinking like
n^3.5 (1+sqrt(2))^-n; the formula's product of small factors resolves it.

the minimizing radius creeps toward 1+sqrt(2) ~ 2.414: larger ellipses decay
faster but inflate the boundary sup as the poles at +-i close in.""")
print(f"critical radius: 1 + sqrt(2) = {1 + math.sqrt(2):.6f}")
