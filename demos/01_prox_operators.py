"""Walk through the exact proximal kernels.

Every solver in sr2kit takes steps by solving

    min_s  g's + (sigma/2)||s||^2 + R(x + s)

in closed form.  This script shows what the solutions look like for each
regularizer and double-checks one of them against a brute-force scan.
"""

import numpy as np

from sr2kit import L0, L1, L0Ball, Zero, shifted_prox

x = np.array([1.0, -0.3, 0.02, 2.5])
g = np.array([0.4, -0.1, 0.5, -1.0])
sigma = 2.0

# With no regularizer the minimizer is just a scaled gradient step.
st = shifted_prox(Zero(), x, g, sigma)
print("zero reg step:", st.s, "(equals -g/sigma:", -g / sigma, ")")

# L1 soft-thresholds the shifted point u = x - g/sigma at tau = lam/sigma.
st = shifted_prox(L1(0.5), x, g, sigma)
print("l1 step lands at:", x + st.s)

# L0 keeps a coordinate of u only when |u| clears sqrt(2 lam / sigma);
# small entries are snapped to exactly zero.
st = shifted_prox(L0(0.5), x, g, sigma)
print("l0 step lands at:", x + st.s)
print("hard threshold was:", np.sqrt(2 * 0.5 / sigma))

# L0Ball keeps the k largest |u| entries and zeroes the rest.
st = shifted_prox(L0Ball(2), np.zeros(4), g, sigma)
print("l0ball (k=2) lands at:", st.s)

# Each step carries its model decrease R(x) - g's - R(x+s), the quantity
# the adaptive solver compares against realized progress.
st = shifted_prox(L1(0.5), x, g, sigma)
print("model decrease:", st.model_decrease)
print("certificate (sigma/2)||s||^2:", 0.5 * sigma * float(st.s @ st.s))

# Sanity: a dense 1-D scan cannot beat the closed form.  The scan adds the
# point s = -x[0], where the L0 penalty drops, since the grid misses it.
grid = np.append(np.arange(-5, 5 + 1e-4, 1e-4), -x[0])
scan = g[0] * grid + 0.5 * sigma * grid**2 + 0.5 * (x[0] + grid != 0.0)
s_grid = grid[np.argmin(scan)]
s_exact = shifted_prox(L0(0.5), x, g, sigma).s[0]
print("closed form s[0] =", s_exact, " grid scan =", s_grid)
