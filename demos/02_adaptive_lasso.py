"""Solve a lasso problem with the adaptive solver and watch sigma adapt.

The solver maintains a regularization weight sigma that plays the role of
an inverse step size.  Each iteration proposes a proximal step, measures
the ratio rho of realized to predicted decrease, and accepts or rejects.
sigma shrinks after strong steps and grows after failed ones, so no step
size tuning is needed.
"""

import numpy as np

from sr2kit import L1, SolverConfig, run
from sr2kit.problems import make_least_squares

rng = np.random.default_rng(0)
p = make_least_squares(rng, N=300, n=60, noise_sd=0.1)

cfg = SolverConfig(batch_size=p.N, max_iter=2000, epsilon=1e-5, seed=0)
res = run(p, L1(0.05), np.zeros(p.n), cfg)

print(f"stopped after {len(res.trace)} iterations ({res.stop_reason})")
print(f"final objective {res.trace[-1].F_sampled_after:.6f}")
print(f"nonzeros {res.trace[-1].nnz} of {p.n}")
accepted = sum(rec.accepted for rec in res.trace)
print(f"accepted {accepted}, rejected {len(res.trace) - accepted}")

# sigma wanders: down while steps keep paying off, up on rejections
print("\n  t   sigma       rho       accepted")
for rec in res.trace[::len(res.trace) // 10]:
    print(f"{rec.t:4d}  {rec.sigma_used:9.3g}  {rec.rho:9.3g}  {rec.accepted}")

# The trailing window of accepted step lengths drives the stopping test.
window = np.array(res.state.window)
print(f"\nmean squared step over last {window.size}: {window.mean():.3g} "
      f"(threshold {cfg.epsilon ** 2:.3g})")
