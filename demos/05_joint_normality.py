"""Joint eigenvector normality at desk scale, against Wick and ansatz targets.

Bulk eigenvectors of Wigner-type matrices behave like independent Gaussian
vectors: N E<u,v><u,w> -> <v,w>, fourth moments -> 3, and moments across
distinct indices factorize.  The covariance-weighted ansatz reproduces the
same numbers through the free convolution of the base matrix.

Run:  python demos/05_joint_normality.py        (about a minute)
"""

import numpy as np

from momentflow import EnsembleSpec, MomentRequest, estimate_moment
from momentflow import gaussian_wick_moment
from momentflow.harness import ExperimentConfig, run_experiment

N = 120
rng = np.random.default_rng(0)
v = rng.standard_normal(N)
v /= np.linalg.norm(v)
w = rng.standard_normal(N)
w -= (w @ v) * v
w /= np.linalg.norm(w)

spec = EnsembleSpec(kind="goe", N=N, seed=1)
for name, vecs, x in [
    ("orthogonal pair ", np.stack([v, w], axis=1), (N // 2, N // 2)),
    ("equal directions", np.stack([v, v], axis=1), (N // 2, N // 2)),
]:
    req = MomentRequest(configuration=x, vectors=vecs, ensemble=spec,
                        t=0.0, trials=1200, seed=7)
    est, se = estimate_moment(req)
    cols = [vecs[:, a] for a in range(vecs.shape[1])]
    target = gaussian_wick_moment(x, cols)
    print(f"{name}: estimate {est:+.4f} +- {se:.4f}   Wick target {target:+.4f}")

# The full suite (five orthonormal pairs, fourth moment, cross-index
# factorization) as run by the harness:
cfg = ExperimentConfig(kind="joint-normality", seed=2, trials=1500,
                       ensemble=EnsembleSpec(kind="generalized-wigner", N=150,
                                             seed=2))
rep = run_experiment(cfg)
for c in rep.checks:
    print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
          f"{c.value:+.4f} vs {c.target:+.4f} (tol {c.tol:.4f})")
