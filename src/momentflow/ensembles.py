"""Matrix ensembles: GOE, generalized Wigner, sparse graphs, heavy-tailed, and
the Gaussian perturbation H + sqrt(t)*GOE.

All samplers are pure functions of (spec, seed): same inputs, same matrix,
bit for bit.  Matrices come back as plain numpy arrays that are exactly
symmetric because only one triangle is drawn and then mirrored.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import stream

KINDS = ("goe", "generalized-wigner", "erdos-renyi", "p-regular", "levy")

ENTRY_LAWS = ("bernoulli", "gaussian")

_PAIRING_RESTART_CAP = 10_000


@functools.lru_cache(maxsize=4)
def _mirror_indices(N):
    """Flat indices into an N x N array of the strict upper triangle, in
    np.triu_indices order, and of its mirror image below the diagonal."""
    i, j = np.triu_indices(N, k=1)
    upper, lower = i * N + j, j * N + i
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def _symmetrize_upper(upper, diag):
    """Assemble an exactly symmetric matrix from its strict upper triangle and diagonal."""
    N = diag.shape[0]
    upper_idx, lower_idx = _mirror_indices(N)
    H = np.zeros((N, N))
    flat = H.reshape(-1)
    flat[upper_idx] = upper
    flat[lower_idx] = upper
    flat[::N + 1] = diag
    return H


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of one matrix ensemble.

    kind         one of KINDS
    N            matrix size
    p            sparsity (graph models only)
    alpha        stability index in (0, 2) (levy only)
    variance_profile  N x N symmetric entry variances with unit column sums
                      (generalized-wigner only; None means the flat 1/N profile)
    entry_law    "bernoulli" (default) or "gaussian" (generalized-wigner only)
    profile_bound  declared non-degeneracy constant C with 1/C <= N sigma^2 <= C
    seed         base seed; samplers further split it into trial streams
    """

    kind: str
    N: int
    p: float | None = None
    alpha: float | None = None
    variance_profile: np.ndarray | None = field(default=None, repr=False)
    entry_law: str = "bernoulli"
    profile_bound: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.kind in ("erdos-renyi", "p-regular"):
            if self.p is None or self.p < 1 or self.p > self.N / 2:
                raise ValueError("graph sparsity requires 1 <= p <= N/2")
            if self.kind == "p-regular":
                p = int(self.p)
                if p != self.p:
                    raise ValueError("p-regular degree must be an integer")
                if (self.N * p) % 2 != 0:
                    raise ValueError("p-regular requires N*p even")
        if self.kind == "levy":
            if self.alpha is None or not (0.0 < self.alpha < 2.0):
                raise ValueError("levy requires alpha in (0, 2)")
        if self.entry_law not in ENTRY_LAWS:
            raise ValueError(f"unknown entry law {self.entry_law!r}")
        if self.kind == "generalized-wigner" and self.profile_bound < 1.0:
            raise ValueError(f"profile_bound {self.profile_bound:g} < 1 leaves the "
                             "non-degeneracy range [1/C, C] empty")
        if self.kind == "generalized-wigner" and self.variance_profile is not None:
            _check_profile(np.asarray(self.variance_profile, dtype=float),
                           self.N, self.profile_bound)

    @classmethod
    def from_dict(cls, d):
        """Build from the harness JSON config; keys exactly as documented."""
        profile = d.get("variance-profile")
        if profile is not None:
            profile = np.asarray(profile, dtype=float)
        return cls(
            kind=d["kind"],
            N=int(d["N"]),
            p=d.get("p"),
            alpha=d.get("alpha"),
            variance_profile=profile,
            entry_law=d.get("entry-law", "bernoulli"),
            profile_bound=float(d.get("profile-bound", 10.0)),
            seed=int(d.get("seed", 0)),
        )

    def to_dict(self):
        d = {"kind": self.kind, "N": self.N, "seed": self.seed}
        if self.p is not None:
            d["p"] = self.p
        if self.alpha is not None:
            d["alpha"] = self.alpha
        if self.variance_profile is not None:
            d["variance-profile"] = np.asarray(self.variance_profile).tolist()
        if self.kind == "generalized-wigner":
            d["entry-law"] = self.entry_law
            d["profile-bound"] = self.profile_bound
        return d


def _check_profile(profile, N, bound):
    if profile.shape != (N, N):
        raise ValueError(f"variance profile must be {N}x{N}, got {profile.shape}")
    if not np.array_equal(profile, profile.T):
        raise ValueError("variance profile must be symmetric")
    if np.any(profile < 0):
        raise ValueError("variance profile must be nonnegative")
    colsums = profile.sum(axis=0)
    worst = np.max(np.abs(colsums - 1.0))
    if worst > 1e-10:
        j = int(np.argmax(np.abs(colsums - 1.0)))
        raise ValueError(
            f"variance profile violates normalization: column {j} sums to "
            f"{colsums[j]:.12g} (defect {worst:.3g})"
        )
    scaled = N * profile
    if scaled.min() < 1.0 / bound - 1e-12 or scaled.max() > bound + 1e-12:
        raise ValueError(
            f"variance profile violates non-degeneracy: N*sigma^2 range "
            f"[{scaled.min():.3g}, {scaled.max():.3g}] outside [1/{bound}, {bound}]"
        )


def sample_goe(N, seed):
    """GOE with entry variance (1 + delta_ij)/N; deterministic in (N, seed)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = stream(seed)
    A = rng.standard_normal((N, N))
    return (A + A.T) / math.sqrt(2.0 * N)


def sample_generalized_wigner(spec):
    """Independent-entry symmetric matrix with the spec's variance profile.

    Entry law is symmetric Bernoulli +-sigma_ij by default; a centered
    Gaussian with matching variance is available via entry_law="gaussian".
    """
    if spec.kind != "generalized-wigner":
        raise ValueError("spec.kind must be 'generalized-wigner'")
    N = spec.N
    if spec.variance_profile is None:
        # The flat profile (N sigma^2 = 1) passes every check, since the spec's
        # bound is at least 1, and math.sqrt(1/N) is np.sqrt of each entry.
        sigma_up = sigma_diag = math.sqrt(1.0 / N)
    else:
        profile = np.asarray(spec.variance_profile, dtype=float)
        _check_profile(profile, N, spec.profile_bound)
        sigma = np.sqrt(profile)
        sigma_up = sigma.reshape(-1)[_mirror_indices(N)[0]]
        sigma_diag = np.diag(sigma)
    rng = stream(spec.seed)
    n_up = N * (N - 1) // 2
    if spec.entry_law == "bernoulli":
        upper = (2.0 * rng.integers(0, 2, size=n_up) - 1.0) * sigma_up
        diag = (2.0 * rng.integers(0, 2, size=N) - 1.0) * sigma_diag
    else:
        upper = rng.standard_normal(n_up) * sigma_up
        diag = rng.standard_normal(N) * sigma_diag
    return _symmetrize_upper(upper, diag)


def sample_sparse_graph(spec):
    """Normalized adjacency matrix of a sparse random graph.

    erdos-renyi: independent edges with probability p/N, entries scaled by
    1/sqrt(p(1-p/N)), zero diagonal.  p-regular: pairing-model adjacency of a
    random simple p-regular graph scaled by 1/sqrt(p-1); stubs that collide
    into loops or multi-edges are recycled, and the pairing restarts when no
    suitable edge remains (cap 10^4 restarts -> "degenerate pairing").
    """
    if spec.kind == "erdos-renyi":
        N, p = spec.N, spec.p
        rng = stream(spec.seed)
        scale = 1.0 / math.sqrt(p * (1.0 - p / N))
        upper = (rng.random(N * (N - 1) // 2) < p / N) * scale
        return _symmetrize_upper(upper, np.zeros(N))
    if spec.kind == "p-regular":
        return _sample_p_regular(spec.N, int(spec.p), spec.seed)
    raise ValueError("spec.kind must be 'erdos-renyi' or 'p-regular'")


def _sample_p_regular(N, p, seed):
    rng = stream(seed)
    for _ in range(_PAIRING_RESTART_CAP):
        edges = _try_pairing(N, p, rng)
        if edges is not None:
            A = np.zeros((N, N))
            for i, j in edges:
                A[i, j] = 1.0
                A[j, i] = 1.0
            return A / math.sqrt(p - 1.0)
    raise RuntimeError("degenerate pairing: p-regular sampler exceeded the retry cap")


def _try_pairing(N, p, rng):
    # One attempt of the pairing model: shuffle all stubs, keep simple edges,
    # recycle the rest; give up (return None) when the leftovers are stuck.
    edges = set()
    stubs = list(range(N)) * p
    while stubs:
        recycled = []
        order = rng.permutation(len(stubs))
        shuffled = [stubs[k] for k in order]
        it = iter(shuffled)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                recycled.extend((s1, s2))
        if recycled and not _has_suitable_edge(edges, recycled):
            return None
        stubs = recycled
    return edges


def _has_suitable_edge(edges, stubs):
    distinct = sorted(set(stubs))
    for idx, s1 in enumerate(distinct):
        for s2 in distinct[idx + 1:]:
            if (s1, s2) not in edges:
                return True
    return False


def sample_stable(alpha, size, rng):
    """Symmetric alpha-stable variates with characteristic function exp(-|t|^alpha).

    Chambers-Mallows-Stuck construction from a uniform angle and an
    independent exponential.
    """
    U = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    W = rng.standard_exponential(size=size)
    if abs(alpha - 1.0) < 1e-12:
        return np.tan(U)
    return (
        np.sin(alpha * U)
        / np.cos(U) ** (1.0 / alpha)
        * (np.cos(U - alpha * U) / W) ** ((1.0 - alpha) / alpha)
    )


def stable_sigma(alpha):
    """Scale making the entry tails match C/(|t|+1)^alpha with the standard constant."""
    return (math.pi / (2.0 * math.sin(math.pi * alpha / 2.0) * math.gamma(alpha))) ** (1.0 / alpha)


def sample_levy(spec):
    """Symmetric matrix with iid N^{-1/alpha}-scaled alpha-stable entries.

    The finite-variance perturbation allowed by the model is taken to be zero;
    a symmetric stable entry already has the required tail behaviour.
    """
    if spec.kind != "levy":
        raise ValueError("spec.kind must be 'levy'")
    N, alpha = spec.N, spec.alpha
    rng = stream(spec.seed)
    sigma = stable_sigma(alpha)
    scale = sigma * N ** (-1.0 / alpha)
    iu_count = N * (N - 1) // 2
    upper = scale * sample_stable(alpha, iu_count, rng)
    diag = scale * sample_stable(alpha, N, rng)
    return _symmetrize_upper(upper, diag)


def perturb_gaussian(H, t, seed):
    """H + sqrt(t) * GOE; t = 0 returns H unchanged bit-exactly."""
    if t < 0:
        raise ValueError("perturbation time must be >= 0")
    if t == 0:
        return H.copy()
    N = H.shape[0]
    return H + math.sqrt(t) * sample_goe(N, seed)


def sample_ensemble(spec, seed=None):
    """Dispatch on spec.kind; seed overrides spec.seed when given."""
    if seed is not None:
        spec = replace(spec, seed=seed)
    if spec.kind == "goe":
        return sample_goe(spec.N, spec.seed)
    if spec.kind == "generalized-wigner":
        return sample_generalized_wigner(spec)
    if spec.kind in ("erdos-renyi", "p-regular"):
        return sample_sparse_graph(spec)
    if spec.kind == "levy":
        return sample_levy(spec)
    raise ValueError(f"unknown ensemble kind {spec.kind!r}")
