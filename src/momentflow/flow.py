"""Coupled eigenvalue/eigenvector stochastic dynamics and Monte Carlo moment
estimation.

The path integrator exists to validate the configuration-space generator; the
Monte Carlo trials use one-shot direct perturbation plus a fresh eigensolve
of only the needed eigenpairs per trial, which is exact in distribution and
free of discretization bias.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._rng import stream
from .configspace import occupancies, pi_weight
from .ensembles import perturb_gaussian, sample_ensemble
from .spectral import _cgs2, eig_sym

log = logging.getLogger(__name__)

GAP_FLOOR = 1e-8
GAP_STEP_FACTOR = 10.0
FRAME_TOL = 1e-8
TIE_TOL = 1e-12


@dataclass
class EigenPath:
    """Discretized trajectory of eigenvalues and sign/order-aligned frames."""

    times: np.ndarray
    eigenvalues: np.ndarray  # (steps+1, N)
    frames: np.ndarray       # (steps+1, N, N)

    @property
    def N(self):
        return self.eigenvalues.shape[1]

    def validate(self):
        eye = np.eye(self.N)
        for U in self.frames:
            if np.max(np.abs(U.T @ U - eye)) > FRAME_TOL:
                raise ValueError("frame lost orthonormality")
        if np.any(np.diff(self.eigenvalues, axis=1) < 0):
            raise ValueError("eigenvalue rows must be nondecreasing")
        for k in range(len(self.times) - 1):
            overlaps = np.einsum("ij,ij->j", self.frames[k], self.frames[k + 1])
            if np.any(overlaps <= 0):
                raise ValueError("consecutive frames are not sign aligned")
        return self


def _sde_step(lam, U, h, S, N):
    """One Euler-Maruyama step of the coupled spectral dynamics.

    S is a symmetric noise matrix with unit off-diagonal variance and
    variance 2 on the diagonal.
    """
    gaps = lam[:, None] - lam[None, :]
    np.fill_diagonal(gaps, np.inf)
    inv = 1.0 / gaps
    lam_new = lam + math.sqrt(h / N) * np.diag(S) + (h / N) * inv.sum(axis=1)
    W = math.sqrt(h / N) * S / gaps.T
    np.fill_diagonal(W, 0.0)
    decay = 0.5 * (h / N) * (inv**2).sum(axis=0)
    U_new = U + U @ W - U * decay[None, :]
    Q, R = np.linalg.qr(U_new)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Q = Q * signs[None, :]
    flips = np.sign(np.einsum("ij,ij->j", U, Q))
    flips[flips == 0] = 1.0
    return lam_new, Q * flips[None, :]


def integrate_see(dec0, t, dt, seed, gap_floor=GAP_FLOOR):
    """Euler-Maruyama path of the spectral flow started at a decomposition.

    Steps shrink adaptively while the minimal eigenvalue gap is below
    10 * dt * N; a gap under the hard floor aborts with "eigenvalue collision".
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be >= 0")
    lam = dec0.eigenvalues.copy()
    U = dec0.frame.copy()
    N = lam.shape[0]
    gap = float(np.min(np.diff(lam)))
    if gap <= GAP_STEP_FACTOR * dt * N:
        log.warning("initial spectrum gap %.3g below 10*dt*N = %.3g", gap, GAP_STEP_FACTOR * dt * N)
    times = [0.0]
    lams = [lam.copy()]
    frames = [U.copy()]
    rng = stream(seed)
    s = 0.0
    while s < t - 1e-15:
        h = min(dt, t - s)
        gap = float(np.min(np.diff(lam)))
        if gap < gap_floor:
            raise RuntimeError(f"eigenvalue collision: min gap {gap:.3g} at s = {s:.6g}")
        while gap <= GAP_STEP_FACTOR * h * N and h > 1e-15:
            h *= 0.5
        while True:
            G = rng.standard_normal((N, N))
            S = (G + G.T) / math.sqrt(2.0)
            lam_new, U_new = _sde_step(lam, U, h, S, N)
            if np.all(np.diff(lam_new) > 0):
                break
            h *= 0.5  # crossing within the step; retry smaller
            if h < 1e-15:
                raise RuntimeError(f"eigenvalue collision at s = {s:.6g}")
        lam, U = lam_new, U_new
        s += h
        times.append(s)
        lams.append(lam.copy())
        frames.append(U.copy())
    return EigenPath(np.array(times), np.array(lams), np.array(frames))


def see_endpoint_ensemble(lam0, frame0, t, dt, n_paths, seed):
    """Endpoint (eigenvalues, frames) of n_paths independent spectral-flow runs.

    Vectorized over paths with a fixed step; meant for Monte Carlo checks on
    well-separated spectra.  Collisions below the hard floor abort.
    """
    lam0 = np.asarray(lam0, dtype=float)
    N = lam0.shape[0]
    steps = max(1, int(round(t / dt)))
    h = t / steps if steps else 0.0
    lam = np.tile(lam0, (n_paths, 1))
    U = np.tile(np.asarray(frame0, dtype=float), (n_paths, 1, 1))
    rng = stream(seed)
    for _ in range(steps):
        G = rng.standard_normal((n_paths, N, N))
        S = (G + G.transpose(0, 2, 1)) / math.sqrt(2.0)
        gaps = lam[:, :, None] - lam[:, None, :]
        idx = np.arange(N)
        gaps[:, idx, idx] = np.inf
        if float(np.min(np.abs(gaps))) < GAP_FLOOR:
            raise RuntimeError("eigenvalue collision in ensemble run")
        inv = 1.0 / gaps
        diag_noise = np.einsum("bii->bi", S)
        lam = lam + math.sqrt(h / N) * diag_noise + (h / N) * inv.sum(axis=2)
        W = math.sqrt(h / N) * S / gaps.transpose(0, 2, 1)
        W[:, idx, idx] = 0.0
        decay = 0.5 * (h / N) * (inv**2).sum(axis=1)
        cols = np.ascontiguousarray((U + U @ W - U * decay[:, None, :]).transpose(2, 1, 0))
        _cgs2(cols)
        U = np.ascontiguousarray(cols.transpose(2, 1, 0))
        # Rare crossings: restore ascending order pathwise.
        order = np.argsort(lam, axis=1)
        if not np.array_equal(order, np.tile(idx, (n_paths, 1))):
            lam = np.take_along_axis(lam, order, axis=1)
            U = np.take_along_axis(U, order[:, None, :], axis=2)
    return lam, U


def align_frames(previous, current):
    """Permute and sign-flip `current`'s columns to track `previous`.

    The permutation maximizes total absolute overlap (exact assignment);
    near-ties are resolved toward lower indices and flagged in the log.
    """
    overlap = previous.T @ current
    cost = np.abs(overlap)
    row, col = linear_sum_assignment(-cost)
    perm = np.empty_like(col)
    perm[row] = col
    top2 = np.sort(cost, axis=1)[:, -2:]
    if np.any(top2[:, 1] - top2[:, 0] < TIE_TOL):
        log.warning("align_frames: ambiguous assignment resolved by lowest index")
    aligned = current[:, perm]
    signs = np.sign(np.einsum("ij,ij->j", previous, aligned))
    signs[signs == 0] = 1.0
    return aligned * signs[None, :]


@dataclass
class MomentRequest:
    """Monte Carlo request for one colored eigenvector moment."""

    configuration: tuple
    vectors: np.ndarray  # (N, n) columns are test vectors
    ensemble: object
    t: float
    trials: int
    seed: int


def _validate_request(req):
    x = tuple(req.configuration)
    N = req.ensemble.N
    occ = occupancies(x, N)
    if np.any(occ % 2 != 0):
        raise ValueError("vanishes by sign symmetry: odd occupancy in the configuration")
    V = np.asarray(req.vectors, dtype=float)
    if V.shape != (N, len(x)):
        raise ValueError(f"vectors must be {N} x {len(x)} columns")
    norms = np.linalg.norm(V, axis=0)
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        raise ValueError("test vectors must be unit")
    return x, V


def overlap_samples(ensemble, t, seed, trials, indices, vectors, threads=1):
    """Per-trial overlaps <u_i(t), w> of eigenvectors with test vectors.

    Returns an array (trials, len(indices), vectors.shape[1]) whose entry
    [k, r, c] is the overlap of eigenvector indices[r] of trial k with column
    c of `vectors`.  Trial k samples H from `ensemble` on stream (seed, k, 0)
    and, for t > 0, adds sqrt(t) GOE on stream (seed, k, 1); it solves only
    the eigenpairs min(indices)..max(indices).  Each value depends on
    (seed, k) alone, so every thread count gives the same array; with one
    thread the trials run in the calling thread.
    """
    lo, hi = min(indices), max(indices)
    cols = [i - lo for i in indices]
    W = np.asarray(vectors, dtype=float)

    def run_trial(k):
        H = sample_ensemble(ensemble, seed=(seed, k, 0))
        if t > 0:
            H = perturb_gaussian(H, t, (seed, k, 1))
        return eig_sym(H, subset=(lo, hi)).frame[:, cols].T @ W

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_trial, range(trials)))
    else:
        rows = [run_trial(k) for k in range(trials)]
    return np.array(rows).reshape(trials, len(cols), W.shape[1])


def moment_samples(req, threads=1):
    """Per-trial values of pi^{-1/2} N^{n/2} prod <u_{x_a}(t), v_a>.

    N is the matrix dimension, not the number of eigenpairs a trial solves.
    Each trial samples a fresh base matrix and, for t > 0, an independent
    Gaussian perturbation; trial streams are fixed by (seed, trial).
    """
    x, V = _validate_request(req)
    n = len(x)
    N = req.ensemble.N
    pi_root = math.sqrt(pi_weight(x, N))
    sites = sorted(set(x))
    overlaps = overlap_samples(req.ensemble, req.t, req.seed, req.trials, sites, V,
                               threads=threads)
    factors = overlaps[:, [sites.index(i) for i in x], np.arange(n)]
    return N ** (n / 2.0) * np.prod(factors, axis=1) / pi_root


def estimate_moment(req, threads=1):
    """(estimate, stderr) of the colored eigenvector moment observable."""
    values = moment_samples(req, threads=threads)
    est = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return est, stderr
