"""Coupled eigenvalue/eigenvector stochastic dynamics and Monte Carlo moment
estimation.

The SEE (stochastic eigenstate equation, coupled to Dyson Brownian motion) has
one Euler-Maruyama step, `_see_step`, with the path axis last: eigenvalues are
(N, b) and frames (N, N, b), column-major as `spectral._cgs2` consumes them.
One driver, `_see_paths`, marches a batch (`see_endpoint_ensemble`) or one
recorded path (`integrate_see`); a path that steps from a gap <= 10 h N, or
crosses, is redone alone on the Brownian-bridge split of the same increment,
which keeps the path law.  The paths validate the configuration-space
generator; Monte Carlo trials use one-shot direct perturbation and a fresh
eigensolve of only the needed eigenpairs, exact in distribution.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from ._rng import stream
from .configspace import occupancies, pi_weight
from .ensembles import perturb_gaussian, sample_ensemble
from .spectral import _cgs2, _check_unit, eig_sym

log = logging.getLogger(__name__)

GAP_FLOOR = 1e-8
GAP_STEP_FACTOR = 10.0
FRAME_TOL = 1e-8


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


def _orthonormalize(U):
    """Orthonormal Q factors of an (N, N, b) column-major batch, which may be overwritten.

    U[j, :, p] is column j of path p's matrix, the layout `spectral._cgs2`
    consumes.  One matrix goes through Householder QR, LAPACK's dgeqrf and
    dorgqr on the Fortran-ordered view U[:, :, 0].T with the queried
    workspace, as `np.linalg.qr` calls them; a batch goes through CGS2,
    which is faster there.  Column signs are left to the caller.
    """
    if U.shape[2] == 1:
        A = U[:, :, 0].T
        # The workspace sets the block size above N = 128, so query it as numpy does.
        lwork = int(lapack.dgeqrf_lwork(*A.shape)[0])
        qr, tau, _, info = lapack.dgeqrf(A, lwork=lwork, overwrite_a=True)
        Q, _, info_q = lapack.dorgqr(qr, tau, lwork=lwork, overwrite_a=True)
        if info or info_q:
            raise RuntimeError(f"Householder QR failed: LAPACK info {info}, {info_q}")
        return Q.T[:, :, None]
    _cgs2(U)
    return U


def _see_step(lam, U, h, S):
    """One Euler-Maruyama step of the SEE for a batch of paths, path axis last.

    lam is (N, b) and S is an (N, N, b) stack of symmetric noise matrices with
    unit off-diagonal variance and variance 2 on the diagonal.  U holds the
    frames column-major: U[j, i, p] is entry (i, j) of path p's frame, so
    column j is U[j].  Every elementwise op and reduction runs over the
    contiguous path axis.  A gap under GAP_FLOOR aborts with "eigenvalue
    collision".  Each new column is flipped to have a nonnegative overlap with
    the old one.
    """
    N = lam.shape[0]
    idx = np.arange(N)
    gaps = lam[:, None, :] - lam[None, :, :]
    gaps[idx, idx] = np.inf
    gap = float(np.abs(gaps).min())
    if gap < GAP_FLOOR:
        raise RuntimeError(f"eigenvalue collision: min gap {gap:.3g} below {GAP_FLOOR:g}")
    inv = 1.0 / gaps
    # Both sums below run over the leading axis, which numpy adds in index
    # order for every batch size; an inner axis would be summed pairwise when
    # b = 1 and in sequence otherwise.  inv is antisymmetric, so the Coulomb
    # drift sum_j inv[i, j] is exactly -sum_j inv[j, i].
    lam_new = lam + math.sqrt(h / N) * np.einsum("iib->ib", S) - (h / N) * inv.sum(axis=0)
    W = math.sqrt(h / N) * S
    W /= gaps.transpose(1, 0, 2)
    W[idx, idx] = 0.0
    inv *= inv
    decay = 0.5 * (h / N) * inv.sum(axis=0)
    # U @ W per path: one BLAS product for a single path, and for a batch an
    # elementwise contraction over k along the path axis, which calls no BLAS.
    if U.shape[2] == 1:
        UW = (W[:, :, 0].T @ U[:, :, 0])[:, :, None]
    else:
        UW = np.einsum("kjb,kib->jib", W, U)
    UW += U  # U + U W - U decay, in place; W is not read again
    UW -= np.multiply(U, decay[:, None, :], out=W)
    Q = _orthonormalize(UW)
    flips = np.sign(np.einsum("jib,jib->jb", U, Q))
    flips[flips == 0] = 1.0
    Q *= flips[:, None, :]
    return lam_new, Q


def _symmetric_noise(rng, b, N, G=None, out=None):
    """Path-last noise out[i, j, p] = (G[p, i, j] + G[p, j, i]) / sqrt(2).

    G = rng.standard_normal((b, N, N)) is drawn in one call, as for a leading
    path axis, so every path sees the same values whatever the layout.  G and
    out may be passed as reused (b, N, N) and (N, N, b) buffers.
    """
    G = rng.standard_normal((b, N, N), out=G)
    if out is None:
        out = np.empty((N, N, b))
    np.add(G.transpose(1, 2, 0), G.transpose(2, 1, 0), out=out)
    return np.divide(out, math.sqrt(2.0), out=out)


def _rejected(lam, lam_new, h):
    """Paths of a step that started from a gap <= 10 h N or ended unordered."""
    return ((np.diff(lam, axis=0).min(axis=0) <= GAP_STEP_FACTOR * h * lam.shape[0])
            | (np.diff(lam_new, axis=0).min(axis=0) <= 0.0))


def _refine(lam, U, h, S, rng, trail):
    """Advance one path over h by half steps on the Brownian-bridge split of S.

    With Z drawn from rng like S, (S + Z)/sqrt(2) and (S - Z)/sqrt(2) sum to
    sqrt(2) S, and the first is the increment's midpoint given that sum.  A
    half that `_rejected` flags is split again, down to a step of 1e-15; a
    half whose start gap the rule rejects is split without being stepped.
    """
    if h < 1e-15:
        raise RuntimeError("eigenvalue collision: step refined below 1e-15")
    Z = _symmetric_noise(rng, 1, lam.shape[0])
    for half in ((S + Z) / math.sqrt(2.0), (S - Z) / math.sqrt(2.0)):
        # A "step" to lam itself is rejected for its start gap alone.
        step = None if _rejected(lam, lam, h / 2)[0] else _see_step(lam, U, h / 2, half)
        if step is None or _rejected(lam, step[0], h / 2)[0]:
            step = _refine(lam, U, h / 2, half, rng, trail)
        elif trail is not None:
            trail.append((h / 2, *step))
        lam, U = step
    return lam, U


def _see_paths(lam, U, hs, seed, trail=None):
    """Endpoint of paths (lam (N, b), frames U (N, N, b)) marched over the steps hs.

    Step k moves the batch on one noise block from stream(seed); each path
    `_rejected` flags is redone alone by `_refine` on its slice of that block.
    A batch draws step k+1's noise on one worker thread scoped to the call
    while step k runs; one path draws inline.  `trail` receives (h, lam, U)
    for every accepted step of one path.
    """
    N, b = lam.shape
    rng = stream(seed)
    G, noise = np.empty((b, N, N)), np.empty((2, N, N, b))
    refined, ahead = 0, None
    with ThreadPoolExecutor(max_workers=1) as prefetch:
        for k, h in enumerate(hs):
            S = ahead.result() if ahead else _symmetric_noise(rng, b, N, G, noise[k % 2])
            if b > 1 and k + 1 < len(hs):
                ahead = prefetch.submit(_symmetric_noise, rng, b, N, G, noise[(k + 1) % 2])
            lam_new, U_new = _see_step(lam, U, h, S)
            redo = np.flatnonzero(_rejected(lam, lam_new, h))
            for p in redo:  # bridge key ends in 1: stream(seed, 0, 0) is stream(seed)
                lam_new[:, p:p + 1], U_new[:, :, p:p + 1] = _refine(
                    lam[:, p:p + 1], U[:, :, p:p + 1], h, S[:, :, p:p + 1],
                    stream(seed, k, p, 1), trail)
            if trail is not None and not redo.size:
                trail.append((h, lam_new, U_new))
            refined += redo.size
            lam, U = lam_new, U_new
    if refined:
        log.warning("SEE: refined %d of %d path-steps by Brownian bridge", refined, b * len(hs))
    return lam, U


def integrate_see(dec0, t, dt, seed):
    """Euler-Maruyama path of the spectral flow from a decomposition, by `_see_paths`
    on one path over steps of dt (the last one ending at t).  Every accepted step
    is recorded, bridge sub-steps included."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be >= 0")
    hs, s = [], 0.0
    while s < t - 1e-15:
        hs.append(min(dt, t - s))
        s += hs[-1]
    trail = [(0.0, dec0.eigenvalues[:, None], dec0.frame.T[:, :, None])]
    _see_paths(*trail[0][1:], hs, seed, trail)
    h, lam, U = map(np.array, zip(*trail))
    return EigenPath(np.cumsum(h), lam[:, :, 0].copy(), U[:, :, :, 0].transpose(0, 2, 1).copy())


def see_endpoint_ensemble(lam0, frame0, t, dt, n_paths, seed):
    """Endpoint (eigenvalues (n_paths, N), frames (n_paths, N, N)) of n_paths
    independent spectral-flow runs, by `_see_paths` over round(t/dt) equal steps."""
    steps = max(1, int(round(t / dt)))
    lam, U = _see_paths(np.repeat(np.asarray(lam0, dtype=float)[:, None], n_paths, axis=1),
                        np.repeat(np.asarray(frame0, dtype=float).T[:, :, None], n_paths, axis=2),
                        [t / steps] * steps, seed)
    return np.ascontiguousarray(lam.T), np.ascontiguousarray(U.transpose(2, 1, 0))


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
    _check_unit(V.T, "test vectors")
    return x, V


def overlap_samples(ensemble, t, seed, trials, indices, vectors):
    """Per-trial overlaps <u_i(t), w> of eigenvectors with test vectors.

    Returns an array (trials, len(indices), vectors.shape[1]) whose entry
    [k, r, c] is the overlap of eigenvector indices[r] of trial k with column
    c of `vectors`.  Trial k samples H from `ensemble` on stream (seed, k, 0)
    and, for t > 0, adds sqrt(t) GOE on stream (seed, k, 1); it solves only
    the eigenpairs min(indices)..max(indices).  Trials run in the calling
    thread; row k depends on (seed, k) alone, and by roundoff (up to 8.1e-14
    between 1 and 2 threads) on the BLAS thread count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    lo, hi = min(indices), max(indices)
    cols = [i - lo for i in indices]
    W = np.asarray(vectors, dtype=float)
    out = np.empty((trials, len(cols), W.shape[1]))
    for k in range(trials):
        H = sample_ensemble(ensemble, seed=(seed, k, 0))
        if t > 0:
            H = perturb_gaussian(H, t, (seed, k, 1))
        out[k] = eig_sym(H, subset=(lo, hi)).frame[:, cols].T @ W
    return out


def moment_samples(req):
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
    overlaps = overlap_samples(req.ensemble, req.t, req.seed, req.trials, sites, V)
    factors = overlaps[:, [sites.index(i) for i in x], np.arange(n)]
    return N ** (n / 2.0) * np.prod(factors, axis=1) / pi_root


def estimate_moment(req):
    """(estimate, stderr) of the colored eigenvector moment observable."""
    values = moment_samples(req)
    est = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return est, stderr
