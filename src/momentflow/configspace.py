"""Even particle configurations, the reversible measure, move/exchange
operators, kernel projections, conditional expectations, local projections,
and configuration distance.

Sites are 0-based: a configuration is a point x in {0..N-1}^n, and membership
in the even space requires every site occupancy to be even.  A space stores
its configurations once, as the rows of a read-only (size, n) int64 array in
lexicographic order; functions taking one configuration accept any length-n
integer sequence.  Functions over a space are numpy arrays indexed by that
order.  Helpers over a whole space read label structure through each
configuration's mixed-radix code and the bitmask of its tied label pairs, not
by looping over configurations in Python.
"""

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._rng import stream
from .spectral import _cgs2

SIZE_GUARD = 10**6
# Haar samples orthonormalized together by haar_kernel_entries.
HAAR_CHUNK = 4096


def double_factorial(k):
    """Number of perfect matchings of k labels: 1*3*5*...*(k-1) for even k >= 0."""
    if k % 2 != 0 or k < 0:
        raise ValueError("even nonnegative occupancy expected")
    out = 1
    for m in range(k - 1, 0, -2):
        out *= m
    return out


def occupancies(x, N):
    """Particle numbers n_i(x) for each site."""
    return np.bincount(np.asarray(x, dtype=np.intp), minlength=N)


def pi_weight(x, N):
    """Reversible weight prod_i (n_i(x)!!)^2."""
    w = 1
    for k in occupancies(x, N):
        w *= double_factorial(int(k)) ** 2
    return w


def count_even_configurations(N, n):
    """|Lambda^n| without enumeration (site-by-site convolution)."""
    table = {0: 1}
    for _ in range(N):
        nxt = {}
        for filled, ways in table.items():
            for k in range(0, n - filled + 1, 2):
                nxt[filled + k] = nxt.get(filled + k, 0) + ways * math.comb(n - filled, k)
        table = nxt
    return table.get(n, 0)


@dataclass
class ConfigurationSpace:
    """Enumerated even configuration space with measure pi and site occupancies;
    configs is the read-only (size, n) array of configurations, one per row."""

    N: int
    n: int
    configs: np.ndarray
    pi: np.ndarray
    occ: np.ndarray = field(repr=False)

    @property
    def size(self):
        return len(self.configs)

    def idx(self, x):
        """Position of x in the enumeration, found by its code; KeyError when
        x is not a configuration of the space."""
        key = tuple(x)
        a = np.array(key)
        # The code identifies x only for n sites in [0, N).
        if (a.shape != (self.n,) or a.dtype.kind not in "iu"
                or not np.all((0 <= a) & (a < self.N))):
            raise KeyError(key)
        code = a.astype(np.int64) @ self._radix
        ix = int(np.searchsorted(self._codes, code))
        if ix == self.size or self._codes[ix] != code:
            raise KeyError(key)
        return ix

    def delta(self, x):
        """delta_x with the <delta_x, f> = f(x) normalization."""
        f = np.zeros(self.size)
        ix = self.idx(x)
        f[ix] = 1.0 / self.pi[ix]
        return f

    def norm_l1(self, f):
        return float(np.sum(self.pi * np.abs(f)))

    def norm_l2(self, f):
        return float(math.sqrt(np.sum(self.pi * np.asarray(f) ** 2)))

    def inner(self, f, g):
        return float(np.sum(self.pi * np.asarray(f) * np.asarray(g)))

    @functools.cached_property
    def _radix(self):
        """Place values N^{n-1}, ..., 1 of the mixed-radix configuration code."""
        return self.N ** np.arange(self.n - 1, -1, -1, dtype=np.int64)

    @functools.cached_property
    def _codes(self):
        """Codes x_1 N^{n-1} + ... + x_n, sorted because the enumeration is
        lexicographic."""
        return self.configs @ self._radix

    def _locate(self, codes):
        """Indices of the configurations with the given codes, by binary search."""
        ix = np.searchsorted(self._codes, codes)
        if not np.array_equal(self._codes[np.minimum(ix, self.size - 1)], codes):
            raise AssertionError("a configuration code is missing from the enumeration")
        return ix

    @functools.cached_property
    def _ties(self):
        """Row r is the pair mask of configuration r: the bit of pair a < b is
        set when x_a = x_b.  Equal rows mean equal position partitions."""
        X = self.configs
        return _pair_mask(X[:, :, None] == X[:, None, :])

    @functools.cached_property
    def _stencil(self):
        """The generator's off-diagonal pattern, built on first assembly."""
        return _build_stencil(self)


def _pair_mask(tied):
    """Bits of the label pairs a < b with tied[..., a, b], packed little-endian
    into bytes along the last axis; bitwise AND and NOT act as set operations."""
    a, b = np.triu_indices(tied.shape[-1], 1)
    return np.packbits(tied[..., a, b], axis=-1, bitorder="little")


def _even_part_multisets(n):
    """Unordered lists of even parts >= 2 summing to n."""
    out = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            out.append(list(acc))
            return
        for part in range(min(largest, remaining), 1, -2):
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


def _label_groups(parts):
    """Every way to split labels 0..n-1 into ordered groups of the given sizes,
    as the rows g of an (n! / prod parts_i!, n) array with g[a] the group of
    label a.

    Groups are attached to distinct sites by the caller, so every ordered
    assignment is a distinct configuration.
    """
    G = np.zeros((1, 0), dtype=np.intp)
    room = np.array([parts])  # places left in each group, per row
    for _ in range(sum(parts)):
        r, g = np.nonzero(room)
        G = np.column_stack([G[r], g])
        room = room[r]
        room[np.arange(r.size), g] -= 1
    return G


def enumerate_space(N, n):
    """Complete duplicate-free enumeration of the even configuration space.

    Configurations are generated occupancy pattern by occupancy pattern, as
    site tuples indexed by label-to-group arrays, and sorted by code, which is
    lexicographic order.  The count is computed up front and refused when
    above the size guard.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("particle number must be even and >= 2")
    total = count_even_configurations(N, n)
    if total > SIZE_GUARD:
        raise ValueError(f"space too large: |Lambda^{n}_{N}| = {total} > {SIZE_GUARD}")
    blocks = []
    for parts in _even_part_multisets(n):
        k = len(parts)
        if k > N:
            continue
        sites = np.array(list(itertools.permutations(range(N), k)), dtype=np.int64)
        # Equal parts on an unordered site set would repeat; keep the
        # canonical representative where equal-size runs have ascending sites.
        run = np.flatnonzero(np.diff(parts) == 0)
        sites = sites[np.all(sites[:, run] < sites[:, run + 1], axis=1)]
        blocks.append(sites[:, _label_groups(parts)].reshape(-1, n))
    X = np.concatenate(blocks)
    if len(X) != total:
        raise AssertionError(f"enumeration produced {len(X)} of {total} configurations")
    X = X[np.argsort(X @ (N ** np.arange(n - 1, -1, -1, dtype=np.int64)))]
    # The cached codes, ties and stencil are derived from the rows.
    X.flags.writeable = False
    occ = np.bincount((X + N * np.arange(total)[:, None]).ravel(),
                      minlength=total * N).reshape(total, N)
    # (k!!)^2 by occupancy k; exact in int64 up to n = 20 (larger n overflows
    # here, loudly).
    weights = np.array([double_factorial(k) ** 2 if k % 2 == 0 else 0
                        for k in range(n + 1)], dtype=np.int64)
    pi = np.prod(weights[occ], axis=1).astype(float)
    # occ and pi are derived from the rows as well, and the cached stencil
    # copies occ at its first assembly.
    occ.flags.writeable = False
    pi.flags.writeable = False
    return ConfigurationSpace(N=N, n=n, configs=X, pi=pi, occ=occ)


def jump(x, kind, a, b, i, j):
    """Two-particle jump (move) or swap, a no-op when the indicator is off.

    move:  both particles a, b relocate from site i to site j when x_a = x_b = i.
    swap:  particles a at site i and b at site j exchange sites.
    """
    if a == b:
        raise ValueError("labels a and b must differ")
    x = tuple(x)
    if kind == "move":
        if x[a] == i and x[b] == i:
            y = list(x)
            y[a] = j
            y[b] = j
            return tuple(y)
        return x
    if kind == "swap":
        if x[a] == i and x[b] == j:
            y = list(x)
            y[a] = j
            y[b] = i
            return tuple(y)
        return x
    raise ValueError(f"unknown jump kind {kind!r}")


@dataclass
class WeightedOperator:
    """Linear operator on functions over a configuration space.

    The stored matrix acts in the function representation f -> mat @ f.
    is_pi_self_adjoint records what the constructor guarantees.
    """

    space: ConfigurationSpace
    mat: object
    is_pi_self_adjoint: bool = False

    def dense(self):
        return self.mat.toarray() if sp.issparse(self.mat) else np.asarray(self.mat)

    def reversibility_defect(self):
        """max |Pi mat - mat^T Pi|; zero for pi-self-adjoint operators."""
        A = self.dense()
        pi = self.space.pi
        S = pi[:, None] * A
        return float(np.max(np.abs(S - S.T)))

    def row_sum_defect(self):
        """max |mat @ 1|; zero for generators."""
        ones = np.ones(self.space.size)
        return float(np.max(np.abs(self.mat @ ones)))


@dataclass(frozen=True)
class _Stencil:
    """The generator B(C) on one space as one row per stored CSR slot, in the
    canonical order of the pattern (indptr, indices), diagonal slots included.

    Slot k holds c_ij * num[k] / den[k], where site[k] = i * N + j indexes C
    raveled with a trailing 0.0; move[k] marks the moves.  A move is stored
    once for both orderings of its label pair, with num / den =
    2 (n_j+1) / (n_i-1); an exchange has num / den = -2 / 1, the sign of the
    full generator.  Keeping the weight as a fraction makes c_ij * num / den
    round exactly as the per-ordering sum 2 * (c_ij (n_j+1) / (n_i-1)) does,
    and c * (-2) / 1 as -(c * 2 / 1).  Row r's diagonal is slot diag[r]; its
    site is the trailing zero, with num 0 and den 1, so it holds 0.0 until
    the row is summed.
    """

    site: np.ndarray
    num: np.ndarray
    den: np.ndarray
    move: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray


def _build_stencil(space):
    """The stencil, with move targets read off per-pair site tables and the
    CSR pattern merged from sorted runs.

    The rows tying labels a and b that agree off the pair hold the pair once
    at each site, since moving it keeps every occupancy even.  A stable sort
    by pair and by the code without the pair lays each such class out as a
    table row whose column j is the member with the pair at site j.  A row
    that misses a site or mixes keys raises AssertionError, as `_locate` does.
    """
    N, n, size = space.N, space.n, space.size
    X, radix, codes, occ = space.configs, space._radix, space._codes, space.occ
    a, b = np.triu_indices(n, 1)  # the label pairs in itertools.combinations order
    tied = X[:, a] == X[:, b]
    sites = np.arange(N)
    # Move: labels a and b share site i and relocate together to j != i.
    p, r = np.nonzero(tied.T)  # pair by pair, rows ascending
    i = X[r, a[p]]
    key = p * (N * radix[0]) + codes[r] - i * (radix[a] + radix[b])[p]
    order = np.argsort(key, kind="stable")
    if not (np.array_equal(i[order], np.tile(sites, r.size // N))
            and np.array_equal(key[order], np.repeat(key[order][::N], N))):
        raise AssertionError("a move target is missing from the enumeration")
    cls = np.empty_like(order)
    cls[order] = np.arange(r.size) // N
    keep = sites != i[:, None]
    move = (np.repeat(r, N - 1), r[order].reshape(-1, N)[cls][keep],
            (i[:, None] * N + sites)[keep], (2.0 * (occ + 1.0))[r][keep],
            np.repeat(occ[r, i] - 1.0, N - 1))
    # Exchange: labels a and b on different sites trade places.
    p, r = np.nonzero(~tied.T)
    xa, xb = X[r, a[p]], X[r, b[p]]
    swap = (r, space._locate(codes[r] + (xb - xa) * (radix[a] - radix[b])[p]),
            np.minimum(xa, xb) * N + np.maximum(xa, xb), np.full(r.size, -2.0), np.ones(r.size))
    # Diagonal: row r's slot reads the trailing zero of C, so it holds 0.0.
    rows = np.arange(size)
    diag = (rows, rows, np.full(size, N * N), np.zeros(size), np.ones(size))
    row, col, site, num, den = (np.concatenate(parts) for parts in zip(move, swap, diag))
    moves = move[0].size
    del move, swap, diag  # copied into the arrays above; freed before the pattern is built
    # Each pair's moves and exchanges, and the diagonal, ascend in (row, col),
    # so the stable sort merges sorted runs.  Index dtype as scipy's; site
    # stays intp, which np.take reads without a converted copy.
    idx = np.int32 if row.size <= np.iinfo(np.int32).max else np.int64
    perm = np.argsort(row * size + col, kind="stable")
    # Row r holds its diagonal, an exchange per untied pair, N - 1 moves per tied one.
    indptr = np.concatenate([[0], np.cumsum(1 + a.size + (N - 2) * tied.sum(axis=1))]).astype(idx)
    indices = col[perm].astype(idx)
    # Every generator without a stored zero shares these as its pattern.
    indptr.flags.writeable = indices.flags.writeable = False
    return _Stencil(site=site[perm].astype(np.intp, copy=False), num=num[perm],
                    den=den[perm], move=perm < moves,
                    indptr=indptr, indices=indices,
                    diag=np.flatnonzero(perm >= row.size - size))


def _validate_coeffs(space, coeffs):
    C = np.asarray(coeffs, dtype=float)
    if C.shape != (space.N, space.N):
        raise ValueError(f"coefficient map must be {space.N}x{space.N}")
    if not np.all(np.isfinite(C)):
        raise ValueError("coefficients must be finite")
    if not np.array_equal(C, C.T):
        raise ValueError("coefficient map must be symmetric")
    if np.any(C < 0):
        raise ValueError("coefficients must be nonnegative")
    if np.any(np.diag(C) != 0):
        raise ValueError("coefficient diagonal must be zero")
    return C


def assemble_generator(space, coeffs, part="full"):
    """Sum over site pairs of c_ij times the requested generator part.

    full:           move minus exchange
    move-only:      pair relocation with occupancy weights (n_j+1)/(n_i-1)
    exchange-only:  partner swap with weight 2
    All three have zero row sums and are self-adjoint for the measure pi.

    B(C) is linear in C on a sparsity pattern fixed by the space, so every
    generator is CSR on the space's cached stencil: one gather-multiply of
    c_ij into the stored slots in CSR order, then each diagonal is minus its
    row's sum in column order, and zeros (+0.0 or -0.0) are dropped.
    """
    if part not in ("full", "move-only", "exchange-only"):
        raise ValueError(f"unknown part {part!r}")
    C = _validate_coeffs(space, coeffs)
    st = space._stencil
    data = np.take(np.append(C.ravel(), 0.0), st.site)
    data *= st.num
    data /= st.den
    if part == "move-only":
        data[~st.move] = 0.0
    elif part == "exchange-only":
        data[st.move] = 0.0
        np.negative(data, out=data)
    data[st.diag] = -np.add.reduceat(data, st.indptr[:-1])
    # Every matrix shares the stencil's read-only pattern, except one with a
    # stored zero (+0.0 or -0.0): eliminate_zeros rewrites the index arrays in
    # place, so that one prunes its own copy.
    shape = (space.size, space.size)
    if data.all():
        mat = sp.csr_matrix((data, st.indices, st.indptr), shape=shape)
    else:
        mat = sp.csr_matrix((data, st.indices.copy(), st.indptr.copy()), shape=shape)
        mat.eliminate_zeros()
    return WeightedOperator(space, mat, is_pi_self_adjoint=True)


def pair_generator(space, i, j, part="full", c=1.0):
    """Single-pair operator B_ij (or its move/exchange part) with coefficient c."""
    C = np.zeros((space.N, space.N))
    C[i, j] = C[j, i] = c
    return assemble_generator(space, C, part=part)


def matchings(n, stabilizing=None):
    """All perfect matchings of [n] as involution tuples, optionally filtered
    to those stabilizing a configuration."""
    if n % 2 != 0 or n < 2:
        raise ValueError("perfect matchings need even n >= 2")
    out = []

    def rec(free, sigma):
        if not free:
            out.append(tuple(sigma))
            return
        a = free[0]
        for b in free[1:]:
            sigma[a], sigma[b] = b, a
            rec([c for c in free[1:] if c != b], sigma)
        sigma[a] = -1

    rec(list(range(n)), [-1] * n)
    if stabilizing is not None:
        x = tuple(stabilizing)
        out = [s for s in out if all(x[s[a]] == x[a] for a in range(n))]
    return out


def stabilizer_matching_count(x):
    """|M_n ∩ Stab(x)|, which equals sqrt(pi(x))."""
    return len(matchings(len(x), stabilizing=x))


def chi_indicator(space, sigma):
    """Stratum indicator chi_sigma(x) = 1{sigma . x = x} / sqrt(pi(x)).

    sigma fixes x exactly when every pair {a, sigma(a)} is tied in x, that is
    when the pair mask of sigma is contained in that of x.
    """
    moved = np.zeros((space.n, space.n), dtype=bool)
    moved[np.arange(space.n), sigma] = True
    want = _pair_mask(moved | moved.T)
    fixed = np.all((space._ties & want) == want, axis=1)
    f = np.zeros(space.size)
    f[fixed] = 1.0 / np.sqrt(space.pi[fixed])
    return f


def chi_matrix(space):
    """Columns chi_sigma for sigma in M_n, in matchings() order."""
    return np.column_stack([chi_indicator(space, sigma) for sigma in matchings(space.n)])


def pi_symmetrize(pi, A):
    """Symmetric part of Pi^{1/2} A Pi^{-1/2} for a dense matrix A and the
    measure values pi.

    For a pi-self-adjoint A the conjugate is already symmetric, with A's
    spectrum; symmetrizing removes the rounding so that eigh applies.
    """
    half = np.sqrt(pi)
    S = (half[:, None] * A) / half[None, :]
    return 0.5 * (S + S.T)


def kernel_projection(space):
    """Pi-orthogonal projection onto span{chi_sigma}: idempotent, pi-self-adjoint."""
    X = chi_matrix(space)
    half = np.sqrt(space.pi)
    Q, s, _ = np.linalg.svd(half[:, None] * X, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size else 0
    Q = Q[:, :rank]
    K = (Q @ Q.T) * (half[None, :] / half[:, None])
    return WeightedOperator(space, K, is_pi_self_adjoint=True)


def delta_pairing(space, op, x, y):
    """<delta_x, A delta_y> for a WeightedOperator A."""
    i, j = space.idx(x), space.idx(y)
    return op.mat[i, j] / space.pi[j]


def haar_kernel_entries(N, pairs, samples, seed):
    """Monte Carlo estimates of E[prod_a O_{x_a y_a}] for Haar orthogonal O.

    Haar measure is invariant under permutations of O's columns, so each
    pair's column sites y are relabelled 0..k_p-1 in order of first
    appearance without changing its expectation; the rows x stay.  Only the
    first k = max k_p columns are sampled: they are the thin Q factor, with a
    positive diagonal of R, of an N x k Gaussian matrix.  One stream of
    samples serves every pair.  Chunks of HAAR_CHUNK samples are
    orthonormalized together by Gram-Schmidt in the column-major layout; while
    one chunk is processed, a single worker thread draws the next from the
    stream in sample-major order, so the estimates equal a serial run's and do
    not depend on HAAR_CHUNK.  Raises ValueError for a pair whose x and y
    differ in length or hold a site outside [0, N).  Returns parallel lists
    (estimates, stderrs).
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    idx = []
    for x, y in pairs:
        x, y = np.asarray(x, dtype=np.intp), np.asarray(y, dtype=np.intp)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError(f"pair x={x.tolist()}, y={y.tolist()}: x and y must be "
                             "site sequences of equal length")
        if np.any((x < 0) | (x >= N) | (y < 0) | (y >= N)):
            raise ValueError(f"pair x={x.tolist()}, y={y.tolist()}: sites must lie in [0, {N})")
        first = {}
        idx.append((x, np.array([first.setdefault(s, len(first)) for s in y.tolist()],
                                dtype=np.intp)))
    k = max((int(y.max()) + 1 for _, y in idx if y.size), default=1)
    rng = stream(seed)
    sizes = [min(HAAR_CHUNK, samples - done) for done in range(0, samples, HAAR_CHUNK)]
    total = np.zeros(len(idx))
    total_sq = np.zeros(len(idx))

    def draw(m):
        # Column-major copy of the first k columns of m Gaussian matrices:
        # cols[j, i] = G[:, i, j].  Only numpy runs here, and it releases the
        # GIL while it fills and copies arrays.
        return np.ascontiguousarray(rng.standard_normal((m, k, N)).transpose(1, 2, 0))

    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, sizes[0])
        for m_next in sizes[1:] + [0]:
            cols = pending.result()
            if m_next:
                pending = pool.submit(draw, m_next)
            _cgs2(cols)
            for p, (x, y) in enumerate(idx):
                prod = np.prod(cols[y, x], axis=0)
                total[p] += float(prod.sum())
                total_sq[p] += float((prod**2).sum())
    means = total / samples
    variances = np.maximum(total_sq / samples - means**2, 0.0)
    return means.tolist(), np.sqrt(variances / samples).tolist()


def all_partitions(n):
    """Every partition of [n] as a list of sorted blocks (restricted growth order)."""
    out = []

    def rec(a, blocks):
        if a == n:
            out.append([sorted(b) for b in blocks])
            return
        for b in blocks:
            b.append(a)
            rec(a + 1, blocks)
            b.pop()
        blocks.append([a])
        rec(a + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def _validate_partition(partition, n):
    seen = set()
    for block in partition:
        if not block:
            raise ValueError("partition blocks must be nonempty")
        for a in block:
            if a in seen or not (0 <= a < n):
                raise ValueError("partition blocks must disjointly cover the labels")
            seen.add(a)
    if len(seen) != n:
        raise ValueError("partition blocks must cover all labels")


def compatible_permutations(partition, n):
    """Permutations moving every label within its own block."""
    _validate_partition(partition, n)
    blocks = [list(b) for b in partition]
    perms = []
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        sigma = [0] * n
        for block, image in zip(blocks, images):
            for a, target in zip(block, image):
                sigma[a] = target
        perms.append(tuple(sigma))
    return perms


def conditional_expectation(space, partition):
    """Averaging operator over the block-compatible label action: an orthogonal
    projection for the measure pi, stored sparse.

    A label permutation sigma maps x to sigma . x with (sigma . x)_a =
    x_{sigma(a)}, which acts on the whole space as one index array, the
    positions of the permuted codes X[:, sigma] @ radix.  Each entry is the
    sum of equal weights 1/|perms|, so its rounding does not depend on the
    order of the permutations.
    """
    perms = compatible_permutations(partition, space.n)
    X = space.configs
    cols = np.concatenate([space._locate(X[:, list(sigma)] @ space._radix)
                           for sigma in perms])
    rows = np.tile(np.arange(space.size), len(perms))
    M = sp.csr_matrix((np.full(cols.size, 1.0 / len(perms)), (rows, cols)),
                      shape=(space.size, space.size))
    return WeightedOperator(space, M, is_pi_self_adjoint=True)


def site_classes(N, y, ell):
    """Site equivalence generated by the open radius-ell balls at the particle
    positions of y; sites outside every ball are singletons.

    Returns class_id[site]; two sites are related exactly when ids match.
    """
    if ell < 1:
        raise ValueError("length scale ell must be >= 1")
    parent = list(range(N))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for site in set(y):
        lo = max(0, site - (ell - 1))
        hi = min(N - 1, site + (ell - 1))
        for i in range(lo, hi):
            ri, rj = find(i), find(i + 1)
            if ri != rj:
                parent[rj] = ri
    return np.array([find(i) for i in range(N)])


def local_neighborhood(space, y, ell):
    """Indices of configurations x with x_a ~ y_a for every label a."""
    classes = site_classes(space.N, tuple(y), ell)
    return np.flatnonzero(np.all(classes[space.configs] == classes[np.asarray(y)], axis=1))


def local_projection(space, y, ell):
    """Local averaging over configurations with refining position partitions.

    On the neighborhood, (P f)(x) is the pi-weighted mean of f over local z
    whose position partition refines that of x; rows and columns outside the
    neighborhood are zero.  P fixes the restricted stratum indicators but is
    not self-adjoint.

    z refines x exactly when the pair mask of z is contained in that of x, so
    rows with equal masks share their columns; there are at most Bell(n)
    distinct masks.
    """
    loc = local_neighborhood(space, y, ell)
    masks, kind = np.unique(space._ties[loc], axis=0, return_inverse=True)
    # refines[c, r]: the configurations of mask c refine those of mask r.
    refines = np.all((masks[:, None, :] & ~masks[None, :, :]) == 0, axis=2)
    M = np.zeros((space.size, space.size))
    for r in range(len(masks)):
        cols = loc[refines[kind, r]]
        weights = space.pi[cols]
        M[np.ix_(loc[kind == r], cols)] = weights / weights.sum()
    return WeightedOperator(space, M, is_pi_self_adjoint=False)


def config_distance(x, y, window):
    """Regular configuration distance sup_a |window ∩ [min(x_a,y_a), max(x_a,y_a))|,
    for one configuration x or a stack of them of shape (..., n).

    Symmetric and triangle-inequality compliant, but degenerate when the
    window misses the sweep intervals.
    """
    w = np.sort(np.asarray(window, dtype=np.intp))
    x, y = np.asarray(x), np.asarray(y)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    count = np.searchsorted(w, hi, side="left") - np.searchsorted(w, lo, side="left")
    return count.max(axis=-1)
