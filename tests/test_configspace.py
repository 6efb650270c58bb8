"""Configuration space: enumeration, measure, operators, kernels, projections."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sparse

from momentflow import configspace as cs
from momentflow import relaxation as rx
from momentflow._rng import stream


def brute_force_even(N, n):
    """Every x in {0..N-1}^n with even site occupancies, in lexicographic
    order: the base-N digits of the codes 0..N^n - 1, kept where the XOR of the
    one-hot site bits 2^{x_a} is zero (needs N <= 62)."""
    X = np.arange(N**n)[:, None] // N ** np.arange(n - 1, -1, -1) % N
    parity = np.bitwise_xor.reduce(np.left_shift(1, X), axis=1)
    return X[parity == 0]


def random_coeffs(N, seed, lo=0.1, hi=1.0):
    rng = stream(seed)
    C = rng.uniform(lo, hi, (N, N))
    C = 0.5 * (C + C.T)
    np.fill_diagonal(C, 0.0)
    return C


def coeffs_with_zeros(N, seed):
    """Random symmetric coefficients with about a third of the pairs switched off."""
    C = random_coeffs(N, seed)
    off = stream(seed, 1).random((N, N)) < 0.3
    C[off | off.T] = 0.0
    return C


def sym_measure(space, mat):
    half = np.sqrt(space.pi)
    S = (half[:, None] * mat) / half[None, :]
    return 0.5 * (S + S.T)


def test_enumeration_small_cases():
    sp = cs.enumerate_space(2, 2)
    assert sp.configs.dtype == np.int64
    assert np.array_equal(sp.configs, [(0, 0), (1, 1)])
    assert np.all(sp.pi == 1.0)


def test_enumeration_matches_brute_force():
    # Lambda^4_27 is the DBM workload's space.
    for N, n in [(3, 2), (4, 4), (5, 4), (3, 6), (27, 4), (8, 6)]:
        sp = cs.enumerate_space(N, n)
        assert np.array_equal(sp.configs, brute_force_even(N, n)), (N, n)
    assert cs.enumerate_space(10, 4).size == 280


def test_configs_are_read_only():
    # Rows are views of the array that the cached codes, ties and stencil are
    # derived from, so an in-place write must fail instead of desyncing them.
    sp = cs.enumerate_space(4, 4)
    x = sp.configs[1]
    with pytest.raises(ValueError):
        x[0] = 3
    with pytest.raises(ValueError):
        sp.configs[0, 0] = 1
    assert np.array_equal(sp.configs[1], (0, 0, 1, 1))
    # The occupancies and weights are derived from the same rows.
    with pytest.raises(ValueError):
        sp.occ[0, 0] = 7
    with pytest.raises(ValueError):
        sp.pi[0] = 3.0


def test_enumeration_guard(monkeypatch):
    with pytest.raises(ValueError, match="too large"):
        cs.enumerate_space(200, 6)
    monkeypatch.setattr(cs, "SIZE_GUARD", 64)
    with pytest.raises(ValueError, match="too large"):
        cs.enumerate_space(5, 4)  # 65 configurations


def test_idx_rejects_configurations_outside_the_space():
    sp = cs.enumerate_space(5, 4)
    assert [sp.idx(x) for x in sp.configs] == list(range(sp.size))
    # (0, 0, 5, 5) has the code 5 * 5 + 5 = 30 of (0, 1, 1, 0), which is in
    # the space; only the site range check tells them apart.
    assert [sp.idx((0, 1, 1, 0))] == np.flatnonzero(
        np.all(sp.configs == (0, 1, 1, 0), axis=1)).tolist()
    for x in [(0, 0, 5, 5), (0, 0, 1), (0, 0, 1, 1, 2, 2), (-1, -1, 0, 0), (0, 0, 0, 1)]:
        with pytest.raises(KeyError):
            sp.idx(x)


def test_pi_weights():
    assert cs.pi_weight((3, 3, 3, 3), 10) == 9
    assert cs.pi_weight((0, 0, 1, 1), 4) == 1
    assert cs.double_factorial(6) == 15
    sp = cs.enumerate_space(6, 4)
    for ix, x in enumerate(sp.configs):
        assert cs.stabilizer_matching_count(x) == round(math.sqrt(sp.pi[ix]))


def test_jump_semantics():
    assert cs.jump((0, 0, 1, 1), "move", 0, 1, 0, 1) == (1, 1, 1, 1)
    assert cs.jump((0, 0, 1, 1), "swap", 0, 2, 0, 1) == (1, 0, 0, 1)
    assert cs.jump((0, 0, 1, 1), "move", 0, 1, 2, 3) == (0, 0, 1, 1)
    with pytest.raises(ValueError, match="differ"):
        cs.jump((0, 0), "move", 1, 1, 0, 1)


def test_generator_two_site_matrix():
    sp = cs.enumerate_space(2, 2)
    B = cs.assemble_generator(sp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(B.dense(), [[-2.0, 2.0], [2.0, -2.0]])


def test_generator_annihilates_constants():
    sp = cs.enumerate_space(5, 4)
    B = cs.assemble_generator(sp, random_coeffs(5, 1))
    assert np.max(np.abs(B.mat @ np.ones(sp.size))) <= 1e-12


def test_exchange_active_pairs():
    # On (i,i,j,j) the swap part touches 4 ordered label pairs, weight 2 each.
    sp = cs.enumerate_space(4, 4)
    E = cs.pair_generator(sp, 0, 1, part="exchange-only")
    row = E.dense()[sp.idx((0, 0, 1, 1))]
    swapped = [(1, 0, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0)]
    for y in swapped:
        assert row[sp.idx(y)] == 2.0
    assert row[sp.idx((0, 0, 1, 1))] == -8.0
    # brute force over all ordered pairs with the swap indicator
    count = sum(
        1 for a in range(4) for b in range(4)
        if a != b and (0, 0, 1, 1)[a] == 0 and (0, 0, 1, 1)[b] == 1
    )
    assert count == 4


def test_reversibility_and_row_sums():
    for N, n in [(6, 2), (5, 4)]:
        sp = cs.enumerate_space(N, n)
        for part in ("full", "move-only", "exchange-only"):
            op = cs.assemble_generator(sp, random_coeffs(N, 2), part=part)
            assert op.reversibility_defect() <= 1e-12
            assert op.row_sum_defect() <= 1e-12


def test_negative_semidefinite_parts():
    sp = cs.enumerate_space(5, 4)
    for i, j in itertools.combinations(range(5), 2):
        E = cs.pair_generator(sp, i, j, part="exchange-only").dense()
        M = cs.pair_generator(sp, i, j, part="move-only").dense()
        assert np.linalg.eigvalsh(sym_measure(sp, E))[-1] <= 1e-10
        assert np.linalg.eigvalsh(sym_measure(sp, M - E))[-1] <= 1e-10


def test_negative_coefficient_rejected():
    sp = cs.enumerate_space(3, 2)
    C = np.zeros((3, 3))
    C[0, 1] = C[1, 0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        cs.assemble_generator(sp, C)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_coefficient_rejected(bad):
    sp = cs.enumerate_space(5, 2)
    C = random_coeffs(5, 4)
    C[1, 3] = C[3, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        cs.assemble_generator(sp, C)


def test_matchings_counts():
    assert len(cs.matchings(4)) == 3
    assert len(cs.matchings(6)) == 15
    assert cs.matchings(4, stabilizing=(0, 0, 1, 1)) == [(1, 0, 3, 2)]
    for sigma in cs.matchings(6):
        assert all(sigma[sigma[a]] == a and sigma[a] != a for a in range(6))


def test_chi_indicator_values():
    sp = cs.enumerate_space(4, 4)
    sig = (1, 0, 3, 2)
    chi = cs.chi_indicator(sp, sig)
    assert chi[sp.idx((0, 0, 1, 1))] == 1.0
    other = (2, 3, 0, 1)
    chi2 = cs.chi_indicator(sp, other)
    assert chi2[sp.idx((0, 0, 1, 1))] == 0.0
    assert chi[sp.idx((2, 2, 2, 2))] == pytest.approx(1.0 / 3.0)
    # Any permutation, not only a matching, fixes x when x is constant on its cycles.
    for sigma in [(1, 2, 0, 3), (3, 2, 0, 1), (0, 1, 2, 3)]:
        fixed = [all(x[sigma[a]] == x[a] for a in range(4)) for x in sp.configs]
        assert np.array_equal(cs.chi_indicator(sp, sigma) > 0, fixed)


def test_kernel_projection_structure():
    sp = cs.enumerate_space(5, 2)
    K = cs.kernel_projection(sp)
    for x in sp.configs:
        for y in sp.configs:
            assert cs.delta_pairing(sp, K, x, y) == pytest.approx(0.2, abs=1e-12)
    sp4 = cs.enumerate_space(6, 4)
    K4 = cs.kernel_projection(sp4)
    X = cs.chi_matrix(sp4)
    assert np.max(np.abs(K4.mat @ X - X)) <= 1e-12
    ones = np.ones(sp4.size)
    assert np.max(np.abs(K4.mat @ ones - ones)) <= 1e-12
    assert np.max(np.abs(K4.mat @ K4.mat - K4.mat)) <= 1e-12
    assert K4.reversibility_defect() <= 1e-12


def test_kernel_nullspace_dimension():
    # generic positive coefficients: nullspace dim = number of matchings
    for N, n, expect in [(6, 4, 3), (4, 6, 15)]:
        sp = cs.enumerate_space(N, n)
        B = cs.assemble_generator(sp, random_coeffs(N, 3))
        evals = np.linalg.eigvalsh(sym_measure(sp, B.dense()))
        assert evals[-1] <= 1e-10
        null_dim = int(np.sum(np.abs(evals) <= 1e-10 * abs(evals[0])))
        assert null_dim == expect


def test_haar_kernel_entries():
    (est,), (se,) = cs.haar_kernel_entries(5, [((0, 0), (2, 2))], 200_000, seed=4)
    assert abs(est - 0.2) <= 4 * se
    (est0,), (se0,) = cs.haar_kernel_entries(5, [((0, 0), (0, 1))], 200_000, seed=5)
    assert abs(est0) <= 4 * se0
    (est4,), (se4,) = cs.haar_kernel_entries(6, [((1, 1, 1, 1), (1, 1, 1, 1))], 200_000,
                                            seed=6)
    # spherical fourth-moment oracle by direct sphere sampling
    rng = stream(7)
    g = rng.standard_normal((200_000, 6))
    sph = g[:, 0] / np.linalg.norm(g, axis=1)
    oracle = (sph**4).mean()
    se_o = (sph**4).std(ddof=1) / math.sqrt(200_000)
    assert abs(est4 - oracle) <= 4 * math.hypot(se4, se_o)


def test_haar_kernel_entries_two_column_weingarten():
    # Fourth-order Weingarten values of the orthogonal group at N = 6
    # (Collins & Sniady 2006); each reads two columns of O.
    N = 6
    oracles = [
        (((0, 0, 1, 1), (0, 0, 1, 1)), (N + 1) / (N * (N - 1) * (N + 2))),  # O11^2 O22^2
        (((0, 0, 1, 1), (0, 1, 0, 1)), -1 / (N * (N - 1) * (N + 2))),  # O11 O12 O21 O22
        (((0, 0, 0, 0), (0, 0, 1, 1)), 1 / (N * (N + 2))),  # O11^2 O12^2
    ]
    ests, ses = cs.haar_kernel_entries(N, [pair for pair, _ in oracles], 200_000, (19, 1))
    for (_, exact), est, se in zip(oracles, ests, ses):
        assert 0 < se and abs(est - exact) <= 4 * se


def test_haar_kernel_entries_relabel_columns():
    # Column sites are relabelled in order of first appearance, so pairs that
    # differ by a column permutation read the same sampled columns.
    x = (0, 0, 1, 1)
    first = cs.haar_kernel_entries(6, [(x, (4, 4, 5, 5))], 20_000, (19, 2))
    assert cs.haar_kernel_entries(6, [(x, (5, 5, 4, 4))], 20_000, (19, 2)) == first
    assert cs.haar_kernel_entries(6, [(x, (0, 0, 1, 1))], 20_000, (19, 2)) == first


def test_haar_kernel_entries_reject_bad_pairs():
    for x, y in [((0, 0), (-1, -1)), ((5, 0), (0, 0)), ((0,), (0, 1, 2, 3)),
                 ((0, 1), (1,))]:
        with pytest.raises(ValueError):
            cs.haar_kernel_entries(5, [((0, 0), (1, 1)), (x, y)], 100, seed=1)


def test_haar_kernel_entries_reproducible_and_chunk_invariant(monkeypatch):
    pairs = [((0, 0, 1, 1), (2, 2, 3, 3)), ((1, 1, 1, 1), (1, 1, 1, 1)),
             ((0, 1, 0, 1), (4, 4, 5, 5)), ((2, 2), (0, 0))]
    samples = 10_000  # two full chunks of 4096 and a partial one
    first = cs.haar_kernel_entries(6, pairs, samples, (3, 1))
    assert first == cs.haar_kernel_entries(6, pairs, samples, (3, 1))
    monkeypatch.setattr(cs, "HAAR_CHUNK", samples)
    whole = cs.haar_kernel_entries(6, pairs, samples, (3, 1))
    assert np.max(np.abs(np.subtract(first, whole))) <= 1e-15


def loops(sigma, tau):
    """Number of cycles of the graph whose edges are the pairs of both matchings."""
    seen, count = set(), 0
    for start in range(len(sigma)):
        if start in seen:
            continue
        count += 1
        a = start
        while a not in seen:
            seen.update((a, sigma[a]))
            a = tau[sigma[a]]
    return count


@pytest.mark.parametrize("N, n", [(6, 4), (5, 2), (4, 6)])
def test_kernel_projection_matches_weingarten_oracle(N, n):
    # <chi_sigma, chi_tau>_pi counts the configurations constant on every
    # loop of sigma u tau, N^loops; its inverse is the orthogonal Weingarten
    # matrix, and the projection onto span{chi} is X G^-1 X^T Pi.
    sp = cs.enumerate_space(N, n)
    sigmas = cs.matchings(n)
    G = np.array([[float(N) ** loops(s, t) for t in sigmas] for s in sigmas])
    X = cs.chi_matrix(sp)
    assert np.max(np.abs(X.T @ (sp.pi[:, None] * X) - G)) <= 1e-12 * np.max(G)
    oracle = X @ np.linalg.solve(G, X.T) * sp.pi[None, :]
    assert np.max(np.abs(cs.kernel_projection(sp).dense() - oracle)) <= 1e-12


# Every (N, n) that the test suite enumerates, and the DBM workload's space.
ENUMERATED_SPACES = [(2, 2), (3, 2), (5, 2), (6, 2), (8, 2), (10, 2), (20, 2), (40, 2),
                     (65, 2), (81, 2), (161, 2), (4, 4), (5, 4), (6, 4), (8, 4), (10, 4),
                     (27, 4), (3, 6), (4, 6)]


@pytest.mark.parametrize("N, n", ENUMERATED_SPACES)
def test_enumeration_occupancies_and_weights(N, n):
    sp = cs.enumerate_space(N, n)
    assert np.array_equal(sp.occ, [cs.occupancies(x, N) for x in sp.configs])
    assert np.array_equal(sp.pi, [float(cs.pi_weight(x, N)) for x in sp.configs])


def test_kernel_spatial_invariance():
    sp = cs.enumerate_space(6, 4)
    K = cs.kernel_projection(sp).dense()
    rng = stream(8)
    for _ in range(20):
        tau = rng.permutation(6)
        x = sp.configs[int(rng.integers(sp.size))]
        tx = tuple(int(tau[s]) for s in x)
        assert np.max(np.abs(K @ sp.delta(x) - K @ sp.delta(tx))) <= 1e-12


def test_kernel_entry_scaling_trend():
    # N^{n/2} * max |<dx, K dy>| bounded across N (subgaussian-flavor trend)
    scaled = []
    for N in (4, 6, 8, 10):
        sp = cs.enumerate_space(N, 4)
        K = cs.kernel_projection(sp).dense()
        pairing = np.abs(K / sp.pi[None, :])
        scaled.append(N**2 * pairing.max())
    assert max(scaled) <= 2.0
    assert max(scaled) / min(scaled) <= 2.0
    # no growth in N
    assert scaled[-1] <= scaled[0] * 1.2


# The colorblind map x -> eta = n(x)/2 reduces the colored flow to the
# eigenvector moment flow of Bourgade and Yau; these are its test oracles.


def occupancy_fibers(space):
    """Configuration indices grouped by colorblind image, in order of first
    appearance."""
    keys, first, fiber = np.unique(space.occ // 2, axis=0, return_index=True,
                                   return_inverse=True)
    members = np.split(np.argsort(fiber, kind="stable"), np.cumsum(np.bincount(fiber))[:-1])
    return {tuple(keys[k].tolist()): members[k] for k in np.argsort(first)}


def colorblind_image(x, N):
    """eta with eta_i = n_i(x)/2."""
    return tuple(int(k) // 2 for k in cs.occupancies(x, N))


def colorblind_transport(space, direction, f):
    """Pushforward (pi-weighted fiber average, {eta: value}) of an array over
    the space, or pullback of a mapping {eta: value} to an array."""
    fibers = occupancy_fibers(space)
    if direction == "pushforward":
        return {key: float(np.sum(space.pi[idxs] * f[idxs]) / np.sum(space.pi[idxs]))
                for key, idxs in fibers.items()}
    g = np.zeros(space.size)
    for key, idxs in fibers.items():
        g[idxs] = f[key]
    return g


def colorblind_projector(space):
    """phi^* phi_*, dense: pi-orthogonal projection onto label-symmetric functions."""
    M = np.zeros((space.size, space.size))
    for idxs in occupancy_fibers(space).values():
        w = space.pi[idxs]
        M[np.ix_(idxs, idxs)] = w[None, :] / w.sum()
    return M


def test_conditional_expectation_properties():
    sp = cs.enumerate_space(5, 4)
    assert np.array_equal(
        cs.conditional_expectation(sp, [[0], [1], [2], [3]]).dense(), np.eye(sp.size)
    )
    full = cs.conditional_expectation(sp, [[0, 1, 2, 3]])
    assert np.max(np.abs(full.dense() - colorblind_projector(sp))) <= 1e-12
    for P in cs.all_partitions(4):
        EP = cs.conditional_expectation(sp, P)
        M = EP.dense()
        assert np.max(np.abs(M @ M - M)) <= 1e-12
        assert EP.reversibility_defect() <= 1e-12


def apply_label_permutation(sigma, x):
    """(sigma . x)_a = x_{sigma(a)}."""
    return tuple(x[sigma[a]] for a in range(len(x)))


def reference_conditional_expectation(sp, partition):
    """E_P built one configuration and one permutation at a time, through a
    tuple index of its own rather than the space's code lookup."""
    configs = list(map(tuple, sp.configs.tolist()))
    index = {x: i for i, x in enumerate(configs)}
    perms = cs.compatible_permutations(partition, sp.n)
    M = np.zeros((sp.size, sp.size))
    for ix, x in enumerate(configs):
        for sigma in perms:
            M[ix, index[apply_label_permutation(sigma, x)]] += 1.0 / len(perms)
    return M


# Every n = 4 space in ENUMERATED_SPACES with all 15 partitions, and a few
# partitions of six labels on Lambda^6_5.
LABEL_ACTION_CASES = (
    [((N, 4), P) for N in (4, 5, 6, 8, 10, 27) for P in cs.all_partitions(4)]
    + [((5, 6), P) for P in ([[0, 1], [2, 3], [4, 5]], [[0, 2, 4], [1, 3, 5]],
                             [[0, 1, 2, 5], [3], [4]])])


@pytest.mark.parametrize(
    "space, partition", LABEL_ACTION_CASES,
    ids=[f"{N}-{n}-" + "|".join("".join(map(str, b)) for b in P)
         for (N, n), P in LABEL_ACTION_CASES])
def test_conditional_expectation_matches_label_action_reference(space, partition):
    sp = cs.enumerate_space(*space)
    EP = cs.conditional_expectation(sp, partition)
    assert np.array_equal(EP.dense(), reference_conditional_expectation(sp, partition))


def test_generator_expectation_commutation():
    sp = cs.enumerate_space(5, 4)
    partitions = cs.all_partitions(4)
    assert len(partitions) == 15
    for i, j in itertools.combinations(range(5), 2):
        Bij = cs.pair_generator(sp, i, j).dense()
        for P in partitions:
            EP = cs.conditional_expectation(sp, P).dense()
            assert np.max(np.abs(Bij @ EP - EP @ Bij)) <= 1e-12


def test_local_projection_fixes_strata_and_averages():
    sp = cs.enumerate_space(6, 4)
    y = (2, 2, 3, 3)
    P = cs.local_projection(sp, y, 2)
    loc = cs.local_neighborhood(sp, y, 2)
    X = cs.chi_matrix(sp)
    for k in range(X.shape[1]):
        chi_loc = np.zeros(sp.size)
        chi_loc[loc] = X[loc, k]
        assert np.max(np.abs(P.dense() @ chi_loc - chi_loc)) <= 1e-12
    # n=2: the projection is the pi-weighted mean over the neighborhood
    sp2 = cs.enumerate_space(8, 2)
    P2 = cs.local_projection(sp2, (4, 4), 3)
    loc2 = cs.local_neighborhood(sp2, (4, 4), 3)
    f = stream(9).standard_normal(sp2.size)
    mean = np.sum(sp2.pi[loc2] * f[loc2]) / np.sum(sp2.pi[loc2])
    out = P2.dense() @ f
    assert np.allclose(out[loc2], mean)
    assert np.all(out[np.setdiff1d(np.arange(sp2.size), loc2)] == 0)


def test_local_projection_not_self_adjoint():
    sp = cs.enumerate_space(6, 4)
    P = cs.local_projection(sp, (2, 2, 3, 3), 2).dense()
    Pi = np.diag(sp.pi)
    assert np.max(np.abs(Pi @ P - P.T @ Pi)) > 1e-8


def test_local_neighborhood_radius_convention():
    # ell = 1 gives singleton classes: the neighborhood is just {y}
    sp = cs.enumerate_space(8, 2)
    loc = cs.local_neighborhood(sp, (4, 4), 1)
    assert np.array_equal(sp.configs[loc], [(4, 4)])


def test_config_distance():
    w = np.arange(1, 11)
    assert cs.config_distance((3, 3), (7, 7), w) == 4
    assert cs.config_distance((3, 3), (3, 3), w) == 0
    assert cs.config_distance((3, 3), (7, 7), np.array([20, 21])) == 0
    # symmetry and triangle inequality on random triples
    rng = stream(10)
    for _ in range(200):
        x, y, z = (tuple(rng.integers(0, 12, 4)) for _ in range(3))
        assert cs.config_distance(x, y, w) == cs.config_distance(y, x, w)
        assert cs.config_distance(x, z, w) <= (
            cs.config_distance(x, y, w) + cs.config_distance(y, z, w)
        )
    # A stack of configurations gives the distance of each row.
    sp = cs.enumerate_space(6, 4)
    y = (2, 2, 3, 3)
    assert np.array_equal(cs.config_distance(sp.configs, y, w),
                          [cs.config_distance(x, y, w) for x in sp.configs.tolist()])


def test_colorblind_transport():
    sp = cs.enumerate_space(6, 4)
    eta = colorblind_image((2, 2, 4, 4), 6)
    assert eta == (0, 0, 1, 0, 1, 0)
    push = colorblind_transport(sp, "pushforward", np.ones(sp.size))
    assert all(abs(v - 1.0) <= 1e-12 for v in push.values())
    # pullback composes with the quotient map
    g = {key: float(sum(key)) for key in push}
    back = colorblind_transport(sp, "pullback", g)
    for ix, x in enumerate(sp.configs):
        assert back[ix] == g[colorblind_image(x, 6)]
    # the composition commutes with the generator
    B = cs.assemble_generator(sp, random_coeffs(6, 11)).dense()
    Pr = colorblind_projector(sp)
    assert np.max(np.abs(B @ Pr - Pr @ B)) <= 1e-12


# Every (N, n) the suite enumerates, plus Lambda^4_27 (2,133 configurations)
# and the one- and two-site edges of the site tables.
REFERENCE_SPACES = [(2, 2), (3, 2), (5, 2), (6, 2), (8, 2), (10, 2), (20, 2), (40, 2),
                    (65, 2), (81, 2), (161, 2), (4, 4), (5, 4), (6, 4), (10, 4),
                    (3, 6), (4, 6), (27, 4), (1, 2), (2, 4), (2, 6)]


def reference_parts(space, C):
    """Move and exchange entries {(x, y): value} built one jump at a time.

    Each ordered label pair (a, b) on one site i moves to every j != i with
    weight c_ij (n_j+1)/(n_i-1); on sites i != j it swaps with weight c_ij.
    The two orderings of a pair reach the same y, so the sums carry the
    documented move weight 2 (n_j+1)/(n_i-1) and exchange weight 2.  Targets
    are found through a tuple index of its own, not the space's code lookup.
    """
    configs = list(map(tuple, space.configs.tolist()))
    index = {x: i for i, x in enumerate(configs)}
    move, swap = {}, {}
    for ix, x in enumerate(configs):
        occ = space.occ[ix]
        for a, b in itertools.permutations(range(space.n), 2):
            i, k = x[a], x[b]
            if i == k:
                for j in range(space.N):
                    if j != i:
                        key = (ix, index[cs.jump(x, "move", a, b, i, j)])
                        w = C[i, j] * (occ[j] + 1.0) / (occ[i] - 1.0)
                        move[key] = move.get(key, 0.0) + w
            else:
                key = (ix, index[cs.jump(x, "swap", a, b, i, k)])
                swap[key] = swap.get(key, 0.0) + C[i, k]
    return move, swap


def test_generator_matches_jump_reference():
    for N, n in REFERENCE_SPACES:
        sp = cs.enumerate_space(N, n)
        C = coeffs_with_zeros(N, 13 + N + n)
        move, swap = reference_parts(sp, C)
        full = {**move, **{key: -v for key, v in swap.items()}}
        for part, ref in (("full", full), ("move-only", move), ("exchange-only", swap)):
            mat = cs.assemble_generator(sp, C, part=part).mat
            assert sparse.issparse(mat)
            got = sparse.coo_matrix(mat)
            assert np.all(got.data != 0), (N, n, part)  # no explicit zeros
            entries = dict(zip(zip(got.row.tolist(), got.col.tolist()), got.data.tolist()))
            off = {key: v for key, v in entries.items() if key[0] != key[1]}
            assert off == {key: v for key, v in ref.items() if v != 0}, (N, n, part)
            rows = [[] for _ in range(sp.size)]
            for (r, _), v in ref.items():
                rows[r].append(v)
            diag_ref = np.array([-math.fsum(r) for r in rows])
            diag = np.array([entries.get((r, r), 0.0) for r in range(sp.size)])
            assert np.all(np.abs(diag - diag_ref) <= 1e-13 * np.abs(diag_ref)), (N, n, part)
            pattern = sorted(list(off) + [(r, r) for r in range(sp.size) if diag_ref[r]])
            ij = np.array(pattern, dtype=int).reshape(-1, 2).T  # (2, 0) when empty
            ref_csr = sparse.csr_matrix((np.ones(len(pattern)), tuple(ij)), shape=mat.shape)
            assert np.array_equal(mat.indptr, ref_csr.indptr)
            assert np.array_equal(mat.indices, ref_csr.indices)
            assert mat.indptr.dtype == ref_csr.indptr.dtype
            assert mat.indices.dtype == ref_csr.indices.dtype


def per_slot_layout(space):
    """Row, move flag, site in C raveled with a trailing zero, and weight
    num / den of every slot in the stencil's pattern, derived from the two
    configurations the slot joins; a diagonal slot reads the trailing zero
    with weight 0 / 1."""
    st, X, N = space._stencil, space.configs, space.N
    rows = np.repeat(np.arange(space.size), np.diff(st.indptr))
    moved = X[rows] != X[st.indices]
    a = np.argmax(moved, axis=1)
    b = space.n - 1 - np.argmax(moved[:, ::-1], axis=1)
    i, j = X[rows, a], X[st.indices, a]  # a move's source and target; an exchange's sites
    move = (rows != st.indices) & (X[rows, a] == X[rows, b])
    site = np.where(move, i * N + j, np.minimum(i, j) * N + np.maximum(i, j))
    num = np.where(move, 2.0 * (space.occ[rows, j] + 1.0), -2.0)
    den = np.where(move, space.occ[rows, i] - 1.0, 1.0)
    site[st.diag], num[st.diag], den[st.diag] = N * N, 0.0, 1.0
    return rows, move, site, num, den


def test_stencil_slot_layout():
    # One key per stored slot in canonical CSR order, diagonals included.  A
    # key decodes into its weight class w, a row of the table, and its site in
    # C raveled with a trailing zero.  A move class carries the fraction
    # 2 (n_j+1) / (n_i-1) of the occupancies it jumps between, the exchange
    # class -2 / 1 (signed for the full generator), so that c * num / den
    # equals the jump reference exactly; every diagonal reads +0.0.
    for N, n in REFERENCE_SPACES:
        sp = cs.enumerate_space(N, n)
        C = random_coeffs(N, 5 + N + n)
        cs.assemble_generator(sp, C)
        st, X = sp._stencil, sp.configs
        rows, _, site, num, den = per_slot_layout(sp)
        assert np.all(np.diff(rows * sp.size + st.indices) > 0), (N, n)
        assert np.array_equal(st.indices[st.diag], np.arange(sp.size)), (N, n)
        assert np.array_equal(rows[st.diag], np.arange(sp.size)), (N, n)
        off = np.ones(st.key.size, dtype=bool)
        off[st.diag] = False
        assert np.all((X[rows[off]] != X[st.indices[off]]).sum(axis=1) == 2), (N, n)
        w = st.key // (N * N + 1)
        assert np.array_equal(st.key % (N * N + 1), site), (N, n)
        assert np.array_equal(st.num[w][off], num[off]), (N, n)
        assert np.array_equal(st.den[w][off], den[off]), (N, n)
        # The table has a row for each class the space holds, and no other:
        # the move classes in ascending n_i (n+1) + n_j, then the exchange.
        assert np.array_equal(np.unique(w), np.arange(st.num.size)), (N, n)
        moves = st.num > 0
        assert np.all(moves[:-1]), (N, n)
        assert np.all(np.diff((st.den[moves] + 1) * (n + 1) + st.num[moves] / 2 - 1) > 0)
        table = st.num[:, None] * np.append(C.ravel(), 0.0) / st.den[:, None]
        diag = table.ravel()[st.key[st.diag]]
        assert np.all(diag == 0.0) and not np.any(np.signbit(diag)), (N, n)
        move, swap = reference_parts(sp, C)
        full = {**move, **{key: -v for key, v in swap.items()}}
        vals = table.ravel()[st.key[off]]
        pairs = zip(rows[off].tolist(), st.indices[off].tolist())
        assert dict(zip(pairs, vals.tolist())) == full, (N, n)


def per_slot_data(space, C, part):
    """The CSR data before pruning, by the per-slot gather-multiply that the
    weight table replaced."""
    st = space._stencil
    _, move, site, num, den = per_slot_layout(space)
    data = np.take(np.append(C.ravel(), 0.0), site)
    data *= num
    data /= den
    if part == "move-only":
        data[~move] = 0.0
    elif part == "exchange-only":
        data[move] = 0.0
        np.negative(data, out=data)
    data[st.diag] = -np.add.reduceat(data, st.indptr[:-1])
    return data


def test_weight_table_matches_per_slot_assembly(monkeypatch):
    # Every slot's value is fl(fl(c * num) / den) on the same operands as the
    # per-slot gather-multiply, so the CSR data before pruning (signed zeros
    # included) and the stored matrix are bit-identical to it.
    csr, seen = sparse.csr_matrix, []

    def spy(arg, **kwargs):
        seen.append(arg[0].copy())
        return csr(arg, **kwargs)

    monkeypatch.setattr(sparse, "csr_matrix", spy)
    for N, n in REFERENCE_SPACES + [(7, 6), (3, 8)]:
        sp = cs.enumerate_space(N, n)
        pair = np.zeros((N, N))
        pair[0, N - 1] = pair[N - 1, 0] = 0.0 if N == 1 else 0.7
        for C in (random_coeffs(N, 31 + N + n), coeffs_with_zeros(N, 32 + N + n), pair):
            for part in ("full", "move-only", "exchange-only"):
                seen.clear()
                mat = cs.assemble_generator(sp, C, part=part).mat
                want = per_slot_data(sp, C, part)
                st = sp._stencil
                ref = csr((want.copy(), st.indices.copy(), st.indptr.copy()), shape=mat.shape)
                ref.eliminate_zeros()
                for got, exp in ((seen[0], want), (mat.data, ref.data)):
                    assert np.array_equal(got, exp), (N, n, part)
                    assert np.array_equal(np.signbit(got), np.signbit(exp)), (N, n, part)
                for name in ("indices", "indptr"):
                    got, exp = getattr(mat, name), getattr(ref, name)
                    assert got.dtype == exp.dtype and np.array_equal(got, exp), (N, n, part)


def test_full_generator_with_positive_coefficients_stores_whole_pattern():
    # Nothing is zero to prune, so the stored pattern is the stencil's.
    for N, n in REFERENCE_SPACES:
        if N < 2:
            continue  # C has no off-diagonal entry and the generator is zero
        sp = cs.enumerate_space(N, n)
        mat = cs.assemble_generator(sp, random_coeffs(N, 9 + N + n)).mat
        assert np.all(mat.data != 0), (N, n)
        assert np.array_equal(mat.indices, sp._stencil.indices), (N, n)
        assert np.array_equal(mat.indptr, sp._stencil.indptr), (N, n)


def test_exchange_only_generator_stores_no_negative_zero():
    # The exchange part negates its zeroed move slots to -0.0, which must be
    # pruned like +0.0: what is stored is every exchange and the diagonal of
    # every row that has one (none on Lambda^2_5).
    for N, n in ((5, 2), (5, 4), (27, 4), (4, 6)):
        sp = cs.enumerate_space(N, n)
        mat = cs.assemble_generator(sp, random_coeffs(N, 3 + N), part="exchange-only").mat
        st = sp._stencil
        exchange = st.num[st.key // (N * N + 1)] < 0
        rows = np.repeat(np.arange(sp.size), np.diff(st.indptr))
        assert mat.nnz == exchange.sum() + np.unique(rows[exchange]).size, (N, n)
        assert np.all(mat.data != 0), (N, n)
        rows = np.repeat(np.arange(sp.size), np.diff(mat.indptr))
        assert np.all((mat.data > 0) == (rows != mat.indices)), (N, n)


def test_stencil_memory_per_slot():
    # Per stored slot: the key as intp and the int32 column, 12 bytes; indptr
    # and diag add one entry per row each, num and den one per weight class.
    sp = cs.enumerate_space(27, 4)
    cs.assemble_generator(sp, random_coeffs(27, 2))
    st = sp._stencil
    assert list(st.__dataclass_fields__) == ["key", "num", "den", "indptr", "indices", "diag"]
    assert st.key.nbytes + st.indices.nbytes <= 12 * st.indices.size
    assert st.indptr.nbytes + st.diag.nbytes <= 2 * 8 * (sp.size + 1)
    # (2, 0), (2, 2) and (4, 0) moves, and the exchange.
    assert st.num.size == st.den.size == 4


@pytest.mark.parametrize("x", [(1, 1, 3, 3), (1, 3, 1, 3)])
def test_stencil_missing_configuration_raises(x):
    # With a configuration removed, the site table of a pair tying x (every
    # even configuration ties some pair; the second is untied for labels 0, 1)
    # lacks a row, and the first assembly raises rather than misplace entries.
    full = cs.enumerate_space(5, 4)
    keep = np.ones(full.size, dtype=bool)
    keep[full.idx(x)] = False
    sp = cs.ConfigurationSpace(N=5, n=4, configs=full.configs[keep], pi=full.pi[keep],
                               occ=full.occ[keep])
    with pytest.raises(AssertionError, match="missing"):
        cs.assemble_generator(sp, random_coeffs(5, 3))


def test_inf_norm_reads_stored_data():
    # ||B||_inf equals scipy's absolute row sum exactly; C with zero rows and
    # C = 0 leave generator rows empty, which read as 0.
    empty_rows = 0
    for N, n in REFERENCE_SPACES:
        sp = cs.enumerate_space(N, n)
        C = coeffs_with_zeros(N, 7 + N + n)
        isolated = C.copy()
        isolated[: N // 2] = isolated[:, : N // 2] = 0.0
        for coeffs in (C, isolated, np.zeros((N, N))):
            for part in ("full", "move-only", "exchange-only"):
                op = cs.assemble_generator(sp, coeffs, part=part)
                assert rx._inf_norm(op) == float(np.max(abs(op.mat).sum(axis=1))), (N, n, part)
                empty_rows += np.count_nonzero(np.diff(op.mat.indptr) == 0)
    assert empty_rows


def test_assembly_leaves_cached_pattern_intact():
    # A move-only pair generator has zeros on the exchange slots, which
    # eliminate_zeros prunes; that must not touch the space's cached pattern.
    sp = cs.enumerate_space(5, 4)
    C = random_coeffs(5, 21)
    pruned = cs.pair_generator(sp, 0, 1, part="move-only").mat
    assert pruned.nnz < sp._stencil.indices.size
    full = cs.assemble_generator(sp, C).mat
    fresh = cs.assemble_generator(cs.enumerate_space(5, 4), C).mat
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(full, name), getattr(fresh, name)), name
    for a, b in itertools.product((pruned.indices, pruned.indptr),
                                  (full.indices, full.indptr)):
        assert not np.shares_memory(a, b)


def test_assembly_shares_read_only_pattern():
    # A generator with nothing to prune stores views of the stencil's pattern;
    # a write through one raises instead of corrupting the next assembly.
    sp = cs.enumerate_space(6, 4)
    C = random_coeffs(6, 22)
    first = cs.assemble_generator(sp, C).mat
    assert np.shares_memory(first.indices, sp._stencil.indices)
    assert np.shares_memory(first.indptr, sp._stencil.indptr)
    for arr in (first.indices, first.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    again = cs.assemble_generator(sp, C).mat
    fresh = cs.assemble_generator(cs.enumerate_space(6, 4), C).mat
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(again, name), getattr(fresh, name)), name


def eigenvector_moment_flow(N, half, C):
    """Bourgade-Yau generator on occupancies eta (sum eta = half), assembled
    on its own: eta -> eta^{i->j} at rate c_ij 2 eta_i (1 + 2 eta_j)."""
    etas = [eta for eta in itertools.product(range(half + 1), repeat=N) if sum(eta) == half]
    index = {eta: k for k, eta in enumerate(etas)}
    L = np.zeros((len(etas), len(etas)))
    for k, eta in enumerate(etas):
        for i, j in itertools.permutations(range(N), 2):
            if eta[i] == 0:
                continue
            nu = list(eta)
            nu[i] -= 1
            nu[j] += 1
            rate = C[i, j] * 2 * eta[i] * (1 + 2 * eta[j])
            L[k, index[tuple(nu)]] += rate
            L[k, k] -= rate
    return etas, L


def test_colorblind_sector_is_eigenvector_moment_flow():
    # On label-symmetric f the exchanges vanish and B pushes forward to the
    # classical eigenvector moment flow on eta = n(x)/2.
    for N, n in [(5, 4), (6, 2), (4, 6)]:
        sp = cs.enumerate_space(N, n)
        C = coeffs_with_zeros(N, 17 + N)
        B = cs.assemble_generator(sp, C).mat
        etas, L = eigenvector_moment_flow(N, n // 2, C)
        rng = stream(18, N)
        for _ in range(3):
            g = rng.standard_normal(len(etas))
            f = colorblind_transport(sp, "pullback", dict(zip(etas, g)))
            pushed = colorblind_transport(sp, "pushforward", B @ f)
            assert sorted(pushed) == etas
            want = L @ g
            got = np.array([pushed[eta] for eta in etas])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
