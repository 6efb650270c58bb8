"""Perfect-matching Wick moments and the covariance-weighted ansatz observable.

Pair factors enter as signed products rather than under a square root: each
factor of the matching product appears twice, so the literal root form would
silently take absolute values and drop the sign of negative cross-direction
covariances.  The two agree whenever all pair factors are nonnegative.
"""

import math

import numpy as np

from .configspace import matchings, pi_weight
from .spectral import _check_unit, covariance_form


def _pair_representatives(sigma):
    return [(a, sigma[a]) for a in range(len(sigma)) if a < sigma[a]]


def gaussian_wick_moment(x, V, N=None):
    """Identity-covariance Wick moment: sum over stabilizing matchings of the
    pair products <v_a, v_sigma(a)>, normalized by sqrt(pi(x))."""
    x = tuple(x)
    n = len(x)
    if N is None:
        N = max(x) + 1
    if len(V) != n:
        raise ValueError(f"need {n} test vectors, got {len(V)}")
    _check_unit(V, "test vectors")
    total = 0.0
    for sigma in matchings(n, stabilizing=x):
        prod = 1.0
        for a, b in _pair_representatives(sigma):
            prod *= float(V[a] @ V[b])
        total += prod
    return total / math.sqrt(pi_weight(x, N))


def _pair_covariance(profile, y, V, a, b, cache):
    """<v_a, (Lambda_{y_a} + Lambda_{y_b})/2 v_b> with per-site caching."""
    lo, hi = (a, b) if a <= b else (b, a)

    def form(site):
        key = (site, lo, hi)
        if key not in cache:
            cache[key] = covariance_form(profile, site, V[lo], V[hi])
        return cache[key]

    return 0.5 * (form(y[a]) + form(y[b]))


def ansatz_F(x, y, V, profile):
    """Ansatz observable from the perspective of y.

    Sum over matchings stabilizing x of the signed pair products
    <v_a, (Lambda_{y_a} + Lambda_{y_sigma(a)})/2 v_sigma(a)>, over sqrt(pi(x)).
    With a zero reference matrix every Lambda is the identity and the value
    reduces to the Wick moment.
    """
    x, y = tuple(x), tuple(y)
    n = len(x)
    if len(y) != n:
        raise ValueError("x and y must have the same particle number")
    N = profile.reference.N
    if len(V) != n:
        raise ValueError(f"need {n} test vectors, got {len(V)}")
    _check_unit(V, "test vectors")
    cache = {}
    total = 0.0
    for sigma in matchings(n, stabilizing=x):
        prod = 1.0
        for a, b in _pair_representatives(sigma):
            prod *= _pair_covariance(profile, y, V, a, b, cache)
        total += prod
    return total / math.sqrt(pi_weight(x, N))


def ansatz_chi_coefficients(y, V, profile, n):
    """Expansion coefficients of F(. ; y) in the stratum-indicator basis.

    F(x; y) = sum_sigma chi_sigma(x) * coef[sigma]; the coefficients carry no
    dependence on x, which is exactly why the ansatz sits in the flow's kernel.
    """
    y = tuple(y)
    if len(V) != n:
        raise ValueError(f"need {n} test vectors, got {len(V)}")
    _check_unit(V, "test vectors")
    cache = {}
    coefs = {}
    for sigma in matchings(n):
        prod = 1.0
        for a, b in _pair_representatives(sigma):
            prod *= _pair_covariance(profile, y, V, a, b, cache)
        coefs[sigma] = prod
    return coefs


def ansatz_function(space, y, V, profile):
    """The map x -> F(x; y) as an array over an enumerated space."""
    return np.array([ansatz_F(x, y, V, profile) for x in space.configs.tolist()])
