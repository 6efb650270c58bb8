"""Wick moments and the covariance-weighted ansatz observable."""

import itertools
import math

import numpy as np
import pytest

from momentflow import ansatz as az
from momentflow import configspace as cs
from momentflow import ensembles as ens
from momentflow import spectral as spx
from momentflow._rng import stream
from momentflow.harness import zero_reference


def unit_vectors(N, n, seed):
    rng = stream(seed)
    out = []
    for _ in range(n):
        v = rng.standard_normal(N)
        out.append(v / np.linalg.norm(v))
    return out


def test_wick_trivial_values():
    e = np.eye(6)
    assert az.gaussian_wick_moment((0, 0, 1, 1), [e[2]] * 4) == 1.0
    assert az.gaussian_wick_moment((0, 0, 0, 0), [e[2]] * 4) == 1.0
    assert az.gaussian_wick_moment((0, 0), [e[1], e[2]]) == 0.0


def test_wick_rejects_odd():
    with pytest.raises(ValueError):
        az.gaussian_wick_moment((0, 1), [np.eye(4)[0]] * 2)


def test_ansatz_identity_covariance_matches_wick():
    N, n = 6, 4
    space = cs.enumerate_space(N, n)
    V = unit_vectors(N, n, 11)
    profile = spx.FreeConvolutionProfile(zero_reference(N), 1.0)
    for x in space.configs:
        wick = az.gaussian_wick_moment(x, V)
        assert abs(wick - az.ansatz_F(x, x, V, profile)) <= 1e-12


def test_ansatz_single_matching_value():
    N = 30
    dec = spx.eig_sym(ens.sample_goe(N, 3))
    prof = spx.FreeConvolutionProfile(dec, 0.4)
    V = unit_vectors(N, 2, 12)
    val = az.ansatz_F((15, 15), (15, 15), V, prof)
    direct = spx.covariance_form(prof, 15, V[0], V[1])
    assert val == pytest.approx(direct)
    diag = az.ansatz_F((15, 15), (15, 15), [V[0], V[0]], prof)
    assert diag >= 0.0


def test_ansatz_kernel_membership_and_expansion():
    N, n = 6, 4
    space = cs.enumerate_space(N, n)
    V = unit_vectors(N, n, 13)
    profile = spx.FreeConvolutionProfile(zero_reference(N), 1.0)
    y = (2, 2, 3, 3)
    Fy = az.ansatz_function(space, y, V, profile)
    for i, j in itertools.combinations(range(N), 2):
        Bij = cs.pair_generator(space, i, j)
        assert np.max(np.abs(Bij.mat @ Fy)) <= 1e-12
    coefs = az.ansatz_chi_coefficients(y, V, profile, n)
    recon = np.zeros(space.size)
    for sigma, c in coefs.items():
        recon += c * cs.chi_indicator(space, sigma)
    assert np.max(np.abs(recon - Fy)) <= 1e-12


def test_ansatz_label_equivariance():
    N, n = 6, 4
    V = unit_vectors(N, n, 14)
    profile = spx.FreeConvolutionProfile(zero_reference(N), 1.0)
    x, y = (1, 1, 2, 2), (2, 2, 3, 3)
    base = az.ansatz_F(x, y, V, profile)
    for perm in itertools.permutations(range(n)):
        xp = tuple(x[perm[a]] for a in range(n))
        yp = tuple(y[perm[a]] for a in range(n))
        Vp = [V[perm[a]] for a in range(n)]
        assert az.ansatz_F(xp, yp, Vp, profile) == pytest.approx(base)


def test_ansatz_orthonormal_stabilizer_values():
    # with orthonormal directions and identity covariance F(x;x) is 1 exactly
    # when the stabilizer pairs equal directions, 0 when any pair is orthogonal
    N = 6
    profile = spx.FreeConvolutionProfile(zero_reference(N), 1.0)
    e = np.eye(N)
    assert az.ansatz_F((0, 0, 1, 1), (0, 0, 1, 1), [e[0], e[0], e[1], e[1]],
                       profile) == pytest.approx(1.0)
    assert az.ansatz_F((0, 0, 1, 1), (0, 0, 1, 1), [e[0], e[1], e[2], e[3]],
                       profile) == pytest.approx(0.0)


def test_ansatz_requires_unit_vectors():
    profile = spx.FreeConvolutionProfile(zero_reference(4), 1.0)
    with pytest.raises(ValueError, match="unit"):
        az.ansatz_F((0, 0), (0, 0), [2 * np.eye(4)[0], np.eye(4)[1]], profile)
