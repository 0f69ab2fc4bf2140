"""Number-phase grids and shifted Fock bases against the dense forms they replace.

Each reference below builds its phase matrices in full: the action-angle
values at any real J as (J, D) x (D, D) x (D, D) products, the continuum
phase-basis form from the (2D, D) half-index phase states, and the shifted
Fock bases and fractional phase powers as products in the phase eigenbasis.
The package computes each of them with FFTs; the two must agree to rounding.
"""
import numpy as np
import pytest

from torusphase import (
    action_angle_values,
    build_phase_pair,
    build_shifted_fock,
    canonical_window,
    characteristic,
    fractional_phase_power,
    make_dimension,
    phase_basis_wigner_function,
    random_state,
    wigner_even_odd_decomposition,
    wigner_function,
    wigner_number_phase,
)

DIMENSIONS = (2, 3, 4, 5, 6, 8, 9, 13, 31, 101, 211)
ODD_DIMENSIONS = (3, 5, 9, 13, 31, 101, 211)
TOL = 1e-14


def dense_action_angle_values(dim, state, j_values, parity=None):
    """W(J, theta_j) rows over any real J, columns over the exact theta grid."""
    psi = np.asarray(state, dtype=complex)
    mlist = np.array(canonical_window(dim))
    EV = characteristic(dim.d, psi, -mlist, mlist).T         # [m1, m2] of S^np_m
    if parity is not None:
        EV = EV * ((np.abs(mlist) % 2) == parity)[None, :]
    P1 = np.exp(1j * dim.gamma0 * np.outer(np.asarray(j_values, dtype=float), mlist))
    P2 = np.exp(-1j * dim.gamma0 * np.outer(mlist, np.arange(dim.d)))
    return np.real(P1 @ EV @ P2) / (2.0 * np.pi * dim.d)


def dense_phase_basis_wigner_function(dim, state):
    """(1/2pi) sum_k e^{i gamma0 J k} <psi|phi_{j - k/2}><phi_{j + k/2}|psi> by dense products."""
    d = dim.d
    psi = np.asarray(state, dtype=complex)
    PF = np.exp(1j * dim.gamma0 * np.outer(np.arange(2 * d) / 2.0, np.arange(d))) / np.sqrt(d)
    G1 = PF @ psi.conj()
    kk = np.array(canonical_window(dim))
    jj = np.arange(d)
    idx1 = (2 * jj[None, :] - kk[:, None]) % (2 * d)
    idx2 = (2 * jj[None, :] + kk[:, None]) % (2 * d)
    Bm = G1[idx1] * np.conj(G1)[idx2]
    Phk = np.exp(1j * dim.gamma0 * np.outer(np.arange(d), kk))
    return np.real(Phk @ Bm) / (2.0 * np.pi)


def dense_shifted_fock(dim, alpha):
    """|k + alpha> = sum_l e^{-i gamma0 l (k + alpha)} |phi_l> / sqrt(D), as one product."""
    d = dim.d
    C = np.exp(-1j * dim.gamma0 * np.outer(np.arange(d), np.arange(d) + float(alpha))) / np.sqrt(d)
    return build_phase_pair(dim).phase_states @ C


def dense_fractional_phase_power(dim, beta):
    Ph = build_phase_pair(dim).phase_states
    return (Ph * np.exp(1j * dim.gamma0 * np.arange(dim.d) * float(beta))) @ Ph.conj().T


@pytest.mark.parametrize("parity", [None, 0, 1])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_action_angle_grids_match_the_dense_form(d, parity):
    dim = make_dimension(d)
    psi = random_state(dim, seed=d)
    integer = action_angle_values(dim, psi, parity)
    half = action_angle_values(dim, psi, parity, half_integer=True)
    assert integer.shape == (d, d) and half.shape == (2 * d, d)
    dense_integer = dense_action_angle_values(dim, psi, np.arange(d), parity)
    assert np.max(np.abs(integer - dense_integer)) <= TOL
    dense_half = dense_action_angle_values(dim, psi, np.arange(2 * d) / 2.0, parity)
    assert np.max(np.abs(half - dense_half)) <= TOL


@pytest.mark.parametrize("d", DIMENSIONS)
def test_even_odd_decomposition_matches_the_dense_form(d):
    dim = make_dimension(d)
    psi = random_state(dim, seed=d + 1)
    even, odd = wigner_even_odd_decomposition(dim, psi)
    half = np.arange(2 * d) / 2.0
    assert np.max(np.abs(even.values - dense_action_angle_values(dim, psi, half, 0))) <= TOL
    assert np.max(np.abs(odd.values - dense_action_angle_values(dim, psi, half, 1))) <= TOL


@pytest.mark.parametrize("d", DIMENSIONS)
def test_phase_basis_wigner_function_matches_the_dense_form(d):
    dim = make_dimension(d)
    psi = random_state(dim, seed=d + 2)
    W = phase_basis_wigner_function(dim, psi)
    assert W.shape == (d, d)
    assert np.max(np.abs(W - dense_phase_basis_wigner_function(dim, psi))) <= TOL


@pytest.mark.parametrize("d", ODD_DIMENSIONS)
def test_odd_dimension_number_phase_grid_is_the_relabelled_torus_grid(d):
    # E_N = V and E_phi = U^-1 on the symmetric window:
    # W_np(J, theta_j) = (D / 2pi) W_torus(J, -j mod D)
    dim = make_dimension(d)
    psi = random_state(dim, seed=d + 3)
    j = np.arange(d)
    torus = wigner_function(dim, psi).values[:, (-j) % d]
    assert np.max(np.abs(wigner_number_phase(dim, psi).values - d / (2 * np.pi) * torus)) <= TOL


@pytest.mark.parametrize("d", [2, 3, 4, 5, 13, 211])
def test_shifted_fock_circulant_matches_the_dense_form(d):
    dim = make_dimension(d)
    for alpha in np.random.default_rng(d).uniform(-3, 3, 4):
        assert np.max(np.abs(build_shifted_fock(dim, alpha).vectors
                             - dense_shifted_fock(dim, alpha))) <= 1e-13
        assert np.max(np.abs(fractional_phase_power(dim, alpha)
                             - dense_fractional_phase_power(dim, alpha))) <= 1e-13
