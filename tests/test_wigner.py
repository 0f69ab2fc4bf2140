import numpy as np
import pytest
from numpy.testing import assert_allclose

from basis_oracle import window_vectors
from kernel_oracle import kernel_grid
from torusphase import (
    NonRealWignerError,
    build_fourier_operator,
    classical_symbol,
    kernel_suite,
    lattice_cross,
    make_dimension,
    property_suite,
    random_state,
    schwinger_matrix,
    symbol_reconstruct,
    wigner_function,
)


def test_d2_kernel_hand_value():
    dim = make_dimension(2)
    hand = 0.25 * np.array([[2, 1 + 1j], [1 - 1j, 0]])
    assert_allclose(kernel_grid(dim)[0, 0], hand, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_kernel_structure(d):
    ks = kernel_suite(make_dimension(d))
    assert ks["hermitian"] < 1e-12
    assert ks["trace"] < 1e-12
    assert ks["resolution"] < 1e-11
    assert ks["dual"] < 1e-11
    assert ks["completeness"] < 1e-10
    if d != 2:
        assert ks["rotation"] < 1e-11
        assert ks["rotation4"] < 1e-11


def test_d2_rotation_is_structurally_broken():
    ks = kernel_suite(make_dimension(2))
    assert ks["rotation"] > 0.1  # reported, never gated


@pytest.mark.parametrize("d", [3, 5, 7])
def test_state_properties(d):
    ps = property_suite(make_dimension(d), n_states=8, seed=123)
    for key, value in ps.items():
        assert value < 1e-10, (d, key, value)


def test_d2_state_properties_except_time_inversion():
    ps = property_suite(make_dimension(2), n_states=8, seed=123)
    for key, value in ps.items():
        if key == "time_inversion":
            assert value > 1e-3  # structural at D=2
        else:
            assert value < 1e-10, (key, value)


@pytest.mark.parametrize("d", [3, 5])
def test_symbol_of_displacement_is_plane_wave(d):
    dim = make_dimension(d)
    a = np.arange(d)
    for m in window_vectors(dim):
        sym = classical_symbol(dim, schwinger_matrix(dim, m))
        ref = np.exp(1j * dim.gamma0 * (m[0] * a[None, :] - m[1] * a[:, None])) / d
        assert_allclose(sym, ref, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_symbol_round_trip(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(7)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert_allclose(symbol_reconstruct(dim, classical_symbol(dim, op)), op, atol=1e-10)


def test_wigner_grid_contents():
    dim = make_dimension(5)
    psi = random_state(dim, seed=9)
    grid = wigner_function(dim, psi, state_ref="random:9")
    assert grid.values.shape == (5, 5)
    assert grid.state_ref == "random:9"
    assert_allclose(grid.total(), 1.0, atol=1e-12)
    # direct expectation against the kernel grid
    K = kernel_grid(dim)
    direct = np.real(np.einsum("i,abij,j->ab", psi.conj(), K, psi))
    assert_allclose(grid.values, direct, atol=1e-13)


def test_overlap_formula_two_states():
    dim = make_dimension(7)
    psi = random_state(dim, seed=1)
    phi = random_state(dim, seed=2)
    w1 = wigner_function(dim, psi).values
    w2 = wigner_function(dim, phi).values
    ov = abs(np.vdot(psi, phi)) ** 2
    assert_allclose((w1 * w2).sum(), ov / 7, atol=1e-12)
    assert_allclose((w1 * w1).sum(), 1.0 / 7, atol=1e-12)


def test_pairing_against_expectation():
    dim = make_dimension(5)
    rng = np.random.default_rng(3)
    psi = random_state(dim, rng=rng)
    H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    H = H + H.conj().T
    sym = np.real(classical_symbol(dim, H))
    W = wigner_function(dim, psi).values
    assert_allclose((sym * W).sum(), np.real(psi.conj() @ H @ psi) / 5, atol=1e-12)


def test_dual_sum_recovers_displacements():
    dim = make_dimension(3)
    K = kernel_grid(dim)
    a = np.arange(3)
    for m in window_vectors(dim):
        phase = np.exp(1j * dim.gamma0 * (m[0] * a[None, :] - m[1] * a[:, None]))
        acc = np.einsum("ab,abij->ij", phase, K)
        assert_allclose(acc, schwinger_matrix(dim, m), atol=1e-12)


def test_fourier_rotates_grid_forward():
    dim = make_dimension(5)
    F = build_fourier_operator(dim)
    K = kernel_grid(dim)
    for v1 in range(5):
        for v2 in range(5):
            assert_allclose(F @ K[v1, v2] @ F.conj().T, K[(-v2) % 5, v1], atol=1e-12)


def test_wigner_function_refuses_non_real_grid():
    dim = make_dimension(4)
    with pytest.raises(NonRealWignerError):
        wigner_function(dim, random_state(dim, seed=3))
