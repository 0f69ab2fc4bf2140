import numpy as np
import pytest
from numpy.testing import assert_allclose

from basis_oracle import pair_schwinger
from torusphase import (
    PhaseMismatchError,
    action_angle_values,
    build_action_angle_kernel,
    build_clock_operator,
    build_phase_pair,
    build_shift_operator,
    expand_number_function,
    identification_suite,
    kernel_form_residual,
    make_dimension,
    phase_pair_residuals,
    random_state,
    wigner_number_phase,
)
from torusphase import numberphase, verify


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_pair_identification_with_clock_and_shift(d):
    dim = make_dimension(d)
    pair = build_phase_pair(dim)
    assert_allclose(pair.e_n, build_clock_operator(dim), atol=0)
    assert_allclose(pair.e_phi, build_shift_operator(dim).conj().T, atol=0)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_pair_residuals(d):
    pair = build_phase_pair(make_dimension(d))
    for key, value in phase_pair_residuals(pair).items():
        assert value < 1e-12, (d, key, value)


@pytest.mark.parametrize("d", [2, 4, 9, 13])
def test_pair_relations_are_the_identification_rows(d):
    # the pair suite takes the pair's relations once; the suite writes them twice
    rows = {r.name: r.value for r in verify.suite_numberphase(make_dimension(d), samples=4)}
    for key, id_key in (("commutation", "weyl_commutation"), ("cyclic_number", "cyclic_X"),
                        ("cyclic_phase", "cyclic_Z")):
        assert rows[key] == rows[f"id_{id_key}"], (d, key)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_identification_suite_runs_clean(d):
    rows = identification_suite(make_dimension(d), rng=np.random.default_rng(0), n_random=60)
    for key, value in rows.items():
        assert value < 1e-11, (d, key, value)


def test_number_phase_schwinger_matches_pair_construction():
    # the conjugate pair is (E_N, E_phi): E_N E_phi = e^{i gamma0} E_phi E_N
    dim = make_dimension(5)
    pair = build_phase_pair(dim)
    assert_allclose(pair.e_n @ pair.e_phi,
                    np.exp(1j * dim.gamma0) * pair.e_phi @ pair.e_n, atol=1e-13)
    for m in [(1, 0), (0, 1), (2, 3), (-1, 2)]:
        a = pair_schwinger(dim, pair.e_n, pair.e_phi, m)
        ref = (np.exp(-0.5j * dim.gamma0 * m[0] * m[1])
               * np.linalg.matrix_power(pair.e_n, m[0] % 5)
               @ np.linalg.matrix_power(pair.e_phi, m[1] % 5))
        assert_allclose(a, ref, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_kernel_two_forms_agree(d):
    dim = make_dimension(d)
    for J, th in ((0.0, 0.0), (1.0, dim.gamma0), (2.5, 1.234), (-1.0, 5.0)):
        assert kernel_form_residual(dim, J, th) < 1e-12, (d, J, th)


def test_kernel_cyclic_in_both_arguments():
    dim = make_dimension(5)
    K1 = build_action_angle_kernel(dim, 1.25, 0.6)
    K2 = build_action_angle_kernel(dim, 1.25 + 5, 0.6 + 2 * np.pi)
    assert_allclose(K1.matrix, K2.matrix, atol=1e-12)


@pytest.mark.parametrize("d", [5, 31])
def test_number_state_gives_delta_row(d):
    dim = make_dimension(d)
    n0 = 2
    psi = np.zeros(d, dtype=complex)
    psi[n0] = 1.0
    W = wigner_number_phase(dim, psi).values
    target = np.zeros((d, d))
    target[n0, :] = 1.0 / (2 * np.pi)
    assert_allclose(W, target, atol=1e-12)


def test_phase_state_is_flat_in_action():
    dim = make_dimension(7)
    pair = build_phase_pair(dim)
    L = 3
    W = wigner_number_phase(dim, pair.phase_states[:, L]).values
    target = np.zeros((7, 7))
    target[:, L] = 1.0 / (2 * np.pi)
    assert_allclose(W, target, atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 11])
def test_mass_and_marginals(d):
    dim = make_dimension(d)
    pair = build_phase_pair(dim)
    for seed in (1, 2, 3):
        psi = random_state(dim, seed=seed)
        W = wigner_number_phase(dim, psi).values
        assert_allclose(W.sum() * (2 * np.pi / d), 1.0, atol=1e-12)
        assert_allclose(W.sum(axis=1) * dim.gamma0, np.abs(psi) ** 2, atol=1e-12)
        phase_prob = np.abs(pair.phase_states.conj().T @ psi) ** 2
        assert_allclose(W.sum(axis=0), (d / (2 * np.pi)) * phase_prob, atol=1e-12)


def test_action_angle_values_on_half_integer_grid():
    dim = make_dimension(5)
    psi = random_state(dim, seed=4)
    full_int = wigner_number_phase(dim, psi).values
    grid = action_angle_values(dim, psi)
    assert_allclose(grid, full_int, atol=1e-13)
    half = action_angle_values(dim, psi, half_integer=True)
    assert half.shape == (10, 5)
    assert_allclose(half[0::2], full_int, atol=1e-13)
    even = action_angle_values(dim, psi, parity=0, half_integer=True)
    odd = action_angle_values(dim, psi, parity=1, half_integer=True)
    assert_allclose(even + odd, half, atol=1e-13)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_expand_number_function_round_trip(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(17)
    f = rng.normal(size=d) + 1j * rng.normal(size=d)
    exp = expand_number_function(dim, f, (1, 0), (0, 1))
    assert exp.residual < 1e-9
    assert exp.coefficients.shape == (d,)
    assert_allclose(exp.reconstruction, exp.target, atol=1e-9)


@pytest.mark.parametrize("d", [5, 7, 13, 31])
def test_expand_number_function_coefficients_match_the_direct_sum(d):
    # f~_k = sum_n e^{i gamma0 k n} f(n), one sum per k, against the one FFT
    dim = make_dimension(d)
    rng = np.random.default_rng(17)
    f = rng.normal(size=d) + 1j * rng.normal(size=d)
    exp = expand_number_function(dim, f, (1, 0), (0, 1))
    n = np.arange(d)
    direct = np.array([np.sum(np.exp(1j * dim.gamma0 * k * n) * f) for k in range(d)])
    assert np.abs(exp.coefficients - direct).max() <= 1e-13 * np.abs(f).max()
    assert exp.residual < 1e-9


def test_expand_rejects_nonconvergent_tolerance(monkeypatch):
    monkeypatch.setattr(numberphase, "_EXPANSION_TOL", 1e-18)
    dim = make_dimension(5)
    f = np.arange(5, dtype=float)
    with pytest.raises(PhaseMismatchError):
        expand_number_function(dim, f, (1, 0), (0, 1))
