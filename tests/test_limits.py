import numpy as np
import pytest
from numpy.testing import assert_allclose

from torusphase import (
    CaseConditionError,
    build_phase_pair,
    fujikawa_index,
    index_report,
    limiting_spectrum,
    linear_profile,
    make_dimension,
    max_abs,
    oscillator_profile,
    phase_basis_wigner_function,
    phase_basis_wigner_limit,
    random_state,
    weak_convergence_sweep,
    wigner_even_odd_decomposition,
    wigner_number_phase,
)


def test_weak_convergence_reference_values():
    rep = weak_convergence_sweep((11, 23, 47, 101), observable="number-exp")
    assert rep.monotone
    assert_allclose(rep.residuals,
                    [0.2004341435649131, 0.0861914080642972,
                     0.0415459867137062, 0.0002184103857675],
                    rtol=1e-6, atol=1e-9)
    rep2 = weak_convergence_sweep((11, 23, 47, 101), observable="phase-exp")
    assert rep2.monotone
    assert all(a > b for a, b in zip(rep2.residuals, rep2.residuals[1:]))


def test_number_delta_family_is_not_monotone():
    rep = weak_convergence_sweep((11, 23, 47, 101), observable="phase-exp",
                                 family="number-delta")
    assert not rep.monotone


def test_weak_convergence_input_validation():
    with pytest.raises(ValueError):
        weak_convergence_sweep(())
    with pytest.raises(ValueError):
        weak_convergence_sweep((4, 6))
    with pytest.raises(ValueError):
        weak_convergence_sweep((5, 7), observable="bogus")


@pytest.mark.parametrize("d", [5, 11, 31])
def test_restricted_commutator_closes(d):
    dim = make_dimension(d)
    for ell in (1, 2, 3):
        rep = _dense_commutator_check(dim, ell, 1)
        assert rep["restricted"] < 1e-11, (d, ell)
        # the wrap-around corner term is exactly D, never vanishing
        assert_allclose(rep["full"], rep["corner_predicted"], atol=1e-9)
        assert rep["corner_predicted"] >= d - ell


def _dense_commutator_check(dim, ell, r):
    """The r-fold nested commutator of N with E_phi^ell from dense N and matrix_power.

    It equals (-ell)^r E_phi^ell on every column n >= ell; the wraparound
    columns carry a boundary term whose largest entry is (D - ell)^r (D for the
    single commutator written as [N, E^ell] + ell E^ell).  Returns the
    restricted residual, the full-matrix deviation, and its predicted corner.
    """
    d = dim.d
    Nh = np.diag(np.arange(d, dtype=float))
    El = np.linalg.matrix_power(build_phase_pair(dim).e_phi, ell)
    Cm = El
    for _ in range(r):
        Cm = Nh @ Cm - Cm @ Nh
    if r == 1:
        Cm = Cm + ell * El
        return {"restricted": max_abs(Cm[:, ell:]), "full": max_abs(Cm),
                "corner_predicted": float(d) if ell else 0.0}
    return {"restricted": max_abs((Cm - (-ell) ** r * El)[:, ell:]), "full": max_abs(Cm),
            "corner_predicted": float((d - ell) ** r) if ell else 0.0}


@pytest.mark.parametrize("d", [2, 3, 4, 7, 12, 31])
def test_commutator_check_is_the_matrix_power_form_bit_for_bit(d):
    # every entry of the matrix-power form is an exact integer: the restricted
    # residual is 0 and the full deviation the larger of |-ell|^r and the corner
    dim = make_dimension(d)
    for ell in range(d):
        for r in (1, 2, 3):
            rep = _dense_commutator_check(dim, ell, r)
            full = float(d if r == 1 else max(ell, d - ell) ** r) if ell else 0.0
            assert (rep["restricted"], rep["full"]) == (0.0, full), (ell, r)


def test_repeated_commutator_corner():
    dim = make_dimension(7)
    for r in (2, 3):
        rep = _dense_commutator_check(dim, 2, r)
        assert rep["restricted"] < 1e-10
        assert_allclose(rep["corner_predicted"], float((7 - 2) ** r), atol=1e-9)


def test_index_vanishes_for_cyclic_profile():
    for d in (5, 7):
        prof = oscillator_profile(make_dimension(d))
        assert abs(fujikawa_index(prof)) < 1e-14


@pytest.mark.parametrize("d, m, mp", [(31, (-51, -25), (-20, 54)),
                                      (211, (-400, -399), (397, -411)),
                                      (1009, (3000, -2999), (-2011, 3017))])
def test_oscillator_profile_wraps_on_unreduced_labels(d, m, mp):
    # f(D) = f(0) on a cyclic profile; f(D) from the exact cross value read
    # 1.1e-11, 3.0e-10 and -1.9e-9 off f(0) here
    prof = oscillator_profile(make_dimension(d), m, mp)
    assert abs(prof.f_end - prof.values[0]) <= 5e-12


def test_index_linear_profile_closed_form():
    for d in (5, 13, 101):
        dim = make_dimension(d)
        prof = linear_profile(dim)
        expected = np.exp(-1.0 / dim.gamma0) * (1.0 - np.exp(-float(d)))
        assert_allclose(fujikawa_index(prof), expected, atol=1e-12)
    rep = index_report(linear_profile(make_dimension(5)))
    assert rep["D"] == 5
    assert_allclose(rep["I"], 0.4481911493503724, atol=1e-12)
    assert_allclose(rep["f0"], 5 / (2 * np.pi), atol=1e-13)


def test_limiting_spectrum_cases():
    dim = make_dimension(5)
    unit = limiting_spectrum(dim, "unit-cross")
    ref = (1.0 + np.sin(dim.gamma0 * np.arange(5))) / abs(np.sin(dim.gamma0))
    assert_allclose(unit.values, ref, atol=1e-12)
    assert_allclose(unit.f_end, ref[0], atol=1e-12)  # the profile wraps
    quarter = limiting_spectrum(dim, "quarter-cross")  # (5-1)/4 = 1 is integral
    assert quarter.cross == 1
    with pytest.raises(CaseConditionError):
        limiting_spectrum(make_dimension(7), "quarter-cross")  # (7-1)/4 is not
    custom = limiting_spectrum(dim, "custom", cross=2, sign=-1)
    n = np.arange(5)
    refc = (1.0 - np.sin(dim.gamma0 * ((n * 2) % 5))) / abs(np.sin(dim.gamma0 * 2))
    assert_allclose(custom.values, refc, atol=1e-12)
    assert abs(fujikawa_index(custom)) < 1e-14  # wrapped ends cancel


@pytest.mark.parametrize("d", [3, 5, 7])
def test_even_odd_partition(d):
    dim = make_dimension(d)
    psi = random_state(dim, seed=6)
    even, odd = wigner_even_odd_decomposition(dim, psi)
    assert even.values.shape == (2 * d, d)
    # integer rows carry all the even mass and none of the odd mass
    assert_allclose(even.values[0::2].sum() * (2 * np.pi / d), 1.0, atol=1e-12)
    assert_allclose(odd.values[0::2].sum() * (2 * np.pi / d), 0.0, atol=1e-12)
    # integer-row sum reproduces the plain distribution
    full = wigner_number_phase(dim, psi).values
    assert_allclose(even.values[0::2] + odd.values[0::2], full, atol=1e-12)


def test_number_state_has_no_odd_part():
    dim = make_dimension(5)
    psi = np.zeros(5, dtype=complex)
    psi[3] = 1.0
    _, odd = wigner_even_odd_decomposition(dim, psi)
    assert np.max(np.abs(odd.values)) < 1e-13


def test_phase_basis_wigner_number_state_exact():
    dim = make_dimension(7)
    psi = np.zeros(7, dtype=complex)
    psi[4] = 1.0
    W = phase_basis_wigner_function(dim, psi)
    ref = wigner_number_phase(dim, psi).values
    assert W.shape == (7, 7)
    assert_allclose(W, ref, atol=1e-12)


def test_phase_basis_wigner_approaches_action_angle():
    rep = phase_basis_wigner_limit((11, 23, 47))
    assert rep.monotone
    assert_allclose(rep.residuals, [5.715775e-03, 2.118496e-04, 3.808212e-07],
                    rtol=1e-4)
