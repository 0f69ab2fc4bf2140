import numpy as np
import pytest
from numpy.testing import assert_allclose

from torusphase import (
    build_shifted_fock,
    fractional_phase_power,
    make_dimension,
    oscillator_fock_alpha,
    oscillator_fock_match,
    shift_isomorphism_check,
    shifted_overlap,
    shifted_overlap_expansion,
)
from torusphase import fock


def test_zero_shift_is_identity():
    for d in (2, 3, 5):
        basis = build_shifted_fock(make_dimension(d), 0.0)
        assert_allclose(basis.vectors, np.eye(d), atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_gram_identity_for_any_shift(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(12)
    for _ in range(20):
        alpha = float(rng.uniform(-3, 3))
        basis = build_shifted_fock(dim, alpha)
        assert basis.gram_residual() < 1e-12, alpha


def test_overlap_closed_form_values():
    # |<n|n+alpha>| = |sin(pi alpha)| / (D |sin(pi alpha / D)|)
    assert_allclose(shifted_overlap(make_dimension(2), 0.5),
                    np.sqrt(2) / 2, atol=1e-12)
    dim = make_dimension(5)
    for alpha in (0.3, 0.5, 1.7, -0.4):
        v = shifted_overlap(dim, alpha)
        ref = abs(np.sin(np.pi * alpha)) / (5 * abs(np.sin(np.pi * alpha / 5)))
        assert_allclose(v, ref, atol=1e-13)
    # a full-integer shift lands on an orthogonal basis vector
    assert_allclose(shifted_overlap(dim, 2.0), 0.0, atol=1e-13)
    # ... while a vanishing shift keeps the vector in place
    assert_allclose(shifted_overlap(dim, 1e-9), 1.0, atol=1e-8)


def test_overlap_direct_inner_product():
    dim = make_dimension(7)
    alpha = 0.37
    basis = build_shifted_fock(dim, alpha)
    direct = abs(np.vdot(np.eye(7)[:, 2], basis.vectors[:, 2]))
    assert_allclose(direct, shifted_overlap(dim, alpha), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_fractional_power_shifts_families(d):
    dim = make_dimension(d)
    for alpha, beta in ((0.7, 0.2), (1.3, -0.6)):
        assert shift_isomorphism_check(dim, alpha, beta) < 1e-12
    # E^{-alpha} applied to the plain basis creates the shifted one
    alpha = 0.41
    E = fractional_phase_power(dim, -alpha)
    assert_allclose(E, build_shifted_fock(dim, alpha).vectors, atol=1e-12)


def test_small_shift_expansion_coefficient():
    rep = shifted_overlap_expansion(make_dimension(5))
    exact = np.pi ** 2 * (1.0 - 1.0 / 25.0) / 6.0
    assert_allclose(rep["exact_coefficient"], exact, atol=1e-12)
    assert abs(rep["measured_coefficient"] - rep["exact_coefficient"]) < 1e-6
    # the competing 1 - 1/D form is clearly excluded
    assert abs(rep["measured_coefficient"] - rep["alternate_coefficient"]) > 1e-2


def test_oscillator_alpha_by_parity():
    assert oscillator_fock_alpha(make_dimension(3)) == 0.0
    assert oscillator_fock_alpha(make_dimension(7)) == 0.0
    assert oscillator_fock_alpha(make_dimension(2)) == 0.5


def test_oscillator_matches_unshifted_family_odd_d():
    for d in (3, 5, 7):
        rep = oscillator_fock_match(make_dimension(d))
        assert rep["mode"] == "vector-match"
        assert rep["alpha"] == 0.0
        assert rep["residual"] < 1e-10, (d, rep["residual"])


def test_oscillator_half_shift_labels_d2():
    rep = oscillator_fock_match(make_dimension(2))
    assert rep["mode"] == "labels-only"
    assert rep["alpha"] == 0.5
    assert rep["labels"] == (0.5, 1.5)
    assert rep["vacuum_label"] == 0.5


def test_shifted_overlap_raises_past_its_cross_check_tolerance(monkeypatch):
    monkeypatch.setattr(fock, "_OVERLAP_CROSS_CHECK_TOL", -1.0)
    with pytest.raises(ValueError, match="closed-form overlap deviates"):
        shifted_overlap(make_dimension(5), 0.3)
