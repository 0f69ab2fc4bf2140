import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import basis_oracle
from torusphase import (
    DegenerateSpectrumError,
    build_clock_operator,
    build_fourier_operator,
    build_shift_operator,
    canonical_vector,
    conjugate_pair_suite,
    eigensystem_by_recursion,
    lattice_cross,
    make_dimension,
    schwinger_matrix,
    sine_commutator_check,
    standard_pair_suite,
    weyl_commutator_check,
    window_vectors,
)
from torusphase import schwinger
from torusphase.lattice import _reduce


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_matrix_matches_ordered_product(d):
    # direct O(D^2) build against the half-phase-ordered U^m1 V^m2 product
    dim = make_dimension(d)
    U = build_shift_operator(dim)
    V = build_clock_operator(dim)
    for m in window_vectors(dim):
        # U^d = V^d = 1 exactly, so only the half-phase needs the raw integers
        ref = (np.exp(-0.5j * dim.gamma0 * m[0] * m[1])
               * np.linalg.matrix_power(U, m[0] % d)
               @ np.linalg.matrix_power(V, m[1] % d))
        assert_allclose(schwinger_matrix(dim, m), ref, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_adjoint_is_negated_label(d):
    dim = make_dimension(d)
    for m in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]:
        a = schwinger_matrix(dim, m)
        b = schwinger_matrix(dim, (-m[0], -m[1]))
        assert_allclose(a.conj().T, b, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_composition_phase_law(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = tuple(int(x) for x in rng.integers(-d, d + 1, size=2))
        n = tuple(int(x) for x in rng.integers(-d, d + 1, size=2))
        phase = np.exp(0.5j * dim.gamma0 * lattice_cross(m, n))
        lhs = schwinger_matrix(dim, m) @ schwinger_matrix(dim, n)
        assert_allclose(lhs, phase * schwinger_matrix(dim, (m[0] + n[0], m[1] + n[1])), atol=1e-12)


def test_unit_label_is_identity():
    for d in (2, 3, 5):
        dim = make_dimension(d)
        assert_allclose(schwinger_matrix(dim, (0, 0)), np.eye(d), atol=0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_inverse_composition_is_identity(d):
    dim = make_dimension(d)
    for m in [(1, 0), (1, 1), (2, 1), (1, -2)]:
        lhs = schwinger_matrix(dim, m) @ schwinger_matrix(dim, (-m[0], -m[1]))
        assert_allclose(lhs, np.eye(d), atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 211, 401])
def test_label_reduction_sign(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = tuple(int(x) for x in rng.integers(-3 * d, 3 * d, size=2))
        *mc, sign = _reduce(d, *m)
        assert all(x in list(range(-(d // 2), d)) for x in mc)
        assert sign in (1.0, -1.0)
        assert_allclose(schwinger_matrix(dim, m),
                        sign * schwinger_matrix(dim, mc), atol=1e-12)
    # labels shifted by (a D, b D), |a|, |b| <= 8, hold as well as the reduced
    # ones: phases taken of the unreduced exponents read 100-1000x worse at D = 211.
    # S_m's sign law holds to the rounding of one phase-table entry (<= 7 eps at
    # D = 2..419, 1009, 4096): e^{-i pi (t + D) / D} is not bit for bit -e^{-i pi t / D}
    m, n = (1, 2), (3, -5)
    sine, weyl = sine_commutator_check(dim, m, n), weyl_commutator_check(dim, m, n)
    for a, b, e, f in ((8, -8, 3, 5), (-8, 8, -7, 2), (5, 3, -8, -8), (0, 1, -1, 0)):
        ms, ns = (m[0] + a * d, m[1] + b * d), (n[0] + e * d, n[1] + f * d)
        *mc, sign = _reduce(d, *ms)
        residual = np.abs(schwinger_matrix(dim, ms) - sign * schwinger_matrix(dim, mc)).max()
        assert residual <= 8 * np.finfo(float).eps
        assert sine_commutator_check(dim, ms, ns) <= 4 * sine + 1e-15
        shifted = weyl_commutator_check(dim, ms, ns)
        for k in ("mirror", "minus_form"):
            assert shifted[k] <= 4 * weyl[k] + 1e-15


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_power_rule_sign(d):
    dim = make_dimension(d)
    for m in window_vectors(dim):
        if m == (0, 0):
            continue
        sign = (-1) ** ((d * m[0] * m[1]) % 2)
        power = np.linalg.matrix_power(schwinger_matrix(dim, m), d)
        assert_allclose(power, sign * np.eye(d), atol=5e-11)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_eigensystem_recursion_matches_dense(d):
    dim = make_dimension(d)
    for m in window_vectors(dim):
        if m == (0, 0):
            continue
        lam_res, vec_res = basis_oracle.dense_eigensystem_residuals(dim, [m])
        assert lam_res[0] < 1e-10
        assert vec_res[0] < 1e-8


def test_eigensystem_eigen_equation_direct():
    dim = make_dimension(7)
    m = (2, 3)
    sys = eigensystem_by_recursion(dim, m)
    S = schwinger_matrix(dim, m)
    for r in range(7):
        v = sys.eigenvectors[:, r]
        assert_allclose(S @ v, sys.eigenvalues[r] * v, atol=1e-12)
    # orthonormality
    g = sys.eigenvectors.conj().T @ sys.eigenvectors
    assert_allclose(g, np.eye(7), atol=1e-12)


@pytest.mark.parametrize("d", [31, 101, 211, 401])
def test_eigensystem_holds_to_rounding_at_large_dimension(d):
    # the component phases are exact integers mod 2D and the eigenvalue sign
    # the exact parity (-1)^{m1 m2}; multiplying D float phases along the orbit
    # gave 2.2e-13 at D = 31 and 3.0e-11 at D = 211, the sign e^{i pi m1 m2}
    # of the float product 1.5e-13 at D = 211 and 3.0e-13 at D = 401
    dim = make_dimension(d)
    for m in ((1, 2), (d // 2, -(d // 2)), (-3, 7), (0, 5), (d // 3, d // 2 - 1)):
        sys = eigensystem_by_recursion(dim, m)
        S = schwinger_matrix(dim, sys.m)
        assert np.abs(S @ sys.eigenvectors - sys.eigenvectors * sys.eigenvalues).max() < 1e-14


@pytest.mark.parametrize("d", [2, 4, 9, 31, 401])
def test_eigensystem_rows_equal_the_one_pass_gather_bit_for_bit(d):
    # the rows are gathered a block at a time from a conj-scaled table; the
    # one-pass form below made two D x D complex temporaries (3 V at its peak)
    import math
    import tracemalloc

    from torusphase.lattice import _phase

    # a diagonal label (m1 = 0 mod D) has coordinate eigenvectors, r = k m2 mod D,
    # written with no D x D temporary beside vecs either
    for m1, m2 in ((1, 0), (1, 2), (-3, 7), (d // 2 + 1, 5), (-d - 1, 2 * d + 1), (0, 1), (-d, 2)):
        if not schwinger._has_closed_form(d, m1, m2):
            continue
        j = np.arange(d, dtype=np.int64)
        k = (-j * m1) % d
        walk = np.concatenate(([0], np.cumsum(2 * k[:-1] - m1) % (2 * d)))
        e = ((m2 % (2 * d)) * walk + d * ((m1 * m2 * j) % 2)) % (2 * d)
        ref = np.zeros((d, d), dtype=complex)
        if m1 % d == 0:
            ref[j, j * m2 % d] = 1.0
        else:
            ref[k] = _phase(d, e[:, None] - 2 * np.outer(j, j)).conj() / math.sqrt(d)
        tracemalloc.start()
        try:
            _, vecs = schwinger._eigensystem(d, m1, m2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vecs.tobytes() == ref.tobytes(), (d, m1, m2)
        if d > 100:
            assert peak <= 1.2 * vecs.nbytes, (peak, vecs.nbytes)


def test_eigensystem_rejects_zero_label_and_degenerate():
    dim = make_dimension(5)
    with pytest.raises(ValueError):
        eigensystem_by_recursion(dim, (0, 0))
    with pytest.raises(DegenerateSpectrumError):
        eigensystem_by_recursion(make_dimension(4), (2, 2))


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_sine_algebra_commutator(d):
    dim = make_dimension(d)
    assert sine_commutator_check(dim, (1, 0), (0, 1)) < 1e-12
    assert sine_commutator_check(dim, (1, 2), (2, 1)) < 1e-12


def test_sine_algebra_holds_at_large_dimension_on_unreduced_pairs():
    # 30 pairs drawn in [-2D, 2D) as the schwinger suite draws them: with the
    # sine of the unreduced m x n (up to ~8 D^2) the worst read 2.4e-10 here
    d = 211
    dim = make_dimension(d)
    rng = np.random.default_rng(0)
    for _ in range(30):
        m, n = (tuple(int(x) for x in rng.integers(-2 * d, 2 * d, 2)) for _ in range(2))
        assert sine_commutator_check(dim, m, n) <= 1e-10


@pytest.mark.parametrize("d", [3, 5, 7])
def test_weyl_form_mirrors_schwinger(d):
    dim = make_dimension(d)
    for m in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        # J_m equals the Schwinger matrix at the swapped, negated label
        J = basis_oracle.weyl_j_matrix(dim, m)
        assert_allclose(J, schwinger_matrix(dim, (-m[1], -m[0])), atol=1e-12)
    rep = weyl_commutator_check(dim, (1, 0), (1, 1))
    assert rep["mirror"] < 1e-12
    assert rep["minus_form"] < 1e-11
    assert rep["plus_form"] > 1e-2  # the additive form does not close


@pytest.mark.parametrize("d", [2, 3, 4, 7, 12])
def test_weyl_pair_is_the_clock_and_shift_entries(d):
    # the monomial pair of the Weyl checks is conj(V) and U^T entry for entry,
    # and basis_oracle.weyl_matrices is its dense form
    dim = make_dimension(d)
    g, h = basis_oracle.weyl_matrices(dim)
    assert np.array_equal(g, build_clock_operator(dim).conj())
    assert np.array_equal(h, build_shift_operator(dim).T)
    for (rows, vals), A in zip(schwinger._weyl_pair(dim), (g, h)):
        ref_rows, ref_vals = schwinger._monomial(A)
        assert np.array_equal(rows, ref_rows) and np.array_equal(vals, ref_vals)


def test_weyl_commutator_check_builds_no_dense_matrix():
    # it built g and h as D x D arrays and scanned them back, 16 MB each here
    d = 1024
    dim = make_dimension(d)
    weyl_commutator_check(dim, (3, -5), (7, 2))
    tracemalloc.start()
    weyl_commutator_check(dim, (3, -5), (7, 2))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < d * d * 16 / 16, peak


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_fourier_rotates_labels(d):
    dim = make_dimension(d)
    for m in [(1, 0), (0, 1), (1, 1)]:
        assert schwinger.fourier_covariance_residuals(dim, [m])[0] < 1e-12
    F = build_fourier_operator(dim)
    S = schwinger_matrix(dim, (1, 1))
    assert_allclose(F @ S @ F.conj().T, schwinger_matrix(dim, (-1, 1)), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_basis_spans_all_operators(d):
    # every window label's Gram row reads below 1/D: the D^2 labels span rank D^2
    dim = make_dimension(d)
    assert schwinger.gram_residuals(dim, window_vectors(dim)).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_standard_pair_suite_clean(d):
    rows = standard_pair_suite(make_dimension(d), rng=np.random.default_rng(0), n_random=60)
    for key, value in rows.items():
        assert value < 1e-11, (d, key, value)


def test_conjugate_pair_suite_accepts_any_conjugate_pair():
    dim = make_dimension(5)
    U = build_shift_operator(dim)
    V = build_clock_operator(dim)
    rows = conjugate_pair_suite(dim, V.conj().T, U, rng=np.random.default_rng(1), n_random=40)
    for key, value in rows.items():
        assert value < 1e-11, (key, value)


SETTINGS = settings(max_examples=40, deadline=None, database=None)


def _dim_and_labels(data, n):
    d = data.draw(st.integers(2, 40), label="d")
    label = st.tuples(st.integers(-2 * d, 2 * d), st.integers(-2 * d, 2 * d))
    return make_dimension(d), [data.draw(label, label=f"m{i}") for i in range(n)]


@SETTINGS
@given(st.data())
def test_reduction_sign_law_any_dimension(data):
    dim, (m,) = _dim_and_labels(data, 1)
    *mc, sign = _reduce(dim.d, *m)
    a, b = (m[0] - mc[0]) // dim.d, (m[1] - mc[1]) // dim.d
    assert sign == (-1) ** ((a * mc[1] + b * mc[0] + a * b * dim.d) % 2)
    assert_allclose(schwinger_matrix(dim, m), sign * schwinger_matrix(dim, mc), atol=1e-12)


@SETTINGS
@given(st.data())
def test_composition_phase_law_any_dimension(data):
    dim, (m, n) = _dim_and_labels(data, 2)
    phase = np.exp(1j * np.pi * (lattice_cross(m, n) % (2 * dim.d)) / dim.d)
    lhs = schwinger_matrix(dim, m) @ schwinger_matrix(dim, n)
    assert_allclose(lhs, phase * schwinger_matrix(dim, (m[0] + n[0], m[1] + n[1])), atol=1e-12)


@SETTINGS
@given(st.data())
def test_power_rule_any_dimension(data):
    dim, (m,) = _dim_and_labels(data, 1)
    power = np.linalg.matrix_power(schwinger_matrix(dim, m), dim.d)
    assert_allclose(power, (-1) ** ((dim.d * m[0] * m[1]) % 2) * np.eye(dim.d), atol=1e-12)


@SETTINGS
@given(st.data())
def test_eigensystem_matches_dense_any_dimension(data):
    d = data.draw(st.integers(2, 60), label="d")
    dim = make_dimension(d)
    m = data.draw(st.tuples(st.integers(-2 * d, 2 * d), st.integers(-2 * d, 2 * d)), label="m")
    if (m[0] % d, m[1] % d) == (0, 0):
        return
    try:
        lam_res, vec_res = basis_oracle.dense_eigensystem_residuals(dim, [m])
    except DegenerateSpectrumError:
        return
    assert lam_res[0] < 1e-10
    assert vec_res[0] < 1e-8


@pytest.mark.parametrize("d", [9, 211])
def test_sweeps_build_each_eigensystem_once(monkeypatch, d):
    # exhaustive window pairs at composite D = 9, class representatives at D = 211
    from collections import Counter

    from torusphase import deformed, verify

    dim = make_dimension(d)
    builds = Counter()

    def counted(*key):
        builds[key] += 1
        return schwinger._eigensystem(*key)

    monkeypatch.setattr(deformed, "_eigensystem", counted)
    for sweep, families in ((deformed.oscillator_sweep, verify._QOSC_FAMILIES),
                            (deformed.sl2_sweep, verify._SL2_FAMILIES)):
        if dim.prime:
            m, mp = verify._representatives(d, families)
        else:
            m, mp = verify._swept_pairs(dim, 0, None)
        builds.clear()
        built = sweep(dim, m, mp).built_mask
        w = {(d, *canonical_vector(dim, x)) for x in (m - mp)[built].tolist()}
        assert set(builds) == w and set(builds.values()) == {1}, sweep.__name__


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 9, 12, 13, 15])
def test_closed_form_predicate_is_the_eigensystem_refusal(d):
    # the refusal the deformed label pass reads from the label integers alone
    dim = make_dimension(d)
    labels = np.array([m for m in window_vectors(dim) if m != (0, 0)]
                      + [(d + 2, -3 * d + 1), (-2 * d, 1 - d)])
    built = schwinger._has_closed_form(d, labels[:, 0], labels[:, 1])
    assert built.all() == dim.prime
    for m, flag in zip(labels.tolist(), built):
        if flag:
            # a built eigensystem has D distinct eigenvalues, as the dense solver finds
            lam = np.linalg.eigvals(schwinger_matrix(dim, m))
            assert np.min(np.abs(lam[:, None] - lam) + 9 * np.eye(d)) > 1e-6, (d, m)
            eigensystem_by_recursion(dim, m)
        else:
            with pytest.raises(DegenerateSpectrumError):
                eigensystem_by_recursion(dim, m)
