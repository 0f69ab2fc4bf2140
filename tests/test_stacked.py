"""Stacked label checks against the per-label loops they replace.

Each reference below is the loop form of a verify check, one label or one
pair at a time, or its dense form from basis_oracle.  Where the stacked form
does the same arithmetic, the values must be equal; where it sums in another
order, they must agree to a few ulps; the pair identities on monomials follow
basis_oracle.assert_within_oracle.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from basis_oracle import (
    assert_within_oracle,
    dense_eigensystem_residuals,
    dense_match_stack,
    fourier_covariance,
    pair_schwinger,
    pair_suite,
)
from deformed_oracle import lowering, number_op, sl2_realisation
from torusphase import (
    DegenerateSpectrumError,
    build_clock_operator,
    build_q_oscillator,
    build_shift_operator,
    conjugate_pair_suite,
    eigensystem_by_recursion,
    lattice_cross,
    make_dimension,
    max_abs,
    random_state,
    schwinger_matrix,
    window_vectors,
)
from torusphase import deformed, lattice, limits, numberphase, schwinger, transforms, verify
from torusphase.lattice import Sampler, _sin_turns

DIMENSIONS = range(2, 14)
ODD_PRIMES = (3, 5, 7, 11, 13)


def _oscillator_ops(dim, m, mp):
    o = build_q_oscillator(dim, m, mp)
    return lowering(o), number_op(o)


def _sl2_ops(dim, m, mp):
    o = sl2_realisation(dim, m, mp)
    return o.lowering, (o.eigenvectors * o.j3_values) @ o.eigenvectors.conj().T


# (representative families, coefficient function of the row, dense operators of the loop)
ALGEBRAS = ((verify._QOSC_FAMILIES, deformed.oscillator_coefficients, _oscillator_ops),
            (verify._SL2_FAMILIES, deformed.sl2_coefficients, _sl2_ops))


def _orbit_loop(dim, operators, pairs, reps):
    """The dense form of verify._orbit_conjugation, one pair and one build_metaplectic at a time.

    operators(dim, m, m') gives the builders' A and X (N or J3) of one pair;
    the value is the worst over pairs of the least, over representatives of
    the same area mod D, of max|G^dag A G - z A_rho|, |z^4 - 1| and
    max|G^dag X G - X_rho|, with z the least-squares fit.
    """
    d = dim.d
    (m, mp), (rm, rmp) = pairs, reps
    c = lattice_cross(m.T, mp.T)
    rc = lattice_cross(rm.T, rmp.T)
    worst = 0.0
    for i in range(len(c)):
        cinv = pow(int(c[i]), -1, d)
        R = transforms.SymplecticMap(dim, (int(m[i, 0]) % d, int(m[i, 1]) % d),
                                     (cinv * int(mp[i, 0]) % d, cinv * int(mp[i, 1]) % d))
        G = transforms.build_metaplectic(dim, R).matrix
        A, X = operators(dim, tuple(m[i]), tuple(mp[i]))
        Y, Z = G.conj().T @ A @ G, G.conj().T @ X @ G
        least = np.inf
        for k in np.flatnonzero((rc - c[i]) % d == 0):
            Ar, Xr = operators(dim, tuple(rm[k]), tuple(rmp[k]))
            z = np.vdot(Ar, Y) / np.vdot(Ar, Ar).real
            least = min(least, max(max_abs(Y - z * Ar), abs(z ** 4 - 1), max_abs(Z - Xr)))
        worst = max(worst, least)
    return worst


def _dense_match_loop(dim, sys):
    """dense_eigensystem_residuals with the greedy eigenvalue assignment, one vector at a time."""
    vals, vecs = np.linalg.eig(schwinger_matrix(dim, sys.m))
    lam_res = vec_res = 0.0
    used = set()
    for r in range(dim.d):
        k = int(np.argmin(np.where([i in used for i in range(dim.d)], np.inf,
                                   np.abs(vals - sys.eigenvalues[r]))))
        used.add(k)
        lam_res = max(lam_res, abs(vals[k] - sys.eigenvalues[r]))
        w = vecs[:, k] / np.linalg.norm(vecs[:, k])
        ov = np.vdot(sys.eigenvectors[:, r], w)
        if abs(ov) > 0:
            w = w * (ov.conjugate() / abs(ov))
        vec_res = max(vec_res, max_abs(w - sys.eigenvectors[:, r]))
    return lam_res, vec_res


def _kernel_loop(dim, J, theta):
    pair = numberphase.build_phase_pair(dim)
    acc = np.zeros((dim.d, dim.d), dtype=complex)
    for m in window_vectors(dim):
        acc += (np.exp(1j * (dim.gamma0 * m[0] * J - m[1] * theta))
                * pair_schwinger(dim, pair.e_n, pair.e_phi, m))
    return acc / (2.0 * np.pi * dim.d)


def _phase_form_loop(dim, J, theta):
    Ph = numberphase.build_phase_pair(dim).phase_states
    d, g0 = dim.d, dim.gamma0
    acc = np.zeros((d, d), dtype=complex)
    for m1, m2 in window_vectors(dim):
        ph = np.exp(1j * (g0 * m1 * J - m2 * theta))
        for l in range(d):
            acc += (ph * np.exp(1j * g0 * l * m2) * np.exp(0.5j * g0 * m1 * m2)
                    * np.outer(Ph[:, l], Ph[:, (l + m1) % d].conj()))
    return acc / (2.0 * np.pi * d)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_metaplectic_stack_is_build_metaplectic_per_map(d):
    dim = make_dimension(d)
    maps = [transforms.random_symplectic(dim, seed=k) for k in range(12)]
    G = transforms.metaplectic_stack(dim, [r.s for r in maps], [r.t for r in maps])
    for g, r in zip(G, maps):
        assert np.array_equal(g, transforms.build_metaplectic(dim, r).matrix)


def test_metaplectic_stack_refuses_what_build_metaplectic_refuses():
    with pytest.raises(transforms.NonSymplecticMapError):
        transforms.metaplectic_stack(make_dimension(5), [(1, 0), (1, 1)], [(0, 1), (0, 2)])
    with pytest.raises(DegenerateSpectrumError):
        transforms.metaplectic_stack(make_dimension(9), [(1, 0)], [(0, 1)])


@pytest.mark.parametrize("d", ODD_PRIMES)
def test_orbit_conjugation_equals_the_per_pair_loop(d):
    # the row checks scalar identities where the loop conjugates dense
    # operators: the two agree to rounding, on the sample and on single pairs
    dim = make_dimension(d)
    for families, coefs, operators in ALGEBRAS:
        pairs, reps, classes = verify._sweep_plan(dim, d, None, families)
        assert classes
        assert verify._orbit_conjugation(dim, coefs, pairs, reps) < 1e-13
        assert _orbit_loop(dim, operators, pairs, reps) < 1e-13
        for i in range(0, len(pairs[0]), 16):
            one = (pairs[0][i:i + 1], pairs[1][i:i + 1])
            assert verify._orbit_conjugation(dim, coefs, one, reps) < 1e-13
            assert _orbit_loop(dim, operators, one, reps) < 1e-13


def _is_representative(d, m, mp):
    """Label pairs of the form ((1, a D), (0, c)), as verify._representatives makes them."""
    m, mp = np.reshape(m, (-1, 2)), np.reshape(mp, (-1, 2))
    return (m[:, 0] == 1) & (m[:, 1] % d == 0) & (mp[:, 0] == 0)


# a flipped eta flips d' = conj(eta / (2i sin(gamma0 c) d)) and nothing else

def _flipped_eta_coefs(dim, m, mp):
    d_coef, dp_coef, offset = deformed.oscillator_coefficients(dim, m, mp)
    return d_coef, np.where(_is_representative(dim.d, m, mp), dp_coef, -dp_coef), offset


def _flipped_eta_ops(dim, m, mp):
    o = build_q_oscillator(dim, m, mp)
    if not _is_representative(dim.d, m, mp)[0]:
        o = dataclasses.replace(o, eta=-o.eta, dp_coef=-o.dp_coef)
    return lowering(o), number_op(o)


@pytest.mark.parametrize("d", [5, 7])
def test_orbit_conjugation_reads_a_flipped_eta(d):
    dim = make_dimension(d)
    pairs, reps, _ = verify._sweep_plan(dim, d, None, verify._QOSC_FAMILIES)
    assert verify._orbit_conjugation(dim, _flipped_eta_coefs, pairs, reps) > 1e-4
    assert _orbit_loop(dim, _flipped_eta_ops, pairs, reps) > 1e-4


@pytest.mark.parametrize("d", [5, 7])
@pytest.mark.parametrize("families", [(0,), (1,)])
def test_orbit_conjugation_reads_a_missing_sl2_family(d, families):
    dim = make_dimension(d)
    pairs, _, _ = verify._sweep_plan(dim, d, None, verify._SL2_FAMILIES)
    reps = verify._representatives(d, families)
    assert verify._orbit_conjugation(dim, deformed.sl2_coefficients, pairs, reps) > 1e-4
    assert _orbit_loop(dim, _sl2_ops, pairs, reps) > 1e-4


@pytest.mark.parametrize("d", [5, 7])
def test_orbit_conjugation_reads_a_perturbed_metaplectic_entry(monkeypatch, d):
    exact = transforms.metaplectic_stack

    def perturbed(dim, s, t):
        G = exact(dim, s, t)
        G[:, 1, 2] += 1e-3
        return G

    monkeypatch.setattr(transforms, "metaplectic_stack", perturbed)
    dim = make_dimension(d)
    for families, coefs, operators in ALGEBRAS:
        pairs, reps, _ = verify._sweep_plan(dim, d, None, families)
        assert verify._orbit_conjugation(dim, coefs, pairs, reps) > 1e-4
        assert _orbit_loop(dim, operators, pairs, reps) > 1e-4


@pytest.mark.parametrize("d", DIMENSIONS)
def test_dense_eigensystem_residuals_equal_the_greedy_loop(d):
    dim = make_dimension(d)
    systems = []
    for m in window_vectors(dim):
        if (m[0] % d, m[1] % d) == (0, 0):
            continue
        try:
            systems.append(eigensystem_by_recursion(dim, m))
        except DegenerateSpectrumError:
            continue
    lam_res, vec_res = dense_eigensystem_residuals(dim, [s.m for s in systems])
    for sys, lam, vec in zip(systems, lam_res, vec_res):
        assert (lam, vec) == tuple(r[0] for r in dense_eigensystem_residuals(dim, [sys.m]))
        ref = _dense_match_loop(dim, sys)
        assert_allclose((lam, vec), ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [3, 7, 13])
def test_a_non_permutation_eigenvalue_assignment_reads_order_one(d):
    dim = make_dimension(d)
    sys = eigensystem_by_recursion(dim, (1, 2))
    lam = sys.eigenvalues.copy()
    lam[1] = lam[0]     # two closed-form eigenvalues nearest the same dense one
    lam_res, vec_res = dense_match_stack(d, [sys.m], lam[None], sys.eigenvectors[None])
    assert lam_res[0] >= 1.0 and vec_res[0] >= 1.0
    assert max(r[0] for r in dense_eigensystem_residuals(dim, [sys.m])) < 1e-12


@pytest.mark.parametrize("d", DIMENSIONS)
def test_conjugate_pair_suite_equals_the_per_label_loop(d):
    # the rows on monomials against the dense power-stack suite, from the same draws
    dim = make_dimension(d)
    U, V = build_shift_operator(dim), build_clock_operator(dim)
    for X, Z in ((U, V), (V, U.T)):
        rng, ref_rng = np.random.default_rng(d), np.random.default_rng(d)
        rows = conjugate_pair_suite(dim, X, Z, rng=rng, n_random=60)
        assert_within_oracle(dim, X, Z, rows, pair_suite(dim, X, Z, ref_rng, 60))
        # the same draws in the same order: later draws of a suite do not shift
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _power_loop(a, n: int):
    """A^n of one monomial by squaring, one int exponent at a time: the stacked _power's steps."""
    result = np.arange(len(a[0])), np.ones_like(a[1])
    while n:
        n, bit = divmod(n, 2)
        result = schwinger._times(result, a) if bit else result
        a = schwinger._times(a, a) if n else a
    return result


def _sine_loop(dim, m, n):
    """sine_commutator_check for one pair of int labels, as the pair-by-pair check made it."""
    g0, d = dim.gamma0, dim.d
    (rm, vm), (rn, vn), (rs, vs) = (schwinger.displacement_columns(d, *x) for x in
                                    (m, n, (m[0] + n[0], m[1] + n[1])))
    Dm, Dn = (rm, vm / g0), (rn, vn / g0)
    sin = _sin_turns(lattice_cross(m, n), d)
    times, minus = schwinger._times, schwinger._minus
    return float(schwinger._norm(times(Dm, Dn), minus(times(Dn, Dm)),
                                 (rs, -(1j * (2.0 / g0) * sin * (vs / g0)))))


def _weyl_loop(dim, m, n):
    """weyl_commutator_check for one pair of int labels, each J_m from per-exponent powers."""
    d, (g, h) = dim.d, schwinger._weyl_pair(dim)

    def J(x):
        rows, vals = schwinger._times(_power_loop(g, x[0] % d), _power_loop(h, x[1] % d))
        return rows, lattice._half_phase(d, x[0], x[1]).conj() * vals

    norm, minus, times = schwinger._norm, schwinger._minus, schwinger._times
    Jm, Jn, Js = J(m), J(n), J((m[0] + n[0], m[1] + n[1]))
    mirror = max(float(norm(Jx, minus(schwinger.displacement_columns(d, -x[1], -x[0]))))
                 for Jx, x in ((Jm, m), (Jn, n)))
    comm = (times(Jm, Jn), minus(times(Jn, Jm)))
    s = _sin_turns(lattice_cross(m, n), d)
    return {"mirror": mirror, "minus_form": float(norm(*comm, (Js[0], 2j * s * Js[1]))),
            "plus_form": float(norm(*comm, (Js[0], -(2j * s * Js[1]))))}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 13, 31])
def test_power_on_an_exponent_array_equals_the_per_exponent_loop(d):
    dim = make_dimension(d)
    labels = np.array([(1, 2), (-3, 5), (d + 1, -2 * d)])
    ops = schwinger.displacement_columns(d, labels[:, 0], labels[:, 1])
    exps = np.arange(2 * d + 3)
    for a in (*schwinger._weyl_pair(dim), (ops[0][0], ops[1][0])):
        rows, vals = schwinger._power(a, exps)
        assert rows.shape == vals.shape == (len(exps), d)
        for k in exps.tolist():
            ref_rows, ref_vals = _power_loop(a, k)
            assert np.array_equal(rows[k], ref_rows) and np.array_equal(vals[k], ref_vals)
    # one exponent per stacked operator, over two leading axes, and one for all
    per_op = np.array([[0, 1, d], [d + 1, 7, 2 * d - 1]])
    rows, vals = schwinger._power((np.stack([ops[0]] * 2), np.stack([ops[1]] * 2)), per_op)
    shared = schwinger._power(ops, d)
    for i, p in np.ndindex(per_op.shape):
        ref = _power_loop((ops[0][p], ops[1][p]), int(per_op[i, p]))
        assert np.array_equal(rows[i, p], ref[0]) and np.array_equal(vals[i, p], ref[1])
        ref = _power_loop((ops[0][p], ops[1][p]), d)
        assert np.array_equal(shared[0][p], ref[0]) and np.array_equal(shared[1][p], ref[1])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 13, 31])
def test_pair_suite_power_tables_equal_squaring_each_power(monkeypatch, d):
    # the S_m of every checked label, as the adjoint row receives them, against
    # X^a and Z^b each squared on its own: the top-bit table makes the same products
    dim = make_dimension(d)
    U, V = build_shift_operator(dim), build_clock_operator(dim)
    seen, adjoint = [], schwinger._adjoint
    monkeypatch.setattr(schwinger, "_adjoint", lambda a: seen.append(a) or adjoint(a))
    conjugate_pair_suite(dim, U, V, rng=Sampler(0), n_random=8)
    x, z = schwinger._monomial(U), schwinger._monomial(V)
    rows, vals = (np.concatenate(t) for t in zip(*seen))
    labels = lattice._checked_labels(dim)
    assert len(rows) == len(labels)
    for (m1, m2), r, v in zip(labels.tolist(), rows, vals):
        ref_rows, ref_vals = schwinger._times(_power_loop(x, m1 % d), _power_loop(z, m2 % d))
        assert np.array_equal(r, ref_rows)
        assert np.array_equal(v, lattice._half_phase(d, m1, m2) * ref_vals)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9, 13])
def test_eigensystem_on_label_arrays_equals_the_per_label_calls(d):
    labels = np.array([m for m in window_vectors(make_dimension(d))
                       if schwinger._has_closed_form(d, *m)])
    lam, vecs = schwinger._eigensystem(d, labels[:, 0], labels[:, 1])
    assert lam.shape == (len(labels), d) and vecs.shape == (len(labels), d, d)
    for i, (m1, m2) in enumerate(labels.tolist()):
        ref_lam, ref_vecs = schwinger._eigensystem(d, m1, m2)
        assert ref_lam.shape == (d,) and ref_vecs.shape == (d, d)
        assert np.array_equal(lam[i], ref_lam) and np.array_equal(vecs[i], ref_vecs)
    # labels.shape leads both outputs; a degenerate label anywhere refuses the stack
    half = len(labels) // 2 * 2
    lam2, vecs2 = schwinger._eigensystem(d, *labels[:half].reshape(2, -1, 2).transpose(2, 0, 1))
    assert np.array_equal(lam2.reshape(half, d), lam[:half])
    assert np.array_equal(vecs2.reshape(half, d, d), vecs[:half])
    with pytest.raises(DegenerateSpectrumError, match=r"label \(0,0\)"):
        schwinger._eigensystem(d, np.append(labels[:, 0], 0), np.append(labels[:, 1], 0))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 9, 13, 31])
def test_stacked_weyl_and_sine_checks_equal_the_per_pair_loop(d):
    # the pairs verify's schwinger suite draws, checked as one stack and one pair at a time
    dim = make_dimension(d)
    m, n = Sampler(d).integers(-2 * d, 2 * d, (30, 2, 2)).swapaxes(0, 1)
    sine = schwinger.sine_commutator_check(dim, m, n)
    weyl = schwinger.weyl_commutator_check(dim, m, n)
    assert sine.shape == (30,) and all(v.shape == (30,) for v in weyl.values())
    for i, (mi, ni) in enumerate(zip(m.tolist(), n.tolist())):
        assert sine[i] == _sine_loop(dim, mi, ni)
        loop = _weyl_loop(dim, mi, ni)
        assert {k: v[i] for k, v in weyl.items()} == loop
        one = schwinger.weyl_commutator_check(dim, mi, ni)
        assert all(v.shape == () for v in one.values()) and one == loop
        assert schwinger.sine_commutator_check(dim, mi, ni) == sine[i]
    # labels of shape (..., 2): the leading axes are the pairs'
    grid = schwinger.sine_commutator_check(dim, m.reshape(5, 6, 2), n.reshape(5, 6, 2))
    assert np.array_equal(grid, sine.reshape(5, 6))


@pytest.mark.parametrize("d", [2, 3, 4, 7, 13, 31])
def test_pair_suites_run_on_entries_and_build_no_dense_pair(monkeypatch, d):
    # both suites built their pair as dense D x D matrices and scanned them back
    dim = make_dimension(d)
    U, V = build_shift_operator(dim), build_clock_operator(dim)
    pair = numberphase.build_phase_pair(dim)
    dense = [conjugate_pair_suite(dim, X, Z, rng=Sampler(d), n_random=60)
             for X, Z in ((U, V), (pair.e_n, pair.e_phi))]

    def refuse(*args, **kwargs):
        raise AssertionError("a pair suite built a dense operator")

    for module in (lattice, schwinger, numberphase):
        for name in ("build_shift_operator", "build_clock_operator", "build_phase_pair"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    got = [schwinger.standard_pair_suite(dim, rng=Sampler(d), n_random=60),
           numberphase.identification_suite(dim, rng=Sampler(d), n_random=60)]
    for rows, ref in zip(got, dense):
        assert list(rows) == list(ref)
        assert all(rows[k] == ref[k] for k in ref), (rows, ref)


@pytest.mark.parametrize("d", [13, 31])
def test_composition_row_reads_rounding_on_unreduced_labels(d):
    # the random labels reach |a x b| ~ 8 D^2; with the phase exponent taken
    # unreduced the row read 2.6e-14 to 7.5e-14 here
    for seed in range(3):
        rows = schwinger.standard_pair_suite(make_dimension(d), rng=np.random.default_rng(seed),
                                             n_random=400)
        assert rows["composition"] < 2e-14


@pytest.mark.parametrize("d", DIMENSIONS)
def test_fourier_covariance_residuals_equal_the_per_label_loop(d):
    # the row applies F by FFT, the oracle by dense matmul: both read rounding,
    # so they agree to rounding, not bit for bit
    dim = make_dimension(d)
    labels = window_vectors(dim) + [(d + 2, -3 * d + 1), (-2 * d, 1 - d)]
    fft = schwinger.fourier_covariance_residuals(dim, labels)
    assert_allclose(fft, fourier_covariance(dim, labels), rtol=0, atol=1e-14)
    assert fft.max() <= 1e-14


@pytest.mark.parametrize("d", DIMENSIONS)
def test_action_angle_kernel_forms_equal_the_label_loops(d):
    dim = make_dimension(d)
    for J, theta in ((1.0, 0.7), (-2.5, dim.gamma0), (d + 0.3, 4.0)):
        K = numberphase.build_action_angle_kernel(dim, J, theta).matrix
        assert_allclose(K, _kernel_loop(dim, J, theta), rtol=0, atol=1e-15)
        assert_allclose(numberphase.action_angle_phase_form(dim, J, theta),
                        _phase_form_loop(dim, J, theta), rtol=0, atol=1e-15)


@pytest.mark.parametrize("suite, budget", [(verify.suite_schwinger, 58.4e6),
                                           (verify.suite_numberphase, 15.1e6)])
def test_blocked_suites_stay_within_the_traced_peak_of_the_label_loops(suite, budget):
    # the label-by-label suites peaked at 58.4 MB and 15.1 MB or more at D = 31;
    # the monomial rows hold the pair's powers as D x D arrays (1.9 and 2.3 MB)
    tracemalloc.start()
    try:
        suite(make_dimension(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, peak


def test_numberphase_suite_peaks_at_its_largest_step():
    # it held every kernel and grid to its end: a traced peak of 14.6 MB at
    # D = 211, against 6.4 MB for its largest step, the even/odd split of a state
    d = 211
    dim = make_dimension(d)
    psi = random_state(dim, seed=1)
    verify.suite_numberphase(dim)      # the phase and inverse tables are cached per D
    peaks = []
    for step in (lambda: limits.wigner_even_odd_decomposition(dim, psi),
                 lambda: verify.suite_numberphase(dim)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + d * d * 16, peaks


def test_sampled_pairs_hold_no_copy_of_the_window_per_pair():
    # each sampled m' was a row of a filtered copy of the D^2 window labels,
    # which it kept alive: 64 copies, a traced peak of 48 MB at D = 211
    dim = make_dimension(211)
    tracemalloc.start()
    try:
        m, mp = verify._swept_pairs(dim, 0, verify._ORBIT_SAMPLES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m) == len(mp) == verify._ORBIT_SAMPLES
    assert peak <= 10e6, peak
