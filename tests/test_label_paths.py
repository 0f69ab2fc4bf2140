"""The schwinger and number-phase rows on the package's label paths against their dense oracles.

The basis Gram rows are taken per block of equal m1, the action-angle
kernel is one torus displacement sum and its phase form one FFT, the pair
identities compare monomials, the phase-pair products are index gathers and
the eigen rows take the closed-form eigen equation; the rows over window
labels check every label up to D = 64 and a seeded sample above.
basis_oracle holds the dense forms these replace (its dense Fourier
covariance is compared in test_stacked); fault tests show that a broken
eigenvector, a wrong pair entry, a repeated label or a dropped reduction sign
shows in the row that owns it, and a source scan keeps dense factorizations
and matrix powers out of the package.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import basis_oracle
import torusphase
from torusphase import (
    build_clock_operator,
    build_shift_operator,
    make_dimension,
    numberphase,
    schwinger,
    verify,
    window_vectors,
)
from torusphase.lattice import _checked_labels, _checked_points, _phase, _phase_cross, max_abs
from torusphase.schwinger import schwinger_stack
from deformed_oracle import sl2_realisation

SMALL = (2, 3, 4, 5, 6, 7, 9, 13)
TOL = 1e-14


def _rows(rows) -> dict:
    return {r.name: r for r in rows}


@pytest.mark.parametrize("d", range(2, 14))
def test_block_rank_is_the_gram_rank(d):
    # the rows per m1 block against the dense D^2 x D^2 Gram: over every window
    # label, rows below 1/D mean rank D^2, which the dense rank confirms
    dim = make_dimension(d)
    labels = _checked_labels(dim)
    rows = schwinger.gram_residuals(dim, labels)
    assert np.abs(rows - basis_oracle.gram_rows(dim, labels)).max() <= 1e-15
    assert rows.max() <= TOL
    assert basis_oracle.gram_rank(dim) == d * d


@pytest.mark.parametrize("d", range(2, 32))
def test_fft_phase_form_is_the_per_m1_loop(d):
    dim = make_dimension(d)
    for J, theta in ((0.37, 1.3), (-2.5, 4.0), (d + 0.3, -0.7), (1.0, dim.gamma0)):
        fft = numberphase.action_angle_phase_form(dim, J, theta)
        assert max_abs(fft - basis_oracle.action_angle_phase_form(dim, J, theta)) <= 1e-14


@pytest.mark.parametrize("d", (2, 3, 4, 7, 12, 31))
def test_pair_gathers_are_the_matrix_products(d):
    # E_phi @ Ph is a row permutation times entries 1, exact as a gather: the
    # row is bit for bit the product's; E_N @ Ph is a diagonal product, which
    # zgemm rounds its own way
    pair = numberphase.build_phase_pair(make_dimension(d))
    EN, Ep, Ph = pair.e_n, pair.e_phi, pair.phase_states
    rows = numberphase.phase_pair_residuals(pair)
    assert rows["phase_eigen"] == max_abs(Ep @ Ph - Ph * _phase(d, 2 * np.arange(d)).conj())
    shift = max_abs(EN @ Ph - Ph[:, (np.arange(d) - 1) % d])
    assert abs(rows["number_shift"] - shift) <= 1e-15


def test_src_calls_no_dense_factorization_or_matrix_power():
    # the rows run on monomials, FFTs and closed forms; the dense forms they
    # replaced are the oracles under tests/
    banned = re.compile(r"matrix_rank|matrix_power|linalg\.(eig|svd|inv|solve)")
    src = Path(torusphase.__file__).resolve().parent
    hits = [f"{p.name}:{i}: {line.strip()}" for p in sorted(src.glob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1) if banned.search(line)]
    assert hits == []


@pytest.mark.parametrize("d", SMALL)
def test_action_angle_kernel_matches_the_power_stack_oracle(d):
    dim = make_dimension(d)
    for J, theta in ((1.0, 0.7), (1.0, dim.gamma0), (-2.5, 4.0), (d + 0.3, 2 * np.pi + 0.7)):
        K = numberphase.build_action_angle_kernel(dim, J, theta).matrix
        assert np.max(np.abs(K - basis_oracle.action_angle_kernel(dim, J, theta))) <= TOL


def test_checked_labels_are_the_window_below_the_sampling_bound_and_seeded_above():
    for d in (2, 7, 64):
        dim = make_dimension(d)
        assert _checked_labels(dim).tolist() == [list(m) for m in window_vectors(dim)]
    dim = make_dimension(101)
    labels = _checked_labels(dim)
    assert len(labels) == (1 << 24) // 101**2 == 1644
    window = np.array(window_vectors(dim))
    v = _checked_points(dim)
    assert np.array_equal(labels, window[v[:, 0] * 101 + v[:, 1]])
    assert np.array_equal(labels, _checked_labels(make_dimension(101)))


def test_a_perturbed_eigenvector_entry_shows_in_the_dense_match_row(monkeypatch):
    # the row reads the stacked closed forms: perturb label (1, 2) in its stack
    dim = make_dimension(7)
    exact = schwinger._eigensystem

    def perturbed(d, m1, m2):
        lam, vecs = exact(d, m1, m2)
        vecs = vecs.copy()
        vecs[(np.asarray(m1) == 1) & (np.asarray(m2) == 2), 3, 4] += 1e-6
        return lam, vecs

    assert _rows(verify.suite_schwinger(dim))["eigenvector_dense_match"].value < 1e-13
    monkeypatch.setattr(schwinger, "_eigensystem", perturbed)
    assert _rows(verify.suite_schwinger(dim))["eigenvector_dense_match"].value > 1e-7


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 9, 13, 31])
def test_monomial_rows_keep_the_oracle_status(d):
    # the pair suites of both pairs against the dense power stacks, and the
    # eigen rows against np.linalg.eig, on the labels the suites check
    dim = make_dimension(d)
    U, V = build_shift_operator(dim), build_clock_operator(dim)
    for X, Z in ((U, V), (V, U.T)):
        rows = schwinger.conjugate_pair_suite(dim, X, Z, rng=np.random.default_rng(0))
        basis_oracle.assert_within_oracle(
            dim, X, Z, rows, basis_oracle.pair_suite(dim, X, Z, rng=np.random.default_rng(0)))
    if not dim.prime:
        return
    labels = _checked_labels(dim)
    labels = labels[(labels % d != 0).any(axis=1)]
    lam, vec = (r.max() for r in schwinger.eigensystem_residuals(dim, labels))
    ref_lam, ref_vec = (r.max() for r in basis_oracle.dense_eigensystem_residuals(dim, labels))
    assert lam <= ref_lam + 1e-15
    # the vector row bounds an angle by the residual over the least gap (Davis-Kahan),
    # so it reads the eigenvalue bound over the gap: 7.2e-15 at D = 31, eig 4.7e-15
    ring = schwinger.eigensystem_by_recursion(dim, (1, 0)).eigenvalues
    gap = np.abs(ring[:, None] - ring + 9 * np.eye(d)).min()
    assert vec <= (ref_lam + 1e-15) / gap
    assert (vec < 1e-10) == (ref_vec < 1e-10) and (lam < 1e-10) == (ref_lam < 1e-10)


def test_power_sign_past_d365_reads_the_rounding_of_the_clock_entries():
    # the clock's entries raised to powers up to D^2 / 2 cross tol 1e-10 in
    # exact arithmetic too, so the suite's FAIL there is the entries' rounding
    dim = make_dimension(365)
    U, V = build_shift_operator(dim), build_clock_operator(dim)
    row = schwinger.conjugate_pair_suite(dim, U, V, n_random=4)["power_sign"]
    exact = basis_oracle.exact_power_rows(dim, U, V)["power_sign"]
    assert 1e-10 <= row <= exact + 1e-15 and exact < 1.05e-10


def test_a_repeated_closed_form_eigenvalue_reads_one_in_the_vector_row(monkeypatch):
    dim = make_dimension(7)
    exact = schwinger._eigensystem

    def repeated(d, m1, m2):
        lam, vecs = exact(d, m1, m2)
        lam = lam.copy()
        lam[..., 1] = lam[..., 0]
        return lam, vecs

    monkeypatch.setattr(schwinger, "_eigensystem", repeated)
    lam, vec = schwinger.eigensystem_residuals(dim, [(1, 2)])
    assert vec[0] == 1.0 and lam[0] > 0.1


@pytest.mark.parametrize("pair", ["standard", "number-phase"])
def test_a_wrong_pair_entry_shows_in_the_monomial_rows(pair):
    dim = make_dimension(7)
    U, V = build_shift_operator(dim), build_clock_operator(dim)
    X, Z = (U, V) if pair == "standard" else (V, U.T)
    rows = schwinger.conjugate_pair_suite(dim, X, Z)
    X = X.copy()
    X[np.flatnonzero(X[:, 3])[0], 3] *= 1 + 1e-6
    wrong = schwinger.conjugate_pair_suite(dim, X, Z)
    for k in ("composition", "adjoint", "power_sign"):
        assert rows[k] < 1e-13 and wrong[k] > 1e-7, (k, rows[k], wrong[k])


def test_a_pair_that_is_not_monomial_is_refused_by_its_first_bad_column():
    dim = make_dimension(5)
    U, V = build_shift_operator(dim), build_clock_operator(dim)
    X = U.copy()
    X[0, 2] = 0.5                        # column 2 gets a second entry
    with pytest.raises(ValueError, match="column 2 "):
        schwinger.conjugate_pair_suite(dim, X, V)
    X = U.copy()
    X[:, [1, 3]] = X[:, [1, 1]]          # columns 1 and 3 share a row
    with pytest.raises(ValueError, match="column 1 "):
        schwinger.conjugate_pair_suite(dim, V, X)


@pytest.mark.parametrize("k", [1, 7, 48])
def test_a_duplicated_label_drops_the_block_rank_by_one(monkeypatch, k):
    # checked label k replaced by label 0: taken from the m1 block of label 0
    # (k = 1) or from another (k = 7, 48); both copies read 1, the rest rounding
    dim = make_dimension(7)
    labels = _checked_labels(dim)
    labels[k] = labels[0]
    assert basis_oracle.gram_rank(dim, labels) == 48
    res = schwinger.gram_residuals(dim, labels)
    assert np.abs(res[[0, k]] - 1).max() < TOL and np.delete(res, [0, k]).max() < TOL
    monkeypatch.setattr(verify, "_checked_labels", lambda dim: labels)
    row = _rows(verify.suite_schwinger(dim))["basis_rank"]
    assert row.kind == "residual" and abs(row.value - 1) < TOL     # FAILs at any tol below 1


def test_dropping_the_even_d_reduction_sign_shows_in_the_two_forms_row(monkeypatch):
    # at D = 4 the coefficient of S_(n1, n2) with n1 != 0 carries (-1)^n2, as
    # S^np_m = S_(-m2, m1) = (-1)^m1 S_(4 - m2, m1); multiplied in again, it is dropped
    dim = make_dimension(4)
    n = np.arange(4)
    sign = np.where(n[:, None] != 0, (-1.0) ** n, 1.0)
    exact = numberphase._displacement_sum
    assert _rows(verify.suite_numberphase(dim))["kernel_two_forms"].value < TOL
    monkeypatch.setattr(numberphase, "_displacement_sum",
                        lambda dim, coeff: exact(dim, coeff * sign))
    assert _rows(verify.suite_numberphase(dim))["kernel_two_forms"].value > 1e-7


@pytest.mark.parametrize("d, m, mp", [(5, (1, 0), (0, 1)), (7, (2, 3), (-1, 4)),
                                      (13, (-20, 9), (3, 27)), (31, (1, 0), (0, 1))])
def test_sl2_outputs_are_the_stacked_forms(d, m, mp):
    # the stacked S_m, S_m' and S_{m-m'} on the realisation's eigenvectors: A is
    # the shift v_r -> v_{r-c} and S_w is s_p p^{J3}
    dim = make_dimension(d)
    o = sl2_realisation(dim, m, mp)
    S = schwinger_stack(d, [o.m, o.mp, np.subtract(o.m, o.mp)])
    V, c = o.eigenvectors, _phase_cross(d, o.cross)
    A = V.conj().T @ (o.d_coef * (S[0] + S[1])) @ V
    r = np.arange(d)
    assert np.abs(np.delete(A.T.ravel(), r * d + (r - c) % d)).max() < 1e-12
    Sw = np.exp(-1j * dim.gamma0 * c * o.j3_values) * o.s_p
    assert np.abs(V.conj().T @ S[2] @ V - np.diag(Sw)).max() < 1e-12


def test_verify_schwinger_above_the_sampling_bound_names_its_label_count():
    src = str(Path(torusphase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "torusphase.cli", "verify", "--d", "101",
                           "--suite", "schwinger"], capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    rows = {ln.split()[0]: ln for ln in proc.stdout.splitlines()[1:-1]}
    for name in ("trace", "adjoint", "power_sign", "fourier_covariance", "basis_rank",
                 "eigenvalue_closed_form", "eigenvector_dense_match"):
        assert "1644 of 10201 labels, seeded sample" in rows[name], rows[name]
    assert proc.stdout.splitlines()[-1].startswith("PASS")
