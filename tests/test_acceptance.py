"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single pass/fail line with its runtime so the suite doubles
as a quick conformance report:

    pytest tests/test_acceptance.py -s
"""
import time

import numpy as np

import torusphase as tp
from basis_oracle import dense_eigensystem_residuals
from test_limits import _dense_commutator_check
from torusphase.deformed import oscillator_sweep, sl2_sweep


def _finish(num: int, failures: list, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < budget
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s / budget {budget:g}s)")
    assert elapsed < budget, f"criterion {num:02d} exceeded budget: {elapsed:.2f}s"
    assert not failures, f"criterion {num:02d}: {failures[:5]}"


def _nonzero_window(dim) -> list:
    return [tuple(w) for w in tp.window_vectors(dim) if tuple(w) != (0, 0)]


def test_criterion_01_displacement_algebra():
    t0 = time.monotonic()
    failures = []
    for d in (2, 3, 5, 7, 11, 13):
        dim = tp.make_dimension(d)
        res = tp.standard_pair_suite(dim, rng=np.random.default_rng(d), n_random=200)
        for name, value in res.items():
            if value >= 1e-11:
                failures.append((d, name, value))
    _finish(1, failures, t0, 10.0)


def test_criterion_02_closed_form_eigensystems():
    t0 = time.monotonic()
    failures = []
    for d in (3, 5, 7):
        dim = tp.make_dimension(d)
        for m in _nonzero_window(dim):
            sys = tp.eigensystem_by_recursion(dim, m)
            smat = tp.schwinger_matrix(dim, m)
            direct = tp.max_abs(smat @ sys.eigenvectors
                                - sys.eigenvectors @ np.diag(sys.eigenvalues))
            if direct >= 1e-10:
                failures.append((d, m, "eigen_equation", direct))
            (lam_res,), (vec_res,) = dense_eigensystem_residuals(dim, [m])
            if lam_res >= 1e-10:
                failures.append((d, m, "eigenvalues", lam_res))
            if vec_res >= 1e-8:
                failures.append((d, m, "eigenvectors", vec_res))
    _finish(2, failures, t0, 5.0)


def test_criterion_03_deformed_oscillator_family():
    t0 = time.monotonic()
    failures = []
    for d in (3, 5, 7, 11):
        dim = tp.make_dimension(d)
        labels = _nonzero_window(dim)
        built = []
        for m in labels:
            for mp in labels:
                try:
                    osc = tp.build_q_oscillator(dim, m, mp)
                except (tp.CollinearVectorsError, tp.SingularDeformationError):
                    continue
                built.append((m, mp))
                c_ref = 1.0 / abs(np.sin(dim.gamma0 * tp.lattice_cross(m, mp)))
                if abs(osc.shift_constant - c_ref) >= 1e-12:
                    failures.append((d, m, mp, "shift_constant"))
                if osc.spectrum.min() < 0.0:
                    failures.append((d, m, mp, "negative_spectrum"))
        if not built:
            failures.append((d, "no_pairs_built"))
            continue
        sweep = oscillator_sweep(dim, *np.array(built).swapaxes(0, 1))
        if sweep.built != len(built) or sweep.worst["number"] >= 1e-10:
            failures.append((d, "number_relation"))
        if d % 2 == 1 and sweep.worst["spectrum_min"] < 1e-9:
            failures.append((d, "unexpected_lowest_weight"))
    _finish(3, failures, t0, 30.0)


def test_criterion_04_deformed_sl2_realisation():
    t0 = time.monotonic()
    failures = []
    for d in (3, 5, 7):
        dim = tp.make_dimension(d)
        for m, mp in (((1, 0), (0, 1)), ((1, 1), (1, -1))):
            rep = sl2_sweep(dim, [m], [mp])
            if rep.built != 1:
                failures.append((d, m, mp, "not_built"))
            res = rep.worst
            for name, value in res.items():
                if value >= 1e-10:
                    failures.append((d, m, mp, name, value))
            if res["casimir_forms"] >= 1e-10:
                failures.append((d, m, mp, "casimir_forms_differ"))
            if res["casimir_value"] >= 1e-10:
                failures.append((d, m, mp, "casimir_not_central"))
    _finish(4, failures, t0, 5.0)


def test_criterion_05_wigner_properties():
    t0 = time.monotonic()
    failures = []
    for d in (3, 5, 7, 11):
        dim = tp.make_dimension(d)
        for name, value in tp.kernel_suite(dim).items():
            if value >= 1e-10:
                failures.append((d, "kernel", name, value))
        props = tp.property_suite(dim, n_states=50, seed=d)
        for name, value in props.items():
            if value >= 1e-10:
                failures.append((d, "state", name, value))
    # the two-dimensional case is reported but not gated: the kernel keeps
    # hermiticity/trace/resolution, while the rotation identities break
    d2 = tp.property_suite(tp.make_dimension(2), n_states=10, seed=2)
    bad = {k: f"{v:.2e}" for k, v in d2.items() if v >= 1e-10}
    print(f"[criterion 05] D=2 ungated residuals over tolerance: {bad or 'none'}")
    _finish(5, failures, t0, 60.0)


def test_criterion_06_metaplectic_covariance():
    t0 = time.monotonic()
    failures = []
    for d in (5, 7):
        dim = tp.make_dimension(d)
        for k in range(10):
            smap = tp.random_symplectic(dim, seed=100 * d + k)
            op = tp.build_metaplectic(dim, smap)
            if op.unitary_residual >= 1e-12:
                failures.append((d, k, "unitary", op.unitary_residual))
            worst = tp.covariance_report(op).worst
            if worst >= 1e-9:
                failures.append((d, k, "covariance", worst))
        four = tp.fourier_check(dim)
        if four >= 1e-10:
            failures.append((d, "fourier_map", four))
    _finish(6, failures, t0, 10.0)


def test_criterion_07_number_phase_identification():
    t0 = time.monotonic()
    failures = []
    for d in (2, 3, 5, 7, 11, 13):
        dim = tp.make_dimension(d)
        res = tp.identification_suite(dim, rng=np.random.default_rng(d), n_random=200)
        for name, value in res.items():
            if value >= 1e-11:
                failures.append((d, name, value))
    for d, picks in ((5, range(5)), (31, (0, 7, 30))):
        dim = tp.make_dimension(d)
        for n0 in picks:
            grid = tp.wigner_number_phase(dim, tp.basis_state(dim, "u", n0))
            ref = np.zeros((d, d))
            ref[n0, :] = 1.0 / (2.0 * np.pi)
            err = tp.max_abs(grid.values - ref)
            if err >= 1e-10:
                failures.append((d, n0, "number_state_delta", err))
        for seed in (1, 2, 3):
            psi = tp.random_state(dim, seed=seed)
            grid = tp.wigner_number_phase(dim, psi)
            mass = grid.values.sum() * (2.0 * np.pi / d)
            if abs(mass - 1.0) >= 1e-10:
                failures.append((d, seed, "mass", mass))
    _finish(7, failures, t0, 20.0)


def test_criterion_08_spectral_index():
    t0 = time.monotonic()
    failures = []
    for d in (5, 13, 101):
        dim = tp.make_dimension(d)
        for case, profile in (("unit-cross", tp.limiting_spectrum(dim, "unit-cross")),
                              ("oscillator", tp.oscillator_profile(dim))):
            rep = tp.index_report(profile)
            if abs(rep["I"]) >= 1e-14:
                failures.append((d, case, rep["I"]))
        rep = tp.index_report(tp.linear_profile(dim))
        ref = np.exp(-rep["f0"]) * (1.0 - np.exp(-d))
        if abs(rep["I"] - ref) >= 1e-12:
            failures.append((d, "linear", rep["I"], ref))
    _finish(8, failures, t0, 1.0)


def test_criterion_09_shifted_bases():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(9)
    for d in (3, 5, 7):
        dim = tp.make_dimension(d)
        for _ in range(20):
            alpha = float(rng.uniform(-2.5, 2.5))
            basis = tp.build_shifted_fock(dim, alpha)
            g = basis.gram_residual()
            if g >= 1e-12:
                failures.append((d, alpha, "gram", g))
            measured = abs(np.vdot(np.eye(d)[:, 0], basis.vectors[:, 0]))
            ref = tp.shifted_overlap(dim, alpha)
            if abs(measured - ref) >= 1e-13:
                failures.append((d, alpha, "overlap_formula", measured, ref))
        for seed in (1, 2):
            psi = tp.random_state(dim, seed=seed)
            even, odd = tp.wigner_even_odd_decomposition(dim, psi)
            full = tp.wigner_number_phase(dim, psi)
            rec = tp.max_abs(even.values[0::2] + odd.values[0::2] - full.values)
            if rec >= 1e-10:
                failures.append((d, seed, "even_odd_reconstruction", rec))
    _finish(9, failures, t0, 10.0)


def test_criterion_10_large_dimension_limits():
    t0 = time.monotonic()
    failures = []
    primes = (11, 23, 47, 101)
    for observable in ("number-exp", "phase-exp"):
        rep = tp.weak_convergence_sweep(primes, observable=observable)
        drops = np.diff(rep.residuals)
        if not np.all(drops < 0):
            failures.append((observable, "not_strictly_decreasing", rep.residuals))
    for d in (5, 7, 11, 13, 31):
        dim = tp.make_dimension(d)
        for ell in (1, 2, 3):
            for r in (1, 2):
                rep = _dense_commutator_check(dim, ell, r)
                if rep["restricted"] >= 1e-11:
                    failures.append((d, ell, r, "restricted", rep["restricted"]))
    _finish(10, failures, t0, 60.0)
