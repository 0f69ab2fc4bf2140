"""The Wigner suites' per-point kernel path against the dense kernel grid.

The suites check the kernel identities on kernels built a block of grid
points at a time (wigner._kernels, one displacement sum each) and the state
rows on chi grids.  Here the (D, D, D, D) grid of kernel_oracle is the
reference for those kernels, the FFT quarter turn, the dual traces and the
resolution sum; fault tests show that a broken kernel or grid shows in the
row that owns it.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torusphase
from kernel_oracle import kernel_grid
from torusphase import (
    build_fourier_operator,
    canonical_window,
    make_dimension,
    schwinger_matrix,
    symbol_reconstruct,
    wigner,
)

SMALL = (2, 3, 4, 5, 6, 7, 13)
TOL = 1e-14


def _max(a) -> float:
    return float(np.max(np.abs(a)))


@pytest.mark.parametrize("d", SMALL)
def test_per_point_kernels_match_the_oracle(d):
    dim = make_dimension(d)
    v = wigner._checked_points(dim)
    assert len(v) == d * d                       # every point below the sampling bound
    K = np.concatenate([k for _, k in wigner._kernel_blocks(dim)])
    assert _max(K - kernel_grid(dim)[v[:, 0], v[:, 1]]) <= TOL


@pytest.mark.parametrize("d", SMALL)
def test_fft_quarter_turn_is_conjugation_by_the_dense_fourier_operator(d):
    dim = make_dimension(d)
    F = build_fourier_operator(dim)
    K = kernel_grid(dim).reshape(-1, d, d)
    assert _max(wigner._quarter_turn(K) - F @ K @ F.conj().T) <= TOL


@pytest.mark.parametrize("d", SMALL)
def test_dual_traces_from_the_diagonals_match_the_oracle(d):
    """D Tr(Delta(V) S_m^dag) for every window m, as kernel_suite takes it."""
    dim = make_dimension(d)
    w = np.array(canonical_window(dim))
    j = np.arange(d)
    K = wigner._kernels(dim, wigner._checked_points(dim))
    dual = d * wigner._trace_chi(d, K[:, (j + w[:, None]) % d, j].conj(), w, w).conj()
    S = np.array([[schwinger_matrix(dim, (a, b)) for b in w] for a in w])
    dense = d * np.einsum("pij,abij->pab", kernel_grid(dim).reshape(-1, d, d), S.conj())
    assert _max(dual - dense) <= TOL


@pytest.mark.parametrize("d", SMALL)
def test_resolution_sum_matches_the_oracle(d):
    dim = make_dimension(d)
    total = symbol_reconstruct(dim, np.ones((d, d))) / d
    assert _max(total - kernel_grid(dim).sum(axis=(0, 1))) <= TOL
    assert _max(total - np.eye(d)) <= TOL


@pytest.mark.parametrize("d", SMALL)
def test_rotation_row_matches_the_oracle_turn(d):
    dim = make_dimension(d)
    K = kernel_grid(dim)
    F = build_fourier_operator(dim)
    v = np.arange(d)
    oracle = _max(F @ K @ F.conj().T - K[(-v[None, :]) % d, v[:, None]])
    assert abs(wigner.kernel_rotation_residual(dim) - oracle) <= TOL


def test_a_perturbed_kernel_entry_shows_in_the_hermitian_row(monkeypatch):
    dim = make_dimension(7)
    build = wigner._kernels

    def perturbed(dim, points):
        K = build(dim, points)
        K[0, 0, 1] += 1e-6
        return K

    assert wigner.kernel_suite(dim)["hermitian"] < 1e-14
    monkeypatch.setattr(wigner, "_kernels", perturbed)
    assert wigner.kernel_suite(dim)["hermitian"] > 1e-7


def test_a_state_grid_with_a_flipped_sign_shows_in_the_norm_row(monkeypatch):
    dim = make_dimension(7)
    grid = wigner._state_grid
    calls = []

    def flipped(dim, psi):
        calls.append(psi)
        return -grid(dim, psi) if len(calls) == 1 else grid(dim, psi)

    assert wigner.property_suite(dim, n_states=2, seed=1)["norm"] < 1e-14
    monkeypatch.setattr(wigner, "_state_grid", flipped)
    rows = wigner.property_suite(dim, n_states=2, seed=1)
    assert rows["norm"] > 1e-7
    assert rows["chi_grid"] > 1e-7


def test_sampled_points_are_seeded_and_bounded():
    dim = make_dimension(101)
    v = wigner._checked_points(dim)
    assert len(v) == (1 << 24) // 101**2 == 1644
    assert len({tuple(p) for p in v.tolist()}) == len(v)
    assert np.array_equal(v, wigner._checked_points(make_dimension(101)))
    assert len(wigner._checked_points(make_dimension(64))) == 64 * 64


def test_verify_wigner_above_the_sampling_bound_names_its_point_count():
    src = str(Path(torusphase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "torusphase.cli", "verify", "--d", "101",
                           "--suite", "wigner"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {ln.split()[0]: ln for ln in proc.stdout.splitlines()[1:-1]}
    for name in ("hermitian", "trace", "dual", "rotation", "chi_grid"):
        assert "1644 of 10201 points" in rows[name], rows[name]
    assert proc.stdout.splitlines()[-1].startswith("PASS")
