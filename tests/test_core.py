"""The characteristic-function core against dense and kernel-grid oracles."""
import ast
import time
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import torusphase
from kernel_oracle import kernel_grid
from torusphase import (
    canonical_window,
    characteristic,
    classical_symbol,
    make_dimension,
    random_state,
    schwinger_matrix,
    symbol_reconstruct,
    wigner_function,
)

SETTINGS = settings(max_examples=40, deadline=None, database=None)


def _state(d, seed):
    return random_state(make_dimension(d), seed=seed)


@SETTINGS
@given(st.data())
def test_characteristic_matches_dense_expectation(data):
    d = data.draw(st.integers(2, 40), label="d")
    dim = make_dimension(d)
    psi = _state(d, data.draw(st.integers(0, 2**31), label="seed"))
    labels = st.lists(st.integers(-2 * d, 2 * d), min_size=1, max_size=6)
    a = data.draw(labels, label="a")
    b = data.draw(labels, label="b")
    chi = characteristic(d, psi, a, b)
    dense = np.array([[psi.conj() @ schwinger_matrix(dim, (x, y)) @ psi for y in b] for x in a])
    # the dense half-phase is taken from products up to 4 D^2 = 6400 in float64
    assert np.max(np.abs(chi - dense)) < 1e-12


@SETTINGS
@given(st.sampled_from([2, 3, 5, 7, 9, 11, 13, 15]), st.integers(0, 2**31))
def test_wigner_function_matches_kernel_oracle(d, seed):
    dim = make_dimension(d)
    psi = _state(d, seed)
    oracle = np.einsum("i,abij,j->ab", psi.conj(), kernel_grid(dim), psi)
    assert np.max(np.abs(wigner_function(dim, psi).values - oracle)) <= 1e-14


@SETTINGS
@given(st.integers(2, 12), st.integers(0, 2**31))
def test_symbols_and_kernels_match_kernel_oracle(d, seed):
    """Every D, even D >= 4 included, where the grid is complex."""
    dim = make_dimension(d)
    K = kernel_grid(dim)
    rng = np.random.default_rng(seed)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert np.max(np.abs(classical_symbol(dim, op) - np.einsum("abij,ji->ab", K, op))) < 1e-13
    assert np.max(np.abs(symbol_reconstruct(dim, f) - d * np.einsum("ab,abij->ij", f, K))) < 1e-12


@SETTINGS
@given(st.integers(2, 40), st.integers(0, 2**31))
def test_pair_expectations_match_loop(d, seed):
    # <psi| S^np_m |psi> = chi(-m2, m1), since E_N = V and E_phi = U^-1
    dim = make_dimension(d)
    psi = _state(d, seed)
    mlist = np.array(canonical_window(dim))
    EV = characteristic(d, psi, -mlist, mlist).T
    n = np.arange(d)
    ref = np.zeros((d, d), dtype=complex)
    for i1, m1 in enumerate(canonical_window(dim)):
        row = psi.conj() * np.exp(-1j * dim.gamma0 * n * m1)
        for i2, m2 in enumerate(canonical_window(dim)):
            ref[i1, i2] = np.exp(-0.5j * dim.gamma0 * (m1 * m2)) * np.sum(row * psi[(n + m2) % d])
    assert np.max(np.abs(EV - ref)) < 1e-13


def test_large_dimension_grid_mass_and_marginals():
    d = 1009
    dim = make_dimension(d)
    psi = _state(d, 1)
    start = time.perf_counter()
    W = wigner_function(dim, psi).values
    elapsed = time.perf_counter() - start
    assert abs(W.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(W.sum(axis=1) - np.abs(psi) ** 2)) <= 1e-12
    v_amps = np.fft.ifft(psi) * np.sqrt(d)           # <v_l|psi> = (F^dag psi)_l
    assert np.max(np.abs(W.sum(axis=0) - np.abs(v_amps) ** 2)) <= 1e-12
    assert elapsed < 1.0


# exports no src/ code calls, each kept for a reader outside the package
UNCALLED_EXPORTS = {
    "conjugate_pair_suite": "the dense-pair entry point, the tests' reference",
    "window_vectors": "the label list",
}


def test_every_export_is_used_inside_the_package():
    # static: an export that only tests reach is a second path to the same
    # answer; each name must appear in src/ beyond its own def or class line
    src = Path(torusphase.__file__).resolve().parent
    used = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    exports = {name for names in torusphase._EXPORTS.values() for name in names}
    assert set(UNCALLED_EXPORTS) <= exports
    assert sorted(exports - used - set(UNCALLED_EXPORTS)) == []
