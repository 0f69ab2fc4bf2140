"""Discrete Wigner function on the torus phase-space grid.

The kernel Delta(V) = (1/D^2) sum_m e^{-i gamma0 m x V} S_m over the canonical
label window is the operator-valued Fourier dual of the torus basis; its
expectation value in a state is the (real) Wigner function on the D x D grid.
The continuous phase-space integral collapses to the unit-weight sum over grid
points because every integrand is a finite Fourier series with gamma0-multiple
frequencies, so the D-point rule is exact.

Every grid is built from one object, the characteristic function
chi(m) = <psi|S_m|psi> (or Tr(A S_m) for an operator), whose 2-D discrete
Fourier dual is W(V): one FFT per label row gives chi on the window and one
2-D FFT gives the grid, O(D^2 log D) time and O(D^2) memory.  The (D,D,D,D)
kernel grid is kept only as an independent oracle for the small-D suites.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonRealWignerError
from .lattice import (
    Dimension,
    _half_phase,
    build_fourier_operator,
    canonical_window,
    max_abs,
    random_state,
    window_vectors,
)

TORUS_NORMALIZATION = "torus-1/D^2"


def _trace_chi(d: int, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(A S_(a_i, b_k)) from the diagonals rows[i, j] = A[j, (j + a_i) mod D]."""
    return np.fft.fft(rows, axis=1)[:, b % d] * _half_phase(d, a[:, None], b[None, :])


def characteristic(d: int, psi: np.ndarray, a, b) -> np.ndarray:
    """chi[i, k] = <psi| S_(a_i, b_k) |psi> for integer label arrays a and b.

    Labels may be unreduced; the half-phase uses the exact product a_i b_k,
    so the sign law S_(m + D n) = +/- S_m is reproduced.
    """
    psi = np.asarray(psi, dtype=complex)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    j = np.arange(d)
    rows = np.conj(psi[(j + a[:, None]) % d]) * psi
    return _trace_chi(d, rows, a, b)


def _window(dim: Dimension) -> np.ndarray:
    return np.array(canonical_window(dim), dtype=np.int64)


def _window_dft(dim: Dimension, chi: np.ndarray, period: int | None = None) -> np.ndarray:
    """(1/D^2) sum_m e^{-i gamma0 m x V} chi[m] on the grid, indexed [V1, V2].

    chi is indexed by window labels, distinct mod D and mod 2D: at their
    residues, the FFT over m1 runs to V2 and the inverse FFT over m2 to V1,
    which takes `period` values t D / period (D: integers, 2D: halves).
    """
    d = dim.d
    n = period or d
    w = _window(dim)
    g = np.zeros((d, n), dtype=complex)
    g[np.ix_(w % d, w % n)] = chi
    return np.fft.ifft(np.fft.fft(g, axis=0), axis=1).T / d * (n // d)


def _displacement_sum(dim: Dimension, coeff: np.ndarray) -> np.ndarray:
    """sum_m coeff[m] S_m over window labels m, built diagonal by diagonal.

    S_m has entries e^{-i pi m1 m2 / D} e^{-i gamma0 m2 j} at ((j + m1) mod D, j),
    so each m1 contributes one FFT over m2 along its diagonal.
    """
    d = dim.d
    w = _window(dim)
    h = np.empty((d, d), dtype=complex)
    h[:, w % d] = coeff * _half_phase(d, w[:, None], w[None, :])
    j = np.arange(d)
    out = np.empty((d, d), dtype=complex)
    out[(j + w[:, None]) % d, j] = np.fft.fft(h, axis=1)
    return out


@lru_cache(maxsize=2)
def _kernel_grid_cached(d: int) -> np.ndarray:
    """All D^2 kernels, indexed K[V1, V2, :, :]."""
    from .schwinger import schwinger_stack

    dim = Dimension(d)
    labels = window_vectors(dim)
    stack = schwinger_stack(d, labels)   # (n_m, d, d)
    m1 = np.array([m[0] for m in labels])
    m2 = np.array([m[1] for m in labels])
    a = np.arange(d)
    # phase[i, V1, V2] = exp(-i gamma0 (m1_i V2 - m2_i V1))
    phase = np.exp(-1j * dim.gamma0 * (m1[:, None, None] * a[None, None, :]
                                       - m2[:, None, None] * a[None, :, None]))
    K = np.einsum("mab,mij->abij", phase, stack) / d**2
    K.flags.writeable = False
    return K


def kernel_grid(dim: Dimension) -> np.ndarray:
    """Array of shape (D, D, D, D): the kernel at every grid point.

    O(D^6) time and O(D^4) memory: an independent oracle for the small-D
    verification suites, never used to compute a grid.
    """
    return _kernel_grid_cached(dim.d)


@dataclass(frozen=True)
class WignerGrid:
    dim: Dimension
    values: np.ndarray          # real, indexed [V1, V2] (or [J, theta-index])
    state_ref: str = ""
    normalization: str = TORUS_NORMALIZATION

    def total(self) -> float:
        return float(self.values.sum())


def wigner_function(dim: Dimension, state: np.ndarray, state_ref: str = "",
                    reality_tol: float = 1e-12) -> WignerGrid:
    """W(V) = <psi| Delta(V) |psi> at every grid point, from chi in O(D^2 log D).

    Raises NonRealWignerError when the grid is not real to reality_tol, as at
    even D >= 4, where the window {0, ..., D-1} is not closed under m -> -m.
    """
    w = _window(dim)
    W = _window_dft(dim, characteristic(dim.d, state, w, w))
    imag = float(np.max(np.abs(W.imag)))
    if imag > reality_tol:
        raise NonRealWignerError(f"Wigner values not real at D={dim.d}: "
                                 f"imaginary part {imag:.2e}")
    vals = np.ascontiguousarray(W.real)
    vals.flags.writeable = False
    return WignerGrid(dim=dim, values=vals, state_ref=state_ref)


def classical_symbol(dim: Dimension, op: np.ndarray) -> np.ndarray:
    """f(V) = Tr(F Delta(V)) on the grid; pairs with W as sum f W = <F>/D."""
    A = np.asarray(op, dtype=complex)
    w = _window(dim)
    j = np.arange(dim.d)
    return _window_dft(dim, _trace_chi(dim.d, A[j, (j + w[:, None]) % dim.d], w, w))


def symbol_reconstruct(dim: Dimension, symbol: np.ndarray) -> np.ndarray:
    """Inverse of classical_symbol: F = D sum_V f(V) Delta(V) = sum_m c_m S_m."""
    f = np.asarray(symbol, dtype=complex)
    w = _window(dim) % dim.d
    c = np.fft.ifft(np.fft.fft(f, axis=1), axis=0).T      # c[m1, m2] at residues
    return _displacement_sum(dim, c[np.ix_(w, w)])


def kernel_rotation_residual(dim: Dimension) -> float:
    """Worst residual of F Delta(V) F^dag = Delta(-V2, V1) over the grid.

    The quarter turn acts forward on the phase-space point, matching the
    label action F S_m F^-1 = S_{(-m2, m1)}.
    """
    K = kernel_grid(dim)
    F = build_fourier_operator(dim)
    v = np.arange(dim.d)
    return max_abs(F @ K @ F.conj().T - K[(-v[None, :]) % dim.d, v[:, None]])


def kernel_suite(dim: Dimension) -> dict:
    """Structural kernel identities as max-norm residuals.

    hermitian / trace (= 1/D) / resolution (sum over V = identity) /
    dual (sum_V e^{i gamma0 m x V} Delta(V) = S_m) / completeness (symbol
    round-trip on a random operator) / rotation (F Delta(V) F^dag equals the
    kernel at the quarter-turned point (-V2, V1)) / rotation4 (four turns
    return the kernel).  The rotation residuals are O(1) at D=2, where the
    half-phases break quarter-turn covariance; callers gate on odd D.
    """
    from .schwinger import schwinger_matrix

    d = dim.d
    K = kernel_grid(dim)
    res = {
        "hermitian": max_abs(K - K.conj().transpose(0, 1, 3, 2)),
        "trace": float(np.max(np.abs(np.einsum("abii->ab", K) - 1.0 / d))),
        "resolution": max_abs(K.sum(axis=(0, 1)) - np.eye(d)),
    }
    a = np.arange(d)
    dual = 0.0
    for m in window_vectors(dim):
        phase = np.exp(1j * dim.gamma0 * (m[0] * a[None, :] - m[1] * a[:, None]))
        acc = np.einsum("ab,abij->ij", phase, K)
        dual = max(dual, max_abs(acc - schwinger_matrix(dim, m)))
    res["dual"] = dual
    rng = np.random.default_rng(d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    res["completeness"] = max_abs(symbol_reconstruct(dim, classical_symbol(dim, op)) - op)
    F = build_fourier_operator(dim)
    res["rotation"] = kernel_rotation_residual(dim)
    K4 = K[1 % d, 2 % d]
    for _ in range(4):
        K4 = F @ K4 @ F.conj().T
    res["rotation4"] = max_abs(K4 - K[1 % d, 2 % d])
    return res


def property_suite(dim: Dimension, n_states: int = 6, rng=None, seed=None,
                   states=None) -> dict:
    """Worst-case residuals of the six fundamental Wigner-function properties.

    (i) reality; (ii) marginals in both conjugate bases; (iii) covariance under
    U^n1 / V^n2 translations; (iv) time inversion (conjugation) and parity
    (F^2); (v) overlap sum_V W W' = |<psi|psi'>|^2 / D including self-overlap
    1/D; (vi) trace pairing with a random Hermitian operator through its
    classical symbol.  States default to seeded random ones.  Grids come from
    the kernel-grid oracle; chi_grid is the deviation of the characteristic-
    function grid that wigner_function returns from that oracle.
    """
    from .schwinger import schwinger_matrix

    d = dim.d
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 20260817)
    K = kernel_grid(dim)
    F = build_fourier_operator(dim)
    ii = np.arange(d)
    w = _window(dim)
    worst: dict[str, float] = {}

    def bump(key, val):
        worst[key] = max(worst.get(key, 0.0), float(val))

    def wig(v):
        return np.einsum("i,abij,j->ab", v.conj(), K, v)

    if states is None:
        states = [random_state(dim, rng=rng) for _ in range(n_states)]
    for psi in states:
        phiv = random_state(dim, rng=rng)
        Wc = wig(psi)
        bump("real", np.max(np.abs(Wc.imag)))
        bump("chi_grid", max_abs(Wc - _window_dft(dim, characteristic(d, psi, w, w))))
        W = Wc.real
        bump("norm", abs(W.sum() - 1.0))
        bump("marginal_u", np.max(np.abs(W.sum(axis=1) - np.abs(psi) ** 2)))
        bump("marginal_v", np.max(np.abs(W.sum(axis=0) - np.abs(F.conj().T @ psi) ** 2)))
        n1 = int(rng.integers(1, d)) if d > 1 else 0
        n2 = int(rng.integers(1, d)) if d > 1 else 0
        Wt = wig(np.linalg.matrix_power(schwinger_matrix(dim, (1, 0)), n1) @ psi).real
        bump("translation_u", max_abs(Wt - W[(ii[:, None] - n1) % d, ii[None, :]]))
        Wv = wig(np.linalg.matrix_power(schwinger_matrix(dim, (0, 1)), n2) @ psi).real
        bump("translation_v", max_abs(Wv - W[ii[:, None], (ii[None, :] - n2) % d]))
        Wstar = wig(psi.conj()).real
        bump("time_inversion", max_abs(Wstar - W[ii[:, None], (-ii[None, :]) % d]))
        bump("parity", max_abs(wig(F @ (F @ psi)).real
                               - W[(-ii[:, None]) % d, (-ii[None, :]) % d]))
        Wphi = wig(phiv).real
        bump("overlap", abs((W * Wphi).sum() - abs(np.vdot(psi, phiv)) ** 2 / d))
        bump("self_overlap", abs((W * W).sum() - 1.0 / d))
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = H + H.conj().T
        fsym = classical_symbol(dim, H)
        bump("symbol_real", np.max(np.abs(fsym.imag)))
        bump("pairing", abs((fsym.real * W).sum() - np.real(psi.conj() @ H @ psi) / d))
    return worst
