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
2-D FFT gives the grid, O(D^2 log D) time and O(D^2) memory.  The suites
check the kernels one grid point at a time, each built in O(D^2 log D).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonRealWignerError
from .lattice import (
    Dimension,
    Sampler,
    _checked_points,
    _half_phase,
    _phase,
    _quarter_turn,
    canonical_window,
    max_abs,
    random_state,
)

TORUS_NORMALIZATION = "torus-1/D^2"
# complex entries of one block of kernels built together: of 2^10..2^17, 2^15
# ran fastest at D = 31 (2^10 3.6x slower) and close to the fastest at D = 7..61
_KERNEL_BLOCK_ENTRIES = 1 << 15
_REALITY_TOL = 1e-12    # largest imaginary part of a grid read as real


def _trace_chi(d: int, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(A S_(a_i, b_k)) from the diagonals rows[..., i, j] = A[j, (j + a_i) mod D]."""
    return np.fft.fft(rows, axis=-1)[..., b % d] * _half_phase(d, a[:, None], b[None, :])


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


def _window_dft(dim: Dimension, chi: np.ndarray, period: int | None = None) -> np.ndarray:
    """(1/D^2) sum_m e^{-i gamma0 m x V} chi[m] on the grid, indexed [V1, V2].

    chi is indexed by window labels, distinct mod D and mod 2D: at their
    residues, the FFT over m1 runs to V2 and the inverse FFT over m2 to V1,
    which takes `period` values t D / period (D: integers, 2D: halves).
    """
    d = dim.d
    n = period or d
    w = canonical_window(dim)
    g = np.zeros((d, n), dtype=complex)
    g[np.ix_(w % d, w % n)] = chi
    return np.fft.ifft(np.fft.fft(g, axis=0), axis=1).T / d * (n // d)


def _displacement_sum(dim: Dimension, coeff: np.ndarray) -> np.ndarray:
    """sum_m coeff[..., m] S_m over window labels m (leading axes: a stack), diagonal by diagonal.

    S_m has entries e^{-i pi m1 m2 / D} e^{-i gamma0 m2 j} at ((j + m1) mod D, j),
    so each m1 contributes one FFT over m2 along its diagonal.
    """
    d = dim.d
    w = canonical_window(dim)
    h = np.empty(np.shape(coeff)[:-2] + (d, d), dtype=complex)
    h[..., w % d] = coeff * _half_phase(d, w[:, None], w[None, :])
    j = np.arange(d)
    out = np.empty_like(h)
    out[..., (j + w[:, None]) % d, j] = np.fft.fft(h, axis=-1)
    return out


def _kernels(dim: Dimension, points) -> np.ndarray:
    """Delta(V) per row V = (V1, V2) of points (P, 2), stacked (P, D, D), O(D^2 log D) each."""
    d, w = dim.d, canonical_window(dim)
    v1, v2 = np.asarray(points, dtype=np.int64).T[:, :, None, None]
    # e^{-i gamma0 m x V} / D^2 with m x V = m1 V2 - m2 V1
    return _displacement_sum(dim, _phase(d, 2 * (w[:, None] * v2 - w * v1)) / d**2)


def _kernel_blocks(dim: Dimension):
    """(points, kernels) over the checked points, a block of kernels at a time."""
    v, step = _checked_points(dim), max(1, _KERNEL_BLOCK_ENTRIES // dim.d**2)
    return ((v[lo:lo + step], _kernels(dim, v[lo:lo + step])) for lo in range(0, len(v), step))


@dataclass(frozen=True)
class WignerGrid:
    dim: Dimension
    values: np.ndarray          # real, indexed [V1, V2] (or [J, theta-index])
    state_ref: str = ""
    normalization: str = TORUS_NORMALIZATION

    def total(self) -> float:
        return float(self.values.sum())


def _state_grid(dim: Dimension, psi) -> np.ndarray:
    """<psi| Delta(V) |psi> on the grid from chi, complex, indexed [V1, V2]."""
    w = canonical_window(dim)
    return _window_dft(dim, characteristic(dim.d, psi, w, w))


def wigner_function(dim: Dimension, state: np.ndarray, state_ref: str = "") -> WignerGrid:
    """W(V) = <psi| Delta(V) |psi> at every grid point, from chi in O(D^2 log D).

    Raises NonRealWignerError when the grid is not real to _REALITY_TOL, as at
    even D >= 4, where the window {0, ..., D-1} is not closed under m -> -m.
    """
    W = _state_grid(dim, state)
    imag = float(np.max(np.abs(W.imag)))
    if imag > _REALITY_TOL:
        raise NonRealWignerError(f"Wigner values not real at D={dim.d}: "
                                 f"imaginary part {imag:.2e}")
    vals = np.ascontiguousarray(W.real)
    vals.flags.writeable = False
    return WignerGrid(dim=dim, values=vals, state_ref=state_ref)


def classical_symbol(dim: Dimension, op: np.ndarray) -> np.ndarray:
    """f(V) = Tr(F Delta(V)) on the grid; pairs with W as sum f W = <F>/D."""
    A = np.asarray(op, dtype=complex)
    w = canonical_window(dim)
    j = np.arange(dim.d)
    return _window_dft(dim, _trace_chi(dim.d, A[j, (j + w[:, None]) % dim.d], w, w))


def symbol_reconstruct(dim: Dimension, symbol: np.ndarray) -> np.ndarray:
    """Inverse of classical_symbol: F = D sum_V f(V) Delta(V) = sum_m c_m S_m."""
    f = np.asarray(symbol, dtype=complex)
    w = canonical_window(dim) % dim.d
    c = np.fft.ifft(np.fft.fft(f, axis=1), axis=0).T      # c[m1, m2] at residues
    return _displacement_sum(dim, c[np.ix_(w, w)])


def kernel_suite(dim: Dimension) -> dict:
    """Structural kernel identities as max-norm residuals.

    hermitian / trace (= 1/D) / dual (D Tr(Delta(V) S_m^dag) = e^{-i gamma0 m x V}
    for every window m) / rotation (F Delta(V) F^dag = Delta(-V2, V1)) at the
    checked points; resolution (sum over V = identity) / completeness (symbol
    round-trip on a random operator) / rotation4 (four turns return the
    kernel).  The rotation residuals are O(1) at D=2, where the half-phases
    break quarter-turn covariance; callers gate on odd D.
    """
    d, w, j = dim.d, canonical_window(dim), np.arange(dim.d)
    herm = trace = dual = rot = 0.0
    for v, K in _kernel_blocks(dim):
        herm = max(herm, max_abs(K - K.conj().swapaxes(1, 2)))
        trace = max(trace, max_abs(np.trace(K, axis1=1, axis2=2) - 1.0 / d))
        # Tr(Delta S_m^dag) = conj(Tr(Delta^dag S_m)), every m from the diagonals of Delta
        chi = _trace_chi(d, K[:, (j + w[:, None]) % d, j].conj(), w, w)
        dual = max(dual, max_abs(d * chi.conj() - _phase(
            d, 2 * (w[:, None] * v[:, 1:, None] - w * v[:, :1, None]))))
        # the turn acts forward on the point, as F S_m F^-1 = S_{(-m2, m1)} on the labels
        turned = _kernels(dim, np.stack([-v[:, 1] % d, v[:, 0]], 1))
        rot = max(rot, max_abs(_quarter_turn(K) - turned))
    # sum_V Delta(V) by linearity: the operator of the unit symbol, over D
    res = {"hermitian": herm, "trace": trace,
           "resolution": max_abs(symbol_reconstruct(dim, np.ones((d, d))) / d - np.eye(d)),
           "dual": dual}
    rng = Sampler(d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    res["completeness"] = max_abs(symbol_reconstruct(dim, classical_symbol(dim, op)) - op)
    res["rotation"] = rot
    K = K4 = _kernels(dim, [(1 % d, 2 % d)])[0]
    for _ in range(4):
        K4 = _quarter_turn(K4)
    res["rotation4"] = max_abs(K4 - K)
    return res


def property_suite(dim: Dimension, n_states: int = 6, seed=None) -> dict:
    """Worst-case residuals of the six fundamental Wigner-function properties.

    (i) reality; (ii) marginals in both conjugate bases; (iii) covariance under
    U^n1 / V^n2 translations; (iv) time inversion (conjugation) and parity
    (F^2); (v) overlap sum_V W W' = |<psi|psi'>|^2 / D including self-overlap
    1/D; (vi) trace pairing with a random Hermitian operator through its
    classical symbol, over n_states random states drawn from seed.  Grids are the
    complex chi grids of wigner_function; chi_grid is their deviation from
    <psi|Delta(V)|psi> at the checked points.
    """
    d = dim.d
    rng = Sampler(20260817 if seed is None else seed)
    j = np.arange(d)
    worst: dict[str, float] = {}

    def bump(key, val):
        worst[key] = max(worst.get(key, 0.0), float(val))

    psis = np.array([random_state(dim, rng=rng) for _ in range(n_states)],
                    dtype=complex).reshape(-1, d)
    v = _checked_points(dim)
    direct = np.concatenate([np.einsum("si,pis->sp", psis.conj(), K @ psis.T)
                             for _, K in _kernel_blocks(dim)], axis=1)
    for psi, chi in zip(psis, direct):
        phiv = random_state(dim, rng=rng)
        Wc = _state_grid(dim, psi)
        bump("real", np.max(np.abs(Wc.imag)))
        bump("chi_grid", max_abs(Wc[v[:, 0], v[:, 1]] - chi))
        W = Wc.real
        bump("norm", abs(W.sum() - 1.0))
        bump("marginal_u", np.max(np.abs(W.sum(axis=1) - np.abs(psi) ** 2)))
        # F^dag psi = sqrt(D) ifft(psi)
        bump("marginal_v", np.max(np.abs(W.sum(axis=0) - d * np.abs(np.fft.ifft(psi)) ** 2)))
        n1, n2 = (int(rng.integers(1, d)) for _ in range(2))
        # U^n1 rolls psi, V^n2 phases psi_j by e^{-i gamma0 n2 j}, F^2 takes psi_j to psi_{-j}
        for key, phi, grid in (
                ("translation_u", np.roll(psi, n1), np.roll(W, n1, axis=0)),
                ("translation_v", _phase(d, 2 * n2 * j) * psi,
                 np.roll(W, n2, axis=1)),
                ("time_inversion", psi.conj(), W[:, -j % d]),
                ("parity", psi[-j % d], W[-j % d][:, -j % d])):
            bump(key, max_abs(_state_grid(dim, phi).real - grid))
        Wphi = _state_grid(dim, phiv).real
        bump("overlap", abs((W * Wphi).sum() - abs(np.vdot(psi, phiv)) ** 2 / d))
        bump("self_overlap", abs((W * W).sum() - 1.0 / d))
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = H + H.conj().T
        fsym = classical_symbol(dim, H)
        bump("symbol_real", np.max(np.abs(fsym.imag)))
        bump("pairing", abs((fsym.real * W).sum() - np.real(psi.conj() @ H @ psi) / d))
    return worst
