"""Unitary number-phase pair and the action-angle Wigner representation.

E_N = e^{-i gamma0 N} (number exponential, diagonal) and the unitary phase
operator E_phi (cyclic lowering of the number index) satisfy the same clock
and shift exchange relation as the torus pair, so every torus-basis identity
transfers verbatim through the substitution (U, V) -> (E_N, E_phi).  The
basis elements built on the pair generate the action-angle kernel
Delta(J, theta) with 1/(2 pi D) normalization, whose expectation value is the
number-phase Wigner function on the J x theta grid.

The pair is the torus pair itself (E_N = V, E_phi = U^-1), so S^np_m is the
torus S_(-m2, m1): every grid is the torus chi(m) = <psi|S_m|psi> through the
torus window FFT, O(D^2 log D), and the action-angle kernel one torus
displacement sum, O(D^2 log D); at odd D, W(J, theta_j) = (D / 2pi)
W_torus(J, -j mod D).  The schwinger layer loads only for the suites.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhaseMismatchError
from .lattice import (
    Dimension,
    _phase,
    _reduce,
    build_clock_operator,
    build_fourier_operator,
    build_shift_operator,
    canonical_window,
    max_abs,
)
from .wigner import WignerGrid, _displacement_sum, _window_dft, characteristic

ACTION_ANGLE_NORMALIZATION = "action-angle-1/(2piD)"


@dataclass(frozen=True)
class PhasePair:
    dim: Dimension
    e_n: np.ndarray            # diag(e^{-i gamma0 n})
    e_phi: np.ndarray          # |n-1><n| cyclically
    phase_states: np.ndarray   # columns |phi_l>, entries e^{i gamma0 n l}/sqrt(D)


def build_phase_pair(dim: Dimension) -> PhasePair:
    """The torus pair itself: E_N = V, E_phi = U^T = U^-1, phase states = conj(F)."""
    e_n = build_clock_operator(dim)
    e_phi = build_shift_operator(dim).T
    ph = build_fourier_operator(dim).conj()
    for a in (e_n, e_phi, ph):
        a.flags.writeable = False
    return PhasePair(dim=dim, e_n=e_n, e_phi=e_phi, phase_states=ph)


def phase_pair_residuals(pair: PhasePair) -> dict:
    """The phase states' relations to the pair as max-norm residuals.

    The pair's own Weyl commutation and order-D cyclicity are the first rows
    of identification_suite.
    """
    d = pair.dim.d
    EN, Ep, Ph = pair.e_n, pair.e_phi, pair.phase_states
    r, c = np.arange(d), Ep.argmax(axis=1)      # E_phi permutes: row r has its entry at c[r]
    return {"orthonormal": max_abs(Ph.conj().T @ Ph - np.eye(d)),
            "complete": max_abs(Ph @ Ph.conj().T - np.eye(d)),
            "phase_eigen": max_abs(Ep[r, c][:, None] * Ph[c] - Ph * _phase(d, 2 * r).conj()),
            "number_shift": max_abs(EN[r, r][:, None] * Ph - Ph[:, (r - 1) % d])}


def identification_suite(dim: Dimension, rng=None, n_random: int = 200) -> dict:
    """Full torus-pair identity suite through (E_N, E_phi) = (conj(g), h), from its entries."""
    from .schwinger import _pair_suite, _weyl_pair

    g, h = _weyl_pair(dim)
    return _pair_suite(dim, (g[0], g[1].conj()), h, rng, n_random)


@dataclass(frozen=True)
class ActionAngleKernel:
    dim: Dimension
    J: float
    theta: float
    matrix: np.ndarray
    normalization: str = ACTION_ANGLE_NORMALIZATION


def build_action_angle_kernel(dim: Dimension, J: float, theta: float) -> ActionAngleKernel:
    """Delta(J, theta) = (1/2piD) sum_m e^{i(gamma0 m1 J - m2 theta)} S^np_m.

    J and theta may be any reals; the kernel is cyclic under J -> J + D and
    theta -> theta + 2pi.  Exact-quadrature grids are integer (or, in shifted
    mode, half-integer) J and theta = 2pi j / D.  S^np_m = S_(-m2, m1), so the
    sum is one torus displacement sum, O(D^2 log D).
    """
    d, w = dim.d, canonical_window(dim)
    # S_(-m2, m1) = sign S_(n1, m1) with (n1, m1) in the window (lattice._reduce):
    # the coefficient of window label (n1, n2) has m1 = n2, m2 the window label of -n1
    m2 = _reduce(d, -w, 0)[0][:, None]
    sign = _reduce(d, -m2, w)[2]
    acc = _displacement_sum(dim, sign * np.exp(1j * (dim.gamma0 * w * J - m2 * theta)))
    acc /= 2.0 * np.pi * d
    acc.flags.writeable = False
    return ActionAngleKernel(dim=dim, J=float(J), theta=float(theta), matrix=acc)


def action_angle_phase_form(dim: Dimension, J: float, theta: float) -> np.ndarray:
    """Independent phase-eigenbasis construction of the same kernel.

    Delta(J, theta) = (1/2piD) sum_m sum_l e^{i(gamma0 m1 J - m2 theta)}
    e^{i gamma0 l m2} e^{i gamma0 m1 m2 / 2} |phi_l><phi_{l + m1}|
    = Ph C Ph^dag / (2piD), with C[l, l + m1] = e^{i gamma0 m1 J} f(2l + m1) and
    f(t) = sum_m2 e^{-i m2 theta} e^{i pi t m2 / D}, t mod 2D: one length-2D FFT.
    """
    Ph = build_fourier_operator(dim).conj()      # the phase states of build_phase_pair
    d, w = dim.d, canonical_window(dim)
    a = np.zeros(2 * d, dtype=complex)
    a[w % (2 * d)] = np.exp(-1j * w * theta)
    f = np.fft.ifft(a, norm="forward")
    m1, l = w[:, None], np.arange(d)
    C = np.empty((d, d), dtype=complex)
    C[l, (l + m1) % d] = np.exp(1j * dim.gamma0 * m1 * J) * f[(2 * l + m1) % (2 * d)]
    return Ph @ C @ Ph.conj().T / (2.0 * np.pi * d)


def kernel_form_residual(dim: Dimension, J: float, theta: float) -> float:
    """Max deviation between the two independent kernel constructions."""
    return max_abs(build_action_angle_kernel(dim, J, theta).matrix
                   - action_angle_phase_form(dim, J, theta))


def _action_angle_grids(dim: Dimension, state, period: int, parities=(None,)) -> list:
    """W(J, theta_j) on J = t D / period (t < period), one grid per m2 parity, from one chi.

    <psi| S^np_m |psi> = chi(-m2, m1) (E_N = V, E_phi = U^-1), so the sum
    (1/2piD) sum_m e^{i gamma0 (m1 J - m2 j)} chi(-m2, m1) is the torus window
    transform with m2 in the place of m1.  Parity 0 or 1 keeps the m2 of that
    parity only, None keeps all.
    """
    w = canonical_window(dim)
    chi = characteristic(dim.d, np.asarray(state, dtype=complex), -w, w)
    return [_window_dft(dim, chi if p is None else chi * (np.abs(w) % 2 == p)[:, None],
                        period).real * (dim.d / (2.0 * np.pi)) for p in parities]


def action_angle_values(dim: Dimension, state: np.ndarray, parity: int | None = None, *,
                        half_integer: bool = False) -> np.ndarray:
    """W(J, theta_j) rows over J, columns over the exact theta grid theta_j = gamma0 j.

    J runs over 0..D-1, or with half_integer over J = t/2, t = 0..2D-1.
    parity filters the m2 sum: 0 keeps even m2, 1 keeps odd m2, None keeps
    all (the full Wigner function).  By linearity this is the kernel form.
    """
    return _action_angle_grids(dim, state, dim.d * (1 + half_integer), (parity,))[0]


def wigner_number_phase(dim: Dimension, state: np.ndarray, state_ref: str = "") -> WignerGrid:
    """Number-phase Wigner function on the integer J x exact theta grid.

    Total mass sums to 1 with the (2pi/D) theta weight; the J marginal
    (gamma0-weighted theta sum) is |<J|psi>|^2 and the theta marginal (J sum)
    is (D/2pi) |<phi_j|psi>|^2.
    """
    vals = np.ascontiguousarray(action_angle_values(dim, state))
    vals.flags.writeable = False
    return WignerGrid(dim=dim, values=vals, state_ref=state_ref,
                      normalization=ACTION_ANGLE_NORMALIZATION)


@dataclass(frozen=True)
class NumberExpansion:
    dim: Dimension
    m: tuple[int, int]
    mp: tuple[int, int]
    cross: int
    coefficients: np.ndarray     # f~_k = sum_n e^{i gamma0 k n} f(n)
    reconstruction: np.ndarray
    target: np.ndarray
    residual: float


_EXPANSION_TOL = 1e-9      # round-trip residual expand_number_function accepts


def expand_number_function(dim: Dimension, f, m, mp) -> NumberExpansion:
    """Operator Fourier expansion of a number function on the (m, m') ladder.

    f~_k = sum_n e^{i gamma0 k n} f(n) = D ifft(f)_k; reconstruction
    F(N) = (1/D) sum_k f~_{(-ck) mod D} (q^{-N})^k, with q^{-N} realized as the
    rescaled basis element -eta S_{-m} S_{m'} / c_q, a monomial whose powers
    are walked one O(D) product at a time.  The round-trip residual against
    diag(f) in the oscillator number eigenbasis is the arbiter of the index
    convention and must clear _EXPANSION_TOL.
    """
    from .deformed import build_q_oscillator
    from .schwinger import _times, displacement_columns, eigensystem_by_recursion

    fv = np.asarray(f, dtype=complex)
    if fv.shape != (dim.d,):
        raise ValueError(f"need {dim.d} values, got shape {fv.shape}")
    osc = build_q_oscillator(dim, m, mp)
    c = osc.cross
    d = dim.d
    rows, vals = _times(displacement_columns(d, -osc.m[0], -osc.m[1]),
                        displacement_columns(d, *osc.mp))
    qN = rows, (-osc.eta) * vals / osc.c_q
    ft = d * np.fft.ifft(fv)
    recon = np.zeros((d, d), dtype=complex)
    j = np.arange(d)
    P = j, np.ones(d, dtype=complex)
    for k in range(d):
        recon[P[0], j] += ft[(-c * k) % d] * P[1]
        P = _times(P, qN)
    recon /= d
    v = eigensystem_by_recursion(dim, (osc.m[0] - osc.mp[0], osc.m[1] - osc.mp[1])).eigenvectors
    target = (v * fv[osc.n_values]) @ v.conj().T
    residual = max_abs(recon - target)
    if residual > _EXPANSION_TOL:
        raise PhaseMismatchError(
            f"round-trip residual {residual:.2e} exceeds {_EXPANSION_TOL:.1e}")
    return NumberExpansion(dim=dim, m=osc.m, mp=osc.mp, cross=c, coefficients=ft,
                           reconstruction=recon, target=target, residual=residual)
