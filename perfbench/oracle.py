"""Independent numpy oracles for the outputs the benchmark checks.

Nothing here imports torusphase: every reference value is rebuilt from the
defining formulas of the paper's objects, so a defect in the package cannot
hide behind a shared helper.

  S_m        = e^{-i pi m1 m2 / D} U^{m1} V^{m2},  U|k> = |k+1>,  V = diag(e^{-i gamma0 k})
  chi_A(m)   = Tr(A S_m)                  (chi(m) = <psi|S_m|psi> for A = |psi><psi|)
  W(V)       = D^-2 sum_m e^{-i gamma0 (m1 V2 - m2 V1)} chi(m)        torus grid
  W(J, t)    = (2 pi D)^-1 sum_m e^{i gamma0 (m1 J - m2 t)} chi_np(m) action-angle grid

with m over the canonical window ({-(D-1)/2..(D-1)/2} for odd D, {0..D-1}
for even D) and the number-phase pair E_N = diag(e^{-i gamma0 n}),
E_phi|n> = |n-1>.
"""
from __future__ import annotations

import numpy as np

GRID_TOL = 1e-12


def window(d: int) -> np.ndarray:
    if d % 2:
        h = (d - 1) // 2
        return np.arange(-h, h + 1)
    return np.arange(d)


def _unit_phase(num, d: int) -> np.ndarray:
    """e^{-2 pi i num / (2D)} with the integer numerator reduced exactly first."""
    return np.exp(-1j * np.pi * (np.asarray(num, dtype=np.int64) % (2 * d)) / d)


def schwinger(d: int, m1: int, m2: int) -> np.ndarray:
    """S_m from matrix powers of the shift and clock, for any integer label."""
    k = np.arange(d)
    U = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    Um = np.linalg.matrix_power(U, m1 % d)
    Vm = np.diag(_unit_phase(2 * m2 * k, d))
    return _unit_phase(m1 * m2, d) * (Um @ Vm)


def torus_chi(A: np.ndarray) -> np.ndarray:
    """Tr(A S_m) for every window label, indexed [m1, m2]."""
    d = A.shape[0]
    w = window(d)
    j = np.arange(d)
    rows = A[j[None, :], (j[None, :] + w[:, None]) % d]          # A[j, j + m1]
    fourier = _unit_phase(2 * np.outer(j, w), d)                # e^{-i gamma0 m2 j}
    return (rows @ fourier) * _unit_phase(np.outer(w, w), d)


def torus_grid(chi: np.ndarray) -> np.ndarray:
    d = chi.shape[0]
    w = window(d)
    a = np.arange(d)
    left = np.conj(_unit_phase(2 * np.outer(a, w), d))          # e^{+i gamma0 m2 V1}
    right = _unit_phase(2 * np.outer(w, a), d)                  # e^{-i gamma0 m1 V2}
    return left @ chi.T @ right / d**2


def torus_wigner(psi: np.ndarray) -> np.ndarray:
    """Complex torus Wigner grid; its imaginary part is the reality defect."""
    return torus_grid(torus_chi(np.outer(psi, psi.conj())))


def number_phase_chi(psi: np.ndarray) -> np.ndarray:
    """<psi| e^{-i pi m1 m2/D} E_N^{m1} E_phi^{m2} |psi>, indexed [m1, m2]."""
    d = psi.shape[0]
    w = window(d)
    n = np.arange(d)
    left = psi.conj()[None, :] * _unit_phase(2 * np.outer(w, n), d)   # (m1, n)
    right = psi[(n[:, None] + w[None, :]) % d]                      # (n, m2)
    return (left @ right) * _unit_phase(np.outer(w, w), d)


def action_angle(psi: np.ndarray, j_values, parity: int | None = None) -> np.ndarray:
    """Real action-angle Wigner rows W(J, theta_t) over j_values."""
    d = psi.shape[0]
    w = window(d)
    g0 = 2.0 * np.pi / d
    chi = number_phase_chi(psi)
    if parity is not None:
        chi = chi * ((np.abs(w) % 2) == parity)[None, :]
    p1 = np.exp(1j * g0 * np.outer(np.asarray(j_values, dtype=float), w))
    p2 = _unit_phase(2 * np.outer(w, np.arange(d)), d)
    return np.real(p1 @ chi @ p2) / (2.0 * np.pi * d)


def fourier(d: int) -> np.ndarray:
    k = np.arange(d)
    return _unit_phase(2 * np.outer(k, k), d) / np.sqrt(d)


def torus_grid_errors(W: np.ndarray, psi: np.ndarray) -> dict:
    """Deviation of a real torus grid from the oracle, its mass and marginals."""
    ref = torus_wigner(psi)
    F = fourier(psi.shape[0])
    return {
        "oracle": float(np.max(np.abs(W - ref))),
        "mass": abs(float(W.sum()) - 1.0),
        "marginal_u": float(np.max(np.abs(W.sum(axis=1) - np.abs(psi) ** 2))),
        "marginal_v": float(np.max(np.abs(W.sum(axis=0) - np.abs(F.conj().T @ psi) ** 2))),
    }


def action_angle_errors(W: np.ndarray, psi: np.ndarray) -> dict:
    """Same checks for the integer-J action-angle grid (theta weight 2 pi / D)."""
    d = psi.shape[0]
    g0 = 2.0 * np.pi / d
    phase_states = np.conj(fourier(d))            # |phi_l>_n = e^{i gamma0 n l}/sqrt(D)
    return {
        "oracle": float(np.max(np.abs(W - action_angle(psi, np.arange(d))))),
        "mass": abs(float(W.sum()) * g0 - 1.0),
        "marginal_number": float(np.max(np.abs(W.sum(axis=1) * g0 - np.abs(psi) ** 2))),
        "marginal_phase": float(np.max(np.abs(
            W.sum(axis=0) - np.abs(phase_states.conj().T @ psi) ** 2 / g0))),
    }


def gaussian_number_state(d: int) -> np.ndarray:
    """The `converge --observable wigner` state: centre D/2, width sqrt(D)/2."""
    n = np.arange(d)
    amp = np.exp(-((n - d / 2.0) ** 2) / (2.0 * (np.sqrt(d) / 2.0) ** 2)).astype(complex)
    return amp / np.linalg.norm(amp)


def continuum_action_angle(psi: np.ndarray) -> np.ndarray:
    """Discretized continuum form on the integer J x theta grid.

    W(J, theta_j) = (2 pi)^-1 sum_k e^{i gamma0 J k} <psi|phi_{j-k/2}><phi_{j+k/2}|psi>,
    k over the window, with half-index phase states phi_{t/2}[n] = e^{i gamma0 n t/2}/sqrt(D).
    """
    d = psi.shape[0]
    g0 = 2.0 * np.pi / d
    n = np.arange(d)
    overlaps = np.exp(1j * g0 * np.outer(np.arange(2 * d) / 2.0, n)) @ psi.conj() / np.sqrt(d)
    k = window(d)
    j = np.arange(d)
    prod = overlaps[(2 * j[None, :] - k[:, None]) % (2 * d)] * \
        np.conj(overlaps[(2 * j[None, :] + k[:, None]) % (2 * d)])
    return np.real(np.exp(1j * g0 * np.outer(j, k)) @ prod) / (2.0 * np.pi)


def wigner_limit_residual(d: int) -> float:
    psi = gaussian_number_state(d)
    return float(np.max(np.abs(continuum_action_angle(psi) - action_angle(psi, np.arange(d)))))


def metaplectic_phase(d: int, R, m) -> complex:
    """Aligned-gauge conjugation phase chi(m) for odd D.

    With m' = m mod D and r = R m mod D:
    chi(m) = gamma0 (m1' m2' - m1 m2)/2 + pi (r1 r2 - m1' m2').
    """
    (a, b), (c, e) = R
    mp = (m[0] % d, m[1] % d)
    r = ((a * m[0] + b * m[1]) % d, (c * m[0] + e * m[1]) % d)
    chi = np.pi / d * (mp[0] * mp[1] - m[0] * m[1]) + np.pi * (r[0] * r[1] - mp[0] * mp[1])
    return complex(np.exp(1j * chi))


def max_err(errors: dict) -> float:
    return max(errors.values())
