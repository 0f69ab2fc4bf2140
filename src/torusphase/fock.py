"""Continuously shifted Fock bases |n + alpha> and their isomorphisms.

The fractional phase-operator power E_phi^{-alpha} (spectral in the phase
eigenbasis) carries the number basis onto an orthonormal basis labeled by
n + alpha.  Distinct alpha give inequivalent but unitarily linked bases; the
overlap of matching elements has the closed form |sin(pi alpha)| /
(D |sin(pi alpha / D)|).  The deformed-oscillator number eigenbasis lives in
the family with alpha = (D-1)/2 mod 1: the conventional basis for odd D, the
half-shifted one (vacuum label 1/2) at D = 2.
Each basis, and the fractional phase power E_phi^beta (the alpha = -beta
member), is one circulant built from a single length-D FFT.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deformed import build_q_oscillator
from .lattice import Dimension, max_abs
from .schwinger import eigensystem_by_recursion

_OVERLAP_CROSS_CHECK_TOL = 1e-13    # closed-form overlap against the vectors' own


@dataclass(frozen=True)
class ShiftedFockBasis:
    dim: Dimension
    alpha: float
    vectors: np.ndarray         # column k is |k + alpha>

    def gram_residual(self) -> float:
        B = self.vectors
        return max_abs(B.conj().T @ B - np.eye(self.dim.d))


def _shift_circulant(dim: Dimension, alpha: float) -> np.ndarray:
    """E_phi^{-alpha}: entry [n, k] = (1/D) sum_l e^{-i gamma0 l (k - n + alpha)}.

    That is b[(k - n) mod D], b the FFT of e^{-i gamma0 l alpha} / D (alpha mod D).
    """
    d = dim.d
    b = np.fft.fft(np.exp(-1j * dim.gamma0 * np.arange(d) * (float(alpha) % d)) / d)
    k = np.arange(d)
    return b[(k - k[:, None]) % d]


def build_shifted_fock(dim: Dimension, alpha: float) -> ShiftedFockBasis:
    """Basis |n + alpha> = E_phi^{-alpha}|n>; alpha = 0 is exactly the number basis.

    Canonical labels take alpha in [0, 1); any real alpha is accepted and
    lands in the corresponding family (alpha and alpha + D give the same
    vectors; alpha = 1 returns the number basis cyclically relabeled).
    """
    B = _shift_circulant(dim, alpha)
    B.flags.writeable = False
    return ShiftedFockBasis(dim=dim, alpha=float(alpha), vectors=B)


def fractional_phase_power(dim: Dimension, beta: float) -> np.ndarray:
    """E_phi^beta defined spectrally: eigenvalue e^{i gamma0 l beta} on |phi_l>."""
    return _shift_circulant(dim, -float(beta))


def shifted_overlap(dim: Dimension, alpha: float) -> float:
    """|<n|n + alpha>| by the closed form, cross-checked against the vectors.

    The value |sin(pi alpha)| / (D |sin(pi alpha / D)|) is n-independent; it is
    1 at alpha = 0 and tends to the sinc value |sin(pi alpha)|/(pi alpha) as
    D grows.
    """
    d = dim.d
    sden = np.sin(np.pi * float(alpha) / d)
    if abs(sden) < 1e-12:
        pred = 1.0
    else:
        pred = abs(np.sin(np.pi * float(alpha))) / (d * abs(sden))
    direct = np.abs(np.diag(build_shifted_fock(dim, alpha).vectors))
    dev = float(np.max(np.abs(direct - pred)))
    if dev > _OVERLAP_CROSS_CHECK_TOL:
        raise ValueError(f"closed-form overlap deviates from direct value by {dev:.2e}")
    return float(pred)


def shifted_overlap_expansion(dim: Dimension) -> dict:
    """Coefficients of the small-alpha drop 1 - |<n|n+alpha>| = coeff * alpha^2.

    The exact expansion of the closed form gives pi^2 (1 - 1/D^2)/6; the
    variant with (1 - 1/D) in place of (1 - 1/D^2) circulates as an
    approximation and is recorded alongside for comparison.  A direct
    small-alpha measurement is returned as well.
    """
    d = dim.d
    a = 1e-4
    drop = 1.0 - shifted_overlap(dim, a)
    return {
        "exact_coefficient": float(np.pi**2 * (1.0 - 1.0 / d**2) / 6.0),
        "alternate_coefficient": float(np.pi**2 * (1.0 - 1.0 / d) / 6.0),
        "measured_coefficient": float(drop / a**2),
    }


def shift_isomorphism_check(dim: Dimension, alpha: float, beta: float) -> float:
    """Residual of E_phi^beta |n + alpha> = |n + alpha - beta> (columnwise)."""
    Eb = fractional_phase_power(dim, beta)
    Ba = build_shifted_fock(dim, alpha).vectors
    Bab = build_shifted_fock(dim, alpha - beta).vectors
    return max_abs(Eb @ Ba - Bab)


def oscillator_fock_alpha(dim: Dimension) -> float:
    """Shift label of the family hosting the oscillator number eigenbasis."""
    return ((dim.d - 1) / 2.0) % 1.0


def oscillator_fock_match(dim: Dimension, m=(1, 1), mp=(1, 0)) -> dict:
    """Locate the oscillator number eigenbasis inside a shifted Fock family.

    For D > 2 the oscillator on the pair is built, and each of its number
    eigenvectors, the eigenvectors of S_{m-m'} (eigensystem_by_recursion), is
    matched (up to phase) against a column of the alpha = (D-1)/2 mod 1
    family; the residual is the worst column-overlap defect.  At D = 2 every
    non-collinear pair is singular, so only the labels survive: the family is
    alpha = 1/2 with occupation labels {1/2, 3/2} and vacuum label 1/2.
    """
    alpha = oscillator_fock_alpha(dim)
    d = dim.d
    labels = tuple(float(n) + alpha for n in range(d))
    if d == 2:
        return {"alpha": alpha, "labels": labels, "vacuum_label": labels[0],
                "residual": None, "mode": "labels-only"}
    osc = build_q_oscillator(dim, m, mp)
    V = eigensystem_by_recursion(dim, (osc.m[0] - osc.mp[0], osc.m[1] - osc.mp[1])).eigenvectors
    B = build_shifted_fock(dim, alpha).vectors
    ov = np.abs(B.conj().T @ V)   # rows: shifted index, cols: r
    residual = float(abs(np.max(1.0 - ov.max(axis=0))))
    # each shifted column may host at most one eigenvector, and an eigenvector
    # split evenly over two columns (as at even D) sits in neither, however
    # rounding breaks the tie
    assignment = ov.argmax(axis=0)
    second, first = np.sort(ov, axis=0)[-2:]
    if len(set(int(k) for k in assignment)) != d or np.any(first - second < 1e-9):
        residual = max(residual, 1.0)
    return {"alpha": alpha, "labels": labels, "vacuum_label": labels[0],
            "residual": residual, "mode": "vector-match"}
