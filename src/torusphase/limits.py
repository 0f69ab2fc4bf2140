"""Large-dimension diagnostics: weak convergence, the telescoping spectral
index, limiting oscillator spectra, and the even/odd split of the
action-angle Wigner function.

Everything here is computed at finite D; the limit is probed only through
residual sequences over a prime ladder, never by materializing a D = infinity
object.  Its grids are FFTs of the number-phase characteristic function or
of the phase-state overlaps; none builds a DFT matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CaseConditionError, NonPrimeDimensionError
from .lattice import Dimension, _phase_cross, canonical_window, is_prime, max_abs
from .numberphase import (
    ACTION_ANGLE_NORMALIZATION,
    _action_angle_grids,
    wigner_number_phase,
)
from .wigner import WignerGrid


@dataclass(frozen=True)
class ConvergenceReport:
    primes: tuple[int, ...]
    observable: str
    family: str
    gamma: float | None
    residuals: tuple[float, ...]
    monotone: bool               # strictly decreasing along the ladder


def _family_amplitudes(d: int, family: str, center: float, width: float) -> np.ndarray:
    n = np.arange(d)
    if family == "gaussian":
        amp = np.exp(-((n - center) ** 2) / (2.0 * width**2)).astype(complex)
        return amp / np.linalg.norm(amp)
    if family == "number-delta":
        amp = np.zeros(d, dtype=complex)
        amp[int(center) % d] = 1.0
        return amp
    raise ValueError(f"unknown state family {family!r}")


def _prime_ladder(primes) -> tuple[int, ...]:
    primes = tuple(int(p) for p in primes)
    if not primes:
        raise ValueError("empty prime list")
    for p in primes:
        if not is_prime(p):
            raise NonPrimeDimensionError(f"{p} is not prime")
    return primes


def weak_convergence_sweep(primes, gamma: float = 1.0, observable: str = "number-exp",
                           family: str = "gaussian", center: float = 3.0,
                           width: float = 1.5) -> ConvergenceReport:
    """Residual ||(O^{m1} - target)|psi>||^2 along a prime ladder.

    At each D the integer power m1 = round(gamma D / 2pi) best approximates the
    continuum phase e^{-i gamma n} (number-exp observable, eigenvalues over the
    number index) or e^{+i gamma l} (phase-exp observable, eigenvalues over the
    phase index).  Amplitudes are placed in the observable's own eigenbasis;
    the gaussian family is smooth and converges, while a number-delta state
    under the phase observable spreads uniformly and is the documented
    non-convergent diagnostic.
    """
    primes = _prime_ladder(primes)
    if observable not in ("number-exp", "phase-exp"):
        raise ValueError(f"unknown observable {observable!r}")
    out = []
    for d in primes:
        g0 = 2.0 * np.pi / d
        m1 = round(gamma * d / (2.0 * np.pi))
        n = np.arange(d)
        if observable == "number-exp":
            diff = np.exp(-1j * g0 * m1 * n) - np.exp(-1j * gamma * n)
        else:
            diff = np.exp(1j * g0 * m1 * n) - np.exp(1j * gamma * n)
        if family == "number-delta" and observable == "phase-exp":
            # a number state has uniform weight 1/D over every phase eigenstate
            amp2 = np.full(d, 1.0 / d)
        else:
            amp2 = np.abs(_family_amplitudes(d, family, center, width)) ** 2
        out.append(float(np.sum(np.abs(diff) ** 2 * amp2)))
    mono = all(out[i + 1] < out[i] for i in range(len(out) - 1))
    return ConvergenceReport(primes=primes, observable=observable, family=family,
                             gamma=float(gamma), residuals=tuple(out), monotone=mono)


@dataclass(frozen=True)
class SpectrumProfile:
    """A number-function profile f(n) for n = 0..D-1 plus its formula value at n = D.

    f_end comes from the profile's defining formula, never from assumed
    cyclicity; profiles whose formula is D-periodic get f_end = f(0) and hence
    a vanishing index.
    """

    dim: Dimension
    case: str
    values: np.ndarray          # f(0..D-1)
    f_end: float                # f(D)
    cross: int | None = None


def fujikawa_index(profile: SpectrumProfile) -> float:
    """Telescoping index I = sum_n (e^{-f(n)} - e^{-f(n+1)}) = e^{-f(0)} - e^{-f(D)}."""
    e = np.exp(-np.concatenate([np.asarray(profile.values, dtype=float),
                                [float(profile.f_end)]]))
    return float(np.sum(e[:-1] - e[1:]))


def index_report(profile: SpectrumProfile) -> dict:
    return {
        "D": profile.dim.d,
        "case": profile.case,
        "I": fujikawa_index(profile),
        "f0": float(profile.values[0]),
        "fD": float(profile.f_end),
    }


def linear_profile(dim: Dimension) -> SpectrumProfile:
    """Non-cyclic profile f(n) = 1/gamma0 + n with index e^{-f(0)} (1 - e^{-D})."""
    vals = 1.0 / dim.gamma0 + np.arange(dim.d, dtype=float)
    return SpectrumProfile(dim=dim, case="linear", values=vals,
                           f_end=1.0 / dim.gamma0 + dim.d)


def oscillator_profile(dim: Dimension, m=(1, 0), mp=(0, 1)) -> SpectrumProfile:
    """Oscillator spectrum f(n) = C + [n] extended by its own formula (cyclic)."""
    from .deformed import bracket_values, build_q_oscillator

    osc = build_q_oscillator(dim, m, mp)
    c = _phase_cross(dim.d, osc.cross)
    f_end = osc.shift_constant + float(bracket_values(dim, c, dim.d))
    return SpectrumProfile(dim=dim, case="oscillator", values=osc.spectrum.copy(),
                           f_end=f_end, cross=osc.cross)


def limiting_spectrum(dim: Dimension, case: str, cross: int | None = None,
                      sign: int = 1) -> SpectrumProfile:
    """Limiting-form profile f(n) = (1 + sign sin(gamma0 n'))/|sin(gamma0 c)|.

    n' = n c mod D folds the argument into the first cell.  case selects c:
    "unit-cross" uses c = 1 (profile peak grows like D); "quarter-cross" uses
    c = (D-1)/4 and requires it to be an integer (bounded profile); "custom"
    takes c from the cross argument.  The sign exposes the branch choice
    between the deformation parameter and its inverse.
    """
    d = dim.d
    if case == "unit-cross":
        c = 1
    elif case == "quarter-cross":
        if (d - 1) % 4 != 0:
            raise CaseConditionError(f"(D-1)/4 = {(d - 1) / 4} is not an integer at D={d}")
        c = (d - 1) // 4
    elif case == "custom":
        if cross is None:
            raise CaseConditionError("custom case needs an explicit cross value")
        c = int(cross)
    else:
        raise ValueError(f"unknown case {case!r}")
    if c % d == 0:
        raise CaseConditionError(f"cross {c} is 0 mod {d}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n_ext = np.arange(d + 1)
    nprime = (n_ext * c) % d
    f_ext = (1.0 + sign * np.sin(dim.gamma0 * nprime)) / abs(np.sin(dim.gamma0 * c))
    return SpectrumProfile(dim=dim, case=case, values=f_ext[:-1],
                           f_end=float(f_ext[-1]), cross=c)


def wigner_even_odd_decomposition(dim: Dimension, state: np.ndarray,
                                  state_ref: str = "") -> tuple[WignerGrid, WignerGrid]:
    """Even/odd split of the action-angle Wigner function on half-integer J.

    The shifted-basis resolution (alpha matched to each J so 2(J - alpha) is
    an integer) turns the full kernel sum into even-m2 and odd-m2 partial sums
    evaluated on the doubled action grid J = 0, 1/2, 1, ....  The two parts
    add back to the full Wigner function exactly, the even part carries all
    the mass on integer J rows, and the odd part carries none.  All three
    come from one characteristic function.
    """
    even, odd, full = _action_angle_grids(dim, state, 2 * dim.d, (0, 1, None))
    if max_abs(even + odd - full) > 1e-10:
        raise ValueError("even/odd partial sums failed to reconstruct the full grid")
    for vals in (even, odd):
        vals.flags.writeable = False
    return tuple(WignerGrid(dim=dim, values=vals, state_ref=state_ref,
                            normalization=ACTION_ANGLE_NORMALIZATION) for vals in (even, odd))


def phase_basis_wigner_function(dim: Dimension, state: np.ndarray) -> np.ndarray:
    """Discretized continuum action-angle form on the integer J x theta grid.

    W(J, theta) = (1/2pi) sum_k e^{i gamma0 J k} <psi|phi_{j - k/2}><phi_{j + k/2}|psi>
    with phase states on the half-index grid t/2, t = 0..2D-1 — the D-point
    exact rule applied to the continuum convolution integral.  The overlaps
    <psi|phi_{t/2}> are one length-2D FFT of conj(psi); the sum over the
    window labels k, placed at their residues, is one inverse DFT.
    """
    d = dim.d
    psi = np.asarray(state, dtype=complex)
    g = np.fft.ifft(psi.conj(), 2 * d, norm="forward") / np.sqrt(d)
    k = canonical_window(dim)
    j = np.arange(d)
    b = np.empty((d, d), dtype=complex)
    b[k % d] = g[(2 * j - k[:, None]) % (2 * d)] * np.conj(g)[(2 * j + k[:, None]) % (2 * d)]
    return np.fft.ifft(b, axis=0, norm="forward").real / (2.0 * np.pi)


def phase_basis_wigner_limit(primes, family: str = "gaussian") -> ConvergenceReport:
    """Deviation between the finite-D Wigner function and the discretized
    continuum form, expected to shrink along the prime ladder for smooth states."""
    primes = _prime_ladder(primes)
    devs = []
    for d in primes:
        dim = Dimension(d)
        if family == "gaussian":
            psi = _family_amplitudes(d, "gaussian", center=d / 2.0, width=np.sqrt(d) / 2.0)
        elif family == "number-delta":
            psi = _family_amplitudes(d, "number-delta", center=1.0, width=1.0)
        else:
            raise ValueError(f"unknown state family {family!r}")
        Wd = phase_basis_wigner_function(dim, psi)
        Wa = wigner_number_phase(dim, psi).values
        devs.append(float(max_abs(Wd - Wa)))
    mono = all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    return ConvergenceReport(primes=primes, observable="wigner", family=family,
                             gamma=None, residuals=tuple(devs), monotone=mono)
