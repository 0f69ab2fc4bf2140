"""Deformed subalgebras built from pairs of torus basis elements.

Two realizations are provided for a non-collinear label pair (m, m') with
exact symplectic area c = m x m':

* a deformed sl(2) pair A = d (S_m + S_{m'}) intertwined by S_{m-m'}, with
  deformation p = e^{-i gamma0 c}, a ladder J3, and a central Casimir;
* a spectrum-shifted q-oscillator A = d S_m + d' S_{m'} with q = e^{-i gamma0 c},
  number operator N, and spectrum f(n) = C + [n] >= 0 where the shift constant
  C = 1/|sin(gamma0 c)| makes every f(n) admissible.

Both diagonalize along the eigenbasis of S_{m-m'}; the integer bijection
n = c^{-1} r mod D links eigenvalue index r to oscillator quantum number n.

Every pair of a label list is checked by the sweeps oscillator_sweep,
sl2_sweep and lowest_weight_sweep.  They stack the pairs in blocks of at most
_BLOCK_ENTRIES complex entries per D x D stack and take every residual with
batched matmul.  The per-pair builders and residual functions evaluate the
same stacked formulas on a stack of one, so each identity is written once and
a sweep's worst residual is bit-equal to the worst of the per-pair values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    CollinearVectorsError,
    DegenerateSpectrumError,
    DimensionTooLargeError,
    PhaseMismatchError,
    SingularDeformationError,
)
from .lattice import Dimension, canonical_vector, lattice_cross, max_abs
from .schwinger import (
    _eigensystem_cached,
    displacement_columns,
    eigensystem_by_recursion,
    schwinger_matrix,
)

_SINGULAR_TOL = 1e-12
_BRANCH_TOL = 1e-9
_LOWEST_WEIGHT_TOL = 1e-9    # |C + [n]| below which n is a lowest weight
_BLOCK_ENTRIES = 1 << 12     # complex entries per stack in one sweep block


def _dag(A):
    return A.conj().swapaxes(-1, -2)


def _require_noncollinear(dim: Dimension, m, mp) -> int:
    c = lattice_cross(m, mp)
    if c % dim.d == 0:
        raise CollinearVectorsError(f"{m} x {mp} = {c} = 0 mod {dim.d}")
    return c


def _singular(dim: Dimension, c):
    """sin(gamma0 c) = 0 (to 1e-12): the oscillator coefficients diverge."""
    return np.abs(np.sin(dim.gamma0 * np.asarray(c))) < _SINGULAR_TOL


def _require_invertible(dim: Dimension, c: int) -> None:
    if _inverse_mod(dim.d, c) == 0:
        raise DegenerateSpectrumError(
            f"cross value {c} is not invertible mod {dim.d}; "
            "the number labeling degenerates")


# -- stacked building blocks ---------------------------------------------------
# A stack holds P pairs: labels (P, 2), per-pair scalars (P,), per-pair value
# lists (P, D) and operators (P, D, D).

def _scalar_pow(x, e: float) -> np.ndarray:
    """x ** e elementwise through libm pow, as for a numpy scalar.

    numpy's vectorized power can differ from the scalar one in the last bit;
    a coefficient must not depend on how many pairs share its stack.
    """
    return np.array([math.pow(v, e) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _displacement_stack(d: int, labels) -> np.ndarray:
    """Dense S_m per label row, with the entries of schwinger_matrix."""
    rows, vals = displacement_columns(d, labels[:, 0], labels[:, 1])
    S = np.zeros((len(labels), d, d), dtype=complex)
    S[np.arange(len(labels))[:, None], rows, np.arange(d)] = vals
    return S


def _diag_stack(V, values) -> np.ndarray:
    """V diag(values) V^dag per pair."""
    return (V * values[:, None, :]) @ _dag(V)


def _max_abs_stack(X) -> np.ndarray:
    """max_abs of each matrix of a stack."""
    return np.abs(X).max(axis=(1, 2))


def _inverse_mod(d: int, c):
    """c^{-1} mod D (per pair for an array c); 0 where c is not invertible."""
    return _inverse_table(d)[c % d]


@lru_cache(maxsize=64)
def _inverse_table(d: int) -> np.ndarray:
    table = np.array([pow(r, -1, d) if math.gcd(r, d) == 1 else 0 for r in range(d)])
    table.flags.writeable = False
    return table


def _eigenvectors_by_label(dim: Dimension, w):
    """Per pair the residue key of w and whether S_w is nondegenerate; key -> eigenvectors.

    Each distinct canonical label goes once through _eigensystem_cached; the
    degenerate ones, where eigensystem_by_recursion raises, have no entry.
    (np.unique and np.isin would import numpy.ma, ~1 MB of resident memory.)
    """
    d = dim.d
    keys = (w[:, 0] % d) * d + w[:, 1] % d
    simple = np.zeros(d * d, dtype=bool)
    table = {}
    for k in set(keys.tolist()):
        try:
            table[k] = _eigensystem_cached(d, *canonical_vector(dim, divmod(k, d)))[1]
            simple[k] = True
        except DegenerateSpectrumError:
            pass
    return keys, simple[keys], table


def _stack_of_one(cls, obj):
    """The stack of one pair holding the fields of a per-pair realization."""
    return cls(obj.dim, *(np.asarray(getattr(obj, name))[None] for name in cls._fields[1:]))


def _unstack(st, skip=()) -> dict:
    """Fields of the first pair of a stack, for a per-pair realization."""
    return {name: getattr(st, name)[0] for name in st._fields[1:] if name not in skip}


def _sweep_labels(dim: Dimension, m, mp):
    m = np.asarray(m, dtype=np.int64).reshape(-1, 2)
    mp = np.asarray(mp, dtype=np.int64).reshape(-1, 2)
    c = lattice_cross(m.T, mp.T)
    collinear = c % dim.d == 0
    if collinear.any():
        i = int(np.argmax(collinear))
        raise CollinearVectorsError(
            f"{tuple(m[i].tolist())} x {tuple(mp[i].tolist())} = {c[i]} = 0 mod {dim.d}")
    return m, mp, c


def _blocks(index, entries_per_pair: int):
    step = max(1, _BLOCK_ENTRIES // entries_per_pair)
    for k in range(0, len(index), step):
        yield index[k:k + step]


def _fold(worst: dict, residuals: dict, keep=slice(None)) -> None:
    """Fold per-pair residuals into the running worst: min for spectrum_min, else max."""
    for k, v in residuals.items():
        v = v[keep]
        if k == "spectrum_min":
            worst[k] = min(worst.get(k, np.inf), float(v.min()))
        else:
            worst[k] = max(worst.get(k, 0.0), float(v.max()))


@dataclass(frozen=True)
class SweepReport:
    """Worst residual per identity over a list of label pairs.

    built_mask flags, in input order, the pairs the per-pair builder builds;
    the others are skipped.  worst is empty when no pair is built.
    """

    worst: dict
    built_mask: np.ndarray

    @property
    def built(self) -> int:
        return int(self.built_mask.sum())

    @property
    def skipped(self) -> int:
        return len(self.built_mask) - self.built


def bracket_values(dim: Dimension, c, n) -> np.ndarray:
    """Symmetric q-bracket [n] = sin(gamma0 c (n + (D-1)/2)) / sin(gamma0 c).

    c broadcasts against n (a column of cross values against rows of n).
    """
    g0c = dim.gamma0 * np.asarray(c)
    return np.sin(g0c * (np.asarray(n, dtype=float) + (dim.d - 1) / 2.0)) / np.sin(g0c)


@dataclass(frozen=True)
class QOscillator:
    dim: Dimension
    m: tuple[int, int]
    mp: tuple[int, int]
    cross: int
    q: complex
    eta: float
    d_coef: float
    dp_coef: complex
    shift_constant: float
    c_q: complex
    lowering: np.ndarray          # A
    number_op: np.ndarray         # N
    q_exponential: np.ndarray     # Q = c_q q^{-N}
    eigenvectors: np.ndarray      # of S_{m-m'} (canonical label), column r
    eigenvalues: np.ndarray
    n_values: np.ndarray          # n(r) = c^{-1} r mod D
    spectrum: np.ndarray          # f(n), n = 0..D-1

    @property
    def raising(self) -> np.ndarray:
        return _dag(self.lowering)

    def bracket(self, n) -> np.ndarray:
        return bracket_values(self.dim, self.cross, n)


class _OscillatorStack(NamedTuple):
    """P q-oscillators; each field as in QOscillator, with a leading pair axis."""

    dim: Dimension
    m: np.ndarray
    mp: np.ndarray
    cross: np.ndarray
    eta: np.ndarray
    d_coef: np.ndarray
    dp_coef: np.ndarray
    shift_constant: np.ndarray
    c_q: np.ndarray
    lowering: np.ndarray
    number_op: np.ndarray
    q_exponential: np.ndarray
    eigenvectors: np.ndarray
    n_values: np.ndarray
    spectrum: np.ndarray


def _oscillator_eta(c, w) -> np.ndarray:
    """eta = -(-1)^{c + w1 w2}, the sign that makes A^dag A = C + [N] exact."""
    return np.where((c + w[:, 0] * w[:, 1]) % 2 == 1, 1.0, -1.0)


def _oscillator_stack(dim: Dimension, m, mp, eta, V) -> _OscillatorStack:
    """Shifted q-oscillators on buildable pairs, with S_{m-m'} eigenvectors V."""
    d, g0 = dim.d, dim.gamma0
    c = lattice_cross(m.T, mp.T)
    s = np.sin(g0 * c)
    d_coef = _scalar_pow(2.0 * np.abs(s), -0.5)
    dp_coef = np.conj(eta / ((2j * s) * d_coef))
    A = (d_coef[:, None, None] * _displacement_stack(d, m)
         + dp_coef[:, None, None] * _displacement_stack(d, mp))
    C = 1.0 / np.abs(s)
    nvals = (_inverse_mod(d, c)[:, None] * np.arange(d)) % d
    c_q = np.exp(1j * g0 * c * (d - 1) / 2.0)
    Q = c_q[:, None, None] * _diag_stack(V, np.exp((1j * g0 * c)[:, None] * nvals))
    spectrum = C[:, None] + bracket_values(dim, c[:, None], np.arange(d))
    return _OscillatorStack(dim, m, mp, c, eta, d_coef, dp_coef, C, c_q, A,
                            _diag_stack(V, nvals), Q, V, nvals, spectrum)


def _oscillator_stack_residuals(st: _OscillatorStack) -> dict:
    """Per-pair residuals of the oscillator identities (see oscillator_residuals)."""
    dim, A, V, nv = st.dim, st.lowering, st.eigenvectors, st.n_values
    d = dim.d
    Ad = _dag(A)
    c = st.cross[:, None]
    C_eye = st.shift_constant[:, None, None] * np.eye(d)
    Qdirect = ((-st.eta)[:, None, None] * _displacement_stack(d, -st.m)
               @ _displacement_stack(d, st.mp))
    return {
        "number": _max_abs_stack(Ad @ A - (C_eye + _diag_stack(V, bracket_values(dim, c, nv)))),
        "q_exponential": _max_abs_stack(Qdirect - st.q_exponential),
        "ladder": _max_abs_stack(A @ st.number_op - _diag_stack(V, (nv + 1) % d) @ A),
        # A A^dag = C + [N + 1]: the pair of relations whose difference is the
        # q-commutator; checked via the bracket form directly
        "raised_number": _max_abs_stack(
            A @ Ad - (C_eye + _diag_stack(V, bracket_values(dim, c, nv + 1)))),
        "spectrum_min": st.spectrum.min(axis=1),
        "shift_constant": np.abs(st.shift_constant - 1.0 / np.abs(np.sin(dim.gamma0 * st.cross))),
    }


def build_q_oscillator(dim: Dimension, m, mp, eta_override: float | None = None) -> QOscillator:
    """Shifted q-oscillator on the pair (m, m').

    The coefficient d is real positive with |d| = |d'| = (2|sin(gamma0 c)|)^{-1/2};
    the phase of d' and the sign eta = -(-1)^{c + w1 w2} (w = m - m') are forced
    by requiring A^dag A = C + [N] with no extra term.
    """
    m = (int(m[0]), int(m[1]))
    mp = (int(mp[0]), int(mp[1]))
    c = _require_noncollinear(dim, m, mp)
    if _singular(dim, c):
        raise SingularDeformationError(
            f"sin(gamma0 * {c}) = 0 at D={dim.d}; oscillator coefficients diverge"
        )
    w = (m[0] - mp[0], m[1] - mp[1])
    if eta_override is None:
        eta = float(_oscillator_eta(np.array([c]), np.array([w]))[0])
    else:
        eta = float(eta_override)
    sys = eigensystem_by_recursion(dim, canonical_vector(dim, w))
    _require_invertible(dim, c)
    st = _oscillator_stack(dim, np.array([m]), np.array([mp]), np.array([eta]),
                           sys.eigenvectors[None])
    return QOscillator(dim=dim, m=m, mp=mp, cross=c, q=np.exp(-1j * dim.gamma0 * c), eta=eta,
                       eigenvalues=sys.eigenvalues,
                       **_unstack(st, skip=("m", "mp", "cross", "eta")))


def oscillator_residuals(osc: QOscillator) -> dict:
    """Defining identities of the oscillator, as max-norm residuals.

    number: A^dag A = C + [N];   q_exponential: Q equals -eta S_{-m} S_{m'};
    ladder: A N = (N+1 mod D) A;  raised_number: A A^dag = C + [N+1];
    shift_constant: C = 1/|sin(gamma0 c)|; spectrum_min is min f(n).
    """
    res = _oscillator_stack_residuals(_stack_of_one(_OscillatorStack, osc))
    return {k: float(v[0]) for k, v in res.items()}


def oscillator_sweep(dim: Dimension, m, mp) -> SweepReport:
    """Worst oscillator_residuals over every pair (m[i], mp[i]), in stacked blocks.

    m and mp are integer label arrays (P, 2).  A pair is skipped exactly where
    build_q_oscillator refuses it: |sin(gamma0 c)| < 1e-12, a degenerate
    S_{m-m'} eigensystem, or c not invertible mod D.  The worst is the max
    per key, except spectrum_min, which is the min.
    """
    m, mp, c = _sweep_labels(dim, m, mp)
    w = m - mp
    keys, simple, vecs = _eigenvectors_by_label(dim, w)
    built = ~_singular(dim, c) & simple & (_inverse_mod(dim.d, c) > 0)
    eta = _oscillator_eta(c, w)
    worst: dict = {}
    for idx in _blocks(np.flatnonzero(built), dim.d ** 2):
        V = np.stack([vecs[k] for k in keys[idx].tolist()])
        st = _oscillator_stack(dim, m[idx], mp[idx], eta[idx], V)
        _fold(worst, _oscillator_stack_residuals(st))
    return SweepReport(worst, built)


@dataclass(frozen=True)
class LowestWeightReport:
    dim: Dimension
    m: tuple[int, int]
    mp: tuple[int, int]
    cross: int
    has_solution: bool
    solutions: tuple[int, ...]
    margin: float            # min_n |C + [n]|; 0 when a solution exists
    singular: bool           # sin(gamma0 c) = 0 (D = 2), scan done on the scaled profile
    irreducible: bool


def _lowest_weight_profile(dim: Dimension, c, tol: float):
    """Per pair: hits (P, D) of C + [n] = 0 to tol, the margin, and the singular flag.

    A singular pair (sin(gamma0 c) = 0) is scanned on the scaled profile with
    both branch signs of the vanishing denominator; its margin is 0 on a hit,
    else inf.
    """
    v = np.sin((dim.gamma0 * c)[:, None] * (np.arange(dim.d) + (dim.d - 1) / 2.0))
    singular = _singular(dim, c)
    s = np.where(singular, 1.0, np.sin(dim.gamma0 * c))[:, None]
    f = np.abs(1.0 / np.abs(s) + v / s)
    scaled_hits = np.minimum(np.abs(1.0 + v), np.abs(1.0 - v)) < tol
    hits = np.where(singular[:, None], scaled_hits, f < tol)
    margin = np.where(singular, np.where(scaled_hits.any(axis=1), 0.0, np.inf), f.min(axis=1))
    return hits, margin, singular


def lowest_weight_scan(dim: Dimension, m, mp,
                       tol: float = _LOWEST_WEIGHT_TOL) -> LowestWeightReport:
    """Scan for a lowest-weight quantum number n0 with C = -[n0].

    For odd D the scaled profile 1 + sign * sin(gamma0 c (n + (D-1)/2)) never
    vanishes (the equation 2c(2n + D - 1) = D(2k+1) has no integer solution),
    so no lowest-weight vector exists and the ladder representation is cyclic.
    At D = 2 the profile hits zero, a lowest weight exists, and the
    representation is flagged as not irreducible.
    """
    c = _require_noncollinear(dim, m, mp)
    hits, margin, singular = _lowest_weight_profile(dim, np.array([c]), tol)
    solutions = tuple(int(k) for k in np.flatnonzero(hits[0]))
    has = len(solutions) > 0
    return LowestWeightReport(dim, tuple(m), tuple(mp), c, has, solutions,
                              float(margin[0]), bool(singular[0]), not has)


def lowest_weight_sweep(dim: Dimension, m, mp) -> int | None:
    """Index of the first pair whose default lowest_weight_scan has a solution, else None.

    m and mp are integer label arrays (P, 2), scanned in stacked blocks up to
    the first hit.
    """
    m, mp, c = _sweep_labels(dim, m, mp)
    for idx in _blocks(np.arange(len(c)), dim.d):
        hit = _lowest_weight_profile(dim, c[idx], _LOWEST_WEIGHT_TOL)[0].any(axis=1)
        if hit.any():
            return int(idx[np.argmax(hit)])
    return None


@dataclass(frozen=True)
class EigenCorrespondence:
    """Phases connecting the oscillator ladder to the S_{m-m'} eigenbasis.

    g[r] = <w, r-c| S_m |w, r> and f[r] = <w, r-c| S_{m'} |w, r> are unit
    modulus; |d g + d' f|^2 reproduces the spectrum f(n(r)); and the product
    obeys the exact law g * conj(f) = -eta * conj(E^2) with
    E = e^{i gamma0 c (n + (D-1)/2)/2}.  The componentwise statement g = conj(f)
    = E holds only up to an eigenvector rephasing and is recorded as a
    residual, not asserted (see literal_phase_residual / lambda_claim_residual).
    """

    osc: QOscillator = field(repr=False)
    g_phases: np.ndarray
    f_phases: np.ndarray
    predicted: np.ndarray          # E
    eq_amplitude_residual: float   # | |dg + d'f|^2 - (C + [n]) |
    product_law_residual: float    # | g conj(f) + eta conj(E)^2 |
    product_phase: complex         # prod(E / g); +1 iff g can be rephased to E
    literal_phase_residual: float  # worst of |g - E|, |g - conj(f)| (recorded)
    lambda_claim_residual: float   # |conj(lambda_w) - e^{i gamma0 (n - D/2) c}| (recorded)
    unit_shift_ok: bool


def eigenbasis_correspondence(osc: QOscillator, tol: float = 1e-9) -> EigenCorrespondence:
    dim, c = osc.dim, osc.cross
    d = dim.d
    vecs, nv = osc.eigenvectors, osc.n_values
    Sm = schwinger_matrix(dim, osc.m)
    Smp = schwinger_matrix(dim, osc.mp)
    g = np.empty(d, dtype=complex)
    f = np.empty(d, dtype=complex)
    for r in range(d):
        t = vecs[:, (r - c) % d]
        g[r] = t.conj() @ Sm @ vecs[:, r]
        f[r] = t.conj() @ Smp @ vecs[:, r]
    if max(np.max(np.abs(np.abs(g) - 1)), np.max(np.abs(np.abs(f) - 1))) > tol:
        raise PhaseMismatchError("ladder matrix elements are not unit modulus")
    amp2 = np.abs(osc.d_coef * g + osc.dp_coef * f) ** 2
    eq_amp = float(np.max(np.abs(amp2 - osc.spectrum[nv])))
    E = np.exp(0.5j * dim.gamma0 * c * (nv + (d - 1) / 2.0))
    law = float(np.max(np.abs(g * np.conj(f) + osc.eta * np.conj(E) ** 2)))
    literal = float(max(np.max(np.abs(g - E)), np.max(np.abs(g - np.conj(f)))))
    w = (osc.m[0] - osc.mp[0], osc.m[1] - osc.mp[1])
    Sw = schwinger_matrix(dim, w)
    lam_w = np.array([vecs[:, r].conj() @ Sw @ vecs[:, r] for r in range(d)])
    lam_cand = np.exp(1j * dim.gamma0 * (nv - d / 2.0) * c)
    lam_resid = float(np.max(np.abs(np.conj(lam_w) - lam_cand)))
    shift_ok = all(nv[(r + c) % d] == (nv[r] + 1) % d for r in range(d))
    if eq_amp > tol or law > tol or not shift_ok:
        raise PhaseMismatchError(
            f"eigenbasis correspondence drift: amplitude {eq_amp:.2e}, "
            f"product law {law:.2e}, unit shift {shift_ok}"
        )
    return EigenCorrespondence(
        osc=osc, g_phases=g, f_phases=f, predicted=E,
        eq_amplitude_residual=eq_amp, product_law_residual=law,
        product_phase=complex(np.prod(E / g)),
        literal_phase_residual=literal, lambda_claim_residual=lam_resid,
        unit_shift_ok=shift_ok,
    )


@dataclass(frozen=True)
class UqSl2Realisation:
    dim: Dimension
    m: tuple[int, int]
    mp: tuple[int, int]
    cross: int
    p: complex
    s_p: complex                  # p^{D/2}
    s_tilde_p: complex            # p^{(D-1)/2}, stored for reference only
    d_coef: float                 # d = d', real positive
    lowering: np.ndarray          # A
    intertwiner: np.ndarray       # S_{m-m'} at the exact (unreduced) label
    eigenvectors: np.ndarray
    n_values: np.ndarray
    delta: float                  # J3 window offset: 0 or D/(2c)
    j3_values: np.ndarray         # n + delta

    @property
    def raising(self) -> np.ndarray:
        return _dag(self.lowering)

    def bracket(self, x) -> np.ndarray:
        """Deformed bracket sin(gamma0 c x) / sin(gamma0 c / 2)."""
        return _sl2_bracket(self.dim, self.cross, x)


def _sl2_bracket(dim: Dimension, c, x) -> np.ndarray:
    """sin(gamma0 c x) / sin(gamma0 c / 2); c broadcasts against x."""
    c = np.asarray(c)
    return np.sin(dim.gamma0 * c * np.asarray(x, dtype=float)) / np.sin(np.pi * c / dim.d)


class _Sl2Stack(NamedTuple):
    """P deformed sl(2) realizations; each field as in UqSl2Realisation."""

    dim: Dimension
    cross: np.ndarray
    p: np.ndarray
    s_p: np.ndarray
    d_coef: np.ndarray
    lowering: np.ndarray
    intertwiner: np.ndarray
    eigenvectors: np.ndarray
    n_values: np.ndarray
    delta: np.ndarray
    j3_values: np.ndarray


def _sl2_stack(dim: Dimension, m, mp, V):
    """Deformed sl(2) realizations on labelled pairs, and their branch phases phi0.

    V holds the S_{m-m'} eigenvectors.  phi0 = <e_0|S_w|e_0>/s_p must be +1
    (delta = 0) or -1 (delta = D/(2c)); see _branch_ok.
    """
    d = dim.d
    c = lattice_cross(m.T, mp.T)
    d_coef = 1.0 / (2.0 * np.abs(np.sin(np.pi * c / d)))
    A = d_coef[:, None, None] * (_displacement_stack(d, m) + _displacement_stack(d, mp))
    Sw = _displacement_stack(d, m - mp)
    s_p = np.exp(-1j * np.pi * c)
    v0 = V[:, :, 0]
    phi0 = (v0.conj()[:, None, :] @ Sw @ v0[:, :, None])[:, 0, 0] / s_p
    delta = np.where(np.abs(phi0 + 1) < _BRANCH_TOL, d / (2.0 * c), 0.0)
    nv = (_inverse_mod(d, c)[:, None] * np.arange(d)) % d
    st = _Sl2Stack(dim, c, np.exp(-1j * dim.gamma0 * c), s_p, d_coef, A, Sw, V, nv, delta,
                   nv + delta[:, None])
    return st, phi0


def _branch_ok(phi0) -> np.ndarray:
    return (np.abs(phi0 - 1) < _BRANCH_TOL) | (np.abs(phi0 + 1) < _BRANCH_TOL)


def _branch_error(dim: Dimension, phi0, m, mp) -> PhaseMismatchError:
    return PhaseMismatchError(
        f"branch phase {phi0:.6f} is neither +1 nor -1 at D={dim.d}, {m}, {mp}")


def _casimir_stack(st: _Sl2Stack, AdA, AAd):
    """Both Casimir orderings per pair from A^dag A and A A^dag, and their constant."""
    dim, d, j3 = st.dim, st.dim.d, st.j3_values
    c = st.cross[:, None]
    C1 = AdA + _diag_stack(st.eigenvectors, _sl2_bracket(dim, c, (j3 + d / 2.0 - 0.5) / 2.0) ** 2)
    C2 = AAd + _diag_stack(st.eigenvectors, _sl2_bracket(dim, c, (j3 + d / 2.0 + 0.5) / 2.0) ** 2)
    const = 1.0 / _scalar_pow(np.sin(np.pi * st.cross / d), 2)
    return C1, C2, const


def _sl2_stack_residuals(st: _Sl2Stack) -> dict:
    """Per-pair residuals of the deformed sl(2) identities (see sl2_residuals)."""
    dim, d = st.dim, st.dim.d
    A, Sw, V, j3 = st.lowering, st.intertwiner, st.eigenvectors, st.j3_values
    Ad = _dag(A)
    c = st.cross[:, None]
    p = st.p[:, None, None]
    delta = st.delta[:, None]
    AAd, AdA = A @ Ad, Ad @ A
    C1, C2, const = _casimir_stack(st, AdA, AAd)
    shifted = ((j3 - delta + 1) % d) + delta
    return {
        "exponential": _max_abs_stack(
            Sw - st.s_p[:, None, None] * _diag_stack(V, np.exp(-1j * dim.gamma0 * c * j3))),
        "intertwine": _max_abs_stack(A @ Sw - p * Sw @ A),
        "intertwine_dag": _max_abs_stack(Ad @ Sw - np.conj(p) * Sw @ Ad),
        "commutator": _max_abs_stack(
            AAd - AdA + _diag_stack(V, _sl2_bracket(dim, c, j3 + d / 2.0))),
        "ladder": _max_abs_stack(A @ _diag_stack(V, j3) - _diag_stack(V, shifted) @ A),
        "casimir_forms": _max_abs_stack(C1 - C2),
        "casimir_value": _max_abs_stack(C1 - const[:, None, None] * np.eye(d)),
        "casimir_central": np.maximum(_max_abs_stack(C1 @ A - A @ C1),
                                      _max_abs_stack(C1 @ Ad - Ad @ C1)),
    }


def build_uq_sl2(dim: Dimension, m, mp) -> UqSl2Realisation:
    """Deformed sl(2) pair on (m, m') with d = d' = 1/(2 |sin(gamma0 c / 2)|).

    J3 is read off from S_{m-m'} = s_p p^{J3}: the eigenvector phases fix a
    branch phi0 = <e_0|S_w|e_0>/s_p which is +1 or -1 exactly; the -1 branch
    shifts the integer window by delta = D/(2c).
    """
    m = (int(m[0]), int(m[1]))
    mp = (int(mp[0]), int(mp[1]))
    c = _require_noncollinear(dim, m, mp)
    w = (m[0] - mp[0], m[1] - mp[1])
    sys = eigensystem_by_recursion(dim, canonical_vector(dim, w))
    st, phi0 = _sl2_stack(dim, np.array([m]), np.array([mp]), sys.eigenvectors[None])
    if not _branch_ok(phi0)[0]:
        raise _branch_error(dim, phi0[0], m, mp)
    _require_invertible(dim, c)
    one = _unstack(st, skip=("cross", "delta"))
    return UqSl2Realisation(
        dim=dim, m=m, mp=mp, cross=c,
        s_tilde_p=np.exp(-1j * dim.gamma0 * c * (dim.d - 1) / 2.0),
        delta=float(st.delta[0]), **one,
    )


def sl2_residuals(o: UqSl2Realisation) -> dict:
    """Defining identities of the deformed sl(2) realization as residuals.

    exponential: S_w = s_p p^{J3}
    intertwine:  A S_w = p S_w A   (and the conjugate with pbar)
    commutator:  [A, A^dag] = -[J3 + D/2]
    ladder:      A J3 = (J3 + 1) A with the wrap staying inside the J3 window
    casimir:     both orderings agree, equal the same constant and commute with A
    """
    res = _sl2_stack_residuals(_stack_of_one(_Sl2Stack, o))
    return {k: float(v[0]) for k, v in res.items()}


def sl2_sweep(dim: Dimension, m, mp) -> SweepReport:
    """Worst sl2_residuals over every pair (m[i], mp[i]), in stacked blocks.

    m and mp are integer label arrays (P, 2).  A pair is skipped exactly where
    build_uq_sl2 refuses it: a degenerate S_{m-m'} eigensystem, a branch phase
    phi0 that is not +1 or -1 to 1e-9, or c not invertible mod D.  At prime D
    a branch phase off both raises PhaseMismatchError, as the builder does.
    """
    m, mp, c = _sweep_labels(dim, m, mp)
    keys, simple, vecs = _eigenvectors_by_label(dim, m - mp)
    built = simple & (_inverse_mod(dim.d, c) > 0)
    worst: dict = {}
    for idx in _blocks(np.flatnonzero(built), dim.d ** 2):
        V = np.stack([vecs[k] for k in keys[idx].tolist()])
        st, phi0 = _sl2_stack(dim, m[idx], mp[idx], V)
        ok = _branch_ok(phi0)
        if not ok.all():
            i = int(np.argmin(ok))
            if dim.prime:
                raise _branch_error(dim, phi0[i], tuple(m[idx[i]].tolist()),
                                    tuple(mp[idx[i]].tolist()))
            built[idx[~ok]] = False
        if ok.any():
            _fold(worst, _sl2_stack_residuals(st), ok)
    return SweepReport(worst, built)


def casimir_uq_sl2(o: UqSl2Realisation):
    """Both orderings of the Casimir and the constant they equal.

    Returns (C1, C2, constant) with C1 = A^dag A + [ (J3 + D/2 - 1/2)/2 ]^2 and
    C2 the A A^dag counterpart.  In this realization the Casimir is the nonzero
    constant 1/sin^2(gamma0 c / 2) times the identity (measured, not assumed).
    """
    st = _stack_of_one(_Sl2Stack, o)
    A = st.lowering
    C1, C2, const = _casimir_stack(st, _dag(A) @ A, A @ _dag(A))
    return C1[0], C2[0], const[0]


def _sigma_values(o: UqSl2Realisation) -> np.ndarray:
    """Group-like weight sigma^{J3} entering the two-copy coupling.

    sigma(h) = (-1)^{n(h) c} e^{-i gamma0 c h / 2} with n(h) = h - delta; the
    alternating sign is required whenever c is odd, or the coupled copies fail
    to close on the same bracket.
    """
    c = o.cross
    nvals = np.rint(o.j3_values - o.delta).astype(int)
    sign = (-1.0) ** (nvals * (c % 2))
    return sign * np.exp(-0.5j * o.dim.gamma0 * c * o.j3_values)


@dataclass(frozen=True)
class CoproductReport:
    dim: Dimension
    cross: int
    deltas: tuple[float, float]
    closure: float
    intertwine: float
    intertwine_dag: float


def coproduct_check(dim: Dimension, m, mp, second: tuple | None = None,
                    alternate_sign: bool = True, max_dim: int = 7) -> CoproductReport:
    """Two-copy coupling of the deformed sl(2) realization, verified in D^2.

    Delta(A) = A (x) sigma^{H} + sigma^{-H} (x) A closes on the same deformed
    commutator with H additive, and intertwines with S_w (x) S_w.  The second
    copy defaults to the same pair; a different pair is accepted when its
    symplectic area matches mod D (same deformation parameter).
    """
    if dim.d > max_dim:
        raise DimensionTooLargeError(
            f"coproduct check runs in dimension D^2 = {dim.d ** 2}; limit is {max_dim}^2"
        )
    o1 = build_uq_sl2(dim, m, mp)
    o2 = o1 if second is None else build_uq_sl2(dim, second[0], second[1])
    if (o2.cross - o1.cross) % dim.d != 0:
        raise ValueError(
            f"deformation parameters differ: {o1.cross} vs {o2.cross} mod {dim.d}"
        )
    sv1 = _sigma_values(o1) if alternate_sign else np.exp(-0.5j * dim.gamma0 * o1.cross * o1.j3_values)
    sv2 = _sigma_values(o2) if alternate_sign else np.exp(-0.5j * dim.gamma0 * o2.cross * o2.j3_values)
    V1, V2 = o1.eigenvectors, o2.eigenvectors
    Sg2 = (V2 * sv2) @ _dag(V2)
    Sg1m = (V1 * np.conj(sv1)) @ _dag(V1)
    DX = np.kron(o1.lowering, Sg2) + np.kron(Sg1m, o2.lowering)
    DXd = np.kron(o1.raising, Sg2) + np.kron(Sg1m, o2.raising)
    W2 = np.kron(V1, V2)
    Hv = np.add.outer(o1.j3_values, o2.j3_values).ravel()
    c = o1.cross

    def mf(vals):
        return (W2 * vals) @ _dag(W2)

    closure = max_abs(DX @ DXd - DXd @ DX + mf(o1.bracket(Hv + dim.d / 2.0)))
    Kw = np.exp(-1j * np.pi * c) * mf(np.exp(-1j * dim.gamma0 * c * Hv))
    return CoproductReport(
        dim=dim, cross=c, deltas=(o1.delta, o2.delta),
        closure=closure,
        intertwine=max_abs(DX @ Kw - o1.p * Kw @ DX),
        intertwine_dag=max_abs(DXd @ Kw - np.conj(o1.p) * Kw @ DXd),
    )


@dataclass(frozen=True)
class TranslationReport:
    dim: Dimension
    m: tuple[int, int]
    mp: tuple[int, int]
    r: tuple[int, int]
    delta_alpha: int
    p_new: complex
    residual: float


def translated_lattice_deformation(dim: Dimension, m, mp, r) -> TranslationReport:
    """Deformation shift of the ladder built on the translated pair (m+r, m'+r).

    The translated A still intertwines with the original S_{m-m'} but with
    p' = p e^{i gamma0 delta_alpha}, delta_alpha = r x (m - m').  Translations
    act on the deformation parameter only; they are not unitarily realizable
    on the torus basis.
    """
    c = _require_noncollinear(dim, m, mp)
    w = (m[0] - mp[0], m[1] - mp[1])
    da = lattice_cross(r, w)
    # the translated pair has area c - da; collinearity there is an error the
    # builder raises itself
    ot = build_uq_sl2(dim, (m[0] + r[0], m[1] + r[1]), (mp[0] + r[0], mp[1] + r[1]))
    Sw = schwinger_matrix(dim, w)
    p_new = np.exp(-1j * dim.gamma0 * c) * np.exp(1j * dim.gamma0 * da)
    residual = max_abs(ot.lowering @ Sw - p_new * Sw @ ot.lowering)
    return TranslationReport(dim=dim, m=tuple(m), mp=tuple(mp), r=tuple(r),
                             delta_alpha=da, p_new=p_new, residual=residual)
