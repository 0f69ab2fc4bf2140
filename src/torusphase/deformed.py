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

Both start from one label pass over a list of pairs (_label_pass): it rejects
collinear pairs, gathers the eigenvectors of each distinct canonical
w = m - m' once, and gives every pair the reason its builder refuses it, if
any.  The builders raise that refusal; the sweeps oscillator_sweep and
sl2_sweep skip and count it, then stack the built pairs in blocks of at most
_BLOCK_ENTRIES complex entries per D x D stack and take every residual with
batched matmul.  The per-pair builders and residual functions evaluate the
same stacked formulas on a stack of one, so each identity is written once and
a sweep's worst residual is bit-equal to the worst of the per-pair values.
The sign that fixes the sl(2) J3 offset and the oscillator eta is an exact
integer parity of the labels (_branch_sign), not a measured phase.
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
from .schwinger import _eigensystem_cached, schwinger_matrix, schwinger_stack

_SINGULAR_TOL = 1e-12
_LOWEST_WEIGHT_TOL = 1e-9    # |C + [n]| below which n is a lowest weight
_BLOCK_ENTRIES = 1 << 12     # complex entries per stack in one sweep block
# refusal reasons of each builder, in the order it checks them
_OSC_REASONS = ("singular", "degenerate", "non-invertible")
_SL2_REASONS = ("degenerate", "non-invertible")


def _dag(A):
    return A.conj().swapaxes(-1, -2)


def _singular(dim: Dimension, c):
    """sin(gamma0 c) = 0 (to 1e-12): the oscillator coefficients diverge."""
    return np.abs(np.sin(dim.gamma0 * np.asarray(c))) < _SINGULAR_TOL


def _phase_cross(d: int, c) -> np.ndarray:
    """c reduced mod 2D into [-D, D): the cross value phases and brackets are taken of.

    Each of them has period 2D in c, but one taken from an unreduced c (window
    labels reach |c| ~ D^2/2, the random sweeps ~ 8 D^2) loses about log10|c|
    digits.  The least |c| keeps the sine arguments smallest.
    """
    return (np.asarray(c) + d) % (2 * d) - d


# -- stacked building blocks ---------------------------------------------------
# A stack holds P pairs: labels (P, 2), per-pair scalars (P,), per-pair value
# lists (P, D) and operators (P, D, D).

def _scalar_pow(x, e: float) -> np.ndarray:
    """x ** e elementwise through libm pow, as for a numpy scalar.

    numpy's vectorized power can differ from the scalar one in the last bit;
    a coefficient must not depend on how many pairs share its stack.
    """
    return np.array([math.pow(v, e) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


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


def _stack_of_one(cls, obj):
    """The stack of one pair holding the fields of a per-pair realization."""
    return cls(obj.dim, *(np.asarray(getattr(obj, name))[None] for name in cls._fields[1:]))


def _unstack(st, skip=()) -> dict:
    """Fields of the first pair of a stack, for a per-pair realization."""
    return {name: getattr(st, name)[0] for name in st._fields[1:] if name not in skip}


@dataclass(frozen=True)
class SweepReport:
    """Worst residual per identity over a list of label pairs.

    built_mask flags, in input order, the pairs the per-pair builder builds;
    the others are skipped, and skips counts them by the first reason found
    (reason -> count, zero counts included).  worst is empty when no pair is
    built.
    """

    worst: dict
    built_mask: np.ndarray
    skips: dict

    @property
    def built(self) -> int:
        return int(self.built_mask.sum())

    @property
    def skipped(self) -> int:
        return len(self.built_mask) - self.built


def _checked_labels(dim: Dimension, m, mp):
    """Label arrays (P, 2) and exact cross values; a collinear pair raises."""
    m = np.asarray(m, dtype=np.int64).reshape(-1, 2)
    mp = np.asarray(mp, dtype=np.int64).reshape(-1, 2)
    c = lattice_cross(m.T, mp.T)
    collinear = c % dim.d == 0
    if collinear.any():
        i = int(np.argmax(collinear))
        raise CollinearVectorsError(
            f"{tuple(m[i].tolist())} x {tuple(mp[i].tolist())} = {c[i]} = 0 mod {dim.d}")
    return m, mp, c


class _Labels(NamedTuple):
    """A checked list of label pairs with its S_{m-m'} eigensystems and refusals."""

    m: np.ndarray
    mp: np.ndarray
    cross: np.ndarray        # exact m x m'
    keys: np.ndarray         # residue key of w = m - m' per pair
    systems: dict            # key -> (eigenvalues, eigenvectors), or the degeneracy error
    reasons: tuple           # refusal reasons checked, in the builder's order
    refusal: np.ndarray      # per pair: index of its first reason, len(reasons) if built

    @property
    def built(self) -> np.ndarray:
        return self.refusal == len(self.reasons)

    def eigenvectors(self, idx) -> np.ndarray:
        return np.stack([self.systems[k][1] for k in self.keys[idx].tolist()])


def _label_pass(dim: Dimension, m, mp, reasons: tuple) -> _Labels:
    """Check label pairs once for both algebras.

    Each distinct canonical w = m - m' goes once through _eigensystem_cached.
    (np.unique and np.isin would import numpy.ma, ~1 MB of resident memory.)
    """
    d = dim.d
    m, mp, c = _checked_labels(dim, m, mp)
    w = m - mp
    keys = (w[:, 0] % d) * d + w[:, 1] % d
    simple = np.zeros(d * d, dtype=bool)
    systems = {}
    for k in set(keys.tolist()):
        try:
            systems[k] = _eigensystem_cached(d, *canonical_vector(dim, divmod(k, d)))
            simple[k] = True
        except DegenerateSpectrumError as exc:
            # without its traceback, which would keep this frame in a cycle
            systems[k] = exc.with_traceback(None)
    failed = {"singular": _singular(dim, c), "degenerate": ~simple[keys],
              "non-invertible": _inverse_mod(d, c) == 0}
    first = np.argmax(np.stack([failed[r] for r in reasons] + [np.ones(len(c), dtype=bool)]),
                      axis=0)
    return _Labels(m, mp, c, keys, systems, reasons, first)


def _built_stack(dim: Dimension, m, mp, reasons: tuple, stack, *args):
    """Label pass and stack of every pair; the first refused pair raises its builder error."""
    lab = _label_pass(dim, m, mp, reasons)
    if not lab.built.all():
        i = int(np.argmin(lab.built))
        reason, c = reasons[lab.refusal[i]], int(lab.cross[i])
        if reason == "degenerate":
            raise lab.systems[int(lab.keys[i])]
        if reason == "singular":
            raise SingularDeformationError(
                f"sin(gamma0 * {c}) = 0 at D={dim.d}; oscillator coefficients diverge")
        raise DegenerateSpectrumError(
            f"cross value {c} is not invertible mod {dim.d}; the number labeling degenerates")
    return lab, stack(dim, lab.m, lab.mp, lab.eigenvectors(slice(None)), *args)


def _sweep(dim: Dimension, m, mp, reasons: tuple, stack, residuals) -> SweepReport:
    """Worst residuals over the built pairs, in stacked blocks, and the skips by reason."""
    lab = _label_pass(dim, m, mp, reasons)
    built = np.flatnonzero(lab.built)
    step = max(1, _BLOCK_ENTRIES // dim.d ** 2)
    worst: dict = {}
    for start in range(0, len(built), step):
        idx = built[start:start + step]
        st = stack(dim, lab.m[idx], lab.mp[idx], lab.eigenvectors(idx))
        for k, v in residuals(st).items():
            if k == "spectrum_min":
                worst[k] = min(worst.get(k, np.inf), float(v.min()))
            else:
                worst[k] = max(worst.get(k, 0.0), float(v.max()))
    skips = {r: int((lab.refusal == i).sum()) for i, r in enumerate(reasons)}
    return SweepReport(worst, lab.built, skips)


def _branch_sign(d: int, c, w) -> np.ndarray:
    """phi0 = <v_0|S_w|v_0> / s_p = sigma(w) (-1)^{wbar1 wbar2 + c} per pair, +1 or -1.

    wbar is the window representative of the label w and sigma(w) its
    reduce_label sign, S_w = sigma S_wbar with sigma = (-1)^{a wbar2 + b wbar1
    + a b D} for w = wbar + (a D, b D).  v_0, the first eigenvector of S_wbar,
    has eigenvalue e^{i pi wbar1 wbar2}, and s_p = e^{-i pi c} = (-1)^c.
    """
    wbar = w % d
    if d % 2 == 1:
        wbar = np.where(wbar > (d - 1) // 2, wbar - d, wbar)
    a, b = ((w - wbar) // d).T
    parity = a * wbar[:, 1] + b * wbar[:, 0] + a * b * d + wbar[:, 0] * wbar[:, 1] + c
    return 1.0 - 2 * (parity % 2)


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


def _oscillator_stack(dim: Dimension, m, mp, V, eta=None) -> _OscillatorStack:
    """Shifted q-oscillators on buildable pairs, with S_{m-m'} eigenvectors V.

    eta defaults to the sign that makes A^dag A = C + [N] exact, -phi0 (see
    _branch_sign).
    """
    d, g0 = dim.d, dim.gamma0
    c = _phase_cross(d, lattice_cross(m.T, mp.T))
    if eta is None:
        eta = -_branch_sign(d, c, m - mp)
    s = np.sin(g0 * c)
    d_coef = _scalar_pow(2.0 * np.abs(s), -0.5)
    dp_coef = np.conj(eta / ((2j * s) * d_coef))
    A = (d_coef[:, None, None] * schwinger_stack(d, m)
         + dp_coef[:, None, None] * schwinger_stack(d, mp))
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
    c = _phase_cross(d, st.cross)[:, None]
    C_eye = st.shift_constant[:, None, None] * np.eye(d)
    Qdirect = ((-st.eta)[:, None, None] * schwinger_stack(d, -st.m)
               @ schwinger_stack(d, st.mp))
    return {
        "number": _max_abs_stack(Ad @ A - (C_eye + _diag_stack(V, bracket_values(dim, c, nv)))),
        "q_exponential": _max_abs_stack(Qdirect - st.q_exponential),
        "ladder": _max_abs_stack(A @ st.number_op - _diag_stack(V, (nv + 1) % d) @ A),
        # A A^dag = C + [N + 1]: the pair of relations whose difference is the
        # q-commutator; checked via the bracket form directly
        "raised_number": _max_abs_stack(
            A @ Ad - (C_eye + _diag_stack(V, bracket_values(dim, c, nv + 1)))),
        "spectrum_min": st.spectrum.min(axis=1),
        "shift_constant": np.abs(st.shift_constant - 1.0 / np.abs(np.sin(dim.gamma0 * c[:, 0]))),
    }


def build_q_oscillator(dim: Dimension, m, mp, eta_override: float | None = None) -> QOscillator:
    """Shifted q-oscillator on the pair (m, m').

    The coefficient d is real positive with |d| = |d'| = (2|sin(gamma0 c)|)^{-1/2};
    the phase of d' and the sign eta = -phi0 (see _branch_sign; w = m - m') are
    forced by requiring A^dag A = C + [N] with no extra term.
    """
    eta = None if eta_override is None else np.array([float(eta_override)])
    lab, st = _built_stack(dim, [m], [mp], _OSC_REASONS, _oscillator_stack, eta)
    c = int(lab.cross[0])
    return QOscillator(dim=dim, m=tuple(lab.m[0].tolist()), mp=tuple(lab.mp[0].tolist()),
                       cross=c, q=np.exp(-1j * dim.gamma0 * (c % dim.d)), eta=float(st.eta[0]),
                       eigenvalues=lab.systems[int(lab.keys[0])][0],
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
    S_{m-m'} eigensystem, or c not invertible mod D; skips counts these three
    reasons in that order, the builder's.  The worst is the max per key,
    except spectrum_min, which is the min.
    """
    return _sweep(dim, m, mp, _OSC_REASONS, _oscillator_stack, _oscillator_stack_residuals)


def oscillator_operators(dim: Dimension, m, mp):
    """Lowering operator A and number operator N per pair, stacked (P, D, D).

    m and mp are integer label arrays (P, 2) of pairs build_q_oscillator builds;
    the first it refuses raises its error.
    """
    st = _built_stack(dim, m, mp, _OSC_REASONS, _oscillator_stack)[1]
    return st.lowering, st.number_op


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
    c = _phase_cross(dim.d, c)
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
    c = int(_checked_labels(dim, m, mp)[2][0])
    hits, margin, singular = _lowest_weight_profile(dim, np.array([c]), tol)
    solutions = tuple(int(k) for k in np.flatnonzero(hits[0]))
    has = len(solutions) > 0
    return LowestWeightReport(dim, tuple(m), tuple(mp), c, has, solutions,
                              float(margin[0]), bool(singular[0]), not has)


def lowest_weight_sweep(dim: Dimension, m, mp) -> int | None:
    """Index of the first pair whose default lowest_weight_scan has a solution, else None.

    m and mp are integer label arrays (P, 2).  The profile depends on c
    reduced into [-D, D) alone, so each distinct reduced c is scanned once.
    """
    d = dim.d
    c = _phase_cross(d, _checked_labels(dim, m, mp)[2])
    distinct = np.array(sorted(set(c.tolist())), dtype=np.int64)
    hit = np.zeros(2 * d, dtype=bool)
    hit[distinct + d] = _lowest_weight_profile(dim, distinct, _LOWEST_WEIGHT_TOL)[0].any(axis=1)
    hit = hit[c + d]
    return int(np.argmax(hit)) if hit.any() else None


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


def _matrix_elements(bra, S, ket) -> np.ndarray:
    """<bra_r| S |ket_r> for each column r, taken as (bra_r^dag S) ket_r."""
    return ((bra.conj().T[:, None, :] @ S) @ ket.T[:, :, None])[:, 0, 0]


def eigenbasis_correspondence(osc: QOscillator, tol: float = 1e-9) -> EigenCorrespondence:
    dim, c = osc.dim, osc.cross
    d = dim.d
    vecs, nv = osc.eigenvectors, osc.n_values
    lowered = vecs[:, (np.arange(d) - c) % d]
    g = _matrix_elements(lowered, schwinger_matrix(dim, osc.m), vecs)
    f = _matrix_elements(lowered, schwinger_matrix(dim, osc.mp), vecs)
    if max(np.max(np.abs(np.abs(g) - 1)), np.max(np.abs(np.abs(f) - 1))) > tol:
        raise PhaseMismatchError("ladder matrix elements are not unit modulus")
    amp2 = np.abs(osc.d_coef * g + osc.dp_coef * f) ** 2
    eq_amp = float(np.max(np.abs(amp2 - osc.spectrum[nv])))
    # E has period 2D in c at odd D and 4D at even D, lam_cand period 2D
    cE = _phase_cross(2 * d if d % 2 == 0 else d, c)
    E = np.exp(0.5j * dim.gamma0 * cE * (nv + (d - 1) / 2.0))
    law = float(np.max(np.abs(g * np.conj(f) + osc.eta * np.conj(E) ** 2)))
    literal = float(max(np.max(np.abs(g - E)), np.max(np.abs(g - np.conj(f)))))
    w = (osc.m[0] - osc.mp[0], osc.m[1] - osc.mp[1])
    lam_w = _matrix_elements(vecs, schwinger_matrix(dim, w), vecs)
    lam_cand = np.exp(1j * dim.gamma0 * (nv - d / 2.0) * _phase_cross(d, c))
    lam_resid = float(np.max(np.abs(np.conj(lam_w) - lam_cand)))
    shift_ok = bool(np.array_equal(nv[(np.arange(d) + c) % d], (nv + 1) % d))
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
    delta: float                  # J3 window offset: 0 or D/(2c), c reduced into [-D, D)
    j3_values: np.ndarray         # n + delta

    @property
    def raising(self) -> np.ndarray:
        return _dag(self.lowering)

    def bracket(self, x) -> np.ndarray:
        """Deformed bracket sin(gamma0 c x) / sin(gamma0 c / 2)."""
        return _sl2_bracket(self.dim, self.cross, x)


def _sl2_bracket(dim: Dimension, c, x) -> np.ndarray:
    """sin(gamma0 c x) / sin(gamma0 c / 2); c broadcasts against x."""
    c = _phase_cross(dim.d, c)
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


def _sl2_stack(dim: Dimension, m, mp, V) -> _Sl2Stack:
    """Deformed sl(2) realizations on buildable pairs, with S_{m-m'} eigenvectors V.

    J3 is read off from S_w = s_p p^{J3}: the branch phi0 = <v_0|S_w|v_0>/s_p
    (see _branch_sign) is +1 (delta = 0) or -1 (delta = D/(2c)).
    """
    d = dim.d
    c = _phase_cross(d, lattice_cross(m.T, mp.T))
    d_coef = 1.0 / (2.0 * np.abs(np.sin(np.pi * c / d)))
    A = d_coef[:, None, None] * (schwinger_stack(d, m) + schwinger_stack(d, mp))
    delta = np.where(_branch_sign(d, c, m - mp) < 0, d / (2.0 * c), 0.0)
    nv = (_inverse_mod(d, c)[:, None] * np.arange(d)) % d
    return _Sl2Stack(dim, c, np.exp(-1j * dim.gamma0 * c), np.exp(-1j * np.pi * c), d_coef, A,
                     schwinger_stack(d, m - mp), V, nv, delta, nv + delta[:, None])


def _casimir_stack(st: _Sl2Stack, AdA, AAd):
    """Both Casimir orderings per pair from A^dag A and A A^dag, and their constant."""
    dim, d, j3 = st.dim, st.dim.d, st.j3_values
    c = _phase_cross(d, st.cross)[:, None]
    C1 = AdA + _diag_stack(st.eigenvectors, _sl2_bracket(dim, c, (j3 + d / 2.0 - 0.5) / 2.0) ** 2)
    C2 = AAd + _diag_stack(st.eigenvectors, _sl2_bracket(dim, c, (j3 + d / 2.0 + 0.5) / 2.0) ** 2)
    const = 1.0 / _scalar_pow(np.sin(np.pi * c[:, 0] / d), 2)
    return C1, C2, const


def _sl2_stack_residuals(st: _Sl2Stack) -> dict:
    """Per-pair residuals of the deformed sl(2) identities (see sl2_residuals)."""
    dim, d = st.dim, st.dim.d
    A, Sw, V, j3 = st.lowering, st.intertwiner, st.eigenvectors, st.j3_values
    Ad = _dag(A)
    c = _phase_cross(d, st.cross)[:, None]
    p = st.p[:, None, None]
    delta = st.delta[:, None]
    AAd, AdA = A @ Ad, Ad @ A
    C1, C2, const = _casimir_stack(st, AdA, AAd)
    shifted = (st.n_values + 1) % d + delta     # not from j3 - delta, which can round below n
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

    J3 is read off from S_{m-m'} = s_p p^{J3}: the branch phi0 = +1 or -1 (see
    _branch_sign) is an exact parity of the labels; the -1 branch shifts the
    integer window by delta = D/(2c).
    """
    lab, st = _built_stack(dim, [m], [mp], _SL2_REASONS, _sl2_stack)
    c = int(lab.cross[0])
    return UqSl2Realisation(
        dim=dim, m=tuple(lab.m[0].tolist()), mp=tuple(lab.mp[0].tolist()), cross=c,
        s_tilde_p=np.exp(-1j * dim.gamma0 * _phase_cross(dim.d, c) * (dim.d - 1) / 2.0),
        delta=float(st.delta[0]), **_unstack(st, skip=("cross", "delta")),
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
    build_uq_sl2 refuses it: a degenerate S_{m-m'} eigensystem, or c not
    invertible mod D; skips counts these two reasons in that order, the
    builder's.
    """
    return _sweep(dim, m, mp, _SL2_REASONS, _sl2_stack, _sl2_stack_residuals)


def sl2_operators(dim: Dimension, m, mp):
    """Lowering operator A and J3 per pair, stacked (P, D, D).

    m and mp are integer label arrays (P, 2) of pairs build_uq_sl2 builds; the
    first it refuses raises its error.
    """
    st = _built_stack(dim, m, mp, _SL2_REASONS, _sl2_stack)[1]
    return st.lowering, _diag_stack(st.eigenvectors, st.j3_values)


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
    c = _phase_cross(o.dim.d, o.cross)
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
    c1, c2 = _phase_cross(dim.d, o1.cross), _phase_cross(dim.d, o2.cross)
    sv1 = _sigma_values(o1) if alternate_sign else np.exp(-0.5j * dim.gamma0 * c1 * o1.j3_values)
    sv2 = _sigma_values(o2) if alternate_sign else np.exp(-0.5j * dim.gamma0 * c2 * o2.j3_values)
    V1, V2 = o1.eigenvectors, o2.eigenvectors
    Sg2 = (V2 * sv2) @ _dag(V2)
    Sg1m = (V1 * np.conj(sv1)) @ _dag(V1)
    DX = np.kron(o1.lowering, Sg2) + np.kron(Sg1m, o2.lowering)
    DXd = np.kron(o1.raising, Sg2) + np.kron(Sg1m, o2.raising)
    W2 = np.kron(V1, V2)
    Hv = np.add.outer(o1.j3_values, o2.j3_values).ravel()

    def mf(vals):
        return (W2 * vals) @ _dag(W2)

    closure = max_abs(DX @ DXd - DXd @ DX + mf(o1.bracket(Hv + dim.d / 2.0)))
    Kw = np.exp(-1j * np.pi * c1) * mf(np.exp(-1j * dim.gamma0 * c1 * Hv))
    return CoproductReport(
        dim=dim, cross=o1.cross, deltas=(o1.delta, o2.delta),
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
    c = int(_checked_labels(dim, m, mp)[2][0])
    w = (m[0] - mp[0], m[1] - mp[1])
    da = lattice_cross(r, w)
    # the translated pair has area c - da; collinearity there is an error the
    # builder raises itself
    ot = build_uq_sl2(dim, (m[0] + r[0], m[1] + r[1]), (mp[0] + r[0], mp[1] + r[1]))
    Sw = schwinger_matrix(dim, w)
    p_new = np.exp(-1j * dim.gamma0 * ((c - da) % dim.d))
    residual = max_abs(ot.lowering @ Sw - p_new * Sw @ ot.lowering)
    return TranslationReport(dim=dim, m=tuple(m), mp=tuple(mp), r=tuple(r),
                             delta_alpha=da, p_new=p_new, residual=residual)
