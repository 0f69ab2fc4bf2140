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
collinear pairs and gives every pair the reason its builder refuses it, if
any, from the label integers alone.  build_q_oscillator, coproduct_check and
translated_lattice_deformation raise that refusal; the sweeps skip and count
it.  The eigenvectors V of S_w, w = m - m', are built where they are used,
once per distinct w: a sweep visits its pairs grouped by w, block by block,
and carries only the last system of a block into the next
(_Labels.eigenvector_blocks).  Every identity is checked on V in two parts:
(a) S_m and S_m' act on V one entry per column, O(D^2) per pair, and must be
weighted shifts v_r -> v_{r-c} (_shift_weights); (b) on their weights, where
A is a weighted shift and N, J3, S_w and both Casimir orderings are
diagonal, each identity is a scalar identity on D values, whose rounding
floor is ~eps |C|, not the eps D |A| |C| of dense products.  Per-pair values
do not depend on the block, so a sweep of one pair gives that pair's
residuals and a sweep's worst is bit-equal to the worst of its one-pair
sweeps.  No dense operator is built: the builder returns label data only
(the coefficients, the quantum numbers n_r and the spectrum), and
A = d S_m + d' S_m', N = V diag(n) V^dag or S_w as D x D arrays are the
tests' oracles, built from those and V.  The sign that fixes the sl(2) J3
offset and the oscillator eta is an exact integer parity of the labels
(_branch_sign), not a measured phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CollinearVectorsError, DegenerateSpectrumError, SingularDeformationError
from .lattice import (
    _LABEL_BOUND,
    Dimension,
    _phase,
    _phase_cross,
    _reduce,
    _sin_turns,
    canonical_vector,
    lattice_cross,
)
from .schwinger import (
    _BLOCK_ENTRIES,
    _eigensystem,
    _has_closed_form,
    _norm,
    _times,
    displacement_columns,
    label_blocks,
)

_SINGULAR_TOL = 1e-12
# refusal reasons of each builder, in the order it checks them
_OSC_REASONS = ("singular", "degenerate", "non-invertible")
_SL2_REASONS = ("degenerate", "non-invertible")


def _singular(dim: Dimension, c):
    """sin(gamma0 c) = 0 (to 1e-12): the oscillator coefficients diverge."""
    return np.abs(_sin_turns(2 * np.asarray(c), dim.d)) < _SINGULAR_TOL


# -- pairs on the S_w eigenbasis -----------------------------------------------
# A list of P pairs: labels (P, 2), per-pair scalars (P,) and per-pair value
# lists (P, D).

def _scalar_pow(x, e: float) -> np.ndarray:
    """x ** e elementwise through libm pow, as for a numpy scalar.

    numpy's vectorized power can differ from the scalar one in the last bit;
    a coefficient must not depend on how many pairs share its block.
    """
    return np.array([math.pow(v, e) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _inverse_mod(d: int, c):
    """c^{-1} mod D (per pair for an array c); 0 where c is not invertible."""
    return _inverse_table(d)[c % d]


@lru_cache(maxsize=64)
def _inverse_table(d: int) -> np.ndarray:
    table = np.array([pow(r, -1, d) if math.gcd(r, d) == 1 else 0 for r in range(d)])
    table.flags.writeable = False
    return table


def _n_values(d: int, c) -> np.ndarray:
    """n(r) = c^{-1} r mod D per pair (P, D): the quantum number of eigenvector r."""
    return (_inverse_mod(d, c)[:, None] * np.arange(d)) % d


def _rolled(x, shift) -> np.ndarray:
    """x[p, (r + shift[p]) mod D] for per-pair values x (P, D)."""
    d = x.shape[1]
    return np.take_along_axis(x, (np.arange(d) + np.reshape(shift, (-1, 1))) % d, axis=1)


def _shift_weights(d: int, m, mp, V):
    """Part (a): S_m and S_m' on the S_w eigenbasis V of each pair, w = m - m'.

    With c = m x m', S_w S_m = e^{i gamma0 c} S_m S_w, and the same for S_m',
    so both lower the eigenvalue index by c: S_m v_r = g_r v_{r-c} and
    S_m' v_r = f_r v_{r-c}.
    Returns g and f (P, D), the matrix elements <v_{r-c}|S|v_r>, and the
    largest entry of S v_r - g_r v_{r-c} over both labels (P,).  Where it
    vanishes, A = d S_m + d' S_m' is the weighted shift (d g_r + d' f_r) and
    S_w = e^{i gamma0 c/2} S_m S_m'^dag is diagonal (_sw_values).
    """
    P = len(V)
    vt = np.ascontiguousarray(V.swapaxes(1, 2))        # row r holds v_r
    lower = (np.arange(d) - lattice_cross(m.T, mp.T)[:, None]) % d
    labels = [displacement_columns(d, x[:, 0], x[:, 1]) for x in (m, mp)]
    weights = [np.empty((P, d), dtype=complex) for _ in labels]
    residual = np.zeros(P)
    # rows of V in chunks of at most _BLOCK_ENTRIES entries: the temporaries
    # stay small, where fresh D x D ones cost their page faults at large D
    step = max(1, _BLOCK_ENTRIES // (P * d))
    for lo in range(0, d, step):
        v, lowered = vt[:, lo:lo + step], vt[np.arange(P)[:, None], lower[:, lo:lo + step]]
        at = (np.arange(P * v.shape[1]) * d).reshape(P, -1, 1)
        for (rows, vals), wt in zip(labels, weights):
            sv = np.empty_like(v)
            sv.reshape(-1)[at + rows[:, None, :]] = vals[:, None, :] * v
            # <v_{r-c}|S v_r>, summed along the row (pairwise, to ~eps log D)
            wt[:, lo:lo + step] = (lowered.conj() * sv).sum(axis=-1)
            err = np.abs(sv - wt[:, lo:lo + step, None] * lowered).max(axis=(1, 2))
            residual = np.maximum(residual, err)
    return weights[0], weights[1], residual


def _sw_values(d: int, c, g, f) -> np.ndarray:
    """Eigenvalues mu_r of S_w on v_r from the weights: e^{i pi c/D} g_{r+c} conj(f_{r+c})."""
    return _rolled(_phase(d, c).conj()[:, None] * g * np.conj(f), c)


def _worst(operator, scalars: dict) -> dict:
    """Per row and pair: the residual of part (a) or the largest scalar one (P, D), the larger."""
    return {k: np.maximum(operator, np.abs(x).max(axis=1)) for k, x in scalars.items()}


@dataclass(frozen=True)
class SweepReport:
    """Worst residual per identity over a list of label pairs.

    worst holds the max over the built pairs per key, and the min for a key
    ending in _min; it is empty when no pair is built.  built_mask flags, in
    input order, the pairs the per-pair builder builds; the others are
    skipped, and skips counts them by the first reason found (reason ->
    count, zero counts included).
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


def _pair_labels(dim: Dimension, m, mp):
    """Label arrays (P, 2) and exact cross values; a collinear pair raises.

    A component of magnitude _LABEL_BOUND or more raises ValueError: below it
    every int64 product the builders form, the cross value among them, is exact.
    """
    m, mp = (np.asarray(x).reshape(-1, 2) for x in (m, mp))
    if any(((x <= -_LABEL_BOUND) | (x >= _LABEL_BOUND)).any() for x in (m, mp)):
        raise ValueError("a label component is not below 2^31 in magnitude")
    m, mp = m.astype(np.int64), mp.astype(np.int64)
    c = lattice_cross(m.T, mp.T)
    collinear = c % dim.d == 0
    if collinear.any():
        i = int(np.argmax(collinear))
        raise CollinearVectorsError(
            f"{tuple(m[i].tolist())} x {tuple(mp[i].tolist())} = {c[i]} = 0 mod {dim.d}")
    return m, mp, c


class _Labels(NamedTuple):
    """A checked list of label pairs with the refusal of each."""

    dim: Dimension
    m: np.ndarray
    mp: np.ndarray
    cross: np.ndarray        # exact m x m'
    keys: np.ndarray         # residue key of w = m - m' per pair
    reasons: tuple           # refusal reasons checked, in the builder's order
    refusal: np.ndarray      # per pair: index of its first reason, len(reasons) if built

    @property
    def built(self) -> np.ndarray:
        return self.refusal == len(self.reasons)

    def system(self, key: int):
        """(eigenvalues, eigenvectors) of S_w for the canonical w of a residue key."""
        d = self.dim.d
        return _eigensystem(d, *canonical_vector(self.dim, divmod(key, d)))

    def eigenvector_blocks(self, blocks):
        """Eigenvectors of S_w per pair (P, D, D), one stack per block of pair indices.

        Each distinct w of a block is built once, and the last one is carried
        into the next block: over pairs sorted by w, every system is built once.
        """
        last_key = last = None
        for idx in blocks:
            keys, inverse = np.unique(self.keys[idx], return_inverse=True)
            keys = keys.tolist()
            systems = [last if k == last_key else self.system(k)[1] for k in keys]
            V = np.stack([systems[i] for i in inverse.tolist()])
            last_key, last = keys[-1], systems[-1]
            yield V


def _label_pass(dim: Dimension, m, mp, reasons: tuple) -> _Labels:
    """Check label pairs once for both algebras, from the label integers alone."""
    d = dim.d
    m, mp, c = _pair_labels(dim, m, mp)
    w = m - mp
    failed = {"singular": _singular(dim, c),
              "degenerate": ~_has_closed_form(d, w[:, 0], w[:, 1]),
              "non-invertible": _inverse_mod(d, c) == 0}
    first = np.argmax(np.stack([failed[r] for r in reasons] + [np.ones(len(c), dtype=bool)]),
                      axis=0)
    return _Labels(dim, m, mp, c, (w[:, 0] % d) * d + w[:, 1] % d, reasons, first)


def _built_labels(dim: Dimension, m, mp, reasons: tuple) -> _Labels:
    """Label pass of pairs the builder builds; the first refused pair raises its builder error."""
    lab = _label_pass(dim, m, mp, reasons)
    if not lab.built.all():
        i = int(np.argmin(lab.built))
        reason, c = reasons[lab.refusal[i]], int(lab.cross[i])
        if reason == "degenerate":
            lab.system(int(lab.keys[i]))     # raises the eigensystem's own error
        if reason == "singular":
            raise SingularDeformationError(
                f"sin(gamma0 * {c}) = 0 at D={dim.d}; oscillator coefficients diverge")
        raise DegenerateSpectrumError(
            f"cross value {c} is not invertible mod {dim.d}; the number labeling degenerates")
    return lab


def _sweep(dim: Dimension, m, mp, reasons: tuple, residuals) -> SweepReport:
    """Worst residuals over the built pairs, in blocks, and the skips by reason.

    residuals(dim, m, mp, V) gives a dict of per-pair residuals for a block.
    """
    lab = _label_pass(dim, m, mp, reasons)
    built = np.flatnonzero(lab.built)
    # pairs grouped by w build each eigensystem once; per-pair values do not
    # depend on their block
    built = built[np.argsort(lab.keys[built], kind="stable")]
    blocks = [built[blk] for blk in label_blocks(len(built), dim.d)]
    worst: dict = {}
    for idx, V in zip(blocks, lab.eigenvector_blocks(blocks)):
        for k, v in residuals(dim, lab.m[idx], lab.mp[idx], V).items():
            if k.endswith("_min"):
                worst[k] = min(worst.get(k, np.inf), float(v.min()))
            else:
                worst[k] = max(worst.get(k, 0.0), float(v.max()))
    skips = {r: int((lab.refusal == i).sum()) for i, r in enumerate(reasons)}
    return SweepReport(worst, lab.built, skips)


def _branch_sign(d: int, c, w) -> np.ndarray:
    """phi0 = <v_0|S_w|v_0> / s_p = sigma(w) (-1)^{wbar1 wbar2 + c} per pair, +1 or -1.

    wbar is the window representative of the label rows w (P, 2) and sigma(w)
    the sign S_w = sigma S_wbar, both from lattice._reduce.  v_0, the first
    eigenvector of S_wbar, has eigenvalue e^{i pi wbar1 wbar2}, and
    s_p = e^{-i pi c} = (-1)^c.
    """
    w1, w2, sigma = _reduce(d, w[:, 0], w[:, 1])
    return sigma * (1.0 - 2 * ((w1 * w2 + c) % 2))


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
    c_q: complex                  # Q = c_q q^{-N} = -eta S_{-m} S_m'
    n_values: np.ndarray          # n(r) = c^{-1} r mod D on the S_{m-m'} eigenvector r
    spectrum: np.ndarray          # f(n), n = 0..D-1


def _oscillator_coefs(dim: Dimension, m, mp):
    """eta, d, d' and C = 1/|sin(gamma0 c)| per pair (see build_q_oscillator).

    eta is the sign that makes A^dag A = C + [N] exact, -phi0 (see _branch_sign).
    """
    c = _phase_cross(dim.d, lattice_cross(m.T, mp.T))
    eta = -_branch_sign(dim.d, c, m - mp)
    s = np.sin(dim.gamma0 * c)
    d_coef = _scalar_pow(2.0 * np.abs(s), -0.5)
    return eta, d_coef, np.conj(eta / ((2j * s) * d_coef)), 1.0 / np.abs(s)


def _oscillator_rows(dim: Dimension, m, mp, V, eta, d_coef, dp_coef, C) -> dict:
    """Per-pair residuals of the oscillator identities (see oscillator_sweep).

    On V, with a_r = d g_r + d' f_r: A^dag A is |a_r|^2 and A A^dag is
    |a_{r+c}|^2 on v_r, N is n_r, and -eta S_{-m} S_m' is -eta conj(g_r) f_r.
    [n] = sin(pi k / D) / sin(gamma0 c) with the integer k = c (2n + D - 1).
    """
    d = dim.d
    cross = lattice_cross(m.T, mp.T)
    c = _phase_cross(d, cross)
    cc, nv = c[:, None], _n_values(d, c)
    k = cc * (2 * nv + d - 1)
    s = np.sin(dim.gamma0 * cc)
    g, f, op = _shift_weights(d, m, mp, V)
    dg, dpf = d_coef[:, None] * g, dp_coef[:, None] * f
    number = C[:, None] + _sin_turns(k, d) / s
    a2 = np.abs(dg + dpf) ** 2
    return _worst(op, {
        "number": a2 - number,
        # the number identity with eta and d' negated, which must fail
        "opposite_min": np.abs(dg - dpf) ** 2 - number,
        "q_exponential": _phase(d, k).conj() + eta[:, None] * np.conj(g) * f,
        "ladder": nv - (_rolled(nv, -c) + 1) % d,
        # A A^dag = C + [N + 1]: the pair of relations whose difference is the
        # q-commutator; checked via the bracket form directly
        "raised_number": _rolled(a2, c) - (C[:, None] + _sin_turns(k + 2 * cc, d) / s),
    }) | {
        "spectrum_min": (C[:, None] + bracket_values(dim, cc, np.arange(d))).min(axis=1),
        "shift_constant": np.abs(C - 1.0 / np.abs(np.sin(dim.gamma0 * c))),
        # the recorded claims: g = conj(f) = E, E = e^{i pi c (2n + D - 1) / 2D} of period
        # 4D in c, so from the exact c; conj(mu_r) = e^{i gamma0 (n - D/2) c}
        "literal_phase": np.maximum(
            np.abs(g - _phase(2 * d, (cross % (4 * d))[:, None] * (2 * nv + d - 1)).conj()),
            np.abs(g - np.conj(f))).max(axis=1),
        "exponent_claim": np.abs(np.conj(_sw_values(d, c, g, f))
                                 - _phase(d, (2 * nv - d) * cc).conj()).max(axis=1),
    }


def build_q_oscillator(dim: Dimension, m, mp) -> QOscillator:
    """Shifted q-oscillator on the pair (m, m'): A = d S_m + d' S_m', N = c^{-1} r on v_r.

    The coefficient d is real positive with |d| = |d'| = (2|sin(gamma0 c)|)^{-1/2};
    the phase of d' and the sign eta = -phi0 (see _branch_sign; w = m - m') are
    forced by requiring A^dag A = C + [N] with no extra term.  Only label data
    and D-vectors are returned; the eigenvectors v_r of S_w are those of
    eigensystem_by_recursion(dim, w).
    """
    d = dim.d
    lab = _built_labels(dim, [m], [mp], _OSC_REASONS)
    eta, d_coef, dp_coef, C = _oscillator_coefs(dim, lab.m, lab.mp)
    c = _phase_cross(d, lab.cross)
    return QOscillator(
        dim=dim, m=tuple(lab.m[0].tolist()), mp=tuple(lab.mp[0].tolist()),
        cross=int(lab.cross[0]), q=_phase(d, 2 * c)[0], eta=float(eta[0]), d_coef=d_coef[0],
        dp_coef=dp_coef[0], shift_constant=C[0], c_q=_phase(d, c * (d - 1)).conj()[0],
        n_values=_n_values(d, c)[0],
        spectrum=(C[:, None] + bracket_values(dim, c[:, None], np.arange(d)))[0])


def oscillator_sweep(dim: Dimension, m, mp) -> SweepReport:
    """Worst residual of each oscillator identity over every pair (m[i], mp[i]), in blocks.

    number: A^dag A = C + [N];   q_exponential: Q equals -eta S_{-m} S_{m'};
    ladder: A N = (N+1 mod D) A;  raised_number: A A^dag = C + [N+1];
    shift_constant: C = 1/|sin(gamma0 c)|.
    Each is taken on the S_{m-m'} eigenbasis with the pair's own eta, d, d', C
    (_oscillator_coefs).  literal_phase and exponent_claim are recorded, never
    gated: the componentwise phases g = conj(f) = E of the ladder elements and
    the exponent of the S_{m-m'} eigenvalues, claims that hold only up to a
    rephasing of the eigenvectors.  spectrum_min is min f(n), and
    opposite_min the number residual with eta and d' negated, which must be
    large.  m and mp are integer label arrays (P, 2).  A pair is skipped
    exactly where build_q_oscillator refuses it: |sin(gamma0 c)| < 1e-12, a
    degenerate S_{m-m'} eigensystem, or c not invertible mod D; skips counts
    these three reasons in that order, the builder's.
    """
    return _sweep(dim, m, mp, _OSC_REASONS, lambda dim, m, mp, V: _oscillator_rows(
        dim, m, mp, V, *_oscillator_coefs(dim, m, mp)))


def oscillator_coefficients(dim: Dimension, m, mp):
    """d, d' and the number offset, 0, of A = d S_m + d' S_m' per pair (P, 2)."""
    _, d_coef, dp_coef, _ = _oscillator_coefs(dim, m, mp)
    return d_coef, dp_coef, np.zeros_like(d_coef)


def _sl2_coefs(dim: Dimension, m, mp):
    """d = d' = 1/(2 |sin(gamma0 c / 2)|) and the J3 offset delta per pair.

    The branch phi0 = +1 or -1 of S_{m-m'} = s_p p^{J3} (see _branch_sign) is a
    parity of the labels; the -1 branch shifts the J3 window by delta = D/(2c).
    """
    d = dim.d
    c = _phase_cross(d, lattice_cross(m.T, mp.T))
    d_coef = 1.0 / (2.0 * np.abs(_sin_turns(c, d)))
    return d_coef, np.where(_branch_sign(d, c, m - mp) < 0, d / (2.0 * c), 0.0)


def _sl2_rows(dim: Dimension, m, mp, V, d_coef, delta) -> dict:
    """Per-pair residuals of the deformed sl(2) identities (see sl2_sweep).

    On V, with a_r = d (g_r + f_r): A v_r = a_r v_{r-c}, S_w v_r = mu_r v_r
    (_sw_values), and J3 = n + delta and both Casimir orderings are diagonal.
    Each phase and bracket argument is pi k / D or pi k / 2D with
    k = 2c (J3 + D/2) +- c, reduced before the sine.
    """
    d = dim.d
    c = _phase_cross(d, lattice_cross(m.T, mp.T))
    cc, nv = c[:, None], _n_values(d, c)
    k = _j3_turns(c, nv, delta) + cc * d
    s = _sin_turns(cc, d)
    g, f, op = _shift_weights(d, m, mp, V)
    a2 = np.abs(d_coef[:, None] * (g + f)) ** 2
    mu = _sw_values(d, c, g, f)
    p = _phase(d, 2 * cc)
    # C1 = A^dag A + [(J3 + D/2 - 1/2)/2]^2 and C2 = A A^dag + [(J3 + D/2 + 1/2)/2]^2
    c1 = a2 + (_sin_turns(k - cc, 2 * d) / s) ** 2
    c2 = _rolled(a2, c) + (_sin_turns(k + cc, 2 * d) / s) ** 2
    const = 1.0 / _scalar_pow(_sin_turns(c, d), 2)
    return _worst(op, {
        "exponential": mu - _phase(d, k),
        "intertwine": mu - p * _rolled(mu, -c),
        "intertwine_dag": _rolled(mu, -c) - np.conj(p) * mu,
        "commutator": _rolled(a2, c) - a2 + _sin_turns(k, d) / s,
        # J3 v_{r-c} + v_{r-c} = (n_{r-c} + 1 mod D + delta) v_{r-c}: delta cancels
        "ladder": nv - (_rolled(nv, -c) + 1) % d,
        "casimir_forms": c1 - c2,
        "casimir_value": c1 - const[:, None],
        # C1 takes one value along the ladder r -> r - c, so it commutes with A
        # and A^dag; the commutator's entries a_r (c1_{r-c} - c1_r) would put
        # the floor at eps |A| |C| ~ eps D^3 instead of eps |C|
        "casimir_central": c1 - _rolled(c1, -c),
    })


def sl2_sweep(dim: Dimension, m, mp) -> SweepReport:
    """Worst residual of each deformed sl(2) identity over every pair (m[i], mp[i]), in blocks.

    exponential: S_w = s_p p^{J3}
    intertwine:  A S_w = p S_w A   (and the conjugate with pbar)
    commutator:  [A, A^dag] = -[J3 + D/2]
    ladder:      A J3 = (J3 + 1) A with the wrap staying inside the J3 window
    casimir:     both orderings C1 = A^dag A + [(J3 + D/2 - 1/2)/2]^2 and C2
                 (A A^dag, + 1/2) agree, equal 1/sin^2(gamma0 c / 2) and
                 commute with A
    Each is taken on the S_{m-m'} eigenbasis with the pair's own d and delta
    (_sl2_coefs).  m and mp are integer label arrays (P, 2).  A pair is skipped
    exactly where coproduct_check refuses it: a degenerate S_{m-m'}
    eigensystem, or c not invertible mod D; skips counts these two reasons in
    that order.
    """
    return _sweep(dim, m, mp, _SL2_REASONS, lambda dim, m, mp, V: _sl2_rows(
        dim, m, mp, V, *_sl2_coefs(dim, m, mp)))


def sl2_coefficients(dim: Dimension, m, mp):
    """d = d' and the J3 offset delta of A = d (S_m + S_m') per pair (P, 2)."""
    d_coef, delta = _sl2_coefs(dim, m, mp)
    return d_coef, d_coef, delta


def _j3_turns(c, nv, delta) -> np.ndarray:
    """2 c J3 = 2 c (n + delta) per pair (P, D), an exact integer: 2 c delta is 0 or D."""
    return 2 * c[:, None] * nv + np.rint(2 * c[:, None] * delta[:, None]).astype(np.int64)


def _sigma_values(d: int, c, nv, delta) -> np.ndarray:
    """sigma^{J3} = (-1)^{n c} e^{-i gamma0 c J3 / 2} per pair (P, D), for the two-copy coupling.

    Without the alternating sign the coupled copies fail to close at odd c.
    """
    return _phase(2 * d, _j3_turns(c, nv, delta) + 2 * d * c[:, None] * nv)


@dataclass(frozen=True)
class CoproductReport:
    dim: Dimension
    cross: int
    delta: float
    closure: float
    intertwine: float
    intertwine_dag: float


def coproduct_check(dim: Dimension, m, mp) -> CoproductReport:
    """Two-copy coupling of the deformed sl(2) realization, checked on V (x) V in O(D^2).

    Delta(A) = A (x) sigma^H + sigma^{-H} (x) A and Delta(A^dag), the same with
    A^dag (not the adjoint of Delta(A)), close on [Delta A, Delta A^dag] =
    -[H + D/2], H = J3 (x) 1 + 1 (x) J3, and intertwine with K_w = s_p p^H.
    On |r, s> = v_r (x) v_s, A v_r = a_r v_{r-c}, A^dag v_r = conj(a_{r+c}) v_{r+c},
    and sigma^H, H and K_w are diagonal: each identity is a D x D coefficient
    array per entry it reaches from |r, s>, taken in blocks of rows r, and
    takes the part (a) residual.
    """
    d = dim.d
    lab = _built_labels(dim, [m], [mp], _SL2_REASONS)
    d_coef, delta = _sl2_coefs(dim, lab.m, lab.mp)
    c = _phase_cross(d, lab.cross)
    nv = _n_values(d, c)
    g, f, op = _shift_weights(d, lab.m, lab.mp, lab.system(int(lab.keys[0]))[1][None])
    a = (d_coef[:, None] * (g + f))[0]
    # sigma^J3, and t = 2 c J3: the bracket and K_w are phases of it
    sig, t = _sigma_values(d, c, nv, delta)[0], _j3_turns(c, nv, delta)[0]
    c, s = int(c[0]), _sin_turns(c[0], d)
    up, down = (np.arange(d) + c) % d, (np.arange(d) - c) % d     # r + c, r - c
    b = np.conj(a[up])
    u = np.abs(b) ** 2 - np.abs(a) ** 2                         # [A, A^dag] on v_r
    p, sq = _phase(d, 2 * c), sig ** 2
    worst = dict.fromkeys(("closure", "intertwine", "intertwine_dag"), float(op[0]))
    step = max(1, _BLOCK_ENTRIES // d)
    for lo in range(0, d, step):
        r = slice(lo, lo + step)                                # rows r of |r, s>, columns s

        def kw(x, y):
            return _phase(d, x[r, None] + y + c * d)

        K, ar, br, sr = kw(t, t), a[r, None], b[r, None], sig[r, None].conj()
        closure = [u[r, None] * sq + sq[r, None].conj() * u + _sin_turns(t[r, None] + t + c * d, d) / s,
                   br * a * (sig[up][r, None].conj() * sig - sr * sig[down]),
                   ar * b * (sr * sig[up] - sig[down][r, None].conj() * sig)]
        if 2 * c % d == 0:      # D = 2: |r + c, s - c> and |r - c, s + c> are one entry
            closure[1:] = [closure[1] + closure[2]]
        terms = {
            "closure": closure,
            "intertwine": [ar * sig * (K - p * kw(t[down], t)), sr * a * (K - p * kw(t, t[down]))],
            "intertwine_dag": [br * sig * (K - np.conj(p) * kw(t[up], t)),
                               sr * b * (K - np.conj(p) * kw(t, t[up]))],
        }
        for k, v in terms.items():
            worst[k] = max(worst[k], *(float(np.abs(x).max()) for x in v))
    return CoproductReport(dim=dim, cross=int(lab.cross[0]), delta=float(delta[0]), **worst)


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
    on the torus basis.  The residual max|A S_w - p' S_w A| is taken on the
    four monomial products, O(D).
    """
    d = dim.d
    c = int(_pair_labels(dim, m, mp)[2][0])
    w = (m[0] - mp[0], m[1] - mp[1])
    da = lattice_cross(r, w)
    # the translated pair has area c - da; the sl(2) refusals, collinearity
    # among them, raise here
    lab = _built_labels(dim, [(m[0] + r[0], m[1] + r[1])], [(mp[0] + r[0], mp[1] + r[1])],
                        _SL2_REASONS)
    d_coef = _sl2_coefs(dim, lab.m, lab.mp)[0][0]
    p_new = _phase(d, 2 * (c - da))
    sw = displacement_columns(d, *w)
    terms = []
    for rows, vals in (displacement_columns(d, *x) for x in (lab.m[0], lab.mp[0])):
        a = rows, d_coef * vals
        terms += [_times(a, sw), _times((sw[0], -p_new * sw[1]), a)]
    return TranslationReport(dim=dim, m=tuple(m), mp=tuple(mp), r=tuple(r),
                             delta_alpha=da, p_new=p_new, residual=float(_norm(*terms)))
