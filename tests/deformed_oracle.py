"""Dense operators of the deformed algebras, rebuilt from the package's coefficients.

build_q_oscillator returns coefficients, the quantum numbers and the
spectrum, and V is the closed-form eigensystem of S_w (w = m - m'); the sl(2)
pair has no builder, only its sweep.
The package checks every identity on those in O(D^2) per pair.  The D x D
operators below are the oracles of those checks:

    A = d S_m + d' S_m'          (oscillator; d' = d for sl(2))
    N = V diag(n) V^dag,  Q = c_q V diag(q^{-n}) V^dag,  S_w at the exact label.

A dense A of an oscillator is `lowering(osc)`, one line; an sl(2) realization
(sl2_stack, sl2_realisation) carries its dense A and S_w.
"""
from typing import NamedTuple

import numpy as np

from torusphase import deformed
from torusphase.deformed import QOscillator, _branch_sign, _inverse_mod
from torusphase.lattice import Dimension, _phase, _phase_cross, lattice_cross
from torusphase.schwinger import eigensystem_by_recursion, schwinger_stack

# the oscillator keys that are no residual of an identity: min f(n), the number
# row with eta and d' negated (which must be large), and two componentwise phase
# claims that hold only up to a rephasing of the eigenvectors (O(1) values)
RECORDED = ("spectrum_min", "opposite_min", "literal_phase", "exponent_claim")


def dag(A):
    return A.conj().swapaxes(-1, -2)


def lowering(osc: QOscillator) -> np.ndarray:
    """A = d S_m + d' S_m'."""
    S = schwinger_stack(osc.dim.d, [osc.m, osc.mp])
    return osc.d_coef * S[0] + osc.dp_coef * S[1]


def eigenvectors(osc: QOscillator) -> np.ndarray:
    """V: the eigenvectors of S_{m-m'} (canonical label), column r."""
    return eigensystem_by_recursion(osc.dim, np.subtract(osc.m, osc.mp)).eigenvectors


def number_op(osc: QOscillator) -> np.ndarray:
    """N = V diag(n(r)) V^dag."""
    V = eigenvectors(osc)
    return (V * osc.n_values) @ dag(V)


def q_exponential(osc: QOscillator) -> np.ndarray:
    """Q = c_q q^{-N} = c_q V diag(e^{i gamma0 c n(r)}) V^dag."""
    V, d = eigenvectors(osc), osc.dim.d
    return osc.c_q * ((V * _phase(d, 2 * _phase_cross(d, osc.cross) * osc.n_values).conj())
                      @ dag(V))


def dense_fields(osc: QOscillator) -> dict:
    """The dense operators of an oscillator and V, by the field names they once had."""
    return {"lowering": lowering(osc), "number_op": number_op(osc),
            "q_exponential": q_exponential(osc), "eigenvectors": eigenvectors(osc)}


def sl2_bracket(dim: Dimension, c, x) -> np.ndarray:
    """Deformed bracket [x] = sin(gamma0 c x) / sin(pi c / D), c reduced into [-D, D)."""
    return np.sin(dim.gamma0 * c * x) / np.sin(np.pi * c / dim.d)


class Sl2Stack(NamedTuple):
    """P deformed sl(2) realizations, each field with a leading pair axis."""

    dim: Dimension
    m: np.ndarray
    mp: np.ndarray
    cross: np.ndarray             # exact m x m'
    p: np.ndarray
    s_p: np.ndarray               # p^{D/2}
    d_coef: np.ndarray            # d = d', real positive
    lowering: np.ndarray          # A = d (S_m + S_m')
    intertwiner: np.ndarray       # S_{m-m'} at the exact label
    eigenvectors: np.ndarray      # of S_{m-m'} (canonical label), column r
    n_values: np.ndarray
    delta: np.ndarray             # J3 window offset: 0 or D/(2c), c reduced into [-D, D)
    j3_values: np.ndarray         # n + delta


def sl2_stack(dim: Dimension, m, mp, V=None) -> Sl2Stack:
    """Deformed sl(2) realizations on buildable pairs, with S_{m-m'} eigenvectors V.

    V defaults to the package's eigenvectors; a pair the sweep skips raises, as
    in coproduct_check.  J3 is read off from S_w = s_p p^{J3}: the branch
    phi0 = <v_0|S_w|v_0>/s_p (see _branch_sign) is +1 (delta = 0) or -1
    (delta = D/(2c)).
    """
    if V is None:
        lab = deformed._built_labels(dim, m, mp, deformed._SL2_REASONS)
        m, mp, V = lab.m, lab.mp, next(lab.eigenvector_blocks([np.arange(len(lab.m))]))
    d = dim.d
    cross = lattice_cross(m.T, mp.T)
    c = _phase_cross(d, cross)
    d_coef = 1.0 / (2.0 * np.abs(np.sin(np.pi * c / d)))
    A = d_coef[:, None, None] * (schwinger_stack(d, m) + schwinger_stack(d, mp))
    delta = np.where(_branch_sign(d, c, m - mp) < 0, d / (2.0 * c), 0.0)
    nv = (_inverse_mod(d, c)[:, None] * np.arange(d)) % d
    return Sl2Stack(dim, m, mp, cross, np.exp(-1j * dim.gamma0 * c), np.exp(-1j * np.pi * c),
                    d_coef, A, schwinger_stack(d, m - mp), V, nv, delta, nv + delta[:, None])


def sl2_realisation(dim: Dimension, m, mp) -> Sl2Stack:
    """The sl(2) realization of one pair (m, m'): sl2_stack's fields without the pair axis."""
    st = sl2_stack(dim, [m], [mp])
    return st._replace(**{k: v[0] for k, v in st._asdict().items() if k != "dim"})
