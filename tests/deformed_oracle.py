"""Dense operators of the deformed algebras, rebuilt from a builder's output.

build_q_oscillator and build_uq_sl2 return coefficients, the closed-form
eigensystem of S_w (w = m - m') and the spectrum; the package checks every
identity on those in O(D^2) per pair.  The D x D operators below are the
oracles of those checks:

    A = d S_m + d' S_m'          (oscillator; d' = d for sl(2))
    N = V diag(n) V^dag,  Q = c_q V diag(q^{-n}) V^dag,  S_w at the exact label.

A dense A of any realisation is `lowering(o)`, one line.
"""
import numpy as np

from torusphase.deformed import QOscillator
from torusphase.lattice import _phase, _phase_cross
from torusphase.schwinger import schwinger_stack

# the oscillator rows recorded, never gated: min f(n), and two componentwise
# phase claims that hold only up to a rephasing of the eigenvectors (O(1) values)
RECORDED = ("spectrum_min", "literal_phase", "exponent_claim")


def dag(A):
    return A.conj().swapaxes(-1, -2)


def lowering(o) -> np.ndarray:
    """A = d S_m + d' S_m' of a QOscillator, A = d (S_m + S_m') of a UqSl2Realisation."""
    S = schwinger_stack(o.dim.d, [o.m, o.mp])
    return o.d_coef * S[0] + getattr(o, "dp_coef", o.d_coef) * S[1]


def raising(o) -> np.ndarray:
    return dag(lowering(o))


def number_op(osc: QOscillator) -> np.ndarray:
    """N = V diag(n(r)) V^dag."""
    V = osc.eigenvectors
    return (V * osc.n_values) @ dag(V)


def q_exponential(osc: QOscillator) -> np.ndarray:
    """Q = c_q q^{-N} = c_q V diag(e^{i gamma0 c n(r)}) V^dag."""
    V, d = osc.eigenvectors, osc.dim.d
    return osc.c_q * ((V * _phase(d, 2 * _phase_cross(d, osc.cross) * osc.n_values).conj())
                      @ dag(V))


def intertwiner(o) -> np.ndarray:
    """S_{m-m'} at the exact (unreduced) label."""
    return schwinger_stack(o.dim.d, [np.subtract(o.m, o.mp)])[0]


def dense_fields(o) -> dict:
    """The dense operators of a realisation, by the field names they once had."""
    if isinstance(o, QOscillator):
        return {"lowering": lowering(o), "number_op": number_op(o),
                "q_exponential": q_exponential(o)}
    return {"lowering": lowering(o), "intertwiner": intertwiner(o)}
