"""Kronecker form of the sl(2) two-copy coupling, the oracle of deformed.coproduct_check.

The package checks the coupling on the product eigenbasis V (x) V, where A is
a weighted shift and sigma^H, H and K_w are diagonal, in O(D^2).  The form
here builds Delta(A), Delta(A^dag) and K_w as D^2 x D^2 Kronecker products and
multiplies them, O(D^6): small D only.
"""
import numpy as np

from deformed_oracle import dag, sl2_bracket
from torusphase.deformed import _sigma_values
from torusphase.lattice import _phase, _phase_cross, max_abs


def signed_sigma(o) -> np.ndarray:
    """sigma^{J3} of a realization on its eigenvectors, as coproduct_check takes it."""
    c = _phase_cross(o.dim.d, np.array([o.cross]))
    return _sigma_values(o.dim.d, c, o.n_values[None], np.array([o.delta]))[0]


def unsigned_sigma(o) -> np.ndarray:
    """e^{-i gamma0 c J3 / 2} without the alternating sign (-1)^{n c}."""
    return np.exp(-0.5j * o.dim.gamma0 * _phase_cross(o.dim.d, o.cross) * o.j3_values)


def kron_coproduct(o, sigma) -> dict:
    """closure, intertwine and intertwine_dag of Delta(A) = A (x) sigma^H + sigma^{-H} (x) A.

    o is a deformed_oracle.sl2_realisation and sigma the values of sigma^{J3}
    on its eigenvectors; Delta(A^dag) = A^dag (x) sigma^H + sigma^{-H} (x) A^dag.
    """
    dim, V = o.dim, o.eigenvectors
    c = _phase_cross(dim.d, o.cross)
    Sg, Sgm = ((V * x) @ dag(V) for x in (sigma, np.conj(sigma)))
    A = o.lowering
    DX = np.kron(A, Sg) + np.kron(Sgm, A)
    DXd = np.kron(dag(A), Sg) + np.kron(Sgm, dag(A))
    W2 = np.kron(V, V)
    H = np.add.outer(o.j3_values, o.j3_values).ravel()

    def mf(vals):
        return (W2 * vals) @ dag(W2)

    Kw = _phase(dim.d, dim.d * c) * mf(np.exp(-1j * dim.gamma0 * c * H))
    return {
        "closure": max_abs(DX @ DXd - DXd @ DX + mf(sl2_bracket(dim, c, H + dim.d / 2.0))),
        "intertwine": max_abs(DX @ Kw - o.p * Kw @ DX),
        "intertwine_dag": max_abs(DXd @ Kw - np.conj(o.p) * Kw @ DXd),
    }
