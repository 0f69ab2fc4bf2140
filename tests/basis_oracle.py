"""Dense forms of the Schwinger-basis and number-phase kernel rows, the oracles of their tests.

The package checks these rows on its own label paths: Fourier covariance by
the FFT quarter turn, the basis rank per block of equal m1, and the
action-angle kernel as one torus displacement sum.  The forms here build the
dense operators those paths avoid: F S_m F^dag by matmul (O(D^3) per label),
the D^2 x D^2 Hilbert-Schmidt Gram matrix (O(D^6)), and the kernel summed
over S^np_m taken from the powers of the number-phase pair (O(D^5)).  They
serve small D only.
"""
import numpy as np
from numpy.linalg import matrix_power

from torusphase import build_fourier_operator, build_phase_pair, window_vectors
from torusphase.lattice import _half_phase
from torusphase.schwinger import schwinger_stack


def pair_schwinger(dim, X, Z, m) -> np.ndarray:
    """S_m built from an arbitrary conjugate pair with X Z = e^{i gamma0} Z X."""
    ph = _half_phase(dim.d, m[0], m[1])
    return ph * (matrix_power(X, m[0] % dim.d) @ matrix_power(Z, m[1] % dim.d))


def fourier_covariance(dim, labels) -> np.ndarray:
    """max |F S_m F^dag - S_(-m2, m1)| per label row, F the dense Fourier operator."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    F = build_fourier_operator(dim)
    turned = schwinger_stack(dim.d, np.stack([-labels[:, 1], labels[:, 0]], axis=1))
    return np.abs(F @ schwinger_stack(dim.d, labels) @ F.conj().T - turned).max(axis=(1, 2))


def gram_rank(dim, labels=None) -> int:
    """Rank of the D^2 x D^2 Hilbert-Schmidt Gram matrix of S_m over labels (default: the window)."""
    labels = window_vectors(dim) if labels is None else labels
    vecs = schwinger_stack(dim.d, labels).reshape(len(labels), -1)
    return int(np.linalg.matrix_rank(vecs.conj() @ vecs.T, hermitian=True))


def action_angle_kernel(dim, J, theta) -> np.ndarray:
    """(1/2piD) sum_m e^{i(gamma0 m1 J - m2 theta)} S^np_m over window labels, each
    S^np_m a batched matmul of the powers E_N^a and E_phi^b of the number-phase pair."""
    d = dim.d
    pair = build_phase_pair(dim)
    Np, Pp = (np.stack([matrix_power(Y, a) for a in range(d)]) for Y in (pair.e_n, pair.e_phi))
    m = np.array(window_vectors(dim), dtype=np.int64)
    S = _half_phase(d, m[:, 0], m[:, 1])[:, None, None] * (Np[m[:, 0] % d] @ Pp[m[:, 1] % d])
    coef = np.exp(1j * (dim.gamma0 * m[:, 0] * J - m[:, 1] * theta))
    return np.einsum("p,pij->ij", coef, S) / (2.0 * np.pi * d)
