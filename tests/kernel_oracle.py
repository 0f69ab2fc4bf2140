"""The (D, D, D, D) torus kernel grid, the dense oracle of the Wigner tests.

Every kernel Delta(V) = (1/D^2) sum_m e^{-i gamma0 m x V} S_m comes out of one
einsum over the dense S_m of the whole label window: O(D^6) time and O(D^4)
memory, so it serves small D only.  The package builds each kernel on its own
(wigner._kernels) and every grid from chi; the tests compare both with this.
"""
from functools import lru_cache

import numpy as np

from torusphase import make_dimension, window_vectors
from torusphase.schwinger import schwinger_stack


@lru_cache(maxsize=4)
def _kernel_grid(d: int) -> np.ndarray:
    dim = make_dimension(d)
    labels = window_vectors(dim)
    stack = schwinger_stack(d, labels)   # (n_m, d, d)
    m1 = np.array([m[0] for m in labels])
    m2 = np.array([m[1] for m in labels])
    a = np.arange(d)
    # phase[i, V1, V2] = exp(-i gamma0 (m1_i V2 - m2_i V1))
    phase = np.exp(-1j * dim.gamma0 * (m1[:, None, None] * a[None, None, :]
                                       - m2[:, None, None] * a[None, :, None]))
    K = np.einsum("mab,mij->abij", phase, stack) / d**2
    K.flags.writeable = False
    return K


def kernel_grid(dim) -> np.ndarray:
    """All D^2 kernels, indexed K[V1, V2, :, :] (read-only)."""
    return _kernel_grid(dim.d)
