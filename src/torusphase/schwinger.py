"""Projective unitary operator basis on the discrete torus.

S_m = e^{-i gamma0 m1 m2 / 2} U^{m1} V^{m2} for integer labels m = (m1, m2).
The half-phase uses the exact integer product m1*m2 (never reduced mod D) --
the sign of S_m^D depends on it.  The family satisfies

    S_m^dag = S_{-m}
    S_m S_n = e^{i gamma0 m x n / 2} S_{m+n}
    Tr S_m  = +/- D at m = 0 mod D, else 0
    S_m^D   = (-1)^{D m1 m2} I

and is closed under Fourier conjugation F S_m F^-1 = S_{(-m2, m1)}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import matrix_power

from .errors import DegenerateSpectrumError
from .lattice import (
    Dimension,
    _checked_labels,
    _half_phase,
    _phase,
    _quarter_turn,
    _sin_turns,
    build_clock_operator,
    build_shift_operator,
    canonical_vector,
    lattice_cross,
    max_abs,
    window_vectors,
)


def displacement_columns(d: int, m1, m2):
    """S_m one entry per column: S_m[rows[..., j], j] = vals[..., j], zero elsewhere.

    m1, m2 are integer labels or label arrays (unreduced allowed).  The entry
    e^{-i pi m1 m2 / D} e^{-i gamma0 m2 j} sits at row (j + m1) mod D; its
    phase exponent is an exact integer mod 2D.
    """
    m1 = np.asarray(m1, dtype=np.int64)[..., None]
    m2 = np.asarray(m2, dtype=np.int64)[..., None]
    j = np.arange(d)
    return (j + m1) % d, _phase(d, (m1 % (2 * d)) * (m2 % (2 * d)) + 2 * ((m2 * j) % d))


def schwinger_stack(d: int, labels) -> np.ndarray:
    """Dense S_m per label row (P, D, D), with the entries of schwinger_matrix."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    rows, vals = displacement_columns(d, labels[:, 0], labels[:, 1])
    S = np.zeros((len(labels), d, d), dtype=complex)
    S[np.arange(len(labels))[:, None], rows, np.arange(d)] = vals
    return S


# complex entries of one (labels, D, D) stack in the blocked label checks.  A
# check holds several such stacks at once: at 2^12 a verify call peaks at the
# resident memory of the label-by-label loops, at 2^16 it peaked 1-4 MB higher
_BLOCK_ENTRIES = 1 << 12


def label_blocks(count: int, d: int) -> list[slice]:
    """Slices of at most _BLOCK_ENTRIES // D^2 (at least one) covering range(count)."""
    step = max(1, _BLOCK_ENTRIES // d ** 2)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def schwinger_matrix(dim: Dimension, m) -> np.ndarray:
    """Dense matrix of S_m for arbitrary integer labels (read-only)."""
    S = schwinger_stack(dim.d, [m])[0]
    S.flags.writeable = False
    return S


def reduce_label(dim: Dimension, m) -> tuple[tuple[int, int], int]:
    """Canonical-window representative of m and the sign relating the operators.

    S_m = sign * S_mc where mc is the window representative; the sign is
    (-1)^(a*mc2 + b*mc1 + a*b*D) for m = mc + (a*D, b*D).
    """
    mc = canonical_vector(dim, m)
    a = (m[0] - mc[0]) // dim.d
    b = (m[1] - mc[1]) // dim.d
    sign = (-1) ** ((a * mc[1] + b * mc[0] + a * b * dim.d) % 2)
    return mc, int(sign)


@dataclass(frozen=True)
class SchwingerEigensystem:
    """Eigensystem of S_m for the canonical representative m.

    eigenvalues[r] = e^{i pi m1 m2} e^{-2 pi i r / D}; eigenvectors[:, r] is the
    matching unit vector, every component in closed form e^{i pi E / D}/sqrt(D)
    with an exact integer E (see _eigensystem).  In this gauge the
    component at k = 0 (for a diagonal S_m, the only nonzero one) is real
    positive.
    """

    dim: Dimension
    m: tuple[int, int]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _has_closed_form(d: int, m1, m2):
    """Per label (arrays allowed): the labels _eigensystem builds, the rest it refuses.

    m1 is a unit mod D, or m1 = 0 mod D and m2 is: the orbit covers Z_D.
    """
    m1 = np.asarray(m1)
    return np.gcd(np.where(m1 % d == 0, m2, m1), d) == 1


def _eigensystem(d: int, m1: int, m2: int):
    if not _has_closed_form(d, m1, m2):
        raise DegenerateSpectrumError(
            f"label ({m1},{m2}) has a degenerate spectrum at D={d}" if m1 % d == 0
            else f"orbit of label ({m1},{m2}) does not cover Z_{d}")
    lam = (1 - 2 * (m1 * m2 % 2)) * _phase(d, 2 * np.arange(d))
    vecs = np.zeros((d, d), dtype=complex)
    if m1 % d == 0:
        # diagonal element: eigenvector r is the coordinate vector k with
        # r = k m2 mod D (the half-phase vanishes since m1 = 0 here)
        for k in range(d):
            vecs[k, (k * m2) % d] = 1.0
    else:
        # S_m v = lam[r] v steps the component at k_j = -j m1 mod D to k_{j+1}
        # by lam[r] e^{i pi m2 (2 k_j - m1) / D}, so the component at k_j is
        # e^{i pi E / D} / sqrt(D) with the exact integer
        # E = m2 sum_{i<j} (2 k_i - m1) + D m1 m2 j - 2 j r  (mod 2D)
        j = np.arange(d, dtype=np.int64)
        k = (-j * m1) % d
        walk = np.concatenate(([0], np.cumsum(2 * k[:-1] - m1) % (2 * d)))
        e = ((m2 % (2 * d)) * walk + d * ((m1 * m2 * j) % 2)) % (2 * d)
        vecs[k] = _phase(d, e[:, None] - 2 * np.outer(j, j)).conj() / math.sqrt(d)
    lam.flags.writeable = False
    vecs.flags.writeable = False
    return lam, vecs


def eigensystem_by_recursion(dim: Dimension, m) -> SchwingerEigensystem:
    """Closed-form eigensystem of S_m (the name is historical; nothing recurses).

    The label is reduced to the canonical window first; the eigenvalues refer
    to the reduced representative (an overall sign relates it to the original
    operator, see reduce_label).
    """
    mc = canonical_vector(dim, m)
    if mc == (0, 0):
        raise ValueError("the zero label is the identity; no cyclic eigensystem")
    lam, vecs = _eigensystem(dim.d, mc[0], mc[1])
    return SchwingerEigensystem(
        dim=dim,
        m=mc,
        eigenvalues=lam,
        eigenvectors=vecs,
    )


def _dense_match_stack(d: int, labels, lam, vecs):
    """Eigenvalue and eigenvector residuals (P,) of np.linalg.eig on dense S_labels.

    Each closed-form eigenvalue lam[p, r] is matched to its nearest dense
    eigenvalue, and the dense eigenvector is aligned to vecs[p, :, r] by a
    global phase before differencing.  Nearest eigenvalues that are no
    permutation leave a dense eigenvalue unmatched: both residuals of that
    label then read at least 1.
    """
    vals, dense = np.linalg.eig(schwinger_stack(d, labels))
    dist = np.abs(vals[:, :, None] - lam[:, None, :])
    k = dist.argmin(axis=1)
    lam_res = np.take_along_axis(dist, k[:, None, :], axis=1)[:, 0].max(axis=1)
    w = np.take_along_axis(dense, k[:, None, :], axis=2)
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    ov = np.einsum("pkr,pkr->pr", vecs.conj(), w)
    phase = np.ones_like(ov)
    nonzero = ov != 0
    phase[nonzero] = ov[nonzero].conj() / np.abs(ov[nonzero])
    vec_res = np.abs(w * phase[:, None, :] - vecs).max(axis=(1, 2))
    floor = np.where((np.sort(k, axis=1) != np.arange(d)).any(axis=1), 1.0, 0.0)
    return np.maximum(lam_res, floor), np.maximum(vec_res, floor)


def dense_eigensystem_residuals(dim: Dimension, labels):
    """_dense_match_stack of the closed-form eigensystem per label row: two arrays (P,), in blocks."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    lam_res, vec_res = np.empty(len(labels)), np.empty(len(labels))
    for blk in label_blocks(len(labels), dim.d):
        systems = [eigensystem_by_recursion(dim, m) for m in labels[blk].tolist()]
        lam_res[blk], vec_res[blk] = _dense_match_stack(
            dim.d, [sys.m for sys in systems], np.stack([sys.eigenvalues for sys in systems]),
            np.stack([sys.eigenvectors for sys in systems]))
    return lam_res, vec_res


def sine_commutator_check(dim: Dimension, m, n) -> float:
    """Residual of the sine-algebra commutator for D_m = S_m / gamma0."""
    g0 = dim.gamma0
    Dm = schwinger_matrix(dim, m) / g0
    Dn = schwinger_matrix(dim, n) / g0
    Dsum = schwinger_matrix(dim, (m[0] + n[0], m[1] + n[1])) / g0
    sin = _sin_turns(lattice_cross(m, n), dim.d)      # sin(gamma0 m x n / 2)
    return max_abs(Dm @ Dn - Dn @ Dm - 1j * (2.0 / g0) * sin * Dsum)


def weyl_matrices(dim: Dimension):
    """Clock/shift pair (g, h): g = diag(1, w, ..., w^{D-1}) = conj(V), h = U^T.

    h g = w g h with w = e^{i gamma0}; both have order D.
    """
    return build_clock_operator(dim).conj(), build_shift_operator(dim).T


def weyl_j_matrix(dim: Dimension, m) -> np.ndarray:
    """J_m = w^{m1 m2 / 2} g^{m1} h^{m2} with the exact integer half-exponent."""
    g, h = weyl_matrices(dim)
    ph = _half_phase(dim.d, m[0], m[1]).conj()
    return ph * (matrix_power(g, m[0] % dim.d) @ matrix_power(h, m[1] % dim.d))


def weyl_commutator_check(dim: Dimension, m, n) -> dict:
    """Structure constants of the Weyl-pair family J_m.

    J_m coincides with S_{(-m2,-m1)} elementwise, so the family satisfies the
    sine algebra with the label mirror applied; the measured commutator is
    [J_m, J_n] = -2i sin(gamma0 m x n / 2) J_{m+n}.  Residuals for both sign
    conventions are returned.
    """
    Jm = weyl_j_matrix(dim, m)
    Jn = weyl_j_matrix(dim, n)
    Jsum = weyl_j_matrix(dim, (m[0] + n[0], m[1] + n[1]))
    mirror = max(
        max_abs(Jm - schwinger_matrix(dim, (-m[1], -m[0]))),
        max_abs(Jn - schwinger_matrix(dim, (-n[1], -n[0]))),
    )
    comm = Jm @ Jn - Jn @ Jm
    s = _sin_turns(lattice_cross(m, n), dim.d)
    return {
        "mirror": mirror,
        "minus_form": max_abs(comm + 2j * s * Jsum),
        "plus_form": max_abs(comm - 2j * s * Jsum),
    }


def fourier_covariance_residuals(dim: Dimension, labels) -> np.ndarray:
    """Residual of F S_m F^-1 = S_{(-m2, m1)} per label row (P,), F applied by FFT, in label blocks."""
    d = dim.d
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    out = np.empty(len(labels))
    for blk in label_blocks(len(labels), d):
        m = labels[blk]
        turned = schwinger_stack(d, np.stack([-m[:, 1], m[:, 0]], axis=1))
        out[blk] = np.abs(_quarter_turn(schwinger_stack(d, m)) - turned).max(axis=(1, 2))
    return out


def schwinger_basis_rank(dim: Dimension) -> int:
    """Rank of the Hilbert-Schmidt Gram matrix of the window family {S_m}.

    S_m has its entries at rows (j + m1) mod D, so labels of different m1 mod D
    are orthogonal and the Gram is block diagonal by m1: the rank is the sum,
    over m1, of the rank of the D x D entry values of its labels, O(D^4).
    """
    d = dim.d
    labels = np.array(window_vectors(dim), dtype=np.int64)
    key = labels[:, 0] % d
    return sum(int(np.linalg.matrix_rank(displacement_columns(d, m[:, 0], m[:, 1])[1]))
               for m in (labels[key == k] for k in np.unique(key)))


def _worst(res: dict, key: str, values) -> None:
    res[key] = max(res[key], float(np.max(values, initial=0.0)))


def conjugate_pair_suite(dim: Dimension, X: np.ndarray, Z: np.ndarray,
                         rng=None, n_random: int = 200) -> dict:
    """Full algebra suite for a candidate conjugate pair (X, Z).

    Checks the Weyl commutation X Z = e^{i gamma0} Z X, order-D cyclicity, and
    the adjoint / power / trace identities over the checked window labels and
    composition over random window and integer labels of the S family built
    from the pair's powers X^a and Z^b, a, b in [0, D), in label blocks.
    Returns the worst residual per check.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    d = dim.d
    res = {
        "weyl_commutation": max_abs(X @ Z - dim.omega * Z @ X),
        "cyclic_X": max_abs(matrix_power(X, d) - np.eye(d)),
        "cyclic_Z": max_abs(matrix_power(Z, d) - np.eye(d)),
        "adjoint": 0.0,
        "composition": 0.0,
        "power_sign": 0.0,
        "trace": 0.0,
    }
    Xp, Zp = powers = np.empty((2, d, d, d), dtype=np.result_type(X, Z))
    for P, Y in zip(powers, (X, Z)):
        for a in range(d):
            P[a] = matrix_power(Y, a)

    def S(m):
        return _half_phase(d, m[:, 0], m[:, 1])[:, None, None] * (Xp[m[:, 0] % d] @ Zp[m[:, 1] % d])

    labels = np.array(window_vectors(dim), dtype=np.int64)
    i, j = rng.integers(0, len(labels), n_random), rng.integers(0, len(labels), n_random)
    # one draw per label, as the label-by-label loop made them
    extra = np.array([[rng.integers(-2 * d, 2 * d, 2), rng.integers(-2 * d, 2 * d, 2)]
                      for _ in range(n_random // 4)], dtype=np.int64).reshape(-1, 2, 2)
    a, b = np.concatenate([labels[i], extra[:, 0]]), np.concatenate([labels[j], extra[:, 1]])
    checked = _checked_labels(dim)
    for blk in label_blocks(len(checked), d):
        m = checked[blk]
        Sm = S(m)
        expected = np.where((m % d == 0).all(axis=1), d, 0.0)
        _worst(res, "trace", np.abs(np.abs(np.trace(Sm, axis1=1, axis2=2)) - expected))
        _worst(res, "adjoint", np.abs(Sm.conj().swapaxes(1, 2) - S(-m)).max(axis=(1, 2)))
        sign = 1 - 2 * ((d * m[:, 0] * m[:, 1]) % 2)
        _worst(res, "power_sign",
               np.abs(matrix_power(Sm, d) - sign[:, None, None] * np.eye(d)).max(axis=(1, 2)))
    for blk in label_blocks(len(a), d):
        ph = _phase(d, lattice_cross(a[blk].T, b[blk].T)).conj()     # e^{i gamma0 a x b / 2}
        err = S(a[blk]) @ S(b[blk]) - ph[:, None, None] * S(a[blk] + b[blk])
        _worst(res, "composition", np.abs(err).max(axis=(1, 2)))
    return res


def standard_pair_suite(dim: Dimension, rng=None, n_random: int = 200) -> dict:
    """conjugate_pair_suite applied to the fundamental (U, V) pair."""
    return conjugate_pair_suite(
        dim, build_shift_operator(dim), build_clock_operator(dim), rng, n_random
    )
