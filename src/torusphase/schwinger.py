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

from .errors import DegenerateSpectrumError
from .lattice import (
    Dimension,
    Sampler,
    _checked_labels,
    _clock_entries,
    _half_phase,
    _phase,
    _quarter_turn,
    _reduce,
    _sin_turns,
    canonical_vector,
    canonical_window,
    lattice_cross,
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
    return (j + m1) % d, _phase(d, _column_exponent(d, m1, m2, j))


def _column_exponent(d: int, m1, m2, j):
    """The exponent t < 6 D^2 of S_m's entry e^{-i pi t / D} in column j in [0, D)."""
    return (m1 % (2 * d)) * (m2 % (2 * d)) + 2 * (m2 % d) * j


def schwinger_stack(d: int, labels) -> np.ndarray:
    """Dense S_m per label row (P, D, D), with the entries of schwinger_matrix."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    rows, vals = displacement_columns(d, labels[:, 0], labels[:, 1])
    out = np.zeros((len(labels), d, d), dtype=complex)
    out[np.arange(len(labels))[:, None], rows, np.arange(d)] = vals
    return out


# A monomial operator, one nonzero entry per column, is held as (rows, vals)
# with A[rows[..., j], j] = vals[..., j]; leading axes stack operators.  Its
# products, adjoint, trace and comparisons cost O(D) per operator.

def _times(a, b):
    """A B: column j is column rows_B[j] of A times vals_B[j]; one B may multiply a stack of A."""
    (ra, va), (rb, vb) = a, b
    if rb.ndim == 1:        # one gather of columns shared by every A
        return ra[..., rb], va[..., rb] * vb
    return np.take_along_axis(ra, rb, -1), np.take_along_axis(va, rb, -1) * vb


def _power(a, n):
    """A^n by squaring, n >= 0 an int or one per operator: O(D log n) per operator."""
    n = np.asarray(n)
    shape = np.broadcast_shapes(a[0].shape, n.shape + (1,))
    result = np.broadcast_to(np.arange(shape[-1]), shape).copy(), np.ones(shape, dtype=complex)
    while n.any():
        n, bit = np.divmod(n, 2)
        # multiply where the bit is set (everywhere: no gather); one operator squares once
        sel = ... if bit.all() else np.broadcast_to(bit == 1, shape[:-1])
        b = a if a[0].ndim == 1 else tuple(np.broadcast_to(x, shape)[sel] for x in a)
        result[0][sel], result[1][sel] = _times(tuple(r[sel] for r in result), b)
        a = _times(a, a) if n.any() else a
    return result


def _adjoint(a):
    """A^dag, for rows that permute the columns."""
    (rows, vals), cols = a, np.empty_like(a[0])
    np.put_along_axis(cols, rows, np.broadcast_to(np.arange(rows.shape[-1]), rows.shape), -1)
    return cols, np.take_along_axis(vals.conj(), cols, -1)


def _norm(*terms) -> np.ndarray:
    """Max-norm per operator of the dense sum of the terms: entries add where rows agree."""
    rows = np.stack(np.broadcast_arrays(*(r for r, _ in terms)))
    vals = np.stack(np.broadcast_arrays(*(v for _, v in terms)))
    return np.abs(np.where(rows[:, None] == rows, vals, 0).sum(axis=1)).max(axis=(0, -1))


def _minus(a):
    return a[0], -a[1]


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


def _orbit_exponents(d: int, m1, m2):
    """Orbit k and exponents E (P, D) of labels (P, 1) with m1 a unit mod D.

    Eigenvector r of S_m has the component e^{i pi (E_j - 2 j r) / D} / sqrt(D)
    at k_j = -j m1 mod D: S_m v = lam[r] v steps the component at k_j to
    k_{j+1} by lam[r] e^{i pi m2 (2 k_j - m1) / D}, so E is the exact integer
    E_j = m2 sum_{i<j} (2 k_i - m1) + D m1 m2 j  (mod 2D).
    """
    j = np.arange(d, dtype=np.int64)
    k = (-j * m1) % d
    # the walk stays below 3 D^2: its product with m2 mod 2D is exact in int64
    walk = np.concatenate((0 * m1, np.cumsum(2 * k[:, :-1] - m1, axis=1)), axis=1)
    return k, ((m2 % (2 * d)) * walk + d * ((m1 * m2) % 2) * (j % 2)) % (2 * d)


def _eigensystem(d: int, m1, m2):
    """Eigenvalues (..., D) and eigenvectors (..., D, D) of S_m per canonical label of m1, m2."""
    m1, m2 = np.broadcast_arrays(np.asarray(m1, dtype=np.int64), np.asarray(m2, dtype=np.int64))
    if not (ok := _has_closed_form(d, m1, m2)).all():
        m1, m2 = int(m1[~ok][0]), int(m2[~ok][0])
        raise DegenerateSpectrumError(
            f"label ({m1},{m2}) has a degenerate spectrum at D={d}" if m1 % d == 0
            else f"orbit of label ({m1},{m2}) does not cover Z_{d}")
    shape, m1, m2 = m1.shape, m1.reshape(-1, 1), m2.reshape(-1, 1)
    lam = (1 - 2 * (m1 * m2 % 2)) * _phase(d, 2 * np.arange(d))
    vecs = np.zeros((len(m1), d, d), dtype=complex)
    j, off = np.arange(d, dtype=np.int64), m1[:, 0] % d != 0
    # diagonal element: eigenvector r is the coordinate vector k with
    # r = k m2 mod D (the half-phase vanishes since m1 = 0 here)
    vecs[np.flatnonzero(~off)[:, None], j, j * m2[~off] % d] = 1.0
    p = np.flatnonzero(off)[:, None]
    k, e = _orbit_exponents(d, m1[off], m2[off])
    # rows k_j gathered from a conj-scaled table a block of j at a time:
    # no D x D temporary beside vecs
    table = _phase(d, np.arange(2 * d)).conj() / math.sqrt(d)
    step = max(1, _BLOCK_ENTRIES // max(1, d * len(m1)))
    for lo in range(0, d if len(m1) else 0, step):      # none for diagonal labels alone
        i = j[lo:lo + step, None]
        vecs[p, k[:, lo:lo + step]] = table[(e[:, lo:lo + step, None] - 2 * i * j) % (2 * d)]
    lam, vecs = lam.reshape(*shape, d), vecs.reshape(*shape, d, d)
    lam.flags.writeable = False
    vecs.flags.writeable = False
    return lam, vecs


def eigensystem_by_recursion(dim: Dimension, m) -> SchwingerEigensystem:
    """Closed-form eigensystem of S_m (the name is historical; nothing recurses).

    The label is reduced to the canonical window first; the eigenvalues refer
    to the reduced representative (an overall sign relates it to the original
    operator: S_m = sign S_mc, the sign from lattice._reduce).
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


def eigensystem_residuals(dim: Dimension, labels):
    """Closed-form eigensystem residuals per label row: two arrays (P,), O(D^2) per label.

    With S_m applied by displacement_columns, the first is the worst over r of
    |S_m v_r - lam_r v_r| + ||v_r| - 1|: S_m is normal, so each lam_r lies
    that close to its spectrum (Bauer-Fike).  The second divides it by the
    least gap between the closed-form eigenvalues, which bounds the angle from
    v_r to the eigenvector of lam_r (Davis-Kahan); a zero gap reads 1.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    lam_res, vec_res = np.empty(len(labels)), np.empty(len(labels))
    for blk in label_blocks(len(labels), dim.d):
        m1, m2, _ = _reduce(dim.d, labels[blk, 0], labels[blk, 1])
        lam, v = _eigensystem(dim.d, m1, m2)
        rows, vals = displacement_columns(dim.d, m1, m2)
        Sv = np.empty_like(v)
        Sv[np.arange(len(v))[:, None], rows] = vals[..., None] * v
        err = np.linalg.norm(Sv - v * lam[:, None], axis=1)
        lam_res[blk] = (err + np.abs(np.linalg.norm(v, axis=1) - 1)).max(axis=1)
        # nearest on the unit circle: adjacent in angle
        ring = np.take_along_axis(lam, np.argsort(np.angle(lam), axis=1), 1)
        gap = np.abs(ring - np.roll(ring, 1, axis=1)).min(axis=1)
        vec_res[blk] = np.divide(lam_res[blk], gap, out=np.ones_like(gap), where=gap > 0)
    return lam_res, vec_res


def sine_commutator_check(dim: Dimension, m, n) -> np.ndarray:
    """Residual of the sine-algebra commutator for D_m = S_m / gamma0, on monomials, per
    pair of labels m, n of shape (..., 2) (0-d for one pair)."""
    g0 = dim.gamma0
    m, n = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in (m, n)))
    (rm, vm), (rn, vn), (rs, vs) = (displacement_columns(dim.d, x[..., 0], x[..., 1])
                                    for x in (m, n, m + n))
    Dm, Dn = (rm, vm / g0), (rn, vn / g0)
    sin = _sin_turns(lattice_cross(m.T, n.T).T, dim.d)[..., None]      # sin(gamma0 m x n / 2)
    return _norm(_times(Dm, Dn), _minus(_times(Dn, Dm)),
                 (rs, -(1j * (2.0 / g0) * sin * (vs / g0))))


def _weyl_pair(dim: Dimension):
    """Clock/shift pair (g, h) as monomials: g = diag(1, w, ..., w^{D-1}) = conj(V), h = U^T.

    h g = w g h with w = e^{i gamma0}; both have order D.
    """
    j = np.arange(dim.d)
    return (j, _clock_entries(dim).conj()), ((j - 1) % dim.d, np.ones(dim.d, dtype=complex))


def _weyl_j(dim: Dimension, m):
    """J_m as a monomial per label of m (..., 2), from the entries of the monomial pair (g, h)."""
    d, (g, h), m = dim.d, _weyl_pair(dim), np.asarray(m, dtype=np.int64)
    rows, vals = _times(_power(g, m[..., 0] % d), _power(h, m[..., 1] % d))
    return rows, _half_phase(d, m[..., 0], m[..., 1]).conj()[..., None] * vals


def weyl_commutator_check(dim: Dimension, m, n) -> dict:
    """Structure constants of the Weyl-pair family J_m, on monomials.

    J_m coincides with S_{(-m2,-m1)} elementwise, so the family satisfies the
    sine algebra with the label mirror applied; the measured commutator is
    [J_m, J_n] = -2i sin(gamma0 m x n / 2) J_{m+n}.  Residuals for both sign
    conventions are returned, per pair of labels m, n of shape (..., 2) (0-d for one pair).
    """
    d = dim.d
    m, n = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in (m, n)))
    Jm, Jn, Jsum = zip(*_weyl_j(dim, np.stack([m, n, m + n])))
    mirror = np.maximum(*(_norm(J, _minus(displacement_columns(d, -x[..., 1], -x[..., 0])))
                          for J, x in ((Jm, m), (Jn, n))))
    comm = (_times(Jm, Jn), _minus(_times(Jn, Jm)))
    s = _sin_turns(lattice_cross(m.T, n.T).T, d)[..., None]
    return {
        "mirror": mirror,
        "minus_form": _norm(*comm, (Jsum[0], 2j * s * Jsum[1])),
        "plus_form": _norm(*comm, (Jsum[0], -(2j * s * Jsum[1]))),
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


def gram_residuals(dim: Dimension, labels) -> np.ndarray:
    """Worst |Tr(S_m^dag S_n)/D - delta_mn| per window label row (P,), O(D^2) per label.

    S_m has its entries at rows (j + m1) mod D, so the Gram is block diagonal
    by m1; n runs over the window labels of the block and over the other rows
    in it (a repeated label reads 1), one D x D block of entries at a time.
    Over all D^2 window labels this is the whole Gram, of rank D^2 below 1/D.
    """
    d, w = dim.d, canonical_window(dim)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    out = np.empty(len(labels))
    for m1 in set(labels[:, 0].tolist()):      # np.unique would load numpy.ma
        rows = np.flatnonzero(labels[:, 0] == m1)
        own = labels[rows, 1] - w[0]                 # each row's place in the block
        vals = displacement_columns(d, m1, w)[1]     # S_(m1, n2), n2 over the window
        hs = vals[own].conj() @ vals.T / d           # Tr(S_m^dag S_n) / D
        out[rows] = np.maximum(np.abs(hs - (own[:, None] == np.arange(d))).max(axis=1),
                               np.abs(hs[:, own] - np.eye(len(rows))).max(axis=1))
    return out


def _worst(res: dict, key: str, values) -> None:
    res[key] = max(res[key], float(np.max(values, initial=0.0)))


def _pair_suite(dim: Dimension, x, z, rng, n_random: int) -> dict:
    """Worst residual per check of a conjugate pair given by its entries, monomials (rows, vals).

    Weyl commutation X Z = e^{i gamma0} Z X and order-D cyclicity; adjoint, power
    and trace over the checked window labels and composition over random labels
    of the S family from the powers X^a, Z^b; O(D) per label, O(D log D) for S_m^D.
    """
    if rng is None:
        rng = Sampler(0)
    d = dim.d
    eye = np.arange(d)
    res = {
        "weyl_commutation": float(_norm(_times(x, z), _minus(_times((z[0], dim.omega * z[1]), x)))),
        "cyclic_X": float(_norm(_power(x, d), (eye, -1.0))),
        "cyclic_Z": float(_norm(_power(z, d), (eye, -1.0))),
    } | dict.fromkeys(("adjoint", "composition", "power_sign", "trace"), 0.0)
    step = max(1, _BLOCK_ENTRIES // d)      # labels or table rows per block of (., D) arrays
    # X^a and Z^b, a in [0, D), as D x D (row, phase) arrays.  Squaring multiplies by
    # X^(2^h), h the top bit of a, last: row a is row a - 2^h times X^(2^h)
    powers = [(np.empty((d, d), dtype=np.intp), np.empty((d, d), dtype=complex)) for _ in range(2)]
    for (rows, vals), y in zip(powers, (x, z)):
        rows[0], vals[0], h = eye, 1.0, 1
        while h < d:
            for lo in range(h, min(2 * h, d), step):
                a = np.arange(lo, min(lo + step, 2 * h, d))
                rows[a], vals[a] = _times((rows[a - h], vals[a - h]), y)
            y, h = _times(y, y), 2 * h
    (xr, xv), (zr, zv) = powers

    def S(m):
        a, b = m[:, 0] % d, m[:, 1] % d
        rows, vals = _times((xr[a], xv[a]), (zr[b], zv[b]))
        return rows, _half_phase(d, m[:, 0], m[:, 1])[:, None] * vals

    # pairs (a, b) of window labels by flat index: k is (w[k // D], w[k % D]), m1 outer
    k = np.stack([rng.integers(0, d * d, n_random), rng.integers(0, d * d, n_random)], axis=1)
    # one draw per label, as the label-by-label loop made them
    extra = np.array([[rng.integers(-2 * d, 2 * d, 2), rng.integers(-2 * d, 2 * d, 2)]
                      for _ in range(n_random // 4)], dtype=np.int64).reshape(-1, 2, 2)
    ab = np.concatenate([canonical_window(dim)[np.stack(np.divmod(k, d), axis=-1)], extra])
    a, b = ab[:, 0], ab[:, 1]
    checked = _checked_labels(dim)
    for lo in range(0, len(checked), step):
        m = checked[lo:lo + step]
        rows, vals = Sm = S(m)
        sign = 1 - 2 * ((d * m[:, 0] * m[:, 1]) % 2)
        _worst(res, "adjoint", _norm(_adjoint(Sm), _minus(S(-m))))
        _worst(res, "power_sign", _norm(_power(Sm, d), (eye, -sign[:, None])))
        _worst(res, "trace", np.abs(np.abs(np.where(rows == eye, vals, 0).sum(axis=1))
                                    - np.where((m % d == 0).all(axis=1), d, 0.0)))
    for lo in range(0, len(a), step):
        p, q = a[lo:lo + step], b[lo:lo + step]
        ph = _phase(d, lattice_cross(p.T, q.T)).conj()     # e^{i gamma0 a x b / 2}
        rows, vals = S(p + q)
        _worst(res, "composition", _norm(_times(S(p), S(q)), (rows, -(ph[:, None] * vals))))
    return res


def standard_pair_suite(dim: Dimension, rng=None, n_random: int = 200) -> dict:
    """_pair_suite on the fundamental pair (U, V) = (h^dag, conj(g)), from its entries."""
    g, h = _weyl_pair(dim)
    return _pair_suite(dim, _adjoint(h), (g[0], g[1].conj()), rng, n_random)
