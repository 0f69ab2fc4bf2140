"""Discrete canonical transformations: symplectic label maps and their unitaries.

An integer matrix R acting on lattice labels mod D is symplectic when it
preserves the cross product (equivalently det R = 1 mod D).  Each such map is
realized by a unitary G with G S_m G^{-1} = phi(m) S_{R m}, built in closed
form as the twirl G ~ sum_m phi(m) S_{R m}|0><0|S_m^dag over m in Z_D^2.
Column 0 of S_m is one entry, at row m1, so each term adds to one entry of
G and the build is O(D^2).  The phases follow from the generator phases
phi(1,0) = (-1)^{s1 s2} and phi(0,1) through the composition law.  For odd D,
phi(0,1) = (-1)^{t1 t2} is the aligned gauge: the mixed-phase basis
T_m = (-1)^{m1 m2} S_m (m in [0, D)^2) is conjugated exactly,
T_m -> T_{R m mod D}, which is what gives scalar-only group closure.  At D = 2, phi(0,1) = 1 keeps
the columnwise gauge, which covaries but does not close.  Covariance is
checked as G S_m = phi S_{R m} G entrywise, O(D^2) per label: G S_m and
S_{R m} G are phased shifts of G, taken for a block of labels per array
pass, without dense S_m.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError, NonSymplecticMapError
from .lattice import Dimension, _checked_labels, _phase, build_fourier_operator, max_abs, window_vectors

# entries of one (labels, D, D) block of G S_m in the covariance sweep: 2^14
# (4 labels at D = 61) ran fastest of 2^12..2^16 at D = 31 and 61 (2^15 and
# 2^16 gained ~10% at D = 101), and bounds the sweep's memory beyond G; it also
# bounds the labels of one chunk of metaplectic_stack's sum over all maps
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class SymplecticMap:
    """Integer matrix [[s1, t1], [s2, t2]] mod D, columns s = R(1,0), t = R(0,1)."""

    dim: Dimension
    s: tuple[int, int]
    t: tuple[int, int]

    @classmethod
    def from_rows(cls, dim: Dimension, rows) -> "SymplecticMap":
        (a, b), (c, e) = rows
        d = dim.d
        return cls(dim, (int(a) % d, int(c) % d), (int(b) % d, int(e) % d))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.s[0], self.t[0]], [self.s[1], self.t[1]]], dtype=int)

    @property
    def determinant(self) -> int:
        return (self.s[0] * self.t[1] - self.s[1] * self.t[0]) % self.dim.d

    def apply(self, m) -> tuple[int, int]:
        """R m mod D, for a label or a pair of label-component arrays."""
        d = self.dim.d
        return ((m[0] * self.s[0] + m[1] * self.t[0]) % d,
                (m[0] * self.s[1] + m[1] * self.t[1]) % d)

    def __matmul__(self, other: "SymplecticMap") -> "SymplecticMap":
        d = self.dim.d
        M = (self.matrix @ other.matrix) % d
        return SymplecticMap.from_rows(self.dim, M.tolist())


def verify_symplectic(smap: SymplecticMap) -> bool:
    """True iff det R = 1 mod D.

    For a 2x2 integer R, R^T P R = det(R) P exactly (P the unit cross form),
    so R preserves the cross product of every label pair mod D iff this holds.
    """
    return smap.determinant == 1 % smap.dim.d


def random_symplectic(dim: Dimension, rng=None, seed=None) -> SymplecticMap:
    """Uniformly random map with first column nonzero, completed to det 1 mod D."""
    if rng is None:
        rng = np.random.default_rng(seed)
    d = dim.d
    while True:
        s1, s2 = int(rng.integers(0, d)), int(rng.integers(0, d))
        if (s1, s2) != (0, 0):
            break
    x = int(rng.integers(0, d))
    if s1 % d:
        t1, t2 = x, ((1 + s2 * x) * pow(s1, -1, d)) % d
    else:
        t1, t2 = (-pow(s2, -1, d)) % d, x
    return SymplecticMap(dim, (s1, s2), (t1, t2))


@dataclass(frozen=True)
class MetaplecticOperator:
    dim: Dimension
    map: SymplecticMap
    matrix: np.ndarray
    gauge: str                   # "aligned" (odd D) or "columnwise" (D = 2)
    unitary_residual: float


def metaplectic_stack(dim: Dimension, s, t) -> np.ndarray:
    """G per map, stacked (P, D, D): the closed form of build_metaplectic.

    s and t are (P, 2) integer arrays, the columns R(1,0) and R(0,1) of each
    map.  Sigma = sum over m in [0, D)^2 of phi(m) S_r|0><0|S_m^dag,
    r = R m mod D, equals D conj(G_00) G because sum_m S_m X S_m^dag =
    D Tr(X) I; so G = Sigma / sqrt(D Sigma_00), which also fixes the global
    phase by G_00 > 0 (the identity map gives I exactly).  With s, t reduced
    mod D and k = (det R - 1)/D the integer lift of the determinant,
    phi(m) = a^{m1} b^{m2} (-1)^{k m1 m2} sigma, where a = (-1)^{s1 s2},
    b = (-1)^{t1 t2} at odd D (aligned gauge) or 1 at D = 2 (columnwise
    gauge), and sigma is the reduce_label sign of S_{R m} against S_r.  All
    phase exponents are exact integers mod 2D.  Prime D only.
    """
    d = dim.d
    s = np.asarray(s, dtype=np.int64).reshape(-1, 2) % d
    t = np.asarray(t, dtype=np.int64).reshape(-1, 2) % d
    s1, s2, t1, t2 = (x[:, None] for x in (s[:, 0], s[:, 1], t[:, 0], t[:, 1]))
    det = s1 * t2 - s2 * t1
    if np.any(det % d != 1 % d):
        raise NonSymplecticMapError(f"a map has det != 1 mod {d}; it is not symplectic")
    if not dim.prime:
        raise DegenerateSpectrumError(
            f"D={d} is composite; metaplectic unitaries are built for prime D only"
        )
    k = (det - 1) // d
    G = np.zeros((len(s), d, d), dtype=complex)
    # a chunk of labels at a time, each term added to entry (r1, m1) of its map's G in m order
    step = max(1, _BLOCK_ENTRIES // len(s))
    for lo in range(0, d * d, step):
        m1, m2 = np.divmod(np.arange(lo, min(lo + step, d * d), dtype=np.int64), d)
        q1, r1 = np.divmod(s1 * m1 + t1 * m2, d)
        q2, r2 = np.divmod(s2 * m1 + t2 * m2, d)
        # phi(m) = (-1)^parity: a^{m1} b^{m2}, the lift k, then the sign of S_{Rm} = +/- S_r
        parity = (s1 * s2 * m1 + (d % 2) * t1 * t2 * m2 + k * m1 * m2
                  + q1 * r2 + q2 * r1 + q1 * q2 * d)
        e = m1 * m2 - r1 * r2 + d * parity
        np.add.at(G, (np.arange(len(s))[:, None], r1, m1), _phase(d, e).conj())
    G /= np.sqrt(d * G[:, 0, 0])[:, None, None]
    return G


def build_metaplectic(dim: Dimension, smap: SymplecticMap) -> MetaplecticOperator:
    """Unitary G with G S_m G^{-1} = phi(m) S_{R m} for every m, in closed form.

    The stack of one of metaplectic_stack, after the symplectic check.
    """
    if not verify_symplectic(smap):
        raise NonSymplecticMapError(
            f"det = {smap.determinant} mod {dim.d}; map {smap.matrix.tolist()} is not symplectic"
        )
    G = metaplectic_stack(dim, [smap.s], [smap.t])[0]
    ures = max_abs(G @ G.conj().T - np.eye(dim.d))
    return MetaplecticOperator(dim=dim, map=smap, matrix=G,
                               gauge="aligned" if dim.d % 2 else "columnwise",
                               unitary_residual=ures)


def _sweep(G, smap: SymplecticMap, labels, phase=None) -> tuple[np.ndarray, np.ndarray]:
    """Phase z and residual max|G S_m - z S_r G| per label row m, r = R m mod D, R = smap.

    G S_m is G with its columns shifted by m1 and phased, S_r G is G with its
    rows shifted by r1 and phased: both are taken from G a block of labels at
    a time, with phases from exact integer exponents mod 2D as in
    displacement_columns.  z is the exact phase given per label, or else the
    normalized overlap Tr(S_r^dag G S_m G^dag) / D; an overlap below 1e-12 is
    lost and reads residual 1.0.
    """
    d = smap.dim.d
    m = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    r1, r2 = smap.apply((m[:, 0], m[:, 1]))
    j = np.arange(d)
    # exponents of vm_j = S_m[j + m1, j] and of ur_i = S_r[i, i - r1], 2 r2 i - r1 r2
    z = np.empty(len(m), dtype=complex) if phase is None else np.asarray(phase, dtype=complex)
    resid = np.empty(len(m))
    step = max(1, _BLOCK_ENTRIES // d**2)
    # one set of block buffers for the whole sweep: a fresh array per block
    # would be mapped and faulted in anew once it passes malloc's mmap threshold
    n = min(step, len(m))
    cols, rows = np.empty((d, n, d), dtype=complex), np.empty((n, d, d), dtype=complex)
    squares = np.empty((n, d, d))
    for lo in range(0, len(m), step):
        b = slice(lo, lo + step)
        k = len(z[b])
        gs, sg, sq = cols[:, :k], rows[:k], squares[:k]
        vm = _phase(d, m[b, :1] % (2 * d) * (m[b, 1:] % (2 * d)) + 2 * (m[b, 1:] % d * j % d))
        ur = _phase(d, 2 * (r2[b, None] * j % d) - r1[b, None] * r2[b, None])
        np.take(G, j + m[b, :1] % d, axis=1, out=gs, mode="wrap")  # G[i, j + m1] at [i, l, j]
        np.take(G, j - r1[b, None], axis=0, out=sg, mode="wrap")   # G[i - r1, j] at [l, i, j]
        gs *= vm
        gs = gs.transpose(1, 0, 2)
        if phase is None:
            zb = np.vecdot(ur, np.vecdot(sg, gs)) / d
            z[b] = zb / np.where(np.abs(zb) < 1e-12, 1.0, np.abs(zb))
        sg *= (z[b, None] * ur)[:, :, None]
        np.subtract(gs, sg, out=sg)
        f = sg.view(float)
        np.square(f, out=f)
        np.add(f[..., 0::2], f[..., 1::2], out=sq)
        resid[b] = sq.reshape(k, -1).max(axis=1)
    return z, np.where(np.abs(z) < 1e-12, 1.0, np.sqrt(resid))


class CovarianceReport(NamedTuple):
    """Per-label conjugation diagnostics of covariance_report."""

    labels: np.ndarray       # (P, 2) labels m
    phase: np.ndarray        # (P,) measured phase z per label
    residual: np.ndarray     # (P,) max|G S_m - z S_r G| per label
    worst: float             # largest residual, 0 for no labels


def covariance_report(op: MetaplecticOperator, labels=None) -> CovarianceReport:
    """Per-label conjugation diagnostics, O(D^2) per label.

    For each m, with r = R m mod D, the phase z is the measured overlap
    Tr(S_r^dag G S_m G^dag) / D normalized to unit modulus, and the residual
    is max|G S_m - z S_r G|.  Labels default to the canonical window.
    """
    m = np.asarray(window_vectors(op.dim) if labels is None else labels,
                   dtype=np.int64).reshape(-1, 2)
    phase, resid = _sweep(op.matrix, op.map, m)
    return CovarianceReport(m, phase, resid, float(resid.max(initial=0.0)))


def translation_covariance_residual(op: MetaplecticOperator) -> float:
    """Exactness of G S_m = (-1)^{r1 r2 - m1 m2} S_r G over residues m (odd D).

    r = R m mod D; the sign is predicted_phase on residues, i.e. the aligned
    gauge conjugates T_m = (-1)^{m1 m2} S_m to T_r exactly.  m runs over the
    residues of lattice._checked_labels: all up to D = 64, a seeded sample above.
    """
    m1, m2 = (_checked_labels(op.dim) % op.dim.d).T
    r1, r2 = op.map.apply((m1, m2))
    _, resid = _sweep(op.matrix, op.map, np.stack([m1, m2], axis=1),
                      1 - 2 * ((r1 * r2 - m1 * m2) % 2))
    return float(resid.max())


def predicted_phase(op: MetaplecticOperator, m) -> complex:
    """Closed-form conjugation phase chi(m) in the aligned gauge.

    With m' = m mod D and r = R m mod D:
    chi(m) = gamma0 (m1' m2' - m1 m2)/2 + pi (r1 r2 - m1' m2').
    """
    d = op.dim.d
    mp = (m[0] % d, m[1] % d)
    r = op.map.apply(m)
    return complex(_phase(d, m[0] * m[1] - mp[0] * mp[1] + d * (mp[0] * mp[1] - r[0] * r[1])))


def closure_check(op1: MetaplecticOperator, op2: MetaplecticOperator) -> tuple[complex, float]:
    """Group law G(R1) G(R2) = z G(R1 R2): returns (scalar z, residual).

    |z| = D before normalization iff the product is a scalar multiple; the
    residual is against the normalized scalar.
    """
    dim = op1.dim
    op12 = build_metaplectic(dim, op1.map @ op2.map)
    prod = op1.matrix @ op2.matrix
    z = np.trace(op12.matrix.conj().T @ prod)
    if abs(z) < 1e-12:
        return complex(z), 1.0
    return complex(z / abs(z)), max_abs(prod - (z / abs(z)) * op12.matrix)


def phase_flattening_report(phase) -> dict:
    """Whether any global phase makes G S_m G^{-1} = S_{R m} exactly, from measured phases.

    Conjugation is invariant under a global phase of G, so the measured phases
    of covariance_report ARE the report: flattenable iff every one is already 1.
    """
    dev = float(np.abs(phase - 1.0).max(initial=0.0))
    return {"max_phase_deviation": dev, "flattenable": dev < 1e-9}


def fourier_check(dim: Dimension) -> float:
    """Residual of G([[0,-1],[1,0]]) against the Fourier operator."""
    smap = SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))
    op = build_metaplectic(dim, smap)
    G = op.matrix
    F = build_fourier_operator(dim)
    z = np.trace(F.conj().T @ G) / dim.d
    if abs(z) < 1e-12:
        return 1.0
    return max_abs(G - (z / abs(z)) * F)
