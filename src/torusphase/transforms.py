"""Discrete canonical transformations: symplectic label maps and their unitaries.

An integer matrix R acting on lattice labels mod D is symplectic when it
preserves the cross product (equivalently det R = 1 mod D).  Each such map is
realized by a unitary G with G S_m G^{-1} = z(m) S_{R m mod D}, the sign
z(m) = +-1 one exact integer parity at every D and for unreduced labels
(_conjugation).  G is the closed-form twirl G ~ sum_m z(m) S_{R m}|0><0|S_m^dag:
column 0 of S_m is one entry, at row m1, so the build is O(D^2).  For odd D,
z(0,1) = (-1)^{t1 t2} is the aligned gauge: T_m = (-1)^{m1 m2} S_m
(m in [0, D)^2) is conjugated exactly, T_m -> T_{R m mod D}, which gives
scalar-only group closure.  At D = 2, z(0,1) = 1 keeps the columnwise gauge,
which covaries but does not close.  Covariance is checked as
G S_m = z(m) S_{R m} G entrywise, O(D^2) per label: G S_m and S_{R m} G are
phased shifts of G, taken a block of labels per array pass, without dense S_m.
On the generators (1, 0) and (0, 1) that fixes G on every label, so the aligned
gauge and the Wigner kernel's quarter turn are exact checks on z alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError, NonSymplecticMapError
from .lattice import (Dimension, Sampler, _checked_labels, _phase, _reduce, build_fourier_operator,
                      max_abs)

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
        """det R mod D; R is symplectic iff it is 1 mod D.

        For a 2x2 integer R, R^T P R = det(R) P exactly (P the unit cross form),
        so R preserves the cross product of every label pair mod D iff det R = 1.
        """
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


def random_symplectic(dim: Dimension, rng=None, seed=None) -> SymplecticMap:
    """Random map whose first column has a unit component (else redrawn), det 1 mod D.

    At prime D that is every nonzero column; at composite D a column such as
    (2, 3) at D = 6, unimodular with no unit component, never occurs."""
    if rng is None:
        rng = Sampler(seed)
    d = dim.d
    while True:
        s1, s2 = int(rng.integers(0, d)), int(rng.integers(0, d))
        if math.gcd(s1, d) == 1 or math.gcd(s2, d) == 1:
            break
    x = int(rng.integers(0, d))
    if math.gcd(s1, d) == 1:
        t1, t2 = x, ((1 + s2 * x) * pow(s1, -1, d)) % d
    else:
        t1, t2 = ((s1 * x - 1) * pow(s2, -1, d)) % d, x
    return SymplecticMap(dim, (s1, s2), (t1, t2))


@dataclass(frozen=True)
class MetaplecticOperator:
    dim: Dimension
    map: SymplecticMap
    matrix: np.ndarray
    gauge: str                   # "aligned" (odd D) or "columnwise" (D = 2)
    unitary_residual: float


def _conjugation(d: int, s, t, m):
    """r = R m mod D and the sign z(m) = +-1 of G S_m G^dag = z(m) S_r, one exact parity.

    R = [s | t] with s = (s1, s2), t = (t1, t2) reduced mod D; m = (m1, m2)
    any integer labels; entries broadcast.  With b the residue of m and r that
    of R b, z(m) multiplies the reduction signs of S_m against S_b and of S_{R b}
    against S_r (both lattice._reduce) by the generator phases z(1,0) =
    (-1)^{s1 s2} and z(0,1) = (-1)^{t1 t2} (odd D) or 1 (D = 2) composed with
    the lift k = (det R - 1)/D.  Exact in int64 for labels below 2^31.
    """
    (s1, s2), (t1, t2) = s, t
    b1, b2, sign_b = _reduce(d, m[0], m[1], window=False)
    k = (s1 * t2 - s2 * t1 - 1) // d
    r1, r2, sign_r = _reduce(d, s1 * b1 + t1 * b2, s2 * b1 + t2 * b2, window=False)
    parity = s1 * s2 * b1 + (d % 2) * t1 * t2 * b2 + k * b1 * b2
    return r1, r2, sign_b * sign_r * (1 - 2 * (parity % 2))


def metaplectic_stack(dim: Dimension, s, t) -> np.ndarray:
    """G per map, stacked (P, D, D): the closed form of build_metaplectic.

    s and t are (P, 2) integer arrays, the columns R(1,0) and R(0,1) of each
    map.  Sigma = sum over m in [0, D)^2 of z(m) S_r|0><0|S_m^dag,
    r = R m mod D and z(m) = +-1 from _conjugation, equals D conj(G_00) G
    because sum_m S_m X S_m^dag = D Tr(X) I; so G = Sigma / sqrt(D Sigma_00),
    which also fixes the global phase by G_00 > 0 (the identity map gives I
    exactly).  All phase exponents are exact integers mod 2D.  Prime D only.
    """
    d = dim.d
    s = np.asarray(s, dtype=np.int64).reshape(-1, 2) % d
    t = np.asarray(t, dtype=np.int64).reshape(-1, 2) % d
    det = (s[:, 0] * t[:, 1] - s[:, 1] * t[:, 0]) % d
    if np.any(det != 1 % d):
        i = int(np.argmax(det != 1 % d))
        raise NonSymplecticMapError(
            f"det = {det[i]} mod {d}; map {np.stack([s[i], t[i]], 1).tolist()} is not symplectic")
    s1, s2, t1, t2 = (x[:, None] for x in (s[:, 0], s[:, 1], t[:, 0], t[:, 1]))
    if not dim.prime:
        raise DegenerateSpectrumError(
            f"D={d} is composite; metaplectic unitaries are built for prime D only"
        )
    G = np.zeros((len(s), d, d), dtype=complex)
    # a chunk of labels at a time, each term added to entry (r1, m1) of its map's G in m order
    step = max(1, _BLOCK_ENTRIES // len(s))
    for lo in range(0, d * d, step):
        m1, m2 = np.divmod(np.arange(lo, min(lo + step, d * d), dtype=np.int64), d)
        r1, r2, z = _conjugation(d, (s1, s2), (t1, t2), (m1, m2))
        e = m1 * m2 - r1 * r2 + d * (z < 0)
        np.add.at(G, (np.arange(len(s))[:, None], r1, m1), _phase(d, e).conj())
    G /= np.sqrt(d * G[:, 0, 0])[:, None, None]
    return G


def build_metaplectic(dim: Dimension, smap: SymplecticMap) -> MetaplecticOperator:
    """Unitary G with G S_m G^{-1} = z(m) S_{R m} for every m, in closed form.

    The stack of one of metaplectic_stack, with its unitarity residual.
    """
    G = metaplectic_stack(dim, [smap.s], [smap.t])[0]
    ures = max_abs(G @ G.conj().T - np.eye(dim.d))
    return MetaplecticOperator(dim=dim, map=smap, matrix=G,
                               gauge="aligned" if dim.d % 2 else "columnwise",
                               unitary_residual=ures)


def _sweep(G, smap: SymplecticMap, labels, phase) -> np.ndarray:
    """Residual max|G S_m - z S_r G| per label row m, r = R m mod D, R = smap.

    z is the phase given per label.  G S_m is G with its columns shifted by
    m1 and phased, S_r G is G with its rows shifted by r1 and phased: both are
    taken from G a block of labels at a time, with phases from exact integer
    exponents mod 2D as in displacement_columns.
    """
    d = smap.dim.d
    m = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    r1, r2 = smap.apply((m[:, 0], m[:, 1]))
    z = np.asarray(phase, dtype=complex)
    j = np.arange(d)
    # exponents of vm_j = S_m[j + m1, j] and of ur_i = S_r[i, i - r1], 2 r2 i - r1 r2
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
        sg *= (z[b, None] * ur)[:, :, None]
        np.subtract(gs, sg, out=sg)
        f = sg.view(float)
        np.square(f, out=f)
        np.add(f[..., 0::2], f[..., 1::2], out=sq)
        resid[b] = sq.reshape(k, -1).max(axis=1)
    return np.sqrt(resid)


class CovarianceReport(NamedTuple):
    """Per-label conjugation diagnostics of covariance_report."""

    labels: np.ndarray       # (P, 2) labels m
    phase: np.ndarray        # (P,) conjugation sign z per label, +-1 as complex
    residual: np.ndarray     # (P,) max|G S_m - z S_r G| per label
    worst: float             # largest residual, 0 for no labels


def covariance_report(op: MetaplecticOperator, labels=None) -> CovarianceReport:
    """Per-label conjugation diagnostics, O(D^2) per label.

    For each m, with r = R m mod D, the phase z is the exact sign of
    _conjugation and the residual is max|G S_m - z S_r G|.  Labels default to
    lattice._checked_labels: every window label up to D = 64, a seeded sample
    above.
    """
    m = np.asarray(_checked_labels(op.dim) if labels is None else labels,
                   dtype=np.int64).reshape(-1, 2)
    phase = _conjugation(op.dim.d, op.map.s, op.map.t, m.T)[2].astype(complex)
    resid = _sweep(op.matrix, op.map, m, phase)
    return CovarianceReport(m, phase, resid, float(resid.max(initial=0.0)))


def aligned_gauge_residual(smap: SymplecticMap) -> float:
    """max|z(m) - (-1)^{r1 r2 - m1 m2}| over the checked residues m, r = R m mod D.

    0 iff T_m = (-1)^{m1 m2} S_m is conjugated to T_r exactly (odd D), else 2.
    """
    d = smap.dim.d
    m1, m2 = (_checked_labels(smap.dim) % d).T
    r1, r2, z = _conjugation(d, smap.s, smap.t, (m1, m2))
    return float(np.abs(z - (1 - 2 * ((r1 * r2 - m1 * m2) % 2))).max())


def kernel_turn_residual(dim: Dimension) -> float:
    """max|z(m) sigma(m) - 1| over the checked labels m: 0 iff F Delta(V) F^dag = Delta(-V2, V1).

    F S_m F^dag = z S_r (R = [[0, -1], [1, 0]], G(R) = F) and S_w = sigma S_r,
    w and r the window and residue forms of (-m2, m1).  As m x V = (R m) x (R V)
    and m -> w permutes the window, Delta(V)'s sum turns into Delta(R V)'s term
    by term iff every z sigma = 1; 2 at even D, whose window the turn leaves.
    """
    d = dim.d
    quarter = SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))
    m1, m2 = _checked_labels(dim).T
    z = _conjugation(d, quarter.s, quarter.t, (m1, m2))[2]
    w1, w2, _ = _reduce(d, -m2, m1)
    return float(np.abs(z * _reduce(d, w1, w2, window=False)[2] - 1).max())


def closure_check(op1: MetaplecticOperator, op2: MetaplecticOperator) -> tuple[complex, float]:
    """Group law G(R1) G(R2) = z G(R1 R2): returns (z, max|G1 G2 - z G12|).

    z = i^k, the fourth root of unity nearest the phase of (G1 G2)_00 (G_00 > 0
    fixes every G, so that entry is nonzero wherever the law holds): no phase
    is fitted; the Clifford phases are exact (Appleby, JMP 46, 052107, 2005).
    """
    r12 = op1.map @ op2.map
    G12 = metaplectic_stack(op1.dim, [r12.s], [r12.t])[0]
    prod = op1.matrix @ op2.matrix
    z = (1, 1j, -1, -1j)[round(np.angle(prod[0, 0]) / (np.pi / 2)) % 4]
    return complex(z), max_abs(prod - z * G12)


def phase_flattening_report(phase) -> dict:
    """Whether any global phase makes G S_m G^{-1} = S_{R m} exactly, from conjugation signs.

    Conjugation is invariant under a global phase of G, so the signs of
    covariance_report ARE the report: flattenable iff every one is already 1.
    """
    dev = float(np.abs(phase - 1.0).max(initial=0.0))
    return {"max_phase_deviation": dev, "flattenable": dev < 1e-9}


def fourier_check(dim: Dimension) -> float:
    """Residual of G([[0,-1],[1,0]]) against the Fourier operator, with no phase
    fitted: G_00 > 0 and F_00 = 1/sqrt(D) > 0 fix the relative phase to 1."""
    quarter = SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))
    return max_abs(metaplectic_stack(dim, [quarter.s], [quarter.t])[0]
                   - build_fourier_operator(dim))
