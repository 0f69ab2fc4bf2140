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
checked as G S_m = phi S_{R m} G with S_m applied one entry per column,
O(D^2) per label, without dense S_m.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NonSymplecticMapError
from .lattice import (
    Dimension,
    build_fourier_operator,
    lattice_cross,
    max_abs,
    window_vectors,
)
from .schwinger import displacement_columns

# entries of one (labels, D, D) block of G S_m in the covariance checks: large
# enough to amortize numpy call overhead at small D, small enough to bound memory
_BLOCK_ENTRIES = 1 << 16


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

    def apply(self, m, reduce: bool = False) -> tuple[int, int]:
        r = (m[0] * self.s[0] + m[1] * self.t[0], m[0] * self.s[1] + m[1] * self.t[1])
        return (r[0] % self.dim.d, r[1] % self.dim.d) if reduce else r

    def __matmul__(self, other: "SymplecticMap") -> "SymplecticMap":
        d = self.dim.d
        M = (self.matrix @ other.matrix) % d
        return SymplecticMap.from_rows(self.dim, M.tolist())


def verify_symplectic(smap: SymplecticMap) -> bool:
    """True iff R^T P R = P mod D (P the unit cross form) and det R = 1 mod D."""
    d = smap.dim.d
    R = smap.matrix
    P = np.array([[0, 1], [-1, 0]])
    if np.any((R.T @ P @ R - P) % d != 0):
        return False
    if smap.determinant != 1 % d:
        return False
    # area preservation on a deterministic sample of label pairs
    sample = [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 2))]
    for m, mp in sample:
        before = lattice_cross(m, mp) % d
        after = lattice_cross(smap.apply(m), smap.apply(mp)) % d
        if before != after:
            return False
    return True


def equivalence_class_label(dim: Dimension, m, mp) -> int:
    """The symplectic-invariant class label m x m' mod D."""
    return lattice_cross(m, mp) % dim.d


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


def build_metaplectic(dim: Dimension, smap: SymplecticMap) -> MetaplecticOperator:
    """Unitary G with G S_m G^{-1} = phi(m) S_{R m} for every m, in closed form.

    Sigma = sum over m in [0, D)^2 of phi(m) S_r|0><0|S_m^dag, r = R m mod D,
    equals D conj(G_00) G because sum_m S_m X S_m^dag = D Tr(X) I; so
    G = Sigma / sqrt(D Sigma_00), which also fixes the global phase by
    G_00 > 0 (the identity map gives I exactly).  With s, t the reduced
    columns of R and k = (det R - 1)/D the integer lift of its determinant,
    phi(m) = a^{m1} b^{m2} (-1)^{k m1 m2} sigma, where a = (-1)^{s1 s2},
    b = (-1)^{t1 t2} at odd D (aligned gauge) or 1 at D = 2 (columnwise
    gauge), and sigma is the reduce_label sign of S_{R m} against S_r.  All
    phase exponents are exact integers mod 2D.  Prime D only.
    """
    if not verify_symplectic(smap):
        raise NonSymplecticMapError(
            f"det = {smap.determinant} mod {dim.d}; map {smap.matrix.tolist()} is not symplectic"
        )
    if not dim.prime:
        raise DegenerateSpectrumError(
            f"D={dim.d} is composite; metaplectic unitaries are built for prime D only"
        )
    d = dim.d
    (s1, s2), (t1, t2) = smap.s, smap.t
    k = (s1 * t2 - s2 * t1 - 1) // d
    m1, m2 = np.divmod(np.arange(d * d, dtype=np.int64), d)
    q1, r1 = np.divmod(s1 * m1 + t1 * m2, d)
    q2, r2 = np.divmod(s2 * m1 + t2 * m2, d)
    # phi(m) = (-1)^parity: a^{m1} b^{m2}, the lift k, then the sign of S_{Rm} = +/- S_r
    parity = (s1 * s2 * m1 + (d % 2) * t1 * t2 * m2 + k * m1 * m2
              + q1 * r2 + q2 * r1 + q1 * q2 * d)
    e = (m1 * m2 - r1 * r2 + d * (parity % 2)) % (2 * d)
    G = np.zeros((d, d), dtype=complex)
    np.add.at(G, (r1, m1), np.exp(1j * np.pi * e / d))
    G /= np.sqrt(d * G[0, 0])
    ures = max_abs(G @ G.conj().T - np.eye(d))
    return MetaplecticOperator(dim=dim, map=smap, matrix=G,
                               gauge="aligned" if d % 2 else "columnwise",
                               unitary_residual=ures)


def _intertwined(op: MetaplecticOperator, labels):
    """Yield (m, r, G S_m, S_r G) over blocks of labels m, with r = R m mod D.

    S_m is applied one entry per column, so a label costs O(D^2) and no
    dense S_m is built.
    """
    d, G = op.dim.d, op.matrix
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    step = max(1, _BLOCK_ENTRIES // d**2)
    for lo in range(0, len(labels), step):
        m = labels[lo:lo + step]
        r = np.stack(op.map.apply((m[:, 0], m[:, 1]), reduce=True), axis=1)
        rows, vals = displacement_columns(d, m[:, 0], m[:, 1])
        GS = np.moveaxis(G[:, rows], 0, 1) * vals[:, None, :]
        rows, vals = displacement_columns(d, r[:, 0], r[:, 1])
        SG = np.empty_like(GS)
        SG[np.arange(len(m))[:, None], rows] = vals[:, :, None] * G
        yield m, r, GS, SG


def covariance_report(op: MetaplecticOperator, labels=None) -> tuple[float, list]:
    """Per-label conjugation diagnostics, O(D^2) per label.

    For each m, with r = R m mod D, the phase z is the measured overlap
    Tr(S_r^dag G S_m G^dag) / D normalized to unit modulus, and the residual
    is max|G S_m - z S_r G|.  Labels default to the canonical window.
    Returns (worst residual, records) with records of the form
    {"m": (m1, m2), "phase": complex, "residual": float}.
    """
    d = op.dim.d
    records = []
    for m, _, GS, SG in _intertwined(op, window_vectors(op.dim) if labels is None else labels):
        z = np.einsum("lij,lij->l", SG.conj(), GS) / d
        lost = np.abs(z) < 1e-12
        phase = z / np.where(lost, 1.0, np.abs(z))
        resid = np.where(lost, 1.0, np.abs(GS - phase[:, None, None] * SG).max(axis=(1, 2)))
        records += [{"m": (int(a), int(b)), "phase": complex(p), "residual": float(x)}
                    for (a, b), p, x in zip(m, phase, resid)]
    return max((rec["residual"] for rec in records), default=0.0), records


def translation_covariance_residual(op: MetaplecticOperator) -> float:
    """Exactness of G S_m = (-1)^{r1 r2 - m1 m2} S_r G over residues m (odd D).

    r = R m mod D; the sign is predicted_phase on residues, i.e. the aligned
    gauge conjugates T_m = (-1)^{m1 m2} S_m to T_r exactly.
    """
    d = op.dim.d
    worst = 0.0
    for m, r, GS, SG in _intertwined(op, np.indices((d, d)).reshape(2, -1).T):
        sign = 1 - 2 * ((r[:, 0] * r[:, 1] - m[:, 0] * m[:, 1]) % 2)
        worst = max(worst, max_abs(GS - sign[:, None, None] * SG))
    return worst


def predicted_phase(op: MetaplecticOperator, m) -> complex:
    """Closed-form conjugation phase chi(m) in the aligned gauge.

    With m' = m mod D and r = R m mod D:
    chi(m) = gamma0 (m1' m2' - m1 m2)/2 + pi (r1 r2 - m1' m2').
    """
    dim = op.dim
    mp = (m[0] % dim.d, m[1] % dim.d)
    r = op.map.apply(m, reduce=True)
    chi = 0.5 * dim.gamma0 * (mp[0] * mp[1] - m[0] * m[1]) + np.pi * (r[0] * r[1] - mp[0] * mp[1])
    return complex(np.exp(1j * chi))


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


def phase_flattening_report(op: MetaplecticOperator) -> dict:
    """Whether any global phase makes G S_m G^{-1} = S_{R m} exactly for all m.

    Conjugation is invariant under a global phase of G, so the measured phases
    ARE the report: flattenable iff every chi(m) is already trivial.
    """
    return flattening_report(*covariance_report(op))


def flattening_report(worst: float, records: list) -> dict:
    """phase_flattening_report from a covariance_report (worst, records) already taken."""
    dev = max((abs(rec["phase"] - 1.0) for rec in records), default=0.0)
    return {
        "max_phase_deviation": float(dev),
        "flattenable": bool(dev < 1e-9),
        "worst_residual": worst,
        "records": records,
    }


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
