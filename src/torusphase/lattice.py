"""Torus lattice arithmetic and the fundamental conjugate operator pair.

The Hilbert space is C^D with the coordinate basis |u_k>.  The shift U acts as
U|u_k> = |u_{k+1 mod D}> and the clock V as V|u_k> = e^{-i gamma0 k}|u_k> with
gamma0 = 2 pi / D.  The discrete Fourier operator F exchanges the two:
F U F^-1 = V and F V F^-1 = U^-1, with F^4 = I.

One rule reads every phase e^{-i pi t / D} of an exact integer t: _phase, t mod
2D from a 2D-entry table; and sines of integer turns: _sin_turns, t in [-D, D).
Seeded draws come from Sampler, keyed by the standard library's generator.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import UnsupportedBasisError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Dimension:
    """Hilbert-space dimension D with the derived lattice constants."""

    d: int
    prime: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "prime", is_prime(self.d))

    @property
    def gamma0(self) -> float:
        return 2.0 * np.pi / self.d

    @property
    def omega(self) -> complex:
        return complex(_phase(self.d, 2).conj())


def make_dimension(d: int) -> Dimension:
    return Dimension(int(d))


def canonical_window(dim: Dimension) -> np.ndarray:
    """Component range of the canonical lattice window, an int64 array in increasing order.

    Odd D uses the symmetric window {-(D-1)/2, ..., (D-1)/2} so that m <-> -m
    stays inside it; even D uses {0, ..., D-1}.
    """
    d = dim.d
    return np.arange(d, dtype=np.int64) - (d // 2 if d % 2 else 0)


def window_vectors(dim: Dimension):
    """All lattice vectors with both components in the canonical window."""
    w = canonical_window(dim).tolist()
    return [(m1, m2) for m1 in w for m2 in w]


# per-item rows over grid points or window labels: every item while D^4 is at
# most this, else this over D^2 items
_CHECKED_ENTRIES = 1 << 24


def _checked_points(dim: Dimension) -> np.ndarray:
    """Grid points (P, 2) of the per-item rows: all, or a sample seeded by D."""
    d = dim.d
    idx = np.arange(d * d)
    if d**4 > _CHECKED_ENTRIES:
        # numpy's draw, loaded only here: these labels are what the large-D rows read
        idx = np.sort(np.random.default_rng(d).choice(idx, _CHECKED_ENTRIES // d**2, False))
    return np.stack(np.divmod(idx, d), axis=1)


def _checked_labels(dim: Dimension) -> np.ndarray:
    """Window labels (P, 2) of the per-item rows: window_vectors at the _checked_points indices."""
    return canonical_window(dim)[_checked_points(dim)]


def _reduce(d: int, m1, m2, window: bool = True):
    """(r1, r2, sign): the representative r = m mod D and S_m = sign S_r, sign = +-1.

    m1, m2 are integer labels or label arrays (unreduced allowed, int64);
    r takes its components from the canonical window, or with window=False
    from the residues [0, D).  For m = r + D (a, b) the sign is
    (-1)^{a r2 + b r1 + a b D}, each factor taken mod 2 first: exact for every
    int64 label.  It is the package's one label-reduction rule.
    """
    a, r1 = np.divmod(np.asarray(m1, dtype=np.int64), d)
    b, r2 = np.divmod(np.asarray(m2, dtype=np.int64), d)
    if window and d % 2:    # residues above D/2 move down by D into the window
        a, r1 = a + (r1 > d // 2), r1 - d * (r1 > d // 2)
        b, r2 = b + (r2 > d // 2), r2 - d * (r2 > d // 2)
    a, b = a % 2, b % 2
    return r1, r2, 1 - 2 * ((a * (r2 % 2) + b * (r1 % 2) + a * b * (d % 2)) % 2)


def canonical_vector(dim: Dimension, m) -> tuple[int, int]:
    r1, r2, _ = _reduce(dim.d, m[0], m[1])
    return int(r1), int(r2)


# label components stay below this in magnitude wherever labels become int64:
# every product the builders form, m x m' among them, is then exact
_LABEL_BOUND = 1 << 31


def lattice_cross(a, b) -> int:
    """Symplectic area m x m' = m1 m2' - m2 m1' as an exact integer."""
    return a[0] * b[1] - a[1] * b[0]


def _phase(d: int, t) -> np.ndarray:
    """e^{-i pi t / D} for exact integer exponents t (arrays allowed), t taken mod 2D."""
    return _phase_table(d)[np.asarray(t, dtype=np.int64) % (2 * d)]


# gathered: ~7x faster than one exponential per entry at D = 1009; kept per D
# since a blocked sweep reads a few labels per call.  Only _phase reads it.
@lru_cache(maxsize=64)
def _phase_table(d: int) -> np.ndarray:
    return np.exp(-1j * (np.pi * np.arange(2 * d) / d))


def _phase_cross(d: int, c) -> np.ndarray:
    """c reduced mod 2D into [-D, D): the least |c| with the same phase e^{-i pi c / D}."""
    return (np.asarray(c) + d) % (2 * d) - d


def _sin_turns(k, n) -> np.ndarray:
    """sin(pi k / n) for integer k, reduced into [-n, n) first so the argument stays small."""
    return np.sin(np.pi * _phase_cross(n, k) / n)


def _half_phase(d: int, a, b) -> np.ndarray:
    """e^{-i pi a b / D} from the exact integer product a*b, each factor taken mod 2D."""
    a, b = (np.asarray(x, dtype=np.int64) % (2 * d) for x in (a, b))
    return _phase(d, a * b)


def build_shift_operator(dim: Dimension) -> np.ndarray:
    U = np.zeros((dim.d, dim.d), dtype=complex)
    U[(np.arange(dim.d) + 1) % dim.d, np.arange(dim.d)] = 1.0
    return U


def build_clock_operator(dim: Dimension) -> np.ndarray:
    return np.diag(_clock_entries(dim))


def _clock_entries(dim: Dimension) -> np.ndarray:
    # the diagonal e^{-i gamma0 k} of V, not from _phase (k < D needs no reduction): entries
    # sharing the rounded step gamma0 compose consistently, the table's read 3x worse in the
    # composition row
    return np.exp(-1j * dim.gamma0 * np.arange(dim.d))


def build_fourier_operator(dim: Dimension) -> np.ndarray:
    k = np.arange(dim.d)
    return _phase(dim.d, 2 * np.outer(k, k)) / math.sqrt(dim.d)


def _quarter_turn(A: np.ndarray) -> np.ndarray:
    """F A F^dag per operator of a stack: F A is an FFT down each column over sqrt(D),
    B F^dag an inverse FFT along each row times sqrt(D)."""
    return np.fft.ifft(np.fft.fft(A, axis=-2), axis=-1)


def basis_state(dim: Dimension, basis: str, index: int) -> np.ndarray:
    """Coordinate (u), Fourier-conjugate (v) or phase basis vector as u-amplitudes.

    v_l is column l of the Fourier operator F and the phase state |phi_l>
    column l of conj(F), each built alone with the entries of the full matrix.
    """
    index = index % dim.d
    if basis == "u":
        psi = np.zeros(dim.d, dtype=complex)
        psi[index] = 1.0
        return psi
    if basis in ("v", "phase"):
        v = _phase(dim.d, 2 * index * np.arange(dim.d)) / math.sqrt(dim.d)
        return v if basis == "v" else v.conj()
    raise UnsupportedBasisError(f"unknown basis tag {basis!r}")


# SplitMix64 (Steele, Lea and Flood, 2014): the stream's increment and output mix
_GAMMA, _MIX1, _MIX2 = (np.uint64(c) for c in
                        (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


class Sampler:
    """Seeded draws from random.Random: integers, uniform and normal with the
    numpy Generator signatures the package calls, and sample for distinct
    indices.  A process that draws no large label sample never imports
    numpy.random.  Every rng= parameter accepts either."""

    def __init__(self, seed=None):
        if seed is not None and int(seed) < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._random = random.Random(None if seed is None else int(seed))

    def _unit(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1), 53 bits each: the SplitMix64 stream seeded by
        one 64-bit draw, computed in numpy."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GAMMA
        z += np.uint64(self._random.getrandbits(64))
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= mix
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)) * 2.0**-53

    def integers(self, low, high=None, size=None):
        """Integers in [low, high), or in [0, low) without high."""
        if high is None:
            low, high = 0, low
        if size is None:
            return self._random.randrange(int(low), int(high))
        draws = [self._random.randrange(int(low), int(high)) for _ in range(int(np.prod(size)))]
        return np.array(draws, dtype=np.int64).reshape(size)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self._random.random()

    def normal(self, size) -> np.ndarray:
        """Marsaglia's polar method: each point (x, y) of the square [-1, 1)^2
        inside the unit disc, s = x^2 + y^2 in (0, 1), gives the two normals
        x r and y r, r = sqrt(-2 log s / s); no sine or cosine."""
        n = int(np.prod(size))
        parts, have = [], 0
        while have < n:
            # pi/4 of the points fall inside, so m points give about 1.57 m
            # normals: m = 2/3 of those still due is about 5% to spare
            x, y = 2 * self._unit(2 * ((n - have) * 2 // 3 + 8)).reshape(2, -1) - 1
            s = x * x + y * y
            inside = (s > 0) & (s < 1)
            s = s[inside]
            r = np.sqrt(-2 * np.log(s) / s)
            parts += [x[inside] * r, y[inside] * r]
            have += 2 * len(r)
        return np.concatenate(parts)[:n].reshape(size)

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct draws from range(n); n may exceed any array size."""
        return np.array(self._random.sample(range(n), k), dtype=np.int64)


def random_state(dim: Dimension, seed=None, rng=None) -> np.ndarray:
    """Normalized state with complex-normal amplitudes from a seeded generator."""
    if rng is None:
        rng = Sampler(seed)
    psi = rng.normal(size=dim.d) + 1j * rng.normal(size=dim.d)
    return psi / np.linalg.norm(psi)


def max_abs(a) -> float:
    """Max-norm of a matrix or vector difference; the residual measure used throughout."""
    return float(np.max(np.abs(a)))
