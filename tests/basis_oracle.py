"""Dense forms of the Schwinger-basis and number-phase rows, the oracles of their tests.

The package checks these rows on its own label paths: Fourier covariance by
the FFT quarter turn, the Hilbert-Schmidt Gram rows per block of equal m1,
the action-angle kernel as one torus displacement sum and its phase form by
one FFT, the pair identities on monomials and the closed-form eigensystems
by their eigen equation.  The forms here build the dense operators and loops
those paths avoid: F S_m F^dag by matmul (O(D^3) per label), the D^2 x D^2
Gram matrix (O(D^6)), the kernel summed over S^np_m taken from the powers of
the number-phase pair (O(D^5)), its phase form one D x D block of terms per
m1 (O(D^3)), the pair suite on (D, D, D) power stacks, and np.linalg.eig per
label.  They serve small D only.
"""
import numpy as np
from numpy.linalg import matrix_power

from torusphase import (build_clock_operator, build_fourier_operator, build_phase_pair,
                        build_shift_operator)
from torusphase.lattice import (_checked_labels, _half_phase, _phase, canonical_window,
                               lattice_cross, max_abs)
from torusphase.schwinger import (_pair_suite, _worst, eigensystem_by_recursion, label_blocks,
                                  schwinger_stack)


def window_vectors(dim):
    """All lattice vectors with both components in the canonical window, m1 outer."""
    w = canonical_window(dim).tolist()
    return [(m1, m2) for m1 in w for m2 in w]


def _monomial(A: np.ndarray):
    """(rows, vals) of a matrix; ValueError names its first column without one
    nonzero entry, in a row no other column uses."""
    nonzero = A != 0
    rows = nonzero.argmax(axis=0)
    bad = (nonzero.sum(axis=0) != 1) | (np.bincount(rows, minlength=len(A))[rows] != 1)
    if bad.any():
        raise ValueError(f"column {int(bad.argmax())} of the operator is not monomial")
    return rows, A[rows, np.arange(len(A))]


def conjugate_pair_suite(dim, X: np.ndarray, Z: np.ndarray, rng=None, n_random: int = 200):
    """The package's pair suite (schwinger._pair_suite) on a dense candidate pair (X, Z).

    Each matrix is read back as a monomial first: a pair that is not monomial
    raises ValueError.
    """
    return _pair_suite(dim, _monomial(X), _monomial(Z), rng, n_random)


def pair_schwinger(dim, X, Z, m) -> np.ndarray:
    """S_m built from an arbitrary conjugate pair with X Z = e^{i gamma0} Z X."""
    ph = _half_phase(dim.d, m[0], m[1])
    return ph * (matrix_power(X, m[0] % dim.d) @ matrix_power(Z, m[1] % dim.d))


def weyl_matrices(dim):
    """The dense clock/shift pair (g, h) of schwinger._weyl_pair: conj(V) and U^T."""
    return build_clock_operator(dim).conj(), build_shift_operator(dim).T


def weyl_j_matrix(dim, m) -> np.ndarray:
    """J_m = w^{m1 m2 / 2} g^{m1} h^{m2} from matrix powers of the dense pair."""
    g, h = weyl_matrices(dim)
    ph = _half_phase(dim.d, m[0], m[1]).conj()
    return ph * (matrix_power(g, m[0] % dim.d) @ matrix_power(h, m[1] % dim.d))


def fourier_covariance(dim, labels) -> np.ndarray:
    """max |F S_m F^dag - S_(-m2, m1)| per label row, F the dense Fourier operator."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    F = build_fourier_operator(dim)
    turned = schwinger_stack(dim.d, np.stack([-labels[:, 1], labels[:, 0]], axis=1))
    return np.abs(F @ schwinger_stack(dim.d, labels) @ F.conj().T - turned).max(axis=(1, 2))


def _gram(dim, labels) -> np.ndarray:
    """Tr(S_m^dag S_n) / D over every pair of label rows, from the dense S_m."""
    vecs = schwinger_stack(dim.d, labels).reshape(len(labels), -1)
    return vecs.conj() @ vecs.T / dim.d


def gram_rank(dim, labels=None) -> int:
    """Rank of the D^2 x D^2 Hilbert-Schmidt Gram matrix of S_m over labels (default: the window)."""
    labels = window_vectors(dim) if labels is None else labels
    return int(np.linalg.matrix_rank(_gram(dim, labels), hermitian=True))


def gram_rows(dim, labels) -> np.ndarray:
    """max_n |Tr(S_m^dag S_n)/D - delta_mn| per label row, n over the label rows themselves."""
    return np.abs(_gram(dim, labels) - np.eye(len(labels))).max(axis=1)


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


def action_angle_phase_form(dim, J, theta) -> np.ndarray:
    """Ph C Ph^dag / (2piD) with C[l, l + m1] summed over m2 directly, one D x D
    block of (m2, l) terms per m1: the form the package reads from one FFT."""
    Ph = build_phase_pair(dim).phase_states
    d, g0 = dim.d, dim.gamma0
    w = canonical_window(dim)
    m2, l = w[:, None], np.arange(d)
    C = np.zeros((d, d), dtype=complex)
    for m1 in w.tolist():
        vals = np.exp(1j * (g0 * m1 * J - m2 * theta)) * _phase(d, (2 * l + m1) * m2).conj()
        C[l, (l + m1) % d] += vals.sum(axis=0)
    return Ph @ C @ Ph.conj().T / (2.0 * np.pi * d)


# rows that are D-th powers of the pair's entries
POWER_ROWS = ("power_sign", "cyclic_X", "cyclic_Z")


def exact_power_rows(dim, X, Z) -> dict:
    """The POWER_ROWS of conjugate_pair_suite in extended precision, over the checked labels.

    The pair's entries and the half phases are the package's doubles; every
    product after them is taken in np.clongdouble, one factor at a time along
    the columns, so each row is its exact value on the suite's own inputs to
    about D^2 * 1e-19.
    """
    d = dim.d
    j = np.arange(d)

    def times(a, b):          # A B of monomials (rows, vals), column j of A B at rows_A[rows_B[j]]
        return np.take_along_axis(a[0], b[0], -1), np.take_along_axis(a[1], b[0], -1) * b[1]

    def powers(A):            # A^0 .. A^D
        rows = (A != 0).argmax(axis=0)
        out = [(j, np.ones(d, np.clongdouble))]
        for _ in range(d):
            out.append(times(out[-1], (rows, A[rows, j].astype(np.clongdouble))))
        return np.stack([r for r, _ in out]), np.stack([v for _, v in out])

    def residual(rows, vals, s):      # max-norm of A - s I
        apart = np.maximum(np.abs(vals), np.abs(s))
        return float(np.where(rows == j, np.abs(vals - s), apart).max())

    (xr, xv), (zr, zv) = powers(X), powers(Z)
    m = _checked_labels(dim)
    a, b = m[:, 0] % d, m[:, 1] % d
    rows, vals = times((xr[a], xv[a]), (zr[b], zv[b]))
    S = rows, _half_phase(d, m[:, 0], m[:, 1])[:, None].astype(np.clongdouble) * vals
    P = np.broadcast_to(j, rows.shape), np.ones(rows.shape, np.clongdouble)
    for _ in range(d):
        P = times(P, S)
    sign = 1 - 2 * ((d * m[:, 0] * m[:, 1]) % 2)
    return {"power_sign": residual(*P, sign[:, None]),
            "cyclic_X": residual(xr[d], xv[d], 1), "cyclic_Z": residual(zr[d], zv[d], 1)}


def assert_within_oracle(dim, X, Z, rows, oracle, tol=1e-10):
    """Each monomial row of the pair (X, Z) has its dense oracle row's status at
    tol and reads at most that row + 1e-15.

    A D-th power row may instead read up to its exact_power_rows value +
    1e-15: matrix_power rounds too, and reads 1.4e-14 under the exact value
    of power_sign at D = 31, where the monomial squarings read 1.9e-16 under.
    """
    exact = exact_power_rows(dim, X, Z)
    for k, v in oracle.items():
        bound = max(v, exact[k]) if k in POWER_ROWS else v
        assert (rows[k] < tol) == (v < tol), (dim.d, k, rows[k], v)
        assert rows[k] <= bound + 1e-15, (dim.d, k, rows[k], v, exact.get(k))


def pair_suite(dim, X, Z, rng=None, n_random: int = 200) -> dict:
    """conjugate_pair_suite on dense (D, D, D) stacks of the powers X^a and Z^b, in label blocks.

    The same rows from the same draws, each product a matmul and each D-th
    power a matrix_power.
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
        # its own exponential, not the package's phase table
        ph = np.exp(1j * (np.pi * (lattice_cross(a[blk].T, b[blk].T) % (2 * d)) / d))
        err = S(a[blk]) @ S(b[blk]) - ph[:, None, None] * S(a[blk] + b[blk])
        _worst(res, "composition", np.abs(err).max(axis=(1, 2)))
    return res


def dense_match_stack(d: int, labels, lam, vecs):
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


def dense_eigensystem_residuals(dim, labels):
    """dense_match_stack of the closed-form eigensystem per label row: two arrays (P,), in blocks."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    lam_res, vec_res = np.empty(len(labels)), np.empty(len(labels))
    for blk in label_blocks(len(labels), dim.d):
        systems = [eigensystem_by_recursion(dim, m) for m in labels[blk].tolist()]
        lam_res[blk], vec_res[blk] = dense_match_stack(
            dim.d, [sys.m for sys in systems], np.stack([sys.eigenvalues for sys in systems]),
            np.stack([sys.eigenvectors for sys in systems]))
    return lam_res, vec_res
