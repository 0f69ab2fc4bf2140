import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from basis_oracle import window_vectors
from torusphase import (
    Dimension,
    basis_state,
    build_clock_operator,
    build_fourier_operator,
    build_shift_operator,
    canonical_vector,
    canonical_window,
    is_prime,
    lattice_cross,
    make_dimension,
    random_state,
)
from torusphase.lattice import Sampler, _checked_labels, _reduce


def test_is_prime_small_table():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_dimension_rejects_trivial():
    with pytest.raises(ValueError):
        make_dimension(1)


def test_dimension_constants():
    dim = make_dimension(5)
    assert_allclose(dim.gamma0, 2 * np.pi / 5)
    assert_allclose(dim.omega, np.exp(2j * np.pi / 5))
    assert dim.prime


@pytest.mark.parametrize("d,expected", [
    (2, [0, 1]),
    (3, [-1, 0, 1]),
    (4, [0, 1, 2, 3]),
    (5, [-2, -1, 0, 1, 2]),
])
def test_canonical_window(d, expected):
    assert list(canonical_window(make_dimension(d))) == expected


def test_window_vectors_cover_lattice():
    dim = make_dimension(3)
    vecs = window_vectors(dim)
    assert len(vecs) == 9
    assert len(set((a % 3, b % 3) for a, b in vecs)) == 9


def test_canonical_vector_reduces_into_window():
    dim = make_dimension(5)
    assert canonical_vector(dim, (7, -8)) == (2, 2)
    assert canonical_vector(dim, (0, 0)) == (0, 0)


def _reduce_reference(d, m1, m2, window):
    """_reduce in Python integers, which cannot overflow."""
    h = d // 2 if window and d % 2 else 0
    r1, r2 = (m1 + h) % d - h, (m2 + h) % d - h
    a, b = (m1 - r1) // d, (m2 - r2) // d
    return r1, r2, (-1) ** ((a * r2 + b * r1 + a * b * d) % 2)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 9, 15])
def test_reduce_is_the_label_reduction_rule(d):
    from torusphase.schwinger import schwinger_stack

    dim = make_dimension(d)
    rng = np.random.default_rng(d)
    m = rng.integers(-8 * d, 8 * d + 1, (60, 2))
    for window, low in ((True, int(canonical_window(dim)[0])), (False, 0)):
        r1, r2, sign = _reduce(d, m[:, 0], m[:, 1], window=window)
        r = np.stack([r1, r2], axis=1)
        assert ((r >= low) & (r < low + d)).all() and ((m - r) % d == 0).all()
        assert sign.dtype == np.int64 and set(sign.tolist()) <= {-1, 1}
        # S_m = sign S_r, dense, to the rounding of the phase table
        dense = schwinger_stack(d, m) - sign[:, None, None] * schwinger_stack(d, r)
        assert np.abs(dense).max() < 1e-13
        # labels near +-2^62 and the int64 bounds: exact against Python integers
        big = [(s * 2**62 + k, s * 2**62 - 3 * k + 1)
               for s in (1, -1) for k in range(-2 * d, 2 * d)]
        big += [(2**63 - 1 - k, -2**63 + k) for k in range(2 * d)]
        r1, r2, sign = _reduce(d, *np.array(big, dtype=np.int64).T, window=window)
        assert [_reduce_reference(d, *x, window) for x in big] == list(zip(
            r1.tolist(), r2.tolist(), sign.tolist()))
    # the wrapper reads the window reduction and returns Python integers
    for m1, m2 in m.tolist():
        r1, r2, _ = _reduce(d, m1, m2)
        got = canonical_vector(dim, (m1, m2))
        assert got == (r1, r2)
        assert {type(x) for x in got} == {int}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_clock_shift_and_fourier_relations(d):
    dim = make_dimension(d)
    U = build_shift_operator(dim)
    V = build_clock_operator(dim)
    F = build_fourier_operator(dim)
    eye = np.eye(d)
    # Weyl commutation U V = e^{i gamma0} V U
    assert_allclose(U @ V, np.exp(1j * dim.gamma0) * (V @ U), atol=1e-13)
    # Fourier conjugation exchanges the pair
    assert_allclose(F @ U @ F.conj().T, V, atol=1e-12)
    assert_allclose(F @ V @ F.conj().T, np.linalg.matrix_power(U, d - 1), atol=1e-12)
    # F is unitary of order four
    assert_allclose(F @ F.conj().T, eye, atol=1e-13)
    assert_allclose(np.linalg.matrix_power(F, 4), eye, atol=1e-12)
    # cyclicity
    assert_allclose(np.linalg.matrix_power(U, d), eye, atol=1e-13)
    assert_allclose(np.linalg.matrix_power(V, d), eye, atol=1e-13)


def test_basis_states_are_eigenvectors():
    dim = make_dimension(5)
    U = build_shift_operator(dim)
    V = build_clock_operator(dim)
    for k in range(5):
        eu = basis_state(dim, "u", k)
        assert_allclose(V @ eu, np.exp(-1j * dim.gamma0 * k) * eu, atol=1e-13)
        ev = basis_state(dim, "v", k)
        assert_allclose(U @ ev, np.exp(1j * dim.gamma0 * k) * ev, atol=1e-13)
        ephi = basis_state(dim, "phase", k)
        assert_allclose(U.T @ ephi, np.exp(1j * dim.gamma0 * k) * ephi, atol=1e-13)


@pytest.mark.parametrize("d", [2, 15, 23, 64])
def test_basis_states_are_the_operator_columns(d):
    # built alone, with the bytes of the column of the full matrix
    from torusphase.numberphase import build_phase_pair

    dim = make_dimension(d)
    F = build_fourier_operator(dim)
    phase = build_phase_pair(dim).phase_states
    for k in range(-d, 2 * d):
        assert basis_state(dim, "v", k).tobytes() == F[:, k % d].tobytes()
        assert basis_state(dim, "phase", k).tobytes() == phase[:, k % d].tobytes()


@pytest.mark.parametrize("d", [401, 1009])
def test_fourier_entries_are_exact(d):
    # each entry is e^{-2 pi i (jk mod D) / D} / sqrt(D), here in extended
    # precision; taken of the unreduced jk they were off by ~1600 eps (D = 401)
    # and ~2200 eps (D = 1009).  The phase table holds e^{-i pi t / D} at its
    # direct angles up to 2 pi, whose rounding reads up to 6.0 eps over D <= 2100
    from torusphase.numberphase import build_phase_pair

    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("needs a long double wider than float64 for the reference")
    dim = make_dimension(d)
    j = np.arange(d)
    pi = np.longdouble("3.141592653589793238462643383279502884")
    ref = np.exp(np.clongdouble(-2j) * pi * (np.outer(j, j) % d) / d) / np.sqrt(np.longdouble(d))
    tol = 8 * np.finfo(float).eps / np.sqrt(d)      # 8 eps relative to |entry|
    assert np.abs(build_fourier_operator(dim) - ref).max() <= tol
    assert np.abs(build_phase_pair(dim).phase_states - ref.conj()).max() <= tol
    for k in (0, 1, d // 2, d - 1):
        assert np.abs(basis_state(dim, "v", k) - ref[:, k]).max() <= tol
        assert np.abs(basis_state(dim, "phase", k) - ref[:, k].conj()).max() <= tol


def test_random_state_seeded_and_normalized():
    dim = make_dimension(7)
    a = random_state(dim, seed=3)
    b = random_state(dim, seed=3)
    c = random_state(dim, seed=4)
    assert_allclose(a, b)
    assert not np.allclose(a, c)
    assert_allclose(np.linalg.norm(a), 1.0, atol=1e-13)


def test_sampler_same_seed_same_draws():
    def draws(seed):
        r = Sampler(seed)
        return (r.integers(7), r.integers(-5, 5, (3, 2)).tolist(), r.uniform(-2, 2),
                r.normal(size=5).tolist(), r.sample(1000, 4).tolist())
    assert draws(3) == draws(3)
    assert draws(3) != draws(4)
    with pytest.raises(ValueError, match="non-negative"):
        Sampler(-3)


def test_sampler_integers_stay_in_range():
    r = Sampler(0)
    x = r.integers(-3, 4, 10_000)
    assert x.dtype == np.int64 and x.min() == -3 and x.max() == 3
    assert r.integers(-2, 2, (2, 3, 2)).shape == (2, 3, 2)
    assert all(0 <= r.integers(5) < 5 for _ in range(200))


def pair_count(d):
    """Non-collinear window pairs at D, as verify._swept_pairs counts them."""
    w = np.arange(d)
    return d**4 - d * sum(int(np.gcd(np.gcd(m1, w), d).sum()) for m1 in range(d))


# the pair count at D = 4096, ~2.8e14, is the widest index range a sampled sweep draws from
@pytest.mark.parametrize("n", [12, 1000, pair_count(4096)])
def test_sampler_sample_is_distinct_and_in_range(n):
    k = min(n, 200)
    idx = Sampler(5).sample(n, k)
    assert idx.shape == (k,) and len(set(idx.tolist())) == k
    assert idx.min() >= 0 and idx.max() < n


def test_sampler_normal_moments():
    n = 10**5
    x = Sampler(11).normal(size=n)
    # standard errors of the mean and of the variance of n standard normals
    assert abs(x.mean()) < 5 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 5 * np.sqrt(2 / n)
    assert Sampler(11).normal(size=(3, 5)).shape == (3, 5)


def test_checked_labels_above_d64_are_the_seeded_sample():
    # the large-D label sample is the package sampler's draw seeded by D, in
    # index order; numpy's draw gave other labels (digests 959a1f07... at
    # D = 101 and ff980c19... at D = 365)
    pinned = {101: "ae92f4ecf91067e6c1cd74f92e3870f9cf3faa265481f3cd0341b376dab98add",
              365: "d4b56cae480d12b024e09328ab1a3ff189bfdb61dfd1833d90ed6292ded3d541"}
    for d, digest in pinned.items():
        labels = _checked_labels(make_dimension(d))
        assert labels.dtype == np.int64
        assert hashlib.sha256(labels.tobytes()).hexdigest() == digest, d
        idx = np.sort(Sampler(d).sample(d * d, len(labels)))
        w = canonical_window(make_dimension(d))
        assert np.array_equal(labels, np.stack([w[idx // d], w[idx % d]], axis=1))


def test_lattice_cross_is_exact_integer():
    assert lattice_cross((2, 3), (5, 7)) == 2 * 7 - 3 * 5
    assert isinstance(lattice_cross((10**9, 1), (1, 10**9)), int)
