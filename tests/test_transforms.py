import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from basis_oracle import window_vectors
from torusphase import (
    DegenerateSpectrumError,
    NonSymplecticMapError,
    SymplecticMap,
    build_clock_operator,
    build_fourier_operator,
    build_metaplectic,
    build_shift_operator,
    closure_check,
    covariance_report,
    fourier_check,
    make_dimension,
    random_symplectic,
    schwinger_matrix,
)
from torusphase import transforms, verify
from torusphase.lattice import _checked_labels


def test_symplectic_map_reduction_and_determinant():
    dim = make_dimension(5)
    smap = SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))
    assert np.array_equal(smap.matrix, [[0, 4], [1, 0]])
    assert smap.determinant == 1
    bad = SymplecticMap.from_rows(dim, ((1, 1), (1, 0)))
    assert bad.determinant == 4


def test_nonsymplectic_map_rejected():
    dim = make_dimension(5)
    # one determinant check, in metaplectic_stack; its message names the map and det
    with pytest.raises(NonSymplecticMapError, match=r"det = 4 mod 5; map \[\[1, 1\], \[1, 0\]\]"):
        build_metaplectic(dim, SymplecticMap.from_rows(dim, ((1, 1), (1, 0))))


def test_composite_dimension_rejected():
    dim = make_dimension(4)
    with pytest.raises(DegenerateSpectrumError):
        build_metaplectic(dim, SymplecticMap.from_rows(dim, ((0, -1), (1, 0))))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_quarter_turn_gives_fourier(d):
    assert fourier_check(make_dimension(d)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 5, 7, 13, 31, 61, 101])
def test_quarter_turn_is_the_fourier_operator_with_no_phase(d):
    # fourier_check fits no phase: G_00 > 0 and F_00 = 1/sqrt(D) fix it to 1
    dim = make_dimension(d)
    G = build_metaplectic(dim, SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))).matrix
    assert G[0, 0].real > 0 and abs(G[0, 0].imag) < 1e-15
    assert fourier_check(dim) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_identity_map_gives_identity(d):
    dim = make_dimension(d)
    op = build_metaplectic(dim, SymplecticMap.from_rows(dim, ((1, 0), (0, 1))))
    assert_allclose(op.matrix, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_aligned_gauge_covariance_is_exact(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(2)
    for _ in range(6):
        smap = random_symplectic(dim, rng=rng)
        op = build_metaplectic(dim, smap)
        assert op.gauge == "aligned"
        assert op.unitary_residual < 1e-12
        report = covariance_report(op)
        assert report.worst < 1e-9, (d, smap.matrix, report.worst)
        assert np.abs(np.abs(report.phase) - 1.0).max() < 1e-9


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 31])
def test_group_closure_up_to_scalar(d):
    # the scalar of the Clifford group law is a fourth root of unity, not a fitted phase
    dim = make_dimension(d)
    rng = np.random.default_rng(6)
    for _ in range(4):
        a = build_metaplectic(dim, random_symplectic(dim, rng=rng))
        b = build_metaplectic(dim, random_symplectic(dim, rng=rng))
        scalar, resid = closure_check(a, b)
        assert resid < 1e-10
        assert scalar**4 == 1


def test_d2_columnwise_covariance_but_no_closure():
    dim = make_dimension(2)
    rng = np.random.default_rng(8)
    smap = random_symplectic(dim, rng=rng)
    op = build_metaplectic(dim, smap)
    assert op.gauge == "columnwise"
    assert covariance_report(op).worst < 1e-10
    a = build_metaplectic(dim, SymplecticMap.from_rows(dim, ((0, 1), (1, 0))))
    b = build_metaplectic(dim, SymplecticMap.from_rows(dim, ((1, 1), (0, 1))))
    _, resid = closure_check(a, b)
    assert resid > 0.5  # scalar closure genuinely fails at D=2


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_random_symplectic_produces_valid_maps(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(10)
    for _ in range(40):
        smap = random_symplectic(dim, rng=rng)
        assert smap.determinant == 1 % d
        assert smap.s != (0, 0)


@pytest.mark.parametrize("d", [4, 6, 9, 15, 25])
def test_random_symplectic_at_composite_d(d):
    # the completion inverts a unit component of the first column; a column
    # with none is redrawn (a non-unit s1 raised "base is not invertible")
    dim = make_dimension(d)
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(500):
        smap = random_symplectic(dim, rng=rng)
        assert smap.determinant == 1 % d
        assert math.gcd(smap.s[0], d) == 1 or math.gcd(smap.s[1], d) == 1
        seen.add(math.gcd(smap.s[0], d) == 1)
    assert seen == {True, False}


def test_random_symplectic_keeps_its_prime_draws():
    # the four draws from seed 0 before composite D was handled
    pinned = {
        2: [((1, 1), (1, 0))] * 4,
        5: [((4, 3), (2, 3)), ((1, 1), (0, 1)), ((0, 4), (1, 3)), ((4, 2), (3, 3))],
        13: [((11, 8), (6, 8)), ((3, 4), (0, 9)), ((2, 10), (8, 8)), ((11, 6), (7, 11))],
        61: [((51, 38), (31, 59)), ((16, 18), (2, 29)), ((4, 1), (10, 18)), ((49, 39), (55, 55))],
        401: [((341, 255), (204, 209)), ((108, 123), (16, 267)), ((30, 6), (70, 268)),
              ((326, 260), (366, 394))],
    }
    for d, draws in pinned.items():
        rng = np.random.default_rng(0)
        got = [random_symplectic(make_dimension(d), rng=rng) for _ in draws]
        assert [(m.s, m.t) for m in got] == draws, d


def test_covariance_sends_labels_through_the_map():
    dim = make_dimension(5)
    smap = SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))
    op = build_metaplectic(dim, smap)
    F = build_fourier_operator(dim)
    for m in window_vectors(dim):
        lhs = op.matrix @ schwinger_matrix(dim, m) @ op.matrix.conj().T
        rhs = schwinger_matrix(dim, smap.apply(m))
        z = np.trace(rhs.conj().T @ lhs) / 5
        assert abs(abs(z) - 1.0) < 1e-10, m
    # and the quarter-turn op is the Fourier matrix up to a global phase
    z = np.trace(F.conj().T @ op.matrix) / 5
    assert_allclose(op.matrix, (z / abs(z)) * F, atol=1e-10)


def _dense_s(dim, m):
    """S_m = e^{-i pi m1 m2 / D} U^m1 V^m2 from dense shift and clock powers."""
    d = dim.d
    return (np.exp(-1j * np.pi * ((m[0] * m[1]) % (2 * d)) / d)
            * np.linalg.matrix_power(build_shift_operator(dim), m[0] % d)
            @ np.linalg.matrix_power(build_clock_operator(dim), m[1] % d))


def _all_maps(dim):
    d = dim.d
    for a, b, c, e in itertools.product(range(d), repeat=4):
        if (a * e - b * c) % d == 1:
            yield SymplecticMap.from_rows(dim, ((a, b), (c, e)))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_every_map_conjugates_labels_by_its_generator_phases(d):
    # G U G^dag = (-1)^{s1 s2} S_s and G V G^dag = b S_t fix the gauge, with
    # b = (-1)^{t1 t2} at odd D (aligned) and 1 at D = 2 (columnwise); every
    # other S_m = e^{-i pi m1 m2/D} U^m1 V^m2 follows by composition
    dim = make_dimension(d)
    labels = list(itertools.product(range(d), repeat=2))
    dense = {m: _dense_s(dim, m) for m in labels}
    for smap in _all_maps(dim):
        op = build_metaplectic(dim, smap)
        G = op.matrix
        assert op.unitary_residual <= 1e-14
        assert G[0, 0].real > 0 and abs(G[0, 0].imag) < 1e-15
        a = (-1) ** (smap.s[0] * smap.s[1])
        b = (-1) ** (smap.t[0] * smap.t[1]) if d % 2 else 1
        gu, gv = a * dense[smap.s], b * dense[smap.t]
        for m in labels:
            conj = G @ dense[m] @ G.conj().T
            image = (np.exp(-1j * np.pi * m[0] * m[1] / d)
                     * np.linalg.matrix_power(gu, m[0]) @ np.linalg.matrix_power(gv, m[1]))
            assert np.max(np.abs(conj - image)) < 1e-12, (smap.matrix, m)
            target = transforms._conjugation(d, smap.s, smap.t, m)[2] * dense[smap.apply(m)]
            assert np.max(np.abs(conj - target)) < 1e-12, (smap.matrix, m)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 31])
def test_conjugation_rule_matches_dense_conjugation(d):
    # G S_m G^dag = z(m) S_{R m mod D} with z the rule's sign, on unreduced labels
    dim = make_dimension(d)
    rng = np.random.default_rng(500 + d)
    maps = [SymplecticMap.from_rows(dim, rows) for rows in
            (((1, 0), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1)))]
    maps += [random_symplectic(dim, rng=rng) for _ in range(6)]
    labels = rng.integers(-3 * d, 3 * d + 1, size=(40, 2)).tolist() + [[3 * d, -3 * d]]
    for smap in maps:
        G = build_metaplectic(dim, smap).matrix
        r1, r2, z = transforms._conjugation(d, smap.s, smap.t, np.array(labels).T)
        for m, r, sign in zip(labels, zip(r1.tolist(), r2.tolist()), z.tolist()):
            assert sign in (1, -1)
            worst = np.abs(G @ _dense_s(dim, m) @ G.conj().T - sign * _dense_s(dim, r)).max()
            assert worst <= 1e-13, (smap.matrix, m, worst)


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_conjugation_rule_on_residues_is_the_aligned_sign(d):
    # an integer identity: on m in [0, D)^2 at odd D, z(m) = (-1)^{r1 r2 - m1 m2}
    dim = make_dimension(d)
    rng = np.random.default_rng(600 + d)
    maps = [random_symplectic(dim, rng=rng) for _ in range(50)]
    s1, s2, t1, t2 = (np.array([x[i] for x in col])[:, None]
                      for col in ([m.s for m in maps], [m.t for m in maps]) for i in (0, 1))
    m1, m2 = np.divmod(np.arange(d * d), d)
    r1, r2, z = transforms._conjugation(d, (s1, s2), (t1, t2), (m1, m2))
    assert z.shape == (50, d * d)
    assert np.array_equal(z, 1 - 2 * ((r1 * r2 - m1 * m2) % 2))


@pytest.mark.parametrize("d", [3, 13, 31])
def test_covariance_report_phases_match_dense_overlaps(d):
    dim = make_dimension(d)
    op = build_metaplectic(dim, random_symplectic(dim, seed=d))
    G = op.matrix
    report = covariance_report(op)
    assert report.worst < 1e-12
    assert [tuple(m) for m in report.labels.tolist()] == window_vectors(dim)
    for m, phase in zip(report.labels.tolist(), report.phase):
        target = _dense_s(dim, op.map.apply(m))
        z = np.trace(target.conj().T @ G @ _dense_s(dim, m) @ G.conj().T) / d
        assert abs(phase - z / abs(z)) < 1e-12, m


def test_large_dimension_build_is_fast():
    dim = make_dimension(401)
    start = time.perf_counter()
    op = build_metaplectic(dim, random_symplectic(dim, seed=401))
    assert time.perf_counter() - start < 1.0
    assert op.unitary_residual < 1e-12


def test_suite_transforms_sweeps_each_operator_once(monkeypatch):
    calls = []
    real = transforms._sweep
    monkeypatch.setattr(transforms, "_sweep",
                        lambda G, smap, *a: calls.append((G, smap)) or real(G, smap, *a))
    dim = make_dimension(13)
    rows = verify.suite_transforms(dim, seed=3)
    # 10 random maps and the shear, each once on the generators; phase_flattening
    # reads the first map's signs
    assert len(calls) == 11
    assert len({id(G) for G, _ in calls}) == 11
    assert calls[-1][1].matrix.tolist() == [[1, 0], [1, 1]]
    flat = next(r for r in rows if r.name == "phase_flattening")
    first = covariance_report(build_metaplectic(dim, calls[0][1]), _checked_labels(dim))
    assert flat.value == transforms.phase_flattening_report(first.phase)["max_phase_deviation"]


def test_metaplectic_stack_peaks_within_three_times_its_output():
    """The twirl sum runs a chunk of columns at a time: its integer exponents and
    scatter indices never span all D^2 labels (the one-pass sum peaked at 7.6 G)."""
    dim = make_dimension(401)
    smap = random_symplectic(dim, seed=5)
    transforms.metaplectic_stack(dim, [smap.s], [smap.t])
    tracemalloc.start()
    try:
        G = transforms.metaplectic_stack(dim, [smap.s], [smap.t])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * G.nbytes, (peak, G.nbytes)
    assert np.allclose(G[0] @ G[0].conj().T, np.eye(401), atol=1e-12)
