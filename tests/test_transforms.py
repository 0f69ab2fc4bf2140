import itertools
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
    predicted_phase,
    random_symplectic,
    schwinger_matrix,
    verify_symplectic,
    window_vectors,
)
from torusphase import transforms, verify


def test_symplectic_map_reduction_and_determinant():
    dim = make_dimension(5)
    smap = SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))
    assert np.array_equal(smap.matrix, [[0, 4], [1, 0]])
    assert smap.determinant % 5 == 1
    assert verify_symplectic(smap)
    bad = SymplecticMap.from_rows(dim, ((1, 1), (1, 0)))
    assert not verify_symplectic(bad)


def test_nonsymplectic_map_rejected():
    dim = make_dimension(5)
    with pytest.raises(NonSymplecticMapError):
        build_metaplectic(dim, SymplecticMap.from_rows(dim, ((1, 1), (1, 0))))


def test_composite_dimension_rejected():
    dim = make_dimension(4)
    with pytest.raises(DegenerateSpectrumError):
        build_metaplectic(dim, SymplecticMap.from_rows(dim, ((0, -1), (1, 0))))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_quarter_turn_gives_fourier(d):
    assert fourier_check(make_dimension(d)) < 1e-10


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
        worst, records = covariance_report(op)
        assert worst < 1e-9, (d, smap.matrix, worst)
        for rec in records:
            assert abs(abs(rec["phase"]) - 1.0) < 1e-9


@pytest.mark.parametrize("d", [3, 5, 7])
def test_predicted_phase_matches_measured(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(4)
    smap = random_symplectic(dim, rng=rng)
    op = build_metaplectic(dim, smap)
    _, records = covariance_report(op)
    for rec in records:
        pred = predicted_phase(op, rec["m"])
        assert abs(pred - rec["phase"]) < 1e-9, (rec["m"], pred, rec["phase"])


@pytest.mark.parametrize("d", [3, 5, 7])
def test_group_closure_up_to_scalar(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(6)
    a = build_metaplectic(dim, random_symplectic(dim, rng=rng))
    b = build_metaplectic(dim, random_symplectic(dim, rng=rng))
    scalar, resid = closure_check(a, b)
    assert resid < 1e-10
    assert abs(abs(scalar) - 1.0) < 1e-12


def test_d2_columnwise_covariance_but_no_closure():
    dim = make_dimension(2)
    rng = np.random.default_rng(8)
    smap = random_symplectic(dim, rng=rng)
    op = build_metaplectic(dim, smap)
    assert op.gauge == "columnwise"
    worst, _ = covariance_report(op)
    assert worst < 1e-10
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
        assert verify_symplectic(smap)
        assert smap.s != (0, 0)


def test_covariance_sends_labels_through_the_map():
    dim = make_dimension(5)
    smap = SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))
    op = build_metaplectic(dim, smap)
    F = build_fourier_operator(dim)
    for m in window_vectors(dim):
        lhs = op.matrix @ schwinger_matrix(dim, m) @ op.matrix.conj().T
        image = smap.apply(m)
        rhs = schwinger_matrix(dim, (image[0] % 5, image[1] % 5))
        z = np.trace(rhs.conj().T @ lhs) / 5
        assert abs(abs(z) - 1.0) < 1e-10, m
    # and the quarter-turn op is the Fourier matrix up to a global phase
    z = np.trace(F.conj().T @ op.matrix) / 5
    assert_allclose(op.matrix, (z / abs(z)) * F, atol=1e-10)


def _dense_s(dim, m):
    """S_m = e^{-i pi m1 m2 / D} U^m1 V^m2 from dense shift and clock powers."""
    d = dim.d
    return (np.exp(-1j * np.pi * (m[0] * m[1]) / d)
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
            if d % 2:
                target = predicted_phase(op, m) * dense[smap.apply(m, reduce=True)]
                assert np.max(np.abs(conj - target)) < 1e-12, (smap.matrix, m)


@pytest.mark.parametrize("d", [3, 13, 31])
def test_covariance_report_phases_match_dense_overlaps(d):
    dim = make_dimension(d)
    op = build_metaplectic(dim, random_symplectic(dim, seed=d))
    G = op.matrix
    worst, records = covariance_report(op)
    assert worst < 1e-12
    assert [rec["m"] for rec in records] == window_vectors(dim)
    for rec in records:
        target = _dense_s(dim, op.map.apply(rec["m"], reduce=True))
        z = np.trace(target.conj().T @ G @ _dense_s(dim, rec["m"]) @ G.conj().T) / d
        assert abs(rec["phase"] - z / abs(z)) < 1e-12, rec["m"]


def test_large_dimension_build_is_fast():
    dim = make_dimension(401)
    start = time.perf_counter()
    op = build_metaplectic(dim, random_symplectic(dim, seed=401))
    assert time.perf_counter() - start < 1.0
    assert op.unitary_residual < 1e-12


def test_suite_transforms_takes_one_covariance_report_per_operator(monkeypatch):
    calls = []
    real = transforms.covariance_report
    monkeypatch.setattr(transforms, "covariance_report",
                        lambda op, *a: calls.append(op) or real(op, *a))
    rows = verify.suite_transforms(make_dimension(13), seed=3)
    # 10 random maps and the shear, each once; phase_flattening reuses the first
    assert len(calls) == 11
    assert len({id(op) for op in calls}) == 11
    flat = next(r for r in rows if r.name == "phase_flattening")
    assert flat.value == transforms.phase_flattening_report(calls[0])["max_phase_deviation"]
