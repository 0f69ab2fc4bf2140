"""The blocked covariance sweep and the conjugation sign against measured overlaps.

The reference below builds G S_m by gathering the columns of G and S_r G by
scattering its rows, one block of labels at a time, and reads one record per
label in a Python loop.  Its phase is the measured overlap
Tr(S_r^dag G S_m G^dag) / D normalized, or a phase it is given.  The sweep in
transforms takes both products from G into buffers kept across blocks, with
its phases factored differently, and takes z from the exact parity rule
transforms._conjugation: for a metaplectic G the rule's sign and the measured
phase, and the residuals, must agree to a few ulps, with the same labels in
the same order.  For any other matrix the rule's sign is checked as given.
The suite reads the sweep at the generators only, and takes the aligned-gauge
signs from the rule alone; the loops here are the reference for both.
"""
import numpy as np
import pytest

from basis_oracle import window_vectors
from torusphase import (
    MetaplecticOperator,
    SymplecticMap,
    build_metaplectic,
    make_dimension,
    max_abs,
    random_symplectic,
)
from torusphase import transforms
from torusphase.schwinger import displacement_columns

TOL = 1e-14
GENERATORS = ((1, 0), (0, 1))       # the labels of the suite's covariance row


def _intertwined(op, labels, block_entries=1 << 16):
    """Yield (m, r, G S_m, S_r G) over blocks of labels m, with r = R m mod D."""
    d, G = op.dim.d, op.matrix
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    step = max(1, block_entries // d**2)
    for lo in range(0, len(labels), step):
        m = labels[lo:lo + step]
        r = np.stack(op.map.apply((m[:, 0], m[:, 1])), axis=1)
        rows, vals = displacement_columns(d, m[:, 0], m[:, 1])
        GS = np.moveaxis(G[:, rows], 0, 1) * vals[:, None, :]
        rows, vals = displacement_columns(d, r[:, 0], r[:, 1])
        SG = np.empty_like(GS)
        SG[np.arange(len(m))[:, None], rows] = vals[:, :, None] * G
        yield m, r, GS, SG


def _report_loop(op, labels=None, phase=None):
    """Worst residual and per-label records; the phase measured unless given."""
    d = op.dim.d
    records = []
    for m, _, GS, SG in _intertwined(op, window_vectors(op.dim) if labels is None else labels):
        if phase is None:
            z = np.einsum("lij,lij->l", SG.conj(), GS) / d
            z = z / np.abs(z)
        else:
            z = np.asarray(phase)[len(records):len(records) + len(m)]
        resid = np.abs(GS - z[:, None, None] * SG).max(axis=(1, 2))
        records += [{"m": (int(a), int(b)), "phase": complex(p), "residual": float(x)}
                    for (a, b), p, x in zip(m, z, resid)]
    return max((rec["residual"] for rec in records), default=0.0), records


def _translation_loop(op):
    d = op.dim.d
    worst = 0.0
    for m, r, GS, SG in _intertwined(op, np.indices((d, d)).reshape(2, -1).T):
        sign = 1 - 2 * ((r[:, 0] * r[:, 1] - m[:, 0] * m[:, 1]) % 2)
        worst = max(worst, max_abs(GS - sign[:, None, None] * SG))
    return worst


def _assert_reports_agree(op, labels=None, metaplectic=True):
    """The sweep against the loop; for a metaplectic G the loop measures the phase."""
    report = transforms.covariance_report(op, labels)
    ref_worst, ref = _report_loop(op, labels, None if metaplectic else report.phase)
    assert [tuple(m) for m in report.labels.tolist()] == [rec["m"] for rec in ref]
    assert report.phase.dtype == complex and report.residual.dtype == float
    assert np.all(np.abs(report.phase.real) == 1.0) and np.all(report.phase.imag == 0.0)
    assert max(abs(p - rec["phase"]) for p, rec in zip(report.phase, ref)) <= TOL
    assert max(abs(x - rec["residual"]) for x, rec in zip(report.residual, ref)) <= TOL
    assert abs(report.worst - ref_worst) <= TOL
    return [{"m": tuple(m), "phase": p, "residual": x} for m, p, x in
            zip(report.labels.tolist(), report.phase.tolist(), report.residual.tolist())]


@pytest.mark.parametrize("d", [2, 3, 13, 31])
def test_window_sweep_equals_the_gather_scatter_loop(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(d)
    for _ in range(3 if d < 31 else 1):
        _assert_reports_agree(build_metaplectic(dim, random_symplectic(dim, rng=rng)))


def test_window_sweep_equals_the_loop_at_d61():
    dim = make_dimension(61)
    smap = SymplecticMap.from_rows(dim, ((3, 5), (7, 12)))
    assert smap.t[0] != 0
    _assert_reports_agree(build_metaplectic(dim, smap))


@pytest.mark.parametrize("d", [2, 3, 13, 31])
def test_unreduced_labels_equal_the_loop(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(200 + d)
    labels = rng.integers(-3 * d, 3 * d + 1, size=(200, 2))
    records = _assert_reports_agree(build_metaplectic(dim, random_symplectic(dim, rng=rng)),
                                    labels)
    assert [rec["m"] for rec in records] == [tuple(m) for m in labels.tolist()]


@pytest.mark.parametrize("d", [3, 13, 31])
def test_monomial_shear_equals_the_loop(d):
    # t1 = 0: G is a phased permutation matrix
    dim = make_dimension(d)
    op = build_metaplectic(dim, SymplecticMap.from_rows(dim, ((1, 0), (1, 1))))
    assert np.count_nonzero(np.abs(op.matrix) > 1e-12) == d
    records = _assert_reports_agree(op)
    assert max(rec["residual"] for rec in records) < 1e-12


@pytest.mark.parametrize("d", [3, 13])
def test_a_matrix_of_another_map_reads_order_one(d):
    # G = I conjugates S_m to itself, not to +-S_{Rm}: R m = m mod D only at
    # m = 0 mod D, and every other label reads a residual of order one.  The
    # sign is the rule's, so no overlap is fitted and none is lost.
    dim = make_dimension(d)
    quarter = SymplecticMap.from_rows(dim, ((0, -1), (1, 0)))
    op = MetaplecticOperator(dim, quarter, np.eye(d, dtype=complex), "aligned", 0.0)
    records = _assert_reports_agree(op, metaplectic=False)
    off = [rec for rec in records if rec["m"] != (0, 0)]
    assert off and min(rec["residual"] for rec in off) >= 0.5
    assert transforms.covariance_report(op).worst >= 0.5
    assert transforms.covariance_report(op, GENERATORS).worst >= 0.5


@pytest.mark.parametrize("d", [5, 13])
def test_a_unitary_that_is_not_metaplectic_equals_the_loop(d):
    # a random unitary: its overlaps are generic complex numbers, not +-1, so
    # off m = 0 mod D the residual against the rule's sign is of order one
    dim = make_dimension(d)
    rng = np.random.default_rng(400 + d)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    op = MetaplecticOperator(dim, random_symplectic(dim, rng=rng), U, "aligned", 0.0)
    records = _assert_reports_agree(op, rng.integers(-3 * d, 3 * d + 1, size=(200, 2)),
                                    metaplectic=False)
    _, measured = _report_loop(op, [rec["m"] for rec in records])
    assert max(abs(rec["phase"].imag) for rec in measured) > 0.1
    assert min(rec["residual"] for rec in records if rec["m"][0] % d or rec["m"][1] % d) >= 0.5


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_predicted_phase_is_the_measured_overlap_sign(d):
    # at every D, D = 2's columnwise gauge included, on reduced and unreduced labels
    dim = make_dimension(d)
    rng = np.random.default_rng(4)
    op = build_metaplectic(dim, random_symplectic(dim, rng=rng))
    labels = np.concatenate([window_vectors(dim), rng.integers(-3 * d, 3 * d + 1, (50, 2))])
    _, measured = _report_loop(op, labels)
    for rec in measured:
        pred = transforms._conjugation(d, op.map.s, op.map.t, rec["m"])[2]
        assert pred in (1, -1) and abs(pred - rec["phase"]) <= TOL, (rec["m"], pred)


@pytest.mark.parametrize("d", [3, 13, 31])
def test_exact_translation_signs_read_0_where_the_loop_holds(d):
    dim = make_dimension(d)
    rng = np.random.default_rng(300 + d)
    for smap in (random_symplectic(dim, rng=rng),
                 SymplecticMap.from_rows(dim, ((1, 0), (1, 1)))):
        loop = _translation_loop(build_metaplectic(dim, smap))
        assert transforms.aligned_gauge_residual(smap) == 0.0 and loop <= TOL, loop


@pytest.mark.parametrize("d", [2, 3, 13, 31])
def test_generator_covariance_is_the_sweep_at_the_generators(d):
    # the suite's row: the generators' residuals are the sweep's at those labels
    dim = make_dimension(d)
    rng = np.random.default_rng(500 + d)
    for smap in (random_symplectic(dim, rng=rng),
                 SymplecticMap.from_rows(dim, ((1, 0), (1, 1)))):
        op = build_metaplectic(dim, smap)
        full = transforms.covariance_report(op)
        gens = transforms.covariance_report(op, GENERATORS)
        at = [full.labels.tolist().index(list(m)) for m in GENERATORS]
        assert np.array_equal(gens.residual, full.residual[at])
        assert np.array_equal(gens.phase, full.phase[at])
        assert gens.worst <= full.worst


@pytest.mark.parametrize("check", [
    lambda dim: transforms.aligned_gauge_residual(random_symplectic(dim, seed=2)),
    transforms.kernel_turn_residual,
], ids=["aligned_gauge", "kernel_turn"])
@pytest.mark.parametrize("flip", [0, 17, -1])
def test_one_flipped_conjugation_sign_reads_2(monkeypatch, check, flip):
    dim = make_dimension(13)
    real = transforms._conjugation

    def flipped(d, s, t, m):
        r1, r2, z = real(d, s, t, m)
        z = z.copy()
        z[flip] *= -1
        return r1, r2, z

    assert check(dim) == 0.0
    monkeypatch.setattr(transforms, "_conjugation", flipped)
    assert check(dim) == 2.0


def test_an_empty_label_list_reads_zero():
    dim = make_dimension(5)
    op = build_metaplectic(dim, random_symplectic(dim, seed=1))
    report = transforms.covariance_report(op, np.empty((0, 2), dtype=int))
    assert report.worst == 0.0 and len(report.phase) == len(report.residual) == 0
