import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torusphase import (
    CollinearVectorsError,
    DegenerateSpectrumError,
    DimensionTooLargeError,
    PhaseMismatchError,
    SingularDeformationError,
    build_q_oscillator,
    build_uq_sl2,
    casimir_uq_sl2,
    coproduct_check,
    eigenbasis_correspondence,
    lattice_cross,
    lowest_weight_scan,
    make_dimension,
    oscillator_residuals,
    sl2_residuals,
    translated_lattice_deformation,
    window_vectors,
)
from torusphase import deformed, verify
from torusphase.deformed import lowest_weight_sweep, oscillator_sweep, sl2_sweep


def noncollinear_pairs(dim):
    out = []
    for m in window_vectors(dim):
        for mp in window_vectors(dim):
            if lattice_cross(m, mp) % dim.d != 0:
                out.append((m, mp))
    return out


def test_d3_reference_spectrum():
    dim = make_dimension(3)
    osc = build_q_oscillator(dim, (1, 0), (0, 1))
    assert_allclose(osc.shift_constant, 2.0 / np.sqrt(3.0), atol=1e-12)
    assert_allclose(np.sort(osc.spectrum), [0.15470053837925168, 1.1547005383792515,
                                            2.1547005383792515], atol=1e-12)
    assert_allclose(osc.q, np.exp(-2j * np.pi / 3), atol=1e-13)
    assert osc.cross == 1


def test_d5_shift_constant():
    dim = make_dimension(5)
    osc = build_q_oscillator(dim, (1, 0), (0, 1))
    assert_allclose(osc.shift_constant, 1.0 / abs(np.sin(2 * np.pi / 5)), atol=1e-12)


@pytest.mark.parametrize("d", [3, 5])
def test_defining_relations_all_pairs(d):
    dim = make_dimension(d)
    for m, mp in noncollinear_pairs(dim):
        osc = build_q_oscillator(dim, m, mp)
        r = oscillator_residuals(osc)
        assert r["number"] < 1e-10, (m, mp)
        assert r["q_exponential"] < 1e-10, (m, mp)
        assert r["ladder"] < 1e-10, (m, mp)
        assert r["raised_number"] < 1e-10, (m, mp)
        assert r["spectrum_min"] > 0.0, (m, mp)
        # C = 1/|sin(gamma0 m x m')|
        assert_allclose(osc.shift_constant,
                        1.0 / abs(np.sin(dim.gamma0 * osc.cross)), atol=1e-12)


def test_collinear_pair_rejected():
    dim = make_dimension(5)
    with pytest.raises(CollinearVectorsError):
        build_q_oscillator(dim, (1, 0), (2, 0))
    with pytest.raises(CollinearVectorsError):
        build_q_oscillator(dim, (1, 2), (2, 4))


def test_every_d2_pair_is_singular():
    dim = make_dimension(2)
    hit = 0
    for m, mp in noncollinear_pairs(dim):
        with pytest.raises(SingularDeformationError):
            build_q_oscillator(dim, m, mp)
        hit += 1
    assert hit > 0


def test_wrong_sign_choice_breaks_number_relation():
    dim = make_dimension(5)
    osc = build_q_oscillator(dim, (1, 0), (0, 1))
    flipped = build_q_oscillator(dim, (1, 0), (0, 1), eta_override=-osc.eta)
    assert oscillator_residuals(flipped)["number"] > 1e-3


@pytest.mark.parametrize("d", [3, 5, 7])
def test_no_lowest_weight_vector_odd_dimension(d):
    dim = make_dimension(d)
    for m, mp in noncollinear_pairs(dim)[:20]:
        rep = lowest_weight_scan(dim, m, mp)
        assert not rep.has_solution
        assert rep.margin > 0.0
        assert rep.irreducible


def test_swapped_pair_shares_spectrum():
    dim = make_dimension(7)
    a = build_q_oscillator(dim, (1, 2), (2, 1))
    b = build_q_oscillator(dim, (2, 1), (1, 2))
    assert_allclose(a.shift_constant, b.shift_constant, atol=1e-13)
    assert_allclose(np.sort(a.spectrum), np.sort(b.spectrum), atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_eigenbasis_correspondence_exact_laws(d):
    dim = make_dimension(d)
    for m, mp in [((1, 0), (0, 1)), ((1, 1), (0, 1))]:
        osc = build_q_oscillator(dim, m, mp)
        corr = eigenbasis_correspondence(osc)
        assert corr.eq_amplitude_residual < 1e-10
        assert corr.product_law_residual < 1e-10
        assert corr.unit_shift_ok
        # componentwise unimodularity of the two coupling phase sequences
        assert_allclose(np.abs(corr.g_phases), 1.0, atol=1e-12)
        assert_allclose(np.abs(corr.f_phases), 1.0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_sl2_defining_relations(d):
    dim = make_dimension(d)
    for m, mp in noncollinear_pairs(dim)[:24]:
        o = build_uq_sl2(dim, m, mp)
        r = sl2_residuals(o)
        for key in ("exponential", "intertwine", "intertwine_dag", "commutator",
                    "ladder", "casimir_forms", "casimir_value", "casimir_central"):
            assert r[key] < 1e-12, (d, m, mp, key, r[key])


def test_casimir_is_nonzero_constant():
    dim = make_dimension(5)
    o = build_uq_sl2(dim, (1, 0), (0, 1))
    c1, c2, const = casimir_uq_sl2(o)
    assert_allclose(const, 1.0 / np.sin(np.pi * o.cross / 5) ** 2, atol=1e-12)
    assert const > 1.0
    assert_allclose(c1, const * np.eye(5), atol=1e-12)
    assert_allclose(c2, const * np.eye(5), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_coproduct_closes_with_alternating_sign(d):
    rep = coproduct_check(make_dimension(d), (1, 0), (0, 1))
    assert rep.closure < 1e-10
    assert rep.intertwine < 1e-10
    assert rep.intertwine_dag < 1e-10


def test_coproduct_naive_sign_fails():
    rep = coproduct_check(make_dimension(3), (1, 0), (0, 1), alternate_sign=False)
    assert rep.closure > 1e-2


def test_coproduct_guards():
    with pytest.raises(DimensionTooLargeError):
        coproduct_check(make_dimension(11), (1, 0), (0, 1))
    with pytest.raises(ValueError):
        # different cross values cannot be combined
        coproduct_check(make_dimension(5), (1, 0), (0, 1), second=((2, 0), (0, 1)))


def test_translated_lattice_shifts_deformation():
    dim = make_dimension(5)
    rep = translated_lattice_deformation(dim, (1, 0), (0, 1), (1, 1))
    assert rep.residual < 1e-12
    assert rep.delta_alpha == lattice_cross((1, 1), (1, -1))
    o = build_uq_sl2(dim, (1, 0), (0, 1))
    assert_allclose(rep.p_new, o.p * np.exp(1j * dim.gamma0 * rep.delta_alpha), atol=1e-12)


def test_translated_lattice_can_become_collinear():
    # at D=3 the unit translation makes the standard pair collinear
    with pytest.raises(CollinearVectorsError):
        translated_lattice_deformation(make_dimension(3), (1, 0), (0, 1), (1, 1))


# -- stacked sweeps ------------------------------------------------------------

def pair_arrays(dim):
    pairs = noncollinear_pairs(dim)
    return (np.array([m for m, _ in pairs]), np.array([mp for _, mp in pairs]))


def per_pair_worst(dim, m, mp, build, residuals):
    """Worst residuals, built and skipped counts of a per-pair loop, as suite_* had it."""
    worst, built, skipped = {}, 0, 0
    for a, b in zip(m, mp):
        try:
            res = residuals(build(dim, a, b))
        except (SingularDeformationError, DegenerateSpectrumError, PhaseMismatchError):
            skipped += 1
            continue
        built += 1
        for k, v in res.items():
            if k == "spectrum_min":
                worst[k] = min(worst.get(k, np.inf), v)
            else:
                worst[k] = max(worst.get(k, 0.0), v)
    return worst, built, skipped


def assert_sweeps_match_per_pair(dim, m, mp):
    for sweep, build, residuals in ((oscillator_sweep, build_q_oscillator, oscillator_residuals),
                                    (sl2_sweep, build_uq_sl2, sl2_residuals)):
        rep = sweep(dim, m, mp)
        worst, built, skipped = per_pair_worst(dim, m, mp, build, residuals)
        assert (rep.built, rep.skipped) == (built, skipped), (dim.d, sweep.__name__)
        assert rep.worst == worst, (dim.d, sweep.__name__)   # bit-equal, same keys
        assert list(rep.worst) == list(worst)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9])
def test_sweeps_equal_per_pair_loops(d):
    dim = make_dimension(d)
    assert_sweeps_match_per_pair(dim, *pair_arrays(dim))


def test_sweeps_equal_per_pair_loops_on_a_sample():
    dim = make_dimension(11)
    m, mp = pair_arrays(dim)
    idx = np.random.default_rng(5).choice(len(m), size=40, replace=False)
    assert_sweeps_match_per_pair(dim, m[idx], mp[idx])


@pytest.mark.parametrize("sweep, build, residuals, key", [
    (oscillator_sweep, build_q_oscillator, oscillator_residuals, "number"),
    (sl2_sweep, build_uq_sl2, sl2_residuals, "casimir_central"),
])
def test_sweep_reaches_every_block_position(sweep, build, residuals, key):
    # the worst pair, moved to each block edge among strictly smaller pairs
    dim = make_dimension(5)
    m, mp = pair_arrays(dim)
    values = np.array([residuals(build(dim, a, b))[key] for a, b in zip(m, mp)])
    top = int(np.argmax(values))
    rest = np.flatnonzero(values < values[top])
    step = deformed._BLOCK_ENTRIES // dim.d ** 2
    assert len(rest) > 2 * step
    for pos in (0, step - 1, step, 2 * step - 1, 2 * step, len(rest)):
        order = np.insert(rest, pos, top)
        assert sweep(dim, m[order], mp[order]).worst[key] == values[top], pos


def test_sl2_sweep_branch_refusals_match_builder(monkeypatch):
    # no window pair up to D = 16 has a branch phase off +-1; a tolerance
    # below rounding makes most pairs refuse, to exercise that path
    dim = make_dimension(9)
    m, mp = pair_arrays(dim)
    labelled = sl2_sweep(dim, m, mp).built
    monkeypatch.setattr(deformed, "_BRANCH_TOL", 1e-16)
    assert 0 < sl2_sweep(dim, m, mp).built < labelled
    assert_sweeps_match_per_pair(dim, m, mp)
    dim = make_dimension(5)
    m, mp = pair_arrays(dim)
    with pytest.raises(PhaseMismatchError) as swept:
        sl2_sweep(dim, m, mp)

    def refusal(a, b):
        try:
            build_uq_sl2(dim, a, b)
        except PhaseMismatchError as exc:
            return str(exc)
        return None
    assert str(swept.value) == next(r for r in map(refusal, m, mp) if r is not None)


def test_coefficient_uses_scalar_pow():
    # numpy's vectorized x ** -0.5 differs from the scalar one in the last
    # bit at c = 7 and 22 (D = 13); stacked coefficients must not
    dim = make_dimension(13)
    for c in (7, 22, 77):
        osc = build_q_oscillator(dim, (1, 0), (0, c))
        assert osc.d_coef == (2.0 * abs(np.sin(dim.gamma0 * c))) ** -0.5


def test_sweep_skips_what_the_builders_refuse():
    dim = make_dimension(4)
    m, mp = pair_arrays(dim)
    for sweep, build in ((oscillator_sweep, build_q_oscillator), (sl2_sweep, build_uq_sl2)):
        mask = sweep(dim, m, mp).built_mask
        for a, b, flag in zip(m, mp, mask):
            try:
                build(dim, a, b)
                refused = False
            except (SingularDeformationError, DegenerateSpectrumError, PhaseMismatchError):
                refused = True
            assert flag == (not refused), (sweep.__name__, a, b)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lowest_weight_sweep_matches_scan(d):
    dim = make_dimension(d)
    m, mp = pair_arrays(dim)
    has = [lowest_weight_scan(dim, a, b).has_solution for a, b in zip(m, mp)]
    first = has.index(True) if any(has) else None
    assert lowest_weight_sweep(dim, m, mp) == first
    last = len(has) - 1 - has[::-1].index(True) if any(has) else None
    rev = lowest_weight_sweep(dim, m[::-1], mp[::-1])
    assert (None if rev is None else len(has) - 1 - rev) == last


def test_sweeps_build_no_single_pair(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-pair builder called inside a sweep")
    monkeypatch.setattr(deformed, "build_q_oscillator", refuse)
    monkeypatch.setattr(deformed, "build_uq_sl2", refuse)
    dim = make_dimension(5)
    m, mp = pair_arrays(dim)
    assert oscillator_sweep(dim, m, mp).built == len(m)
    assert sl2_sweep(dim, m, mp).built == len(m)


def test_suite_qosc_builds_few_single_pairs(monkeypatch):
    calls = []
    real = deformed.build_q_oscillator
    monkeypatch.setattr(deformed, "build_q_oscillator",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    for d in (4, 7):
        calls.clear()
        verify.suite_qosc(make_dimension(d))
        assert 0 < len(calls) <= 10, (d, len(calls))


def test_sweep_rejects_collinear_pair():
    dim = make_dimension(5)
    with pytest.raises(CollinearVectorsError):
        oscillator_sweep(dim, [(1, 0), (1, 2)], [(0, 1), (2, 4)])
    with pytest.raises(CollinearVectorsError):
        lowest_weight_sweep(dim, [(1, 2)], [(2, 4)])


def test_sweep_blocks_stay_small():
    """suite_qosc + suite_sl2 at D=13 (~26k pairs each) stay within a few MB."""
    dim = make_dimension(13)
    tracemalloc.start()
    try:
        verify.suite_qosc(dim)
        verify.suite_sl2(dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
