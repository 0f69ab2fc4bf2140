import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from basis_oracle import window_vectors
from coproduct_oracle import kron_coproduct, signed_sigma, unsigned_sigma
from deformed_oracle import RECORDED, dag, sl2_bracket, sl2_realisation
from torusphase import (
    CollinearVectorsError,
    DegenerateSpectrumError,
    SingularDeformationError,
    build_q_oscillator,
    coproduct_check,
    eigensystem_by_recursion,
    lattice_cross,
    make_dimension,
    schwinger_matrix,
    translated_lattice_deformation,
)
from torusphase import deformed, verify
from torusphase.deformed import bracket_values, oscillator_sweep, sl2_sweep
from torusphase.lattice import _CHECKED_ENTRIES, Sampler, _phase, _phase_cross


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
        r = oscillator_sweep(dim, [m], [mp]).worst
        assert r["number"] < 1e-10, (m, mp)
        assert r["q_exponential"] < 1e-10, (m, mp)
        assert r["ladder"] < 1e-10, (m, mp)
        assert r["raised_number"] < 1e-10, (m, mp)
        assert r["spectrum_min"] > 0.0, (m, mp)
        # C = 1/|sin(gamma0 m x m')|
        assert_allclose(osc.shift_constant,
                        1.0 / abs(np.sin(dim.gamma0 * osc.cross)), atol=1e-12)


@pytest.mark.parametrize("m, mp", [((12345678901234567890, 1), (0, 1)),
                                   ((4000000000, 1), (1, 4000000001)),
                                   ((1, 0), (0, -(1 << 31)))])
def test_labels_from_2_to_the_31_are_refused(m, mp):
    dim = make_dimension(5)
    for build in (build_q_oscillator, coproduct_check):
        with pytest.raises(ValueError, match="2\\^31"):
            build(dim, m, mp)
    with pytest.raises(ValueError, match="2\\^31"):
        oscillator_sweep(dim, np.array([m], dtype=object), np.array([mp], dtype=object))


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
    # opposite_min is the number row of the pair's own eta and d' both negated
    dim = make_dimension(5)
    m, mp = np.array([(1, 0)]), np.array([(0, 1)])
    eta, d_coef, dp_coef, C = deformed._oscillator_coefs(dim, m, mp)
    flipped = deformed._oscillator_rows(dim, m, mp, -eta, d_coef, -dp_coef, C)
    assert flipped["number"][0] == oscillator_sweep(dim, m, mp).worst["opposite_min"] > 1e-3


@pytest.mark.parametrize("d", [3, 5, 7])
def test_no_lowest_weight_vector_odd_dimension(d):
    dim = make_dimension(d)
    rep = oscillator_sweep(dim, *pair_arrays(dim))
    assert rep.built == len(noncollinear_pairs(dim))
    assert rep.worst["spectrum_min"] >= 1e-9


@pytest.mark.parametrize("d, m, mp", [(31, (-51, -25), (-20, 54)), (211, (-300, 17), (95, -260))])
def test_oscillator_bracket_takes_the_reduced_cross(d, m, mp):
    # with the unreduced cross (-3254 and 76385) the sine arguments read
    # 9.4e-12 and 9.9e-10 off the spectrum here
    dim = make_dimension(d)
    o = build_q_oscillator(dim, m, mp)
    bracket = bracket_values(dim, _phase_cross(d, o.cross), np.arange(d))
    assert np.abs(o.spectrum - (o.shift_constant + bracket)).max() <= 1e-14


def test_swapped_pair_shares_spectrum():
    dim = make_dimension(7)
    a = build_q_oscillator(dim, (1, 2), (2, 1))
    b = build_q_oscillator(dim, (2, 1), (1, 2))
    assert_allclose(a.shift_constant, b.shift_constant, atol=1e-13)
    assert_allclose(np.sort(a.spectrum), np.sort(b.spectrum), atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_eigenbasis_correspondence_exact_laws(d):
    # verify's correspondence rows are the sweep's number (amplitude) and
    # q_exponential (product law) rows; here both laws are taken on the
    # weights g, f with numpy's own exponential
    dim = make_dimension(d)
    m, mp = np.array([(1, 0), (1, 1)]), np.array([(0, 1), (0, 1)])
    worst = oscillator_sweep(dim, m, mp).worst
    assert max(worst[k] for k in ("number", "q_exponential", "ladder")) < 1e-10
    for a, b in zip(m, mp):
        osc = build_q_oscillator(dim, a, b)
        g, f, op = (x[0] for x in deformed._ladder_weights(d, a[None], b[None]))
        assert op == 0.0
        # componentwise unimodularity of the two coupling phase sequences
        assert_allclose(np.abs(g), 1.0, atol=1e-12)
        assert_allclose(np.abs(f), 1.0, atol=1e-12)
        # the weights are in the order of n: column n is the eigenvector r = c n
        n = np.arange(d)
        assert_allclose(np.abs(osc.d_coef * g + osc.dp_coef * f) ** 2, osc.spectrum, atol=1e-12)
        # g conj(f) = -eta conj(E)^2 with E = e^{i gamma0 c (n + (D-1)/2) / 2}
        law = -osc.eta * np.exp(-1j * np.pi * osc.cross * (2 * n + d - 1) / d)
        assert_allclose(g * np.conj(f), law, atol=1e-12)
        assert np.array_equal(osc.n_values[osc.cross * n % d], n)
        assert np.array_equal(osc.n_values[(n + osc.cross) % d], (osc.n_values + 1) % d)


@pytest.mark.parametrize("d", [3, 4, 6, 8, 9, 31])
def test_recorded_claims_are_the_per_pair_phases(d):
    # the per-pair form of the two recorded claims, with E at the exact cross
    # value: at even D, E has period 4D in c, and the reduced c flips its sign
    dim = make_dimension(d)
    m, mp = verify._swept_pairs(dim, d, 60)
    m, mp = (np.concatenate([x, x + 5 * d * np.array([1, -2])]) for x in (m, mp))
    built = oscillator_sweep(dim, m, mp).built_mask
    claims = []
    for a, b in zip(m[built], mp[built]):
        osc = build_q_oscillator(dim, a, b)
        g, f, _ = deformed._ladder_weights(d, a[None], b[None])
        lam = deformed._sw_values(d, _phase_cross(d, np.array([osc.cross])), g, f)[0]
        g, f, n = g[0], f[0], np.arange(d)
        E = _phase(2 * d, osc.cross * (2 * n + d - 1)).conj()
        claim = (max(np.abs(g - E).max(), np.abs(g - np.conj(f)).max()),
                 np.abs(np.conj(lam) - _phase(d, (2 * n - d) * osc.cross).conj()).max())
        res = deformed.oscillator_claims(dim, a[None], b[None])
        assert (res["literal_phase"], res["exponent_claim"]) == claim
        claims.append(claim)
    assert built.sum() > 0
    worst = tuple(np.max(claims, axis=0))
    res = deformed.oscillator_claims(dim, m, mp)
    assert (res["literal_phase"], res["exponent_claim"]) == worst
    assert set(RECORDED) & set(oscillator_sweep(dim, m, mp).worst) == {"spectrum_min",
                                                                       "opposite_min"}


def test_suite_qosc_takes_the_claims_of_its_correspondence_pairs_only(monkeypatch):
    # the recorded claims are computed on the five correspondence pairs, not
    # on every swept pair
    seen = []
    claims = deformed.oscillator_claims
    monkeypatch.setattr(deformed, "oscillator_claims",
                        lambda dim, m, mp: seen.append(len(m)) or claims(dim, m, mp))
    for d in (4, 7, 9):
        seen.clear()
        rows = {r.name: r for r in verify.suite_qosc(make_dimension(d))}
        assert seen == [5], (d, seen)
        assert rows["correspondence_literal_phase"].kind == "info"


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_sl2_defining_relations(d):
    dim = make_dimension(d)
    for m, mp in noncollinear_pairs(dim)[:24]:
        rep = sl2_sweep(dim, [m], [mp])
        assert rep.built == 1, (d, m, mp)
        r = rep.worst
        for key in ("exponential", "intertwine", "intertwine_dag", "commutator",
                    "ladder", "casimir_forms", "casimir_value", "casimir_central"):
            assert r[key] < 1e-12, (d, m, mp, key, r[key])


def test_casimir_is_nonzero_constant():
    dim = make_dimension(5)
    res = sl2_sweep(dim, [(1, 0)], [(0, 1)]).worst
    assert res["casimir_forms"] < 1e-12 and res["casimir_value"] < 1e-12
    # C1 = A^dag A + [(J3 + D/2 - 1/2)/2]^2 and C2 = A A^dag + [(J3 + D/2 + 1/2)/2]^2
    # from the dense realization
    o = sl2_realisation(dim, (1, 0), (0, 1))
    V, j3, A, Ad = o.eigenvectors, o.j3_values, o.lowering, dag(o.lowering)
    c1 = Ad @ A + (V * sl2_bracket(dim, o.cross, (j3 + 2.5 - 0.5) / 2.0) ** 2) @ V.conj().T
    c2 = A @ Ad + (V * sl2_bracket(dim, o.cross, (j3 + 2.5 + 0.5) / 2.0) ** 2) @ V.conj().T
    const = 1.0 / np.sin(np.pi * o.cross / 5) ** 2
    assert const > 1.0
    assert_allclose(c1, const * np.eye(5), atol=1e-12)
    assert_allclose(c2, const * np.eye(5), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_coproduct_closes_with_alternating_sign(d):
    rep = coproduct_check(make_dimension(d), (1, 0), (0, 1))
    assert rep.closure < 1e-10
    assert rep.intertwine < 1e-10
    assert rep.intertwine_dag < 1e-10


@pytest.mark.parametrize("d", range(2, 14))
def test_coproduct_matches_the_kronecker_oracle(d):
    # closure FAILs at even D >= 4 on both forms, with values taken in different bases
    dim = make_dimension(d)
    rep = coproduct_check(dim, (1, 0), (0, 1))
    o = sl2_realisation(dim, (1, 0), (0, 1))
    oracle = kron_coproduct(o, signed_sigma(o))
    assert rep.delta == o.delta and rep.cross == o.cross
    for key, value in oracle.items():
        assert (getattr(rep, key) < 1e-10) == (value < 1e-10), (d, key, getattr(rep, key), value)
        if d % 2 == 1:
            assert getattr(rep, key) < 1e-13, (d, key, getattr(rep, key))
    assert (rep.closure > 0.1) == (d % 2 == 0 and d >= 4)


def test_coproduct_naive_sign_fails(monkeypatch):
    o = sl2_realisation(make_dimension(3), (1, 0), (0, 1))
    assert kron_coproduct(o, unsigned_sigma(o))["closure"] > 1e-2
    monkeypatch.setattr(deformed, "_sigma_values",
                        lambda d, c, nv, delta: _phase(2 * d, deformed._j3_turns(c, nv, delta)))
    assert coproduct_check(make_dimension(3), (1, 0), (0, 1)).closure > 1e-2


_SIGMA, _EXPONENT = deformed._sigma_values, deformed._column_exponent


def _wrong_sigma(*args):
    x = _SIGMA(*args)
    x[0, 1] += 1e-6
    return x


def _wrong_exponent(*args):
    # the exponent of one entry of S_m, so of A = d (S_m + S_m'), off by one
    t = np.array(_EXPONENT(*args))
    t[(0,) * (t.ndim - 1) + (1,)] += 1
    return t


# at D = 2 [A, A^dag] = 0 on v_r and the two shifted parts cancel, so the
# closure does not depend on sigma there, on either form
@pytest.mark.parametrize("d, name, wrong", [
    (3, "_sigma_values", _wrong_sigma), (7, "_sigma_values", _wrong_sigma),
    (2, "_column_exponent", _wrong_exponent), (7, "_column_exponent", _wrong_exponent),
])
def test_coproduct_closure_shows_a_wrong_sigma_or_a_entry(monkeypatch, d, name, wrong):
    monkeypatch.setattr(deformed, name, wrong)
    assert coproduct_check(make_dimension(d), (1, 0), (0, 1)).closure > 1e-7


def test_coproduct_at_d401_is_quick():
    dim = make_dimension(401)
    coproduct_check(dim, (1, 0), (0, 1))
    start = time.perf_counter()
    rep = coproduct_check(dim, (1, 0), (0, 1))
    assert time.perf_counter() - start < 1.0
    assert max(rep.closure, rep.intertwine, rep.intertwine_dag) < 1e-10


def test_class_sweeps_at_d1009_take_o_d_per_pair():
    # the weights come from the labels: each sweep over the class
    # representatives takes 0.3-0.95 s on a 2-vCPU host, where the O(D^2)
    # scan of dense eigenvectors took 90-170 s; the bound leaves room for a
    # slower host, not for an O(D^2) path
    d = 1009
    dim = make_dimension(d)
    for sweep, families in ((oscillator_sweep, verify._QOSC_FAMILIES),
                            (sl2_sweep, verify._SL2_FAMILIES)):
        m, mp = verify._representatives(d, families)
        start = time.perf_counter()
        report = sweep(dim, m, mp)
        assert time.perf_counter() - start < 5.0, sweep.__name__
        assert report.built == len(m) == 2 * len(families) * (d - 1)


def test_translated_lattice_shifts_deformation():
    dim = make_dimension(5)
    rep = translated_lattice_deformation(dim, (1, 0), (0, 1), (1, 1))
    assert rep.residual < 1e-12
    assert rep.delta_alpha == lattice_cross((1, 1), (1, -1))
    o = sl2_realisation(dim, (1, 0), (0, 1))
    assert_allclose(rep.p_new, o.p * np.exp(1j * dim.gamma0 * rep.delta_alpha), atol=1e-12)


def _dense_translated_residual(dim, m, mp, r):
    """max|A S_w - p' S_w A| from the dense A of the translated pair and the dense S_w."""
    o = sl2_realisation(dim, (m[0] + r[0], m[1] + r[1]), (mp[0] + r[0], mp[1] + r[1]))
    A, Sw = o.lowering, schwinger_matrix(dim, np.subtract(m, mp))
    p_new = _phase(dim.d, 2 * (lattice_cross(m, mp) - lattice_cross(r, np.subtract(m, mp))))
    return np.abs(A @ Sw - p_new * Sw @ A).max()


@pytest.mark.parametrize("d", range(3, 14))
def test_translated_residual_matches_the_dense_oracle(d):
    dim = make_dimension(d)
    checked = 0
    for m, mp in (((1, 0), (0, 1)), ((2, 1), (-1, 3)), ((-7, 4), (5, 9))):
        for r in ((1, 0), (1, 1), (2, 1), (-3, 5), (4 * d + 1, -d)):
            try:
                rep = translated_lattice_deformation(dim, m, mp, r)
            except (CollinearVectorsError, DegenerateSpectrumError):
                continue
            dense = _dense_translated_residual(dim, m, mp, r)
            assert abs(rep.residual - dense) <= 1e-15, (d, m, mp, r, rep.residual, dense)
            assert rep.residual < 1e-13
            checked += 1
    assert checked, d


def test_a_wrong_deformation_shows_in_the_translated_residual(monkeypatch):
    monkeypatch.setattr(deformed, "_phase", lambda d, t: _phase(d, np.asarray(t) + 1))
    assert translated_lattice_deformation(make_dimension(7), (1, 0), (0, 1), (1, 1)).residual > 0.1


def test_translated_lattice_can_become_collinear():
    # at D=3 the unit translation makes the standard pair collinear
    with pytest.raises(CollinearVectorsError):
        translated_lattice_deformation(make_dimension(3), (1, 0), (0, 1), (1, 1))


# -- stacked sweeps ------------------------------------------------------------

def pair_arrays(dim):
    pairs = noncollinear_pairs(dim)
    return (np.array([m for m, _ in pairs]), np.array([mp for _, mp in pairs]))


def oscillator_of_one_pair(dim, a, b):
    """The worst residuals of the one-pair oscillator sweep; None where it skips the pair."""
    rep = oscillator_sweep(dim, [a], [b])
    return rep.worst if rep.built else None


def sl2_of_one_pair(dim, a, b):
    """The worst residuals of the one-pair sl(2) sweep; None where it skips the pair."""
    rep = sl2_sweep(dim, [a], [b])
    return rep.worst if rep.built else None


def per_pair_worst(dim, m, mp, one_pair):
    """Worst residuals, built and skipped counts of a per-pair loop, as suite_* had it."""
    worst, built, skipped = {}, 0, 0
    for a, b in zip(m, mp):
        res = one_pair(dim, a, b)
        if res is None:
            skipped += 1
            continue
        built += 1
        for k, v in res.items():
            if k.endswith("_min"):
                worst[k] = min(worst.get(k, np.inf), v)
            else:
                worst[k] = max(worst.get(k, 0.0), v)
    return worst, built, skipped


def assert_sweeps_match_per_pair(dim, m, mp):
    for sweep, one_pair in ((oscillator_sweep, oscillator_of_one_pair),
                            (sl2_sweep, sl2_of_one_pair)):
        rep = sweep(dim, m, mp)
        worst, built, skipped = per_pair_worst(dim, m, mp, one_pair)
        assert (rep.built, len(m) - rep.built) == (built, skipped), (dim.d, sweep.__name__)
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


@pytest.mark.parametrize("sweep, one_pair, key", [
    (oscillator_sweep, oscillator_of_one_pair, "number"),
    (sl2_sweep, sl2_of_one_pair, "casimir_central"),
])
def test_sweep_reaches_every_block_position(monkeypatch, sweep, one_pair, key):
    # the worst pair, moved to each block edge among strictly smaller pairs,
    # with blocks of 40 pairs
    dim = make_dimension(5)
    m, mp = pair_arrays(dim)
    values = np.array([one_pair(dim, a, b)[key] for a, b in zip(m, mp)])
    top = int(np.argmax(values))
    rest = np.flatnonzero(values < values[top])
    step = 40
    monkeypatch.setattr(deformed, "_BLOCK_ENTRIES", step * dim.d)
    assert len(rest) > 2 * step
    for pos in (0, step - 1, step, 2 * step - 1, 2 * step, len(rest)):
        order = np.insert(rest, pos, top)
        assert sweep(dim, m[order], mp[order]).worst[key] == values[top], pos


def test_coefficient_uses_scalar_pow():
    # numpy's vectorized x ** -0.5 differs from the scalar one in the last
    # bit at c = +-7 (D = 13, c reduced into [-D, D)); stacked coefficients
    # must not.  33 and -59 reduce to 7 and -7.
    dim = make_dimension(13)
    for c in (7, -7, 22, 33, 77, -59):
        osc = build_q_oscillator(dim, (1, 0), (0, c))
        reduced = (c + 13) % 26 - 13
        assert osc.d_coef == (2.0 * abs(np.sin(dim.gamma0 * reduced))) ** -0.5


def brute_force_spectrum_min(dim, m, mp) -> float:
    """min over pairs and n of C + [n], in numpy sines:
    1/|sin gamma0 c| + sin(gamma0 c (n + (D-1)/2)) / sin gamma0 c, which has
    period 2D in c, so c is taken into [-D, D) first."""
    c = (lattice_cross(m.T, mp.T)[:, None] + dim.d) % (2 * dim.d) - dim.d
    s = np.sin(dim.gamma0 * c)
    n = np.arange(dim.d) + (dim.d - 1) / 2.0
    return float((1.0 / np.abs(s) + np.sin(dim.gamma0 * c * n) / s).min())


@pytest.mark.parametrize("d", range(2, 10))
def test_lowest_weight_sweep_matches_scan(d):
    # the sweep's min f(n) over every buildable window pair is the brute-force
    # minimum: at odd D it stays above the no_lowest_weight bound, and at D = 6
    # a built pair has a lowest weight, C + [n] = 0, so the flag can fail
    dim = make_dimension(d)
    m, mp = pair_arrays(dim)
    rep = oscillator_sweep(dim, m, mp)
    if d == 2:
        assert rep.built == 0 and rep.worst == {}
        return
    low = rep.worst["spectrum_min"]
    assert abs(low - brute_force_spectrum_min(dim, m[rep.built_mask], mp[rep.built_mask])) <= 1e-14
    if d % 2 == 1:
        assert low >= 1e-9
    if d == 6:
        assert low < 1e-9


def test_sweeps_build_no_single_pair(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-pair builder called inside a sweep")
    monkeypatch.setattr(deformed, "build_q_oscillator", refuse)
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
        sl2_sweep(dim, [(1, 2)], [(2, 4)])


def test_sweep_blocks_stay_small():
    """Both sweeps over every window pair at D=13 (~26k pairs) stay within a few MB."""
    dim = make_dimension(13)
    m, mp = pair_arrays(dim)
    tracemalloc.start()
    try:
        oscillator_sweep(dim, m, mp)
        sl2_sweep(dim, m, mp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_sweep_holds_one_block_and_few_eigensystems():
    """A sweep keeps nothing beyond its block of (pairs, D) arrays and builds
    no eigensystem, so the traced peak of a sweep over ~360 distinct w is at
    most the peak of a one-block sweep plus four D x D eigensystems' worth,
    and its worst values are the worst of its one-pair sweeps."""
    d = 31
    dim = make_dimension(d)
    m, mp = np.random.default_rng(8).integers(-2 * d, 2 * d, (2, 600, 2))
    keep = lattice_cross(m.T, mp.T) % d != 0
    m, mp = m[keep], mp[keep]
    assert len(set(map(tuple, ((m - mp) % d).tolist()))) > 300
    expected = {k: max(sl2_of_one_pair(dim, a, b)[k] for a, b in zip(m, mp))
                for k in ("exponential", "casimir_central")}

    def traced_peak(pairs):
        tracemalloc.start()
        try:
            report = sl2_sweep(dim, m[:pairs], mp[:pairs])
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # warm every first-call allocation (code objects, numpy internals) of the
    # full sweep, which the one-block run alone would not
    sl2_sweep(dim, m, mp)
    _, block = traced_peak(max(1, deformed._BLOCK_ENTRIES // d))
    report, peak = traced_peak(len(m))
    assert {k: report.worst[k] for k in expected} == expected
    assert report.built == len(m)
    assert peak <= block + 4 * (d * d + d) * 16, (peak, block)


def test_sl2_unreduced_labels_are_as_precise_as_reduced_ones():
    # c = -3254 = 32 mod 62; phases from the unreduced c gave casimir_central 1.03e-9
    dim = make_dimension(31)
    rep = sl2_sweep(dim, [(-51, -25)], [(-20, 54)])
    assert rep.built == 1 and max(rep.worst.values()) < 1e-11, rep.worst
    assert build_q_oscillator(dim, (-51, -25), (-20, 54)).cross == -3254
    res = oscillator_sweep(dim, [(-51, -25)], [(-20, 54)]).worst
    assert max(v for k, v in res.items() if k not in RECORDED) < 1e-11


def test_sl2_ladder_wraps_inside_an_offset_window():
    # delta = D/(2c) = 31/6: n + delta - delta rounds below n = 30, and the wrap
    # taken from it missed, a ladder residual of ~100
    dim, m, mp = make_dimension(31), np.array([(-24, 51)]), np.array([(7, -15)])
    assert deformed.sl2_coefficients(dim, m, mp)[2][0] == 31 / 6
    rep = sl2_sweep(dim, m, mp)
    assert rep.built == 1 and rep.worst["ladder"] < 1e-9


def refusal_reason(dim, a, b, build=build_q_oscillator):
    """The refusal of build(dim, a, b) by its error, or None where it builds."""
    try:
        build(dim, a, b)
    except SingularDeformationError:
        return "singular"
    except DegenerateSpectrumError as exc:
        return "non-invertible" if "not invertible" in str(exc) else "degenerate"
    return None


def assert_skips_follow_the_builder(d, sweep, build, reasons):
    """Per pair, the sweep skips where the builder refuses, counted by its reason."""
    dim = make_dimension(d)
    m, mp = pair_arrays(dim)
    if d == 15:
        # a builder takes ~6 s over all 45840 pairs; a seeded sample
        idx = np.random.default_rng(15).choice(len(m), size=3000, replace=False)
        m, mp = m[idx], mp[idx]
    report = sweep(dim, m, mp)
    found = [refusal_reason(dim, a, b, build) for a, b in zip(m, mp)]
    assert report.built_mask.tolist() == [r is None for r in found]
    assert report.skips == {r: found.count(r) for r in reasons}
    assert sum(report.skips.values()) == len(m) - report.built


@pytest.mark.parametrize("d", [4, 6, 9, 15])
def test_oscillator_sweep_counts_skips_by_the_builders_reason(d):
    assert_skips_follow_the_builder(d, oscillator_sweep, build_q_oscillator,
                                    ("singular", "degenerate", "non-invertible"))


@pytest.mark.parametrize("d", [4, 6, 9, 15])
def test_sl2_sweep_counts_skips_by_the_builders_reason(d):
    # the untranslated pair is the sl(2) label pass of one pair, which raises each refusal
    def untranslated(dim, a, b):
        return translated_lattice_deformation(dim, a, b, (0, 0))
    assert_skips_follow_the_builder(d, sl2_sweep, untranslated, ("degenerate", "non-invertible"))


def test_branch_sign_is_the_dense_branch_phase():
    # phi0 = <v_0|S_w|v_0> / s_p from dense S_w, on every buildable window pair
    # at D = 2..16 and on seeded unreduced pairs; the builder's delta follows it
    for d in range(2, 17):
        dim = make_dimension(d)
        m, mp = pair_arrays(dim)
        um, ump = np.random.default_rng(d).integers(-4 * d, 4 * d, (2, 400, 2))
        keep = lattice_cross(um.T, ump.T) % d != 0
        m, mp = np.concatenate([m, um[keep]]), np.concatenate([mp, ump[keep]])
        built = deformed._label_pass(dim, m, mp, deformed._SL2_REASONS).built
        m, mp = m[built], mp[built]
        c, w = lattice_cross(m.T, mp.T), m - mp
        dense = {}
        for x in set(map(tuple, w.tolist())):
            v0 = eigensystem_by_recursion(dim, x).eigenvectors[:, 0]
            dense[x] = v0.conj() @ schwinger_matrix(dim, x) @ v0
        phi0 = np.array([dense[x] for x in map(tuple, w.tolist())]) * (-1.0) ** (c % 2)
        assert np.abs(phi0 - deformed._branch_sign(d, c, w)).max() < 1e-12, d
        deltas = deformed.sl2_coefficients(dim, m[-20:], mp[-20:])[2]
        for a, b, phase, got in zip(m[-20:], mp[-20:], phi0[-20:], deltas):
            reduced = (lattice_cross(a, b) + d) % (2 * d) - d
            assert got == (d / (2.0 * reduced) if phase.real < 0 else 0.0), (d, a, b)


def test_a_flipped_branch_sign_fails_the_exponential_row(monkeypatch):
    branch_sign = deformed._branch_sign
    monkeypatch.setattr(deformed, "_branch_sign", lambda d, c, w: -branch_sign(d, c, w))
    rows = {r.name: r for r in verify.suite_sl2(make_dimension(7))}
    assert rows["exponential"].value > 0.1


def test_qosc_note_names_each_skip_reason():
    rows = {r.name: r for r in verify.suite_qosc(make_dimension(9))}
    assert rows["number"].note == "3240 pairs, 1296 degenerate, 1080 non-invertible skipped"
    assert rows["ladder"].note == rows["number"].note
    rows = {r.name: r for r in verify.suite_qosc(make_dimension(7))}
    assert rows["number"].note == "12 class representatives, 64 window pairs by conjugation"
    report = sl2_sweep(make_dimension(7), *pair_arrays(make_dimension(7)))
    assert report.skips == {"degenerate": 0, "non-invertible": 0}


@pytest.mark.parametrize("d", [4, 6, 8])
def test_oscillator_identities_hold_at_even_dimension(d):
    # eta carries the reduction sign of w at even D; without it 28 of the
    # 80 buildable pairs at D = 4 missed by O(1)
    dim = make_dimension(d)
    worst = oscillator_sweep(dim, *pair_arrays(dim)).worst
    for key in ("number", "q_exponential", "ladder", "raised_number"):
        assert worst[key] < 1e-12, (key, worst[key])


def test_unreduced_labels_take_phases_from_the_reduced_cross_value():
    # c = -3254 and -588 agree mod 2D = 62; the unreduced c gave a product law
    # residual of 2.5e-12 against 5.7e-13
    dim = make_dimension(31)
    pairs = (((-51, -25), (-20, 54)), ((11, -25), (-20, -8)))
    a, b = (build_q_oscillator(dim, m, mp) for m, mp in pairs)
    assert a.q == b.q
    laws = [oscillator_sweep(dim, [m], [mp]).worst["q_exponential"] for m, mp in pairs]
    assert laws[0] <= laws[1] < 1e-13
    ta, tb = (translated_lattice_deformation(dim, m, mp, (1, 1)) for m, mp in pairs)
    assert ta.p_new == tb.p_new


# -- class sweeps at odd prime D ---------------------------------------------------

@pytest.mark.parametrize("d", [2, 4, 6, 9, 11])
def test_sampled_pairs_are_the_seeded_draw_from_the_full_list(d):
    dim = make_dimension(d)
    m, mp = verify._swept_pairs(dim, 0, None)
    size = min(40, len(m) - 1)
    for seed in (0, 3):
        idx = Sampler(seed).sample(len(m), size)
        sm, smp = verify._swept_pairs(dim, seed, size)
        assert (sm == m[idx]).all() and (smp == mp[idx]).all()


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9, 12, 16])
def test_every_pair_below_the_entry_bound_in_listing_order(d):
    # the index path over every index is the filtered D^2 x D^2 listing it replaced
    dim = make_dimension(d)
    vecs = np.array(window_vectors(dim))
    m, mp = np.repeat(vecs, len(vecs), axis=0), np.tile(vecs, (len(vecs), 1))
    keep = lattice_cross(m.T, mp.T) % d != 0
    assert len(m[keep]) * d * d <= _CHECKED_ENTRIES
    sm, smp = verify._swept_pairs(dim, 0, None)
    assert np.array_equal(sm, m[keep]) and np.array_equal(smp, mp[keep])


def test_composite_sweeps_above_the_entry_bound_take_a_seeded_sample():
    # every pair at D = 18 is 95526 pairs x D^2 entries, above 2^24
    d, seed = 18, 3
    dim = make_dimension(d)
    k = _CHECKED_ENTRIES // d**2
    m, mp = verify._swept_pairs(dim, seed, None)
    sm, smp = verify._swept_pairs(dim, seed, k)
    assert len(m) == k and np.array_equal(m, sm) and np.array_equal(mp, smp)
    note = f"{k} of 95526 window pairs, seeded sample"
    for suite in (verify.suite_qosc, verify.suite_sl2):
        rows = {r.name: r for r in suite(dim, seed=seed)}
        assert rows["ladder"].note.endswith(note), rows["ladder"].note


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_class_sweep_passes_where_the_exhaustive_sweep_passes(d):
    # the exhaustive sweep over every window pair is the oracle
    tol = 1e-10
    dim = make_dimension(d)
    m, mp = pair_arrays(dim)
    for suite, sweep in ((verify.suite_qosc, oscillator_sweep), (verify.suite_sl2, sl2_sweep)):
        rows = {r.name: r for r in suite(dim)}
        assert rows["orbit_conjugation"].value < tol
        exhaustive = sweep(dim, m, mp).worst
        for key, value in exhaustive.items():
            if key == "spectrum_min":
                assert rows["admissible_spectrum"].note == f"min f(n) = {value:.6f}"
            elif value < tol and key not in RECORDED:
                assert rows[key].value < tol, (suite.__name__, key)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_every_window_pair_conjugates_onto_a_swept_representative(d):
    dim = make_dimension(d)
    pairs = pair_arrays(dim)
    for families, coefs in ((verify._QOSC_FAMILIES, deformed.oscillator_coefficients),
                            (verify._SL2_FAMILIES, deformed.sl2_coefficients)):
        reps = verify._representatives(d, families)
        assert verify._orbit_conjugation(dim, coefs, pairs, reps) < 1e-12


@pytest.mark.parametrize("families", [(0,), (1,)])
def test_each_sl2_representative_family_is_needed(monkeypatch, families):
    monkeypatch.setattr(verify, "_SL2_FAMILIES", families)
    rows = {r.name: r for r in verify.suite_sl2(make_dimension(7))}
    assert rows["orbit_conjugation"].value > 0.1


def test_the_oscillator_builder_peaks_below_one_dense_matrix():
    """The oscillator builder returns label data and D-vectors only: at
    D = 1009 its traced peak stays below one complex D x D array (16.3 MB),
    where building the S_w eigenvectors as well peaked at 16.5 MB."""
    d = 1009
    dim = make_dimension(d)
    build_q_oscillator(dim, (1, 0), (0, 1))
    tracemalloc.start()
    try:
        build_q_oscillator(dim, (1, 0), (0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 16, peak
