"""The S_w eigenbasis checks of the deformed algebras against the dense oracle.

The dense section below is the stacked residual code the eigenbasis checks
replaced, kept as the reference: every identity as a D x D operator, V diag
V^dag products and ~16 matmuls per pair, the sl(2) pairs taken from
deformed_oracle.sl2_stack.  Its arithmetic differs, so the two agree to
rounding, not bit for bit: both must stay below 1e-12 wherever the algebra
holds, and both must read O(1) where a coefficient, sign or offset is wrong.
"""
import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from deformed_oracle import (RECORDED, Sl2Stack, dag, dense_fields, eigenvector_stack,
                             shift_weights, sl2_bracket, sl2_stack)
from torusphase import build_q_oscillator, make_dimension
from torusphase import deformed, schwinger, verify
from torusphase.deformed import (
    _branch_sign,
    _inverse_mod,
    _scalar_pow,
    bracket_values,
    oscillator_sweep,
    sl2_sweep,
)
from torusphase.lattice import Dimension, _phase_cross, _reduce, lattice_cross
from torusphase.schwinger import schwinger_stack

EPS = np.finfo(float).eps


# -- dense oracle -----------------------------------------------------------------

def _diag_stack(V, values) -> np.ndarray:
    """V diag(values) V^dag per pair."""
    return (V * values[:, None, :]) @ dag(V)


def _max_abs_stack(X) -> np.ndarray:
    """max_abs of each matrix of a stack."""
    return np.abs(X).max(axis=(1, 2))


def _stack_of_one(osc):
    """The stack of one pair: an oscillator's fields and its dense operators."""
    fields = vars(osc) | dense_fields(osc)
    return _OscillatorStack(osc.dim, *(np.asarray(fields[name])[None]
                                       for name in _OscillatorStack._fields[1:]))


class _OscillatorStack(NamedTuple):
    """P q-oscillators; each field as in QOscillator, with a leading pair axis."""

    dim: Dimension
    m: np.ndarray
    mp: np.ndarray
    cross: np.ndarray
    eta: np.ndarray
    d_coef: np.ndarray
    dp_coef: np.ndarray
    shift_constant: np.ndarray
    c_q: np.ndarray
    lowering: np.ndarray
    number_op: np.ndarray
    q_exponential: np.ndarray
    eigenvectors: np.ndarray
    n_values: np.ndarray
    spectrum: np.ndarray


def _oscillator_stack(dim: Dimension, m, mp, V, eta=None) -> _OscillatorStack:
    """Shifted q-oscillators on buildable pairs, with S_{m-m'} eigenvectors V.

    eta defaults to the sign that makes A^dag A = C + [N] exact, -phi0 (see
    _branch_sign).
    """
    d, g0 = dim.d, dim.gamma0
    c = _phase_cross(d, lattice_cross(m.T, mp.T))
    if eta is None:
        eta = -_branch_sign(d, c, m - mp)
    s = np.sin(g0 * c)
    d_coef = _scalar_pow(2.0 * np.abs(s), -0.5)
    dp_coef = np.conj(eta / ((2j * s) * d_coef))
    A = (d_coef[:, None, None] * schwinger_stack(d, m)
         + dp_coef[:, None, None] * schwinger_stack(d, mp))
    C = 1.0 / np.abs(s)
    nvals = (_inverse_mod(d, c)[:, None] * np.arange(d)) % d
    c_q = np.exp(1j * g0 * c * (d - 1) / 2.0)
    Q = c_q[:, None, None] * _diag_stack(V, np.exp((1j * g0 * c)[:, None] * nvals))
    spectrum = C[:, None] + bracket_values(dim, c[:, None], np.arange(d))
    return _OscillatorStack(dim, m, mp, c, eta, d_coef, dp_coef, C, c_q, A,
                            _diag_stack(V, nvals), Q, V, nvals, spectrum)


def _in_basis(V, S) -> np.ndarray:
    """V^dag S V per pair: entry [r', r] is <v_r'| S |v_r>."""
    return dag(V) @ S @ V


def _oscillator_stack_residuals(st: _OscillatorStack) -> dict:
    """Per-pair residuals of the oscillator identities (see oscillator_sweep)."""
    dim, A, V, nv = st.dim, st.lowering, st.eigenvectors, st.n_values
    d = dim.d
    Ad = dag(A)
    c = _phase_cross(d, st.cross)[:, None]
    # the recorded claims from the dense S_m, S_m' and S_{m-m'} and numpy's
    # exponential, each integer exponent reduced first: g = <v_{r-c}|S_m|v_r>,
    # f the same for S_m', E = e^{i pi c (2n + D - 1) / 2D} at the exact c, and
    # mu_r = <v_r|S_{m-m'}|v_r>
    g, f = (np.take_along_axis(_in_basis(V, schwinger_stack(d, x)),
                               ((np.arange(d) - c) % d)[:, None, :], axis=1)[:, 0]
            for x in (st.m, st.mp))
    mu = np.diagonal(_in_basis(V, schwinger_stack(d, st.m - st.mp)), axis1=1, axis2=2)
    t = lattice_cross(st.m.T, st.mp.T)[:, None] % (4 * d) * (2 * nv + d - 1) % (4 * d)
    E = np.exp(1j * np.pi * t / (2 * d))
    claim = np.exp(1j * np.pi * ((2 * nv - d) * c % (2 * d)) / d)   # e^{i gamma0 (n - D/2) c}
    C_eye = st.shift_constant[:, None, None] * np.eye(d)
    # A with eta and d' negated, a weighted shift too: A^dag A on v_r in V
    Aw = (st.d_coef[:, None, None] * schwinger_stack(d, st.m)
          - st.dp_coef[:, None, None] * schwinger_stack(d, st.mp))
    opposite = np.diagonal(_in_basis(V, dag(Aw) @ Aw), axis1=1, axis2=2)
    Qdirect = ((-st.eta)[:, None, None] * schwinger_stack(d, -st.m)
               @ schwinger_stack(d, st.mp))
    return {
        "number": _max_abs_stack(Ad @ A - (C_eye + _diag_stack(V, bracket_values(dim, c, nv)))),
        "opposite_min": np.abs(opposite - st.shift_constant[:, None]
                               - bracket_values(dim, c, nv)).max(axis=1),
        "q_exponential": _max_abs_stack(Qdirect - st.q_exponential),
        "ladder": _max_abs_stack(A @ st.number_op - _diag_stack(V, (nv + 1) % d) @ A),
        # A A^dag = C + [N + 1]: the pair of relations whose difference is the
        # q-commutator; checked via the bracket form directly
        "raised_number": _max_abs_stack(
            A @ Ad - (C_eye + _diag_stack(V, bracket_values(dim, c, nv + 1)))),
        "spectrum_min": st.spectrum.min(axis=1),
        "shift_constant": np.abs(st.shift_constant - 1.0 / np.abs(np.sin(dim.gamma0 * c[:, 0]))),
        "literal_phase": np.maximum(np.abs(g - E), np.abs(g - np.conj(f))).max(axis=1),
        "exponent_claim": np.abs(np.conj(mu) - claim).max(axis=1),
    }


def _casimir_stack(st: Sl2Stack, AdA, AAd):
    """Both Casimir orderings per pair from A^dag A and A A^dag, and their constant."""
    dim, d, j3 = st.dim, st.dim.d, st.j3_values
    c = _phase_cross(d, st.cross)[:, None]
    C1 = AdA + _diag_stack(st.eigenvectors, sl2_bracket(dim, c, (j3 + d / 2.0 - 0.5) / 2.0) ** 2)
    C2 = AAd + _diag_stack(st.eigenvectors, sl2_bracket(dim, c, (j3 + d / 2.0 + 0.5) / 2.0) ** 2)
    const = 1.0 / _scalar_pow(np.sin(np.pi * c[:, 0] / d), 2)
    return C1, C2, const


def _sl2_stack_residuals(st: Sl2Stack) -> dict:
    """Per-pair residuals of the deformed sl(2) identities (see sl2_sweep)."""
    dim, d = st.dim, st.dim.d
    A, Sw, V, j3 = st.lowering, st.intertwiner, st.eigenvectors, st.j3_values
    Ad = dag(A)
    c = _phase_cross(d, st.cross)[:, None]
    p = st.p[:, None, None]
    delta = st.delta[:, None]
    AAd, AdA = A @ Ad, Ad @ A
    C1, C2, const = _casimir_stack(st, AdA, AAd)
    shifted = (st.n_values + 1) % d + delta     # not from j3 - delta, which can round below n
    return {
        "exponential": _max_abs_stack(
            Sw - st.s_p[:, None, None] * _diag_stack(V, np.exp(-1j * dim.gamma0 * c * j3))),
        "intertwine": _max_abs_stack(A @ Sw - p * Sw @ A),
        "intertwine_dag": _max_abs_stack(Ad @ Sw - np.conj(p) * Sw @ Ad),
        "commutator": _max_abs_stack(
            AAd - AdA + _diag_stack(V, sl2_bracket(dim, c, j3 + d / 2.0))),
        "ladder": _max_abs_stack(A @ _diag_stack(V, j3) - _diag_stack(V, shifted) @ A),
        "casimir_forms": _max_abs_stack(C1 - C2),
        "casimir_value": _max_abs_stack(C1 - const[:, None, None] * np.eye(d)),
        "casimir_central": np.maximum(_max_abs_stack(C1 @ A - A @ C1),
                                      _max_abs_stack(C1 @ Ad - Ad @ C1)),
    }


def oracle_sweep(dim, m, mp, algebra):
    """Worst dense residual per key over the pairs the builder builds, as the old sweep took it."""
    reasons, stack, residuals = ORACLE[algebra]
    lab = deformed._label_pass(dim, m, mp, reasons)
    built = np.flatnonzero(lab.built)
    step = max(1, schwinger._BLOCK_ENTRIES // dim.d ** 2)
    worst = {}
    for start in range(0, len(built), step):
        idx = built[start:start + step]
        m_, mp_ = lab.m[idx], lab.mp[idx]
        st = stack(dim, m_, mp_, eigenvector_stack(dim.d, m_, mp_))
        for k, v in residuals(st).items():
            if k.endswith("_min"):
                worst[k] = min(worst.get(k, np.inf), float(v.min()))
            else:
                worst[k] = max(worst.get(k, 0.0), float(v.max()))
    return worst


ORACLE = {
    "qosc": (deformed._OSC_REASONS, _oscillator_stack, _oscillator_stack_residuals),
    "sl2": (deformed._SL2_REASONS, sl2_stack, _sl2_stack_residuals),
}


def _one(residuals: dict) -> dict:
    """The per-pair residuals of a stack of one pair, as floats."""
    return {k: float(v[0]) for k, v in residuals.items()}


# -- eigenbasis checks against the oracle -------------------------------------------

def assert_sweeps_match_oracle(dim, m, mp, oracle_bound=None):
    """Same keys and spectrum_min, the recorded claims (oscillator_claims) to
    1e-12 of each other; every other worst residual <= 1e-12 in both forms."""
    for algebra, sweep in (("qosc", oscillator_sweep), ("sl2", sl2_sweep)):
        new, old = sweep(dim, m, mp).worst, oracle_sweep(dim, m, mp, algebra)
        if algebra == "qosc":
            new |= deformed.oscillator_claims(dim, m, mp)
        assert list(new) == list(old), (dim.d, algebra)
        for key in new:
            if key == "spectrum_min":
                assert new[key] == old[key], (dim.d, algebra)
                continue
            if key in RECORDED:
                assert abs(new[key] - old[key]) <= 1e-12, (dim.d, key, new[key], old[key])
                continue
            bound = (oracle_bound or {}).get(key, 1e-12)
            assert new[key] <= 1e-12, (dim.d, algebra, key, new[key])
            assert old[key] <= bound, (dim.d, algebra, key, old[key])


@pytest.mark.parametrize("d", range(2, 14))
def test_sweeps_match_the_dense_oracle(d):
    dim = make_dimension(d)
    m, mp = verify._swept_pairs(dim, 0, None)
    if d in (11, 13):
        # all window pairs of these two take ~7 s against the oracle; a seeded sample
        m, mp = verify._swept_pairs(dim, d, 3000)
    assert_sweeps_match_oracle(dim, m, mp)
    for families in (verify._QOSC_FAMILIES, verify._SL2_FAMILIES):
        assert_sweeps_match_oracle(dim, *verify._representatives(d, families))


def test_unreduced_pairs_match_the_dense_oracle():
    # the oracle's [C1, A] sits at its eps |A| |C| floor here, ~6e-12
    bound = {"casimir_central": 1e-11}
    dim = make_dimension(31)
    m, mp = np.random.default_rng(31).integers(-4 * 31, 4 * 31, (2, 800, 2))
    keep = np.flatnonzero(lattice_cross(m.T, mp.T) % 31 != 0)[:600]
    assert len(keep) == 600
    assert_sweeps_match_oracle(dim, m[keep], mp[keep], bound)
    regression = np.array([(-51, -25), (-24, 51)]), np.array([(-20, 54), (7, -15)])
    assert_sweeps_match_oracle(dim, *regression, bound)


def assert_fails_like_the_oracle(new, old):
    """The package's residuals of one faulted pair break on the oracle's rows."""
    broken = {k for k, v in old.items() if k not in RECORDED and v > 0.1}
    assert broken, old
    assert {k for k, v in new.items() if k not in RECORDED and v > 0.1} == broken, (new, old)


@pytest.mark.parametrize("d", [5, 7, 8])
def test_a_flipped_eta_or_d_prime_phase_fails_like_the_oracle(d):
    dim = make_dimension(d)
    osc = build_q_oscillator(dim, (1, 2), (0, 3))
    m, mp = np.array([osc.m]), np.array([osc.mp])
    eta, d_coef, dp_coef, C = deformed._oscillator_coefs(dim, m, mp)
    for wrong_eta, wrong_dp in ((-eta, -dp_coef), (eta, dp_coef * np.exp(0.4j))):
        new = deformed._oscillator_rows(dim, m, mp, wrong_eta, d_coef, wrong_dp, C)
        wrong = dataclasses.replace(osc, eta=wrong_eta[0], dp_coef=wrong_dp[0])
        assert_fails_like_the_oracle(_one(new),
                                     _one(_oscillator_stack_residuals(_stack_of_one(wrong))))


@pytest.mark.parametrize("d, m, mp", [
    (5, (1, 0), (0, 1)), (5, (1, 2), (-1, 1)), (7, (1, 0), (0, 1)), (7, (2, 3), (1, -1)),
    (8, (1, 0), (0, 1)), (8, (1, 3), (-2, 1)),
])
def test_a_wrong_j3_offset_fails_like_the_oracle(d, m, mp):
    # each branch of delta (0 or D/2c) swapped for the other
    dim = make_dimension(d)
    st = sl2_stack(dim, [m], [mp])
    delta = np.where(st.delta, 0.0, d / (2.0 * _phase_cross(d, st.cross)))
    d_coef = deformed._sl2_coefs(dim, st.m, st.mp)[0]
    new = deformed._sl2_rows(dim, st.m, st.mp, d_coef, delta)
    old = _sl2_stack_residuals(st._replace(delta=delta, j3_values=st.n_values + delta[:, None]))
    assert_fails_like_the_oracle(_one(new), _one(old))


def _perturbed_exponents(monkeypatch, j: int, by: int = 1):
    """Shift the eigenvector exponent E_j of every off-diagonal S_w by `by`,
    for the eigenvectors (schwinger._eigensystem) and the ladder weights alike:
    each v_r keeps unit norm and the v_r stay orthonormal, but they are no
    longer eigenvectors of S_w, so S_m and S_m' are no longer weighted shifts."""
    exact = schwinger._orbit_exponents

    def perturbed(d, m1, m2):
        k, e = exact(d, m1, m2)
        e = e.copy()
        e[:, j % d] += by
        return k, e

    monkeypatch.setattr(schwinger, "_orbit_exponents", perturbed)
    monkeypatch.setattr(deformed, "_orbit_exponents", perturbed)


@pytest.mark.parametrize("d", [5, 8])
def test_part_a_rejects_a_basis_that_is_not_the_eigenbasis(monkeypatch, d):
    # one exponent of the eigenvectors off by one: still orthonormal, no
    # longer a ladder of S_m and S_m'
    dim = make_dimension(d)
    m, mp = np.array([(1, 2)]), np.array([(0, 3)])
    _perturbed_exponents(monkeypatch, 2)
    qosc = deformed._oscillator_rows(dim, m, mp, *deformed._oscillator_coefs(dim, m, mp))
    sl2 = deformed._sl2_rows(dim, m, mp, *deformed._sl2_coefs(dim, m, mp))
    for res in (_one(qosc), _one(sl2)):
        for key, value in res.items():
            if key not in (*RECORDED, "shift_constant"):
                assert value > 0.1, (key, value)
    V = eigenvector_stack(d, m, mp)
    assert np.abs(dag(V) @ V - np.eye(d)).max() < 1e-14
    assert shift_weights(d, m, mp, V)[2][0] > 0.1


def _built_pairs(dim, m, mp):
    lab = deformed._label_pass(dim, m, mp, deformed._SL2_REASONS)
    return lab.m[lab.built], lab.mp[lab.built]


def _unreduced_pairs(d, count):
    m, mp = np.random.default_rng(d).integers(-4 * d, 4 * d, (2, count, 2))
    keep = lattice_cross(m.T, mp.T) % d != 0
    return m[keep], mp[keep]


def assert_weights_match_the_float_oracle(d, m, mp):
    """The ladder weights read from the labels against the O(D^2) scan of the
    eigenvectors, in blocks of 2^16 eigenvector entries: to 1e-14, and part (a)
    exact in both.  The scan gives them by eigenvector r, the package by the
    quantum number n, r = c n mod D."""
    worst, block = 0.0, max(1, (1 << 16) // d ** 2)
    for lo in range(0, len(m), block):
        a, b = m[lo:lo + block], mp[lo:lo + block]
        g, f, flag = deformed._ladder_weights(d, a, b)
        og, of, residual = shift_weights(d, a, b, eigenvector_stack(d, a, b))
        r = lattice_cross(a.T, b.T)[:, None] * np.arange(d) % d
        og, of = (np.take_along_axis(x, r, axis=1) for x in (og, of))
        assert not flag.any() and residual.max() < 1e-13, (d, residual.max())
        worst = max(worst, np.abs(g - og).max(), np.abs(f - of).max())
    assert worst <= 1e-14, (d, worst)


@pytest.mark.parametrize("d", range(2, 17))
def test_ladder_weights_match_the_float_oracle_on_every_window_pair(d):
    dim = make_dimension(d)
    m, mp = _built_pairs(dim, *verify._swept_pairs(dim, 0, None))
    assert len(m) > 0
    assert_weights_match_the_float_oracle(d, m, mp)


@pytest.mark.parametrize("d, count", [(31, 400), (101, 100), (211, 40), (1009, 6)])
def test_ladder_weights_match_the_float_oracle_on_unreduced_pairs(d, count):
    m, mp = _built_pairs(make_dimension(d), *_unreduced_pairs(d, count))
    assert len(m) > count // 2
    assert_weights_match_the_float_oracle(d, m, mp)


@pytest.mark.parametrize("d", [5, 7, 9, 16, 31])
def test_part_a_flags_every_pair_the_float_oracle_flags(monkeypatch, d):
    # one exponent entry perturbed, at each position j in turn: the exact
    # check flags a pair wherever the scan of the perturbed eigenvectors finds
    # S_m or S_m' no longer a weighted shift, and nowhere else
    dim = make_dimension(d)
    m, mp = _built_pairs(dim, *_unreduced_pairs(d, 60))
    for j in range(d):
        with monkeypatch.context() as patch:
            _perturbed_exponents(patch, j, by=1 + j % 3)
            flag = deformed._ladder_weights(d, m, mp)[2]
            residual = shift_weights(d, m, mp, eigenvector_stack(d, m, mp))[2]
        assert np.array_equal(flag > 0, residual > 1e-8), (d, j)
        # a diagonal S_w has no exponent to perturb
        off = _reduce(d, *(m - mp).T)[0] % d != 0
        assert np.array_equal(flag > 0, off), (d, j)


def test_residual_floor_is_eps_d_squared():
    # at the parent's dense form casimir_central read 12, 18 and 26 eps D^2 here
    for d in (31, 61, 101):
        dim = make_dimension(d)
        qosc = oscillator_sweep(dim, *verify._representatives(d, verify._QOSC_FAMILIES)).worst
        sl2 = sl2_sweep(dim, *verify._representatives(d, verify._SL2_FAMILIES)).worst
        floor = 5 * EPS * d * d
        for value in (qosc["number"], sl2["commutator"], sl2["casimir_value"],
                      sl2["casimir_central"]):
            assert value < floor, (d, value / (EPS * d * d))
