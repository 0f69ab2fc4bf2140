"""Named invariant suites producing residual tables.

Each suite returns CheckRow records; a row of kind "residual" gates against
the caller's tolerance, a row of kind "info" is reported but never gated.
Structural impossibilities (singular deformations at D=2, quarter-turn
covariance at D=2) are emitted as info rows with a note instead of failures.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import deformed, fock, limits, numberphase, transforms, wigner
from .errors import (
    DegenerateSpectrumError,
    PhaseMismatchError,
    SingularDeformationError,
    TorusPhaseError,
)
from .lattice import Dimension, lattice_cross, random_state, window_vectors
from .schwinger import (
    dense_eigensystem_match,
    fourier_covariance_check,
    schwinger_basis_rank,
    sine_commutator_check,
    standard_pair_suite,
    weyl_commutator_check,
)


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    kind: str = "residual"       # "residual" gates against tol; "info" never does
    note: str = ""


def _res(name, value, note=""):
    return CheckRow(name=name, value=float(value), kind="residual", note=note)


def _info(name, value, note=""):
    return CheckRow(name=name, value=float(value), kind="info", note=note)


def _flag(name, ok: bool, note=""):
    return CheckRow(name=name, value=0.0 if ok else 1.0, kind="residual", note=note)


def _swept_pairs(dim: Dimension, seed: int, samples: int | None):
    """Label arrays (m, m') of the non-collinear window pairs, m outer, m' inner.

    With `samples` below the pair count, that many pairs drawn without
    replacement.
    """
    vecs = np.array(window_vectors(dim))
    m = np.repeat(vecs, len(vecs), axis=0)
    mp = np.tile(vecs, (len(vecs), 1))
    keep = lattice_cross(m.T, mp.T) % dim.d != 0
    m, mp = m[keep], mp[keep]
    if samples is not None and samples < len(m):
        idx = np.random.default_rng(seed).choice(len(m), size=samples, replace=False)
        m, mp = m[idx], mp[idx]
    return m, mp


def suite_schwinger(dim: Dimension, seed: int = 0, samples: int = 200) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows = [_res(k, v) for k, v in standard_pair_suite(dim, rng=rng, n_random=samples).items()]
    worst_sine = 0.0
    worst_weyl = {"mirror": 0.0, "minus_form": 0.0}
    for _ in range(min(30, max(4, samples // 8))):
        m = tuple(int(x) for x in rng.integers(-2 * dim.d, 2 * dim.d, 2))
        n = tuple(int(x) for x in rng.integers(-2 * dim.d, 2 * dim.d, 2))
        worst_sine = max(worst_sine, sine_commutator_check(dim, m, n))
        wc = weyl_commutator_check(dim, m, n)
        for k in worst_weyl:
            worst_weyl[k] = max(worst_weyl[k], wc[k])
    rows.append(_res("sine_algebra", worst_sine))
    rows.append(_res("weyl_mirror", worst_weyl["mirror"]))
    rows.append(_res("weyl_commutator", worst_weyl["minus_form"]))
    worst_fc = max(fourier_covariance_check(dim, m) for m in window_vectors(dim))
    rows.append(_res("fourier_covariance", worst_fc))
    rows.append(_flag("basis_rank", schwinger_basis_rank(dim) == dim.d**2,
                      note=f"rank {schwinger_basis_rank(dim)} of {dim.d ** 2}"))
    if dim.prime:
        worst_lam = worst_vec = 0.0
        for m in window_vectors(dim):
            if (m[0] % dim.d, m[1] % dim.d) == (0, 0):
                continue
            lr, vr = dense_eigensystem_match(dim, m)
            worst_lam = max(worst_lam, lr)
            worst_vec = max(worst_vec, vr)
        rows.append(_res("eigenvalue_closed_form", worst_lam))
        rows.append(_res("eigenvector_dense_match", worst_vec))
    else:
        rows.append(_info("eigensystem", 0.0,
                          note=f"skipped: D={dim.d} is composite, labels may be degenerate"))
    return rows


def suite_qosc(dim: Dimension, seed: int = 0, samples: int | None = None) -> list[CheckRow]:
    m, mp = _swept_pairs(dim, seed, samples)
    rows: list[CheckRow] = []
    sweep = deformed.oscillator_sweep(dim, m, mp)
    if sweep.built == 0:
        rows.append(_info("singular_deformation", 0.0,
                          note=f"every non-collinear pair at D={dim.d} is singular; "
                               "builder raises as designed"))
        return rows
    worst = sweep.worst
    note = f"{sweep.built} pairs" + (f", {sweep.skipped} singular skipped" if sweep.skipped else "")
    for k in ("number", "q_exponential", "ladder", "raised_number"):
        rows.append(_res(k, worst[k], note=note))
    rows.append(_res("shift_constant", worst["shift_constant"]))
    min_spectrum = worst["spectrum_min"]
    rows.append(_res("admissible_spectrum", max(0.0, -float(min_spectrum)),
                     note=f"min f(n) = {min_spectrum:.6f}"))
    if dim.d % 2 == 1:
        rows.append(_flag("no_lowest_weight", deformed.lowest_weight_sweep(dim, m, mp) is None,
                          note="cyclic (no lowest-weight vector) for odd D"))
    sample_oscs = [deformed.build_q_oscillator(dim, m[i], mp[i])
                   for i in np.flatnonzero(sweep.built_mask)[:5]]
    worst_law = worst_amp = 0.0
    lit = lam = 0.0
    corr_ok = True
    for osc in sample_oscs:
        try:
            corr = deformed.eigenbasis_correspondence(osc)
        except PhaseMismatchError:
            if dim.prime:
                raise
            corr_ok = False
            break
        worst_law = max(worst_law, corr.product_law_residual)
        worst_amp = max(worst_amp, corr.eq_amplitude_residual)
        lit = max(lit, corr.literal_phase_residual)
        lam = max(lam, corr.lambda_claim_residual)
    if corr_ok:
        rows.append(_res("correspondence_product_law", worst_law))
        rows.append(_res("correspondence_amplitude", worst_amp))
        rows.append(_info("correspondence_literal_phase", lit,
                          note="componentwise phase claim holds only up to rephasing"))
        rows.append(_info("correspondence_exponent_claim", lam,
                          note="matches exactly iff w1 w2 = c mod 2"))
    else:
        rows.append(_info("correspondence", 1.0,
                          note=f"phase laws drift at composite D={dim.d}; reported only"))
    opp = np.inf
    for osc in sample_oscs[:3]:
        o2 = deformed.build_q_oscillator(dim, osc.m, osc.mp, eta_override=-osc.eta)
        opp = min(opp, deformed.oscillator_residuals(o2)["number"])
    rows.append(_flag("opposite_sign_rejected", bool(opp > 1e-3),
                      note=f"flipped-eta residual min {opp:.3e} (must be large)"))
    if sample_oscs:
        o1 = sample_oscs[0]
        o2 = deformed.build_q_oscillator(dim, o1.mp, o1.m)
        dev = abs(o1.shift_constant - o2.shift_constant)
        dev = max(dev, float(np.max(np.abs(np.sort(o1.spectrum) - np.sort(o2.spectrum)))))
        rows.append(_res("inverse_deformation_spectrum", dev,
                         note="(m, m') and (m', m) share C and spectrum"))
    return rows


def suite_sl2(dim: Dimension, seed: int = 0, samples: int | None = None) -> list[CheckRow]:
    sweep = deformed.sl2_sweep(dim, *_swept_pairs(dim, seed, samples))
    if sweep.built == 0:
        return [_info("deformed_sl2", 1.0,
                      note=f"construction degenerates for every pair at D={dim.d}")]
    rows = [_res(k, v, note=f"{sweep.built} pairs") for k, v in sweep.worst.items()]
    if dim.d <= 7:
        try:
            rep = deformed.coproduct_check(dim, (1, 0), (0, 1))
            rows.append(_res("coproduct_closure", rep.closure))
            rows.append(_res("coproduct_intertwine", rep.intertwine))
            rows.append(_res("coproduct_intertwine_dag", rep.intertwine_dag))
        except TorusPhaseError:
            if dim.prime:
                raise
            rows.append(_info("coproduct", 1.0,
                              note=f"construction degenerates at composite D={dim.d}"))
    for r in ((1, 0), (1, 1), (2, 1)):
        m, mp = (1, 0), (0, 1)
        da = lattice_cross(r, (m[0] - mp[0], m[1] - mp[1]))
        if (lattice_cross(m, mp) - da) % dim.d == 0:
            continue
        try:
            rep = deformed.translated_lattice_deformation(dim, m, mp, r)
        except TorusPhaseError:
            if dim.prime:
                raise
            continue
        rows.append(_res("translated_deformation", rep.residual,
                         note=f"r={r}, shift {rep.delta_alpha}"))
        break
    return rows


def suite_wigner(dim: Dimension, seed: int = 0, samples: int = 6) -> list[CheckRow]:
    ks = wigner.kernel_suite(dim)
    rows = []
    structural = ("rotation", "rotation4") if dim.d == 2 else ()
    for k, v in ks.items():
        if k in structural:
            rows.append(_info(k, v, note="quarter-turn covariance is unavailable at D=2"))
        else:
            rows.append(_res(k, v))
    ps = wigner.property_suite(dim, n_states=samples, seed=seed)
    state_structural = ("time_inversion",) if dim.d == 2 else ()
    for k, v in ps.items():
        if k in state_structural:
            rows.append(_info(k, v, note="inversion covariance is unavailable at D=2"))
        else:
            rows.append(_res(k, v, note=f"{samples} states"))
    return rows


def suite_numberphase(dim: Dimension, seed: int = 0, samples: int = 200) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    pair = numberphase.build_phase_pair(dim)
    rows = [_res(k, v) for k, v in numberphase.phase_pair_residuals(pair).items()]
    ident = numberphase.identification_suite(dim, rng=rng, n_random=samples)
    rows.extend(_res(f"id_{k}", v) for k, v in ident.items())
    worst_kf = 0.0
    for J, th in ((1.0, dim.gamma0), (float(rng.uniform(-3, dim.d + 3)),
                                      float(rng.uniform(0, 2 * np.pi)))):
        worst_kf = max(worst_kf, numberphase.kernel_form_residual(dim, J, th))
    rows.append(_res("kernel_two_forms", worst_kf))
    # Hermiticity holds at every real (J, theta) for odd D (symmetric label
    # window); at even D only grid points are safe, and for D >= 4 mirror
    # labels differ by reduction signs, so the kernel is not pointwise
    # hermitian at all.
    if dim.d % 2 == 1:
        K = numberphase.build_action_angle_kernel(dim, 1.0, 0.7)
        herm = float(np.max(np.abs(K.matrix - K.matrix.conj().T)))
        rows.append(_res("kernel_hermitian", herm))
    else:
        K = numberphase.build_action_angle_kernel(dim, 1.0, dim.gamma0)
        herm = float(np.max(np.abs(K.matrix - K.matrix.conj().T)))
        if dim.d == 2:
            rows.append(_res("kernel_hermitian", herm, note="grid points only at even D"))
        else:
            rows.append(_info("kernel_hermitian", herm,
                              note="mirror labels carry reduction signs at even D >= 4"))
    Kc = numberphase.build_action_angle_kernel(dim, 1.0 + dim.d, 0.7 + 2 * np.pi)
    K07 = numberphase.build_action_angle_kernel(dim, 1.0, 0.7)
    rows.append(_res("kernel_cyclic", float(np.max(np.abs(K07.matrix - Kc.matrix)))))
    n0 = int(rng.integers(dim.d))
    e_n0 = np.zeros(dim.d, dtype=complex)
    e_n0[n0] = 1.0
    Wn = numberphase.wigner_number_phase(dim, e_n0)
    tgt = np.zeros((dim.d, dim.d))
    tgt[n0, :] = 1.0 / (2.0 * np.pi)
    rows.append(_res("number_state_grid", float(np.max(np.abs(Wn.values - tgt)))))
    L = int(rng.integers(dim.d))
    Wp = numberphase.wigner_number_phase(dim, pair.phase_states[:, L])
    tgt = np.zeros((dim.d, dim.d))
    tgt[:, L] = 1.0 / (2.0 * np.pi)
    rows.append(_res("phase_state_grid", float(np.max(np.abs(Wp.values - tgt)))))
    psi = random_state(dim, rng=rng)
    W = numberphase.wigner_number_phase(dim, psi)
    rows.append(_res("mass", abs(W.values.sum() * (2 * np.pi / dim.d) - 1.0)))
    rows.append(_res("marginal_number", float(np.max(np.abs(
        W.values.sum(axis=1) * dim.gamma0 - np.abs(psi) ** 2)))))
    rows.append(_res("marginal_phase", float(np.max(np.abs(
        W.values.sum(axis=0) - (dim.d / (2 * np.pi)) * np.abs(pair.phase_states.conj().T @ psi) ** 2)))))
    expanded = False
    for m, mp in (((1, 0), (0, 1)), ((2, 1), (1, 1))):
        if lattice_cross(m, mp) % dim.d == 0:
            continue
        try:
            exp = numberphase.expand_number_function(
                dim, rng.normal(size=dim.d) + 1j * rng.normal(size=dim.d), m, mp)
        except (SingularDeformationError, DegenerateSpectrumError):
            continue
        except PhaseMismatchError:
            if dim.prime:
                raise
            continue
        rows.append(_res("expansion_round_trip", exp.residual, note=f"m={m}, m'={mp}"))
        expanded = True
    if not expanded:
        rows.append(_info("expansion_round_trip", 0.0,
                          note="no non-singular pair available at this D"))
    even, odd = limits.wigner_even_odd_decomposition(dim, psi)
    full = numberphase.action_angle_values(dim, psi, np.arange(2 * dim.d) / 2.0)
    rows.append(_res("even_odd_reconstruction",
                     float(np.max(np.abs(even.values + odd.values - full)))))
    rows.append(_res("even_mass", abs(even.values[0::2, :].sum() * (2 * np.pi / dim.d) - 1.0)))
    rows.append(_res("odd_mass_integer_rows", abs(odd.values[0::2, :].sum() * (2 * np.pi / dim.d))))
    Wn_e, Wn_o = limits.wigner_even_odd_decomposition(dim, e_n0)
    rows.append(_res("number_state_odd_vanishes", float(np.max(np.abs(Wn_o.values)))))
    return rows


def suite_transforms(dim: Dimension, seed: int = 0, samples: int = 10) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows = [_res("fourier_map", transforms.fourier_check(dim))]
    ident = transforms.build_metaplectic(
        dim, transforms.SymplecticMap.from_rows(dim, ((1, 0), (0, 1))))
    rows.append(_res("identity_map", float(np.max(np.abs(ident.matrix - np.eye(dim.d))))))
    worst_u = worst_cov = 0.0
    ops = []
    first_report = None
    for _ in range(samples):
        op = transforms.build_metaplectic(dim, transforms.random_symplectic(dim, rng=rng))
        worst_u = max(worst_u, op.unitary_residual)
        report = transforms.covariance_report(op)
        worst_cov = max(worst_cov, report[0])
        first_report = first_report or report
        ops.append(op)
    shear = transforms.build_metaplectic(
        dim, transforms.SymplecticMap.from_rows(dim, ((1, 0), (1, 1))))
    w, _ = transforms.covariance_report(shear)
    worst_cov = max(worst_cov, w)
    rows.append(_res("unitarity", worst_u, note=f"{samples} random maps"))
    rows.append(_res("covariance", worst_cov, note="after per-label phase alignment"))
    if dim.d % 2 == 1:
        worst_t = max(transforms.translation_covariance_residual(op) for op in ops[:3])
        rows.append(_res("translation_covariance", worst_t, note="aligned gauge, exact"))
        worst_c = 0.0
        for _ in range(min(10, samples)):
            a, b = rng.integers(0, len(ops), 2)
            _, res = transforms.closure_check(ops[int(a)], ops[int(b)])
            worst_c = max(worst_c, res)
        rows.append(_res("group_closure", worst_c, note="up to a scalar"))
    else:
        worst_c = 0.0
        for op1 in ops[:4]:
            for op2 in ops[:4]:
                _, res = transforms.closure_check(op1, op2)
                worst_c = max(worst_c, res)
        rows.append(_info("group_closure", worst_c,
                          note="columnwise gauge at D=2 does not close; reported only"))
    rot = wigner.kernel_rotation_residual(dim)
    if dim.d == 2:
        rows.append(_info("kernel_rotation", rot,
                          note="quarter-turn covariance is unavailable at D=2"))
    else:
        rows.append(_res("kernel_rotation", rot))
    flat = (transforms.flattening_report(*first_report) if first_report
            else transforms.phase_flattening_report(ident))
    rows.append(_info("phase_flattening", flat["max_phase_deviation"],
                      note=f"flattenable={flat['flattenable']} "
                           "(global phases cannot change conjugation phases)"))
    return rows


def suite_fock(dim: Dimension, seed: int = 0, samples: int = 20) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    worst_gram = worst_overlap = worst_iso = 0.0
    for _ in range(samples):
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(-2, 2))
        basis = fock.build_shifted_fock(dim, a)
        worst_gram = max(worst_gram, basis.gram_residual())
        try:
            fock.shifted_overlap(dim, a)
        except ValueError:
            worst_overlap = 1.0
        worst_iso = max(worst_iso, fock.shift_isomorphism_check(dim, a, b))
    rows = [
        _res("gram", worst_gram, note=f"{samples} random shifts"),
        _res("overlap_closed_form", worst_overlap),
        _res("isomorphism", worst_iso),
        _res("alpha_zero_identity",
             float(np.max(np.abs(fock.build_shifted_fock(dim, 0.0).vectors - np.eye(dim.d))))),
    ]
    match = fock.oscillator_fock_match(dim)
    if match["residual"] is None:
        rows.append(_info("oscillator_family", 0.0,
                          note=f"labels-only at D=2: alpha={match['alpha']}, "
                               f"vacuum label {match['vacuum_label']}"))
    else:
        rows.append(_res("oscillator_family", match["residual"],
                         note=f"alpha={match['alpha']}"))
    exp = fock.shifted_overlap_expansion(dim)
    rows.append(_info("small_shift_coefficient",
                      abs(exp["measured_coefficient"] - exp["exact_coefficient"]),
                      note=f"exact {exp['exact_coefficient']:.6f}, "
                           f"alternate {exp['alternate_coefficient']:.6f}"))
    return rows


_DISPATCH = {
    "schwinger": suite_schwinger,
    "qosc": suite_qosc,
    "sl2": suite_sl2,
    "wigner": suite_wigner,
    "numberphase": suite_numberphase,
    "transforms": suite_transforms,
    "fock": suite_fock,
}

SUITES = (*_DISPATCH, "all")


def run_suite(name: str, dim: Dimension, seed: int = 0,
              samples: int | None = None) -> list[CheckRow]:
    """Run one named suite (or all of them, prefixed) and return its rows."""
    if name == "all":
        rows = []
        for sub in _DISPATCH:
            try:
                sub_rows = run_suite(sub, dim, seed=seed, samples=samples)
            except TorusPhaseError as exc:
                if dim.prime:
                    raise
                rows.append(CheckRow(name=f"{sub}.unavailable", value=1.0, kind="info",
                                     note=f"{exc.__class__.__name__}: {exc}"))
                continue
            for row in sub_rows:
                rows.append(CheckRow(name=f"{sub}.{row.name}", value=row.value,
                                     kind=row.kind, note=row.note))
        return rows
    if name not in _DISPATCH:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    fn = _DISPATCH[name]
    kwargs = {"seed": seed}
    if samples is not None:
        kwargs["samples"] = samples
    return fn(dim, **kwargs)
