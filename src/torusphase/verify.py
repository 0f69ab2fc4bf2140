"""Named invariant suites producing residual tables.

Each suite returns CheckRow records; a row of kind "residual" gates against
the caller's tolerance, a row of kind "info" is reported but never gated.
Structural impossibilities (singular deformations at D=2, quarter-turn
covariance at D=2) are emitted as info rows with a note instead of failures.
At odd prime D the qosc and sl2 suites sweep one representative pair per label
class and check sampled window pairs onto them by metaplectic conjugation,
from its exact signs (see _sweep_plan and _orbit_conjugation).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    PhaseMismatchError,
    SingularDeformationError,
    TorusPhaseError,
)
from .lattice import (_CHECKED_ENTRIES, Dimension, Sampler, _checked_labels, _reduce,
                      canonical_window, lattice_cross, max_abs, random_state)

# Each suite imports the layers it checks in its own body, so a single-suite
# call loads only those; "all" loads every layer.


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


# window pairs checked by conjugation onto the class representatives
_ORBIT_SAMPLES = 64
# a of the class representatives ((1, a D), (0, c)): the q-oscillator needs
# one relative sign of S_m and S_m', the deformed sl(2) pair both
_QOSC_FAMILIES = (0,)
_SL2_FAMILIES = (0, 1)


def _window_pairs(dim: Dimension):
    """Window labels (D^2, 2), m1 outer, and per label m the count of m' with m x m' != 0 mod D."""
    d = dim.d
    w = canonical_window(dim)
    # every window label, m1 outer, as one array without D^2 tuples
    vecs = np.stack(np.meshgrid(w, w, indexing="ij"), axis=-1).reshape(-1, 2)
    # D gcd(m1, m2, D) labels m' have m x m' = 0 mod D
    return vecs, d * d - d * np.gcd(np.gcd(vecs[:, 0], vecs[:, 1]), d)


def _swept_pairs(dim: Dimension, seed: int, samples: int | None):
    """Label arrays (m, m') of the non-collinear window pairs, m outer, m' inner.

    Each pair is found by its index in that order, without listing them all:
    every index, or with `samples` below the pair count, that many drawn
    without replacement.  `samples` defaults to every pair while pairs x D^2
    stays within _CHECKED_ENTRIES, the bound of the per-label rows, and to
    _CHECKED_ENTRIES // D^2 pairs above it.
    """
    d = dim.d
    vecs, per_m = _window_pairs(dim)
    total = int(per_m.sum())
    samples = _CHECKED_ENTRIES // (d * d) if samples is None else samples
    idx = np.arange(total) if samples >= total else Sampler(seed).sample(total, samples)
    ends = np.cumsum(per_m)
    outer = np.searchsorted(ends, idx, side="right")
    rank = idx - ends[outer] + per_m[outer]
    mp = np.empty((len(idx), 2), dtype=vecs.dtype)
    for o in set(outer.tolist()):       # the m' of each m once; np.unique would load numpy.ma
        at = np.flatnonzero(outer == o)
        mp[at] = vecs[np.flatnonzero(lattice_cross(vecs[o], vecs.T) % d)[rank[at]]]
    return vecs[outer], mp


def _representatives(d: int, families) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ((1, a D), (0, c)) for a in families and c in [-D, D), c != 0 mod D.

    a = 1 flips the sign of S_m against S_m'; c runs over both classes mod 2D
    of each area mod D, which fix the reduced phases and the J3 offset.
    """
    c = np.array([x for x in range(-d, d) if x % d])
    m = np.array([(1, a * d) for a in families for _ in c])
    mp = np.stack([np.zeros(len(m), dtype=int), np.tile(c, len(families))], axis=1)
    return m, mp


def _orbit_conjugation(dim: Dimension, coefs, pairs, reps) -> float:
    """Worst distance of a window pair from a swept representative under G_R.

    For a pair (m, m') of area c, R = [m | c^{-1} m'] mod D takes the labels
    x = (1, 0), (0, c), (1, -c) to m, m', w = m - m' mod D.  With
    A = d S_m + d' S_m' and X = N or J3, G_R^dag A G_R = z A_rho (z^4 = 1) and
    G_R^dag X G_R = X_rho hold for a representative rho of area c mod D
    exactly when scalar identities hold, as G_R S_x = z_x S_{R x} G_R with z_x
    the exact sign of transforms._conjugation (a law of the built G, which the
    transforms suite checks): d s_m conj(z_1) = z d_rho s_rho and
    d' s_m' conj(z_2) = z d'_rho, with s the exact reduction signs; conj(z_w)
    takes the v_0 eigenvalue of S_(1,-c) onto that of S_(w mod D) (X is
    n(r) = c^{-1} r (+ delta) on eigenvector r of S_w, and any other eigenvalue
    shifts r); and delta = delta_rho.  coefs(dim, m, m') gives d, d' and delta per pair.  The
    value is the least such residual over the representatives, so a pair none
    matches reads O(1).  No operator is built.
    """
    from .deformed import _branch_sign
    from .transforms import _conjugation

    d = dim.d
    (m, mp), (rm, rmp) = pairs, reps
    c = lattice_cross(m.T, mp.T)
    rc = lattice_cross(rm.T, rmp.T)
    t = np.array([pow(int(x), -1, d) for x in c], dtype=np.int64)[:, None] * mp % d
    x = np.stack(np.broadcast_arrays(1, 0, 0, c, 1, -c), axis=1).reshape(-1, 3, 2)
    s = m % d
    z = _conjugation(d, (s[:, :1], s[:, 1:]), (t[:, :1], t[:, 1:]), (x[..., 0], x[..., 1]))[2]

    def sign(u, v):    # S_u = sign S_v for labels u = v mod D
        return _reduce(d, *u.T)[2] * _reduce(d, *v.T)[2]

    dm, dmp, delta = coefs(dim, m, mp)
    y = np.stack([dm * sign(m, s), dmp * sign(mp, mp % d)], axis=1) * z[:, :2].conj()
    # _branch_sign(d, 0, y) is the eigenvalue of S_y on v_0 of its window label
    spectrum = np.abs(z[:, 2].conj() * _branch_sign(d, 0, x[:, 2])
                      - _branch_sign(d, 0, (m - mp) % d))
    # (pair, representative) of equal area mod D, pair-major
    pi, ri = np.nonzero((rc[None, :] - c[:, None]) % d == 0)
    rd, rdp, rdelta = coefs(dim, rm[ri], rmp[ri])
    a = np.stack([rd * sign(rm[ri], x[pi, 0]), rdp * sign(rmp[ri], x[pi, 1])], axis=1)
    zz = (a.conj() * y[pi]).sum(axis=1) / (np.abs(a) ** 2).sum(axis=1)
    least = np.full(len(c), np.inf)
    np.minimum.at(least, pi, np.maximum.reduce([np.abs(y[pi] - zz[:, None] * a).max(axis=1),
                                                np.abs(zz ** 4 - 1), np.abs(delta[pi] - rdelta)]))
    return float(np.maximum(spectrum, least).max(initial=0.0))


def _sweep_plan(dim: Dimension, seed: int, samples: int | None, families):
    """Window pairs for the per-pair rows, the pairs to sweep, and whether those are classes.

    At odd prime D, SL(2, Z_D) acts transitively on the pairs of each area
    mod D and the metaplectic G_R realizes it: the sweep takes the class
    representatives, and `samples` (default _ORBIT_SAMPLES) window pairs are
    drawn to be checked onto them.  At composite D the orbits split by gcd,
    and at D = 2 the gauge of G does not close; there the sweep takes the
    drawn window pairs themselves.
    """
    if not (dim.prime and dim.d % 2 == 1):
        pairs = _swept_pairs(dim, seed, samples)
        return pairs, pairs, False
    pairs = _swept_pairs(dim, seed, _ORBIT_SAMPLES if samples is None else samples)
    return pairs, _representatives(dim.d, families), True


# the pair suite rows taken over the checked window labels
_WINDOW_ROWS = ("trace", "adjoint", "power_sign")


def _class_note(sweep, pairs) -> str:
    return f"{sweep.built} class representatives, {len(pairs[0])} window pairs by conjugation"


def _pair_sample_note(dim: Dimension, pairs) -> str:
    """How many window pairs a sweep outside odd prime D takes, when not all of them."""
    n, total = len(pairs[0]), int(_window_pairs(dim)[1].sum())
    return f"{n} of {total} window pairs, seeded sample" if n < total else ""


def suite_schwinger(dim: Dimension, seed: int = 0, samples: int = 200) -> list[CheckRow]:
    from .schwinger import (
        eigensystem_residuals,
        fourier_covariance_residuals,
        gram_residuals,
        sine_commutator_check,
        standard_pair_suite,
        weyl_commutator_check,
    )

    rng = Sampler(seed)
    sampled = _sample_note(dim, "labels")
    rows = [_res(k, v, note=sampled if k in _WINDOW_ROWS else "")
            for k, v in standard_pair_suite(dim, rng=rng, n_random=samples).items()]
    m, n = rng.integers(-2 * dim.d, 2 * dim.d, (min(30, max(4, samples // 8)), 2, 2)).swapaxes(0, 1)
    wc = weyl_commutator_check(dim, m, n)
    rows.extend(_res(k, v.max()) for k, v in (("sine_algebra", sine_commutator_check(dim, m, n)),
                                              ("weyl_mirror", wc["mirror"]),
                                              ("weyl_commutator", wc["minus_form"])))
    labels = _checked_labels(dim)
    rows.append(_res("fourier_covariance", fourier_covariance_residuals(dim, labels).max(),
                     note=sampled))
    rows.append(_res("basis_rank", gram_residuals(dim, labels).max(),
                     note=_join("|Tr(S_m^dag S_n)/D - delta_mn| per m1 block", sampled)))
    if dim.prime:
        nonzero = labels[(labels % dim.d != 0).any(axis=1)]
        lam_res, vec_res = eigensystem_residuals(dim, nonzero)
        rows.append(_res("eigenvalue_closed_form", lam_res.max(),
                         note=_join("|S v - lam v| + ||v| - 1|", sampled)))
        rows.append(_res("eigenvector_dense_match", vec_res.max(),
                         note=_join("the same over the least eigenvalue gap", sampled)))
    else:
        rows.append(_info("eigensystem", 0.0,
                          note=f"skipped: D={dim.d} is composite, labels may be degenerate"))
    return rows


def suite_qosc(dim: Dimension, seed: int = 0, samples: int | None = None) -> list[CheckRow]:
    from . import deformed

    pairs, swept, classes = _sweep_plan(dim, seed, samples, _QOSC_FAMILIES)
    sweep = deformed.oscillator_sweep(dim, *swept)
    if sweep.built == 0:
        return [_info("singular_deformation", 0.0,
                      note=f"every non-collinear pair at D={dim.d} is singular; "
                           "builder raises as designed")]
    worst = sweep.worst
    skips = [f"{n} {reason}" for reason, n in sweep.skips.items() if n]
    note = _class_note(sweep, pairs) if classes else _join(
        f"{sweep.built} pairs" + (f", {', '.join(skips)} skipped" if skips else ""),
        _pair_sample_note(dim, pairs))
    rows = [_res(k, worst[k], note=note)
            for k in ("number", "q_exponential", "ladder", "raised_number")]
    if classes:
        rows.append(_res("orbit_conjugation", _orbit_conjugation(
            dim, deformed.oscillator_coefficients, pairs, swept), note=note))
    rows.append(_res("shift_constant", worst["shift_constant"]))
    min_spectrum = worst["spectrum_min"]
    rows.append(_res("admissible_spectrum", max(0.0, -float(min_spectrum)),
                     note=f"min f(n) = {min_spectrum:.6f}"))
    if dim.d % 2 == 1:
        rows.append(_flag("no_lowest_weight", min_spectrum >= 1e-9,
                          note="cyclic (no lowest-weight vector) for odd D"))
    # the per-pair rows read the first five built window pairs; every pair builds at odd prime D
    m, mp = pairs
    first = np.arange(min(5, len(m))) if classes else np.flatnonzero(sweep.built_mask)[:5]
    corr = deformed.oscillator_sweep(dim, m[first], mp[first]).worst
    claims = deformed.oscillator_claims(dim, m[first], mp[first])
    rows += [_res("correspondence_product_law", corr["q_exponential"]),
             _res("correspondence_amplitude", corr["number"]),
             _info("correspondence_literal_phase", claims["literal_phase"],
                   note="componentwise phase claim holds only up to rephasing"),
             _info("correspondence_exponent_claim", claims["exponent_claim"],
                   note="matches exactly iff w1 w2 = c mod 2")]
    opp = deformed.oscillator_sweep(dim, m[first[:3]], mp[first[:3]]).worst["opposite_min"]
    rows.append(_flag("opposite_sign_rejected", bool(opp > 1e-3),
                      note=f"flipped-eta residual min {opp:.3e} (must be large)"))
    osc = deformed.build_q_oscillator(dim, m[first[0]], mp[first[0]])
    inverse = deformed.build_q_oscillator(dim, mp[first[0]], m[first[0]])
    dev = max(abs(osc.shift_constant - inverse.shift_constant),
              float(np.max(np.abs(np.sort(osc.spectrum) - np.sort(inverse.spectrum)))))
    rows.append(_res("inverse_deformation_spectrum", dev,
                     note="(m, m') and (m', m) share C and spectrum"))
    return rows


def suite_sl2(dim: Dimension, seed: int = 0, samples: int | None = None) -> list[CheckRow]:
    from . import deformed

    pairs, swept, classes = _sweep_plan(dim, seed, samples, _SL2_FAMILIES)
    sweep = deformed.sl2_sweep(dim, *swept)
    if sweep.built == 0:
        return [_info("deformed_sl2", 1.0,
                      note=f"construction degenerates for every pair at D={dim.d}")]
    note = (_class_note(sweep, pairs) if classes
            else _join(f"{sweep.built} pairs", _pair_sample_note(dim, pairs)))
    rows = [_res(k, v, note=note) for k, v in sweep.worst.items()]
    if classes:
        rows.append(_res("orbit_conjugation", _orbit_conjugation(
            dim, deformed.sl2_coefficients, pairs, swept), note=note))
    # c = 1 is a unit and S_(1,-1) has its closed-form eigensystem at every D
    rep = deformed.coproduct_check(dim, (1, 0), (0, 1))
    rows += [_res(f"coproduct_{k}", getattr(rep, k))
             for k in ("closure", "intertwine", "intertwine_dag")]
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


def _join(*notes: str) -> str:
    return ", ".join(n for n in notes if n)


def _sample_note(dim: Dimension, items: str) -> str:
    """How many grid points or window labels the per-item rows check, when not all of them."""
    n = len(_checked_labels(dim))
    return f"{n} of {dim.d ** 2} {items}, seeded sample" if n < dim.d ** 2 else ""


def suite_wigner(dim: Dimension, seed: int = 0, samples: int = 6) -> list[CheckRow]:
    from . import wigner

    rows = []
    sampled = _sample_note(dim, "points")
    for k, v in wigner.kernel_suite(dim).items():
        if dim.d == 2 and k in ("rotation", "rotation4"):
            rows.append(_info(k, v, note="quarter-turn covariance is unavailable at D=2"))
        else:
            rows.append(_res(k, v, note="" if k in ("resolution", "completeness", "rotation4")
                             else sampled))
    for k, v in wigner.property_suite(dim, n_states=samples, seed=seed).items():
        if dim.d == 2 and k == "time_inversion":
            rows.append(_info(k, v, note="inversion covariance is unavailable at D=2"))
        else:
            rows.append(_res(k, v, note=f"{samples} states"
                                        + (f", {sampled}" if sampled and k == "chi_grid" else "")))
    return rows


def suite_numberphase(dim: Dimension, seed: int = 0, samples: int = 200) -> list[CheckRow]:
    # deformed too, which the expansion rows build on: imported in the middle
    # of the suite, it would fragment the heap
    from . import deformed, limits, numberphase  # noqa: F401

    # each step's kernels and grids go once its rows are written, so the suite
    # peaks at its largest step
    rng = Sampler(seed)
    ident = numberphase.identification_suite(dim, rng=rng, n_random=samples)
    # the pair's own relations are the pair suite's first three rows
    rows = [_res(k, ident[key]) for k, key in (("commutation", "weyl_commutation"),
                                                ("cyclic_number", "cyclic_X"),
                                                ("cyclic_phase", "cyclic_Z"))]
    pair = numberphase.build_phase_pair(dim)
    rows += [_res(k, v) for k, v in numberphase.phase_pair_residuals(pair).items()]
    ph = pair.phase_states
    del pair
    sampled = _sample_note(dim, "labels")
    rows.extend(_res(f"id_{k}", v, note=sampled if k in _WINDOW_ROWS else "")
                for k, v in ident.items())
    points = ((1.0, dim.gamma0), (rng.uniform(-3, dim.d + 3), rng.uniform(0, 2 * np.pi)))
    rows.append(_res("kernel_two_forms",
                     max(numberphase.kernel_form_residual(dim, J, th) for J, th in points)))
    # Hermiticity holds at every real (J, theta) for odd D (symmetric label
    # window); at even D only grid points are safe, and for D >= 4 mirror
    # labels differ by reduction signs, so the kernel is not pointwise
    # hermitian at all.
    K07 = numberphase.build_action_angle_kernel(dim, 1.0, 0.7).matrix
    K = K07 if dim.d % 2 == 1 else numberphase.build_action_angle_kernel(
        dim, 1.0, dim.gamma0).matrix
    herm = float(np.max(np.abs(K - K.conj().T)))
    del K
    if dim.d % 2 == 1:
        rows.append(_res("kernel_hermitian", herm))
    elif dim.d == 2:
        rows.append(_res("kernel_hermitian", herm, note="grid points only at even D"))
    else:
        rows.append(_info("kernel_hermitian", herm,
                          note="mirror labels carry reduction signs at even D >= 4"))
    Kc = numberphase.build_action_angle_kernel(dim, 1.0 + dim.d, 0.7 + 2 * np.pi).matrix
    rows.append(_res("kernel_cyclic", float(np.max(np.abs(K07 - Kc)))))
    del K07, Kc
    # a number state is flat in theta on its J row, a phase state in J on its theta column
    n0, L = int(rng.integers(dim.d)), int(rng.integers(dim.d))
    e_n0, flat = (np.arange(dim.d) == n0).astype(complex), 1.0 / (2.0 * np.pi)
    rows.append(_res("number_state_grid", max_abs(
        numberphase.wigner_number_phase(dim, e_n0).values - flat * e_n0.real[:, None])))
    rows.append(_res("phase_state_grid", max_abs(
        numberphase.wigner_number_phase(dim, ph[:, L]).values - flat * (np.arange(dim.d) == L))))
    psi = random_state(dim, rng=rng)
    W = numberphase.wigner_number_phase(dim, psi).values
    rows.append(_res("mass", abs(W.sum() * (2 * np.pi / dim.d) - 1.0)))
    rows.append(_res("marginal_number", float(np.max(np.abs(
        W.sum(axis=1) * dim.gamma0 - np.abs(psi) ** 2)))))
    rows.append(_res("marginal_phase", float(np.max(np.abs(
        W.sum(axis=0) - (dim.d / (2 * np.pi)) * np.abs(ph.conj().T @ psi) ** 2)))))
    del W, ph
    expanded = False
    for m, mp in (((1, 0), (0, 1)), ((2, 1), (1, 1))):
        if lattice_cross(m, mp) % dim.d == 0:
            continue
        try:
            residual = numberphase.expand_number_function(
                dim, rng.normal(size=dim.d) + 1j * rng.normal(size=dim.d), m, mp).residual
        except (SingularDeformationError, DegenerateSpectrumError):
            continue
        except PhaseMismatchError:
            if dim.prime:
                raise
            continue
        rows.append(_res("expansion_round_trip", residual, note=f"m={m}, m'={mp}"))
        expanded = True
    if not expanded:
        rows.append(_info("expansion_round_trip", 0.0,
                          note="no non-singular pair available at this D"))
    # wigner_even_odd_decomposition's two parts and the full grid, from one chi
    even, odd, full = numberphase._action_angle_grids(dim, psi, 2 * dim.d, (0, 1, None))
    rows.append(_res("even_odd_reconstruction", float(np.max(np.abs(even + odd - full)))))
    del full
    rows.append(_res("even_mass", abs(even[0::2, :].sum() * (2 * np.pi / dim.d) - 1.0)))
    rows.append(_res("odd_mass_integer_rows", abs(odd[0::2, :].sum() * (2 * np.pi / dim.d))))
    del even, odd
    rows.append(_res("number_state_odd_vanishes", float(np.max(np.abs(
        limits.wigner_even_odd_decomposition(dim, e_n0)[1].values)))))
    return rows


def suite_transforms(dim: Dimension, seed: int = 0, samples: int = 10) -> list[CheckRow]:
    from . import transforms

    rng = Sampler(seed)
    sampled = _sample_note(dim, "labels")
    rows = [_res("fourier_map", transforms.fourier_check(dim))]
    ident = transforms.SymplecticMap.from_rows(dim, ((1, 0), (0, 1)))
    G = transforms.metaplectic_stack(dim, [ident.s], [ident.t])[0]
    rows.append(_res("identity_map", float(np.max(np.abs(G - np.eye(dim.d))))))
    # G on the generators fixes its action, and _conjugation's sign, on every label
    generators = ((1, 0), (0, 1))
    worst_u = worst_cov = 0.0
    ops = []
    for _ in range(samples):
        op = transforms.build_metaplectic(dim, transforms.random_symplectic(dim, rng=rng))
        worst_u = max(worst_u, op.unitary_residual)
        worst_cov = max(worst_cov, transforms.covariance_report(op, generators).worst)
        ops.append(op)
    # the shear's G is built without its G G^dag product: unitarity reads the random maps
    shear = transforms.SymplecticMap.from_rows(dim, ((1, 0), (1, 1)))
    G = transforms.metaplectic_stack(dim, [shear.s], [shear.t])[0]
    z = transforms._conjugation(dim.d, shear.s, shear.t, np.transpose(generators))[2]
    worst_cov = max(worst_cov, float(transforms._sweep(G, shear, generators, z).max()))
    rows.append(_res("unitarity", worst_u, note=f"{samples} random maps"))
    rows.append(_res("covariance", worst_cov,
                     note="generators (1,0), (0,1); exact conjugation signs"))
    if dim.d % 2 == 1:
        worst_t = max(transforms.aligned_gauge_residual(op.map) for op in ops[:3])
        rows.append(_res("translation_covariance", worst_t,
                         note=_join("aligned gauge, exact", sampled)))
        pairs = [rng.integers(0, len(ops), 2) for _ in range(min(10, samples))]
    else:
        pairs = [(a, b) for a in range(min(4, samples)) for b in range(min(4, samples))]
    worst_c = max((transforms.closure_check(ops[int(a)], ops[int(b)])[1] for a, b in pairs),
                  default=0.0)
    rows.append(_res("group_closure", worst_c, note="up to a scalar") if dim.d % 2 else
                _info("group_closure", worst_c,
                      note="columnwise gauge at D=2 does not close; reported only"))
    rot = transforms.kernel_turn_residual(dim)
    if dim.d == 2:
        rows.append(_info("kernel_rotation", rot,
                          note="quarter-turn covariance is unavailable at D=2"))
    else:
        rows.append(_res("kernel_rotation", rot, note=_join("exact signs", sampled)))
    first = ops[0].map if ops else ident
    flat = transforms.phase_flattening_report(
        transforms._conjugation(dim.d, first.s, first.t, _checked_labels(dim).T)[2])
    rows.append(_info("phase_flattening", flat["max_phase_deviation"],
                      note=_join(f"flattenable={flat['flattenable']} "
                                 "(global phases cannot change conjugation phases)", sampled)))
    return rows


def suite_fock(dim: Dimension, seed: int = 0, samples: int = 20) -> list[CheckRow]:
    from . import fock

    rng = Sampler(seed)
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
        # every layer up front, before any suite allocates: imported between
        # suites, the modules fragment the heap (~0.7 MB more peak RSS)
        from . import deformed, fock, limits, numberphase, transforms, wigner  # noqa: F401
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
