import json
from types import SimpleNamespace

import numpy as np
import pytest

import torusphase

from torusphase import (
    SymplecticMap,
    basis_state,
    build_metaplectic,
    build_q_oscillator,
    build_shift_operator,
    covariance_report,
    index_report,
    linear_profile,
    make_dimension,
    weak_convergence_sweep,
    wigner_function,
    wigner_number_phase,
)
from torusphase.serialization import (
    action_angle_csv,
    action_angle_decomposition_csv,
    convergence_csv,
    convergence_json,
    csv_text,
    dumps_json,
    format_float,
    index_csv,
    index_json,
    matrix_csv,
    operator_json,
    spectrum_csv,
    spectrum_json,
    transform_json,
    wigner_csv,
)
from torusphase.transforms import CovarianceReport


def test_float_format_is_fixed_width_scientific():
    assert format_float(1.0) == "1.0000000000000000e+00"
    assert format_float(-0.5) == "-5.0000000000000000e-01"
    assert format_float(np.float64(2.0) / 3.0) == "6.6666666666666663e-01"


def test_json_scalar_encodings():
    assert dumps_json({"a": 1, "b": True, "c": None}) == '{"a": 1, "b": true, "c": null}\n'
    text = dumps_json(1 + 2j)
    assert text == "[1.0000000000000000e+00, 2.0000000000000000e+00]\n"
    assert dumps_json([0.5]) == "[5.0000000000000000e-01]\n"
    # payloads always end with exactly one newline
    assert dumps_json({}).endswith("}\n")


def test_json_is_parseable_and_deterministic():
    dim = make_dimension(3)
    u = build_shift_operator(dim)
    a = operator_json(dim, u, extra={"kind": "u"})
    b = operator_json(dim, u, extra={"kind": "u"})
    assert a == b
    doc = json.loads(a)
    assert doc["dim"] == 3
    assert doc["kind"] == "u"
    assert np.asarray(doc["rows"]).shape == (3, 3, 2)
    assert doc["rows"][1][0] == [1.0, 0.0]


def test_matrix_csv_layout():
    dim = make_dimension(2)
    text = matrix_csv(dim, np.eye(2), comments=("kind=u",))
    lines = text.splitlines()
    assert lines[0] == "# kind=u"
    assert lines[1] == "i,j,re,im"
    assert len(lines) == 2 + 4
    assert lines[2].startswith("0,0,1.0000000000000000e+00,")
    assert text.endswith("\n")


def test_wigner_csv_rows():
    dim = make_dimension(3)
    grid = wigner_function(dim, basis_state(dim, "u", 0))
    text = wigner_csv(grid)
    lines = text.splitlines()
    assert lines[0] == "V1,V2,W"
    assert len(lines) == 1 + 9
    v1, v2, w = lines[1].split(",")
    assert (v1, v2) == ("0", "0")
    assert abs(float(w) - grid.values[0, 0]) < 1e-15


def test_action_angle_csv_shape():
    dim = make_dimension(3)
    grid = wigner_number_phase(dim, basis_state(dim, "u", 1))
    text = action_angle_csv(grid, comments=("state=fock:1",))
    lines = text.splitlines()
    assert lines[0] == "# state=fock:1"
    assert lines[1] == "J,theta,W"
    assert len(lines) == 2 + grid.values.shape[0] * 3


def test_spectrum_serializations_agree():
    dim = make_dimension(5)
    osc = build_q_oscillator(dim, (1, 0), (0, 1))
    doc = json.loads(spectrum_json(osc))
    assert doc["dim"] == 5
    assert doc["cross"] == 1
    assert np.allclose(doc["f"], osc.spectrum, atol=1e-15)
    assert doc["n_of_r"] == [int(x) for x in osc.n_values]

    lines = spectrum_csv(osc).splitlines()
    assert lines[0] == "n,f_n,C,q_re,q_im,m1,m2,mp1,mp2"
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - osc.spectrum[0]) < 1e-15
    assert abs(float(first[2]) - osc.shift_constant) < 1e-15


def test_convergence_serializations():
    report = weak_convergence_sweep((3, 5))
    doc = json.loads(convergence_json(report))
    assert doc["primes"] == [3, 5]
    assert doc["observable"] == report.observable
    assert len(doc["residuals"]) == 2

    lines = convergence_csv(report).splitlines()
    assert f"# observable={report.observable}" in lines
    assert f"# family={report.family}" in lines
    assert "D,residual" in lines
    data = [l for l in lines if not l.startswith("#") and not l.startswith("D,")]
    assert data[0].split(",")[0] == "3"


def test_index_serializations():
    rep = index_report(linear_profile(make_dimension(5)))
    doc = json.loads(index_json(rep))
    assert doc["D"] == 5
    assert doc["case"] == "linear"
    assert abs(doc["I"] - rep["I"]) < 1e-15

    lines = index_csv(rep).splitlines()
    assert lines[0] == "D,case,I,f0,fD"
    assert lines[1].startswith("5,linear,")


def test_transform_json_payload():
    dim = make_dimension(5)
    op = build_metaplectic(dim, SymplecticMap.from_rows(dim, ((0, -1), (1, 0))))
    report = covariance_report(op)
    doc = json.loads(transform_json(op, report))
    assert doc["R"] == [[0, 4], [1, 0]]
    assert doc["gauge"] == op.gauge
    assert doc["worst_residual"] == report.worst < 1e-9
    assert len(doc["per_m"]) == len(report.labels)
    assert doc["per_m"][0]["m"] == report.labels[0].tolist()
    assert doc["per_m"][0]["phase"] == [report.phase[0].real, report.phase[0].imag]


def test_byte_determinism_across_calls():
    dim = make_dimension(7)
    grid1 = wigner_function(dim, basis_state(dim, "v", 2))
    grid2 = wigner_function(dim, basis_state(dim, "v", 2))
    assert wigner_csv(grid1) == wigner_csv(grid2)
    r1 = weak_convergence_sweep((3, 5))
    r2 = weak_convergence_sweep((3, 5))
    assert convergence_json(r1) == convergence_json(r2)


# -- one-pass emitters against entry-by-entry references -----------------------
# Each reference formats one float at a time with format_float, as the
# emitters did before they formatted whole arrays at once.

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -3.0, 2.0 ** 53, 0.1]


def special_grid(rng, shape):
    scale = 10.0 ** rng.integers(-300, 300, size=shape)
    flat = (rng.normal(size=shape) * scale).ravel()
    k = min(len(SPECIAL), flat.size)
    flat[:k] = SPECIAL[:k]
    rng.shuffle(flat)
    return flat.reshape(shape)


def ref_encode(obj):
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{format_float(obj.real)}, {format_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return ref_encode(obj.tolist())
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {ref_encode(v)}"
                               for k, v in obj.items()) + "}"
    return "[" + ", ".join(ref_encode(v) for v in obj) + "]"


def ref_complex_rows(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 5), (13, 13)])
def test_wigner_csv_matches_entry_by_entry(shape):
    rng = np.random.default_rng(shape[0])
    grid = SimpleNamespace(dim=make_dimension(shape[0]), values=special_grid(rng, shape))
    d = shape[0]
    ref = csv_text("V1,V2,W", [f"{a},{b},{format_float(grid.values[a, b])}"
                               for a in range(d) for b in range(d)], ("c=1",))
    assert wigner_csv(grid, comments=("c=1",)) == ref


@pytest.mark.parametrize("d", [2, 3, 11])
def test_action_angle_csvs_match_entry_by_entry(d):
    rng = np.random.default_rng(d)
    dim = make_dimension(d)
    theta = dim.gamma0 * np.arange(d)
    grid = SimpleNamespace(dim=dim, values=special_grid(rng, (2 * d, d)))
    ref = csv_text("J,theta,W", [f"{j},{format_float(theta[t])},{format_float(grid.values[j, t])}"
                                 for j in range(2 * d) for t in range(d)])
    assert action_angle_csv(grid) == ref
    odd = SimpleNamespace(dim=dim, values=special_grid(rng, (2 * d, d)))
    jv = np.arange(2 * d) / 2.0
    ref = csv_text("J,theta,W_even,W_odd", [
        f"{format_float(jv[j])},{format_float(theta[t])},"
        f"{format_float(grid.values[j, t])},{format_float(odd.values[j, t])}"
        for j in range(2 * d) for t in range(d)])
    assert action_angle_decomposition_csv(grid, odd) == ref


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 7)])
def test_matrix_emitters_match_entry_by_entry(shape):
    rng = np.random.default_rng(sum(shape))
    m = special_grid(rng, shape) + 1j * special_grid(rng, shape)
    dim = make_dimension(max(2, shape[0]))
    ref = csv_text("i,j,re,im", [f"{i},{j},{format_float(m[i, j].real)},{format_float(m[i, j].imag)}"
                                 for i in range(shape[0]) for j in range(shape[1])], ("k=x",))
    assert matrix_csv(dim, m, comments=("k=x",)) == ref
    extra = {"kind": "schwinger", "m": [1, -2]}
    ref = ref_encode({"dim": dim.d, **extra, "rows": ref_complex_rows(m)}) + "\n"
    assert operator_json(dim, m, extra=extra) == ref
    assert operator_json(dim, m) == ref_encode({"dim": dim.d, "rows": ref_complex_rows(m)}) + "\n"


@pytest.mark.parametrize("n", [0, 1, 40])
def test_transform_json_matches_entry_by_entry(n):
    rng = np.random.default_rng(n)
    report = CovarianceReport(rng.integers(-9, 9, (n, 2)),
                              special_grid(rng, (n,)) + 1j * special_grid(rng, (n,)),
                              special_grid(rng, (n,)), 0.5)
    op = SimpleNamespace(map=SimpleNamespace(matrix=np.array([[2, 3], [5, 8]])),
                         gauge="aligned", unitary_residual=np.float64(1e-16))
    ref = ref_encode({
        "R": [[2, 3], [5, 8]], "gauge": "aligned", "unitary_residual": 1e-16,
        "worst_residual": 0.5,
        "per_m": [{"m": [int(a), int(b)], "phase": complex(p), "residual": float(r)}
                  for (a, b), p, r in zip(report.labels, report.phase, report.residual)],
    }) + "\n"
    assert transform_json(op, report) == ref


def test_dumps_json_matches_entry_by_entry():
    rng = np.random.default_rng(3)
    grid = special_grid(rng, (6, 9))
    docs = [
        grid.tolist(),
        {"values": grid, "theta": grid[0], "nested": [grid.tolist(), [[]], []]},
        [1.0, True, 2],
        [2, 1.0],
        [np.float64(0.1), 0.1, -0.0],
        [np.float64(5e-324), np.float32(0.1)],
        [1.0, None, "x", 1 + 2j],
        [False, 0.0],
        [],
        [-0.0],
    ]
    for doc in docs:
        assert dumps_json(doc) == ref_encode(doc) + "\n"
    assert dumps_json([1.0, True, 2]) == "[1.0000000000000000e+00, true, 2]\n"


def test_every_exported_name_resolves():
    for name in torusphase.__all__:
        assert getattr(torusphase, name) is not None
    assert set(torusphase.__all__) <= set(dir(torusphase))


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        torusphase.no_such_name  # noqa: B018
    assert not hasattr(torusphase, "complex_matrix_payload")
