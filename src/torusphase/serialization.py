"""Deterministic text output: JSON and CSV with fixed float formatting.

Every float is written as 17 significant digits in lowercase scientific
notation, so identical inputs serialize to identical bytes across runs and
platforms.  Complex numbers appear as two-element [re, im] arrays.  An array
is formatted in one pass, one tolist() and one bound format over its entries,
to the bytes format_float gives entry by entry.
"""
from __future__ import annotations

import json

import numpy as np

_FLOAT = "{:.16e}".format


def format_float(x) -> str:
    return _FLOAT(float(x))


def _floats(values) -> list[str]:
    """Every entry of a real array, in row-major order, as format_float text."""
    return list(map(_FLOAT, np.asarray(values, dtype=float).ravel().tolist()))


def _encode(obj) -> str:
    # a list of Python floats, such as a row of ndarray.tolist(), in one pass;
    # numpy scalars, bools and ints take the per-item path below
    if type(obj) is list and obj and set(map(type, obj)) == {float}:
        return "[" + ", ".join(map(_FLOAT, obj)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
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
        return _encode(obj.tolist())
    if isinstance(obj, dict):
        return _json_object(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _json_object(doc: dict, encoded=()) -> str:
    """A JSON object; the values of the keys named in `encoded` are JSON text already."""
    inner = ", ".join(f"{json.dumps(str(k))}: {v if k in encoded else _encode(v)}"
                      for k, v in doc.items())
    return "{" + inner + "}"


def dumps_json(obj) -> str:
    return _encode(obj) + "\n"


def _complex_rows(matrix) -> str:
    """JSON text of a complex matrix as rows of [re, im] pairs."""
    m = np.asarray(matrix, dtype=complex)
    pairs = [f"[{re}, {im}]" for re, im in zip(_floats(m.real), _floats(m.imag))]
    n = m.shape[1]
    return "[" + ", ".join("[" + ", ".join(pairs[k:k + n]) + "]"
                           for k in range(0, len(pairs), n)) + "]"


def operator_json(dim, matrix, extra: dict | None = None) -> str:
    doc = {"dim": dim.d}
    if extra:
        doc.update(extra)
    doc["rows"] = _complex_rows(matrix)
    return _json_object(doc, encoded=("rows",)) + "\n"


def csv_text(header: str, rows, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def matrix_csv(dim, matrix, comments=()) -> str:
    m = np.asarray(matrix, dtype=complex)
    cells = [f"{i},{j}," for i in range(m.shape[0]) for j in range(m.shape[1])]
    rows = [f"{ij}{re},{im}" for ij, re, im in zip(cells, _floats(m.real), _floats(m.imag))]
    return csv_text("i,j,re,im", rows, comments)


def wigner_csv(grid, comments=()) -> str:
    d = grid.dim.d
    cells = [f"{a},{b}," for a in range(d) for b in range(d)]
    rows = [f"{cell}{w}" for cell, w in zip(cells, _floats(grid.values[:d, :d]))]
    return csv_text("V1,V2,W", rows, comments)


def _angles(dim) -> list[str]:
    return _floats(dim.gamma0 * np.arange(dim.d))


def action_angle_csv(grid, comments=()) -> str:
    d, theta = grid.dim.d, _angles(grid.dim)
    cells = [f"{j},{t}," for j in range(grid.values.shape[0]) for t in theta]
    rows = [f"{cell}{w}" for cell, w in zip(cells, _floats(grid.values[:, :d]))]
    return csv_text("J,theta,W", rows, comments)


def action_angle_decomposition_csv(even, odd, comments=()) -> str:
    d, n = even.dim.d, even.values.shape[0]
    theta = _angles(even.dim)
    cells = [f"{j},{t}," for j in _floats(np.arange(n) / 2.0) for t in theta]
    rows = [f"{cell}{w_even},{w_odd}" for cell, w_even, w_odd
            in zip(cells, _floats(even.values[:, :d]), _floats(odd.values[:, :d]))]
    return csv_text("J,theta,W_even,W_odd", rows, comments)


def spectrum_csv(osc, comments=()) -> str:
    rows = [
        f"{n},{format_float(osc.spectrum[n])},{format_float(osc.shift_constant)},"
        f"{format_float(osc.q.real)},{format_float(osc.q.imag)},"
        f"{osc.m[0]},{osc.m[1]},{osc.mp[0]},{osc.mp[1]}"
        for n in range(osc.dim.d)
    ]
    return csv_text("n,f_n,C,q_re,q_im,m1,m2,mp1,mp2", rows, comments)


def spectrum_json(osc) -> str:
    return dumps_json({
        "dim": osc.dim.d,
        "m": list(osc.m),
        "mp": list(osc.mp),
        "cross": osc.cross,
        "C": float(osc.shift_constant),
        "q": complex(osc.q),
        "eta": float(osc.eta),
        "f": [float(x) for x in osc.spectrum],
        "n_of_r": [int(x) for x in osc.n_values],
    })


def convergence_csv(report, comments=()) -> str:
    rows = [f"{d},{format_float(r)}" for d, r in zip(report.primes, report.residuals)]
    extra = list(comments) + [
        f"observable={report.observable}",
        f"family={report.family}",
        f"monotone={'true' if report.monotone else 'false'}",
    ]
    return csv_text("D,residual", rows, extra)


def convergence_json(report) -> str:
    return dumps_json({
        "primes": list(report.primes),
        "observable": report.observable,
        "family": report.family,
        "gamma": report.gamma,
        "residuals": [float(r) for r in report.residuals],
        "monotone": bool(report.monotone),
    })


def index_json(report: dict) -> str:
    return dumps_json({k: report[k] for k in ("D", "case", "I", "f0", "fD")})


def index_csv(report: dict, comments=()) -> str:
    row = (f"{report['D']},{report['case']},{format_float(report['I'])},"
           f"{format_float(report['f0'])},{format_float(report['fD'])}")
    return csv_text("D,case,I,f0,fD", [row], comments)


def _per_label(report) -> str:
    """JSON text of a covariance_report's per-label arrays, built column by column."""
    m = [f"[{a}, {b}]" for a, b in report.labels.tolist()]
    items = [f'{{"m": {ab}, "phase": [{re}, {im}], "residual": {r}}}'
             for ab, re, im, r in zip(m, _floats(report.phase.real), _floats(report.phase.imag),
                                      _floats(report.residual))]
    return "[" + ", ".join(items) + "]"


def transform_json(op, report) -> str:
    """A metaplectic operator's map and residuals with its covariance_report."""
    return _json_object({
        "R": [[int(x) for x in row] for row in op.map.matrix.tolist()],
        "gauge": op.gauge,
        "unitary_residual": float(op.unitary_residual),
        "worst_residual": report.worst,
        "per_m": _per_label(report),
    }, encoded=("per_m",)) + "\n"
