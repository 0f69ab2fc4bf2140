"""Job lists of the two CLI workloads and the checks on each job's output.

A job is one `torusphase` invocation.  Its check returns None when the
output is correct and a reason otherwise.  A job may carry a defect known
when the benchmark was defined: when its check fails and the output matches
the defect's signature, the op counts as failed but expected (`known:<id>`);
any other failure is unexpected and makes the run incorrect.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "verify_rows.json")) as _fh:
    PINNED_ROWS: dict[str, list[str]] = json.load(_fh)["rows"]

ERROR_LINE = re.compile(r"^error: (\w+): ", re.M)


@dataclass
class Result:
    rc: int
    out: str
    err: str


@dataclass
class Job:
    name: str
    args: list[str]
    check: Callable[[Result], "str | None"]
    defect: str | None = None                       # id in KNOWN_DEFECTS


# Known defects when the benchmark was defined: id -> (description, signature on a Result).
KNOWN_DEFECTS: dict[str, tuple[str, Callable[[Result], bool]]] = {
    "verify-fock-suite-rejected": (
        "verify.SUITES omits 'fock', so `verify --suite fock` is a usage error "
        "although the suite is implemented",
        lambda r: r.rc == 2 and "Invalid value for '--suite'" in r.err and "Traceback" not in r.err),
    "wigner-even-d-not-real": (
        "torus `wigner` at D=4 raises an uncaught ValueError traceback "
        "('Wigner values not real')",
        lambda r: r.rc == 1 and "Traceback" in r.err and "Wigner values not real" in r.err),
    "verify-d4-gated-fails": (
        "`verify --d 4 --suite all` FAILs gated qosc, sl2, wigner and fock rows; "
        "composite-D rows should degrade to info rows",
        lambda r: r.rc == 1 and "Traceback" not in r.err and _d4_fail_rows_only(r.out)),
}


def _d4_fail_rows_only(out: str) -> bool:
    rows = _parse_verify(out)
    if rows is None:
        return False
    fails = [name for name, status in rows if status == "FAIL"]
    return bool(fails) and all(n.split(".")[0] in ("qosc", "sl2", "wigner", "fock") for n in fails)


# -- verify ------------------------------------------------------------------

def _parse_verify(out: str):
    """[(row name, status)] from a verify table, or None if it is malformed."""
    lines = out.splitlines()
    if len(lines) < 2 or not lines[0].startswith("suite="):
        return None
    tail = re.fullmatch(r"(PASS|FAIL): (\d+) checks, (\d+) failed", lines[-1])
    if tail is None:
        return None
    rows = []
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) < 3 or parts[2] not in ("ok", "info", "FAIL"):
            return None
        rows.append((parts[0], parts[2]))
    if int(tail.group(2)) != len(rows) or int(tail.group(3)) != sum(s == "FAIL" for _, s in rows):
        return None
    return rows


def verify_row_counts(out: str) -> dict | None:
    """Rows, gated rows and FAIL rows of a verify table (None if malformed)."""
    rows = _parse_verify(out)
    if rows is None:
        return None
    return {"rows": len(rows), "gated": sum(s != "info" for _, s in rows),
            "failed": sum(s == "FAIL" for _, s in rows)}


def _verify_check(suite: str, d: int, pin: str):
    def check(r: Result):
        rows = _parse_verify(r.out)
        if "Traceback" in r.err:
            return "traceback"
        if r.rc != 0:
            return f"exit {r.rc}"
        if rows is None:
            return "malformed verify table"
        if not r.out.startswith(f"suite={suite} D={d} "):
            return "wrong table header"
        missing = set(PINNED_ROWS[pin]) - {n for n, _ in rows}
        if missing:
            return f"rows missing vs pinned coverage: {sorted(missing)[:5]}"
        if any(s == "FAIL" for _, s in rows):
            return "FAIL rows"
        return None
    return check


def _verify_job(suite: str, d: int, seed: int, defect: str | None = None,
                check=None) -> Job:
    return Job(f"verify-{suite}-d{d}",
               ["verify", "--d", str(d), "--suite", suite, "--seed", str(seed)],
               check or _verify_check(suite, d, f"{suite}@{d}"), defect=defect)


def _refusal_or_pass(error_class: str, suite: str, d: int, pin: str):
    """Documented refusal (exit 2, `error: <Class>:`), or a later full pass."""
    passes = _verify_check(suite, d, pin)

    def check(r: Result):
        if r.rc == 0:
            return passes(r)
        if "Traceback" in r.err:
            return "traceback"
        if r.rc != 2:
            return f"exit {r.rc}, expected 2"
        found = ERROR_LINE.findall(r.err)
        if found != [error_class]:
            return f"expected one 'error: {error_class}:' line, got {found}"
        return None
    return check


# -- wigner grids --------------------------------------------------------------

def _read_grid(r: Result, fmt: str, column: str, shape) -> np.ndarray:
    """One grid from JSON (key `column`) or CSV (column `column`, row-major)."""
    if fmt == "json":
        return np.array(json.loads(r.out)[column], dtype=float)
    body = [ln for ln in r.out.splitlines() if not ln.startswith("#")]
    header = body[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    return data[:, header.index(column)].reshape(shape)


def _state_for(spec: str, d: int) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    return inputs.read_state(arg) if kind == "file" else inputs.spec_state(d, spec)


def _torus_check(d: int, spec: str, fmt: str, oracle_match: bool = True):
    """Grid equal to the oracle (odd D or D = 2); for even D >= 4, where the
    oracle grid is not real, unit mass and marginals or a structured refusal."""
    def check(r: Result):
        if "Traceback" in r.err:
            return "traceback"
        if not oracle_match and r.rc == 2 and ERROR_LINE.search(r.err):
            return None
        if r.rc != 0:
            return f"exit {r.rc}"
        W = _read_grid(r, fmt, "values" if fmt == "json" else "W", (d, d))
        errs = oracle.torus_grid_errors(W, _state_for(spec, d))
        if not oracle_match:
            errs.pop("oracle")
        worst = oracle.max_err(errs)
        return None if worst <= oracle.GRID_TOL else f"grid error {worst:.2e}: {errs}"
    return check


def _number_phase_check(d: int, spec: str, fmt: str):
    def check(r: Result):
        if "Traceback" in r.err or r.rc != 0:
            return f"exit {r.rc}"
        W = _read_grid(r, fmt, "values" if fmt == "json" else "W", (d, d))
        errs = oracle.action_angle_errors(W, _state_for(spec, d))
        worst = oracle.max_err(errs)
        return None if worst <= oracle.GRID_TOL else f"grid error {worst:.2e}: {errs}"
    return check


def _decompose_check(d: int, spec: str, fmt: str):
    def check(r: Result):
        if "Traceback" in r.err or r.rc != 0:
            return f"exit {r.rc}"
        g = {c: _read_grid(r, fmt, c, (2 * d, d)) for c in ("W_even", "W_odd")}
        psi = _state_for(spec, d)
        jhalf = np.arange(2 * d) / 2.0
        errs = {
            "even": float(np.max(np.abs(g["W_even"] - oracle.action_angle(psi, jhalf, 0)))),
            "odd": float(np.max(np.abs(g["W_odd"] - oracle.action_angle(psi, jhalf, 1)))),
            "even_mass": abs(g["W_even"][0::2].sum() * 2 * np.pi / d - 1.0),
            "odd_integer_rows": abs(g["W_odd"][0::2].sum() * 2 * np.pi / d),
        }
        worst = oracle.max_err(errs)
        return None if worst <= oracle.GRID_TOL else f"decomposition error {worst:.2e}: {errs}"
    return check


def _wigner_job(d: int, spec: str, fmt: str, basis: str = "torus", decompose: bool = False,
                defect: str | None = None) -> Job:
    args = ["wigner", "--d", str(d), "--state", spec, "--format", fmt]
    if basis != "torus":
        args += ["--basis", basis]
    if decompose:
        args.append("--decompose")
        check = _decompose_check(d, spec, fmt)
    elif basis == "torus":
        check = _torus_check(d, spec, fmt, oracle_match=(d == 2 or d % 2 == 1))
    else:
        check = _number_phase_check(d, spec, fmt)
    name = f"wigner-{basis}{'-decompose' if decompose else ''}-d{d}-{spec.split(':')[0]}-{fmt}"
    return Job(name, args, check, defect=defect)


# -- converge, transform, gen --------------------------------------------------

def _converge_job(primes: list[int]) -> Job:
    def check(r: Result):
        if "Traceback" in r.err or r.rc != 0:
            return f"exit {r.rc}"
        body = [ln for ln in r.out.splitlines() if not ln.startswith("#")]
        if body[0] != "D,residual" or len(body) != len(primes) + 1:
            return "malformed convergence table"
        got = [(int(a), float(b)) for a, b in (ln.split(",") for ln in body[1:])]
        if [p for p, _ in got] != primes:
            return "wrong prime ladder"
        worst = max(abs(res - oracle.wigner_limit_residual(p)) for p, res in got)
        mono = all(got[i + 1][1] < got[i][1] for i in range(len(got) - 1))
        if f"# monotone={'true' if mono else 'false'}" not in r.out:
            return "monotone flag disagrees with the residuals"
        return None if worst <= oracle.GRID_TOL else f"residual error {worst:.2e}"
    return Job(f"converge-wigner-{primes[-1]}",
               ["converge", "--observable", "wigner", "--primes", ",".join(map(str, primes))],
               check)


def _transform_job(d: int, rows: list[list[int]]) -> Job:
    tol = 1e-9          # the CLI's own covariance gate, max(tol, 1e-9)

    def check(r: Result):
        if "Traceback" in r.err or r.rc != 0:
            return f"exit {r.rc}"
        doc = json.loads(r.out)
        if np.any((np.array(doc["R"]) - np.array(rows)) % d):
            return "R differs from the requested map mod D"
        if doc["gauge"] != "aligned":
            return f"gauge {doc['gauge']!r}, expected 'aligned' at odd D"
        if doc["unitary_residual"] >= 1e-10 or doc["worst_residual"] >= tol:
            return "unitary or covariance residual over tolerance"
        w = oracle.window(d)
        labels = {(int(a), int(b)) for a in w for b in w}
        if {tuple(rec["m"]) for rec in doc["per_m"]} != labels or len(doc["per_m"]) != d * d:
            return "per-label records do not cover the window"
        worst = max(abs(complex(*rec["phase"]) - oracle.metaplectic_phase(d, rows, rec["m"]))
                    for rec in doc["per_m"])
        return None if worst <= tol else f"phase error {worst:.2e} vs closed form"
    return Job(f"transform-d{d}", ["transform", "--d", str(d), "--r",
                                   ",".join(str(x) for row in rows for x in row)], check)


def _gen_job(d: int, m: tuple[int, int]) -> Job:
    def check(r: Result):
        if "Traceback" in r.err or r.rc != 0:
            return f"exit {r.rc}"
        doc = json.loads(r.out)
        if doc["dim"] != d or doc["kind"] != "schwinger" or doc["m"] != list(m):
            return "wrong header fields"
        S = np.array([[complex(re, im) for re, im in row] for row in doc["rows"]])
        err = float(np.max(np.abs(S - oracle.schwinger(d, *m))))
        return None if err <= oracle.GRID_TOL else f"S_m error {err:.2e}"
    return Job(f"gen-schwinger-d{d}", ["gen", "--d", str(d), "--kind", "schwinger",
                                       "--m", f"{m[0]},{m[1]}"], check)


# -- workloads -----------------------------------------------------------------

def verify_ladder(seed: int, workdir: str) -> list[Job]:
    """Certify the identities: deformed sweeps, verify suites, lattice.max_abs."""
    rng = inputs.rng_for(seed, "verify-ladder")
    s = lambda: int(rng.integers(0, 2**31))                    # noqa: E731
    jobs = [_verify_job("all", d, s()) for d in (2, 5, 7, 9)]
    jobs += [_verify_job(suite, 11, s()) for suite in ("qosc", "sl2")]
    jobs += [_verify_job(suite, 13, s()) for suite in ("schwinger", "wigner", "numberphase",
                                                       "transforms")]
    # odd composite D: refused today; rows named as at D=13 once supported
    jobs.append(_verify_job("transforms", 9, s(), check=_refusal_or_pass(
        "DegenerateSpectrumError", "transforms", 9, "transforms@13")))
    jobs.append(_verify_job("fock", 7, s(), defect="verify-fock-suite-rejected"))
    jobs.append(_verify_job("all", 4, s(), defect="verify-d4-gated-fails"))
    return jobs


def phase_space(seed: int, workdir: str) -> list[Job]:
    """Wigner grids, number-phase grids, transforms and serialization."""
    rng = inputs.rng_for(seed, "phase-space")
    tags = iter(range(100))                     # one state file per job

    def spec(d: int, kind: str) -> str:
        return inputs.make_state_spec(d, kind, rng, workdir, f"ps{next(tags)}")
    jobs = [
        _wigner_job(2, spec(2, "fock"), "csv"),
        _wigner_job(13, spec(13, "file"), "json"),
        _wigner_job(15, spec(15, "v"), "csv"),
        _wigner_job(23, spec(23, "phase"), "json"),
        _wigner_job(31, spec(31, "file"), "csv"),
        _wigner_job(4, spec(4, "file"), "csv", defect="wigner-even-d-not-real"),
        _wigner_job(101, spec(101, "file"), "csv", basis="number-phase"),
        _wigner_job(211, spec(211, "file"), "json", basis="number-phase"),
        _wigner_job(101, spec(101, "file"), "csv", basis="number-phase", decompose=True),
        _converge_job([11, 23, 47, 101, 211]),
        _transform_job(31, inputs.symplectic_rows(31, rng)),
        _transform_job(61, inputs.symplectic_rows(61, rng)),
        _gen_job(101, inputs.label(101, rng)),
    ]
    return jobs


WORKLOADS = {"verify-ladder": verify_ladder, "phase-space": phase_space}
