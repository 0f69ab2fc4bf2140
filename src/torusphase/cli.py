"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Output is deterministic: identical invocations produce byte-identical files
(17-significant-digit floats, fixed column order, seeds recorded in headers).
The TORUSPHASE_TOL environment variable overrides the default tolerance.
"""
from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING, NoReturn

import click

from .errors import TorusPhaseError

if TYPE_CHECKING:
    from .lattice import Dimension

# Each command imports what it runs in its own body: `--help` loads no numpy,
# and a command loads only the layers it uses.

# verify._DISPATCH's suite names plus "all", spelled out so that the option
# needs no import; a test pins the two together.
SUITES = ("schwinger", "qosc", "sl2", "wigner", "numberphase", "transforms", "fock", "all")


def _default_tol() -> float:
    text = os.environ.get("TORUSPHASE_TOL", "1e-10")
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(f"TORUSPHASE_TOL={text!r} is not a number")


def _refuse(exc: TorusPhaseError) -> NoReturn:
    """Report a structured construction error and exit 2."""
    click.echo(f"error: {exc.__class__.__name__}: {exc}", err=True)
    sys.exit(2)


def _dimension(d: int) -> Dimension:
    from .lattice import make_dimension

    if d < 2:
        raise click.UsageError(f"dimension must be at least 2, got {d}")
    dim = make_dimension(d)
    if not dim.prime:
        click.echo(f"warning: D={d} is not prime; some labels are reducible and "
                   "eigensystem-based constructions may be degenerate", err=True)
    return dim


def _parse_vec(text: str, what: str) -> tuple[int, int]:
    try:
        parts = [int(x) for x in text.split(",")]
    except (ValueError, AttributeError):
        raise click.UsageError(f"cannot parse {what} {text!r}; expected two integers a,b")
    if len(parts) != 2:
        raise click.UsageError(f"{what} needs exactly two components, got {len(parts)}")
    return parts[0], parts[1]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(3)


def _parse_state(dim: Dimension, spec: str):
    """State specifiers: fock:n, phase:l, u:k, v:l, random:<seed>, file:<path>."""
    import numpy as np

    from .lattice import build_fourier_operator, random_state

    kind, sep, arg = spec.partition(":")
    if not sep:
        raise click.UsageError(f"malformed state spec {spec!r}; expected kind:value")
    d = dim.d
    comments: list[str] = [f"state={spec}"]
    if kind in ("fock", "u", "v", "phase"):
        try:
            k = int(arg)
        except ValueError:
            raise click.UsageError(f"state index {arg!r} is not an integer")
        k %= d
        if kind in ("fock", "u"):
            psi = np.zeros(d, dtype=complex)
            psi[k] = 1.0
        elif kind == "v":
            psi = build_fourier_operator(dim)[:, k].copy()
        else:
            from .numberphase import build_phase_pair
            psi = build_phase_pair(dim).phase_states[:, k].copy()
        return psi, comments
    if kind == "random":
        try:
            seed = int(arg)
        except ValueError:
            raise click.UsageError(f"random state seed {arg!r} is not an integer")
        comments.append(f"seed={seed}")
        return random_state(dim, seed=seed), comments
    if kind == "file":
        try:
            with open(arg) as fh:
                raw = fh.read()
        except OSError as exc:
            click.echo(f"error: cannot read state file {arg}: {exc}", err=True)
            sys.exit(3)
        try:
            data = json.loads(raw)
            amps = [complex(x[0], x[1]) if isinstance(x, (list, tuple)) else complex(x)
                    for x in data]
        except (json.JSONDecodeError, TypeError, ValueError, IndexError):
            raise click.UsageError(f"state file {arg} is not a JSON list of numbers "
                                   "or [re, im] pairs")
        psi = np.asarray(amps, dtype=complex)
        if psi.shape != (d,):
            raise click.UsageError(f"state file holds {psi.shape[0]} amplitudes, need {d}")
        nrm = np.linalg.norm(psi)
        if nrm == 0:
            raise click.UsageError("state file holds the zero vector")
        return psi / nrm, comments
    raise click.UsageError(f"unknown state kind {kind!r}; "
                           "use fock:n, phase:l, u:k, v:l, random:<seed>, file:<path>")


@click.group()
def main() -> None:
    """Finite-dimensional torus phase-space toolkit."""


@main.command()
@click.option("--d", "d", type=int, required=True, help="Hilbert-space dimension")
@click.option("--kind", type=click.Choice(["u", "v", "fourier", "schwinger", "phase", "number-exp"]),
              required=True)
@click.option("--m", "m_text", default=None, help="label m1,m2 (required for schwinger)")
@click.option("--out", default=None, help="output path (default standard output)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def gen(d, kind, m_text, out, fmt):
    """Generate an operator matrix."""
    from . import serialization as ser
    from .lattice import build_clock_operator, build_fourier_operator, build_shift_operator

    dim = _dimension(d)
    extra = {"kind": kind}
    if kind == "u":
        mat = build_shift_operator(dim)
    elif kind == "v":
        mat = build_clock_operator(dim)
    elif kind == "fourier":
        mat = build_fourier_operator(dim)
    elif kind == "schwinger":
        if m_text is None:
            raise click.UsageError("--m is required for --kind schwinger")
        m = _parse_vec(m_text, "--m")
        extra["m"] = list(m)
        from .schwinger import schwinger_matrix
        mat = schwinger_matrix(dim, m)
    else:
        from .numberphase import build_phase_pair
        pair = build_phase_pair(dim)
        mat = pair.e_phi if kind == "phase" else pair.e_n
    if fmt == "json":
        _emit(ser.operator_json(dim, mat, extra=extra), out)
    else:
        comments = [f"D={d}", f"kind={kind}"] + ([f"m={extra['m'][0]},{extra['m'][1]}"]
                                                 if "m" in extra else [])
        _emit(ser.matrix_csv(dim, mat, comments=comments), out)


@main.command()
@click.option("--d", "d", type=int, required=True)
@click.option("--suite", type=click.Choice(list(SUITES)), default="all")
@click.option("--tol", type=float, default=None, help="tolerance (default TORUSPHASE_TOL or 1e-10)")
@click.option("--seed", type=int, default=0)
@click.option("--samples", type=int, default=None, help="random sample count per sweep")
def verify(d, suite, tol, seed, samples):
    """Run an invariant suite and print its residual table."""
    from . import verify as verify_mod
    from .serialization import format_float

    dim = _dimension(d)
    tol = _default_tol() if tol is None else tol
    try:
        rows = verify_mod.run_suite(suite, dim, seed=seed, samples=samples)
    except TorusPhaseError as exc:
        _refuse(exc)
    failed = 0
    click.echo(f"suite={suite} D={d} tol={format_float(tol)}")
    for row in rows:
        if row.kind == "info":
            status = "info"
        elif row.value < tol:
            status = "ok"
        else:
            status = "FAIL"
            failed += 1
        line = f"{row.name:<42} {format_float(row.value)}  {status}"
        if row.note:
            line += f"  # {row.note}"
        click.echo(line)
    click.echo(f"{'PASS' if failed == 0 else 'FAIL'}: {len(rows)} checks, {failed} failed")
    sys.exit(0 if failed == 0 else 1)


@main.command()
@click.option("--d", "d", type=int, required=True)
@click.option("--state", required=True, help="fock:n | phase:l | u:k | v:l | random:<seed> | file:<path>")
@click.option("--basis", type=click.Choice(["torus", "number-phase"]), default="torus")
@click.option("--decompose", is_flag=True, help="emit even/odd split on the half-integer action grid")
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv")
def wigner(d, state, basis, decompose, out, fmt):
    """Compute a Wigner function on the phase-space grid."""
    import numpy as np

    from . import serialization as ser

    dim = _dimension(d)
    psi, comments = _parse_state(dim, state)
    comments = [f"D={d}", f"basis={basis}"] + comments
    if decompose:
        if basis == "torus":
            raise click.UsageError("--decompose applies to the number-phase basis only")
        from .limits import wigner_even_odd_decomposition
        even, odd = wigner_even_odd_decomposition(dim, psi, state_ref=state)
        if fmt == "csv":
            _emit(ser.action_angle_decomposition_csv(even, odd, comments=comments), out)
        else:
            _emit(ser.dumps_json({
                "D": d, "basis": basis, "state": state,
                "J": [float(x) / 2.0 for x in range(2 * d)],
                "theta": dim.gamma0 * np.arange(d),
                "W_even": even.values,
                "W_odd": odd.values,
            }), out)
        return
    if basis == "torus":
        from .wigner import wigner_function
        try:
            grid = wigner_function(dim, psi, state_ref=state)
        except TorusPhaseError as exc:
            _refuse(exc)
        if fmt == "csv":
            _emit(ser.wigner_csv(grid, comments=comments), out)
        else:
            _emit(ser.dumps_json({
                "D": d, "basis": basis, "state": state,
                "values": grid.values,
            }), out)
    else:
        from .numberphase import wigner_number_phase
        grid = wigner_number_phase(dim, psi, state_ref=state)
        if fmt == "csv":
            _emit(ser.action_angle_csv(grid, comments=comments), out)
        else:
            _emit(ser.dumps_json({
                "D": d, "basis": basis, "state": state,
                "theta": dim.gamma0 * np.arange(d),
                "values": grid.values,
            }), out)


@main.command()
@click.option("--d", "d", type=int, required=True)
@click.option("--m", "m_text", required=True, help="first label m1,m2")
@click.option("--mp", "mp_text", required=True, help="second label m1,m2")
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv")
def spectrum(d, m_text, mp_text, out, fmt):
    """Shifted q-oscillator spectrum f(n) = C + [n] for a label pair."""
    from . import serialization as ser
    from .deformed import build_q_oscillator

    dim = _dimension(d)
    m = _parse_vec(m_text, "--m")
    mp = _parse_vec(mp_text, "--mp")
    try:
        osc = build_q_oscillator(dim, m, mp)
    except TorusPhaseError as exc:
        _refuse(exc)
    if fmt == "csv":
        _emit(ser.spectrum_csv(osc, comments=[f"D={d}"]), out)
    else:
        _emit(ser.spectrum_json(osc), out)


@main.command()
@click.option("--d", "d", type=int, required=True)
@click.option("--case", "case", required=True,
              type=click.Choice(["linear", "oscillator", "unit-cross", "quarter-cross", "custom"]))
@click.option("--cross", "cross", type=int, default=None, help="cross value for --case custom")
@click.option("--sign", type=click.Choice(["+1", "-1"]), default="+1",
              help="branch sign for limiting profiles")
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def index(d, case, cross, sign, out, fmt):
    """Spectral index of a number-function profile."""
    from . import limits as limits_mod
    from . import serialization as ser

    dim = _dimension(d)
    try:
        if case == "linear":
            profile = limits_mod.linear_profile(dim)
        elif case == "oscillator":
            profile = limits_mod.oscillator_profile(dim)
        else:
            profile = limits_mod.limiting_spectrum(dim, case, cross=cross, sign=int(sign))
    except TorusPhaseError as exc:
        _refuse(exc)
    report = limits_mod.index_report(profile)
    _emit(ser.index_json(report) if fmt == "json" else ser.index_csv(report), out)


@main.command()
@click.option("--primes", default="11,23,47,101", help="comma-separated prime ladder")
@click.option("--observable", type=click.Choice(["number-exp", "phase-exp", "wigner"]),
              default="number-exp")
@click.option("--gamma", type=float, default=1.0)
@click.option("--family", type=click.Choice(["gaussian", "number-delta"]), default="gaussian")
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv")
def converge(primes, observable, gamma, family, out, fmt):
    """Weak-convergence residual sweep along a prime ladder."""
    from . import limits as limits_mod
    from . import serialization as ser

    try:
        plist = [int(x) for x in primes.split(",")]
    except ValueError:
        raise click.UsageError(f"cannot parse prime list {primes!r}")
    try:
        if observable == "wigner":
            report = limits_mod.phase_basis_wigner_limit(plist, family=family)
        else:
            report = limits_mod.weak_convergence_sweep(plist, gamma=gamma,
                                                       observable=observable, family=family)
    except TorusPhaseError as exc:
        _refuse(exc)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit(ser.convergence_csv(report) if fmt == "csv" else ser.convergence_json(report), out)


@main.command()
@click.option("--d", "d", type=int, required=True)
@click.option("--r", "r_text", required=True, help="matrix rows a,b,c,d for [[a,b],[c,d]]")
@click.option("--tol", type=float, default=None)
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
def transform(d, r_text, tol, out, fmt):
    """Build and verify the unitary realizing an integer symplectic map."""
    from . import serialization as ser
    from . import transforms as tr_mod

    dim = _dimension(d)
    tol = _default_tol() if tol is None else tol
    try:
        parts = [int(x) for x in r_text.split(",")]
    except ValueError:
        raise click.UsageError(f"cannot parse --r {r_text!r}; expected a,b,c,d")
    if len(parts) != 4:
        raise click.UsageError("--r needs exactly four integers a,b,c,d")
    smap = tr_mod.SymplecticMap.from_rows(dim, ((parts[0], parts[1]), (parts[2], parts[3])))
    try:
        op = tr_mod.build_metaplectic(dim, smap)
    except TorusPhaseError as exc:
        _refuse(exc)
    worst, records = tr_mod.covariance_report(op)
    _emit(ser.transform_json(op, worst, records), out)
    ok = op.unitary_residual < tol and worst < max(tol, 1e-9)
    if not ok:
        click.echo(f"verification failed: unitary {op.unitary_residual:.2e}, "
                   f"covariance {worst:.2e}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
