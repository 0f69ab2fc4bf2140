"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Output is deterministic: identical invocations produce byte-identical files
(17-significant-digit floats, fixed column order, seeds recorded in headers).
The TORUSPHASE_TOL environment variable overrides the default tolerance.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import DimensionTooLargeError, TorusPhaseError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

    from .lattice import Dimension

# The parser is the standard library's: a CLI call pays no start-up for a
# third-party one.  Each command imports what it runs in its own body:
# `--help` loads no numpy, and a command loads only the layers it uses.

# verify._DISPATCH's suite names plus "all", spelled out so that the option
# needs no import; a test pins the two together.
SUITES = ("schwinger", "qosc", "sl2", "wigner", "numberphase", "transforms", "fock", "all")

_INF = float("inf")

# Largest D per command (per observable or case where that sets the size):
# the largest array the command allocates stays within 2^28 bytes (256 MiB)
# of complex entries.  That array has D entries for the profiles of converge
# and index (D <= 2^24) and D x D for the rest (D <= 4096): every verify suite
# among them, since the wigner and transforms suites build kernels one grid
# point at a time and the schwinger and numberphase suites hold the pair's
# powers as D monomials.
_MAX_D = {
    "gen": 4096, "wigner": 4096, "spectrum": 4096, "transform": 4096, "verify": 4096,
    "converge": {"number-exp": 1 << 24, "phase-exp": 1 << 24, "wigner": 4096},
    "index": {"linear": 1 << 24, "oscillator": 4096, "unit-cross": 1 << 24,
              "quarter-cross": 1 << 24, "custom": 1 << 24},
}


class _UsageError(Exception):
    """An input the parser accepted but the command cannot use; exits 2."""


# -- option values -------------------------------------------------------
# argparse types: each returns the parsed value or raises ArgumentTypeError,
# which the parser reports as a usage error.

def _integer(low: int | None = None):
    """An integer, at least `low` when given."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _real(text: str) -> float:
    """A finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid number") from None
    if not abs(value) < _INF:                       # false for nan and +-inf
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    """A finite float above 0: a residual below it passes."""
    value = _real(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not above 0")
    return value


def _integers(count: int | None = None):
    """Comma-separated integers, exactly `count` of them when given."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma-separated list of integers") from None
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(
                f"{text!r} has {len(values)} components, need {count}")
        return values
    return parse


def _label(text: str) -> tuple[int, ...]:
    """A label m1,m2 whose components are below 2^31 in magnitude, as the builders need."""
    from .lattice import _LABEL_BOUND

    values = _integers(2)(text)
    if any(abs(x) >= _LABEL_BOUND for x in values):
        raise argparse.ArgumentTypeError(f"{text!r} has a component of magnitude 2^31 or more")
    return values


def _default_tol() -> float:
    text = os.environ.get("TORUSPHASE_TOL", "1e-10")
    try:
        return _tolerance(text)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"TORUSPHASE_TOL={text!r}: {exc}") from None


# -- command plumbing ----------------------------------------------------

def _refuse(exc: TorusPhaseError) -> NoReturn:
    """Report a structured construction error and exit 2."""
    print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
    sys.exit(2)


def _check_bound(d: int, command: str, variant: str | None = None) -> None:
    """Refuse (exit 2) a D above the command's bound, before anything is allocated."""
    bound = _MAX_D[command] if variant is None else _MAX_D[command][variant]
    if d > bound:
        which = "" if variant is None else f" for {variant}"
        _refuse(DimensionTooLargeError(
            f"D={d} is above {bound}, the largest D that {command} accepts{which}"))


def _dimension(d: int, command: str, variant: str | None = None) -> Dimension:
    from .lattice import make_dimension

    _check_bound(d, command, variant)
    dim = make_dimension(d)
    if not dim.prime:
        print(f"warning: D={d} is not prime; some labels are reducible and "
              "eigensystem-based constructions may be degenerate", file=sys.stderr)
    return dim


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        sys.exit(3)


def _parse_state(dim: Dimension, spec: str):
    """State specifiers: fock:n, phase:l, u:k, v:l, random:<seed>, file:<path>."""
    import numpy as np

    from .lattice import basis_state, random_state

    kind, sep, arg = spec.partition(":")
    if not sep:
        raise _UsageError(f"malformed state spec {spec!r}; expected kind:value")
    d = dim.d
    comments: list[str] = [f"state={spec}"]
    if kind in ("fock", "u", "v", "phase"):
        try:
            k = int(arg)
        except ValueError:
            raise _UsageError(f"state index {arg!r} is not an integer")
        return basis_state(dim, "u" if kind == "fock" else kind, k), comments
    if kind == "random":
        try:
            seed = int(arg)
        except ValueError:
            raise _UsageError(f"random state seed {arg!r} is not an integer")
        if seed < 0:
            raise _UsageError(f"random state seed {seed} is negative")
        comments.append(f"seed={seed}")
        return random_state(dim, seed=seed), comments
    if kind == "file":
        import json

        try:
            with open(arg) as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"error: cannot read state file {arg}: {exc}", file=sys.stderr)
            sys.exit(3)
        try:
            data = json.loads(raw)
            amps = [complex(x[0], x[1]) if isinstance(x, (list, tuple)) else complex(x)
                    for x in data]
        except (json.JSONDecodeError, TypeError, ValueError, IndexError):
            raise _UsageError(f"state file {arg} is not a JSON list of numbers "
                              "or [re, im] pairs")
        psi = np.asarray(amps, dtype=complex)
        if psi.shape != (d,):
            raise _UsageError(f"state file holds {psi.shape[0]} amplitudes, need {d}")
        nrm = np.linalg.norm(psi)
        if nrm == 0:
            raise _UsageError("state file holds the zero vector")
        return psi / nrm, comments
    raise _UsageError(f"unknown state kind {kind!r}; "
                      "use fock:n, phase:l, u:k, v:l, random:<seed>, file:<path>")


# -- the command table ---------------------------------------------------
# Each command is a public module-level function, looked up by name when it
# runs; `_command` records its help line and its options, one
# `(flag, add_argument keywords)` pair per option.

_COMMANDS: dict[str, tuple[str, tuple]] = {}


def _command(*options: tuple[str, dict]):
    def register(fn):
        _COMMANDS[fn.__name__] = (fn.__doc__, options)
        return fn
    return register


def _opt(flag: str, **kw) -> tuple[str, dict]:
    return flag, kw


def _format(default: str, choices=("json", "csv")) -> tuple[str, dict]:
    return _opt("--format", dest="fmt", choices=choices, default=default)


_D = _opt("--d", type=_integer(2), required=True, help="Hilbert-space dimension")


@_command(
    _D,
    _opt("--kind", choices=("u", "v", "fourier", "schwinger", "phase", "number-exp"),
         required=True),
    _opt("--m", type=_label, help="label m1,m2 (required for schwinger)"),
    _opt("--out", help="output path (default standard output)"),
    _format("json"),
)
def gen(d, kind, m, out, fmt):
    """Generate an operator matrix."""
    from . import serialization as ser
    from .lattice import build_clock_operator, build_fourier_operator, build_shift_operator

    dim = _dimension(d, "gen")
    extra = {"kind": kind}
    if kind == "u":
        mat = build_shift_operator(dim)
    elif kind == "v":
        mat = build_clock_operator(dim)
    elif kind == "fourier":
        mat = build_fourier_operator(dim)
    elif kind == "schwinger":
        if m is None:
            raise _UsageError("--m is required for --kind schwinger")
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
        comments = [f"D={d}", f"kind={kind}"] + ([f"m={m[0]},{m[1]}"] if "m" in extra else [])
        _emit(ser.matrix_csv(dim, mat, comments=comments), out)


@_command(
    _D,
    _opt("--suite", choices=SUITES, default="all"),
    _opt("--tol", type=_tolerance, help="tolerance (default TORUSPHASE_TOL or 1e-10)"),
    _opt("--seed", type=_integer(0), default=0),
    _opt("--samples", type=_integer(1), help="random sample count per sweep"),
)
def verify(d, suite, tol, seed, samples):
    """Run an invariant suite and print its residual table."""
    from . import verify as verify_mod
    from .serialization import format_float

    dim = _dimension(d, "verify")
    tol = _default_tol() if tol is None else tol
    try:
        rows = verify_mod.run_suite(suite, dim, seed=seed, samples=samples)
    except TorusPhaseError as exc:
        _refuse(exc)
    failed = 0
    lines = [f"suite={suite} D={d} tol={format_float(tol)}"]
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
        lines.append(line)
    lines.append(f"{'PASS' if failed == 0 else 'FAIL'}: {len(rows)} checks, {failed} failed")
    print("\n".join(lines))
    sys.exit(0 if failed == 0 else 1)


@_command(
    _D,
    _opt("--state", required=True,
         help="fock:n | phase:l | u:k | v:l | random:<seed> | file:<path>"),
    _opt("--basis", choices=("torus", "number-phase"), default="torus"),
    _opt("--decompose", action="store_true",
         help="emit even/odd split on the half-integer action grid"),
    _opt("--out"),
    _format("csv"),
)
def wigner(d, state, basis, decompose, out, fmt):
    """Compute a Wigner function on the phase-space grid."""
    import numpy as np

    from . import serialization as ser

    dim = _dimension(d, "wigner")
    psi, comments = _parse_state(dim, state)
    comments = [f"D={d}", f"basis={basis}"] + comments
    if decompose:
        if basis == "torus":
            raise _UsageError("--decompose applies to the number-phase basis only")
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


@_command(
    _D,
    _opt("--m", type=_label, required=True, help="first label m1,m2"),
    _opt("--mp", type=_label, required=True, help="second label m1,m2"),
    _opt("--out"),
    _format("csv"),
)
def spectrum(d, m, mp, out, fmt):
    """Shifted q-oscillator spectrum f(n) = C + [n] for a label pair."""
    from . import serialization as ser
    from .deformed import build_q_oscillator

    dim = _dimension(d, "spectrum")
    try:
        osc = build_q_oscillator(dim, m, mp)
    except TorusPhaseError as exc:
        _refuse(exc)
    if fmt == "csv":
        _emit(ser.spectrum_csv(osc, comments=[f"D={d}"]), out)
    else:
        _emit(ser.spectrum_json(osc), out)


@_command(
    _D,
    _opt("--case", required=True,
         choices=("linear", "oscillator", "unit-cross", "quarter-cross", "custom")),
    _opt("--cross", type=_integer(), help="cross value for --case custom"),
    _opt("--sign", choices=("+1", "-1"), default="+1", help="branch sign for limiting profiles"),
    _opt("--out"),
    _format("json"),
)
def index(d, case, cross, sign, out, fmt):
    """Spectral index of a number-function profile."""
    from . import limits as limits_mod
    from . import serialization as ser

    dim = _dimension(d, "index", case)
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


@_command(
    _opt("--primes", type=_integers(), default="11,23,47,101",
         help="comma-separated prime ladder"),
    _opt("--observable", choices=("number-exp", "phase-exp", "wigner"), default="number-exp"),
    _opt("--gamma", type=_real, default=1.0),
    _opt("--family", choices=("gaussian", "number-delta"), default="gaussian"),
    _opt("--out"),
    _format("csv"),
)
def converge(primes, observable, gamma, family, out, fmt):
    """Weak-convergence residual sweep along a prime ladder."""
    from . import limits as limits_mod
    from . import serialization as ser

    for p in primes:
        _check_bound(p, "converge", observable)
    try:
        if observable == "wigner":
            report = limits_mod.phase_basis_wigner_limit(list(primes), family=family)
        else:
            report = limits_mod.weak_convergence_sweep(list(primes), gamma=gamma,
                                                       observable=observable, family=family)
    except TorusPhaseError as exc:
        _refuse(exc)
    _emit(ser.convergence_csv(report) if fmt == "csv" else ser.convergence_json(report), out)


@_command(
    _D,
    _opt("--r", type=_integers(4), required=True, help="matrix rows a,b,c,d for [[a,b],[c,d]]"),
    _opt("--tol", type=_tolerance),
    _opt("--out"),
    _format("json", choices=("json",)),
)
def transform(d, r, tol, out, fmt):
    """Build and verify the unitary realizing an integer symplectic map."""
    from . import serialization as ser
    from . import transforms as tr_mod

    dim = _dimension(d, "transform")
    tol = _default_tol() if tol is None else tol
    smap = tr_mod.SymplecticMap.from_rows(dim, (r[:2], r[2:]))
    try:
        op = tr_mod.build_metaplectic(dim, smap)
    except TorusPhaseError as exc:
        _refuse(exc)
    report = tr_mod.covariance_report(op)
    _emit(ser.transform_json(op, report), out)
    ok = op.unitary_residual < tol and report.worst < max(tol, 1e-9)
    if not ok:
        print(f"verification failed: unitary {op.unitary_residual:.2e}, "
              f"covariance {report.worst:.2e}", file=sys.stderr)
        sys.exit(1)


# -- parser and entry point ----------------------------------------------

class _HelpFormatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """`--help` only (no `-h`), no abbreviated options, and usage errors as

        Usage: <usage line>
        Try '<prog> --help' for help.

        Error: <message>

    exiting 2.
    """

    def __init__(self, **kw) -> None:
        super().__init__(formatter_class=_HelpFormatter, add_help=False, allow_abbrev=False,
                         **kw)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str) -> NoReturn:
        name, sep, reason = message.partition(": ")
        if sep and name.startswith("argument "):
            message = f"Invalid value for '{name[len('argument '):]}': {reason}"
        self.print_usage(sys.stderr)
        self.exit(2, f"Try '{self.prog} --help' for help.\n\nError: {message}\n")


def _attach_values(argv: list[str], options) -> list[str]:
    """`--opt value` as `--opt=value` for each of the options that take a value.

    The next word is the option's value whatever it starts with, so a label
    such as `--m -12,34` is not read as an unknown option `-12,34`.
    """
    valued = {flag for flag, kw in options if "action" not in kw}
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in valued and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(args=None, prog_name=None) -> NoReturn:
    """Run one CLI command and exit with its code."""
    argv = sys.argv[1:] if args is None else list(args)
    parser = _Parser(prog=prog_name, description="Finite-dimensional torus phase-space toolkit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True,
                                     title="commands")
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (doc, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=doc, description=doc)
        if name == command:     # the others are only listed, in the top-level help
            for flag, kw in options:
                sub.add_argument(flag, **kw)
    if command is not None:
        argv = [command, *_attach_values(argv[1:], _COMMANDS[command][1])]
    values = vars(parser.parse_args(argv))
    name = values.pop("command")
    try:
        globals()[name](**values)
    except _UsageError as exc:
        commands.choices[name].error(str(exc))
    sys.exit(0)


if __name__ == "__main__":
    main()
