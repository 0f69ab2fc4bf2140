"""Seeded inputs: states, state specifiers, symplectic maps and labels.

Every input the program receives is drawn here from the workload seed, so
one seed always gives the same inputs.  States handed over as `file:` specs
are written as JSON lists of [re, im] pairs with full float precision.
"""
from __future__ import annotations

import json
import os

import numpy as np


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) so adding a stream moves no other."""
    return np.random.default_rng([seed, *stream.encode()])


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def spec_state(d: int, spec: str) -> np.ndarray:
    """Amplitudes named by a fock:/v:/phase: specifier, from the definitions."""
    kind, _, arg = spec.partition(":")
    k = int(arg) % d
    n = np.arange(d)
    if kind == "fock":
        psi = np.zeros(d, dtype=complex)
        psi[k] = 1.0
        return psi
    if kind == "v":                      # column k of the DFT, e^{-i gamma0 n k}/sqrt(D)
        return np.exp(-2j * np.pi * ((n * k) % d) / d) / np.sqrt(d)
    if kind == "phase":                  # phase state, e^{+i gamma0 n k}/sqrt(D)
        return np.exp(2j * np.pi * ((n * k) % d) / d) / np.sqrt(d)
    raise ValueError(f"no oracle for state spec {spec!r}")


def write_state(path: str, psi: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump([[float(z.real), float(z.imag)] for z in psi], fh)


def read_state(path: str) -> np.ndarray:
    """The state a file: spec names, normalized as the CLI normalizes it."""
    with open(path) as fh:
        psi = np.array([complex(re, im) for re, im in json.load(fh)])
    return psi / np.linalg.norm(psi)


def make_state_spec(d: int, kind: str, rng: np.random.Generator, workdir: str, tag: str) -> str:
    """A state specifier of the given kind; `file` writes a random state to workdir."""
    if kind == "file":
        path = os.path.join(workdir, f"state-{tag}-d{d}.json")
        write_state(path, random_state(d, rng))
        return f"file:{path}"
    return f"{kind}:{int(rng.integers(0, 2 * d))}"     # unreduced index on purpose


def symplectic_rows(d: int, rng: np.random.Generator) -> list[list[int]]:
    """Integer [[a, b], [c, e]] with det = 1 mod D, entries left unreduced.

    D must be prime so every nonzero residue is invertible.
    """
    while True:
        a, c = (int(x) for x in rng.integers(0, d, 2))
        if (a, c) != (0, 0):
            break
    x = int(rng.integers(0, d))
    if a:
        b, e = x, ((1 + c * x) * pow(a, -1, d)) % d
    else:
        b, e = (-pow(c, -1, d)) % d, x
    rows = [[a, b], [c, e]]
    rows = [[v + d * int(rng.integers(-1, 2)) for v in row] for row in rows]
    if (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % d != 1 % d:
        raise RuntimeError("generated map is not symplectic")
    return rows


def label(d: int, rng: np.random.Generator, span: int = 2) -> tuple[int, int]:
    """An integer label drawn from [-span D, span D], so reduction signs occur."""
    return tuple(int(x) for x in rng.integers(-span * d, span * d + 1, 2))
