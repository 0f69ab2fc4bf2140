"""Worst value of every gated row of some verify suites on a ladder of D, with its growth law.

A tooling script, not a test (pytest collects only test_*.py).  Run from the
repository root:

    PYTHONPATH=src python tests/scan_rows.py [SUITE ...] [D ...]

The default suites are qosc and sl2, the default ladder D = 211, 401, 709 and
1009.  For each gated ("residual") row of each `verify --suite SUITE` it prints
the row's value at every D and the exponent p of a least-squares fit
value ~ D^p over the D where the row is nonzero; a row that reads 0 everywhere
has no exponent.  A value above the default tolerance 1e-10 is marked with "*".
"""
import math
import sys
import time

import numpy as np

from torusphase import make_dimension, verify

SUITES = ("qosc", "sl2")
LADDER = (211, 401, 709, 1009)
TOL = 1e-10


def gated_rows(suite: str, d: int) -> dict:
    """Value of each gated row of one suite at D, by row name."""
    return {row.name: row.value for row in verify.run_suite(suite, make_dimension(d))
            if row.kind == "residual"}


def growth(ds, values) -> float:
    """Exponent p of the least-squares fit value ~ D^p over the nonzero values; nan if < 2."""
    pts = [(math.log(d), math.log(v)) for d, v in zip(ds, values) if v > 0]
    if len(pts) < 2:
        return math.nan
    x, y = np.array(pts).T
    return float(np.polyfit(x, y, 1)[0])


def main(suites, ds) -> None:
    header = ["row"] + [f"D={d}" for d in ds] + ["p"]
    print(" | ".join(header))
    for suite in suites:
        per_d = []
        for d in ds:
            start = time.perf_counter()
            per_d.append(gated_rows(suite, d))
            print(f"# {suite} at D={d}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        for name in per_d[0]:
            values = [rows.get(name, math.nan) for rows in per_d]
            cells = [f"{v:.3g}" + ("*" if v > TOL else "") for v in values]
            p = growth(ds, values)
            print(" | ".join([f"{suite}.{name}", *cells, "-" if math.isnan(p) else f"{p:.2f}"]))


if __name__ == "__main__":
    args = sys.argv[1:]
    main([a for a in args if not a.isdigit()] or SUITES,
         [int(a) for a in args if a.isdigit()] or LADDER)
