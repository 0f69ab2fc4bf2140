"""Every row pinned in perfbench/verify_rows.json is printed by its suite.

The benchmark reads these pins from the CLI's output; here each gated pin is
run in-process over two seeds, so a dropped row fails in tier-1 too.
"""
import json
from pathlib import Path

import pytest

from torusphase import make_dimension, verify

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "verify_rows.json")
                  .read_text())["rows"]
# all@4 lists qosc.correspondence, a row D = 4 no longer prints; the benchmark
# never reads that pin, as its op exits 1 on a known defect, so it waits for a re-pin
UNGATED = {"all@4"}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("pin", sorted(set(PINS) - UNGATED))
def test_every_pinned_row_is_printed(pin, seed):
    suite, d = pin.split("@")
    names = {row.name for row in verify.run_suite(suite, make_dimension(int(d)), seed=seed)}
    assert not set(PINS[pin]) - names, sorted(set(PINS[pin]) - names)
