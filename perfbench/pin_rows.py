"""Regenerate verify_rows.json: the verify row names each verify job must report.

    PYTHONPATH=src python3 perfbench/pin_rows.py

The file pins coverage so that a change which drops a row fails the
benchmark's check; rows may be added.  `fock@7` is read from the fock rows of
`all` at D=7, since `--suite fock` is rejected on the commit that pinned it.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SUITES = [("all", 2), ("all", 4), ("all", 5), ("all", 7), ("all", 9), ("qosc", 11),
          ("sl2", 11), ("schwinger", 13), ("wigner", 13), ("numberphase", 13),
          ("transforms", 13)]


def row_names(suite: str, d: int) -> list[str]:
    out = subprocess.run([sys.executable, os.path.join(HERE, "cli_shim.py"), "verify",
                          "--d", str(d), "--suite", suite],
                         capture_output=True, text=True).stdout
    return [line.split()[0] for line in out.splitlines()[1:-1]]


def main() -> None:
    rows = {f"{s}@{d}": row_names(s, d) for s, d in SUITES}
    rows["fock@7"] = [n.split(".", 1)[1] for n in rows["all@7"] if n.startswith("fock.")]
    with open(os.path.join(HERE, "verify_rows.json"), "w") as fh:
        json.dump({"about": "verify row names per suite@D; see pin_rows.py", "rows": rows},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
