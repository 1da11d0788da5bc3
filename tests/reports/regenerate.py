"""Regenerate the committed reference reports of `skeinrep verify`.

    PYTHONPATH=src python tests/reports/regenerate.py

Run from the root of a source checkout.  For each of the nine suites and
N = 3 and 5 it writes verify-<suite>-N<N>.json next to this file: the
report of `skeinrep verify --suite <suite> --N <N> --seed 0 --out FILE` at
the default tolerance.  tests/test_cli.py regenerates the reports
in-process and compares them with these files.  A change that regenerates them says why
and shows the diff.
"""

import sys
from pathlib import Path

from skeinrep.cli import main
from skeinrep.verify import SUITES

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    for N in (3, 5):
        for suite in SUITES:
            out = HERE / f"verify-{suite}-N{N}.json"
            if main(["verify", "--suite", suite, "--N", str(N), "--seed", "0", "--out", str(out)]):
                sys.exit(f"{suite} at N={N}: some checks failed")
