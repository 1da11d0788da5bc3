"""Regenerate the committed reference reports of `skeinrep verify`.

    PYTHONPATH=src python tests/reports/regenerate.py

Run from the root of a source checkout.  For each of the nine suites it
writes verify-<suite>-N3.json next to this file: the report of
`skeinrep verify --suite <suite> --N 3 --seed 0 --out FILE` at the default
tolerance.  tests/test_cli.py regenerates the reports in-process and
compares them with these files.  A change that regenerates them says why
and shows the diff.
"""

import sys
from pathlib import Path

from skeinrep.cli import main
from skeinrep.verify import SUITES

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    for suite in SUITES:
        out = HERE / f"verify-{suite}-N3.json"
        if main(["verify", "--suite", suite, "--N", "3", "--seed", "0", "--out", str(out)]):
            sys.exit(f"{suite}: some checks failed")
