"""Regenerate the committed reference reports of `skeinrep verify` and
`skeinrep kernels`.

    PYTHONPATH=src python tests/reports/regenerate.py

Run from the root of a source checkout.  For each of the nine suites and
N = 3 and 5 it writes verify-<suite>-N<N>.json next to this file: the
report of `skeinrep verify --suite <suite> --N <N> --seed 0 --out FILE` at
the default tolerance.  It also writes the `skeinrep kernels` reports of
genus2_sep named in tests/conftest.py (KERNELS_REPORTS): float weights at
N = 3 and 5, and exact weights at N = 3.  tests/test_cli.py regenerates the
reports in-process and compares them with these files.  A change that
regenerates them says why and shows the diff.
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import KERNELS_REPORTS, kernels_command  # noqa: E402
from skeinrep.cli import main  # noqa: E402
from skeinrep.verify import SUITES  # noqa: E402

if __name__ == "__main__":
    for N in (3, 5):
        for suite in SUITES:
            out = HERE / f"verify-{suite}-N{N}.json"
            if main(["verify", "--suite", suite, "--N", str(N), "--seed", "0", "--out", str(out)]):
                sys.exit(f"{suite} at N={N}: some checks failed")
    with tempfile.TemporaryDirectory() as workdir:
        for name in KERNELS_REPORTS:
            if main(kernels_command(name, workdir) + ["--out", str(HERE / f"{name}.json")]):
                sys.exit(f"{name}: the dimension bound failed")
