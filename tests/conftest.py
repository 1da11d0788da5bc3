import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Property tests run the same few examples on every run, with no time limit
# per example and no example database on disk.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=15,
                          database=None)
settings.load_profile("tier1")

from skeinrep import scalars
from skeinrep.cfalgebra import CFAlgebra
from skeinrep.triangulation import octahedron, standard_library
from skeinrep.verify import exact_genus2_weights


@pytest.fixture(scope="session")
def torus():
    return standard_library("torus1")


@pytest.fixture(scope="session")
def sphere():
    return standard_library("sphere2")


@pytest.fixture(scope="session")
def genus2():
    return standard_library("genus2_sep")


@pytest.fixture(scope="session")
def octa():
    return octahedron()


def random_balanced_exponent(alg: CFAlgebra, rng: random.Random, bound: int = 2):
    """Random vector in the balanced lattice with small entries."""
    lat = alg.lattice
    while True:
        k = [0] * alg.n
        for b in lat.basis:
            c = rng.randint(-bound, bound)
            if c:
                k = [a + c * x for a, x in zip(k, b)]
        if any(k):
            return tuple(k)


def random_balanced_monomial(alg: CFAlgebra, rng: random.Random, bound: int = 2):
    k = random_balanced_exponent(alg, rng, bound)
    return alg.monomial(k, alg.omega(rng.randrange(4 * alg.N)))


def exact_operator(field, terms):
    """The operator (scalars.Operator) of terms (perm, scale) of lists, the
    scales elements of field."""
    n = len(terms[0][0])
    nums, den = field.array([a for _, scale in terms for a in scale])
    return scalars.Operator(np.array([perm for perm, _ in terms], dtype=np.int64),
                            nums.reshape(len(terms), n, field.degree), field, den)


def diagonals(M):
    """A matrix (numpy array or list of exact rows) as an operator: its n
    cyclic diagonals, term s holding M[(i + s) % n, i] at column i.  A
    rectangular M is first padded with zeros to n = max(rows, cols), which
    leaves its rank unchanged."""
    if isinstance(M, np.ndarray):
        n = max(M.shape)
        P = np.zeros((n, n), dtype=complex)
        P[:M.shape[0], :M.shape[1]] = M
        perms = (np.arange(n) + np.arange(n)[:, None]) % n
        return scalars.Operator(perms, P[perms, np.arange(n)])
    n = max(len(M), len(M[0]))
    zero = M[0][0].field.zero()
    P = [list(row) + [zero] * (n - len(row)) for row in M]
    P += [[zero] * n for _ in range(n - len(M))]
    return exact_operator(zero.field, [([(i + s) % n for i in range(n)],
                                        [P[(i + s) % n][i] for i in range(n)])
                                       for s in range(n)])


def dense_bases(spaces):
    """The bases of joint spaces (scalars.JointSpaces) made dense: an
    (n, dim, count) array, space j's basis in [:, :, j]."""
    C, _, m, count = spaces.local.shape
    U = np.zeros((spaces.n, C * m, count), dtype=complex)
    U[spaces.comps[:, :, None], np.arange(C * m).reshape(C, 1, m)] = spaces.local
    return U


def record_float_kernels(monkeypatch) -> list:
    """The shapes of the matrices passed to FloatArithmetic.kernel from now on."""
    shapes = []
    original = scalars.FloatArithmetic.kernel

    def kernel(self, M, tol):
        shapes.append(np.shape(M))
        return original(self, M, tol)

    monkeypatch.setattr(scalars.FloatArithmetic, "kernel", kernel)
    return shapes


# ---- committed reference reports (tests/reports, regenerate.py) ----

REPORTS = Path(__file__).resolve().parent / "reports"

# a number with a decimal point or an exponent; integers stay in the text
DECIMAL = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")


def split_decimals(detail: str):
    """(detail with each decimal number replaced by '#', the numbers)."""
    return DECIMAL.sub("#", detail), [float(x) for x in DECIMAL.findall(detail)]


def assert_same_report(got: dict, want: dict):
    """Suite, N, seed, check names, pass/fail and every detail equal,
    except the decimal numbers inside a detail, which match to a relative
    1e-9 or an absolute 1e-12: a residual at the noise level may differ
    between BLAS builds and Python versions."""
    assert {k: v for k, v in got.items() if k != "checks"} == \
        {k: v for k, v in want.items() if k != "checks"}
    assert [(c["name"], c["passed"]) for c in got["checks"]] == \
        [(c["name"], c["passed"]) for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        (g_text, g_nums), (w_text, w_nums) = (split_decimals(r["detail"]) for r in (g, w))
        assert g_text == w_text, g["name"]
        assert all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                   for a, b in zip(g_nums, w_nums)), (g["name"], g_nums, w_nums)


# name -> (N, weights) of the committed `skeinrep kernels` reports of
# genus2_sep at seed 0: float weights drawn by the CLI, or exact ones
KERNELS_REPORTS = {"kernels-genus2_sep-N3": (3, "float"), "kernels-genus2_sep-N5": (5, "float"),
                   "kernels-genus2_sep-exact-N3": (3, "exact")}


def kernels_command(name: str, workdir) -> list:
    """The `skeinrep kernels` arguments of a committed report; exact weights
    are those of verify.exact_genus2_weights, written to workdir."""
    N, weights = KERNELS_REPORTS[name]
    args = ["kernels", "--name", "genus2_sep", "--N", str(N), "--seed", "0"]
    if weights == "exact":
        path = Path(workdir) / "weights.json"
        alg = CFAlgebra(standard_library("genus2_sep"), N)
        path.write_text(exact_genus2_weights(alg).to_json())
        args += ["--weights", str(path)]
    return args


def assert_same_kernels_report(got: dict, want: dict):
    """Every field equal, the eigenvalues' multiplicities too, but the
    eigenvalues themselves only to an absolute 1e-12."""
    def without_values(report):
        return dict(report, eigen=[e["multiplicity"] for e in report["eigen"]])

    assert without_values(got) == without_values(want)
    assert all(math.isclose(a, b, rel_tol=0, abs_tol=1e-12)
               for g, w in zip(got["eigen"], want["eigen"]) for a, b in zip(g["value"], w["value"]))
