"""Checks of job outputs against the paper's theorems.

Each check takes plain data and returns a list of failure messages; an
empty list means the output is correct.  Expected values are worked out
from theory (dimensions, closed-form eigenvalues, exponents N*k), never
copied from an earlier run.
"""

from __future__ import annotations

import cmath
import math


def check_equal(what: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{what}: got {got}, expected {expected}"]


def chebyshev_roots(tau: complex, N: int) -> list[complex]:
    """The N solutions of T_N(x) = -tau: x_j = 2 cos((theta + 2 pi j) / N)
    with 2 cos(theta) = -tau."""
    theta = cmath.acos(-tau / 2)
    return [2 * cmath.cos((theta + 2 * math.pi * j) / N) for j in range(N)]


def check_eigen_clusters(clusters, tau: complex, N: int, multiplicity: int,
                         tol: float) -> list[str]:
    """rho[K1] must have exactly N eigenvalue clusters, each of the given
    multiplicity, matching the closed-form roots one to one within tol."""
    fails = check_equal("eigenvalue clusters", len(clusters), N)
    for z, m in clusters:
        if m != multiplicity:
            fails.append(f"cluster {z:.6g} has multiplicity {m}, expected {multiplicity}")
    free = chebyshev_roots(tau, N)
    for z, _ in clusters:
        best = min(range(len(free)), key=lambda j: abs(free[j] - z), default=None)
        if best is None or abs(free[best] - z) >= tol:
            fails.append(f"eigenvalue {z:.9g} matches no closed-form root within {tol}")
        else:
            free.pop(best)
    return fails


def check_threaded_terms(trace_terms, threaded_terms, N: int) -> list[str]:
    """The exponents of T_N(Tr K) must be exactly {N k : k an exponent of Tr K}."""
    expected = {tuple(N * x for x in k) for k in trace_terms}
    got = set(threaded_terms)
    fails = []
    if got - expected:
        fails.append(f"{len(got - expected)} exponent(s) of T_N(Tr K) are not N*k, "
                     f"e.g. {min(got - expected)}")
    if expected - got:
        fails.append(f"{len(expected - got)} exponent(s) N*k missing from T_N(Tr K)")
    return fails


def check_report(what: str, report: dict) -> list[str]:
    """A skeinrep verification report must say it passed."""
    return [] if report.get("passed") else [f"{what} did not pass: {report}"]


def check_all_true(what: str, flags) -> list[str]:
    flags = list(flags)
    bad = sum(1 for f in flags if not f)
    return [f"{what}: {bad} of {len(flags)} fail"] if bad else []
