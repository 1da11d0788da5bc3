"""Tests of the benchmark's own code: every check rejects a wrong answer, and
traced self times fit inside the job that contains them.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import workloads  # noqa: E402
from checks import (check_eigen_clusters, check_threaded_terms,  # noqa: E402
                    chebyshev_roots)
from skeinrep import qtrace  # noqa: E402
from skeinrep.cyclotomic import CycloScalar  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


class SmallFloat(workloads.FloatGenus2):
    """The float job at N=3 (dim 81), fast enough for a unit test."""
    N = 3
    max_jobs = 1


@pytest.fixture(scope="module")
def float_job():
    wl = SmallFloat(7)
    x = wl.inputs[0]
    return wl, x, wl.job(x)


def test_chebyshev_roots_solve_threading_equation():
    tau = complex(0.7, -0.2)
    for N in (3, 5):
        cheb = qtrace.chebyshev(N)
        for x in chebyshev_roots(tau, N):
            assert abs(cheb.eval_scalar(x) + tau) < 1e-12


def test_float_job_passes(float_job):
    wl, x, out = float_job
    assert wl.check(x, out) == []


def test_float_check_rejects_wrong_dimension(float_job):
    wl, x, out = float_job
    for key, what in (("dim", "dim E"), ("F", "dim F")):
        bad = dict(out, **{key: out[key] - 1})
        assert any(f.startswith(what + ":") for f in wl.check(x, bad))


def test_float_check_rejects_shifted_eigenvalue(float_job):
    wl, x, out = float_job
    clusters = list(out["clusters"])
    z, m = clusters[0]
    clusters[0] = (z + 1e-4, m)
    fails = wl.check(x, dict(out, clusters=clusters))
    assert any("matches no closed-form root" in f for f in fails)


def test_eigen_check_rejects_wrong_count_and_multiplicity():
    tau, N = complex(0.3, 0.1), 3
    good = [(z, 27) for z in chebyshev_roots(tau, N)]
    assert check_eigen_clusters(good, tau, N, 27, 1e-6) == []
    assert check_eigen_clusters(good[:2], tau, N, 27, 1e-6)
    assert check_eigen_clusters([good[0], good[0], good[1]], tau, N, 27, 1e-6)
    assert check_eigen_clusters([(z, 26) for z, _ in good], tau, N, 27, 1e-6)


def test_threaded_terms_reject_exponent_not_N_times_k():
    wl = SmallFloat(0)
    tr = qtrace.edge_parallel_trace(wl.alg, wl.loop)
    threaded = qtrace.element_chebyshev(tr, wl.N)
    assert check_threaded_terms(tr.terms, threaded.terms, wl.N) == []
    k = next(iter(threaded.terms))
    bad = dict(threaded.terms)
    c = bad.pop(k)
    bad[(k[0] + 1,) + k[1:]] = c
    assert check_threaded_terms(tr.terms, bad, wl.N)
    bad.pop((k[0] + 1,) + k[1:])
    assert check_threaded_terms(tr.terms, bad, wl.N)


def test_exact_check_rejects_wrong_answers():
    wl = workloads.ExactGenus2(0)
    assert len(wl.inputs) == 68
    W, tau = wl.inputs[0]
    good = {"dim": 81, "F": 27, "commutant": 1,
            "sweep": {"passed": True, "kernel_dim": 27},
            "threads": [{"passed": True, "scalar": -tau}] * 2}
    assert wl.check(wl.inputs[0], good) == []
    wrong = [dict(good, F=26), dict(good, commutant=2),
             dict(good, sweep={"passed": True, "kernel_dim": 28}),
             dict(good, threads=[{"passed": True, "scalar": tau + 1}] * 2)]
    for bad in wrong:
        assert wl.check(wl.inputs[0], bad), bad


def test_traced_self_times_fit_in_job_wall_time():
    wl = SmallFloat(3)
    tracer = Tracer()
    original = CycloScalar.__mul__
    tracer.install()
    try:
        assert CycloScalar.__mul__ is not original
        assert CycloScalar.__rmul__ is CycloScalar.__mul__
        assert hasattr(qtrace.total_kernel, "__wrapped__")  # re-imported copy
        with tracer.job_span(0):
            out = wl.job(wl.inputs[0])
    finally:
        tracer.uninstall()
    assert CycloScalar.__mul__ is original and CycloScalar.__rmul__ is original
    assert wl.check(wl.inputs[0], out) == []
    per_job = tracer.per_job()[0]
    idx = list(tracer.name).index(tracer.names.index("job"))
    wall = tracer.end[idx] - tracer.start[idx]
    layer_self = sum(v for k, v in per_job.items()
                     if k.endswith(":self") and k != "job:self")
    assert 0 < layer_self <= wall
    assert layer_self + per_job["job:self"] == pytest.approx(wall, rel=1e-9)
    metrics = tracer.layer_metrics()
    assert set(metrics) == {m for m, _, _ in PER_LAYER}
    assert metrics["kernels.matrix_kernel_calls"] >= 2
    assert metrics["moves.phi_calls"] == 0


def test_spans_outside_a_job_are_not_recorded():
    tracer = Tracer()
    tracer.install()
    try:
        workloads.ExactGenus2(0)
    finally:
        tracer.uninstall()
    assert len(tracer.name) == 0
