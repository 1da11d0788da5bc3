"""Benchmark of skeinrep: one workload, closed loop, one job at a time.

    python3 perfbench/run.py --workload float_g2_n5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; skeinrep is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (setup_s, job_p50_s, jobs_per_s, peak_rss_mb), measured with
tracing off; with --trace 1 they are the per-layer ones from a run in which
skeinrep's public callables are wrapped (see tracer.py), and the spans are
written to .perfbench_out/spans-<workload>.npz.  A summary goes to stderr.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# Fixed before numpy loads: one BLAS thread, so a job's time does not depend
# on how many cores happen to be free.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

# Set-up is timed in this process and in SETUP_SAMPLES - 1 fresh child
# processes started after the timed phase; the median is reported.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the set-up, print its time and exit (used for "
                        "the repeated set-up samples)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_workloads():
    """Import skeinrep from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "skeinrep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no skeinrep source tree at {src}")
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads
    return np, workloads


def set_up(args):
    """Imports, the workload's inputs and one warm-up LAPACK call."""
    np, workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    np.linalg.svd(np.eye(8) + 1j * np.ones((8, 8)))
    return wl, time.perf_counter() - START


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def run_jobs(wl, seconds, tracer):
    """Closed loop over the inputs.  After the workload's first `min_jobs`
    jobs, a job starts only if, at the median duration so far, it would end
    within `seconds`."""
    from skeinrep.errors import SkeinrepError
    import numpy as np
    durations, passed, cpu, failures = [], [], [], []
    t0 = time.perf_counter()
    t_end = t0
    for i, x in enumerate(wl.inputs):
        if (len(durations) >= wl.min_jobs
                and (t_end - t0) + statistics.median(durations) > seconds):
            break
        scope = tracer.job_span(i) if tracer else contextlib.nullcontext()
        c_start, t_start = time.process_time(), time.perf_counter()
        try:
            with scope:
                out = wl.job(x)
            fails = None
        except (SkeinrepError, ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
            fails = [f"{type(exc).__name__}: {exc}"]
        t_end = time.perf_counter()
        cpu.append(time.process_time() - c_start)
        durations.append(t_end - t_start)
        if fails is None:
            fails = wl.check(x, out)
        if fails:
            failures.append((i, fails))
        else:
            passed.append(durations[-1])
    return {"durations": durations, "passed": passed, "cpu": cpu,
            "failures": failures, "wall": t_end - t0}


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    res = run_jobs(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = len(res["durations"]), len(res["failures"])
    times = res["passed"] or res["durations"]
    jobs_per_s = len(res["passed"]) / res["wall"]

    if tracer:
        tracer.uninstall()
        metrics = {name: {"value": v, "unit": _unit(name)}
                   for name, v in tracer.layer_metrics().items()}
        metrics["process.cpu_s"] = {"value": statistics.median(res["cpu"]), "unit": "s"}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
    else:
        setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "blas_threads": BLAS_THREADS, "jobs": attempted,
               "job_s": [round(d, 4) for d in res["durations"]],
               "jobs_per_s": jobs_per_s, "failures": res["failures"]}
    print(json.dumps(summary, default=str), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
