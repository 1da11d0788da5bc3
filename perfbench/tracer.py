"""Call tracing of skeinrep's public callables, installed from outside.

`Tracer.install()` replaces each callable named in LAYER_CALLS by a wrapper
that records one span per call: its name, start, end and parent span.  Every
other copy of the same object found in a loaded skeinrep module (a name that
one module re-imports from another, or a class attribute alias such as
`__rmul__ = __mul__`) is replaced too, so internal calls are seen.  Spans are
recorded only inside a job span, kept in flat arrays and written out at the
end.  `uninstall()` puts the original objects back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name).  The span name is the metric stem:
# a span named "cyclotomic.mul" feeds cyclotomic.mul_calls and
# cyclotomic.mul_s.
LAYER_CALLS = (
    ("skeinrep.cyclotomic", "CycloScalar.__mul__", "cyclotomic.mul"),
    ("skeinrep.cyclotomic", "CycloScalar.inv", "cyclotomic.inv"),
    ("skeinrep.cfalgebra", "QTElement.__mul__", "cfalgebra.qt_mul"),
    ("skeinrep.cfalgebra", "CFAlgebra.offdiag_Q", "cfalgebra.offdiag_q"),
    ("skeinrep.cfalgebra", "BalancedLattice.__init__", "cfalgebra.lattice"),
    ("skeinrep.representation", "build_rep", "representation.build_rep"),
    ("skeinrep.representation", "CFRep.apply", "representation.apply"),
    ("skeinrep.representation", "CFRep.commutant_dim", "representation.commutant"),
    ("skeinrep.kernels", "sample_generic_weights", "kernels.sample_weights"),
    ("skeinrep.kernels", "matrix_kernel", "kernels.matrix_kernel"),
    ("skeinrep.kernels", "total_kernel", "kernels.total_kernel"),
    ("skeinrep.kernels", "eigen_analysis", "kernels.eigen"),
    ("skeinrep.qtrace", "edge_parallel_trace", "qtrace.trace"),
    ("skeinrep.qtrace", "element_chebyshev", "qtrace.chebyshev"),
    ("skeinrep.qtrace", "sweep_check", "qtrace.sweep"),
    ("skeinrep.qtrace", "threading_check", "qtrace.threading"),
    ("skeinrep.moves", "phi", "moves.phi"),
    ("skeinrep.moves", "theta", "moves.theta"),
)

JOB = "job"

# Per-layer metrics: (metric name, span name, what is summed per job).
PER_LAYER = (
    ("cyclotomic.mul_calls", "cyclotomic.mul", "calls"),
    ("cyclotomic.mul_s", "cyclotomic.mul", "self"),
    ("cyclotomic.inv_calls", "cyclotomic.inv", "calls"),
    ("cyclotomic.inv_s", "cyclotomic.inv", "self"),
    ("cfalgebra.qt_mul_calls", "cfalgebra.qt_mul", "calls"),
    ("cfalgebra.qt_mul_s", "cfalgebra.qt_mul", "self"),
    ("cfalgebra.offdiag_q_s", "cfalgebra.offdiag_q", "self"),
    ("cfalgebra.lattice_s", "cfalgebra.lattice", "self"),
    ("representation.build_rep_s", "representation.build_rep", "self"),
    ("representation.apply_calls", "representation.apply", "calls"),
    ("representation.apply_s", "representation.apply", "self"),
    ("representation.commutant_s", "representation.commutant", "self"),
    ("kernels.sample_weights_s", "kernels.sample_weights", "self"),
    ("kernels.matrix_kernel_calls", "kernels.matrix_kernel", "calls"),
    ("kernels.matrix_kernel_s", "kernels.matrix_kernel", "self"),
    ("kernels.total_kernel_s", "kernels.total_kernel", "self"),
    ("kernels.eigen_s", "kernels.eigen", "self"),
    ("kernels.matrix_entries", "kernels.matrix_kernel", "size"),
    ("qtrace.trace_s", "qtrace.trace", "self"),
    ("qtrace.chebyshev_s", "qtrace.chebyshev", "self"),
    ("qtrace.sweep_s", "qtrace.sweep", "self"),
    ("qtrace.threading_s", "qtrace.threading", "self"),
    ("moves.phi_calls", "moves.phi", "calls"),
    ("moves.phi_s", "moves.phi", "self"),
    ("moves.theta_calls", "moves.theta", "calls"),
    ("moves.theta_s", "moves.theta", "self"),
)


def _matrix_entries(args) -> int:
    """rows x cols of the matrix passed to matrix_kernel."""
    M = args[0]
    if isinstance(M, np.ndarray):
        return int(M.shape[0] * M.shape[1])
    return len(M) * (len(M[0]) if len(M) else 0)


class Tracer:
    """Span recorder.  Spans live in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --

    def _open(self, name_id: int, size: int = 0) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    @contextlib.contextmanager
    def job_span(self, job: int):
        """The root span of one job; spans are recorded only inside one."""
        self._job = job
        idx = self._open(self._id(JOB))
        try:
            yield
        finally:
            self._close(idx)
            self._job = -1

    def wrap(self, fn, name: str):
        name_id = self._id(name)
        sizer = _matrix_entries if name == "kernels.matrix_kernel" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._job < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id, sizer(args) if sizer else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- patching --

    def install(self):
        """Wrap every callable of LAYER_CALLS and each copy of it held by a
        loaded skeinrep module or class."""
        for modname, path, name in LAYER_CALLS:
            obj = importlib.import_module(modname)
            *owners, attr = path.split(".")
            for part in owners:
                obj = getattr(obj, part)
            fn = vars(obj)[attr] if owners else getattr(obj, attr)
            traced = self.wrap(fn, name)
            for holder, key in _copies(fn):
                self._patched.append((holder, key, fn))
                setattr(holder, key, traced)

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    # -- analysis --

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the time its children cover."""
        dur = _np(self.end) - _np(self.start)
        parent = _np(self.parent)
        covered = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(covered, parent[has], dur[has])
        return dur - covered

    def per_job(self) -> dict[int, dict[str, float]]:
        """For each job: self time, call count and summed size per span name."""
        selft = self.self_times()
        name, job = _np(self.name), _np(self.job)
        size = _np(self.size).astype(np.float64)
        k = len(self.names)
        out: dict[int, dict[str, float]] = {}
        for j in np.unique(job):
            m = job == j
            sums = {"self": np.bincount(name[m], weights=selft[m], minlength=k),
                    "calls": np.bincount(name[m], minlength=k),
                    "size": np.bincount(name[m], weights=size[m], minlength=k)}
            out[int(j)] = {f"{n}:{kind}": (float(v[i]) if kind == "self" else int(v[i]))
                           for kind, v in sums.items()
                           for i, n in enumerate(self.names)}
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Median over jobs of each per-layer metric; 0 where unused."""
        jobs = self.per_job()
        out = {}
        for metric, span, kind in PER_LAYER:
            vals = [d.get(f"{span}:{kind}", 0) for d in jobs.values()]
            out[metric] = statistics.median(vals) if vals else 0
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=_np(self.name),
                 parent=_np(self.parent), job=_np(self.job),
                 start=_np(self.start), end=_np(self.end), size=_np(self.size))


def _np(arr: array) -> np.ndarray:
    """A numpy copy of an array.array (a view would pin its buffer)."""
    return np.frombuffer(arr, dtype=arr.typecode).copy()


def _copies(fn):
    """(holder, attribute) pairs in loaded skeinrep modules bound to fn:
    module globals, and attributes of classes those modules define."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "skeinrep" or modname.startswith("skeinrep.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is fn:
                found.append((mod, key))
            elif isinstance(val, type) and val.__module__ == modname:
                for ckey, cval in list(vars(val).items()):
                    if cval is fn:
                        found.append((val, ckey))
    return found
