"""Span recorder for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of every
tfcond module, a few public methods the per-layer metrics need, the FFT entry
points of ``numpy.fft`` and ``scipy.fft``, ``numpy.linalg.eigh``, the
``lobpcg`` call site of ``tfcond.groundstate`` and the thread pools of
``tfcond.harness`` and ``tfcond.dynamics`` (so that spans opened in a worker
thread keep the span that submitted the work as their parent).

A span is ``(id, parent, name, start, end, attrs)``.  Spans stay in memory
until the run writes them out.  Untraced runs never construct a Tracer, so
they run the package exactly as shipped.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
import warnings
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("grids", "model", "groundstate", "dynamics", "manybody", "harness", "cli")

# transform entry points; fftfreq/fftshift only build index arrays
FFT_FUNCS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)

# public methods the per-layer metrics need, besides the functions in
# __all__: (module, class, method, span name)
METHODS = (
    ("model", "InteractionSpec", "kernel_on_grid", "model.kernel_on_grid"),
    ("manybody", "SymmetricSector", "__init__", "manybody.SymmetricSector"),
    ("manybody", "SymmetricSector", "one_body_matrix", "manybody.one_body_matrix"),
    ("manybody", "SymmetricSector", "two_body_matrix", "manybody.two_body_matrix"),
    ("manybody", "ProjectorContext", "__init__", "manybody.ProjectorContext"),
)

FFT_SPAN = "grids.fft"


def _fft_attrs(args, kwargs, result):
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    size = getattr(a, "size", 0)
    nbytes = getattr(a, "nbytes", 0) + getattr(result, "nbytes", 0)
    return (("points", int(size)), ("bytes", int(nbytes)))


def _result_attr(field, key):
    def attrs(args, kwargs, result):
        return ((key, int(getattr(result, field))),)

    return attrs


def _propagate_attrs(args, kwargs, result):
    return (("steps", int(round(result.times[-1] / result.dt))),)


def _run_study_attrs(args, kwargs, result):
    point_s = float(sum(r.get("_elapsed_s", 0.0) for r in result.rows))
    return (("points", len(result.rows)), ("point_s", point_s))


def _sector_attrs(args, kwargs, result):
    return (("D", int(args[0].D)),)


ATTRS = {
    "groundstate.gp_minimize": _result_attr("iterations", "iters"),
    "dynamics.propagate": _propagate_attrs,
    "harness.run_study": _run_study_attrs,
    "manybody.SymmetricSector": _sector_attrs,
}


class Tracer:
    """Records spans around the wrapped call sites while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("bench_span", default=(None, None))
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        """fn inside a span; attrs(args, kwargs, result) adds counts on success.

        A span and its attrs ((key, value) pairs) hold only numbers and
        strings, so the cyclic garbage collector stops tracking them and a
        pass with 1e5 spans does not slow the collections the traced program
        triggers.
        """
        tracer = self
        current = self._current
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()[0]
            sid = next(ids)
            token = current.set((sid, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                current.reset(token)
                tracer.spans.append((sid, parent, name, t0, t1, None))
                raise
            t1 = time.perf_counter()
            current.reset(token)
            extra = attrs(args, kwargs, result) if attrs is not None else None
            tracer.spans.append((sid, parent, name, t0, t1, extra))
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name (used for pass roots)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _wrap_fft(self, fn):
        traced = self.wrap(FFT_SPAN, fn, _fft_attrs)
        current = self._current

        @functools.wraps(fn)
        def fft(*args, **kwargs):
            # an n-D transform may be built from 1-D ones: count it once
            if current.get()[1] == FFT_SPAN:
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return fft

    def _wrap_eigh(self, fn):
        spans = {layer: self.wrap(f"{layer}.eigh", fn) for layer in LAYERS}

        @functools.wraps(fn)
        def eigh(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            layer = caller[len("tfcond."):] if caller.startswith("tfcond.") else None
            if layer in spans:
                return spans[layer](*args, **kwargs)
            return fn(*args, **kwargs)

        return eigh

    def _wrap_lobpcg(self, fn):
        """lobpcg with iteration and warning counts.

        LOBPCG applies the preconditioner once per iteration that does not
        stop, so counting those calls counts iterations without changing the
        call.  Warnings are recorded, then emitted again unchanged (recording
        swaps the process-wide warning filters, so it assumes one LOBPCG call
        at a time, as in the gs3d workload).
        """

        def counted(A, X, *args, **kwargs):
            iters = 0
            precond = kwargs.get("M")
            if precond is not None:

                def counting_precond(V):
                    nonlocal iters
                    iters += 1
                    return precond(V)

                kwargs["M"] = counting_precond
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(A, X, *args, **kwargs)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result, (("iters", iters), ("warnings", len(caught)))

        traced = self.wrap("groundstate.lobpcg", counted, lambda a, k, r: r[1])

        @functools.wraps(fn)
        def lobpcg(*args, **kwargs):
            return traced(*args, **kwargs)[0]

        return lobpcg

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, new):
        """Point every tfcond name bound to original at new."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "tfcond" or modname.startswith("tfcond.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, key, new)

    def install(self):
        import numpy as np
        import numpy.fft
        import scipy.fft

        mods = {layer: importlib.import_module(f"tfcond.{layer}") for layer in LAYERS}
        for layer, mod in mods.items():
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{fname}"
                    self._rebind(fn, self.wrap(name, fn, ATTRS.get(name)))
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, meth, self.wrap(name, getattr(cls, meth), ATTRS.get(name)))
        for fft_mod in (numpy.fft, scipy.fft):
            for fname in FFT_FUNCS:
                fn = getattr(fft_mod, fname, None)
                if fn is not None:
                    wrapped = self._wrap_fft(fn)
                    self._patch(fft_mod, fname, wrapped)
                    self._rebind(fn, wrapped)
        eigh = np.linalg.eigh
        self._patch(np.linalg, "eigh", self._wrap_eigh(eigh))
        self._patch(mods["groundstate"], "lobpcg", self._wrap_lobpcg(mods["groundstate"].lobpcg))
        for layer in ("harness", "dynamics"):
            self._patch(mods[layer], "ThreadPoolExecutor", _ContextPool)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in the submitter's context (span parent)."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans


def self_times(spans):
    """Span duration minus the union of its children's intervals, per span id."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, _ in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans):
    """Per-layer counts and busy times of one pass (times summed over threads)."""
    calls = defaultdict(int)
    secs = defaultdict(float)
    sums = defaultdict(float)
    peak = defaultdict(int)
    selfs = defaultdict(float)
    own = self_times(spans)
    for sid, _parent, name, t0, t1, attrs in spans:
        calls[name] += 1
        secs[name] += t1 - t0
        selfs[name.split(".")[0]] += own[sid]
        for key, val in attrs or ():
            sums[f"{name}:{key}"] += val
            peak[f"{name}:{key}"] = max(peak[f"{name}:{key}"], val)

    steps = sums["dynamics.propagate:steps"]
    m = {
        "grids.fft_calls": calls[FFT_SPAN],
        "grids.fft_points": sums[f"{FFT_SPAN}:points"],
        "grids.fft_bytes": sums[f"{FFT_SPAN}:bytes"],
        "grids.fft_s": secs[FFT_SPAN],
        "groundstate.gp_minimize_s": secs["groundstate.gp_minimize"],
        "groundstate.gp_minimize_iters": sums["groundstate.gp_minimize:iters"],
        "groundstate.hgp_spectrum_s": secs["groundstate.hgp_spectrum"],
        "groundstate.lobpcg_iters": sums["groundstate.lobpcg:iters"],
        "groundstate.spectrum_warnings": sums["groundstate.lobpcg:warnings"],
        "dynamics.propagate_calls": calls["dynamics.propagate"],
        "dynamics.strang_steps": steps,
        "dynamics.propagate_s": secs["dynamics.propagate"],
        "dynamics.step_us": 1e6 * secs["dynamics.propagate"] / steps if steps else 0.0,
        "dynamics.compare_s": secs["dynamics.compare_h_vs_gp"],
        "harness.run_study_s": secs["harness.run_study"],
        "harness.points": sums["harness.run_study:points"],
        "harness.point_s_sum": sums["harness.run_study:point_s"],
        "manybody.sector_dim": peak["manybody.SymmetricSector:D"],
        "manybody.build_s": secs["manybody.build"],
        "manybody.two_body_matrix_calls": calls["manybody.two_body_matrix"],
        "manybody.two_body_matrix_s": secs["manybody.two_body_matrix"],
        "manybody.projector_calls": calls["manybody.ProjectorContext"],
        "manybody.projector_s": secs["manybody.ProjectorContext"],
        "manybody.eigh_calls": calls["manybody.eigh"],
        "manybody.eigh_s": secs["manybody.eigh"],
        "manybody.counting_rate_s": secs["manybody.counting_rate"],
        "manybody.track_s": secs["manybody.evolve_and_track"],
        "manybody.appendix_s": secs["manybody.verify_appendix"],
        "model.kernel_on_grid_calls": calls["model.kernel_on_grid"],
        "model.kernel_on_grid_s": secs["model.kernel_on_grid"],
        "cli.main_s": secs["cli.main"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    return m
