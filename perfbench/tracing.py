"""Span tracing for the benchmark's traced run.

The library is not changed: :func:`install` replaces module-level functions
of ``aqmf`` with wrappers, from outside, and :meth:`Tracer.uninstall` puts the
originals back.  Each wrapper records one span (name, start, end, parent span,
enclosing fit) in memory plus a few counters taken at the same boundary.
Spans are aggregated into per-layer metrics, and can be saved, after the
timed work is over.

A wrapper is patched into every module that calls the function by name
(``from .em import fit`` makes ``aqmf.bench.fit`` its own reference), so
the same layer is seen whichever caller reaches it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import time
from collections import defaultdict

import numpy as np

# Bytes one element of ``_column_medians`` moves, computed from the array
# passes it makes on float64 data with int64 sort indices: argsort (read 8,
# write 8), two take_along_axis gathers (read 8 + 8, write 8, each), cumsum
# (read 8, write 8), the half-weight comparison (read 8, write 1) and argmax
# (read 1).  Cache effects are ignored; the figure is labelled "computed".
COLUMN_MEDIAN_BYTES_PER_ELEM = 90

NOISE_MSTEP = ("em.update_pi", "em.rho_matrix", "em.update_lambda", "em.update_kappa")
MATRIXIO = ("read_csv_matrix", "write_csv_matrix", "read_pgm", "write_pgm")


class Tracer:
    """In-memory span store.  Spans are appended on entry so that a child can
    name its parent by index; start and end are filled in on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.fits: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []
        self._fit = -1
        self._n_fits = 0
        self._undo: list = []

    def wrap(self, fn, name: str, count=None, is_fit: bool = False):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``count(tracer, span_index, args, kwargs, result)`` may return a
        dict of counter increments filed under ``name``.
        """
        names, parents, fits = self.names, self.parents, self.fits
        starts, ends, stack = self.starts, self.ends, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            prev_fit = self._fit
            if is_fit:
                self._fit = self._n_fits
                self._n_fits += 1
            fits.append(self._fit)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._fit = prev_fit
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                for key, value in count(self, idx, args, kwargs, out).items():
                    counts[name, key] += value
            return out

        return traced

    def patch(self, module, attr: str, name: str, count=None, is_fit: bool = False):
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, count, is_fit))
        self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark itself (one
        operation); yields the span's index."""
        idx = self.add(name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self._fit)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def add(self, name, parent, start, end, fit=-1) -> int:
        """Append a finished span; returns its index."""
        self.names.append(name)
        self.parents.append(parent)
        self.fits.append(fit)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.names) - 1

    def merge(self, payload: dict, parent: int):
        """Adopt spans recorded by a child process under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so child timestamps share the parent's time base.
        """
        base = len(self.names)
        for name, par, fit, start, end in zip(
            payload["names"], payload["parents"], payload["fits"],
            payload["starts"], payload["ends"],
        ):
            self.add(name, parent if par < 0 else base + par, start, end,
                     -1 if fit < 0 else fit + self._n_fits)
        self._n_fits += 1 + max(payload["fits"], default=-1)
        for key, value in payload["counts"]:
            self.counts[tuple(key)] += value

    def payload(self) -> dict:
        return {
            "names": self.names,
            "parents": self.parents,
            "fits": self.fits,
            "starts": self.starts,
            "ends": self.ends,
            "counts": [[list(k), v] for k, v in self.counts.items()],
        }

    def save(self, path):
        """Write every span, gzip-compressed JSON, once the run is over."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.payload(), fh)


# --- counters taken at the wrapped boundaries --------------------------------

def _count_kernel(tracer, idx, args, kwargs, out):
    cands, wts = args[0], args[1]
    return {"elems": cands.size, "live": np.count_nonzero(wts)}


def _count_solve(tracer, idx, args, kwargs, out):
    kernel_calls = tracer.names[idx + 1:].count("wl1.column_medians")
    return {"sweeps": kernel_calls / (2 * out.rank)}


def _count_estep(tracer, idx, args, kwargs, out):
    return {"cells": out.size}


def _count_prune(tracer, idx, args, kwargs, out):
    model = args[1] if len(args) > 1 else kwargs["model"]
    return {"removed": model.n_components - out[0].n_components}


def _count_fit(tracer, idx, args, kwargs, out):
    report = out[2]
    return {"iterations": report.iterations, "converged": int(report.converged)}


def _count_baseline(tracer, idx, args, kwargs, out):
    return {"sweeps": out[1].sweeps}


def _count_file(tracer, idx, args, kwargs, out):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _count_dump(tracer, idx, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def install(tracer: Tracer, cli: bool = False) -> Tracer:
    """Wrap the library functions that ``fit``, ``run_benchmark`` and
    ``cli.main`` reach.  ``cli=True`` also wraps the CLI module's own
    references (and imports it)."""
    from aqmf import ald, bench, em, jsonfmt, matrixio, wl1

    tracer.patch(wl1, "_column_medians", "wl1.column_medians", _count_kernel)
    tracer.patch(em, "solve_wl1", "wl1.solve_wl1", _count_solve)
    tracer.patch(em, "_responsibilities", "em.e_step", _count_estep)
    for name in NOISE_MSTEP:
        tracer.patch(em, name.split(".")[1], name)
    tracer.patch(em, "compute_weights", "em.compute_weights")
    tracer.patch(em, "prune_components", "em.prune", _count_prune)
    tracer.patch(ald, "mixture_logpdf", "ald.mixture_logpdf")
    tracer.patch(bench, "make_instance", "synth.make_instance")
    tracer.patch(bench, "l1_error", "metrics.l1_error")
    tracer.patch(bench, "l2_error", "metrics.l2_error")
    tracer.patch(bench, "run_benchmark", "bench.run_benchmark")
    tracer.patch(bench, "result_to_json", "bench.result_to_json")
    tracer.patch(jsonfmt, "dump", "jsonfmt.dump", _count_dump)
    fit_users = [em, bench]
    io_users = [matrixio]
    if cli:
        from aqmf import cli as cli_mod

        fit_users.append(cli_mod)
        io_users.append(cli_mod)
    for mod in fit_users:
        tracer.patch(mod, "fit", "em.fit", _count_fit, is_fit=True)
        tracer.patch(mod, "fit_l1_baseline", "em.fit_l1_baseline", _count_baseline,
                     is_fit=True)
    for mod in io_users:
        for fn in MATRIXIO:
            tracer.patch(mod, fn, f"matrixio.{fn}", _count_file)
    return tracer


# --- aggregation into per-layer metrics --------------------------------------

def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float,
                  n_ops: int) -> dict:
    """Per-layer figures from the spans, as ``{name: (value, unit)}``.

    Times and counts are per operation: totals over the run's traced
    operations divided by ``n_ops``.  Self time is a span's duration minus
    the durations of its direct children, which never overlap because the
    traced code runs on one thread.
    """
    names = np.array(tracer.names, dtype=object)
    parents = np.array(tracer.parents, dtype=np.int64)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time
    parent_names = np.where(has_parent, names[np.maximum(parents, 0)], None)
    counts = tracer.counts
    per = 1.0 / max(n_ops, 1)

    def sel(*wanted):
        return np.isin(names, wanted)

    def busy(*wanted):
        return float(dur[sel(*wanted)].sum()) * per

    def self_s(*wanted):
        return float(self_time[sel(*wanted)].sum()) * per

    def calls(name):
        return int(sel(name).sum()) * per

    def cnt(name, key):
        return counts.get((name, key), 0.0) * per

    k_calls = calls("wl1.column_medians")
    k_busy = busy("wl1.column_medians")
    k_elems = cnt("wl1.column_medians", "elems")
    out = {
        "wl1.column_medians.calls": (k_calls, "count"),
        "wl1.column_medians.busy_s": (k_busy, "s"),
        "wl1.column_medians.us_per_call": (_ratio(k_busy * 1e6, k_calls), "us"),
        "wl1.column_medians.elems": (k_elems, "count"),
        "wl1.column_medians.ns_per_elem": (_ratio(k_busy * 1e9, k_elems), "ns"),
        "wl1.column_medians.bytes_computed": (
            k_elems * COLUMN_MEDIAN_BYTES_PER_ELEM, "B"),
        "wl1.column_medians.live_frac": (
            _ratio(cnt("wl1.column_medians", "live"), k_elems), "ratio"),
        "wl1.solve_wl1.calls": (calls("wl1.solve_wl1"), "count"),
        "wl1.solve_wl1.busy_s": (busy("wl1.solve_wl1"), "s"),
        "wl1.solve_wl1.self_s": (self_s("wl1.solve_wl1"), "s"),
        "wl1.solve_wl1.sweeps": (cnt("wl1.solve_wl1", "sweeps"), "count"),
        "em.e_step.calls": (calls("em.e_step"), "count"),
        "em.e_step.busy_s": (busy("em.e_step"), "s"),
        "em.e_step.cells": (cnt("em.e_step", "cells"), "count"),
        "em.noise_mstep.busy_s": (
            float(dur[sel(*NOISE_MSTEP) & (parent_names == "em.fit")].sum()) * per, "s"),
        "em.compute_weights.busy_s": (busy("em.compute_weights"), "s"),
        "em.prune.busy_s": (busy("em.prune"), "s"),
        "em.prune.removed": (cnt("em.prune", "removed"), "count"),
        "ald.mixture_logpdf.busy_s": (busy("ald.mixture_logpdf"), "s"),
        "em.fit.self_s": (self_s("em.fit"), "s"),
        "em.fit.iterations": (cnt("em.fit", "iterations"), "count"),
        "em.fit.converged": (cnt("em.fit", "converged"), "count"),
        "em.fit_l1_baseline.busy_s": (busy("em.fit_l1_baseline"), "s"),
        "em.fit_l1_baseline.sweeps": (cnt("em.fit_l1_baseline", "sweeps"), "count"),
        "synth.make_instance.busy_s": (busy("synth.make_instance"), "s"),
        "bench.run_benchmark.self_s": (self_s("bench.run_benchmark"), "s"),
        "bench.result_to_json.busy_s": (busy("bench.result_to_json"), "s"),
        "metrics.busy_s": (busy("metrics.l1_error", "metrics.l2_error"), "s"),
    }
    for fn in MATRIXIO:
        out[f"matrixio.{fn}.busy_s"] = (busy(f"matrixio.{fn}"), "s")
        out[f"matrixio.{fn}.bytes"] = (cnt(f"matrixio.{fn}", "bytes"), "B")
    out["jsonfmt.dump.busy_s"] = (busy("jsonfmt.dump"), "s")
    out["jsonfmt.dump.bytes"] = (cnt("jsonfmt.dump", "bytes"), "B")
    out["cli.import_s"] = (busy("cli.import"), "s")
    out["cli.main.self_s"] = (self_s("cli.main"), "s")
    ops = sel("op")
    out["trace.overhead_frac"] = (
        _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s), "ratio")
    out["trace.self_sum_frac"] = (
        _ratio(float(self_time.sum()), traced_wall_s), "ratio")
    out["trace.unattributed_frac"] = (
        _ratio(float(self_time[ops].sum()), traced_wall_s), "ratio")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
