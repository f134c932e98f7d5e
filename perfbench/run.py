"""aqmf benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {grid,inpaint,cli_fit} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The library is imported from
``src/`` and byte-compiled first, so set-up is never timed with
compilation in it.  Set-up (a fresh
interpreter importing ``aqmf`` and writing the workload's inputs) is done
five times and its median reported.  The workload then repeats one
operation in a closed loop until ``S`` seconds have passed, finishing the
operation in flight.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced run of the same operation and reports the per-layer
metrics from the traced ones, the tracing overhead, and whether both gave
the same output bytes.  Human-readable lines come first; the last line of
standard output is one JSON object.  A full record, with the environment,
goes to ``.bench_build/perfbench/records/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stats
import tracing

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
WORKLOADS = ("grid", "inpaint", "cli_fit")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _build() -> None:
    """Byte-compile the library and the benchmark in place."""
    for d in (SRC / "aqmf", PERFBENCH):
        if not compileall.compile_dir(str(d), quiet=1):
            raise RuntimeError(f"byte-compiling {d} failed")


def _setup(workload: str, seed: int, inputs: Path, env: dict) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), "prepare", workload,
             str(seed), str(inputs)],
            env=env, cwd=ROOT, check=True,
        )
        times.append(time.perf_counter() - t0)
    return times


# --- environment ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out = {"name": info.get("name", "unknown"), "version": info.get("version", "unknown"),
           "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from the files
    so that no process is started."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


# --- the loops -----------------------------------------------------------------

def _run_op(wl, tally: stats.Tally, tracer=None):
    try:
        res = wl.op(tracer)
    except Exception:
        tally.add(wl.per_op, wl.per_op, traceback.format_exc(limit=3))
        return None
    tally.add(res.attempted, res.failed, res.reason)
    return res


def _check_same(res, ref, tally: stats.Tally, what: str):
    """Outputs must be byte-identical to the reference operation's; a
    mismatch fails the operation (its attempts were counted already)."""
    if res is not None and ref is not None and res.digest != ref.digest and not res.failed:
        tally.failed += res.attempted
        tally.reasons.append(f"output digest differs from {what}")


def measure(wl, seconds: float, tally: stats.Tally) -> list:
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        res = _run_op(wl, tally)
        if res is not None:
            _check_same(res, ops[0] if ops else None, tally, "the first repetition")
            ops.append(res)
        if time.perf_counter() >= deadline:
            return ops


def measure_traced(wl, seconds: float, tally: stats.Tally):
    """Pairs of (untraced, traced) operations on the same inputs."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        u = _run_op(wl, tally)
        tracing.install(tracer)
        try:
            t = _run_op(wl, tally, tracer)
        finally:
            tracer.uninstall()
        _check_same(u, plain[0] if plain else None, tally, "the first repetition")
        _check_same(t, u, tally, "the untraced run")
        if u is not None and t is not None:
            plain.append(u)
            traced.append(t)
        if time.perf_counter() >= deadline:
            return tracer, plain, traced


# --- metrics -------------------------------------------------------------------

def _m(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def _timing(out: dict, name: str, samples: list) -> None:
    """Median and the highest percentile with ten samples beyond it."""
    if not samples:
        return
    out[f"{name}_p50"] = _m(statistics.median(samples), "s", n=len(samples))
    tail = stats.tail_percentile(samples)
    if tail is not None:
        out[f"{name}_tail"] = _m(tail[1], "s", p=tail[0], n=len(samples))


def detail_metrics(workload: str, ops: list, setup_s: float, tally: stats.Tally,
                   rss_mb: float) -> dict:
    """The workload's end-to-end figures, named as in perfbench/README.md."""
    fits = [f for op in ops for f in op.fits]
    op_s = min(op.seconds for op in ops) if ops else 0.0
    out = {
        "setup_s": _m(setup_s, "s", n=SETUP_REPEATS),
        "failed_frac": _m(tally.failed_frac, "ratio", attempted=tally.attempted,
                          failed=tally.failed),
        "peak_rss_mb": _m(rss_mb, "MB"),
        "fits_per_s": _m(len(fits) / len(ops) / op_s if op_s else 0.0, "fits/s",
                         n=len(ops)),
    }
    quality = ops[0].quality if ops else {}
    if workload == "grid":
        _timing(out, "aq_fit_s", [s for m, s, _ in fits if m == "aq"])
        _timing(out, "cwm_fit_s", [s for m, s, _ in fits if m != "aq"])
        for key in ("l1_truth_aq", "l1_truth_cwm"):
            out[key] = _m(quality.get(key, 0.0), "abs_err")
    elif workload == "inpaint":
        per_iter = [s / it for _, s, it in fits if it]
        out["iter_s"] = _m(statistics.median(per_iter) if per_iter else 0.0, "s/iter",
                           n=len(per_iter))
        out["hidden_l1"] = _m(quality.get("hidden_l1", 0.0), "abs_err")
    else:
        _timing(out, "cmd_s", [op.seconds for op in ops])
        out["observed_l1"] = _m(quality.get("observed_l1", 0.0), "abs_err")
    return out


QUALITY_KEY = {"grid": "l1_truth_aq", "inpaint": "hidden_l1", "cli_fit": "observed_l1"}


def end_to_end(workload: str, detail: dict) -> dict:
    """The metrics BENCHMARK.json declares, which every workload reports."""
    return {
        "setup_s": _m(detail["setup_s"]["value"], "s"),
        "fits_per_s": _m(detail["fits_per_s"]["value"], "fits/s"),
        "peak_rss_mb": _m(detail["peak_rss_mb"]["value"], "MB"),
        "l1_err": _m(detail[QUALITY_KEY[workload]]["value"], "abs_err"),
        "ok_frac": _m(1.0 - detail["failed_frac"]["value"], "ratio"),
    }


def _peak_rss_mb(workload: str, ops: list) -> float:
    if workload == "cli_fit":
        kb = max((op.peak_rss_kb for op in ops), default=0)
    else:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        label = name
        if name.endswith("_tail"):
            label = f"{name[:-5]}_p{m['p']}"
        extra = "".join(f" {k}={m[k]}" for k in ("n", "attempted", "failed") if k in m)
        print(f"  {label:<40} {m['value']:>14.6g} {m['unit']:<8}{extra}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "aqmf" / "__init__.py").is_file():
        print(f"error: no aqmf sources under {SRC}", file=sys.stderr)
        return 2
    _build()
    sys.path.insert(0, str(SRC))
    env = _child_env()
    load_before = os.getloadavg()
    inputs = WORK / "inputs" / f"{args.workload}-{args.seed}"
    setup_times = _setup(args.workload, args.seed, inputs, env)

    import workloads

    run_dir = WORK / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, inputs, run_dir, env)
    tally = stats.Tally()
    t_start = time.perf_counter()
    if args.trace:
        tracer, plain, traced = measure_traced(wl, args.seconds, tally)
        ops = traced
    else:
        ops = measure(wl, args.seconds, tally)
    wall = time.perf_counter() - t_start
    load_after = os.getloadavg()

    setup_s = statistics.median(setup_times)
    if args.trace:
        layers = tracing.layer_metrics(
            tracer, sum(op.seconds for op in traced), sum(op.seconds for op in plain),
            len(traced))
        metrics = {name: _m(v, unit) for name, (v, unit) in layers.items()}
        detail = metrics
        tracer.save(WORK / f"spans-{args.workload}-{args.seed}.json.gz")
    else:
        detail = detail_metrics(args.workload, ops, setup_s, tally,
                                _peak_rss_mb(args.workload, ops))
        metrics = end_to_end(args.workload, detail)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
        "ops": len(ops),
        "op_seconds": [op.seconds for op in ops],
        "setup_times_s": setup_times,
        "env": {**environment(), "load_before": load_before, "load_after": load_after},
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons[:10],
        "digests": sorted({op.digest for op in ops}),
        "metrics": metrics,
        "detail": detail,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    e = record["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations in {wall:.2f} s")
    print(f"env: nproc={e['nproc']} cpu={e['cpu_model']!r} python={e['python']} "
          f"numpy={e['numpy']} scipy={e['scipy']} blas={e['blas']['name']} "
          f"{e['blas']['version']} threads={e['blas']['threads']} "
          f"load={load_before[0]:.2f}->{load_after[0]:.2f} commit={e['commit']}")
    for reason in tally.reasons[:5]:
        print(f"failure: {reason.strip().splitlines()[-1]}")
    _print_metrics("per-layer (per traced operation):" if args.trace else "end-to-end:",
                   detail)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
