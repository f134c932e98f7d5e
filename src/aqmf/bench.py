"""Synthetic benchmark harness: seeded replications over noise families,
ranks and methods, with machine-readable JSON and aligned-table reporting.

Every replication derives its own seeds from the master seed, so runs are
reproducible, order-independent, and never share generator state.  Wall-clock
timings are collected around the fits only and are reported separately from
the deterministic results so the result JSON is byte-stable.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .em import FitOptions, fit, fit_l1_baseline, fit_many
from .metrics import l1_error, l2_error
from .synth import (
    AsymmetricLaplaceNoise,
    GaussianNoise,
    LaplaceNoise,
    MixtureNoise,
    SkewNormalNoise,
    StudentTNoise,
    SyntheticInstance,
    make_instance,
)
from .types import as_integer, as_seed

# The eight stock noise rows of the synthetic study, in table order.
NOISE_ROWS = {
    "laplace": ("Laplace (b=1.5)", LaplaceNoise(0.0, 1.5)),
    "gaussian": ("Gaussian (sigma=5)", GaussianNoise(5.0)),
    "student_t_df1": ("Student-t (df=1)", StudentTNoise(1.0)),
    "student_t_df2": ("Student-t (df=2)", StudentTNoise(2.0)),
    "asym_laplace": ("Asym. Laplace (1, 0.7)", AsymmetricLaplaceNoise(1.0, 0.7)),
    "skew_normal": ("Skew normal (3, 0.7)", SkewNormalNoise(3.0, 0.7)),
    "mixture1": (
        "Mixture (Gauss + 2 Laplace)",
        MixtureNoise(
            (
                (0.5, GaussianNoise(1.0)),
                (0.3, LaplaceNoise(0.0, 1.0)),
                (0.2, LaplaceNoise(0.0, 2.0)),
            )
        ),
    ),
    "mixture2": (
        "Mixture (Gauss + Laplace + AL)",
        MixtureNoise(
            (
                (0.5, GaussianNoise(1.0)),
                (0.3, LaplaceNoise(0.0, 1.0)),
                (0.2, AsymmetricLaplaceNoise(1.0, 0.8)),
            )
        ),
    ),
}

METHODS = ("aq", "cwm_uniform")

# perfbench/tracing.py wraps ``bench.fit`` by name, so it stays bound here
# although the grid's aq fits run through fit_many.
_TRACED_BY_NAME = fit


@dataclass(frozen=True)
class BenchmarkConfig:
    """Grid definition for :func:`run_benchmark`.

    Integer fields take Python or numpy integers, not bools, and store
    ``int``; ``master_seed`` must be nonnegative.  ``ranks``, ``noise_rows``
    and ``methods`` take a list or tuple and store a tuple.  A field of the
    wrong type raises ``ValueError``.
    """

    m: int = 40
    n: int = 20
    ranks: tuple = (4, 8)
    replications: int = 30
    missing_fraction: float = 0.2
    noise_rows: tuple = tuple(NOISE_ROWS)
    methods: tuple = METHODS
    master_seed: int = 0
    components: int = 4
    max_iterations: int = 100

    def __post_init__(self):
        for name in ("ranks", "noise_rows", "methods"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "ranks", tuple(as_integer("ranks entry", r) for r in self.ranks))
        for name in ("m", "n", "replications", "components", "max_iterations"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        object.__setattr__(self, "master_seed", as_seed("master_seed", self.master_seed))
        frac = self.missing_fraction
        if isinstance(frac, bool) or not isinstance(frac, (int, float, np.integer, np.floating)):
            raise ValueError(f"missing_fraction must be a real number, got {frac!r}")
        object.__setattr__(self, "missing_fraction", float(frac))
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not (0.0 <= self.missing_fraction < 1.0):
            raise ValueError("missing_fraction must lie in [0, 1)")
        if not self.ranks:
            raise ValueError("at least one rank is required")
        for r in self.ranks:
            if not (1 <= r <= min(self.m, self.n)):
                raise ValueError(f"rank {r} out of range for {self.m}x{self.n}")
        if not self.noise_rows:
            raise ValueError("at least one noise row is required")
        for name in self.noise_rows:
            if name not in NOISE_ROWS:
                known = ", ".join(NOISE_ROWS)
                raise ValueError(f"unknown noise row {name!r} (known: {known})")
        if not self.methods:
            raise ValueError("at least one method is required")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r} (known: {', '.join(METHODS)})")
        FitOptions(self.ranks[0], self.components, self.max_iterations)  # the fit's own checks


@dataclass
class RunRecord:
    """Outcome of one (noise, rank, method, replication) fit."""

    noise: str
    rank: int
    method: str
    replication: int
    data_seed: int
    fit_seed: int
    l1_noisy: float
    l2_noisy: float
    l1_truth: float
    l2_truth: float
    iterations: int
    converged: bool
    final_components: int | None
    seconds: float


@dataclass
class BenchmarkResult:
    config: BenchmarkConfig
    records: list = field(default_factory=list)


def _derived_seeds(master_seed: int, noise_name: str, rank: int, replication: int):
    """Independent (data, fit) seeds per replication cell.

    The noise row enters through its global index so a run restricted to a
    subset of rows still sees the same instances as a full run.
    """
    row_index = list(NOISE_ROWS).index(noise_name)
    ss = np.random.SeedSequence([master_seed, row_index, rank, replication])
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


@dataclass(frozen=True)
class _Run:
    """One replication of one (noise, rank) cell: its seeds and instance."""

    noise: str
    rank: int
    replication: int
    data_seed: int
    fit_seed: int
    inst: SyntheticInstance


def _record(run: _Run, method, factors, iterations, converged, final_components, seconds):
    inst = run.inst
    return RunRecord(
        noise=run.noise,
        rank=run.rank,
        method=method,
        replication=run.replication,
        data_seed=run.data_seed,
        fit_seed=run.fit_seed,
        l1_noisy=l1_error(inst.observed.values, factors),
        l2_noisy=l2_error(inst.observed.values, factors),
        l1_truth=l1_error(inst.ground_truth, factors),
        l2_truth=l2_error(inst.ground_truth, factors),
        iterations=iterations,
        converged=converged,
        final_components=final_components,
        seconds=seconds,
    )


def run_benchmark(cfg: BenchmarkConfig, progress=None) -> BenchmarkResult:
    """Run the full grid and collect one record per fit, in grid order.

    ``progress``, if given, is called with a short status string once per
    (noise, rank) cell, as its instances are built.  The ``aq`` fits of one
    rank run together, as one :func:`fit_many` call; each baseline fit runs
    on its own.  The records come out in grid order whatever order the fits
    ran in.
    """
    runs = []
    for name in cfg.noise_rows:
        _, spec = NOISE_ROWS[name]
        for rank in cfg.ranks:
            if progress is not None:
                progress(f"{name} rank={rank}")
            for rep in range(cfg.replications):
                data_seed, fit_seed = _derived_seeds(cfg.master_seed, name, rank, rep)
                inst = make_instance(
                    cfg.m, cfg.n, rank, cfg.missing_fraction, spec, seed=data_seed
                )
                runs.append(_Run(name, rank, rep, data_seed, fit_seed, inst))
    adaptive = {}
    if "aq" in cfg.methods:
        for rank in cfg.ranks:
            group = [i for i, run in enumerate(runs) if run.rank == rank]
            opts = FitOptions(
                rank=rank, components=cfg.components, max_iterations=cfg.max_iterations
            )
            start = time.perf_counter()
            fits = fit_many([runs[i].inst.observed for i in group], opts,
                            [runs[i].fit_seed for i in group])
            seconds = (time.perf_counter() - start) / len(group)
            for i, (factors, model, report) in zip(group, fits):
                adaptive[i] = _record(runs[i], "aq", factors, report.iterations,
                                      report.converged, model.n_components, seconds)
    result = BenchmarkResult(config=cfg)
    for i, run in enumerate(runs):
        for method in cfg.methods:
            if method == "aq":
                result.records.append(adaptive.pop(i))
                continue
            start = time.perf_counter()
            factors, report = fit_l1_baseline(
                run.inst.observed, run.rank, seed=run.fit_seed, max_sweeps=cfg.max_iterations
            )
            seconds = time.perf_counter() - start
            result.records.append(
                _record(run, method, factors, report.sweeps, report.converged, None, seconds))
    return result


def _cells(result: BenchmarkResult):
    """Yield ``(cell, records)`` for every cell that has records, in grid
    order.  ``cell`` is a fresh ``{"noise", "rank", "method"}`` dict and the
    records are sorted by replication, so every sum runs in that order."""
    groups = {}
    for r in result.records:
        groups.setdefault((r.noise, r.rank, r.method), []).append(r)
    cfg = result.config
    for key in itertools.product(cfg.noise_rows, cfg.ranks, cfg.methods):
        if key in groups:
            recs = sorted(groups[key], key=lambda r: r.replication)
            yield dict(zip(("noise", "rank", "method"), key)), recs


def aggregate(result: BenchmarkResult) -> list:
    """Per-cell summary rows (means, medians, convergence rate), computed
    directly from the records in replication order."""
    out = []
    for cell, recs in _cells(result):
        cell["replications"] = len(recs)
        for key in ("l1_noisy", "l2_noisy", "l1_truth", "l2_truth"):
            vals = np.array([getattr(r, key) for r in recs])
            cell[f"mean_{key}"] = float(vals.mean())
            cell[f"median_{key}"] = float(np.median(vals))
        cell["convergence_rate"] = float(np.mean([r.converged for r in recs]))
        out.append(cell)
    return out


def result_to_json(result: BenchmarkResult) -> dict:
    """Deterministic report payload: config, per-run records (without
    timings), and aggregates derived from those records."""
    return {
        "schema": "aqmf-benchmark/1",
        "config": asdict(result.config),
        "records": [
            {k: v for k, v in asdict(r).items() if k != "seconds"} for r in result.records
        ],
        "aggregates": aggregate(result),
    }


def timing_to_json(result: BenchmarkResult) -> dict:
    """Wall-clock sidecar: per-run seconds plus per-cell means.  Kept apart
    from :func:`result_to_json` because timings differ run to run.

    An ``aq`` record's seconds are its stacked :func:`fit_many` call's wall
    time divided by the call's number of fits, so the sidecar's seconds
    still sum to the time spent fitting; a baseline record's are its own
    fit's wall time."""
    keys = ("noise", "rank", "method", "replication")
    return {
        "schema": "aqmf-benchmark-timing/1",
        "master_seed": result.config.master_seed,
        "records": [
            {k: getattr(r, k) for k in keys} | {"seconds": float(r.seconds)}
            for r in result.records
        ],
        "aggregates": [
            cell | {"mean_seconds": float(np.mean([r.seconds for r in recs]))}
            for cell, recs in _cells(result)
        ],
    }


def render_table(result: BenchmarkResult) -> str:
    """Aligned text tables: for each rank, one block of errors against the
    clean ground-truth matrix and one against the noisy observed matrix.
    Each block has an L1 and an L2 column per method, one row per noise
    family, then mean and median footer rows.

    Every cell is the matching ``mean_*`` of :func:`aggregate`, so the table
    always agrees with the JSON; the footers reduce those cell means.
    """
    cfg = result.config
    cells = {(c["noise"], c["rank"], c["method"]): c for c in aggregate(result)}
    columns = [(metric, method) for metric in ("l1", "l2") for method in cfg.methods]
    headers = [f"{metric.upper()}:{method}" for metric, method in columns]
    label_w = max(len("median"), *(len(NOISE_ROWS[name][0]) for name in cfg.noise_rows))
    col_w = max(12, max(len(h) for h in headers) + 2)

    def row(label, values):
        return label.ljust(label_w) + "".join(f"{float(x):.3f}".rjust(col_w) for x in values)

    blocks = []
    for rank in cfg.ranks:
        for suffix, caption in (("truth", "clean ground truth"),
                                ("noisy", "noisy input")):
            lines = [
                f"rank {rank} "
                f"({cfg.replications} replications, errors vs the {caption})",
                "noise".ljust(label_w) + "".join(h.rjust(col_w) for h in headers),
            ]
            means = [
                [cells[name, rank, method][f"mean_{metric}_{suffix}"]
                 for metric, method in columns]
                for name in cfg.noise_rows
            ]
            lines += [row(NOISE_ROWS[name][0], m) for name, m in zip(cfg.noise_rows, means)]
            for footer, reducer in (("mean", np.mean), ("median", np.median)):
                lines.append(row(footer, [reducer(col) for col in zip(*means)]))
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
