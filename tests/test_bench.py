"""Benchmark grid runner, aggregation, JSON payloads, and text tables."""

import dataclasses
import itertools
import json
import random

import numpy as np
import pytest

from aqmf import bench, jsonfmt
from aqmf.bench import (
    METHODS,
    NOISE_ROWS,
    BenchmarkConfig,
    _derived_seeds,
    aggregate,
    render_table,
    result_to_json,
    run_benchmark,
    timing_to_json,
)

TINY = BenchmarkConfig(
    m=12,
    n=8,
    ranks=(2,),
    replications=2,
    noise_rows=("laplace", "asym_laplace"),
    max_iterations=15,
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_benchmark(TINY)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(replications=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(noise_rows=("laplace", "no_such_row"))
    with pytest.raises(ValueError):
        BenchmarkConfig(methods=("aq", "bogus"))
    with pytest.raises(ValueError):
        BenchmarkConfig(missing_fraction=1.5)
    with pytest.raises(ValueError):
        BenchmarkConfig(ranks=())
    # a negative master seed used to pass here and fail only when the grid ran
    with pytest.raises(ValueError, match="master_seed must be nonnegative"):
        BenchmarkConfig(master_seed=-1)
    # numpy integers pass and are stored as int, so the result JSON can hold them
    cfg = BenchmarkConfig(m=np.int64(12), ranks=[np.int32(2)], missing_fraction=np.float32(0.5))
    assert type(cfg.m) is int and type(cfg.ranks[0]) is int and cfg.ranks == (2,)
    assert type(cfg.missing_fraction) is float


def test_noise_rows_catalog():
    assert set(METHODS) == {"aq", "cwm_uniform"}
    assert len(NOISE_ROWS) == 8
    for label, spec in NOISE_ROWS.values():
        assert isinstance(label, str) and label


def test_derived_seeds_stable_under_row_subsets():
    # seeds key off the row's position in the catalog, not in the config,
    # so a partial run reuses the full run's instances
    full = _derived_seeds(0, "asym_laplace", 4, 7)
    assert _derived_seeds(0, "asym_laplace", 4, 7) == full
    assert _derived_seeds(0, "laplace", 4, 7) != full
    assert _derived_seeds(1, "asym_laplace", 4, 7) != full
    assert _derived_seeds(0, "asym_laplace", 8, 7) != full


def test_run_records_layout(tiny_result):
    recs = tiny_result.records
    assert len(recs) == 2 * 1 * 2 * 2  # rows x ranks x reps x methods
    for r in recs:
        assert r.method in METHODS
        assert r.l1_truth > 0.0
        assert r.l2_truth >= r.l1_truth  # RMS dominates mean absolute
        assert r.seconds > 0.0
    # both methods see the same instance: identical data seeds per (row, rep)
    by_key = {}
    for r in recs:
        by_key.setdefault((r.noise, r.rank, r.replication), set()).add(r.data_seed)
    assert all(len(s) == 1 for s in by_key.values())


def test_aggregate_summary(tiny_result):
    cells = aggregate(tiny_result)
    assert len(cells) == 2 * 1 * 2
    for cell in cells:
        assert cell["replications"] == 2
        assert 0.0 <= cell["convergence_rate"] <= 1.0
        recs = [
            r
            for r in tiny_result.records
            if (r.noise, r.rank, r.method)
            == (cell["noise"], cell["rank"], cell["method"])
        ]
        assert cell["mean_l1_truth"] == pytest.approx(
            np.mean([r.l1_truth for r in recs])
        )
        assert cell["median_l2_noisy"] == pytest.approx(
            np.median([r.l2_noisy for r in recs])
        )


def test_result_json_schema_and_no_timings(tiny_result):
    payload = result_to_json(tiny_result)
    assert payload["schema"] == "aqmf-benchmark/1"
    assert payload["config"]["m"] == 12
    assert len(payload["records"]) == len(tiny_result.records)
    assert "seconds" not in payload["records"][0]
    # parseable by the stdlib and stable under our own formatter
    text = jsonfmt.dumps(payload)
    assert json.loads(text)["schema"] == "aqmf-benchmark/1"


def test_timing_sidecar(tiny_result):
    payload = timing_to_json(tiny_result)
    assert payload["schema"] == "aqmf-benchmark-timing/1"
    assert all(r["seconds"] > 0 for r in payload["records"])
    assert len(payload["aggregates"]) == 4


def test_stacked_aq_fits_share_their_stack_time(tiny_result):
    # one rank's aq fits run as one stack, each credited with an equal share
    # of its wall time; the baseline fits are timed one by one
    seconds = {r.seconds for r in tiny_result.records if r.method == "aq"}
    assert len(seconds) == 1 and seconds.pop() > 0


def test_rerun_reproduces_error_fields():
    a = result_to_json(run_benchmark(TINY))
    b = result_to_json(run_benchmark(TINY))
    assert jsonfmt.dumps(a) == jsonfmt.dumps(b)


def test_progress_once_per_cell_in_grid_order():
    calls = []
    cfg = dataclasses.replace(TINY, ranks=(1, 2), replications=1)
    run_benchmark(cfg, progress=calls.append)
    assert calls == [f"{name} rank={rank}" for name in cfg.noise_rows for rank in cfg.ranks]


def test_render_table_layout(tiny_result):
    text = render_table(tiny_result)
    assert "rank 2 (2 replications, errors vs the clean ground truth)" in text
    assert "rank 2 (2 replications, errors vs the noisy input)" in text
    assert "L1:aq" in text and "L2:cwm_uniform" in text
    assert "Laplace (b=1.5)" in text
    lines = text.splitlines()
    means = [l for l in lines if l.startswith("mean")]
    medians = [l for l in lines if l.startswith("median")]
    assert len(means) == 2 and len(medians) == 2


@pytest.fixture(scope="module")
def drawn_result():
    """A result with random errors and no fits.  Five replications and
    three noise rows make means differ from medians and sums depend on
    their order, which two replications and two rows cannot show."""
    cfg = dataclasses.replace(
        TINY, ranks=(2, 3), replications=5, noise_rows=("laplace", "gaussian", "asym_laplace")
    )
    rng = np.random.default_rng(3)
    records = [
        bench.RunRecord(
            noise=noise, rank=rank, method=method, replication=rep, data_seed=0, fit_seed=0,
            **dict(zip(("l1_noisy", "l2_noisy", "l1_truth", "l2_truth"), rng.lognormal(size=4))),
            iterations=10, converged=bool(rng.random() < 0.5), final_components=None,
            seconds=float(rng.random()),
        )
        for noise, rank, rep, method in itertools.product(
            cfg.noise_rows, cfg.ranks, range(cfg.replications), cfg.methods
        )
    ]
    return bench.BenchmarkResult(cfg, records)


@pytest.mark.parametrize("fixture", ["tiny_result", "drawn_result"])
def test_reports_ignore_record_order(fixture, request):
    result = request.getfixturevalue(fixture)
    shuffled = dataclasses.replace(result, records=list(result.records))
    random.Random(0).shuffle(shuffled.records)
    assert shuffled.records != result.records
    assert jsonfmt.dumps(aggregate(shuffled)) == jsonfmt.dumps(aggregate(result))
    assert jsonfmt.dumps(timing_to_json(shuffled)["aggregates"]) == jsonfmt.dumps(
        timing_to_json(result)["aggregates"]
    )
    assert render_table(shuffled) == render_table(result)


@pytest.mark.parametrize("fixture", ["tiny_result", "drawn_result"])
def test_render_table_numbers_are_aggregate_means(fixture, request):
    result = request.getfixturevalue(fixture)
    cfg = result.config
    cells = {(c["noise"], c["rank"], c["method"]): c for c in aggregate(result)}
    names = {NOISE_ROWS[name][0]: name for name in cfg.noise_rows}
    blocks = render_table(result).rstrip("\n").split("\n\n")
    layout = list(itertools.product(cfg.ranks, ("truth", "noisy")))
    assert len(blocks) == len(layout)
    checked = 0
    for block, (rank, suffix) in zip(blocks, layout):
        caption, header, *rows = block.splitlines()
        assert caption.startswith(f"rank {rank} ")
        columns = [h.split(":") for h in header.split()[1:]]
        table = {}
        for line in rows:
            parts = line.split()
            table[" ".join(parts[: -len(columns)])] = parts[-len(columns):]
        assert list(table) == [*names, "mean", "median"]
        for k, (metric, method) in enumerate(columns):
            key = f"mean_{metric.lower()}_{suffix}"
            means = [cells[name, rank, method][key] for name in names.values()]
            for label, mean in zip(names, means):
                assert table[label][k] == f"{mean:.3f}"
                checked += 1
            assert table["mean"][k] == f"{np.mean(means):.3f}"
            assert table["median"][k] == f"{np.median(means):.3f}"
    assert checked == len(layout) * 2 * len(cfg.methods) * len(cfg.noise_rows)


# --- deterministic JSON writer -------------------------------------------


def test_jsonfmt_float_and_order():
    text = jsonfmt.dumps({"b": 1.5, "a": [True, None, 3]})
    assert text == '{\n  "b": 1.5,\n  "a": [\n    true,\n    null,\n    3\n  ]\n}\n'
    # 17 significant digits survive a parse round trip exactly
    x = 0.1 + 0.2
    assert json.loads(jsonfmt.dumps({"x": x}))["x"] == x


def test_jsonfmt_rejects_non_finite_and_bad_keys():
    with pytest.raises(ValueError):
        jsonfmt.dumps({"x": float("inf")})
    with pytest.raises(TypeError):
        jsonfmt.dumps({1: "x"})
    with pytest.raises(TypeError):
        jsonfmt.dumps({"x": object()})


def test_jsonfmt_bool_not_rendered_as_int():
    assert jsonfmt.dumps([True, False]) == "[\n  true,\n  false\n]\n"
