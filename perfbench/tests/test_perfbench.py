"""Tests of the benchmark's own helpers: the percentile rule, failure
counting, the comparison verdicts, and that tracing leaves results alone.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import numpy as np
import pytest

import run
import stats
import tracing
from aqmf import bench, em, jsonfmt, wl1
from aqmf.synth import LaplaceNoise, make_instance
from workloads import OpResult


# --- percentiles -------------------------------------------------------------

def test_nearest_rank_percentile():
    xs = list(range(1, 11))
    assert stats.percentile(xs, 50) == 5
    assert stats.percentile(xs, 90) == 9
    assert stats.percentile(xs, 100) == 10
    assert stats.percentile(reversed(xs), 10) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (39, None), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    tail = stats.tail_percentile(list(range(n)))
    if expected is None:
        assert tail is None
    else:
        p, value = tail
        assert p == expected
        assert stats.beyond(n, p) >= stats.MIN_BEYOND
        assert sum(1 for x in range(n) if x > value) >= stats.MIN_BEYOND


# --- failure counting ----------------------------------------------------------

def test_tally_counts_and_rejects_impossible_counts():
    t = stats.Tally()
    t.add(32)
    t.add(32, 2, "non-finite factors")
    assert (t.attempted, t.failed) == (64, 2)
    assert t.failed_frac == pytest.approx(2 / 64)
    assert t.reasons == ["non-finite factors"]
    with pytest.raises(ValueError):
        t.add(1, 2)
    assert stats.Tally().failed_frac == 1.0


class _Fake:
    """A workload whose operations follow a script: an exception, or the
    digest and failure count of an OpResult."""

    per_op = 4

    def __init__(self, script):
        self.script = list(script)

    def op(self, tracer=None):
        step = self.script.pop(0) if self.script else ("same", 0)
        if isinstance(step, Exception):
            raise step
        digest, failed = step
        return OpResult(0.001, digest, [("aq", 0.001, 1)] * self.per_op, self.per_op,
                        failed, "check failed" if failed else None)


def test_raise_counts_as_failure_of_every_attempt():
    t = stats.Tally()
    assert run._run_op(_Fake([RuntimeError("boom")]), t) is None
    assert (t.attempted, t.failed) == (4, 4)
    assert "boom" in t.reasons[0]


def test_changed_output_bytes_fail_the_repetition():
    t = stats.Tally()
    ops = run.measure(_Fake([("a", 0), ("a", 0), ("b", 0), ("a", 1)]), 0.0, t)
    assert len(ops) == 1
    t = stats.Tally()
    wl = _Fake([("a", 0), ("a", 0), ("b", 0), ("a", 1)])
    ops = [run._run_op(wl, t) for _ in range(4)]
    for res in ops[1:]:
        run._check_same(res, ops[0], t, "the first repetition")
    # the digest mismatch fails all 4 attempts of its operation; the last
    # operation reports 1 failed check of its 4
    assert (t.attempted, t.failed) == (16, 5)


def test_traced_loop_flags_a_traced_run_that_differs():
    t = stats.Tally()
    tracer, plain, traced = run.measure_traced(_Fake([("a", 0), ("b", 0)]), 0.0, t)
    assert len(plain) == len(traced) == 1
    assert (t.attempted, t.failed) == (8, 4)


# --- comparison ------------------------------------------------------------------

def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    faster = [x * 0.8 for x in base]
    assert stats.verdict(base, faster, "lower", 0.1) == "better"
    assert stats.verdict(base, list(base), "lower", 0.1) == "same"
    assert stats.verdict(base, [x * 1.3 for x in base], "lower", 0.1) == "worse"
    assert stats.verdict(base, [x * 1.3 for x in base], "higher", 0.1) == "better"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert stats.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert stats.win_fraction([1, 2, 3], [1, 1, 4], "lower") == pytest.approx(1 / 3)


def test_spread_matches_statistics_quantiles():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = stats.quartiles(xs)
    assert stats.spread(xs) == pytest.approx((q3 - q1) / med)


# --- tracing is transparent ------------------------------------------------------

def _tiny_grid():
    return bench.BenchmarkConfig(m=10, n=8, ranks=(2,), replications=1,
                                 noise_rows=("laplace", "skew_normal"), max_iterations=5)


def _outputs():
    inst = make_instance(12, 8, 2, 0.2, LaplaceNoise(0.0, 0.5), seed=3)
    factors, model, report = em.fit(inst.observed, em.FitOptions(rank=2, max_iterations=4),
                                    seed=1)
    base, base_report = em.fit_l1_baseline(inst.observed, 2, seed=1, max_sweeps=3)
    grid = jsonfmt.dumps(bench.result_to_json(bench.run_benchmark(_tiny_grid())))
    return (factors.u.tobytes(), factors.v.tobytes(), model.rates.tobytes(),
            report.loglik_trace, base.u.tobytes(), base_report.sweeps, grid)


def test_tracing_leaves_outputs_byte_identical_and_uninstalls():
    originals = (em.fit, em.solve_wl1, wl1._column_medians, bench.run_benchmark, bench.fit)
    plain = _outputs()
    tracer = tracing.install(tracing.Tracer())
    try:
        assert em.fit is not originals[0]
        with tracer.span("op"):
            traced = _outputs()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (em.fit, em.solve_wl1, wl1._column_medians, bench.run_benchmark,
            bench.fit) == originals

    names = set(tracer.names)
    for layer in ("em.fit", "em.fit_l1_baseline", "wl1.solve_wl1", "wl1.column_medians",
                  "em.e_step", "em.prune", "ald.mixture_logpdf", "bench.run_benchmark",
                  "synth.make_instance", "metrics.l1_error", "bench.result_to_json"):
        assert layer in names
    op_wall = tracer.ends[0] - tracer.starts[0]
    layers = tracing.layer_metrics(tracer, op_wall, op_wall, 1)
    assert layers["trace.self_sum_frac"][0] == pytest.approx(1.0, abs=1e-9)
    assert layers["trace.overhead_frac"][0] == 0.0
    # the baseline runs one single-sweep solve per sweep it reports
    baseline_sweeps = layers["em.fit_l1_baseline.sweeps"][0]
    assert 3 < baseline_sweeps <= 3 + 2 * 5
    solve_under_baseline = sum(
        1 for i, n in enumerate(tracer.names)
        if n == "wl1.solve_wl1" and tracer.names[tracer.parents[i]] == "em.fit_l1_baseline")
    assert solve_under_baseline == baseline_sweeps
    assert 0.0 < layers["wl1.column_medians.live_frac"][0] <= 1.0


def test_spans_nest_and_carry_their_fit():
    tracer = tracing.install(tracing.Tracer())
    try:
        inst = make_instance(12, 8, 2, 0.2, LaplaceNoise(0.0, 0.5), seed=3)
        em.fit(inst.observed, em.FitOptions(rank=2, max_iterations=2), seed=0)
        em.fit(inst.observed, em.FitOptions(rank=2, max_iterations=2), seed=1)
    finally:
        tracer.uninstall()
    fits = [i for i, n in enumerate(tracer.names) if n == "em.fit"]
    assert [tracer.fits[i] for i in fits] == [0, 1]
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i]
            assert tracer.ends[i] <= tracer.ends[parent]
            assert tracer.fits[i] == tracer.fits[parent]
    # every solve sweep is 2 * rank kernel calls
    layers = tracing.layer_metrics(tracer, 1.0, 1.0, 1)
    assert layers["wl1.column_medians.calls"][0] == pytest.approx(
        4 * layers["wl1.solve_wl1.sweeps"][0])
    assert np.isfinite([v for v, _ in layers.values()]).all()
