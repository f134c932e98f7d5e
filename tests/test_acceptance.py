"""Acceptance gate: nine go/no-go checks over the whole package.

Every criterion test prints exactly one ``[criterion N] PASS/FAIL`` line
(with its wall-clock time) before asserting, so the run log always carries
the full scoreboard.  Criteria 6 and 7 share one full benchmark grid,
executed once per session by the module fixture; a last test pins the
SHA-256 of that grid's result JSON.

Known reds, analysed in depth in the project notes:

* Criterion 5 — the fitted log-likelihood is NOT globally non-decreasing.
  The factor update freezes the check-loss slopes at the current residual
  signs (entries that flip sign during the sweep are charged the wrong
  one-sided rate), and pruning removes components that still carry posterior
  mass.  Both can lower the log-likelihood by whole nats; measured decreases
  reach ~3e-3 relative, five orders past the 1e-8 slack the criterion allows.
* Criterion 7 — on the Gaussian-dominated mixture row the adaptive weights
  collapse to a near-uniform pattern (components polarize by residual sign),
  so the method ties the uniform baseline instead of beating it; the
  ordering flips on a minority of seeds and the mean lands slightly above.
"""

import hashlib
import time

import numpy as np
import pytest
from scipy import integrate

from aqmf import ald, bench, em, jsonfmt, wl1
from aqmf.ald import ALParams
from aqmf.bench import BenchmarkConfig, aggregate, run_benchmark
from aqmf.cli import main as cli_main
from aqmf.em import FitOptions
from aqmf.synth import AsymmetricLaplaceNoise, make_instance
from aqmf.types import FactorPair, MaskedMatrix
from aqmf.wl1 import solve_wl1
from oracles import relative_gap, scalar_sweep, weighted_median, wl1_objective


def _report(n: int, ok: bool, detail: str, elapsed: float) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def full_grid():
    """One default benchmark grid (40x20, ranks 4 and 8, 30 replications,
    all eight noise rows, both methods), shared by criteria 6 and 7 and the
    result-bytes pin.  Returns the cells, the grid's run time and the result
    JSON bytes."""
    start = time.perf_counter()
    result = run_benchmark(BenchmarkConfig())
    elapsed = time.perf_counter() - start
    cells = {(c["noise"], c["rank"], c["method"]): c for c in aggregate(result)}
    blob = jsonfmt.dumps(bench.result_to_json(result)).encode()
    return cells, elapsed, blob


def test_criterion_1_distribution_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_mass = 0.0
    worst_round = 0.0
    for _ in range(100):
        p = ALParams(
            location=rng.uniform(-5.0, 5.0),
            rate=rng.uniform(0.05, 10.0),
            asymmetry=rng.uniform(0.02, 0.98),
        )
        left, _ = integrate.quad(lambda x: ald.pdf(x, p), -np.inf, p.location)
        right, _ = integrate.quad(lambda x: ald.pdf(x, p), p.location, np.inf)
        worst_mass = max(worst_mass, abs(left + right - 1.0))
        us = rng.uniform(1e-6, 1.0 - 1e-6, 50)
        back = np.array([ald.cdf(ald.quantile(u, p), p) for u in us])
        worst_round = max(worst_round, float(np.max(np.abs(back - us))))
    n = 100_000
    worst_tail = 0.0
    for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
        p = ALParams(location=1.0, rate=2.0, asymmetry=kappa)
        xs = ald.sample(n, p, np.random.default_rng(99))
        frac = float(np.mean(xs < p.location))
        bound = 3.0 * np.sqrt(kappa * (1.0 - kappa) / n)
        worst_tail = max(worst_tail, abs(frac - kappa) / bound)
    elapsed = time.perf_counter() - start
    ok = worst_mass < 1e-6 and worst_round < 1e-10 and worst_tail < 1.0 and elapsed < 10.0
    _report(
        1,
        ok,
        f"pdf mass off by {worst_mass:.2e} (<1e-6), roundtrip {worst_round:.2e} "
        f"(<1e-10), tail mass at {worst_tail:.2f} of the 3-sigma bound",
        elapsed,
    )
    assert worst_mass < 1e-6
    assert worst_round < 1e-10
    assert worst_tail < 1.0
    assert elapsed < 10.0


def test_criterion_2_asymmetry_update_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    S = 10_000
    n_s = 10.0 ** rng.uniform(0.0, 3.0, S)
    tilt = rng.uniform(-0.999, 0.999, S)
    tilt[rng.random(S) < 0.01] = 0.0  # exercise the eta == 0 fallback
    # two pseudo-residuals +1/-1 with responsibility split (1 +/- tilt)/2
    # give eta_s = rate_s * n_s * tilt_s while keeping column mass n_s
    gamma = np.vstack([n_s * (1.0 + tilt) / 2.0, n_s * (1.0 - tilt) / 2.0])
    residuals = np.array([1.0, -1.0])
    rates = 10.0 ** rng.uniform(-2.0, 4.0, S)
    kappa = em.update_kappa(gamma, residuals, rates)
    eta = rates * n_s * tilt
    resid_quad = np.abs(eta * kappa**2 - (2.0 * n_s + eta) * kappa + n_s)
    elapsed = time.perf_counter() - start
    inside = bool(np.all((kappa > 0.0) & (kappa < 1.0)))
    worst = float(np.max(resid_quad / (1e-10 * n_s)))
    ok = inside and worst < 1.0 and elapsed < 1.0
    _report(
        2,
        ok,
        f"10^4 updates in (0,1): {inside}, worst quadratic residual at "
        f"{worst:.3f} of the 1e-10*N tolerance",
        elapsed,
    )
    assert inside
    assert worst < 1.0
    assert elapsed < 1.0


def test_criterion_3_weighted_median_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(10_000):
        length = int(rng.integers(1, 10))
        vals = np.round(rng.uniform(-50.0, 50.0, length), 1)  # ties likely
        wts = rng.uniform(0.01, 5.0, length)
        got = weighted_median(vals, wts)
        costs = np.sum(wts[:, None] * np.abs(vals[:, None] - vals[None, :]), axis=0)
        best = float(np.min(costs))
        cost_got = float(np.sum(wts * np.abs(vals - got)))
        assert cost_got <= best * (1.0 + 1e-12) + 1e-12, (vals, wts, got)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 10_000 and elapsed < 5.0
    _report(3, ok, f"{checked} instances match the brute-force minimizer", elapsed)
    assert checked == 10_000
    assert elapsed < 5.0


def test_criterion_4_inner_solver_monotone_per_update():
    # The solver updates a whole factor column in one batch, so the per-update
    # values come from the scalar reference sweep; each sweep of the solver
    # must land on the reference's factors, then the next sweep starts there.
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    worst_raw = -np.inf  # largest rise before the slack, relative to 1 + |obj|
    rounding_rises = 0
    worst_gap = 0.0
    updates = 0
    for _ in range(100):
        u = rng.normal(size=(10, 2))
        v = rng.normal(size=(8, 2))
        data = u @ v.T + rng.laplace(scale=0.5, size=(10, 8))
        mask = rng.random((10, 8)) >= 0.15
        mask.flat[0] = True
        X = MaskedMatrix(np.where(mask, data, 0.0), mask)
        W = np.where(mask, rng.uniform(0.05, 3.0, size=(10, 8)), 0.0)
        factors = FactorPair(rng.normal(size=(10, 2)), rng.normal(size=(8, 2)))
        for _ in range(8):
            ref, trace = scalar_sweep(X, W, factors)
            tr = np.array([wl1_objective(X, W, factors), *trace])
            rises = np.diff(tr) - 1e-9 * (1.0 + np.abs(tr[:-1]))
            worst = max(worst, float(rises.max()))
            raw = np.diff(tr) / (1.0 + np.abs(tr[:-1]))
            worst_raw = max(worst_raw, float(raw.max()))
            rounding_rises += int(np.count_nonzero(raw > 0.0))
            updates += len(trace)
            factors = solve_wl1(X, W[X.mask], factors, max_sweeps=1)
            worst_gap = max(worst_gap, relative_gap(factors, ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.0 and worst_gap <= 1e-9 and elapsed < 10.0
    _report(
        4,
        ok,
        f"objective non-increasing across {updates} scalar updates on 100 instances "
        f"({rounding_rises} rise by rounding, at most {worst_raw:.1e} relative, "
        f"slack 1e-9); solver sweeps match the reference "
        f"(worst relative gap {worst_gap:.1e})",
        elapsed,
    )
    assert worst <= 0.0
    assert worst_gap <= 1e-9
    assert elapsed < 10.0


def test_criterion_5_loglik_trace_non_decreasing():
    start = time.perf_counter()
    n_bad = 0
    worst_rel = 0.0
    for s in range(30):
        inst = make_instance(
            40, 20, 4, 0.2, AsymmetricLaplaceNoise(rate=1.0, asymmetry=0.7), seed=s
        )
        _, _, report = em.fit(inst.observed, FitOptions(rank=4), seed=s)
        tr = np.asarray(report.loglik_trace)
        viol = np.diff(tr) + 1e-8 * np.abs(tr[:-1])
        if (viol < 0.0).any():
            n_bad += 1
            worst_rel = min(worst_rel, float((viol / np.abs(tr[:-1])).min()))
    elapsed = time.perf_counter() - start
    ok = n_bad == 0 and elapsed < 60.0
    detail = (
        "all 30 traces non-decreasing within 1e-8"
        if n_bad == 0
        else (
            f"{n_bad}/30 traces decrease (worst {worst_rel:.1e} relative vs 1e-8 "
            f"slack); the factor step's sign-frozen slopes and component pruning "
            f"are not ascent steps — see notes on the known red"
        )
    )
    _report(5, ok, detail, elapsed)
    assert n_bad == 0, detail
    assert elapsed < 60.0


# +/-30% acceptance bands around externally established rank-4 mean L1 errors
# for the adaptive method under the matching generator settings.
REFERENCE_L1_R4 = {
    "laplace": 1.22,
    "gaussian": 2.97,
    "student_t_df2": 0.98,
    "asym_laplace": 1.93,
    "mixture1": 0.85,
    "mixture2": 0.98,
}


def test_criterion_6_error_bands_rank4(full_grid):
    cells, elapsed, _ = full_grid
    misses = []
    parts = []
    for noise, ref in REFERENCE_L1_R4.items():
        got = cells[(noise, 4, "aq")]["mean_l1_truth"]
        lo, hi = 0.7 * ref, 1.3 * ref
        parts.append(f"{noise}={got:.3f} in [{lo:.2f},{hi:.2f}]")
        if not (lo <= got <= hi):
            misses.append(f"{noise}: {got:.3f} outside [{lo:.3f}, {hi:.3f}]")
    sn_aq = cells[("skew_normal", 4, "aq")]["mean_l1_truth"]
    sn_cwm = cells[("skew_normal", 4, "cwm_uniform")]["mean_l1_truth"]
    if sn_aq > sn_cwm:
        misses.append(f"skew_normal ordering: {sn_aq:.3f} > {sn_cwm:.3f}")
    ok = not misses and elapsed < 300.0
    detail = (
        f"six bands hit, skew-normal ordering {sn_aq:.3f} <= {sn_cwm:.3f}, "
        f"grid in {elapsed:.0f}s"
        if not misses
        else "; ".join(misses)
    )
    _report(6, ok, detail, elapsed)
    assert not misses, misses
    assert elapsed < 300.0


def test_criterion_7_adaptive_beats_uniform_baseline(full_grid):
    cells, _, _ = full_grid
    losses = []
    wins = []
    for noise in ("asym_laplace", "mixture1", "mixture2"):
        for rank in (4, 8):
            a = cells[(noise, rank, "aq")]["mean_l1_truth"]
            c = cells[(noise, rank, "cwm_uniform")]["mean_l1_truth"]
            tag = f"{noise} r={rank}: {a:.3f} vs {c:.3f}"
            (wins if a <= c else losses).append(tag)
    ok = not losses
    detail = (
        "adaptive <= uniform on all six cells: " + "; ".join(wins)
        if ok
        else "ordering lost on " + "; ".join(losses) + " — known red on the "
        "Gaussian-dominated mixture (weights flatten to near-uniform); "
        "won cells: " + "; ".join(wins)
    )
    _report(7, ok, detail, 0.0)
    assert not losses, detail


# SHA-256 of the default grid's result JSON.  A change that moves it must say
# which numbers change and why, and then update this digest.
DEFAULT_GRID_SHA256 = "81c24a468d27919103515e129d0616eccb384e4ef4bb1d9d126e720391d73c9e"


def test_default_grid_result_bytes_pinned(full_grid):
    _, _, blob = full_grid
    digest = hashlib.sha256(blob).hexdigest()
    assert digest == DEFAULT_GRID_SHA256, (
        f"default grid result SHA-256 is {digest} ({len(blob)} bytes), "
        f"pinned {DEFAULT_GRID_SHA256}")


def test_criterion_8_exact_recovery_noiseless():
    start = time.perf_counter()
    errs = {}
    for rank in (1, 4):
        inst = make_instance(30, 20, rank, 0.0, None, seed=rank)
        factors, _, _ = em.fit(
            inst.observed, FitOptions(rank=rank, max_iterations=100), seed=0
        )
        errs[rank] = float(np.mean(np.abs(factors.product() - inst.ground_truth)))
    elapsed = time.perf_counter() - start
    ok = all(e < 1e-6 for e in errs.values()) and elapsed < 10.0
    _report(
        8,
        ok,
        f"avg L1 error r=1: {errs[1]:.2e}, r=4: {errs[4]:.2e} (<1e-6)",
        elapsed,
    )
    assert errs[1] < 1e-6
    assert errs[4] < 1e-6
    assert elapsed < 10.0


def test_criterion_9_benchmark_byte_identical(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"noise_rows": ["laplace", "asym_laplace"], "ranks": [4],'
        ' "replications": 3, "master_seed": 20}\n'
    )
    blobs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        rc = cli_main(["synth-bench", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    ok = blobs[0] == blobs[1] and elapsed < 300.0
    _report(
        9,
        ok,
        f"two runs, {len(blobs[0])} bytes each, identical: {blobs[0] == blobs[1]}",
        elapsed,
    )
    assert blobs[0] == blobs[1]
    assert elapsed < 300.0
