"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed (``build_inputs``,
run in a fresh interpreter so that set-up is timed as a user pays it) and
then repeats one operation in a closed loop: one client, one operation at a
time.  Every operation returns an :class:`OpResult` with its wall time, a
digest of what it produced, the fits it ran, and the outcome of its output
checks.  Repetitions of one run use the same inputs, so their digests must
agree.

Library calls go through module attributes (``bench.run_benchmark``,
``em.fit``, ``matrixio.read_pgm``) so that the traced run's wrappers see
them.  Output checks use the references captured below at import, which the
wrappers never replace, so checking adds no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aqmf import bench, em, jsonfmt, matrixio
from aqmf.synth import AsymmetricLaplaceNoise, make_instance
from aqmf.types import MaskedMatrix

_read_pgm = matrixio.read_pgm
_read_csv = matrixio.read_csv_matrix

# grid: the default 40x20 study (all eight noise rows, ranks 4 and 8, both
# methods, 20% missing) at two replications per operation, 64 fits.  The
# default fits stop at exact fixed points after 33 to 100 iterations, so an
# operation's work would change with the seed; capping the iterations below
# 33 gives every seed the same work, so time measures speed.  Five keeps an
# operation near two seconds, so a run repeats it often enough that its
# fastest repetition is steady on a shared machine.
GRID_REPLICATIONS = 2
GRID_MAX_ITERATIONS = 5
# inpaint: the `aqmf inpaint` defaults on a 256x256 image, capped at one
# outer iteration: its ten inner sweeps take about nine seconds on a 2-core
# Xeon virtual machine, and the EM steps stay under 2% of the time, as in a
# full inpaint.
INPAINT_SIZE = 256
INPAINT_RANK = 80
INPAINT_COMPONENTS = 4
INPAINT_MAX_ITERATIONS = 1
INPAINT_HIDDEN = 0.4
INPAINT_SALT = 0.05
# cli_fit: one `aqmf fit` command on a tall matrix.
CLI_SHAPE = (1000, 100)
CLI_RANK = 4
CLI_MISSING = 0.3
CLI_NOISE = AsymmetricLaplaceNoise(1.0, 0.7)
CLI_MAX_ITERS = 2
CLI_REL_TOL = 1e-9

PERFBENCH = Path(__file__).resolve().parent


@dataclass
class OpResult:
    """One operation: wall time, output digest, fits run as
    ``(method, seconds, iterations)``, checks, and quality figures."""

    seconds: float
    digest: str
    fits: list
    attempted: int
    failed: int = 0
    reason: str | None = None
    quality: dict = field(default_factory=dict)
    peak_rss_kb: int = 0


def inpaint_scene(seed: int):
    """Clean image, observation mask, corrupted image and salt mask.

    The recipe of ``demos/image_inpainting.py`` at 256x256: smooth
    gradients plus a banded stripe block, 40% of pixels hidden, 5% of the
    observed ones flipped to pure black or white.
    """
    h = w = INPAINT_SIZE
    ys = np.linspace(0.0, 1.0, h)[:, None]
    xs = np.linspace(0.0, 1.0, w)[None, :]
    img = 0.45 + 0.3 * ys @ np.ones_like(xs) + 0.2 * np.ones_like(ys) @ np.sin(3.0 * xs)
    img += 0.15 * (ys > 0.6) @ (np.cos(7.0 * xs))
    clean = np.clip(img, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    observed = rng.random((h, w)) >= INPAINT_HIDDEN
    corrupted = clean.copy()
    salt = observed & (rng.random((h, w)) < INPAINT_SALT)
    corrupted[salt] = rng.choice([0.0, 1.0], size=int(salt.sum()))
    return clean, observed, corrupted, salt


def build_inputs(workload: str, seed: int, out_dir: Path) -> None:
    """Make the workload's input files from the seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "grid":
        _grid_config(seed)
    elif workload == "inpaint":
        _, observed, corrupted, _ = inpaint_scene(seed)
        matrixio.write_pgm(out_dir / "image.pgm", np.where(observed, corrupted, 0.0))
        matrixio.write_pgm(out_dir / "mask.pgm", observed.astype(float))
    elif workload == "cli_fit":
        inst = make_instance(*CLI_SHAPE, CLI_RANK, CLI_MISSING, CLI_NOISE, seed=seed)
        matrixio.write_csv_matrix(out_dir / "input.csv", inst.observed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _grid_config(seed: int):
    return bench.BenchmarkConfig(replications=GRID_REPLICATIONS,
                                 max_iterations=GRID_MAX_ITERATIONS, master_seed=seed)


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()


class Grid:
    def __init__(self, seed: int, inputs: Path, work: Path, env: dict):
        self.cfg = _grid_config(seed)
        self.per_op = (
            len(self.cfg.noise_rows) * len(self.cfg.ranks) * len(self.cfg.methods)
            * self.cfg.replications
        )

    def op(self, tracer=None) -> OpResult:
        with _maybe_span(tracer):
            t0 = time.perf_counter()
            result = bench.run_benchmark(self.cfg)
            payload = jsonfmt.dumps(bench.result_to_json(result)).encode()
            seconds = time.perf_counter() - t0
        fits, bad = [], 0
        by_method = {}
        for r in result.records:
            fits.append((r.method, r.seconds, r.iterations))
            errs = (r.l1_noisy, r.l2_noisy, r.l1_truth, r.l2_truth)
            if not np.isfinite(errs).all():
                bad += 1
            by_method.setdefault(r.method, []).append(r.l1_truth)
        bad += self.per_op - len(result.records)
        quality = {f"l1_truth_{m if m == 'aq' else 'cwm'}": float(np.mean(v))
                   for m, v in by_method.items()}
        return OpResult(seconds, _sha(payload), fits, self.per_op, bad,
                        "non-finite factors" if bad else None, quality)


class Inpaint:
    per_op = 1

    def __init__(self, seed: int, inputs: Path, work: Path, env: dict):
        self.image = inputs / "image.pgm"
        self.mask = inputs / "mask.pgm"
        self.output = work / "inpaint_out.pgm"
        clean, observed, _, _ = inpaint_scene(seed)
        self.clean = clean
        self.hidden = ~observed
        self.opts = em.FitOptions(
            rank=INPAINT_RANK, components=INPAINT_COMPONENTS,
            max_iterations=INPAINT_MAX_ITERATIONS,
        )

    def op(self, tracer=None) -> OpResult:
        self.output.unlink(missing_ok=True)
        with _maybe_span(tracer):
            t0 = time.perf_counter()
            image = matrixio.read_pgm(self.image)
            mask = matrixio.read_pgm(self.mask)
            X = MaskedMatrix(image, mask > 0)
            f0 = time.perf_counter()
            factors, _, report = em.fit(X, self.opts, seed=0)
            fit_s = time.perf_counter() - f0
            matrixio.write_pgm(self.output, np.clip(factors.product(), 0.0, 1.0))
            seconds = time.perf_counter() - t0
        out = _read_pgm(self.output)
        if out.shape != self.clean.shape:
            reason, quality = f"output is {out.shape}, input {self.clean.shape}", {}
        else:
            hidden_l1 = float(np.mean(np.abs(out - self.clean)[self.hidden]))
            zero_fill = float(np.mean(np.abs(self.clean)[self.hidden]))
            quality = {"hidden_l1": hidden_l1}
            reason = None if hidden_l1 < zero_fill else (
                f"hidden_l1 {hidden_l1} does not beat zero fill {zero_fill}")
        return OpResult(seconds, _sha(self.output.read_bytes()),
                        [("aq", fit_s, report.iterations)], 1, int(reason is not None),
                        reason, quality)


class CliFit:
    per_op = 1

    def __init__(self, seed: int, inputs: Path, work: Path, env: dict):
        self.env = env
        self.input = inputs / "input.csv"
        self.u, self.v = work / "cli_u.csv", work / "cli_v.csv"
        self.report = work / "cli_report.json"
        self.spans = work / "cli_spans.json"
        self.stderr = work / "cli_stderr.txt"
        self.X = _read_csv(self.input)
        self.argv = [
            "fit", "--input", str(self.input), "--rank", str(CLI_RANK),
            "--max-iters", str(CLI_MAX_ITERS), "--output-u", str(self.u),
            "--output-v", str(self.v), "--report", str(self.report),
        ]

    def op(self, tracer=None) -> OpResult:
        for p in (self.u, self.v, self.report, self.spans):
            p.unlink(missing_ok=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "aqmf.cli", *self.argv]
        else:
            cmd = [sys.executable, str(PERFBENCH / "child.py"), "cli", str(self.spans),
                   *self.argv]
        with _maybe_span(tracer) as span, open(self.stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None and self.spans.exists():
            tracer.merge(json.loads(self.spans.read_text()), span)
        reason, quality, iterations, digest = self._check(proc.returncode)
        return OpResult(seconds, digest, [("aq", seconds, iterations)], 1,
                        int(reason is not None), reason, quality, usage.ru_maxrss)

    def _check(self, rc: int):
        if rc != 0:
            tail = self.stderr.read_text(errors="replace").strip().splitlines()[-1:]
            return f"exit code {rc}: {' '.join(tail)}", {}, 0, ""
        blobs = [p.read_bytes() for p in (self.u, self.v, self.report)]
        u, v = _read_csv(self.u), _read_csv(self.v)
        report = json.loads(blobs[2])
        quality = {"observed_l1": float(report["observed_l1"])}
        m, n = CLI_SHAPE
        if u.shape != (m, CLI_RANK) or v.shape != (n, CLI_RANK):
            return f"factor shapes {u.shape}, {v.shape}", quality, 0, _sha(*blobs)
        resid = (self.X.values - u.values @ v.values.T)[self.X.mask]
        l1 = float(np.mean(np.abs(resid)))
        if not abs(l1 - quality["observed_l1"]) <= CLI_REL_TOL * abs(l1):
            return (f"observed_l1 {quality['observed_l1']} does not match "
                    f"recomputed {l1}"), quality, 0, _sha(*blobs)
        return None, quality, int(report["iterations"]), _sha(*blobs)


def _maybe_span(tracer):
    return contextlib.nullcontext(-1) if tracer is None else tracer.span("op")


def make(workload: str, seed: int, inputs: Path, work: Path, env: dict):
    cls = {"grid": Grid, "inpaint": Inpaint, "cli_fit": CliFit}[workload]
    return cls(seed, inputs, work, env)
