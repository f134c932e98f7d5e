"""Command-line front end: single-matrix fitting, the synthetic benchmark
grid, and mask-based image inpainting.

Exit codes: 0 on success, 1 on validation/usage errors, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import jsonfmt
from .bench import BenchmarkConfig, render_table, result_to_json, run_benchmark, timing_to_json
from .em import FitOptions, fit, fit_l1_baseline, observed_residuals
from .matrixio import read_csv_matrix, read_pgm, write_csv_matrix, write_pgm
from .types import MaskedMatrix


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, keeping exit
    status 2 reserved for I/O failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> tuple:
    return tuple(t.strip() for t in text.split(",") if t.strip() != "")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aqmf",
        description="Robust low-rank matrix factorization under skewed, heavy-tailed noise.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_fit = sub.add_parser("fit", help="factor a CSV matrix (NaN marks missing entries)")
    p_fit.add_argument("--input", required=True, help="input CSV matrix")
    p_fit.add_argument("--rank", required=True, type=int, help="factorization rank")
    p_fit.add_argument("--components", type=int, default=4,
                       help="initial noise components (default 4)")
    p_fit.add_argument("--max-iters", type=int, default=100,
                       help="outer iteration budget (default 100)")
    p_fit.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_fit.add_argument("--method", choices=("aq", "cwm"), default="aq",
                       help="aq: adaptive mixture weights; cwm: uniform-weight L1 baseline")
    p_fit.add_argument("--output-u", help="write the left factor U as CSV")
    p_fit.add_argument("--output-v", help="write the right factor V as CSV")
    p_fit.add_argument("--report", help="write a JSON fit report")
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("synth-bench", help="run the synthetic noise benchmark grid")
    p_bench.add_argument("--config", help="JSON file with BenchmarkConfig fields")
    p_bench.add_argument("--output", default="benchmark.json",
                         help="result JSON path (default benchmark.json); wall-clock "
                              "timings go to a .timing.json sidecar")
    p_bench.add_argument("--m", type=int, help="rows (default 40)")
    p_bench.add_argument("--n", type=int, help="columns (default 20)")
    p_bench.add_argument("--ranks", type=_int_list, help="comma-separated ranks (default 4,8)")
    p_bench.add_argument("--replications", type=int, help="replications per cell (default 30)")
    p_bench.add_argument("--missing-fraction", type=float, help="hidden fraction (default 0.2)")
    p_bench.add_argument("--noise-rows", type=_str_list,
                         help="comma-separated noise row names (default: all eight)")
    p_bench.add_argument("--methods", type=_str_list,
                         help="comma-separated subset of aq,cwm_uniform")
    p_bench.add_argument("--master-seed", type=int, help="master seed (default 0)")
    p_bench.add_argument("--components", type=int, help="initial noise components (default 4)")
    p_bench.add_argument("--max-iters", type=int, dest="max_iterations",
                         help="outer iteration budget (default 100)")
    p_bench.set_defaults(func=cmd_synth_bench)

    p_inp = sub.add_parser("inpaint", help="reconstruct masked pixels of a PGM image")
    p_inp.add_argument("--image", required=True, help="input image (binary PGM)")
    p_inp.add_argument("--mask", required=True,
                       help="mask image (binary PGM): pixel 0 = missing, anything else = observed")
    p_inp.add_argument("--rank", type=int, default=80, help="factorization rank (default 80)")
    p_inp.add_argument("--components", type=int, default=4,
                       help="initial noise components (default 4)")
    p_inp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_inp.add_argument("--output", required=True, help="output PGM path")
    p_inp.set_defaults(func=cmd_inpaint)
    return parser


def cmd_fit(args) -> int:
    X = read_csv_matrix(args.input)
    source = Path(args.input)
    report = {
        "command": "fit",
        "config": {
            "input": source.name,
            "input_sha256": hashlib.sha256(source.read_bytes()).hexdigest(),
            "rank": args.rank,
            "components": args.components,
            "max_iters": args.max_iters,
            "seed": args.seed,
            "method": args.method,
        },
        "seed": args.seed,
    }
    if args.method == "aq":
        opts = FitOptions(
            rank=args.rank, components=args.components, max_iterations=args.max_iters
        )
        factors, model, fit_report = fit(X, opts, seed=args.seed)
        report["iterations"] = fit_report.iterations
        report["converged"] = fit_report.converged
        report["final_components"] = model.n_components
        report["loglik_trace"] = [float(v) for v in fit_report.loglik_trace]
        report["components"] = [
            {
                "weight": float(model.weights[s]),
                "rate": float(model.rates[s]),
                "asymmetry": float(model.asymmetries[s]),
            }
            for s in range(model.n_components)
        ]
    else:
        factors, base_report = fit_l1_baseline(
            X, args.rank, seed=args.seed, max_sweeps=args.max_iters
        )
        report["sweeps"] = base_report.sweeps
        report["converged"] = base_report.converged
    resid = observed_residuals(X, factors)
    report["observed_l1"] = float(np.mean(np.abs(resid)))
    report["observed_l2"] = float(np.sqrt(np.mean(resid * resid)))
    if args.output_u:
        write_csv_matrix(args.output_u, MaskedMatrix.fully_observed(factors.u))
    if args.output_v:
        write_csv_matrix(args.output_v, MaskedMatrix.fully_observed(factors.v))
    if args.report:
        jsonfmt.dump(report, args.report)
    print(
        f"fit: {X.shape[0]}x{X.shape[1]} rank={args.rank} method={args.method} "
        f"observed L1={report['observed_l1']:.6g}"
    )
    return 0


def _load_bench_config(args) -> BenchmarkConfig:
    """The ``--config`` file's fields, each overridden by the flag whose
    destination has the field's name when that flag is given."""
    names = [f.name for f in dataclasses.fields(BenchmarkConfig)]
    fields = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: benchmark config must be a JSON object")
        unknown = sorted(set(raw) - set(names))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
        fields.update(raw)
    fields.update((k, getattr(args, k)) for k in names if getattr(args, k) is not None)
    return BenchmarkConfig(**fields)


def cmd_synth_bench(args) -> int:
    cfg = _load_bench_config(args)
    result = run_benchmark(cfg, progress=lambda msg: print(f"[bench] {msg}", file=sys.stderr))
    out = Path(args.output)
    jsonfmt.dump(result_to_json(result), out)
    timing_path = out.with_name(out.stem + ".timing.json")
    jsonfmt.dump(timing_to_json(result), timing_path)
    sys.stdout.write(render_table(result))
    print(f"wrote {out} and {timing_path}")
    return 0


def cmd_inpaint(args) -> int:
    image = read_pgm(args.image)
    mask = read_pgm(args.mask)
    if image.shape != mask.shape:
        raise ValueError(
            f"image {image.shape[1]}x{image.shape[0]} and mask "
            f"{mask.shape[1]}x{mask.shape[0]} differ in size"
        )
    X = MaskedMatrix(image, mask > 0)
    opts = FitOptions(rank=args.rank, components=args.components)
    factors, _, fit_report = fit(X, opts, seed=args.seed)
    recon = np.clip(factors.product(), 0.0, 1.0)
    write_pgm(args.output, recon)
    resid = observed_residuals(X, factors)
    print(
        f"inpaint: wrote {args.output} "
        f"(observed L1 {float(np.mean(np.abs(resid))):.6g}, "
        f"{fit_report.iterations} iterations)"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
