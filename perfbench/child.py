"""Fresh-interpreter helpers that run.py starts as subprocesses.

    child.py prepare WORKLOAD SEED DIR
        import aqmf and write the workload's inputs into DIR; run.py times
        this from spawn to exit as one set-up.
    child.py cli SPANS ARGS...
        run ``aqmf.cli.main(ARGS)`` with the library traced, then write the
        spans to SPANS.  The import of ``aqmf.cli`` is timed first, before
        anything else is imported, so the span covers all of it.
"""

import sys
import time


def _prepare(workload: str, seed: str, out_dir: str) -> int:
    from pathlib import Path

    import workloads

    workloads.build_inputs(workload, int(seed), Path(out_dir))
    return 0


def _cli(spans_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    from aqmf import cli

    t1 = time.perf_counter()
    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.add("cli.import", -1, t0, t1)
    tracing.install(tracer, cli=True)
    try:
        rc = tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.payload(), fh)
    return rc


def main(argv: list) -> int:
    if len(argv) == 4 and argv[0] == "prepare":
        return _prepare(*argv[1:])
    if len(argv) >= 2 and argv[0] == "cli":
        return _cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
