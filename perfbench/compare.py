"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records that run.py writes to
``.bench_build/perfbench/records/`` (for example, one directory per
checkout).  Untraced runs are grouped by workload and paired by seed.  For
every workload and metric the table gives each side's median and quartiles,
the share of pairs the new side wins (ties count for neither), and a
verdict against the metric's bound: better, same, worse or unresolved (see
``stats.verdict``).  Bounds come from BENCHMARK.json; a metric reported only
in the records borrows the bound of the end-to-end metric it refines.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent

# Record-only metrics and the end-to-end metric whose bound they use.
REFINES = {
    "failed_frac": "ok_frac",
    "aq_fit_s_p50": "fits_per_s", "aq_fit_s_tail": "fits_per_s",
    "cwm_fit_s_p50": "fits_per_s", "cwm_fit_s_tail": "fits_per_s",
    "iter_s": "fits_per_s", "cmd_s_p50": "fits_per_s", "cmd_s_tail": "fits_per_s",
    "l1_truth_aq": "l1_err", "l1_truth_cwm": "l1_err",
    "hidden_l1": "l1_err", "observed_l1": "l1_err",
}
HIGHER_IS_BETTER = {"fits_per_s", "ok_frac"}


def load(directory: Path) -> dict:
    """{workload: [record, ...]} of untraced runs, ordered by seed, then time."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs[rec["workload"]].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def _paired(base: list, new: list):
    """Keep the seeds both sides ran, in matching order."""
    by_seed = defaultdict(list)
    for r in new:
        by_seed[r["seed"]].append(r)
    pairs = []
    for r in base:
        if by_seed[r["seed"]]:
            pairs.append((r, by_seed[r["seed"]].pop(0)))
    return pairs


def compare(base_runs: dict, new_runs: dict, limits: dict) -> list:
    rows = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        pairs = _paired(base_runs[workload], new_runs[workload])
        if not pairs:
            continue
        names = list(pairs[0][0]["detail"])
        for name in names:
            b = [p[0]["detail"].get(name, {}).get("value") for p in pairs]
            n = [p[1]["detail"].get(name, {}).get("value") for p in pairs]
            kept = [(x, y) for x, y in zip(b, n) if x is not None and y is not None]
            if not kept:
                continue
            b, n = [x for x, _ in kept], [y for _, y in kept]
            better, bound = limits.get(name) or limits[REFINES[name]]
            if name in REFINES:
                better = "higher" if name in HIGHER_IS_BETTER else "lower"
            qb, qn = stats.quartiles(b), stats.quartiles(n)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": pairs[0][0]["detail"][name]["unit"],
                "pairs": len(kept),
                "base": qb,
                "new": qn,
                "win": stats.win_fraction(b, n, better),
                "bound": bound,
                "verdict": stats.verdict(b, n, better, bound),
            })
    return rows


def render(rows: list) -> str:
    head = (f"{'workload':<9} {'metric':<16} {'unit':<8} {'n':>3} "
            f"{'base median [q1, q3]':>32} {'new median [q1, q3]':>32} "
            f"{'win':>5} {'bound':>6}  verdict")
    lines = [head]
    for r in rows:
        def fmt(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        lines.append(
            f"{r['workload']:<9} {r['metric']:<16} {r['unit']:<8} {r['pairs']:>3} "
            f"{fmt(r['base']):>32} {fmt(r['new']):>32} {r['win']:>5.2f} "
            f"{r['bound']:>6.2f}  {r['verdict']}")
    return "\n".join(lines) + "\n"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    rows = compare(base, new, bounds())
    if not rows:
        print("no workload has untraced runs with a common seed on both sides",
              file=sys.stderr)
        return 1
    sys.stdout.write(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
