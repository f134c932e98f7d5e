"""Smoke test: every demo script runs to completion and writes its files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo script -> the files it says it writes into the working directory
DEMOS = {
    "noise_model_tour.py": (),
    "synthetic_benchmark.py": ("benchmark_demo.json", "benchmark_demo.timing.json"),
    "image_inpainting.py": (
        "inpaint_clean.pgm",
        "inpaint_damaged.pgm",
        "inpaint_restored.pgm",
    ),
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs_and_writes_its_files(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in DEMOS[script]:
        data = (tmp_path / name).read_bytes()
        if name.endswith(".json"):
            assert json.loads(data)["schema"].startswith("aqmf-benchmark")
        else:
            assert data.startswith(b"P5")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DEMOS[script])
