"""End-to-end CLI tests driving main() with real files."""

import json

import numpy as np
import pytest

from aqmf.cli import main
from aqmf.matrixio import read_csv_matrix, read_pgm, write_csv_matrix, write_pgm
from aqmf.synth import LaplaceNoise, make_instance
from aqmf.types import MaskedMatrix


@pytest.fixture()
def small_csv(tmp_path):
    inst = make_instance(15, 10, 2, 0.2, LaplaceNoise(0.0, 0.5), seed=2)
    path = tmp_path / "data.csv"
    write_csv_matrix(path, inst.observed)
    return path


def test_fit_writes_factors_and_report(small_csv, tmp_path, capsys):
    report = tmp_path / "report.json"
    u_path = tmp_path / "u.csv"
    v_path = tmp_path / "v.csv"
    rc = main(
        [
            "fit",
            "--input", str(small_csv),
            "--rank", "2",
            "--max-iters", "30",
            "--report", str(report),
            "--output-u", str(u_path),
            "--output-v", str(v_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fit: 15x10 rank=2 method=aq" in out
    assert "observed L1=" in out
    u = read_csv_matrix(u_path)
    v = read_csv_matrix(v_path)
    assert u.shape == (15, 2) and v.shape == (10, 2)
    payload = json.loads(report.read_text())
    assert payload["command"] == "fit"
    assert payload["iterations"] == len(payload["loglik_trace"])
    assert 1 <= payload["final_components"] <= 4
    for comp in payload["components"]:
        assert comp["rate"] > 0 and 0 < comp["asymmetry"] < 1
    # the reported error matches the written factors
    X = read_csv_matrix(small_csv)
    resid = (X.values - u.values @ v.values.T)[X.mask]
    assert payload["observed_l1"] == pytest.approx(np.mean(np.abs(resid)), rel=1e-12)


def test_fit_cwm_method(small_csv, tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = main(
        ["fit", "--input", str(small_csv), "--rank", "2", "--method", "cwm",
         "--report", str(report)]
    )
    assert rc == 0
    assert "method=cwm" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert "sweeps" in payload and "components" not in payload


def test_fit_deterministic_given_seed(small_csv, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        main(["fit", "--input", str(small_csv), "--rank", "2", "--seed", "9",
              "--report", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_fit_missing_input_is_io_error(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path / "nope.csv"), "--rank", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_fit_bad_csv_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    rc = main(["fit", "--input", str(path), "--rank", "2"])
    assert rc == 1
    assert "row 2" in capsys.readouterr().err


def test_rank_above_matrix_shape_exits_1(tmp_path, capsys):
    csv = tmp_path / "small.csv"
    write_csv_matrix(csv, MaskedMatrix.fully_observed(np.ones((5, 3))))
    assert main(["fit", "--input", str(csv), "--rank", "7"]) == 1
    assert "rank 7" in capsys.readouterr().err
    image = tmp_path / "img.pgm"
    write_pgm(image, np.full((4, 6), 0.5))
    rc = main(["inpaint", "--image", str(image), "--mask", str(image), "--rank", "5",
               "--output", str(tmp_path / "out.pgm")])
    assert rc == 1
    assert "rank 5 must lie in [1, 4] for a 4x6 matrix" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["fit", "--rank", "2"]) == 1  # --input missing
    assert main(["fit", "--input", "x.csv"]) == 1  # --rank missing
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_synth_bench_writes_result_and_timing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "m": 12,
                "n": 8,
                "ranks": [2],
                "replications": 2,
                "noise_rows": ["laplace"],
                "max_iterations": 10,
            }
        )
    )
    out = tmp_path / "bench.json"
    rc = main(["synth-bench", "--config", str(cfg), "--output", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "rank 2 (2 replications" in stdout
    assert f"wrote {out}" in stdout
    payload = json.loads(out.read_text())
    assert payload["schema"] == "aqmf-benchmark/1"
    assert len(payload["records"]) == 4
    timing = json.loads((tmp_path / "bench.timing.json").read_text())
    assert timing["schema"] == "aqmf-benchmark-timing/1"


def test_synth_bench_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 12, "n": 8, "ranks": [2], "replications": 2,
                               "noise_rows": ["laplace"], "max_iterations": 10}))
    out = tmp_path / "bench.json"
    rc = main(["synth-bench", "--config", str(cfg), "--output", str(out),
               "--replications", "1"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["replications"] == 1


def test_synth_bench_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 12, "bogus_key": 1}))
    rc = main(["synth-bench", "--config", str(cfg), "--output", str(tmp_path / "o.json")])
    assert rc == 1
    assert "unknown config keys: bogus_key" in capsys.readouterr().err


def test_inpaint_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    u = rng.random((16, 2))
    v = rng.random((12, 2))
    image = np.clip(u @ v.T / 2.0, 0.0, 1.0)
    mask = (rng.random((16, 12)) > 0.3).astype(float)
    img_path = tmp_path / "img.pgm"
    mask_path = tmp_path / "mask.pgm"
    out_path = tmp_path / "out.pgm"
    write_pgm(img_path, image)
    write_pgm(mask_path, mask)
    rc = main(["inpaint", "--image", str(img_path), "--mask", str(mask_path),
               "--rank", "2", "--output", str(out_path)])
    assert rc == 0
    assert "inpaint: wrote" in capsys.readouterr().out
    recon = read_pgm(out_path)
    assert recon.shape == (16, 12)
    # observed pixels should be reproduced decently on an actual low-rank image
    obs = mask > 0
    assert np.mean(np.abs(recon - image)[obs]) < 0.05


def test_inpaint_size_mismatch(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    write_pgm(a, np.zeros((4, 4)))
    write_pgm(b, np.ones((5, 4)))
    rc = main(["inpaint", "--image", str(a), "--mask", str(b),
               "--output", str(tmp_path / "o.pgm")])
    assert rc == 1
    assert "differ in size" in capsys.readouterr().err
