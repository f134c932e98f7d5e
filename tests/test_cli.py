"""End-to-end CLI tests driving main() with real files."""

import hashlib
import json

import numpy as np
import pytest

from aqmf.cli import main
from aqmf.matrixio import read_csv_matrix, read_pgm, write_csv_matrix, write_pgm
from aqmf.synth import AsymmetricLaplaceNoise, LaplaceNoise, make_instance
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


@pytest.mark.parametrize("method", ["aq", "cwm"])
def test_fit_zero_iteration_budget_exits_1(small_csv, tmp_path, capsys, method):
    report = tmp_path / "r.json"
    rc = main(["fit", "--input", str(small_csv), "--rank", "2", "--method", method,
               "--max-iters", "0", "--report", str(report)])
    assert rc == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("method, key", [("aq", "iterations"), ("cwm", "sweeps")])
def test_fit_max_iters_is_an_integer_budget(small_csv, tmp_path, capsys, method, key):
    report = tmp_path / "r.json"
    args = ["fit", "--input", str(small_csv), "--rank", "2", "--method", method,
            "--report", str(report), "--max-iters"]
    assert main(args + ["2"]) == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["max_iters"] == 2 and payload[key] == 2
    report.unlink()
    for bad in ("2.5", "True"):
        assert main(args + [bad]) == 1
        assert "invalid int value" in capsys.readouterr().err
        assert not report.exists()


@pytest.mark.parametrize("method", ["aq", "cwm"])
def test_fit_negative_seed_exits_1_naming_the_seed(small_csv, tmp_path, capsys, method):
    report = tmp_path / "r.json"
    rc = main(["fit", "--input", str(small_csv), "--rank", "2", "--method", method,
               "--seed", "-1", "--report", str(report)])
    assert rc == 1
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not report.exists()


def test_fit_deterministic_given_seed(small_csv, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        main(["fit", "--input", str(small_csv), "--rank", "2", "--seed", "9",
              "--report", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_fit_report_does_not_depend_on_input_directory(small_csv, tmp_path, monkeypatch):
    reports = []
    for where in ("one", "two/deeper"):
        d = tmp_path / where
        d.mkdir(parents=True)
        (d / "data.csv").write_bytes(small_csv.read_bytes())
        reports.append(d / "report.json")
    # one run by absolute path, one by a path relative to the working directory
    assert main(["fit", "--input", str(tmp_path / "one" / "data.csv"), "--rank", "2",
                 "--max-iters", "3", "--report", str(reports[0])]) == 0
    monkeypatch.chdir(tmp_path / "two")
    assert main(["fit", "--input", "deeper/data.csv", "--rank", "2", "--max-iters", "3",
                 "--report", str(reports[1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    config = json.loads(reports[0].read_text())["config"]
    assert config["input"] == "data.csv"
    assert config["input_sha256"] == hashlib.sha256(small_csv.read_bytes()).hexdigest()


# SHA-256 over U, V, the report and stdout of one `aqmf fit` run on
# make_instance(60, 25, 3, 0.2, AsymmetricLaplaceNoise(1.0, 0.7), seed=5).
# At 100 iterations `aq` converges in 54 and `cwm` uses all 100 sweeps.  A
# change that moves one must say which numbers change and why.
FIT_OUTPUT_SHA256 = {
    ("aq", 3): "93bb8f5fe00c0e1040c3bc4ebace829af93b1df97c5e1ab8d821aa79dff3b6a6",
    ("aq", 100): "e69655818b1b418f8c9898d399777775f73de332f986e2df633d552585552c0a",
    ("cwm", 3): "ea578b4a55966837953a70a8e8f8d6be93bf89aa43bfa58dd49ebb65814af684",
    ("cwm", 100): "6a58084fe888c1c8745436e16db4a8083ea0717d891eb34e97789eae80fe6ba5",
}


@pytest.mark.parametrize("method, iters", sorted(FIT_OUTPUT_SHA256))
def test_fit_output_bytes_are_pinned(tmp_path, capsys, method, iters):
    inst = make_instance(60, 25, 3, 0.2, AsymmetricLaplaceNoise(1.0, 0.7), seed=5)
    data = tmp_path / "data.csv"
    write_csv_matrix(data, inst.observed)
    outputs = [tmp_path / name for name in ("u.csv", "v.csv", "report.json")]
    capsys.readouterr()
    rc = main(["fit", "--input", str(data), "--rank", "3", "--method", method,
               "--max-iters", str(iters), "--output-u", str(outputs[0]),
               "--output-v", str(outputs[1]), "--report", str(outputs[2])])
    assert rc == 0
    digest = hashlib.sha256()
    for path in outputs:
        digest.update(path.read_bytes())
    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == FIT_OUTPUT_SHA256[method, iters]


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


# Each synth-bench flag, a value for it, its config field and the value the
# result JSON's config must show; the config file holds a different value.
FLAG_OVERRIDES = [
    ("--m", "10", "m", 10),
    ("--n", "6", "n", 6),
    ("--ranks", "1", "ranks", [1]),
    ("--replications", "1", "replications", 1),
    ("--missing-fraction", "0.3", "missing_fraction", 0.3),
    ("--noise-rows", "gaussian", "noise_rows", ["gaussian"]),
    ("--methods", "aq", "methods", ["aq"]),
    ("--master-seed", "5", "master_seed", 5),
    ("--components", "2", "components", 2),
    ("--max-iters", "4", "max_iterations", 4),
]


@pytest.mark.parametrize("flag,text,field,value", FLAG_OVERRIDES,
                         ids=[case[0] for case in FLAG_OVERRIDES])
def test_synth_bench_flag_overrides_config(tmp_path, flag, text, field, value):
    config = {"m": 12, "n": 8, "ranks": [2], "replications": 2, "missing_fraction": 0.2,
              "noise_rows": ["laplace"], "methods": ["cwm_uniform"], "master_seed": 3,
              "components": 3, "max_iterations": 10}
    assert config[field] != value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "bench.json"
    rc = main(["synth-bench", "--config", str(cfg), "--output", str(out), flag, text])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"] == config | {field: value}


@pytest.mark.parametrize("probe", [
    pytest.param({"ranks": 4}, id="ranks-int"),
    pytest.param({"m": "40"}, id="m-str"),
    pytest.param({"replications": 1.5}, id="replications-float"),
    pytest.param({"missing_fraction": None}, id="missing_fraction-null"),
    pytest.param({"noise_rows": "laplace"}, id="noise_rows-str"),
    pytest.param({"ranks": [4.7]}, id="ranks-float-entry"),
    pytest.param({"max_iterations": True}, id="max_iterations-bool"),
    pytest.param({"master_seed": -1}, id="master_seed-negative"),
])
def test_synth_bench_rejects_mistyped_config_field(tmp_path, capsys, probe):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(probe))
    out = tmp_path / "o.json"
    rc = main(["synth-bench", "--config", str(cfg), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {next(iter(probe))} "), err
    assert not out.exists()


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
