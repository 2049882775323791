import json
import os

import numpy as np
import pytest

from toeplimit import cli
from toeplimit.errors import BadConfig
from toeplimit.limitsets import STAGES

CONFIG_DIR = os.path.join(os.path.dirname(cli.__file__), "configs")
SCALAR = os.path.join(CONFIG_DIR, "scalar.json")
DEMO_H = os.path.join(CONFIG_DIR, "demo_H.json")
DEMO_OPEN = os.path.join(CONFIG_DIR, "demo_open.json")
DEMO_BOUNDARY = os.path.join(CONFIG_DIR, "demo_boundary.json")


def run(argv):
    return cli.run_command(argv)


def test_config_round_trip():
    cfg = cli.load_config(DEMO_H)
    again = cli.config_from_dict(cfg.to_dict())
    for name in ("R", "T", "V", "A", "B", "C"):
        assert np.array_equal(getattr(cfg, name), getattr(again, name))
    assert again.case == cfg.case and again.N == cfg.N
    assert again.region == cfg.region


def test_config_rejects_garbage(tmp_path):
    with pytest.raises(BadConfig):
        cli.config_from_dict({"L": 1, "N": 5})
    with pytest.raises(BadConfig):
        cli.config_from_dict({"L": 1, "N": 5, "R": [[1]], "T": [[1]],
                              "V": [[1]], "case": "bogus"})
    with pytest.raises(BadConfig):
        cli.config_from_dict({"L": 2, "N": 5, "R": [[1]], "T": [[1]],
                              "V": [[1]], "case": "open"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BadConfig):
        cli.load_config(str(bad))


def test_case_mismatch_warns():
    data = json.loads(open(DEMO_H).read())
    data["case"] = "open"
    cfg = cli.config_from_dict(data)
    assert cfg.warnings and "does not match" in cfg.warnings[0]


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"L": 1, "N": 2, "R": [[1]], "T": [[1]],
                               "V": [[0]], "case": "open"}))
    code = run(["verify-widom", "--config", str(bad),
                "--out", str(tmp_path / "o")])
    assert code == 1


def test_missing_config_exit_code(tmp_path):
    code = run(["verify-widom", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o")])
    assert code == 1


def test_verify_widom_scalar_passes(tmp_path):
    out = tmp_path / "w"
    code = run(["verify-widom", "--config", SCALAR, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "widom_verify.json").read_text())
    assert report["pass"] is True
    assert "circulant_formula" in report["routes"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["L"] == 1


def test_verify_widom_perturbed_route(tmp_path):
    out = tmp_path / "w"
    code = run(["verify-widom", "--config", DEMO_H, "--out", str(out),
                "--E", "0.4,0.3", "--N", "6"])
    assert code == 0
    report = json.loads((out / "widom_verify.json").read_text())
    assert report["routes"]["perturbed_sum"]["pass"] is True


def test_limit_spectrum_deterministic_checksums(tmp_path):
    argv = ["limit-spectrum", "--config", SCALAR, "--grid", "48,48"]
    assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run(argv + ["--out", str(tmp_path / "b")]) == 0

    def checksums(d):
        m = json.loads((tmp_path / d / "manifest.json").read_text())
        return {e["path"]: e["checksum"] for e in m["artifacts"]}

    assert checksums("a") == checksums("b")


def test_limit_spectrum_manifest_records_stage_seconds(tmp_path):
    argv = ["limit-spectrum", "--config", DEMO_BOUNDARY, "--grid", "32,32"]
    for d in ("a", "b"):
        assert run(argv + ["--out", str(tmp_path / d)]) == 0
    payloads = [(tmp_path / d / "limit_sets.json").read_bytes()
                for d in ("a", "b")]
    assert payloads[0] == payloads[1]
    assert b"stage_seconds" not in payloads[0]
    for d in ("a", "b"):
        m = json.loads((tmp_path / d / "manifest.json").read_text())
        stages = m["stage_seconds"]
        assert set(stages) == set(STAGES)
        # demo_boundary runs every stage
        assert all(isinstance(t, float) and t > 0 for t in stages.values())
        assert [e["path"] for e in m["artifacts"]] == ["limit_sets.json"]


def test_limit_spectrum_scans_with_config_tolerances(tmp_path):
    data = json.loads(open(SCALAR).read())
    data["tolerances"] = {"tie": 0.5, "degeneracy": 1e-3}
    config = tmp_path / "tol.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "t"
    code = run(["limit-spectrum", "--config", str(config), "--grid", "32,32",
                "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "limit_sets.json").read_text())["metadata"]
    assert meta["tie_tol"] == 0.5
    assert meta["degeneracy_tol"] == 1e-3


def test_limit_spectrum_csv_format(tmp_path):
    out = tmp_path / "c"
    code = run(["limit-spectrum", "--config", SCALAR, "--grid", "48,48",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = (out / "limit_sets.csv").read_text().splitlines()
    assert lines[0] == "set_label,r,re,im,aux"
    assert any(row.startswith("Sigma,") for row in lines[1:])


def test_limit_spectrum_boundary_has_outliers(tmp_path):
    out = tmp_path / "ls"
    code = run(["limit-spectrum", "--config", DEMO_BOUNDARY, "--out", str(out)])
    assert code == 0
    data = json.loads((out / "limit_sets.json").read_text())
    labels = {a["label"] for a in data["arcs"]}
    assert {"Sigma", "Lambda"} <= labels
    assert len(data["outliers"]) == 2


def test_finite_spectrum_fft_matches_dense(tmp_path):
    eigs = {}
    for method in ("dense", "fft"):
        out = tmp_path / method
        code = run(["finite-spectrum", "--config", SCALAR, "--N", "12",
                    "--method", method, "--out", str(out)])
        assert code == 0
        data = json.loads((out / "finite_spectrum.json").read_text())
        eigs[method] = np.array([complex(a, b)
                                 for a, b in data["eigenvalues"]])
    assert np.allclose(eigs["dense"], eigs["fft"], atol=1e-9)


def test_finite_spectrum_fft_needs_circulant(tmp_path):
    code = run(["finite-spectrum", "--config", DEMO_OPEN, "--method", "fft",
                "--out", str(tmp_path / "o")])
    assert code == 1


def test_finite_spectrum_csv(tmp_path):
    out = tmp_path / "f"
    code = run(["finite-spectrum", "--config", DEMO_H, "--format", "csv",
                "--N", "8", "--out", str(out)])
    assert code == 0
    lines = (out / "finite_spectrum.csv").read_text().splitlines()
    assert lines[0] == "re,im,label"
    assert len(lines) == 1 + 16   # N * L eigenvalues


def test_asymptotics_check_scalar(tmp_path):
    out = tmp_path / "a"
    code = run(["asymptotics-check", "--config", SCALAR, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "asymptotics_check.json").read_text())
    assert report["pass"] is True
    assert report["worst_deviation"] < 0.02


def test_asymptotics_check_refuses_degenerate_r(tmp_path):
    # the double eigenvalue of R makes the spectral data non-simple
    code = run(["asymptotics-check", "--config", DEMO_H,
                "--out", str(tmp_path / "o")])
    assert code == 2


def test_genericity_command(tmp_path):
    out = tmp_path / "g"
    code = run(["genericity", "--trials", "20", "--L", "2", "--seed", "3",
                "--out", str(out)])
    assert code == 0
    report = json.loads((out / "genericity.json").read_text())
    assert report["counts"]["nonzero"] + report["counts"]["zero"] \
        + report["counts"]["not_simple"] + report["counts"]["rank_mismatch"] == 20


def test_plot_data_series_files(tmp_path):
    out = tmp_path / "p"
    code = run(["plot-data", "--config", SCALAR, "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert "series_sigma_cloud.csv" in names
    assert "series_sigma.csv" in names
    assert "series_finite_N3.csv" in names
    assert "manifest.json" in names
    body = (out / "series_sigma.csv").read_text().splitlines()
    assert body[0] == "re,im,label"
    assert len(body) > 10


def test_plot_data_rejects_grid(tmp_path, capsys):
    # plot-data scans at the config grid; --grid is a usage error, not a
    # silently ignored flag
    out = tmp_path / "p"
    code = run(["plot-data", "--config", SCALAR, "--grid", "32,32",
                "--out", str(out)])
    assert code == 1
    assert "unrecognized arguments: --grid 32,32" in capsys.readouterr().err
    assert not out.exists()
