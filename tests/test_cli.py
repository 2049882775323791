import argparse
import hashlib
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


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def retagged(tmp_path, path, **changes):
    """A copy of the config at path with top-level keys replaced."""
    data = json.loads(open(path).read())
    data.update(changes)
    copy = tmp_path / ("retagged_" + os.path.basename(path))
    copy.write_text(json.dumps(data))
    return str(copy)


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


def test_verify_widom_reads_config_tolerances(tmp_path, capsys):
    # a degeneracy tolerance of 10 makes every energy degenerate, as it does
    # for the limit-spectrum scan
    config = retagged(tmp_path, DEMO_H, tolerances={"degeneracy": 10})
    code = run(["verify-widom", "--config", config, "--E", "0.4,0.3",
                "--N", "6", "--out", str(tmp_path / "w")])
    assert code == 2
    assert "DegenerateSplit" in capsys.readouterr().err


def test_negative_values_take_the_equals_form(tmp_path):
    out = tmp_path / "w"
    code = run(["verify-widom", "--config", DEMO_H, "--E=-0.4,0.3", "--N", "6",
                "--out", str(out)])
    assert code == 0
    assert json.loads((out / "widom_verify.json").read_text())["E"] == [
        -0.4, 0.3]


OPTIONS = {
    "limit-spectrum": {"--config", "--out", "--format", "--workers", "--r",
                       "--grid", "--region"},
    "finite-spectrum": {"--config", "--out", "--format", "--N", "--method"},
    "verify-widom": {"--config", "--out", "--N", "--E"},
    "asymptotics-check": {"--config", "--out", "--magnitude", "--tolerance"},
    "genericity": {"--out", "--trials", "--L", "--seed"},
    "plot-data": {"--config", "--out", "--workers", "--N", "--r"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {name: {flag for action in p._actions
                       if not isinstance(action, argparse._HelpAction)
                       for flag in action.option_strings}
                for name, p in sub.choices.items()}
    assert declared == OPTIONS
    assert sum(len(flags) for flags in declared.values()) == 29


REMOVED = ([(c, "--format", "json") for c in
            ("verify-widom", "asymptotics-check", "genericity", "plot-data")]
           + [(c, "--workers", "2") for c in
              ("finite-spectrum", "verify-widom", "asymptotics-check",
               "genericity")])


@pytest.mark.parametrize("command,flag,value", REMOVED)
def test_removed_option_is_a_usage_error(tmp_path, capsys, command, flag,
                                         value):
    out = tmp_path / "o"
    config = [] if command == "genericity" else ["--config", SCALAR]
    code = run([command, *config, flag, value, "--out", str(out)])
    assert code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


OUT_OF_RANGE = {
    "grid": ["limit-spectrum", "--config", DEMO_H, "--grid", "8,8"],
    "region": ["limit-spectrum", "--config", DEMO_H, "--region=1,0,0,1"],
    "rank": ["limit-spectrum", "--config", DEMO_H, "--r", "5"],
    "finite-N": ["finite-spectrum", "--config", DEMO_H, "--N", "2"],
    "widom-N": ["verify-widom", "--config", DEMO_H, "--N", "2"],
    "plot-N": ["plot-data", "--config", DEMO_H, "--N", "2"],
    "trials": ["genericity", "--trials", "0"],
    "L": ["genericity", "--L", "0"],
    "workers": ["limit-spectrum", "--config", DEMO_H, "--workers", "0"],
    "plot-workers": ["plot-data", "--config", DEMO_H, "--workers=-2"],
    # |E| = 0 divided by zero in the ratio test and exited 2 with a report
    "magnitude": ["asymptotics-check", "--config", SCALAR, "--magnitude", "0"],
    "magnitude-sign": ["asymptotics-check", "--config", SCALAR,
                       "--magnitude=-1e4"],
    "magnitude-inf": ["asymptotics-check", "--config", SCALAR,
                      "--magnitude", "inf"],
    "tolerance": ["asymptotics-check", "--config", SCALAR,
                  "--tolerance=-0.1"],
    "tolerance-nan": ["asymptotics-check", "--config", SCALAR,
                      "--tolerance", "nan"],
}


@pytest.mark.parametrize("argv", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_out_of_range_value_fails_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("command,config", [
    ("limit-spectrum", DEMO_BOUNDARY), ("plot-data", DEMO_OPEN),
    ("limit-spectrum", os.path.join(CONFIG_DIR, "demo_circulant.json"))])
def test_r_is_refused_where_the_run_would_not_read_it(tmp_path, capsys,
                                                       command, config):
    out = tmp_path / "o"
    assert run([command, "--config", config, "--r", "0",
                "--out", str(out)]) == 1
    assert "config error: --r 0" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_config_is_the_config_that_ran(tmp_path):
    out = tmp_path / "ls"
    assert run(["limit-spectrum", "--config", DEMO_BOUNDARY, "--grid", "32,32",
                "--region=-2,2,-2,2", "--out", str(out)]) == 0
    config = manifest(out)["config"]
    meta = json.loads((out / "limit_sets.json").read_text())["metadata"]
    ran = (meta["nx"], meta["ny"], meta["region"])
    assert ran == (32, 32, [-2.0, 2.0, -2.0, 2.0])
    assert (config["nx"], config["ny"], config["region"]) == ran
    for command, payload in (("verify-widom", "widom_verify.json"),
                             ("finite-spectrum", "finite_spectrum.json")):
        out = tmp_path / command
        assert run([command, "--config", DEMO_BOUNDARY, "--N", "6",
                    "--out", str(out)]) == 0
        assert json.loads((out / payload).read_text())["N"] == 6
        assert manifest(out)["config"]["N"] == 6
    out = tmp_path / "p"
    assert run(["plot-data", "--config", SCALAR, "--N", "7",
                "--out", str(out)]) == 0
    assert (out / "series_finite_N7.csv").exists()
    assert manifest(out)["config"]["N"] == 7


def test_asymptotics_check_prints_config_warnings(tmp_path, capsys):
    config = retagged(tmp_path, SCALAR, case="open")
    assert run(["asymptotics-check", "--config", config,
                "--out", str(tmp_path / "a")]) == 0
    assert ("warning: case tag 'open' does not match the matrices "
            "(found 'circulant')") in capsys.readouterr().err


def test_case_comes_from_the_matrices_not_the_tag(tmp_path, capsys):
    argv = ["limit-spectrum", "--grid", "32,32"]
    mistagged = retagged(tmp_path, DEMO_BOUNDARY, case="circulant")
    assert run(argv + ["--config", mistagged,
                       "--out", str(tmp_path / "tag")]) == 0
    assert "does not match" in capsys.readouterr().err
    assert run(argv + ["--config", DEMO_BOUNDARY,
                       "--out", str(tmp_path / "ok")]) == 0
    payload = (tmp_path / "tag" / "limit_sets.json").read_bytes()
    assert payload == (tmp_path / "ok" / "limit_sets.json").read_bytes()
    assert {a["label"] for a in json.loads(payload)["arcs"]} >= {
        "Sigma", "Lambda"}


SMALL_RUNS = {
    "limit-spectrum": ["--config", DEMO_BOUNDARY, "--grid", "32,32"],
    "finite-spectrum": ["--config", DEMO_H, "--N", "8", "--format", "csv"],
    "verify-widom": ["--config", DEMO_H, "--E", "0.4,0.3", "--N", "6"],
    "asymptotics-check": ["--config", SCALAR],
    "genericity": ["--trials", "5"],
    "plot-data": ["--config", SCALAR],
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_manifest_checksums_match_the_written_files(tmp_path, command):
    out = tmp_path / "o"
    assert run([command, *SMALL_RUNS[command], "--out", str(out)]) == 0
    artifacts = manifest(out)["artifacts"]
    assert sorted(os.listdir(out)) == sorted(
        [e["path"] for e in artifacts] + ["manifest.json"])
    for e in artifacts:
        data = (out / e["path"]).read_bytes()
        assert e["checksum"] == hashlib.sha256(data).hexdigest()
