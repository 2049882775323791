import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_model
from toeplimit import cli
from toeplimit.asymptotics import rt_spectral_data
from toeplimit.errors import BadConfig, NotSimpleSpectrum
from toeplimit.limitsets import STAGES
from toeplimit.numkernel import DEGENERACY_TOL
from toeplimit.transfer import TIE_TOL
from toeplimit.widom import WidomSum, index_sets

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


@pytest.mark.parametrize("config", ["demo_H", "demo_open", "demo_circulant"])
def test_verify_widom_passes_past_the_double_range(tmp_path, config):
    # at N = 300, Z_I^N and det(H_N - E) are past 1e300: every route is
    # compared in logs
    out = tmp_path / "w"
    code = run(["verify-widom", "--config",
                os.path.join(CONFIG_DIR, f"{config}.json"), "--E=2.5,2.5",
                "--N", "300", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "widom_verify.json").read_text())
    assert report["log_direct"][0] > 700
    assert report["routes"] and report["pass"] is True
    for route in report["routes"].values():
        assert set(route) == {"log_value", "rel_error", "pass"}
        assert route["pass"] is True and route["rel_error"] <= 1e-8


def strict_json(text):
    """The payload parsed as strict JSON: Infinity, -Infinity or NaN
    raise."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_verify_widom_at_a_singular_energy(tmp_path, monkeypatch):
    # E = 0 is an eigenvalue of the scalar circulant H_4 and H_8: the dense
    # determinant is exactly 0, so the rule is |value| <= 1e-8, and the
    # payload holds null where a log or a relative error is not finite
    for N in ("4", "8"):
        out = tmp_path / f"w{N}"
        code = run(["verify-widom", "--config", SCALAR, "--E=0", "--N", N,
                    "--out", str(out)])
        assert code == 0
        report = strict_json((out / "widom_verify.json").read_text())
        assert report["log_direct"] == [None, 0.0]
        assert set(report["routes"]) == {"circulant_formula", "perturbed_sum"}
        for route in report["routes"].values():
            assert route["rel_error"] is None and route["pass"] is True
            assert route["log_value"][0] <= np.log(1e-8)
    # a route that misses the zero determinant, here with log 0, fails
    monkeypatch.setattr(cli, "widom_sum_perturbed",
                        lambda coeffs, boundary, N, E: WidomSum(E, N, 0j))
    out = tmp_path / "missed"
    code = run(["verify-widom", "--config", SCALAR, "--E=0", "--N", "4",
                "--out", str(out)])
    assert code == 2
    report = strict_json((out / "widom_verify.json").read_text())
    assert report["routes"]["perturbed_sum"] == {
        "log_value": [0.0, 0.0], "rel_error": None, "pass": False}
    assert report["routes"]["circulant_formula"]["pass"] is True
    assert report["pass"] is False


def test_limit_sets_refuse_a_custom_corner(tmp_path, capsys):
    # a singular B with A or B nonzero has no B^{-1}: no limit sets are
    # defined, and the run stops before the scan
    custom = retagged(tmp_path, SCALAR, A=[[1]], B=[[0]], case="custom")
    for command in ("limit-spectrum", "plot-data"):
        out = tmp_path / command
        assert run([command, "--config", custom, "--out", str(out)]) == 1
        assert ("config error: no limit sets for case 'custom'"
                in capsys.readouterr().err)
        assert not out.exists()


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


def test_limit_spectrum_scans_with_config_tolerances(tmp_path, capsys):
    # the degeneracy and tie tolerances are fixed constants: the scan records
    # them, and a config value the run would ignore must not look used
    out = tmp_path / "t"
    code = run(["limit-spectrum", "--config", SCALAR, "--grid", "32,32",
                "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "limit_sets.json").read_text())["metadata"]
    assert meta["tie_tol"] == TIE_TOL
    assert meta["degeneracy_tol"] == DEGENERACY_TOL
    config = retagged(tmp_path, SCALAR,
                      tolerances={"tie": 0.5, "degeneracy": 1e-3})
    out = tmp_path / "refused"
    code = run(["limit-spectrum", "--config", config, "--grid", "32,32",
                "--out", str(out)])
    assert code == 1
    assert "config error: tolerances" in capsys.readouterr().err
    assert not out.exists()


def test_verify_widom_reads_config_tolerances(tmp_path, capsys):
    # verify-widom refuses a config naming tolerances; the fixed degeneracy
    # tolerance still flags a spectrum that is degenerate: two identical
    # decoupled channels make every transfer eigenvalue double
    config = retagged(tmp_path, DEMO_H, tolerances={"degeneracy": 10})
    out = tmp_path / "refused"
    code = run(["verify-widom", "--config", config, "--E", "0.4,0.3",
                "--N", "6", "--out", str(out)])
    assert code == 1
    assert "config error: tolerances" in capsys.readouterr().err
    assert not out.exists()
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    twin = retagged(tmp_path, DEMO_H, R=eye, T=eye, V=zero)
    code = run(["verify-widom", "--config", twin, "--E", "0.3,0",
                "--N", "6", "--out", str(tmp_path / "w")])
    assert code == 2
    assert "DegenerateSplit" in capsys.readouterr().err


MALFORMED = {
    "L-text": {"L": "x"},
    "L-bool": {"L": True},
    "N-list": {"N": [5]},
    "seed-bool": {"seed": True},
    "seed-text": {"seed": "s"},
    "region-text": {"region": [0, 1, "a", 2]},
    "region-bool": {"region": [0, True, -1, 1]},
    "region-scalar": {"region": 5},
    "R-bool": {"R": [[True]]},
    "R-pair-bool": {"R": [[[1, False]]]},
    "R-flat": {"R": [1]},
    "V-huge": {"V": [[10 ** 400]]},
    "N-fraction": {"N": 5.9},
    "nx-fraction": {"nx": 64.7},
    "ny-fraction": {"ny": 32.5},
    "L-fraction": {"L": 1.5},
    "seed-fraction": {"seed": 0.25},
    "seed-negative": {"seed": -3},
    "N-numeric-text": {"N": "7"},
    "nx-numeric-text": {"nx": "32"},
    "region-numeric-text": {"region": [0, 1, "-1", 2]},
}


@pytest.mark.parametrize("changes", MALFORMED.values(), ids=MALFORMED)
def test_malformed_config_value_is_a_config_error(tmp_path, capsys, changes):
    config = retagged(tmp_path, SCALAR, **changes)
    out = tmp_path / "o"
    assert run(["limit-spectrum", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


def test_integral_float_config_value_is_an_integer(tmp_path):
    config = retagged(tmp_path, SCALAR, N=6.0, nx=32.0, ny=32, seed=3.0)
    cfg = cli.load_config(config)
    assert (cfg.N, cfg.nx, cfg.ny, cfg.seed) == (6, 32, 32, 3)
    assert all(type(v) is int for v in (cfg.L, cfg.N, cfg.nx, cfg.ny, cfg.seed))
    out = tmp_path / "o"
    assert run(["limit-spectrum", "--config", config, "--out", str(out)]) == 0
    recorded = manifest(out)["config"]
    assert [recorded[k] for k in ("N", "nx", "ny", "seed")] == [6, 32, 32, 3]


@pytest.mark.parametrize("command", [["limit-spectrum"],
                                     ["verify-widom", "--E", "0.4,0.3"]])
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, command):
    config = retagged(tmp_path, SCALAR, regoin=[0, 1, 0, 1])
    out = tmp_path / "o"
    assert run(command + ["--config", config, "--out", str(out)]) == 1
    assert "config error: unknown config key: 'regoin'" in (
        capsys.readouterr().err)
    assert not out.exists()
    # every shipped config uses only the known keys
    for name in os.listdir(CONFIG_DIR):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            assert set(json.load(fh)) <= set(cli.CONFIG_KEYS), name


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


def test_asymptotics_check_skips_coefficients_at_coeff_tol(tmp_path,
                                                          monkeypatch):
    # the scalar model's leading coefficients are 0 and +-1; like
    # genericity, the check counts one at or below COEFF_TOL as zero
    def rows(name):
        out = tmp_path / name
        assert run(["asymptotics-check", "--config", SCALAR,
                    "--out", str(out)]) == 0
        return json.loads((out / "asymptotics_check.json").read_text())[
            "per_set"]

    assert len(rows("default")) == 5
    monkeypatch.setattr(cli, "COEFF_TOL", 1.0)
    assert rows("at_one") == []


def model_config(tmp_path, name, L, case, R, T, V, A, B, C):
    """Write a config of the given blocks under tmp_path; return its path."""
    cfg = cli.ModelConfig(L, 20, *(np.asarray(m, dtype=complex)
                                   for m in (R, T, V, A, B, C)), case)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


@pytest.mark.parametrize("L, case, seed", [(2, "boundary", 5),
                                           (2, "perturbed", 6),
                                           (3, "boundary", 7),
                                           (3, "perturbed", 8)])
def test_asymptotics_check_at_larger_blocks(tmp_path, L, case, seed):
    # seeded Gaussian blocks with simple R, T spectra; a perturbed corner
    # has rank A = L - 1, so sets past L + rank A, and sets with more R
    # members than rank A, have leading coefficient 0 and no row
    rng = np.random.default_rng(seed)
    while True:
        co, bd = random_model(rng, L, L - 1)
        try:
            rt_spectral_data(co.R, co.T)
        except NotSimpleSpectrum:
            continue
        break
    A, B = (bd.A, bd.B) if case == "perturbed" else (np.zeros((L, L)),) * 2
    path = model_config(tmp_path, f"L{L}_{case}", L, case, co.R, co.T, co.V,
                        A, B, bd.C)
    out = tmp_path / "a"
    assert run(["asymptotics-check", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "asymptotics_check.json").read_text())
    assert report["pass"] is True
    rows = {kind: [row["I"] for row in report["per_set"] if row["kind"] == kind]
            for kind in ("q_hat", "q")}
    assert rows["q_hat"] == [list(I) for I in index_sets(2 * L, [L])]
    if case == "perturbed":
        assert rows["q"] == [list(I) for I in index_sets(2 * L, range(2 * L))
                             if sum(i < L for i in I) < L]
    else:
        assert rows["q"] == []


def test_asymptotics_check_keeps_decaying_branches_in_modulus_order(
        tmp_path):
    # the decaying branches |r_i|/|E| of this model differ by 5e-8 at
    # |E| = 1e4; a tie test in absolute terms reordered them by argument,
    # and the ratio of q to its leading term read 0.9998 off
    path = model_config(tmp_path, "tie", 2, "perturbed",
                        np.diag([1.9j, 1.905]), np.diag([3.0, 2.0]),
                        [[0.0, 0.5], [0.5, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
                        [[1.0, 0.2], [0.0, 1.0]], np.diag([0.3, -0.2]))
    out = tmp_path / "a"
    assert run(["asymptotics-check", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "asymptotics_check.json").read_text())
    assert report["worst_deviation"] < 0.01
    assert {row["kind"] for row in report["per_set"]} == {"q_hat", "q"}


def tail_model_config(tmp_path):
    """A seeded L = 3 perturbed model with rank A = 2 and simple R, T whose
    q over (0, 2) and (0, 2, 3) have large O(1/E) terms: their deviations
    read 0.205 and 0.031 at |E| = 1e4, and a tenth of that at 1e5."""
    co, bd = random_model(np.random.default_rng(46), 3, 2)
    return model_config(tmp_path, "tail", 3, "perturbed", co.R, co.T, co.V,
                        bd.A, bd.B, bd.C)


def test_asymptotics_check_passes_an_o1e_tail(tmp_path):
    out = tmp_path / "a"
    path = tail_model_config(tmp_path)
    assert run(["asymptotics-check", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "asymptotics_check.json").read_text())
    assert report["pass"] is True
    assert report["worst_deviation"] > report["tolerance"]
    tails = [row for row in report["per_set"] if row["deviation"] > 0.02]
    assert [(row["kind"], row["I"]) for row in tails] == [("q", [0, 2]),
                                                          ("q", [0, 2, 3])]
    for row in tails:
        assert row["deviation_at_10E"] == pytest.approx(row["deviation"] / 10,
                                                        rel=0.01)


@pytest.mark.parametrize("kernel", ["q_hat_leading", "q_leading"])
def test_asymptotics_check_fails_a_wrong_leading_coefficient(
        tmp_path, monkeypatch, kernel):
    # 3% off in every coefficient: the deviation stays 0.03 over the decade
    right = getattr(cli, kernel)

    def wrong(*args):
        coeffs, expos = right(*args)
        return coeffs * 1.03, expos

    monkeypatch.setattr(cli, kernel, wrong)
    out = tmp_path / "a"
    path = tail_model_config(tmp_path)
    assert run(["asymptotics-check", "--config", path, "--out", str(out)]) == 2
    report = json.loads((out / "asymptotics_check.json").read_text())
    kind = "q_hat" if kernel == "q_hat_leading" else "q"
    # a set of the wrong kernel fails both ways: above the tolerance, and
    # falling by less than 5x over the decade
    assert [row for row in report["per_set"] if row["kind"] == kind
            and row["deviation"] > report["tolerance"]
            and row["deviation_at_10E"] > row["deviation"] / 5]


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
    # a non-finite energy reached as_cmatrix and ended in a traceback
    "E-nan": ["verify-widom", "--config", SCALAR, "--E", "nan"],
    "E-inf": ["verify-widom", "--config", SCALAR, "--E=inf,0"],
    # numpy's SeedSequence refused it with a traceback
    "seed": ["genericity", "--seed", "-1"],
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


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, toeplimit.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"
