"""Tests of the benchmark itself, on shrunken workloads.

    PYTHONPATH=src python -m pytest -q benchmark/test_harness.py
"""
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import toeplimit as tl  # noqa: E402
import toeplimit.cli  # noqa: E402,F401
import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_oracle(seed=3):
    return workloads.oracle_checks(seed, energies=2, dense_sizes=(12,),
                                   fft_n=8, trials=2)


def small_limit(tmp_path, seed=3):
    demo = workloads.demo_cli(seed, ROOT, str(tmp_path), grid=20)
    wide = workloads.wide_blocks(seed, grid=20)
    return workloads.Workload("small", seed, demo.items + wide.items)


def module_bindings():
    """Identity of every attribute of every toeplimit module, plus the
    ArtifactWriter methods the tracer wraps on the class."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "toeplimit" or name.startswith("toeplimit."):
            for key, value in vars(mod).items():
                out[(name, key)] = id(value)
    for key, value in vars(tl.cli.ArtifactWriter).items():
        out[("ArtifactWriter", key)] = id(value)
    return out


def test_two_passes_give_identical_fingerprints(tmp_path):
    for workload in (small_limit(tmp_path), small_oracle()):
        _, first = harness.run_pass(workload)
        _, second = harness.run_pass(workload)
        assert all(r.error is None for r in first)
        assert harness.fingerprint(first) == harness.fingerprint(second)


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, b, c = (workloads.wide_blocks(s, grid=20) for s in (5, 5, 6))
    for x, y, z in zip(a.items, b.items, c.items):
        assert np.array_equal(x.model["V"], y.model["V"])
        assert not np.array_equal(x.model["V"], z.model["V"])


def test_exact_rank_corner():
    model = workloads.wide_blocks(0, grid=20).items[0].model
    assert np.linalg.matrix_rank(model["A"]) == 1


def test_wrappers_restore_module_attributes(tmp_path):
    before = module_bindings()
    tracer = Tracer()
    original = tl.limitsets.transfer_matrix
    with tracer.installed():
        assert tl.limitsets.transfer_matrix is not original
        assert tl.transfer.transfer_matrix is not original
        harness.run_pass(small_limit(tmp_path), tracer)
    assert module_bindings() == before
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert module_bindings() == before
    names = tracer.span_names()
    for name in ("limitsets.sigma_r", "limitsets.scan_grid",
                 "transfer.transfer_matrix", "numkernel.inverse",
                 "cli.load_config", "cli.artifact_write"):
        assert name in names
    layers = tracer.layer_metrics(1)
    assert layers["limitsets.arcs.points"] > 0
    assert layers["cli.artifact.bytes"] > 0


def test_oracle_workload_makes_no_limitsets_span():
    tracer = Tracer()
    with tracer.installed():
        harness.run_pass(small_oracle(), tracer)
    names = tracer.span_names()
    assert "widom.widom_sum_perturbed" in names
    assert not [n for n in names if n.startswith("limitsets.")]


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    # outer spans ticks 0..5 and its children cover 1..2 and 3..4
    own = tracer.self_times()
    self_s = {s.name: 0.0 for s in tracer.spans}
    for span in tracer.spans:
        self_s[span.name] += own[span.id]
    assert self_s == {"inner": 2.0, "outer": 3.0}


def test_forced_failing_item_raises_failed_frac(tmp_path):
    workload = small_oracle()
    ok_attempted, ok_failed = harness._failed(
        workload, [harness.run_pass(workload)[1]])
    assert ok_failed == 0

    def singular():
        raise tl.SingularMatrix("forced")

    def bad_cli():
        return tl.cli.run_command(["limit-spectrum", "--config",
                                   str(tmp_path / "missing.json"),
                                   "--out", str(tmp_path)])

    def exit_code(rc):
        if rc != 0:
            raise workloads.ItemFailed(f"exit code {rc}")
        return {}

    workload.items += [workloads.Item("forced", "energy", singular),
                       workloads.Item("bad_cli", "limit", bad_cli, exit_code)]
    walls, pass_runs = harness.measure(workload, seconds=0, minimum=1)
    attempted, failed = harness._failed(workload, pass_runs)
    assert attempted == ok_attempted + 2
    assert failed == 2
