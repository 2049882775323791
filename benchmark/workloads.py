"""The benchmark's workloads: seeded model generation and the items of one
pass.

An item is one unit of work whose wall time the harness measures: one CLI
run, one ``compute_limit_sets`` call, one energy check or one oracle
comparison. ``work`` is the timed call into ``toeplimit``; ``collect`` turns
its return value into plain outputs for the checker and runs untimed.

Calls go through module attributes (``tl.limitsets.compute_limit_sets``, not
a name bound at import), so the tracer's wrappers see them.
"""
import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import toeplimit as tl
import toeplimit.cli

DEMO_CONFIGS = ("demo_boundary", "demo_H", "demo_circulant")
# 64 x 64 keeps a pass under 4 s on a 2-CPU x86_64 host, so a run times
# each config about ten times and its median filters the host's slow and
# fast spells.
DEMO_GRID = 64
WIDE_REGION = (-4.0, 4.0, -4.0, 4.0)
WIDE_GRID = 64
# wide_blocks models are scaled so their periodic spectrum reaches this
# modulus: every model's limit set then sits inside WIDE_REGION at a similar
# size, and the pass time varies less from seed to seed.
WIDE_RADIUS = 3.0
ORACLE_N = 40
ORACLE_ENERGIES = 13
# L and rank(A) of the oracle models; two of three are L=3, so the median
# energy-check time is an L=3 check rather than a mix of the two sizes. An
# energy check's cost depends on its model (winding_number refines
# adaptively), so twelve models with few energies each keep the median from
# following a single model's draw.
ORACLE_MODELS = ((2, 1), (3, 2), (3, 1)) * 4
DENSE_SIZES = (200, 400)
FFT_N = 200
GENERICITY_TRIALS = 100

# Failures that count against failed_frac instead of stopping the run.
ITEM_ERRORS = (tl.ToeplimitError, np.linalg.LinAlgError)


class ItemFailed(Exception):
    """An item finished without an exception but reported failure (a
    nonzero CLI exit code or a failed oracle)."""


@dataclass
class Item:
    id: str
    kind: str                      # limit | energy | fft | dense | genericity
    work: Callable[[], Any]
    collect: Callable[[Any], Dict] = lambda out: out
    model: Dict = field(default_factory=dict)   # matrices for the checker


@dataclass
class Workload:
    name: str
    seed: int
    items: List[Item]
    setup_failures: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# seeded model generator


def gaussian(rng: np.random.Generator, L: int) -> np.ndarray:
    """L x L complex Gaussian block with unit-variance entries."""
    return (rng.standard_normal((L, L))
            + 1j * rng.standard_normal((L, L))) / np.sqrt(2)


def exact_rank(rng: np.random.Generator, L: int, r: int) -> np.ndarray:
    """L x L product of Gaussian L x r and r x L factors: rank r almost
    surely."""
    return gaussian(rng, max(L, r))[:L, :r] @ gaussian(rng, max(L, r))[:r, :L]


def model_rng(workload: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(workload.encode()[:8], "little")
    return np.random.default_rng([seed, tag])


def draw_model(rng: np.random.Generator, L: int, corner: str,
               rank_a: int = 0) -> Dict[str, np.ndarray]:
    """Gaussian bulk blocks (R, T, V) and corners of the requested kind:
    ``boundary`` (A = B = 0, Gaussian C) or ``perturbed`` (rank_a A,
    Gaussian B and C). No draw is rejected."""
    m = {"R": gaussian(rng, L), "T": gaussian(rng, L), "V": gaussian(rng, L)}
    if corner == "boundary":
        m["A"] = m["B"] = np.zeros((L, L), dtype=np.complex128)
    else:
        m["A"] = exact_rank(rng, L, rank_a)
        m["B"] = gaussian(rng, L)
    m["C"] = gaussian(rng, L)
    return m


def scale_to_radius(model: Dict[str, np.ndarray],
                    radius: float) -> Dict[str, np.ndarray]:
    """All six blocks times one factor, chosen so that the symbol
    eigenvalues on the unit circle reach ``radius`` in modulus; the whole
    spectrum scales by that factor."""
    z = np.exp(2j * np.pi * np.arange(256) / 256)[:, None, None]
    symbol = model["R"] / z + model["V"] + model["T"] * z
    factor = radius / np.max(np.abs(np.linalg.eigvals(symbol)))
    return {k: factor * v for k, v in model.items()}


def triples(model: Dict[str, np.ndarray]):
    coeffs = tl.CoefficientTriple(model["R"], model["T"], model["V"])
    boundary = tl.BoundaryTriple(model["A"], model["B"], model["C"])
    return coeffs, boundary


# ---------------------------------------------------------------------------
# workloads


def _limit_outputs(result_json: Dict) -> Dict:
    return {"arcs": result_json["arcs"], "outliers": result_json["outliers"],
            "h": result_json["metadata"]["h"]}


def demo_cli(seed: int, root: str, scratch: str,
             grid: int = DEMO_GRID) -> Workload:
    """The shipped L=2 demo configs through ``cli.run_command``, each at a
    grid x grid scan of its own region. The seed only orders the items."""
    items = []
    for name in DEMO_CONFIGS:
        path = os.path.join(root, "src", "toeplimit", "configs", name + ".json")
        with open(path) as fh:
            cfg = tl.cli.config_from_dict(json.load(fh))
        model = {k: getattr(cfg, k) for k in "RTVABC"}
        triples(model)   # set-up builds the triples once, as the CLI does
        model["region"] = cfg.region

        def work(path=path):
            out = tempfile.mkdtemp(dir=scratch)
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = tl.cli.run_command(
                    ["limit-spectrum", "--config", path, "--out", out,
                     "--grid", f"{grid},{grid}"])
            return rc, out, sink.getvalue()

        def collect(ret):
            rc, out, log = ret
            try:
                if rc != 0:
                    raise ItemFailed(f"exit code {rc}: {log.strip()}")
                with open(os.path.join(out, "limit_sets.json")) as fh:
                    return _limit_outputs(json.load(fh))
            finally:
                shutil.rmtree(out, ignore_errors=True)

        items.append(Item(name, "limit", work, collect, model))
    order = np.random.default_rng(seed).permutation(len(items))
    return Workload("demo_cli", seed, [items[i] for i in order])


WIDE_MODELS = (("L3_rank1", 3, "perturbed", 1), ("L4_boundary", 4, "boundary", 0))


def wide_blocks(seed: int, grid: int = WIDE_GRID) -> Workload:
    """One L=3 model with rank(A)=1 and one L=4 model with a boundary C,
    scaled to WIDE_RADIUS, each through ``compute_limit_sets`` on
    WIDE_REGION."""
    rng = model_rng("wide_blocks", seed)
    items, failures = [], []
    for name, L, corner, rank_a in WIDE_MODELS:
        model = scale_to_radius(draw_model(rng, L, corner, rank_a),
                                WIDE_RADIUS)
        model["region"] = WIDE_REGION
        try:
            coeffs, boundary = triples(model)
        except ITEM_ERRORS as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue

        def work(coeffs=coeffs, boundary=boundary):
            return tl.limitsets.compute_limit_sets(
                coeffs, boundary, tl.Region(*WIDE_REGION), grid, grid,
                workers=os.cpu_count())

        items.append(Item(name, "limit", work,
                          lambda res: _limit_outputs(res.to_json_dict()),
                          model))
    return Workload("wide_blocks", seed, items, failures)


def _pair(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


def oracle_checks(seed: int, energies: int = ORACLE_ENERGIES,
                  dense_sizes=DENSE_SIZES, fft_n: int = FFT_N,
                  trials: int = GENERICITY_TRIALS) -> Workload:
    """Determinant routes, winding numbers, FFT against dense, dense finite
    spectra and the genericity draw; no limit-set extraction."""
    rng = model_rng("oracle_checks", seed)
    items, failures = [], []
    for k, (L, rank_a) in enumerate(ORACLE_MODELS):
        model = draw_model(rng, L, "perturbed", rank_a)
        Es = (rng.standard_normal(energies)
              + 1j * rng.standard_normal(energies)) * 2.0
        try:
            coeffs, perturbed = triples(model)
            open_bd = tl.BoundaryTriple.boundary(model["C"])
        except ITEM_ERRORS as exc:
            failures.append(f"model{k}: {type(exc).__name__}: {exc}")
            continue
        for i, E in enumerate(Es):
            E = complex(E)

            def work(coeffs=coeffs, open_bd=open_bd, perturbed=perturbed, E=E):
                return {
                    "direct_open": _pair(tl.operators.charpoly_direct(
                        coeffs, open_bd, ORACLE_N, E)),
                    "widom_open": _pair(tl.widom.widom_sum_open(
                        coeffs, open_bd.C, ORACLE_N, E).total),
                    "direct_perturbed": _pair(tl.operators.charpoly_direct(
                        coeffs, perturbed, ORACLE_N, E)),
                    "widom_perturbed": _pair(tl.widom.widom_sum_perturbed(
                        coeffs, perturbed, ORACLE_N, E).total),
                    "winding": tl.operators.winding_number(coeffs, E),
                }

            items.append(Item(f"model{k}/E{i}", "energy", work,
                              model=dict(model, E=E, N=ORACLE_N)))

    model = draw_model(rng, 2, "boundary")
    try:
        coeffs, boundary = triples(model)
    except ITEM_ERRORS as exc:
        failures.append(f"dense model: {type(exc).__name__}: {exc}")
    else:
        circulant = tl.BoundaryTriple.circulant(coeffs)

        def fft_work():
            return {"fft": tl.operators.circulant_spectrum_fft(coeffs, fft_n),
                    "dense": tl.operators.finite_spectrum(
                        tl.operators.assemble_operator(coeffs, circulant,
                                                       fft_n))}

        items.append(Item(f"fft_N{fft_n}", "fft", fft_work,
                          model=dict(model, N=fft_n)))
        for N in dense_sizes:
            def dense_work(N=N):
                return {"eigs": tl.operators.finite_spectrum(
                    tl.operators.assemble_operator(coeffs, boundary, N))}

            items.append(Item(f"dense_N{N}", "dense", dense_work,
                              model=dict(model, N=N)))

    def genericity_work():
        return tl.asymptotics.genericity_check(trials, L=2, seed=seed)

    def genericity_collect(report):
        if report.nonzero_fraction != 1.0:
            raise ItemFailed(f"nonzero fraction {report.nonzero_fraction}")
        return report.to_dict()

    items.append(Item("genericity_L2", "genericity", genericity_work,
                      genericity_collect))
    # Shuffled, the short energy checks are spread between the long items,
    # so their times sample the whole pass, not one stretch of it.
    order = np.random.default_rng(seed).permutation(len(items))
    return Workload("oracle_checks", seed, [items[i] for i in order], failures)


def build(name: str, seed: int, root: str, scratch: str) -> Workload:
    if name == "demo_cli":
        return demo_cli(seed, root, scratch)
    if name == "wide_blocks":
        return wide_blocks(seed)
    if name == "oracle_checks":
        return oracle_checks(seed)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class ItemRun:
    id: str
    seconds: float
    output: Optional[Dict]
    error: Optional[str]


def run_item(item: Item, clock) -> ItemRun:
    """Time ``item.work``; failures listed in ITEM_ERRORS or reported by
    ``collect`` are recorded, anything else propagates."""
    t0 = clock()
    try:
        ret = item.work()
    except ITEM_ERRORS as exc:
        return ItemRun(item.id, clock() - t0, None,
                       f"{type(exc).__name__}: {exc}")
    seconds = clock() - t0
    try:
        return ItemRun(item.id, seconds, item.collect(ret), None)
    except (ItemFailed,) + ITEM_ERRORS as exc:
        return ItemRun(item.id, seconds, None, f"{type(exc).__name__}: {exc}")
