"""Batch front-end: model configs in JSON, subcommand dispatch, artifact
output with a checksummed manifest.

Complex scalars are serialized as [re, im] pairs and matrices as nested row
arrays, so configs stay language-neutral and diffable.
"""
import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import numkernel as nk
from .asymptotics import (genericity_check, q_hat_leading, q_leading,
                          rt_spectral_data)
from .errors import BadConfig, ToeplimitError
from .limitsets import Region, check_rank, compute_limit_sets
from .operators import (BoundaryTriple, CoefficientTriple, assemble_operator,
                        charpoly_direct, circulant_spectrum_fft,
                        finite_spectrum)
from .transfer import DEGENERACY_TOL, TIE_TOL, ordered_spectrum
from .widom import (charpoly_circulant, index_sets, q_hat, q_perturbed,
                    widom_sum_open, widom_sum_perturbed)

CASES = ("circulant", "open", "boundary", "perturbed", "custom")
SKIN_EFFECT_N = 100
SKIN_EFFECT_NOTE = (
    "note: N > {n} with a non-normal model; dense finite-N eigenvalues can "
    "deviate from the limit sets through boundary localization (skin "
    "effect). This is a property of finite sections, not an error.")


# ---------------------------------------------------------------------------
# config serialization


def _encode_complex(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


def _decode_complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(x, (int, float)) for x in obj)):
        return complex(obj[0], obj[1])
    raise BadConfig(f"expected number or [re, im] pair, got {obj!r}")


def _encode_matrix(m: np.ndarray) -> List[List[List[float]]]:
    return [[_encode_complex(x) for x in row] for row in np.asarray(m)]


def _decode_matrix(obj, name: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise BadConfig(f"{name}: expected a nested row array")
    try:
        return nk.as_cmatrix([[_decode_complex(x) for x in row] for row in obj])
    except (ValueError, BadConfig) as exc:
        raise BadConfig(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class ModelConfig:
    L: int
    N: int
    R: np.ndarray
    T: np.ndarray
    V: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    case: str
    region: Tuple[float, float, float, float] = (-3.0, 3.0, -3.0, 3.0)
    nx: int = 128
    ny: int = 128
    degeneracy_tol: float = DEGENERACY_TOL
    tie_tol: float = TIE_TOL
    seed: int = 0
    warnings: List[str] = field(default_factory=list)

    # built once (the triples invert R, T and B); frozen, so never stale
    @cached_property
    def coeffs(self) -> CoefficientTriple:
        return CoefficientTriple(self.R, self.T, self.V)

    @cached_property
    def boundary(self) -> BoundaryTriple:
        return BoundaryTriple(self.A, self.B, self.C)

    def to_dict(self) -> Dict:
        return {
            "L": self.L, "N": self.N,
            "R": _encode_matrix(self.R), "T": _encode_matrix(self.T),
            "V": _encode_matrix(self.V), "A": _encode_matrix(self.A),
            "B": _encode_matrix(self.B), "C": _encode_matrix(self.C),
            "case": self.case,
            "region": list(self.region), "nx": self.nx, "ny": self.ny,
            "tolerances": {
                "degeneracy": self.degeneracy_tol, "tie": self.tie_tol,
            },
            "seed": self.seed,
        }


def config_from_dict(data: Dict) -> ModelConfig:
    if not isinstance(data, dict):
        raise BadConfig("config root must be a JSON object")
    for key in ("L", "N", "R", "T", "V", "case"):
        if key not in data:
            raise BadConfig(f"missing config key: {key}")
    L = int(data["L"])
    N = int(data["N"])
    if L < 1:
        raise BadConfig("L >= 1 required")
    if N < 3:
        raise BadConfig("N >= 3 required")
    R = _decode_matrix(data["R"], "R")
    T = _decode_matrix(data["T"], "T")
    V = _decode_matrix(data["V"], "V")
    zero = np.zeros((L, L), dtype=np.complex128)
    A = _decode_matrix(data["A"], "A") if "A" in data else zero
    B = _decode_matrix(data["B"], "B") if "B" in data else zero
    C = _decode_matrix(data["C"], "C") if "C" in data else V.copy()
    for name, m in (("R", R), ("T", T), ("V", V), ("A", A), ("B", B), ("C", C)):
        if m.shape != (L, L):
            raise BadConfig(f"{name} must be {L}x{L}, got {m.shape}")
    case = data["case"]
    if case not in CASES:
        raise BadConfig(f"case must be one of {CASES}, got {case!r}")
    region = tuple(float(x) for x in data.get("region", (-3, 3, -3, 3)))
    if len(region) != 4 or not (region[0] < region[1] and region[2] < region[3]
                                and np.all(np.isfinite(region))):
        raise BadConfig("region must be (re_min, re_max, im_min, im_max)")
    nx = int(data.get("nx", 128))
    ny = int(data.get("ny", 128))
    if nx < 16 or ny < 16:
        raise BadConfig("nx, ny >= 16 required")
    tol = data.get("tolerances", {})
    cfg = ModelConfig(
        L, N, R, T, V, A, B, C, case, region, nx, ny,
        float(tol.get("degeneracy", DEGENERACY_TOL)),
        float(tol.get("tie", TIE_TOL)), int(data.get("seed", 0)))
    try:
        actual = cfg.boundary.classify(cfg.coeffs)
    except ToeplimitError:
        actual = "custom"
    if actual != case:
        cfg.warnings.append(
            f"case tag {case!r} does not match the matrices (found {actual!r})")
    return cfg


def load_config(path: str, overrides: Optional[Dict] = None) -> ModelConfig:
    """The config at path, with ``overrides`` replacing its top-level keys
    before validation, so an override is checked like the file itself."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadConfig(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadConfig(f"invalid JSON in {path}: {exc}") from exc
    if isinstance(data, dict):
        data.update(overrides or {})
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# artifact output


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ArtifactWriter:
    """Collects run outputs and a manifest; the manifest timestamp and any
    ``stage_seconds`` are kept outside the payload checksums so reruns are
    byte-comparable."""

    def __init__(self, out_dir: str, config: Optional[ModelConfig]):
        self.out_dir = out_dir
        self.config = config
        self.entries: List[Dict] = []
        self.stage_seconds: Optional[Dict[str, float]] = None

    def write(self, kind: str, name: str, payload) -> str:
        text = (payload if isinstance(payload, str)
                else json.dumps(payload, indent=1, sort_keys=True))
        path = os.path.join(self.out_dir, name)
        _atomic_write(path, text)
        self.entries.append({"kind": kind, "path": name, "checksum":
                             hashlib.sha256(text.encode()).hexdigest()})
        return path

    def finish(self) -> str:
        manifest = {
            "artifacts": self.entries,
            "config": self.config.to_dict() if self.config else None,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        if self.stage_seconds is not None:
            manifest["stage_seconds"] = self.stage_seconds
        path = os.path.join(self.out_dir, "manifest.json")
        _atomic_write(path, json.dumps(manifest, indent=1, sort_keys=True))
        return path


def _spectrum_series(eigs: np.ndarray, label: str) -> str:
    return "re,im,label\n" + "".join(
        f"{e.real:.17g},{e.imag:.17g},{label}\n" for e in eigs)


# ---------------------------------------------------------------------------
# subcommands


def _load(args) -> ModelConfig:
    """The command's one run config: the JSON at ``--config`` with the
    ``--N``, ``--grid`` and ``--region`` overrides merged in before
    validation. Prints the config's warnings."""
    given = {key: getattr(args, key, None) for key in ("N", "grid", "region")}
    overrides = {key: v for key, v in given.items() if v is not None}
    if "grid" in overrides:
        overrides["nx"], overrides["ny"] = overrides.pop("grid")
    cfg = load_config(args.config, overrides)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return cfg


def _limit_sets(cfg: ModelConfig, args):
    """Arcs and outliers at the config's grid; the corner is dropped only
    when the matrices are circulant. A ``--r`` the run would not read is a
    config error."""
    coeffs = cfg.coeffs
    boundary = (None if cfg.boundary.classify(coeffs) == "circulant"
                else cfg.boundary)
    try:
        check_rank(coeffs, boundary, args.r)
    except ValueError as exc:
        raise BadConfig(f"--r {args.r}: {exc}") from exc
    return compute_limit_sets(coeffs, boundary, Region(*cfg.region), cfg.nx,
                              cfg.ny, r=args.r, workers=args.workers,
                              degeneracy_tol=cfg.degeneracy_tol,
                              tie_tol=cfg.tie_tol)


def _finite_spectrum(cfg: ModelConfig, fft: bool = False) -> np.ndarray:
    """The spectrum of H_N in (re, im) order: dense, or by FFT for a
    circulant model. Prints the skin-effect note past SKIN_EFFECT_N when
    the model is not normal."""
    if cfg.N > SKIN_EFFECT_N:
        H = assemble_operator(cfg.coeffs, cfg.boundary, 12)
        comm = H @ H.conj().T - H.conj().T @ H
        if np.linalg.norm(comm) > 1e-10 * (1 + np.linalg.norm(H) ** 2):
            print(SKIN_EFFECT_NOTE.format(n=SKIN_EFFECT_N), file=sys.stderr)
    eigs = (circulant_spectrum_fft(cfg.coeffs, cfg.N) if fft else
            finite_spectrum(assemble_operator(cfg.coeffs, cfg.boundary, cfg.N)))
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def _cmd_limit_spectrum(args) -> int:
    cfg = _load(args)
    result = _limit_sets(cfg, args)
    writer = ArtifactWriter(args.out, cfg)
    writer.write("limit_sets", f"limit_sets.{args.format}",
                 result.to_csv() if args.format == "csv"
                 else result.to_json_dict())
    writer.stage_seconds = result.timings
    writer.finish()
    arcs = sum(len(a.points) for a in result.arcs)
    print(f"limit-spectrum: {len(result.arcs)} arcs ({arcs} points), "
          f"{len(result.outliers)} outliers -> {args.out}")
    return 0


def _cmd_finite_spectrum(args) -> int:
    cfg = _load(args)
    N = cfg.N
    fft = args.method == "fft"
    if fft and cfg.boundary.classify(cfg.coeffs) != "circulant":
        raise BadConfig("--method fft requires the circulant case")
    eigs = _finite_spectrum(cfg, fft)
    writer = ArtifactWriter(args.out, cfg)
    if args.format == "csv":
        writer.write("finite_spectrum", "finite_spectrum.csv",
                     _spectrum_series(eigs, f"H_{N}"))
    else:
        writer.write("finite_spectrum", "finite_spectrum.json", {
            "N": N, "method": args.method,
            "eigenvalues": [_encode_complex(e) for e in eigs],
        })
    writer.finish()
    print(f"finite-spectrum: {eigs.size} eigenvalues (N={N}, "
          f"method={args.method}) -> {args.out}")
    return 0


def _cmd_verify_widom(args) -> int:
    cfg = _load(args)
    N, E = cfg.N, args.E
    coeffs, boundary = cfg.coeffs, cfg.boundary
    case = boundary.classify(coeffs)
    if case == "custom":
        raise BadConfig(f"no verification route for case {case!r}")
    spec = ordered_spectrum(coeffs, E, cfg.degeneracy_tol, cfg.tie_tol)
    direct = charpoly_direct(coeffs, boundary, N, E)
    print(f"verify-widom: N={N}, E={E}, case={case}, direct={direct:.12g}")
    routes = {}
    if case == "circulant":
        routes["circulant_formula"] = charpoly_circulant(coeffs, N, E)
    if case in ("open", "boundary"):
        routes["open_sum"] = widom_sum_open(coeffs, boundary.C, N, E,
                                            spec=spec).total
    if case in ("circulant", "perturbed"):
        routes["perturbed_sum"] = widom_sum_perturbed(coeffs, boundary, N, E,
                                                      spec=spec).total
    report = {"N": N, "E": _encode_complex(E), "case": case,
              "direct": _encode_complex(direct), "routes": {}}
    for name, value in routes.items():
        err = abs(value - direct)
        passed = err <= 1e-8 * (1 + abs(direct))
        report["routes"][name] = {"value": _encode_complex(value),
                                  "abs_error": err, "pass": passed}
        print(f"  {name}: {value:.12g} |err| = {err:.3e} "
              f"{'PASS' if passed else 'FAIL'}")
    ok = all(route["pass"] for route in report["routes"].values())
    report["pass"] = ok
    writer = ArtifactWriter(args.out, cfg)
    writer.write("widom_verify", "widom_verify.json", report)
    writer.finish()
    print(f"verify-widom: {'PASS' if ok else 'FAIL'} -> {args.out}")
    return 0 if ok else 2


def _cmd_asymptotics_check(args) -> int:
    cfg = _load(args)
    rt = rt_spectral_data(cfg.R, cfg.T)
    L = cfg.L
    magnitude = args.magnitude
    rng = np.random.default_rng(cfg.seed)
    E = magnitude * np.exp(2j * np.pi * rng.random())
    spec = ordered_spectrum(cfg.coeffs, E, cfg.degeneracy_tol, cfg.tie_tol)
    boundary = cfg.boundary
    # (kind, I, leading (coeff, exponent), q) per index set
    checks = [("q_hat", I, q_hat_leading(rt, I, cfg.C, cfg.V),
               q_hat(spec, cfg.C, I)) for I in index_sets(2 * L, [L])]
    if boundary.classify(cfg.coeffs) in ("circulant", "perturbed"):
        checks += [("q", I, q_leading(rt, boundary, I),
                    q_perturbed(spec, boundary, I))
                   for I in index_sets(2 * L, range(L + boundary.rank_A + 1))]
    rows = [{"kind": kind, "I": list(I),
             "deviation": float(abs(q.value / (coeff * E ** expo) - 1))}
            for kind, I, (coeff, expo), q in checks
            if q.valid and abs(coeff) >= 1e-12]
    worst = max([0.0, *(row["deviation"] for row in rows)])
    ok = bool(worst <= args.tolerance)
    report = {"E": _encode_complex(E), "magnitude": magnitude,
              "worst_deviation": worst, "tolerance": args.tolerance,
              "pass": ok, "per_set": rows}
    writer = ArtifactWriter(args.out, cfg)
    writer.write("asymptotics", "asymptotics_check.json", report)
    writer.finish()
    print(f"asymptotics-check: worst deviation {worst:.3e} at |E|={magnitude:g} "
          f"{'PASS' if ok else 'FAIL'} -> {args.out}")
    return 0 if ok else 2


def _cmd_genericity(args) -> int:
    report = genericity_check(args.trials, L=args.L, seed=args.seed)
    writer = ArtifactWriter(args.out, None)
    writer.write("genericity", "genericity.json", report.to_dict())
    writer.finish()
    print(f"genericity: {report.nonzero}/{report.nonzero + report.zero} draws "
          f"with all leading coefficients nonzero "
          f"({report.not_simple} not simple, "
          f"{report.rank_mismatch} rank mismatches) -> {args.out}")
    return 0 if report.nonzero_fraction == 1.0 else 2


def _cmd_plot_data(args) -> int:
    cfg = _load(args)
    # the arcs first: a failing run writes no series
    result = _limit_sets(cfg, args)
    writer = ArtifactWriter(args.out, cfg)
    writer.write("plot_series", "series_sigma_cloud.csv",
                 _spectrum_series(circulant_spectrum_fft(cfg.coeffs, 512),
                                  "Sigma_cloud"))
    by_label: Dict[str, List[complex]] = {}
    for a in result.arcs:
        by_label.setdefault(a.label, []).extend(a.points)
    for o in result.outliers:
        by_label.setdefault(o.label, []).append(o.point)
    for label, points in sorted(by_label.items()):
        writer.write("plot_series", f"series_{label.lower()}.csv",
                     _spectrum_series(points, label))
    writer.write("plot_series", f"series_finite_N{cfg.N}.csv",
                 _spectrum_series(_finite_spectrum(cfg), f"H_{cfg.N}"))
    writer.finish()
    print(f"plot-data: {len(writer.entries)} series files -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parse_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError("expected re or re,im")


def _parse_tuple(kind, names: str):
    """argparse type: the comma-separated values ``names`` as ``kind``."""
    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != names.count(",") + 1:
            raise argparse.ArgumentTypeError(f"expected {names}")
        return tuple(kind(p) for p in parts)
    return parse


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _positive_float(text: str, zero: bool = False) -> float:
    """argparse type: a finite float > 0, or >= 0 with ``zero``."""
    value = float(text)
    if not (np.isfinite(value) and (value >= 0 if zero else value > 0)):
        raise argparse.ArgumentTypeError(
            f"expected a finite number {'>=' if zero else '>'} 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each declaring only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="toeplimit",
        description="limit spectra of block tridiagonal Toeplitz operators "
                    "with corner perturbations")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--format": dict(choices=("json", "csv"), default="json"),
        "--workers": dict(type=_positive_int, default=os.cpu_count()),
        "--N": dict(type=int, default=None,
                    help="number of blocks (default: the config's N)"),
        "--r": dict(type=int, default=None,
                    help="perturbation rank (perturbed corners only)"),
    }

    def command(name, help_text, func, *flags, config=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True, help="model JSON path")
        p.add_argument("--out", default="out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    p = command("limit-spectrum", "extract arcs and outliers",
                _cmd_limit_spectrum, "--format", "--workers", "--r")
    p.add_argument("--grid", type=_parse_tuple(int, "NX,NY"), default=None,
                   metavar="NX,NY")
    p.add_argument("--region", default=None, metavar="a,b,c,d",
                   type=_parse_tuple(float, "re_min,re_max,im_min,im_max"), help="scan region; negative values "
                   "need the = form: --region=-2,2,-2,2")

    p = command("finite-spectrum", "dense or FFT finite-N spectrum",
                _cmd_finite_spectrum, "--format", "--N")
    p.add_argument("--method", choices=("dense", "fft"), default="dense")

    p = command("verify-widom", "compare determinant routes at one energy",
                _cmd_verify_widom, "--N")
    p.add_argument("--E", type=_parse_pair, default=0j, metavar="re,im",
                   help="energy (default 0); negative values need the = "
                   "form: --E=-0.4,0.3")

    p = command("asymptotics-check",
                "leading-coefficient ratio test at large energy",
                _cmd_asymptotics_check)
    p.add_argument("--magnitude", type=_positive_float, default=1e4)
    p.add_argument("--tolerance", default=0.02,
                   type=partial(_positive_float, zero=True))

    p = command("genericity", "random-draw nonvanishing check",
                _cmd_genericity, config=False)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--L", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=0)

    command("plot-data", "emit plot-ready series files", _cmd_plot_data,
            "--workers", "--N", "--r")
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BadConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ToeplimitError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
