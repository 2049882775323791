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
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import numkernel as nk
from .asymptotics import (genericity_check, q_hat_leading, q_leading,
                          q_tilde_leading, rt_spectral_data)
from .errors import BadConfig, ToeplimitError
from .limitsets import Region, compute_limit_sets
from .operators import (BoundaryTriple, CoefficientTriple, assemble_operator,
                        circulant_spectrum_fft, finite_spectrum)
from .transfer import DEGENERACY_TOL, TIE_TOL, ordered_spectrum
from .widom import (charpoly_circulant, index_sets, q_hat, q_perturbed,
                    widom_sum_open, widom_sum_perturbed)
from .operators import charpoly_direct

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


@dataclass
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

    @property
    def coeffs(self) -> CoefficientTriple:
        return CoefficientTriple(self.R, self.T, self.V)

    @property
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
    if len(region) != 4 or region[1] <= region[0] or region[3] <= region[2]:
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


def load_config(path: str) -> ModelConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadConfig(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadConfig(f"invalid JSON in {path}: {exc}") from exc
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
        self.entries.append({"kind": kind, "path": name,
                             "checksum": _sha256(text)})
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


def _is_normal_model(cfg: ModelConfig) -> bool:
    H = assemble_operator(cfg.coeffs, cfg.boundary, min(cfg.N, 12))
    comm = H @ H.conj().T - H.conj().T @ H
    return float(np.linalg.norm(comm)) <= 1e-10 * (1 + np.linalg.norm(H) ** 2)


def _spectrum_series(eigs: np.ndarray, label: str) -> str:
    lines = ["re,im,label"]
    for e in eigs:
        lines.append(f"{e.real:.17g},{e.imag:.17g},{label}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_limit_spectrum(args) -> int:
    cfg = load_config(args.config)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    nx, ny = (args.grid if args.grid else (cfg.nx, cfg.ny))
    region = Region(*(args.region if args.region else cfg.region))
    boundary = None if cfg.case == "circulant" else cfg.boundary
    result = compute_limit_sets(cfg.coeffs, boundary, region, nx, ny,
                                r=args.r, workers=args.workers,
                                degeneracy_tol=cfg.degeneracy_tol,
                                tie_tol=cfg.tie_tol)
    writer = ArtifactWriter(args.out, cfg)
    if args.format == "csv":
        writer.write("limit_sets", "limit_sets.csv", result.to_csv())
    else:
        writer.write("limit_sets", "limit_sets.json", result.to_json_dict())
    writer.stage_seconds = result.timings
    writer.finish()
    arcs = sum(len(a.points) for a in result.arcs)
    print(f"limit-spectrum: {len(result.arcs)} arcs ({arcs} points), "
          f"{len(result.outliers)} outliers -> {args.out}")
    return 0


def _cmd_finite_spectrum(args) -> int:
    cfg = load_config(args.config)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    N = args.N if args.N else cfg.N
    if N > SKIN_EFFECT_N and not _is_normal_model(cfg):
        print(SKIN_EFFECT_NOTE.format(n=SKIN_EFFECT_N), file=sys.stderr)
    if args.method == "fft":
        if cfg.boundary.classify(cfg.coeffs) != "circulant":
            raise BadConfig("--method fft requires the circulant case")
        eigs = circulant_spectrum_fft(cfg.coeffs, N)
    else:
        eigs = finite_spectrum(assemble_operator(cfg.coeffs, cfg.boundary, N))
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
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
    cfg = load_config(args.config)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    N = args.N if args.N else cfg.N
    E = args.E if args.E is not None else 0.0 + 0.0j
    coeffs = cfg.coeffs
    boundary = cfg.boundary
    case = boundary.classify(coeffs)
    direct = charpoly_direct(coeffs, boundary, N, E)
    report = {"N": N, "E": _encode_complex(E), "case": case,
              "direct": _encode_complex(direct), "routes": {}}
    tol = 1e-8 * (1 + abs(direct))
    ok = True

    def record(name, value):
        nonlocal ok
        err = abs(value - direct)
        passed = err <= tol
        ok = ok and passed
        report["routes"][name] = {"value": _encode_complex(value),
                                  "abs_error": err, "pass": passed}
        print(f"  {name}: {value:.12g} |err| = {err:.3e} "
              f"{'PASS' if passed else 'FAIL'}")

    print(f"verify-widom: N={N}, E={E}, case={case}, direct={direct:.12g}")
    if case == "circulant":
        record("circulant_formula", charpoly_circulant(coeffs, N, E))
    if case in ("open", "boundary"):
        record("open_sum", widom_sum_open(coeffs, boundary.C, N, E).total)
    if case in ("circulant", "perturbed"):
        record("perturbed_sum",
               widom_sum_perturbed(coeffs, boundary, N, E).total)
    if not report["routes"]:
        raise BadConfig(f"no verification route for case {case!r}")
    report["pass"] = ok
    writer = ArtifactWriter(args.out, cfg)
    writer.write("widom_verify", "widom_verify.json", report)
    writer.finish()
    print(f"verify-widom: {'PASS' if ok else 'FAIL'} -> {args.out}")
    return 0 if ok else 2


def _cmd_asymptotics_check(args) -> int:
    cfg = load_config(args.config)
    rt = rt_spectral_data(cfg.R, cfg.T)
    L = cfg.L
    magnitude = args.magnitude
    rng = np.random.default_rng(cfg.seed)
    E = magnitude * np.exp(2j * np.pi * rng.random())
    spec = ordered_spectrum(cfg.coeffs, E, cfg.degeneracy_tol, cfg.tie_tol)
    boundary = cfg.boundary
    rows = []
    worst = 0.0
    for I in index_sets(2 * L, [L]):
        coeff, expo = q_hat_leading(rt, I, cfg.C, cfg.V)
        q = q_hat(spec, cfg.C, I)
        if not q.valid or abs(coeff) < 1e-12:
            continue
        dev = float(abs(q.value / (coeff * E ** expo) - 1))
        worst = max(worst, dev)
        rows.append({"kind": "q_hat", "I": list(I), "deviation": dev})
    if boundary.classify(cfg.coeffs) in ("circulant", "perturbed"):
        for I in index_sets(2 * L, range(L + boundary.rank_A + 1)):
            coeff, expo = q_leading(rt, boundary, I)
            q = q_perturbed(spec, boundary, I)
            if not q.valid or abs(coeff) < 1e-12:
                continue
            dev = float(abs(q.value / (coeff * E ** expo) - 1))
            worst = max(worst, dev)
            rows.append({"kind": "q", "I": list(I), "deviation": dev})
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
    frac = report.nonzero_fraction
    print(f"genericity: {report.nonzero}/{report.nonzero + report.zero} draws "
          f"with all leading coefficients nonzero "
          f"({report.not_simple} not simple, "
          f"{report.rank_mismatch} rank mismatches) -> {args.out}")
    return 0 if frac == 1.0 else 2


def _cmd_plot_data(args) -> int:
    cfg = load_config(args.config)
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    N = args.N if args.N else cfg.N
    region = Region(*cfg.region)
    boundary = None if cfg.case == "circulant" else cfg.boundary
    writer = ArtifactWriter(args.out, cfg)
    # periodic cloud series
    cloud = circulant_spectrum_fft(cfg.coeffs, 512)
    writer.write("plot_series", "series_sigma_cloud.csv",
                 _spectrum_series(cloud, "Sigma_cloud"))
    # arcs and outliers
    result = compute_limit_sets(cfg.coeffs, boundary, region, cfg.nx, cfg.ny,
                                r=args.r, workers=args.workers,
                                degeneracy_tol=cfg.degeneracy_tol,
                                tie_tol=cfg.tie_tol)
    by_label: Dict[str, List[str]] = {}
    for a in result.arcs:
        rows = by_label.setdefault(a.label, ["re,im,label"])
        for p in a.points:
            rows.append(f"{p.real:.17g},{p.imag:.17g},{a.label}")
    for o in result.outliers:
        rows = by_label.setdefault(o.label, ["re,im,label"])
        rows.append(f"{o.point.real:.17g},{o.point.imag:.17g},{o.label}")
    for label, rows in sorted(by_label.items()):
        writer.write("plot_series", f"series_{label.lower()}.csv",
                     "\n".join(rows) + "\n")
    # finite-N cloud
    if N > SKIN_EFFECT_N and not _is_normal_model(cfg):
        print(SKIN_EFFECT_NOTE.format(n=SKIN_EFFECT_N), file=sys.stderr)
    eigs = finite_spectrum(assemble_operator(cfg.coeffs, cfg.boundary, N))
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    writer.write("plot_series", f"series_finite_N{N}.csv",
                 _spectrum_series(eigs, f"H_{N}"))
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


def _parse_grid(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected NX,NY")
    return int(parts[0]), int(parts[1])


def _parse_region(text: str) -> Tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected re_min,re_max,im_min,im_max")
    return tuple(float(p) for p in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplimit",
        description="limit spectra of block tridiagonal Toeplitz operators "
                    "with corner perturbations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="model JSON path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--workers", type=int, default=os.cpu_count())

    p = sub.add_parser("limit-spectrum", help="extract arcs and outliers")
    common(p)
    p.add_argument("--r", type=int, default=None, help="perturbation rank")
    p.add_argument("--grid", type=_parse_grid, default=None, metavar="NX,NY")
    p.add_argument("--region", type=_parse_region, default=None,
                   metavar="a,b,c,d")
    p.set_defaults(func=_cmd_limit_spectrum)

    p = sub.add_parser("finite-spectrum", help="dense or FFT finite-N spectrum")
    common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--method", choices=("dense", "fft"), default="dense")
    p.set_defaults(func=_cmd_finite_spectrum)

    p = sub.add_parser("verify-widom",
                       help="compare determinant routes at one energy")
    common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--E", type=_parse_pair, default=None, metavar="re,im")
    p.set_defaults(func=_cmd_verify_widom)

    p = sub.add_parser("asymptotics-check",
                       help="leading-coefficient ratio test at large energy")
    common(p)
    p.add_argument("--magnitude", type=float, default=1e4)
    p.add_argument("--tolerance", type=float, default=0.02)
    p.set_defaults(func=_cmd_asymptotics_check)

    p = sub.add_parser("genericity", help="random-draw nonvanishing check")
    common(p, needs_config=False)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_genericity)

    p = sub.add_parser("plot-data", help="emit plot-ready series files")
    common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=_cmd_plot_data)

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
    except ToeplimitError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
