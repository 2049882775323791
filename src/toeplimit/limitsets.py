"""Extraction of limit-spectrum sets from complex-plane grid scans.

The continuous sets are level sets of ordered transfer-eigenvalue moduli.
Sigma-type sets, where some |z_j| = 1, come from marching squares on the
grid and, where the grid misses them, from the symbol curve
spec a(e^{i theta}) (Schmidt and Spitzer, 1960), labelled by a transfer
eigensolve. Lambda-type sets, where two branches share a modulus, come from
branch-matched edge crossings, each located from the branch slopes
dz_j/dE of the scan's eigen-triples and checked by one solve. Outliers are
zeros of the dominant q-function, Newton-refined from grid minima.
"""
import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import ConvergenceFailure
from .operators import BoundaryTriple, CoefficientTriple, eval_symbol
from .transfer import (TIE_TOL, branch_slopes, match_branches, modulus_order,
                       ordered_eig, transfer_matrices, transfer_matrix)
from .widom import corner_q

EXCLUSION_FACTOR = 3.0
SEED_QUANTILE = 0.05
SEED_FACTOR = 10.0
ACCEPT_RESIDUAL = 1e-10
UNIT_COND_TOL = 1e-6
# the symbol curve's first angles, and its most refinement rounds
CURVE_SAMPLES = 64
CURVE_ROUNDS = 12
# half-width, in edge fractions, of the check of a located crossing: the
# crossing is then bracketed to 2^-8 of the edge, h/100 and below
CHECK = 2.0 ** -9


@dataclass(frozen=True)
class Region:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("degenerate region")


@dataclass
class ScanGrid:
    """Per-node transfer-spectrum summaries on a rectangular grid.

    Arrays are indexed [iy, ix]; ``values`` holds the eigenvalues in the
    modulus order of ``ordered_spectrum``, tie-break included.
    """
    coeffs: CoefficientTriple
    region: Region
    re: np.ndarray                # (nx,)
    im: np.ndarray                # (ny,)
    values: np.ndarray            # (ny, nx, 2L)
    moduli: np.ndarray            # (ny, nx, 2L)
    degenerate: np.ndarray        # (ny, nx) bool
    masked: np.ndarray            # (ny, nx) bool, failed nodes
    h: float
    # (ny, nx) |q| of the q function the scan was given, NaN at masked nodes
    q_field: Optional[np.ndarray] = None
    # (ny, nx, 2L) dz_j/dE of each ordered branch, from the eigen-triple of a
    # scan given a q function; None for an eigenvalue-only scan
    slopes: Optional[np.ndarray] = None
    # work of the arc detectors, summed over their calls on this grid.
    # candidate_edges, swapped_edges, crossing_fallbacks, crossings_kept and
    # tie_flagged_crossings are the equal-modulus detector's; with a point
    # filter its candidate counts are taken after the endpoint pre-test.
    # crossing_solves counts every transfer solve of both detectors, and
    # sigma_curve_points the symbol-curve samples kept as Sigma points
    detector_counts: Dict[str, int] = field(init=False, default_factory=lambda: {
        "candidate_edges": 0, "swapped_edges": 0, "crossing_solves": 0,
        "crossing_fallbacks": 0, "crossings_kept": 0,
        "tie_flagged_crossings": 0, "sigma_curve_points": 0})
    # seeds, rounds, q rows and rejections of the outlier stage's Newton runs
    newton_counts: Dict[str, int] = field(init=False, default_factory=lambda: {
        "newton_seeds": 0, "newton_rounds": 0, "newton_q_rows": 0,
        "newton_rejected_out_of_region": 0, "newton_rejected_residual": 0,
        "newton_rejected_exclusion": 0, "newton_rejected_duplicate": 0})

    @property
    def L(self) -> int:
        return self.values.shape[2] // 2

    @property
    def energies(self) -> np.ndarray:
        return self.re[None, :] + 1j * self.im[:, None]

    @property
    def valid(self) -> np.ndarray:
        return ~(self.degenerate | self.masked)


def dominant_set(moduli: np.ndarray, r: int) -> np.ndarray:
    """Flags (..., 2L) of the dominant index set {j >= L - r : |z_j| > 1}
    (0-based; 1-based j >= L - r + 1) over rows of ordered moduli."""
    dominant = moduli > 1.0
    dominant[..., :max(moduli.shape[-1] // 2 - r, 0)] = False
    return dominant


@dataclass
class Arc:
    label: str                    # Sigma | Sigma_r | Lambda | Lambda_r
    r: Optional[int]
    points: np.ndarray            # complex polyline vertices
    crossing_index: Optional[int] = None   # 1-based j for Sigma-type arcs


@dataclass
class Outlier:
    """A Newton-refined zero of the dominant q-function: "converged" when
    |q| < 1e-12 scale (scale = the grid's median |q|), "unconverged" when
    Newton stalled with |q| between 1e-12 scale and the 1e-10 scale bar."""
    label: str                    # Gamma_C | Gamma_r
    point: complex
    residual: float
    status: str                   # converged | unconverged


@dataclass
class LimitSpectrumResult:
    arcs: List[Arc]
    outliers: List[Outlier]
    metadata: Dict
    # perf_counter seconds per stage; not serialized, so payloads stay
    # byte-identical across reruns
    timings: Dict[str, float]

    def to_json_dict(self) -> Dict:
        return {
            "arcs": [{"label": a.label, "r": a.r,
                      "crossing_index": a.crossing_index,
                      "points": [[float(p.real), float(p.imag)]
                                 for p in a.points]}
                     for a in self.arcs],
            "outliers": [{"label": o.label, "re": float(o.point.real),
                          "im": float(o.point.imag),
                          "residual": float(o.residual), "status": o.status}
                         for o in self.outliers],
            "metadata": self.metadata,
        }

    def to_csv(self) -> str:
        """One row per arc point, then one per outlier."""
        rows = ["set_label,r,re,im,aux\n"]
        for a in self.arcs:
            r = "" if a.r is None else a.r
            j = "" if a.crossing_index is None else a.crossing_index
            rows.extend(f"{a.label},{r},{p.real:.17g},{p.imag:.17g},{j}\n"
                        for p in a.points)
        rows.extend(f"{o.label},,{o.point.real:.17g},{o.point.imag:.17g},"
                    f"{o.residual:.6g}\n" for o in self.outliers)
        return "".join(rows)


def model_hash(coeffs: CoefficientTriple,
               boundary: Optional[BoundaryTriple] = None) -> str:
    digest = hashlib.sha256()
    for m in (coeffs.R, coeffs.T, coeffs.V):
        digest.update(np.ascontiguousarray(m).tobytes())
    if boundary is not None:
        for m in (boundary.A, boundary.B, boundary.C):
            digest.update(np.ascontiguousarray(m).tobytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# grid scan


def _solve_nodes(coeffs: CoefficientTriple, energies: np.ndarray,
                 workers: Optional[int], q: Optional[Callable]):
    """Modulus-ordered transfer eigenvalues and their degeneracy flags at a
    flat energy array; when a q function is given, also the |q| and the
    branch slopes dz_j/dE of each node from the same ``ordered_eig`` triple.

    Worker chunks build their own transfer stacks and write into
    preallocated outputs, so a chunk's eigenvectors are dropped when it
    returns. A chunk whose stacked solve fails is solved node by node; a node
    that still fails is masked and keeps zero values, a degenerate flag and
    NaN |q|. Returns (values, degenerate, |q| or None, masked, slopes or
    None).
    """
    n = energies.size
    values = np.zeros((n, 2 * coeffs.L), dtype=np.complex128)
    degenerate = np.ones(n, dtype=bool)
    q_field = None if q is None else np.full(n, np.nan)
    slopes = None if q is None else np.zeros_like(values)
    masked = np.zeros(n, dtype=bool)

    def solve(idx: np.ndarray) -> None:
        if q is None:
            vals = np.linalg.eigvals(transfer_matrices(coeffs, energies[idx]))
            values[idx] = np.take_along_axis(vals, modulus_order(vals)[0],
                                             axis=1)
            degenerate[idx] = np.any(nk.close_pairs(vals), axis=(1, 2))
            return
        triple = ordered_eig(coeffs, energies[idx])
        q_field[idx] = np.abs(q(energies[idx], triple))
        values[idx], degenerate[idx] = triple[0], triple[3]
        slopes[idx] = branch_slopes(coeffs, triple[1], triple[2])

    def fill(idx: np.ndarray) -> None:
        try:
            solve(idx)
        except (np.linalg.LinAlgError, ConvergenceFailure):
            # rare: fall back to per-node solves, masking failures
            for i in idx:
                try:
                    solve(np.array([i]))
                except (np.linalg.LinAlgError, ConvergenceFailure):
                    masked[i] = True

    # more threads than CPUs only add chunks and thread start-ups
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers <= 1:
        fill(np.arange(n))
    else:
        chunks = np.array_split(np.arange(n), workers * 4)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, chunks))
    return values, degenerate, q_field, masked, slopes


def scan_grid(coeffs: CoefficientTriple, region: Region, nx: int, ny: int,
              workers: Optional[int] = None,
              q: Optional[Callable] = None) -> ScanGrid:
    """Transfer spectra over an nx x ny grid of the region; with a q
    function (``q_open``, ``q_perturbed_dominant``) the scan also computes
    its |q| field and the branch slopes from the same solve, so no node is
    solved twice."""
    if nx < 16 or ny < 16:
        raise ValueError("nx, ny >= 16 required")
    re = np.linspace(region.re_min, region.re_max, nx)
    im = np.linspace(region.im_min, region.im_max, ny)
    h = max(re[1] - re[0], im[1] - im[0])
    energies = (re[None, :] + 1j * im[:, None]).ravel()
    vals, degenerate, q_field, masked, slopes = _solve_nodes(
        coeffs, energies, workers, q)
    moduli = np.abs(vals)
    shape = (ny, nx)
    m = 2 * coeffs.L
    return ScanGrid(coeffs, region, re, im, vals.reshape(shape + (m,)),
                    moduli.reshape(shape + (m,)), degenerate.reshape(shape),
                    masked.reshape(shape), float(h),
                    None if q_field is None else q_field.reshape(shape),
                    None if slopes is None else slopes.reshape(shape + (m,)))


# ---------------------------------------------------------------------------
# marching squares for sign-changing scalar fields


def _cell_corners(nodal: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Views of a nodal [iy, ix] array at the four corners of every cell,
    counter-clockwise from (ix, iy)."""
    return nodal[:-1, :-1], nodal[:-1, 1:], nodal[1:, 1:], nodal[1:, :-1]


def _marching_squares(field: np.ndarray, valid: np.ndarray,
                      re: np.ndarray, im: np.ndarray,
                      midpoint_eval: Callable[[complex], float]
                      ) -> List[Tuple[complex, complex]]:
    """Zero-level segments of a nodal scalar field, cell by cell in row-major
    order; only cells whose four valid corners change sign are visited.

    Saddle cells (4 sign changes) are resolved by the sign of one
    ``midpoint_eval`` at the cell centre.
    """
    positive = sum(c.astype(int) for c in _cell_corners(field > 0))
    crossed = np.logical_and.reduce(_cell_corners(valid)) & (positive % 4 != 0)
    iy, ix = np.nonzero(crossed)
    nodes = re[None, :] + 1j * im[:, None]
    f = np.stack([c[iy, ix] for c in _cell_corners(field)], axis=1)
    p = np.stack([c[iy, ix] for c in _cell_corners(nodes)], axis=1)
    # edge k runs from corner k to corner k + 1
    f1, p1 = np.roll(f, -1, axis=1), np.roll(p, -1, axis=1)
    signs = f > 0
    changes = signs != np.roll(signs, -1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = p + f / (f - f1) * (p1 - p)
    segments = []
    for c in range(iy.size):
        ks = np.flatnonzero(changes[c])
        pts = cross[c]
        if ks.size == 2:
            segments.append((pts[ks[0]], pts[ks[1]]))
            continue
        fc = midpoint_eval(0.25 * sum(complex(z) for z in p[c]))
        # connect each crossing to the neighbor consistent with the
        # center sign
        if (fc > 0) == signs[c, 0]:
            segments.append((pts[0], pts[1]))
            segments.append((pts[2], pts[3]))
        else:
            segments.append((pts[3], pts[0]))
            segments.append((pts[1], pts[2]))
    return segments


def _assemble_polylines(segments: Sequence[Tuple[complex, complex]],
                        tol: float) -> List[np.ndarray]:
    """Chain segments sharing endpoints (within tol) into polylines."""
    if not segments:
        return []

    def key(pt: complex):
        return (round(pt.real / tol), round(pt.imag / tol))

    adjacency: Dict[Tuple[int, int], List[int]] = {}
    for i, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append(i)
        adjacency.setdefault(key(b), []).append(i)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for head in (1, 0):
            while True:
                tip = chain[-1] if head else chain[0]
                nxt = None
                for i in adjacency.get(key(tip), []):
                    if not used[i]:
                        nxt = i
                        break
                if nxt is None:
                    break
                used[nxt] = True
                sa, sb = segments[nxt]
                other = sb if abs(sa - tip) < abs(sb - tip) else sa
                if head:
                    chain.append(other)
                else:
                    chain.insert(0, other)
        polylines.append(np.array(chain))
    return polylines


# ---------------------------------------------------------------------------
# Sigma-type arcs (unit-modulus level sets)


def _sorted_moduli(stack: np.ndarray) -> np.ndarray:
    """Sorted eigenvalue moduli of one transfer matrix or of a stack."""
    return np.sort(np.abs(np.linalg.eigvals(stack)), axis=-1)


def _all_points(arcs: Sequence[Arc]) -> np.ndarray:
    """The points of all arcs in one complex array."""
    return np.concatenate([np.empty(0, complex)] + [a.points for a in arcs])


def _symbol_curve(coeffs: CoefficientTriple, h: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The symbol curve, the eigenvalues of a(e^{i theta}) over theta in
    [0, 2 pi), sampled along its L branches: (L, n) energies and the (n,)
    angles.

    One stacked ``match_branches`` carries the eigenvalues from each angle
    to the next, the last to the first. Each interval on which a branch
    moves by more than h gets evenly spaced angles of its own, so that
    after at most CURVE_ROUNDS refinements (eigenvalues move as a root of
    the angle only near an exceptional point) no branch moves by more than
    h from one sample to the next.
    """
    theta = np.linspace(0.0, 2 * np.pi, CURVE_SAMPLES, endpoint=False)
    values = np.linalg.eigvals(eval_symbol(coeffs, np.exp(1j * theta)))
    for rounds in range(CURVE_ROUNDS + 1):
        following = np.roll(values, -1, axis=0)
        perm = match_branches(values, following)
        step = np.max(np.abs(np.take_along_axis(following, perm, axis=1)
                             - values), axis=1)
        extra = np.maximum(np.ceil(step / h).astype(np.intp) - 1, 0)
        if rounds == CURVE_ROUNDS or not extra.any():
            break
        # the m-th of the extra[k] new angles in interval k sits at the
        # fraction m / (extra[k] + 1) of it
        k = np.repeat(np.arange(theta.size), extra)
        m = np.arange(k.size) - np.repeat(np.cumsum(extra) - extra, extra) + 1
        width = np.diff(theta, append=2 * np.pi)[k]
        new = theta[k] + width * m / (extra[k] + 1)
        theta = np.concatenate([theta, new])
        values = np.concatenate([values, np.linalg.eigvals(
            eval_symbol(coeffs, np.exp(1j * new)))])
        order = np.argsort(theta, kind="stable")
        theta, values = theta[order], values[order]
    # column of each branch at each sample, composed only where the matching
    # is not the identity
    columns = np.empty(values.shape, dtype=np.intp)
    current, start = np.arange(values.shape[1]), 0
    for k in np.flatnonzero(np.any(perm != np.arange(values.shape[1]), axis=1)):
        columns[start:k + 1] = current
        current, start = perm[k, current], k + 1
    columns[start:] = current
    return np.take_along_axis(values, columns, axis=1).T, theta


def _far_from(points: np.ndarray, vertices: np.ndarray, h: float,
              region: Region) -> np.ndarray:
    """Flags of the points, all in the region, that lie farther than h from
    every vertex. Both are binned into h-wide squares from the region's
    corner, so a vertex within h of a point lies in the point's square or in
    one of its eight neighbours, and only those are compared."""
    far = np.ones(points.shape, dtype=bool)
    if not (points.size and vertices.size):
        return far
    corner = complex(region.re_min, region.im_min)
    width = int(np.ceil(max(region.re_max - region.re_min,
                            region.im_max - region.im_min) / h)) + 3

    def squares(z):
        z = (z - corner) / h
        return (np.floor(z.real).astype(np.intp) + 1,
                np.floor(z.imag).astype(np.intp) + 1)

    vx, vy = squares(vertices)
    keys = vx * width + vy
    order = np.argsort(keys, kind="stable")
    keys, vertices = keys[order], vertices[order]
    px, py = squares(points)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            key = (px + dx) * width + py + dy
            first = np.searchsorted(keys, key, "left")
            count = np.searchsorted(keys, key, "right") - first
            for m in range(int(count.max())):
                rows = np.flatnonzero(count > m)
                near = vertices[first[rows] + m]
                far[rows] &= np.abs(points[rows] - near) > h
    return far


def _sigma_curve_arcs(scan: ScanGrid, r: int, label: str,
                      vertices: np.ndarray) -> List[Arc]:
    """The Sigma_r points that marching squares leaves out, from the symbol
    curve: its samples in the region farther than h from every
    marching-squares vertex.

    One stacked transfer eigensolve labels them: e^{i theta} is a root at
    each, and the crossing index is its 1-based rank in modulus order,
    raised to the highest index among the roots within h/10 of the unit
    circle. A sample is kept when its spectrum is not degenerate (the grid
    detectors skip such nodes too), that root lies within h/10 of the
    circle and its index is at least L - r + 1; each branch's kept samples
    are split into polylines where the index changes.
    """
    L, h, region = scan.L, scan.h, scan.region
    curve, theta = _symbol_curve(scan.coeffs, h)
    kept = ((region.re_min <= curve.real) & (curve.real <= region.re_max)
            & (region.im_min <= curve.imag) & (curve.imag <= region.im_max))
    kept[kept] = _far_from(curve[kept], vertices, h, region)
    branch, k = np.nonzero(kept)
    vals = np.linalg.eigvals(transfer_matrices(scan.coeffs, curve[branch, k]))
    scan.detector_counts["crossing_solves"] += k.size
    moduli = np.abs(vals)
    order = np.argsort(moduli, axis=1, kind="stable")
    unit = np.abs(np.take_along_axis(moduli, order, axis=1) - 1.0) <= h / 10
    nearest = np.argmin(np.abs(vals - np.exp(1j * theta[k])[:, None]), axis=1)
    rank = np.argmax(order == nearest[:, None], axis=1)
    top = np.where(unit.any(axis=1),
                   2 * L - 1 - np.argmax(unit[:, ::-1], axis=1), -1)
    j = np.maximum(rank, top)
    ok = (unit[np.arange(j.size), j] & (j >= L - r)
          & ~np.any(nk.close_pairs(vals), axis=(1, 2)))
    scan.detector_counts["sigma_curve_points"] += int(np.sum(ok))
    index = np.zeros(curve.shape, dtype=np.intp)
    index[branch[ok], k[ok]] = j[ok] + 1
    # runs of one nonzero index along each branch
    flat, points = index.ravel(), curve.ravel()
    starts = np.flatnonzero((flat != np.roll(flat, 1))
                            | (np.arange(flat.size) % curve.shape[1] == 0))
    ends = np.append(starts[1:], flat.size)
    return [Arc(label, r, points[s:e].copy(), crossing_index=int(flat[s]))
            for s, e in zip(starts, ends) if flat[s]]


def sigma_r(scan: ScanGrid, r: int) -> List[Arc]:
    """Arcs where some |z_j(E)| = 1 with 1-based crossing index
    j >= L - r + 1.

    Transversal crossings come from one marching-squares pass per admissible
    ordered branch. The rest, where the sorted field touches the unit circle
    without a sign change (folds, where two branches reach the circle
    together; the scalar slit is the canonical case) or turns between grid
    nodes, comes from the symbol curve (``_sigma_curve_arcs``).
    """
    L = scan.L
    if not 0 <= r <= L:
        raise ValueError("0 <= r <= L required")
    valid = scan.valid
    label = "Sigma" if r == L else "Sigma_r"
    arcs = []
    for j in range(L - r + 1, 2 * L + 1):
        field = scan.moduli[:, :, j - 1] - 1.0

        def mid(E, jj=j):
            return float(
                _sorted_moduli(transfer_matrix(scan.coeffs, E))[jj - 1] - 1.0)

        segments = _marching_squares(field, valid, scan.re, scan.im, mid)
        for line in _assemble_polylines(segments, scan.h * 1e-6):
            arcs.append(Arc(label, r, line, crossing_index=j))
    return arcs + _sigma_curve_arcs(scan, r, label, _all_points(arcs))


# ---------------------------------------------------------------------------
# Lambda-type arcs (equal-modulus branch crossings)


def _edges(nodal: np.ndarray):
    """(start, end) views of a nodal [iy, ix, ...] array over the horizontal
    edges (ix -> ix + 1), then over the vertical edges (iy -> iy + 1)."""
    return (nodal[:, :-1], nodal[:, 1:]), (nodal[:-1], nodal[1:])


def _in_order(scan: ScanGrid, a: int, b: int, base: np.ndarray,
              energies: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One stacked transfer solve: whether |z_a| <= |z_b| still holds for
    the branches continued from ``base`` by matching, and the sorted
    moduli, at each energy."""
    vals = np.linalg.eigvals(transfer_matrices(scan.coeffs, energies))
    scan.detector_counts["crossing_solves"] += energies.size
    p = match_branches(base, vals)
    rows = np.arange(energies.size)
    return (np.abs(vals[rows, p[:, a]]) <= np.abs(vals[rows, p[:, b]]),
            np.sort(np.abs(vals), axis=1))


def _locate_crossings(scan: ScanGrid, a: int, b: int, base: np.ndarray,
                      Ea: np.ndarray, Eb: np.ndarray, mods_a: np.ndarray,
                      gap: np.ndarray, slope: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Points where the gap log|z_a| - log|z_b| of the branches continued
    from ``base`` by matching closes along each edge Ea -> Eb, to h/100,
    with the sorted moduli there.

    ``gap`` and ``slope`` (n, 2) hold the matched gap and its derivative in
    the edge fraction t at both ends (``mods_a``: the sorted moduli at Ea).
    The root t of their cubic Hermite interpolant is checked by one stacked
    solve at t - CHECK and t + CHECK: where the pair is still in order at
    the first and swapped at the second, the crossing lies between them.
    The other rows keep the side of the check that brackets a crossing and
    are halved to the same width 2 CHECK. Each point is the in-order end of
    its bracket, with the moduli of its solve.
    """
    g0, g1 = gap.T
    m0, m1 = slope.T
    lo, hi = np.zeros(Ea.size), np.ones(Ea.size)
    for _ in range(20):   # the cubic's root, to 2^-20 of the edge
        t = 0.5 * (lo + hi)
        s, c = t * t * (3 - 2 * t), t * (1 - t)
        closed = ((1 - s) * g0 + s * g1 + c * ((1 - t) * m0 - t * m1)) <= 0
        lo, hi = np.where(closed, t, lo), np.where(closed, hi, t)
    t = np.clip(0.5 * (lo + hi), CHECK, 1 - CHECK)
    probe = np.concatenate([t - CHECK, t + CHECK])
    in_order, mods = _in_order(scan, a, b, np.concatenate([base, base]),
                               np.tile(Ea, 2) + probe * np.tile(Eb - Ea, 2))
    first, second = np.split(in_order, 2)
    mods_lo, mods_hi = np.split(mods, 2)
    # in order at both probes: a crossing lies beyond the second; swapped
    # at the first: one lies before it
    lo = np.where(first, np.where(second, t + CHECK, t - CHECK), 0.0)
    hi = np.where(first & second, 1.0, np.where(first, t + CHECK, t - CHECK))
    mods = np.where(first[:, None],
                    np.where(second[:, None], mods_hi, mods_lo), mods_a)
    rows = np.flatnonzero(~(first & ~second))
    scan.detector_counts["crossing_fallbacks"] += rows.size
    while True:
        rows = rows[hi[rows] - lo[rows] > 2 * CHECK]
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        closed, m = _in_order(scan, a, b, base[rows],
                              Ea[rows] + mid * (Eb[rows] - Ea[rows]))
        lo[rows] = np.where(closed, mid, lo[rows])
        hi[rows] = np.where(closed, hi[rows], mid)
        mods[rows[closed]] = m[closed]
    return Ea + lo * (Eb - Ea), mods


def _movement(v0: np.ndarray, v1: np.ndarray, branches) -> np.ndarray:
    """How far the given branches move along each edge from the values v0
    to v1 (..., 2L): the largest over them of min_j |v_i(E) - v_j(E')|.
    Twice it is the slack of the pair detector's gap test and of its
    endpoint pre-test with a point filter."""
    return np.abs(v0[..., branches, None]
                  - v1[..., None, :]).min(axis=-1).max(axis=-1)


def _lambda_pair_arcs(scan: ScanGrid, a: int, b: int, label: str,
                      r: Optional[int],
                      point_filter: Optional[Callable] = None) -> List[Arc]:
    """Arcs of |z_a| = |z_b| (0-based consecutive ordered branches) by
    branch-matched edge crossings assembled through cell adjacency.

    ``point_filter(mods, a, slack)`` maps an (n, 2L) stack of sorted moduli
    to the mask of rows kept, each condition loosened by ``slack`` (a scalar
    or one value per row). The crossing points are kept by it at slack 0.
    Before locating, an edge is dropped unless one of its endpoint rows
    passes it at slack ``2 * move``, with ``move`` the pair's ``_movement``:
    the bound on how far the pair moves along the edge that the gap test
    below also relies on.

    The crossings are located from the scan's branch slopes where it has
    them, else from the chord of the gap (``_locate_crossings``).
    """
    counts = scan.detector_counts
    gap = scan.moduli[:, :, b] - scan.moduli[:, :, a]
    candidates = []
    for (ok0, ok1), (g0, g1), (m0, m1), (v0, v1) in zip(
            _edges(scan.valid), _edges(gap), _edges(scan.moduli),
            _edges(scan.values)):
        move = _movement(v0, v1, [a, b])
        # an order swap needs the pair gap to close somewhere on the edge,
        # and the pair to start in order (g0 < 0 only inside a tie group)
        candidate = (ok0 & ok1 & ~(np.minimum(g0, g1) > 2 * move + 1e-12)
                     & ~(g0 < 0))
        if point_filter is not None:
            # a crossing on the edge can pass the filter only if an endpoint
            # passes it with the pair's movement bound as slack
            rows, slack = m0.reshape(-1, m0.shape[-1]), 2 * move.ravel()
            reach = (point_filter(rows, a, slack)
                     | point_filter(m1.reshape(rows.shape), a, slack))
            candidate &= reach.reshape(move.shape)
        candidates.append(candidate)

    def gather(nodal, end):
        return np.concatenate([e[end][m] for e, m in
                               zip(_edges(nodal), candidates)])

    va, vb = gather(scan.values, 0), gather(scan.values, 1)
    counts["candidate_edges"] += len(va)
    # the swap test: branch matching carries a above b across the edge
    perm = match_branches(va, vb)
    rank_b = np.argsort(np.argsort(np.abs(vb), axis=1, kind="stable"),
                        axis=1, kind="stable")
    rows = np.arange(len(va))
    swapped = np.flatnonzero(rank_b[rows, perm[:, a]] > rank_b[rows, perm[:, b]])
    counts["swapped_edges"] += swapped.size
    # the pair at both ends of each swapped edge, matched: columns z_a, z_b
    # at the start, then at the end
    ends = np.arange(swapped.size)
    at_end = (ends, perm[swapped, a]), (ends, perm[swapped, b])

    def pair(nodal):
        start, end = (gather(nodal, k)[swapped] for k in (0, 1))
        return np.column_stack([start[:, a], start[:, b], end[at_end[0]],
                                end[at_end[1]]])

    z = pair(scan.values)
    log_mod = np.log(np.abs(z))
    gaps = log_mod[:, [0, 2]] - log_mod[:, [1, 3]]
    Ea, Eb = (gather(scan.energies, end)[swapped] for end in (0, 1))
    if scan.slopes is None:
        slopes = np.column_stack([gaps[:, 1] - gaps[:, 0]] * 2)
    else:
        # d log|z|/dt = Re(dz/dE (Eb - Ea) / z)
        d = np.real(pair(scan.slopes) / z * (Eb - Ea)[:, None])
        slopes = d[:, [0, 2]] - d[:, [1, 3]]
    points, mods = _locate_crossings(
        scan, a, b, va[swapped], Ea, Eb,
        np.sort(gather(scan.moduli, 0)[swapped], axis=1), gaps, slopes)
    if a >= 1:
        counts["tie_flagged_crossings"] += int(np.sum(
            mods[:, a] - mods[:, a - 1] < TIE_TOL * (1 + mods[:, a])))
    if point_filter is not None:
        keep = point_filter(mods, a, 0.0)
        swapped, points = swapped[keep], points[keep]
    counts["crossings_kept"] += swapped.size

    # the kept crossings back on the edge grids, NaN where an edge has none
    at = np.full(len(va), complex(np.nan))
    at[swapped] = points
    pts_h, pts_v = (np.full(m.shape, complex(np.nan)) for m in candidates)
    pts_h[candidates[0]], pts_v[candidates[1]] = np.split(
        at, [np.count_nonzero(candidates[0])])

    # collect the crossing points cell by cell and connect pairs; a cell's
    # edges are its bottom, top, left and right
    cell_pts = (pts_h[:-1], pts_h[1:], pts_v[:, :-1], pts_v[:, 1:])
    cell_found = [~np.isnan(p) for p in cell_pts]
    segments = []
    for iy, ix in zip(*np.nonzero(sum(f.astype(int) for f in cell_found) >= 2)):
        cell = [p[iy, ix] for f, p in zip(cell_found, cell_pts) if f[iy, ix]]
        if len(cell) == 2:
            segments.append((cell[0], cell[1]))
        else:
            cell = sorted(cell, key=lambda p: (p.real, p.imag))
            while len(cell) >= 2:
                p0 = cell.pop(0)
                nearest = min(range(len(cell)), key=lambda i: abs(cell[i] - p0))
                segments.append((p0, cell.pop(nearest)))
    return [Arc(label, r, line)
            for line in _assemble_polylines(segments, scan.h * 1e-6)]


def _unit_side(mods: np.ndarray, a: int, slack) -> np.ndarray:
    """Rows of an (n, 2L) sorted-moduli stack that meet the unit-modulus side
    conditions of the rank-r Lambda definition, each loosened by slack."""
    keep = ~(mods[:, a] < 1.0 - UNIT_COND_TOL - slack)
    if a >= 1:
        keep &= ~(mods[:, a - 1] > 1.0 + UNIT_COND_TOL + slack)
    return keep


def lambda_open(scan: ScanGrid) -> List[Arc]:
    """|z_L| = |z_{L+1}| arcs (1-based), the open-boundary limit curve."""
    L = scan.L
    return _lambda_pair_arcs(scan, L - 1, L, "Lambda", None)


def lambda_r(scan: ScanGrid, r: int) -> List[Arc]:
    """|z_{L-r}| = |z_{L-r+1}| >= 1 arcs with |z_{L-r-1}| <= 1 (1-based);
    empty by definition at r = L."""
    L = scan.L
    if not 0 <= r <= L:
        raise ValueError("0 <= r <= L required")
    if r == L:
        return []
    return _lambda_pair_arcs(scan, L - r - 1, L - r, "Lambda_r", r,
                             point_filter=_unit_side)


# ---------------------------------------------------------------------------
# outliers


def refine_zeros(q: Callable[[np.ndarray], np.ndarray], seeds, h0: float,
                 scale: float = 1.0, max_iter: int = 50
                 ) -> Tuple[List[Tuple[complex, float, str]], int, int]:
    """Newton iterations with a central-difference derivative, run in
    lockstep over the seeds: each round makes one stacked q call on z + h
    and z - h of the live seeds, and one on their stepped z.

    q maps a flat energy array to complex values row by row. A seed's result
    does not depend on the other seeds: numpy's elementwise complex
    operations give each element the same bits at any array length and
    position, and q's rows do not depend on the stack either.

    Returns ([(point, |q(point)|, status)] per seed, rounds, q rows
    evaluated); unconverged seeds are reported, not discarded.
    """
    seeds = np.array(seeds, dtype=np.complex128)
    if seeds.size == 0:
        return [], 0, 0
    tol = 1e-12 * scale
    z, h = seeds.copy(), np.full(seeds.size, float(h0))
    fz = np.array(q(z), dtype=np.complex128)
    rows, rounds, live = seeds.size, 0, np.arange(seeds.size)
    while live.size and rounds < max_iter:
        rounds += 1
        # a seed stops when converged or at an invalid evaluation
        # (degenerate spectrum, overflow), which is reported unconverged
        live = live[np.isfinite(z[live]) & np.isfinite(fz[live])
                    & ~(np.abs(fz[live]) < tol)]
        if not live.size:
            break
        around = q(np.concatenate([z[live] + h[live], z[live] - h[live]]))
        rows += 2 * live.size
        with np.errstate(invalid="ignore", over="ignore"):
            df = (around[:live.size] - around[live.size:]) / (2 * h[live])
            nonzero = df != 0
            flat, moved = live[~nonzero], live[nonzero]
            step = fz[moved] / df[nonzero]
            z[moved] -= step
            size = np.abs(step)
        # a zero derivative halves h; the seed stops once h < 1e-13
        h[flat] *= 0.5
        if moved.size:
            fz[moved] = q(z[moved])
            rows += moved.size
        going = ~(size < 1e-13)
        h[moved[going]] = np.maximum(
            np.minimum(h[moved[going]], 0.5 * size[going] + 1e-12), 1e-9)
        live = np.concatenate([flat[~(h[flat] < 1e-13)], moved[going]])
    invalid = ~(np.isfinite(z) & np.isfinite(fz))
    residual = np.where(invalid, np.inf, np.abs(fz))
    status = np.where(residual < tol, "converged", "unconverged")
    return (list(zip(np.where(invalid, seeds, z).tolist(), residual.tolist(),
                     status.tolist())), rounds, rows)


def refine_zero(f: Callable[[complex], complex], seed: complex,
                h0: float, scale: float = 1.0,
                max_iter: int = 50) -> Tuple[complex, float, str]:
    """The one-seed row of ``refine_zeros``, for f mapping one complex to
    complex: (point, |f(point)|, status)."""
    def q(energies: np.ndarray) -> np.ndarray:
        return np.array([f(complex(E)) for E in energies], dtype=np.complex128)

    return refine_zeros(q, [seed], h0, scale, max_iter)[0][0]


def _local_minima_mask(mag: np.ndarray, valid: np.ndarray,
                       threshold: float) -> np.ndarray:
    ny, nx = mag.shape
    padded = np.full((ny + 2, nx + 2), np.inf)
    padded[1:-1, 1:-1] = np.where(valid, mag, np.inf)
    center = padded[1:-1, 1:-1]
    is_min = np.ones((ny, nx), dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            # strict: a constant plateau (e.g. q identically 1 where the
            # dominant index set is empty) must not seed anything
            is_min &= center < padded[1 + dy:ny + 1 + dy, 1 + dx:nx + 1 + dx]
    # the inf padding would promote every boundary node; keep interior only
    is_min[0, :] = is_min[-1, :] = False
    is_min[:, 0] = is_min[:, -1] = False
    return is_min & valid & (mag < threshold)


def _refine_outliers(scan: ScanGrid, q: Callable[[np.ndarray], np.ndarray],
                     label: str, arcs: Sequence[Arc],
                     q_field: Optional[np.ndarray]) -> List[Outlier]:
    """Newton-refined zeros of q, seeded from the minima of its |q| grid
    field, solved here when not given; q maps a flat energy array to complex
    values, NaN where invalid. Seeds, Newton's work and every rejection add
    to ``scan.newton_counts``."""
    if q_field is None:
        q_field = np.abs(q(scan.energies.ravel())).reshape(scan.energies.shape)
    valid = scan.valid
    finite = q_field[valid & np.isfinite(q_field)]
    if finite.size == 0:
        return []
    scale = float(np.median(finite))
    threshold = SEED_FACTOR * float(np.quantile(finite, SEED_QUANTILE))
    seeds = scan.energies[_local_minima_mask(q_field, valid, threshold)]
    results, rounds, rows = refine_zeros(q, seeds, scan.h / 10, scale=scale)
    counts = scan.newton_counts
    counts["newton_seeds"] += seeds.size
    counts["newton_rounds"] += rounds
    counts["newton_q_rows"] += rows
    region, h = scan.region, scan.h
    arc_points = _all_points(arcs)
    outliers: List[Outlier] = []
    for point, residual, status in results:
        if not (region.re_min - h <= point.real <= region.re_max + h
                and region.im_min - h <= point.imag <= region.im_max + h):
            # left the scan window: either a zero outside scope or a diverged
            # Newton run from a shallow minimum; not a reportable outlier
            rejected = "out_of_region"
        # residual and exclusion filters apply regardless of Newton status;
        # "unconverged" then only marks points that reached the residual bar
        # without meeting the step criterion
        elif residual > ACCEPT_RESIDUAL * scale:
            rejected = "residual"
        elif (arc_points.size and np.min(np.abs(arc_points - point))
              <= EXCLUSION_FACTOR * h):
            rejected = "exclusion"
        elif any(abs(point - o.point) < h / 10 for o in outliers):
            rejected = "duplicate"
        else:
            outliers.append(Outlier(label, point, residual, status))
            continue
        counts["newton_rejected_" + rejected] += 1
    return outliers


def q_open(coeffs: CoefficientTriple, C) -> Callable[..., np.ndarray]:
    """Flat energy array -> the dominant open-boundary q, q_hat over the
    0-based index set {L, ..., 2L-1}; NaN at degenerate energies. A given
    ``triple`` (the ``ordered_eig`` result at those energies) stands in for
    the eigensolve."""
    members = range(coeffs.L, 2 * coeffs.L)

    def q(energies: np.ndarray, triple=None) -> np.ndarray:
        _, right, left_rows, degenerate = (
            ordered_eig(coeffs, energies) if triple is None else triple)
        return corner_q(right, left_rows, degenerate, energies, C,
                        [members])[:, 0]

    return q


def q_perturbed_dominant(coeffs: CoefficientTriple,
                         boundary: BoundaryTriple) -> Callable[..., np.ndarray]:
    """Flat energy array -> q_perturbed over each energy's dominant index
    set (r = rank(A)); NaN at degenerate energies. ``triple`` as in
    ``q_open``."""

    def q(energies: np.ndarray, triple=None) -> np.ndarray:
        values, right, left_rows, degenerate = (
            ordered_eig(coeffs, energies) if triple is None else triple)
        # group energies by dominant set and evaluate q per group
        dominant = dominant_set(np.abs(values), boundary.rank_A)
        codes = dominant.dot(1 << np.arange(2 * coeffs.L))
        out = np.empty(len(values), dtype=np.complex128)
        for code in np.unique(codes):
            sel = codes == code
            members = np.flatnonzero(dominant[np.argmax(sel)])
            out[sel] = corner_q(right[sel], left_rows[sel], degenerate[sel],
                                energies[sel], boundary, [members])[:, 0]
        return out

    return q


def outliers_open(coeffs: CoefficientTriple, C, scan: ScanGrid,
                  arcs: Optional[Sequence[Arc]] = None,
                  q_field: Optional[np.ndarray] = None) -> List[Outlier]:
    """Zeros of the dominant open-boundary q-function off the Lambda arcs;
    ``q_field`` is its |q| over the scan nodes, when already computed. A
    scan's own ``q_field`` is never read here: it may be another q's."""
    if arcs is None:
        arcs = lambda_open(scan)
    q = q_open(coeffs, C)
    return _refine_outliers(scan, q, "Gamma_C", arcs, q_field)


def outliers_perturbed(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                       scan: ScanGrid,
                       arcs: Optional[Sequence[Arc]] = None,
                       q_field: Optional[np.ndarray] = None) -> List[Outlier]:
    """Zeros of q over the energy-dependent dominant index set, off the
    Sigma_r and Lambda_r arcs; ``q_field`` as in ``outliers_open``."""
    if arcs is None:
        arcs = sigma_r(scan, boundary.rank_A) + lambda_r(scan, boundary.rank_A)
    q = q_perturbed_dominant(coeffs, boundary)
    return _refine_outliers(scan, q, "Gamma_r", arcs, q_field)


STAGES = ("scan", "sigma", "lambda", "newton")


@contextmanager
def _stage(timings: Dict[str, float], name: str):
    """Adds the perf_counter seconds of the block to timings[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] += time.perf_counter() - start


def check_rank(coeffs: CoefficientTriple, boundary: Optional[BoundaryTriple],
               r: Optional[int]) -> None:
    """Refuses a perturbation rank the pipeline would not read: ``r`` sets
    Sigma_r and Lambda_r only for a perturbed corner, and lies in 0..L."""
    if r is None:
        return
    if boundary is None or boundary.classify(coeffs) in (
            "circulant", "open", "boundary"):
        raise ValueError("r applies only to a perturbed corner")
    if not 0 <= r <= coeffs.L:
        raise ValueError(f"r must lie in 0..{coeffs.L}, got {r}")


def compute_limit_sets(coeffs: CoefficientTriple,
                       boundary: Optional[BoundaryTriple],
                       region: Region, nx: int, ny: int, r: Optional[int] = None,
                       workers: Optional[int] = None) -> LimitSpectrumResult:
    """One-stop pipeline: scan, arcs and outliers for the given model.

    A circulant corner runs as no corner: its q = +-prod z_j never vanishes,
    so only the Sigma arcs are extracted. The result's ``timings`` holds the
    perf_counter seconds of each stage; a stage the model's case does not
    run reads 0.
    """
    check_rank(coeffs, boundary, r)
    if boundary is not None and boundary.classify(coeffs) == "circulant":
        boundary = None
    timings = dict.fromkeys(STAGES, 0.0)
    L = coeffs.L
    outliers: List[Outlier] = []
    q = None
    if boundary is not None:
        # every other corner case has an outlier stage, whose |q| field the
        # scan computes from its one solve per node
        open_case = boundary.classify(coeffs) in ("open", "boundary")
        q = (q_open(coeffs, boundary.C) if open_case
             else q_perturbed_dominant(coeffs, boundary))
    with _stage(timings, "scan"):
        scan = scan_grid(coeffs, region, nx, ny, workers, q)
    if boundary is None:
        with _stage(timings, "sigma"):
            arcs = sigma_r(scan, L)
    else:
        rr = L if open_case else (boundary.rank_A if r is None else r)
        with _stage(timings, "sigma"):
            sig = sigma_r(scan, rr)
        with _stage(timings, "lambda"):
            lam = lambda_open(scan) if open_case else lambda_r(scan, rr)
        arcs = lam + sig if open_case else sig + lam
        with _stage(timings, "newton"):
            outliers = (
                outliers_open(coeffs, boundary.C, scan, arcs=lam,
                              q_field=scan.q_field) if open_case
                else outliers_perturbed(coeffs, boundary, scan, arcs=arcs,
                                        q_field=scan.q_field))
    metadata = {
        "model_hash": model_hash(coeffs, boundary),
        "region": [region.re_min, region.re_max, region.im_min, region.im_max],
        "nx": nx, "ny": ny, "h": scan.h, "r": r,
        "degeneracy_tol": nk.DEGENERACY_TOL, "tie_tol": TIE_TOL,
        "masked_nodes": int(np.sum(scan.masked)),
        "degenerate_nodes": int(np.sum(scan.degenerate)),
        # nodes against Sigma's single-crossing hypothesis: two ordered
        # moduli within TIE_TOL of 1
        "sigma_tie_nodes": int(np.sum(np.sum(
            np.abs(scan.moduli - 1.0) < TIE_TOL, axis=2) > 1)),
        **scan.detector_counts,
        **scan.newton_counts,
    }
    return LimitSpectrumResult(arcs, outliers, metadata, timings)
