"""Extraction of limit-spectrum sets from complex-plane grid scans.

The continuous sets are level sets of ordered transfer-eigenvalue moduli:
unit-modulus crossings for the Sigma-type sets, equal-modulus branch
crossings for the Lambda-type sets. Outliers are zeros of the dominant
q-function, Newton-refined from grid minima.
"""
import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import ConvergenceFailure
from .operators import BoundaryTriple, CoefficientTriple
from .transfer import (TIE_TOL, match_branches, modulus_order, ordered_eig,
                       transfer_matrices, transfer_matrix)
from .widom import corner_q

EXCLUSION_FACTOR = 3.0
SEED_QUANTILE = 0.05
SEED_FACTOR = 10.0
ACCEPT_RESIDUAL = 1e-10
UNIT_COND_TOL = 1e-6


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
    # work of the equal-modulus detector, summed over its calls on this grid;
    # with a point filter the candidate counts are taken after its endpoint
    # pre-test, so they cover only the edges that can hold a kept crossing.
    # bisection_evals and tie_flagged_crossings count each (pair, edge) once,
    # when it is first bisected; tie_flagged_crossings counts the bisected
    # crossings whose pair ties the branch below it, before the point filter
    detector_counts: Dict[str, int] = field(init=False, default_factory=lambda: {
        "candidate_edges": 0, "swapped_edges": 0, "bisection_evals": 0,
        "crossings_kept": 0, "tie_flagged_crossings": 0})
    # per branch pair (a, b): the edges the detector has bisected on this
    # grid, as sorted flat edge ids (horizontal edges row-major, then
    # vertical), with each crossing point and its sorted-moduli row
    crossings: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]
                    ] = field(init=False, default_factory=dict)
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

    @cached_property
    def branch_moves(self) -> Tuple[np.ndarray, np.ndarray]:
        """Movement of each branch along each horizontal, then each vertical
        edge, (..., 2L): min_j |v_i(E) - v_j(E')| for branch i. The larger
        of a pair's two is the pair's movement bound; twice it is the slack
        of the pair detector's gap test and of its endpoint pre-test with a
        point filter."""
        moves = []
        for va, vb in _edges(self.values):
            move = np.empty(va.shape)
            for i in range(va.shape[2]):
                move[:, :, i] = np.min(np.abs(va[:, :, i, None] - vb), axis=2)
            moves.append(move)
        return moves[0], moves[1]


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
    flat energy array, with the |q| of each node from the same
    ``ordered_eig`` triple when a q function is given.

    Worker chunks build their own transfer stacks and write into
    preallocated outputs, so a chunk's eigenvectors are dropped when it
    returns. A chunk whose stacked solve fails is solved node by node; a node
    that still fails is masked and keeps zero values, a degenerate flag and
    NaN |q|. Returns (values, degenerate, |q| or None, masked).
    """
    n = energies.size
    values = np.zeros((n, 2 * coeffs.L), dtype=np.complex128)
    degenerate = np.ones(n, dtype=bool)
    q_field = None if q is None else np.full(n, np.nan)
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
    return values, degenerate, q_field, masked


def scan_grid(coeffs: CoefficientTriple, region: Region, nx: int, ny: int,
              workers: Optional[int] = None,
              q: Optional[Callable] = None) -> ScanGrid:
    """Transfer spectra over an nx x ny grid of the region; with a q
    function (``q_open``, ``q_perturbed_dominant``) the scan also computes
    its |q| field from the same solve, so no node is solved twice."""
    if nx < 16 or ny < 16:
        raise ValueError("nx, ny >= 16 required")
    re = np.linspace(region.re_min, region.re_max, nx)
    im = np.linspace(region.im_min, region.im_max, ny)
    h = max(re[1] - re[0], im[1] - im[0])
    energies = (re[None, :] + 1j * im[:, None]).ravel()
    vals, degenerate, q_field, masked = _solve_nodes(coeffs, energies,
                                                     workers, q)
    moduli = np.abs(vals)
    shape = (ny, nx)
    m = 2 * coeffs.L
    return ScanGrid(coeffs, region, re, im, vals.reshape(shape + (m,)),
                    moduli.reshape(shape + (m,)), degenerate.reshape(shape),
                    masked.reshape(shape), float(h),
                    None if q_field is None else q_field.reshape(shape))


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


def _on_unit_circle(mods: np.ndarray, a: int, slack, tol: float) -> np.ndarray:
    """Rows of an (n, 2L) sorted-moduli stack whose pair (a, a + 1) lies
    within tol + slack of the unit circle: the Sigma fold crossings."""
    near = tol + slack
    return ((np.abs(mods[:, a] - 1.0) < near)
            & (np.abs(mods[:, a + 1] - 1.0) < near))


def sigma_r(scan: ScanGrid, r: int) -> List[Arc]:
    """Arcs where some |z_j(E)| = 1 with 1-based crossing index
    j >= L - r + 1.

    Transversal crossings come from one marching-squares pass per admissible
    ordered branch. Fold crossings, where two branches reach the unit circle
    together and the sorted field touches zero without a sign change (the
    scalar slit is the canonical case), come from the equal-modulus pair
    detector filtered to common modulus 1.
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
    on_unit_circle = partial(_on_unit_circle, tol=scan.h / 10)
    for ju in range(max(L - r + 1, 2), 2 * L + 1):
        fold = _lambda_pair_arcs(scan, ju - 2, ju - 1, label, r,
                                 point_filter=on_unit_circle)
        for arc in fold:
            arc.crossing_index = ju
        arcs.extend(fold)
    return arcs


# ---------------------------------------------------------------------------
# Lambda-type arcs (equal-modulus branch crossings)


def _edges(nodal: np.ndarray):
    """(start, end) views of a nodal [iy, ix, ...] array over the horizontal
    edges (ix -> ix + 1), then over the vertical edges (iy -> iy + 1)."""
    return (nodal[:, :-1], nodal[:, 1:]), (nodal[:-1], nodal[1:])


def _bisect_crossings(scan: ScanGrid, a: int, b: int, base: np.ndarray,
                      Ea: np.ndarray, Eb: np.ndarray) -> np.ndarray:
    """Points where the gap |z_a| - |z_b| of the branches continued from
    ``base`` by matching closes along each edge Ea -> Eb, bisected together
    to h/100."""
    rows = np.arange(Ea.size)
    lo, hi = np.zeros(Ea.size), np.ones(Ea.size)
    width = 1.0
    while width > 0.01:  # fraction of the edge length = h/100
        mid = 0.5 * (lo + hi)
        vals = np.linalg.eigvals(transfer_matrices(scan.coeffs,
                                                   Ea + mid * (Eb - Ea)))
        p = match_branches(base, vals)
        gap = np.abs(vals[rows, p[:, a]]) - np.abs(vals[rows, p[:, b]])
        closed = gap <= 0
        lo = np.where(closed, mid, lo)
        hi = np.where(closed, hi, mid)
        width *= 0.5
        scan.detector_counts["bisection_evals"] += Ea.size
    t = 0.5 * (lo + hi)
    return Ea + t * (Eb - Ea)


def _lambda_pair_arcs(scan: ScanGrid, a: int, b: int, label: str,
                      r: Optional[int],
                      point_filter: Optional[Callable] = None) -> List[Arc]:
    """Arcs of |z_a| = |z_b| (0-based consecutive ordered branches) by
    branch-matched edge crossings assembled through cell adjacency.

    ``point_filter(mods, a, slack)`` maps an (n, 2L) stack of sorted moduli
    to the mask of rows kept, each condition loosened by ``slack`` (a scalar
    or one value per row). The crossing points are kept by it at slack 0.
    Before bisecting, an edge is dropped unless one of its endpoint rows
    passes it at slack ``2 * move``, with ``move`` the larger of the two
    branches' ``ScanGrid.branch_moves``: the bound on how far the pair moves
    along the edge that the gap test below also relies on.

    Each (pair, edge) is bisected at most once per grid: the crossing
    points and sorted-moduli rows are kept in ``scan.crossings``, and a
    later call on the pair bisects only the swapped edges new to it.
    """
    counts = scan.detector_counts
    gap = scan.moduli[:, :, b] - scan.moduli[:, :, a]
    candidates = []
    for (ok0, ok1), (g0, g1), (m0, m1), moves in zip(
            _edges(scan.valid), _edges(gap), _edges(scan.moduli),
            scan.branch_moves):
        move = np.maximum(moves[:, :, a], moves[:, :, b])
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
    # bisect only the swapped edges this pair has not met on the grid yet
    edge_ids = np.flatnonzero(np.concatenate([m.ravel() for m in candidates]))
    swapped_ids = edge_ids[swapped]
    known_ids, known_points, known_mods = scan.crossings.get(
        (a, b), (np.empty(0, np.intp), np.empty(0, complex),
                 np.empty((0, 2 * scan.L))))
    new = swapped[~np.isin(swapped_ids, known_ids)]
    energies = scan.energies
    points = _bisect_crossings(scan, a, b, va[new], gather(energies, 0)[new],
                               gather(energies, 1)[new])
    mods = _sorted_moduli(transfer_matrices(scan.coeffs, points))
    if a >= 1:
        counts["tie_flagged_crossings"] += int(np.sum(
            mods[:, a] - mods[:, a - 1] < TIE_TOL * (1 + mods[:, a])))
    ids = np.concatenate([known_ids, edge_ids[new]])
    order = np.argsort(ids)
    ids, points, mods = scan.crossings[(a, b)] = (
        ids[order], np.concatenate([known_points, points])[order],
        np.concatenate([known_mods, mods])[order])
    at_edge = np.searchsorted(ids, swapped_ids)
    points, mods = points[at_edge], mods[at_edge]
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

    q maps a flat energy array to complex values row by row. Each seed keeps
    the control flow and the Python-complex arithmetic of a lone run, so its
    result does not depend on the other seeds (numpy's complex division
    rounds differently from Python's).

    Returns ([(point, |q(point)|, status)] per seed, rounds, q rows
    evaluated); unconverged seeds are reported, not discarded.
    """
    seeds = [complex(s) for s in seeds]
    n = len(seeds)
    if n == 0:
        return [], 0, 0
    z, h = list(seeds), [float(h0)] * n
    fz = [complex(v) for v in q(np.array(z))]
    rows = n
    results: List[Optional[Tuple[complex, float, str]]] = [None] * n
    live, rounds = list(range(n)), 0
    while live and rounds < max_iter:
        rounds += 1
        differentiate = []
        for i in live:
            if not (np.isfinite(z[i]) and np.isfinite(fz[i])):
                # hit an invalid evaluation (degenerate spectrum, overflow);
                # report the seed as unconverged rather than wandering off
                results[i] = (seeds[i], np.inf, "unconverged")
            elif abs(fz[i]) < 1e-12 * scale:
                results[i] = (z[i], abs(fz[i]), "converged")
            else:
                differentiate.append(i)
        m = len(differentiate)
        if m == 0:
            break
        around = q(np.array([z[i] + h[i] for i in differentiate]
                            + [z[i] - h[i] for i in differentiate]))
        rows += 2 * m
        live, moved, steps = [], [], []
        for k, i in enumerate(differentiate):
            df = (complex(around[k]) - complex(around[m + k])) / (2 * h[i])
            if df == 0:
                h[i] *= 0.5
                if not h[i] < 1e-13:
                    live.append(i)
                continue
            step = fz[i] / df
            z[i] = z[i] - step
            moved.append(i)
            steps.append(step)
        if moved:
            stepped = q(np.array([z[i] for i in moved]))
            rows += len(moved)
            for i, step, v in zip(moved, steps, stepped):
                fz[i] = complex(v)
                if not abs(step) < 1e-13:
                    h[i] = max(min(h[i], 0.5 * abs(step) + 1e-12), 1e-9)
                    live.append(i)
    for i in range(n):
        if results[i] is not None:
            continue
        if not (np.isfinite(z[i]) and np.isfinite(fz[i])):
            results[i] = (seeds[i], np.inf, "unconverged")
        else:
            residual = abs(fz[i])
            results[i] = (z[i], residual, "converged"
                          if residual < 1e-12 * scale else "unconverged")
    return results, rounds, rows


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


def _arc_distance(point: complex, arcs: Sequence[Arc]) -> float:
    best = np.inf
    for arc in arcs:
        if arc.points.size:
            best = min(best, float(np.min(np.abs(arc.points - point))))
    return best


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
        elif _arc_distance(point, arcs) <= EXCLUSION_FACTOR * h:
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
