"""Transfer matrices, modulus-ordered spectra and Riesz projections.

The 2L x 2L transfer matrix propagates solution pairs of the three-term
eigenvalue recursion by one site; its eigenvalues z_1(E), ..., z_2L(E), kept
in non-decreasing modulus order, drive every limit-spectrum formula.
"""
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import DegenerateSplit, SingularMatrix
from .numkernel import DEGENERACY_TOL
from .operators import BoundaryTriple, CoefficientTriple

TIE_TOL = 1e-6


def _transfer_stack(energies, diag: np.ndarray, corner: np.ndarray,
                    inv: np.ndarray) -> np.ndarray:
    """[[ (E - diag) inv, -corner ], [ inv, 0 ]] for each entry of a flat
    energy array."""
    energies = np.asarray(energies, dtype=np.complex128)
    L = inv.shape[0]
    out = np.zeros((energies.size, 2 * L, 2 * L), dtype=np.complex128)
    out[:, :L, :L] = (energies[:, None, None] * np.eye(L) - diag) @ inv
    out[:, :L, L:] = -corner
    out[:, L:, :L] = inv
    return out


def transfer_matrices(coeffs: CoefficientTriple, energies) -> np.ndarray:
    """Stacked [[ (E - V) T^{-1}, -R ], [ T^{-1}, 0 ]] over a flat array of
    energies."""
    return _transfer_stack(energies, coeffs.V, coeffs.R, coeffs.Tinv)


def boundary_transfer_matrices(boundary: BoundaryTriple, energies) -> np.ndarray:
    """Same stack as the bulk one, built from (A, B, C)."""
    if boundary.Binv is None:
        raise SingularMatrix("B is singular")
    return _transfer_stack(energies, boundary.C, boundary.A, boundary.Binv)


def transfer_matrix(coeffs: CoefficientTriple, E: complex) -> np.ndarray:
    """The one-energy row of ``transfer_matrices``."""
    return transfer_matrices(coeffs, [E])[0]


def boundary_transfer_matrix(boundary: BoundaryTriple, E: complex) -> np.ndarray:
    """The one-energy row of ``boundary_transfer_matrices``."""
    return boundary_transfer_matrices(boundary, [E])[0]


def modulus_order(values: np.ndarray, tie_tol: float):
    """Row-wise ordering of an (n, m) eigenvalue stack by modulus; within
    modulus ties, by argument in [0, 2pi) then by real part.

    Returns the orderings and (n, m - 1) flags, ``tied[k, i]`` when ordered
    entries i and i + 1 of row k share a modulus. Tie detection scales with
    the pair's own modulus, not the global maximum, so widely separated
    decaying/growing branches never collapse into one group at large energy.
    """
    moduli = np.abs(values)
    order = np.argsort(moduli, axis=1, kind="stable")
    m = np.take_along_axis(moduli, order, axis=1)
    tied = ~(np.diff(m, axis=1) > tie_tol * (1.0 + m[:, 1:]))
    rows = np.flatnonzero(tied.any(axis=1))
    if rows.size:
        sub = order[rows]
        v = np.take_along_axis(values[rows], sub, axis=1)
        group = np.cumsum(np.pad(~tied[rows], ((0, 0), (1, 0))), axis=1)
        args = np.mod(np.angle(v), 2 * np.pi)
        resort = np.lexsort((v.real, args, group), axis=1)
        order[rows] = np.take_along_axis(sub, resort, axis=1)
    return order, tied


def ordered_eig(coeffs: CoefficientTriple, energies, tie_tol: float):
    """Modulus-ordered eigen-triples of the transfer matrices at a flat array
    of energies: values (n, 2L), right vector columns and biorthogonal left
    rows (n, 2L, 2L), and the tie flags of ``modulus_order``."""
    # the stack is built in the call, so it is freed before the inverse below
    values, right = nk.eig_stack(transfer_matrices(coeffs, energies))
    # inverting before the reorder gives exactly the left rows of
    # nk.eigenpairs, permuted, rather than a re-rounded inverse
    left_rows = nk.biorthogonal_rows(right)
    order, tied = modulus_order(values, tie_tol)
    values = np.take_along_axis(values, order, axis=1)
    right = np.take_along_axis(right, order[:, None, :], axis=2)
    left_rows = np.take_along_axis(left_rows, order[:, :, None], axis=1)
    return values, right, left_rows, tied


@dataclass(frozen=True)
class TransferSpectrum:
    """Modulus-ordered eigendata of the transfer matrix at one energy."""
    energy: complex
    values: np.ndarray          # (2L,), |z_j| non-decreasing
    right_vectors: np.ndarray   # (2L, 2L) columns, aligned to the ordering
    left_rows: np.ndarray       # (2L, 2L) rows, biorthogonal to the columns
    moduli: np.ndarray
    degenerate: bool
    tie_groups: Tuple[Tuple[int, ...], ...]
    degeneracy_tol: float = DEGENERACY_TOL

    @property
    def L(self) -> int:
        return self.values.size // 2

    def degeneracy_clusters(self, tol: Optional[float] = None) -> list:
        """Index clusters of nearly equal eigenvalues (chains of close pairs)."""
        n = self.values.size
        reach = nk.close_pairs(self.values, self.degeneracy_tol if tol is None
                               else tol) | np.eye(n, dtype=bool)
        for _ in range(n.bit_length()):   # transitive closure by squaring
            reach = (reach.astype(int) @ reach) > 0
        clusters = {tuple(np.flatnonzero(row).tolist()) for row in reach}
        return sorted(c for c in clusters if len(c) > 1)


def ordered_spectrum(coeffs: CoefficientTriple, E: complex,
                     degeneracy_tol: float = DEGENERACY_TOL,
                     tie_tol: float = TIE_TOL) -> TransferSpectrum:
    """Eigendecomposition of the transfer matrix, modulus-ordered: the
    one-energy row of ``ordered_eig``."""
    values, right, left_rows, tied = (
        a[0] for a in ordered_eig(coeffs, [E], tie_tol))
    edges = [0, *(np.flatnonzero(~tied) + 1).tolist(), values.size]
    tie_groups = tuple(tuple(range(a, b)) for a, b in zip(edges, edges[1:])
                       if b - a > 1)
    degenerate = bool(np.any(nk.close_pairs(values, degeneracy_tol)))
    return TransferSpectrum(E, values, right, left_rows, np.abs(values),
                            degenerate, tie_groups, degeneracy_tol)


def _check_split(spec: TransferSpectrum, members: Sequence[int],
                 allow_tie_split: bool) -> None:
    mem = set(members)
    for cluster in spec.degeneracy_clusters():
        inside = mem.intersection(cluster)
        if inside and len(inside) < len(cluster):
            raise DegenerateSplit(
                f"index set splits degenerate cluster {cluster} at E = {spec.energy}")
    if not allow_tie_split:
        for group in spec.tie_groups:
            inside = mem.intersection(group)
            if inside and len(inside) < len(group):
                raise DegenerateSplit(
                    f"index set splits modulus tie group {group} at E = {spec.energy}")


def riesz_projections(right: np.ndarray, left_rows: np.ndarray,
                      members: Sequence[int]) -> np.ndarray:
    """Spectral projectors onto the selected branches (0-based indices into
    the modulus ordering) of (n, 2L, 2L) right-column and left-row stacks.
    Member columns are selected: a 0/1 mask would round differently."""
    idx = np.array(sorted(set(int(i) for i in members)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= right.shape[-1]):
        raise ValueError(f"branch indices out of range: {idx.tolist()}")
    return right[:, :, idx] @ left_rows[:, idx, :]


def riesz_projection(spec: TransferSpectrum, members: Sequence[int],
                     allow_tie_split: bool = False) -> np.ndarray:
    """One-row case of ``riesz_projections`` that refuses to split a
    degenerate cluster, or a modulus tie group unless allowed; equals the
    contour-integral Riesz projection for simple spectrum."""
    P = riesz_projections(spec.right_vectors[None], spec.left_rows[None],
                          members)[0]
    _check_split(spec, members, allow_tie_split)
    return P


def riesz_projection_contour(coeffs: CoefficientTriple, E: complex,
                             center: complex, radius: float,
                             nodes: int = 512) -> np.ndarray:
    """Trapezoid-rule contour integral of the resolvent on a circle.

    Retained as a cross-check of the eigenvector construction.
    """
    M = transfer_matrix(coeffs, E)
    n = M.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    acc = np.zeros((n, n), dtype=np.complex128)
    for k in range(nodes):
        zk = center + radius * np.exp(2j * np.pi * k / nodes)
        acc += (zk - center) * np.linalg.inv(zk * eye - M)
    return acc / nodes


def _optimal_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of a square cost
    matrix, by shortest augmenting paths (Crouse, IEEE Trans. Aerosp.
    Electron. Syst. 52, 2016) with the search order, tie-breaking and
    arithmetic of scipy's ``linear_sum_assignment``, so both return the same
    assignment also among equal-cost optima. Written out rather than
    imported: importing ``scipy.optimize`` adds 11-22 MB of resident memory
    (less when other scipy modules are already loaded) and about 70 ms of
    start-up to every run, more than a 64 x 64 limit-set run allocates."""
    n = cost.shape[0]
    c = cost.tolist()
    inf = float("inf")
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        short = [inf] * n
        seen_rows, seen_cols = [False] * n, [False] * n
        # reverse order: a constant cost matrix gives the identity
        remaining = list(range(n - 1, -1, -1))
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            seen_rows[i] = True
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                reduced = min_val + c[i][j] - u[i] - v[j]
                if reduced < short[j]:
                    path[j], short[j] = i, reduced
                # among equal costs prefer a free column, which ends the path
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    index, lowest = it, short[j]
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(n):
            if seen_rows[i] and i != cur:
                u[i] += min_val - short[col4row[i]]
        for j in range(n):
            if seen_cols[j]:
                v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row)


def match_branches(values_a: np.ndarray, values_b: np.ndarray) -> np.ndarray:
    """Permutation pi with z_i(A) -> z_pi[i](B), minimizing total displacement
    by optimal assignment, row by row over (n, m) stacks; one (m,) pair gives
    one (m,) permutation.

    Where the nearest-neighbour map is a bijection with a strict minimum in
    every row of the cost, each term sits at its own minimum, so that map is
    the unique optimal assignment; every other row goes to
    ``_optimal_assignment``.
    """
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    single = values_a.ndim == 1
    a, b = np.atleast_2d(values_a), np.atleast_2d(values_b)
    # row by row, so no complex (n, m, m) difference stack is held
    cost = np.empty(a.shape + a.shape[1:])
    for i in range(a.shape[1]):
        cost[:, i] = np.abs(a[:, i, None] - b)
    perm = np.argmin(cost, axis=2)
    best = np.take_along_axis(cost, perm[:, :, None], axis=2)
    unique = (np.sum(cost == best, axis=2) == 1).all(axis=1)
    bijective = (np.sort(perm, axis=1) == np.arange(a.shape[1])).all(axis=1)
    for k in np.flatnonzero(~(unique & bijective)):
        perm[k] = _optimal_assignment(cost[k])
    return perm[0] if single else perm
