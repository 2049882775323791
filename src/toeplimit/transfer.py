"""Transfer matrices, modulus-ordered spectra, Riesz projections and branch
matching.

The 2L x 2L transfer matrix propagates solution pairs of the three-term
eigenvalue recursion by one site; its eigenvalues z_1(E), ..., z_2L(E), kept
in non-decreasing modulus order, drive every limit-spectrum formula.
"""
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import SingularMatrix
from .operators import BoundaryTriple, CoefficientTriple

TIE_TOL = 1e-6
# entries of each index-set memo (size_groups here, widom.index_sets)
MEMO_SIZE = 256


def _transfer_stack(energies, diag: np.ndarray, corner: np.ndarray,
                    inv: np.ndarray) -> np.ndarray:
    """[[ (E - diag) inv, -corner ], [ inv, 0 ]] for each entry of a flat
    energy array; the blocks are (L, L) or (n, L, L), one row per energy."""
    energies = np.asarray(energies, dtype=np.complex128)
    L = inv.shape[-1]
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


def modulus_order(values: np.ndarray):
    """Row-wise ordering of an (n, m) eigenvalue stack by modulus; within
    modulus ties, by argument in [0, 2pi) then by real part.

    Returns the orderings and (n, m - 1) flags, ``tied[k, i]`` when ordered
    entries i and i + 1 of row k share a modulus within TIE_TOL times the
    larger one. Tie detection scales with the pair's own modulus alone, so
    at large energy neither far-apart decaying/growing branches nor close
    decaying ones, of modulus ~|r_i|/|E|, collapse into one group.
    """
    moduli = np.abs(values)
    order = np.argsort(moduli, axis=1, kind="stable")
    m = np.take_along_axis(moduli, order, axis=1)
    tied = ~(np.diff(m, axis=1) > TIE_TOL * m[:, 1:])
    rows = np.flatnonzero(tied.any(axis=1))
    if rows.size:
        sub = order[rows]
        v = np.take_along_axis(values[rows], sub, axis=1)
        group = np.cumsum(np.pad(~tied[rows], ((0, 0), (1, 0))), axis=1)
        args = np.mod(np.angle(v), 2 * np.pi)
        resort = np.lexsort((v.real, args, group), axis=1)
        order[rows] = np.take_along_axis(sub, resort, axis=1)
    return order, tied


def ordered_eig(coeffs: CoefficientTriple, energies):
    """Modulus-ordered eigen-triples of the transfer matrices at a flat array
    of energies: values (n, 2L), right vector columns and biorthogonal left
    rows (n, 2L, 2L), and the (n,) flags of ``nk.close_pairs``, True where
    the spectrum is degenerate. ``coeffs`` may also hold (n, L, L) stacks
    of R, V and T^{-1}, one row per energy."""
    # the stack is built in the call, so it is freed before the inverse below
    values, right = nk.eig_stack(transfer_matrices(coeffs, energies))
    # inverting before the reorder gives exactly the left rows of
    # nk.eigenpairs, permuted, rather than a re-rounded inverse
    left_rows = nk.biorthogonal_rows(right)
    order = modulus_order(values)[0]
    values = np.take_along_axis(values, order, axis=1)
    right = np.take_along_axis(right, order[:, None, :], axis=2)
    left_rows = np.take_along_axis(left_rows, order[:, :, None], axis=1)
    return values, right, left_rows, np.any(nk.close_pairs(values), axis=(1, 2))


def branch_slopes(coeffs: CoefficientTriple, right: np.ndarray,
                  left_rows: np.ndarray) -> np.ndarray:
    """dz_j/dE = y_j [[T^{-1}, 0], [0, 0]] x_j of each branch (Kato 1966,
    II §2), from the right columns x_j and left rows y_j of ``ordered_eig``:
    (n, 2L), in their order. Only the top-left block of T^E depends on E."""
    L = coeffs.L
    return np.sum((left_rows[:, :, :L] @ coeffs.Tinv)
                  * right[:, :L, :].swapaxes(1, 2), axis=2)


@dataclass(frozen=True)
class TransferSpectrum:
    """Modulus-ordered eigendata of the transfer matrix at one energy."""
    energy: complex
    values: np.ndarray          # (2L,), |z_j| non-decreasing
    right_vectors: np.ndarray   # (2L, 2L) columns, aligned to the ordering
    left_rows: np.ndarray       # (2L, 2L) rows, biorthogonal to the columns
    moduli: np.ndarray
    degenerate: bool            # two eigenvalues within DEGENERACY_TOL

    @property
    def L(self) -> int:
        return self.values.size // 2


def ordered_spectrum(coeffs: CoefficientTriple, E: complex) -> TransferSpectrum:
    """Eigendecomposition of the transfer matrix, modulus-ordered: the
    one-energy row of ``ordered_eig``."""
    values, right, left_rows, degenerate = (
        a[0] for a in ordered_eig(coeffs, [E]))
    return TransferSpectrum(E, values, right, left_rows, np.abs(values),
                            bool(degenerate))


def size_groups(sets: Sequence[Sequence[int]], n: int):
    """Per set size k, in increasing k: the positions of the k-member sets
    in ``sets``, and their sorted distinct members, checked to lie in
    [0, n), as a (positions, k) array; both arrays are read-only intp.

    Computed once per (sets, n): a list or a tuple of sets, and a list or a
    tuple of members, give the same key, and each call returns a fresh
    list."""
    return list(_size_groups(tuple(map(tuple, sets)), n))


@lru_cache(maxsize=MEMO_SIZE)
def _size_groups(sets: Tuple[Tuple[int, ...], ...], n: int):
    idxs = [sorted(set(int(i) for i in I)) for I in sets]
    if any(I and not 0 <= I[0] <= I[-1] < n for I in idxs):
        raise ValueError(f"branch indices out of range: {list(sets)}")
    groups = []
    for k in sorted({len(I) for I in idxs}):
        rows = np.array([r for r, I in enumerate(idxs) if len(I) == k],
                        dtype=np.intp)
        idx = np.array([idxs[r] for r in rows], dtype=np.intp)
        rows.flags.writeable = idx.flags.writeable = False
        groups.append((rows, idx))
    return tuple(groups)


def set_projections(right: np.ndarray, left_rows: np.ndarray,
                    sets: Sequence[Sequence[int]]) -> np.ndarray:
    """(..., n_sets, 2L, 2L) spectral projectors onto the index sets
    (0-based, into the modulus ordering) of a (..., 2L, 2L) right-column
    and left-row pair or stack, one product per set size. Member columns
    are selected: a 0/1 mask would round differently."""
    out = np.empty(right.shape[:-2] + (len(sets),) + right.shape[-2:],
                   np.complex128)
    for rows, idx in size_groups(sets, right.shape[-1]):
        out[..., rows, :, :] = (right[..., :, idx].swapaxes(-3, -2)
                                @ left_rows[..., idx, :])
    return out


def set_projection_slopes(values: np.ndarray, Tinv: np.ndarray,
                          right: np.ndarray, left_rows: np.ndarray,
                          sets: Sequence[Sequence[int]]) -> np.ndarray:
    """dP_I/dE of the projectors of ``set_projections``, stacked alike:
    X (Omega_I o Y M X) Y with M = dT^E/dE = [[T^{-1}, 0], [0, 0]], X the
    right columns, Y the left rows, and Omega_I[a, b] = (chi_b - chi_a) /
    (z_b - z_a) for the member flags chi of I (Kato 1966, II §2). Pairs
    both in or both out of I add nothing, so only gaps across I enter;
    where one vanishes (a degenerate spectrum) the row is not finite."""
    m = right.shape[-1]
    L = m // 2
    chi = np.zeros((len(sets), m))
    for rows, idx in size_groups(sets, m):
        chi[rows[:, None], idx] = 1.0
    across = chi[:, None, :] - chi[:, :, None]
    gap = (values[..., None, :] - values[..., :, None])[..., None, :, :]
    omega = np.where(across != 0, across / gap, 0.0)
    K = (left_rows[..., :, :L] @ Tinv) @ right[..., :L, :]
    return (right[..., None, :, :] @ (omega * K[..., None, :, :])
            @ left_rows[..., None, :, :])


def _optimal_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of a square cost
    matrix, by shortest augmenting paths (Crouse, IEEE Trans. Aerosp.
    Electron. Syst. 52, 2016) with the search order, tie-breaking and
    arithmetic of scipy's ``linear_sum_assignment``, so both return the same
    assignment also among equal-cost optima. Written out rather than
    imported, because the package imports no scipy at all: importing
    ``scipy.optimize`` after ``toeplimit.cli`` adds about 43 MB of resident
    memory and 0.6 s of start-up (2-core x86_64, scipy 1.17), more than a
    64 x 64 limit-set run allocates."""
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
