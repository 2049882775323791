"""Z-factors, q-functions and the determinant identities they assemble.

Three routes to det(H_N - E) are provided: the circulant closed form via a
transfer-matrix power, the open/boundary sum over index sets of cardinality L,
and the generalized sum for an invertible-B corner perturbation. All three are
pinned against the dense brute-force determinant in the tests.

Index sets are 0-based subsets of {0, ..., 2L-1} into the modulus ordering.
The q functions take all index sets of one spectrum in one stacked call, NaN
on a degenerate spectrum, where the Widom sums raise DegenerateSplit.
"""
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import DegenerateSplit
from .operators import BoundaryTriple, CoefficientTriple
from .transfer import (MEMO_SIZE, TransferSpectrum, boundary_transfer_matrices,
                       boundary_transfer_matrix, ordered_spectrum,
                       set_projections, size_groups, transfer_matrix)

POWER_NORM_LIMIT = 1e120


@dataclass(frozen=True)
class WidomSum:
    energy: complex
    N: int
    total: complex
    # (index set, Z_I^power, q value, contribution incl. global prefactor)
    terms: Tuple[Tuple[Tuple[int, ...], complex, complex, complex], ...]
    dominant: Tuple[int, ...]


def index_sets(n: int, sizes: Iterable[int]) -> List[Tuple[int, ...]]:
    """The k-subsets of range(n) for each k of ``sizes`` in turn, each in
    lexicographic order; computed once per (n, sizes), returned as a fresh
    list."""
    return list(_index_sets(n, tuple(sizes)))


@lru_cache(maxsize=MEMO_SIZE)
def _index_sets(n: int, sizes: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(I for k in sizes for I in combinations(range(n), k))


def z_factors(spec: TransferSpectrum, sets: Sequence[Sequence[int]],
              detT: complex) -> List[complex]:
    """Z_I = (-1)^L det(T) * prod of the selected eigenvalues, one product per
    set size; the empty product is 1, as the oracle suite pins."""
    zs = [0j] * len(sets)
    factor = (-1) ** spec.L * detT
    for rows, idx in size_groups(sets, spec.values.size):
        for r, prod in zip(rows.tolist(),
                           np.prod(spec.values[idx], axis=1).tolist()):
            zs[r] = factor * prod
    return zs


def z_factor(spec: TransferSpectrum, members: Sequence[int], detT: complex) -> complex:
    """The one-set row of ``z_factors``."""
    return z_factors(spec, [members], detT)[0]


def _q_rows(spec: TransferSpectrum, sets: Sequence[Sequence[int]],
            q_stack) -> np.ndarray:
    """``q_stack`` of the sets' projections, all NaN if ``spec.degenerate``."""
    if spec.degenerate:
        return np.full(len(sets), complex(np.nan))
    return q_stack(set_projections(spec.right_vectors, spec.left_rows, sets))


def q_tilde(spec: TransferSpectrum, members: Sequence[int]) -> complex:
    """det of the lower-left L x L block of the Riesz projection."""
    L = spec.L
    return complex(_q_rows(spec, [members],
                           lambda G: np.linalg.det(G[:, L:, :L]))[0])


def q_hat_stack(proj: np.ndarray, energies, C) -> np.ndarray:
    """det_L of the bottom-left L x L block of proj @ M_bd, M_bd = [[E - C,
    -1], [1, 0]], over (n, 2L, 2L) (windowed) projections at n energies."""
    energies = np.asarray(energies, dtype=np.complex128)
    L = proj.shape[-1] // 2
    # M_bd @ [1; 0] = [E - C; 1]
    col = np.zeros((energies.size, 2 * L, L), dtype=np.complex128)
    col[:, :L] = energies[:, None, None] * np.eye(L) - C
    col[:, L:] = np.eye(L)
    return np.linalg.det((proj @ col)[:, L:, :])


def q_perturbed_stack(proj: np.ndarray, Tbd: np.ndarray) -> np.ndarray:
    """det_2L(R_I T_bd - R_{I^c}) over (n, 2L, 2L) R_I and T_bd stacks."""
    eye = np.eye(proj.shape[-1], dtype=np.complex128)
    return np.linalg.det(proj @ Tbd - (eye[None] - proj))


Window = Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]


def q_hat_sets(spec: TransferSpectrum, C: np.ndarray,
               sets: Sequence[Sequence[int]],
               window: Optional[Window] = None) -> np.ndarray:
    """det_L of the bottom-left L x L corner of W_ri R_I W_le M_bd for each
    index set I, in one ``q_hat_stack`` call. ``window`` optionally supplies
    ([T_ri_1..T_ri_K], [T_le_1..T_le_K]) for perturbations a finite distance
    from the boundary; products are applied as T_K ... T_1."""
    def q(G):
        ri, le = window if window is not None else ((), ())
        for t in ri:
            G = t @ G
        for t in reversed(le):
            G = G @ t
        return q_hat_stack(G, np.full(len(sets), spec.energy), C)
    return _q_rows(spec, sets, q)


def q_hat(spec: TransferSpectrum, C: np.ndarray, members: Sequence[int],
          window: Optional[Window] = None) -> complex:
    """The one-set row of ``q_hat_sets``."""
    return complex(q_hat_sets(spec, C, [members], window)[0])


def q_perturbed_sets(spec: TransferSpectrum, boundary: BoundaryTriple,
                     sets: Sequence[Sequence[int]]) -> np.ndarray:
    """det_2L(R_I T_bd - R_{I^c}) for each index set I, in one
    ``q_perturbed_stack`` call; exact 0 once |I| > L + rank(A)."""
    q = _q_rows(spec, sets, lambda G: q_perturbed_stack(
        G, boundary_transfer_matrices(boundary, [spec.energy])))
    if not spec.degenerate:
        q[[len(I) > spec.L + boundary.rank_A for I in sets]] = 0
    return q


def q_perturbed(spec: TransferSpectrum, boundary: BoundaryTriple,
                members: Sequence[int]) -> complex:
    """The one-set row of ``q_perturbed_sets``."""
    return complex(q_perturbed_sets(spec, boundary, [members])[0])


def _matrix_power(m: np.ndarray, n: int) -> np.ndarray:
    """Binary exponentiation with an overflow guard on the entry norm."""
    result = np.eye(m.shape[0], dtype=np.complex128)
    base = m.copy()
    k = n
    while k > 0:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
        if np.max(np.abs(result)) > POWER_NORM_LIMIT:
            raise OverflowError("transfer-matrix power overflows double range")
    return result


def transfer_recursion_residual(coeffs: CoefficientTriple,
                                boundary: BoundaryTriple, N: int, E: complex,
                                phi: np.ndarray) -> float:
    """Residual of the chained transfer relations on an eigenvector phi of
    the assembled operator, relative to ||phi||.

    The chain runs [T phi_2; phi_1] = [[E - C, -A], [1, 0]] [phi_1; phi_N],
    then [T phi_{n+1}; phi_n] = T^E [T phi_n; phi_{n-1}] through the bulk,
    then [B phi_1; phi_N] = T^E [T phi_N; phi_{N-1}]. Each link is a single
    matrix application, so the residual is free of the power-amplified
    roundoff that the collapsed (T^E)^{N-1} form would pick up. The N links,
    the closing one last, form one (N, 2L) stack, checked row by row against
    the corner link and T^E applied to the link before.
    """
    L = coeffs.L
    phi = np.asarray(phi, dtype=np.complex128).reshape(N, L)
    norm = float(np.linalg.norm(phi))
    if norm == 0.0:
        raise ValueError("zero vector")
    TE = transfer_matrix(coeffs, E)
    links = np.concatenate([phi[1:] @ coeffs.T.T, phi[:-1]], axis=1)
    corner = np.concatenate([(E * np.eye(L) - boundary.C) @ phi[0]
                             - boundary.A @ phi[N - 1], phi[0]])
    closing = np.concatenate([boundary.B @ phi[0], phi[N - 1]])
    gaps = np.vstack([links, closing]) - np.vstack([corner, links @ TE.T])
    return float(np.max(np.linalg.norm(gaps, axis=1))) / norm


def charpoly_circulant(coeffs: CoefficientTriple, N: int, E: complex) -> complex:
    """(-1)^{L(N-1)} det(T)^N det((T^E)^N - 1).

    The determinant factor is evaluated as prod_j (z_j^N - 1) over the
    transfer eigenvalues; this equals det of the matrix power exactly but
    avoids the roundoff the explicit power accumulates at large energies.
    """
    L = coeffs.L
    TE = transfer_matrix(coeffs, E)
    z = np.linalg.eigvals(TE)
    return ((-1) ** (L * (N - 1)) * coeffs.detT ** N
            * complex(np.prod(z ** N - 1)))


def charpoly_semipermeable(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                           N: int, E: complex) -> complex:
    """(-1)^{L(N-1)} det(B) det(T)^{N-1} det((T^E)^{N-1} T^E_bd - 1).

    Independent route to the perturbed determinant (B invertible), used as an
    additional cross-check of the index-set sum.
    """
    L = coeffs.L
    TE = transfer_matrix(coeffs, E)
    Tbd = boundary_transfer_matrix(boundary, E)
    power = _matrix_power(TE, N - 1)
    return ((-1) ** (L * (N - 1)) * boundary.detB * coeffs.detT ** (N - 1)
            * nk.determinant(power @ Tbd - np.eye(2 * L, dtype=np.complex128)))


def _compensated_total(contribs: List[complex]) -> complex:
    return complex(math.fsum(c.real for c in contribs),
                   math.fsum(c.imag for c in contribs))


def _assemble_sum(spec: TransferSpectrum, N: int, sets: List[Tuple[int, ...]],
                  z_power: int, qvals: List[complex], detT: complex,
                  prefactor: complex) -> WidomSum:
    zs = z_factors(spec, sets, detT)
    order = sorted(range(len(sets)), key=lambda i: -abs(zs[i]))
    terms = []
    contribs = []
    for i in order:
        zp = zs[i] ** z_power
        contrib = prefactor * zp * qvals[i]
        terms.append((sets[i], zp, qvals[i], contrib))
        contribs.append(contrib)
    total = _compensated_total(contribs)
    dominant = sets[order[0]] if order else ()
    return WidomSum(spec.energy, N, total, tuple(terms), dominant)


def widom_sum_open(coeffs: CoefficientTriple, C: np.ndarray, N: int, E: complex,
                   window=None) -> WidomSum:
    """det(H_N(0,0,C) - E) as the sum over |I| = L of Z_I^N q_hat_I."""
    spec = ordered_spectrum(coeffs, E)
    if spec.degenerate:
        raise DegenerateSplit(f"E = {E} lies in a degeneracy band")
    L = coeffs.L
    sets = index_sets(2 * L, [L])
    qvals = q_hat_sets(spec, C, sets, window).tolist()
    return _assemble_sum(spec, N, sets, N, qvals, coeffs.detT, 1.0 + 0j)


def widom_sum_perturbed(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                        N: int, E: complex) -> WidomSum:
    """det(H_N(A,B,C) - E) as det(B) * sum over |I| <= L + rank(A) of
    Z_I^{N-1} q_I."""
    spec = ordered_spectrum(coeffs, E)
    if spec.degenerate:
        raise DegenerateSplit(f"E = {E} lies in a degeneracy band")
    L = coeffs.L
    sets = index_sets(2 * L, range(L + boundary.rank_A + 1))
    qvals = q_perturbed_sets(spec, boundary, sets).tolist()
    return _assemble_sum(spec, N, sets, N - 1, qvals, coeffs.detT,
                         boundary.detB)

