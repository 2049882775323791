"""Z-factors, q-functions and the determinant identities they assemble.

Three routes to det(H_N - E) are provided: the circulant closed form via a
transfer-matrix power, the open/boundary sum over index sets of cardinality L,
and the generalized sum for an invertible-B corner perturbation. All three are
pinned against the dense brute-force determinant in the tests.

Index sets are 0-based subsets of {0, ..., 2L-1} into the modulus ordering.
"""
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import DegenerateSplit
from .operators import BoundaryTriple, CoefficientTriple
from .transfer import (TransferSpectrum, boundary_transfer_matrices,
                       boundary_transfer_matrix, ordered_spectrum,
                       riesz_projections, transfer_matrix)

POWER_NORM_LIMIT = 1e120


@dataclass(frozen=True)
class QEvaluation:
    energy: complex
    members: Tuple[int, ...]
    kind: str                   # "q_tilde" | "q_hat" | "q_perturbed"
    value: Optional[complex]    # None when invalid
    valid: bool


@dataclass(frozen=True)
class WidomSum:
    energy: complex
    N: int
    total: complex
    # (index set, Z_I^power, q value, contribution incl. global prefactor)
    terms: Tuple[Tuple[Tuple[int, ...], complex, complex, complex], ...]
    dominant: Tuple[int, ...]


def index_sets(n: int, sizes: Iterable[int]) -> List[Tuple[int, ...]]:
    out = []
    for k in sizes:
        out.extend(combinations(range(n), k))
    return out


def z_factor(spec: TransferSpectrum, members: Sequence[int], detT: complex) -> complex:
    """Z_I = (-1)^L det(T) * prod of the selected eigenvalues.

    The empty product is 1, so Z for the empty set is (-1)^L det(T); the
    oracle suite pins this convention.
    """
    L = spec.L
    prod = complex(np.prod(spec.values[list(members)])) if members else 1.0 + 0j
    return (-1) ** L * detT * prod


def _invalid(spec, members, kind):
    return QEvaluation(spec.energy, tuple(members), kind, None, False)


def _projection(spec: TransferSpectrum, members: Sequence[int]) -> np.ndarray:
    # without riesz_projection's split check: on a non-degenerate spectrum
    # no two eigenvalues are close, so no degenerate cluster can be split
    return riesz_projections(spec.right_vectors[None], spec.left_rows[None],
                             members)


def q_tilde(spec: TransferSpectrum, members: Sequence[int]) -> QEvaluation:
    """det of the lower-left L x L block of the Riesz projection."""
    if spec.degenerate:
        return _invalid(spec, members, "q_tilde")
    L = spec.L
    P = _projection(spec, members)[0]
    return QEvaluation(spec.energy, tuple(members), "q_tilde",
                       nk.determinant(P[L:, :L]), True)


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


def q_hat(spec: TransferSpectrum, C: np.ndarray, members: Sequence[int],
          window: Optional[Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]] = None
          ) -> QEvaluation:
    """det_L of the bottom-left L x L corner of W_ri R_I W_le M_bd: the
    one-row case of ``q_hat_stack``.

    ``window`` optionally supplies ([T_ri_1..T_ri_K], [T_le_1..T_le_K]) for
    perturbations a finite distance from the boundary; products are applied
    as T_K ... T_1.
    """
    if spec.degenerate:
        return _invalid(spec, members, "q_hat")
    G = _projection(spec, members)[0]
    if window is not None:
        ri, le = window
        for t in ri:
            G = t @ G
        for t in reversed(le):
            G = G @ t
    value = q_hat_stack(G[None], [spec.energy], C)[0]
    return QEvaluation(spec.energy, tuple(members), "q_hat", complex(value), True)


def q_perturbed(spec: TransferSpectrum, boundary: BoundaryTriple,
                members: Sequence[int]) -> QEvaluation:
    """det_2L(R_I T_bd - R_{I^c}); exact 0 once |I| > L + rank(A). The
    one-row case of ``q_perturbed_stack``."""
    if spec.degenerate:
        return _invalid(spec, members, "q_perturbed")
    members = tuple(sorted(members))
    if len(members) > spec.L + boundary.rank_A:
        return QEvaluation(spec.energy, members, "q_perturbed", 0.0 + 0j, True)
    value = q_perturbed_stack(_projection(spec, members),
                              boundary_transfer_matrices(boundary, [spec.energy]))[0]
    return QEvaluation(spec.energy, members, "q_perturbed", complex(value), True)


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
    roundoff that the collapsed (T^E)^{N-1} form would pick up.
    """
    L = coeffs.L
    phi = np.asarray(phi, dtype=np.complex128).reshape(N, L)
    norm = float(np.linalg.norm(phi))
    if norm == 0.0:
        raise ValueError("zero vector")
    TE = transfer_matrix(coeffs, E)

    def pair(top, bottom):
        return np.concatenate([top, bottom])

    corner = pair((E * np.eye(L) - boundary.C) @ phi[0]
                  - boundary.A @ phi[N - 1], phi[0])
    worst = float(np.linalg.norm(pair(coeffs.T @ phi[1], phi[0]) - corner))
    for n in range(1, N - 1):
        step = TE @ pair(coeffs.T @ phi[n], phi[n - 1])
        worst = max(worst, float(np.linalg.norm(
            pair(coeffs.T @ phi[n + 1], phi[n]) - step)))
    closing = TE @ pair(coeffs.T @ phi[N - 1], phi[N - 2])
    worst = max(worst, float(np.linalg.norm(
        pair(boundary.B @ phi[0], phi[N - 1]) - closing)))
    return worst / norm


def charpoly_circulant(coeffs: CoefficientTriple, N: int, E: complex) -> complex:
    """(-1)^{L(N-1)} det(T)^N det((T^E)^N - 1).

    The determinant factor is evaluated as prod_j (z_j^N - 1) over the
    transfer eigenvalues; this equals det of the matrix power exactly but
    avoids the roundoff the explicit power accumulates at large energies.
    """
    L = coeffs.L
    TE = transfer_matrix(coeffs, E)
    detT = nk.determinant(coeffs.T)
    z = np.linalg.eigvals(TE)
    return ((-1) ** (L * (N - 1)) * detT ** N * complex(np.prod(z ** N - 1)))


def charpoly_semipermeable(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                           N: int, E: complex) -> complex:
    """(-1)^{L(N-1)} det(B) det(T)^{N-1} det((T^E)^{N-1} T^E_bd - 1).

    Independent route to the perturbed determinant (B invertible), used as an
    additional cross-check of the index-set sum.
    """
    L = coeffs.L
    TE = transfer_matrix(coeffs, E)
    Tbd = boundary_transfer_matrix(boundary, E)
    detT = nk.determinant(coeffs.T)
    detB = nk.determinant(boundary.B)
    power = _matrix_power(TE, N - 1)
    return ((-1) ** (L * (N - 1)) * detB * detT ** (N - 1)
            * nk.determinant(power @ Tbd - np.eye(2 * L, dtype=np.complex128)))


def _compensated_total(contribs: List[complex]) -> complex:
    return complex(math.fsum(c.real for c in contribs),
                   math.fsum(c.imag for c in contribs))


def _assemble_sum(spec: TransferSpectrum, N: int, sets: List[Tuple[int, ...]],
                  z_power: int, qvals: List[complex], detT: complex,
                  prefactor: complex) -> WidomSum:
    zs = [z_factor(spec, I, detT) for I in sets]
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
                   window=None,
                   spec: Optional[TransferSpectrum] = None) -> WidomSum:
    """det(H_N(0,0,C) - E) as the sum over |I| = L of Z_I^N q_hat_I."""
    if spec is None:
        spec = ordered_spectrum(coeffs, E)
    if spec.degenerate:
        raise DegenerateSplit(f"E = {E} lies in a degeneracy band")
    L = coeffs.L
    detT = nk.determinant(coeffs.T)
    sets = index_sets(2 * L, [L])
    qvals = [q_hat(spec, C, I, window=window).value for I in sets]
    return _assemble_sum(spec, N, sets, N, qvals, detT, 1.0 + 0j)


def widom_sum_perturbed(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                        N: int, E: complex,
                        spec: Optional[TransferSpectrum] = None) -> WidomSum:
    """det(H_N(A,B,C) - E) as det(B) * sum over |I| <= L + rank(A) of
    Z_I^{N-1} q_I."""
    if spec is None:
        spec = ordered_spectrum(coeffs, E)
    if spec.degenerate:
        raise DegenerateSplit(f"E = {E} lies in a degeneracy band")
    L = coeffs.L
    detT = nk.determinant(coeffs.T)
    detB = nk.determinant(boundary.B)
    sets = index_sets(2 * L, range(L + boundary.rank_A + 1))
    qvals = [q_perturbed(spec, boundary, I).value for I in sets]
    return _assemble_sum(spec, N, sets, N - 1, qvals, detT, detB)


def dump_terms(ws: WidomSum, path: str) -> None:
    """CSV dump of the per-index-set contributions, largest |Z| first."""
    with open(path, "w") as fh:
        fh.write("index_set,abs_Z_power,q_re,q_im,contrib_re,contrib_im\n")
        for members, zp, q, contrib in ws.terms:
            label = "|".join(str(i) for i in members) or "empty"
            fh.write(f"{label},{abs(zp):.17g},{q.real:.17g},{q.imag:.17g},"
                     f"{contrib.real:.17g},{contrib.imag:.17g}\n")
