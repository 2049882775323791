"""The generalized Widom determinant det(H_N - E) = c sum_I Z_I^p q_I, with
Z_I = (-1)^L det(T) prod_{i in I} z_i over the modulus-ordered transfer
eigenvalues; its q functions; and the circulant closed form that
cross-checks it. ``widom_logdet`` returns the complex log of the sum at a
flat array of energies, so no power Z_I^p is formed; ``widom_sum_open`` and
``widom_sum_perturbed`` are its one-energy rows. Index sets are 0-based
subsets of {0, ..., 2L-1} into the modulus ordering. ``corner_q`` is the one
q kernel of both corner rules, over energies and index sets at once; the q
functions are NaN on a degenerate spectrum, where the Widom sums raise
DegenerateSplit.
"""
import cmath
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DegenerateSplit
from .operators import BoundaryTriple, CoefficientTriple
from .transfer import (MEMO_SIZE, TransferSpectrum, boundary_transfer_matrices,
                       ordered_eig, set_projection_slopes, set_projections,
                       size_groups, transfer_matrix)


@dataclass(frozen=True)
class WidomSum:
    energy: complex
    N: int
    logdet: complex   # log det(H_N - E); its imaginary part is mod 2 pi

    @property
    def total(self) -> complex:
        """det(H_N - E); OverflowError past the double range."""
        return cmath.exp(self.logdet)


def index_sets(n: int, sizes: Iterable[int]) -> List[Tuple[int, ...]]:
    """The k-subsets of range(n) for each k of ``sizes`` in turn, each in
    lexicographic order; computed once per (n, sizes), returned as a fresh
    list."""
    return list(_index_sets(n, tuple(sizes)))


@lru_cache(maxsize=MEMO_SIZE)
def _index_sets(n: int, sizes: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(I for k in sizes for I in combinations(range(n), k))


def q_tilde(spec: TransferSpectrum, members: Sequence[int]) -> complex:
    """det of the lower-left L x L block of the Riesz projection; NaN on a
    degenerate spectrum."""
    L = spec.L
    P = set_projections(spec.right_vectors, spec.left_rows, [members])
    return complex(np.nan if spec.degenerate else np.linalg.det(P[:, L:, :L])[0])


def corner_q(right: np.ndarray, left_rows: np.ndarray, degenerate, energies,
             corner, sets: Sequence[Sequence[int]],
             derivative=None) -> np.ndarray:
    """The (n, len(sets)) q of each index set at n energies, from their
    ``ordered_eig`` right columns, left rows and degeneracy flags; NaN rows
    at degenerate energies. The corner picks the rule. A top-left block C
    gives q_hat = det_L of the bottom-left block of R_I [[E - C, -1], [1,
    0]]. Corner blocks give q_perturbed = det_2L(R_I T_bd - R_{I^c}), exact
    0 once |I| > L + rank(A): a BoundaryTriple, or its fields L and rank_A
    with (n, L, L) stacks A, C and Binv, one row per energy.

    ``derivative`` = (values, Tinv), the triple's ordered eigenvalues and
    the model's T^{-1}, asks for dq/dE as well: the result is then the
    (2, n, len(sets)) stack of q, with the same bits, and dq. dq is
    Jacobi's formula applied to the matrix G whose det is q, with dG from
    ``set_projection_slopes`` and the E-dependence of the corner's own
    factor; a degenerate row's dq is NaN too."""
    energies = np.asarray(energies, dtype=np.complex128)
    proj = set_projections(right, left_rows, sets)
    L = proj.shape[-1] // 2
    perturbed = hasattr(corner, "Binv")
    if perturbed:
        Tbd = boundary_transfer_matrices(corner, energies)[:, None]
        eye = np.eye(2 * L, dtype=np.complex128)
        G = proj @ Tbd - (eye - proj)
        forced = [len(I) > corner.L + corner.rank_A for I in sets]
    else:
        # det_L of the bottom-left L x L block of R_I M_bd, M_bd = [[E - C,
        # -1], [1, 0]]; M_bd @ [1; 0] = [E - C; 1]
        col = np.zeros((energies.size, 1, 2 * L, L), dtype=np.complex128)
        col[:, :, :L] = energies[:, None, None, None] * np.eye(L) - corner
        col[:, :, L:] = np.eye(L)
        G = (proj @ col)[..., L:, :]
        forced = []
    q = np.linalg.det(G)
    q[:, forced] = 0
    degenerate = np.asarray(degenerate, dtype=bool)
    q[degenerate] = np.nan
    if derivative is None:
        return q
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dproj = set_projection_slopes(*derivative, right, left_rows, sets)
        if perturbed:
            # dT_bd/dE = [[B^{-1}, 0], [0, 0]]
            dG = dproj @ (Tbd + eye)
            dG[..., :L] += proj[..., :L] @ corner.Binv
        else:
            # d[E - C; 1]/dE = [1; 0]
            dG = (dproj @ col)[..., L:, :] + proj[..., L:, :L]
        dq = _det_slope(G, dG)
    dq[:, forced] = 0
    dq[degenerate] = np.nan
    return np.stack([q, dq])


def _det_slope(G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """d det(G) = tr(adj(G) dG) = sum_k det(G with its column k taken from
    dG), over stacks of square G and dG: Jacobi's formula in a form that
    needs no inverse of G, so it holds where G is singular, at a zero of
    q. The sum runs in a fixed order, so a row's bits do not depend on the
    stack."""
    k = G.shape[-1]
    # cols[..., c, :, j] is column j of dG when j == c, else of G
    pick = np.eye(k, dtype=bool)[:, None, :]
    cols = np.where(pick, dG[..., None, :, :], G[..., None, :, :])
    return np.cumsum(np.linalg.det(cols), axis=-1)[..., -1]


def q_sets(spec: TransferSpectrum, corner,
           sets: Sequence[Sequence[int]]) -> np.ndarray:
    """The one-spectrum row of ``corner_q``: q_hat (``corner`` = C) or
    q_perturbed (a BoundaryTriple) of each index set."""
    return corner_q(spec.right_vectors[None], spec.left_rows[None],
                    [spec.degenerate], [spec.energy], corner, sets)[0]


def q_hat(spec: TransferSpectrum, C: np.ndarray,
          members: Sequence[int]) -> complex:
    """The one-set row of ``q_sets`` with a top-left block C."""
    return complex(q_sets(spec, C, [members])[0])


def q_perturbed(spec: TransferSpectrum, boundary: BoundaryTriple,
                members: Sequence[int]) -> complex:
    """The one-set row of ``q_sets`` with a BoundaryTriple."""
    return complex(q_sets(spec, boundary, [members])[0])


def charpoly_circulant(coeffs: CoefficientTriple, N: int, E: complex) -> complex:
    """The complex log of (-1)^{L(N-1)} det(T)^N det((T^E)^N - 1).

    The determinant factor is evaluated as prod_j (z_j^N - 1) over the
    transfer eigenvalues; this equals det of the matrix power exactly but
    avoids the roundoff the explicit power accumulates at large energies.
    A factor with |z_j| > 1 is taken as z_j^N (1 - z_j^{-N}) and one with
    |z_j| <= 1 as -(1 - z_j^N), so no power of modulus above 1 is formed.
    """
    L = coeffs.L
    z = np.linalg.eigvals(transfer_matrix(coeffs, E))
    outer = np.abs(z) > 1
    w = np.where(outer, 1 / z, z)
    # (-1)^{L(N-1)}, and -1 per factor with |z_j| <= 1
    sign = (L * (N - 1) + np.count_nonzero(~outer)) % 2
    with np.errstate(divide="ignore"):
        return complex(N * np.log(coeffs.detT) + N * np.sum(np.log(z[outer]))
                       + np.sum(np.log1p(-w ** N)) + 1j * np.pi * sign)


def widom_logdet(coeffs: CoefficientTriple, corner, N: int,
                 energies) -> np.ndarray:
    """Complex log det(H_N - E) at a flat array of energies, a max-shifted
    log-sum-exp of p log Z_I + log q_I. A top-left block ``corner`` = C
    selects the open rule, |I| = L, p = N, q_hat, c = 1; a BoundaryTriple
    the perturbed rule, |I| <= L + rank(A), p = N - 1, q_perturbed, c =
    det(B). NaN at a degenerate energy, -inf where every term is 0."""
    energies = np.asarray(energies, dtype=np.complex128).ravel()
    L = coeffs.L
    values, right, left_rows, degenerate = ordered_eig(coeffs, energies)
    if isinstance(corner, BoundaryTriple):
        sets = index_sets(2 * L, range(L + corner.rank_A + 1))
        power, log_prefactor = N - 1, np.log(corner.detB)
    else:
        sets = index_sets(2 * L, [L])
        power, log_prefactor = N, 0j
    q = corner_q(right, left_rows, degenerate, energies, corner, sets)
    # each set's members, padded to the largest set (the last) with index
    # 2L, whose value 1 has log 0. Every sum is a cumsum, whose order is
    # fixed: np.sum's order, and so a row's bits, depends on the stack shape
    members = np.full((len(sets), len(sets[-1])), 2 * L)
    for rows, idx in size_groups(sets, 2 * L):
        members[rows, :idx.shape[1]] = idx
    log_values = np.log(np.concatenate([values, np.ones((len(values), 1))],
                                       axis=1))
    log_z = (np.log((-1) ** L * coeffs.detT)
             + np.cumsum(log_values[:, members], axis=2)[..., -1])
    with np.errstate(divide="ignore"):
        terms = power * log_z + np.log(q)
        shift = np.max(terms.real, axis=1, keepdims=True)
        # all terms -inf: no shift, so the sum is 0 and its log -inf
        shift[~np.isfinite(shift)] = 0.0
        total = np.cumsum(np.exp(terms - shift), axis=1)[:, -1]
        return log_prefactor + shift[:, 0] + np.log(total)


def _widom_row(coeffs: CoefficientTriple, corner, N: int,
               E: complex) -> WidomSum:
    logdet = complex(widom_logdet(coeffs, corner, N, [E])[0])
    if cmath.isnan(logdet):
        raise DegenerateSplit(f"E = {E} lies in a degeneracy band")
    return WidomSum(E, N, logdet)


def widom_sum_open(coeffs: CoefficientTriple, C: np.ndarray, N: int,
                   E: complex) -> WidomSum:
    """det(H_N(0,0,C) - E) as the sum over |I| = L of Z_I^N q_hat_I: the
    one-energy row of ``widom_logdet``'s open rule."""
    return _widom_row(coeffs, C, N, E)


def widom_sum_perturbed(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                        N: int, E: complex) -> WidomSum:
    """det(H_N(A,B,C) - E) as det(B) * sum over |I| <= L + rank(A) of
    Z_I^{N-1} q_I: the one-energy row of ``widom_logdet``'s perturbed rule."""
    return _widom_row(coeffs, boundary, N, E)
