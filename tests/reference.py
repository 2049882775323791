"""Reference routes that cross-check the package from outside it.

The transfer matrix T^E is rebuilt here from the model blocks with plain
numpy, so a defect in the package's transfer stack cannot vouch for itself
through these routes.
"""
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def plain_transfer_matrix(coeffs, E: complex) -> np.ndarray:
    """[[ (E - V) T^{-1}, -R ], [ T^{-1}, 0 ]] from the blocks R, T, V."""
    L = coeffs.L
    Tinv = np.linalg.inv(coeffs.T)
    return np.block([[(E * np.eye(L) - coeffs.V) @ Tinv, -coeffs.R],
                     [Tinv, np.zeros((L, L))]])


def riesz_projection_contour(coeffs, E: complex, center: complex,
                             radius: float, nodes: int = 512) -> np.ndarray:
    """Trapezoid-rule contour integral of the resolvent of T^E on a circle:
    one stacked inverse over the nodes, then their weighted mean."""
    M = plain_transfer_matrix(coeffs, E)
    w = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    resolvents = np.linalg.inv((center + w)[:, None, None] * np.eye(M.shape[0])
                               - M)
    return np.tensordot(w, resolvents, axes=1) / nodes


def transfer_recursion_residual(coeffs, boundary, N: int, E: complex,
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
    TE = plain_transfer_matrix(coeffs, E)
    links = np.concatenate([phi[1:] @ coeffs.T.T, phi[:-1]], axis=1)
    corner = np.concatenate([(E * np.eye(L) - boundary.C) @ phi[0]
                             - boundary.A @ phi[N - 1], phi[0]])
    closing = np.concatenate([boundary.B @ phi[0], phi[N - 1]])
    gaps = np.vstack([links, closing]) - np.vstack([corner, links @ TE.T])
    return float(np.max(np.linalg.norm(gaps, axis=1))) / norm


@dataclass(frozen=True)
class RieszLeading:
    """Order-0 diagonal blocks and order-1 off-diagonal blocks of the Riesz
    projection at large energy (coefficients of 1 and 1/E respectively)."""
    PT: np.ndarray
    PR: np.ndarray
    upper_right: np.ndarray   # coefficient of 1/E: T (PR - PT) R
    lower_left: np.ndarray    # coefficient of 1/E: -(PR - PT)


def riesz_leading_full(rt, R, T, members: Sequence[int]) -> RieszLeading:
    """The leading blocks of the Riesz projection onto ``members`` from the
    R/T spectral data ``rt``."""
    PT = rt.PT_of(members)
    PR = rt.PR_of(members)
    return RieszLeading(PT, PR, np.asarray(T) @ (PR - PT) @ np.asarray(R),
                        -(PR - PT))


def q_tilde_leading(rt, members: Sequence[int]) -> Tuple[complex, int]:
    """q_tilde ~ det(PT_I - PR_I) * E^{-L}; the coefficient vanishes unless
    |I| = L."""
    coeff = complex(np.linalg.det(rt.PT_of(members) - rt.PR_of(members)))
    return coeff, -rt.L
