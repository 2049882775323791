"""Reference routes that cross-check the package from outside it.

The transfer matrix T^E, the spectral projectors of R and T and the oblique
frames of those projectors are rebuilt here from the model blocks with plain
numpy, so a defect in the package's transfer stack or large-energy kernels
cannot vouch for itself through these routes.
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


def rt_projectors(R, T, members: Sequence[int]):
    """(PT_I, PR_I): the spectral projectors of T and of R onto the members
    of an index set, from plain numpy eigendecompositions. Index i < L is
    the eigenvalue of R with the (i+1)-th smallest modulus, index L + i that
    of T with the (i+1)-th largest."""
    L = np.shape(R)[0]

    def projector(m, picks, descending):
        values, right = np.linalg.eig(np.asarray(m, dtype=np.complex128))
        mods = np.abs(values)
        right = right[:, np.argsort(-mods if descending else mods,
                                    kind="stable")]
        return right[:, picks] @ np.linalg.inv(right)[picks, :]

    return (projector(T, [i - L for i in members if i >= L], True),
            projector(R, [i for i in members if i < L], False))


@dataclass(frozen=True)
class FrameSet:
    """Oblique frames of a projection P: columns of Phi span Ran(P), Phi_c
    spans Ran(1-P), and (Psi, Psi_c) = ((Phi, Phi_c)^{-1})^*."""
    Phi: np.ndarray
    Phi_c: np.ndarray
    Psi: np.ndarray
    Psi_c: np.ndarray

    @property
    def p(self) -> int:
        return self.Phi.shape[-1]


def projection_frames(P, rank=None) -> FrameSet:
    """Frames of one projection of rank ``rank`` (its numerical rank when
    None), with left singular vectors as the best-conditioned range bases."""
    P = np.asarray(P, dtype=np.complex128)
    L = P.shape[0]
    if rank is None:
        rank = int(np.linalg.matrix_rank(P))

    def basis(m, r):
        return np.linalg.svd(m)[0][:, :r]

    Phi = basis(P, rank)
    Phi_c = basis(np.eye(L) - P, L - rank)
    dual = np.linalg.inv(np.hstack([Phi, Phi_c])).conj().T
    return FrameSet(Phi, Phi_c, dual[:, :rank], dual[:, rank:])


def q_hat_leading_frames(R, T, members: Sequence[int], C, V) -> complex:
    """The leading coefficient det_{L-p}((Psi^c)* PR_I (C - V) Phi^c) of
    q_hat_I, with frames of PT_I of rank p."""
    PT, PR = rt_projectors(R, T, members)
    fr = projection_frames(PT, sum(1 for i in members if i >= len(R)))
    return complex(np.linalg.det(fr.Psi_c.conj().T @ PR
                                 @ (np.asarray(C) - np.asarray(V))
                                 @ fr.Phi_c))


def q_leading_frames(R, T, members: Sequence[int], A, B,
                     rank_A: int) -> complex:
    """The leading coefficient det_{L-p}((Psi^c)* B Phi^c)
    det_{p_hat}(Psi_hat* A Phi_hat) / ((-1)^{p - p_hat} det(B)) of q_I with
    frames of PT_I of rank p and PR_I of rank p_hat; exactly 0 once
    |I| > L + rank_A."""
    L = len(R)
    if len(members) > L + rank_A:
        return 0j
    p = sum(1 for i in members if i >= L)
    p_hat = len(members) - p
    PT, PR = rt_projectors(R, T, members)
    fr_t = projection_frames(PT, p)
    fr_r = projection_frames(PR, p_hat)
    d1 = np.linalg.det(fr_t.Psi_c.conj().T @ B @ fr_t.Phi_c)
    d2 = np.linalg.det(fr_r.Psi.conj().T @ A @ fr_r.Phi)
    return complex(d1 * d2 / ((-1) ** (p - p_hat) * np.linalg.det(B)))


@dataclass(frozen=True)
class RieszLeading:
    """Order-0 diagonal blocks and order-1 off-diagonal blocks of the Riesz
    projection at large energy (coefficients of 1 and 1/E respectively)."""
    PT: np.ndarray
    PR: np.ndarray
    upper_right: np.ndarray   # coefficient of 1/E: T (PR - PT) R
    lower_left: np.ndarray    # coefficient of 1/E: -(PR - PT)


def riesz_leading_full(R, T, members: Sequence[int]) -> RieszLeading:
    """The leading blocks of the Riesz projection onto ``members`` from the
    spectral projectors of R and T."""
    PT, PR = rt_projectors(R, T, members)
    return RieszLeading(PT, PR, np.asarray(T) @ (PR - PT) @ np.asarray(R),
                        -(PR - PT))


def q_tilde_leading(R, T, members: Sequence[int]) -> Tuple[complex, int]:
    """q_tilde ~ det(PT_I - PR_I) * E^{-L}; the coefficient vanishes unless
    |I| = L."""
    PT, PR = rt_projectors(R, T, members)
    return complex(np.linalg.det(PT - PR)), -len(R)
