"""Dense complex linear-algebra foundation.

All matrices are plain complex128 ndarrays with value semantics; the helpers
here add the validation, the biorthogonal left eigenvectors and the rank rule
that decides both numerical rank and invertibility for the rest of the package.
"""
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonSquare, SingularMatrix

DEGENERACY_TOL = 1e-8
RANK_TOL = 1e-10


def as_cmatrix(data) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    m = np.array(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _require_square(m: np.ndarray) -> np.ndarray:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise NonSquare(f"matrix of shape {m.shape} is not square")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues with biorthogonal right columns and left rows.

    ``left_rows[i] @ right_vectors[:, j] == delta_ij`` (exact up to solve
    tolerance, since the left rows are the inverse of the right matrix
    rather than a second eigensolve).
    """
    values: np.ndarray         # (n,)
    right_vectors: np.ndarray  # (n, n), columns
    left_rows: np.ndarray      # (n, n), rows
    condition_flags: np.ndarray  # (n,) bool, near-degenerate eigenvalues


def close_pairs(values: np.ndarray) -> np.ndarray:
    """(..., n, n) flags of eigenvalue pairs closer than DEGENERACY_TOL at the
    pair's own modulus scale, for one spectrum or a stack of them; the
    diagonal is False. This is the package's one degeneracy rule.
    """
    moduli = np.abs(values)
    gap = np.abs(values[..., :, None] - values[..., None, :])
    scale = 1.0 + np.maximum(moduli[..., :, None], moduli[..., None, :])
    close = gap < DEGENERACY_TOL * scale
    diag = np.arange(values.shape[-1])
    close[..., diag, diag] = False
    return close


def eig_stack(stack: np.ndarray):
    """Eigenvalues and right eigenvector columns of one matrix or a stack."""
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix contains NaN or Inf entries")
    try:
        return np.linalg.eig(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def biorthogonal_rows(right: np.ndarray) -> np.ndarray:
    """Left rows w_i with w_i @ right_j = delta_ij (= inv(right)), per matrix."""
    try:
        return np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:
        # Defective matrix: right eigenvector matrix is singular.
        raise ConvergenceFailure(f"defective eigenbasis: {exc}") from exc


def eigenpairs(m) -> EigenDecomposition:
    """Full eigendecomposition with biorthogonal left vectors."""
    values, right = eig_stack(_require_square(m))
    w = biorthogonal_rows(right)
    flags = np.any(close_pairs(values), axis=1)
    return EigenDecomposition(values, right, w, flags)


def determinant(m) -> complex:
    """Determinant via pivoted LU factorization."""
    m = _require_square(m)
    if m.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(m))


def numerical_rank(m, tol: float = RANK_TOL) -> int:
    """Count of singular values above ``tol`` times the largest. This is the
    package's one rank rule; ``inverse`` refuses what it calls deficient."""
    s = np.linalg.svd(as_cmatrix(m), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def inverse(m) -> np.ndarray:
    """Inverse of a square matrix of full numerical rank."""
    m = _require_square(m)
    rank = numerical_rank(m)
    if rank < m.shape[0]:
        raise SingularMatrix(f"numerical rank {rank} of {m.shape[0]}")
    return np.linalg.inv(m)
