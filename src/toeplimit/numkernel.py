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


def as_cstack(data, stack: bool = True) -> np.ndarray:
    """A complex128 matrix or (..., r, c) stack of matrices to read: the
    array itself when it already is one, else a converted copy. Non-finite
    entries are rejected, and with ``stack=False`` so is a stack."""
    m = np.asarray(data, dtype=np.complex128)
    if not stack and m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.ndim < 2:
        raise ValueError(f"expected a 2-D matrix or a stack of them, "
                         f"got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_cmatrix(data) -> np.ndarray:
    """Coerce to a new 2-D complex128 array and reject non-finite entries."""
    return as_cstack(np.array(data, dtype=np.complex128), stack=False)


def _require_square(m, stack: bool = False) -> np.ndarray:
    """``m`` as a square matrix, or stack of them, to read."""
    m = as_cstack(m, stack)
    if m.shape[-2] != m.shape[-1]:
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


def numerical_rank(m, tol: float = RANK_TOL):
    """Count of singular values above ``tol`` times the largest: an int for
    one matrix, an int array over the leading axes of a stack. This is the
    package's one rank rule; ``inverse`` refuses what it calls deficient."""
    m = as_cstack(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s.shape[-1] == 0:
        rank = np.zeros(s.shape[:-1], dtype=int)
    else:
        # a zero matrix counts no singular value above 0
        rank = np.count_nonzero(s > tol * s[..., :1], axis=-1)
    return int(rank) if m.ndim == 2 else rank


def inverse(m) -> np.ndarray:
    """Inverse of a square matrix of full numerical rank, or of each matrix
    of a stack; one deficient matrix refuses the stack."""
    m = _require_square(m, stack=True)
    rank = numerical_rank(m)
    if np.any(rank < m.shape[-1]):
        raise SingularMatrix(f"numerical rank {np.min(rank)} of {m.shape[-1]}")
    return np.linalg.inv(m)
