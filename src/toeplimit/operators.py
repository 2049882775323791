"""Finite operators, symbol evaluation, spectra and the brute-force oracles.

The operator family is block tridiagonal with bulk blocks (R, T, V) and a
corner perturbation (A, B, C): C replaces the top-left diagonal block, A sits
in the top-right corner and B in the bottom-left corner.
"""
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numkernel as nk
from .errors import OnCurve, SingularMatrix, ZeroArgument

# a root of the symbol polynomial this close to |z| = 1 puts E on the curve
ON_CURVE_TOL = 1e-8


@dataclass(frozen=True)
class CoefficientTriple:
    """Bulk blocks: R (sub-diagonal), T (super-diagonal), V (diagonal)."""
    R: np.ndarray
    T: np.ndarray
    V: np.ndarray
    Tinv: np.ndarray = field(init=False, repr=False, compare=False)
    detT: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        R = nk.as_cmatrix(self.R)
        T = nk.as_cmatrix(self.T)
        V = nk.as_cmatrix(self.V)
        L = R.shape[0]
        for name, m in (("R", R), ("T", T), ("V", V)):
            if m.shape != (L, L):
                raise ValueError(f"{name} must be {L}x{L}, got {m.shape}")
        # R and T must be invertible for the transfer-matrix machinery,
        # which reads T^{-1} from here.
        for name, m in (("R", R), ("T", T)):
            try:
                inv = nk.inverse(m)
            except SingularMatrix as exc:
                raise SingularMatrix(f"{name} is singular: {exc}") from exc
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "Tinv", inv)   # the loop ends on T
        object.__setattr__(self, "detT", nk.determinant(T))

    @property
    def L(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class BoundaryTriple:
    """Corner blocks: A (top-right), B (bottom-left), C (top-left diagonal)."""
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    rank_A: int = field(init=False)
    Binv: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    detB: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = nk.as_cmatrix(self.A)
        B = nk.as_cmatrix(self.B)
        C = nk.as_cmatrix(self.C)
        L = A.shape[0]
        for name, m in (("A", A), ("B", B), ("C", C)):
            if m.shape != (L, L):
                raise ValueError(f"{name} must be {L}x{L}, got {m.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "rank_A", nk.numerical_rank(A))
        try:
            Binv = nk.inverse(B)
        except SingularMatrix:
            Binv = None   # no boundary transfer matrix
        object.__setattr__(self, "Binv", Binv)
        object.__setattr__(self, "detB", nk.determinant(B))

    @property
    def L(self) -> int:
        return self.A.shape[0]

    @classmethod
    def circulant(cls, coeffs: CoefficientTriple) -> "BoundaryTriple":
        return cls(coeffs.R, coeffs.T, coeffs.V)

    @classmethod
    def boundary(cls, C) -> "BoundaryTriple":
        C = nk.as_cmatrix(C)
        z = np.zeros_like(C)
        return cls(z, z, C)

    def classify(self, coeffs: CoefficientTriple) -> str:
        """Which of the special corner cases these blocks realize."""
        if (np.array_equal(self.A, coeffs.R) and np.array_equal(self.B, coeffs.T)
                and np.array_equal(self.C, coeffs.V)):
            return "circulant"
        if not self.A.any() and not self.B.any():
            return "open" if np.array_equal(self.C, coeffs.V) else "boundary"
        return "custom" if self.Binv is None else "perturbed"


def _ldexp(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """z * 2**e for complex z, exactly while the result is a normal number."""
    out = np.empty(np.broadcast_shapes(z.shape, e.shape), dtype=np.complex128)
    out.real, out.imag = np.ldexp(z.real, e), np.ldexp(z.imag, e)
    return out


def eval_symbol(coeffs: CoefficientTriple, z) -> np.ndarray:
    """The symbol R/z + V + T*z at one z, or stacked over an array of z.

    numpy's complex division forms 1/z first, which overflows at a
    subnormal z even where R/z is representable. Below the smallest normal
    modulus R/z is therefore taken as (R/w) 2^-e, with z = w 2^e and the
    larger part of w in [0.5, 1): the bits of R/z wherever both are
    defined."""
    z = np.asarray(z, dtype=np.complex128)[..., None, None]
    if np.any(z == 0):
        raise ZeroArgument("symbol undefined at z = 0")
    if np.all(np.abs(z) >= np.finfo(np.float64).tiny):
        return coeffs.R / z + coeffs.V + coeffs.T * z
    e = np.frexp(np.maximum(np.abs(z.real), np.abs(z.imag)))[1]
    return _ldexp(coeffs.R / _ldexp(z, -e), -e) + coeffs.V + coeffs.T * z


def assemble_operator(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                      N: int) -> np.ndarray:
    """The NL x NL block tridiagonal matrix with corner blocks A, B, C."""
    if N < 3:
        raise ValueError("N >= 3 required so corner blocks stay off the band")
    L = coeffs.L
    H = np.zeros((N * L, N * L), dtype=np.complex128)
    # block (m, n) of H is blocks[m, :, n, :]
    blocks = H.reshape(N, L, N, L)
    site = np.arange(N)
    blocks[site, :, site, :] = coeffs.V
    blocks[site[:-1], :, site[1:], :] = coeffs.T
    blocks[site[1:], :, site[:-1], :] = coeffs.R
    H[:L, :L] = boundary.C
    H[:L, (N - 1) * L:] = boundary.A
    H[(N - 1) * L:, :L] = boundary.B
    return H


def finite_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalue multiset of a dense matrix. A complex128 matrix is read in
    place, so LAPACK's working copy is the only other one held."""
    return np.linalg.eigvals(nk.as_cstack(m, stack=False))


def circulant_spectrum_fft(coeffs: CoefficientTriple, N: int) -> np.ndarray:
    """Circulant spectrum via Fourier block-diagonalization: the union of the
    L x L symbol spectra at the N-th roots of unity."""
    z = np.exp(2j * np.pi * np.arange(1, N + 1) / N)
    return np.linalg.eigvals(eval_symbol(coeffs, z)).ravel()


def symbol_det_coefficients(coeffs: CoefficientTriple, E: complex) -> np.ndarray:
    """The Laurent coefficients c_{-L}, ..., c_L of det(H(z) - E) in z.

    The determinant has degree L in z and in 1/z, so its values at the
    m >= 2L + 1 roots of unity fix it: one FFT of m determinants returns
    c_j at index j mod m, with m the least power of two that suffices."""
    L = coeffs.L
    m = 1 << (2 * L).bit_length()
    z = np.exp(2j * np.pi * np.arange(m) / m)
    c = np.fft.fft(np.linalg.det(eval_symbol(coeffs, z) - E * np.eye(L))) / m
    return np.concatenate([c[m - L:], c[:L + 1]])


def winding_number(coeffs: CoefficientTriple, E: complex) -> int:
    """Winding of theta -> det(H(e^{i theta}) - E) around 0.

    z^L det(H(z) - E) is a polynomial of degree 2L with no root at 0, since
    det T and det R are nonzero, so by the argument principle the winding is
    its number of roots inside the unit circle minus L. A root within
    ON_CURVE_TOL of the circle raises OnCurve.
    """
    moduli = np.abs(np.roots(symbol_det_coefficients(coeffs, E)[::-1]))
    if np.min(np.abs(moduli - 1.0)) < ON_CURVE_TOL:
        raise OnCurve(f"symbol determinant vanishes near E = {E}")
    return int(np.sum(moduli < 1.0)) - coeffs.L


def _shifted_operator(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                      N: int, E: complex) -> np.ndarray:
    H = assemble_operator(coeffs, boundary, N)
    H[np.diag_indices_from(H)] -= E
    return H


def charpoly_direct(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                    N: int, E: complex) -> complex:
    """Brute-force det(H_N - E) via the dense assembled operator."""
    return nk.determinant(_shifted_operator(coeffs, boundary, N, E))


def charpoly_logdet(coeffs: CoefficientTriple, boundary: BoundaryTriple,
                    N: int, E: complex) -> complex:
    """The complex log of ``charpoly_direct``, by ``slogdet`` of the same
    dense H_N - E, so it does not overflow at large N; -inf if singular."""
    sign, logabs = np.linalg.slogdet(_shifted_operator(coeffs, boundary, N, E))
    return complex(logabs, np.angle(sign))
