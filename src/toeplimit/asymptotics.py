"""Large-energy machinery: spectral data of the off-diagonal blocks, oblique
frames, and closed-form leading coefficients of the q-functions.

These evaluators are exact transcriptions of the limit formulas; the ratio
tests in the test suite are the independent oracle for them.
"""
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import (NotAProjection, NotSimpleSpectrum, RankMismatch,
                     SingularMatrix)
from .operators import BoundaryTriple, CoefficientTriple
from .transfer import ordered_spectrum
from .widom import index_sets, q_perturbed_sets

SIMPLE_TOL = 1e-10
# leading coefficients and q values at or below this count as zero in
# genericity_check, which also tests q at this many random energies
COEFF_TOL = 1e-12
ENERGY_CHECKS = 3


@dataclass(frozen=True)
class RTData:
    """Eigenvalues and rank-1 spectral projectors of R and T.

    ``r_values`` are ordered |r_1| < ... < |r_L| and ``t_values`` so that
    |t_L| < ... < |t_1|; index i in {0..L-1} refers to r_i, index L+i to t_i,
    matching the small/large transfer-eigenvalue branches at large energy.
    """
    r_values: np.ndarray
    t_values: np.ndarray
    PR: Tuple[np.ndarray, ...]   # L projectors, indices 0..L-1
    PT: Tuple[np.ndarray, ...]   # L projectors, stored for indices L..2L-1

    @property
    def L(self) -> int:
        return self.r_values.size

    def PR_of(self, members: Sequence[int]) -> np.ndarray:
        L = self.L
        acc = np.zeros((L, L), dtype=np.complex128)
        for i in members:
            if i < L:
                acc += self.PR[i]
        return acc

    def PT_of(self, members: Sequence[int]) -> np.ndarray:
        L = self.L
        acc = np.zeros((L, L), dtype=np.complex128)
        for i in members:
            if i >= L:
                acc += self.PT[i - L]
        return acc


def _spectral_projectors(m: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    dec = nk.eigenpairs(m)
    projs = [np.outer(dec.right_vectors[:, i], dec.left_rows[i, :])
             for i in range(m.shape[0])]
    return dec.values, projs


def rt_spectral_data(R, T) -> RTData:
    """Eigen-data of R and T with the modulus orderings used at large energy.

    A modulus tie raises NotSimpleSpectrum: the leading-order labels would
    be ambiguous.
    """
    R = nk.as_cmatrix(R)
    T = nk.as_cmatrix(T)
    CoefficientTriple(R, T, np.zeros_like(R))   # R and T must be invertible
    rv, rp = _spectral_projectors(R)
    tv, tp = _spectral_projectors(T)
    r_order = np.argsort(np.abs(rv), kind="stable")
    t_order = np.argsort(-np.abs(tv), kind="stable")
    rv, rp = rv[r_order], [rp[i] for i in r_order]
    tv, tp = tv[t_order], [tp[i] for i in t_order]

    def _strictly_ordered(vals, descending):
        mods = np.abs(vals)
        gaps = -np.diff(mods) if descending else np.diff(mods)
        scale = 1.0 + float(np.max(mods))
        return bool(np.all(gaps > SIMPLE_TOL * scale))

    if not (_strictly_ordered(rv, False) and _strictly_ordered(tv, True)):
        raise NotSimpleSpectrum("R or T lacks strictly modulus-ordered spectrum")
    return RTData(rv, tv, tuple(rp), tuple(tp))


def perturbed_rt_spectral_data(R, T, eps: float, seed: int = 0) -> RTData:
    """Exploratory fallback for non-simple R or T: add an eps-scaled Gaussian
    perturbation (explicit, seeded) and retry.

    The unperturbed labeling is genuinely ambiguous in that case, so this is
    never applied silently; the caller owns the perturbation size.
    """
    if eps <= 0:
        raise ValueError("eps > 0 required")
    rng = np.random.default_rng(seed)
    R = nk.as_cmatrix(R)
    T = nk.as_cmatrix(T)

    def bump(m):
        noise = (rng.standard_normal(m.shape)
                 + 1j * rng.standard_normal(m.shape)) / np.sqrt(2)
        return m + eps * noise

    return rt_spectral_data(bump(R), bump(T))


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
        return self.Phi.shape[1]


def _range_basis(m: np.ndarray, rank: int) -> np.ndarray:
    if rank == 0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    # left singular vectors give the best-conditioned range basis
    u, _, _ = np.linalg.svd(m)
    return u[:, :rank]


def frames_from_projection(P, rank: Optional[int] = None,
                           tol: float = 1e-8) -> FrameSet:
    P = nk.as_cmatrix(P)
    L = P.shape[0]
    norm = float(np.linalg.norm(P))
    if np.linalg.norm(P @ P - P) > tol * (1.0 + norm ** 2):
        raise NotAProjection(f"||P^2 - P|| too large ({norm:.3e})")
    numeric = nk.numerical_rank(P, tol=1e-8)
    if rank is None:
        rank = numeric
    elif rank != numeric:
        raise RankMismatch(f"requested rank {rank}, numerical rank {numeric}")
    Phi = _range_basis(P, rank)
    Phi_c = _range_basis(np.eye(L, dtype=np.complex128) - P, L - rank)
    full = np.hstack([Phi, Phi_c])
    dual = nk.inverse(full).conj().T
    return FrameSet(Phi, Phi_c, dual[:, :rank], dual[:, rank:])


@dataclass(frozen=True)
class RieszLeading:
    """Order-0 diagonal blocks and order-1 off-diagonal blocks of the Riesz
    projection at large energy (coefficients of 1 and 1/E respectively)."""
    PT: np.ndarray
    PR: np.ndarray
    upper_right: np.ndarray   # coefficient of 1/E: T (PR - PT) R
    lower_left: np.ndarray    # coefficient of 1/E: -(PR - PT)


def riesz_leading_full(rt: RTData, R, T, members: Sequence[int]) -> RieszLeading:
    PT = rt.PT_of(members)
    PR = rt.PR_of(members)
    return RieszLeading(PT, PR, nk.as_cmatrix(T) @ (PR - PT) @ nk.as_cmatrix(R),
                        -(PR - PT))


def q_tilde_leading(rt: RTData, members: Sequence[int]) -> Tuple[complex, int]:
    """q_tilde ~ det(PT_I - PR_I) * E^{-L}; the coefficient vanishes unless
    |I| = L."""
    coeff = nk.determinant(rt.PT_of(members) - rt.PR_of(members))
    return coeff, -rt.L


def q_hat_leading(rt: RTData, members: Sequence[int], C, V) -> Tuple[complex, int]:
    """q_hat ~ det_{L-p}((Psi^c)* PR_I (C - V) Phi^c) * E^{-L+p} with
    p = rk(PT_I). Void for C = V."""
    PT = rt.PT_of(members)
    PR = rt.PR_of(members)
    p = sum(1 for i in members if i >= rt.L)
    fr = frames_from_projection(PT, rank=p)
    mid = PR @ (nk.as_cmatrix(C) - nk.as_cmatrix(V))
    coeff = nk.determinant(fr.Psi_c.conj().T @ mid @ fr.Phi_c)
    return coeff, -rt.L + p


def q_leading(rt: RTData, boundary: BoundaryTriple,
              members: Sequence[int]) -> Tuple[complex, int]:
    """q_I ~ det_{L-p}((Psi^c)* B Phi^c) det_{p_hat}(Psi_hat* A Phi_hat)
    / ((-1)^{p - p_hat} det(B)) * E^{p - p_hat}."""
    detB = nk.determinant(boundary.B)
    if abs(detB) == 0.0:
        raise SingularMatrix("B is singular")
    members = tuple(members)
    p = sum(1 for i in members if i >= rt.L)
    p_hat = sum(1 for i in members if i < rt.L)
    if len(members) > rt.L + boundary.rank_A:
        return 0.0 + 0j, p - p_hat
    fr_t = frames_from_projection(rt.PT_of(members), rank=p)
    fr_r = frames_from_projection(rt.PR_of(members), rank=p_hat)
    d1 = nk.determinant(fr_t.Psi_c.conj().T @ boundary.B @ fr_t.Phi_c)
    d2 = nk.determinant(fr_r.Psi.conj().T @ boundary.A @ fr_r.Phi)
    coeff = d1 * d2 / ((-1) ** (p - p_hat) * detB)
    return coeff, p - p_hat


@dataclass(frozen=True)
class GenericityReport:
    trials: int
    L: int
    seed: int
    nonzero: int
    zero: int
    not_simple: int
    rank_mismatch: int
    per_trial: Tuple[dict, ...]

    @property
    def nonzero_fraction(self) -> float:
        tested = self.nonzero + self.zero
        return self.nonzero / tested if tested else float("nan")

    def to_dict(self) -> dict:
        return {
            "trials": self.trials, "L": self.L, "seed": self.seed,
            "counts": {"nonzero": self.nonzero, "zero": self.zero,
                       "not_simple": self.not_simple,
                       "rank_mismatch": self.rank_mismatch},
            "nonzero_fraction": self.nonzero_fraction,
            "per_trial": list(self.per_trial),
        }


def genericity_check(trials: int, L: int = 2,
                     seed: int = 0) -> GenericityReport:
    """Draw Gaussian coefficient matrices and verify that every tested leading
    coefficient is nonzero; full measure is the expectation."""
    if trials < 1:
        raise ValueError("trials >= 1 required")
    root = np.random.SeedSequence(seed)
    nonzero = zero = not_simple = rank_mismatch = 0
    per_trial = []
    for trial_seed in root.spawn(trials):
        rng = np.random.default_rng(trial_seed)

        def draw():
            return (rng.standard_normal((L, L))
                    + 1j * rng.standard_normal((L, L))) / np.sqrt(2)

        R, T, V, A, B, C = (draw() for _ in range(6))
        entry = {"seed": trial_seed.entropy if isinstance(trial_seed.entropy, int)
                 else list(trial_seed.entropy)}
        if nk.numerical_rank(A) != L:
            rank_mismatch += 1
            entry["status"] = "rank_mismatch"
            per_trial.append(entry)
            continue
        try:
            rt = rt_spectral_data(R, T)
        except NotSimpleSpectrum:
            not_simple += 1
            entry["status"] = "not_simple"
            per_trial.append(entry)
            continue
        boundary = BoundaryTriple(A, B, C)
        coeffs = CoefficientTriple(R, T, V)
        ok = True
        for I in index_sets(2 * L, [L]):
            c, _ = q_hat_leading(rt, I, C, V)
            if abs(c) <= COEFF_TOL:
                ok = False
        for I in index_sets(2 * L, range(L + boundary.rank_A + 1)):
            c, _ = q_leading(rt, boundary, I)
            if abs(c) <= COEFF_TOL:
                ok = False
        # direct confirmation: q_I nonzero at a few random energies; a NaN q
        # (degenerate spectrum) compares false and confirms nothing
        for _ in range(ENERGY_CHECKS):
            E = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
            q = q_perturbed_sets(ordered_spectrum(coeffs, E), boundary,
                                 index_sets(2 * L, [L]))
            if np.any(np.abs(q) <= COEFF_TOL):
                ok = False
        if ok:
            nonzero += 1
            entry["status"] = "nonzero"
        else:
            zero += 1
            entry["status"] = "zero"
        per_trial.append(entry)
    return GenericityReport(trials, L, seed, nonzero, zero, not_simple,
                            rank_mismatch, tuple(per_trial))
