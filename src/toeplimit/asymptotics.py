"""Large-energy machinery: the modulus-ordered eigen-data of the
off-diagonal blocks R and T, and closed-form leading coefficients of the
q-functions.

Each leading coefficient is a determinant over dual bases of Ran(1 - PT_I)
and Ran(PR_I), the same for any pair of dual bases; the eigenvector columns
of R and T and their biorthogonal left rows are such bases, so both rules
read them directly. These evaluators are exact transcriptions of the limit
formulas; the ratio tests in the test suite are the independent oracle for
them.
"""
import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import List, Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import NotSimpleSpectrum, SingularMatrix
from .transfer import ordered_eig
from .widom import corner_q, index_sets

SIMPLE_TOL = 1e-10
# leading coefficients and q values at or below this count as zero in
# genericity_check, which also tests q at this many random energies
COEFF_TOL = 1e-12
ENERGY_CHECKS = 3
# genericity_check runs up to GENERICITY_BLOCK trials per stack, fewer where
# the projections of its energy confirmations would pass GENERICITY_ENTRIES
# complex entries (16 MB); this bounds its memory at any L
GENERICITY_BLOCK = 128
GENERICITY_ENTRIES = 1 << 20


def _rows(data, index):
    """The dataclass ``data`` with every array field indexed by ``index``
    along its leading (stack) axes."""
    return type(data)(*(getattr(data, f.name)[index] for f in fields(data)))


@dataclass(frozen=True)
class RTData:
    """Eigenvalues, right eigenvector columns and biorthogonal left rows of
    R and T, of one model or over the leading axes of a stack of models.

    ``r_values`` are ordered |r_1| < ... < |r_L| and ``t_values`` so that
    |t_L| < ... < |t_1|; index i in {0..L-1} refers to r_i, index L+i to t_i,
    matching the small/large transfer-eigenvalue branches at large energy.
    Column i of ``r_right`` and row i of ``r_left`` belong to r_i, and
    ``r_left @ r_right`` is the identity, so PR_I = r_right[:, K] r_left[K]
    over the R members K of I; likewise for T.
    """
    r_values: np.ndarray   # (..., L)
    t_values: np.ndarray   # (..., L)
    r_right: np.ndarray    # (..., L, L) columns
    r_left: np.ndarray     # (..., L, L) rows
    t_right: np.ndarray
    t_left: np.ndarray

    @property
    def L(self) -> int:
        return self.r_values.shape[-1]


def _ordered_eigen(m: np.ndarray, descending: bool):
    """Eigenvalues (..., L), right columns and biorthogonal left rows of a
    stack in ascending (or descending) modulus order, and the flags of the
    rows whose moduli are strictly ordered."""
    values, right = nk.eig_stack(m)
    left = nk.biorthogonal_rows(right)
    mods = np.abs(values)
    order = np.argsort(-mods if descending else mods, axis=-1, kind="stable")
    mods = np.take_along_axis(mods, order, axis=-1)
    scale = 1.0 + np.max(mods, axis=-1, keepdims=True)
    return (np.take_along_axis(values, order, axis=-1),
            np.take_along_axis(right, order[..., None, :], axis=-1),
            np.take_along_axis(left, order[..., :, None], axis=-2),
            np.all(np.abs(np.diff(mods, axis=-1)) > SIMPLE_TOL * scale,
                   axis=-1))


def rt_spectral_stack(R, T) -> Tuple[RTData, np.ndarray]:
    """``rt_spectral_data`` of (n, L, L) stacks of R and T, with the (n,)
    flags of the rows whose spectra are strictly modulus-ordered; a row
    without that order does not raise. A singular R or T raises
    SingularMatrix."""
    R = nk.as_cstack(R)
    T = nk.as_cstack(T)
    L = R.shape[-1]
    if R.shape != T.shape or R.shape[-2] != L:
        raise ValueError(f"R and T must be square of one size, got {R.shape} "
                         f"and {T.shape}")
    for name, m in (("R", R), ("T", T)):
        rank = nk.numerical_rank(m)
        if np.any(rank < L):
            raise SingularMatrix(f"{name} is singular: numerical rank "
                                 f"{np.min(rank)} of {L}")
    rv, r_right, r_left, r_simple = _ordered_eigen(R, False)
    tv, t_right, t_left, t_simple = _ordered_eigen(T, True)
    return (RTData(rv, tv, r_right, r_left, t_right, t_left),
            r_simple & t_simple)


def rt_spectral_data(R, T) -> RTData:
    """Eigen-data of R and T with the modulus orderings used at large energy:
    the one-model row of ``rt_spectral_stack``.

    A modulus tie raises NotSimpleSpectrum: the leading-order labels would
    be ambiguous.
    """
    rt, simple = rt_spectral_stack(nk.as_cmatrix(R)[None],
                                   nk.as_cmatrix(T)[None])
    if not simple[0]:
        raise NotSimpleSpectrum("R or T lacks strictly modulus-ordered spectrum")
    return _rows(rt, 0)


def _split(L: int, I: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(J, K): the T indices outside I, which index the columns of rt.t_right
    spanning Ran(1 - PT_I), and the R indices in I, spanning Ran(PR_I)."""
    return ([j for j in range(L) if L + j not in I],
            [i for i in I if i < L])


def q_hat_leading(rt: RTData, sets: Sequence[Sequence[int]], C,
                  V) -> Tuple[np.ndarray, np.ndarray]:
    """q_hat_I ~ det_{L-p}((Psi^c)* PR_I (C - V) Phi^c) * E^{-L+p} for each
    index set I with p members on the T side, where Phi^c are the T columns
    outside I and (Psi^c)* their left rows: the (..., len(sets))
    coefficients over the models of ``rt`` (C and V broadcast against them)
    and the (len(sets),) exponents. Void for C = V."""
    CV = nk.as_cstack(C) - nk.as_cstack(V)
    coeffs, expos = [], []
    for I in sets:
        J, K = _split(rt.L, I)
        PR = rt.r_right[..., :, K] @ rt.r_left[..., K, :]
        coeffs.append(np.linalg.det(
            rt.t_left[..., J, :] @ PR @ CV @ rt.t_right[..., :, J]))
        expos.append(-len(J))
    return np.stack(coeffs, axis=-1), np.array(expos)


def q_leading(rt: RTData, sets: Sequence[Sequence[int]], A, B,
              rank_A: int) -> Tuple[np.ndarray, np.ndarray]:
    """q_I ~ det_{L-p}((Psi^c)* B Phi^c) det_{p_hat}(Psi_hat* A Phi_hat)
    / ((-1)^{p - p_hat} det(B)) * E^{p - p_hat} for each index set I with p
    members on the T side and p_hat on the R side, where Phi_hat are the R
    columns in I and Psi_hat* their left rows: the (..., len(sets))
    coefficients over the models of ``rt`` (A and B broadcast against them)
    and the (len(sets),) exponents. A coefficient is exactly 0 once
    |I| > L + rank_A. A B that the rank rule calls singular raises
    SingularMatrix, as the perturbed Widom sum does."""
    if np.any(nk.numerical_rank(B) < rt.L):
        raise SingularMatrix("B is singular")
    detB = np.linalg.det(B)
    coeffs, expos = [], []
    for I in sets:
        J, K = _split(rt.L, I)
        p, p_hat = rt.L - len(J), len(K)
        d1 = np.linalg.det(rt.t_left[..., J, :] @ B @ rt.t_right[..., :, J])
        d2 = np.linalg.det(rt.r_left[..., K, :] @ A @ rt.r_right[..., :, K])
        coeffs.append(d1 * d2 / ((-1) ** (p - p_hat) * detB))
        expos.append(p - p_hat)
    coeffs = np.stack(coeffs, axis=-1)
    coeffs[..., [len(I) > rt.L + rank_A for I in sets]] = 0.0
    return coeffs, np.array(expos)


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


def _draw_trial(seed: "np.random.SeedSequence", L: int):
    """One trial's (6, L, L) stack R, T, V, A, B, C of complex Gaussian
    blocks, then its ENERGY_CHECKS energies, from its own generator."""
    rng = np.random.default_rng(seed)

    def draw():
        return (rng.standard_normal((L, L))
                + 1j * rng.standard_normal((L, L))) / np.sqrt(2)

    blocks = np.stack([draw() for _ in range(6)])
    energies = [complex(rng.standard_normal(), rng.standard_normal()) * 3.0
                for _ in range(ENERGY_CHECKS)]
    return blocks, energies


def _nonzero_rows(blocks: np.ndarray, energies: np.ndarray,
                  rt: RTData) -> np.ndarray:
    """(n,) flags over trials whose A has full rank and whose R and T have
    simple spectra, ``rt``: True where every tested leading coefficient, and
    q of every |I| = L set at each non-degenerate energy, exceeds
    COEFF_TOL."""
    R, T, V, A, B, C = np.moveaxis(blocks, 1, 0)
    L = rt.L

    def test(values):
        # a NaN value compares false and fails no trial
        return ~np.any(np.abs(values) <= COEFF_TOL, axis=-1)

    ok = test(q_hat_leading(rt, index_sets(2 * L, [L]), C, V)[0])
    # rank(A) = L: every set up to 2L members
    ok &= test(q_leading(rt, index_sets(2 * L, range(2 * L + 1)), A, B, L)[0])
    # direct confirmation: q_I nonzero at each trial's random energies; the
    # transfer stacks take one row of blocks per energy, B passed the rank
    # rule in q_leading, and A has full rank
    E = energies.ravel()
    rows = SimpleNamespace(L=L, rank_A=L, **{
        k: np.repeat(m, ENERGY_CHECKS, axis=0) for k, m in
        (("R", R), ("V", V), ("Tinv", nk.inverse(T)), ("A", A), ("C", C),
         ("Binv", nk.inverse(B)))})
    _, right, left, degenerate = ordered_eig(rows, E)
    q = corner_q(right, left, degenerate, E, rows, index_sets(2 * L, [L]))
    ok &= test(q.reshape(len(blocks), -1))
    return ok


def _statuses(blocks: np.ndarray, energies: np.ndarray) -> List[str]:
    """The status of each trial of an (n, 6, L, L) stack of R, T, V, A, B,
    C and its (n, ENERGY_CHECKS) energies, in trial order."""
    L = blocks.shape[-1]
    status = np.full(len(blocks), "rank_mismatch", dtype=object)
    full = np.flatnonzero(nk.numerical_rank(blocks[:, 3]) == L)
    if full.size:
        rt, simple = rt_spectral_stack(blocks[full, 0], blocks[full, 1])
        status[full[~simple]] = "not_simple"
        tested = full[simple]
        if tested.size:
            status[tested] = np.where(
                _nonzero_rows(blocks[tested], energies[tested],
                              _rows(rt, simple)), "nonzero", "zero")
    return status.tolist()


def genericity_check(trials: int, L: int = 2,
                     seed: int = 0) -> GenericityReport:
    """Draw Gaussian coefficient matrices and verify that every tested leading
    coefficient is nonzero; full measure is the expectation.

    Trials run as stacks of up to GENERICITY_BLOCK: the rank rule on A, the
    R/T eigen-data, each rule's leading coefficients, and the energy
    confirmations each take one call per stack."""
    if trials < 1:
        raise ValueError("trials >= 1 required")
    per_trial = ENERGY_CHECKS * math.comb(2 * L, L) * (2 * L) ** 2
    block = max(1, min(GENERICITY_BLOCK, GENERICITY_ENTRIES // per_trial))
    root = np.random.SeedSequence(seed)
    status: List[str] = []
    for first in range(0, trials, block):
        draws = [_draw_trial(child, L) for child in
                 root.spawn(min(block, trials - first))]
        status += _statuses(np.stack([b for b, _ in draws]),
                            np.array([e for _, e in draws]))
    # every spawned trial seed carries the root's entropy, and trial k's
    # spawn key is (k,): SeedSequence(seed, spawn_key=(k,)) redraws it
    entropy = (root.entropy if isinstance(root.entropy, int)
               else list(root.entropy))
    count = {k: status.count(k) for k in
             ("nonzero", "zero", "not_simple", "rank_mismatch")}
    return GenericityReport(trials, L, seed, count["nonzero"], count["zero"],
                            count["not_simple"], count["rank_mismatch"],
                            tuple({"seed": entropy, "spawn_key": [k],
                                   "status": st}
                                  for k, st in enumerate(status)))
