"""Large-energy machinery: spectral data of the off-diagonal blocks, oblique
frames, and closed-form leading coefficients of the q-functions.

These evaluators are exact transcriptions of the limit formulas; the ratio
tests in the test suite are the independent oracle for them.
"""
import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import numkernel as nk
from .errors import (NotAProjection, NotSimpleSpectrum, RankMismatch,
                     SingularMatrix)
from .operators import BoundaryTriple
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


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class RTData:
    """Eigenvalues and rank-1 spectral projectors of R and T, of one model
    or over the leading axes of a stack of models.

    ``r_values`` are ordered |r_1| < ... < |r_L| and ``t_values`` so that
    |t_L| < ... < |t_1|; index i in {0..L-1} refers to r_i, index L+i to t_i,
    matching the small/large transfer-eigenvalue branches at large energy.
    ``PR[..., i, :, :]`` is the projector of r_i, ``PT[..., i, :, :]`` that
    of t_i.
    """
    r_values: np.ndarray   # (..., L)
    t_values: np.ndarray   # (..., L)
    PR: np.ndarray         # (..., L, L, L), indices 0..L-1
    PT: np.ndarray         # (..., L, L, L), stored for indices L..2L-1

    @property
    def L(self) -> int:
        return self.r_values.shape[-1]

    @staticmethod
    def _sum(projs: np.ndarray, picks) -> np.ndarray:
        acc = np.zeros(projs.shape[:-3] + projs.shape[-2:], dtype=np.complex128)
        for i in picks:
            acc += projs[..., i, :, :]
        return acc

    def PR_of(self, members: Sequence[int]) -> np.ndarray:
        return self._sum(self.PR, [i for i in members if i < self.L])

    def PT_of(self, members: Sequence[int]) -> np.ndarray:
        return self._sum(self.PT, [i - self.L for i in members if i >= self.L])


def _spectral_projectors(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., L) and the projectors (..., L, L, L), the outer
    product of right column i and biorthogonal left row i, of a stack."""
    values, right = nk.eig_stack(m)
    left = nk.biorthogonal_rows(right)
    return values, right.swapaxes(-1, -2)[..., :, :, None] * left[..., :, None, :]


def _strictly_ordered(values: np.ndarray, descending: bool) -> np.ndarray:
    mods = np.abs(values)
    gaps = -np.diff(mods, axis=-1) if descending else np.diff(mods, axis=-1)
    scale = 1.0 + np.max(mods, axis=-1, keepdims=True)
    return np.all(gaps > SIMPLE_TOL * scale, axis=-1)


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
    rv, rp = _spectral_projectors(R)
    tv, tp = _spectral_projectors(T)
    r_order = np.argsort(np.abs(rv), axis=-1, kind="stable")
    t_order = np.argsort(-np.abs(tv), axis=-1, kind="stable")
    rv = np.take_along_axis(rv, r_order, axis=-1)
    rp = np.take_along_axis(rp, r_order[..., None, None], axis=-3)
    tv = np.take_along_axis(tv, t_order, axis=-1)
    tp = np.take_along_axis(tp, t_order[..., None, None], axis=-3)
    simple = _strictly_ordered(rv, False) & _strictly_ordered(tv, True)
    return RTData(rv, tv, rp, tp), simple


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


@dataclass(frozen=True)
class FrameSet:
    """Oblique frames of a projection P: columns of Phi span Ran(P), Phi_c
    spans Ran(1-P), and (Psi, Psi_c) = ((Phi, Phi_c)^{-1})^*; of one P or
    over the leading axes of a stack."""
    Phi: np.ndarray
    Phi_c: np.ndarray
    Psi: np.ndarray
    Psi_c: np.ndarray

    @property
    def p(self) -> int:
        return self.Phi.shape[-1]


def _range_basis(m: np.ndarray, rank: int) -> np.ndarray:
    if rank == 0:
        return np.zeros(m.shape[:-1] + (0,), dtype=np.complex128)
    # left singular vectors give the best-conditioned range basis
    u, _, _ = np.linalg.svd(m)
    return u[..., :rank]


def projection_frames(P, rank: Optional[int] = None,
                      tol: float = 1e-8) -> FrameSet:
    """Frames of each projection of an (..., L, L) stack, all of numerical
    rank ``rank`` (the first projection's when None); a stack that holds a
    non-projection or another rank raises."""
    P = nk.as_cstack(P)
    L = P.shape[-1]
    norm = np.linalg.norm(P, axis=(-2, -1))
    bad = np.linalg.norm(P @ P - P, axis=(-2, -1)) > tol * (1.0 + norm ** 2)
    if np.any(bad):
        raise NotAProjection(f"||P^2 - P|| too large ({norm[bad][0]:.3e})")
    numeric = np.asarray(nk.numerical_rank(P, tol=1e-8))
    if rank is None:
        rank = int(numeric.flat[0])
    if np.any(numeric != rank):
        raise RankMismatch(f"requested rank {rank}, numerical rank "
                           f"{numeric[numeric != rank][0]}")
    Phi = _range_basis(P, rank)
    Phi_c = _range_basis(np.eye(L, dtype=np.complex128) - P, L - rank)
    dual = _dagger(nk.inverse(np.concatenate([Phi, Phi_c], axis=-1)))
    return FrameSet(Phi, Phi_c, dual[..., :rank], dual[..., rank:])


def _ranks(rt_L: int, members: Sequence[int]) -> Tuple[int, int]:
    """(p, p_hat): the members on the T side and on the R side."""
    p = sum(1 for i in members if i >= rt_L)
    return p, len(members) - p


def q_hat_leading_stack(PT: np.ndarray, PR: np.ndarray, p: int,
                        CV: np.ndarray) -> np.ndarray:
    """det_{L-p}((Psi^c)* PR_I (C - V) Phi^c) over stacks of PT_I of rank p
    and PR_I, with ``CV`` = C - V broadcast against them."""
    fr = projection_frames(PT, p)
    return np.linalg.det(_dagger(fr.Psi_c) @ (PR @ CV) @ fr.Phi_c)


def q_hat_leading(rt: RTData, members: Sequence[int], C, V) -> Tuple[complex, int]:
    """q_hat ~ det_{L-p}((Psi^c)* PR_I (C - V) Phi^c) * E^{-L+p} with
    p = rk(PT_I), the one-set row of ``q_hat_leading_stack``. Void for
    C = V."""
    p, _ = _ranks(rt.L, members)
    CV = nk.as_cmatrix(C) - nk.as_cmatrix(V)
    coeff = q_hat_leading_stack(rt.PT_of(members)[None],
                                rt.PR_of(members)[None], p, CV)[0]
    return complex(coeff), -rt.L + p


def q_leading_stack(PT: np.ndarray, PR: np.ndarray, p: int, p_hat: int,
                    A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """det_{L-p}((Psi^c)* B Phi^c) det_{p_hat}(Psi_hat* A Phi_hat)
    / ((-1)^{p - p_hat} det(B)) over stacks of PT_I of rank p and PR_I of
    rank p_hat, with A and B broadcast against them. A B that the rank rule
    calls singular raises SingularMatrix."""
    if np.any(nk.numerical_rank(B) < B.shape[-1]):
        raise SingularMatrix("B is singular")
    fr_t = projection_frames(PT, p)
    fr_r = projection_frames(PR, p_hat)
    d1 = np.linalg.det(_dagger(fr_t.Psi_c) @ B @ fr_t.Phi_c)
    d2 = np.linalg.det(_dagger(fr_r.Psi) @ A @ fr_r.Phi)
    return d1 * d2 / ((-1) ** (p - p_hat) * np.linalg.det(B))


def q_leading(rt: RTData, boundary: BoundaryTriple,
              members: Sequence[int]) -> Tuple[complex, int]:
    """q_I ~ det_{L-p}((Psi^c)* B Phi^c) det_{p_hat}(Psi_hat* A Phi_hat)
    / ((-1)^{p - p_hat} det(B)) * E^{p - p_hat}, the one-set row of
    ``q_leading_stack``. A B without inverse raises SingularMatrix, as
    the perturbed Widom sum does."""
    if boundary.Binv is None:
        raise SingularMatrix("B is singular")
    members = tuple(members)
    p, p_hat = _ranks(rt.L, members)
    if len(members) > rt.L + boundary.rank_A:
        return 0.0 + 0j, p - p_hat
    coeff = q_leading_stack(rt.PT_of(members)[None], rt.PR_of(members)[None],
                            p, p_hat, boundary.A, boundary.B)[0]
    return complex(coeff), p - p_hat


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


def _by_ranks(L: int, sets) -> Dict[Tuple[int, int], list]:
    """Index sets grouped by (p, p_hat), in order of first appearance."""
    groups: Dict[Tuple[int, int], list] = {}
    for I in sets:
        groups.setdefault(_ranks(L, I), []).append(I)
    return groups


def _nonzero_rows(blocks: np.ndarray, energies: np.ndarray,
                  rt: RTData) -> np.ndarray:
    """(n,) flags over trials whose A has full rank and whose R and T have
    simple spectra, ``rt``: True where every tested leading coefficient, and
    q of every |I| = L set at each non-degenerate energy, exceeds
    COEFF_TOL."""
    R, T, V, A, B, C = np.moveaxis(blocks, 1, 0)
    L = rt.L
    ok = np.ones(len(blocks), dtype=bool)

    def test(values):
        # a NaN value compares false and fails no trial
        return ~np.any(np.abs(values) <= COEFF_TOL, axis=-1)

    def projections(sets):
        """(n, len(sets), L, L) stacks of PT_I and PR_I."""
        return (np.stack([rt.PT_of(I) for I in sets], axis=1),
                np.stack([rt.PR_of(I) for I in sets], axis=1))

    CV = (C - V)[:, None]
    for (p, _), sets in _by_ranks(L, index_sets(2 * L, [L])).items():
        ok &= test(q_hat_leading_stack(*projections(sets), p, CV))
    # rank(A) = L: every set up to 2L members
    all_sets = index_sets(2 * L, range(2 * L + 1))
    for (p, p_hat), sets in _by_ranks(L, all_sets).items():
        ok &= test(q_leading_stack(*projections(sets), p, p_hat, A[:, None],
                                   B[:, None]))
    # direct confirmation: q_I nonzero at each trial's random energies; the
    # transfer stacks take one row of blocks per energy, B passed the rank
    # rule in q_leading_stack, and A has full rank
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
    R/T eigen-data, the leading coefficients of each group of index sets of
    one (p, p_hat), and the energy confirmations each take one call per
    stack."""
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
