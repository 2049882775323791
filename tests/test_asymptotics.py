import numpy as np
import pytest

from conftest import DEMO_R, DEMO_T, gaussian_matrix, rank_limited, random_model
from toeplimit import numkernel as nk
from toeplimit.asymptotics import (FrameSet, frames_from_projection,
                                   genericity_check,
                                   perturbed_rt_spectral_data, q_hat_leading,
                                   q_leading, q_tilde_leading,
                                   riesz_leading_full, rt_spectral_data)
from toeplimit.errors import (NotAProjection, NotSimpleSpectrum, RankMismatch)
from toeplimit.operators import BoundaryTriple
from toeplimit.transfer import ordered_spectrum, riesz_projection
from toeplimit.widom import index_sets, q_hat, q_perturbed, q_tilde


def simple_instance(seed, L):
    rng = np.random.default_rng(seed)
    while True:
        co, bd = random_model(rng, L)
        try:
            rt = rt_spectral_data(co.R, co.T)
        except NotSimpleSpectrum:
            continue
        return co, bd, rt, rng


def test_rt_data_scalar():
    rt = rt_spectral_data([[2.0]], [[3.0]])
    assert rt.r_values[0] == pytest.approx(2.0)
    assert rt.t_values[0] == pytest.approx(3.0)
    assert np.allclose(rt.PR[0], 1.0)
    assert np.allclose(rt.PT[0], 1.0)


def test_rt_data_diagonal_ordering():
    rt = rt_spectral_data(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(rt.r_values, [1.0, 2.0])
    assert np.allclose(rt.t_values, [4.0, 3.0])  # descending modulus
    assert np.allclose(rt.PR[0], np.diag([1.0, 0.0]))
    assert np.allclose(rt.PT[0], np.diag([0.0, 1.0]))  # eigenvalue 4


def test_rt_data_completeness():
    co, bd, rt, _ = simple_instance(30, 3)
    assert np.linalg.norm(sum(rt.PR) - np.eye(3)) < 1e-9
    assert np.linalg.norm(sum(rt.PT) - np.eye(3)) < 1e-9


def test_rt_data_demo_refuses():
    # the upper-triangular R has a double eigenvalue 0.3i
    with pytest.raises(NotSimpleSpectrum):
        rt_spectral_data(DEMO_R, DEMO_T)


def test_perturbed_rt_helper_is_explicit():
    # the bumped R and T have strictly ordered moduli, or it would raise
    rt = perturbed_rt_spectral_data(DEMO_R, DEMO_T, 1e-6, seed=1)
    assert np.all(np.diff(np.abs(rt.r_values)) > 0)
    assert np.all(np.diff(np.abs(rt.t_values)) < 0)
    with pytest.raises(ValueError):
        perturbed_rt_spectral_data(DEMO_R, DEMO_T, 0.0)


def test_rank_bookkeeping():
    co, bd, rt, _ = simple_instance(31, 2)
    for I in index_sets(4, range(5)):
        assert (nk.numerical_rank(rt.PR_of(I))
                + nk.numerical_rank(rt.PT_of(I)) == len(I))


def test_frames_basic_and_invariants():
    fr = frames_from_projection(np.diag([1.0, 0.0]))
    assert np.allclose(np.abs(fr.Phi.ravel()), [1.0, 0.0])
    assert fr.p == 1
    rng = np.random.default_rng(32)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    P = np.outer(u, v) / (v @ u)
    fr = frames_from_projection(P)
    full = np.hstack([fr.Phi, fr.Phi_c])
    dual = np.hstack([fr.Psi, fr.Psi_c])
    assert np.linalg.norm(dual.conj().T @ full - np.eye(3)) < 1e-9
    assert np.linalg.norm(fr.Phi @ fr.Psi.conj().T - P) < 1e-9


def test_frames_full_and_empty_ranges():
    fr = frames_from_projection(np.eye(2))
    assert fr.Phi.shape == (2, 2) and fr.Phi_c.shape == (2, 0)
    assert nk.determinant(fr.Psi_c.conj().T @ np.eye(2) @ fr.Phi_c) == 1.0


def test_frames_errors():
    with pytest.raises(NotAProjection):
        frames_from_projection([[0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(RankMismatch):
        frames_from_projection(np.diag([1.0, 0.0]), rank=2)


def test_scalar_leading_anchors():
    rt = rt_spectral_data([[1.0]], [[1.0]])
    assert q_tilde_leading(rt, (1,)) == (pytest.approx(1.0), -1)
    coeff, expo = q_hat_leading(rt, (1,), [[0.0]], [[0.0]])
    assert (coeff, expo) == (pytest.approx(1.0), 0)
    bd = BoundaryTriple([[1.0]], [[1.0]], [[0.0]])
    coeff, expo = q_leading(rt, bd, (0,))
    assert (coeff, expo) == (pytest.approx(-1.0), -1)


def test_q_leading_empty_and_overfull():
    co, bd, rt, _ = simple_instance(33, 2)
    assert q_leading(rt, bd, ()) == (pytest.approx(1.0), 0)
    # |I| beyond L + rank(A) has vanishing leading coefficient
    rng = np.random.default_rng(34)
    bd1 = BoundaryTriple(rank_limited(rng, 2, 1), gaussian_matrix(rng, 2),
                         gaussian_matrix(rng, 2))
    coeff, _ = q_leading(rt, bd1, (0, 1, 2, 3))
    assert coeff == 0


@pytest.mark.parametrize("L", [1, 2, 3])
def test_ratio_tests_all_functions(L):
    co, bd, rt, rng = simple_instance(40 + L, L)
    devs = {1e3: 0.0, 1e4: 0.0}
    for mag in devs:
        E = mag * np.exp(1j * 2 * np.pi * 0.137)
        spec = ordered_spectrum(co, E)
        assert not spec.degenerate
        for I in index_sets(2 * L, [L]):
            c, e = q_tilde_leading(rt, I)
            if abs(c) > 1e-9:
                q = q_tilde(spec, I)
                devs[mag] = max(devs[mag], abs(q / (c * E ** e) - 1))
            c, e = q_hat_leading(rt, I, bd.C, co.V)
            if abs(c) > 1e-9:
                q = q_hat(spec, bd.C, I)
                devs[mag] = max(devs[mag], abs(q / (c * E ** e) - 1))
        for I in index_sets(2 * L, range(L + bd.rank_A + 1)):
            c, e = q_leading(rt, bd, I)
            if abs(c) > 1e-9:
                q = q_perturbed(spec, bd, I)
                devs[mag] = max(devs[mag], abs(q / (c * E ** e) - 1))
    # O(1/E): deviation scales down by ~10 between |E| = 1e3 and 1e4
    assert devs[1e3] < 0.2
    assert devs[1e4] < 0.02
    assert devs[1e4] < devs[1e3]


def test_riesz_leading_blocks():
    co, bd, rt, _ = simple_instance(44, 2)
    E = 1e4 * np.exp(0.7j)
    spec = ordered_spectrum(co, E)
    for I in [(1,), (0, 2), (2, 3), (0, 1, 2)]:
        P = riesz_projection(spec, I)
        lead = riesz_leading_full(rt, co.R, co.T, I)
        assert np.linalg.norm(P[:2, :2] - lead.PT) < 1e-3
        assert np.linalg.norm(P[2:, 2:] - lead.PR) < 1e-3
        assert np.linalg.norm(P[2:, :2] * E - lead.lower_left) < 1e-3
        assert np.linalg.norm(P[:2, 2:] * E - lead.upper_right) < 1e-3


def test_riesz_leading_full_set_off_diagonal_vanishes():
    co, bd, rt, _ = simple_instance(45, 2)
    lead = riesz_leading_full(rt, co.R, co.T, tuple(range(4)))
    assert np.linalg.norm(lead.lower_left) < 1e-9
    assert np.linalg.norm(lead.upper_right) < 1e-9
    assert np.linalg.norm(lead.PT - np.eye(2)) < 1e-9


def test_oblique_factorization_lemma():
    # det(E P + M) ~ det_{L-p}((Psi^c)* M0 Phi^c) E^p for M = M0 + M1/E
    rng = np.random.default_rng(46)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    P = np.outer(u, v) / (v @ u)
    fr = frames_from_projection(P)
    M0 = gaussian_matrix(rng, 3)
    M1 = gaussian_matrix(rng, 3)
    target = nk.determinant(fr.Psi_c.conj().T @ M0 @ fr.Phi_c)
    for E in (1e3, 1e4):
        val = nk.determinant(E * P + M0 + M1 / E)
        assert abs(val / (target * E) - 1) < 30 / E


def test_genericity_small_run():
    report = genericity_check(10, L=2, seed=5)
    assert report.nonzero + report.zero + report.not_simple \
        + report.rank_mismatch == 10
    assert report.nonzero_fraction == 1.0
    d = report.to_dict()
    assert d["counts"]["nonzero"] == report.nonzero
    assert len(d["per_trial"]) == 10


def test_genericity_rejects_bad_trials():
    with pytest.raises(ValueError):
        genericity_check(0)
