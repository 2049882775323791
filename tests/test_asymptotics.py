import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DEMO_R, DEMO_T, gaussian_matrix, projection,
                      rank_limited, random_model)
from reference import (projection_frames, q_hat_leading_frames,
                       q_leading_frames, q_tilde_leading, riesz_leading_full,
                       rt_projectors)
from toeplimit import numkernel as nk
from toeplimit.asymptotics import (COEFF_TOL, ENERGY_CHECKS, _draw_trial,
                                   _rows, _statuses, genericity_check,
                                   q_hat_leading, q_leading, rt_spectral_data,
                                   rt_spectral_stack)
from toeplimit.errors import NotSimpleSpectrum, SingularMatrix
from toeplimit.operators import BoundaryTriple, CoefficientTriple
from toeplimit.transfer import ordered_spectrum
from toeplimit.widom import (index_sets, q_hat, q_perturbed, q_sets, q_tilde,
                             widom_sum_perturbed)


def simple_instance(seed, L, rank_a=None):
    rng = np.random.default_rng(seed)
    while True:
        co, bd = random_model(rng, L, rank_a)
        try:
            rt = rt_spectral_data(co.R, co.T)
        except NotSimpleSpectrum:
            continue
        return co, bd, rt, rng


def test_rt_data_scalar():
    rt = rt_spectral_data([[2.0]], [[3.0]])
    assert rt.r_values[0] == pytest.approx(2.0)
    assert rt.t_values[0] == pytest.approx(3.0)
    assert np.allclose(rt.r_right * rt.r_left, 1.0)
    assert np.allclose(rt.t_right * rt.t_left, 1.0)


def test_rt_data_diagonal_ordering():
    rt = rt_spectral_data(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(rt.r_values, [1.0, 2.0])
    assert np.allclose(rt.t_values, [4.0, 3.0])  # descending modulus
    assert np.allclose(np.outer(rt.r_right[:, 0], rt.r_left[0]),
                       np.diag([1.0, 0.0]))
    # eigenvalue 4
    assert np.allclose(np.outer(rt.t_right[:, 0], rt.t_left[0]),
                       np.diag([0.0, 1.0]))


def test_rt_data_completeness():
    # the left rows are biorthogonal to the columns, and the rank-1
    # projectors they make sum to the identity
    co, bd, rt, _ = simple_instance(30, 3)
    for right, left in ((rt.r_right, rt.r_left), (rt.t_right, rt.t_left)):
        assert np.linalg.norm(left @ right - np.eye(3)) < 1e-9
        assert np.linalg.norm(right @ left - np.eye(3)) < 1e-9


def test_rt_data_demo_refuses():
    # the upper-triangular R has a double eigenvalue 0.3i
    with pytest.raises(NotSimpleSpectrum):
        rt_spectral_data(DEMO_R, DEMO_T)


def test_rank_bookkeeping():
    # the projectors of an index set, built outside the package, have ranks
    # summing to |I|, and the package's R columns in I span Ran(PR_I) while
    # its T columns outside I span Ran(1 - PT_I)
    co, bd, rt, _ = simple_instance(31, 2)
    for I in index_sets(4, range(5)):
        PT, PR = rt_projectors(co.R, co.T, I)
        assert nk.numerical_rank(PR) + nk.numerical_rank(PT) == len(I)
        K = [i for i in I if i < 2]
        J = [j for j in range(2) if 2 + j not in I]
        assert np.linalg.norm(PR @ rt.r_right[:, K] - rt.r_right[:, K]) < 1e-9
        assert np.linalg.norm(rt.r_left[K] @ PR - rt.r_left[K]) < 1e-9
        assert np.linalg.norm(PT @ rt.t_right[:, J]) < 1e-9
        assert np.linalg.norm(rt.t_left[J] @ PT) < 1e-9


def test_frames_basic_and_invariants():
    # the reference frames that the kernels are checked against
    fr = projection_frames(np.diag([1.0, 0.0]))
    assert np.allclose(np.abs(fr.Phi.ravel()), [1.0, 0.0])
    assert fr.p == 1
    rng = np.random.default_rng(32)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    P = np.outer(u, v) / (v @ u)
    fr = projection_frames(P)
    full = np.hstack([fr.Phi, fr.Phi_c])
    dual = np.hstack([fr.Psi, fr.Psi_c])
    assert np.linalg.norm(dual.conj().T @ full - np.eye(3)) < 1e-9
    assert np.linalg.norm(fr.Phi @ fr.Psi.conj().T - P) < 1e-9


def test_frames_full_and_empty_ranges():
    fr = projection_frames(np.eye(2))
    assert fr.Phi.shape == (2, 2) and fr.Phi_c.shape == (2, 0)
    assert nk.determinant(fr.Psi_c.conj().T @ np.eye(2) @ fr.Phi_c) == 1.0


def test_scalar_leading_anchors():
    rt = rt_spectral_data([[1.0]], [[1.0]])
    assert q_tilde_leading([[1.0]], [[1.0]], (1,)) == (pytest.approx(1.0), -1)
    coeff, expo = q_hat_leading(rt, [(1,)], [[0.0]], [[0.0]])
    assert (coeff.tolist(), expo.tolist()) == ([pytest.approx(1.0)], [0])
    coeff, expo = q_leading(rt, [(0,)], [[1.0]], [[1.0]], 1)
    assert (coeff.tolist(), expo.tolist()) == ([pytest.approx(-1.0)], [-1])


def test_q_leading_empty_and_overfull():
    co, bd, rt, _ = simple_instance(33, 2)
    coeff, expo = q_leading(rt, [()], bd.A, bd.B, bd.rank_A)
    assert (coeff.tolist(), expo.tolist()) == ([pytest.approx(1.0)], [0])
    # |I| beyond L + rank(A) has vanishing leading coefficient
    rng = np.random.default_rng(34)
    bd1 = BoundaryTriple(rank_limited(rng, 2, 1), gaussian_matrix(rng, 2),
                         gaussian_matrix(rng, 2))
    coeff, _ = q_leading(rt, [(0, 2, 3), (0, 1, 2, 3)], bd1.A, bd1.B,
                         bd1.rank_A)
    assert abs(coeff[0]) > COEFF_TOL and coeff[1] == 0


@pytest.mark.parametrize("L", [1, 2, 3])
def test_ratio_tests_all_functions(L):
    co, bd, rt, rng = simple_instance(40 + L, L)
    devs = {1e3: 0.0, 1e4: 0.0}
    for mag in devs:
        E = mag * np.exp(1j * 2 * np.pi * 0.137)
        spec = ordered_spectrum(co, E)
        assert not spec.degenerate
        sets = index_sets(2 * L, [L])
        lead = zip(*q_hat_leading(rt, sets, bd.C, co.V))
        for I, (c, e) in zip(sets, lead):
            if abs(c) > 1e-9:
                q = q_hat(spec, bd.C, I)
                devs[mag] = max(devs[mag], abs(q / (c * E ** e) - 1))
            c, e = q_tilde_leading(co.R, co.T, I)
            if abs(c) > 1e-9:
                q = q_tilde(spec, I)
                devs[mag] = max(devs[mag], abs(q / (c * E ** e) - 1))
        sets = index_sets(2 * L, range(L + bd.rank_A + 1))
        lead = zip(*q_leading(rt, sets, bd.A, bd.B, bd.rank_A))
        for I, (c, e) in zip(sets, lead):
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
        P = projection(spec, I)
        lead = riesz_leading_full(co.R, co.T, I)
        assert np.linalg.norm(P[:2, :2] - lead.PT) < 1e-3
        assert np.linalg.norm(P[2:, 2:] - lead.PR) < 1e-3
        assert np.linalg.norm(P[2:, :2] * E - lead.lower_left) < 1e-3
        assert np.linalg.norm(P[:2, 2:] * E - lead.upper_right) < 1e-3


def test_riesz_leading_full_set_off_diagonal_vanishes():
    co, bd, rt, _ = simple_instance(45, 2)
    lead = riesz_leading_full(co.R, co.T, tuple(range(4)))
    assert np.linalg.norm(lead.lower_left) < 1e-9
    assert np.linalg.norm(lead.upper_right) < 1e-9
    assert np.linalg.norm(lead.PT - np.eye(2)) < 1e-9


def test_oblique_factorization_lemma():
    # det(E P + M) ~ det_{L-p}((Psi^c)* M0 Phi^c) E^p for M = M0 + M1/E
    rng = np.random.default_rng(46)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    P = np.outer(u, v) / (v @ u)
    fr = projection_frames(P)
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


def test_q_leading_refuses_a_b_without_inverse():
    # rank 1 by the rank rule, though det B = 1e-14 is not 0
    B = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    co, _, rt, rng = simple_instance(47, 2)
    bd = BoundaryTriple(gaussian_matrix(rng, 2), B, gaussian_matrix(rng, 2))
    assert bd.Binv is None and bd.detB != 0
    with pytest.raises(SingularMatrix):
        widom_sum_perturbed(co, bd, 8, 0.3 + 0.2j)
    for I in [(), (0,), (1, 2), (0, 1, 2, 3)]:
        with pytest.raises(SingularMatrix):
            q_leading(rt, [I], bd.A, bd.B, bd.rank_A)
    # one such B refuses a stack of models
    rts = _rows(rt_spectral_stack(co.R[None], co.T[None])[0], [0, 0, 0])
    Bs = np.stack([np.eye(2), B, np.eye(2)])
    with pytest.raises(SingularMatrix):
        q_leading(rts, [(2,)], bd.A, Bs, bd.rank_A)
    coeff, _ = q_leading(_rows(rts, [0, 2]), [(2,)], bd.A, Bs[[0, 2]],
                         bd.rank_A)
    assert coeff.shape == (2, 1) and np.all(coeff != 0)


@pytest.mark.parametrize("trials, L, seed", [(100, 1, 0), (100, 2, 0),
                                             (40, 3, 1)])
def test_genericity_report_is_pinned(trials, L, seed):
    # the outputs of the one-trial-at-a-time check these stacks replaced;
    # every spawned trial seed carries the root's entropy and its own key
    report = genericity_check(trials, L, seed).to_dict()
    assert report == {
        "trials": trials, "L": L, "seed": seed,
        "counts": {"nonzero": trials, "zero": 0, "not_simple": 0,
                   "rank_mismatch": 0},
        "nonzero_fraction": 1.0,
        "per_trial": [{"seed": seed, "spawn_key": [k], "status": "nonzero"}
                      for k in range(trials)]}
    # an entry's seed and spawn key redraw that trial
    children = np.random.SeedSequence(seed).spawn(trials)
    for k in (0, 1, trials - 1):
        entry = report["per_trial"][k]
        again = np.random.SeedSequence(entry["seed"],
                                       spawn_key=entry["spawn_key"])
        blocks, energies = _draw_trial(again, L)
        first_blocks, first_energies = _draw_trial(children[k], L)
        assert np.array_equal(blocks, first_blocks)
        assert energies == first_energies
        assert _statuses(blocks[None], np.array([energies])) \
            == [entry["status"]]


def simple_stack(seed, L, n):
    """n Gaussian models whose R and T have simple spectra, as (n, L, L)
    stacks R, T, V, A, B, C, and their stacked RTData."""
    rng = np.random.default_rng(seed)
    blocks = []
    while len(blocks) < n:
        m = np.stack([gaussian_matrix(rng, L) for _ in range(6)])
        if rt_spectral_stack(m[None, 0], m[None, 1])[1][0]:
            blocks.append(m)
    blocks = np.stack(blocks)
    rt, simple = rt_spectral_stack(blocks[:, 0], blocks[:, 1])
    assert simple.all()
    return blocks, rt


def relative_gap(a, b):
    if np.size(b) == 0:
        return 0.0
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def test_stacked_q_hat_leading_flags_the_row_with_c_equal_v():
    blocks, rt = simple_stack(48, 2, 5)
    C = blocks[:, 5].copy()
    C[3] = blocks[3, 2]   # C = V in row 3
    # p < L: each coefficient has C - V
    coeffs, _ = q_hat_leading(rt, [(0, 1), (0, 2), (1, 3)], C, blocks[:, 2])
    for coeff in coeffs.T:
        assert coeff[3] == 0
        assert np.all(np.abs(np.delete(coeff, 3)) > COEFF_TOL)
    energies = np.full((5, ENERGY_CHECKS), 2.0 + 1.0j)
    assert _statuses(np.concatenate([blocks[:, :5], C[:, None]], axis=1),
                     energies) == ["nonzero"] * 3 + ["zero", "nonzero"]


@pytest.mark.parametrize("L", [1, 2, 3])
def test_stacked_frames_and_coefficients_match_single_rows(L):
    # the eigen-data rows are the frames of both rules
    n = 6
    blocks, rt = simple_stack(49 + L, L, n)
    for k in range(n):
        R, T, V, A, B, C = blocks[k]
        rt_k = rt_spectral_data(R, T)
        for name in ("r_values", "t_values", "r_right", "r_left", "t_right",
                     "t_left"):
            assert np.array_equal(getattr(rt, name)[k], getattr(rt_k, name))
    sets = index_sets(2 * L, range(2 * L + 1))
    hat_sets = index_sets(2 * L, [L])
    q_rows, q_expos = q_leading(rt, sets, blocks[:, 3], blocks[:, 4], L)
    hat_rows, hat_expos = q_hat_leading(rt, hat_sets, blocks[:, 5],
                                        blocks[:, 2])
    assert q_rows.shape == (n, len(sets))
    assert hat_rows.shape == (n, len(hat_sets))
    for k in range(n):
        R, T, V, A, B, C = blocks[k]
        rt_k = rt_spectral_data(R, T)
        c, e = q_leading(rt_k, sets, A, B, L)
        assert relative_gap(q_rows[k], c) <= 1e-13
        assert np.array_equal(e, q_expos)
        c, e = q_hat_leading(rt_k, hat_sets, C, V)
        assert relative_gap(hat_rows[k], c) <= 1e-13
        assert np.array_equal(e, hat_expos)


def scalar_status(blocks, energies):
    """One trial's status by the one-model functions."""
    R, T, V, A, B, C = blocks
    L = R.shape[0]
    if nk.numerical_rank(A) != L:
        return "rank_mismatch"
    try:
        rt = rt_spectral_data(R, T)
    except NotSimpleSpectrum:
        return "not_simple"
    bd = BoundaryTriple(A, B, C)
    coeffs = [q_hat_leading(rt, index_sets(2 * L, [L]), C, V)[0],
              q_leading(rt, index_sets(2 * L, range(2 * L + 1)), A, B,
                        bd.rank_A)[0]]
    co = CoefficientTriple(R, T, V)
    qs = [q_sets(ordered_spectrum(co, E), bd, index_sets(2 * L, [L]))
          for E in energies]
    small = np.abs(np.concatenate(coeffs + qs)) <= COEFF_TOL
    return "zero" if small.any() else "nonzero"


@pytest.mark.parametrize("L", [1, 2, 3])
def test_stacked_statuses_match_the_one_trial_functions(L):
    rng = np.random.default_rng(50 + L)
    n = 12
    blocks = np.stack([[gaussian_matrix(rng, L) for _ in range(6)]
                       for _ in range(n)])
    energies = (rng.standard_normal((n, ENERGY_CHECKS))
                + 1j * rng.standard_normal((n, ENERGY_CHECKS))) * 3.0
    blocks[1, 3] = rank_limited(rng, L, L - 1)   # rank_mismatch
    blocks[4, 5] = blocks[4, 2]                   # C = V
    if L > 1:
        blocks[2, 0] = 2.0 * np.eye(L)            # a modulus tie in R
    expected = [scalar_status(blocks[k], energies[k]) for k in range(n)]
    assert expected[1] == "rank_mismatch"
    if L > 1:
        assert expected[2] == "not_simple"
        assert expected[4] == "zero"
    assert expected.count("nonzero") >= n - 3
    assert _statuses(blocks, energies) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.data())
def test_leading_kernels_match_the_frame_formulas(L, data):
    # both kernels read the eigen-data of R and T; the reference takes SVD
    # frames of projectors it builds itself, so the two agree only if any
    # pair of dual bases gives the same determinants
    rank_a = data.draw(st.integers(0, L), label="rank_a")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    co, bd, rt, _ = simple_instance(seed, L, rank_a)
    sets = index_sets(2 * L, range(2 * L + 1))
    # relative to the rule's largest coefficient: a coefficient whose A
    # block has more rows than rank A is 0 up to roundoff on both routes
    coeffs, expos = q_leading(rt, sets, bd.A, bd.B, bd.rank_A)
    refs = [q_leading_frames(co.R, co.T, I, bd.A, bd.B, bd.rank_A)
            for I in sets]
    assert relative_gap(coeffs, np.array(refs)) <= 1e-10
    assert expos.tolist() == [sum(i >= L for i in I) - sum(i < L for i in I)
                              for I in sets]
    sets = index_sets(2 * L, [L])
    coeffs, expos = q_hat_leading(rt, sets, bd.C, co.V)
    refs = [q_hat_leading_frames(co.R, co.T, I, bd.C, co.V) for I in sets]
    assert relative_gap(coeffs, np.array(refs)) <= 1e-10
    assert expos.tolist() == [-L + sum(i >= L for i in I) for I in sets]
