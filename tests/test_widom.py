import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gaussian_matrix, nondegenerate_energy, random_model
from toeplimit import numkernel as nk
from toeplimit.errors import DegenerateSplit, OnCurve
from toeplimit.operators import (BoundaryTriple, CoefficientTriple,
                                 assemble_operator, charpoly_direct,
                                 winding_number)
from toeplimit.transfer import (DEGENERACY_TOL, ordered_spectrum,
                                transfer_matrix)
from toeplimit.widom import (charpoly_circulant, charpoly_semipermeable,
                             index_sets, q_hat, q_perturbed, q_tilde,
                             widom_sum_open, widom_sum_perturbed, z_factor)


def test_index_sets_counts():
    assert len(index_sets(4, [2])) == 6
    assert len(index_sets(6, range(7))) == 64
    assert index_sets(4, [0]) == [()]


def test_z_factor_convention(scalar_model):
    # empty set: the empty eigenvalue product is 1, so Z = (-1)^L det T
    E, spec = 3.0, ordered_spectrum(scalar_model, 3.0)
    detT = nk.determinant(scalar_model.T)
    assert z_factor(spec, (), detT) == pytest.approx(-1.0)
    assert z_factor(spec, (0,), detT) == pytest.approx(-spec.values[0])


def test_q_hat_scalar_closed_form(scalar_model):
    # open tridiagonal chain: det(H_N - E) = (-1)^N (z2^{N+1}-z1^{N+1})/(z2-z1)
    # forces q_hat for the growing branch to z2/(z2 - z1)
    E = 3.0
    spec = ordered_spectrum(scalar_model, E)
    z1, z2 = spec.values
    q = q_hat(spec, np.zeros((1, 1)), (1,))
    assert q.valid
    assert q.value == pytest.approx(z2 / (z2 - z1))
    q0 = q_hat(spec, np.zeros((1, 1)), (0,))
    assert q0.value == pytest.approx(-z1 / (z2 - z1))


def test_q_tilde_lower_left_block():
    rng = np.random.default_rng(20)
    co, _ = random_model(rng, 2)
    E, spec = nondegenerate_energy(rng, co)
    from toeplimit.transfer import riesz_projection
    I = (1, 3)
    P = riesz_projection(spec, I, allow_tie_split=True)
    q = q_tilde(spec, I)
    assert q.value == pytest.approx(np.linalg.det(P[2:, :2]))


def test_q_perturbed_rank_short_circuit():
    rng = np.random.default_rng(21)
    co, bd = random_model(rng, 2, rank_a=1)
    E, spec = nondegenerate_energy(rng, co)
    q = q_perturbed(spec, bd, (0, 1, 2, 3))  # |I| = 4 > L + rank(A) = 3
    assert q.valid and q.value == 0
    q_empty = q_perturbed(spec, bd, ())
    assert q_empty.value == pytest.approx(1.0)  # det(-R_{I^c}) = det(-1)


def test_q_invalid_on_degenerate_spectrum():
    co = CoefficientTriple([[1.0]], [[1.0]], [[0.0]])
    spec = ordered_spectrum(co, 2.0, degeneracy_tol=1e-6)
    assert not q_tilde(spec, (0,)).valid
    assert not q_hat(spec, np.zeros((1, 1)), (0,)).valid


def test_circulant_scalar_anchor(scalar_model):
    assert charpoly_circulant(scalar_model, 3, 0.0) == pytest.approx(2.0)


def test_open_identity_random():
    rng = np.random.default_rng(23)
    for _ in range(8):
        L = int(rng.integers(1, 4))
        co, _ = random_model(rng, L)
        C = gaussian_matrix(rng, L)
        N = int(rng.integers(3, 8))
        E, _ = nondegenerate_energy(rng, co)
        direct = charpoly_direct(co, BoundaryTriple.boundary(C), N, E)
        ws = widom_sum_open(co, C, N, E)
        assert abs(ws.total - direct) <= 1e-8 * (1 + abs(direct))


def test_perturbed_identity_random():
    rng = np.random.default_rng(24)
    for _ in range(8):
        L = int(rng.integers(1, 4))
        co, bd = random_model(rng, L)
        N = int(rng.integers(3, 8))
        E, _ = nondegenerate_energy(rng, co)
        direct = charpoly_direct(co, bd, N, E)
        ws = widom_sum_perturbed(co, bd, N, E)
        assert abs(ws.total - direct) <= 1e-8 * (1 + abs(direct))
        semi = charpoly_semipermeable(co, bd, N, E)
        assert abs(semi - direct) <= 1e-8 * (1 + abs(direct))


def test_widom_sum_terms_sorted_and_dominant(scalar_model):
    ws = widom_sum_open(scalar_model, np.zeros((1, 1)), 5, 3.0)
    mags = [abs(zp) for _, zp, _, _ in ws.terms]
    assert mags == sorted(mags, reverse=True)
    assert ws.dominant == (1,)  # the growing branch


def test_widom_sum_refuses_degenerate(scalar_model):
    with pytest.raises(DegenerateSplit):
        spec = ordered_spectrum(scalar_model, 2.0, degeneracy_tol=1e-6)
        widom_sum_open(scalar_model, np.zeros((1, 1)), 5, 2.0, spec=spec)


def test_windowed_q_hat_consistency():
    # wrapping q_hat with K=1 bulk transfer windows on both sides reproduces
    # the (N+2)-site open determinant after removing det(T)^2 per window pair
    rng = np.random.default_rng(25)
    for _ in range(4):
        L = int(rng.integers(1, 3))
        co, _ = random_model(rng, L)
        N = int(rng.integers(3, 7))
        E, spec = nondegenerate_energy(rng, co)
        TE = transfer_matrix(co, E)
        ws = widom_sum_open(co, co.V, N, E, window=([TE], [TE]), spec=spec)
        detT = nk.determinant(co.T)
        direct = charpoly_direct(co, BoundaryTriple.open(co), N + 2, E)
        value = ws.total * detT ** 2
        assert abs(value - direct) <= 1e-8 * (1 + abs(direct))


@st.composite
def model_rank_energy(draw):
    """A random model with L in {1, 2, 3} and rank(A) in {0..L}, one energy
    off the degeneracy set, and its transfer spectrum."""
    L = draw(st.integers(1, 3))
    rank_a = draw(st.integers(0, L))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs, boundary = random_model(rng, L, rank_a)
    coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    E = complex(draw(coord), draw(coord))
    spec = ordered_spectrum(coeffs, E)
    assume(not nk.close_pairs(spec.values, DEGENERACY_TOL).any())
    return coeffs, boundary, E, spec


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model_rank_energy(), st.integers(3, 6))
def test_widom_sums_match_dense_determinant(case, N):
    coeffs, boundary, E, spec = case
    perturbed = widom_sum_perturbed(coeffs, boundary, N, E, spec=spec).total
    direct = charpoly_direct(coeffs, boundary, N, E)
    assert abs(perturbed - direct) <= 1e-8 * (1 + abs(direct))
    open_bd = BoundaryTriple.boundary(boundary.C)
    total = widom_sum_open(coeffs, boundary.C, N, E, spec=spec).total
    direct = charpoly_direct(coeffs, open_bd, N, E)
    assert abs(total - direct) <= 1e-8 * (1 + abs(direct))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model_rank_energy(), st.integers(3, 8))
def test_circulant_identity_random(case, N):
    coeffs, _, E, _ = case
    direct = charpoly_direct(coeffs, BoundaryTriple.circulant(coeffs), N, E)
    value = charpoly_circulant(coeffs, N, E)
    assert abs(value - direct) <= 1e-8 * (1 + abs(direct))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model_rank_energy())
def test_growing_count_is_minus_winding(case):
    coeffs, _, E, spec = case
    try:
        wind = winding_number(coeffs, E)
    except OnCurve:
        assume(False)
    assume(not np.any(np.abs(spec.moduli - 1.0) < 1e-8))
    assert int(np.sum(spec.moduli > 1.0)) - coeffs.L == -wind
