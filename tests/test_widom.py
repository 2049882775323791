import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (gaussian_matrix, nondegenerate_energy, projection,
                      random_model)
from toeplimit import numkernel as nk
from toeplimit.errors import DegenerateSplit, OnCurve
from toeplimit.operators import (BoundaryTriple, assemble_operator,
                                 charpoly_direct, charpoly_logdet,
                                 winding_number)
from toeplimit.transfer import (boundary_transfer_matrices, ordered_spectrum,
                                transfer_matrix)
from toeplimit.widom import (WidomSum, charpoly_circulant, index_sets, q_hat,
                             q_perturbed, q_sets, q_tilde, widom_logdet,
                             widom_sum_open, widom_sum_perturbed)


def test_index_sets_counts():
    assert len(index_sets(4, [2])) == 6
    assert len(index_sets(6, range(7))) == 64
    assert index_sets(4, [0]) == [()]


def test_index_sets_memo_returns_a_fresh_list():
    expected = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    first = index_sets(3, [1, 2])
    assert first == expected
    first.append((9,))
    first[0] = None
    assert index_sets(3, [1, 2]) == expected
    assert index_sets(3, (1, 2)) == expected
    assert index_sets(3, range(1, 3)) == expected
    assert index_sets(3, [2, 1]) == expected[3:] + expected[:3]


def test_q_hat_scalar_closed_form(scalar_model):
    # open tridiagonal chain: det(H_N - E) = (-1)^N (z2^{N+1}-z1^{N+1})/(z2-z1)
    # forces q_hat for the growing branch to z2/(z2 - z1)
    E = 3.0
    spec = ordered_spectrum(scalar_model, E)
    z1, z2 = spec.values
    q = q_hat(spec, np.zeros((1, 1)), (1,))
    assert isinstance(q, complex)
    assert q == pytest.approx(z2 / (z2 - z1))
    q0 = q_hat(spec, np.zeros((1, 1)), (0,))
    assert q0 == pytest.approx(-z1 / (z2 - z1))


def test_q_tilde_lower_left_block():
    rng = np.random.default_rng(20)
    co, _ = random_model(rng, 2)
    E, spec = nondegenerate_energy(rng, co)
    I = (1, 3)
    P = projection(spec, I)
    q = q_tilde(spec, I)
    assert q == pytest.approx(np.linalg.det(P[2:, :2]))


def test_q_perturbed_rank_short_circuit():
    rng = np.random.default_rng(21)
    co, bd = random_model(rng, 2, rank_a=1)
    E, spec = nondegenerate_energy(rng, co)
    q = q_perturbed(spec, bd, (0, 1, 2, 3))  # |I| = 4 > L + rank(A) = 3
    assert q == 0
    q_empty = q_perturbed(spec, bd, ())
    assert q_empty == pytest.approx(1.0)  # det(-R_{I^c}) = det(-1)


def test_q_invalid_on_degenerate_spectrum(twin_channels):
    spec = ordered_spectrum(twin_channels, 0.3)
    zero = np.zeros((2, 2))
    bd = BoundaryTriple(zero, np.eye(2), zero)
    for q in (q_tilde(spec, (0, 1)), q_hat(spec, zero, (0, 1)),
              q_perturbed(spec, bd, (0, 1))):
        assert isinstance(q, complex) and np.isnan(q)


def test_circulant_scalar_anchor(scalar_model):
    assert cmath.exp(charpoly_circulant(scalar_model, 3, 0.0)) == pytest.approx(2.0)


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


def charpoly_semipermeable(coeffs, boundary, N, E):
    """(-1)^{L(N-1)} det(B) det(T)^{N-1} det((T^E)^{N-1} T^E_bd - 1), an
    independent route to the perturbed determinant (B invertible) at small
    N, where the matrix power stays in the double range."""
    L = coeffs.L
    power = np.linalg.matrix_power(transfer_matrix(coeffs, E), N - 1)
    Tbd = boundary_transfer_matrices(boundary, [E])[0]
    return ((-1) ** (L * (N - 1)) * boundary.detB * coeffs.detT ** (N - 1)
            * np.linalg.det(power @ Tbd - np.eye(2 * L)))


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


def test_widom_sum_refuses_degenerate(twin_channels):
    zero = np.zeros((2, 2))
    bd = BoundaryTriple(zero, np.eye(2), zero)
    with pytest.raises(DegenerateSplit):
        widom_sum_open(twin_channels, zero, 5, 0.3)
    with pytest.raises(DegenerateSplit):
        widom_sum_perturbed(twin_channels, bd, 5, 0.3)
    # the stacked kernel marks each degenerate row NaN instead
    for corner in (zero, bd):
        assert np.isnan(widom_logdet(twin_channels, corner, 5,
                                     [0.3, -1.2 + 0.5j])).all()


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
    assume(not spec.degenerate)
    return coeffs, boundary, E, spec


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model_rank_energy(), st.integers(3, 6))
def test_widom_sums_match_dense_determinant(case, N):
    coeffs, boundary, E, spec = case
    perturbed = widom_sum_perturbed(coeffs, boundary, N, E).total
    direct = charpoly_direct(coeffs, boundary, N, E)
    assert abs(perturbed - direct) <= 1e-8 * (1 + abs(direct))
    open_bd = BoundaryTriple.boundary(boundary.C)
    total = widom_sum_open(coeffs, boundary.C, N, E).total
    direct = charpoly_direct(coeffs, open_bd, N, E)
    assert abs(total - direct) <= 1e-8 * (1 + abs(direct))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model_rank_energy(), st.integers(3, 8))
def test_circulant_identity_random(case, N):
    coeffs, _, E, _ = case
    direct = charpoly_direct(coeffs, BoundaryTriple.circulant(coeffs), N, E)
    value = cmath.exp(charpoly_circulant(coeffs, N, E))
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


def written_out_projection(spec, members):
    """The Riesz projection of one index set, member columns selected."""
    idx = list(members)
    return spec.right_vectors[:, idx] @ spec.left_rows[idx, :]


def reference_total(spec, sets, z_power, qvals, detT, prefactor):
    """The Widom sum written out from one-set q values and Z_I = (-1)^L
    det(T) prod z_i, compensated over the terms. The empty product is 1, so
    Z of the empty set, a term of every perturbed sum, is (-1)^L det T."""
    terms = []
    for I, q in zip(sets, qvals):
        prod = complex(np.prod(spec.values[list(I)])) if I else 1.0 + 0j
        z = (-1) ** spec.L * detT * prod
        terms.append(prefactor * z ** z_power * q)
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def same_rows(stacked, one_set):
    """The rows of a stacked q call have the bits of the one-set calls."""
    return stacked.tobytes() == np.array(one_set, dtype=complex).tobytes()


def assert_same_total(ws, total):
    assert isinstance(ws, WidomSum) and isinstance(ws.total, complex)
    assert ws.total == cmath.exp(ws.logdet)
    assert abs(ws.total - total) <= 1e-12 * abs(total)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model_rank_energy(), st.integers(3, 6))
def test_widom_sums_are_their_one_set_rows(case, N):
    # every q row of a stacked call has the bits of its one-set call, and
    # those have the bits of the written-out formulas; the sums match the
    # written-out compensated sum of those rows
    coeffs, boundary, E, spec = case
    L = coeffs.L
    detT = nk.determinant(coeffs.T)
    sets = index_sets(2 * L, [L])
    qvals = [q_hat(spec, boundary.C, I) for I in sets]
    col = np.vstack([E * np.eye(L) - boundary.C, np.eye(L)])
    for I, q in zip(sets, qvals):
        G = written_out_projection(spec, I)
        assert repr(q) == repr(complex(np.linalg.det((G @ col)[L:, :])))
    assert same_rows(q_sets(spec, boundary.C, sets), qvals)
    ws = widom_sum_open(coeffs, boundary.C, N, E)
    assert_same_total(ws, reference_total(spec, sets, N, qvals, detT, 1.0))

    sets = index_sets(2 * L, range(L + boundary.rank_A + 1))
    qvals = [q_perturbed(spec, boundary, I) for I in sets]
    Tbd = boundary_transfer_matrices(boundary, [E])[0]
    for I, q in zip(sets, qvals):
        P = written_out_projection(spec, I)
        direct = np.linalg.det(P @ Tbd - (np.eye(2 * L) - P))
        assert repr(q) == repr(complex(direct))
    assert same_rows(q_sets(spec, boundary, sets), qvals)
    ws = widom_sum_perturbed(coeffs, boundary, N, E)
    detB = nk.determinant(boundary.B)
    assert_same_total(ws, reference_total(spec, sets, N - 1, qvals, detT, detB))


def log_gap(a, b):
    """|a / b - 1| for complex logs a and b."""
    return abs(np.expm1(a - b))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_rank_energy(), st.integers(3, 200),
       st.lists(st.complex_numbers(max_magnitude=4.0), min_size=1,
                max_size=4))
def test_widom_logdet_matches_dense_logdet(case, N, more):
    # both rules' rows against slogdet of the dense H_N - E at N up to 200;
    # a stacked call is its one-energy rows, bit for bit
    coeffs, boundary, E, _ = case
    rows = ((widom_sum_open(coeffs, boundary.C, N, E), boundary.C,
             BoundaryTriple.boundary(boundary.C)),
            (widom_sum_perturbed(coeffs, boundary, N, E), boundary, boundary))
    for ws, corner, bd in rows:
        assert log_gap(ws.logdet, charpoly_logdet(coeffs, bd, N, E)) <= 1e-9
        energies = [E] + more
        stacked = widom_logdet(coeffs, corner, N, energies)
        one = [widom_logdet(coeffs, corner, N, [x])[0] for x in energies]
        assert stacked.tobytes() == np.array(one).tobytes()
        assert stacked[0] == ws.logdet
