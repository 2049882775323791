import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import random_model
from toeplimit.errors import OnCurve, SingularMatrix, ZeroArgument
from toeplimit.operators import (BoundaryTriple, CoefficientTriple,
                                 assemble_operator, charpoly_direct,
                                 circulant_spectrum_fft, eval_symbol,
                                 finite_spectrum, numerical_rank,
                                 winding_number)
from toeplimit.transfer import ordered_spectrum
from toeplimit.widom import transfer_recursion_residual


def multiset_distance(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_coefficient_triple_validation():
    with pytest.raises(SingularMatrix):
        CoefficientTriple([[0.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError):
        CoefficientTriple([[1.0]], np.eye(2), [[0.0]])


def test_reversed_swaps_off_diagonals(demo_model):
    rev = demo_model.reversed()
    assert np.array_equal(rev.R, demo_model.T)
    assert np.array_equal(rev.T, demo_model.R)
    assert np.array_equal(rev.V, demo_model.V)


def test_numerical_rank():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(3)) == 3
    u = np.array([[1.0], [2.0], [0.5]])
    assert numerical_rank(u @ u.T) == 1


def test_boundary_triple_rank_and_classify(demo_model, demo_corner):
    assert demo_corner.rank_A == 1
    assert demo_corner.classify(demo_model) == "perturbed"
    assert BoundaryTriple.circulant(demo_model).classify(demo_model) == "circulant"
    assert BoundaryTriple.open(demo_model).classify(demo_model) == "open"
    other = BoundaryTriple.boundary(np.eye(2))
    assert other.classify(demo_model) == "boundary"


def test_eval_symbol():
    co = CoefficientTriple([[1.0]], [[2.0]], [[7.0]])
    assert eval_symbol(co, 1.0)[0, 0] == pytest.approx(10.0)
    with pytest.raises(ZeroArgument):
        eval_symbol(co, 0.0)


def test_assemble_operator_structure(demo_model, demo_corner):
    N, L = 5, 2
    H = assemble_operator(demo_model, demo_corner, N)
    assert H.shape == (N * L, N * L)
    assert np.array_equal(H[:L, :L], demo_corner.C)
    assert np.array_equal(H[:L, -L:], demo_corner.A)
    assert np.array_equal(H[-L:, :L], demo_corner.B)
    assert np.array_equal(H[L:2 * L, L:2 * L], demo_model.V)
    assert np.array_equal(H[L:2 * L, 2 * L:3 * L], demo_model.T)
    assert np.array_equal(H[2 * L:3 * L, L:2 * L], demo_model.R)
    with pytest.raises(ValueError):
        assemble_operator(demo_model, demo_corner, 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(3, 8), st.integers(0, 2 ** 32 - 1))
def test_fft_matches_dense_circulant(L, N, seed):
    co, _ = random_model(np.random.default_rng(seed), L)
    dense = finite_spectrum(assemble_operator(co, BoundaryTriple.circulant(co), N))
    fft = circulant_spectrum_fft(co, N)
    assert multiset_distance(dense, fft) < 1e-9


def test_fft_closed_form_fixture():
    # symbol z^-1 + 7 + 2z has circulant eigenvalues at the N-th roots of unity
    co = CoefficientTriple([[1.0]], [[2.0]], [[7.0]])
    N = 16
    roots = np.exp(-2j * np.pi * np.arange(1, N + 1) / N)
    expected = 1 / roots + 7 + 2 * roots
    assert multiset_distance(circulant_spectrum_fft(co, N), expected) < 1e-9


def test_winding_scalar_anchor(scalar_model):
    assert winding_number(scalar_model, 3.0) == 0
    with pytest.raises(OnCurve):
        winding_number(scalar_model, 0.0)


def test_winding_far_energy_counts():
    rng = np.random.default_rng(4)
    co, _ = random_model(rng, 2)
    E = 50.0 + 30.0j
    assert winding_number(co, E) == 0
    spec = ordered_spectrum(co, E)
    assert int(np.sum(spec.moduli > 1)) == co.L


def test_charpoly_direct_scalar_anchor(scalar_model):
    bd = BoundaryTriple.circulant(scalar_model)
    assert charpoly_direct(scalar_model, bd, 3, 0.0) == pytest.approx(2.0)


def test_charpoly_direct_monic_leading(demo_model, demo_corner):
    N, L = 4, 2
    E = 1e6
    value = charpoly_direct(demo_model, demo_corner, N, E)
    assert abs(value / ((-E) ** (N * L)) - 1) < 1e-4


def test_transfer_recursion_residual_eigenpairs():
    rng = np.random.default_rng(5)
    co, bd = random_model(rng, 2)
    N = 6
    H = assemble_operator(co, bd, N)
    values, vectors = np.linalg.eig(H)
    for i in range(values.size):
        res = transfer_recursion_residual(co, bd, N, values[i], vectors[:, i])
        assert res < 1e-8
