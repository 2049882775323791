import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import random_model
from reference import transfer_recursion_residual
from toeplimit.errors import OnCurve, SingularMatrix, ZeroArgument
from toeplimit.numkernel import numerical_rank
from toeplimit.operators import (BoundaryTriple, CoefficientTriple,
                                 assemble_operator, charpoly_direct,
                                 circulant_spectrum_fft, eval_symbol,
                                 finite_spectrum, symbol_det_coefficients,
                                 winding_number)
from toeplimit.transfer import ordered_spectrum


def multiset_distance(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_coefficient_triple_validation():
    with pytest.raises(SingularMatrix):
        CoefficientTriple([[0.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError):
        CoefficientTriple([[1.0]], np.eye(2), [[0.0]])


def test_numerical_rank():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(3)) == 3
    u = np.array([[1.0], [2.0], [0.5]])
    assert numerical_rank(u @ u.T) == 1


def test_boundary_triple_rank_and_classify(demo_model, demo_corner):
    assert demo_corner.rank_A == 1
    assert demo_corner.classify(demo_model) == "perturbed"
    assert BoundaryTriple.circulant(demo_model).classify(demo_model) == "circulant"
    assert BoundaryTriple.boundary(demo_model.V).classify(demo_model) == "open"
    other = BoundaryTriple.boundary(np.eye(2))
    assert other.classify(demo_model) == "boundary"


def test_eval_symbol():
    co = CoefficientTriple([[1.0]], [[2.0]], [[7.0]])
    assert eval_symbol(co, 1.0)[0, 0] == pytest.approx(10.0)
    with pytest.raises(ZeroArgument):
        eval_symbol(co, 0.0)


def test_eval_symbol_at_a_subnormal_z():
    # |R/z| is about 5.8e307, below the double maximum, though 1/z is not
    R, T, V = 0.0889 - 0.0934j, 0.4528 + 0.0742j, -0.3788 + 0.2557j
    co = CoefficientTriple([[R]], [[T]], [[V]])
    s = 2.22507386e-309
    # R/(i s) = (Im R - i Re R)/s by real divisions, within the rounding of
    # numpy's reciprocal-then-multiply division
    expected = [complex(R.imag / s, -R.real / s) + V + T * (s * 1j),
                complex(-R.real / s, -R.imag / s) + V - T * s]
    one = eval_symbol(co, s * 1j)[0, 0]
    stack = eval_symbol(co, np.array([s * 1j, -s, 0.5 + 3j]))[:, 0, 0]
    assert np.allclose([one, *stack[:2]], [expected[0], *expected],
                       rtol=1e-15, atol=0)
    assert np.isfinite(stack).all()


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


def test_winding_doubled_samples_are_fresh_samples():
    # the Laurent polynomial of the coefficients, evaluated on the unit
    # circle, equals a fresh evaluation of the determinants up to roundoff
    # (the FFT and the LU round differently, so not bit for bit), and the
    # winding integer is L minus the number of transfer eigenvalues outside
    # the unit circle
    rng = np.random.default_rng(12)
    checked = 0
    for L in (1, 2, 3, 4):
        for size in (0.1, 1.0, 10.0, 100.0):
            for _ in range(2):
                co, _ = random_model(rng, L)
                E = size * np.exp(2j * np.pi * rng.uniform())
                laurent = symbol_det_coefficients(co, E)
                assert laurent.shape == (2 * L + 1,)
                for n in (512, 1024, 2048):
                    z = np.exp(2j * np.pi * np.arange(n) / n)
                    fresh = np.linalg.det(eval_symbol(co, z) - E * np.eye(L))
                    powers = z[:, None] ** np.arange(-L, L + 1)
                    gap = np.abs(powers @ laurent - fresh)
                    assert np.max(gap) <= 1e-13 * np.max(np.abs(fresh))
                moduli = ordered_spectrum(co, E).moduli
                if np.min(np.abs(moduli - 1)) < 1e-6:
                    continue
                assert winding_number(co, E) == L - int(np.sum(moduli > 1))
                checked += 1
    assert checked >= 24


def test_winding_near_the_symbol_curve():
    # energies 1e-4 to 1e-6 off the curve det(a(z) - E) = 0, |z| = 1, whose
    # transfer moduli stay at least 1e-7 from 1: the winding counts the
    # growing roots; an energy on the curve raises OnCurve
    rng = np.random.default_rng(31)
    checked = 0
    for L in (1, 2, 3, 4):
        for offset in (1e-4, 1e-5, 1e-6):
            for _ in range(10):
                co, _ = random_model(rng, L)
                z = np.exp(2j * np.pi * rng.uniform())
                on_curve = complex(np.linalg.eigvals(eval_symbol(co, z))[0])
                with pytest.raises(OnCurve):
                    winding_number(co, on_curve)
                E = on_curve + offset * np.exp(2j * np.pi * rng.uniform())
                moduli = ordered_spectrum(co, E).moduli
                if np.min(np.abs(moduli - 1)) < 1e-7:
                    continue
                assert winding_number(co, E) == L - int(np.sum(moduli > 1))
                checked += 1
    assert checked >= 100


def test_symbol_det_coefficients_closed_form():
    # det of diag(r/z + v - E + t z) is the product of its scalar factors
    r, t, v = np.array([1.0, 0.5j]), np.array([2.0, -1.0]), np.array([7.0, 1j])
    E = 0.3 - 0.2j
    co = CoefficientTriple(np.diag(r), np.diag(t), np.diag(v))
    expected = np.convolve([r[0], v[0] - E, t[0]], [r[1], v[1] - E, t[1]])
    assert np.allclose(symbol_det_coefficients(co, E), expected,
                       rtol=0, atol=1e-14)
    scalar = CoefficientTriple([[1.0]], [[2.0]], [[7.0]])
    assert np.allclose(symbol_det_coefficients(scalar, 3.0), [1.0, 4.0, 2.0],
                       rtol=0, atol=1e-14)


def test_finite_spectrum_reads_its_argument_in_place():
    co, bd = random_model(np.random.default_rng(14), 2)
    H = assemble_operator(co, bd, 100)
    kept = H.copy()
    tracemalloc.start()
    try:
        values = finite_spectrum(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a copy of H would show as a peak of at least H.nbytes
    assert peak < H.nbytes / 2
    assert np.array_equal(H, kept)
    assert np.array_equal(values, np.linalg.eigvals(kept))
    for bad in (np.nan, np.inf):
        H[3, 5] = bad
        with pytest.raises(ValueError):
            finite_spectrum(H)
    with pytest.raises(ValueError):
        finite_spectrum(kept[0])
    with pytest.raises(ValueError):
        finite_spectrum(np.stack([kept, kept]))


def block_loop_operator(co, bd, N):
    """The block tridiagonal operator filled one block at a time."""
    L = co.L
    H = np.zeros((N * L, N * L), dtype=np.complex128)
    for n in range(N):
        H[n * L:(n + 1) * L, n * L:(n + 1) * L] = co.V
    for n in range(N - 1):
        H[n * L:(n + 1) * L, (n + 1) * L:(n + 2) * L] = co.T
        H[(n + 1) * L:(n + 2) * L, n * L:(n + 1) * L] = co.R
    H[:L, :L] = bd.C
    H[:L, (N - 1) * L:] = bd.A
    H[(N - 1) * L:, :L] = bd.B
    return H


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("N", [3, 4, 17])
def test_assemble_operator_matches_block_loop(L, N):
    co, perturbed = random_model(np.random.default_rng(10 * L + N), L)
    corners = {"open": BoundaryTriple.boundary(co.V),
               "boundary": BoundaryTriple.boundary(perturbed.C),
               "circulant": BoundaryTriple.circulant(co),
               "perturbed": perturbed}
    for case, bd in corners.items():
        assert bd.classify(co) == case
        assert np.array_equal(assemble_operator(co, bd, N),
                              block_loop_operator(co, bd, N))


def test_charpoly_direct_equals_dense_det():
    rng = np.random.default_rng(13)
    for L, N in ((1, 5), (2, 7), (3, 4)):
        co, bd = random_model(rng, L)
        H = assemble_operator(co, bd, N)
        for _ in range(3):
            E = complex(rng.standard_normal(), rng.standard_normal())
            assert charpoly_direct(co, bd, N, E) == complex(
                np.linalg.det(H - E * np.eye(N * L)))


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
