import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (gaussian_matrix, nondegenerate_energy, projection,
                      random_model)
from reference import riesz_projection_contour
from toeplimit import numkernel as nk
from toeplimit.errors import SingularMatrix
from toeplimit.operators import (BoundaryTriple, CoefficientTriple,
                                 eval_symbol)
from toeplimit.transfer import (_optimal_assignment, boundary_transfer_matrices,
                                branch_slopes, match_branches, modulus_order,
                                ordered_eig, ordered_spectrum, size_groups,
                                transfer_matrices, transfer_matrix)
from toeplimit.widom import index_sets


def boundary_transfer_matrix(boundary, E):
    """The one-energy row of the stacked ``boundary_transfer_matrices``."""
    return boundary_transfer_matrices(boundary, [E])[0]


def test_transfer_matrix_blocks(demo_model):
    L = demo_model.L
    E = 0.4 + 0.1j
    M = transfer_matrix(demo_model, E)
    Tinv = np.linalg.inv(demo_model.T)
    assert np.allclose(M[:L, :L], (E * np.eye(L) - demo_model.V) @ Tinv)
    assert np.allclose(M[:L, L:], -demo_model.R)
    assert np.allclose(M[L:, :L], Tinv)
    assert np.allclose(M[L:, L:], 0)


def test_boundary_transfer_matrix_blocks(demo_corner):
    L = demo_corner.L
    E = -0.2 + 0.7j
    M = boundary_transfer_matrix(demo_corner, E)
    Binv = np.linalg.inv(demo_corner.B)
    assert np.allclose(M[:L, :L], (E * np.eye(L) - demo_corner.C) @ Binv)
    assert np.allclose(M[:L, L:], -demo_corner.A)
    assert np.allclose(M[L:, :L], Binv)


def test_size_groups_memo_returns_fresh_read_only_groups():
    expected = [([1], [[2]]), ([0, 2], [[0, 1], [1, 3]])]

    def plain(groups):
        return [(rows.tolist(), idx.tolist()) for rows, idx in groups]

    first = size_groups([(0, 1), (2,), (3, 1)], 4)
    assert plain(first) == expected
    for rows, idx in first:
        # an intp array indexes rows; a tuple would index one row per axis
        assert isinstance(rows, np.ndarray) and rows.dtype == np.intp
        assert idx.dtype == np.intp
        with pytest.raises(ValueError):
            rows[0] = 5
        with pytest.raises(ValueError):
            idx[0, 0] = 5
    first.clear()
    # lists for tuples, a tuple for the list: the same key, the same groups
    assert plain(size_groups(([0, 1], [2], [3, 1]), 4)) == expected
    assert plain(size_groups([(0, 1), (2,), (3, 1)], 4)) == expected
    for _ in range(2):
        with pytest.raises(ValueError):
            size_groups([(0, 4)], 4)
        with pytest.raises(ValueError):
            size_groups([(-1,)], 4)


def test_eigenvalue_product_identity():
    rng = np.random.default_rng(10)
    for _ in range(5):
        co, _ = random_model(rng, int(rng.integers(1, 4)))
        E, spec = nondegenerate_energy(rng, co)
        lhs = complex(np.prod(spec.values))
        rhs = nk.determinant(co.R) / nk.determinant(co.T)
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


def test_modulus_ordering_and_scalar_tie_break(scalar_model):
    spec = ordered_spectrum(scalar_model, 0.0)
    # both eigenvalues unimodular; argument in [0, 2pi) breaks the tie
    assert spec.values[0] == pytest.approx(1j)
    assert spec.values[1] == pytest.approx(-1j)
    assert modulus_order(spec.values[None])[1].tolist() == [[True]]
    assert np.all(np.diff(spec.moduli) >= -1e-12)


def test_riesz_projection_algebra():
    rng = np.random.default_rng(11)
    co, _ = random_model(rng, 2)
    E, spec = nondegenerate_energy(rng, co)
    n = 2 * co.L
    projections = {I: projection(spec, I) for I in index_sets(n, range(n + 1))}
    eye = np.eye(n)
    for I, P in projections.items():
        assert np.linalg.norm(P @ P - P) < 1e-8
        comp = tuple(sorted(set(range(n)) - set(I)))
        assert np.linalg.norm(P + projections[comp] - eye) < 1e-8
    # commutation across all pairs
    keys = list(projections)
    for i, I in enumerate(keys):
        for J in keys[i + 1:]:
            PI, PJ = projections[I], projections[J]
            assert np.linalg.norm(PI @ PJ - PJ @ PI) < 1e-8


def test_riesz_projection_reproduces_eigenvalue_action():
    rng = np.random.default_rng(12)
    co, _ = random_model(rng, 2)
    E, spec = nondegenerate_energy(rng, co)
    M = transfer_matrix(co, E)
    I = (0, 3)
    P = projection(spec, I)
    rebuilt = sum(spec.values[i] * np.outer(spec.right_vectors[:, i],
                                            spec.left_rows[i, :]) for i in I)
    assert np.linalg.norm(M @ P - rebuilt) < 1e-8 * np.linalg.norm(M)


def test_contour_cross_check():
    rng = np.random.default_rng(13)
    co, _ = random_model(rng, 2)
    E, spec = nondegenerate_energy(rng, co)
    # enclose exactly the eigenvalues below the median modulus
    mods = spec.moduli
    radius = 0.5 * (mods[1] + mods[2])
    if mods[2] - mods[1] < 0.1:
        pytest.skip("random instance lacks a clean modulus gap")
    P_eig = projection(spec, (0, 1))
    P_contour = riesz_projection_contour(co, E, 0.0, radius, nodes=2048)
    assert np.linalg.norm(P_eig - P_contour) < 1e-6


def test_projection_onto_one_tie_member_is_a_projection(scalar_model):
    # z = i and z = -i share modulus 1 at E = 0: a tie, not a degeneracy
    spec = ordered_spectrum(scalar_model, 0.0)
    assert not spec.degenerate
    P = projection(spec, (0,))
    assert np.linalg.norm(P @ P - P) < 1e-8


def test_no_spurious_ties_at_large_energy():
    # widely separated decaying/growing branches must not merge into one tie
    # group just because the global modulus scale is large
    rng = np.random.default_rng(14)
    co, _ = random_model(rng, 2)
    spec = ordered_spectrum(co, 1e4)
    assert not modulus_order(spec.values[None])[1].any()
    assert not spec.degenerate


def test_decaying_branches_tie_only_within_their_own_modulus():
    # at |E| = 1e4 the decaying branches have moduli ~|r_i|/|E| = 1.905e-4
    # and 1.9e-4: 5e-8 apart, below TIE_TOL in absolute terms but 2.6e-3
    # apart relative to their size, so they are no tie and keep modulus order
    co = CoefficientTriple(np.diag([1.9j, 1.905]), np.diag([3.0, 2.0]),
                           [[0.0, 0.5], [0.5, 0.0]])
    spec = ordered_spectrum(co, 1e4)
    assert not modulus_order(spec.values[None])[1].any()
    assert np.all(np.diff(spec.moduli) > 0)
    assert spec.moduli[0] == pytest.approx(1.9e-4, rel=1e-3)
    # a pair within TIE_TOL of each other's modulus is still a tie
    assert modulus_order(np.array([[1e-4, 1e-4j * (1 + 1e-7)]]))[1].all()


def test_match_branches_identity_and_continuity():
    rng = np.random.default_rng(15)
    co, _ = random_model(rng, 2)
    E, spec_a = nondegenerate_energy(rng, co)
    assert np.array_equal(match_branches(spec_a.values, spec_a.values),
                          np.arange(4))
    spec_b = ordered_spectrum(co, E + 1e-6)
    perm = match_branches(spec_a.values, spec_b.values)
    moved = np.abs(spec_a.values - spec_b.values[perm])
    assert np.max(moved) < 1e-4


def scipy_assignment(cost):
    rows, cols = linear_sum_assignment(cost)
    return cols[np.argsort(rows)]


def test_optimal_assignment_matches_scipy_on_tied_costs():
    # small integer costs tie everywhere, so any difference in search order
    # or tie-breaking from linear_sum_assignment shows
    rng = np.random.default_rng(16)
    for trial in range(3000):
        n = trial % 8 + 1
        cost = rng.integers(0, 3, (n, n)).astype(float) * (0.1 if trial % 2 else 1)
        assert np.array_equal(_optimal_assignment(cost), scipy_assignment(cost))


@st.composite
def branch_stacks(draw):
    """An (n, m) pair of stacks of random values, some rows built so that the
    nearest-neighbour map is not the answer: two values nearest to the same
    target, or exact distance ties."""
    m = draw(st.sampled_from((2, 4, 6, 8)))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    b = a + draw(st.floats(0.0, 2.0)) * (rng.standard_normal((n, m))
                                        + 1j * rng.standard_normal((n, m)))
    for k in range(n):
        kind = draw(st.sampled_from(("random", "crowded", "tie")))
        if kind == "crowded":
            # a[0] and a[1] both sit next to b[0]
            a[k, 1] = a[k, 0] + 1e-3
            b[k, 0] = a[k, 0] + 5e-4
        elif kind == "tie":
            # integer lattice points: many exactly equal distances
            a[k] = rng.integers(-2, 3, m) + 1j * rng.integers(-2, 3, m)
            b[k] = rng.integers(-2, 3, m) + 1j * rng.integers(-2, 3, m)
    return a, b


@settings(max_examples=80, deadline=None, derandomize=True)
@given(branch_stacks())
def test_batched_match_branches_rows_are_optimal_assignments(stacks):
    a, b = stacks
    perm = match_branches(a, b)
    assert perm.shape == a.shape
    for k in range(a.shape[0]):
        cost = np.abs(a[k][:, None] - b[k][None, :])
        assert np.array_equal(perm[k], scipy_assignment(cost))
    assert np.array_equal(match_branches(a[0], b[0]), perm[0])


@st.composite
def model_and_energies(draw):
    """A random model, a copy of its corners with a singular B, and 1-6
    energies."""
    L = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs, boundary = random_model(rng, L)
    B = boundary.B.copy()
    B[:, -1] = 0.0
    singular = BoundaryTriple(gaussian_matrix(rng, L), B, boundary.C)
    coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    energies = draw(st.lists(st.builds(complex, coord, coord),
                             min_size=1, max_size=6))
    return coeffs, boundary, singular, np.array(energies)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_and_energies())
def test_scalar_calls_are_rows_of_the_batched_kernels(case):
    coeffs, boundary, singular, energies = case
    values, right, left_rows, degenerate = ordered_eig(coeffs, energies)
    stack = transfer_matrices(coeffs, energies)
    bstack = boundary_transfer_matrices(boundary, energies)
    zs = np.where(energies == 0, 1.0, energies)
    symbols = eval_symbol(coeffs, zs)
    for k, E in enumerate(energies):
        spec = ordered_spectrum(coeffs, E)
        assert np.array_equal(spec.values, values[k])
        assert np.array_equal(spec.right_vectors, right[k])
        assert spec.degenerate == degenerate[k]
        assert np.max(np.abs(spec.left_rows - left_rows[k])) <= 1e-12 * max(
            1.0, np.max(np.abs(left_rows[k])))
        assert np.array_equal(transfer_matrix(coeffs, E), stack[k])
        assert np.array_equal(boundary_transfer_matrix(boundary, E), bstack[k])
        # numpy rounds a complex product of two one-element arrays in another
        # inner loop than a broadcast one, so at L = 1 with a single energy
        # the symbol row may differ from the scalar call in the last bit
        assert np.max(np.abs(eval_symbol(coeffs, zs[k]) - symbols[k])) <= (
            1e-14 * (1.0 + np.max(np.abs(symbols[k]))))
    with pytest.raises(SingularMatrix):
        boundary_transfer_matrix(singular, energies[0])
    assert singular.classify(coeffs) == "custom"
    with pytest.raises(ValueError):
        ordered_eig(coeffs, np.append(energies, np.nan))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_branch_slopes_match_a_central_difference(L, seed):
    rng = np.random.default_rng(seed)
    coeffs, _ = random_model(rng, L)
    energies = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 2
    values, right, left_rows, degenerate = ordered_eig(coeffs, energies)
    slopes = branch_slopes(coeffs, right, left_rows)
    assert slopes.shape == values.shape
    step = 1e-6
    for k, E in enumerate(energies):
        if degenerate[k]:
            continue
        # each ordered branch continued to E +- step by matching
        ahead, behind = (ordered_eig(coeffs, [E + d])[0][0]
                         for d in (step, -step))
        central = (ahead[match_branches(values[k], ahead)]
                   - behind[match_branches(values[k], behind)]) / (2 * step)
        assert np.all(np.abs(central - slopes[k]) <= 1e-6 * np.abs(slopes[k]))
