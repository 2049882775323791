import numpy as np
import pytest

from toeplimit import numkernel as nk
from toeplimit.errors import ConvergenceFailure, NonSquare, SingularMatrix
from toeplimit.operators import BoundaryTriple, CoefficientTriple


def test_as_cmatrix_accepts_lists():
    m = nk.as_cmatrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_cmatrix_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        nk.as_cmatrix([1, 2, 3])
    with pytest.raises(ValueError):
        nk.as_cmatrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        nk.as_cmatrix([[np.inf, 0], [0, 1]])


def test_nonsquare_rejected():
    with pytest.raises(NonSquare):
        nk.eigenpairs(np.ones((2, 3)))


def test_eigenpairs_biorthogonality():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    dec = nk.eigenpairs(m)
    gram = dec.left_rows @ dec.right_vectors
    assert np.linalg.norm(gram - np.eye(6)) < 1e-10
    # reconstruction
    rec = dec.right_vectors @ np.diag(dec.values) @ dec.left_rows
    assert np.linalg.norm(rec - m) < 1e-10 * np.linalg.norm(m)


def test_eigenpairs_defective_flagged_or_refused():
    # a Jordan block has no eigenbasis; the backend either fails to invert
    # the (numerically singular) right-vector matrix or returns a fully
    # degeneracy-flagged decomposition that downstream code refuses to use
    try:
        dec = nk.eigenpairs([[0.0, 1.0], [0.0, 0.0]])
    except ConvergenceFailure:
        return
    assert dec.condition_flags.all()


def test_eigenpairs_rotation_matrix():
    dec = nk.eigenpairs([[0.0, -1.0], [1.0, 0.0]])
    assert sorted(dec.values, key=lambda z: z.imag) == pytest.approx([-1j, 1j])


def test_condition_flags_mark_close_eigenvalues():
    dec = nk.eigenpairs(np.diag([1.0, 1.0 + 1e-12, 5.0]))
    assert dec.condition_flags[0] and dec.condition_flags[1]
    assert not dec.condition_flags[2]


def test_determinant_matches_numpy_and_empty_convention():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert abs(nk.determinant(m) - np.linalg.det(m)) < 1e-10
    assert nk.determinant(np.zeros((0, 0))) == 1.0 + 0.0j


def test_solve_and_inverse():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rhs = rng.standard_normal((5, 2))
    x = nk.inverse(m) @ rhs
    assert np.linalg.norm(m @ x - rhs) < 1e-10
    assert np.linalg.norm(m @ nk.inverse(m) - np.eye(5)) < 1e-10


def test_solve_singular_raises():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        nk.inverse(singular)


def test_singularity_rule_is_the_rank_rule():
    # condition 1e11: an LU pivot test at 1e-12 accepted it, the rank rule
    # (RANK_TOL = 1e-10) does not
    near = np.diag([1.0, 1e-11])
    assert nk.numerical_rank(near) == 1
    with pytest.raises(SingularMatrix):
        nk.inverse(near)
    eye, zero = np.eye(2), np.zeros((2, 2))
    with pytest.raises(SingularMatrix):
        CoefficientTriple(eye, near, zero)
    assert np.allclose(nk.inverse(np.diag([1.0, 1e-9])), np.diag([1.0, 1e9]),
                       rtol=1e-15, atol=0)
    coeffs = CoefficientTriple(eye, eye, zero)
    assert BoundaryTriple(eye, near, eye).classify(coeffs) == "custom"
    assert BoundaryTriple(eye, eye, eye).classify(coeffs) == "perturbed"
