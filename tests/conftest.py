import numpy as np
import pytest

from toeplimit.operators import BoundaryTriple, CoefficientTriple
from toeplimit.transfer import set_projections


def gaussian_matrix(rng, L):
    return (rng.standard_normal((L, L))
            + 1j * rng.standard_normal((L, L))) / np.sqrt(2)


def rank_limited(rng, L, r):
    """Random L x L matrix of rank exactly r."""
    if r == 0:
        return np.zeros((L, L), dtype=np.complex128)
    u = (rng.standard_normal((L, r)) + 1j * rng.standard_normal((L, r)))
    v = (rng.standard_normal((r, L)) + 1j * rng.standard_normal((r, L)))
    return u @ v / np.sqrt(2 * r)


def random_model(rng, L, rank_a=None):
    coeffs = CoefficientTriple(gaussian_matrix(rng, L),
                               gaussian_matrix(rng, L),
                               gaussian_matrix(rng, L))
    if rank_a is None:
        rank_a = int(rng.integers(0, L + 1))
    boundary = BoundaryTriple(rank_limited(rng, L, rank_a),
                              gaussian_matrix(rng, L),
                              gaussian_matrix(rng, L))
    return coeffs, boundary


def projection(spec, members):
    """The Riesz projection of one index set of one spectrum: the one-row
    call of the stacked ``set_projections``."""
    return set_projections(spec.right_vectors, spec.left_rows, [members])[0]


def nondegenerate_energy(rng, coeffs, scale=3.0, max_tries=50):
    from toeplimit.transfer import ordered_spectrum
    for _ in range(max_tries):
        E = complex(rng.standard_normal(), rng.standard_normal()) * scale
        spec = ordered_spectrum(coeffs, E)
        if not spec.degenerate:
            return E, spec
    raise RuntimeError("no nondegenerate energy found")


DEMO_R = np.array([[0.3j, 0.7], [0.0, 0.3j]])
DEMO_T = np.array([[1.5, 0.0], [-0.6j, 1.5]])
DEMO_V = np.array([[0.3 - 0.3j, -0.5j], [1.0, -0.3 - 0.3j]])
DEMO_A = np.array([[0.0, 1.0], [0.0, 0.0]])
DEMO_B = np.array([[1.0, 0.0], [0.0, 0.2 + 1.0j]])
DEMO_C = np.array([[0.1, -0.3], [1.0, 2.0j]])


@pytest.fixture(scope="session")
def demo_model():
    return CoefficientTriple(DEMO_R, DEMO_T, DEMO_V)


@pytest.fixture(scope="session")
def demo_reversed():
    return CoefficientTriple(DEMO_T, DEMO_R, DEMO_V)


@pytest.fixture(scope="session")
def demo_corner():
    return BoundaryTriple(DEMO_A, DEMO_B, DEMO_C)


@pytest.fixture(scope="session")
def scalar_model():
    return CoefficientTriple([[1.0]], [[1.0]], [[0.0]])


@pytest.fixture(scope="session")
def twin_channels():
    """Two identical decoupled channels, R = T = I and V = 0: every transfer
    eigenvalue is double, exactly, so every spectrum is degenerate."""
    return CoefficientTriple(np.eye(2), np.eye(2), np.zeros((2, 2)))
