import dataclasses
import json
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_model
from toeplimit import cli, limitsets
from toeplimit.errors import DegenerateSplit
from toeplimit.limitsets import (Region, _lambda_pair_arcs, _marching_squares,
                                 _unit_side, check_rank, compute_limit_sets,
                                 dominant_set, lambda_open, lambda_r,
                                 outliers_open, outliers_perturbed, q_open,
                                 q_perturbed_dominant, refine_zero,
                                 refine_zeros, scan_grid, sigma_r)
from toeplimit.operators import (BoundaryTriple, CoefficientTriple,
                                 circulant_spectrum_fft, winding_number)
from toeplimit.transfer import (match_branches, ordered_eig, ordered_spectrum,
                                transfer_matrices, transfer_matrix)
from toeplimit.widom import (q_hat, q_perturbed, q_tilde, widom_sum_open,
                             widom_sum_perturbed)

REGION = Region(-3, 3, -3, 3)
CONFIG_DIR = os.path.join(os.path.dirname(cli.__file__), "configs")


def config_run(name, grid=None):
    cfg = cli.load_config(os.path.join(CONFIG_DIR, name + ".json"))
    nx, ny = (grid, grid) if grid else (cfg.nx, cfg.ny)
    return compute_limit_sets(cfg.coeffs, cfg.boundary, Region(*cfg.region),
                              nx, ny)


@pytest.fixture(scope="module")
def scalar_scan(scalar_model):
    return scan_grid(scalar_model, REGION, 96, 96)


@pytest.fixture(scope="module")
def demo_scan(demo_model):
    return scan_grid(demo_model, REGION, 128, 128)


@pytest.fixture(scope="module")
def demo_rev_scan(demo_reversed):
    return scan_grid(demo_reversed, REGION, 128, 128)


def arc_points(arcs):
    pts = [a.points for a in arcs if a.points.size]
    return np.concatenate(pts) if pts else np.array([], dtype=complex)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(1.0, 1.0, -1.0, 1.0)


def test_scan_grid_shapes_and_product(scalar_scan):
    assert scalar_scan.values.shape == (96, 96, 2)
    # det T^E = det R / det T = 1, so the modulus product is 1 at every node
    prod = np.prod(scalar_scan.moduli, axis=2)
    assert np.allclose(prod, 1.0, atol=1e-9)
    assert scalar_scan.masked.sum() == 0


def test_scan_grid_rejects_small_grids(scalar_model):
    with pytest.raises(ValueError):
        scan_grid(scalar_model, REGION, 8, 8)


def test_scan_grid_demo_smoke(demo_scan):
    frac = demo_scan.masked.mean()
    assert frac < 0.001
    assert demo_scan.values.shape == (128, 128, 4)


def test_dominant_and_growing_counts(scalar_scan):
    # at r = L the dominant set is every growing branch
    counts = dominant_set(scalar_scan.moduli, scalar_scan.L).sum(axis=2)
    assert np.array_equal(counts, np.sum(scalar_scan.moduli > 1.0, axis=2))
    # off the segment [-2, 2] exactly one branch grows; product of moduli is 1
    far = counts[0, 0]
    assert far == 1
    assert dominant_set(scalar_scan.moduli, 1).sum(axis=2).max() <= 2


def test_sigma_periodic_scalar(scalar_model):
    cloud = circulant_spectrum_fft(scalar_model, 256)
    assert np.max(np.abs(cloud.imag)) < 1e-12
    assert np.min(cloud.real) == pytest.approx(-2.0, abs=1e-3)
    assert np.max(cloud.real) == pytest.approx(2.0, abs=1e-3)


def test_sigma_periodic_ellipse():
    co = CoefficientTriple([[1.0]], [[2.0]], [[7.0]])
    cloud = circulant_spectrum_fft(co, 512)
    theta = np.arctan2(cloud.imag, (cloud.real - 7) / 3)
    expected = 7 + 3 * np.cos(theta) + 1j * np.sin(theta)
    assert np.max(np.abs(cloud - expected)) < 1e-9


def test_scalar_sigma_is_segment(scalar_scan):
    pts = arc_points(sigma_r(scalar_scan, 1))
    assert pts.size > 20
    assert np.max(np.abs(pts.imag)) < 2 * scalar_scan.h
    assert np.min(pts.real) < -1.9 and np.max(pts.real) > 1.9
    assert np.max(np.abs(pts.real)) < 2.0 + 2 * scalar_scan.h


def test_scalar_lambda_is_segment(scalar_scan):
    pts = arc_points(lambda_open(scalar_scan))
    assert pts.size > 20
    assert np.max(np.abs(pts.imag)) < 2 * scalar_scan.h
    assert np.min(pts.real) < -1.9 and np.max(pts.real) > 1.9


def test_sigma_r_range_checks(scalar_scan):
    with pytest.raises(ValueError):
        sigma_r(scalar_scan, 5)
    with pytest.raises(ValueError):
        lambda_r(scalar_scan, -1)


def test_lambda_r_at_full_rank_empty(demo_scan):
    assert lambda_r(demo_scan, 2) == []


def test_sigma_r_subset_of_periodic_cloud(demo_model, demo_scan):
    cloud = circulant_spectrum_fft(demo_model, 1024)
    for r in (1, 2):
        pts = arc_points(sigma_r(demo_scan, r))
        assert pts.size
        dist = np.abs(pts[:, None] - cloud[None, :]).min(axis=1)
        assert np.max(dist) <= 2 * demo_scan.h


def unit_root_index(coeffs, energies, roots):
    """1-based modulus rank of the transfer root nearest ``roots`` at each
    energy, from a plain numpy T^E stack."""
    L = coeffs.L
    Tinv = np.linalg.inv(coeffs.T)
    stack = np.zeros((energies.size, 2 * L, 2 * L), dtype=complex)
    stack[:, :L, :L] = (energies[:, None, None] * np.eye(L) - coeffs.V) @ Tinv
    stack[:, :L, L:] = -coeffs.R
    stack[:, L:, :L] = Tinv
    vals = np.linalg.eigvals(stack)
    nearest = np.argmin(np.abs(vals - roots[:, None]), axis=1)
    moduli = np.abs(vals)
    return 1 + np.sum(moduli < moduli[np.arange(energies.size), nearest, None],
                      axis=1)


SIX_CONFIGS = ("scalar", "demo_open", "demo_boundary", "demo_H",
               "demo_Htilde", "demo_circulant")


@pytest.mark.parametrize("grid", [64, 128])
@pytest.mark.parametrize("name", SIX_CONFIGS)
def test_sigma_covers_the_periodic_cloud(name, grid):
    """Every FFT circulant eigenvalue in the region whose unit root e^{i
    theta} has index >= L - r + 1 lies within 2h of a Sigma_r point."""
    from scipy.spatial import cKDTree
    cfg = cli.load_config(os.path.join(CONFIG_DIR, name + ".json"))
    coeffs, region, L = cfg.coeffs, Region(*cfg.region), cfg.L
    n = 2048
    cloud = circulant_spectrum_fft(coeffs, n)
    roots = np.repeat(np.exp(2j * np.pi * np.arange(1, n + 1) / n), L)
    inside = ((region.re_min <= cloud.real) & (cloud.real <= region.re_max)
              & (region.im_min <= cloud.imag) & (cloud.imag <= region.im_max))
    cloud, index = cloud[inside], unit_root_index(coeffs, cloud[inside],
                                                  roots[inside])
    scan = scan_grid(coeffs, region, grid, grid)
    checked = 0
    for r in range(L + 1):
        points = arc_points(sigma_r(scan, r))
        wanted = cloud[index >= L - r + 1]
        checked += wanted.size
        if wanted.size:
            tree = cKDTree(np.column_stack([points.real, points.imag]))
            dist, _ = tree.query(np.column_stack([wanted.real, wanted.imag]))
            assert np.max(dist) <= 2 * scan.h, (name, grid, r)
    assert checked > 0


def test_demo_sigma1_equals_sigma_lambda1_empty(demo_scan):
    sigma = arc_points(sigma_r(demo_scan, 2))
    sigma1 = arc_points(sigma_r(demo_scan, 1))
    cost = np.abs(sigma[:, None] - sigma1[None, :])
    hausdorff = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    assert hausdorff <= 2 * demo_scan.h
    assert arc_points(lambda_r(demo_scan, 1)).size == 0


def test_demo_reversed_lambda1_nonempty(demo_rev_scan):
    assert arc_points(lambda_r(demo_rev_scan, 1)).size > 10


def test_refine_zero_linear_and_quadratic():
    point, res, status = refine_zero(lambda z: z - 2, 2.3, 0.01)
    assert status == "converged" and abs(point - 2) < 1e-10
    point, res, status = refine_zero(lambda z: (z - 1 - 1j) ** 2,
                                     1.2 + 0.9j, 0.01)
    assert abs(point - (1 + 1j)) < 1e-5


def test_outliers_open_demo(demo_model, demo_scan):
    C = np.array([[0.1, -0.3], [1.0, 2.0j]])
    lam = lambda_open(demo_scan)
    outs = outliers_open(demo_model, C, demo_scan, arcs=lam)
    assert len(outs) == 2
    for o in outs:
        assert o.status == "converged"
        assert o.residual < 1e-10
    # stability under grid refinement
    fine = scan_grid(demo_model, REGION, 192, 192)
    outs_fine = outliers_open(demo_model, C, fine, arcs=lambda_open(fine))
    assert len(outs_fine) == 2
    match = [min(abs(a.point - b.point) for b in outs_fine) for a in outs]
    assert max(match) < 1e-6


def test_outliers_respect_exclusion(demo_model, demo_scan):
    C = np.array([[0.1, -0.3], [1.0, 2.0j]])
    lam = lambda_open(demo_scan)
    outs = outliers_open(demo_model, C, demo_scan, arcs=lam)
    lam_pts = arc_points(lam)
    for o in outs:
        assert np.min(np.abs(lam_pts - o.point)) > 3 * demo_scan.h


def test_outliers_open_scalar_empty(scalar_model, scalar_scan):
    outs = outliers_open(scalar_model, [[0.0]], scalar_scan)
    assert outs == []


def test_outliers_perturbed_scalar_circulant_empty(scalar_model, scalar_scan):
    bd = BoundaryTriple.circulant(scalar_model)
    outs = outliers_perturbed(scalar_model, bd, scalar_scan)
    assert outs == []


def test_omega_membership(scalar_model):
    # E lies in the open set Omega_r, whose topological boundary is the
    # rank-r continuous spectrum, where the winding number exceeds -r
    assert winding_number(scalar_model, 10.0 + 5.0j) > -1
    assert not winding_number(scalar_model, 3.0) > 0


def test_omega_membership_constant_off_arcs(scalar_model, scalar_scan):
    # for r = 1 every energy off the segment is a member (one growing branch);
    # for r = 0 none is, so the indicator never flips along off-axis paths
    pts = arc_points(sigma_r(scalar_scan, 1))
    probes = [complex(x, y) for x in (-1.5, 0.3, 1.7) for y in (-1.0, 0.02, 1.0)]
    for E in probes:
        assert winding_number(scalar_model, E) > -1
        assert not winding_number(scalar_model, E) > 0
    # the arcs sit where the indicator boundary must be: on the real segment
    assert np.min(np.abs(pts - 0.5)) < 2 * scalar_scan.h


def test_compute_limit_sets_and_serialization(demo_model):
    bd = BoundaryTriple.boundary(np.array([[0.1, -0.3], [1.0, 2.0j]]))
    result = compute_limit_sets(demo_model, bd, REGION, 96, 96)
    assert any(a.label == "Sigma" for a in result.arcs)
    assert any(a.label == "Lambda" for a in result.arcs)
    assert len(result.outliers) == 2
    data = json.loads(json.dumps(result.to_json_dict()))
    assert set(data) == {"arcs", "outliers", "metadata"}
    assert len(data["outliers"]) == 2
    assert data["metadata"]["model_hash"]
    rows = result.to_csv().splitlines()
    assert rows[0] == "set_label,r,re,im,aux"
    points = sum(len(a.points) for a in result.arcs)
    assert len(rows) == 1 + points + len(result.outliers)
    for row, o in zip(rows[-2:], result.outliers):
        label, r, re, im, aux = row.split(",")
        assert (label, r) == ("Gamma_C", "")
        assert complex(float(re), float(im)) == o.point


def test_compute_limit_sets_circulant_only_sigma(scalar_model):
    result = compute_limit_sets(scalar_model, None, REGION, 64, 64)
    assert all(a.label == "Sigma" for a in result.arcs)
    assert result.outliers == []
    # the stages a circulant model does not run read 0
    assert result.timings["scan"] > 0 and result.timings["sigma"] > 0
    assert [result.timings[k] for k in ("lambda", "newton")] == [0.0, 0.0]


def test_circulant_corner_runs_as_no_corner(demo_model):
    # q = +-prod z_j never vanishes, so a circulant corner has no outlier
    # stage
    corner = BoundaryTriple.circulant(demo_model)
    result = compute_limit_sets(demo_model, corner, REGION, 32, 32)
    plain = compute_limit_sets(demo_model, None, REGION, 32, 32)
    assert result.to_json_dict() == plain.to_json_dict()
    assert result.timings["newton"] == 0


def test_compute_limit_sets_refuses_an_unread_r(demo_model):
    # r sets Sigma_r and Lambda_r only for a perturbed corner, within 0..L
    _, perturbed = random_model(np.random.default_rng(5), 2, rank_a=1)
    refused = [(None, 0), (BoundaryTriple.circulant(demo_model), 1),
               (BoundaryTriple.boundary(demo_model.V), 1),
               (BoundaryTriple.boundary(np.eye(2)), 2),
               (perturbed, -1), (perturbed, 3)]
    for boundary, r in refused:
        with pytest.raises(ValueError):
            compute_limit_sets(demo_model, boundary, REGION, 16, 16, r=r)
    for r in (None, 0, 1, 2):
        check_rank(demo_model, perturbed, r)
    check_rank(demo_model, None, None)


def test_detector_counts_in_metadata():
    keys = ("candidate_edges", "swapped_edges", "crossing_solves",
            "crossing_fallbacks", "crossings_kept", "sigma_curve_points",
            "sigma_tie_nodes", "tie_flagged_crossings")
    # the scalar slit is a fold of the sorted field, so all of its Sigma
    # comes from the symbol curve: one solve per curve point. demo_circulant
    # and demo_H run no equal-modulus pair, and marching squares leaves no
    # Sigma point of theirs more than h from a vertex
    pins = [("scalar", None, (0, 0, 208, 0, 0, 208, 0, 0)),
            ("demo_circulant", 64, (0, 0, 0, 0, 0, 0, 0, 0)),
            ("demo_H", 64, (0, 0, 0, 0, 0, 0, 0, 0)),
            ("demo_boundary", 64, (453, 95, 221, 4, 95, 0, 0, 0))]
    for name, grid, counts in pins:
        first, again = config_run(name, grid), config_run(name, grid)
        assert {k: first.metadata[k] for k in keys} == dict(zip(keys, counts))
        assert again.metadata == first.metadata
    # two decoupled channels with the slits [-2, 2] and [-1.5, 2.5] on the
    # real axis, a grid row: each slit node holds two unimodular eigenvalues.
    # Marching squares covers both slits to within h, so the curve adds no
    # point; with an open corner the crossings of the Lambda pair tie the
    # branch below
    co = CoefficientTriple(np.eye(2), np.eye(2), np.diag([0.0, 0.5]))
    pinned = ("sigma_tie_nodes", "tie_flagged_crossings", "sigma_curve_points")
    for corner, counts in ((None, (12, 0, 0)),
                           (BoundaryTriple.boundary(co.V), (12, 8, 0))):
        meta = compute_limit_sets(co, corner, Region(-3, 3, -1, 1), 17,
                                  17).metadata
        assert tuple(meta[k] for k in pinned) == counts


@pytest.mark.parametrize("name, counts", [
    ("demo_boundary", {"newton_seeds": 2, "newton_rounds": 4,
                       "newton_q_rows": 20, "newton_rejected_residual": 0}),
    ("demo_H", {"newton_seeds": 11, "newton_rounds": 42,
                "newton_q_rows": 929, "newton_rejected_residual": 11}),
    ("demo_open", {"newton_seeds": 5, "newton_rounds": 8,
                   "newton_q_rows": 80, "newton_rejected_residual": 5}),
    # both seeds run the full 50 rounds: the exhaustion path
    ("demo_Htilde", {"newton_seeds": 2, "newton_rounds": 50,
                     "newton_q_rows": 302, "newton_rejected_residual": 2})])
def test_newton_counts_in_metadata(name, counts):
    first, again = config_run(name, 64), config_run(name, 64)
    meta = first.metadata
    assert {k: meta[k] for k in counts} == counts
    assert meta["newton_rejected_out_of_region"] == 0
    assert meta["newton_rejected_exclusion"] == 0
    assert meta["newton_rejected_duplicate"] == 0
    # every seed is either accepted or rejected for one reason
    rejected = sum(v for k, v in meta.items()
                   if k.startswith("newton_rejected_"))
    assert meta["newton_seeds"] == len(first.outliers) + rejected
    assert len(first.outliers) == (2 if name == "demo_boundary" else 0)
    assert again.metadata == meta
    assert again.to_csv() == first.to_csv()


def test_masked_node_does_not_abort_the_outlier_stage(monkeypatch):
    cfg = cli.load_config(os.path.join(CONFIG_DIR, "demo_boundary.json"))
    region = Region(*cfg.region)
    q = q_open(cfg.coeffs, cfg.boundary.C)
    clean = compute_limit_sets(cfg.coeffs, cfg.boundary, region, 48, 48)
    clean_field = scan_grid(cfg.coeffs, region, 48, 48, q=q).q_field
    # node (0, 0) lies on the border, so it never seeds Newton
    bad = transfer_matrix(cfg.coeffs, complex(region.re_min, region.im_min))

    def failing(solver):
        def solve(a):
            # the symbol curve's L x L eigenproblems never fail
            a = np.asarray(a)
            if (a.shape[-2:] == bad.shape
                    and np.all(a == bad, axis=(-2, -1)).any()):
                raise np.linalg.LinAlgError("forced failure")
            return solver(a)
        return solve

    # the stacked solve of the node's chunk fails, then its own solve
    monkeypatch.setattr(np.linalg, "eig", failing(np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", failing(np.linalg.eigvals))
    result = compute_limit_sets(cfg.coeffs, cfg.boundary, region, 48, 48)
    field = scan_grid(cfg.coeffs, region, 48, 48, q=q).q_field
    # the masked node reads NaN; every other node keeps its |q|
    assert np.isnan(field[0, 0]) and np.isfinite(clean_field[0, 0])
    field[0, 0] = clean_field[0, 0]
    assert np.array_equal(field, clean_field, equal_nan=True)
    assert result.metadata["masked_nodes"] == 1
    assert clean.metadata["masked_nodes"] == 0
    assert len(result.outliers) == 2
    assert ([o.point for o in result.outliers]
            == [o.point for o in clean.outliers])


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_scan_q_field_is_the_q_rows(L):
    coeffs, boundary = random_model(np.random.default_rng(L), L)
    plain = scan_grid(coeffs, REGION, 20, 20)
    assert plain.q_field is None
    for q in (q_open(coeffs, boundary.C),
              q_perturbed_dominant(coeffs, boundary)):
        for workers in (1, 2):
            scan = scan_grid(coeffs, REGION, 20, 20, workers=workers, q=q)
            energies = scan.energies.ravel()
            assert (scan.q_field.tobytes()
                    == np.abs(q(energies)).reshape(20, 20).tobytes())
            values = ordered_eig(coeffs, energies)[0]
            assert same_bits(scan.values.reshape(values.shape), values)
            # LAPACK's eig and eigvals return the same eigenvalues, bit for bit
            assert same_bits(scan.values, plain.values)
            assert np.array_equal(scan.degenerate, plain.degenerate)


def test_scan_workers_are_capped_at_the_cpu_count(monkeypatch):
    pools = []

    class Recorder:
        """Runs the chunks in this thread and records the pool it stands
        in for."""
        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            self.chunks = len(chunks)
            return map(fn, chunks)

    coeffs, _ = random_model(np.random.default_rng(0), 2)
    serial = scan_grid(coeffs, REGION, 20, 20, workers=1)
    monkeypatch.setattr(limitsets, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(limitsets.os, "cpu_count", lambda: 3)
    scan = scan_grid(coeffs, REGION, 20, 20, workers=100_000)
    assert [(p.max_workers, p.chunks) for p in pools] == [(3, 12)]
    assert same_bits(scan.values, serial.values)
    # an unknown CPU count runs one worker: no pool at all
    monkeypatch.setattr(limitsets.os, "cpu_count", lambda: None)
    scan_grid(coeffs, REGION, 20, 20, workers=100_000)
    assert len(pools) == 1


def lone_newton(f, seed, h0, scale=1.0, max_iter=50):
    """Newton on one seed as a scalar loop in numpy's rounding, the
    reference for the rows of refine_zeros: (result, f evaluations,
    iterations entered). Values are np.complex128 scalars, whose division
    rounds as the array loop's does; moduli come from np.abs of a one-element
    array, since the scalar abs rounds differently in about a third of
    cases."""
    calls = iterations = 0

    def g(E):
        nonlocal calls
        calls += 1
        return np.complex128(f(complex(E)))

    def modulus(v):
        return np.abs(np.array([v]))[0]

    z, h = np.complex128(seed), np.float64(h0)
    fz = g(z)
    for _ in range(max_iter):
        iterations += 1
        if (not (np.isfinite(z) and np.isfinite(fz))
                or modulus(fz) < 1e-12 * scale):
            break
        with np.errstate(invalid="ignore", over="ignore"):
            df = (g(z + h) - g(z - h)) / (2 * h)
        if df == 0:
            h *= 0.5
            if h < 1e-13:
                break
            continue
        with np.errstate(invalid="ignore", over="ignore"):
            step = fz / df
            z = z - step
        fz = g(z)
        size = modulus(step)
        if size < 1e-13:
            break
        h = max(min(h, 0.5 * size + 1e-12), 1e-9)
    if not (np.isfinite(z) and np.isfinite(fz)):
        return (complex(seed), np.inf, "unconverged"), calls, iterations
    status = "converged" if modulus(fz) < 1e-12 * scale else "unconverged"
    return (complex(z), float(modulus(fz)), status), calls, iterations


def same_result(a, b):
    return (same_bits(a[0], b[0]) and np.float64(a[1]).tobytes()
            == np.float64(b[1]).tobytes() and a[2] == b[2])


def polynomial(roots, offset, radius):
    """prod(E - r) + offset in Python complex arithmetic, NaN off |E| <=
    radius."""
    def f(E):
        if abs(E) > radius:
            return complex(np.nan, np.nan)
        value = complex(1.0)
        for r in roots:
            value *= E - r
        return value + offset
    return f


# dyadic roots and steps keep z +- h - root exact, so a seed at the centre
# of a double root sees f(z + h) == f(z - h): the df == 0 branch
DYADIC = st.builds(complex, st.integers(-8, 8).map(lambda k: k / 4),
                   st.integers(-8, 8).map(lambda k: k / 4))


@st.composite
def newton_case(draw):
    """A polynomial of degree 1-3, NaN off a disc or not, and 1-8 seeds."""
    roots = draw(st.lists(DYADIC, min_size=1, max_size=3))
    double = len(roots) > 1 and draw(st.booleans())
    if double:
        roots[1] = roots[0]
    f = polynomial(roots, draw(st.sampled_from([0.0, 0.0, 0.25, 1e-14j])),
                   draw(st.sampled_from([np.inf, 0.75, 2.0])))
    coord = st.floats(-2.5, 2.5, allow_nan=False, allow_infinity=False)
    seeds = draw(st.lists(st.one_of(DYADIC, st.builds(complex, coord, coord)),
                          min_size=1, max_size=8))
    if double:
        seeds[draw(st.integers(0, len(seeds) - 1))] = roots[0]
    return (f, seeds, draw(st.sampled_from([2.0 ** -3, 2.0 ** -6, 0.01])),
            draw(st.sampled_from([1.0, 1e-3, 0.0])),
            draw(st.sampled_from([50, 50, 3, 1, 0])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(newton_case())
# df == 0 until h < 1e-13: a seed at the centre of a double root
@example((polynomial([0.5j, 0.5j], 0.25, np.inf), [0.5j, 1 + 1j], 0.125,
          1.0, 50))
# a derivative probe off the disc where f is finite: a NaN step, then the
# non-finite branch one iteration later
@example((polynomial([0.25], 0.0, 0.75), [0.7], 0.125, 1.0, 50))
# exhaustion after one iteration
@example((polynomial([1.0, -1.0, 2j], 0.0, np.inf), [0.3 + 0.1j, 2.2],
          0.125, 1.0, 1))
def test_lockstep_newton_rows_are_lone_runs(case):
    f, seeds, h0, scale, max_iter = case

    def q(energies):
        return np.array([f(complex(E)) for E in energies], dtype=np.complex128)

    results, rounds, rows = refine_zeros(q, seeds, h0, scale, max_iter)
    lone = [lone_newton(f, s, h0, scale, max_iter) for s in seeds]
    assert len(results) == len(seeds)
    for got, (want, _, _) in zip(results, lone):
        assert same_result(got, want)
    for s, (want, _, _) in zip(seeds, lone):
        assert same_result(refine_zero(f, s, h0, scale, max_iter), want)
    assert rows == sum(calls for _, calls, _ in lone)
    assert rounds == max(iterations for _, _, iterations in lone)
    assert refine_zeros(q, [], h0) == ([], 0, 0)
    # permuting the seeds permutes the results, bit for bit
    order = np.random.default_rng(len(seeds)).permutation(len(seeds))
    permuted, _, _ = refine_zeros(q, [seeds[k] for k in order], h0, scale,
                                  max_iter)
    for k, got in zip(order, permuted):
        assert same_result(got, results[k])


@pytest.mark.parametrize("name", ["demo_open", "demo_Htilde"])
def test_arcs_converge_under_grid_refinement(name):
    coarse, fine = config_run(name, 48), config_run(name, 96)
    labels = {a.label for a in coarse.arcs}
    assert labels and labels == {a.label for a in fine.arcs}
    for label in labels:
        p, q = (arc_points([a for a in r.arcs if a.label == label])
                for r in (coarse, fine))
        cost = np.abs(p[:, None] - q[None, :])
        hausdorff = max(cost.min(axis=1).max(), cost.min(axis=0).max())
        assert hausdorff <= 2 * coarse.metadata["h"]


def test_boundary_outliers_stable_under_grid_refinement():
    coarse, fine = config_run("demo_boundary", 48), config_run("demo_boundary", 96)
    assert len(coarse.outliers) == len(fine.outliers) == 2
    p, q = (np.array([o.point for o in r.outliers]) for r in (coarse, fine))
    cost = np.abs(p[:, None] - q[None, :])
    assert max(cost.min(axis=1).max(), cost.min(axis=0).max()) <= (
        fine.metadata["h"] / 10)


def loop_crossings(scan, a, b):
    """Per-edge reference of the equal-modulus detector: edges where branch
    matching swaps the ordered pair (a, b), bisected to h/100. An edge is
    tried only if the pair gap can close within twice the pair's movement,
    the larger of min_j |v_i(E) - v_j(E')| over i in (a, b)."""
    gap = scan.moduli[:, :, b] - scan.moduli[:, :, a]
    edges = [((iy, ix), (iy, ix + 1)) for iy in range(scan.im.size)
             for ix in range(scan.re.size - 1)]
    edges += [((iy, ix), (iy + 1, ix)) for iy in range(scan.im.size - 1)
              for ix in range(scan.re.size)]
    candidates, points = 0, []
    for n0, n1 in edges:
        if not (scan.valid[n0] and scan.valid[n1]):
            continue
        va, vb = scan.values[n0], scan.values[n1]
        move = np.max(np.min(np.abs(va[[a, b], None] - vb[None, :]), axis=1))
        if min(gap[n0], gap[n1]) > 2 * move + 1e-12 or gap[n0] < 0:
            continue
        candidates += 1
        perm = match_branches(va, vb)
        rank_b = np.argsort(np.argsort(np.abs(vb), kind="stable"), kind="stable")
        if rank_b[perm[a]] <= rank_b[perm[b]]:
            continue
        Ea, Eb = complex(scan.energies[n0]), complex(scan.energies[n1])
        lo, hi = 0.0, 1.0
        while hi - lo > 0.01:
            mid = 0.5 * (lo + hi)
            vals = np.linalg.eigvals(transfer_matrix(scan.coeffs,
                                                     Ea + mid * (Eb - Ea)))
            p = match_branches(va, vals)
            if abs(vals[p[a]]) - abs(vals[p[b]]) <= 0:
                lo = mid
            else:
                hi = mid
        points.append(Ea + 0.5 * (lo + hi) * (Eb - Ea))
    return candidates, points


def test_pair_detector_matches_per_edge_reference(demo_model):
    scan = scan_grid(demo_model, REGION, 40, 40)
    for a in range(3):
        before = dict(scan.detector_counts)
        arcs = _lambda_pair_arcs(scan, a, a + 1, "Lambda", None)
        candidates, reference = loop_crossings(scan, a, a + 1)
        assert reference
        work = {k: v - before[k] for k, v in scan.detector_counts.items()}
        assert work["candidate_edges"] == candidates
        assert work["swapped_edges"] == len(reference)
        # the located crossings are the bisected ones to h/100
        points = arc_points(arcs)
        assert points.size
        assert np.max(np.min(np.abs(points[:, None] - np.array(reference)),
                             axis=1)) <= scan.h / 100


def unpruned(point_filter):
    """``point_filter`` with the pre-test switched off: every edge passes a
    call with nonzero slack, so every swapped edge is located."""
    def f(mods, a, slack):
        if np.any(slack):
            return np.ones(len(mods), dtype=bool)
        return point_filter(mods, a, slack)
    return f


def pruning_scans():
    for name in ("demo_boundary", "demo_H", "demo_Htilde", "demo_circulant"):
        cfg = cli.load_config(os.path.join(CONFIG_DIR, name + ".json"))
        yield name, scan_grid(cfg.coeffs, Region(*cfg.region), 48, 48)
    rng = np.random.default_rng(2024)
    # the coefficients of an L = 3 rank(A) = 1 model and an L = 4 boundary
    # model: the arc detectors read no corner
    for L in (3, 4):
        coeffs, _ = random_model(rng, L)
        yield f"L{L}", scan_grid(coeffs, Region(-4, 4, -4, 4), 48, 48)


def fresh(scan):
    """The scan's solved grid with zero detector counts: a scan_grid of its
    own."""
    return dataclasses.replace(scan)


def detector_run(scan, a, label, point_filter):
    """The pair detector's arcs on (a, a + 1) and the counts it added."""
    before = dict(scan.detector_counts)
    arcs = _lambda_pair_arcs(scan, a, a + 1, label, 1,
                             point_filter=point_filter)
    return arcs, {k: v - before[k] for k, v in scan.detector_counts.items()}


def assert_same_arcs(arcs, reference, where):
    assert len(arcs) == len(reference), where
    for p, q in zip(arcs, reference):
        assert same_bits(p.points, q.points), where
        assert (p.label, p.r, p.crossing_index) == (
            q.label, q.r, q.crossing_index), where


def test_endpoint_pretest_keeps_every_crossing():
    total = {"pruned": 0, "unpruned": 0, "kept": 0}
    for name, scan in pruning_scans():
        # every Lambda_r pair, r = L - 1 .. 0
        for a in range(scan.L):
            # each run on its own grid, so that their counts compare
            pruned, work = detector_run(fresh(scan), a, "Lambda_r", _unit_side)
            full, full_work = detector_run(fresh(scan), a, "Lambda_r",
                                           unpruned(_unit_side))
            where = (name, a)
            assert_same_arcs(pruned, full, where)
            assert work["crossings_kept"] == full_work["crossings_kept"], where
            assert work["swapped_edges"] <= full_work["swapped_edges"], where
            assert work["crossing_solves"] <= full_work["crossing_solves"], where
            total["pruned"] += work["crossing_solves"]
            total["unpruned"] += full_work["crossing_solves"]
            total["kept"] += work["crossings_kept"]
    # the models have kept crossings, and the pre-test saves work
    assert total["kept"] > 0 and total["pruned"] < total["unpruned"]


def plain_bisection(coeffs, a, b, base, Ea, Eb):
    """The crossing of the ordered pair (a, b), continued from ``base`` by
    matching, on each edge Ea -> Eb by seven halvings of the whole edge: the
    midpoint of the last bracket, 2^-8 of the edge from the crossing."""
    lo, hi = np.zeros(Ea.size), np.ones(Ea.size)
    rows = np.arange(Ea.size)
    for _ in range(7):
        mid = 0.5 * (lo + hi)
        vals = np.linalg.eigvals(transfer_matrices(coeffs, Ea + mid * (Eb - Ea)))
        p = match_branches(base, vals)
        in_order = np.abs(vals[rows, p[:, a]]) <= np.abs(vals[rows, p[:, b]])
        lo, hi = np.where(in_order, mid, lo), np.where(in_order, hi, mid)
    return Ea + 0.5 * (lo + hi) * (Eb - Ea)


def test_lambda_crossings_match_a_plain_bisection(monkeypatch):
    located = []
    locate = limitsets._locate_crossings

    def recording(scan, a, b, base, Ea, Eb, *data):
        points, mods = locate(scan, a, b, base, Ea, Eb, *data)
        located.append((scan, a, b, base, Ea, Eb, points, mods))
        return points, mods

    monkeypatch.setattr(limitsets, "_locate_crossings", recording)
    fallbacks = {}
    for name, plain in pruning_scans():
        coeffs, L = plain.coeffs, plain.L
        _, boundary = random_model(np.random.default_rng(7), L)
        # Hermite roots from the branch slopes of a q scan, as in the
        # pipeline, and from chord slopes on the eigenvalue-only scan
        with_slopes = scan_grid(coeffs, plain.region, plain.re.size,
                                plain.im.size, q=q_open(coeffs, boundary.C))
        for scan in (with_slopes, plain):
            lambda_open(scan)
            for r in range(L):
                lambda_r(scan, r)
            fallbacks[name, scan.slopes is None] = (
                scan.detector_counts["crossing_fallbacks"])
    assert sum(points.size for *_, points, _ in located) > 500
    for scan, a, b, base, Ea, Eb, points, mods in located:
        reference = plain_bisection(scan.coeffs, a, b, base, Ea, Eb)
        assert np.max(np.abs(points - reference), initial=0) <= scan.h / 100
        # each point comes with the sorted moduli of its own solve
        own = np.sort(np.abs(np.linalg.eigvals(
            transfer_matrices(scan.coeffs, points))), axis=1)
        assert np.allclose(mods, own, rtol=1e-12, atol=0)
    # both ways of locating met rows whose check failed
    assert any(n for (_, chord), n in fallbacks.items() if chord)
    assert any(n for (_, chord), n in fallbacks.items() if not chord)


def all_branch_bound(v0, v1, branches):
    """The movement bound of every branch, max_i min_j |v_i(E) - v_j(E')|
    over all 2L branches: the pair detector's slack before the pair bound."""
    moves = np.abs(v0[..., :, None] - v1[..., None, :]).min(axis=-1)
    return moves.max(axis=-1)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_pair_bound_and_reuse_keep_the_arcs(L, monkeypatch):
    """Every detector call of the pipeline, in pipeline order on one scan,
    gives the arcs of an all-branch-bound run on a fresh scan of its own."""
    coeffs, _ = random_model(np.random.default_rng(500 + L), L)
    scan = scan_grid(coeffs, Region(-4, 4, -4, 4), 40, 40)
    calls = [partial(sigma_r, r=L), lambda_open]
    for r in range(L + 1):
        calls += [partial(sigma_r, r=r), partial(lambda_r, r=r)]
    kept = candidates = 0
    for call in calls:
        arcs = call(scan)
        reference = fresh(scan)
        with monkeypatch.context() as patch:
            patch.setattr(limitsets, "_movement", all_branch_bound)
            assert_same_arcs(arcs, call(reference), (L, call))
        kept += reference.detector_counts["crossings_kept"]
        candidates += reference.detector_counts["candidate_edges"]
    counts = scan.detector_counts
    assert counts["crossings_kept"] == kept > 0
    # at L = 1 the pair is every branch, so both bounds are one
    assert (counts["candidate_edges"] < candidates if L > 1
            else counts["candidate_edges"] == candidates)


@pytest.mark.parametrize("kind", ["modulus", "saddles"])
def test_marching_squares_matches_per_cell_reference(demo_scan, kind):
    re, im = demo_scan.re, demo_scan.im
    if kind == "modulus":
        field = demo_scan.moduli[:, :, 2] - 1.0

        def analytic(E):
            return float(ordered_spectrum(demo_scan.coeffs, E).moduli[2] - 1.0)
    else:
        # saddle cells near every zero of cos(4x) cos(4y)
        field = np.cos(4 * re)[None, :] * np.cos(4 * im)[:, None] - 1e-3

        def analytic(E):
            return float(np.cos(4 * E.real) * np.cos(4 * E.imag) - 1e-3)
    valid = demo_scan.valid
    reference, saddles = [], 0
    for iy in range(demo_scan.im.size - 1):
        for ix in range(demo_scan.re.size - 1):
            corners = ((iy, ix), (iy, ix + 1), (iy + 1, ix + 1), (iy + 1, ix))
            if not all(valid[c] for c in corners):
                continue
            f = [field[c] for c in corners]
            p = [complex(re[c[1]], im[c[0]]) for c in corners]
            cross = {k: p[k] + f[k] / (f[k] - f[k - 3]) * (p[k - 3] - p[k])
                     for k in range(4) if (f[k] > 0) != (f[k - 3] > 0)}
            if len(cross) == 2:
                reference.append(tuple(cross.values()))
            elif cross:
                saddles += 1
                center = analytic(0.25 * sum(p))
                pairs = (((0, 1), (2, 3)) if (center > 0) == (f[0] > 0)
                         else ((3, 0), (1, 2)))
                reference.extend((cross[i], cross[j]) for i, j in pairs)
    segments = _marching_squares(field, valid, re, im, analytic)
    assert len(reference) > 20 and (saddles > 0) == (kind == "saddles")
    assert [tuple(map(complex, s)) for s in segments] == reference


def same_bits(a, b):
    return (np.asarray(a, dtype=np.complex128).tobytes()
            == np.asarray(b, dtype=np.complex128).tobytes())


@st.composite
def model_rank_energies(draw):
    """A random model with L in {1, 2, 3}, rank(A) in {0..L}, and 1-6
    energies."""
    L = draw(st.integers(1, 3))
    rank_a = draw(st.integers(0, L))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs, boundary = random_model(rng, L, rank_a)
    coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    energies = draw(st.lists(st.builds(complex, coord, coord),
                             min_size=1, max_size=6))
    return coeffs, boundary, np.array(energies)


def reference_q_hat(spec, C, members):
    """q_hat written out on one spectrum, with the member columns selected."""
    L, idx = spec.L, list(members)
    P = spec.right_vectors[:, idx] @ spec.left_rows[idx, :]
    col = np.vstack([spec.energy * np.eye(L) - C, np.eye(L)])
    return np.linalg.det((P @ col)[L:, :])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_rank_energies())
def test_outlier_q_rows_are_the_scalar_q_functions(case):
    coeffs, boundary, energies = case
    L = coeffs.L
    q_o = q_open(coeffs, boundary.C)
    q_p = q_perturbed_dominant(coeffs, boundary)
    open_rows, perturbed_rows = q_o(energies), q_p(energies)
    for k, E in enumerate(energies):
        assert same_bits(q_o(np.array([E]))[0], open_rows[k])
        assert same_bits(q_p(np.array([E]))[0], perturbed_rows[k])
        spec = ordered_spectrum(coeffs, E)
        hat = q_hat(spec, boundary.C, range(L, 2 * L))
        perturbed = q_perturbed(spec, boundary, np.flatnonzero(
            dominant_set(spec.moduli, boundary.rank_A)))
        # the one-energy q is the row of its stack, NaN included
        assert same_bits(hat, open_rows[k])
        assert same_bits(perturbed, perturbed_rows[k])
        if spec.degenerate:
            assert np.isnan(open_rows[k]) and np.isnan(perturbed_rows[k])
            continue
        assert same_bits(reference_q_hat(spec, boundary.C, range(L, 2 * L)),
                         open_rows[k])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(2, 3), st.data())
def test_outlier_q_refuses_identical_channels(L, data):
    # L identical decoupled channels: every transfer eigenvalue has
    # multiplicity L, so every energy is degenerate
    rank_a = data.draw(st.integers(0, L), label="rank_a")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    r, t, v = (complex(*rng.standard_normal(2)) for _ in range(3))
    co = CoefficientTriple(r * np.eye(L), t * np.eye(L), v * np.eye(L))
    _, bd = random_model(rng, L, rank_a)
    energies = rng.uniform(-3, 3, 8) + 1j * rng.uniform(-3, 3, 8)
    assert np.isnan(q_open(co, bd.C)(energies)).all()
    assert np.isnan(q_perturbed_dominant(co, bd)(energies)).all()
    members = range(L, 2 * L)
    for E in energies:
        spec = ordered_spectrum(co, E)
        assert spec.degenerate
        assert np.isnan(q_hat(spec, bd.C, members))
        assert np.isnan(q_perturbed(spec, bd, members))
        assert np.isnan(q_tilde(spec, members))
        with pytest.raises(DegenerateSplit):
            widom_sum_open(co, bd.C, 4, E)
        with pytest.raises(DegenerateSplit):
            widom_sum_perturbed(co, bd, 4, E)
    result = compute_limit_sets(co, bd, REGION, 24, 24, workers=1)
    assert result.arcs == [] and result.outliers == []
    assert result.metadata["degenerate_nodes"] == 24 * 24
