import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_matrix, random_model
from toeplimit import cli
from toeplimit.limitsets import (Region, _lambda_pair_arcs, _marching_squares,
                                 compute_limit_sets, dominant_set, lambda_open,
                                 lambda_r, omega_r_membership, outliers_open,
                                 outliers_perturbed, q_open,
                                 q_perturbed_dominant, refine_zero, scan_grid,
                                 sigma_r)
from toeplimit.operators import (BoundaryTriple, CoefficientTriple,
                                 circulant_spectrum_fft)
from toeplimit.transfer import (DEGENERACY_TOL, TIE_TOL, match_branches,
                                ordered_spectrum, transfer_matrix)
from toeplimit.widom import q_hat, q_perturbed

REGION = Region(-3, 3, -3, 3)
CONFIG_DIR = os.path.join(os.path.dirname(cli.__file__), "configs")


def config_run(name, grid=None):
    cfg = cli.load_config(os.path.join(CONFIG_DIR, name + ".json"))
    nx, ny = (grid, grid) if grid else (cfg.nx, cfg.ny)
    boundary = None if cfg.case == "circulant" else cfg.boundary
    return compute_limit_sets(cfg.coeffs, boundary, Region(*cfg.region),
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
    assert omega_r_membership(scalar_model, 10.0 + 5.0j, 1)
    assert not omega_r_membership(scalar_model, 3.0, 0)


def test_omega_membership_constant_off_arcs(scalar_model, scalar_scan):
    # for r = 1 every energy off the segment is a member (one growing branch);
    # for r = 0 none is, so the indicator never flips along off-axis paths
    pts = arc_points(sigma_r(scalar_scan, 1))
    probes = [complex(x, y) for x in (-1.5, 0.3, 1.7) for y in (-1.0, 0.02, 1.0)]
    for E in probes:
        assert omega_r_membership(scalar_model, E, 1)
        assert not omega_r_membership(scalar_model, E, 0)
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


def test_detector_counts_in_metadata():
    counts = {"candidate_edges": 432, "swapped_edges": 84,
              "bisection_evals": 588, "crossings_kept": 84}
    first, again = config_run("scalar"), config_run("scalar")
    assert {k: first.metadata[k] for k in counts} == counts
    assert again.metadata == first.metadata


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
    matching swaps the ordered pair (a, b), bisected to h/100."""
    gap = scan.moduli[:, :, b] - scan.moduli[:, :, a]
    edges = [((iy, ix), (iy, ix + 1)) for iy in range(scan.ny)
             for ix in range(scan.nx - 1)]
    edges += [((iy, ix), (iy + 1, ix)) for iy in range(scan.ny - 1)
              for ix in range(scan.nx)]
    points = []
    for n0, n1 in edges:
        if not (scan.valid[n0] and scan.valid[n1]):
            continue
        va, vb = scan.values[n0], scan.values[n1]
        move = np.max(np.min(np.abs(va[:, None] - vb[None, :]), axis=1))
        if min(gap[n0], gap[n1]) > 2 * move + 1e-12 or gap[n0] < 0:
            continue
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
    return points


def test_pair_detector_matches_per_edge_reference(demo_model):
    scan = scan_grid(demo_model, REGION, 40, 40)
    for a in range(3):
        before = scan.detector_counts["swapped_edges"]
        arcs = _lambda_pair_arcs(scan, a, a + 1, "Lambda", None)
        reference = loop_crossings(scan, a, a + 1)
        assert reference
        assert scan.detector_counts["swapped_edges"] - before == len(reference)
        assert set(arc_points(arcs).tolist()) <= set(reference)


@pytest.mark.parametrize("kind", ["modulus", "saddles"])
def test_marching_squares_matches_per_cell_reference(demo_scan, kind):
    re, im = demo_scan.re, demo_scan.im
    if kind == "modulus":
        field = demo_scan.moduli[:, :, 2] - 1.0
    else:
        # saddle cells near every zero of cos(4x) cos(4y)
        field = np.cos(4 * re)[None, :] * np.cos(4 * im)[:, None] - 1e-3
    valid = demo_scan.valid
    reference, saddles = [], 0
    for iy in range(demo_scan.ny - 1):
        for ix in range(demo_scan.nx - 1):
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
                pairs = (((0, 1), (2, 3)) if (sum(f) > 0) == (f[0] > 0)
                         else ((3, 0), (1, 2)))
                reference.extend((cross[i], cross[j]) for i, j in pairs)
    segments = _marching_squares(field, valid, re, im)
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
    q_o = q_open(coeffs, boundary.C, DEGENERACY_TOL, TIE_TOL)
    q_p = q_perturbed_dominant(coeffs, boundary, DEGENERACY_TOL, TIE_TOL)
    open_rows, perturbed_rows = q_o(energies), q_p(energies)
    for k, E in enumerate(energies):
        assert same_bits(q_o(np.array([E]))[0], open_rows[k])
        assert same_bits(q_p(np.array([E]))[0], perturbed_rows[k])
        spec = ordered_spectrum(coeffs, E)
        hat = q_hat(spec, boundary.C, range(L, 2 * L))
        perturbed = q_perturbed(spec, boundary, np.flatnonzero(
            dominant_set(spec.moduli, boundary.rank_A)))
        if spec.degenerate:
            assert not hat.valid and not perturbed.valid
            assert np.isnan(open_rows[k]) and np.isnan(perturbed_rows[k])
            continue
        # the split check that the q rows skip could not have fired
        assert spec.degeneracy_clusters() == []
        assert same_bits(hat.value, open_rows[k])
        assert same_bits(perturbed.value, perturbed_rows[k])
        assert same_bits(reference_q_hat(spec, boundary.C, range(L, 2 * L)),
                         open_rows[k])


def test_outlier_q_refuses_identical_channels():
    # two identical decoupled channels: every transfer eigenvalue is double
    co = CoefficientTriple(0.7j * np.eye(2), (1.3 - 0.4j) * np.eye(2),
                           (0.2 + 0.1j) * np.eye(2))
    rng = np.random.default_rng(5)
    bd = BoundaryTriple(np.diag([1.0, 0.0]), gaussian_matrix(rng, 2),
                        gaussian_matrix(rng, 2))
    energies = rng.uniform(-3, 3, 20) + 1j * rng.uniform(-3, 3, 20)
    assert np.isnan(q_open(co, bd.C, DEGENERACY_TOL, TIE_TOL)(energies)).all()
    assert np.isnan(q_perturbed_dominant(co, bd, DEGENERACY_TOL, TIE_TOL)(
        energies)).all()
    for E in energies:
        spec = ordered_spectrum(co, E)
        assert spec.degenerate and spec.degeneracy_clusters()
        assert not q_hat(spec, bd.C, (2, 3)).valid
        assert not q_perturbed(spec, bd, (2, 3)).valid
