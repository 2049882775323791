"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a single
pass/fail line, so a plain ``pytest -v tests/test_acceptance.py`` doubles as
the acceptance report.
"""
import cmath
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import (DEMO_A, DEMO_B, DEMO_C, DEMO_R, DEMO_T, DEMO_V,
                      gaussian_matrix, nondegenerate_energy, projection,
                      random_model)
from reference import (q_tilde_leading, riesz_projection_contour,
                       transfer_recursion_residual)
from toeplimit.asymptotics import (genericity_check, q_hat_leading, q_leading,
                                   rt_spectral_data)
from toeplimit.errors import NotSimpleSpectrum, OnCurve
from toeplimit.limitsets import (Region, lambda_r, outliers_open,
                                 outliers_perturbed, scan_grid, sigma_r)
from toeplimit.operators import (BoundaryTriple, CoefficientTriple,
                                 assemble_operator, charpoly_direct,
                                 circulant_spectrum_fft, finite_spectrum,
                                 winding_number)
from toeplimit.transfer import ordered_spectrum
from toeplimit.widom import (charpoly_circulant, index_sets, q_hat,
                             q_perturbed, q_tilde, widom_sum_open,
                             widom_sum_perturbed)

DEMO_COEFFS = CoefficientTriple(DEMO_R, DEMO_T, DEMO_V)
DEMO_REVERSED = CoefficientTriple(DEMO_T, DEMO_R, DEMO_V)
REGION = Region(-3, 3, -3, 3)


def check(num, desc, ok):
    line = f"criterion {num:02d} ({desc}): {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def arc_points(arcs):
    pts = [a.points for a in arcs if a.points.size]
    return np.concatenate(pts) if pts else np.array([], dtype=complex)


def _identity_ok(rng, open_case):
    L = int(rng.integers(1, 4))
    co, bd = random_model(rng, L)
    if open_case:
        bd = BoundaryTriple.boundary(gaussian_matrix(rng, L))
    N = int(rng.integers(3, 9))
    for _ in range(5):
        E, _ = nondegenerate_energy(rng, co)
        direct = charpoly_direct(co, bd, N, E)
        if open_case:
            total = widom_sum_open(co, bd.C, N, E).total
        else:
            total = widom_sum_perturbed(co, bd, N, E).total
        if abs(total - direct) > 1e-8 * (1 + abs(direct)):
            return False
    return True


def test_criterion_01_perturbed_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    ok = all(_identity_ok(rng, open_case=False) for _ in range(50))
    elapsed = time.monotonic() - start
    check(1, "perturbed determinant identity, 50 instances x 5 energies",
          ok and elapsed < 120.0)


def test_criterion_02_open_identity():
    rng = np.random.default_rng(102)
    ok = all(_identity_ok(rng, open_case=True) for _ in range(50))
    check(2, "open-boundary determinant identity, 50 instances x 5 energies",
          ok)


def test_criterion_03_circulant_identity():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(50):
        L = int(rng.integers(1, 4))
        co, _ = random_model(rng, L)
        N = int(rng.integers(3, 9))
        E, _ = nondegenerate_energy(rng, co)
        direct = charpoly_direct(co, BoundaryTriple.circulant(co), N, E)
        value = cmath.exp(charpoly_circulant(co, N, E))
        ok = ok and abs(value - direct) <= 1e-8 * (1 + abs(direct))
    scalar = CoefficientTriple([[1.0]], [[1.0]], [[0.0]])
    ok = ok and abs(cmath.exp(charpoly_circulant(scalar, 3, 0.0)) - 2.0) < 1e-12
    check(3, "circulant determinant formula incl. scalar anchor 2", ok)


def test_criterion_04_fft_vs_dense():
    rng = np.random.default_rng(104)
    ok = True
    for L in (1, 2, 3):
        for N in (3, 17, 32):
            co, _ = random_model(rng, L)
            dense = finite_spectrum(
                assemble_operator(co, BoundaryTriple.circulant(co), N))
            fft = circulant_spectrum_fft(co, N)
            cost = np.abs(dense[:, None] - fft[None, :])
            rows, cols = linear_sum_assignment(cost)
            ok = ok and float(cost[rows, cols].max()) <= 1e-9
    # decoupled diagonal fixture with closed-form spectrum
    L, N = 3, 16
    co = CoefficientTriple(np.eye(L), 2 * np.eye(L),
                           np.diag(7.0 * np.arange(1, L + 1)))
    fft = circulant_spectrum_fft(co, N)
    w = np.exp(2j * np.pi * np.arange(N) / N)
    expected = np.concatenate([1 / w + 7 * j + 2 * w
                               for j in range(1, L + 1)])
    cost = np.abs(fft[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    ok = ok and float(cost[rows, cols].max()) <= 1e-9
    check(4, "FFT vs dense circulant spectra and closed-form fixture", ok)


def test_criterion_05_winding_identity():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(20):
        L = int(rng.integers(1, 4))
        co, _ = random_model(rng, L)
        done = 0
        while done < 100:
            E = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
            try:
                wind = winding_number(co, E)
            except OnCurve:
                continue
            moduli = np.sort(np.abs(ordered_spectrum(co, E).values))
            if np.any(np.abs(moduli - 1.0) < 1e-8):
                continue
            ok = ok and int(np.sum(moduli > 1.0)) == L - wind
            done += 1
    check(5, "winding identity |{j: |z_j|>1}| = L - Wind, 20 x 100 energies",
          ok)


def test_criterion_06_projector_algebra():
    rng = np.random.default_rng(106)
    co, _ = random_model(rng, 2)
    subsets = index_sets(4, range(5))
    ok = True
    specs = []
    for _ in range(50):
        E, spec = nondegenerate_energy(rng, co)
        specs.append(spec)
        eye = np.eye(4)
        projs = {I: projection(spec, I) for I in subsets}
        for I, P in projs.items():
            comp = tuple(sorted(set(range(4)) - set(I)))
            ok = ok and np.linalg.norm(P @ P - P) < 1e-8
            ok = ok and np.linalg.norm(P + projs[comp] - eye) < 1e-8
            for Q in projs.values():
                ok = ok and np.linalg.norm(P @ Q - Q @ P) < 1e-8
    for spec in specs[:5]:
        gaps = np.abs(spec.values[:, None] - spec.values[None, :])
        np.fill_diagonal(gaps, np.inf)
        for j in range(4):
            radius = 0.5 * float(gaps[j].min())
            P = riesz_projection_contour(co, spec.energy, spec.values[j],
                                         radius, nodes=2048)
            ok = ok and np.linalg.norm(
                P - projection(spec, (j,))) < 1e-6
    check(6, "projector idempotency/completeness/commutation + contour check",
          ok)


def test_criterion_07_asymptotic_ratios():
    rng = np.random.default_rng(107)
    ok = True
    for L in (1, 2, 3):
        co = bd = rt = None
        while rt is None:
            co, bd = random_model(rng, L)
            try:
                rt = rt_spectral_data(co.R, co.T)
            except NotSimpleSpectrum:
                continue
        E = 1e4 * np.exp(2j * np.pi * rng.random())
        spec = ordered_spectrum(co, E)
        sets = index_sets(2 * L, [L])
        for I, c, e in zip(sets, *q_hat_leading(rt, sets, bd.C, co.V)):
            if abs(c) > 1e-9:
                ok = ok and abs(
                    q_hat(spec, bd.C, I) / (c * E ** e) - 1) <= 0.02
            c, e = q_tilde_leading(co.R, co.T, I)
            if abs(c) > 1e-9:
                ok = ok and abs(q_tilde(spec, I) / (c * E ** e) - 1) <= 0.02
        sets = index_sets(2 * L, range(L + bd.rank_A + 1))
        for I, c, e in zip(sets, *q_leading(rt, sets, bd.A, bd.B,
                                            bd.rank_A)):
            if abs(c) > 1e-9:
                ok = ok and abs(
                    q_perturbed(spec, bd, I) / (c * E ** e) - 1) <= 0.02
    # scalar anchors for the leading powers themselves
    rt1 = rt_spectral_data([[1.0]], [[1.0]])
    ok = ok and q_tilde_leading([[1.0]], [[1.0]], (1,)) == (
        pytest.approx(1.0), -1)
    coeff, expo = q_hat_leading(rt1, [(1,)], [[0.0]], [[0.0]])
    ok = ok and (coeff.tolist(), expo.tolist()) == (
        [pytest.approx(1.0)], [0])
    coeff, expo = q_leading(rt1, [(0,)], [[1.0]], [[1.0]], 1)
    ok = ok and (coeff.tolist(), expo.tolist()) == (
        [pytest.approx(-1.0)], [-1])
    check(7, "large-energy leading-term ratios within 2% at |E| = 1e4", ok)


def test_criterion_08_reference_model_reproduction():
    scan = scan_grid(DEMO_COEFFS, REGION, 128, 128)
    # (a) boundary condition C: exactly two isolated eigenvalue limits
    outs = outliers_open(DEMO_COEFFS, DEMO_C, scan)
    ok_a = len(outs) == 2 and all(o.status == "converged" for o in outs)
    # (b) rank-1 corner model: Lambda_1 empty, Sigma_1 fills Sigma
    ok_b = arc_points(lambda_r(scan, 1)).size == 0
    sigma = arc_points(sigma_r(scan, 2))
    sigma1 = arc_points(sigma_r(scan, 1))
    cost = np.abs(sigma[:, None] - sigma1[None, :])
    ok_b = ok_b and max(cost.min(axis=1).max(),
                        cost.min(axis=0).max()) <= 2 * scan.h
    # (c) coefficient-reversed model: Lambda_1 appears
    rev = scan_grid(DEMO_REVERSED, REGION, 128, 128)
    ok_c = arc_points(lambda_r(rev, 1)).size > 0
    # (d) finite-N eigenvalues track Sigma_1 and the rank-1 outliers
    fine = scan_grid(DEMO_COEFFS, REGION, 256, 256)
    bd = BoundaryTriple(DEMO_A, DEMO_B, DEMO_V)
    targets = arc_points(sigma_r(fine, 1))
    gamma = outliers_perturbed(DEMO_COEFFS, bd, fine)
    if gamma:
        targets = np.concatenate([targets, [o.point for o in gamma]])
    eigs = finite_spectrum(assemble_operator(DEMO_COEFFS, bd, 55))
    dist = np.abs(eigs[:, None] - targets[None, :]).min(axis=1)
    ok_d = float(np.mean(dist <= 0.1)) >= 0.95
    check(8, "reference-model limit sets: outliers, arcs, finite-N tracking",
          ok_a and ok_b and ok_c and ok_d)


def test_criterion_09_genericity():
    report = genericity_check(100, L=2, seed=9)
    check(9, "nonvanishing leading coefficients on 100 random draws",
          report.nonzero_fraction == 1.0)


def test_criterion_10_transfer_recursion_residual():
    rng = np.random.default_rng(110)
    worst = 0.0
    models = [(DEMO_COEFFS, BoundaryTriple(DEMO_A, DEMO_B, DEMO_V))]
    for L in (1, 2, 3):
        models.append(random_model(rng, L))
        co, _ = random_model(rng, L)
        models.append((co, BoundaryTriple.boundary(gaussian_matrix(rng, L))))
        co, _ = random_model(rng, L)
        models.append((co, BoundaryTriple.circulant(co)))
    for co, bd in models:
        for N in (3, 7, 10):
            H = assemble_operator(co, bd, N)
            _, vecs = np.linalg.eig(H)
            for k in range(H.shape[0]):
                E = (vecs[:, k].conj() @ H @ vecs[:, k])
                E = complex(E / (vecs[:, k].conj() @ vecs[:, k]))
                worst = max(worst, transfer_recursion_residual(
                    co, bd, N, E, vecs[:, k]))
    check(10, "eigenvector transfer recursion residual below 1e-6", worst <= 1e-6)
