"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The four synthetic scenarios run once per session at the
desk scale (100x100 grid, 20 frames) and are shared by the criteria that
score them. Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from meshsrr.config import preset
from meshsrr.experiment import run_experiment
from meshsrr.flow import FlowParams, horn_schunck
from meshsrr.grid import GridImage
from meshsrr.mesh import build_pixel_assignment
from meshsrr.metrics import overlap
from meshsrr.operators import ObservationModel, gaussian_kernel, warp_image
from meshsrr.phantoms import COARSE, FINE, disc_mesh

from oracles import (band_terms, boundary, brute_force_hausdorff, brute_force_masd,
                     dense_blur_matrix, dense_laplacian_matrix,
                     dense_projection_matrix, dense_warp_matrix,
                     random_mask_pair)
from test_operators import (dense_warp_transpose, mask, observe, observe_adjoint,
                            project, random_flow, stencil_normal)
from test_metrics import distances, mask_from_pixels


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL: {title}")
        raise
    print(f"[criterion {number:2d}] PASS: {title}")


@pytest.fixture(scope="session")
def square_mesh_session():
    from meshsrr.mesh import FemMesh
    nodes = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    return FemMesh(nodes, np.array([[0, 1, 2], [0, 2, 3]]))


@pytest.fixture(scope="session")
def preset_runs():
    """Desk-scale runs of the four scenarios (estimated motion) plus the
    known-motion variant of the low-SNR lung case; values include wall time
    per run."""
    runs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("ex1a", "ex1b", "ex2a", "ex2b"):
            cfg = replace(preset(name), grid=100)
            t0 = time.perf_counter()
            runs[name] = run_experiment(replace(cfg, known_motion=False))
            runs[name + "_seconds"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        runs["ex2b_known"] = run_experiment(
            replace(preset("ex2b"), grid=100, known_motion=True))
        runs["ex2b_known_seconds"] = time.perf_counter() - t0
    return runs


def test_criterion_1_operator_adjoint_suite(square_mesh_session):
    with criterion(1, "adjoint identity for projection, blur, stencil and warp "
                      "on grids up to 32x32 (tol 1e-8 relative)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        k_obs = gaussian_kernel(5, 1.5)

        def blur(k):
            return k.apply, k.apply

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in (8, 16, 32):
                asg_square = build_pixel_assignment(square_mesh_session, n, n)
                asg_disc = build_pixel_assignment(disc_mesh(COARSE), n, n)
                flow = random_flow(rng, n, n)
                ops = {
                    "projection square": (lambda x: project(asg_square, x),) * 2,
                    "projection disc": (lambda x: project(asg_disc, x),) * 2,
                    "blur": blur(gaussian_kernel(min(9, 2 * n - 1), 2.0)),
                    "stencil S'S": (lambda x: stencil_normal(asg_square, x),) * 2,
                    "warp": (lambda x: warp_image(GridImage(x), flow).data,
                             dense_warp_transpose(flow)),
                    "observation": (lambda x: observe(asg_disc, k_obs, x),
                                    lambda y: observe_adjoint(asg_disc, k_obs, y)),
                }
                for name, (apply, adjoint) in ops.items():
                    for _ in range(20):
                        x = rng.standard_normal((n, n))
                        y = rng.standard_normal((n, n))
                        lhs = float((apply(x) * y).sum())
                        rhs = float((x * adjoint(y)).sum())
                        bound = 1e-8 * np.linalg.norm(x) * np.linalg.norm(y)
                        assert abs(lhs - rhs) <= bound, (name, n)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"adjoint suite took {elapsed:.2f}s"


def test_criterion_2_dense_matrix_equivalence(square_mesh_session):
    with criterion(2, "every operator equals its dense matrix on 8x8 grids "
                      "(tol 1e-12 max-abs)"):
        t0 = time.perf_counter()
        n = 8
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, n))
        y = rng.standard_normal((n, n))
        xi = GridImage(x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            checks = []
            for k in (gaussian_kernel(3, 1.0), gaussian_kernel(5, 1.5)):
                B = dense_blur_matrix(mask(k), n, n)
                checks.append((k.apply(x), B @ x.ravel()))
                checks.append((k.apply(x), B.T @ x.ravel()))
            S = dense_laplacian_matrix(n, n)
            flow = random_flow(rng, n, n)
            G = dense_warp_matrix(flow, n, n)
            checks.append((warp_image(xi, flow).data, G @ x.ravel()))
            # The transpose of warp_image's own matrix, column by column.
            W = np.column_stack([warp_image(GridImage(e.reshape(n, n)), flow).data.ravel()
                                 for e in np.eye(n * n)])
            checks.append((W.T @ x.ravel(), G.T @ x.ravel()))
            alpha = 0.3
            for mesh in (square_mesh_session, disc_mesh(COARSE)):
                asg = build_pixel_assignment(mesh, n, n)
                inside = asg.inside_mask().ravel()
                P = dense_projection_matrix(asg)
                k = gaussian_kernel(3, 1.0)
                B = dense_blur_matrix(mask(k), n, n)
                checks.append((project(asg, x), P @ x.ravel()))
                model = ObservationModel(asg, k, alpha)
                _, residual, band = band_terms(model, x, *model.reduce(y))
                r = np.where(inside, P @ (B @ x.ravel()) - y.ravel(), 0.0)
                checks.append((asg.lift(residual), P @ r))
                checks.append((band.gradient(band.lift(residual)),
                               B.T @ (P.T @ r) + alpha * (S.T @ (S @ x.ravel()))))
                checks.append((band.gradient(band.lift(np.zeros_like(residual))),
                               alpha * (S.T @ (S @ x.ravel()))))
            for got, want in checks:
                assert np.abs(got.ravel() - want.ravel()).max() <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"dense suite took {elapsed:.2f}s"


def test_criterion_3_projection_idempotent_self_adjoint():
    with criterion(3, "mesh projection idempotent and self-adjoint on FINE "
                      "and COARSE discs at 64x64 (tol 1e-10)"):
        rng = np.random.default_rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for density in (FINE, COARSE):
                asg = build_pixel_assignment(disc_mesh(density), 64, 64)
                for _ in range(5):
                    x = rng.standard_normal((64, 64))
                    y = rng.standard_normal((64, 64))
                    once = project(asg, x)
                    twice = project(asg, once)
                    assert np.abs(twice - once).max() <= 1e-10
                    lhs = float((once * y).sum())
                    rhs = float((x * project(asg, y)).sum())
                    bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
                    assert abs(lhs - rhs) <= bound


def test_criterion_4_metric_oracles():
    with criterion(4, "hausdorff and masd equal the all-pairs brute force on "
                      "200 random mask pairs; overlap matches hand counts"):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = random_mask_pair(rng, max_side=32)
            pa, pb = boundary(a), boundary(b)
            assert distances(a, b) == (brute_force_hausdorff(pa, pb),
                                       brute_force_masd(pa, pb))
        a = mask_from_pixels(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        b = mask_from_pixels(3, 3, [(1, 1), (2, 2)])
        assert overlap(a, b) == 1.0 / 5.0
        assert overlap(a, a) == 1.0
        assert overlap(a, mask_from_pixels(3, 3, [(2, 2)])) == 0.0


def test_criterion_5_gradient_check(square_mesh_session):
    with criterion(5, "analytic cost gradient matches central differences on "
                      "10 random 8x8 instances (tol 1e-5 relative)"):
        n = 8
        asg = build_pixel_assignment(square_mesh_session, n, n)
        kernel = gaussian_kernel(3, 1.0)
        rng = np.random.default_rng(5)
        eps = 1e-5
        for _ in range(10):
            x = rng.standard_normal((n, n))
            y = rng.standard_normal((n, n))
            alpha = float(rng.uniform(0.0, 0.5))
            model = ObservationModel(asg, kernel, alpha)
            target = model.reduce(y)
            _, residual, band = band_terms(model, x, *target)
            g = 2.0 * band.gradient(band.lift(residual))
            fd = np.zeros_like(x)
            for j in range(n):
                for i in range(n):
                    xp = x.copy(); xp[j, i] += eps
                    xm = x.copy(); xm[j, i] -= eps
                    fd[j, i] = (band_terms(model, xp, *target)[0]
                                - band_terms(model, xm, *target)[0]) / (2 * eps)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-5


def test_criterion_6_descent_on_all_presets(preset_runs):
    with criterion(6, "cost non-increasing over every correction iteration of "
                      "ex1a..ex2b at 100x100 with mu=0.01, K=100"):
        for name in ("ex1a", "ex1b", "ex2a", "ex2b", "ex2b_known"):
            histories = preset_runs[name].cost_histories
            assert len(histories) == 20
            for t, h in enumerate(histories):
                assert len(h) == 101
                for i, (before, after) in enumerate(zip(h, h[1:])):
                    assert after <= before * (1 + 1e-12) + 1e-12, (name, t, i)


def test_criterion_7_flow_shift_recovery():
    with criterion(7, "median flow error <= 0.25 px for integer shifts up to "
                      "3 px on 64x64 smooth images"):
        t0 = time.perf_counter()
        n = 64
        xs = np.arange(n)
        X, Y = np.meshgrid(xs, xs)
        c = (n - 1) / 2

        def blob(dx, dy):
            return GridImage(np.exp(-(((X - c - dx) ** 2 + (Y - c - dy) ** 2))
                                    / (2 * 7.0 ** 2)))

        params = FlowParams()
        for shift in [(1, 0), (2, 0), (3, 0), (0, 3), (-3, 0), (0, -2),
                      (2, 2), (-3, 3), (3, -3)]:
            f = horn_schunck(blob(0, 0), blob(*shift), params)
            err = np.hypot(f.u - shift[0], f.v - shift[1])
            assert np.median(err) <= 0.25, shift
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"shift recovery took {elapsed:.2f}s"


def test_criterion_8_lung_low_snr_pattern(preset_runs):
    with criterion(8, "low-SNR lung: overlap gain >= 0.10 and strictly lower "
                      "hausdorff/masd for both motion modes; known motion at "
                      "least as good as estimated; < 3 min per run"):
        lr = preset_runs["ex2b"].lr_metrics
        est = preset_runs["ex2b"].srr_metrics
        kn = preset_runs["ex2b_known"].srr_metrics
        for label, srr in (("estimated", est), ("known", kn)):
            assert srr.avg_overlap >= lr.avg_overlap + 0.10, label
            assert srr.avg_hausdorff < lr.avg_hausdorff, label
            assert srr.avg_masd < lr.avg_masd, label
        assert kn.avg_overlap >= est.avg_overlap
        assert preset_runs["ex2b_seconds"] < 180.0
        assert preset_runs["ex2b_known_seconds"] < 180.0


def test_criterion_9_tshape_low_snr_pattern(preset_runs):
    with criterion(9, "low-SNR translating shape: higher overlap and lower "
                      "hausdorff than the observations; < 3 min"):
        lr = preset_runs["ex1b"].lr_metrics
        srr = preset_runs["ex1b"].srr_metrics
        assert srr.avg_overlap > lr.avg_overlap
        assert srr.avg_hausdorff < lr.avg_hausdorff
        assert preset_runs["ex1b_seconds"] < 180.0


def test_criterion_10_deterministic_artifacts(tmp_path):
    with criterion(10, "re-running a preset reproduces byte-identical CSV and "
                       "image artifacts"):
        cfg = replace(preset("ex1b"), grid=100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(replace(cfg, output_dir=str(tmp_path / "a")))
            run_experiment(replace(cfg, output_dir=str(tmp_path / "b")))
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        assert any(p.suffix == ".csv" for p in files_a)
        assert any(p.suffix == ".pgm" for p in files_a)
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name
