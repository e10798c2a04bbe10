import math

import numpy as np
import pytest

import skinspec as sk
from skinspec.spectral import (
    PointOnCurveError,
    _LaneLU,
    SamplingError,
    SymbolCurve,
    det_curve,
    det_min_on_circle,
    det_shifted_curve,
    det_symbol,
    eig_curve_union,
    eig_curves,
    pseudospectrum,
    sigma_min,
    sigma_min_many,
    symbol,
    winding,
    worker_count,
)
from skinspec.toeplitz2 import TridiagonalMatrix, eigen_all


@pytest.fixture(scope="module")
def cap_params(dimer_chain_50):
    return sk.dimer_coefficients(dimer_chain_50)


def test_symbol_at_unit_points(fig1_params):
    p = fig1_params
    f1 = symbol(p, 1.0)
    assert np.allclose(
        f1, [[p.alpha1, p.beta1 + p.gamma2], [p.gamma1 + p.beta2, p.alpha2]]
    )
    fm1 = symbol(p, -1.0)
    assert np.allclose(
        fm1, [[p.alpha1, p.beta1 - p.gamma2], [p.gamma1 - p.beta2, p.alpha2]]
    )
    with pytest.raises(ValueError):
        symbol(p, 1.1)


def test_det_vanishes_at_kernel_point(cap_params):
    # Row sums of the capacitance matrix vanish, so det f(1) = 0.
    assert abs(np.linalg.det(symbol(cap_params, 1.0))) < 1e-12


def test_det_curve_closed_and_conjugate_symmetric(cap_params):
    curve = det_curve(cap_params, 256)
    assert curve.closed
    # real coefficients: det f(e^{-i t}) = conj(det f(e^{i t}))
    assert np.allclose(curve.points[1:], np.conj(curve.points[-2::-1]), atol=1e-12)
    with pytest.raises(ValueError):
        det_curve(cap_params, 32)


def test_det_min_on_circle(cap_params, fig1_params):
    theta, dmin = det_min_on_circle(cap_params)
    assert dmin <= 1e-8
    # generic matrix params: determinant bounded away from zero
    _, dmin_fig1 = det_min_on_circle(fig1_params)
    assert dmin_fig1 > 1e-3


def test_eig_curves_identities(cap_params):
    plus, minus = eig_curves(cap_params, 256)
    tr = cap_params.alpha1 + cap_params.alpha2
    assert np.max(np.abs(plus.points + minus.points - tr)) < 1e-10
    det = det_symbol(cap_params, np.exp(1j * plus.thetas))
    assert np.max(np.abs(plus.points * minus.points - det)) < 1e-10


def test_eig_curves_start_contains_kernel_eigenvalue(cap_params):
    plus, minus = eig_curves(cap_params, 256)
    f1 = symbol(cap_params, 1.0)
    ref = np.linalg.eigvals(f1)
    got = sorted([plus.points[0], minus.points[0]], key=lambda z: z.real)
    ref = sorted(ref, key=lambda z: z.real)
    assert np.allclose(got, ref, atol=1e-10)
    assert min(abs(z) for z in got) < 1e-12  # lambda = 0 sits on the curve


def test_winding_unit_circle():
    th = np.linspace(0.0, 2.0 * math.pi, 257)
    circle = SymbolCurve(th, np.exp(1j * th), closed=True)
    assert winding(circle, 0.0) == 1
    assert winding(circle, 3.0) == 0
    assert winding(circle, 0.2 - 0.3j) == 1


def test_winding_error_modes():
    th = np.linspace(0.0, 2.0 * math.pi, 65)
    circle = SymbolCurve(th, np.exp(1j * th), closed=True)
    with pytest.raises(PointOnCurveError):
        winding(circle, np.exp(1j * th[3]))
    with pytest.raises(SamplingError):
        winding(circle, 1.0 - 1e-4)  # too close for 64 samples


def test_winding_union_nonzero_inside(cap_params, dimer_chain_50):
    union = eig_curve_union(cap_params, 8192)
    pairs = eigen_all(cap_params, 50)
    bulk = [q for q in pairs if q.klass == "bulk"]
    ws = [winding(union, q.lam) for q in bulk]
    assert all(abs(w) >= 1 for w in ws)
    lam_max = max(abs(q.lam) for q in pairs)
    for z in (3 * lam_max, -3 * lam_max, 3j * lam_max, (2 + 2j) * lam_max):
        assert winding(union, z) == 0


def test_winding_det_shifted_vs_branch_sum(fig1_params):
    # Argument principle: the winding of det(f - lam I) around 0 equals the
    # sum of the eigenvalue-branch windings around lam, whenever lam is off
    # both branch curves.  (Note: the winding of the unshifted det f curve
    # around lam is a different quantity and does not satisfy this.)
    union = eig_curve_union(fig1_params, 8192)
    plus, minus = eig_curves(fig1_params, 8192)
    assert plus.closed and minus.closed  # generic params: no branch swap
    for z in (1.3, 3.5, -4.0, 1.5 + 0.2j, 6.0 + 1.0j, 30.0):
        w_branches = winding(plus, z) + winding(minus, z)
        assert winding(det_shifted_curve(fig1_params, z, 8192), 0.0) == w_branches
        assert winding(union, z) == w_branches


def test_sigma_min_zero_matrix():
    M = TridiagonalMatrix(np.zeros(6), np.zeros(5), np.zeros(5))
    assert sigma_min(M, 2.0) == pytest.approx(2.0, rel=1e-9)


def test_sigma_min_order_one():
    M = TridiagonalMatrix(np.array([0.7]), np.zeros(0), np.zeros(0))
    zs = np.array([3.0 + 4.0j, 0.7 + 1e-9j, -1e200, 0.7])
    assert sigma_min_many(M, zs) == pytest.approx(np.abs(zs - 0.7), rel=1e-12)


def test_sigma_min_at_eigenvalue(cap_params, dimer_chain_50):
    M = sk.gauge_capacitance(dimer_chain_50)
    lam = eigen_all(cap_params, 50)[10].lam
    norm = np.abs(M.to_dense()).sum(axis=1).max()
    assert sigma_min(M, complex(lam)) <= 1e-10 * norm


def test_sigma_min_exact_kernel_eigenvalue(dimer_chain_50):
    # z = 0 is an exact eigenvalue (constant kernel vector), so the lane LU is
    # singular; the lane must come back as 0 without disturbing its batch.
    M = sk.gauge_capacitance(dimer_chain_50)
    assert sigma_min(M, 0j) == 0.0
    batch = sigma_min_many(M, np.array([0j, 0.5 + 0.1j]))
    assert batch[0] == 0.0
    assert batch[1] == pytest.approx(sigma_min(M, 0.5 + 0.1j), rel=1e-9)


def _criterion7_subgrid(chain):
    """Every 8th point of the criterion-7 200x200 window plus the blocks near
    3.85 +- 0.38i, where a single-vector iteration stalls high."""
    M = sk.gauge_capacitance(chain)
    lams = np.array([q.lam for q in eigen_all(sk.dimer_coefficients(chain), chain.size)])
    lo, hi = lams.min(), lams.max()
    pad = 0.25 * (hi - lo)
    re = np.linspace(lo - pad, hi + pad, 200)
    im = np.linspace(-pad, pad, 200)
    rows = np.unique(np.r_[0:200:8, 46:54, 146:154])
    cols = np.unique(np.r_[0:200:8, 192:200])
    return M, (re[cols][None, :] + 1j * im[rows][:, None]).ravel()


@pytest.mark.parametrize("case", ["random8", "criterion7_subgrid"])
def test_sigma_min_matches_dense_svd(case, dimer_chain_50):
    if case == "random8":
        rng = np.random.default_rng(7)
        M = TridiagonalMatrix(rng.normal(size=8), rng.normal(size=7), rng.normal(size=7))
        zs = rng.normal(size=(5, 2)) @ np.array([1.0, 1.0j])
    else:
        M, zs = _criterion7_subgrid(dimer_chain_50)
        assert np.min(np.abs(zs - (3.85 + 0.38j))) < 0.01
        assert np.min(np.abs(zs - (3.85 - 0.38j))) < 0.01
    shifted = zs[:, None, None] * np.eye(M.order) - M.to_dense()[None, :, :]
    ref = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    assert sigma_min_many(M, zs) == pytest.approx(ref, rel=1e-6)


def test_lane_lu_adjoint_solve():
    # solve_h must solve A^H x = b with the factors of A, row swaps included.
    rng = np.random.default_rng(3)
    n, lanes = 9, 4
    bands = [rng.normal(size=(k, lanes)) + 1j * rng.normal(size=(k, lanes))
             for k in (n - 1, n, n - 1)]
    lu = _LaneLU(*bands)
    assert lu.swap.any() and not lu.swap.all()
    b = rng.normal(size=(n, lanes)) + 1j * rng.normal(size=(n, lanes))
    x = lu.solve_h(b)
    for k in range(lanes):
        dl, d, du = (band[:, k] for band in bands)
        A = np.diag(d) + np.diag(du, 1) + np.diag(dl, -1)
        assert np.allclose(A.conj().T @ x[:, k], b[:, k], rtol=0, atol=1e-12 * np.abs(b).max())
    lu.keep(np.array([False, True, True, False]))
    assert np.array_equal(lu.solve_h(b[:, 1:3]), x[:, 1:3])


def test_sigma_min_far_shift(dimer_chain_50):
    # |z| far beyond max|M|: the shifted matrix is scaled before the solves.
    M = sk.gauge_capacitance(dimer_chain_50)
    for z in (1e200, -3e150 + 1e150j, 1e12j):
        ref = np.linalg.svd(z * np.eye(M.order) - M.to_dense(), compute_uv=False)[-1]
        assert sigma_min(M, z) == pytest.approx(ref, rel=1e-6)


def test_sigma_min_rejects_non_finite_shift(dimer_chain_50):
    M = sk.gauge_capacitance(dimer_chain_50)
    for z in (complex("nan"), complex("inf"), complex(0.5, float("nan"))):
        with pytest.raises(ValueError):
            sigma_min(M, z)
    with pytest.raises(ValueError):
        sigma_min_many(M, np.array([0.5 + 0.1j, complex("nan")]))


def test_sigma_min_conjugation_symmetry(dimer_chain_50):
    M = sk.gauge_capacitance(dimer_chain_50)
    z = 0.7 + 0.4j
    assert sigma_min(M, z) == pytest.approx(sigma_min(M.transposed(), np.conj(z)), rel=1e-8)


def test_sigma_min_many_batches_agree(dimer_chain_50):
    M = sk.gauge_capacitance(dimer_chain_50)
    zs = np.array([0.5 + 0.1j, 2.0 - 0.2j, -1.0 + 1.0j])
    batch = sigma_min_many(M, zs)
    singles = np.array([sigma_min(M, z) for z in zs])
    assert batch == pytest.approx(singles, rel=1e-9)


def test_pseudospectrum_far_grid_large_values():
    M = TridiagonalMatrix(np.zeros(6), 0.5 * np.ones(5), 0.5 * np.ones(5))
    grid = pseudospectrum(M, (100.0, 101.0), (-0.5, 0.5), (16, 16))
    assert grid.sigma_min.min() > 1e-1


def test_pseudospectrum_nesting(dimer_chain_50):
    M = sk.gauge_capacitance(dimer_chain_50)
    grid = pseudospectrum(M, (-1.0, 5.0), (-1.5, 1.5), (32, 32))
    inner = grid.sublevel(1e-5)
    outer = grid.sublevel(1e-1)
    assert not np.any(inner & ~outer)
    assert grid.sigma_min.shape == (32, 32)
    with pytest.raises(ValueError):
        pseudospectrum(M, (0, 1), (0, 1), (8, 8))


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SKINSPEC_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("SKINSPEC_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.delenv("SKINSPEC_THREADS")
    assert worker_count() >= 1
    assert worker_count(2) == 2
