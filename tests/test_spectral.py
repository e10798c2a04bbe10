import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skinspec as sk
import skinspec.spectral as spectral
from skinspec.oracle import ConvergenceError
from skinspec.spectral import (
    PointOnCurveError,
    _BlockLU,
    _largest_ritz,
    _off_product,
    SamplingError,
    SymbolCurve,
    det_curve,
    det_min_on_circle,
    det_shifted_curve,
    det_symbol,
    eig_curve_union,
    eig_curves,
    ellipse_winding,
    pseudospectrum,
    sigma_min,
    sigma_min_many,
    symbol,
    winding,
    worker_count,
)
from skinspec.toeplitz2 import (
    PerturbedDimerParams,
    TridiagonalMatrix,
    build_perturbed,
    certified_eigenvalues,
    eigen_all,
)

from conftest import random_admissible


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


_SCAN_SAMPLES = 2**16
# Spacing of the scan's fine level.
_SCAN_STEP = 2.0 * (2.0 * math.pi / _SCAN_SAMPLES) / (_SCAN_SAMPLES - 1)


def _two_level_scan(params, d=None) -> float:
    """min |d - off(e^{it})| from 2^16 samples of the circle, then 2^16 around the best one.

    The default d = alpha1*alpha2 scans |det f|; d = (alpha1 - lam)(alpha2 - lam)
    scans |det(f - lam I)|.
    """
    d = params.alpha1 * params.alpha2 if d is None else d
    n = _SCAN_SAMPLES
    h = 2.0 * math.pi / n
    thetas = h * np.arange(n)
    coarse = np.abs(d - _off_product(params, np.exp(1j * thetas)))
    t0 = thetas[np.argmin(coarse)]
    fine = np.abs(d - _off_product(params, np.exp(1j * np.linspace(t0 - h, t0 + h, n))))
    return float(min(coarse.min(), fine.min()))


def test_det_min_on_circle_matches_dense_scan(fig1_params):
    rng = np.random.default_rng(5)
    for params in [fig1_params] + [random_admissible(rng) for _ in range(60)]:
        theta, dmin = det_min_on_circle(params)
        scan = _two_level_scan(params)
        scale = abs(params.beta1 * params.beta2) + abs(params.gamma1 * params.gamma2)
        assert scan - dmin <= 1e-10 * scan
        assert dmin - scan <= 4.0 * np.finfo(float).eps * scale
        assert dmin == abs(det_symbol(params, np.exp(1j * theta)))
        assert 0.0 <= theta <= math.pi
    # Fig. 1: det f(-1) = 2 is the exact minimum.
    assert det_min_on_circle(fig1_params) == (math.pi, 2.0)


_MAGNITUDES = st.floats(0.3, 2.0)


@st.composite
def _mixed_sign_params(draw):
    """Admissible params whose two band pairs take independent signs."""
    s1, s2 = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
    alpha1, alpha2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    beta1, gamma1, beta2, gamma2 = (draw(_MAGNITUDES) for _ in range(4))
    return PerturbedDimerParams(alpha1, alpha2, s1 * beta1, s2 * beta2, s1 * gamma1, s2 * gamma2)


def _sampled(curve_of, params, lam):
    """Sampled winding around ``lam``, or None where it is undefined."""
    try:
        return winding(curve_of(params, 8192), lam)
    except (PointOnCurveError, SamplingError):
        return None


@settings(max_examples=120, deadline=None)
@given(_mixed_sign_params(), st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6))
# Both have off(-1) = 0 and lam = alpha1 = alpha2, so lam is on the eigenvalue
# curve.  The sampled curve's nearest point lies sqrt|off| ~ 1.1e-8 from lam,
# beyond its 1e-8 clearance, so the reference gives a winding there.
@example(PerturbedDimerParams(0.0, 0.0, -1.0, -1.0, -1.0, -2.0), [0.0])
@example(PerturbedDimerParams(2.0, 2.0, -1.0, -2.0, -2.0, -2.0), [2.0])
def test_ellipse_winding_matches_sampled_curves(params, points):
    # The eigenvalues of a finite section sit on or near the curves.  Where the
    # closed form is undefined, a dense scan must find the curve within its
    # 1e-8 clearance of lam, up to the scan's spacing and rounding.
    lams = np.concatenate([points, certified_eigenvalues(build_perturbed(params, 21))])
    p = params
    B, C = abs(p.beta1 * p.beta2), abs(p.gamma1 * p.gamma2)
    scale = abs(p.beta1 * p.gamma1) + abs(p.beta2 * p.gamma2) + B + C
    for curve_of, ds in (
        (det_curve, p.alpha1 * p.alpha2 - lams),
        (eig_curve_union, (p.alpha1 - lams) * (p.alpha2 - lams)),
    ):
        for lam, d, closed in zip(lams.tolist(), ds.tolist(), ellipse_winding(p, ds)):
            if closed is None:
                slack = (B + C) * _SCAN_STEP + 8.0 * np.finfo(float).eps * (abs(d) + scale)
                assert _two_level_scan(p, d) < 1e-8 + slack
                continue
            ref = _sampled(curve_of, p, lam)
            if ref is not None:
                assert closed == ref


def test_eig_curves_never_raise_on_admissible_params():
    # Mixed-sign symbols whose discriminant starts on the square-root cut
    # used to get the wrong swap flag, and a closed curve with open ends.
    rng = np.random.default_rng(17)
    for _ in range(400):
        params = random_admissible(rng, with_corners=False)
        plus, minus = eig_curves(params, 1024)
        assert plus.closed == minus.closed
        union = eig_curve_union(params, 1024)
        assert union.closed != plus.closed


def test_eig_curves_branch_point_at_loop_start():
    # det(f - lam I) has a double root at z = 1: the branches meet where the
    # sampled loop starts and ends, and both come back open.
    params = PerturbedDimerParams(0.0, 0.0, 1.0, -1.0, 1.0, -3.0)
    assert ellipse_winding(params, 0.0) is None  # the discriminant loop
    plus, minus = eig_curves(params, 1024)
    assert not plus.closed and not minus.closed
    assert plus.points[0] == minus.points[0] == 0.0
    with pytest.raises(PointOnCurveError):  # the sampled union cannot match the ends
        eig_curve_union(params, 1024)


def test_eig_curves_swap_flag_matches_tracking():
    # The closed-form flag says the branches swap exactly when the tracked
    # branches end nearer each other's start than their own.
    rng = np.random.default_rng(23)
    swaps = 0
    for _ in range(1000):
        params = random_admissible(rng, with_corners=False)
        plus, minus = eig_curves(params, 4096)
        end, own, other = plus.points[-1], plus.points[0], minus.points[0]
        assert plus.closed == (abs(end - own) < abs(end - other))
        swaps += not plus.closed
    assert 100 < swaps < 900


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


def test_block_lu_solves_match_dense():
    # Both solves of the block-diagonal LU against dense A x = b and A^H x = b,
    # on lanes with row interchanges and on diagonally dominant lanes without.
    rng = np.random.default_rng(3)
    n, lanes = 9, 4
    dl, d, du = (rng.normal(size=(lanes, n)) + 1j * rng.normal(size=(lanes, n)) for _ in range(3))
    dl[:, -1] = du[:, -1] = 0.0  # the couplings between lanes
    d[1::2] += 10.0
    lu = _BlockLU(dl, d, du)
    swapped = (lu.flat[-1][: lanes * n] != np.arange(1, lanes * n + 1)).reshape(lanes, n).any(axis=1)
    assert list(swapped) == [True, False, True, False]
    b = rng.normal(size=(lanes, n)) + 1j * rng.normal(size=(lanes, n))
    x, x_h = lu.solve(b, "N"), lu.solve(b, "C")
    for k in range(lanes):
        A = np.diag(d[k]) + np.diag(du[k, :-1], 1) + np.diag(dl[k, :-1], -1)
        assert np.allclose(A @ x[k], b[k], rtol=0, atol=1e-12 * np.abs(b).max())
        assert np.allclose(A.conj().T @ x_h[k], b[k], rtol=0, atol=1e-12 * np.abs(b).max())
    mask = np.array([False, True, True, False])
    lu.keep(mask)
    assert np.array_equal(lu.solve(b[mask], "N"), x[mask])
    assert np.array_equal(lu.solve(b[mask], "C"), x_h[mask])


def test_sigma_min_overflow_lanes_stay_isolated():
    # Lanes whose solves overflow return 0 without turning their batch to 0.
    M = TridiagonalMatrix(np.zeros(400), np.ones(399), 100.0 * np.ones(399))
    zs = np.array([1000, 0.5j, 400 + 50j, 3 + 2j, 2000j])
    batch = sigma_min_many(M, zs)
    assert np.array_equal(batch, [sigma_min(M, z) for z in zs])
    live = batch > 0
    assert list(live) == [True, False, True, False, True]
    ref = [np.linalg.svd(z * np.eye(400) - M.to_dense(), compute_uv=False)[-1] for z in zs[live]]
    assert batch[live] == pytest.approx(ref, rel=1e-6)


def test_sigma_min_many_empty_batch(dimer_chain_50):
    M = sk.gauge_capacitance(dimer_chain_50)
    assert sigma_min_many(M, np.array([], dtype=complex)).shape == (0,)


def _chain_window(chain):
    """Points of the default topology window of ``chain``, as (re, im) ranges."""
    M = sk.gauge_capacitance(chain)
    lams = np.linalg.eigvals(M.to_dense()).real
    pad = 0.25 * (lams.max() - lams.min() + 1.0)
    return M, (lams.min() - pad, lams.max() + pad), (-pad, pad)


def test_sigma_min_many_batch_equals_single_points(dimer_chain_50):
    M, (re0, re1), (im0, im1) = _chain_window(dimer_chain_50)
    rng = np.random.default_rng(11)
    zs = rng.uniform(re0, re1, 300) + 1j * rng.uniform(im0, im1, 300)
    assert np.array_equal(sigma_min_many(M, zs), [sigma_min(M, z) for z in zs])


def test_pseudospectrum_independent_of_workers(dimer_chain_50):
    # 70 x 64 points make two lane chunks, so two workers share the grid.
    M, re_range, im_range = _chain_window(dimer_chain_50)
    one = pseudospectrum(M, re_range, im_range, (70, 64), workers=1)
    two = pseudospectrum(M, re_range, im_range, (70, 64), workers=2)
    assert np.array_equal(one.sigma_min, two.sigma_min)


def _reference_largest_ritz(alpha, beta, upper):
    """Laguerre's method iterating every lane until all have converged."""
    m = alpha.shape[0]
    alpha, beta2 = alpha / upper, (beta / upper) ** 2
    x = np.ones_like(upper)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(spectral._LAGUERRE_MAX_ITER):
        q = x - alpha[0]
        r, t = 1.0 / q, 0.0
        g, h = r, r * r
        for i in range(1, m):
            c = beta2[i - 1] / q
            q = x - alpha[i] - c
            r, t = (1.0 + c * r) / q, c * (t - 2.0 * r * r) / q
            g += r
            h += r * r - t
        step = m / (g + np.copysign(np.sqrt(np.maximum((m - 1) * (m * h - g * g), 0.0)), g))
        step = np.where(done | ~np.isfinite(step), 0.0, step)
        x -= step
        done |= np.abs(step) <= 4.0 * np.finfo(float).eps * x
        if done.all():
            break
    return x * upper


def _reference_sigma_min_many(M, zs):
    """The lane loop that compacts retired lanes at every Ritz evaluation."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    n, L = M.order, len(zs)
    m_max = max(np.abs(band).max(initial=0.0) for band in (M.diag, M.upper, M.lower))
    scale = np.ldexp(1.0, np.frexp(np.maximum(np.abs(zs), max(1.0, m_max)))[1])
    d = (zs[:, None] - np.asarray(M.diag, dtype=complex)) / scale[:, None]
    du, dl = (np.append(-np.asarray(band, dtype=complex), 0.0) / scale[:, None]
              for band in (M.upper, M.lower))
    lu_h = _BlockLU(np.conj(du), np.conj(d), np.conj(dl))
    out_theta = np.full(L, np.inf)
    active = np.flatnonzero(~lu_h.singular)
    lu_h.keep(~lu_h.singular)
    lanes = len(active)
    start = np.random.default_rng(0).standard_normal((n, 2)) @ np.array([1.0, 1.0j])
    q = np.repeat((start / np.linalg.norm(start))[None, :], lanes, axis=0)
    q_prev = np.zeros_like(q)
    alpha = np.empty((0, lanes))
    beta = np.zeros((1, lanes))
    theta = np.zeros(lanes)
    bound = np.zeros(lanes)
    with np.errstate(all="ignore"):
        for j in range(2 * n + spectral._SIGMA_EXTRA_STEPS):
            y = lu_h.solve(q, "N")
            a = np.einsum("ij,ij->i", y.view(float), y.view(float))
            y[~np.isfinite(a)] = 0.0
            w = lu_h.solve(y, "C")
            w -= a[:, None] * q
            w -= beta[-1][:, None] * q_prev
            b = np.sqrt(np.einsum("ij,ij->i", w.view(float), w.view(float)))
            alpha = np.vstack((alpha, a))
            bound = 0.5 * (bound + a) + np.hypot(0.5 * (bound - a), beta[-1])
            beta = np.vstack((beta, b))
            if j % max(1, j // 16) and b.all():
                q_prev, q = q, w / b[:, None]
                continue
            new = _reference_largest_ritz(alpha, beta[1:-1], bound)
            singular = ~np.isfinite(new) | ~np.isfinite(b)
            done = singular | (b <= spectral._SIGMA_RTOL * new)
            done |= np.abs(new - theta) <= spectral._SIGMA_RTOL * new
            out_theta[active[done]] = np.where(singular, np.inf, new)[done]
            keep = ~done
            active = active[keep]
            if len(active) == 0:
                break
            lu_h.keep(keep)
            q_prev, q = q[keep], w[keep] / b[keep, None]
            alpha, beta, theta, bound = alpha[:, keep], beta[:, keep], new[keep], new[keep]
        else:
            raise ConvergenceError(f"sigma_min: {len(active)}/{L} lanes unconverged at step cap")
        return scale / np.sqrt(out_theta)


def _sigma_case(name, chain, fig1_params):
    """(matrix, shifts) of a batch for the lane-bookkeeping reference test."""
    M, (re0, re1), (im0, im1) = _chain_window(chain)
    if name == "window":  # one 4096-point chunk: lanes retire over ~30 steps
        re, im = np.linspace(re0, re1, 64), np.linspace(im0, im1, 64)
        return M, (re[None, :] + 1j * im[:, None]).ravel()
    if name == "fig1":  # lanes retire past step 32, where Ritz values are sparse
        M = build_perturbed(fig1_params, 101)
        lams = certified_eigenvalues(M)
        pad = 0.25 * (lams[-1] - lams[0] + 1.0)
        rng = np.random.default_rng(1)
        return M, rng.uniform(lams[0] - pad, lams[-1] + pad, 64) + 1j * rng.uniform(-pad, pad, 64)
    if name == "overflow":
        # Overflowing lanes between live ones; the far-field points of the
        # overflow test run close to the step cap, so nearer ones stand in.
        overflow = TridiagonalMatrix(np.zeros(400), np.ones(399), 100.0 * np.ones(399))
        return overflow, np.array([150 + 30j, 0.5j, 100 + 100j, 3 + 2j, 60j])
    return M, {
        "kernel": np.array([0.5 + 0.1j, 0j, 2.0 - 1.0j]),
        "empty": np.array([], dtype=complex),
        "together": np.full(7, 1.5 + 0.25j),  # every lane retires at the same step
    }[name]


@pytest.mark.parametrize("name", ["window", "fig1", "overflow", "kernel", "empty", "together"])
def test_sigma_min_many_matches_reference_loop(name, dimer_chain_50, fig1_params, monkeypatch):
    # Lanes that keep their slots after retiring, and Laguerre on the
    # unconverged lanes only, give the bits of the compact-every-time loop.
    M, zs = _sigma_case(name, dimer_chain_50, fig1_params)
    ref = _reference_sigma_min_many(M, zs)
    keeps = []
    keep = _BlockLU.keep
    monkeypatch.setattr(_BlockLU, "keep", lambda lu, mask: keeps.append(mask) or keep(lu, mask))
    got = sigma_min_many(M, zs)
    assert got.tobytes() == ref.tobytes()
    if name == "window":
        assert len(keeps) >= 3  # several compactions, none before the first step
    if name == "kernel":
        assert list(got == 0.0) == [False, True, False]


def _ritz_lanes(seed, m):
    """Random tridiagonals of order m with bounds from tight to 1e12 too high."""
    rng = np.random.default_rng(seed)
    lanes = 40
    alpha = rng.uniform(0.0, 2.0, (m, lanes))
    beta = rng.uniform(0.0, 1.0, (m - 1, lanes)) * (rng.random((m - 1, lanes)) < 0.9)
    tri = [np.diag(a) + np.diag(b, 1) + np.diag(b, -1) for a, b in zip(alpha.T, beta.T)]
    top = np.array([np.linalg.eigvalsh(T)[-1] for T in tri])
    upper = top * (1.0 + 10.0 ** rng.uniform(-14, 12, lanes))
    beta[:, 0] = 0.0  # beta = 0: a diagonal lane
    alpha[:, 1], beta[:, 1], upper[1] = 1.0, 0.0, 1.0  # x = upper is a root: a non-finite step
    alpha[0, 2] = np.nan
    return alpha, beta, upper


@pytest.mark.parametrize("m", [1, 2, 7, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_largest_ritz_matches_all_lanes_loop(seed, m):
    alpha, beta, upper = _ritz_lanes(seed, m)
    with np.errstate(all="ignore"):
        got = _largest_ritz(alpha, beta, upper)
        ref = _reference_largest_ritz(alpha, beta, upper)
    assert got.tobytes() == ref.tobytes()


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


def _mp_sigma_min(T, z, dps=40):
    """1/||(zI - T)^-1||_2, the inverse from a ``dps``-digit tridiagonal LU solve."""
    import mpmath

    with mpmath.workdps(dps):
        d = [mpmath.mpc(z.real, z.imag) - mpmath.mpf(x) for x in T.diag]
        up = [-mpmath.mpf(x) for x in T.upper]
        low = [-mpmath.mpf(x) for x in T.lower]
        pivots, mults = [d[0]], []
        for i in range(1, len(d)):
            mults.append(low[i - 1] / pivots[-1])
            pivots.append(d[i] - mults[-1] * up[i - 1])
        inverse = np.empty((len(d), len(d)), dtype=complex)
        for j in range(len(d)):
            y = [mpmath.mpc(float(i == j)) for i in range(len(d))]
            for i in range(1, len(d)):
                y[i] -= mults[i - 1] * y[i - 1]
            y[-1] /= pivots[-1]
            for i in range(len(d) - 2, -1, -1):
                y[i] = (y[i] - up[i] * y[i + 1]) / pivots[i]
            inverse[:, j] = [complex(v) for v in y]
    return 1.0 / np.linalg.norm(inverse, 2)


def test_strong_interface_sigma_min_matches_high_precision():
    # An N=160 interface chain at gamma*ell = 26.9 (a strong-skin stratum of
    # the chain-modes benchmark, seed 1).  Dense SVD is limited by eps*||A||,
    # ||A|| ~ 44, and misses these sigma_min by 62% and 100%; a 40-digit inverse
    # is the reference instead.
    chain = sk.interface_chain(160, 26.904720428699534, ell=1.0, s1=0.9666003367971053,
                               s2=1.984497375665471, delta=1e-3, v=1.0, v_b=1.0)
    G = sk.generalized_matrix(chain)
    zs = np.array([9.130434782608695 + 4.34782608695652j, 26.086956521739133 - 9.565217391304348j])
    ref = np.array([_mp_sigma_min(G, z) for z in zs])
    assert np.all(ref < 1e-14)
    assert sigma_min_many(G, zs) == pytest.approx(ref, rel=1e-10)
