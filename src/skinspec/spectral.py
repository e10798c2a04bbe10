"""Topological diagnostics: symbol curves, winding numbers, pseudospectra.

The semi-infinite dimer operator is block tridiagonal with 2x2 blocks; its
symbol here is f(z) = B_-1/z + B_0 + B_1 z with

    B_0 = [[alpha1, beta1], [gamma1, alpha2]],
    B_1 = [[0, 0], [beta2, 0]],  B_-1 = [[0, gamma2], [0, 0]],

so f(z) = [[alpha1, beta1 + gamma2/z], [gamma1 + beta2*z, alpha2]].  The
determinant loop and the two eigenvalue loops of f on the unit circle carry
the winding data.  Shifted by a real lam they are ellipses, so their windings
(the Toeplitz index) and the minimum of |det f| are closed forms; the sampled
curves and :func:`winding` are their reference.  Epsilon-pseudospectra of the
finite matrices are computed from sigma_min(zI - M) via inverse Lanczos on
(A^H A)^-1.  The grid points of a chunk share one block-diagonal LAPACK LU
(``zgttrf``/``zgttrs``), one diagonal block per point: a point with a pivot
below 1e-300 returns 0 at once, and a point whose solves overflow is solved on
its own and returns 0.  A converged point keeps its block, solving zeros, until
enough have converged to compact them away; no point's bits depend on its batch.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .oracle import ConvergenceError

__all__ = [
    "PointOnCurveError",
    "SamplingError",
    "SymbolCurve",
    "PseudoGrid",
    "symbol",
    "det_symbol",
    "det_curve",
    "det_min_on_circle",
    "det_shifted_curve",
    "ellipse_winding",
    "eig_curves",
    "eig_curve_union",
    "winding",
    "sigma_min",
    "sigma_min_many",
    "pseudospectrum",
    "worker_count",
]

_MIN_CURVE_SAMPLES = 64
_POINT_CLEARANCE = 1e-8
_WINDING_RESIDUAL = 0.01


class PointOnCurveError(ValueError):
    """The probe point is (numerically) on the curve; winding is undefined."""


class SamplingError(RuntimeError):
    """Curve sampling too coarse for a reliable winding; raise n_samples."""


@dataclass
class SymbolCurve:
    """A sampled curve in the complex plane, closed when the ends meet."""

    thetas: np.ndarray
    points: np.ndarray
    closed: bool

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.points = np.asarray(self.points, dtype=complex)
        if len(self.thetas) != len(self.points):
            raise ValueError("thetas and points must have equal length")
        if self.closed and len(self.points) > 1:
            gap = abs(self.points[0] - self.points[-1])
            if gap > 1e-9 * max(1.0, np.max(np.abs(self.points))):
                raise ValueError("curve marked closed but endpoints do not meet")


@dataclass
class PseudoGrid:
    """sigma_min(zI - M) sampled on a rectangular complex grid."""

    re_range: tuple[float, float]
    im_range: tuple[float, float]
    resolution: tuple[int, int]
    sigma_min: np.ndarray  # shape (ny, nx)

    def re_values(self) -> np.ndarray:
        return np.linspace(self.re_range[0], self.re_range[1], self.resolution[0])

    def im_values(self) -> np.ndarray:
        return np.linspace(self.im_range[0], self.im_range[1], self.resolution[1])

    def sublevel(self, eps: float) -> np.ndarray:
        """Boolean mask of the epsilon-pseudospectrum membership grid."""
        return self.sigma_min <= eps


def symbol(params, z: complex) -> np.ndarray:
    """2x2 symbol f(z) of the semi-infinite dimer operator, |z| = 1."""
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise ValueError("symbol is defined on the unit circle only")
    return np.array(
        [
            [params.alpha1 + 0j, params.beta1 + params.gamma2 / z],
            [params.gamma1 + params.beta2 * z, params.alpha2 + 0j],
        ]
    )


def _off_product(params, z):
    """Product of the symbol's off-diagonal entries, (beta1 + gamma2/z)(gamma1 + beta2 z)."""
    return (params.beta1 + params.gamma2 / z) * (params.gamma1 + params.beta2 * z)


def det_symbol(params, z) -> np.ndarray:
    """det f(z), vectorized over z (no unit-circle check; used along curves)."""
    return params.alpha1 * params.alpha2 - _off_product(params, np.asarray(z, dtype=complex))


def _circle(n_samples: int) -> np.ndarray:
    if n_samples < _MIN_CURVE_SAMPLES:
        raise ValueError(f"need at least {_MIN_CURVE_SAMPLES} samples")
    return np.linspace(0.0, 2.0 * math.pi, n_samples + 1)


def det_curve(params, n_samples: int = 1024) -> SymbolCurve:
    """Closed curve det f(e^{i theta}) over one loop of the unit circle."""
    thetas = _circle(n_samples)
    return SymbolCurve(thetas, det_symbol(params, np.exp(1j * thetas)), closed=True)


def det_shifted_curve(params, lam: complex, n_samples: int = 1024) -> SymbolCurve:
    """Closed curve det(f(e^{i theta}) - lam*I).

    Its winding around 0 equals the sum of the eigenvalue-branch windings
    around ``lam`` (argument principle applied to the quadratic
    characteristic polynomial of the symbol); this is the index-style
    quantity, distinct from the winding of :func:`det_curve` around ``lam``.
    """
    thetas = _circle(n_samples)
    off = _off_product(params, np.exp(1j * thetas))
    return SymbolCurve(thetas, (params.alpha1 - lam) * (params.alpha2 - lam) - off, closed=True)


def _ellipse(params, d) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(t*, a, B + C, B - C) of E(t) = d - off(e^{it}) = a - (B+C) cos t - i(B-C) sin t.

    a = d - beta1*gamma1 - beta2*gamma2, B = beta1*beta2, C = gamma1*gamma2 for
    real d.  t* in [0, pi] minimizes |E|, as |E|^2 = 4BC c^2 - 2a(B+C) c + a^2 +
    (B-C)^2 is convex in c = cos t (BC > 0).  Evaluate |E| at t*, not by this
    quadratic, which cancels near 0.
    """
    p = params
    B, C = p.beta1 * p.beta2, p.gamma1 * p.gamma2
    a = np.asarray(d, dtype=float) - p.beta1 * p.gamma1 - p.beta2 * p.gamma2
    return np.arccos(np.clip(a * (B + C) / (4.0 * B * C), -1.0, 1.0)), a, B + C, B - C


def ellipse_winding(params, d) -> list[int | None]:
    """Winding numbers around 0 of d - (beta1 + gamma2/z)(gamma1 + beta2*z) over |z| = 1.

    The ellipse of :func:`_ellipse` winds sign((B+C)(B-C)) times when |a| < |B+C|,
    else 0 times; None where it passes within 1e-8 of 0.  ``d = alpha1*alpha2 - lam``
    gives the winding of :func:`det_curve` around lam, ``d = (alpha1 - lam)(alpha2 - lam)``
    that of :func:`det_shifted_curve`: the summed eigenvalue-branch winding.
    """
    t, a, b_plus_c, b_minus_c = _ellipse(params, d)
    w = np.where(np.abs(a) < abs(b_plus_c), int(np.sign(b_plus_c * b_minus_c)), 0)
    defined = np.abs(d - _off_product(params, np.exp(1j * t))) >= _POINT_CLEARANCE
    return np.where(defined, w, None).tolist()


def det_min_on_circle(params) -> tuple[float, float]:
    """(theta, |det f(e^{i theta})|) at the minimum modulus, theta in [0, pi].

    det f is the ellipse of :func:`_ellipse` with d = alpha1*alpha2.
    """
    theta = float(_ellipse(params, params.alpha1 * params.alpha2)[0])
    return theta, float(abs(det_symbol(params, np.exp(1j * theta))))


def eig_curves(params, n_samples: int = 1024) -> tuple[SymbolCurve, SymbolCurve]:
    """The two eigenvalue branches of f(e^{i theta}), continuously tracked.

    The discriminant loop (alpha1 - alpha2)^2/4 + off(e^{i theta}) is the
    negated ellipse of :func:`_ellipse` at d = -(alpha1 - alpha2)^2/4.  When it
    winds 0 times around zero each branch is closed; when it winds once the
    branches swap after one loop, and when it passes within 1e-8 of zero they
    meet on the circle.  Both come back ``closed=False`` then; see
    :func:`eig_curve_union` for their union.
    """
    thetas = _circle(n_samples)
    half_gap_sq = 0.25 * (params.alpha1 - params.alpha2) ** 2
    sq = np.sqrt(half_gap_sq + _off_product(params, np.exp(1j * thetas)))
    # Track the root: flip its sign wherever a step lands nearer the negated root.
    flips = np.abs(sq[1:] - sq[:-1]) > np.abs(sq[1:] + sq[:-1])
    signed = sq * np.concatenate(([1.0], np.where(np.cumsum(flips) % 2, -1.0, 1.0)))
    half_tr = 0.5 * (params.alpha1 + params.alpha2)
    closed = ellipse_winding(params, -half_gap_sq) == 0
    return (SymbolCurve(thetas, half_tr + signed, closed=closed),
            SymbolCurve(thetas, half_tr - signed, closed=closed))


def eig_curve_union(params, n_samples: int = 1024) -> SymbolCurve:
    """Union of the eigenvalue branches as closed curves.

    If the branches swap, the union is the single period-4pi curve; if not,
    the two closed loops are concatenated (with a duplicated joint point) so
    that winding numbers add.  Branches that meet on the circle are joined as
    their tracked ends meet; where they meet at z = 1, the loop's start, the
    ends cannot be matched and :class:`PointOnCurveError` is raised.
    """
    plus, minus = eig_curves(params, n_samples)
    end = plus.points[-1]
    swapped = abs(end - minus.points[0]) < abs(end - plus.points[0])
    try:
        if swapped:
            thetas = np.concatenate([plus.thetas[:-1], plus.thetas + 2.0 * math.pi])
            points = np.concatenate([plus.points[:-1], minus.points])
            return SymbolCurve(thetas, points, closed=True)
        for loop in (plus, minus):
            SymbolCurve(loop.thetas, loop.points, closed=True)
    except ValueError:  # sqrt of a discriminant zero at z = 1 widens rounding to ~1e-8
        raise PointOnCurveError("the eigenvalue branches meet at z = 1, the loop's start") from None
    # Two separate closed loops; winding() splits this case at the midpoint
    # and sums the loop windings.
    thetas = np.concatenate([plus.thetas, minus.thetas + 2.0 * math.pi])
    points = np.concatenate([plus.points, minus.points])
    return SymbolCurve(thetas, points, closed=False)


def winding(curve: SymbolCurve, point: complex) -> int:
    """Winding number of a closed sampled curve around ``point``.

    Sums argument increments between consecutive samples.  Raises
    :class:`PointOnCurveError` when the point is within 1e-8 of a sample and
    :class:`SamplingError` when any single increment exceeds pi/2 or the
    total misses an integer multiple of 2 pi by more than 0.01.
    """
    pts = curve.points
    if not curve.closed:
        # Union-of-two-loops case: sum the windings of the halves.
        half = len(pts) // 2
        a = SymbolCurve(curve.thetas[:half], pts[:half], closed=True)
        b = SymbolCurve(curve.thetas[half:], pts[half:], closed=True)
        return winding(a, point) + winding(b, point)
    if np.min(np.abs(pts - point)) < _POINT_CLEARANCE:
        raise PointOnCurveError(f"point {point!r} lies on the sampled curve")
    rel = pts - point
    inc = np.angle(rel[1:] / rel[:-1])
    if np.max(np.abs(inc)) > 0.5 * math.pi:
        raise SamplingError("insufficient sampling for winding; raise n_samples")
    total = float(np.sum(inc))
    w = round(total / (2.0 * math.pi))
    if abs(total - 2.0 * math.pi * w) >= _WINDING_RESIDUAL:
        raise SamplingError("winding residual too large; raise n_samples")
    return int(w)


# ---------------------------------------------------------------------------
# sigma_min via inverse Lanczos on the normal equations
# ---------------------------------------------------------------------------

_SIGMA_RTOL = 1e-12
# Exact-arithmetic Lanczos spans an invariant subspace within n steps; the
# step cap allows twice that plus this margin for rounding.
_SIGMA_EXTRA_STEPS = 100
_LAGUERRE_MAX_ITER = 50
_TINY_PIVOT = 1e-300
# Compact once the retired lanes' zero solves up to the next Ritz value add up to this
# share of one step over all lanes.
_COMPACT_DEAD = 0.25


# Identity rows closing the flat system: the LAPACK wrappers need order >= 3,
# also for an empty batch.
_TAIL = 3


def _tails(size: int):
    """Ends of the flat dl, d, du, du2 and ipiv after ``size`` lane rows."""
    zero = np.zeros(_TAIL - 1, dtype=complex)
    return zero, np.ones(_TAIL, dtype=complex), zero, zero[1:], size + np.arange(1, _TAIL + 1)


class _BlockLU:
    """LU of L tridiagonal lanes of order n as one block-diagonal LAPACK system.

    Lane k takes rows k*n ... k*n + n - 1 of one tridiagonal whose couplings
    between lanes are zero, closed by identity rows.  Partial pivoting never
    crosses a zero coupling, so one ``zgttrf`` gives every lane the LU of its
    own matrix, and the lanes of any subset form a block-diagonal LU again.
    """

    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray):
        """Factor lanes given as (L, n) bands; the last column of ``dl``, ``du`` must be 0."""
        L, n = d.shape
        self.n = n
        flat = (np.concatenate((band.ravel(), t)) for band, t in zip((dl, d, du), _tails(L * n)))
        *self.flat, _ = zgttrf(*flat)
        self.singular = (np.abs(self.flat[1][: L * n].reshape(L, n)) < _TINY_PIVOT).any(axis=1)

    def _select(self, mask: np.ndarray) -> list[np.ndarray]:
        """Flat factors of the lanes where ``mask`` is True, as a system of their own."""
        n, kept = self.n, np.flatnonzero(mask)
        size = len(kept) * n
        out = []
        for f, tail in zip(self.flat, _tails(size)):
            g = np.empty(size + len(tail), dtype=f.dtype)
            lanes = f[: len(mask) * n].reshape(-1, n)
            # mode="clip" writes into ``out`` directly; "raise" would copy it first.
            np.take(lanes, kept, axis=0, out=g[:size].reshape(-1, n), mode="clip")
            g[size:] = tail
            out.append(g)
        # Pivots are row numbers: shift each kept lane to its new place.
        piv = out[-1][:size].reshape(-1, n)
        piv -= n * (kept - np.arange(len(kept)))[:, None]
        return out

    def keep(self, mask: np.ndarray):
        """Drop the lanes where ``mask`` is False."""
        self.flat = self._select(mask)

    def solve(self, b: np.ndarray, trans: str) -> np.ndarray:
        """Solve A x = b (``trans='N'``) or A^H x = b (``'C'``) lane-wise; b is (L, n).

        0 * inf = nan crosses the zero couplings, so lanes that a non-finite
        result reaches are solved again one at a time.
        """
        x = _gttrs(self.flat, b, trans)
        if not np.isfinite(np.sum(x)):
            lanes = np.arange(len(b))
            for k in np.flatnonzero(~np.isfinite(x).all(axis=1)):
                x[k] = _gttrs(self._select(lanes == k), b[k : k + 1], trans)
        return x


def _gttrs(flat: list[np.ndarray], b: np.ndarray, trans: str) -> np.ndarray:
    """``zgttrs`` on flat factors for the (L, n) lane right-hand sides ``b``."""
    rhs = np.empty(len(flat[1]), dtype=complex)
    rhs[: b.size].reshape(b.shape)[...] = b
    rhs[b.size :] = 0.0
    x, _ = zgttrs(*flat, rhs[:, None], trans=trans, overwrite_b=1)
    return x[: b.size, 0].reshape(b.shape)


def _largest_ritz(alpha: np.ndarray, beta: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each lane's symmetric tridiagonal (alpha, beta).

    Laguerre's method on p(x) = det(xI - T) from ``upper``, a bound above
    every eigenvalue, from where it decreases monotonically to the largest
    root.  p'/p and -(p'/p)' are summed over the LDL^T pivots q of xI - T,
    tracking r = q'/q and t = q''/q; T is scaled by ``upper``.  Converged lanes drop out.
    """
    m = alpha.shape[0]
    alpha, beta2 = alpha / upper, (beta / upper) ** 2
    x = np.ones_like(upper)
    go, xs = np.arange(len(x)), x.copy()  # the lanes still iterating, and their x
    for _ in range(_LAGUERRE_MAX_ITER):
        q = xs - alpha[0]
        r, t = 1.0 / q, 0.0
        g, h = r, r * r
        for i in range(1, m):
            c = beta2[i - 1] / q
            q = xs - alpha[i] - c
            r, t = (1.0 + c * r) / q, c * (t - 2.0 * r * r) / q
            g += r
            h += r * r - t
        step = m / (g + np.copysign(np.sqrt(np.maximum((m - 1) * (m * h - g * g), 0.0)), g))
        step[~np.isfinite(step)] = 0.0
        xs -= step
        x[go] = xs
        moving = ~(np.abs(step) <= 4.0 * np.finfo(float).eps * xs)
        if not moving.all():
            go, xs, alpha, beta2 = go[moving], xs[moving], alpha[:, moving], beta2[:, moving]
        if not len(go):
            break
    return x * upper


def sigma_min_many(M, zs: np.ndarray) -> np.ndarray:
    """Smallest singular value of (zI - M) for every z in ``zs``.

    Inverse Lanczos: a three-term Lanczos recurrence on (A^H A)^-1 per lane,
    A = (zI - M)/s with s the power of two at or above max(1, |z|, max|M|);
    sigma = s/sqrt(theta) for the largest Ritz value theta.  The lanes share one
    block-diagonal LAPACK LU of A^H (:class:`_BlockLU`).  A lane with a pivot
    below 1e-300 is singular and returns 0 at once; a lane whose solves overflow
    is singular to working precision and returns 0 too, and is solved on its own
    so that its inf/nan stays out of the other lanes.  A lane retires once theta
    moves by at most 1e-12 relative between two Ritz evaluations or its Krylov
    space is invariant; then it solves zeros in its slot until enough lanes have
    retired to compact them.  Each lane does the arithmetic it does alone.  Raises
    :class:`~skinspec.oracle.ConvergenceError` for a lane still moving at the
    step cap, ``ValueError`` for a non-finite z.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if not np.isfinite(zs).all():
        raise ValueError("sigma_min needs finite shifts z")
    n, L = M.order, len(zs)
    m_max = max(np.abs(band).max(initial=0.0) for band in (M.diag, M.upper, M.lower))
    # Dividing by a power of two is exact: a singular shift keeps its zero pivot.
    scale = np.ldexp(1.0, np.frexp(np.maximum(np.abs(zs), max(1.0, m_max)))[1])
    # A^-1 is applied as the adjoint of the A^H solve: separate LUs of A and A^H
    # disagree by O(1) near an eigenvalue, where the recurrence then never settles.
    # (L, n) bands of A^H; dl and du end in the zero coupling to the next lane.
    d = (np.conj(zs)[:, None] - M.diag) / scale[:, None]
    dl, du = (np.append(-band, 0.0) / scale[:, None] for band in (M.upper, M.lower))
    lu_h = _BlockLU(dl, d, du)
    # Singular lanes return 0 (theta = inf) without a step.
    out_theta = np.full(L, np.inf)
    active = np.flatnonzero(~lu_h.singular)
    if len(active) < L:
        lu_h.keep(~lu_h.singular)

    # One fixed pseudo-random start vector: results do not depend on batching.
    start = np.random.default_rng(0).standard_normal((n, 2)) @ np.array([1.0, 1.0j])
    q = np.repeat((start / np.linalg.norm(start))[None, :], len(active), axis=0)
    q_prev = np.zeros_like(q)
    cap = 2 * n + _SIGMA_EXTRA_STEPS
    alpha = np.empty((cap, len(active)))
    beta = np.zeros((cap + 1, len(active)))  # beta[k + 1] couples Lanczos vectors k and k + 1
    theta, bound = np.zeros(len(active)), np.zeros(len(active))
    dead = np.zeros(len(active), dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(cap):
            if dead.all():
                break
            y = lu_h.solve(q, "N")
            # Squared row norms summed over the float view: no temporaries.
            a = np.einsum("ij,ij->i", y.view(float), y.view(float))
            # An overflowing lane must not carry inf into the flat adjoint solve.
            y[~np.isfinite(a)] = 0.0
            w = lu_h.solve(y, "C")
            # In place, into the spent y and q_prev: the same products, no fresh arrays.
            w -= np.multiply(a[:, None], q, out=y)
            q_prev *= beta[j][:, None]
            w -= q_prev
            b = np.sqrt(np.einsum("ij,ij->i", w.view(float), w.view(float)))
            b[dead] = 1.0  # retired lanes keep q = 0, and b.all() sees the live ones
            # Bordering the tridiagonal with (beta[j], a) lifts a bound on its
            # top eigenvalue at most to the top of [[bound, beta[j]], [beta[j], a]].
            bound = 0.5 * (bound + a) + np.hypot(0.5 * (bound - a), beta[j])
            alpha[j], beta[j + 1] = a, b
            w /= b[:, None]
            q_prev, q = q, w
            if j % max(1, j // 16) and b.all():
                # A Ritz value costs O(j): past step 32, take one every j // 16 steps.
                continue
            live = np.flatnonzero(~dead)
            new = _largest_ritz(alpha[: j + 1, live], beta[1 : j + 1, live], bound[live])
            singular = ~np.isfinite(new) | ~np.isfinite(b[live])
            done = singular | (b[live] <= _SIGMA_RTOL * new)
            done |= np.abs(new - theta[live]) <= _SIGMA_RTOL * new
            gone = live[done]
            out_theta[active[gone]] = np.where(singular, np.inf, new)[done]
            theta[live] = bound[live] = new
            dead[gone], q[gone], q_prev[gone] = True, 0.0, 0.0
            if dead.mean() * max(1, j // 16) >= _COMPACT_DEAD:
                keep = ~dead
                lu_h.keep(keep)
                active, q, q_prev, dead = active[keep], q[keep], q_prev[keep], dead[keep]
                alpha, beta, theta, bound = alpha[:, keep], beta[:, keep], theta[keep], bound[keep]
        else:
            raise ConvergenceError(f"sigma_min: {(~dead).sum()}/{L} lanes unconverged at step cap")
        return scale / np.sqrt(out_theta)


def sigma_min(M, z: complex) -> float:
    """Smallest singular value of (zI - M); 0 (to rounding) at eigenvalues."""
    return float(sigma_min_many(M, np.array([z]))[0])


def worker_count(requested: int | None = None) -> int:
    """Worker count for grid scans; SKINSPEC_THREADS caps it (0 = auto)."""
    if requested is None:
        env = os.environ.get("SKINSPEC_THREADS", "0")
        try:
            requested = int(env)
        except ValueError:
            requested = 0
    if requested <= 0:
        return min(os.cpu_count() or 1, 8)
    return requested


def pseudospectrum(
    M,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    resolution: tuple[int, int] = (200, 200),
    workers: int | None = None,
) -> PseudoGrid:
    """Fill sigma_min(zI - M) on a rectangular grid.

    Grid points are independent; they are processed in fixed-size lane chunks,
    optionally on a thread pool (LAPACK and numpy release the GIL in the heavy
    kernels), and reassembled by index so the result is deterministic
    regardless of scheduling.
    """
    nx, ny = resolution
    if nx < 16 or ny < 16:
        raise ValueError("pseudospectrum grid must be at least 16 x 16")
    re = np.linspace(re_range[0], re_range[1], nx)
    im = np.linspace(im_range[0], im_range[1], ny)
    zs = (re[None, :] + 1j * im[:, None]).ravel()

    chunk = 4096
    chunks = [(i, zs[i : i + chunk]) for i in range(0, len(zs), chunk)]
    out = np.empty(len(zs))
    n_workers = min(worker_count(workers), len(chunks))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for start, values in pool.map(
                lambda item: (item[0], sigma_min_many(M, item[1])), chunks
            ):
                out[start : start + len(values)] = values
    else:
        for start, part in chunks:
            out[start : start + len(part)] = sigma_min_many(M, part)
    return PseudoGrid(
        re_range=(float(re_range[0]), float(re_range[1])),
        im_range=(float(im_range[0]), float(im_range[1])),
        resolution=(nx, ny),
        sigma_min=out.reshape(ny, nx),
    )
