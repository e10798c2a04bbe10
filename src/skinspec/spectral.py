"""Topological diagnostics: symbol curves, winding numbers, pseudospectra.

The semi-infinite dimer operator is block tridiagonal with 2x2 blocks; its
symbol here is f(z) = B_-1/z + B_0 + B_1 z with

    B_0 = [[alpha1, beta1], [gamma1, alpha2]],
    B_1 = [[0, 0], [beta2, 0]],  B_-1 = [[0, gamma2], [0, 0]],

so f(z) = [[alpha1, beta1 + gamma2/z], [gamma1 + beta2*z, alpha2]].  The
determinant loop and the two eigenvalue loops of f on the unit circle carry
the winding data; epsilon-pseudospectra of the finite matrices are computed
from sigma_min(zI - M) via inverse Lanczos on (A^H A)^-1, one lane-vectorized
complex tridiagonal LU per grid point.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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


def _circle(n_samples: int, loops: int = 1) -> np.ndarray:
    if n_samples < _MIN_CURVE_SAMPLES:
        raise ValueError(f"need at least {_MIN_CURVE_SAMPLES} samples")
    return np.linspace(0.0, 2.0 * math.pi * loops, n_samples * loops + 1)


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


def det_min_on_circle(params, n_samples: int = 4096) -> tuple[float, float]:
    """(theta, |det f(e^{i theta})|) at the minimum modulus, refined locally.

    Dense sampling followed by golden-section refinement of |det|^2 in the
    bracketing interval; detects determinant zeros on the unit circle.
    """
    from scipy.optimize import minimize_scalar

    thetas = _circle(n_samples)[:-1]
    mods = np.abs(det_symbol(params, np.exp(1j * thetas)))
    i = int(np.argmin(mods))
    h = 2.0 * math.pi / n_samples

    def objective(t):
        return abs(det_symbol(params, np.exp(1j * t))) ** 2

    res = minimize_scalar(
        objective, bounds=(thetas[i] - h, thetas[i] + h), method="bounded",
        options={"xatol": 1e-14},
    )
    t_best = float(res.x)
    best = math.sqrt(max(res.fun, 0.0))
    if mods[i] < best:
        t_best, best = float(thetas[i]), float(mods[i])
    return t_best, best


def _tracked_offsets(params, thetas: np.ndarray) -> tuple[np.ndarray, bool]:
    """Continuously tracked sqrt-of-discriminant along the circle.

    Returns the signed square roots and whether the two eigenvalue branches
    swap after a full loop (odd number of sign flips).
    """
    off = _off_product(params, np.exp(1j * thetas))
    sq = np.sqrt(0.25 * (params.alpha1 - params.alpha2) ** 2 + off)
    signed = np.empty_like(sq)
    signed[0] = sq[0]
    sign = 1.0
    for i in range(1, len(sq)):
        if abs(sign * sq[i] - signed[i - 1]) > abs(-sign * sq[i] - signed[i - 1]):
            sign = -sign
        signed[i] = sign * sq[i]
    return signed, sign < 0.0


def eig_curves(params, n_samples: int = 1024) -> tuple[SymbolCurve, SymbolCurve]:
    """The two eigenvalue branches of f(e^{i theta}), continuously tracked.

    Each branch is closed on its own when the discriminant loop does not
    encircle zero; otherwise the branches swap after one loop (both returned
    with ``closed=False``) and only their union, see :func:`eig_curve_union`,
    is a closed curve of period 4 pi.
    """
    thetas = _circle(n_samples)
    half_tr = 0.5 * (params.alpha1 + params.alpha2)
    signed, swapped = _tracked_offsets(params, thetas)
    plus = SymbolCurve(thetas, half_tr + signed, closed=not swapped)
    minus = SymbolCurve(thetas, half_tr - signed, closed=not swapped)
    return plus, minus


def eig_curve_union(params, n_samples: int = 1024) -> SymbolCurve:
    """Union of the eigenvalue branches as closed curves.

    If the branches swap, the union is the single period-4pi curve; if not,
    the two closed loops are concatenated (with a duplicated joint point) so
    that winding numbers add.
    """
    plus, minus = eig_curves(params, n_samples)
    n = len(plus.points)
    if not plus.closed:
        thetas = np.concatenate([plus.thetas[:-1], plus.thetas + 2.0 * math.pi])
        points = np.concatenate([plus.points[:-1], minus.points])
        return SymbolCurve(thetas, points, closed=True)
    # Two separate closed loops; winding() splits this case at the midpoint
    # and sums the loop windings.
    thetas = np.concatenate([plus.thetas, minus.thetas + 2.0 * math.pi])
    points = np.concatenate([plus.points, minus.points])
    return SymbolCurve(thetas, points, closed=False)


def _increments(points: np.ndarray, p: complex) -> np.ndarray:
    rel = points - p
    return np.angle(rel[1:] / rel[:-1])


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
    inc = _increments(pts, point)
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


class _LaneLU:
    """Partial-pivoted LU of many tridiagonal complex matrices at once.

    Bands are arrays of shape (n, L) / (n-1, L) for L independent lanes; the
    factorization stores the usual second superdiagonal fill-in, the row-swap
    mask and the multipliers per elimination step.
    """

    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray):
        n, L = d.shape
        self.n, self.L = n, L
        self.d = d.copy()
        self.du = du.copy() if n > 1 else np.zeros((0, L), dtype=complex)
        self.du2 = np.zeros((max(n - 2, 0), L), dtype=complex)
        self.mult = np.zeros((max(n - 1, 0), L), dtype=complex)
        self.swap = np.zeros((max(n - 1, 0), L), dtype=bool)
        self._factor(dl)

    def _factor(self, dl: np.ndarray):
        d, du, du2 = self.d, self.du, self.du2
        n = self.n
        for i in range(n - 1):
            low = dl[i]
            swap = np.abs(d[i]) < np.abs(low)
            self.swap[i] = swap
            # Pivot row entries at columns i, i+1, i+2.
            p0 = np.where(swap, low, d[i])
            p1 = np.where(swap, d[i + 1], du[i])
            p2 = np.zeros(self.L, dtype=complex)
            if i + 1 < n - 1:
                p2 = np.where(swap, du[i + 1], 0.0)
            # Eliminated row entries at the same columns.
            e0 = np.where(swap, d[i], low)
            e1 = np.where(swap, du[i], d[i + 1])
            e2 = np.zeros(self.L, dtype=complex)
            if i + 1 < n - 1:
                e2 = np.where(swap, 0.0, du[i + 1])
            dead = np.abs(p0) < _TINY_PIVOT
            if dead.any():
                p0 = np.where(dead, _TINY_PIVOT, p0)
            m = e0 / p0
            self.mult[i] = m
            d[i] = p0
            du[i] = p1
            if i < n - 2:
                self.du2[i] = p2
            d[i + 1] = e1 - m * p1
            if i + 1 < n - 1:
                du[i + 1] = e2 - m * p2
        dead = np.abs(d[n - 1]) < _TINY_PIVOT
        if dead.any():
            d[n - 1] = np.where(dead, _TINY_PIVOT, d[n - 1])

    def keep(self, mask: np.ndarray):
        """Drop the lanes where ``mask`` is False."""
        for name in ("d", "du", "du2", "mult", "swap"):
            setattr(self, name, getattr(self, name)[:, mask])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b lane-wise; b has shape (n, lanes)."""
        n = self.n
        d, du, du2, mult, swap = self.d, self.du, self.du2, self.mult, self.swap
        y = b.copy()
        for i in range(n - 1):
            s = swap[i]
            yi = np.where(s, y[i + 1], y[i])
            yi1 = np.where(s, y[i], y[i + 1])
            y[i] = yi
            y[i + 1] = yi1 - mult[i] * yi
        x = np.empty_like(y)
        x[n - 1] = y[n - 1] / d[n - 1]
        if n > 1:
            x[n - 2] = (y[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            x[i] = (y[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
        return x

    def solve_h(self, b: np.ndarray) -> np.ndarray:
        """Solve A^H x = b lane-wise: :meth:`solve` transposed step by step, on conj(b)."""
        n = self.n
        d, du, du2, mult, swap = self.d, self.du, self.du2, self.mult, self.swap
        x = np.conj(b)
        x[0] = x[0] / d[0]
        if n > 1:
            x[1] = (x[1] - du[0] * x[0]) / d[1]
        for i in range(2, n):
            x[i] = (x[i] - du[i - 1] * x[i - 1] - du2[i - 2] * x[i - 2]) / d[i]
        for i in range(n - 2, -1, -1):
            xi = x[i] - mult[i] * x[i + 1]
            x[i], x[i + 1] = np.where(swap[i], x[i + 1], xi), np.where(swap[i], xi, x[i + 1])
        return np.conj(x, out=x)


def _shifted_bands(M, zs: np.ndarray):
    """Bands of A = zI - M for every lane."""
    L = len(zs)
    d = zs[None, :] - np.asarray(M.diag, dtype=complex)[:, None]
    du = np.broadcast_to(-np.asarray(M.upper, dtype=complex)[:, None], (M.order - 1, L)).copy()
    dl = np.broadcast_to(-np.asarray(M.lower, dtype=complex)[:, None], (M.order - 1, L)).copy()
    return dl, d, du


def _largest_ritz(alpha: np.ndarray, beta: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each lane's symmetric tridiagonal (alpha, beta).

    Laguerre's method on p(x) = det(xI - T) from ``upper``, a bound above
    every eigenvalue, from where it decreases monotonically to the largest
    root.  p'/p and -(p'/p)' are summed over the LDL^T pivots q of xI - T,
    tracking r = q'/q and t = q''/q; T is scaled by ``upper``.
    """
    m = alpha.shape[0]
    alpha, beta2 = alpha / upper, (beta / upper) ** 2
    x = np.ones_like(upper)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_LAGUERRE_MAX_ITER):
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


def sigma_min_many(M, zs: np.ndarray) -> np.ndarray:
    """Smallest singular value of (zI - M) for every z in ``zs``.

    Inverse Lanczos: a three-term Lanczos recurrence on (A^H A)^-1 per lane,
    A = (zI - M)/s with s the power of two at or above max(1, |z|, max|M|);
    sigma = s/sqrt(theta) for the largest Ritz value theta.  A lane retires
    once theta moves by at most 1e-12 relative between two Ritz evaluations
    or its Krylov space is invariant; lanes whose solves overflow are
    singular to working precision and return 0.  Raises
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
    dl, d, du = (band / scale for band in _shifted_bands(M, zs))
    # A^-1 is applied as the adjoint of the A^H solve: separate LUs of A and A^H
    # disagree by O(1) near an eigenvalue, where the recurrence then never settles.
    lu_h = _LaneLU(np.conj(du), np.conj(d), np.conj(dl))

    # One fixed pseudo-random start vector: results do not depend on batching.
    start = np.random.default_rng(0).standard_normal((n, 2)) @ np.array([1.0, 1.0j])
    q = np.repeat((start / np.linalg.norm(start))[:, None], L, axis=1)
    q_prev = np.zeros_like(q)
    alpha = np.empty((0, L))
    beta = np.zeros((1, L))  # beta[k + 1] couples Lanczos vectors k and k + 1
    theta = np.zeros(L)
    bound = np.zeros(L)
    out_theta = np.full(L, np.inf)
    active = np.arange(L)
    with np.errstate(all="ignore"):
        for j in range(2 * n + _SIGMA_EXTRA_STEPS):
            y = lu_h.solve(q)
            a = np.sum((y * np.conj(y)).real, axis=0)
            w = lu_h.solve_h(y) - a * q - beta[-1] * q_prev
            b = np.linalg.norm(w, axis=0)
            alpha = np.vstack((alpha, a))
            # Bordering the tridiagonal with (beta[-1], a) lifts a bound on its
            # top eigenvalue at most to the top of [[bound, beta[-1]], [beta[-1], a]].
            bound = 0.5 * (bound + a) + np.hypot(0.5 * (bound - a), beta[-1])
            beta = np.vstack((beta, b))
            if j % max(1, j // 16) and b.all():
                # A Ritz value costs O(j): past step 32, take one every j // 16 steps.
                q_prev, q = q, w / b
                continue
            new = _largest_ritz(alpha, beta[1:-1], bound)
            singular = ~np.isfinite(new) | ~np.isfinite(b)
            done = singular | (b <= _SIGMA_RTOL * new)
            done |= np.abs(new - theta) <= _SIGMA_RTOL * new
            out_theta[active[done]] = np.where(singular, np.inf, new)[done]
            keep = ~done
            active = active[keep]
            if len(active) == 0:
                break
            lu_h.keep(keep)
            q_prev, q = q[:, keep], w[:, keep] / b[keep]
            alpha, beta, theta, bound = alpha[:, keep], beta[:, keep], new[keep], new[keep]
        else:
            raise ConvergenceError(f"sigma_min: {len(active)}/{L} lanes unconverged at step cap")
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
    optionally on a thread pool (numpy releases the GIL in the heavy kernels),
    and reassembled by index so the result is deterministic regardless of
    scheduling.
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
