"""Reference eigensolver for real tridiagonal matrices with positive band products.

Any tridiagonal matrix whose sub/super band products are all positive is
diagonally similar to a symmetric one, so its spectrum is real and simple.
This module performs that symmetrization and then locates every eigenvalue by
Sturm-sequence bisection, one vectorized count sweep per round, with inverse
iteration for eigenvectors.  It is the independent cross-check for the
closed-form eigenvector formulas and is also used directly for matrices
(interface blocks, generalized problems) that are not plain perturbed
2-Toeplitz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "ConvergenceError",
    "SymTridiagonal",
    "symmetrize",
    "sturm_count",
    "sturm_eigenvalues",
    "inverse_iteration_vector",
    "det_sweep",
    "sign_fixed",
]

# Sturm pivots are floored at this magnitude to avoid division blowup.
_PIVMIN = 1e-300
# Pivots one block of a Sturm count sweep holds (rows times shifts, 256 KiB).
_SWEEP_BLOCK = 1 << 15

_MAX_BISECTION_ROUNDS = 200
_MAX_INVERSE_ITERATIONS = 50


class ConvergenceError(RuntimeError):
    """An iterative phase (bisection, inverse iteration) failed to converge."""


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix given by its diagonal and offdiagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag, dtype=float))
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError("offdiag must have length n - 1")

    @property
    def order(self) -> int:
        return len(self.diag)


def symmetrize(T) -> SymTridiagonal:
    """Symmetric tridiagonal matrix with the same spectrum as ``T``.

    Requires every product lower[i]*upper[i] to be positive; the offdiagonal
    of the result is sqrt(lower*upper), realized by the diagonal similarity
    D^-1 T D with D_ii = prod(sqrt(lower_j/upper_j), j < i).
    """
    products = np.asarray(T.lower, dtype=float) * np.asarray(T.upper, dtype=float)
    if len(products) and products.min() <= 0.0:
        raise ValueError(
            "band product lower[i]*upper[i] must be positive for all i "
            "(the standing assumption gamma_i*beta_i > 0 is violated)"
        )
    return SymTridiagonal(np.asarray(T.diag, dtype=float).copy(), np.sqrt(products))


def _sturm_counts(diag: np.ndarray, off_sq: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift in ``xs`` (vectorized).

    The pivots q_i = (d_i - x) - e_{i-1}**2 / q_{i-1} fill a block of rows at
    a time, two ufunc calls per row, so a sweep over a few shifts costs a
    third or less of one that floors every row.  A block is checked once for
    pivots below _PIVMIN in magnitude (in practice exact zeros) and only then
    recomputed row by row with each pivot floored to -_PIVMIN as it is
    formed, so the counts are bit for bit those of flooring every row.  The
    unfloored pass raises no floating-point warnings.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n, m = len(diag), len(xs)
    off = off_sq.tolist()
    rows = max(1, min(n, _SWEEP_BLOCK // max(m, 1)))
    buf, ratio, prev = np.empty((rows, m)), np.empty(m), np.empty(m)
    count = np.zeros(m, dtype=np.int64)
    divide, subtract = np.divide, np.subtract
    for start in range(0, n, rows):
        block = buf[: min(rows, n - start)]
        np.subtract.outer(diag[start : start + len(block)], xs, out=block)
        pending = iter(block)
        q = prev if start else next(pending)
        # A zero pivot divides by zero here, and the block is redone below.
        with np.errstate(all="ignore"):
            for row, e2 in zip(pending, off[max(start - 1, 0) : start + len(block) - 1]):
                divide(e2, q, ratio)
                subtract(row, ratio, row)
                q = row
        if (np.abs(block) < _PIVMIN).any():
            block[:] = _sturm_counts_floored(diag, off_sq, xs, start, len(block), prev)
        count += (block < 0.0).sum(axis=0)
        np.copyto(prev, block[-1])
    return count


def _sturm_counts_floored(diag, off_sq, xs, start: int, rows: int, prev) -> np.ndarray:
    """Pivots of rows ``start`` to ``start + rows``, each floored as it is formed.

    ``prev`` holds the floored pivots of row ``start - 1``.
    """
    q = prev
    out = np.empty((rows, len(xs)))
    for i, row in enumerate(out, start):
        row[:] = diag[i] - xs - off_sq[i - 1] / q if i else diag[0] - xs
        np.copyto(row, -_PIVMIN, where=np.abs(row) < _PIVMIN)
        q = row
    return out


def sturm_count(S: SymTridiagonal, x: float) -> int:
    """Number of eigenvalues of ``S`` strictly below ``x``."""
    return int(_sturm_counts(S.diag, S.offdiag**2, np.array([x]))[0])


def _gershgorin(S: SymTridiagonal) -> tuple[float, float]:
    e = np.abs(S.offdiag)
    radius = np.zeros_like(S.diag)
    if len(e):
        radius[:-1] += e
        radius[1:] += e
    lo = float(np.min(S.diag - radius))
    hi = float(np.max(S.diag + radius))
    pad = 1e-10 * max(1.0, abs(lo), abs(hi))
    return lo - pad, hi + pad


def sturm_eigenvalues(
    S: SymTridiagonal, tol: float = 1e-14, guess: np.ndarray | None = None
) -> np.ndarray:
    """All eigenvalues of ``S``, ascending, each bisected to width < tol*max(1,|lam|).

    Every eigenvalue is certified by its Sturm count, so none can be missed
    or duplicated.  The bisections advance together, one vectorized count
    sweep per round over the lanes still short of their target.  ``guess``,
    when given, holds ascending estimates of the n eigenvalues (e.g. from
    LAPACK).  Bracket k starts at guess[k] +- tol*max(1,|guess[k]|)/2 and holds
    the k-th eigenvalue exactly when count(lo) <= k < count(hi).  A certified
    bracket is kept as it is (its width meets the target up to rounding); one
    that fails is widened 16x per sweep, clipped to the Gershgorin interval,
    and then bisected.  Failing at both Gershgorin ends means the counts are
    broken (ConvergenceError).  Non-finite bands raise ValueError.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = S.order
    if n == 0:
        return np.empty(0)
    if not (np.isfinite(S.diag).all() and np.isfinite(S.offdiag).all()):
        raise ValueError("diag and offdiag must be finite")
    off_sq = S.offdiag**2
    glo, ghi = _gershgorin(S)
    lo, hi = np.full(n, glo), np.full(n, ghi)
    active = np.ones(n, dtype=bool)
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (n,):
            raise ValueError("guess must hold one estimate per eigenvalue")
        half = 0.5 * tol * np.maximum(1.0, np.abs(guess))
        todo = np.arange(n)
        # Non-finite estimates carry no information: always bisect those lanes.
        active = ~np.isfinite(guess)
        while len(todo):
            # fmax/fmin send non-finite estimates straight to the Gershgorin ends.
            with np.errstate(invalid="ignore", over="ignore"):
                a = np.fmax(guess[todo] - half[todo], glo)
                b = np.fmin(guess[todo] + half[todo], ghi)
            counts = _sturm_counts(S.diag, off_sq, np.concatenate([a, b]))
            ok = (counts[: len(todo)] <= todo) & (todo < counts[len(todo) :])
            if np.any(~ok & (a <= glo) & (b >= ghi)):
                raise ConvergenceError("Sturm counts fail certification at the Gershgorin ends")
            lo[todo[ok]], hi[todo[ok]] = a[ok], b[ok]
            todo = todo[~ok]
            active[todo] = True
            half[todo] *= 16.0
    k = np.arange(n)
    for _ in range(_MAX_BISECTION_ROUNDS):
        mid = 0.5 * (lo + hi)
        # Stop a bracket when it reaches the target width or float resolution.
        active &= ~(((hi - lo) < tol * np.maximum(1.0, np.abs(mid))) | (mid <= lo) | (mid >= hi))
        if not active.any():
            return mid
        idx = np.flatnonzero(active)
        below = _sturm_counts(S.diag, off_sq, mid[idx]) <= k[idx]
        lo[idx[below]] = mid[idx[below]]
        hi[idx[~below]] = mid[idx[~below]]
    raise ConvergenceError("Sturm bisection did not converge")


def det_sweep(T, x: float) -> float:
    """det(xI - T) by the leading-principal-minor recurrence.

    Reference determinant path used to cross-validate the Chebyshev
    characteristic-polynomial representation; overflows for large orders or
    far-away shifts, so use it on moderate problems only.
    """
    diag = np.asarray(T.diag, dtype=float)
    prods = np.asarray(T.lower, dtype=float) * np.asarray(T.upper, dtype=float)
    d_prev, d_cur = 1.0, x - diag[0]
    for i in range(1, len(diag)):
        d_prev, d_cur = d_cur, (x - diag[i]) * d_cur - prods[i - 1] * d_prev
    return d_cur


def _banded(T, lam: float) -> np.ndarray:
    """(T - lam*I) in solve_banded layout."""
    n = len(T.diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = T.upper
    ab[1, :] = T.diag - lam
    ab[2, :-1] = T.lower
    return ab


def _residual(T, v: np.ndarray, lam: float) -> float:
    return float(np.max(np.abs(T.matvec(v) - lam * v)))


def inverse_iteration_vector(
    T,
    lam: float,
    orthogonal_to: list[np.ndarray] | None = None,
    rtol: float = 1e-9,
) -> np.ndarray:
    """Unit-sup-norm eigenvector of ``T`` for an eigenvalue estimate ``lam``.

    Deterministic all-ones start, switching to an index ramp on stagnation.
    ``orthogonal_to`` holds already-computed vectors of a numerically
    coincident cluster; the iterate is reorthogonalized against them so
    that degenerate pairs get independent vectors.
    """
    n = len(T.diag)
    if n == 1:
        return np.ones(1)
    target = rtol * max(1.0, abs(lam))
    shift = lam
    ab = _banded(T, shift)

    v = np.ones(n)
    v /= np.max(np.abs(v))
    best = None
    best_res = np.inf
    for it in range(_MAX_INVERSE_ITERATIONS):
        try:
            w = solve_banded((1, 1), ab, v)
        except np.linalg.LinAlgError:
            # Exactly singular shift: nudge by one part in 1e13.
            shift = lam + 1e-13 * max(1.0, abs(lam)) * (it + 1)
            ab = _banded(T, shift)
            continue
        if orthogonal_to:
            for u in orthogonal_to:
                w = w - (np.dot(u, w) / np.dot(u, u)) * u
        norm = np.max(np.abs(w))
        if not np.isfinite(norm) or norm == 0.0:
            v = np.arange(1, n + 1, dtype=float) / n
            continue
        v = w / norm
        res = _residual(T, v, lam)
        if res <= target:
            return sign_fixed(v)
        if res < best_res:
            best, best_res = v.copy(), res
        elif it == 3:
            # Stagnating: restart from the ramp once.
            v = np.arange(1, n + 1, dtype=float) / n
    raise ConvergenceError(
        f"inverse iteration stalled at residual {best_res:.3e} for lambda={float(lam)!r}"
    )


def sign_fixed(v: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry is positive (deterministic)."""
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0.0 else v
