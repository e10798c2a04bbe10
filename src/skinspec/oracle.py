"""Reference eigensolver for real tridiagonal matrices with positive band products.

Any tridiagonal matrix whose sub/super band products are all positive is
diagonally similar to a symmetric one, so its spectrum is real and simple.
This module performs that symmetrization and then locates every eigenvalue by
Sturm-sequence bisection, with inverse iteration for eigenvectors.  It is the
independent cross-check for the closed-form eigenvector formulas and is also
used directly for matrices (interface blocks, generalized problems) that are
not plain perturbed 2-Toeplitz.
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
    D^-1 T D with D_ii = prod(sqrt(upper_j/lower_j), j < i).
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


def _certified_brackets(
    diag: np.ndarray,
    off_sq: np.ndarray,
    guess: np.ndarray,
    tol: float,
    glo: float,
    ghi: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Sturm-certified brackets [lo, hi) around eigenvalue estimates ``guess``.

    Bracket k starts at guess[k] +- tol*max(1,|guess[k]|)/2 and holds the k-th
    eigenvalue exactly when count(lo) <= k < count(hi).  A bracket that fails
    the test is widened 16x at a time, clipped to the Gershgorin interval,
    and the first width that passes is kept.  A count sweep tests as many
    widths of each failed lane as fit in 2n shifts, so a few failed lanes
    test their whole ladder, up to the Gershgorin ends, at once.  The test
    holds at the ends unless the counts are broken (then ConvergenceError).

    A sweep that tests a ladder also evaluates, in the shifts left over, the
    bisection tree (see :func:`_tree_midpoints`) of each lane's first width,
    where almost every failed lane passes.  Returns (lo, hi, widened,
    levels): ``levels`` holds that tree's counts when it serves every widened
    lane, and is empty otherwise.
    """
    n = len(diag)
    guess = np.asarray(guess, dtype=float)
    if guess.shape != (n,):
        raise ValueError("guess must hold one estimate per eigenvalue")
    half = 0.5 * tol * np.maximum(1.0, np.abs(guess))
    lo = np.full(n, glo)
    hi = np.full(n, ghi)
    todo = np.arange(n)
    # Non-finite estimates carry no information: always bisect those lanes.
    widened = ~np.isfinite(guess)
    while len(todo):
        # Rung j of a lane is its current bracket widened 16**j times; take as
        # many rungs as fit in 2n shifts, up to the one where every lane
        # reaches both Gershgorin ends.
        g, h = guess[todo], half[todo]
        rungs = []
        while len(rungs) < n // len(todo) and not (rungs and rungs[-1][2].all()):
            # fmax/fmin send non-finite estimates straight to the Gershgorin ends.
            with np.errstate(invalid="ignore", over="ignore"):
                a, b = np.fmax(g - h, glo), np.fmin(g + h, ghi)
                rungs.append((a, b, (a <= glo) & (b >= ghi)))
                h = h * 16.0
        a, b, at_ends = (np.stack(r, axis=1) for r in zip(*rungs))
        tested = np.ones_like(at_ends)
        tested[:, 1:] = ~at_ends[:, :-1]  # a lane reaches the ends for good
        lane = np.broadcast_to(todo[:, None], a.shape)[tested]
        rounds = _rounds_per_sweep(a[:, 0], b[:, 0], tol, 2 * (n - len(lane)))
        mids = _tree_midpoints(a[:, 0], b[:, 0], rounds)
        counts = _sturm_counts(
            diag, off_sq, np.concatenate([a[tested], b[tested]] + [m.ravel() for m in mids])
        )
        ok = np.zeros_like(tested)
        ok[tested] = (counts[: len(lane)] <= lane) & (lane < counts[len(lane) : 2 * len(lane)])
        found = ok.any(axis=1)
        if np.any(~found & at_ends[:, -1]):
            raise ConvergenceError("Sturm counts fail certification at the Gershgorin ends")
        first = np.argmax(ok[found], axis=1)
        lo[todo[found]] = a[found, first]
        hi[todo[found]] = b[found, first]
        # The tree serves the bisection when it covers every lane left to bisect.
        serves = found.all() and not first.any() and widened.sum() == len(todo)
        todo = todo[~found]
        widened[todo] = True
        half[todo] = h[~found]
    levels = _split_levels(counts[2 * len(lane) :], mids) if rounds and serves else []
    return lo, hi, widened, levels


def _tree_midpoints(lo, hi, rounds: int) -> list[np.ndarray]:
    """Midpoints of the next ``rounds`` bisection rounds of the brackets [lo, hi).

    Returns one (lanes, 2**j) array for each round j: the midpoints of the
    2**j brackets that j rounds can reach, left to right.  Each is
    0.5*(lo + hi) of the bracket it halves, as a round forms it.
    """
    tlo, thi = lo[:, None], hi[:, None]
    mids = []
    for _ in range(rounds):
        mid = 0.5 * (tlo + thi)
        mids.append(mid)
        tlo = np.stack([tlo, mid], axis=2).reshape(len(lo), -1)
        thi = np.stack([mid, thi], axis=2).reshape(len(lo), -1)
    return mids


def _split_levels(counts: np.ndarray, mids: list[np.ndarray]) -> list[np.ndarray]:
    """Counts at the concatenated, raveled ``mids``, one array shaped like each."""
    ends = np.cumsum([m.size for m in mids])
    return [c.reshape(m.shape) for c, m in zip(np.split(counts, ends[:-1]), mids)]


def _rounds_per_sweep(lo, hi, tol: float, shifts: int) -> int:
    """Bisection rounds a count sweep with room for ``shifts`` midpoints serves.

    As many as the widest bracket [lo, hi) still needs, with a margin for the
    rounding of the midpoints, but no more than keep the 2**r - 1 tree
    midpoints of every lane within ``shifts``.  A sweep of 2n shifts, the
    size of the certification sweep, serves one round while all n lanes are
    active.
    """
    cap = int(np.log2(shifts // len(lo) + 1))
    if cap == 0:
        return 0
    target = tol * np.maximum(1.0, np.minimum(np.abs(lo), np.abs(hi)))
    need = int(np.log2(max(1.1 * np.max((hi - lo) / target), 1.0))) + 1
    return min(need, cap)


def sturm_eigenvalues(
    S: SymTridiagonal, tol: float = 1e-14, guess: np.ndarray | None = None
) -> np.ndarray:
    """All eigenvalues of ``S``, ascending, each bisected to width < tol*max(1,|lam|).

    Every eigenvalue is certified by its Sturm count, so none can be missed
    or duplicated.  All n bisections advance simultaneously on vectorized
    count sweeps.  ``guess``, when given, holds estimates of the n
    eigenvalues in ascending order (e.g. from LAPACK).  Each is first tested
    on a bracket of width tol*max(1,|guess|) around it; a certified bracket
    is kept as it is (its width meets the target up to rounding), and only
    the lanes that fail are widened and then bisected.

    One count sweep serves the next r rounds: it evaluates every midpoint
    those rounds can reach (the 2**r - 1 nodes of each active lane's
    bisection tree), and the rounds then run on those counts with their
    usual stopping tests, so the result is bit for bit that of one sweep
    per round.  r is what the widest bracket still needs, capped so that a
    sweep holds at most 2n shifts; with all n lanes active, as without
    ``guess``, r is 1.  The sweep that widens the failed lanes also serves
    their first rounds when they all pass at their first new width, so a
    few failed lanes usually cost one sweep beyond the certification sweep.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = S.order
    if n == 0:
        return np.empty(0)
    off_sq = S.offdiag**2
    glo, ghi = _gershgorin(S)
    if guess is None:
        lo = np.full(n, glo)
        hi = np.full(n, ghi)
        active = np.ones(n, dtype=bool)
        levels = []
    else:
        lo, hi, active, levels = _certified_brackets(S.diag, off_sq, guess, tol, glo, ghi)
    k = np.arange(n)

    # Lanes idx bisect on the tree counts in levels, which the last sweep
    # evaluated for them; live marks those still short of their target.
    idx = np.flatnonzero(active)
    live = np.ones(len(idx), dtype=bool)
    node = np.zeros(len(idx), dtype=np.int64)  # each lane's bracket in its level
    for _ in range(_MAX_BISECTION_ROUNDS):
        a, b = lo[idx], hi[idx]
        mid = 0.5 * (a + b)
        # Stop a bracket when it reaches the target width or float resolution.
        live &= ~(((b - a) < tol * np.maximum(1.0, np.abs(mid))) | (mid <= a) | (mid >= b))
        if not live.any():
            return 0.5 * (lo + hi)
        if not levels:
            idx, mid = idx[live], mid[live]
            r = _rounds_per_sweep(lo[idx], hi[idx], tol, 2 * n)
            mids = _tree_midpoints(lo[idx], hi[idx], r)
            levels = _split_levels(
                _sturm_counts(S.diag, off_sq, np.concatenate([m.ravel() for m in mids])), mids
            )
            live = np.ones(len(idx), dtype=bool)
            node = np.zeros(len(idx), dtype=np.int64)
        below = levels.pop(0)[np.arange(len(idx)), node] <= k[idx]
        node = 2 * node + below
        lo[idx[live & below]] = mid[live & below]
        hi[idx[live & ~below]] = mid[live & ~below]
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
