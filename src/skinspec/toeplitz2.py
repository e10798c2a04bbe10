"""Perturbed tridiagonal 2-Toeplitz matrices: construction and exact eigenpairs.

A perturbed dimer matrix has period-2 bands (alpha1, alpha2 / beta1, beta2 /
gamma1, gamma2) with additive corner perturbations ``a`` (first diagonal
entry) and ``b`` (last).  Under the standing assumption
``gamma_i * beta_i > 0`` its spectrum is real, and every eigenvector is given
in closed form by interleaving the two hat sequences of :mod:`.polycore`,
scaled by powers of the skin rate ``s = sqrt(gamma1*gamma2/(beta1*beta2))``.

:func:`certified_eigenvalues` gives the Sturm-certified eigenvalues of any
symmetrizable tridiagonal matrix, and :func:`classify` their bulk or
exceptional class from mu = y(lambda); callers that publish eigenvalues only
need nothing else.  :func:`solve_tridiagonal_eigenpairs` is the one eigenpair
pipeline on top of them: closed-form vectors whenever the given parameters
reproduce the matrix (abstract perturbed dimer matrices and dimer resonator
chains alike), inverse iteration otherwise.  :func:`eigen_all` is that
pipeline on ``build_perturbed(params, n)``.

The module also builds the mirrored interface matrix (two half-chains glued
by a gamma2 coupling) and provides the decay / localization reports that
quantify the skin effect and interface modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import oracle
from .polycore import HatSequences, RecurrenceSpec, cheb_eval, hat_sequences, y_map

__all__ = [
    "NotAnEigenvalueError",
    "PerturbedDimerParams",
    "TridiagonalMatrix",
    "Eigenpair",
    "DecayReport",
    "BracketReport",
    "build_perturbed",
    "build_interface",
    "certified_eigenvalues",
    "char_poly",
    "classify",
    "eigen_all",
    "eigenvector_exact",
    "mirrored_eigenvector",
    "solve_tridiagonal_eigenpairs",
    "decay_report",
    "interface_localization_check",
    "bracket_report",
]

# |y(lambda)| <= 1 + _BULK_TOL counts as bulk; keeps boundary eigenvalues
# (e.g. lambda = 0 of capacitance matrices sits at |y| ~ 1 up to rounding)
# deterministically classified.
_BULK_TOL = 1e-10
# Relative width of the certified eigenvalue brackets.
_EIG_TOL = 1e-14
# Band distance (relative to each band's size) still counted as rounding.
_BAND_RTOL = 1e-12
_RESIDUAL_RTOL = 1e-9
_CLUSTER_RTOL = 1e-8
# Eigenvalues per closed-form batch: bounds the (lanes x n) temporaries.
_LANE_BLOCK = 256


class NotAnEigenvalueError(ValueError):
    """The closed-form assembly did not produce an eigenvector at this shift."""


@dataclass(frozen=True)
class PerturbedDimerParams:
    """Band coefficients and corner perturbations of a perturbed dimer matrix."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.gamma1 * self.beta1 <= 0.0 or self.gamma2 * self.beta2 <= 0.0:
            raise ValueError("admissibility requires gamma_i * beta_i > 0 for i = 1, 2")

    @property
    def c1(self) -> float:
        return self.gamma1 * self.beta1

    @property
    def c2(self) -> float:
        return self.gamma2 * self.beta2

    @property
    def beta_ratio(self) -> float:
        """beta = sqrt(c2/c1), the normalization ratio of the hat sequences."""
        return math.sqrt(self.c2 / self.c1)

    @property
    def skin_rate(self) -> float:
        """s = sqrt(gamma1*gamma2/(beta1*beta2)); per-cell eigenvector decay factor."""
        return math.sqrt(self.gamma1 * self.gamma2 / (self.beta1 * self.beta2))

    @property
    def step(self) -> float:
        """Signed per-cell factor beta * gamma1 / beta2 (|step| = skin_rate).

        Equals the skin rate whenever gamma1/beta2 > 0, which covers every
        capacitance-derived system; the sign matters only for admissible
        matrices whose two band pairs carry opposite signs.
        """
        return self.beta_ratio * self.gamma1 / self.beta2

    def swapped(self) -> "PerturbedDimerParams":
        """Parameters of the odd-order mirror image R A R (bands exchanged, corners traded)."""
        return PerturbedDimerParams(
            alpha1=self.alpha1,
            alpha2=self.alpha2,
            beta1=self.gamma2,
            beta2=self.gamma1,
            gamma1=self.beta2,
            gamma2=self.beta1,
            a=self.b,
            b=self.a,
        )

    def divided(self, divisor: float) -> "PerturbedDimerParams":
        """Every coefficient divided by ``divisor`` (bands and corners)."""
        return PerturbedDimerParams(*(getattr(self, f.name) / divisor for f in fields(self)))

    def mirror_params(self, n: int) -> "PerturbedDimerParams":
        """Parameters p' with build_perturbed(p', n) == build_perturbed(self, n).mirrored().

        For odd n this is :meth:`swapped`; even orders additionally trade the
        roles of the two sublattices.
        """
        if n % 2:
            return self.swapped()
        return PerturbedDimerParams(
            alpha1=self.alpha2,
            alpha2=self.alpha1,
            beta1=self.gamma1,
            beta2=self.gamma2,
            gamma1=self.beta1,
            gamma2=self.beta2,
            a=self.b,
            b=self.a,
        )


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real tridiagonal matrix stored as its three bands."""

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        n = len(self.diag)
        if len(self.upper) != n - 1 or len(self.lower) != n - 1:
            raise ValueError("off-diagonal bands must have length n - 1")

    @property
    def order(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if len(v) != self.order:
            raise ValueError("vector length does not match matrix order")
        out = self.diag * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out

    def to_dense(self) -> np.ndarray:
        n = self.order
        dense = np.zeros((n, n))
        dense[np.arange(n), np.arange(n)] = self.diag
        dense[np.arange(n - 1), np.arange(1, n)] = self.upper
        dense[np.arange(1, n), np.arange(n - 1)] = self.lower
        return dense

    def transposed(self) -> "TridiagonalMatrix":
        return TridiagonalMatrix(self.diag.copy(), self.lower.copy(), self.upper.copy())

    def mirrored(self) -> "TridiagonalMatrix":
        """R A R with R the exchange (anti-diagonal) matrix."""
        return TridiagonalMatrix(self.diag[::-1], self.lower[::-1], self.upper[::-1])


@dataclass
class Eigenpair:
    """One eigenvalue with its unit-sup-norm eigenvector and classification."""

    lam: float
    vector: np.ndarray
    mu: float | None
    theta: float | None
    klass: str
    residual: float
    method: str


@dataclass
class DecayReport:
    """Outcome of checking an eigenvector against an exponential envelope."""

    rate_fit: float
    rate_theory: float
    bound_constant: float
    satisfied: bool
    rate_fit_left: float | None = None
    rate_fit_right: float | None = None
    peak_index: int | None = None


def build_perturbed(params: PerturbedDimerParams, n: int) -> TridiagonalMatrix:
    """Order-n perturbed dimer matrix.

    Diagonal alternates alpha1+a, alpha2, alpha1, ... ending alpha1+b for odd
    n and alpha2+b for even n; bands alternate beta1/beta2 and gamma1/gamma2.
    """
    if n < 2:
        raise ValueError("matrix order must be at least 2")
    i = np.arange(n)
    diag = np.where(i % 2 == 0, params.alpha1, params.alpha2)
    diag[0] += params.a
    diag[-1] += params.b
    j = np.arange(n - 1)
    upper = np.where(j % 2 == 0, params.beta1, params.beta2)
    lower = np.where(j % 2 == 0, params.gamma1, params.gamma2)
    return TridiagonalMatrix(diag, upper, lower)


def build_interface(params: PerturbedDimerParams, m: int, a: float, b: float) -> TridiagonalMatrix:
    """Order-(4m+2) matrix of two mirrored odd blocks coupled by gamma2.

    The left block is R A^(0,a) R, the right block A^(0,b), each of order
    2m+1, with the single coupling gamma2 at positions (2m+1, 2m+2) and
    (2m+2, 2m+1).
    """
    if m < 1:
        raise ValueError("block half-size m must be at least 1")
    left = build_perturbed(replace(params, a=0.0, b=a), 2 * m + 1).mirrored()
    right = build_perturbed(replace(params, a=0.0, b=b), 2 * m + 1)
    diag = np.concatenate([left.diag, right.diag])
    upper = np.concatenate([left.upper, [params.gamma2], right.upper])
    lower = np.concatenate([left.lower, [params.gamma2], right.lower])
    return TridiagonalMatrix(diag, upper, lower)


def char_poly(params: PerturbedDimerParams, n: int, x: float) -> float:
    """det(xI - A_n^(a,b)) through the scaled Chebyshev representation.

    Evaluates the closed form in terms of U_k(y(x)) rather than expanding a
    dense determinant; agrees with the minor-recurrence sweep
    (:func:`skinspec.oracle.det_sweep`) in sign and magnitude.
    """
    if n < 2:
        raise ValueError("matrix order must be at least 2")
    m = n // 2
    y = y_map(params, x)
    w = math.sqrt(params.c1 * params.c2)
    um, um1 = cheb_eval("second", m, y), cheb_eval("second", m - 1, y)
    a, b = params.a, params.b
    c1, c2 = params.c1, params.c2
    if n % 2:
        return (x - params.alpha1 - a - b) * w**m * um + (
            a * b * (x - params.alpha2) - a * c1 - b * c2
        ) * w ** (m - 1) * um1
    value = w**m * um + (
        a * (params.alpha2 - x) + b * (params.alpha1 - x) + a * b + c2
    ) * w ** (m - 1) * um1
    if m >= 2:
        value += a * b * c1 * w ** (m - 2) * cheb_eval("second", m - 2, y)
    return value


def _sign_power(sign: float, k: np.ndarray) -> np.ndarray:
    return np.where(k % 2 == 0, 1.0, sign)


def _assemble_exact(
    hats: HatSequences, log_step: np.ndarray, step_sign: float, c_even: np.ndarray, n: int
) -> np.ndarray:
    """Closed-form eigenvector candidates, one column per lane, assembled in log space.

    Column j interleaves lane j of ``hats``: odd positions step^k * q_hat_k,
    even positions c_even * step^k * p_hat_k with c_even = -(alpha1 - lam)/beta1,
    scaled to unit sup-norm.  ``log_step`` and ``c_even`` hold each lane's
    log|step| and c_even; ``step_sign`` is sign(step), common to all lanes.
    Columns where the formula degenerates (all zero or non-finite) are NaN.
    """
    m = n // 2
    k_q = len(hats.q_hat) - 1  # m for odd n, m - 1 for even n
    log_p, log_q = hats.log_abs()
    kq = np.arange(k_q + 1)[:, None]
    kp = np.arange(m)[:, None]

    logs = np.empty((n, len(c_even)))
    logs[0::2] = log_q[: k_q + 1] + kq * log_step
    with np.errstate(divide="ignore"):
        logs[1::2] = log_p[:m] + kp * log_step + np.log(np.abs(c_even))
    top = np.max(logs, axis=0)
    with np.errstate(invalid="ignore"):
        vecs = np.exp(logs - top)
    vecs[0::2] *= np.sign(hats.q_hat[: k_q + 1]) * _sign_power(step_sign, kq)
    vecs[1::2] *= np.sign(hats.p_hat[:m]) * _sign_power(step_sign, kp) * np.sign(c_even)
    vecs[:, ~np.isfinite(top)] = np.nan
    return vecs


def _residuals(T: TridiagonalMatrix, vecs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Sup-norm residual |T v - lam v| of each column of ``vecs``; inf for NaN columns."""
    out = T.diag[:, None] * vecs
    out[:-1] += T.upper[:, None] * vecs[1:]
    out[1:] += T.lower[:, None] * vecs[:-1]
    out -= lams * vecs
    res = np.max(np.abs(out, out=out), axis=0)
    return np.where(np.isnan(res), np.inf, res)


def _closed_form(
    params: PerturbedDimerParams, T: TridiagonalMatrix, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenvectors at ``lams`` (rows, unit sup-norm) and their residuals.

    The forward assembly keeps the component that grows towards the right
    edge; a mode decaying to the right (e.g. a left-corner defect state with
    |mu| > 1) is captured by assembling on the mirrored parameters and
    reversing.  Both are exact formulas; each lane keeps whichever leaves the
    smaller residual, and one lane-vectorized recurrence runs both
    directions.  The residual is inf where both directions degenerate.
    """
    n = T.order
    lanes = len(lams)
    both = (params, params.mirror_params(n))

    def per_lane(values):
        return np.repeat(values, lanes)

    alpha1 = per_lane([q.alpha1 for q in both])
    lam2 = np.tile(lams, 2)
    spec = RecurrenceSpec(
        mu=np.concatenate([y_map(q, lams) for q in both]),
        beta_ratio=per_lane([q.beta_ratio for q in both]),
        xi_p=alpha1 + per_lane([q.a for q in both]) - lam2,
        xi_q=alpha1 - lam2,
    )
    m = n // 2
    hats = hat_sequences(spec, m if n % 2 else m - 1)
    vecs = _assemble_exact(
        hats,
        log_step=per_lane([math.log(abs(q.step)) for q in both]),
        # Mirroring keeps sign(step): both band pairs keep their signs.
        step_sign=1.0 if params.step > 0 else -1.0,
        c_even=-(alpha1 - lam2) / per_lane([q.beta1 for q in both]),
        n=n,
    )
    forward, mirrored = vecs[:, :lanes], vecs[::-1, lanes:]
    res_f = _residuals(T, forward, lams)
    res_m = _residuals(T, mirrored, lams)
    use_m = res_m < res_f
    vecs = np.where(use_m, mirrored, forward).T.copy()
    # Deterministic sign: the first largest-magnitude entry is positive.
    peak = vecs[np.arange(lanes), np.argmax(np.abs(vecs), axis=1)]
    vecs *= np.where(peak < 0.0, -1.0, 1.0)[:, None]
    return vecs, np.where(use_m, res_m, res_f)


def eigenvector_exact(params: PerturbedDimerParams, n: int, lam: float) -> np.ndarray:
    """Exact eigenvector of ``build_perturbed(params, n)`` at eigenvalue ``lam``.

    Odd positions carry step^k * q_hat_k, even positions
    -(alpha1 - lam)/beta1 * step^k * p_hat_k, normalized to unit sup-norm.
    Modes that decay towards the right edge are assembled through the
    mirrored representation (same formula on the mirrored parameters,
    reversed), which runs the recurrence in its stable direction.  Raises
    :class:`NotAnEigenvalueError` when the residual exceeds
    1e-9 * max(1, |lam|), i.e. when ``lam`` is not an eigenvalue to working
    accuracy (or the formula degenerates, e.g. at a = 0, lam = alpha1).
    """
    vecs, res = _closed_form(params, build_perturbed(params, n), np.array([float(lam)]))
    if not np.isfinite(res[0]):
        raise NotAnEigenvalueError(
            f"closed-form eigenvector degenerates to zero at lambda={lam!r}"
        )
    if res[0] > _RESIDUAL_RTOL * max(1.0, abs(lam)):
        raise NotAnEigenvalueError(
            f"residual {res[0]:.3e} too large at lambda={lam!r}; not an eigenvalue"
        )
    return vecs[0]


def mirrored_eigenvector(params: PerturbedDimerParams, n: int, lam: float) -> np.ndarray:
    """Eigenvector of the mirrored matrix built on ``params.swapped()``.

    Entry-reversed closed-form vector: R A R turns the right-edge form into
    the left-localized one used by the interface construction.  ``n`` must be
    odd, matching the mirrored-block representation.
    """
    if n % 2 == 0:
        raise ValueError("mirrored representation is stated for odd orders")
    vec = eigenvector_exact(params, n, lam)[::-1]
    T = build_perturbed(params.swapped(), n)
    res = float(np.max(np.abs(T.matvec(vec) - lam * vec)))
    if res > _RESIDUAL_RTOL * max(1.0, abs(lam)):
        raise NotAnEigenvalueError(
            f"mirrored residual {res:.3e} too large at lambda={lam!r}"
        )
    return vec


def classify(params: PerturbedDimerParams | None, lams) -> tuple[list, list, list[str]]:
    """(mu, theta, klass) lists for eigenvalues ``lams``, from mu = y(lam).

    ``klass`` is bulk where |mu| <= 1 + 1e-10, with theta = arccos(mu)
    (mu clipped to [-1, 1]), and exceptional elsewhere, with theta None.
    Without ``params`` every eigenvalue is unclassified, mu and theta None.
    """
    if params is None:
        return [None] * len(lams), [None] * len(lams), ["unclassified"] * len(lams)
    mus = y_map(params, np.asarray(lams, dtype=float)).tolist()
    bulk = [abs(mu) <= 1.0 + _BULK_TOL for mu in mus]
    thetas = [math.acos(min(1.0, max(-1.0, mu))) if b else None for mu, b in zip(mus, bulk)]
    return mus, thetas, ["bulk" if b else "exceptional" for b in bulk]


def eigen_all(params: PerturbedDimerParams, n: int) -> list[Eigenpair]:
    """:func:`solve_tridiagonal_eigenpairs` on ``build_perturbed(params, n)``."""
    return solve_tridiagonal_eigenpairs(build_perturbed(params, n), params)


def _describes(params: PerturbedDimerParams, T: TridiagonalMatrix) -> bool:
    """True when ``build_perturbed(params, T.order)`` has T's bands up to rounding."""
    B = build_perturbed(params, T.order)
    return all(
        np.max(np.abs(t - b)) <= _BAND_RTOL * np.max(np.abs(b))
        for t, b in ((T.diag, B.diag), (T.upper, B.upper), (T.lower, B.lower))
    )


def certified_eigenvalues(T: TridiagonalMatrix) -> np.ndarray:
    """Ascending eigenvalues of a symmetrizable tridiagonal matrix.

    LAPACK (dsterf) estimates on the symmetrized matrix, each certified by
    Sturm counts in a bracket of width 1e-14*max(1,|lam|) and bisected where
    that fails; sorted, as overlapping brackets can misorder their midpoints.
    Raises FloatingPointError when the symmetrized bands overflow.
    """
    with np.errstate(over="ignore"):
        S = oracle.symmetrize(T)
    if not (np.isfinite(S.diag).all() and np.isfinite(S.offdiag).all()):
        raise FloatingPointError("the symmetrized bands overflow the float range")
    guess = eigh_tridiagonal(S.diag, S.offdiag, eigvals_only=True, lapack_driver="sterf")
    return np.sort(oracle.sturm_eigenvalues(S, _EIG_TOL, guess=guess))


def solve_tridiagonal_eigenpairs(
    T: TridiagonalMatrix, params: PerturbedDimerParams | None = None
) -> list[Eigenpair]:
    """All eigenpairs of a symmetrizable tridiagonal matrix, sorted by eigenvalue.

    Eigenvalues come from :func:`certified_eigenvalues`.  ``params``, when given, classifies each pair
    as bulk or exceptional through its y-map.  When it also reproduces T's
    bands up to rounding (a perturbed dimer matrix, e.g. a dimer chain's
    generalized capacitance matrix), eigenvectors come from the closed form,
    assembled for fixed-size batches of eigenvalues at once.  Otherwise
    (interface matrices, chains without dimer structure), and wherever the
    formula degenerates, they come from inverse iteration, reorthogonalized
    inside numerically coincident clusters.
    """
    lams = certified_eigenvalues(T)
    if params is None or not _describes(params, T):
        return _pair_up(T, lams, params)
    starts = range(0, T.order, _LANE_BLOCK)
    vecs, res = zip(*(_closed_form(params, T, lams[i : i + _LANE_BLOCK]) for i in starts))
    return _pair_up(T, lams, params, np.concatenate(vecs), np.concatenate(res))


def _pair_up(T, lams, params, exact=None, exact_res=None):
    """Eigenpairs from closed-form candidates ``exact`` (with residuals ``exact_res``).

    A candidate is kept when its residual is at most 1e-9*max(1,|lam|) and it
    is not parallel to a vector already taken in the same numerically
    coincident cluster; otherwise (and always without ``exact``) the vector
    comes from inverse iteration, reorthogonalized against the cluster.
    """
    pairs: list[Eigenpair] = []
    cluster: list[np.ndarray] = []
    cluster_lam = None
    for i, (lam, mu, theta, klass) in enumerate(zip(lams, *classify(params, lams))):
        scale = max(1.0, abs(lam))
        if cluster_lam is None or abs(lam - cluster_lam) > _CLUSTER_RTOL * scale:
            cluster = []
        cluster_lam = lam

        method = "exact"
        vec = None
        if exact is not None and exact_res[i] <= _RESIDUAL_RTOL * scale:
            vec, res = exact[i], float(exact_res[i])
        if vec is not None and cluster:
            # Degenerate shifts make the formula reproduce the previous
            # vector; detect and fall through to orthogonalized iteration.
            for u in cluster:
                cos = abs(np.dot(u, vec)) / (np.linalg.norm(u) * np.linalg.norm(vec))
                if cos > 1.0 - 1e-8:
                    vec = None
                    break
        if vec is None:
            vec = oracle.inverse_iteration_vector(T, lam, orthogonal_to=cluster)
            res = float(np.max(np.abs(T.matvec(vec) - lam * vec)))
            method = "inverse_iteration"
        pairs.append(
            Eigenpair(
                lam=float(lam),
                vector=vec,
                mu=mu,
                theta=theta,
                klass=klass,
                residual=res,
                method=method,
            )
        )
        cluster.append(vec)
    return pairs


def _fit_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    if len(xs) < 2:
        return math.nan
    return float(np.polyfit(xs, ys, 1)[0])


def _cell_envelopes(v_abs: np.ndarray) -> np.ndarray:
    """Per-dimer-cell sup: E_k = max(|v_{2k+1}|, |v_{2k+2}|) (1-based entries)."""
    n = len(v_abs)
    n_cells = n // 2
    cells = v_abs[: 2 * n_cells].reshape(n_cells, 2).max(axis=1)
    if n % 2:
        cells = np.append(cells, v_abs[-1])
    return cells


def decay_report(vector: np.ndarray, params: PerturbedDimerParams) -> DecayReport:
    """Check an eigenvector against the edge-decay envelope M * j * s^floor((j-1)/2).

    ``rate_fit`` is the least-squares slope of the log cell envelope against
    the cell index over the corner-free window (entries 3 .. n-3); the cell
    sup is used instead of a single interleaved subsequence so that isolated
    trigonometric zeros of one hat family do not pollute the fit.
    ``bound_constant`` is the smallest M satisfying the bound at every index,
    inf when it exceeds the float range.
    """
    v = np.asarray(vector, dtype=float)
    if not np.any(v != 0.0):
        raise ValueError("decay report of the zero vector is undefined")
    n = len(v)
    v_abs = np.abs(v)
    log_s = math.log(params.skin_rate)

    j = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        log_v = np.log(v_abs)
        bound_constant = float(np.exp(np.max(log_v - np.log(j) - ((j - 1) // 2) * log_s)))

    cells = _cell_envelopes(v_abs)
    k = np.arange(len(cells))
    # Window: 1-based entries in [3, n-3]; cell k covers entries 2k+1, 2k+2.
    inside = (2 * k + 1 >= 3) & (2 * k + 2 <= n - 3)
    usable = inside & (cells > 1e-250)
    rate_fit = _fit_slope(k[usable], np.log(cells[usable]))
    satisfied = bool(
        np.isfinite(rate_fit) and abs(rate_fit - log_s) <= max(0.05 * abs(log_s), 0.02)
    )
    return DecayReport(
        rate_fit=rate_fit,
        rate_theory=log_s,
        bound_constant=bound_constant,
        satisfied=satisfied,
    )


def interface_localization_check(
    vector: np.ndarray, m: int, gamma_ell: float
) -> DecayReport:
    """Check two-sided exponential localization around interface site ``m``.

    ``m`` is the 1-based index of the last site of the left half (N/2 for a
    symmetric interface chain; 2*mb + 1 for :func:`build_interface` with
    block parameter mb).  Verifies |v_j| <= M * |m-j| * exp(-gamma_ell*|m-j|/2)
    with the peak within two sites of the interface, and fits the log cell
    envelope on each side (slopes vs site index, so a localized mode has
    rate_fit_left ~ +gamma_ell/2 and rate_fit_right ~ -gamma_ell/2).
    """
    v = np.asarray(vector, dtype=float)
    n = len(v)
    if not 2 <= m <= n - 2:
        raise ValueError("interface index m must satisfy 2 <= m <= len(vector) - 2")
    if not np.any(v != 0.0):
        raise ValueError("localization check of the zero vector is undefined")
    v_abs = np.abs(v)
    half_rate = gamma_ell / 2.0

    j = np.arange(1, n + 1, dtype=float)
    dist = np.abs(j - m)
    mask = dist > 0
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(v_abs[mask]) - np.log(dist[mask]) + half_rate * dist[mask]
        bound_constant = float(np.exp(np.max(log_ratio)))  # inf beyond the float range

    peak_index = int(np.argmax(v_abs)) + 1

    def side_rate(sites: np.ndarray, d: np.ndarray) -> float:
        # Group sites into 2-site cells by distance d from the interface;
        # the sites run outward, so each cell is a contiguous run.
        if len(sites) == 0:
            return math.nan
        cell = d // 2
        starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
        env = np.maximum.reduceat(v_abs[sites - 1], starts)
        centers = np.add.reduceat(sites, starts) / np.add.reduceat(np.ones(len(sites)), starts)
        used = ~(env <= 1e-250)  # a NaN envelope stays and makes the rate NaN
        return _fit_slope(centers[used], np.array([math.log(e) for e in env[used].tolist()]))

    # Both sides leave out the interface pair (d <= 1) and the outermost 2 sites.
    left_sites = np.arange(m - 2, 2, -1)
    right_sites = np.arange(m + 3, n - 1)
    rate_left = side_rate(left_sites, m - left_sites)
    rate_right = side_rate(right_sites, right_sites - (m + 1))

    rtol = 0.1 * half_rate
    rates_ok = (
        math.isfinite(rate_left)
        and math.isfinite(rate_right)
        and rate_left > 0.0
        and rate_right < 0.0
        and abs(abs(rate_left) - half_rate) <= rtol
        and abs(abs(rate_right) - half_rate) <= rtol
    )
    # Distance to the interface bond: modes sit on either of sites m, m+1.
    peak_ok = min(abs(peak_index - m), abs(peak_index - (m + 1))) <= 2
    satisfied = bool(peak_ok and rates_ok)
    rate_fit = (
        -(abs(rate_left) + abs(rate_right)) / 2.0
        if math.isfinite(rate_left) and math.isfinite(rate_right)
        else math.nan
    )
    return DecayReport(
        rate_fit=rate_fit,
        rate_theory=-half_rate,
        bound_constant=bound_constant,
        satisfied=satisfied,
        rate_fit_left=rate_left,
        rate_fit_right=rate_right,
        peak_index=peak_index,
    )


@dataclass
class BracketReport:
    """Result of matching bulk mu values to the interlacing brackets."""

    n: int
    allowance: int
    n_bulk: int
    matched: int
    unmatched_bulk: int
    exceptional: int

    @property
    def ok(self) -> bool:
        """Every bracket-indexed mu fits and the escapees stay within allowance.

        The interlacing theorem reindexes all but at most 11 (odd order) or
        12 (even) eigenvalues into the bracket ladder; the matched ones fit
        by construction, so the assertion is that the unmatched bulk ones
        plus the |y| > 1 outliers do not exceed the allowance.
        """
        return (
            self.unmatched_bulk + self.exceptional <= self.allowance
            and self.exceptional <= self.allowance
        )


def _bracket_bounds(n: int, slack: float) -> tuple[np.ndarray, np.ndarray]:
    m = n // 2
    if n % 2:
        ks = np.arange(3, m - 2)  # k = 3 .. m-3
        lo = np.cos(ks * np.pi / m) - slack
        hi = np.cos((ks - 2) * np.pi / m) + slack
    else:
        ks = np.arange(3, m - 3)  # k = 3 .. m-4
        lo = np.cos((ks + 1) * np.pi / m) - slack
        hi = np.cos((ks - 2) * np.pi / m) + slack
    return lo, hi


def _greedy_match(mus_desc: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """Order-preserving greedy matching of descending points into descending brackets."""
    matched = 0
    kk = 0
    last = len(lo)
    for mu in mus_desc:
        while kk < last and lo[kk] > mu:
            kk += 1
        if kk < last and mu <= hi[kk]:
            matched += 1
            kk += 1
    return matched


def bracket_report(
    pairs: list[Eigenpair], params: PerturbedDimerParams, n: int, slack: float = 1e-12
) -> BracketReport:
    """Match each bulk eigenvalue's mu into the cos-bracket ladder.

    Odd n = 2m+1: brackets [cos(k pi/m), cos((k-2) pi/m)] for k = 3..m-3 on
    each spectral branch, with at most 11 eigenvalues escaping; even n = 2m:
    [cos((k+1) pi/m), cos((k-2) pi/m)] for k = 3..m-4 and at most 12.
    Assignment is the order-preserving greedy matching per branch (left of
    the diagonal mean, right of it), which is optimal for these nested
    monotone brackets.
    """
    if len(pairs) != n:
        raise ValueError("need exactly the n eigenpairs of the order-n matrix")
    allowance = 11 if n % 2 else 12
    lo, hi = _bracket_bounds(n, slack)
    mid = 0.5 * (params.alpha1 + params.alpha2)
    bulk = [p for p in pairs if p.klass == "bulk"]
    exceptional = sum(1 for p in pairs if p.klass == "exceptional")
    matched = 0
    for side in (True, False):
        mus = np.sort(
            np.array([p.mu for p in bulk if (p.lam < mid) == side], dtype=float)
        )[::-1]
        matched += _greedy_match(mus, lo, hi)
    return BracketReport(
        n=n,
        allowance=allowance,
        n_bulk=len(bulk),
        matched=matched,
        unmatched_bulk=len(bulk) - matched,
        exceptional=exceptional,
    )
