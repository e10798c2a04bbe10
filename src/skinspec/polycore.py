"""Chebyshev polynomials and the normalized three-term recurrence families.

Everything downstream (exact eigenvectors, eigenvalue classification, decay
rates) is built out of two ingredients implemented here:

* plain Chebyshev evaluation ``T_n`` / ``U_n`` and the roots of ``U_n``,
* the pair of "hat" sequences ``p_hat_k`` / ``q_hat_k`` that satisfy the
  Chebyshev recurrence ``x_{k+1} = 2*mu*x_k - x_{k-1}`` with coupled initial
  values, and whose interleaving gives exact eigenvectors of perturbed dimer
  matrices.

For ``|mu| <= 1`` both sequences grow at most linearly in ``k``.  For
``|mu| > 1`` they grow like ``(|mu| + sqrt(mu^2 - 1))**k``, so the sequences
carry an optional per-index log rescaling that keeps the stored floats finite
while preserving exact magnitudes in ``value * exp(scale_log)`` form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RecurrenceSpec",
    "HatSequences",
    "cheb_eval",
    "cheb_u_roots",
    "hat_sequences",
    "y_map",
]

# Rescale whenever a sequence value passes 2**512: far below overflow, far
# above any magnitude the bulk (|mu| <= 1) path can reach.
_RESCALE_THRESHOLD = 2.0**512
_RESCALE_LOG = 512.0 * math.log(2.0)


def cheb_eval(kind: str, n: int, x):
    """Evaluate the Chebyshev polynomial T_n(x) or U_n(x).

    ``kind`` is ``"first"`` for T or ``"second"`` for U.  Uses the forward
    three-term recurrence, which is stable on [-1, 1] and monotonically
    growing (hence still sign-correct) outside.  ``x`` may be a float or an
    ndarray.
    """
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = x if kind == "first" else 2.0 * x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def cheb_u_roots(n: int) -> np.ndarray:
    """Roots of U_n, i.e. cos(k*pi/(n+1)) for k = 1..n, in decreasing order."""
    if n < 1:
        raise ValueError("U_0 has no roots; n must be >= 1")
    k = np.arange(1, n + 1, dtype=float)
    return np.cos(k * np.pi / (n + 1))


def y_map(params, x: float) -> float:
    """Normalized spectral coordinate of ``x`` for a perturbed dimer matrix.

    Returns ``((x - alpha1)(x - alpha2) - c1 - c2) / (2*sqrt(c1*c2))`` with
    ``c_i = gamma_i * beta_i``.  Values in [-1, 1] correspond to bulk
    eigenvalues; the finitely many outliers are the exceptional ones.
    """
    c1 = params.gamma1 * params.beta1
    c2 = params.gamma2 * params.beta2
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("y_map requires gamma_i * beta_i > 0 for i = 1, 2")
    return ((x - params.alpha1) * (x - params.alpha2) - c1 - c2) / (2.0 * math.sqrt(c1 * c2))


@dataclass(frozen=True)
class RecurrenceSpec:
    """Inputs of the hat-sequence recurrence.

    ``mu`` is the normalized spectral coordinate, ``beta_ratio`` the positive
    ratio ``beta = sqrt(gamma2*beta2 / (gamma1*beta1))``, and ``xi_p`` /
    ``xi_q`` the starting values of the two families.  For the eigenvector of
    a matrix with corner perturbation ``a`` at eigenvalue ``lam`` these are
    ``xi_q = alpha1 - lam`` and ``xi_p = alpha1 + a - lam``, so
    ``corner_a = xi_p - xi_q``; it defaults to that difference.

    Each field may also be an array of lanes (one recurrence per entry, all
    of one shape), which :func:`hat_sequences` runs side by side.
    """

    mu: float | np.ndarray
    beta_ratio: float | np.ndarray
    xi_p: float | np.ndarray
    xi_q: float | np.ndarray
    corner_a: float | np.ndarray | None = None

    def __post_init__(self):
        if not np.all(np.asarray(self.beta_ratio) > 0.0):
            raise ValueError("beta_ratio must be positive")
        if self.corner_a is None:
            object.__setattr__(self, "corner_a", self.xi_p - self.xi_q)

    @property
    def initial_values(self) -> tuple[float, float, float, float]:
        """(p_hat_0, p_hat_1, q_hat_0, q_hat_1).

        q starts the odd-position family, p the even-position one:

            p_hat_0 = xi_p     p_hat_1 = 2*mu*xi_p + (xi_p - xi_q)/beta
            q_hat_0 = xi_q     q_hat_1 = (2*mu + beta)*xi_p + (xi_p - xi_q)/beta
        """
        b = self.beta_ratio
        d = (self.xi_p - self.xi_q) / b
        p1 = 2.0 * self.mu * self.xi_p + d
        q1 = p1 + b * self.xi_p
        return self.xi_p, p1, self.xi_q, q1


@dataclass
class HatSequences:
    """The two recurrence families, stored with per-index log rescaling.

    The true values are ``p_hat[k] * exp(scale_log[k])`` and
    ``q_hat[k] * exp(scale_log[k])``; ``scale_log`` is identically zero
    whenever no rescale was needed (always the case for |mu| <= 1 at
    practical lengths).  Lane sequences have shape (k_max + 1, lanes).
    """

    p_hat: np.ndarray
    q_hat: np.ndarray
    scale_log: np.ndarray | None = None

    def __post_init__(self):
        if self.scale_log is None:
            self.scale_log = np.zeros_like(self.p_hat)
        if not (np.shape(self.p_hat) == np.shape(self.q_hat) == np.shape(self.scale_log)):
            raise ValueError("p_hat, q_hat and scale_log must have equal shape")

    def log_abs(self) -> tuple[np.ndarray, np.ndarray]:
        """(log|p_hat_k|, log|q_hat_k|) with rescaling undone; -inf at zeros."""
        with np.errstate(divide="ignore"):
            lp = np.log(np.abs(self.p_hat)) + self.scale_log
            lq = np.log(np.abs(self.q_hat)) + self.scale_log
        return lp, lq


def hat_sequences(spec: RecurrenceSpec, k_max: int) -> HatSequences:
    """Run the coupled Chebyshev recurrence up to index ``k_max``.

    Both families obey ``x_{k+1} = 2*mu*x_k - x_{k-1}`` with the initial
    values of ``spec``; array-valued specs run one lane per entry, and the
    sequences gain a trailing lane axis.  A lane's running pair is rescaled
    by 2**-512 whenever either family exceeds 2**512 in magnitude (at the
    first step, counting the initial pair), recorded in ``scale_log``.  A
    scalar spec is a single lane without the lane axis.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    p0, p1, q0, q1 = np.broadcast_arrays(*spec.initial_values)
    two_mu = 2.0 * np.asarray(spec.mu, dtype=float)

    # seq[k] holds (p_hat_k, q_hat_k); both families share each lane's scale.
    prev = np.array([p0, q0], dtype=float)
    cur = np.array([p1, q1], dtype=float)
    seq = np.empty((k_max + 1,) + prev.shape)
    rescaled = np.zeros((k_max + 1,) + prev.shape[1:], dtype=bool)
    seq[0] = prev
    if k_max >= 1:
        seq[1] = cur
    # The initial pair enters the first test; later pairs already passed it.
    first = np.abs(cur).max(axis=0) > _RESCALE_THRESHOLD
    for k in range(2, k_max + 1):
        prev, cur = cur, two_mu * cur - prev
        hit = np.abs(cur).max(axis=0) > _RESCALE_THRESHOLD
        if k == 2:
            hit |= first
        if hit.any():
            prev = np.where(hit, prev / _RESCALE_THRESHOLD, prev)
            cur = np.where(hit, cur / _RESCALE_THRESHOLD, cur)
            rescaled[k] = hit
        seq[k] = cur
    scale = np.zeros(rescaled.shape)
    if rescaled.any():
        # Sequential float cumsum: the same additions as a running total.
        scale = np.cumsum(np.where(rescaled, _RESCALE_LOG, 0.0), axis=0)
    return HatSequences(seq[:, 0], seq[:, 1], scale)
