"""Gauge capacitance matrices of one-dimensional subwavelength resonator chains.

A chain of N resonators with lengths l_i, gaps s_i and gauge potentials
gamma_i is represented by an N x N tridiagonal gauge capacitance matrix whose
eigenpairs approximate the subwavelength resonances: omega_i = v_b *
sqrt(delta * lambda_i) for the generalized problem C a = lambda V a with
V = diag(l_i).  For a dimer chain (equal lengths, alternating gaps) the
matrix is exactly a perturbed 2-Toeplitz matrix, which is what connects the
physics to the closed-form spectral machinery in :mod:`.toeplitz2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .toeplitz2 import PerturbedDimerParams, TridiagonalMatrix

__all__ = [
    "ResonatorChain",
    "ModeProfile",
    "SubwavelengthSpectrum",
    "gauge_capacitance",
    "dimer_coefficients",
    "interface_chain",
    "subwavelength_frequencies",
    "generalized_matrix",
    "mode_profile",
]

# |lambda| below this (relative to the spectral scale) is clamped to the exact
# kernel eigenvalue 0 before taking square roots.
_KERNEL_RTOL = 1e-10


def _exp(x: float) -> float:
    """math.exp, reporting overflow (|gamma*ell| beyond ~709) as FloatingPointError."""
    try:
        return math.exp(x)
    except OverflowError:
        raise FloatingPointError(f"exp({x:g}) overflows: gauge potential too strong") from None


@dataclass(frozen=True)
class ResonatorChain:
    """Geometry and material data of a resonator chain.

    ``lengths`` (l_i > 0) and ``gammas`` (gamma_i != 0) have one entry per
    resonator, ``spacings`` (s_i > 0) one per gap.  ``delta`` is the material
    contrast in (0, 1); ``v`` and ``v_b`` the wave speeds outside and inside
    the resonators.  Coordinates are fixed by x_1^L = 0.
    """

    lengths: np.ndarray
    spacings: np.ndarray
    gammas: np.ndarray
    delta: float = 1e-3
    v: float = 1.0
    v_b: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "lengths", np.asarray(self.lengths, dtype=float))
        object.__setattr__(self, "spacings", np.asarray(self.spacings, dtype=float))
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=float))
        n = len(self.lengths)
        if n < 2:
            raise ValueError("a chain needs at least two resonators")
        if len(self.gammas) != n or len(self.spacings) != n - 1:
            raise ValueError("need N lengths, N gammas and N-1 spacings")
        if self.lengths.min() <= 0.0 or self.spacings.min() <= 0.0:
            raise ValueError("lengths and spacings must be positive")
        if np.any(self.gammas == 0.0):
            raise ValueError("gauge potentials must be nonzero (gamma -> 0 is out of scope)")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("contrast delta must lie in (0, 1)")
        if self.v <= 0.0 or self.v_b <= 0.0:
            raise ValueError("wave speeds must be positive")

    @property
    def size(self) -> int:
        return len(self.lengths)

    @classmethod
    def dimer(
        cls,
        N: int,
        ell: float = 1.0,
        s1: float = 1.0,
        s2: float = 2.0,
        gamma: float = 1.0,
        delta: float = 1e-3,
        v: float = 1.0,
        v_b: float = 1.0,
    ) -> "ResonatorChain":
        """Dimer chain: equal lengths, gaps alternating s1, s2, constant gamma."""
        if N < 2:
            raise ValueError("dimer chain needs N >= 2")
        spac = np.where(np.arange(N - 1) % 2 == 0, s1, s2)
        return cls(np.full(N, ell), spac, np.full(N, gamma), delta, v, v_b)

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Left and right endpoints (x_i^L, x_i^R) of every resonator."""
        left = np.zeros(self.size)
        left[1:] = np.cumsum(self.lengths[:-1] + self.spacings)
        return left, left + self.lengths


def gauge_capacitance(chain: ResonatorChain) -> TridiagonalMatrix:
    """Gauge capacitance matrix of a chain, with per-resonator gamma support.

    Band products are negative * negative on every off-diagonal pair, so the
    matrix is always diagonally symmetrizable; for equal-length chains every
    row sums to zero and the constant vector spans the kernel.
    """
    l, s, g = chain.lengths, chain.spacings, chain.gammas
    n = chain.size

    diag = np.empty(n)
    diag[0] = (g[0] / s[0]) * l[0] / (1.0 - _exp(-g[0] * l[0]))
    for i in range(1, n - 1):
        diag[i] = (g[i] / s[i]) * l[i] / (1.0 - _exp(-g[i] * l[i])) - (
            g[i] / s[i - 1]
        ) * l[i] / (1.0 - _exp(g[i] * l[i]))
    diag[n - 1] = -(g[n - 1] / s[n - 2]) * l[n - 1] / (1.0 - _exp(g[n - 1] * l[n - 1]))

    upper = np.array(
        [-(g[i] / s[i]) * l[i] / (1.0 - _exp(-g[i] * l[i + 1])) for i in range(n - 1)]
    )
    lower = np.array(
        [(g[i + 1] / s[i]) * l[i + 1] / (1.0 - _exp(g[i + 1] * l[i])) for i in range(n - 1)]
    )
    C = TridiagonalMatrix(diag, upper, lower)
    if not (C.upper * C.lower).min() > 0.0:
        raise FloatingPointError("capacitance band products must be positive")
    return C


def _is_dimer(chain: ResonatorChain) -> bool:
    rtol = 1e-12
    l, s, g = chain.lengths, chain.spacings, chain.gammas
    scale_l = np.max(np.abs(l))
    scale_g = np.max(np.abs(g))
    if np.max(np.abs(l - l[0])) > rtol * scale_l:
        return False
    if np.max(np.abs(g - g[0])) > rtol * scale_g:
        return False
    if len(s) > 2 and np.max(np.abs(s[2:] - s[:-2])) > rtol * np.max(s):
        return False
    return True


def dimer_coefficients(chain: ResonatorChain) -> PerturbedDimerParams:
    """Perturbed-dimer coefficients reproducing the chain's capacitance matrix.

    For a dimer chain the matrix equals ``build_perturbed(params, N)`` with

        alpha1 = (g/s1) L1 - (g/s2) L2     beta_i = -(g/s_i) L1
        alpha2 = (g/s2) L1 - (g/s1) L2     eta_i  =  (g/s_i) L2   (gamma slots)

    where L1 = ell/(1 - exp(-gamma*ell)), L2 = ell/(1 - exp(gamma*ell)), and
    corner values a = first-diagonal excess, b = last-diagonal excess (which
    depends on the parity of N).  Entrywise agreement with
    :func:`gauge_capacitance` is exact.
    """
    if not _is_dimer(chain):
        raise ValueError(
            "not a dimer chain: need equal lengths, constant gamma, 2-periodic spacings"
        )
    n = chain.size
    ell = float(chain.lengths[0])
    gamma = float(chain.gammas[0])
    s1 = float(chain.spacings[0])
    s2 = float(chain.spacings[1]) if n > 2 else s1

    L1 = ell / (1.0 - _exp(-gamma * ell))
    L2 = ell / (1.0 - _exp(gamma * ell))
    alpha1 = (gamma / s1) * L1 - (gamma / s2) * L2
    alpha2 = (gamma / s2) * L1 - (gamma / s1) * L2
    beta1 = -(gamma / s1) * L1
    beta2 = -(gamma / s2) * L1
    eta1 = (gamma / s1) * L2
    eta2 = (gamma / s2) * L2

    alpha1_tilde = (gamma / s1) * L1
    a = alpha1_tilde - alpha1  # = eta2
    if n % 2:
        # Last diagonal entry -(gamma/s2) L2 sits on an alpha1 site.
        b = -(gamma / s2) * L2 - alpha1  # = beta1
    else:
        # Last diagonal entry -(gamma/s1) L2 sits on an alpha2 site.
        b = -(gamma / s1) * L2 - alpha2  # = beta2
    return PerturbedDimerParams(
        alpha1=alpha1,
        alpha2=alpha2,
        beta1=beta1,
        beta2=beta2,
        gamma1=eta1,
        gamma2=eta2,
        a=a,
        b=b,
    )


def interface_chain(
    N: int,
    gamma: float,
    ell: float = 1.0,
    s1: float = 1.0,
    s2: float = 2.0,
    delta: float = 1e-3,
    v: float = 1.0,
    v_b: float = 1.0,
) -> ResonatorChain:
    """Symmetric chain with gamma_i = -gamma on the left half, +gamma on the right."""
    if N % 2:
        raise ValueError("interface chain needs even N")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive (signs are assigned by side)")
    base = ResonatorChain.dimer(N, ell, s1, s2, gamma, delta, v, v_b)
    gam = np.where(np.arange(N) < N // 2, -gamma, gamma)
    return ResonatorChain(base.lengths, base.spacings, gam, delta, v, v_b)


def generalized_matrix(chain: ResonatorChain) -> TridiagonalMatrix:
    """V^-1 C for the generalized problem C a = lambda V a, V = diag(lengths).

    Row-scaling keeps the matrix tridiagonal and the band-product signs, so
    the Sturm pipeline applies unchanged; for equal lengths this is C/ell.
    """
    C = gauge_capacitance(chain)
    l = chain.lengths
    return TridiagonalMatrix(C.diag / l, C.upper / l[:-1], C.lower / l[1:])


@dataclass
class SubwavelengthSpectrum:
    """Subwavelength frequencies and the generalized capacitance eigenvalues."""

    omegas: np.ndarray
    lambdas: np.ndarray
    negative_lambdas: np.ndarray


def subwavelength_frequencies(chain: ResonatorChain) -> SubwavelengthSpectrum:
    """omega_i = v_b * sqrt(delta * lambda_i), ascending, for lambda_i >= 0.

    Eigenvalues come from the generalized problem C a = lambda V a.  The
    kernel eigenvalue is clamped to exactly 0; genuinely negative lambdas
    (imaginary omega) are reported separately rather than dropped.
    """
    from . import oracle

    G = generalized_matrix(chain)
    lams = oracle.sturm_eigenvalues(oracle.symmetrize(G))
    scale = np.max(np.abs(lams)) if len(lams) else 1.0
    lams = np.where(np.abs(lams) <= _KERNEL_RTOL * max(1.0, scale), 0.0, lams)
    nonneg = lams[lams >= 0.0]
    negative = lams[lams < 0.0]
    omegas = chain.v_b * np.sqrt(chain.delta * nonneg)
    return SubwavelengthSpectrum(
        omegas=np.sort(omegas), lambdas=np.sort(lams), negative_lambdas=negative
    )


@dataclass
class ModeProfile:
    """Piecewise-linear spatial profile of an eigenmode.

    Constant on every resonator, linear across gaps, constant beyond the
    outermost resonators.  ``resonator_index_map[k]`` is the 0-based resonator
    index of sample k, or -1 for gap/exterior samples.
    """

    xs: np.ndarray
    values: np.ndarray
    resonator_index_map: np.ndarray


def mode_profile(
    chain: ResonatorChain, eigvec: np.ndarray, samples_per_gap: int = 9
) -> ModeProfile:
    """Sampled eigenmode profile u(x) = sum_j a_j V_j(x).

    ``eigvec`` holds the resonator amplitudes a_j.  Each gap contributes
    ``samples_per_gap`` interior points of the linear interpolant; the
    exterior is extended by one gap-width on each side at constant value.
    """
    a = np.asarray(eigvec, dtype=float)
    if len(a) != chain.size:
        raise ValueError("eigenvector length must equal the number of resonators")
    if samples_per_gap < 1:
        raise ValueError("samples_per_gap must be positive")
    left, right = chain.positions()

    xs: list[float] = []
    vals: list[float] = []
    idx: list[int] = []

    def emit(x, value, which):
        xs.append(float(x))
        vals.append(float(value))
        idx.append(which)

    margin_left = float(chain.spacings[0])
    margin_right = float(chain.spacings[-1])
    emit(left[0] - margin_left, a[0], -1)
    for i in range(chain.size):
        emit(left[i], a[i], i)
        emit(right[i], a[i], i)
        if i < chain.size - 1:
            t = np.linspace(0.0, 1.0, samples_per_gap + 2)[1:-1]
            for tt in t:
                x = right[i] + tt * (left[i + 1] - right[i])
                emit(x, a[i] + tt * (a[i + 1] - a[i]), -1)
    emit(right[-1] + margin_right, a[-1], -1)
    return ModeProfile(
        xs=np.array(xs), values=np.array(vals), resonator_index_map=np.array(idx)
    )
