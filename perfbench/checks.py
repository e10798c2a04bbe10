"""Independent references for the outputs of skinspec commands.

Every matrix is rebuilt here from the command's JSON config with plain numpy,
without importing skinspec, and each output file is compared against LAPACK:
eigenvalues against ``scipy.linalg.eigh_tridiagonal(..., lapack_driver="stebz")``
on the symmetrized bands, eigenvector residuals against a dense build, and
sigma_min against a batched dense SVD on a seeded sample of grid points.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

EIG_RTOL = 1e-10  # |lambda - lambda_ref| <= EIG_RTOL * max(1, |lambda_ref|)
RESIDUAL_RTOL = 1e-9  # ||A v - lambda v||_inf <= RESIDUAL_RTOL * max(1, |lambda|)
SIGMA_BAD_RTOL = 1e-6  # a sampled sigma_min further off than this counts as bad
# A sigma_min further off than this is a wrong answer rather than the known
# overestimate defect, which reaches about 1.5% on this benchmark's grids.
SIGMA_WRONG_RTOL = 5e-2
SIGMA_SAMPLES = 400  # grid points compared with dense SVD per topology command


@dataclass
class Verdict:
    """Outcome of checking one command's output directory."""

    problem: str | None = None  # first failed check, None when all passed
    eigenpairs: int = 0  # eigenvalues (or eigenpairs) that passed their check
    grid_points: int = 0  # sigma_min rows written
    sigma_checked: int = 0
    sigma_bad: int = 0
    sigma_max_err: float = 0.0  # largest relative sigma_min error in the sample


def bands(config: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diag, upper, lower) of the matrix a config describes."""
    if config["mode"] == "matrix":
        return _matrix_bands(config)
    return _chain_bands(config)


def _matrix_bands(c: dict):
    n = int(c["n"])
    i = np.arange(n)
    diag = np.where(i % 2 == 0, float(c["alpha1"]), float(c["alpha2"]))
    diag[0] += c.get("a", 0.0)
    diag[-1] += c.get("b", 0.0)
    j = np.arange(n - 1)
    upper = np.where(j % 2 == 0, float(c["beta1"]), float(c["beta2"]))
    lower = np.where(j % 2 == 0, float(c["gamma1"]), float(c["gamma2"]))
    return diag, upper, lower


def _chain_bands(c: dict):
    """Generalized capacitance matrix V^-1 C of a resonator chain."""
    n = int(c["N"])
    ell = np.full(n, float(c["ell"]))
    s = np.resize(np.asarray(c["spacings"], dtype=float), n - 1)
    g = np.full(n, float(c["gamma"]))
    if c["mode"] == "interface":
        g[: n // 2] *= -1.0

    def over_1m_exp(x):  # 1 / (1 - exp(x))
        return -1.0 / np.expm1(x)

    gl = g * ell
    diag = np.empty(n)
    diag[:-1] = (g[:-1] / s) * ell[:-1] * over_1m_exp(-gl[:-1])
    diag[-1] = 0.0
    diag[1:] -= (g[1:] / s) * ell[1:] * over_1m_exp(gl[1:])
    upper = -(g[:-1] / s) * ell[:-1] * over_1m_exp(-g[:-1] * ell[1:])
    lower = (g[1:] / s) * ell[1:] * over_1m_exp(g[1:] * ell[:-1])
    return diag / ell, upper / ell[:-1], lower / ell[1:]


def reference_eigenvalues(diag, upper, lower) -> np.ndarray:
    """Ascending eigenvalues by LAPACK Sturm bisection on the symmetrized bands."""
    return eigh_tridiagonal(
        diag, np.sqrt(upper * lower), eigvals_only=True, lapack_driver="stebz"
    )


def _dense(diag, upper, lower) -> np.ndarray:
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


def _eig_ok(lams: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.abs(lams - ref) <= EIG_RTOL * np.maximum(1.0, np.abs(ref))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _numeric(path: Path, columns: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != columns:
        raise ValueError(f"{path.name} has {data.shape[1]} columns, expected {columns}")
    return data


def check(kind: str, config: dict, out_dir: Path, rng: np.random.Generator) -> Verdict:
    """Check the files one command wrote; never raises on a bad output."""
    diag, upper, lower = bands(config)
    ref = reference_eigenvalues(diag, upper, lower)
    try:
        if kind == "spectrum":
            return _check_spectrum(out_dir, ref)
        if kind == "modes":
            return _check_modes(config, out_dir, ref, _dense(diag, upper, lower))
        return _check_topology(out_dir, ref, _dense(diag, upper, lower), rng)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return Verdict(problem=f"unreadable output: {exc}")


def _check_spectrum(out_dir: Path, ref: np.ndarray) -> Verdict:
    header, rows = _read_csv(out_dir / "spectrum.csv")
    if header[:2] != ["index", "lambda"] or len(rows) != len(ref):
        return Verdict(problem=f"spectrum.csv has {len(rows)} rows for order {len(ref)}")
    if [int(r[0]) for r in rows] != list(range(len(ref))):
        return Verdict(problem="spectrum.csv index column is not 0..n-1")
    ok = _eig_ok(np.array([float(r[1]) for r in rows]), ref)
    problem = None if ok.all() else f"{int((~ok).sum())} eigenvalues off LAPACK stebz"
    return Verdict(problem=problem, eigenpairs=int(ok.sum()))


def _check_modes(config: dict, out_dir: Path, ref: np.ndarray, dense: np.ndarray) -> Verdict:
    n = len(ref)
    data = _numeric(out_dir / "modes.csv", 5)
    if data.shape[0] != n * n:
        return Verdict(problem=f"modes.csv has {data.shape[0]} rows, expected {n * n}")
    index = data[:, 0].reshape(n, n)
    entry = data[:, 2].reshape(n, n)
    if np.any(index != np.arange(n)[:, None]) or np.any(entry != np.arange(n)[None, :]):
        return Verdict(problem="modes.csv rows are not ordered by (index, entry_index)")
    lams = data[::n, 1]
    vecs = data[:, 3].reshape(n, n)
    residual = np.max(np.abs(vecs @ dense.T - lams[:, None] * vecs), axis=1)
    sup = np.max(np.abs(vecs), axis=1)
    ok = (
        _eig_ok(lams, ref)
        & (np.abs(sup - 1.0) <= 1e-12)
        & (residual <= RESIDUAL_RTOL * np.maximum(1.0, np.abs(lams)))
    )
    reports = json.loads((out_dir / "decay_reports.json").read_text())
    problem = None
    if not ok.all():
        problem = f"{int((~ok).sum())} eigenpairs fail the dense residual check"
    elif len(reports) != n:
        problem = f"decay_reports.json has {len(reports)} entries for {n} modes"
    elif config["mode"] != "matrix" and not (out_dir / "profiles.csv").is_file():
        problem = "profiles.csv missing"
    return Verdict(problem=problem, eigenpairs=int(ok.sum()))


def _check_topology(out_dir: Path, ref: np.ndarray, dense: np.ndarray, rng) -> Verdict:
    n = len(ref)
    header, rows = _read_csv(out_dir / "winding.csv")
    if header[:2] != ["index", "lambda"] or len(rows) != n:
        return Verdict(problem=f"winding.csv has {len(rows)} rows for order {n}")
    eig_ok = _eig_ok(np.array([float(r[1]) for r in rows]), ref)

    summary = json.loads((out_dir / "topology_summary.json").read_text())["grid"]
    nx, ny = int(summary["nx"]), int(summary["ny"])
    data = _numeric(out_dir / "pseudospectrum.csv", 3)
    verdict = Verdict(eigenpairs=int(eig_ok.sum()), grid_points=data.shape[0])
    if data.shape[0] != nx * ny:
        verdict.problem = f"pseudospectrum.csv has {data.shape[0]} rows for a {nx}x{ny} grid"
        return verdict
    re = np.linspace(*summary["re"], nx)
    im = np.linspace(*summary["im"], ny)
    if not (
        np.allclose(data[:, 0], np.tile(re, ny), rtol=1e-12, atol=1e-12)
        and np.allclose(data[:, 1], np.repeat(im, nx), rtol=1e-12, atol=1e-12)
    ):
        verdict.problem = "pseudospectrum.csv coordinates do not match the grid"
        return verdict

    pick = rng.choice(data.shape[0], size=min(SIGMA_SAMPLES, data.shape[0]), replace=False)
    zs = data[pick, 0] + 1j * data[pick, 1]
    shifted = zs[:, None, None] * np.eye(n) - dense[None, :, :]
    sigma_ref = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    floor = 1e-14 * np.linalg.norm(dense)
    err = np.abs(data[pick, 2] - sigma_ref) / np.maximum(sigma_ref, floor)
    verdict.sigma_checked = len(pick)
    verdict.sigma_bad = int(np.sum(err > SIGMA_BAD_RTOL))
    verdict.sigma_max_err = float(np.max(err))
    if not eig_ok.all():
        verdict.problem = f"{int((~eig_ok).sum())} winding-table eigenvalues off LAPACK stebz"
    elif np.any(~np.isfinite(err) | (err > SIGMA_WRONG_RTOL)):
        verdict.problem = f"sigma_min off dense SVD by up to {verdict.sigma_max_err:.3g} relative"
    return verdict
