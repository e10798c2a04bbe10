"""Command-line interface: config ingestion and machine-readable reports.

Three subcommands share one JSON config describing either an abstract matrix
or a resonator chain:

* ``spectrum``  - eigenvalues with normalized coordinate, classification and
  (chain modes) subwavelength frequencies,
* ``modes``     - eigenvector entries with residuals, decay / localization
  reports, and (chain modes) spatial profiles,
* ``topology``  - symbol curves, winding table and pseudospectrum grid.

Outputs are deterministic: fixed row order, shortest round-trip float
formatting, LF line endings.  Exit codes: 0 ok, 2 config error, 3 numerical
failure, 4 insufficient sampling.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import capacitance, oracle, spectral, toeplitz2

__all__ = ["ConfigError", "RunConfig", "cmd_spectrum", "cmd_modes", "cmd_topology", "main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_SAMPLING = 4

_DEFAULT_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
_DEFAULT_SAMPLES = 4096


class ConfigError(ValueError):
    """The run configuration is missing, malformed or inconsistent."""


@dataclass
class RunConfig:
    """Validated run configuration."""

    mode: str  # matrix | chain | interface
    params: toeplitz2.PerturbedDimerParams | None
    chain: capacitance.ResonatorChain | None
    n: int
    out_dir: Path
    fmt: str = "csv"
    samples: int = _DEFAULT_SAMPLES
    grid: tuple[float, float, float, float, int, int] | None = None
    epsilons: tuple[float, ...] = _DEFAULT_EPS
    samples_per_gap: int = 9


def _require(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"config is missing required key {key!r}")
    return raw[key]


def _finite(name: str, value) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config value {name!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"config value {name!r} must be finite")
    return value


def _integral(name: str, value) -> int:
    value = _finite(name, value)
    if not value.is_integer():
        raise ConfigError(f"config value {name!r} must be an integer")
    return int(value)


def _chain_from_config(raw: dict, mode: str) -> capacitance.ResonatorChain:
    n = _integral("N", _require(raw, "N"))
    if n < 2:
        raise ConfigError("chain needs N >= 2")
    ell = raw.get("ell", 1.0)
    lengths = (
        np.array([_finite("ell", e) for e in ell])
        if isinstance(ell, (list, tuple))
        else np.full(n, _finite("ell", ell))
    )
    spac_raw = _require(raw, "spacings")
    if not isinstance(spac_raw, (list, tuple)) or not spac_raw:
        raise ConfigError("spacings must be a non-empty list")
    spac = np.array([_finite("spacings", s) for s in spac_raw])
    if len(spac) < n - 1:
        # Short spacing lists (e.g. [s1, s2]) tile periodically.
        spac = np.resize(spac, n - 1)
    elif len(spac) > n - 1:
        raise ConfigError("spacings list longer than N - 1")
    delta = _finite("delta", _require(raw, "delta"))
    v = _finite("v", _require(raw, "v"))
    v_b = _finite("v_b", _require(raw, "v_b"))

    gamma = _require(raw, "gamma")
    if mode == "interface":
        if np.max(lengths) != np.min(lengths):
            raise ConfigError("interface mode needs a common resonator length")
        try:
            return capacitance.interface_chain(
                n, _finite("gamma", gamma),
                ell=float(lengths[0]), s1=float(spac[0]),
                s2=float(spac[1]) if len(spac) > 1 else float(spac[0]),
                delta=delta, v=v, v_b=v_b,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    gammas = (
        np.array([_finite("gamma", g) for g in gamma])
        if isinstance(gamma, (list, tuple))
        else np.full(n, _finite("gamma", gamma))
    )
    try:
        return capacitance.ResonatorChain(lengths, spac, gammas, delta, v, v_b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: Path, out_dir: Path, args) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("config must be a non-empty JSON object")

    matrix_keys = {"alpha1", "alpha2", "beta1", "beta2", "gamma1", "gamma2"}
    has_matrix = bool(matrix_keys & raw.keys())
    has_chain = "N" in raw
    mode = raw.get("mode")
    if mode is None:
        mode = "matrix" if has_matrix and not has_chain else "chain" if has_chain else None
    if mode not in ("matrix", "chain", "interface"):
        raise ConfigError("config must set mode to matrix, chain or interface")
    if has_matrix and has_chain:
        raise ConfigError("config must specify exactly one of matrix params or chain geometry")

    params = None
    chain = None
    if mode == "matrix":
        values = {k: _finite(k, _require(raw, k)) for k in sorted(matrix_keys)}
        values["a"] = _finite("a", raw.get("a", 0.0))
        values["b"] = _finite("b", raw.get("b", 0.0))
        n = _integral("n", _require(raw, "n"))
        if n < 2:
            raise ConfigError("matrix order n must be >= 2")
        try:
            params = toeplitz2.PerturbedDimerParams(**values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        chain = _chain_from_config(raw, mode)
        n = chain.size

    grid = None
    if args.grid is not None:
        parts = args.grid.split(",")
        if len(parts) != 6:
            raise ConfigError("--grid needs re0,re1,im0,im1,nx,ny")
        try:
            grid = (
                float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
                int(parts[4]), int(parts[5]),
            )
        except ValueError:
            raise ConfigError("--grid needs re0,re1,im0,im1,nx,ny") from None
        if not all(math.isfinite(v) for v in grid[:4]):
            raise ConfigError("--grid bounds must be finite")
        if min(grid[4], grid[5]) < 16:
            raise ConfigError("--grid needs nx, ny >= 16")

    epsilons = _DEFAULT_EPS
    if args.eps is not None:
        try:
            epsilons = tuple(float(e) for e in args.eps.split(","))
        except ValueError:
            raise ConfigError("--eps must be a comma-separated float list") from None
        if not epsilons or min(epsilons) <= 0.0:
            raise ConfigError("--eps values must be positive")

    samples = args.samples if args.samples is not None else _DEFAULT_SAMPLES
    if samples < 64:
        raise ConfigError("--samples must be at least 64")

    return RunConfig(
        mode=mode,
        params=params,
        chain=chain,
        n=n,
        out_dir=Path(out_dir),
        fmt=args.format,
        samples=samples,
        grid=grid,
        epsilons=tuple(sorted(epsilons)),
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """Shortest round-trip text for one CSV cell."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return repr(v)
    return str(value)


def _write_rows(cfg: RunConfig, stem: str, header: list[str], rows: list[list]) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "json":
        path = cfg.out_dir / f"{stem}.json"
        payload = [
            {key: (None if val is None else val) for key, val in zip(header, row)}
            for row in rows
        ]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
        return path
    path = cfg.out_dir / f"{stem}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _write_json(cfg: RunConfig, stem: str, payload) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    return path


# ---------------------------------------------------------------------------
# problem assembly shared by the commands
# ---------------------------------------------------------------------------


@dataclass
class _Problem:
    matrix: toeplitz2.TridiagonalMatrix
    pairs: list[toeplitz2.Eigenpair]
    params: toeplitz2.PerturbedDimerParams | None  # classification params
    chain: capacitance.ResonatorChain | None
    interface_site: int | None


def _solve(cfg: RunConfig) -> _Problem:
    if cfg.mode == "matrix":
        matrix = toeplitz2.build_perturbed(cfg.params, cfg.n)
        pairs = toeplitz2.eigen_all(cfg.params, cfg.n)
        return _Problem(matrix, pairs, cfg.params, None, None)

    chain = cfg.chain
    matrix = capacitance.generalized_matrix(chain)
    params = None
    if cfg.mode == "interface":
        # Classify against the +gamma half's dimer coefficients.
        half = capacitance.ResonatorChain(
            chain.lengths, chain.spacings, np.abs(chain.gammas),
            chain.delta, chain.v, chain.v_b,
        )
        base = capacitance.dimer_coefficients(half)
    else:
        try:
            base = capacitance.dimer_coefficients(chain)
        except ValueError:
            base = None
    if base is not None:
        params = base.divided(float(chain.lengths[0]))
    pairs = toeplitz2.solve_tridiagonal_eigenpairs(matrix, params=params)
    site = chain.size // 2 if cfg.mode == "interface" else None
    return _Problem(matrix, pairs, params, chain, site)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig) -> list[Path]:
    """Eigenvalue table: index, lambda, mu, klass, theta (+ omega for chains)."""
    prob = _solve(cfg)
    chain_mode = prob.chain is not None
    header = ["index", "lambda", "mu", "klass", "theta"]
    if chain_mode:
        header.append("omega")
    scale = max(1.0, max(abs(p.lam) for p in prob.pairs)) if prob.pairs else 1.0
    rows = []
    for i, p in enumerate(prob.pairs):
        row = [i, p.lam, p.mu, p.klass, p.theta]
        if chain_mode:
            lam = 0.0 if abs(p.lam) <= 1e-10 * scale else p.lam
            omega = prob.chain.v_b * math.sqrt(prob.chain.delta * lam) if lam >= 0.0 else None
            row.append(omega)
        rows.append(row)
    return [_write_rows(cfg, "spectrum", header, rows)]


def cmd_modes(cfg: RunConfig) -> list[Path]:
    """Eigenvectors with residuals, decay/localization reports, profiles."""
    prob = _solve(cfg)
    rows = []
    for i, p in enumerate(prob.pairs):
        for j, value in enumerate(p.vector):
            rows.append([i, p.lam, j, value, p.residual])
    written = [_write_rows(cfg, "modes", ["index", "lambda", "entry_index", "value", "residual"], rows)]

    reports = []
    for i, p in enumerate(prob.pairs):
        entry = {"index": i, "lambda": p.lam, "residual": p.residual, "method": p.method}
        rep = None
        if prob.interface_site is not None:
            gamma_ell = float(abs(prob.chain.gammas[0]) * prob.chain.lengths[0])
            rep = toeplitz2.interface_localization_check(p.vector, prob.interface_site, gamma_ell)
        elif prob.params is not None:
            rep = toeplitz2.decay_report(p.vector, prob.params)
        if rep is not None:
            entry.update(
                rate_fit=rep.rate_fit,
                rate_theory=rep.rate_theory,
                bound_constant=rep.bound_constant,
                satisfied=rep.satisfied,
            )
            if rep.peak_index is not None:
                entry.update(
                    peak_index=rep.peak_index,
                    rate_fit_left=rep.rate_fit_left,
                    rate_fit_right=rep.rate_fit_right,
                )
        reports.append(entry)
    written.append(_write_json(cfg, "decay_reports", reports))

    if prob.chain is not None:
        prows = []
        for i, p in enumerate(prob.pairs):
            prof = capacitance.mode_profile(prob.chain, p.vector, cfg.samples_per_gap)
            for x, val, res in zip(prof.xs, prof.values, prof.resonator_index_map):
                prows.append([i, x, int(res), val])
        written.append(_write_rows(cfg, "profiles", ["index", "x", "resonator", "value"], prows))
    return written


def cmd_topology(cfg: RunConfig) -> list[Path]:
    """Symbol curves, winding table and pseudospectrum grid."""
    prob = _solve(cfg)
    if prob.params is None:
        raise ConfigError(
            "topology needs 2-Toeplitz structure (matrix mode or a dimer chain)"
        )
    params = prob.params
    written = []

    dcurve = spectral.det_curve(params, cfg.samples)
    written.append(
        _write_rows(
            cfg, "det_curve", ["theta", "re", "im"],
            [[t, z.real, z.imag] for t, z in zip(dcurve.thetas, dcurve.points)],
        )
    )
    plus, minus = spectral.eig_curves(params, cfg.samples)
    erows = []
    for branch, curve in enumerate((plus, minus)):
        for t, z in zip(curve.thetas, curve.points):
            erows.append([t, branch, z.real, z.imag])
    written.append(_write_rows(cfg, "eig_curves", ["theta", "branch", "re", "im"], erows))

    union = spectral.eig_curve_union(params, cfg.samples)
    wrows = []
    for i, p in enumerate(prob.pairs):
        try:
            w_det = spectral.winding(dcurve, p.lam)
            det_defined = True
        except spectral.PointOnCurveError:
            w_det, det_defined = None, False
        try:
            w_eig = spectral.winding(union, p.lam)
        except spectral.PointOnCurveError:
            w_eig = None
        wrows.append([i, p.lam, w_det, det_defined, w_eig])
    written.append(
        _write_rows(
            cfg, "winding",
            ["index", "lambda", "winding_det", "winding_det_defined", "winding_eig"],
            wrows,
        )
    )

    lams = np.array([p.lam for p in prob.pairs])
    if cfg.grid is not None:
        re0, re1, im0, im1, nx, ny = cfg.grid
    else:
        pad = 0.25 * (lams.max() - lams.min() + 1.0)
        re0, re1 = float(lams.min() - pad), float(lams.max() + pad)
        im0, im1 = -pad, pad
        nx = ny = 200
    grid = spectral.pseudospectrum(prob.matrix, (re0, re1), (im0, im1), (nx, ny))
    re = grid.re_values()
    im = grid.im_values()
    grows = []
    for iy in range(ny):
        for ix in range(nx):
            grows.append([re[ix], im[iy], grid.sigma_min[iy, ix]])
    written.append(_write_rows(cfg, "pseudospectrum", ["re", "im", "sigma_min"], grows))

    theta_min, det_min = spectral.det_min_on_circle(params, max(cfg.samples, 4096))
    summary = {
        "det_min_on_circle": det_min,
        "det_min_theta": theta_min,
        "epsilons": list(cfg.epsilons),
        "grid": {"re": [re0, re1], "im": [im0, im1], "nx": nx, "ny": ny},
    }
    written.append(_write_json(cfg, "topology_summary", summary))
    return written


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skinspec",
        description="Spectra, skin-effect and topology reports for perturbed dimer systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("spectrum", cmd_spectrum), ("modes", cmd_modes), ("topology", cmd_topology)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--grid", type=str, default=None, help="re0,re1,im0,im1,nx,ny")
        p.add_argument("--eps", type=str, default=None, help="comma-separated epsilon list")
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.out, args)
        args.func(cfg)
    except ConfigError as exc:
        print(f"skinspec: config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except spectral.SamplingError as exc:
        print(f"skinspec: {exc}", file=sys.stderr)
        return _EXIT_SAMPLING
    except (oracle.ConvergenceError, toeplitz2.NotAnEigenvalueError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"skinspec: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
