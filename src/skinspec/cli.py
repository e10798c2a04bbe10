"""Command-line interface: config ingestion and machine-readable reports.

Three subcommands share one JSON config describing either an abstract matrix
or a resonator chain:

* ``spectrum``  - eigenvalues with normalized coordinate, classification and
  (chain modes) subwavelength frequencies,
* ``modes``     - eigenvector entries with residuals, decay / localization
  reports, and (chain modes) spatial profiles,
* ``topology``  - symbol curves, winding table and pseudospectrum grid.

Only ``modes`` computes eigenvectors; ``spectrum`` and ``topology`` need the
certified eigenvalues alone.  Outputs are deterministic: fixed row order,
shortest round-trip float formatting, LF line endings.  They are all or
nothing: a command writes into a staging directory and moves its files into
``--out`` only when it succeeds.  Exit codes: 0 ok, 2 config error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import capacitance, oracle, spectral, toeplitz2

__all__ = ["ConfigError", "RunConfig", "cmd_spectrum", "cmd_modes", "cmd_topology", "main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3

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


def _require(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"config is missing required key {key!r}")
    return raw[key]


def _finite(name: str, value) -> float:
    # JSON numbers only: no strings, and no booleans (an int subclass).
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config value {name!r} is not a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
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
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
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


@functools.lru_cache  # string cells are mostly a few class labels
def _csv_quote(s: str) -> str:
    """A string cell exactly as ``csv.writer`` quotes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((s, ""))
    return buf.getvalue()[:-2]


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return _csv_quote(v) if isinstance(v, str) else repr(v)


def _cells(column: np.ndarray) -> np.ndarray:
    """The CSV cells of a column, an object array of its shape."""
    values = column.ravel().tolist()
    fmt = map(repr, values) if column.dtype.kind in "iuf" else map(_csv_cell, values)
    return np.array(list(fmt), dtype=object).reshape(column.shape)


def _write_table(cfg: RunConfig, stem: str, columns: dict, text: dict | None = None) -> Path:
    """Write a table of columns that broadcast to one shape, rows in C order.

    A column is an array or a list of Python scalars.  In a 2-D table a
    (K, 1) column holds one value per block of rows, a (1, M) column is
    shared by every block and a (K, M) column holds one value per row; 1-D
    and 2-D columns do not mix.  CSV cells are what ``csv.writer`` makes of
    Python scalars (a float's repr, an empty field for None), except that
    booleans read true/false as in JSON; each stored value is formatted once.
    ``text`` maps a column name to its CSV cells already made, an object array
    of the column's shape; only CSV output reads it.
    """
    cols = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns.values()]
    if len({c.ndim for c in cols}) > 1:
        raise ValueError(f"table {stem!r} mixes columns of different dimension")
    if cfg.fmt == "json":
        cols = [c.ravel().tolist() for c in np.broadcast_arrays(*cols)]
        return _write_json(cfg, stem, [dict(zip(columns, row)) for row in zip(*cols)])
    text = text or {}
    cells = [text[name] if name in text else _cells(c) for name, c in zip(columns, cols)]
    cells[-1] = cells[-1] + "\n"  # the line ends ride on the last column
    rows = zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*cells)))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{stem}.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_quote, columns)) + "\n")
        fh.writelines(map(",".join, rows))
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
    params: toeplitz2.PerturbedDimerParams | None  # classification params
    chain: capacitance.ResonatorChain | None
    interface_site: int | None


def _solve(cfg: RunConfig) -> _Problem:
    chain, params = cfg.chain, cfg.params
    if cfg.mode == "matrix":
        matrix = toeplitz2.build_perturbed(params, cfg.n)
    else:
        matrix = capacitance.generalized_matrix(chain)
        # Interface runs classify against the +gamma half's dimer coefficients.
        half = replace(chain, gammas=np.abs(chain.gammas)) if cfg.mode == "interface" else chain
        try:
            base = capacitance.dimer_coefficients(half)
        except ValueError:
            pass  # not a dimer chain: eigenvalues stay unclassified
        else:
            params = base.divided(float(chain.lengths[0]))
    site = chain.size // 2 if cfg.mode == "interface" else None
    return _Problem(matrix, params, chain, site)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig) -> list[Path]:
    """Eigenvalue table: index, lambda, mu, klass, theta (+ omega for chains)."""
    prob = _solve(cfg)
    lams = toeplitz2.certified_eigenvalues(prob.matrix)
    mus, thetas, klasses = toeplitz2.classify(prob.params, lams)
    columns = {
        "index": np.arange(len(lams)),
        "lambda": lams,
        "mu": mus,
        "klass": klasses,
        "theta": thetas,
    }
    if prob.chain is not None:
        clamped, omegas = capacitance.subwavelength_omegas(prob.chain, lams)
        columns["omega"] = np.where(clamped >= 0.0, omegas, None).tolist()
    return [_write_table(cfg, "spectrum", columns)]


def cmd_modes(cfg: RunConfig) -> list[Path]:
    """Eigenvectors with residuals, decay/localization reports, profiles.

    In CSV each eigenvector entry is formatted once: at its resonator's
    samples the profile is an exact copy of the entry (see ``ModeProfile``),
    so ``profiles.csv`` reuses the ``modes.csv`` text there and formats only
    the gap and exterior samples.
    """
    prob = _solve(cfg)
    pairs = toeplitz2.solve_tridiagonal_eigenpairs(prob.matrix, prob.params)
    n = prob.matrix.order
    index = np.arange(len(pairs))[:, None]
    vectors = np.stack([p.vector for p in pairs])
    text = {"value": _cells(vectors)} if cfg.fmt == "csv" else {}
    modes = {
        "index": index,
        "lambda": np.array([[p.lam] for p in pairs]),
        "entry_index": np.arange(n)[None, :],
        "value": vectors,
        "residual": np.array([[p.residual] for p in pairs]),
    }
    written = [_write_table(cfg, "modes", modes, text)]

    reports = []
    for i, p in enumerate(pairs):
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
        # Sample positions and the resonator map depend only on the chain.
        prof = capacitance.mode_profile(prob.chain, vectors)
        if text:
            on = prof.resonator_index_map >= 0
            value_text = np.empty(prof.values.shape, dtype=object)
            value_text[:, on] = text["value"][:, prof.resonator_index_map[on]]
            value_text[:, ~on] = _cells(prof.values[:, ~on])
            text = {"value": value_text}
        profiles = {
            "index": index,
            "x": prof.xs[None, :],
            "resonator": prof.resonator_index_map[None, :],
            "value": prof.values,
        }
        written.append(_write_table(cfg, "profiles", profiles, text))
    return written


def cmd_topology(cfg: RunConfig) -> list[Path]:
    """Symbol curves, winding table and pseudospectrum grid."""
    prob = _solve(cfg)
    if prob.params is None:
        raise ConfigError(
            "topology needs 2-Toeplitz structure (matrix mode or a dimer chain)"
        )
    params = prob.params
    lams = toeplitz2.certified_eigenvalues(prob.matrix)
    written = []

    dcurve = spectral.det_curve(params, cfg.samples)
    det = {"theta": dcurve.thetas, "re": dcurve.points.real, "im": dcurve.points.imag}
    written.append(_write_table(cfg, "det_curve", det))
    curves = spectral.eig_curves(params, cfg.samples)
    points = np.stack([c.points for c in curves])
    eig = {
        "theta": curves[0].thetas[None, :],  # both branches share the samples
        "branch": np.arange(len(curves))[:, None],
        "re": points.real,
        "im": points.imag,
    }
    written.append(_write_table(cfg, "eig_curves", eig))

    # det f - lam winds as det f does around lam; det(f - lam I) as both branches do.
    a1, a2 = params.alpha1, params.alpha2
    w_det = spectral.ellipse_winding(params, a1 * a2 - lams)
    winding = {
        "index": np.arange(len(lams)),
        "lambda": lams,
        "winding_det": w_det,
        "winding_det_defined": [w is not None for w in w_det],
        "winding_eig": spectral.ellipse_winding(params, (a1 - lams) * (a2 - lams)),
    }
    written.append(_write_table(cfg, "winding", winding))

    if cfg.grid is not None:
        re0, re1, im0, im1, nx, ny = cfg.grid
    else:
        pad = 0.25 * (lams.max() - lams.min() + 1.0)
        re0, re1 = float(lams.min() - pad), float(lams.max() + pad)
        im0, im1 = -pad, pad
        nx = ny = 200
    grid = spectral.pseudospectrum(prob.matrix, (re0, re1), (im0, im1), (nx, ny))
    pseudo = {
        "re": grid.re_values()[None, :],
        "im": grid.im_values()[:, None],
        "sigma_min": grid.sigma_min,
    }
    written.append(_write_table(cfg, "pseudospectrum", pseudo))

    theta_min, det_min = spectral.det_min_on_circle(params)
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


def _run_staged(command, cfg: RunConfig) -> list[Path]:
    """Run ``command`` into a staging directory inside ``cfg.out_dir``.

    Its files move into ``cfg.out_dir`` only when it returns, so a command
    that fails adds no file there (nor the directory, if it was created for
    the run).
    """
    out = cfg.out_dir
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    written = []
    try:
        written = [p.replace(out / p.name) for p in command(replace(cfg, out_dir=staging))]
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if created and not written:
            with contextlib.suppress(OSError):  # something else wrote there
                out.rmdir()
    return written


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.out, args)
        _run_staged(args.func, cfg)
    except ConfigError as exc:
        print(f"skinspec: config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (oracle.ConvergenceError, toeplitz2.NotAnEigenvalueError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"skinspec: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
