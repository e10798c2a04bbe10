"""Seeded workloads: each is a fixed list of skinspec CLI commands.

A workload is a list of strata (size, regime, sign pattern).  The seed only
jitters the parameters inside each stratum, so every seed exercises the same
regimes at the same sizes and the work per run stays comparable across seeds.

* ``matrix-spectrum``: ``spectrum`` on abstract perturbed dimer matrices on a
  ladder of odd and even orders from 101 to about 1400, both sign patterns,
  nonzero corners, with the paper's Fig. 1 matrix as the first rung.  Almost
  all time is exact eigenpairs (Sturm bisection plus the closed-form vector
  assembly, which calls ``hat_sequences`` twice per eigenvalue); ``spectral``
  and ``capacitance`` are never called.
* ``chain-topology``: ``topology`` on dimer resonator chains with moderate
  gamma*ell on sigma_min grids of 90^2 to 128^2 points, windowed around the
  spectrum.  ``spectral.sigma_min_many`` takes about 95% of the time; the
  eigen layer is under 1%.
* ``chain-modes``: ``modes`` on ``chain`` and ``interface`` configs with N from
  100 to 160.  Uses the generic eigen path (Sturm plus inverse iteration,
  never the closed form) and is dominated by writing CSV output.  One chain
  and one interface stratum sit in the strong-skin regime (gamma*ell >= 16),
  where the seed commit exits 3; they are kept so that defect shows in the
  failure count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checks

NAMES = ("matrix-spectrum", "chain-topology", "chain-modes")
FIG1 = {"alpha1": 1.0, "alpha2": 2.0, "beta1": 3.0, "beta2": 4.0,
        "gamma1": 4.0, "gamma2": 5.0, "a": 9.0, "b": 10.0}


@dataclass
class Command:
    """One CLI call: subcommand, config written to JSON, optional grid."""

    kind: str
    config: dict
    label: str
    grid: tuple[float, float, float, float, int, int] | None = None

    @property
    def grid_arg(self) -> str | None:
        """The ``--grid`` value, re0,re1,im0,im1,nx,ny."""
        if self.grid is None:
            return None
        return ",".join(repr(v) for v in self.grid)

    def argv(self, config_path, out_dir) -> list[str]:
        args = [self.kind, "--config", str(config_path), "--out", str(out_dir)]
        if self.grid is not None:
            args.append(f"--grid={self.grid_arg}")
        return args

    @property
    def order(self) -> int:
        return int(self.config["n"] if self.config["mode"] == "matrix" else self.config["N"])


def build(name: str, seed: int, smoke: bool = False) -> list[Command]:
    """The command list of workload ``name`` for ``seed``.

    ``smoke`` shrinks every size so the whole list runs in about a second;
    it is used by the benchmark's self-test.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "matrix-spectrum":
        return _matrix_spectrum(rng, smoke)
    if name == "chain-topology":
        return _chain_topology(rng, smoke)
    if name == "chain-modes":
        return _chain_modes(rng, smoke)
    raise ValueError(f"unknown workload {name!r}")


def _matrix_spectrum(rng, smoke: bool) -> list[Command]:
    rungs = (20, 41) if smoke else (180, 320, 560, 1000, 1400)
    cmds = [Command("spectrum", dict(FIG1, mode="matrix", n=101), "fig1-n101")]
    parity = int(rng.integers(2))
    for k, rung in enumerate(rungs):
        n = rung + (rung + parity + k) % 2  # odd and even orders alternate
        # Both sign patterns (beta_i, gamma_i all > 0 or all < 0), fixed per
        # rung: at n=1800 the positive one costs about 20% more.
        sign = 1.0 if k % 2 else -1.0
        params = {
            "alpha1": rng.uniform(0.5, 1.5),
            "alpha2": rng.uniform(1.5, 2.5),
            "beta1": sign * rng.uniform(2.5, 3.5),
            "beta2": sign * rng.uniform(3.5, 4.5),
            "gamma1": sign * rng.uniform(3.5, 4.5),
            "gamma2": sign * rng.uniform(4.5, 5.5),
            "a": rng.uniform(7.0, 11.0),
            "b": -rng.uniform(7.0, 11.0),
        }
        label = f"{'pos' if sign > 0 else 'neg'}-n{n}"
        cmds.append(Command("spectrum", dict(params, mode="matrix", n=n), label))
    return cmds


def _chain_config(rng, mode: str, n: int, gamma_ell: tuple[float, float],
                  jitter: float = 0.05) -> dict:
    """Chain of N unit resonators, gaps near (1, 2) within +-``jitter``."""
    return {
        "mode": mode,
        "N": n,
        "ell": 1.0,
        "spacings": [rng.uniform(1 - jitter, 1 + jitter), 2 * rng.uniform(1 - jitter, 1 + jitter)],
        "gamma": rng.uniform(*gamma_ell),
        "delta": 1e-3,
        "v": 1.0,
        "v_b": 1.0,
    }


def _chain_topology(rng, smoke: bool) -> list[Command]:
    # (N, gamma*ell, grid points per side).  The seed moves the chain by only
    # +-0.5% and shifts the grid by a fraction of a cell: under a +-2% jitter
    # the sigma_min iteration count, and with it the cost, swings by +-10%.
    strata = (
        ((12, 1.0, 16), (14, 2.0, 20))
        if smoke
        else ((50, 1.0, 100), (50, 2.0, 128), (48, 0.5, 90))
    )
    cmds = []
    for n, gamma_ell, side in strata:
        config = _chain_config(rng, "chain", n, (0.995 * gamma_ell, 1.005 * gamma_ell), 0.005)
        lams = checks.reference_eigenvalues(*checks.bands(config))
        pad = 0.25 * (lams[-1] - lams[0] + 1.0)  # the CLI's default window
        shift_re, shift_im = rng.uniform(0.0, 2.0 * pad / (side - 1), size=2)
        re0, im0 = float(lams[0] - pad + shift_re), float(-pad + shift_im)
        grid = (re0, float(re0 + lams[-1] - lams[0] + 2 * pad), im0, float(im0 + 2 * pad),
                side, side)
        label = f"chain-N{n}-gl{config['gamma']:.2f}-{side}x{side}"
        cmds.append(Command("topology", config, label, grid))
    return cmds


def _chain_modes(rng, smoke: bool) -> list[Command]:
    # (mode, N, gamma*ell range); the third and sixth are strong-skin strata.
    strata = (
        ("chain", 12, (0.5, 2.5)), ("interface", 16, (0.5, 2.5)),
        ("chain", 12, (16.0, 28.0)), ("interface", 16, (16.0, 28.0)),
    ) if smoke else (
        ("chain", 100, (0.5, 2.5)), ("chain", 130, (3.0, 8.0)), ("chain", 120, (16.0, 28.0)),
        ("interface", 160, (0.5, 2.5)), ("interface", 140, (3.0, 8.0)),
        ("interface", 160, (16.0, 28.0)),
    )
    cmds = []
    for mode, n, gamma_ell in strata:
        config = _chain_config(rng, mode, n, gamma_ell)
        cmds.append(Command("modes", config, f"{mode}-N{n}-gl{config['gamma']:.2f}"))
    return cmds
