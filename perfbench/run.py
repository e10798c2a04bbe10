"""Layered benchmark of the skinspec command-line interface.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload (see ``workloads.py``) is a seeded list of CLI commands.  The
benchmark writes their configs, then calls ``skinspec.cli.main`` in-process,
one command after another (closed loop, one client), and checks every output
against an independent reference (``checks.py``).

``--trace 0`` repeats the command list for ``--seconds`` of command time and
prints the end-to-end metrics, with tracing off.  Their times are reference
seconds: each wall time times the machine's speed around it, measured with a
fixed calibration kernel (``calibration_kernel``); the raw wall times are in
the detail line.

``--trace 1`` runs the list once to check it, then runs each command untraced
and traced in turn (``tracing.py``) and prints the per-layer metrics in wall
seconds; its counts repeat exactly for a given seed.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A command fails when it exits nonzero or its output fails a check; the run is
incorrect when a command crashes or an output it reported as a success is
wrong.  The line before it holds the environment manifest, the per-command
table and the sample count of every timing.
"""

from __future__ import annotations

import os

# Thread counts must be fixed before numpy loads its BLAS: at most two compute
# threads (the pseudospectrum pool), and single-threaded BLAS under them.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)
os.environ["SKINSPEC_THREADS"] = str(THREADS)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / str(os.getpid())  # private to this run
SETUP_RUNS = 7
# Wall time of calibration_kernel() that defines one reference second.
CAL_NOMINAL_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cmd_p50_s": "s",
    "eigenpairs_per_s": "1/s",
    "ok_frac": "frac",
}
PER_LAYER = {
    "polycore.hat_sequences.calls": "count",
    "polycore.hat_sequences.busy_s": "s",
    "oracle.sturm_eigenvalues.busy_s": "s",
    "oracle.inverse_iteration_vector.calls": "count",
    "oracle.inverse_iteration_vector.busy_s": "s",
    "toeplitz2.eigen_all.self_s": "s",
    "toeplitz2.solve_tridiagonal_eigenpairs.self_s": "s",
    "toeplitz2.eigenpairs": "count",
    "toeplitz2.exact_frac": "frac",
    "toeplitz2.max_rel_residual": "ratio",
    "toeplitz2.decay_report.busy_s": "s",
    "toeplitz2.interface_localization_check.busy_s": "s",
    "capacitance.mode_profile.calls": "count",
    "capacitance.mode_profile.busy_s": "s",
    "capacitance.generalized_matrix.busy_s": "s",
    "spectral.pseudospectrum.busy_s": "s",
    "spectral.sigma_min_many.calls": "count",
    "spectral.sigma_min_many.lanes": "count",
    "spectral.sigma_min_many.busy_s": "s",
    "spectral.parallel_eff": "frac",
    "spectral.det_min_on_circle.busy_s": "s",
    "spectral.eig_curve_union.busy_s": "s",
    "spectral.winding.busy_s": "s",
    "spectral.grid_points_per_s": "1/s",
    "spectral.sigma_min_checked": "count",
    "spectral.sigma_min_bad_frac": "frac",
    "cli.cmd_spectrum.self_s": "s",
    "cli.cmd_modes.self_s": "s",
    "cli.cmd_topology.self_s": "s",
    "cli.out_bytes": "B",
    "cli.out_mb_per_s": "MB/s",
    "cli.fail_frac": "frac",
    "ref.lapack_stebz_s": "s",
    "ref.single_worker_s": "s",
    "trace_overhead_frac": "frac",
}


def calibration_kernel() -> float:
    """Wall seconds of a fixed mix of interpreter, numpy and CSV work.

    It uses no skinspec code, so a change to the program leaves it alone; it
    only tracks how fast the machine runs.  On a shared 2-vCPU virtual machine
    the same command was seen to take from 1x to 2x its fastest time, in
    stretches of seconds to minutes.  A wall time times ``CAL_NOMINAL_S`` over
    the kernel time measured around it gives reference seconds.
    """
    start = time.perf_counter()
    x = 0.0
    for k in range(120000):
        x = 0.5 * x + k * 1e-3
    a = np.linspace(0.0, 1.0, 4096) + 1j
    for _ in range(240):
        a = a * (1.0 - 1e-3) + 1e-3 * np.conj(a)
    writer = csv.writer(io.StringIO(), lineterminator="\n")
    for v in range(12000):
        writer.writerow([v, repr(v * 0.1), repr(x + v)])
    return time.perf_counter() - start


@dataclass
class Record:
    """Everything measured about one command of the list."""

    command: workloads.Command
    config_path: Path
    times: list[float] = field(default_factory=list)  # wall seconds
    ref_times: list[float] = field(default_factory=list)  # reference seconds
    code: int | None = None  # exit code of the first run; None if it crashed
    message: str = ""  # what the first run printed to stderr
    problem: str | None = None  # crash, failed check or nondeterminism
    verdict: checks.Verdict = field(default_factory=checks.Verdict)
    out_bytes: int = 0

    @property
    def failed(self) -> bool:
        return self.code != 0 or self.problem is not None

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)

    @property
    def ref_median_s(self) -> float:
        return statistics.median(self.ref_times)


class Runner:
    """Writes a workload's configs and runs its commands through ``cli.main``."""

    def __init__(self, cli, commands: list[workloads.Command], seed: int, tag: str,
                 check: bool = True):
        self.cli = cli
        self.seed = seed
        self.check = check  # check each command's output after its first run
        self.records = []
        self.cal: list[float] = []  # calibration_kernel() samples of the run
        for i, cmd in enumerate(commands):
            path = WORK / f"{tag}{i}.json"
            path.write_text(json.dumps(cmd.config))
            self.records.append(Record(cmd, path))

    def execute(self, i: int) -> tuple[int | None, float, str | None, Path, str]:
        """Run command ``i``; returns (exit code, seconds, crash, output dir, stderr)."""
        rec = self.records[i]
        out = WORK / f"out{i}"
        argv = rec.command.argv(rec.config_path, out)
        crash = None
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a crash, not a clean exit
            code, crash = None, f"{type(exc).__name__}: {exc}"
        return code, time.perf_counter() - start, crash, out, stderr.getvalue().strip()

    def run(self, i: int) -> float:
        """Run command ``i`` and record it; returns its wall seconds.

        The first run of a command sets its exit code and output size (and is
        checked); a later run that differs from them is a problem.
        """
        rec = self.records[i]
        code, seconds, crash, out, message = self.execute(i)
        size = sum(f.stat().st_size for f in out.glob("*")) if out.is_dir() else 0
        first = not rec.times
        rec.times.append(seconds)
        if crash is not None:
            rec.problem = rec.problem or f"crashed: {crash}"
        if first:
            rec.code, rec.out_bytes, rec.message = code, size, message
            if code == 0 and self.check:
                rng = np.random.default_rng([self.seed, i])
                rec.verdict = checks.check(rec.command.kind, rec.command.config, out, rng)
                rec.problem = rec.problem or rec.verdict.problem
        elif (code, size) != (rec.code, rec.out_bytes):
            rec.problem = rec.problem or (
                f"nondeterministic: exit {code} / {size} B after exit {rec.code} / "
                f"{rec.out_bytes} B"
            )
        shutil.rmtree(out, ignore_errors=True)
        return seconds

    def run_for(self, seconds: float) -> None:
        """One full pass, then more passes while ``seconds`` of command time remain.

        The calibration kernel runs before every command and once at the end;
        each wall time is scaled by the mean of the samples just before and
        just after it.
        """
        runs: list[tuple[Record, float, int]] = []  # (record, wall, kernel before)

        def timed(i: int) -> float:
            self.cal.append(calibration_kernel())
            wall = self.run(i)
            runs.append((self.records[i], wall, len(self.cal) - 1))
            return wall

        spent = sum(timed(i) for i in range(len(self.records)))
        for i in itertools.cycle(range(len(self.records))):
            if spent + self.records[i].times[0] > seconds:
                break
            spent += timed(i)
        self.cal.append(calibration_kernel())
        for rec, wall, k in runs:
            rec.ref_times.append(wall * CAL_NOMINAL_S / statistics.fmean(self.cal[k:k + 2]))

    # -- results -----------------------------------------------------------

    def outcome(self) -> tuple[bool, int, int]:
        """(correct, attempted, failed); a clean exit 2, 3 or 4 is a failure only."""
        correct = all(r.problem is None and r.code in (0, 2, 3, 4) for r in self.records)
        return correct, len(self.records), sum(r.failed for r in self.records)

    def run_s(self) -> float:
        return sum(r.median_s for r in self.records)

    def table(self) -> list[dict]:
        return [
            {
                "label": r.command.label,
                "kind": r.command.kind,
                "order": r.command.order,
                "exit": r.code,
                "stderr": r.message,
                "problem": r.problem,
                "samples": len(r.times),
                "median_s": r.median_s,
                "ref_median_s": r.ref_median_s if r.ref_times else None,
                "times_s": r.times,
                "eigenpairs_checked": r.verdict.eigenpairs,
                "grid_points": r.verdict.grid_points,
                "sigma_min_bad": r.verdict.sigma_bad,
                "sigma_min_max_rel_err": r.verdict.sigma_max_err,
                "out_bytes": r.out_bytes,
            }
            for r in self.records
        ]


def measure_setup(runner: Runner) -> tuple[list[float], list[float]]:
    """Seconds from spawning python to skinspec.cli imported and configs loaded.

    Returns (reference seconds, wall seconds); the speed is taken from the
    median of the kernel samples between the probes.
    """
    probe = WORK / "probe.json"
    probe.write_text(json.dumps({
        "src": str(SRC),
        "commands": [
            {"config": str(r.config_path), "out": str(WORK / "probe-out"),
             "grid": r.command.grid_arg}
            for r in runner.records
        ],
    }))
    samples, kernel = [], []
    for _ in range(SETUP_RUNS + 1):  # the first run warms the file cache
        kernel.append(calibration_kernel())
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), repr(start),
             str(probe)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    kernel.append(calibration_kernel())
    speed = CAL_NOMINAL_S / statistics.median(kernel)
    return [wall * speed for wall in samples[1:]], samples[1:]


def end_to_end(runner: Runner, setup: list[float]) -> dict[str, float]:
    """End-to-end metrics; times are in reference seconds (see calibration_kernel)."""
    run_s = sum(r.ref_median_s for r in runner.records)
    per_cmd = [math.inf if r.failed else r.ref_median_s for r in runner.records]
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "cmd_p50_s": statistics.median(per_cmd),
        "eigenpairs_per_s": sum(r.verdict.eigenpairs for r in runner.records) / run_s,
        "ok_frac": 1.0 - sum(r.failed for r in runner.records) / len(runner.records),
    }


def per_layer(runner: Runner, tracer: tracing.Tracer, overhead: float,
              refs: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the traced spans, the tracer's counts and the checks."""
    stats = tracing.summarize(tracer.spans)
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_s", "self_s"):
            out[name] = getattr(stats[layer], stat)
    pairs = counts["toeplitz2.eigenpairs"]
    out["toeplitz2.eigenpairs"] = pairs
    out["toeplitz2.exact_frac"] = counts["toeplitz2.exact_pairs"] / pairs if pairs else 0.0
    out["toeplitz2.max_rel_residual"] = counts["toeplitz2.max_rel_residual"]
    out["spectral.sigma_min_many.lanes"] = counts["spectral.sigma_min_many.lanes"]
    busy, wall = tracing.pool_busy(tracer.spans, "spectral.pseudospectrum",
                                   "spectral.sigma_min_many")
    out["spectral.parallel_eff"] = busy / (wall * THREADS) if wall else 0.0

    recs = runner.records
    topo = [r for r in recs if r.command.kind == "topology"]
    topo_s = sum(r.median_s for r in topo)
    out["spectral.grid_points_per_s"] = (
        sum(r.verdict.grid_points for r in topo) / topo_s if topo_s else 0.0
    )
    checked = sum(r.verdict.sigma_checked for r in recs)
    out["spectral.sigma_min_checked"] = checked
    out["spectral.sigma_min_bad_frac"] = (
        sum(r.verdict.sigma_bad for r in recs) / checked if checked else 0.0
    )
    out_bytes = sum(r.out_bytes for r in recs)
    out["cli.out_bytes"] = out_bytes
    out["cli.out_mb_per_s"] = out_bytes / 1e6 / runner.run_s()
    out["cli.fail_frac"] = sum(r.failed for r in recs) / len(recs)
    out.update(refs)
    out["trace_overhead_frac"] = overhead
    return out


def references(skinspec, runner: Runner) -> dict[str, float]:
    """LAPACK bisection on every command's bands; the smallest grid at one worker."""
    stebz = 0.0
    for r in runner.records:
        diag, upper, lower = checks.bands(r.command.config)
        start = time.perf_counter()
        checks.reference_eigenvalues(diag, upper, lower)
        stebz += time.perf_counter() - start
    single = 0.0
    topo = [r for r in runner.records if r.command.kind == "topology"]
    if topo:
        cmd = min(topo, key=lambda r: r.command.grid[4] * r.command.grid[5]).command
        matrix = skinspec.toeplitz2.TridiagonalMatrix(*checks.bands(cmd.config))
        re0, re1, im0, im1, nx, ny = cmd.grid
        start = time.perf_counter()
        skinspec.spectral.pseudospectrum(matrix, (re0, re1), (im0, im1), (nx, ny), workers=1)
        single = time.perf_counter() - start
    return {"ref.lapack_stebz_s": stebz, "ref.single_worker_s": single}


def manifest(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": NPROC,
        "SKINSPEC_THREADS": os.environ["SKINSPEC_THREADS"],
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skinspec" / "__init__.py").is_file():
        print(f"perfbench: no skinspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skinspec
    import skinspec.cli

    WORK.mkdir(parents=True)
    try:
        commands = workloads.build(args.workload, args.seed, args.smoke)
        runner = Runner(skinspec.cli, commands, args.seed, "cfg")
        # Warm-up: lazy imports and first-call costs, on smoke-size inputs.
        warm = Runner(skinspec.cli, workloads.build(args.workload, args.seed, smoke=True),
                      args.seed, "warm")
        for i in range(len(warm.records)):
            warm.execute(i)
            shutil.rmtree(WORK / f"out{i}", ignore_errors=True)

        samples: dict[str, int] = {}
        if args.trace == 0:
            setup, setup_wall = measure_setup(runner)
            runner.run_for(args.seconds)
            metrics = end_to_end(runner, setup)
            units = END_TO_END
            samples = {"setup_s": len(setup), "run_s": min(len(r.times) for r in runner.records),
                       "cmd_p50_s": len(runner.records)}
        else:
            for i in range(len(runner.records)):
                runner.run(i)
            # Each traced run follows an untraced run of the same command, so
            # the overhead compares runs made under the same machine load.
            tracer = tracing.Tracer(skinspec)
            traced = Runner(skinspec.cli, commands, args.seed, "traced", check=False)
            for i in range(len(runner.records)):
                runner.run(i)
                tracer.cmd = i
                with tracer:
                    traced.run(i)
            for rec, again in zip(runner.records, traced.records):
                if (again.code, again.out_bytes) != (rec.code, rec.out_bytes):
                    rec.problem = rec.problem or "traced run differs from untraced run"
            overhead = traced.run_s() / sum(r.times[-1] for r in runner.records) - 1.0
            metrics = per_layer(runner, tracer, overhead, references(skinspec, runner))
            units = PER_LAYER
            samples = {"run_s": 2, "traced_run_s": 1}
        correct, attempted, failed = runner.outcome()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            WORK.parent.rmdir()

    detail = {"manifest": manifest(args), "samples": samples, "commands": runner.table()}
    if args.trace == 0:
        detail.update(setup_wall_s=setup_wall, calibration_s=runner.cal)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
