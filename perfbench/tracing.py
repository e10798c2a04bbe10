"""Span tracing of skinspec layers from outside the package.

The tracer rebinds each traced function at the place it is looked up (the
module attribute the caller reads, e.g. ``toeplitz2.hat_sequences`` for
``polycore.hat_sequences``) and restores the originals on exit.  A span holds
its name, start, end, parent span and the benchmark's command id.  Spans
started on a thread with no open span (the pseudospectrum thread pool) attach
to the open span that adopts pool work.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    cmd: int | None


def _count_lanes(counts, args, kwargs, result):
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    counts["spectral.sigma_min_many.lanes"] += int(np.size(zs))


def _count_pairs(counts, args, kwargs, result):
    counts["toeplitz2.eigenpairs"] += len(result)
    counts["toeplitz2.exact_pairs"] += sum(p.method == "exact" for p in result)
    worst = max((p.residual / max(1.0, abs(p.lam)) for p in result), default=0.0)
    counts["toeplitz2.max_rel_residual"] = max(counts["toeplitz2.max_rel_residual"], worst)


def layers(skinspec) -> list[tuple[str, object, str, object, bool]]:
    """(span name, module whose attribute callers read, function, observer, adopts pool spans)."""
    cli, capacitance, oracle, spectral, toeplitz2 = (
        skinspec.cli, skinspec.capacitance, skinspec.oracle, skinspec.spectral,
        skinspec.toeplitz2,
    )
    table = [
        # toeplitz2 imports hat_sequences by name and calls it as its own global.
        ("polycore.hat_sequences", toeplitz2, "hat_sequences", None, False),
        ("spectral.sigma_min_many", spectral, "sigma_min_many", _count_lanes, False),
        ("spectral.pseudospectrum", spectral, "pseudospectrum", None, True),
        ("toeplitz2.eigen_all", toeplitz2, "eigen_all", _count_pairs, False),
        ("toeplitz2.solve_tridiagonal_eigenpairs", toeplitz2, "solve_tridiagonal_eigenpairs",
         _count_pairs, False),
    ]
    plain = {
        cli: ("load_config", "cmd_spectrum", "cmd_modes", "cmd_topology"),
        toeplitz2: ("build_perturbed", "decay_report", "interface_localization_check"),
        oracle: ("symmetrize", "sturm_eigenvalues", "inverse_iteration_vector"),
        capacitance: ("gauge_capacitance", "generalized_matrix", "dimer_coefficients",
                      "interface_chain", "mode_profile"),
        spectral: ("det_curve", "eig_curves", "eig_curve_union", "winding",
                   "det_min_on_circle"),
    }
    for module, names in plain.items():
        short = module.__name__.rsplit(".", 1)[-1]
        table += [(f"{short}.{fn}", module, fn, None, False) for fn in names]
    return table


class Tracer:
    """Records spans in memory while installed; use as a context manager."""

    def __init__(self, skinspec):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.cmd: int | None = None  # command id stamped on new spans
        self._skinspec = skinspec
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopter: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, site, fn, observe, adopts in layers(self._skinspec):
            original = getattr(site, fn)
            self._saved.append((site, fn, original))
            setattr(site, fn, self._wrap(name, original, observe, adopts))
        return self

    def __exit__(self, *exc):
        for site, fn, original in reversed(self._saved):
            setattr(site, fn, original)
        self._saved.clear()

    def _wrap(self, name, fn, observe, adopts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._adopter
            stack.append(sid)
            if adopts:
                outer, self._adopter = self._adopter, sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if adopts:
                    self._adopter = outer
                self.spans.append(Span(sid, name, start, end, parent, self.cmd))
            if observe is not None:
                with self._lock:
                    observe(self.counts, args, kwargs, result)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0  # summed over threads, not counting same-name recursion
    self_s: float = 0.0  # busy minus the time covered by child spans


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        duration = s.end - s.start
        st.self_s += duration - _covered(
            [(c.start, c.end) for c in children[s.sid]], s.start, s.end
        )
        outer = by_id.get(s.parent)
        while outer is not None and outer.name != s.name:
            outer = by_id.get(outer.parent)
        if outer is None:  # a recursive call's time is already in the outer call
            st.busy_s += duration
    return stats


def pool_busy(spans: list[Span], parent_name: str, child_name: str) -> tuple[float, float]:
    """(child busy seconds, parent wall seconds) for children of ``parent_name`` spans."""
    parents = {s.sid: s for s in spans if s.name == parent_name}
    busy = sum(s.end - s.start for s in spans if s.name == child_name and s.parent in parents)
    wall = sum(s.end - s.start for s in parents.values())
    return busy, wall
