"""In-memory spans and fit records for the benchmark's passes.

Spans are recorded only from the benchmark's own files, around calls into
epkit's public functions and binding methods; the library itself carries no
tracing.  An untraced pass still times each fit call as a whole (two clock
reads per fit), because `visits_per_s` divides each fit's visits by its time.
A recorder given a list of reference samples also times the reference loop
at fit and sweep boundaries (see reference.py).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference
from epkit import EPOptions, ModelBinding, Schedule

FIT_SPAN_NAMES = {"ep": "engine.run_ep", "adf": "engine.run_adf",
                  "loopy_ep": "factorgraph.loopy_ep",
                  "bk_adf": "factorgraph.bk_adf"}


@dataclass
class Span:
    name: str
    tag: str        # call detail, e.g. "s1000" for an importance-sampler call
    start_ns: int
    end_ns: int
    parent: int     # index of the enclosing span, -1 at top level
    fit: int        # index into Recorder.fits, -1 outside any fit call
    ops: int        # OpTally delta across a binding call, else 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class FitRecord:
    """One call of run_ep / run_adf / loopy_ep / bk_adf (or bpm_train)."""
    model: str            # clutter | bpm | factorgraph
    method: str           # ep | adf | loopy_ep | bk_adf
    label: str            # size rung: d<dim> for BPM, v<vars> for graphs
    damped: bool
    wall_ns: int = 0
    visits: int = 0       # attempted site (or factor) visits
    updated: int = 0      # visits whose cavity was proper
    sweeps: int = 0
    improper: int = 0
    converged: bool = False
    ops: int = 0          # OpTally total charged by the fit
    floor_events: int = 0
    span: int = -1        # index of the fit's own span when traced
    result: object = None


@dataclass
class PassResult:
    """One timed pass of a workload and the outcome of its checks."""
    wall_s: float
    recorder: "Recorder"
    attempted: int                  # fit calls the pass makes
    failures: dict[str, str]        # failed fit -> reason; a fit counts once
    parts: dict[str, float] = field(default_factory=dict)
    window: int = 0                 # which of the workload's input windows

    @property
    def failed(self) -> int:
        return len(self.failures)


def fingerprint(fit: FitRecord) -> bytes:
    """Bytes of a fit's answer, to compare passes of one run."""
    res = fit.result
    if fit.method == "bk_adf":
        beliefs, log_ev = res
    elif fit.method == "loopy_ep":
        beliefs, log_ev = res.beliefs, res.log_evidence
    else:
        return res.posterior.mean.tobytes() + np.float64(res.log_evidence).tobytes()
    return b"".join(b.tobytes() for b in beliefs.values()) \
        + np.float64(log_ev).tobytes()


@dataclass(frozen=True)
class SampledSchedule(Schedule):
    """The same visiting orders, with a reference-sample boundary before
    each sweep."""
    recorder: "Recorder | None" = field(default=None, compare=False, repr=False)

    def orders(self, n: int):
        for order in super().orders(n):
            self.recorder.boundary()
            yield order


class Recorder:
    """Collects fit records always and spans only when `traced`; adds
    reference samples to `speed` unless it is None."""

    def __init__(self, traced: bool, speed: list[float] | None = None):
        self.traced = traced
        self.speed = speed
        self.sampling_ns = 0    # time the reference samples took
        self.spans: list[Span] = []
        self.fits: list[FitRecord] = []
        self._stack: list[int] = []
        self._fit = -1
        self._next_sample_ns = 0

    def boundary(self) -> None:
        """At a fit or sweep boundary: time the reference loop if a sample
        is due."""
        if self.speed is None:
            return
        t0 = time.perf_counter_ns()
        if t0 < self._next_sample_ns:
            return
        self.speed.append(reference.sample())
        t1 = time.perf_counter_ns()
        self.sampling_ns += t1 - t0
        self._next_sample_ns = t1 + int(reference.EVERY_S * 1e9)

    def call(self, name: str, fn, *args, tag: str = "", tally=None, **kwargs):
        """fn(*args, **kwargs), inside a span when traced; `tally` (an
        OpTally) is read before and after the call."""
        if not self.traced:
            return fn(*args, **kwargs)
        span = Span(name, tag, 0, 0, self._stack[-1] if self._stack else -1,
                    self._fit, 0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        ops0 = tally.count if tally is not None else 0
        span.start_ns = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if tally is not None:
                span.ops = tally.count - ops0

    def wrap(self, name: str, fn, tag=None):
        """fn as a spanned callable; tag(args, kwargs) names the call."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args,
                             tag=tag(args, kwargs) if tag else "", **kwargs)
        return traced

    def fit(self, model: str, method: str, fn, *args, **kwargs):
        """Run one fit call and record its size, counts and wall time."""
        rec = FitRecord(model, method, _label(model, args), _damped(args, kwargs))
        if self.speed is not None:
            self.boundary()
            args = tuple(replace(a, schedule=SampledSchedule(
                a.schedule.kind, a.schedule.seed, self)) if isinstance(a, EPOptions)
                else a for a in args)
        outer, self._fit = self._fit, len(self.fits)
        self.fits.append(rec)
        rec.span = len(self.spans) if self.traced else -1
        t0 = time.perf_counter_ns()
        try:
            result = self.call(FIT_SPAN_NAMES[method], fn, *args, **kwargs)
        finally:
            rec.wall_ns = time.perf_counter_ns() - t0
            self._fit = outer
        _summarize(rec, args, result)
        return result

    def binding(self, inner: ModelBinding, layer: str) -> ModelBinding:
        return TracedBinding(inner, self, layer) if self.traced else inner


def write_trace(path: Path, header: dict, recorders: list[Recorder]) -> None:
    """Header line, then per traced pass its spans and fit records, one JSON
    array per line."""
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for k, rec in enumerate(recorders):
            for s in rec.spans:
                fh.write(json.dumps(["span", k, s.name, s.tag, s.start_ns,
                                     s.end_ns, s.parent, s.fit, s.ops]) + "\n")
            for f in rec.fits:
                fh.write(json.dumps(["fit", k, f.model, f.method, f.label,
                                     f.damped, f.wall_ns, f.visits, f.updated,
                                     f.sweeps, f.improper, f.converged, f.ops,
                                     f.floor_events, f.span]) + "\n")


def check_repeats(reference: list, outcomes: list, names: list[str],
                  failures: dict[str, str]) -> list:
    """Fingerprints of this pass's fits; a fit whose answer differs from the
    run's first pass (`reference`, None on the first pass) fails."""
    prints = [fingerprint(o) if isinstance(o, FitRecord) else None
              for o in outcomes]
    for name, ref, now in zip(names, reference or prints, prints):
        if now is not None and ref != now:
            failures.setdefault(name, "answer differs from the run's first pass")
    return prints


def _label(model: str, args) -> str:
    if model == "factorgraph":
        return f"v{len(args[0].variables)}"
    if model == "bpm":
        inner = getattr(args[0], "inner", args[0])
        return f"d{getattr(inner, 'dataset', inner).d}"
    return ""


def _damped(args, kwargs) -> bool:
    opts = kwargs.get("opts", args[1] if len(args) > 1 else None)
    return getattr(opts, "damping", 1.0) < 1.0


def _summarize(rec: FitRecord, args, result) -> None:
    rec.result = result
    if rec.method in ("ep", "adf"):
        n = len(result.sites)
        rec.sweeps = result.sweeps
        rec.visits = n * result.sweeps
        rec.improper = result.diagnostics.improper_cavities
        rec.updated = rec.visits - result.diagnostics.skipped_sites
        rec.converged = result.converged
        rec.ops = result.diagnostics.operations
    elif rec.method == "loopy_ep":
        rec.sweeps = result.sweeps
        rec.visits = rec.updated = result.sweeps * len(args[0].factors)
        rec.converged = result.converged
        rec.ops = result.operations
        rec.floor_events = result.floor_events
    else:  # bk_adf: one pass over the factors
        rec.sweeps = 1
        rec.visits = rec.updated = len(args[0].factors)
        rec.converged = True


class TracedBinding(ModelBinding):
    """Delegating binding: spans the six calls the engine makes per visit or
    per sweep, and reads the binding's tally around each of them."""

    def __init__(self, inner: ModelBinding, recorder: Recorder, layer: str):
        self.inner = inner
        self.tally = inner.tally
        self._rec = recorder
        self._layer = layer

    def _timed(self, phase: str, fn, *args):
        return self._rec.call(f"{self._layer}.{phase}", fn, *args,
                              tally=self.tally)

    @property
    def site_count(self) -> int:
        return self.inner.site_count

    def prior(self):
        return self.inner.prior()

    def vacuous_site(self, i):
        return self.inner.vacuous_site(i)

    def cavity(self, posterior, site):
        return self._timed("cavity", self.inner.cavity, posterior, site)

    def moment_match(self, cavity, i):
        return self._timed("moment_match", self.inner.moment_match, cavity, i)

    def make_site(self, posterior, cavity, log_z, i):
        return self._timed("make_site", self.inner.make_site,
                           posterior, cavity, log_z, i)

    def recombine(self, cavity, site):
        return self._timed("recombine", self.inner.recombine, cavity, site)

    def log_evidence(self, posterior, sites):
        return self._timed("log_evidence", self.inner.log_evidence,
                           posterior, sites)

    def is_degenerate(self, posterior):
        return self._timed("is_degenerate", self.inner.is_degenerate, posterior)

    def site_coords(self, site):
        return self.inner.site_coords(site)

    def natural_coords(self, dist):
        return self.inner.natural_coords(dist)

    def site_natural_coords(self, site):
        return self.inner.site_natural_coords(site)

    def family_moments(self, dist):
        return self.inner.family_moments(dist)

    def log_partition(self, coords):
        return self.inner.log_partition(coords)
