"""Per-layer metrics from the spans and fit records of traced passes.

Each metric is computed per traced pass and reported as the median over
those passes.  Times are the median per call unless stated; a metric whose
layer does not run on the workload reads 0.  The fit throughput, the CLI
times and the tracing overhead come from the best untraced (and traced)
passes, like the end-to-end `wall_s`.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from bpm_ladder import RUNGS as BPM_RUNGS
from loopy_ladder import RUNGS as GRAPH_RUNGS
from paper_cli import EXPERIMENTS
from spans import PassResult

# sample counts of the default `epkit clutter` / `epkit bpm` configurations
IMPORTANCE_SAMPLES = (1000, 10000, 100000)
# binding method -> metric stem
PHASES = {"cavity": "cavity", "moment_match": "match", "make_site": "site",
          "log_evidence": "evidence", "is_degenerate": "degenerate_check"}


def per_layer_metrics(traced: list[PassResult],
                      untraced: list[PassResult]) -> dict[str, float]:
    per_pass = [_pass_metrics(p) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass)
           for name in per_pass[0]}
    out["visits_per_s"] = max(visit_rate(p.recorder.fits) for p in untraced)
    for kind in EXPERIMENTS:
        out[f"experiments.{kind}_cli_s"] = min(p.parts.get(kind, 0.0) for p in untraced)
    out["trace.overhead_s"] = (min(p.wall_s for p in traced)
                               - min(p.wall_s for p in untraced))
    return out


def visit_rate(fits) -> float:
    """Geometric mean over fit calls of site (or factor) visits per second
    of the call's wall time.  Unlike total visits over total fit time, it
    does not shift when a seed changes how many sweeps, and so how many
    cheap or costly visits, each fit makes.  0 when no fit completed."""
    rates = [f.visits / (f.wall_ns / 1e9) for f in fits if f.visits]
    return statistics.geometric_mean(rates) if rates else 0.0


def _median(values, scale: float) -> float:
    return statistics.median(values) / scale if values else 0.0


def _pass_metrics(p: PassResult) -> dict[str, float]:
    rec = p.recorder
    spans, fits = rec.spans, rec.fits
    named = defaultdict(list)       # span name -> durations (ns)
    child_ns = defaultdict(int)     # span index -> time covered by children
    for s in spans:
        named[s.name].append(s.duration_ns)
        if s.parent >= 0:
            child_ns[s.parent] += s.duration_ns

    def self_ns(index: int) -> int:
        return spans[index].duration_ns - child_ns[index]

    m: dict[str, float] = {}
    engine = [f for f in fits if f.method in ("ep", "adf")]
    visits = sum(f.visits for f in engine)
    m["engine.visits"] = visits
    m["engine.sweeps"] = sum(f.sweeps for f in engine)
    m["engine.skipped_sites"] = sum(f.visits - f.updated for f in engine)
    m["engine.improper_cavities"] = sum(f.improper for f in engine)
    m["engine.unconverged_fits"] = sum(not f.converged for f in engine)
    m["engine.useful_visit_ratio"] = (
        sum(f.updated for f in engine) / visits if visits else 0.0)
    m["engine.ops"] = sum(f.ops for f in engine)
    m["engine.self_us_per_visit"] = (
        sum(self_ns(f.span) for f in engine) / visits / 1e3 if visits else 0.0)

    for method, stem in PHASES.items():
        if stem != "degenerate_check":
            m[f"clutter.{stem}_us"] = _median(named[f"clutter.{method}"], 1e3)

    by_rung = defaultdict(list)     # (span name, fit label, damped) -> ns
    for s in spans:
        if s.fit >= 0 and s.name.startswith("bpm."):
            by_rung[(s.name, fits[s.fit].label, fits[s.fit].damped)].append(
                s.duration_ns)
    for d in BPM_RUNGS:
        label = f"d{d}"
        for method, stem in PHASES.items():
            m[f"bpm.{stem}_us.{label}"] = _median(
                by_rung[(f"bpm.{method}", label, False)], 1e3)
        rung = [f for f in engine if f.label == label and not f.damped]
        rung_visits = sum(f.visits for f in rung)
        m[f"bpm.ops_per_visit.{label}"] = (
            sum(f.ops for f in rung) / rung_visits if rung_visits else 0.0)
    m["bpm.recombine_us.d50"] = _median(by_rung[("bpm.recombine", "d50", True)], 1e3)

    loopy = [f for f in fits if f.method == "loopy_ep"]
    for v in GRAPH_RUNGS:
        label = f"v{v}"
        rung = [f for f in loopy if f.label == label and not f.damped]
        rung_visits = sum(f.visits for f in rung)
        m[f"factorgraph.factor_visit_us.{label}"] = (
            sum(f.wall_ns for f in rung) / rung_visits / 1e3 if rung_visits else 0.0)
        m[f"factorgraph.bk_adf_ms.{label}"] = _median(
            [f.wall_ns for f in fits if f.method == "bk_adf" and f.label == label], 1e6)
        m[f"factorgraph.sweeps.{label}"] = sum(f.sweeps for f in rung)
    m["factorgraph.floor_events"] = sum(f.floor_events for f in loopy)

    m["oracles.exact_clutter_ms"] = _median(named["oracles.exact_clutter"], 1e6)
    for count in IMPORTANCE_SAMPLES:
        # mean, not median: clutter (d=1) and BPM (d=3) calls form two groups
        calls = [s.duration_ns for s in spans
                 if s.name == "oracles.importance_sampler" and s.tag == f"s{count}"]
        m[f"oracles.importance_ms.s{count}"] = (
            sum(calls) / len(calls) / 1e6 if calls else 0.0)
    m["oracles.enumerate_ms"] = _median(named["oracles.enumerate_discrete"], 1e6)
    oracle_ns = sum(sum(v) for k, v in named.items() if k.startswith("oracles."))
    m["oracles.share"] = oracle_ns / 1e9 / p.wall_s

    m["experiments.write_ms"] = _median(named["experiments.write_results"], 1e6)
    m["experiments.self_s"] = sum(
        self_ns(i) for i, s in enumerate(spans)
        if s.name == "experiments.run_experiment") / 1e9
    return m
