"""Discrete factor graphs under a completely disconnected approximation.

With per-variable marginals as the approximating family, a single ADF pass
over the factors is the Boyen-Koller algorithm and iterated refinement is
loopy belief propagation: each factor keeps one message per in-scope
variable (its disconnected term approximation), and beliefs are products of
incoming messages.

Messages are stored as a normalized vector plus a separate log scale.  A
factor's step normalizer is split evenly, in log domain, across its scope's
messages so the product of a factor's messages always equals its full term
approximation; the evidence estimate is then the integral of the product of
all term approximations, which is exact on trees.

Base-measure convention: beliefs start uniform, and each variable carries a
log-cardinality scale that the first factor touching it consumes.  That
makes every step normalizer well defined (the single-factor normalizer of a
table is just the table sum) and keeps evidence estimates aligned with the
counting-measure partition function.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import EPOptions, OpTally
from .gaussians import _logsumexp

_FLOOR = 1e-300


class ContradictoryEvidenceError(ValueError):
    """A factor's step normalizer vanished: the evidence sliced into its
    table contradicts the current beliefs."""


class ContradictoryMessagesError(ValueError):
    """All components of a belief product vanished."""


@dataclass(frozen=True)
class Factor:
    id: str
    scope: tuple[str, ...]
    table: np.ndarray  # flat, row-major, last scope variable fastest

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        object.__setattr__(self, "table",
                           np.asarray(self.table, dtype=float).ravel())


@dataclass(frozen=True)
class DiscreteFactorGraph:
    variables: tuple[tuple[str, int], ...]
    factors: tuple[Factor, ...]
    # lookups built once from the two fields above, so that no factor visit
    # scans the graph; they take no part in equality, repr or replace()
    _cards: dict[str, int] = field(init=False, repr=False, compare=False)
    _incident: dict[str, tuple[Factor, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(
            (str(v), int(c)) for v, c in self.variables))
        object.__setattr__(self, "factors", tuple(self.factors))
        cards = dict(self.variables)
        if len(cards) != len(self.variables):
            raise ValueError("duplicate variable ids")
        for v, c in self.variables:
            if c < 2:
                raise ValueError(f"variable {v!r} must have cardinality >= 2")
        incident: dict[str, list[Factor]] = {v: [] for v in cards}
        seen = set()
        for f in self.factors:
            if f.id in seen:
                raise ValueError(f"duplicate factor id {f.id!r}")
            seen.add(f.id)
            if not f.scope:
                raise ValueError(f"factor {f.id!r} has an empty scope")
            if len(set(f.scope)) != len(f.scope):
                raise ValueError(f"factor {f.id!r} repeats a variable in its scope")
            size = 1
            for v in f.scope:
                if v not in cards:
                    raise ValueError(f"factor {f.id!r} references unknown variable {v!r}")
                size *= cards[v]
                incident[v].append(f)
            if f.table.shape[0] != size:
                raise ValueError(
                    f"factor {f.id!r} table has {f.table.shape[0]} entries, "
                    f"expected {size}")
            if not np.all(np.isfinite(f.table)):
                raise ValueError(f"factor {f.id!r} has non-finite table entries")
            if np.any(f.table < 0.0):
                raise ValueError(f"factor {f.id!r} has negative table entries")
            if not np.any(f.table > 0.0):
                raise ValueError(f"factor {f.id!r} has an all-zero table")
        object.__setattr__(self, "_cards", cards)
        object.__setattr__(self, "_incident",
                           {v: tuple(fs) for v, fs in incident.items()})

    def cardinality(self, vid: str) -> int:
        return self._cards[vid]

    def incident(self, vid: str) -> list[Factor]:
        """The factors whose scope holds `vid`, in graph order."""
        return list(self._incident.get(vid, ()))


def load_network(document: dict | str | Path) -> DiscreteFactorGraph:
    """Build a validated graph from a JSON document (dict, JSON text, or a
    path to a JSON file) with variables {id, cardinality} and factors
    {id, scope, table}; observed variables arrive already sliced into the
    factor tables."""
    if isinstance(document, Path):
        document = json.loads(document.read_text())
    elif isinstance(document, str):
        text = document if document.lstrip().startswith("{") \
            else Path(document).read_text()
        document = json.loads(text)
    variables = [(v["id"], v["cardinality"]) for v in document["variables"]]
    factors = [Factor(id=str(f["id"]), scope=tuple(str(s) for s in f["scope"]),
                      table=np.asarray(f["table"], dtype=float))
               for f in document["factors"]]
    return DiscreteFactorGraph(variables=tuple(variables), factors=tuple(factors))


@dataclass(frozen=True)
class Message:
    values: np.ndarray  # normalized to sum 1, strictly positive
    log_scale: float

    def log_total(self) -> np.ndarray:
        return np.log(self.values) + self.log_scale


MessageSet = dict[tuple[str, str], Message]
BeliefSet = dict[str, np.ndarray]


@dataclass
class LoopyResult:
    beliefs: BeliefSet
    messages: MessageSet
    converged: bool
    log_evidence: float
    sweeps: int
    floor_events: int
    operations: int


def _factor_shape(net: DiscreteFactorGraph, f: Factor) -> tuple[int, ...]:
    return tuple(net.cardinality(v) for v in f.scope)


def _expand(vec: np.ndarray, axis: int, rank: int) -> np.ndarray:
    return vec.reshape((1,) * axis + (-1,) + (1,) * (rank - axis - 1))


def _tilted(table: np.ndarray, shape: tuple[int, ...],
            cavities: list[np.ndarray]):
    """Per-variable partial sum-products of a factor against its cavities
    (the factor summed against every cavity except the variable's own), and
    the full normalizer.  Division-free, so zero cavity components are
    handled exactly."""
    rank = len(shape)
    joint = table.reshape(shape)
    partial = []
    for axis in range(rank):
        p = joint
        for a2, cav in enumerate(cavities):
            if a2 != axis:
                p = p * _expand(cav, a2, rank)
        other = tuple(a for a in range(rank) if a != axis)
        partial.append(p.sum(axis=other) if other else p.copy())
    z = float(partial[0] @ cavities[0])
    return z, partial


def bk_adf(net: DiscreteFactorGraph,
           order: list[int] | None = None) -> tuple[BeliefSet, float]:
    """One Boyen-Koller pass: after each factor, the in-scope beliefs become
    the marginals of (factor x current disconnected beliefs).

    Log evidence sums the step normalizers; each variable's log-cardinality
    scale is consumed when a factor first touches it, and variables no
    factor touches contribute their full log cardinality.
    """
    m = len(net.factors)
    order = list(range(m)) if order is None else list(order)
    if sorted(order) != list(range(m)):
        raise ValueError("order must be a permutation of the factor indices")
    beliefs: BeliefSet = {v: np.full(c, 1.0 / c) for v, c in net.variables}
    untouched = {v for v, _ in net.variables}
    log_evidence = 0.0
    for idx in order:
        f = net.factors[idx]
        shape = _factor_shape(net, f)
        z, partial = _tilted(f.table, shape, [beliefs[v] for v in f.scope])
        if z <= 0.0:
            raise ContradictoryEvidenceError(
                f"contradictory evidence at factor {f.id!r}")
        log_evidence += math.log(z)
        for v in f.scope:
            if v in untouched:
                log_evidence += math.log(net.cardinality(v))
                untouched.discard(v)
        for axis, v in enumerate(f.scope):
            beliefs[v] = partial[axis] * beliefs[v] / z
    for v in untouched:
        log_evidence += math.log(net.cardinality(v))
    return beliefs, log_evidence


def belief(net: DiscreteFactorGraph, messages: MessageSet,
           vid: str) -> np.ndarray:
    """Normalized product of all messages into one variable; uniform when no
    factor touches it."""
    log_b = np.zeros(net.cardinality(vid))
    with np.errstate(divide="ignore"):  # zero message entries -> -inf
        for f in net.incident(vid):
            log_b = log_b + np.log(messages[(f.id, vid)].values)
    lse = _logsumexp(log_b)
    if lse == -math.inf:
        raise ContradictoryMessagesError(f"contradictory messages at {vid!r}")
    return np.exp(log_b - lse)


def loopy_ep(net: DiscreteFactorGraph,
             opts: EPOptions = EPOptions()) -> LoopyResult:
    """Loopy belief propagation as EP with a disconnected approximation.

    Messages start as the constant 1 (uniform values, log-cardinality
    scale), so the first sequential sweep reproduces bk_adf.  Damping
    interpolates log message values.  Non-convergence after max_sweeps is
    reported, not raised.  Messages are floored at 1e-300 to stay positive;
    the tilted normalizer is checked with the floored entries that stand for
    exact zeros taken as zero, so contradictory evidence raises
    ContradictoryEvidenceError wherever bk_adf raises it.
    """
    tally = OpTally()
    floor_events = 0
    messages: MessageSet = {}
    # np.log of each message's values, refreshed only when it is written
    logs: dict[tuple[str, str], np.ndarray] = {}
    for f in net.factors:
        for v in f.scope:
            c = net.cardinality(v)
            key = (f.id, v)
            messages[key] = Message(values=np.full(c, 1.0 / c),
                                    log_scale=math.log(c))
            logs[key] = np.log(messages[key].values)

    # per factor, built once: its shape, its tally charge, its own message
    # keys and, per scope variable, the keys of the other messages into that
    # variable in graph order (the terms of its cavity)
    plan = []
    for f in net.factors:
        shape = _factor_shape(net, f)
        own = tuple((f.id, v) for v in f.scope)
        others = tuple(tuple((g.id, v) for g in net.incident(v) if g.id != f.id)
                       for v in f.scope)
        plan.append((shape, len(shape) * int(np.prod(shape)), own, others))

    # entries of floored messages whose value was exactly zero: the floor
    # keeps every message positive, so only these masks tell a tilted
    # normalizer made of floored mass alone from a true one
    zeros: dict[tuple[str, str], np.ndarray] = {}

    m = len(net.factors)
    converged = m == 0
    sweeps = 0
    for order in opts.schedule.orders(m) if m else ():
        if sweeps >= opts.max_sweeps:
            break
        sweeps += 1
        max_change = 0.0
        for idx in order:
            f = net.factors[idx]
            shape, charge, own, others = plan[idx]
            tally.add(charge)
            cavities = []
            live = []  # the cavities with zero-mass entries set to zero
            masked = False
            for axis, keys in enumerate(others):
                log_c = np.zeros(shape[axis])
                dead = None
                for key in keys:
                    log_c = log_c + logs[key]
                    if key in zeros:
                        dead = zeros[key] if dead is None else dead | zeros[key]
                lse = _logsumexp(log_c)
                if lse == -math.inf:
                    raise ContradictoryMessagesError(
                        f"contradictory messages at {f.scope[axis]!r}")
                cavities.append(np.exp(log_c - lse))
                if dead is None:
                    live.append(cavities[-1])
                else:
                    live.append(np.where(dead, 0.0, cavities[-1]))
                    masked = True
            z, partial = _tilted(f.table, shape, cavities)
            if z <= 0.0 or (masked and _tilted(f.table, shape, live)[0] <= 0.0):
                raise ContradictoryEvidenceError(
                    f"contradictory evidence at factor {f.id!r}")
            share = math.log(z) * (1.0 / len(shape) - 1.0)
            for ps, key in zip(partial, own):
                log_new = np.full_like(ps, -math.inf)
                pos = ps > 0.0
                log_new[pos] = np.log(ps[pos]) + share
                if opts.damping < 1.0:
                    log_old = logs[key] + messages[key].log_scale
                    log_new = (1.0 - opts.damping) * log_old + opts.damping * log_new
                lse = _logsumexp(log_new)
                values = np.exp(log_new - lse)
                floored = values < _FLOOR
                if zeros:
                    zeros.pop(key, None)
                if floored.any():
                    floor_events += int(floored.sum())
                    if not values.all():
                        zeros[key] = values == 0.0
                    values = np.maximum(values, _FLOOR)
                    values = values / values.sum()
                old = messages[key].values
                max_change = max(max_change, float(np.abs(values - old).max()))
                messages[key] = Message(values=values, log_scale=lse)
                logs[key] = np.log(values)
        if max_change < opts.tolerance:
            converged = True
            break

    beliefs = {v: belief(net, messages, v) for v, _ in net.variables}
    log_evidence = _evidence_from_messages(net, messages)
    return LoopyResult(beliefs=beliefs, messages=messages, converged=converged,
                       log_evidence=log_evidence, sweeps=sweeps,
                       floor_events=floor_events, operations=tally.count)


def _evidence_from_messages(net: DiscreteFactorGraph,
                            messages: MessageSet) -> float:
    """Integral of the product of all term approximations: per variable,
    log-sum-exp of the summed incoming log message totals."""
    total = 0.0
    for v, c in net.variables:
        log_b = np.zeros(c)
        for f in net.incident(v):
            log_b = log_b + messages[(f.id, v)].log_total()
        total += _logsumexp(log_b)
    return total

