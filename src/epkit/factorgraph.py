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

from .engine import EPOptions
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


def load_network(document: dict | Path) -> DiscreteFactorGraph:
    """Build a validated graph from a JSON document (a dict, or the path of
    a JSON file) with variables {id, cardinality} and factors {id, scope,
    table}; observed variables arrive already sliced into the factor
    tables."""
    if isinstance(document, Path):
        document = json.loads(document.read_text())
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


def _tilted(joint: np.ndarray, cavities: list[np.ndarray]):
    """Per-variable partial sum-products of a factor's table, shaped to its
    scope, against its cavities (the factor summed against every cavity
    except the variable's own), and the full normalizer.  Division-free, so
    zero cavity components are handled exactly.  A pairwise factor takes two
    matrix-vector products; other ranks broadcast one cavity at a time."""
    if joint.ndim == 2:
        c0, c1 = cavities
        partial = [joint @ c1, c0 @ joint]
        return float(partial[0] @ c0), partial
    rank = joint.ndim
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


def _exp_normalize(log_a: np.ndarray) -> tuple[np.ndarray | None, float]:
    """exp(log_a) scaled to sum 1, and log(sum(exp(log_a))), from one exp.
    A maximum that is not finite is returned with None: every entry -inf
    gives (None, -inf)."""
    top = float(log_a.max())
    if not math.isfinite(top):
        return None, top
    e = np.exp(log_a - top)
    s = float(e.sum())
    return e / s, top + math.log(s)


def bk_adf(net: DiscreteFactorGraph) -> tuple[BeliefSet, float]:
    """One Boyen-Koller pass over the factors in graph order: after each
    factor, the in-scope beliefs become the marginals of (factor x current
    disconnected beliefs).  Another order is the same pass over a graph
    with its factors permuted.

    Log evidence sums the step normalizers; each variable's log-cardinality
    scale is consumed when a factor first touches it, and variables no
    factor touches contribute their full log cardinality.
    """
    beliefs: BeliefSet = {v: np.full(c, 1.0 / c) for v, c in net.variables}
    untouched = {v for v, _ in net.variables}
    log_evidence = 0.0
    for f in net.factors:
        joint = f.table.reshape(_factor_shape(net, f))
        z, partial = _tilted(joint, [beliefs[v] for v in f.scope])
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
    values, lse = _exp_normalize(log_b)
    if lse == -math.inf:
        raise ContradictoryMessagesError(f"contradictory messages at {vid!r}")
    return values


def loopy_ep(net: DiscreteFactorGraph,
             opts: EPOptions = EPOptions()) -> LoopyResult:
    """Loopy belief propagation as EP with a disconnected approximation.

    Messages start as the constant 1 (uniform values, log-cardinality
    scale), so the first sequential sweep reproduces bk_adf.  A factor
    visit normalizes each cavity, the sum of its incoming log messages, with
    one exp.  An undamped message is the partial sum-product scaled to sum
    1, with no log or exp, so on a tree it settles bit for bit once its
    cavities do; damping interpolates log message values and normalizes
    them like a cavity.  Non-convergence after max_sweeps is reported, not
    raised.  Messages are floored at 1e-300 to stay positive; the tilted
    normalizer is checked with the floored entries that stand for exact
    zeros taken as zero, so contradictory evidence raises
    ContradictoryEvidenceError wherever bk_adf raises it.
    """
    damping = opts.damping
    floor_events = 0
    # per message: its values and its log scale
    values: dict[tuple[str, str], np.ndarray] = {}
    scales: dict[tuple[str, str], float] = {}
    for f in net.factors:
        for v in f.scope:
            c = net.cardinality(v)
            values[(f.id, v)] = np.full(c, 1.0 / c)
            scales[(f.id, v)] = math.log(c)

    # per factor, built once: its table shaped to its scope, its tally
    # charge, the share of its log normalizer each message carries, its own
    # message keys and, per scope variable, the keys of the other messages
    # into that variable in graph order (the terms of its cavity) and the
    # uniform cavity it has when there are none
    plan = []
    for f in net.factors:
        shape = _factor_shape(net, f)
        own = tuple((f.id, v) for v in f.scope)
        others = tuple(tuple((g.id, v) for g in net.incident(v) if g.id != f.id)
                       for v in f.scope)
        uniform = tuple(np.full(c, 1.0 / c) for c in shape)
        plan.append((f.table.reshape(shape), len(shape) * int(np.prod(shape)),
                     1.0 / len(shape) - 1.0, own, others, uniform))
    # np.log of the values of each message that is one of several terms of
    # some cavity, refreshed whenever the message is written
    logs = {key: np.log(values[key]) for _, _, _, _, others, _ in plan
            for keys in others if len(keys) > 1 for key in keys}

    # entries of floored messages whose value was exactly zero: the floor
    # keeps every message positive, so only these masks tell a tilted
    # normalizer made of floored mass alone from a true one
    zeros: dict[tuple[str, str], np.ndarray] = {}

    m = len(net.factors)
    converged = m == 0
    sweeps = 0
    operations = 0
    with np.errstate(divide="ignore"):  # log of a zero partial -> -inf
        for order in opts.schedule.orders(m) if m else ():
            if sweeps >= opts.max_sweeps:
                break
            sweeps += 1
            max_change = 0.0
            for idx in order:
                joint, charge, share, own, others, uniform = plan[idx]
                operations += charge
                cavities = []
                live = []  # the cavities with zero-mass entries set to zero
                masked = False
                for axis, keys in enumerate(others):
                    if len(keys) == 1:  # a lone message is already normalized
                        cavity = values[keys[0]]
                    elif keys:
                        log_c = logs[keys[0]]
                        for key in keys[1:]:
                            log_c = log_c + logs[key]
                        cavity, lse = _exp_normalize(log_c)
                        if lse == -math.inf:
                            raise ContradictoryMessagesError(
                                f"contradictory messages at "
                                f"{net.factors[idx].scope[axis]!r}")
                    else:
                        cavity = uniform[axis]
                    cavities.append(cavity)
                    dead = None
                    if zeros:
                        for key in keys:
                            if key in zeros:
                                dead = zeros[key] if dead is None \
                                    else dead | zeros[key]
                    if dead is None:
                        live.append(cavity)
                    else:
                        live.append(np.where(dead, 0.0, cavity))
                        masked = True
                z, partial = _tilted(joint, cavities)
                if z <= 0.0 or (masked and _tilted(joint, live)[0] <= 0.0):
                    raise ContradictoryEvidenceError(
                        f"contradictory evidence at factor {net.factors[idx].id!r}")
                share_z = math.log(z) * share
                for ps, key in zip(partial, own):
                    if damping < 1.0:
                        log_old = np.log(values[key]) + scales[key]
                        log_new = np.log(ps) + share_z
                        new, log_scale = _exp_normalize(
                            (1.0 - damping) * log_old + damping * log_new)
                    else:
                        total = float(ps.sum())
                        new, log_scale = ps / total, math.log(total) + share_z
                    if zeros:
                        zeros.pop(key, None)
                    if new.min() < _FLOOR:
                        floor_events += int(np.count_nonzero(new < _FLOOR))
                        if not new.all():
                            zeros[key] = new == 0.0
                        new = np.maximum(new, _FLOOR)
                        new = new / new.sum()
                    max_change = max(max_change,
                                     float(np.abs(new - values[key]).max()))
                    values[key] = new
                    scales[key] = log_scale
                    if key in logs:
                        logs[key] = np.log(new)
            if max_change < opts.tolerance:
                converged = True
                break

    messages = {key: Message(values=values[key], log_scale=scales[key])
                for key in values}
    beliefs = {v: belief(net, messages, v) for v, _ in net.variables}
    log_evidence = _evidence_from_messages(net, messages)
    return LoopyResult(beliefs=beliefs, messages=messages, converged=converged,
                       log_evidence=log_evidence, sweeps=sweeps,
                       floor_events=floor_events, operations=operations)


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

