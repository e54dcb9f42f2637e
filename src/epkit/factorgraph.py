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

    @property
    def operations(self) -> int:
        """What a visit charges the operation tally: rank x table size."""
        return len(self.scope) * self.table.size


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
    values: np.ndarray  # normalized to sum 1, nonnegative
    log_scale: float


MessageSet = dict[tuple[str, str], Message]
BeliefSet = dict[str, np.ndarray]


@dataclass
class LoopyResult:
    beliefs: BeliefSet
    messages: MessageSet
    converged: bool
    log_evidence: float
    sweeps: int
    floor_events: int  # message entries written as exact zeros
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
    matrix-vector products; other ranks broadcast one cavity at a time.
    ndarray.dot makes `@`'s BLAS call without matmul's ufunc dispatch."""
    if joint.ndim == 2:
        c0, c1 = cavities
        partial = [joint.dot(c1), c0.dot(joint)]
        return float(partial[0].dot(c0)), partial
    rank = joint.ndim
    partial = []
    for axis in range(rank):
        p = joint
        for a2, cav in enumerate(cavities):
            if a2 != axis:
                p = p * _expand(cav, a2, rank)
        other = tuple(a for a in range(rank) if a != axis)
        partial.append(p.sum(axis=other) if other else p.copy())
    return float(partial[0].dot(cavities[0])), partial


def _sum(xs: list[float]) -> float:
    """float(np.sum(xs)) to the bit: numpy adds fewer than 8 entries left to
    right, as this loop does (builtin sum compensates from Python 3.12)."""
    if len(xs) >= 8:  # numpy sums pairwise
        return float(np.sum(xs))
    total = 0.0
    for x in xs:
        total += x
    return total


def _exp_normalize(log_a: list[float]) -> tuple[np.ndarray | None, float]:
    """exp(log_a) scaled to sum 1, and log(sum(exp(log_a))), from one exp.
    A maximum that is not finite is returned with None: every entry -inf
    gives (None, -inf)."""
    top = max(log_a)
    if not math.isfinite(top):
        return None, top
    e = np.exp([x - top for x in log_a])
    s = _sum(e.tolist())
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


def _log_sums(net: DiscreteFactorGraph, messages: MessageSet,
              vid: str) -> tuple[list[float], list[float]]:
    """Sums over the messages into one variable of their log values, and of
    their log values with each message's log scale added first: the log of
    its belief up to a constant, and the log of the product of its term
    approximations.  One np.log per message."""
    log_b = log_t = [0.0] * net.cardinality(vid)
    with np.errstate(divide="ignore"):  # zero message entries -> -inf
        for f in net.incident(vid):
            msg = messages[(f.id, vid)]
            log_m, s = np.log(msg.values).tolist(), msg.log_scale
            log_b = [a + b for a, b in zip(log_b, log_m)]
            log_t = [a + (b + s) for a, b in zip(log_t, log_m)]
    return log_b, log_t


def _normalized(vid: str, log_b: list[float]) -> np.ndarray:
    """The belief of log `log_b` up to a constant; raises when it has no mass."""
    values, lse = _exp_normalize(log_b)
    if lse == -math.inf:
        raise ContradictoryMessagesError(f"contradictory messages at {vid!r}")
    return values


def belief(net: DiscreteFactorGraph, messages: MessageSet,
           vid: str) -> np.ndarray:
    """Normalized product of all messages into one variable; uniform when no
    factor touches it."""
    return _normalized(vid, _log_sums(net, messages, vid)[0])


def loopy_ep(net: DiscreteFactorGraph,
             opts: EPOptions = EPOptions()) -> LoopyResult:
    """Loopy belief propagation as EP with a disconnected approximation.

    Messages start as the constant 1 (uniform values, log-cardinality
    scale), so the first sequential sweep reproduces bk_adf.  A factor
    visit normalizes each cavity, the sum of its incoming log messages, with
    one exp.  An undamped message is the partial sum-product scaled to sum
    1, with no log or exp, so on a tree it settles bit for bit once its
    cavities do; damping interpolates log message values and normalizes
    them like a cavity, and converges once values and log scales settle.
    Non-convergence after max_sweeps is reported, not raised.  Messages
    keep exact zeros, -inf in the log domain and so kept by damping; a
    tilted normalizer z <= 0 raises ContradictoryEvidenceError, wherever
    bk_adf raises it and wherever the evidence leaves no mass.

    A visit calls numpy only for log, exp and `_tilted`'s contractions,
    which math and Python dot products round differently; its sums
    (`_sum`), maxima, changes, zero counts and damped blends run on floats
    in numpy's order, so a fit gives the bits of the same steps on arrays.
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
        plan.append((f.table.reshape(shape), f.operations,
                     1.0 / len(shape) - 1.0, own, others, uniform))
    # np.log of the values of each message that is one of several terms of
    # some cavity, refreshed whenever the message is written
    logs = {key: np.log(values[key]).tolist() for _, _, _, _, others, _ in plan
            for keys in others if len(keys) > 1 for key in keys}
    # the values of each message as floats, for the change a visit makes
    olds = {key: vals.tolist() for key, vals in values.items()}

    m = len(net.factors)
    converged = m == 0
    sweeps = 0
    operations = 0
    with np.errstate(divide="ignore"):  # log of a zero entry -> -inf
        for order in opts.schedule.orders(m) if m else ():
            if sweeps >= opts.max_sweeps:
                break
            sweeps += 1
            max_change = 0.0
            for idx in order:
                joint, charge, share, own, others, uniform = plan[idx]
                operations += charge
                cavities = []
                for axis, keys in enumerate(others):
                    if len(keys) == 1:  # a lone message is already normalized
                        cavity = values[keys[0]]
                    elif keys:
                        log_c = logs[keys[0]]
                        for key in keys[1:]:
                            log_c = [a + b for a, b in zip(log_c, logs[key])]
                        cavity, lse = _exp_normalize(log_c)
                        if lse == -math.inf:
                            raise ContradictoryMessagesError(
                                f"contradictory messages at "
                                f"{net.factors[idx].scope[axis]!r}")
                    else:
                        cavity = uniform[axis]
                    cavities.append(cavity)
                z, partial = _tilted(joint, cavities)
                if z <= 0.0:
                    raise ContradictoryEvidenceError(
                        f"contradictory evidence at factor {net.factors[idx].id!r}")
                share_z = math.log(z) * share
                for ps, key in zip(partial, own):
                    if damping < 1.0:
                        s, log_old = scales[key], np.log(values[key]).tolist()
                        new, log_scale = _exp_normalize(
                            [(1.0 - damping) * (a + s) + damping * (b + share_z)
                             for a, b in zip(log_old, np.log(ps).tolist())])
                        max_change = max(max_change, abs(log_scale - s))
                    else:
                        total = _sum(ps.tolist())
                        new, log_scale = ps / total, math.log(total) + share_z
                    floats = new.tolist()
                    floor_events += floats.count(0.0)
                    max_change = max(max_change, max(
                        abs(a - b) for a, b in zip(floats, olds[key])))
                    values[key] = new
                    olds[key] = floats
                    scales[key] = log_scale
                    if key in logs:
                        logs[key] = np.log(new).tolist()
            if max_change < opts.tolerance:
                converged = True
                break

    messages = {key: Message(values=values[key], log_scale=scales[key])
                for key in values}
    # the evidence is the integral of the product of all term
    # approximations: per variable, the log-sum-exp of the summed log totals
    beliefs, log_evidence = {}, 0.0
    for v, _ in net.variables:
        log_b, log_t = _log_sums(net, messages, v)
        beliefs[v] = _normalized(v, log_b)
        log_evidence += _exp_normalize(log_t)[1]
    return LoopyResult(beliefs=beliefs, messages=messages, converged=converged,
                       log_evidence=log_evidence, sweeps=sweeps,
                       floor_events=floor_events, operations=operations)
