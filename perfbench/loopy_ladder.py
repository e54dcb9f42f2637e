"""loopy-ladder workload: loopy EP (`loopy_ep`) and Boyen-Koller ADF
(`bk_adf`) on random trees of 8, 64 and 256 variables (cardinality 2..4),
plus one damped, randomly scheduled `loopy_ep` fit on the 64-variable tree.

It isolates the factorgraph layer, whose per-factor cost grows with graph
size through the linear `incident` scan.  Answers are checked against exact
inference: `enumerate_discrete` where the joint fits its 10^7 bound, and
the tree elimination below elsewhere.
"""
from __future__ import annotations

import math
import time

import numpy as np

from epkit import EPOptions, Schedule, bk_adf, enumerate_discrete, loopy_ep
from epkit.experiments import random_tree_network
from spans import PassResult, Recorder, check_repeats

RUNGS = (8, 64, 256)
MAX_CARDINALITY = 4
DAMPED_RUNG = 64
# Every loopy_ep fit runs exactly this many sweeps, so that a pass does the
# same work whatever the seed: stopping at tolerance 1e-6 takes a number of
# sweeps that depends on the tree (4-6 at v8, 7-10 at v64, 9-11 at v256 and
# 24-27 for the damped fit over seeds 100..115 and 200..209), and that alone
# spread the work of a pass by 0.14 (IQR / median) across seeds.  Each
# count is a few sweeps above the largest seen.  An 8-variable tree's
# messages can settle exactly, so that no message changes at all, and the
# fit then stops early; that rung is about 1% of a pass.
SWEEPS = {8: 8, 64: 14, 256: 14}
DAMPED_SWEEPS = 34
NEVER = 1e-300   # a tolerance no sweep's largest message change falls below
ENUMERATION_BOUND = 10 ** 7
# Largest (L1 belief error, log-evidence error) against exact inference,
# undamped and damped.  Loopy BP is exact on trees once messages settle; with
# tolerance 1e-6 (fewer sweeps than run here), over 60 random seeds the
# worst undamped errors were (4.4e-7, 5e-13) and the worst damped ones
# (4.4e-6, 1.2e-6).
EXACT_BOUND = {False: (1e-5, 1e-8), True: (1e-4, 1e-5)}
# One sequential loopy sweep is BK-ADF; they agree to rounding.
BK_BOUND = 1e-10


class LoopyLadder:
    def __init__(self, seed: int, smoke: bool, workdir):
        rungs = RUNGS[:1] if smoke else RUNGS
        nets = {v: random_tree_network(v, MAX_CARDINALITY, seed) for v in rungs}
        damped = EPOptions(tolerance=NEVER, max_sweeps=DAMPED_SWEEPS, damping=0.5,
                           schedule=Schedule("random", seed))
        self.jobs = []
        for v, net in nets.items():
            undamped = EPOptions(tolerance=NEVER, max_sweeps=SWEEPS[v])
            self.jobs += [(loopy_ep, net, undamped), (bk_adf, net, None)]
        self.jobs.append((loopy_ep, nets[rungs[0] if smoke else DAMPED_RUNG], damped))
        self.truth: dict[int, tuple] = {}   # id(net) -> exact (marginals, log Z)
        self.one_sweep: dict[int, object] = {}
        self.reference = None
        self.windows = 1   # every pass fits the same inputs

    def until_first_call(self) -> None:
        """Nothing: the inputs are built by the constructor."""

    def run_pass(self, rec: Recorder, window: int = 0) -> PassResult:
        outcomes = []
        t0 = time.perf_counter()
        for fn, net, opts in self.jobs:
            try:
                if opts is None:
                    rec.fit("factorgraph", "bk_adf", fn, net)
                else:
                    rec.fit("factorgraph", "loopy_ep", fn, net, opts)
                outcomes.append(rec.fits[-1])
            except Exception as exc:  # noqa: BLE001 - a failed fit is counted
                outcomes.append(repr(exc))
        wall = time.perf_counter() - t0
        names = [f"{fn.__name__} v{len(net.variables)}"
                 f"{' damped' if opts is not None and opts.damping < 1.0 else ''}"
                 for fn, net, opts in self.jobs]
        failures = {}
        for name, (_, net, opts), outcome in zip(names, self.jobs, outcomes):
            reason = self._check(net, opts, outcome)
            if reason:
                failures[name] = reason
        prints = check_repeats(self.reference, outcomes, names, failures)
        self.reference = self.reference or prints
        return PassResult(wall, rec, len(self.jobs), failures)

    def _check(self, net, opts, outcome) -> str:
        """Why a fit fails its checks, or an empty string."""
        if isinstance(outcome, str):
            return f"raised {outcome}"
        if opts is None:
            beliefs, log_ev = outcome.result
            ref = self._one_sweep(net)
            err = max(belief_l1(beliefs, ref.beliefs), abs(log_ev - ref.log_evidence))
            return "" if err <= BK_BOUND else \
                f"differs from one sequential loopy sweep by {err:.3e}"
        res = outcome.result
        marginals, log_z = self._truth(net)
        errors = (belief_l1(res.beliefs, marginals), abs(res.log_evidence - log_z))
        bounds = EXACT_BOUND[opts.damping < 1.0]
        if all(e <= b for e, b in zip(errors, bounds)):
            return ""
        return (f"(belief, evidence) error ({errors[0]:.3e}, {errors[1]:.3e}) "
                f"against exact inference above {bounds}")

    def _truth(self, net):
        if id(net) not in self.truth:
            joint = math.prod(c for _, c in net.variables)
            self.truth[id(net)] = enumerate_discrete(net) \
                if joint <= ENUMERATION_BOUND else exact_tree(net)
        return self.truth[id(net)]

    def _one_sweep(self, net):
        if id(net) not in self.one_sweep:
            self.one_sweep[id(net)] = loopy_ep(net, EPOptions(max_sweeps=1))
        return self.one_sweep[id(net)]


def belief_l1(beliefs: dict, reference: dict) -> float:
    """Largest per-variable L1 distance between two belief sets."""
    return max(float(np.sum(np.abs(beliefs[v] - reference[v]))) for v in reference)


def exact_tree(net) -> tuple[dict, float]:
    """Exact marginals and log partition of a graph whose factors have one or
    two variables and whose pairwise factors form a spanning tree, by
    two-pass sum-product elimination from the first variable."""
    cards = dict(net.variables)
    unary = {v: np.ones(c) for v, c in cards.items()}
    nbrs: dict[str, list] = {v: [] for v in cards}  # v -> [(u, table[x_v, x_u])]
    for f in net.factors:
        table = f.table.reshape([cards[v] for v in f.scope])
        if len(f.scope) == 1:
            unary[f.scope[0]] = unary[f.scope[0]] * table
        elif len(f.scope) == 2:
            a, b = f.scope
            nbrs[a].append((b, table))
            nbrs[b].append((a, table.T))
        else:
            raise ValueError(f"factor {f.id!r} has more than two variables")
    if sum(len(n) for n in nbrs.values()) != 2 * (len(cards) - 1):
        raise ValueError("pairwise factors do not form a spanning tree")

    root = net.variables[0][0]
    parent: dict[str, str | None] = {root: None}
    order = [root]
    for v in order:  # breadth first; the list grows while it is walked
        for u, _ in nbrs[v]:
            if u == parent[v]:
                continue
            if u in parent:
                raise ValueError("pairwise factors form a cycle")
            parent[u] = v
            order.append(u)
    if len(order) != len(cards):
        raise ValueError("pairwise factors do not connect every variable")
    children = {v: [(u, t) for u, t in nbrs[v] if u != parent[v]] for v in cards}

    # upward: normalized child -> parent messages, scales summed into log Z
    log_z = 0.0
    up: dict[str, np.ndarray] = {}
    inner = {v: unary[v].copy() for v in cards}
    for v in reversed(order):
        for u, _ in children[v]:
            inner[v] = inner[v] * up[u]
            s = float(inner[v].sum())
            log_z += math.log(s)
            inner[v] /= s
        if parent[v] is not None:
            table = next(t for u, t in nbrs[v] if u == parent[v])
            msg = inner[v] @ table
            s = float(msg.sum())
            log_z += math.log(s)
            up[v] = msg / s
    log_z += math.log(float(inner[root].sum()))

    # downward: parent -> child messages exclude that child's own message
    down = {root: np.ones(cards[root])}
    marginals = {}
    for v in order:
        base = unary[v] * down[v]
        full = base.copy()
        for u, _ in children[v]:
            full = full * up[u]
        marginals[v] = full / full.sum()
        for u, table in children[v]:
            rest = base.copy()
            for w, _ in children[v]:
                if w != u:
                    rest = rest * up[w]
            msg = table.T @ rest
            down[u] = msg / msg.sum()
    return marginals, log_z
