"""Discrete factor graphs: loading, Boyen-Koller passes, loopy propagation,
tree exactness, and message/belief bookkeeping."""
import dataclasses
import json
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.engine import EPOptions, Schedule
from epkit.factorgraph import (
    ContradictoryEvidenceError,
    ContradictoryMessagesError,
    DiscreteFactorGraph,
    Factor,
    LoopyResult,
    Message,
    MessageSet,
    _factor_shape,
    _sum,
    _tilted,
    belief,
    bk_adf,
    load_network,
    loopy_ep,
)
from epkit.experiments import frustrated_cycle_network, random_tree_network
from epkit.oracles import VanishingMassError, enumerate_discrete


SCHEDULES = (Schedule("sequential"), Schedule("random", seed=3))


def unary_net(table=(0.3, 0.7)):
    return DiscreteFactorGraph(variables=(("a", 2),),
                               factors=(Factor("f", ("a",), list(table)),))


class TestLoadNetwork:
    def test_single_unary(self):
        net = load_network({"variables": [{"id": "a", "cardinality": 2}],
                            "factors": [{"id": "f", "scope": ["a"],
                                         "table": [0.3, 0.7]}]})
        assert net.cardinality("a") == 2
        assert len(net.factors) == 1

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            load_network({"variables": [{"id": "a", "cardinality": 2}],
                          "factors": [{"id": "f", "scope": ["b"],
                                       "table": [1.0, 1.0]}]})

    def test_three_variable_chain(self):
        doc = {
            "variables": [{"id": v, "cardinality": 2} for v in "abc"],
            "factors": [
                {"id": "pa", "scope": ["a"], "table": [0.6, 0.4]},
                {"id": "pba", "scope": ["a", "b"], "table": [0.9, 0.1, 0.2, 0.8]},
                {"id": "pcb", "scope": ["b", "c"], "table": [0.7, 0.3, 0.5, 0.5]},
            ],
        }
        net = load_network(doc)
        assert len(net.factors) == 3

    def test_from_dict_and_path(self, tmp_path):
        doc = {"variables": [{"id": "a", "cardinality": 3}],
               "factors": [{"id": "f", "scope": ["a"], "table": [1, 2, 3]}]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        net_dict, net_file = load_network(doc), load_network(path)
        assert net_dict.variables == net_file.variables
        assert np.array_equal(net_dict.factors[0].table, net_file.factors[0].table)

    @pytest.mark.parametrize("table", [[1.0], [0.0, 0.0], [1.0, -1.0]])
    def test_bad_tables(self, table):
        with pytest.raises(ValueError):
            DiscreteFactorGraph(variables=(("a", 2),),
                                factors=(Factor("f", ("a",), table),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="'pab' has non-finite"):
            DiscreteFactorGraph(variables=(("a", 2), ("b", 2)),
                                factors=(Factor("pa", ("a",), [0.5, 0.5]),
                                         Factor("pab", ("a", "b"),
                                                [1.0, bad, 1.0, 1.0])))

    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError, match="empty scope"):
            DiscreteFactorGraph(variables=(("a", 2),),
                                factors=(Factor("f", (), [2.0]),))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DiscreteFactorGraph(variables=(("a", 2), ("a", 3)), factors=())
        with pytest.raises(ValueError, match="duplicate"):
            DiscreteFactorGraph(
                variables=(("a", 2),),
                factors=(Factor("f", ("a",), [1.0, 1.0]),
                         Factor("f", ("a",), [2.0, 1.0])))


class TestLookups:
    def test_incident_in_graph_order(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("b", 3), ("loose", 2)),
            factors=(Factor("fb", ("b",), [1.0, 2.0, 3.0]),
                     Factor("fab", ("a", "b"), np.ones(6)),
                     Factor("fa", ("a",), [1.0, 2.0]),
                     Factor("fba", ("b", "a"), np.ones(6))))
        assert [f.id for f in net.incident("a")] == ["fab", "fa", "fba"]
        assert [f.id for f in net.incident("b")] == ["fb", "fab", "fba"]
        assert net.incident("loose") == []
        assert net.cardinality("b") == 3
        with pytest.raises(KeyError):
            net.cardinality("zz")

    def test_incident_result_does_not_alias_the_graph(self):
        net = random_tree_network(5, 3, 1)
        net.incident("v0").clear()
        assert [f.id for f in net.incident("v0")] == [
            f.id for f in net.factors if "v0" in f.scope]

    def test_equality_and_replace_ignore_cached_lookups(self):
        net = random_tree_network(6, 3, 2)
        same = DiscreteFactorGraph(variables=net.variables, factors=net.factors)
        assert same == net
        assert dataclasses.replace(net) == net
        assert "_incident" not in repr(net) and "_cards" not in repr(net)
        # replace() rebuilds the lookups from the new fields
        fewer = dataclasses.replace(net, factors=net.factors[:1])
        assert fewer != net
        assert fewer.incident("v1") == []
        wider = dataclasses.replace(
            net, variables=net.variables + (("extra", 5),))
        assert wider.cardinality("extra") == 5
        assert wider.incident("extra") == []
        with pytest.raises(KeyError):
            net.cardinality("extra")

    def test_loopy_lookups_per_fit_not_per_sweep(self, monkeypatch):
        # the graph's lookups are read while a fit is set up, never per visit
        calls = {"incident": 0, "cardinality": 0}
        for name in calls:
            original = getattr(DiscreteFactorGraph, name)

            def counted(self, vid, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, vid)
            monkeypatch.setattr(DiscreteFactorGraph, name, counted)
        net = random_tree_network(64, 4, 7)
        counts = []
        for sweeps in (1, 10):
            calls.update(incident=0, cardinality=0)
            # damped messages never settle bit for bit, so every sweep runs
            res = loopy_ep(net, EPOptions(tolerance=1e-300, max_sweeps=sweeps,
                                          damping=0.5,
                                          schedule=Schedule("random", 7)))
            assert res.sweeps == sweeps
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["incident"] > 0 and counts[0]["cardinality"] > 0


class TestBkAdf:
    def test_single_unary_uniform_measure_convention(self):
        beliefs, log_ev = bk_adf(unary_net())
        assert np.allclose(beliefs["a"], [0.3, 0.7], atol=1e-15)
        assert log_ev == pytest.approx(0.0, abs=1e-12)  # Z = 1: table sums to 1

    def test_fully_independent_network_exact(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("b", 3)),
            factors=(Factor("fa", ("a",), [1.0, 3.0]),
                     Factor("fb", ("b",), [2.0, 2.0, 4.0])))
        beliefs, log_ev = bk_adf(net)
        marg, log_z = enumerate_discrete(net)
        for v in ("a", "b"):
            assert np.allclose(beliefs[v], marg[v], atol=1e-14)
        assert log_ev == pytest.approx(log_z, abs=1e-12)

    def test_step_semantics_on_chain(self):
        # after each factor the in-scope beliefs are the tilted marginals
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("b", 2)),
            factors=(Factor("fa", ("a",), [2.0, 1.0]),
                     Factor("fab", ("a", "b"), [1.0, 2.0, 3.0, 1.0])))
        beliefs, log_ev = bk_adf(net)
        marg, log_z = enumerate_discrete(net)
        # topological order on a tree: final beliefs exact here
        for v in ("a", "b"):
            assert np.allclose(beliefs[v], marg[v], atol=1e-14)
        assert log_ev == pytest.approx(log_z, abs=1e-12)

    def test_untouched_variable_contributes_cardinality(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("loose", 3)),
            factors=(Factor("fa", ("a",), [0.5, 0.5]),))
        _, log_ev = bk_adf(net)
        _, log_z = enumerate_discrete(net)
        assert log_ev == pytest.approx(log_z, abs=1e-12)
        assert log_ev == pytest.approx(math.log(3.0), abs=1e-12)

    def test_contradictory_evidence_names_factor(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2),),
            factors=(Factor("obs1", ("a",), [1.0, 0.0]),
                     Factor("obs2", ("a",), [0.0, 1.0])))
        with pytest.raises(ContradictoryEvidenceError, match="obs2"):
            bk_adf(net)


class TestLoopyEp:
    def test_single_factor_exact_after_one_sweep(self):
        res = loopy_ep(unary_net(), EPOptions(max_sweeps=1))
        assert np.allclose(res.beliefs["a"], [0.3, 0.7], atol=1e-15)
        assert res.log_evidence == pytest.approx(0.0, abs=1e-12)

    def test_tree_exactness(self):
        for seed in range(8):
            net = random_tree_network(7, 4, seed)
            marg, log_z = enumerate_discrete(net)
            res = loopy_ep(net, EPOptions(tolerance=1e-13, max_sweeps=60))
            assert res.converged
            for v, _ in net.variables:
                assert np.allclose(res.beliefs[v], marg[v], atol=1e-10)
            assert res.log_evidence == pytest.approx(log_z, abs=1e-10)

    def test_first_sequential_sweep_equals_bk_adf(self):
        for seed in (0, 1):
            net = random_tree_network(6, 3, seed)
            adf_beliefs, _ = bk_adf(net)
            res = loopy_ep(net, EPOptions(max_sweeps=1))
            for v, _ in net.variables:
                assert np.allclose(res.beliefs[v], adf_beliefs[v], atol=1e-12)
        # also on a cyclic graph
        net = frustrated_cycle_network()
        adf_beliefs, _ = bk_adf(net)
        res = loopy_ep(net, EPOptions(max_sweeps=1))
        for v, _ in net.variables:
            assert np.allclose(res.beliefs[v], adf_beliefs[v], atol=1e-12)

    def test_first_random_sweep_equals_bk_adf_same_order(self):
        # a random first sweep is BK-ADF over the factors permuted the same way
        for seed in (5, 17, 23):
            net = random_tree_network(6, 3, seed)
            sched = Schedule("random", seed=seed)
            order = next(sched.orders(len(net.factors)))
            permuted = dataclasses.replace(
                net, factors=tuple(net.factors[i] for i in order))
            adf_beliefs, _ = bk_adf(permuted)
            res = loopy_ep(net, EPOptions(max_sweeps=1, schedule=sched))
            for v, _ in net.variables:
                assert np.allclose(res.beliefs[v], adf_beliefs[v], atol=1e-12)

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    def test_contradictory_evidence_raises_like_bk_adf(self, damping):
        # obs1's message holds an exact zero, so obs2's tilted normalizer is 0
        net = DiscreteFactorGraph(
            variables=(("a", 2),),
            factors=(Factor("obs1", ("a",), [1.0, 0.0]),
                     Factor("obs2", ("a",), [0.0, 1.0])))
        with pytest.raises(ContradictoryEvidenceError, match="obs2"):
            bk_adf(net)
        with pytest.raises(ContradictoryEvidenceError, match="obs2"):
            loopy_ep(net, EPOptions(damping=damping))

    def test_three_variable_factor_on_a_tree_is_exact(self):
        # a tree-shaped factor graph whose factors have one, two and three
        # variables, so loopy_ep runs the generic contraction as well as the
        # pairwise one
        rng = np.random.default_rng(3)
        cards = {"a": 2, "b": 3, "c": 2, "d": 4, "e": 3, "g": 2}
        scopes = {"pa": ("a",), "fabc": ("a", "b", "c"), "fcd": ("c", "d"),
                  "fbeg": ("b", "e", "g"), "pd": ("d",)}
        net = DiscreteFactorGraph(
            variables=tuple(cards.items()),
            factors=tuple(Factor(fid, scope, rng.uniform(
                0.1, 2.0, size=math.prod(cards[v] for v in scope)))
                for fid, scope in scopes.items()))
        marg, log_z = enumerate_discrete(net)
        for damping in (1.0, 0.5):
            res = loopy_ep(net, EPOptions(tolerance=1e-13, max_sweeps=200,
                                          damping=damping))
            assert res.converged
            for v in cards:
                assert np.allclose(res.beliefs[v], marg[v], atol=1e-12)
            assert res.log_evidence == pytest.approx(log_z, abs=1e-12)

    @pytest.mark.parametrize("n_vars", [2, 5, 16, 64])
    def test_undamped_tree_settles_exactly(self, n_vars):
        # an undamped message does not depend on its log scale, so on a tree
        # every message stops changing at all within a sweep per level
        for seed in range(6):
            net = random_tree_network(n_vars, 4, seed)
            res = loopy_ep(net, EPOptions(tolerance=1e-300, max_sweeps=200))
            assert res.converged
            assert res.sweeps <= tree_diameter(net) + 2

    def test_frustrated_cycle_reported(self):
        net = frustrated_cycle_network()
        res = loopy_ep(net, EPOptions(tolerance=1e-8, max_sweeps=40))
        # accuracy is not asserted here, only honest reporting of the orbit
        print(f"frustrated 3-cycle undamped: converged={res.converged} "
              f"sweeps={res.sweeps}")
        assert not res.converged
        assert res.sweeps == 40
        damped = loopy_ep(net, EPOptions(tolerance=1e-8, max_sweeps=400,
                                         damping=0.5))
        print(f"frustrated 3-cycle damping 0.5: converged={damped.converged} "
              f"sweeps={damped.sweeps}")
        assert damped.converged

    def test_beliefs_normalized_and_consistent_with_messages(self):
        net = random_tree_network(6, 4, 2)
        res = loopy_ep(net, EPOptions(tolerance=1e-10, max_sweeps=50))
        for v, _ in net.variables:
            assert float(np.sum(res.beliefs[v])) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(belief(net, res.messages, v), res.beliefs[v],
                               atol=1e-12)

    def test_hard_evidence_keeps_exact_zeros(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("b", 2)),
            factors=(Factor("obs", ("a",), [1.0, 0.0]),  # hard evidence
                     Factor("fab", ("a", "b"), [1.0, 2.0, 3.0, 1.0])))
        res = loopy_ep(net, EPOptions(tolerance=1e-10, max_sweeps=30))
        marg, log_z = enumerate_discrete(net)
        assert res.messages[("obs", "a")].values[1] == 0.0
        assert np.array_equal(marg["a"], [1.0, 0.0])
        assert np.array_equal(res.beliefs["a"], marg["a"])
        assert res.log_evidence == pytest.approx(log_z, abs=1e-12)
        assert res.floor_events > 0

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["sequential", "random3"])
    @pytest.mark.parametrize("damping", [1.0, 0.5])
    def test_zero_mass_past_one_hop_raises_like_bk_adf(self, damping,
                                                       schedule):
        # u3 rules out v3 = 1, so e13 forces v1 = 1, which e01 allows only
        # with v0 = 0, which u0 rules out: the factor product is zero at
        # every joint state
        net = DiscreteFactorGraph(
            variables=(("v0", 2), ("v1", 2), ("v2", 3), ("v3", 2)),
            factors=(Factor("u0", ("v0",), [0.0, 0.5]),
                     Factor("u3", ("v3",), [1.0, 0.0]),
                     Factor("e01", ("v0", "v1"), [1.0, 0.5, 1.0, 0.0]),
                     Factor("e02", ("v0", "v2"), [1.0, 0.5, 2.0, 0.5, 0.2, 2.0]),
                     Factor("e13", ("v1", "v3"), [0.0, 1.5, 2.0, 0.5])))
        with pytest.raises(ContradictoryEvidenceError, match="e13"):
            bk_adf(net)
        with pytest.raises(ContradictoryEvidenceError, match="e13"):
            loopy_ep(net, EPOptions(damping=damping, schedule=schedule))

    @pytest.mark.parametrize("damping", [0.5, 0.2])
    def test_damped_fit_waits_for_its_log_scale(self, damping):
        # the message values are exact after one visit, but a damped log
        # scale, which carries the evidence, moves on geometrically
        net = DiscreteFactorGraph(
            variables=(("a", 3), ("b", 2)),
            factors=(Factor("ab", ("a", "b"), [0.0, 0.0, 0.8, 0.0, 0.0, 0.0]),))
        res = loopy_ep(net, EPOptions(damping=damping))
        assert res.converged
        assert res.log_evidence == pytest.approx(math.log(0.8), abs=1e-3)
        assert np.array_equal(res.beliefs["a"], [0.0, 1.0, 0.0])

    def test_value_relabeling_symmetry(self):
        net = random_tree_network(5, 3, 4)
        res = loopy_ep(net, EPOptions(tolerance=1e-12, max_sweeps=50))
        # permute the values of variable v1 inside every incident factor
        target = "v1"
        card = net.cardinality(target)
        perm = np.roll(np.arange(card), 1)
        factors = []
        for f in net.factors:
            if target in f.scope:
                shape = tuple(net.cardinality(v) for v in f.scope)
                axis = f.scope.index(target)
                table = f.table.reshape(shape)
                table = np.take(table, perm, axis=axis)
                factors.append(Factor(f.id, f.scope, table.ravel()))
            else:
                factors.append(f)
        net_p = DiscreteFactorGraph(variables=net.variables,
                                    factors=tuple(factors))
        res_p = loopy_ep(net_p, EPOptions(tolerance=1e-12, max_sweeps=50))
        assert np.allclose(res_p.beliefs[target], res.beliefs[target][perm],
                           atol=1e-12)
        assert res_p.log_evidence == pytest.approx(res.log_evidence, abs=1e-10)


def tree_diameter(net: DiscreteFactorGraph) -> int:
    """Longest path, in pairwise factors, between two variables of a graph
    whose pairwise factors form a tree."""
    adjacent = {v: [] for v, _ in net.variables}
    for f in net.factors:
        if len(f.scope) == 2:
            a, b = f.scope
            adjacent[a].append(b)
            adjacent[b].append(a)

    def farthest(start):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adjacent[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        end = max(dist, key=dist.get)
        return end, dist[end]

    return farthest(farthest(net.variables[0][0])[0])[1]


class TestTilted:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_pairwise_contraction_matches_generic_loop(self, k0, k1, seed,
                                                       zero_entries):
        # a trailing axis of size one, against a cavity [1.0], sends the same
        # table through the generic loop
        rng = np.random.default_rng(seed)
        joint = rng.uniform(0.0, 2.0, size=(k0, k1))
        cavities = [rng.dirichlet(np.ones(k)) for k in (k0, k1)]
        if zero_entries:
            for cav in cavities:
                cav[rng.integers(len(cav))] = 0.0
        z, partial = _tilted(joint, cavities)
        z_loop, partial_loop = _tilted(joint[:, :, None], cavities + [np.ones(1)])
        assert z == pytest.approx(z_loop, abs=1e-14)
        for got, want in zip(partial, partial_loop):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-14)


    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_contractions_match_matmul_bitwise(self, rank):
        # ndarray.dot makes the BLAS call of `@`: every pair of pairwise
        # cardinalities 1-10 (random ones at other ranks), with and without
        # zero cavity entries
        rng = np.random.default_rng(rank)
        shapes = [(k0, k1) for k0 in range(1, 11) for k1 in range(1, 11)] \
            if rank == 2 else [tuple(rng.integers(1, 11, size=rank)) for _ in range(100)]
        for shape in shapes:
            for zeros in (False, True):
                joint = rng.uniform(0.0, 2.0, size=shape)
                cavities = [rng.dirichlet(np.ones(k)) for k in shape]
                if zeros:
                    for cav in cavities:
                        cav[rng.random(len(cav)) < 0.4] = 0.0
                z, partial = _tilted(joint, cavities)
                if rank == 2:
                    want = [joint @ cavities[1], cavities[0] @ joint]
                    assert all(np.array_equal(g, w) for g, w in zip(partial, want))
                assert z == float(partial[0] @ cavities[0])


class TestBelief:
    def test_no_incident_factors_uniform(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("loose", 4)),
            factors=(Factor("fa", ("a",), [0.2, 0.8]),))
        res = loopy_ep(net, EPOptions(max_sweeps=2))
        assert np.allclose(belief(net, res.messages, "loose"), np.full(4, 0.25),
                           atol=1e-15)

    def test_single_message_passthrough(self):
        res = loopy_ep(unary_net((0.2, 0.8)), EPOptions(max_sweeps=2))
        assert np.allclose(belief(unary_net((0.2, 0.8)), res.messages, "a"),
                           [0.2, 0.8], atol=1e-12)

    def test_two_messages_pointwise_product(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2),),
            factors=(Factor("f1", ("a",), [0.5, 0.5]),
                     Factor("f2", ("a",), [0.1, 0.9])))
        res = loopy_ep(net, EPOptions(tolerance=1e-12, max_sweeps=20))
        assert np.allclose(res.beliefs["a"], [0.1, 0.9], atol=1e-12)

    def test_unknown_variable(self):
        net = unary_net()
        res = loopy_ep(net, EPOptions(max_sweeps=1))
        with pytest.raises(KeyError):
            belief(net, res.messages, "zz")

    def test_reads_only_the_requested_variable(self):
        net = random_tree_network(6, 3, 3)
        res = loopy_ep(net, EPOptions(tolerance=1e-10, max_sweeps=50))
        mine = {k: m for k, m in res.messages.items() if k[1] == "v2"}
        assert np.array_equal(belief(net, mine, "v2"), res.beliefs["v2"])

    def test_vanishing_message_product_raises(self):
        # messages with disjoint support: the belief product is all zero
        net = DiscreteFactorGraph(
            variables=(("a", 2),),
            factors=(Factor("obs1", ("a",), [1.0, 0.0]),
                     Factor("obs2", ("a",), [0.0, 1.0])))
        messages = {("obs1", "a"): Message(np.array([1.0, 0.0]), 0.0),
                    ("obs2", "a"): Message(np.array([0.0, 1.0]), 0.0)}
        with pytest.raises(ContradictoryMessagesError, match="'a'"):
            belief(net, messages, "a")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tree_exactness_property(seed):
    net = random_tree_network(5, 3, seed)
    marg, log_z = enumerate_discrete(net)
    res = loopy_ep(net, EPOptions(tolerance=1e-13, max_sweeps=60))
    assert res.converged
    for v, _ in net.variables:
        assert np.allclose(res.beliefs[v], marg[v], atol=1e-10)
    assert res.log_evidence == pytest.approx(log_z, abs=1e-10)


@st.composite
def zero_laden_graphs(draw):
    """A tree of 2-5 variables of cardinality 2-3, or that tree with one more
    edge that closes a cycle, with pairwise tables on its edges and some
    unary tables in a drawn order; about 40% of all table entries are
    exactly zero.  Returns the graph and whether it is a tree."""
    n = draw(st.integers(min_value=2, max_value=5))
    cards = draw(st.lists(st.integers(min_value=2, max_value=3),
                          min_size=n, max_size=n))
    edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i)
             for i in range(1, n)]
    chords = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in edges]
    tree = not chords or draw(st.booleans())
    if not tree:
        edges.append(draw(st.sampled_from(chords)))
    scopes = draw(st.permutations(
        [(i,) for i in range(n) if draw(st.booleans())] + edges))

    factors = []
    for k, scope in enumerate(scopes):
        size = math.prod(cards[i] for i in scope)
        table = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 0.0, 2.0]),
                              min_size=size, max_size=size))
        if not any(table):
            table[0] = 1.0
        factors.append(Factor(f"f{k}", tuple(f"v{i}" for i in scope), table))
    net = DiscreteFactorGraph(
        variables=tuple((f"v{i}", c) for i, c in enumerate(cards)),
        factors=tuple(factors))
    return net, tree


@settings(max_examples=300, deadline=None, derandomize=True)
@given(zero_laden_graphs())
def test_exact_zeros_property(case):
    # wherever bk_adf meets a zero normalizer, the first loopy sweep does too
    net, tree = case
    try:
        bk_adf(net)
    except ContradictoryEvidenceError as err:
        with pytest.raises(ContradictoryEvidenceError) as got:
            loopy_ep(net)
        assert str(got.value) == str(err)
    if not tree:
        return
    try:
        marg, log_z = enumerate_discrete(net)
    except VanishingMassError:
        marg = None
    for damping in (1.0, 0.5):
        for schedule in SCHEDULES:
            opts = EPOptions(tolerance=1e-12, max_sweeps=500, damping=damping,
                             schedule=schedule)
            if marg is None:  # no mass anywhere: a named error, not a fit
                with pytest.raises((ContradictoryEvidenceError,
                                    ContradictoryMessagesError)):
                    loopy_ep(net, opts)
                continue
            res = loopy_ep(net, opts)
            assert res.converged
            for v, _ in net.variables:
                assert np.allclose(res.beliefs[v], marg[v], rtol=0.0, atol=1e-8)
                assert np.all(res.beliefs[v][marg[v] == 0.0] == 0.0)
            assert res.log_evidence == pytest.approx(log_z, abs=1e-8)


# ---------------------------------------------------------------------------
# Array reference: the loopy_ep visit as whole-array numpy code, verbatim but
# for the names of its helpers.  The fit's float reductions must give its
# bits exactly.
# ---------------------------------------------------------------------------

def reference_exp_normalize(log_a: np.ndarray) -> tuple[np.ndarray | None, float]:
    """exp(log_a) scaled to sum 1, and log(sum(exp(log_a))), from one exp.
    A maximum that is not finite is returned with None: every entry -inf
    gives (None, -inf)."""
    top = float(log_a.max())
    if not math.isfinite(top):
        return None, top
    e = np.exp(log_a - top)
    s = float(e.sum())
    return e / s, top + math.log(s)


def reference_belief(net: DiscreteFactorGraph, messages: MessageSet,
                     vid: str) -> np.ndarray:
    """Normalized product of all messages into one variable; uniform when no
    factor touches it."""
    log_b = np.zeros(net.cardinality(vid))
    with np.errstate(divide="ignore"):  # zero message entries -> -inf
        for f in net.incident(vid):
            log_b = log_b + np.log(messages[(f.id, vid)].values)
    values, lse = reference_exp_normalize(log_b)
    if lse == -math.inf:
        raise ContradictoryMessagesError(f"contradictory messages at {vid!r}")
    return values


def reference_loopy_ep(net: DiscreteFactorGraph,
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
                            log_c = log_c + logs[key]
                        cavity, lse = reference_exp_normalize(log_c)
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
                        log_old = np.log(values[key]) + scales[key]
                        log_new = np.log(ps) + share_z
                        new, log_scale = reference_exp_normalize(
                            (1.0 - damping) * log_old + damping * log_new)
                        max_change = max(max_change, abs(log_scale - scales[key]))
                    else:
                        total = float(ps.sum())
                        new, log_scale = ps / total, math.log(total) + share_z
                    floor_events += new.size - int(np.count_nonzero(new))
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
    beliefs = {v: reference_belief(net, messages, v) for v, _ in net.variables}
    log_evidence = reference_evidence_from_messages(net, messages)
    return LoopyResult(beliefs=beliefs, messages=messages, converged=converged,
                       log_evidence=log_evidence, sweeps=sweeps,
                       floor_events=floor_events, operations=operations)


def reference_evidence_from_messages(net: DiscreteFactorGraph,
                                     messages: MessageSet) -> float:
    """Integral of the product of all term approximations: per variable,
    log-sum-exp of the summed incoming log message totals."""
    total = 0.0
    for v, c in net.variables:
        log_b = np.zeros(c)
        for f in net.incident(v):
            msg = messages[(f.id, v)]
            with np.errstate(divide="ignore"):  # an exact zero -> -inf
                log_b = log_b + (np.log(msg.values) + msg.log_scale)
        total += reference_exp_normalize(log_b)[1]
    return total


# 0.3 as well as 0.5: a factor of 0.5 is exact, so it hides a reordered blend
DAMPINGS = (1.0, 0.5, 0.3)


def fit_outcome(fit, net, opts):
    """A fit's result, or the type and message of the named error it ends in."""
    try:
        return fit(net, opts)
    except (ContradictoryEvidenceError, ContradictoryMessagesError) as exc:
        return type(exc), str(exc)


def assert_same_bits(net, opts):
    got = fit_outcome(loopy_ep, net, opts)
    want = fit_outcome(reference_loopy_ep, net, opts)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.messages.keys() == want.messages.keys()
    for key, msg in want.messages.items():
        assert got.messages[key].values.tobytes() == msg.values.tobytes(), key
        assert float(got.messages[key].log_scale).hex() \
            == float(msg.log_scale).hex(), key
    assert got.beliefs.keys() == want.beliefs.keys()
    for v, b in want.beliefs.items():
        assert got.beliefs[v].tobytes() == b.tobytes(), v
    assert float(got.log_evidence).hex() == float(want.log_evidence).hex()
    assert (got.sweeps, got.converged, got.floor_events, got.operations) \
        == (want.sweeps, want.converged, want.floor_events, want.operations)


class TestArrayReference:
    @pytest.mark.parametrize("n_vars, sweeps", [(8, 8), (64, 14), (256, 14)])
    def test_ladder_fits(self, n_vars, sweeps):
        # the loopy-ladder benchmark's options: a fixed number of sweeps, and
        # a damped fit on a random schedule
        for seed in (1, 2):
            net = random_tree_network(n_vars, 4, seed)
            assert_same_bits(net, EPOptions(tolerance=1e-300, max_sweeps=sweeps))
            assert_same_bits(net, EPOptions(
                tolerance=1e-300, max_sweeps=34, damping=0.5,
                schedule=Schedule("random", seed)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(zero_laden_graphs())
    def test_zero_laden_graphs(self, case):
        for damping in DAMPINGS:
            for schedule in SCHEDULES:
                assert_same_bits(case[0], EPOptions(
                    tolerance=1e-12, max_sweeps=200, damping=damping,
                    schedule=schedule))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cardinalities_up_to_12(self, seed):
        # messages and cavities of 8 or more entries, which numpy sums
        # pairwise
        net = random_tree_network(20, 12, seed)
        assert max(c for _, c in net.variables) >= 8
        for damping in DAMPINGS:
            assert_same_bits(net, EPOptions(tolerance=1e-12, damping=damping,
                                            schedule=SCHEDULES[1]))

    @pytest.mark.parametrize("damping", DAMPINGS)
    def test_frustrated_cycle(self, damping):
        assert_same_bits(frustrated_cycle_network(), EPOptions(damping=damping))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_sum_is_numpy_sum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(300):
            a = rng.random(n) * 10.0 ** rng.integers(-12, 12, size=n)
            assert _sum(a.tolist()).hex() == float(np.sum(a)).hex()
