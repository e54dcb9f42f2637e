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
    Message,
    _tilted,
    belief,
    bk_adf,
    load_network,
    loopy_ep,
)
from epkit.experiments import frustrated_cycle_network, random_tree_network
from epkit.oracles import enumerate_discrete


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
        # floored messages never vanish, so only the zero masks catch this
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

    def test_message_positivity(self):
        net = DiscreteFactorGraph(
            variables=(("a", 2), ("b", 2)),
            factors=(Factor("obs", ("a",), [1.0, 0.0]),  # hard evidence
                     Factor("fab", ("a", "b"), [1.0, 2.0, 3.0, 1.0])))
        res = loopy_ep(net, EPOptions(tolerance=1e-10, max_sweeps=30))
        for msg in res.messages.values():
            assert np.all(msg.values > 0.0)
        assert res.floor_events > 0

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
