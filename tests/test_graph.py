import dataclasses
import json

import numpy as np
import pytest

from opinion_lab import (
    Model,
    OpinionState,
    SccClass,
    adjacency_matrix,
    build_digraph,
    classify,
    simulate,
    strongly_connected_components,
)
from opinion_lab.dynamics import Epoch
from opinion_lab.experiment import draw_state
from opinion_lab.graph import ProximityDigraph, _distances, _neighbor_mask, weak_components
from opinion_lab.stability import (
    equi_topology_distance,
    invariant_equi_topology_distance,
    is_agreement_vector,
)

from conftest import (
    closure_invariant_equi_topology_distance,
    closure_weak_components,
    condensation_oracle,
    digraph_json_oracle,
    digraph_oracle,
    edge_states,
    epoch_start_states,
    grid_state,
    neighbor_lists,
    open_wccs_oracle,
    random_state,
    reachability_oracle,
    reference_adjacency_matrix,
    tuple_strongly_connected_components,
)


def complete_digraph(n):
    return ProximityDigraph(np.ones((n, n), dtype=bool))


def self_loop_digraph(n):
    return ProximityDigraph(np.eye(n, dtype=bool))


def path_digraph(n):
    return ProximityDigraph(np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool))


def constant_on_each(y, components):
    """Whether ``y`` holds one opinion on each of ``components``."""
    return all(len(set(y[list(w)].tolist())) == 1 for w in components)


def agreement_on(g, y):
    """``is_agreement_vector`` of opinions ``y`` over the digraph ``g``, which
    need not be the digraph of any bounds."""
    return is_agreement_vector(Epoch(0, OpinionState(y, np.ones(len(y))), g))


def late_sbi_states(runs=4):
    """Every state of some SBI n = 300 runs: dense, clustered, and each one
    the start of an epoch."""
    states = []
    for run in range(runs):
        traj = simulate(draw_state(Model.SBI, 300, run, 0))
        states.extend(traj.state_at_index(k) for k in range(len(traj.times)))
    return states


class TestBuildDigraph:
    def test_three_agent_neighbor_sets(self, fig41_state):
        g = build_digraph(fig41_state)
        assert neighbor_lists(g) == ((0,), (0, 1, 2), (2,))

    def test_single_agent(self):
        g = build_digraph(OpinionState([0.3], [0.1]))
        assert neighbor_lists(g) == ((0,),)

    def test_eight_agent_neighbor_sets(self, fig62_state):
        g = build_digraph(fig62_state)
        expected = digraph_oracle(fig62_state)
        assert neighbor_lists(g) == expected
        assert neighbor_lists(g)[7] == tuple(range(8))
        assert neighbor_lists(g)[4] == (0, 1, 4, 5)
        assert neighbor_lists(g)[6] == (2, 3, 6)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            state = random_state(rng)
            g = build_digraph(state)
            assert neighbor_lists(g) == digraph_oracle(state)

    def test_self_membership(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            state = random_state(rng)
            g = build_digraph(state)
            assert all(i in neighbor_lists(g)[i] for i in range(state.n))

    def test_homogeneous_bounds_make_models_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            y = rng.uniform(0, 1, n)
            r = np.full(n, float(rng.uniform(0.05, 0.5)))
            sbc = build_digraph(OpinionState(y, r, Model.SBC))
            sbi = build_digraph(OpinionState(y, r, Model.SBI))
            assert neighbor_lists(sbc) == neighbor_lists(sbi)

    def test_boundary_tolerance(self):
        state = OpinionState([0.0, 0.2500000001], [0.25, 0.25])
        assert neighbor_lists(build_digraph(state)) == ((0,), (1,))

    def test_json_export(self, fig41_state):
        data = json.loads(build_digraph(fig41_state).to_json())
        assert data["n"] == 3
        assert [0, 0] in data["edges"]
        assert [1, 0] in data["edges"]
        assert [0, 1] not in data["edges"]


class TestProximityDigraph:
    @pytest.mark.parametrize(
        "mask",
        [
            np.ones((2, 3), dtype=bool),
            np.ones(3, dtype=bool),
            np.zeros((0, 0), dtype=bool),
            np.ones((3, 3), dtype=bool) & ~np.eye(3, dtype=bool),
            np.array([[True, True], [True, False]]),
        ],
        ids=["non-square", "one-dimensional", "empty", "no-diagonal", "one-self-loop-missing"],
    )
    def test_rejects_invalid_masks(self, mask):
        with pytest.raises(ValueError):
            ProximityDigraph(mask)

    def test_equal_states_give_equal_digraphs(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            state = random_state(rng)
            a, b = build_digraph(state), build_digraph(state.with_opinions(state.opinions.copy()))
            assert a is not b and a.mask is not b.mask
            assert a == b
            assert hash(a) == hash(b)
        assert complete_digraph(3) != self_loop_digraph(3)

    def test_the_mask_alone_decides_equality_and_hash(self):
        assert [f.name for f in dataclasses.fields(ProximityDigraph)] == ["mask"]
        a = complete_digraph(3)
        b = ProximityDigraph(np.ones((3, 3), dtype=np.int8))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((3, np.packbits(a.mask).tobytes()))
        assert self_loop_digraph(2) != self_loop_digraph(3)
        assert path_digraph(3) != ProximityDigraph(path_digraph(3).mask.T)
        assert len({complete_digraph(3), b, path_digraph(3), self_loop_digraph(3)}) == 3

    @staticmethod
    def moved(rng, y):
        """The opinions themselves, a copy, a permutation, a fresh draw in
        their range, and each agent one ulp up or down, which breaks the
        boundary ties of tied states."""
        yield y
        yield y.copy()
        yield rng.permutation(y)
        yield rng.uniform(y.min(), y.max(), len(y))
        for i in range(len(y)):
            x = y.copy()
            x[i] = np.nextafter(x[i], np.inf if rng.random() < 0.5 else -np.inf)
            yield x

    def test_at_is_this_digraph_iff_the_mask_is_kept(self):
        rng = np.random.default_rng(229)
        states = list(edge_states(rng))
        assert len(states) == 62
        states.extend(grid_state(rng) for _ in range(60))
        states.extend(epoch_start_states(rng, runs=2))
        kept = changed = 0
        for state in states:
            g, r, kind = build_digraph(state), state.bounds, state.kind
            for x in self.moved(rng, state.opinions):
                got, dist = g.at(x, r, kind)
                want = _neighbor_mask(_distances(x), r, kind)
                assert (got is g) == np.array_equal(want, g.mask)
                assert np.array_equal(got.mask, want) and np.array_equal(dist, _distances(x))
                kept, changed = kept + (got is g), changed + (got is not g)
        assert kept > 1000 and changed > 300


class TestDigraphJson:
    """The edge-list text joined from mask rows against ``json.dumps`` of
    the dict export it replaced: the same text, byte for byte."""

    def assert_same_text(self, digraphs):
        for g in digraphs:
            assert g.to_json() == digraph_json_oracle(g)

    def test_random_states(self):
        rng = np.random.default_rng(127)
        self.assert_same_text(
            build_digraph(random_state(rng, max_n=60, bounds_hi=0.2)) for _ in range(200)
        )

    def test_tied_and_duplicate_states(self):
        rng = np.random.default_rng(131)
        self.assert_same_text(build_digraph(grid_state(rng)) for _ in range(200))

    def test_single_agent(self):
        self.assert_same_text([self_loop_digraph(1), build_digraph(OpinionState([0.5], [0.1]))])
        assert self_loop_digraph(1).to_json() == '{"n": 1, "edges": [[0, 0]]}'

    def test_epoch_start_states(self):
        rng = np.random.default_rng(137)
        self.assert_same_text(build_digraph(s) for s in epoch_start_states(rng, runs=10))

    def test_dense_late_sbi_states(self):
        self.assert_same_text(build_digraph(s) for s in late_sbi_states(runs=1))

    def test_complete_and_path_digraphs(self):
        self.assert_same_text([complete_digraph(300), path_digraph(300), self_loop_digraph(12)])


class TestScc:
    def test_complete_graph_single_scc(self):
        assert strongly_connected_components(complete_digraph(3)) == [[0, 1, 2]]

    def test_self_loops_only_singletons(self):
        sccs = strongly_connected_components(self_loop_digraph(5))
        assert sorted(sccs) == [[i] for i in range(5)]

    def test_eight_agent_partition(self, fig62_state):
        sccs = strongly_connected_components(build_digraph(fig62_state))
        assert sorted(sccs) == [[0], [1], [2], [3], [4, 5], [6], [7]]

    def test_reverse_topological_order(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            state = random_state(rng)
            g = build_digraph(state)
            sccs = strongly_connected_components(g)
            position = {}
            for k, members in enumerate(sccs):
                for v in members:
                    position[v] = k
            for i in range(g.n):
                for j in neighbor_lists(g)[i]:
                    if position[i] != position[j]:
                        # Successor components must already be emitted.
                        assert position[j] < position[i]

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            state = random_state(rng)
            g = build_digraph(state)
            reach = reachability_oracle(g)
            sccs = strongly_connected_components(g)
            for members in sccs:
                for i in members:
                    for j in range(g.n):
                        same = reach[i, j] and reach[j, i]
                        assert same == (j in members)


class TestMaskTarjan:
    """Path-based SCCs over bitset mask rows against the tuple Tarjan: the
    same DFS, so the same SCCs in the same order."""

    def assert_same_sccs(self, digraphs):
        for g in digraphs:
            assert strongly_connected_components(g) == tuple_strongly_connected_components(g)

    def test_random_states(self):
        rng = np.random.default_rng(101)
        states = [random_state(rng, max_n=60, bounds_hi=0.2) for _ in range(300)]
        self.assert_same_sccs(build_digraph(s) for s in states)

    def test_tied_and_duplicate_states(self):
        rng = np.random.default_rng(103)
        self.assert_same_sccs(build_digraph(grid_state(rng)) for _ in range(300))

    def test_single_agent(self):
        self.assert_same_sccs([self_loop_digraph(1), build_digraph(OpinionState([0.5], [0.1]))])

    def test_epoch_start_states(self):
        rng = np.random.default_rng(107)
        self.assert_same_sccs(build_digraph(s) for s in epoch_start_states(rng))

    def test_dense_late_sbi_states(self):
        self.assert_same_sccs(build_digraph(s) for s in late_sbi_states())

    def test_random_masks(self):
        # Digraphs no proximity rule produces: no interval structure.
        rng = np.random.default_rng(109)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            mask = (rng.random((n, n)) < rng.uniform(0.0, 0.2)) | np.eye(n, dtype=bool)
            self.assert_same_sccs([ProximityDigraph(mask)])

    def test_denser_random_masks(self):
        rng = np.random.default_rng(127)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            mask = (rng.random((n, n)) < rng.uniform(0.02, 0.3)) | np.eye(n, dtype=bool)
            self.assert_same_sccs([ProximityDigraph(mask)])

    @pytest.mark.parametrize("digraph", [complete_digraph, path_digraph])
    def test_large_path_and_complete_digraphs(self, digraph):
        g = digraph(300)
        self.assert_same_sccs([g])
        # A path's sink, its last node, is emitted first.
        path = [[v] for v in range(299, -1, -1)]
        want = [list(range(300))] if digraph is complete_digraph else path
        assert strongly_connected_components(g) == want

    def test_partition_matches_scipy(self):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(113)
        states = [random_state(rng, max_n=60, bounds_hi=0.2) for _ in range(100)]
        states.extend(grid_state(rng) for _ in range(100))
        states.extend(late_sbi_states(runs=1))
        for state in states:
            g = build_digraph(state)
            _, labels = csgraph.connected_components(g.mask, directed=True, connection="strong")
            groups = {}
            for v, label in enumerate(labels.tolist()):
                groups.setdefault(label, []).append(v)
            assert sorted(strongly_connected_components(g)) == sorted(groups.values())


class TestClassify:
    def test_seventeen_agent_block_structure(self, seventeen_agent_state):
        c = classify(build_digraph(seventeen_agent_state))
        closed = sorted(
            len(m) for m, cl in zip(c.sccs, c.classes) if cl is SccClass.CLOSED
        )
        moderate = sorted(
            len(m) for m, cl in zip(c.sccs, c.classes) if cl is SccClass.MODERATE
        )
        open_agents = c.nodes_of_class(SccClass.OPEN)
        assert closed == [1, 2, 3]
        assert moderate == [3, 4]
        assert open_agents == [0, 8, 12, 16]
        # The caption's data yields one weakly connected open subgraph: the
        # wide-bound agent 0 listens to agent 8, 8 and 12 listen to each
        # other, and 12 listens to 16.
        assert c.open_wccs == ((0, 8, 12, 16),)

    def test_eight_agent_classes(self, fig62_state):
        c = classify(build_digraph(fig62_state))
        tags = {members: cl for members, cl in zip(c.sccs, c.classes)}
        assert tags[(0,)] is SccClass.CLOSED
        assert tags[(1,)] is SccClass.CLOSED
        assert tags[(2,)] is SccClass.CLOSED
        assert tags[(3,)] is SccClass.CLOSED
        assert tags[(4, 5)] is SccClass.OPEN
        assert tags[(6,)] is SccClass.OPEN
        assert tags[(7,)] is SccClass.OPEN
        assert not any(cl is SccClass.MODERATE for cl in c.classes)

    def test_single_agent_closed(self):
        c = classify(build_digraph(OpinionState([0.5], [0.1])))
        assert c.sccs == ((0,),)
        assert c.classes == (SccClass.CLOSED,)
        assert c.open_wccs == ()

    def test_partition_and_sink_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            state = random_state(rng)
            g = build_digraph(state)
            c = classify(g)
            nodes = sorted(v for members in c.sccs for v in members)
            assert nodes == list(range(state.n))
            # Closed-minded components are complete subgraphs.
            for members, cl in zip(c.sccs, c.classes):
                if cl is SccClass.CLOSED:
                    for i in members:
                        assert set(members) <= set(neighbor_lists(g)[i])
            # Sinks are exactly the non-open components.
            for k, cl in enumerate(c.classes):
                assert (len(c.condensation[k]) == 0) == (cl is not SccClass.OPEN)

    def test_open_wccs_match_node_level_oracle(self):
        rng = np.random.default_rng(31)
        states = [random_state(rng, max_n=40, bounds_hi=0.2) for _ in range(300)]
        states.extend(epoch_start_states(rng))
        for state in states:
            g = build_digraph(state)
            c = classify(g)
            assert c.open_wccs == open_wccs_oracle(g, c)
            assert c.condensation == condensation_oracle(g, c)
            assert adjacency_matrix(g).tobytes() == reference_adjacency_matrix(g).tobytes()

    def test_open_wccs_of_random_masks_match_node_level_oracle(self):
        # Digraphs with no interval structure, so open SCCs join in any pattern.
        rng = np.random.default_rng(37)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            mask = (rng.random((n, n)) < rng.uniform(0.0, 0.15)) | np.eye(n, dtype=bool)
            g = ProximityDigraph(mask)
            c = classify(g)
            assert c.open_wccs == open_wccs_oracle(g, c)
            assert c.condensation == condensation_oracle(g, c)

    def test_every_condensation_wcc_has_a_sink(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            state = random_state(rng)
            c = classify(build_digraph(state))
            nscc = len(c.sccs)
            parent = list(range(nscc))

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for k, succs in enumerate(c.condensation):
                for m in succs:
                    a, b = find(k), find(m)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
            groups = {}
            for k in range(nscc):
                groups.setdefault(find(k), []).append(k)
            for members in groups.values():
                assert any(len(c.condensation[k]) == 0 for k in members)


def predecessors(g, i):
    """Nodes with a path to i (i included): column i of the closure oracle."""
    return set(np.flatnonzero(reachability_oracle(g)[:, i]).tolist())


class TestPredecessors:
    def test_self_loops_only(self):
        g = self_loop_digraph(4)
        assert predecessors(g, 2) == {2}

    def test_three_agent_chain(self, fig41_state):
        g = build_digraph(fig41_state)
        assert predecessors(g, 0) == {0, 1}
        assert predecessors(g, 1) == {1}
        assert predecessors(g, 2) == {1, 2}

    def test_complete_digraph(self):
        g = complete_digraph(4)
        for i in range(4):
            assert predecessors(g, i) == {0, 1, 2, 3}

    def test_delta_matches_closure_oracle(self):
        # delta from the condensation equals the closure's bit for bit, also
        # with infinite bounds, opinions near +-1e300 and duplicate opinions.
        rng = np.random.default_rng(31)
        states = [random_state(rng, max_n=40, bounds_hi=0.2) for _ in range(100)]
        states.extend(grid_state(rng) for _ in range(100))
        states.extend(edge_states(rng))
        states.extend(epoch_start_states(rng, runs=5))
        for state in states:
            eps = equi_topology_distance(state)
            want = closure_invariant_equi_topology_distance(state, eps)
            got = invariant_equi_topology_distance(state)
            assert got.tobytes() == want.tobytes()
            epoch = Epoch(0, state)
            assert invariant_equi_topology_distance(epoch).tobytes() == want.tobytes()

    @pytest.mark.parametrize("digraph", [complete_digraph, path_digraph])
    def test_weak_components_match_closure_oracle(self, digraph):
        g = digraph(300)
        mask = g.mask
        assert weak_components(mask) == closure_weak_components(mask)
        assert g.classification.wccs == closure_weak_components(mask)
        for y in (np.zeros(300), np.arange(300.0)):
            assert agreement_on(g, y) == constant_on_each(y, closure_weak_components(mask))
        assert weak_components(mask) == (tuple(range(300)),)
        assert weak_components(np.eye(300, dtype=bool)) == tuple((v,) for v in range(300))

    def test_weak_components_of_random_masks_match_closure_oracle(self):
        rng = np.random.default_rng(41)
        pick = np.random.default_rng(43)
        agreements = 0
        for _ in range(300):
            n = int(rng.integers(0, 50))
            mask = rng.random((n, n)) < rng.uniform(0.0, 0.1)
            want = closure_weak_components(mask)
            assert weak_components(mask) == want
            if n:
                # The digraph's own components and agreement test, on
                # opinions constant on some of the components.
                g = ProximityDigraph(mask | np.eye(n, dtype=bool))
                assert g.classification.wccs == want
                y = pick.integers(0, 3, n).astype(float)
                for w in want:
                    if pick.random() < 0.8:
                        y[list(w)] = y[w[0]]
                assert agreement_on(g, y) == constant_on_each(y, want)
                agreements += constant_on_each(y, want)
        assert 50 < agreements < 250
