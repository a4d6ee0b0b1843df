import dataclasses

import numpy as np
import pytest

from opinion_lab import (
    Model,
    OpinionState,
    build_digraph,
    check_limit_equilibrium,
    fvct,
    simulate,
)
from opinion_lab.cli import load_trajectory_csv
from opinion_lab.dynamics import Epoch, Termination, Trajectory, pseudo_stable_check
from opinion_lab.graph import SccClass
from opinion_lab.leader import (
    DirectionVerdict,
    LeaderAssignment,
    analyze_final_topology,
    leader_assignment,
    verify_direction_prediction,
    verify_rate_prediction,
)
from opinion_lab.matrix import canonical_decomposition, fvct_canonical

from conftest import (
    count_calls,
    loop_verify_direction_prediction,
    random_state,
    reachability_oracle,
    reference_analyze_final_topology,
)


def anchored_state(rng):
    """A few near-stubborn anchors plus wide-bound followers."""
    na = int(rng.integers(2, 4))
    no = int(rng.integers(1, 4))
    anchors = np.sort(rng.uniform(0, 1, na)) * 3.0
    y = np.concatenate([anchors, rng.uniform(anchors.min(), anchors.max(), no)])
    r = np.concatenate([np.full(na, 0.003), rng.uniform(0.8, 3.5, no)])
    kind = Model.SBC if rng.random() < 0.5 else Model.SBI
    return OpinionState(y, r, kind)


def jittered_eight_agent_state(rng):
    """Random perturbations of the leader/follower chain layout."""
    y = np.array([0.0, 1.5, 3.5, 5.0, 1.0, 1.0, 4.0, 2.1])
    r = np.array([0.01, 0.01, 0.01, 0.01, 1.0, 1.0, 1.0, 3.0])
    y = y + rng.uniform(-0.05, 0.05, 8)
    r = r * rng.uniform(0.95, 1.05, 8)
    return OpinionState(y, r, Model.SBC)


def assign(state):
    la = leader_assignment(Epoch(0, state))
    return la.classification, la


class TestLeaderAssignment:
    def test_eight_agent_radii_and_leaders(self, fig62_state):
        c, la = assign(fig62_state)
        members = {k: c.sccs[k] for k in la.open_sccs}
        radius_of = {members[k]: la.radii[k] for k in la.open_sccs}
        assert radius_of[(4, 5)] == pytest.approx(0.5, abs=1e-12)
        assert radius_of[(6,)] == pytest.approx(1 / 3, abs=1e-12)
        assert radius_of[(7,)] == pytest.approx(0.125, abs=1e-12)
        leader_of = {members[k]: members[la.leaders[k]] for k in la.open_sccs}
        assert leader_of[(4, 5)] == (4, 5)
        assert leader_of[(6,)] == (6,)
        # The widest-listening agent follows the slowest component it can
        # reach, not its own tiny block.
        assert leader_of[(7,)] == (4, 5)

    def test_eight_agent_successor_sets(self, fig62_state):
        c, la = assign(fig62_state)
        by_members = {c.sccs[k]: la.successor_sets[k] for k in la.open_sccs}
        ids = {c.sccs[k]: k for k in la.open_sccs}
        assert by_members[(4, 5)] == {ids[(4, 5)]}
        assert by_members[(6,)] == {ids[(6,)]}
        assert by_members[(7,)] == {ids[(4, 5)], ids[(6,)], ids[(7,)]}

    def test_successor_sets_match_reachability_oracle(self):
        # Closed and moderate SCCs are sinks, so the open SCCs an open SCC
        # reaches are exactly its open successors.
        rng = np.random.default_rng(151)
        for _ in range(200):
            state = random_state(rng, max_n=25, bounds_hi=0.2)
            g = build_digraph(state)
            c, la = assign(state)
            reach = reachability_oracle(g)
            for k in la.open_sccs:
                want = {m for m in la.open_sccs if reach[c.sccs[k][0], c.sccs[m][0]]}
                assert la.successor_sets[k] == want

    def test_three_agent_single_open_scc(self, fig41_state):
        c, la = assign(fig41_state)
        assert len(la.open_sccs) == 1
        k = la.open_sccs[0]
        assert c.sccs[k] == (1,)
        assert la.leaders[k] == k
        assert la.leader_radius(k) == pytest.approx(1 / 3, abs=1e-12)

    def test_leader_attains_max_over_successors(self):
        rng = np.random.default_rng(127)
        for _ in range(300):
            state = random_state(rng)
            c, la = assign(state)
            for k in la.open_sccs:
                best = max(la.radii[m] for m in la.successor_sets[k])
                assert la.leader_radius(k) == best
                assert la.leaders[k] in la.successor_sets[k]
                if la.radii[k] == best:
                    # Ties always resolve toward the component itself.
                    assert la.leaders[k] == k

    def test_leader_radius_in_unit_interval(self):
        rng = np.random.default_rng(131)
        for _ in range(200):
            state = random_state(rng)
            _, la = assign(state)
            for k in la.open_sccs:
                assert 0.0 < la.leader_radius(k) < 1.0

    def test_json_export(self, fig62_state):
        c, la = assign(fig62_state)
        data = la.to_json()
        entries = {tuple(e["members"]): e for e in data["open_sccs"]}
        assert set(entries) == {(4, 5), (6,), (7,)}
        assert entries[(7,)]["leader_radius"] == pytest.approx(0.5)
        assert len(entries[(7,)]["successors"]) == 3


class TestAnalyzeFinalTopology:
    def test_three_agent_pieces(self, fig41_state):
        traj = simulate(fig41_state, max_steps=100)
        la = analyze_final_topology(traj)
        c, f = la.classification, traj.limit
        assert np.allclose(f, [0.0, 0.5, 1.0], atol=1e-12)
        assert c.nodes_of_class(SccClass.OPEN) == [1]
        assert len(la.open_sccs) == 1

    def test_no_moderates_in_constant_tails(self):
        rng = np.random.default_rng(137)
        checked = 0
        for _ in range(100):
            state = random_state(rng, max_n=8)
            traj = simulate(state, max_steps=300)
            if len(traj.topology_epochs) != 1:
                continue
            checked += 1
            c = analyze_final_topology(traj).classification
            assert not any(cl is SccClass.MODERATE for cl in c.classes)
        assert checked > 20


def assert_same_pieces(traj, want):
    """The five pieces of the final topology, from the trajectory's final
    epoch, its limit and its leaders, equal bit for bit to ``want`` and, for
    the limit, to a fresh fvct of the epoch's first state."""
    la, epoch = analyze_final_topology(traj), traj.final_epoch
    g, c, d, f = epoch.digraph, la.classification, epoch.decomposition, traj.limit
    g2, c2, d2, la2 = want
    assert g == g2 and c == c2 and la == la2
    for fld in dataclasses.fields(d):
        a, b = getattr(d, fld.name), getattr(d2, fld.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b
    assert f.tobytes() == fvct(epoch.state).tobytes()


class TestFinalTopologyFromTheEpoch:
    """The final epoch's cached classification against classifying the
    final state afresh."""

    def test_tolerance_stop_reuses_the_epoch(self, fig41_state, monkeypatch):
        traj = simulate(fig41_state)
        assert traj.termination is Termination.TOLERANCE_REACHED
        d = traj.final_epoch.decomposition
        counts = count_calls(monkeypatch, canonical_decomposition)
        got = analyze_final_topology(traj)
        assert got.classification is traj.final_epoch.digraph.classification
        assert traj.final_epoch.decomposition is d and counts["canonical_decomposition"] == 0
        assert_same_pieces(traj, reference_analyze_final_topology(traj))

    def test_fixed_stop(self, finite_fix_state):
        traj = simulate(finite_fix_state, limit_tol=0.0)
        assert traj.termination is Termination.FIXED_STATE
        assert_same_pieces(traj, reference_analyze_final_topology(traj))

    def test_max_steps_stop(self, fig62_state):
        traj = simulate(fig62_state, max_steps=30, limit_tol=0.0)
        assert traj.termination is Termination.MAX_STEPS
        assert_same_pieces(traj, reference_analyze_final_topology(traj))

    def test_max_steps_stop_past_the_last_epoch(self):
        # Stop each run at one of its epoch starts: the recorded final
        # state has the next epoch's digraph, and that epoch is recorded.
        rng = np.random.default_rng(149)
        checked = 0
        for _ in range(40):
            state = random_state(rng, max_n=10)
            starts = [t for t, _ in simulate(state, max_steps=300).topology_epochs[1:]]
            for t in starts:
                traj = simulate(state, max_steps=t)
                assert traj.termination is Termination.MAX_STEPS
                assert traj.final_epoch.digraph == build_digraph(traj.final_state())
                assert traj.final_epoch.start == traj.topology_epochs[-1][0] == t
                got = analyze_final_topology(traj)
                assert got.classification is traj.final_epoch.digraph.classification
                assert_same_pieces(traj, reference_analyze_final_topology(traj))
                checked += 1
        assert checked >= 20

    def test_random_runs(self):
        rng = np.random.default_rng(151)
        stops = set()
        for _ in range(60):
            traj = simulate(random_state(rng, max_n=12), max_steps=int(rng.integers(1, 200)))
            stops.add(traj.termination)
            assert_same_pieces(traj, reference_analyze_final_topology(traj))
        assert stops == set(Termination)

    def test_loaded_trajectory(self, fig41_state, tmp_path):
        path = tmp_path / "traj.csv"
        simulate(fig41_state, max_steps=40, limit_tol=0.0).to_csv(path)
        traj = load_trajectory_csv(str(path), fig41_state)
        assert (traj.final_epoch.start, traj.final_epoch.label) == traj.topology_epochs[-1]
        assert_same_pieces(traj, reference_analyze_final_topology(traj))


class TestOneLimitPerTrajectory:
    def test_tail_analyses_solve_the_final_state_once(self, fig62_state, monkeypatch):
        # With the tolerance stop off, simulate solves no fvct.  The leaders,
        # both verify functions, the pseudo-stability check and the
        # limit-equilibrium check all read traj.limit: one solve between them.
        traj = simulate(fig62_state, max_steps=36, limit_tol=0.0)
        counts = count_calls(monkeypatch, fvct_canonical)
        la = analyze_final_topology(traj)
        verify_rate_prediction(traj, la)
        verify_direction_prediction(traj, la)
        assert pseudo_stable_check(traj, traj.limit).holds_from is not None
        assert check_limit_equilibrium(traj).x_infinity is traj.limit
        assert counts["fvct_canonical"] == 1

    def test_a_tolerance_stop_leaves_nothing_to_solve(self, fig62_state, monkeypatch):
        # The tolerance stop solved its final epoch's fvct, and that is the
        # trajectory's limit.
        traj = simulate(fig62_state)
        assert traj.termination is Termination.TOLERANCE_REACHED
        counts = count_calls(monkeypatch, fvct_canonical)
        la = analyze_final_topology(traj)
        assert verify_rate_prediction(traj, la)
        verify_direction_prediction(traj, la)
        pseudo_stable_check(traj, traj.limit)
        assert check_limit_equilibrium(traj).x_infinity is traj.limit
        assert traj.limit is traj.final_epoch.fvct()
        assert counts["fvct_canonical"] == 0

    def test_the_limits_epoch_reads_one_distance_matrix(self, fig62_state, monkeypatch):
        # stability_report and run_single take their limit's digraph and eps
        # from Epoch.limit, and build no other epoch of other opinions.
        from functools import cached_property

        from opinion_lab import graph
        from opinion_lab.experiment import ExperimentConfig, run_single
        from opinion_lab.stability import stability_report

        counts = count_calls(monkeypatch, graph._distances)
        limit, at, inside, ats = Epoch.__dict__["limit"].func, Epoch.at, [], []

        def counted_limit(self):
            inside.append(True)
            epoch = limit(self)
            inside.pop()
            return epoch

        # Per Epoch.at call: made inside Epoch.limit, distance matrices built.
        def counted_at(self, opinions):
            before = counts["_distances"]
            epoch = at(self, opinions)
            ats.append((bool(inside), counts["_distances"] - before))
            return epoch

        prop = cached_property(counted_limit)
        prop.__set_name__(Epoch, "limit")
        monkeypatch.setattr(Epoch, "limit", prop)
        monkeypatch.setattr(Epoch, "at", counted_at)
        cfg = ExperimentConfig(agent_counts=(20,), runs=1)
        for run in (lambda: stability_report(fig62_state), lambda: run_single(Model.SBC, 20, 0, cfg)):
            ats.clear()
            run()
            assert ats == [(True, 1)]


class TestRatePrediction:
    def test_eight_agent_factors(self, fig62_state):
        traj = simulate(fig62_state, max_steps=36, limit_tol=0.0)
        la = analyze_final_topology(traj)
        verdicts = {v.agent: v for v in verify_rate_prediction(traj, la)}
        assert verdicts[4].factor == pytest.approx(0.5, abs=1e-3)
        assert verdicts[5].factor == pytest.approx(0.5, abs=1e-3)
        # Agent 7 converges at its leader's rate, five per-step factors
        # slower than its own block would suggest.
        assert verdicts[7].leader_radius == pytest.approx(0.5)
        assert verdicts[7].factor == pytest.approx(0.5, abs=1e-3)
        assert verdicts[7].deviation < 1e-3

    def test_fast_agent_factor_earlier_window(self, fig62_state):
        traj = simulate(fig62_state, max_steps=25, limit_tol=0.0)
        la = analyze_final_topology(traj)
        verdicts = {v.agent: v for v in verify_rate_prediction(traj, la)}
        assert verdicts[6].factor == pytest.approx(1 / 3, abs=1e-3)

    def test_underflowed_agents_are_excluded(self, fig62_state):
        traj = simulate(fig62_state, max_steps=300, limit_tol=0.0)
        la = analyze_final_topology(traj)
        verdicts = verify_rate_prediction(traj, la)
        assert all(v.excluded and v.factor is None for v in verdicts)

    def test_three_agent_rate(self, fig41_state):
        traj = simulate(fig41_state, max_steps=20, limit_tol=0.0)
        la = analyze_final_topology(traj)
        (v,) = verify_rate_prediction(traj, la)
        assert v.agent == 1
        assert v.factor == pytest.approx(1 / 3, abs=1e-6)

    def test_window_validation(self, fig41_state):
        # The check reads the final epoch's last step and takes no window.
        traj = simulate(fig41_state, max_steps=100)
        la = analyze_final_topology(traj)
        for window in (5, 10, 10**6):
            with pytest.raises(TypeError, match="window"):
                verify_rate_prediction(traj, la, window=window)
        assert [v.agent for v in verify_rate_prediction(traj, la)] == [1]
        sparse = simulate(fig41_state, max_steps=100, record_every=3)
        with pytest.raises(ValueError, match="rate analysis needs densely recorded trajectories"):
            verify_rate_prediction(sparse, la)

    def test_random_rates_match_leader_radius(self):
        # Stubborn anchors with wide-bound followers give long constant
        # tails; uniform draws almost always fix within a few steps.
        rng = np.random.default_rng(139)
        checked = 0
        for _ in range(200):
            state = anchored_state(rng)
            traj = simulate(state, max_steps=40, limit_tol=0.0)
            tail = traj.times[-1] - traj.topology_epochs[-1][0]
            if tail < 12 or traj.fixed_at is not None:
                continue
            la = analyze_final_topology(traj)
            for v in verify_rate_prediction(traj, la):
                if v.excluded:
                    continue
                checked += 1
                assert v.deviation < 1e-2
        assert checked > 30


class TestDirectionPrediction:
    def test_eight_agent_follower_tracks_leader(self, fig62_state):
        traj = simulate(fig62_state, max_steps=50, limit_tol=0.0)
        la = analyze_final_topology(traj)
        c = la.classification
        verdicts = verify_direction_prediction(traj, la)
        assert len(verdicts) == 1
        (v,) = verdicts
        assert c.sccs[v.follower_id] == (7,)
        assert c.sccs[v.leader_id] == (4, 5)
        assert v.applicable
        assert v.matches_from is not None
        assert v.matches_from <= 2

    def test_self_led_sccs_produce_no_verdicts(self, fig41_state):
        traj = simulate(fig41_state, max_steps=50)
        la = analyze_final_topology(traj)
        assert verify_direction_prediction(traj, la) == []

    def test_equal_radius_pair_not_applicable(self, fig62_state):
        # Exercise the explicit inapplicability branch with a doctored
        # assignment that points the fast follower at an equal-rate peer.
        traj = simulate(fig62_state, max_steps=50, limit_tol=0.0)
        la = analyze_final_topology(traj)
        c = la.classification
        ids = {c.sccs[k]: k for k in la.open_sccs}
        doctored = LeaderAssignment(
            classification=c,
            open_sccs=la.open_sccs,
            successor_sets=la.successor_sets,
            radii={**la.radii, ids[(6,)]: la.radii[ids[(4, 5)]]},
            leaders={**la.leaders, ids[(6,)]: ids[(4, 5)]},
        )
        verdicts = {
            v.follower_id: v for v in verify_direction_prediction(traj, doctored)
        }
        v = verdicts[ids[(6,)]]
        assert v == DirectionVerdict(ids[(6,)], ids[(4, 5)], False, None)

    def test_dense_recording_required(self, fig62_state):
        traj = simulate(fig62_state, max_steps=50, record_every=2, limit_tol=0.0)
        la = analyze_final_topology(traj)
        with pytest.raises(ValueError):
            verify_direction_prediction(traj, la)

    def test_follower_residual_signs_eventually_match(self):
        # Independent check of the claim behind the verdicts: once a match
        # time is reported, replaying the tail never violates it.
        rng = np.random.default_rng(149)
        checked = 0
        for _ in range(150):
            state = jittered_eight_agent_state(rng)
            traj = simulate(state, max_steps=40, limit_tol=0.0)
            tail = traj.times[-1] - traj.topology_epochs[-1][0]
            if tail < 12 or traj.fixed_at is not None:
                continue
            la = analyze_final_topology(traj)
            c, f = la.classification, traj.limit
            for v in verify_direction_prediction(traj, la):
                if not v.applicable or v.matches_from is None:
                    continue
                checked += 1
                lead_nodes = list(c.sccs[v.leader_id])
                foll_nodes = list(c.sccs[v.follower_id])
                for k, t in enumerate(traj.times):
                    if t < v.matches_from:
                        continue
                    x = traj.states[k]
                    signs = {
                        int(np.sign(x[i] - f[i])) for i in lead_nodes
                    } - {0}
                    if len(signs) != 1:
                        continue
                    (s,) = signs
                    for i in foll_nodes:
                        assert s * (x[i] - f[i]) >= 0.0
        assert checked > 10


class TestDirectionScan:
    """The suffix scans against the loop over candidate starts they
    replaced."""

    @staticmethod
    def compare(traj, la):
        got = verify_direction_prediction(traj, la)
        assert got == loop_verify_direction_prediction(traj, la.classification, traj.limit, la)
        return got

    @pytest.mark.parametrize("max_steps", [3, 20, 50, 300])
    def test_eight_agent(self, fig62_state, max_steps):
        traj = simulate(fig62_state, max_steps=max_steps, limit_tol=0.0)
        la = analyze_final_topology(traj)
        assert len(self.compare(traj, la)) == 1

    def test_jittered_eight_agent_states(self):
        rng = np.random.default_rng(149)
        verdicts = []
        for _ in range(150):
            traj = simulate(jittered_eight_agent_state(rng), max_steps=40, limit_tol=0.0)
            la = analyze_final_topology(traj)
            verdicts += self.compare(traj, la)
        assert sum(v.applicable and v.matches_from is not None for v in verdicts) > 10

    def test_equal_radius_pair(self, fig62_state):
        traj = simulate(fig62_state, max_steps=50, limit_tol=0.0)
        la = analyze_final_topology(traj)
        c = la.classification
        ids = {c.sccs[k]: k for k in la.open_sccs}
        doctored = LeaderAssignment(
            classification=c,
            open_sccs=la.open_sccs,
            successor_sets=la.successor_sets,
            radii={**la.radii, ids[(6,)]: la.radii[ids[(4, 5)]]},
            leaders={**la.leaders, ids[(6,)]: ids[(4, 5)]},
        )
        verdicts = self.compare(traj, doctored)
        assert any(not v.applicable for v in verdicts)

    @staticmethod
    def grouped_state(rng):
        """Anchors two apart with tiny bounds, groups of up to three agents
        between neighbouring anchors, and wide-bound followers: groups of
        different sizes converge at different rates."""
        k = int(rng.integers(3, 6))
        y, r = list(2.0 * np.arange(k)), [0.01] * k
        for gap in range(k - 1):
            for _ in range(int(rng.integers(0, 4))):
                y.append(2.0 * gap + 1.0 + rng.uniform(-0.1, 0.1))
                r.append(rng.uniform(1.15, 1.3))
        for _ in range(int(rng.integers(1, 3))):
            y.append(rng.uniform(0.0, 2.0 * (k - 1)))
            r.append(rng.uniform(2.0, 6.0))
        return OpinionState(np.array(y) + rng.uniform(-0.02, 0.02, len(y)), r, Model.SBC)

    def test_random_runs(self):
        rng = np.random.default_rng(157)
        verdicts = []
        for k in range(400):
            state = self.grouped_state(rng) if k % 4 else random_state(rng, max_n=10)
            limit_tol = (0.0, 1e-12)[k % 3 == 0]
            traj = simulate(state, max_steps=int(rng.integers(2, 80)), limit_tol=limit_tol)
            la = analyze_final_topology(traj)
            verdicts += self.compare(traj, la)
        applicable = [v for v in verdicts if v.applicable]
        assert len(applicable) > 20
        assert any(v.matches_from is None for v in applicable)
        assert any(v.matches_from is not None for v in applicable)

    def test_no_start_holds_to_the_end(self, fig62_state):
        # The leader's residual sign flips between the two states and the
        # follower sits on the other side each time: no start qualifies.
        run = simulate(fig62_state, max_steps=50, limit_tol=0.0)
        la = analyze_final_topology(run)
        c, f = la.classification, run.limit
        (follower,) = [k for k in la.open_sccs if la.leaders[k] != k]
        lead_nodes, foll_nodes = list(c.sccs[la.leaders[follower]]), list(c.sccs[follower])
        states = np.tile(f, (2, 1))
        for row, sign in ((0, 1.0), (1, -1.0)):
            states[row, lead_nodes] += sign * 1e-3
            states[row, foll_nodes] -= sign * 1e-3
        # A doctored tail around the run's limit, in the run's final epoch.
        traj = Trajectory(
            bounds=fig62_state.bounds, kind=Model.SBC, times=[0, 1], states=states,
            topology_epochs=[(0, "tail")], final_epoch=run.final_epoch,
        )
        assert traj.limit is f
        (v,) = self.compare(traj, la)
        assert v.applicable and v.matches_from is None
