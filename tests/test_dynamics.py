import numpy as np
import pytest

from opinion_lab import (
    Model,
    OpinionState,
    Termination,
    adjacency_matrix,
    build_digraph,
    digraph_hash,
    fvct,
    per_step_factor,
    pseudo_stable_check,
    simulate,
)
from opinion_lab.stability import _weak_components

from conftest import (
    epoch_start_states,
    random_state,
    reference_digraph_hash,
    reference_simulate,
    reference_step,
)


def test_digraph_hash_matches_edge_by_edge_reference(fig41_state):
    assert digraph_hash(build_digraph(fig41_state)) == "5e625a2a4fe11b6b"
    rng = np.random.default_rng(61)
    states = [random_state(rng, max_n=15) for _ in range(30)]
    states.extend(epoch_start_states(rng, runs=5))
    for state in states:
        g = build_digraph(state)
        assert digraph_hash(g) == reference_digraph_hash(g)


class TestStep:
    def test_hand_evaluated_average(self, fig41_state):
        out = reference_step(fig41_state)
        assert out[0] == 0.0
        assert out[1] == pytest.approx((0 + 0.6 + 1) / 3, abs=1e-15)
        assert out[2] == 1.0

    def test_equilibrium_is_fixed(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.25, 1.0, 0.25], Model.SBC)
        assert np.array_equal(reference_step(state), state.opinions)

    def test_consensus_is_fixed(self):
        state = OpinionState([0.5] * 5, [0.2] * 5, Model.SBI)
        assert np.array_equal(reference_step(state), state.opinions)


class TestSimulate:
    def test_finite_time_fix_with_open_agents(self, finite_fix_state):
        traj = simulate(finite_fix_state, max_steps=100, limit_tol=0.0)
        assert traj.termination is Termination.FIXED_STATE
        assert traj.fixed_at is not None
        from opinion_lab import SccClass, classify

        c = classify(build_digraph(traj.final_state()))
        assert any(cl is SccClass.OPEN for cl in c.classes)

    def test_agreement_vector_fixes_at_one(self):
        state = OpinionState([0.0, 0.0, 1.0], [0.1, 0.1, 0.1], Model.SBC)
        traj = simulate(state)
        assert traj.fixed_at == 1
        assert traj.termination is Termination.FIXED_STATE

    def test_infinite_time_convergence(self, fig41_state):
        traj = simulate(fig41_state, max_steps=500)
        assert traj.termination is Termination.TOLERANCE_REACHED
        assert traj.fixed_at is None
        assert len(traj.topology_epochs) == 1
        assert traj.topology_epochs[0][0] == 0
        f = fvct(fig41_state)
        assert np.max(np.abs(traj.states[-1] - f)) < 1e-10

    def test_replay_reproduces_recorded_states(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            state = random_state(rng, max_n=8)
            traj = simulate(state, max_steps=200)
            for k in range(len(traj.times) - 1):
                if traj.times[k + 1] != traj.times[k] + 1:
                    continue
                replayed = reference_step(state.with_opinions(traj.states[k]))
                assert np.array_equal(replayed, traj.states[k + 1])

    def test_topology_epochs_mark_exact_changes(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            state = random_state(rng, max_n=8)
            traj = simulate(state, max_steps=120, limit_tol=0.0)
            epoch_starts = {t for t, _ in traj.topology_epochs}
            prev = None
            for t, x in zip(traj.times, traj.states):
                if traj.times and t > traj.times[-1]:
                    break
                h = digraph_hash(build_digraph(state.with_opinions(x)))
                if prev is not None and h != prev:
                    assert t in epoch_starts
                prev = h

    def test_homogeneous_bounds_fix_in_finite_time(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            y = rng.uniform(0, 1, n)
            r = np.full(n, float(rng.uniform(0.05, 0.4)))
            for kind in (Model.SBC, Model.SBI):
                traj = simulate(
                    OpinionState(y, r, kind), max_steps=5000, limit_tol=0.0
                )
                assert traj.termination is Termination.FIXED_STATE

    def test_monotone_hull_within_separate_wccs(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            state = random_state(rng, max_n=10)
            wcc0 = _weak_components(state)
            traj = simulate(state, max_steps=60, limit_tol=0.0)
            # Only check while the weak components stay identical.
            for k in range(len(traj.states) - 1):
                s_now = state.with_opinions(traj.states[k])
                if _weak_components(s_now) != wcc0:
                    break
                a, b = traj.states[k], traj.states[k + 1]
                for members in wcc0:
                    assert b[members].min() >= a[members].min() - 1e-14
                    assert b[members].max() <= a[members].max() + 1e-14

    def test_fvct_constant_under_constant_topology(self, fig41_state):
        traj = simulate(fig41_state, max_steps=100)
        ref = fvct(fig41_state)
        for x in traj.states[:20]:
            f = fvct(fig41_state.with_opinions(x))
            assert np.max(np.abs(f - ref)) < 1e-12

    def test_record_every_downsamples_but_keeps_events(self, fig41_state):
        traj = simulate(fig41_state, max_steps=100, record_every=5)
        assert all(t % 5 == 0 or t == traj.times[-1] for t in traj.times)
        assert traj.topology_epochs[0][0] == 0

    @pytest.mark.parametrize("limit_tol", [0.0, 1e-6, 1e-12])
    @pytest.mark.parametrize("record_every", [1, 5])
    def test_matches_reference_loop(self, limit_tol, record_every):
        rng = np.random.default_rng(89)
        for _ in range(25):
            state = random_state(rng, max_n=12)
            got = simulate(state, max_steps=300, record_every=record_every, limit_tol=limit_tol)
            want = reference_simulate(state, 300, record_every=record_every, limit_tol=limit_tol)
            assert got.times == want.times
            assert [x.tobytes() for x in got.states] == [x.tobytes() for x in want.states]
            assert got.topology_epochs == want.topology_epochs
            assert (got.final_epoch.start, got.final_epoch.label) == got.topology_epochs[-1]
            assert got.termination is want.termination
            if want.fixed_at is not None or got.fixed_at is None:
                assert got.fixed_at == want.fixed_at
            else:
                # Newly reported: a tolerance stop whose next step would
                # leave the state bitwise unchanged.
                assert got.termination is Termination.TOLERANCE_REACHED
                assert got.fixed_at == got.times[-1] + 1
                assert np.array_equal(reference_step(got.final_state()), got.states[-1])

    def test_digraph_built_once_per_epoch(self, monkeypatch):
        from opinion_lab import dynamics

        calls = []

        def counted(state):
            calls.append(state)
            return build_digraph(state)

        monkeypatch.setattr(dynamics, "build_digraph", counted)
        states = []
        with_opinions = OpinionState.with_opinions

        def counted_state(self, opinions):
            states.append(opinions)
            return with_opinions(self, opinions)

        monkeypatch.setattr(OpinionState, "with_opinions", counted_state)
        state = OpinionState([0.03, 0.45, 0.81], [0.31, 0.07, 0.45], Model.SBC)
        traj = simulate(state)
        assert len(traj.topology_epochs) > 1
        assert len(calls) == len(traj.topology_epochs) < traj.times[-1]
        assert len(states) == len(traj.topology_epochs)

    def test_rejects_bad_options(self, fig41_state):
        with pytest.raises(ValueError):
            simulate(fig41_state, max_steps=0)
        with pytest.raises(ValueError):
            simulate(fig41_state, record_every=0)


class TestPerStepFactor:
    def test_open_agent_factor_approaches_one_third(self, fig41_state):
        traj = simulate(fig41_state, max_steps=200)
        f = fvct(fig41_state)
        k = per_step_factor(traj.states[15], traj.states[16], f)
        assert k[0] is None and k[2] is None
        assert k[1] == pytest.approx(1 / 3, abs=1e-6)

    def test_agent_at_limit_is_absent(self):
        k = per_step_factor([1.0, 2.0], [1.0, 2.5], [1.0, 3.0])
        assert k[0] is None
        assert k[1] == pytest.approx(0.5)

    def test_eight_agent_follower_rate(self, fig62_state):
        traj = simulate(fig62_state, max_steps=400, limit_tol=0.0)
        f = fvct(fig62_state)
        # Late enough for the leader mode to dominate, early enough for the
        # residual to stay above the tracking floor.
        k = per_step_factor(traj.states[35], traj.states[36], f)
        assert k[7] == pytest.approx(0.5, abs=1e-3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            per_step_factor([1.0], [1.0, 2.0], [0.0, 0.0])


class TestPseudoStable:
    def test_constant_equilibrium_trajectory(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.25, 1.0, 0.25], Model.SBC)
        traj = simulate(state, max_steps=10, limit_tol=0.0)
        verdict = pseudo_stable_check(traj, state.opinions)
        assert verdict.holds_from == 0
        assert verdict.fixed_set == frozenset({0, 1, 2})
        assert verdict.converging_set == frozenset()

    def test_three_agent_split(self, fig41_state):
        traj = simulate(fig41_state, max_steps=200)
        verdict = pseudo_stable_check(traj, [0.0, 0.5, 1.0])
        assert verdict.holds_from == 0
        assert verdict.fixed_set == frozenset({0, 2})
        assert verdict.converging_set == frozenset({1})

    def test_requires_dense_window(self, fig41_state):
        traj = simulate(fig41_state, max_steps=100, record_every=7)
        with pytest.raises(ValueError):
            pseudo_stable_check(traj, [0.0, 0.5, 1.0])

    def test_short_window_rejected(self, fig41_state):
        traj = simulate(fig41_state, max_steps=100)
        traj.times, traj.states = traj.times[:1], traj.states[:1]
        with pytest.raises(ValueError):
            pseudo_stable_check(traj, [0.0, 0.5, 1.0])

    def test_random_constant_topology_tails_become_pseudo_stable(self):
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(40):
            state = random_state(rng, max_n=8)
            # Stop well above rounding noise so strict monotonicity is
            # observable.
            traj = simulate(state, max_steps=400, limit_tol=1e-6)
            if traj.termination is not Termination.TOLERANCE_REACHED:
                continue
            checked += 1
            f = fvct(traj.final_state())
            verdict = pseudo_stable_check(traj, f, fixed_tol=1e-12)
            assert verdict.holds_from is not None
        assert checked >= 5


class TestSerialization:
    def test_csv_round_trip_exact(self, tmp_path, fig41_state):
        traj = simulate(fig41_state, max_steps=50)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_0,x_1,x_2"
        for line, (t, x) in zip(lines[1:], zip(traj.times, traj.states)):
            cells = line.split(",")
            assert int(cells[0]) == t
            assert [float(c) for c in cells[1:]] == list(x)

    def test_events_json(self, tmp_path, fig41_state):
        traj = simulate(fig41_state, max_steps=50)
        path = tmp_path / "events.json"
        traj.events_to_json_file(path)
        import json

        data = json.loads(path.read_text())
        assert data["epochs"][0]["t"] == 0
        assert data["fixed_at"] is None
