import math

import numpy as np
import pytest

from opinion_lab import (
    Model,
    OpinionState,
    Termination,
    build_digraph,
    check_agreement_sufficient,
    check_equal_topology,
    check_limit_equilibrium,
    classify,
    equi_topology_distance,
    fvct,
    in_neighborhood,
    invariant_equi_topology_distance,
    is_agreement_vector,
    is_equilibrium,
    simulate,
    stability_report,
    strongly_connected_components,
)
from opinion_lab.graph import SccClass, proximity_mask
from opinion_lab.matrix import fvct_canonical

from conftest import (
    closure_weak_components,
    count_calls,
    edge_states,
    grid_state,
    loop_topology_matches_tail,
    mask_agreement_oracle,
    neighbor_lists,
    random_state,
    two_matrix_equi_topology_distance,
)


def sample_in_neighborhood(rng, z, radii, scale=1.0):
    """Random vector inside the (strict) box of the given radii around z."""
    y = np.array(z, dtype=float)
    for i, rad in enumerate(radii):
        if rad > 0:
            span = min(rad, 1e6)  # keep the inf sentinel usable
            y[i] += rng.uniform(-0.999, 0.999) * span * scale
    return y


class TestEquiTopologyDistance:
    def test_equilibrium_three_agent(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.25, 1.0, 0.25], Model.SBC)
        assert np.allclose(
            equi_topology_distance(state), [0.125, 0.125, 0.125], atol=1e-15
        )

    def test_boundary_pair_gives_zero(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.5, 1.0, 0.25], Model.SBC)
        eps = equi_topology_distance(state)
        assert eps[0] == 0.0

    def test_two_agents(self):
        state = OpinionState([0.0, 1.0], [0.3, 0.3], Model.SBC)
        assert np.allclose(equi_topology_distance(state), [0.35, 0.35])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_bitwise_equal_to_the_two_matrix_formula(self):
        rng = np.random.default_rng(173)
        states = list(edge_states(rng))
        states += [grid_state(rng) for _ in range(40)] + [random_state(rng) for _ in range(40)]
        for kind in Model:
            states.append(OpinionState([-1e308, 1e308, 0.0, 1e308], [math.inf, 0.1, 0.1, 2e307], kind))
            states.append(OpinionState([0.0, 0.5, 0.5, 2.0], [math.inf, math.inf, 0.5, math.inf], kind))
        for state in states:
            got = equi_topology_distance(state)
            assert got.tobytes() == two_matrix_equi_topology_distance(state).tobytes()
            # The same for both models: each takes both agents' bounds.
            other = OpinionState(state.opinions, state.bounds, Model.SBI if state.kind is Model.SBC else Model.SBC)
            assert equi_topology_distance(other).tobytes() == got.tobytes()

    def test_single_agent_sentinel(self):
        eps = equi_topology_distance(OpinionState([0.2], [0.1]))
        assert math.isinf(eps[0])


class TestInvariantDistance:
    def test_equilibrium_three_agent(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.25, 1.0, 0.25], Model.SBC)
        delta = invariant_equi_topology_distance(state)
        assert np.allclose(delta, [0.125, 0.125, 0.125], atol=1e-15)

    def test_boundary_variant_all_zero(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.5, 1.0, 0.25], Model.SBC)
        delta = invariant_equi_topology_distance(state)
        assert np.array_equal(delta, [0.0, 0.0, 0.0])

    def test_isolated_agents_delta_equals_eps(self):
        state = OpinionState([0.0, 10.0, 20.0], [0.1, 0.1, 0.1], Model.SBC)
        eps = equi_topology_distance(state)
        delta = invariant_equi_topology_distance(state)
        assert np.array_equal(delta, eps)

    def test_delta_bounded_by_eps(self):
        rng = np.random.default_rng(91)
        for _ in range(300):
            state = random_state(rng)
            if state.n == 1:
                continue
            eps = equi_topology_distance(state)
            delta = invariant_equi_topology_distance(state)
            assert np.all(delta <= eps + 1e-15)


class TestInNeighborhood:
    def test_center_always_inside(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            state = random_state(rng)
            radii = rng.uniform(0, 0.1, state.n)
            assert in_neighborhood(state.opinions, state, radii)

    def test_strict_interior(self):
        z = OpinionState([0.0, 0.5, 1.0], [0.25, 1.0, 0.25], Model.SBC)
        assert in_neighborhood([0.0, 0.6, 1.0], z, [0.125, 0.125, 0.125])
        assert not in_neighborhood([0.0, 0.7, 1.0], z, [0.125, 0.125, 0.125])

    def test_zero_radius_forces_equality(self):
        z = OpinionState([0.0, 1.0], [0.2, 0.2], Model.SBC)
        assert not in_neighborhood([0.0, 1.0 + 1e-15], z, [0.1, 0.0])
        assert in_neighborhood([0.05, 1.0], z, [0.1, 0.0])

    def test_boundary_excluded(self):
        z = OpinionState([0.0, 1.0], [0.2, 0.2], Model.SBC)
        assert not in_neighborhood([0.1, 1.0], z, [0.1, 0.1])

    def test_lengths_must_match(self):
        z = OpinionState([0.0, 1.0], [0.2, 0.2], Model.SBC)
        for y, radii in (([0.0], [0.1, 0.1]), ([0.0, 1.0], [0.1]), ([0.0, 1.0, 2.0], [0.1, 0.1, 0.1])):
            with pytest.raises(ValueError, match="vectors must share a length"):
                in_neighborhood(y, z, radii)

    def test_iet_subset_of_et(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            state = random_state(rng)
            if state.n == 1:
                continue
            eps = equi_topology_distance(state)
            delta = invariant_equi_topology_distance(state)
            y = sample_in_neighborhood(rng, state.opinions, delta)
            if in_neighborhood(y, state, delta):
                assert in_neighborhood(y, state, eps)


class TestEqualTopologyLemma:
    def test_identity(self, fig41_state):
        assert check_equal_topology(fig41_state.opinions, fig41_state)

    def test_far_state_differs(self):
        z = OpinionState([0.0, 0.1, 0.2], [0.15, 0.15, 0.15], Model.SBC)
        assert not check_equal_topology([0.0, 5.0, 10.0], z)

    def test_lemma_on_random_pairs(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            state = random_state(rng, max_n=15)
            if state.n == 1:
                continue
            eps = equi_topology_distance(state)
            y = sample_in_neighborhood(rng, state.opinions, eps)
            if not in_neighborhood(y, state, eps):
                continue
            assert check_equal_topology(y, state)


class TestEquilibriumAndAgreement:
    def test_three_agent_equilibrium(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.25, 1.0, 0.25], Model.SBC)
        assert is_equilibrium(state, tol=1e-15)

    def test_consensus_is_equilibrium(self):
        state = OpinionState([0.5] * 4, [0.3] * 4, Model.SBI)
        assert is_equilibrium(state, tol=0.0)

    def test_perturbed_state_is_not(self, fig41_state):
        assert not is_equilibrium(fig41_state, tol=1e-12)

    def test_negative_tolerance_rejected(self, fig41_state):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            is_equilibrium(fig41_state, tol=-1e-300)

    def test_agreement_disconnected_clusters(self):
        state = OpinionState([0.0, 0.0, 1.0], [0.1, 0.1, 0.1], Model.SBC)
        assert is_agreement_vector(state)

    def test_fixed_but_not_agreement(self, finite_fix_state):
        traj = simulate(finite_fix_state, max_steps=100, limit_tol=0.0)
        final = traj.final_state()
        assert is_equilibrium(final, tol=0.0)
        assert not is_agreement_vector(final)

    def test_global_consensus_is_agreement(self):
        state = OpinionState([0.5] * 6, [0.2] * 6, Model.SBC)
        assert is_agreement_vector(state)

    def test_agreement_implies_positive_eps(self):
        rng = np.random.default_rng(107)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(2, 9))
            # Random clusters in consensus, far apart relative to bounds.
            k = int(rng.integers(1, 4))
            centers = np.cumsum(rng.uniform(2.0, 3.0, k))
            y = centers[rng.integers(0, k, n)]
            r = rng.uniform(0.05, 0.4, n)
            state = OpinionState(y, r, Model.SBC if rng.random() < 0.5 else Model.SBI)
            if not is_agreement_vector(state):
                continue
            checked += 1
            assert equi_topology_distance(state).min() > 0.0
        assert checked > 100

    def test_agreement_matches_the_mask_rule(self):
        # Constant on every WCC iff no edge joins two different opinions, on
        # the edge states and on each one with its opinions made constant on
        # its WCCs, which keeps or makes cross-WCC edges.
        agreements = 0
        for state in edge_states(np.random.default_rng(229)):
            y = state.opinions.copy()
            for w in closure_weak_components(proximity_mask(state)):
                y[list(w)] = y[w[0]]
            for s in (state, state.with_opinions(y)):
                want = mask_agreement_oracle(s)
                assert is_agreement_vector(s) is want
                assert stability_report(s).is_agreement is want
                agreements += want
        assert 20 < agreements < 100


class TestAgreementSufficientCondition:
    def test_single_wcc_large_bounds(self):
        state = OpinionState([0.0, 0.1, 0.2], [0.5, 0.5, 0.5], Model.SBC)
        result = check_agreement_sufficient(state)
        assert result.separation_ok
        assert result.bounds_ok
        assert result.predicted_finite_time
        sbi = check_agreement_sufficient(
            OpinionState([0.0, 0.1, 0.2], [0.5, 0.5, 0.5], Model.SBI)
        )
        assert sbi.predicted_finite_time

    def test_two_separated_wccs_predict_finite_time(self):
        state = OpinionState(
            [0.0, 0.1, 5.0, 5.1], [0.2, 0.2, 0.2, 0.2], Model.SBC
        )
        result = check_agreement_sufficient(state)
        assert result.predicted_finite_time
        traj = simulate(state, max_steps=1000, limit_tol=0.0)
        assert traj.termination is Termination.FIXED_STATE
        assert is_agreement_vector(traj.final_state())

    def test_sbc_sbi_asymmetry(self):
        y = [0.0, 0.3, 0.6]
        r = [0.7, 0.05, 0.05]
        sbi = check_agreement_sufficient(OpinionState(y, r, Model.SBI))
        assert sbi.bounds_ok
        sbc = check_agreement_sufficient(OpinionState(y, r, Model.SBC))
        assert not sbc.bounds_ok

    def test_sufficient_condition_oracle(self):
        # Whenever both conditions hold, the trajectory must reach a fixed
        # agreement vector in finite time, and every weak component must
        # keep a node that is an out-neighbor of all its nodes.
        rng = np.random.default_rng(109)
        checked = 0
        trials = 0
        while checked < 200 and trials < 20000:
            trials += 1
            n = int(rng.integers(2, 9))
            kind = Model.SBC if rng.random() < 0.5 else Model.SBI
            k = int(rng.integers(1, 4))
            centers = np.cumsum(rng.uniform(3.0, 5.0, k))
            y = centers[rng.integers(0, k, n)] + rng.uniform(-0.3, 0.3, n)
            r = rng.uniform(0.05, 1.2, n)
            state = OpinionState(y, r, kind)
            result = check_agreement_sufficient(state)
            if not result.predicted_finite_time:
                continue
            checked += 1
            traj = simulate(state, max_steps=2000, limit_tol=0.0)
            assert traj.termination is Termination.FIXED_STATE
            assert is_agreement_vector(traj.final_state())
            for x in traj.states:
                s_now = state.with_opinions(x)
                g = build_digraph(s_now)
                for members in g.classification.wccs:
                    assert any(
                        all(j in neighbor_lists(g)[i] for i in members)
                        for j in members
                    )
        assert checked == 200


class TestLimitEquilibrium:
    def test_three_agent_limit(self, fig41_state):
        traj = simulate(fig41_state, max_steps=500)
        verdict = check_limit_equilibrium(traj)
        assert np.allclose(verdict.x_infinity, [0.0, 0.5, 1.0], atol=1e-12)
        assert verdict.min_epsilon == pytest.approx(0.125)
        assert verdict.premise_holds
        assert verdict.topology_matches_tail
        assert verdict.limit_is_equilibrium

    def test_boundary_limit_premise_fails(self):
        # Agent 2 chases agent 1 down to 0.5; its limit sits at distance
        # exactly equal to its own bound from agent 0 (all dyadic, so the
        # zero slack is exact).  Agent 1's tiny bound keeps it from ever
        # reciprocating.
        state = OpinionState(
            [0.0, 0.5, 0.5 + 2.0**-20], [0.1, 1e-12, 0.5], Model.SBC
        )
        traj = simulate(state, max_steps=10, limit_tol=1e-12)
        assert traj.termination is Termination.MAX_STEPS
        verdict = check_limit_equilibrium(traj)
        assert np.array_equal(verdict.x_infinity, [0.0, 0.5, 0.5])
        assert verdict.min_epsilon == 0.0
        assert not verdict.premise_holds
        assert verdict.topology_matches_tail is None
        assert not verdict.premise_holds
        assert verdict.topology_matches_tail is None

    def test_limit_from_the_final_epoch(self, monkeypatch):
        # The final epoch has the final state's mask, so its decomposition
        # gives fvct(final) bit for bit, with no second classification and
        # no second digraph, and the limit's mask and eps come from one
        # distance matrix.  Each epoch is classified before counting, as a
        # tolerance stop would have done.
        from opinion_lab import graph

        rng = np.random.default_rng(197)
        cases = []
        for k in range(60):
            state = random_state(rng, max_n=10)
            traj = simulate(state, max_steps=int(rng.integers(1, 60)), fixed_tol=(0.0, 1e-3)[k % 2])
            traj.final_epoch.decomposition
            cases.append((traj, fvct(traj.final_state())))
        counts = count_calls(monkeypatch, graph.classify, graph.build_digraph, graph._distances)
        for traj, want in cases:
            counts.update(classify=0, build_digraph=0, _distances=0)
            got = check_limit_equilibrium(traj, residual_tol=math.inf).x_infinity
            assert got.tobytes() == want.tobytes()
            assert counts["classify"] == counts["build_digraph"] == 0
            assert counts["_distances"] == 1

    def test_limit_is_the_trajectorys(self):
        # The verdict holds the trajectory's one fvct of its final state:
        # the final epoch's decomposition applied to the final state.
        for state in edge_states(np.random.default_rng(241)):
            traj = simulate(state, max_steps=60)
            v = check_limit_equilibrium(traj, residual_tol=math.inf)
            assert v.x_infinity is traj.limit
            want = fvct_canonical(traj.final_epoch.decomposition, traj.states[-1])
            assert v.x_infinity.tobytes() == want.tobytes()

    def test_finite_time_agreement_premise_holds(self):
        state = OpinionState(
            [0.0, 0.1, 5.0, 5.1], [0.2, 0.2, 0.2, 0.2], Model.SBC
        )
        traj = simulate(state, max_steps=200, limit_tol=0.0)
        verdict = check_limit_equilibrium(traj)
        assert verdict.premise_holds
        assert verdict.limit_is_equilibrium

    def test_tail_topology_matches_loop_oracle(self, tmp_path):
        # Unconverged max_steps stops (residual_tol=inf) and loose fixed
        # stops leave a final state recorded past the last mask comparison;
        # a stop on a topology change gives that state a mask of its own.
        from opinion_lab.cli import load_trajectory_csv

        rng = np.random.default_rng(173)
        verdicts = []
        for k in range(150):
            state = random_state(rng, max_n=10)
            max_steps = int(rng.integers(1, 60))
            if k % 3 == 0:
                starts = [t for t, _ in simulate(state, max_steps=60, limit_tol=0.0).topology_epochs]
                max_steps = starts[-1] if len(starts) > 1 else max_steps
            traj = simulate(
                state,
                max_steps=max_steps,
                fixed_tol=(0.0, 1e-3)[k % 2],
                record_every=1 + k % 3,
            )
            if k % 5 == 0:
                traj.to_csv(tmp_path / "traj.csv")
                traj = load_trajectory_csv(str(tmp_path / "traj.csv"), state)
            v = check_limit_equilibrium(traj, residual_tol=math.inf)
            if not v.premise_holds:
                continue
            inf_mask = proximity_mask(state.with_opinions(v.x_infinity))
            assert v.topology_matches_tail == loop_topology_matches_tail(traj, inf_mask)
            verdicts.append(v.topology_matches_tail)
        assert True in verdicts and False in verdicts

    def test_unconverged_trajectory_rejected(self, fig41_state):
        traj = simulate(fig41_state, max_steps=3, limit_tol=0.0)
        with pytest.raises(ValueError):
            check_limit_equilibrium(traj)


class TestConstantTopologyTheorem:
    def build_equilibrium(self, rng, n):
        """Random agreement-vector equilibrium with min delta > 0."""
        k = int(rng.integers(1, max(2, n // 2) + 1))
        centers = np.cumsum(rng.uniform(2.0, 3.0, k))
        y = centers[rng.integers(0, k, n)]
        r = rng.uniform(0.1, 0.6, n)
        kind = Model.SBC if rng.random() < 0.5 else Model.SBI
        return OpinionState(y, r, kind)

    def test_invariant_neighborhood_traps_trajectories(self):
        rng = np.random.default_rng(113)
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 10))
            z_state = self.build_equilibrium(rng, n)
            if not is_equilibrium(z_state, tol=0.0):
                continue
            eps = equi_topology_distance(z_state)
            delta = invariant_equi_topology_distance(z_state)
            if delta.min() <= 0.0:
                continue
            checked += 1
            x0 = sample_in_neighborhood(rng, z_state.opinions, delta, scale=0.9)
            assert in_neighborhood(x0, z_state, delta)
            x0_state = z_state.with_opinions(x0)
            f0 = fvct(x0_state)
            traj = simulate(x0_state, max_steps=200, limit_tol=0.0)
            gz_edges = neighbor_lists(build_digraph(z_state))
            for x in traj.states:
                assert in_neighborhood(x, z_state, eps)
                s_now = z_state.with_opinions(x)
                assert neighbor_lists(build_digraph(s_now)) == gz_edges
                c = classify(build_digraph(s_now))
                assert not any(cl is SccClass.MODERATE for cl in c.classes)
            assert np.max(np.abs(traj.states[-1] - f0)) < 1e-10


class TestStabilityReport:
    def test_equilibrium_report(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.25, 1.0, 0.25], Model.SBC)
        report = stability_report(state)
        assert report.is_equilibrium
        assert not report.is_agreement
        assert report.in_et_of_fvct
        assert report.in_iet_of_fvct
        data = report.to_json()
        assert data["epsilon"] == [0.125, 0.125, 0.125]

    def test_special_case_state(self, fig41_state):
        report = stability_report(fig41_state)
        assert not report.is_equilibrium
        assert report.in_iet_of_fvct

    def test_single_agent_inf_serializes(self):
        report = stability_report(OpinionState([0.2], [0.1]))
        assert report.to_json()["epsilon"] == ["inf"]

    def test_each_state_analysed_once(self, monkeypatch):
        # The state gets one distance matrix for eps and one for its digraph,
        # its fvct one for both its mask and its eps, and each at most one
        # digraph and one classification; an fvct that keeps the state's mask
        # shares the state's.  The report equals the checks run one by one
        # from the state.
        from opinion_lab import graph

        states = list(edge_states(np.random.default_rng(211)))
        wants, keeps = [], []
        for state in states:
            eps = equi_topology_distance(state)
            f_state = OpinionState(fvct(state), state.bounds, state.kind)
            keeps.append(np.array_equal(proximity_mask(f_state), proximity_mask(state)))
            eps_f = equi_topology_distance(f_state)
            wants.append((
                eps.tobytes(),
                invariant_equi_topology_distance(state).tobytes(),
                is_equilibrium(state, tol=1e-10),
                is_agreement_vector(state),
                in_neighborhood(state.opinions, f_state, eps_f),
                in_neighborhood(
                    state.opinions, f_state, invariant_equi_topology_distance(f_state)
                ),
                check_agreement_sufficient(state),
            ))

        assert any(keeps) and not all(keeps)
        counts = count_calls(monkeypatch, graph.build_digraph, graph.classify, graph._distances)
        for state, want, keep in zip(states, wants, keeps):
            counts.update(build_digraph=0, classify=0, _distances=0)
            r = stability_report(state)
            assert counts["build_digraph"] <= 2 and counts["classify"] <= 2
            assert counts["_distances"] <= 3
            if keep:
                assert counts["build_digraph"] == counts["classify"] == 1
            got = (
                r.epsilon.tobytes(),
                r.delta.tobytes(),
                r.is_equilibrium,
                r.is_agreement,
                r.in_et_of_fvct,
                r.in_iet_of_fvct,
                r.agreement_condition,
            )
            assert got == want

    def test_weak_components_run_on_the_condensation_only(self, monkeypatch):
        # The WCCs of the state come from classify's flood fill over the
        # condensation, so no input has a row per agent when the state and
        # its fvct both have fewer SCCs than agents.
        from opinion_lab import graph

        original, sizes = graph.weak_components, []

        def recorded(mask):
            sizes.append(mask.shape)
            return original(mask)

        rng = np.random.default_rng(233)
        states = list(edge_states(rng)) + [grid_state(rng) for _ in range(40)]
        sccs = [
            max(len(strongly_connected_components(build_digraph(s))) for s in (state, f_state))
            for state, f_state in ((s, s.with_opinions(fvct(s))) for s in states)
        ]
        assert sum(k < state.n for state, k in zip(states, sccs)) > 20
        monkeypatch.setattr(graph, "weak_components", recorded)
        for state, k in zip(states, sccs):
            sizes.clear()
            stability_report(state)
            assert sizes and all(rows == cols <= k for rows, cols in sizes)


class TestExtremeMagnitudes:
    """Opinions at ±1e308, where |y_i - y_j| overflows to inf, and
    subnormal bounds."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "kind, mask, limit",
        [
            (Model.SBC, [[1, 1, 1], [0, 1, 0], [0, 0, 1]], [5e307, 1e308, 0.0]),
            (Model.SBI, [[1, 0, 0], [1, 1, 0], [1, 0, 1]], [-1e308, -1e308, -1e308]),
        ],
    )
    def test_overflowing_distances(self, kind, mask, limit):
        # The infinite bound meets the overflowed distance |1e308 - -1e308|;
        # the slack there is +inf, so each agent's nearest boundary is 1e308 away.
        state = OpinionState([-1e308, 1e308, 0.0], [math.inf, 0.1, 0.1], kind)
        assert np.array_equal(proximity_mask(state), np.array(mask, dtype=bool))
        eps = equi_topology_distance(state)
        delta = invariant_equi_topology_distance(state)
        assert np.array_equal(eps, [5e307] * 3)
        assert np.array_equal(delta, [5e307] * 3)
        assert in_neighborhood(state.opinions, state, delta)
        assert fvct(state) == pytest.approx(limit, rel=1e-15)
        report = stability_report(state).to_json()
        assert report["epsilon"] == report["delta"] == [5e307] * 3

    @pytest.mark.parametrize("kind", list(Model))
    def test_subnormal_bounds(self, kind):
        tiny = 5e-324
        state = OpinionState([0.0, tiny], [tiny, tiny], kind)
        assert proximity_mask(state).all()
        assert np.array_equal(equi_topology_distance(state), [0.0, 0.0])
