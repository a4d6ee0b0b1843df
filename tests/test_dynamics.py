import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinion_lab import (
    Model,
    OpinionState,
    Termination,
    Trajectory,
    adjacency_matrix,
    build_digraph,
    digraph_hash,
    fvct,
    per_step_factor,
    pseudo_stable_check,
    simulate,
)
from opinion_lab import dynamics
from opinion_lab.cli import load_trajectory_csv
from opinion_lab.dynamics import Epoch
from opinion_lab.experiment import draw_state
from opinion_lab.graph import ProximityDigraph, _distances
from opinion_lab.stability import equi_topology_distance

from conftest import (
    count_calls,
    distance_equi_topology_radius,
    distance_neighbor_mask,
    edge_states,
    epoch_start_states,
    grid_state,
    loop_per_step_factor,
    loop_pseudo_stable_check,
    random_state,
    reference_digraph_hash,
    reference_splitmix64,
    reference_simulate,
    reference_step,
)


def test_digraph_hash_matches_edge_by_edge_reference(fig41_state):
    # The published first output of SplitMix64 seeded with 0.
    assert reference_splitmix64(0) == 0xE220A8397B1DCDAF
    assert digraph_hash(build_digraph(fig41_state)) == "26eb80b05e1c8147"
    rng = np.random.default_rng(61)
    states = [random_state(rng, max_n=15) for _ in range(30)]
    states.extend(epoch_start_states(rng, runs=5))
    states.extend(edge_states(rng))
    for state in states:
        g = build_digraph(state)
        assert digraph_hash(g) == reference_digraph_hash(g)


class TestLabel:
    def test_opinions_with_the_same_mask_share_a_label(self, fig41_state):
        moved = fig41_state.with_opinions([0.05, 0.5, 0.95])
        assert build_digraph(moved) == build_digraph(fig41_state)
        assert digraph_hash(build_digraph(moved)) == digraph_hash(build_digraph(fig41_state))
        other = fig41_state.with_opinions([0.0, 0.9, 1.0])
        assert digraph_hash(build_digraph(other)) != digraph_hash(build_digraph(fig41_state))

    def test_sums_wrap_silently_mod_two_to_the_64(self):
        # Every agent hears all 8: each row's sum of keys passes 2**64.
        g = build_digraph(OpinionState(np.zeros(8), np.ones(8), Model.SBI))
        assert sum(reference_splitmix64(j) for j in range(8)) >= 2**64
        assert digraph_hash(g) == reference_digraph_hash(g)

    def test_the_label_temporary_stays_small(self):
        # A dense uint64 copy of this 2 %-full n = 2000 mask would take
        # 32 MB; the key sums are taken over row blocks instead.
        import tracemalloc

        rng = np.random.default_rng(71)
        g = build_digraph(OpinionState(rng.uniform(0.0, 1.0, 2000), np.full(2000, 0.01), Model.SBC))
        digraph_hash(g)
        tracemalloc.start()
        try:
            label = digraph_hash(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert label == reference_digraph_hash(g)

    def test_a_label_keeps_at_most_one_block(self):
        # A mask of at most 2**16 entries keeps its 0/1 float cast for the
        # averaging matrix; a larger one keeps nothing, so the temporary
        # bound above holds for every label, also on a fresh digraph.
        rng = np.random.default_rng(73)
        for n in (1, 255, 256, 257, 2000):
            g = build_digraph(OpinionState(rng.uniform(0.0, 1.0, n), np.full(n, 0.01), Model.SBC))
            assert digraph_hash(g) == reference_digraph_hash(g)
            if n * n <= 2**16:
                assert g._cast.tobytes() == g.mask.astype(float).tobytes()
            else:
                assert g._cast is None

    def test_label_is_sixteen_hex_digits_of_the_mask(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            state = random_state(rng, max_n=30)
            label = digraph_hash(build_digraph(state))
            assert len(label) == 16 and int(label, 16) >= 0
            assert label == Epoch(0, state).label


def scaled_cast(g):
    """The averaging matrix from a fresh float cast of the mask."""
    a = g.mask.astype(float)
    a *= (1.0 / a.sum(axis=1))[:, None]
    return a


@st.composite
def wide_masks(draw):
    """Masks with self-loops, n 1-300, of any density."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((n, n)) < draw(st.floats(0.0, 1.0))) | np.eye(n, dtype=bool)


class TestLabelAndMatrix:
    """The label's key sums come from float limbs and block casts of the
    mask, and a one-block cast is the one the averaging matrix scales: the
    label of the edge-by-edge reference and the matrix of a fresh cast, bit
    for bit, in either read order."""

    @staticmethod
    def assert_both_orders(g_of):
        for label_first in (True, False):
            g = g_of()
            if label_first:
                label = digraph_hash(g)
                cast = g._cast
                a = adjacency_matrix(g)
                # A mask of at most 2**16 entries hands its label's cast
                # over; a larger one keeps none.
                assert a is cast if g.n**2 <= 2**16 else cast is None
            else:
                a = adjacency_matrix(g)
                label = digraph_hash(g)
            want = scaled_cast(g)
            assert (a.dtype, a.strides) == (want.dtype, want.strides)
            assert a.tobytes() == want.tobytes()
            assert label == reference_digraph_hash(g)
            # A second matrix is its own array, of the same bits.
            again = adjacency_matrix(g)
            assert again is not a and again.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(wide_masks())
    def test_hypothesis_masks(self, mask):
        self.assert_both_orders(lambda: ProximityDigraph(mask))

    @pytest.mark.parametrize("n", [1, 2, 64, 300])
    def test_complete_mask(self, n):
        self.assert_both_orders(lambda: ProximityDigraph(np.ones((n, n), dtype=bool)))

    def test_states(self):
        rng = np.random.default_rng(257)
        states = list(edge_states(rng)) + [grid_state(rng) for _ in range(40)]
        states.extend(epoch_start_states(rng, runs=3))
        for state in states:
            self.assert_both_orders(lambda: build_digraph(state))
            for order in (("label", "matrix"), ("matrix", "label")):
                epoch = Epoch(0, state)
                for name in order:
                    getattr(epoch, name)
                assert epoch.label == reference_digraph_hash(epoch.digraph)
                assert epoch.matrix.tobytes() == scaled_cast(epoch.digraph).tobytes()


class TestWithOpinions:
    def test_shares_the_bounds_and_checks_only_the_opinions(self, fig41_state):
        y = np.array([0.1, 0.2, 0.3])
        moved = fig41_state.with_opinions(y)
        assert moved.bounds is fig41_state.bounds and moved.kind is fig41_state.kind
        assert moved.opinions is not y and not moved.opinions.flags.writeable
        y[0] = 9.0
        assert moved.opinions.tolist() == [0.1, 0.2, 0.3]
        assert type(moved) is OpinionState and moved.n == 3

    @pytest.mark.parametrize(
        "y, message",
        [
            ([0.0, math.nan, 1.0], "must be finite"),
            ([0.0, math.inf, 1.0], "must be finite"),
            ([0.0, 1.0], "equal length"),
            ([0.0, 0.5, 1.0, 2.0], "equal length"),
            ([[0.0, 0.5, 1.0]], "1-D"),
        ],
    )
    def test_rejects_bad_opinions(self, fig41_state, y, message):
        with pytest.raises(ValueError, match=message):
            fig41_state.with_opinions(y)

    def test_a_state_needs_an_agent(self):
        with pytest.raises(ValueError, match="at least one agent is required"):
            OpinionState([], [])


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
            wcc0 = Epoch(0, state).digraph.classification.wccs
            traj = simulate(state, max_steps=60, limit_tol=0.0)
            # Only check while the weak components stay identical.
            for k in range(len(traj.states) - 1):
                s_now = state.with_opinions(traj.states[k])
                if Epoch(0, s_now).digraph.classification.wccs != wcc0:
                    break
                a, b = traj.states[k], traj.states[k + 1]
                for members in map(list, wcc0):
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
        # Counts every digraph constructed, whether build_digraph computes
        # the mask or the digraph's change test builds a new one.
        calls = []
        post_init = ProximityDigraph.__post_init__

        def counted(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(ProximityDigraph, "__post_init__", counted)
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
        # Only the first epoch's state is read, by its digraph build; an
        # epoch's state is built when read, once.
        assert len(states) == 1 and states[0].tobytes() == state.opinions.tobytes()
        epoch = traj.final_epoch
        first = traj.states[traj.times.index(epoch.start)]
        assert epoch.state is epoch.state and len(states) == 2
        assert epoch.state.opinions.tobytes() == first.tobytes()
        assert epoch.state.bounds is state.bounds and epoch.state.kind is state.kind
        assert epoch.digraph == build_digraph(epoch.state)

    @pytest.mark.parametrize("record_every", [1, 5])
    def test_states_are_one_float_array(self, fig62_state, record_every):
        traj = simulate(fig62_state, max_steps=37, record_every=record_every, limit_tol=0.0)
        assert traj.states.shape == (len(traj.times), fig62_state.n)
        assert traj.states.dtype == np.float64
        assert all(type(t) is int for t in traj.times)
        assert traj.times[-1] == 37
        assert traj.is_dense() == (record_every == 1)

    def test_tail_index_is_the_final_epoch_start(self):
        rng = np.random.default_rng(167)
        for k in range(60):
            traj = simulate(random_state(rng, max_n=10), max_steps=60, record_every=1 + k % 4, limit_tol=0.0)
            start = traj.topology_epochs[-1][0]
            want = next(k for k, t in enumerate(traj.times) if t >= start)
            assert traj.tail_index() == want

    def test_rejects_bad_options(self, fig41_state):
        with pytest.raises(ValueError):
            simulate(fig41_state, max_steps=0)
        with pytest.raises(ValueError):
            simulate(fig41_state, record_every=0)

    @pytest.mark.parametrize("option", ["fixed_tol", "limit_tol"])
    @pytest.mark.parametrize("value", [math.nan, -1e-12, -math.inf, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_nonnegative(self, fig41_state, option, value):
        # A NaN limit_tol used to switch the tolerance stop off silently, and
        # a NaN or negative fixed_tol to mean an exact fixed check.
        with pytest.raises(ValueError, match=option):
            simulate(fig41_state, **{option: value})

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("fixed_tol", [0.0, 1e-9])
    def test_edge_states_match_reference_loop_and_loader(self, tmp_path, fixed_tol):
        # No tolerance stop: at opinions near 1e300 the reference's limit
        # (from an epoch's second state) and simulate's (from its first)
        # differ by more than any absolute tolerance below their rounding.
        rng = np.random.default_rng(181)
        path = str(tmp_path / "trajectory.csv")
        for k, state in enumerate(edge_states(rng)):
            max_steps = 5 if k % 5 == 0 else 400
            got = simulate(state, max_steps=max_steps, fixed_tol=fixed_tol, limit_tol=0.0)
            want = reference_simulate(state, max_steps, fixed_tol=fixed_tol, limit_tol=0.0)
            assert got.times == want.times
            assert got.states.tobytes() == want.states.tobytes()
            assert got.topology_epochs == want.topology_epochs
            assert (got.termination, got.fixed_at) == (want.termination, want.fixed_at)
            got.to_csv(path)
            loaded = load_trajectory_csv(path, state)
            assert loaded.states.tobytes() == got.states.tobytes()
            assert loaded.topology_epochs == got.topology_epochs
            assert loaded.final_epoch.start == got.final_epoch.start

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_tolerance_stop_is_the_first_step_near_its_epoch_limit(self):
        # At any magnitude: the step gate before the limit check must not
        # hold back a stop.  Near 1e300 a step's rounding alone moves the
        # state by more than 1e3 tolerances.
        rng = np.random.default_rng(211)
        limit_tol = 1e-12
        stops = 0
        for state in edge_states(rng):
            traj = simulate(state, max_steps=400, limit_tol=limit_tol)
            dense = simulate(state, max_steps=traj.times[-1], limit_tol=0.0)
            # A fixed or max_steps stop at t checks its steps before t.
            checked = traj.times[-1] + (traj.termination is Termination.TOLERANCE_REACHED)
            starts = [t for t, _ in dense.topology_epochs] + [checked]
            first = None
            for s, end in zip(starts, starts[1:]):
                f = Epoch(s, state.with_opinions(dense.states[s])).fvct()
                near = [t for t in range(s + 1, end) if np.max(np.abs(dense.states[t] - f)) < limit_tol]
                if near:
                    first = near[0]
                    break
            if traj.termination is Termination.TOLERANCE_REACHED:
                stops += 1
                assert traj.times[-1] == first
            else:
                assert first is None
        assert stops > 20


class TestAnchorBox:
    """The box around an anchor state inside which the epoch detector skips
    the proximity mask."""

    @staticmethod
    def anchors(rng):
        yield from edge_states(rng, max_n=20)
        for _ in range(40):
            yield grid_state(rng)
        for _ in range(40):
            yield random_state(rng, max_n=30)
        for state in epoch_start_states(rng, runs=4):
            yield state
        # Opinions of mixed magnitudes, each bound a few ulps from one of
        # its agent's distances, where the rounding of a distance decides
        # the mask: a box of the bare radius eps does not keep it here.
        for k in range(300):
            a = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.integers(-3, 8, 3)
            dist = _distances(a)
            r = dist[np.arange(3), (np.arange(3) + rng.integers(1, 3, 3)) % 3]
            for _ in range(int(rng.integers(1, 40))):
                r = np.nextafter(r, np.where(rng.random(3) < 0.5, np.inf, 0.0))
            if (r > 0).all():
                yield OpinionState(a, r, Model.SBC if k % 2 else Model.SBI)

    @staticmethod
    def box(state):
        a = state.opinions
        return dynamics._anchor_radius(_distances(a), state.bounds, a)

    @staticmethod
    def inside(rng, a, rho):
        """Points of the box |x - a| < rho, agents without a positive
        radius kept at the anchor: random ones and its corners pulled in by
        whole ulps."""
        reach = np.clip(rho, 0.0, 1e300)
        for k in range(12):
            sign = rng.choice([-1.0, 1.0], len(a))
            frac = 1.0 if k % 2 else rng.uniform(0.0, 1.0, len(a))
            x = a + sign * frac * reach
            out = (np.abs(x - a) >= reach) & (reach > 0)
            while out.any():
                x[out] = np.nextafter(x[out], a[out])
                out = (np.abs(x - a) >= reach) & (reach > 0)
            yield x

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_the_box_keeps_the_mask(self):
        rng = np.random.default_rng(191)
        boxes = points = 0
        for state in self.anchors(rng):
            a, r = state.opinions, state.bounds
            rho = self.box(state)
            assert (rho <= equi_topology_distance(state)).all()
            want = distance_neighbor_mask(_distances(a), r, state.kind)
            boxes += bool((rho > 0).all())
            for x in self.inside(rng, a, rho):
                assert np.array_equal(distance_neighbor_mask(_distances(x), r, state.kind), want)
                if (rho > 0).all():
                    assert (np.abs(x - a) < rho).all()
                    points += 1
        assert boxes > 100 and points > 1000

    def test_no_box_where_rounding_is_unbounded(self):
        # Subnormal slacks and opinions beyond 2**1000 give radius 0.
        for y, r in (([0.0, 3e-320], [1e-320, 1e-320]), ([0.0, 2.0**1001], [1.0, 1.0])):
            state = OpinionState(y, r, Model.SBC)
            assert (equi_topology_distance(state) > 0).all()
            assert not self.box(state).any()

    def test_a_pair_moved_by_its_slack_leaves_the_box_and_changes_the_mask(self):
        # Negative control: move the two agents of an agent's tightest pair
        # towards the bound that sets its slack by just over half the slack
        # each, so the pair crosses it.
        rng = np.random.default_rng(197)
        crossed = 0
        for state in self.anchors(rng):
            a, r = state.opinions, state.bounds
            eps = equi_topology_distance(state)
            i = int(np.argmin(eps))
            if np.abs(a).max() > 10.0 or not 1e-6 < eps[i] < np.inf:
                continue
            dist = _distances(a)
            j, bound = next(
                (j, bound) for j in range(state.n) if j != i
                for bound in (r[i], r[j]) if abs(dist[i, j] - bound) == 2 * eps[i]
            )
            step = eps[i] * (1 + 1e-6)
            toward = 1.0 if dist[i, j] > bound else -1.0  # shrink or stretch the pair
            lo, hi = (i, j) if a[i] <= a[j] else (j, i)
            x = a.copy()
            x[lo] += toward * step
            x[hi] -= toward * step
            assert not (np.abs(x - a) < self.box(state)).all()
            mask_a = distance_neighbor_mask(dist, r, state.kind)
            assert not np.array_equal(distance_neighbor_mask(_distances(x), r, state.kind), mask_a)
            crossed += 1
        assert crossed > 50


class TestMaskEvaluations:
    """The exact change test runs only where a state leaves its epoch's box."""

    @staticmethod
    def counted(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_a_long_constant_topology_tail_skips_most_masks(self, monkeypatch):
        masks = self.counted(monkeypatch, ProximityDigraph, "at")
        traj = simulate(draw_state(Model.SBC, 50, 0, 1))
        steps = traj.times[-1]
        assert steps - traj.final_epoch.start > 500
        assert len(masks) < steps / 5

    def test_a_run_of_new_epochs_builds_no_box(self, monkeypatch):
        masks = self.counted(monkeypatch, ProximityDigraph, "at")
        boxes = self.counted(monkeypatch, dynamics, "_anchor_radius")
        traj = simulate(draw_state(Model.SBI, 100, 0, 1), max_steps=9)
        assert [t for t, _ in traj.topology_epochs] == list(range(10))
        assert len(masks) == 9 and not boxes
        assert traj.final_epoch._anchor is None

    def test_epsilon_is_read_only_at_a_re_anchor(self, monkeypatch):
        # Each exact change test that keeps the mask re-anchors and reads
        # ε once from its distances; one that opens an epoch reads none.
        from opinion_lab import graph

        log = []
        at, radius = ProximityDigraph.at, graph._equi_topology_radius

        def logged_at(g, *args):
            got = at(g, *args)
            log.append("kept" if got[0] is g else "opened")
            return got

        def logged_radius(*args):
            log.append("eps")
            return radius(*args)

        monkeypatch.setattr(ProximityDigraph, "at", logged_at)
        monkeypatch.setattr(graph, "_equi_topology_radius", logged_radius)
        monkeypatch.setattr(dynamics, "_equi_topology_radius", logged_radius)
        rng = np.random.default_rng(271)
        states = [*epoch_start_states(rng, runs=3), *edge_states(rng), draw_state(Model.SBC, 50, 0, 1)]
        kept = opened = 0
        for state in states:
            for kind in Model:
                log.clear()
                simulate(OpinionState(state.opinions, state.bounds, kind))
                assert log.count("eps") == log.count("kept")
                assert all(b == "eps" for a, b in zip(log, log[1:] + [None]) if a == "kept")
                kept, opened = kept + log.count("kept"), opened + log.count("opened")
        assert kept > 500 and opened > 500


@functools.cache
def long_tail_reference(fixed_tol, limit_tol):
    """``reference_simulate``, dense, from a state whose final epoch runs
    for more than 500 steps (steps 152 to 820 under the default tolerances)."""
    return reference_simulate(draw_state(Model.SBC, 50, 0, 1), 10**5, fixed_tol=fixed_tol, limit_tol=limit_tol)


def recorded(dense, record_every, max_steps=None):
    """``reference_simulate``'s output at ``record_every``, and at a
    ``max_steps`` before its stop, read from its dense run: every state
    recorded up to the stop, every epoch started by then."""
    stop = dense.times[-1] if max_steps is None else max_steps
    times = [t for t in dense.times if t <= stop and (t % record_every == 0 or t == stop)]
    return Trajectory(
        bounds=dense.bounds,
        kind=dense.kind,
        times=times,
        states=dense.states[times],
        topology_epochs=[(t, h) for t, h in dense.topology_epochs if t <= stop],
        fixed_at=dense.fixed_at if max_steps is None else None,
        termination=dense.termination if max_steps is None else Termination.MAX_STEPS,
    )


TOLERANCES = [(0.0, 1e-12), (0.0, 0.0), (1e-9, 0.0), (1e-9, 1e-12)]


class TestBlocks:
    """A long constant-topology stretch is stepped in blocks: the same bits
    as the per-step loop, with the box test run on a few states only."""

    @staticmethod
    def assert_same_run(got, want):
        assert got.times == want.times
        assert got.states.tobytes() == want.states.tobytes()
        assert got.topology_epochs == want.topology_epochs
        assert (got.final_epoch.start, got.final_epoch.label) == got.topology_epochs[-1]
        assert (got.termination, got.fixed_at) == (want.termination, want.fixed_at)

    @pytest.mark.parametrize("record_every", [1, 7, 10**5])
    @pytest.mark.parametrize("fixed_tol, limit_tol", TOLERANCES)
    def test_long_tail_matches_reference_loop(self, fixed_tol, limit_tol, record_every):
        dense = long_tail_reference(fixed_tol, limit_tol)
        assert dense.times[-1] - dense.topology_epochs[-1][0] > 300
        got = simulate(
            draw_state(Model.SBC, 50, 0, 1), fixed_tol=fixed_tol, record_every=record_every, limit_tol=limit_tol
        )
        self.assert_same_run(got, recorded(dense, record_every))

    @pytest.mark.parametrize("fixed_tol, limit_tol", TOLERANCES)
    def test_max_steps_inside_a_block_matches_reference_loop(self, monkeypatch, fixed_tol, limit_tol):
        dense = long_tail_reference(fixed_tol, limit_tol)
        ends = []
        steps = Epoch._steps

        def stepped(epoch, x, k):
            xs = steps(epoch, x, k)
            ends.append(xs[-1])
            return xs

        monkeypatch.setattr(Epoch, "_steps", stepped)
        # Up to the step before the stop T: a fixed stop at T is found at
        # step T - 1.
        last = dense.times[-1] - 1
        for max_steps in [m for m in (160, 301, 517) if m < last] + [last]:
            for record_every in (1, 7):
                ends.clear()
                got = simulate(
                    draw_state(Model.SBC, 50, 0, 1),
                    max_steps=max_steps,
                    fixed_tol=fixed_tol,
                    record_every=record_every,
                    limit_tol=limit_tol,
                )
                self.assert_same_run(got, recorded(dense, record_every, max_steps))
                # The last block ends at max_steps.
                assert got.states[-1].tobytes() == ends[-1].tobytes()

    def test_a_long_tail_is_stepped_in_blocks(self, monkeypatch):
        boxes = TestMaskEvaluations.counted(monkeypatch, dynamics, "_epoch_at")
        blocks = []
        steps = Epoch._steps

        def stepped(epoch, x, k):
            xs = steps(epoch, x, k)
            blocks.append(xs.size)
            # Row for row the one stepping kernel, bit for bit.
            for i in range(k):
                assert epoch._step(xs[i]).tobytes() == xs[i + 1].tobytes()
            return xs

        monkeypatch.setattr(Epoch, "_steps", stepped)
        traj = simulate(draw_state(Model.SBC, 50, 0, 1), limit_tol=0.0)
        end = traj.times[-1]
        assert end - traj.final_epoch.start > 500
        assert len(boxes) < end / 4
        assert sum(blocks) > 500 * 50 and max(blocks) <= 2**20

    @pytest.mark.parametrize("floats", [2 * 50 - 1, 2 * 50, 20 * 50])
    def test_blocks_hold_at_most_the_float_cap(self, monkeypatch, floats):
        # Under a cap below two states no block is stepped; at two states a
        # block holds one step.  The bits stay those of the reference.
        monkeypatch.setattr(dynamics, "_BLOCK_FLOATS", floats)
        blocks = []
        steps = Epoch._steps
        monkeypatch.setattr(Epoch, "_steps", lambda epoch, x, k: blocks.append(k) or steps(epoch, x, k))
        got = simulate(draw_state(Model.SBC, 50, 0, 1), limit_tol=0.0)
        self.assert_same_run(got, recorded(long_tail_reference(0.0, 0.0), 1))
        assert all((k + 1) * 50 <= floats for k in blocks)
        assert bool(blocks) == (floats >= 2 * 50)


class TestEpochAt:
    """``Epoch.at`` gives the epoch of other opinions under the same bounds,
    sharing the topology exactly when the mask is kept, and with its ε
    measured from the same distance matrix as its mask."""

    @staticmethod
    def epochs(rng):
        for state in edge_states(rng):
            yield Epoch(0, state)
        for state in epoch_start_states(rng, runs=3):
            yield Epoch(0, state)
        # Final epochs of runs, most with an anchor box.
        for k in range(20):
            state = random_state(rng, max_n=20)
            yield simulate(state, max_steps=int(rng.integers(1, 200)), limit_tol=0.0).final_epoch

    @staticmethod
    def points(rng, epoch):
        y = epoch.state.opinions
        yield y
        yield epoch.fvct()
        yield y + rng.uniform(-1e-9, 1e-9, len(y)) * np.abs(y).max()
        yield rng.permutation(y)
        yield rng.uniform(y.min(), y.max(), len(y))
        if epoch._anchor is not None:
            yield epoch._anchor + 0.5 * rng.uniform(-1.0, 1.0, len(y)) * epoch._radius

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_at_shares_the_topology_iff_the_mask_is_kept(self):
        from opinion_lab.graph import proximity_mask

        def two_step(y, r):
            return distance_equi_topology_radius(_distances(y), r)

        rng = np.random.default_rng(223)
        kept = changed = anchored = 0
        for epoch in self.epochs(rng):
            anchor, radius = epoch._anchor, epoch._radius
            before = None if anchor is None else (anchor.tobytes(), radius.tobytes())
            anchored += anchor is not None
            r = epoch.state.bounds
            assert epoch.epsilon.tobytes() == two_step(epoch.state.opinions, r).tobytes()
            for y in self.points(rng, epoch):
                other = epoch.state.with_opinions(y)
                got = epoch.at(y)
                want = proximity_mask(other)
                assert np.array_equal(got.digraph.mask, want)
                same = np.array_equal(want, epoch.digraph.mask)
                kept, changed = kept + same, changed + (not same)
                assert (got.digraph is epoch.digraph) == same
                assert (got.digraph.classification is epoch.digraph.classification) == same
                # Each epoch builds its own matrix, bitwise equal iff the digraph is shared.
                assert got.matrix is not epoch.matrix
                assert (got.matrix.tobytes() == epoch.matrix.tobytes()) == same
                assert got.fvct().tobytes() == fvct(other).tobytes()
                assert got.epsilon.tobytes() == two_step(other.opinions, r).tobytes()
                assert epoch._anchor is anchor and epoch._radius is radius
                if anchor is not None:
                    assert (anchor.tobytes(), radius.tobytes()) == before
        assert kept > 300 and changed > 200 and anchored > 10

    def test_epochs_on_one_digraph_share_one_classification(self, monkeypatch):
        # The classification belongs to the digraph: epochs that hold the
        # same digraph object, built on it or from Epoch.at, classify once.
        from opinion_lab import graph

        counts = count_calls(monkeypatch, graph.classify)
        for state in edge_states(np.random.default_rng(239)):
            counts.update(classify=0)
            g = build_digraph(state)
            first = Epoch(0, state, g)
            second, kept = Epoch(5, state, g), first.at(state.opinions.copy())
            for epoch in (first, second, kept):
                assert epoch.digraph is g
                assert epoch.fvct().tobytes() == first.fvct().tobytes()
            assert first.digraph.classification is second.digraph.classification
            assert first.decomposition.matrix.tobytes() == kept.decomposition.matrix.tobytes()
            assert counts["classify"] == 1


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

    @staticmethod
    def assert_bit_equal(got, want):
        assert [v is None for v in got] == [v is None for v in want]
        assert [np.float64(v).tobytes() for v in got if v is not None] == [
            np.float64(v).tobytes() for v in want if v is not None
        ]

    @pytest.mark.parametrize("tiny", [1e-13, 0.0, 2.0**-20])
    def test_matches_loop_oracle_bit_for_bit(self, tiny):
        rng = np.random.default_rng(163)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            f = rng.choice([0.0, 0.5, -0.25], n) + rng.uniform(-1, 1, n) * (rng.random() < 0.5)
            x_t = f + rng.choice([0.0, tiny, -tiny, 1e-3, -2e-14, 0.3], n)
            x_next = np.where(rng.random(n) < 0.3, f, f + rng.uniform(-1e-3, 1e-3, n))
            self.assert_bit_equal(
                per_step_factor(x_t, x_next, f, tiny=tiny), loop_per_step_factor(x_t, x_next, f, tiny=tiny)
            )

    def test_denominator_exactly_at_tiny_is_undefined(self):
        f = [0.0, 0.0, 0.0, 1.0]
        got = per_step_factor([1e-13, -1e-13, 2e-13, 1.0], [0.0, 5e-14, 1e-13, 1.0], f, tiny=1e-13)
        self.assert_bit_equal(got, loop_per_step_factor([1e-13, -1e-13, 2e-13, 1.0], [0.0, 5e-14, 1e-13, 1.0], f, tiny=1e-13))
        assert got == [None, None, 0.5, None]

    def test_recorded_factors_match_loop_oracle(self, fig62_state):
        traj = simulate(fig62_state, max_steps=400, limit_tol=0.0)
        f = fvct(fig62_state)
        for k in range(len(traj.times) - 1):
            self.assert_bit_equal(
                per_step_factor(traj.states[k], traj.states[k + 1], f),
                loop_per_step_factor(traj.states[k], traj.states[k + 1], f),
            )


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


class TestPseudoStableScan:
    """The suffix scans against the agent-by-agent loop they replaced."""

    @staticmethod
    def trajectories(rng):
        for k in range(120):
            if k % 4 == 0:
                state = grid_state(rng, max_n=12)
            elif k % 4 == 1:
                state = OpinionState([rng.uniform()], [rng.uniform(0.01, 0.5)])
            else:
                state = random_state(rng, max_n=12)
            limit_tol = (1e-12, 1e-6, 0.0)[k % 3]
            yield simulate(state, max_steps=int(rng.integers(2, 300)), limit_tol=limit_tol)

    @staticmethod
    def limits(traj):
        f = fvct(traj.final_state())
        yield f
        yield traj.final_epoch.fvct()
        yield traj.states[-1]
        yield traj.states[0]
        yield np.nextafter(f, np.inf)

    @pytest.mark.parametrize("fixed_tol", [0.0, 1e-12])
    def test_matches_loop_oracle(self, fixed_tol):
        rng = np.random.default_rng(139)
        verdicts = []
        for traj in self.trajectories(rng):
            if len(traj.times) < 2:
                continue
            for limit in self.limits(traj):
                got = pseudo_stable_check(traj, limit, fixed_tol=fixed_tol)
                assert got == loop_pseudo_stable_check(traj, limit, fixed_tol=fixed_tol)
                verdicts.append(got)
        # The sample reaches every branch: no verdict, and both sets.
        assert any(v.holds_from is None for v in verdicts)
        assert any(v.holds_from is not None and v.holds_from > 0 for v in verdicts)
        assert any(v.fixed_set and v.converging_set for v in verdicts)

    def test_single_agent(self):
        traj = simulate(OpinionState([0.3], [0.1]), max_steps=5)
        assert len(traj.times) == 2
        for limit in ([0.3], [0.4]):
            assert pseudo_stable_check(traj, limit) == loop_pseudo_stable_check(traj, limit)
        assert pseudo_stable_check(traj, [0.3]).fixed_set == frozenset({0})
        assert pseudo_stable_check(traj, [0.4]).holds_from is None

    def test_an_agent_both_fixed_and_converging_counts_as_fixed(self):
        # Inside the tolerance and strictly approaching: both clauses hold
        # from the same pair.
        states = np.array([[0.5 - d, 0.9 + d] for d in (4e-13, 2e-13, 1e-13)])
        traj = Trajectory(bounds=np.array([0.1, 0.1]), kind=Model.SBC, times=[0, 1, 2], states=states)
        got = pseudo_stable_check(traj, [0.5, 0.9], fixed_tol=1e-12)
        assert got == loop_pseudo_stable_check(traj, [0.5, 0.9], fixed_tol=1e-12)
        assert got.fixed_set == frozenset({0, 1}) and got.holds_from == 0

    @pytest.mark.parametrize("limit", [[0.5], [0.0, 0.5, 1.0, 1.0], [[0.0, 0.5, 1.0]]])
    def test_rejects_a_limit_of_the_wrong_shape(self, fig41_state, limit):
        traj = simulate(fig41_state, max_steps=20)
        with pytest.raises(ValueError, match="shape"):
            pseudo_stable_check(traj, limit)


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
