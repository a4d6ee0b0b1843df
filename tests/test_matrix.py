import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinion_lab import (
    Model,
    OpinionState,
    SccClass,
    adjacency_matrix,
    build_digraph,
    canonical_decomposition,
    classify,
    fvct,
    m_star,
    simulate,
    spectral_radius,
)
from opinion_lab.dynamics import Epoch
from opinion_lab.experiment import draw_state
from opinion_lab.graph import ProximityDigraph
from opinion_lab.leader import leader_assignment
from opinion_lab.matrix import CanonicalDecomposition, fvct_canonical, left_perron_vector

from conftest import (
    edge_states,
    epoch_start_states,
    eye_fvct_canonical,
    eye_left_perron_vector,
    ix_canonical_decomposition,
    matrix_power_radius,
    power_iteration_left_perron_vector,
    power_iteration_spectral_radius,
    random_state,
)


def assert_theta_block_lower_triangular(d):
    """Every Theta block above the block diagonal is zero."""
    offsets = np.cumsum([0, *d.open_sizes])
    for bi in range(len(d.open_sizes)):
        assert np.all(d.Theta[offsets[bi] : offsets[bi + 1], offsets[bi + 1] :] == 0.0)


def decompose(state):
    g = build_digraph(state)
    c = classify(g)
    return adjacency_matrix(g), canonical_decomposition(adjacency_matrix(g), c)


class TestAdjacencyMatrix:
    def test_three_agent_rows(self, fig41_state):
        a = adjacency_matrix(build_digraph(fig41_state))
        expected = np.array(
            [[1, 0, 0], [1 / 3, 1 / 3, 1 / 3], [0, 0, 1]]
        )
        assert np.allclose(a, expected, atol=0, rtol=0)

    def test_single_agent(self):
        a = adjacency_matrix(build_digraph(OpinionState([2.0], [1.0])))
        assert np.array_equal(a, [[1.0]])

    def test_eight_agent_rows(self, fig62_state):
        a = adjacency_matrix(build_digraph(fig62_state))
        assert np.allclose(a[4], [0.25, 0.25, 0, 0, 0.25, 0.25, 0, 0])
        assert np.allclose(a[7], np.full(8, 0.125))

    def test_bits_of_the_division_at_every_degree(self):
        # One float cast scaled by fl(1/c) against the 0/1 adjacency divided
        # by its row sums: rows of every degree 1..400, and random masks.
        rng = np.random.default_rng(11)
        p = rng.permutation(400)
        masks = [np.tri(400, dtype=bool)[p][:, p]]
        for _ in range(100):
            n = int(rng.integers(1, 60))
            masks.append((rng.random((n, n)) < rng.random()) | np.eye(n, dtype=bool))
        for mask in masks:
            a = adjacency_matrix(ProximityDigraph(mask))
            want = mask / mask.sum(axis=1, keepdims=True)
            assert (a.dtype, a.strides) == (want.dtype, want.strides)
            assert a.tobytes() == want.tobytes()

    def test_row_stochastic_positive_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = random_state(rng)
            a = adjacency_matrix(build_digraph(state))
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(np.diag(a) > 0)


class TestCanonicalDecomposition:
    def test_seventeen_agent_block_sizes(self, seventeen_agent_state):
        _, d = decompose(seventeen_agent_state)
        assert d.C.shape == (6, 6)
        assert d.closed_sizes == (1, 2, 3)
        assert d.M.shape == (7, 7)
        assert d.moderate_sizes == (3, 4)
        assert d.Theta.shape == (4, 4)

    def test_all_closed_state(self):
        # Two far-apart singletons: no moderate or open blocks.
        _, d = decompose(OpinionState([0.0, 10.0], [0.1, 0.1]))
        assert d.M.shape == (0, 0)
        assert d.Theta.shape == (0, 0)
        assert np.array_equal(d.C, np.eye(2))

    def test_eight_agent_theta_blocks(self, fig62_state):
        _, d = decompose(fig62_state)
        assert d.open_sizes == (2, 1, 1)
        blocks = [d.Theta[sl, sl] for _, sl in d.open_block_slices()]
        assert np.allclose(blocks[0], [[0.25, 0.25], [0.25, 0.25]])
        assert np.allclose(blocks[1], [[1 / 3]])
        assert np.allclose(blocks[2], [[0.125]])

    def test_theta_block_lower_triangular(self):
        rng = np.random.default_rng(5)
        states = [random_state(rng) for _ in range(200)]
        states.extend(edge_states(rng))
        states.extend(epoch_start_states(rng, runs=5))
        for state in states:
            g = build_digraph(state)
            c = classify(g)
            d = canonical_decomposition(adjacency_matrix(g), c)
            assert d.open_sccs == tuple(k for k, t in enumerate(c.classes) if t is SccClass.OPEN)
            assert_theta_block_lower_triangular(d)

    def test_open_blocks_in_scc_search_order(self):
        # Agents 0 -> 2 -> 3 and 1 -> 3, with {3} closed: the open SCCs are
        # 1 = {2}, 2 = {0} and 3 = {1}.  A topological sort that breaks ties
        # on the smallest member lays them out as (3, 1, 2); the search's
        # order is (1, 2, 3).
        state = OpinionState([0.125, 1.0, 0.5, 0.75], [0.375, 0.25, 0.25, 0.125])
        g = build_digraph(state)
        c = classify(g)
        a = adjacency_matrix(g)
        d = canonical_decomposition(a, c)
        assert c.sccs == ((3,), (2,), (0,), (1,))
        assert d.open_sccs == (1, 2, 3)
        assert leader_assignment(Epoch(0, state)).open_sccs == (1, 2, 3)
        assert_theta_block_lower_triangular(d)
        assert np.array_equal(d.Theta, [[0.5, 0, 0], [0.5, 0.5, 0], [0, 0, 0.5]])
        np.testing.assert_allclose(
            fvct(state), np.linalg.matrix_power(a, 10_000) @ state.opinions, rtol=0, atol=1e-15
        )

    def test_closed_blocks_are_complete_consensus(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            state = random_state(rng)
            _, d = decompose(state)
            offset = 0
            for size in d.closed_sizes:
                block = d.C[offset : offset + size, offset : offset + size]
                assert np.allclose(block, np.full((size, size), 1.0 / size))
                offset += size

    def test_blocks_are_views_of_the_permuted_matrix(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            _, d = decompose(random_state(rng))
            blocks = (d.C, d.M, d.Theta, d.ThetaC, d.ThetaM)
            assert all(np.shares_memory(b, d.matrix) for b in blocks if b.size)
            nc, no = d.n_closed, d.n - d.n_open
            assert [b.shape for b in blocks] == [
                (nc, nc), (no - nc, no - nc), (d.n_open, d.n_open), (d.n_open, nc), (d.n_open, no - nc)
            ]

    def test_permutation_similarity_is_exact(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            state = random_state(rng)
            a, d = decompose(state)
            abar = d.matrix
            inv = np.empty_like(d.permutation)
            inv[d.permutation] = np.arange(len(d.permutation))
            assert np.array_equal(abar[np.ix_(inv, inv)], a)

    def test_theta_row_sum_lemma(self):
        # Some power of Theta (at most n) has row sum < 1 in every row.
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(300):
            state = random_state(rng)
            _, d = decompose(state)
            k = d.Theta.shape[0]
            if k == 0:
                continue
            checked += 1
            power = np.eye(k)
            deficient = np.zeros(k, dtype=bool)
            for _ in range(state.n):
                power = power @ d.Theta
                deficient |= power.sum(axis=1) < 1.0 - 1e-12
            assert np.all(deficient)
        assert checked > 50

    def test_theta_spectral_radius_in_unit_interval(self):
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(200):
            state = random_state(rng)
            _, d = decompose(state)
            if d.Theta.shape[0] == 0:
                continue
            checked += 1
            rho = spectral_radius(d.Theta)
            assert 0.0 < rho < 1.0
        assert checked > 40


class TestSpectralRadius:
    def test_two_by_two_consensus_half(self):
        assert spectral_radius(np.full((2, 2), 0.25)) == pytest.approx(0.5, abs=1e-12)

    def test_complete_consensus_matrix_is_one(self):
        for n in (1, 2, 5, 9):
            block = np.full((n, n), 1.0 / n)
            assert spectral_radius(block) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_block(self):
        assert spectral_radius(np.array([[0.125]])) == 0.125

    def test_matches_numpy_eigenvalues(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.uniform(0, 1, (n, n)) + np.eye(n)
            expected = max(abs(np.linalg.eigvals(m)))
            assert spectral_radius(m) == pytest.approx(expected, rel=1e-9)
            assert spectral_radius(m) == pytest.approx(
                power_iteration_spectral_radius(m), rel=1e-9
            )

    def test_tied_state_where_power_iteration_stalls(self):
        # From a uniform start, the first two power-iteration sums on this
        # open block are both 11/12 (to rounding), so the loop stopped there.
        state = OpinionState(
            np.array([3, 0, 0, 4, 6, 6]) / 16, np.array([1, 3, 4, 4, 1, 1]) / 16, Model.SBC
        )
        _, d = decompose(state)
        assert d.open_sizes == (4,)
        assert power_iteration_spectral_radius(d.Theta) == pytest.approx(11 / 12, abs=1e-15)
        rho = spectral_radius(d.Theta)
        assert rho == pytest.approx(matrix_power_radius(d.Theta), rel=1e-12)
        assert rho == pytest.approx(0.8976668227215641, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.full((2, 3), 0.1))


class TestMStar:
    def test_consensus_matrix_is_its_own_limit(self):
        block = np.full((2, 2), 0.5)
        assert np.allclose(m_star(block), block, atol=1e-12)

    def test_two_by_two_closed_form(self):
        # Left eigenvector of [[a,1-a],[b,1-b]] is [b, 1-a] / (1-a+b).
        rng = np.random.default_rng(37)
        for _ in range(50):
            a, b = rng.uniform(0.05, 0.95, 2)
            m = np.array([[a, 1 - a], [b, 1 - b]])
            expected_row = np.array([b, 1 - a]) / (1 - a + b)
            result = m_star(m)
            assert np.allclose(result, np.tile(expected_row, (2, 1)), atol=1e-12)

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = rng.uniform(0.05, 1.0, (5, 5)) + np.eye(5)
            m /= m.sum(axis=1, keepdims=True)
            limit = np.linalg.matrix_power(m, 1000)
            result = m_star(m)
            assert np.max(np.abs(limit - result)) < 1e-8

    def test_rows_identical_and_stochastic(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = rng.uniform(0.05, 1.0, (n, n)) + np.eye(n)
            m /= m.sum(axis=1, keepdims=True)
            result = m_star(m)
            assert np.max(np.abs(result - result[0])) < 1e-10
            assert result[0].sum() == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(m @ result - result)) < 1e-10

    def test_left_perron_vector_is_left_eigenvector(self):
        rng = np.random.default_rng(47)
        m = rng.uniform(0.1, 1.0, (4, 4))
        m /= m.sum(axis=1, keepdims=True)
        nu = left_perron_vector(m)
        assert np.max(np.abs(nu @ m - nu)) < 1e-11


class TestFvct:
    def test_three_agent_value(self, fig41_state):
        assert np.allclose(fvct(fig41_state), [0.0, 0.5, 1.0], atol=1e-12)

    def test_equilibrium_maps_to_itself(self):
        state = OpinionState([0.0, 0.5, 1.0], [0.25, 1.0, 0.25], Model.SBC)
        assert np.allclose(fvct(state), state.opinions, atol=1e-14)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            state = random_state(rng, max_n=10)
            g = build_digraph(state)
            a = adjacency_matrix(g)
            oracle = np.linalg.matrix_power(a, 10_000) @ state.opinions
            assert np.max(np.abs(fvct(state) - oracle)) < 1e-8

    def test_fixed_point_of_frozen_topology(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            state = random_state(rng)
            a = adjacency_matrix(build_digraph(state))
            f = fvct(state)
            assert np.max(np.abs(a @ f - f)) < 1e-10

    def test_moderate_components_reach_internal_consensus(self):
        rng = np.random.default_rng(59)
        from opinion_lab import SccClass

        checked = 0
        for _ in range(500):
            state = random_state(rng)
            c = classify(build_digraph(state))
            moderate = [
                m for m, cl in zip(c.sccs, c.classes) if cl is SccClass.MODERATE
            ]
            if not moderate:
                continue
            checked += 1
            f = fvct(state)
            for members in moderate:
                vals = f[list(members)]
                assert np.max(vals) - np.min(vals) < 1e-10
            if checked >= 30:
                break
        assert checked >= 10

    def test_equal_topology_implies_equilibrium_without_moderates(self):
        from opinion_lab import SccClass, check_equal_topology, is_equilibrium

        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(400):
            state = random_state(rng)
            f = fvct(state)
            if not check_equal_topology(f, state):
                continue
            checked += 1
            f_state = state.with_opinions(f)
            assert is_equilibrium(f_state, tol=1e-10)
            c = classify(build_digraph(state))
            assert not any(cl is SccClass.MODERATE for cl in c.classes)
            # Extremes of every weak component sit in closed-minded parts.
            g_f = build_digraph(f_state)
            cf = classify(g_f)
            closed_nodes = set(cf.nodes_of_class(SccClass.CLOSED))
            for wcc in map(list, cf.wccs):
                vals = f[wcc]
                lo_node = wcc[int(np.argmin(vals))]
                hi_node = wcc[int(np.argmax(vals))]
                lo_peers = [v for v in wcc if f[v] == f[lo_node]]
                hi_peers = [v for v in wcc if f[v] == f[hi_node]]
                assert any(v in closed_nodes for v in lo_peers)
                assert any(v in closed_nodes for v in hi_peers)
        assert checked > 50

    def test_canonical_variant_agrees(self, fig62_state):
        g = build_digraph(fig62_state)
        c = classify(g)
        d = canonical_decomposition(adjacency_matrix(g), c)
        assert np.array_equal(
            fvct_canonical(d, fig62_state.opinions), fvct(fig62_state)
        )


class TestUniformChain:
    @pytest.mark.parametrize("n", [50, 100, 200, 400])
    def test_exact_and_fast(self, n):
        # SBC on evenly spaced opinions, each agent reaching only its nearest
        # neighbors: one moderate block whose Perron vector is degree / sum.
        # Power iteration stopped 3.0e-10 away from it at n = 200 after
        # 0.7 s, and took seconds at n = 400.
        state = OpinionState(np.linspace(0.0, 1.0, n), np.full(n, 1.5 / (n - 1)), Model.SBC)
        g = build_digraph(state)
        assert classify(g).classes == (SccClass.MODERATE,)
        degree = g.mask.sum(axis=1)
        a = adjacency_matrix(g)
        start = time.perf_counter()
        nu = left_perron_vector(a)
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(nu - degree / degree.sum())) <= 1e-13
        assert elapsed < 0.5


# --- Property tests on random irreducible and digraph-derived blocks -------

EPS = np.finfo(float).eps


@st.composite
def irreducible_stochastic_blocks(draw, max_n=12):
    """Row-stochastic blocks with a positive diagonal and a ring through
    every node (so irreducible), plus random extra edges and weights."""
    n = draw(st.integers(1, max_n))
    weights = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    ).reshape(n, n)
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=1) | np.eye(n, dtype=bool)
    weights = np.where(ring, np.maximum(weights, 1e-3), weights)
    return weights / weights.sum(axis=1, keepdims=True)


# Opinions and bounds on a dyadic grid: differences are exact, so duplicate
# opinions and exact boundary ties |y_i - y_j| = r occur often.
grid_states = st.integers(1, 14).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 16), min_size=n, max_size=n),
        st.lists(st.integers(1, 6), min_size=n, max_size=n),
        st.sampled_from([Model.SBC, Model.SBI]),
    )
).map(lambda t: OpinionState(np.array(t[0]) / 16, np.array(t[1]) / 16, t[2]))


def moderate_and_open_blocks(state):
    _, d = decompose(state)
    offset, moderate = 0, []
    for size in d.moderate_sizes:
        moderate.append(d.M[offset : offset + size, offset : offset + size])
        offset += size
    return moderate, [d.Theta[sl, sl] for _, sl in d.open_block_slices()]


def assert_perron_vector(block):
    n = len(block)
    nu = left_perron_vector(block)
    assert np.all(nu >= 0.0)
    assert abs(nu.sum() - 1.0) <= 4 * n * EPS
    assert np.max(np.abs(nu @ (np.eye(n) - block))) <= 8 * n * EPS
    return nu


def assert_radius(block):
    rho = spectral_radius(block)
    rows = block.sum(axis=1)
    slack = 8 * len(block) * EPS
    assert rows.min() - slack <= rho <= rows.max() + slack
    assert rho == pytest.approx(matrix_power_radius(block), rel=1e-12)


class TestPerronProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(irreducible_stochastic_blocks())
    def test_perron_vector_of_irreducible_block(self, block):
        nu = assert_perron_vector(block)
        assert np.max(np.abs(nu - power_iteration_left_perron_vector(block))) < 1e-9

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_states)
    def test_blocks_of_tied_and_duplicate_states(self, state):
        moderate, open_blocks = moderate_and_open_blocks(state)
        for block in moderate:
            assert_perron_vector(block)
        for block in open_blocks:
            assert_radius(block)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(irreducible_stochastic_blocks(), st.floats(0.05, 0.95))
    def test_radius_of_substochastic_block(self, block, scale):
        # Open blocks lose row mass to their successors.
        assert_radius(block * scale)


# --- The take gather and the identity-free solves against the np.ix_ and
# np.eye forms they replaced, bit for bit. --------------------------------


@st.composite
def sparse_irreducible_blocks(draw, max_n=60):
    """Row-stochastic blocks, n 1-60, with exact zeros off a positive
    diagonal and a ring through every node (so irreducible)."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.where(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), rng.random((n, n)), 0.0)
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=1) | np.eye(n, dtype=bool)
    weights = np.where(ring, np.maximum(weights, 1e-3), weights)
    return weights / weights.sum(axis=1, keepdims=True)


def three_part_decomposition(moderate, theta, rng):
    """The canonical layout of one closed agent, the moderate block and the
    open block ``theta``, each open row's missing mass split at random
    between the closed agent and the moderate block."""
    m, k = len(moderate), len(theta)
    a = np.zeros((1 + m + k, 1 + m + k))
    a[0, 0] = 1.0
    a[1 : 1 + m, 1 : 1 + m] = moderate
    a[1 + m :, 1 + m :] = theta
    share = rng.random((k, 1 + m))
    a[1 + m :, : 1 + m] = share / share.sum(axis=1, keepdims=True) * (1.0 - theta.sum(axis=1))[:, None]
    return CanonicalDecomposition(
        permutation=np.arange(1 + m + k),
        matrix=a,
        C=a[:1, :1],
        M=a[1 : 1 + m, 1 : 1 + m],
        Theta=a[1 + m :, 1 + m :],
        ThetaC=a[1 + m :, :1],
        ThetaM=a[1 + m :, 1 : 1 + m],
        open_sccs=(2,),
        closed_sizes=(1,),
        moderate_sizes=(m,),
        open_sizes=(k,),
    )


class TestBitsOfTheReplacedForms:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        sparse_irreducible_blocks(),
        sparse_irreducible_blocks(),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
    )
    def test_solves_match_the_eye_oracle(self, moderate, block, scale, seed):
        assert left_perron_vector(moderate).tobytes() == eye_left_perron_vector(moderate).tobytes()
        rng = np.random.default_rng(seed)
        d = three_part_decomposition(moderate, block * scale, rng)
        signed_zeros = np.where(rng.random(d.n) < 0.5, -0.0, 0.0)
        y = np.where(rng.random(d.n) < 0.3, signed_zeros, rng.normal(size=d.n))
        for x in (y, signed_zeros):
            assert fvct_canonical(d, x).tobytes() == eye_fvct_canonical(d, x).tobytes()

    def test_late_states_match_the_ix_and_eye_oracles(self):
        rng = np.random.default_rng(53)
        states = epoch_start_states(rng, runs=10)
        for kind in Model:
            for run in range(3):
                traj = simulate(draw_state(kind, 60, run, 7), max_steps=2000)
                states.extend(traj.state_at_index(k) for k in (len(traj.times) // 2, -1))
        open_parts = 0
        for state in states:
            g = build_digraph(state)
            a = adjacency_matrix(g)
            d = canonical_decomposition(a, g.classification)
            want = ix_canonical_decomposition(a, g.classification)
            assert d.matrix.flags.c_contiguous
            for name in ("matrix", "C", "M", "Theta", "ThetaC", "ThetaM"):
                got, ref = getattr(d, name), getattr(want, name)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            limit = eye_fvct_canonical(want, state.opinions).tobytes()
            assert fvct_canonical(d, state.opinions).tobytes() == limit
            assert fvct(state).tobytes() == limit
            open_parts += d.n_open > 0 and d.n_moderate > 0
        assert open_parts > 10
