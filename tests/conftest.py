import numpy as np
import pytest

from opinion_lab import Model, OpinionState


def count_calls(monkeypatch, *fns):
    """Count the calls of each of ``fns`` through every opinion_lab module
    that binds it by name; returns the counts keyed by function name."""
    import sys

    counts = dict.fromkeys((fn.__name__ for fn in fns), 0)
    for fn in fns:
        def counted(*args, _fn=fn):
            counts[_fn.__name__] += 1
            return _fn(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("opinion_lab") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return counts


@pytest.fixture
def fig41_state():
    # 3-agent system: two stubborn extremists and one open middle agent.
    return OpinionState([0.0, 0.6, 1.0], [0.25, 1.0, 0.25], Model.SBC)


@pytest.fixture
def fig62_state():
    return OpinionState(
        [0.0, 1.5, 3.5, 5.0, 1.0, 1.0, 4.0, 2.1],
        [0.01, 0.01, 0.01, 0.01, 1.0, 1.0, 1.0, 3.0],
        Model.SBC,
    )


@pytest.fixture
def finite_fix_state():
    # Reaches an exact fixed state in finite time while keeping
    # open-minded agents in the digraph of the limit.
    return OpinionState(
        [0.0, 2.0, 3.0, 4.5, 7.0], [0.01, 3.0, 0.01, 3.0, 0.01], Model.SBC
    )


@pytest.fixture
def seventeen_agent_state():
    x = [0.1, 0.24, 0.27, 0.3, 0.34, 0.37, 0.39, 0.4, 0.5, 0.6, 0.67,
         0.68, 0.75, 0.85, 0.86, 0.87, 1.0]
    r = [0.5, 0.04, 0.04, 0.04, 0.031, 0.021, 0.011, 0.061, 0.25, 0.01,
         0.04, 0.03, 0.3, 0.07, 0.07, 0.07, 0.135]
    return OpinionState(x, r, Model.SBC)


def random_state(rng, n=None, kind=None, max_n=12, bounds_hi=0.5):
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    if kind is None:
        kind = Model.SBC if rng.random() < 0.5 else Model.SBI
    y = rng.uniform(0.0, 1.0, n)
    r = rng.uniform(0.01, bounds_hi, n)
    return OpinionState(y, r, kind)


def grid_state(rng, max_n=30):
    """Opinions and bounds on a 1/16 grid: boundary ties and duplicates."""
    n = int(rng.integers(1, max_n + 1))
    kind = Model.SBC if rng.random() < 0.5 else Model.SBI
    return OpinionState(rng.integers(0, 17, n) / 16, rng.integers(1, 9, n) / 16, kind)


def edge_states(rng, max_n=12):
    """States at the edges of the neighbor rule and of float64: random,
    1/16-grid ties, duplicate opinions, infinite bounds, opinions and bounds
    near ±1e300 and subnormal ones, and single agents."""
    for k in range(60):
        kind = Model.SBC if k % 2 else Model.SBI
        n = int(rng.integers(2, max_n + 1))
        y, r = rng.uniform(-1.0, 1.0, n), rng.uniform(0.05, 0.8, n)
        family = k % 6
        if family == 0:
            yield OpinionState(y, r, kind)
        elif family == 1:
            yield OpinionState(rng.integers(0, 17, n) / 16, rng.integers(1, 9, n) / 16, kind)
        elif family == 2:
            yield OpinionState(np.repeat(y[: (n + 1) // 2], 2)[:n], r, kind)
        elif family == 3:
            yield OpinionState(y, np.where(rng.random(n) < 0.4, np.inf, r), kind)
        elif family == 4:
            scale = 1e300 if k % 4 else -1e300
            yield OpinionState(y * scale, r * abs(scale), kind)
        else:
            yield OpinionState(y * 1e-310, r * 1e-310, kind)
    yield OpinionState([0.3], [0.1], Model.SBC)
    yield OpinionState([0.3], [np.inf], Model.SBI)


# --- The mask and ε from a fresh distance matrix, written out apart from
# graph.py's ``_near`` and its in-place slacks, kept as oracles. -----------


def distance_neighbor_mask(dist, r, kind):
    """The proximity mask compared on the distance matrix."""
    if kind is Model.SBC:
        return dist <= r[:, None]
    return dist <= r[None, :]


def distance_equi_topology_radius(dist, r):
    """ε from the distance matrix: half the smallest |dist_ij - r| against
    either agent's bound, +inf for a single agent, NaN slacks skipped."""
    import math

    with np.errstate(invalid="ignore"):
        slack = dist - r[:, None]
    np.abs(slack, out=slack)
    np.fill_diagonal(slack, math.inf)
    return 0.5 * np.fmin(np.fmin.reduce(slack, axis=0), np.fmin.reduce(slack, axis=1))


def two_matrix_equi_topology_distance(state):
    """The equi-topology distance as it was first written: the slack matrix
    against the listener's bound and the one against the speaker's, their
    elementwise minimum, and its row minima."""
    import math

    z = state.opinions
    r = state.bounds
    n = state.n
    if n == 1:
        return np.array([math.inf])
    dist = np.abs(z[:, None] - z[None, :])
    # inf - inf is NaN, a slack of +inf, which fmin skips (diagonals stay inf).
    with np.errstate(invalid="ignore"):
        slack = np.fmin(np.abs(dist - r[:, None]), np.abs(dist - r[None, :]))
    np.fill_diagonal(slack, math.inf)
    return 0.5 * np.fmin.reduce(slack, axis=1)


def digraph_oracle(state):
    """Direct double-loop evaluation of the neighbor inequality."""
    y, r = state.opinions, state.bounds
    out = []
    for i in range(state.n):
        nbrs = []
        for j in range(state.n):
            bound = r[i] if state.kind is Model.SBC else r[j]
            if abs(y[i] - y[j]) <= bound:
                nbrs.append(j)
        out.append(tuple(nbrs))
    return tuple(out)


def mask_agreement_oracle(state):
    """The former agreement rule, n^2 comparisons: no edge of the proximity
    mask joins two different opinions."""
    from opinion_lab.graph import proximity_mask

    y = state.opinions
    return not np.any(proximity_mask(state) & (y[:, None] != y[None, :]))


def neighbor_lists(g):
    """Every node's out-neighbors as an ascending tuple, self included."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in g.mask)


def tuple_strongly_connected_components(g):
    """Tarjan over neighbor tuples, as the library ran it before it read
    mask rows: the same SCCs, in the same order."""
    out_neighbors = neighbor_lists(g)
    n = g.n
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list = []
    sccs: list = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # Explicit DFS stack of (node, neighbor iterator position).
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            nbrs = out_neighbors[v]
            while pos < len(nbrs):
                w = nbrs[pos]
                pos += 1
                if index[w] == -1:
                    work.append((v, pos))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def reference_step(state):
    """One synchronous update: each agent averages its out-neighbors."""
    from opinion_lab import adjacency_matrix, build_digraph

    return adjacency_matrix(build_digraph(state)) @ state.opinions


def reachability_oracle(g):
    """Transitive closure by repeated boolean matrix squaring."""
    n = g.n
    reach = np.zeros((n, n), dtype=bool)
    for i, nbrs in enumerate(neighbor_lists(g)):
        reach[i, list(nbrs)] = True
    for _ in range(n.bit_length() + 1):
        reach = reach | (reach @ reach)
    return reach


def closure_invariant_equi_topology_distance(state, eps):
    """Per-agent minimum of eps over the column of the closure oracle that
    marks everyone who can reach the agent."""
    import math

    from opinion_lab import build_digraph

    reach = reachability_oracle(build_digraph(state))
    return np.where(reach, np.asarray(eps, dtype=float)[:, None], math.inf).min(axis=0)


def closure_weak_components(mask):
    """WCCs read off the closure oracle of the symmetrised mask (self-loops
    added), each sorted ascending, in order of smallest member."""
    from opinion_lab.graph import ProximityDigraph

    n = len(mask)
    if n == 0:
        return ()
    reach = reachability_oracle(ProximityDigraph(mask | mask.T | np.eye(n, dtype=bool)))
    firsts = [v for v in range(n) if reach[v].argmax() == v]
    return tuple(tuple(np.flatnonzero(reach[v]).tolist()) for v in firsts)


def open_wccs_oracle(g, c):
    """Open WCCs by union-find over every node-level edge between open
    nodes, each sorted ascending, in order of their smallest member."""
    from opinion_lab import SccClass

    parent = {v: v for v in c.nodes_of_class(SccClass.OPEN)}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    out_neighbors = neighbor_lists(g)
    for i in parent:
        for j in out_neighbors[i]:
            if j in parent:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for v in sorted(parent):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(m) for _, m in sorted(groups.items()))


def reference_adjacency_matrix(g):
    """Row-stochastic matrix filled row by row from the neighbor lists."""
    a = np.zeros((g.n, g.n))
    for i, nbrs in enumerate(neighbor_lists(g)):
        a[i, list(nbrs)] = 1.0 / len(nbrs)
    return a


def condensation_oracle(g, c):
    """Condensation out-edges from the SCC pair of every node-level edge."""
    succs = [set() for _ in c.sccs]
    for i, nbrs in enumerate(neighbor_lists(g)):
        for j in nbrs:
            if c.scc_of[i] != c.scc_of[j]:
                succs[c.scc_of[i]].add(c.scc_of[j])
    return tuple(tuple(sorted(e)) for e in succs)


def epoch_start_states(rng, runs=20):
    """The first state of every epoch of some runs: clustered late states."""
    from opinion_lab import simulate

    states = []
    for _ in range(runs):
        traj = simulate(random_state(rng, n=30, bounds_hi=0.2), max_steps=500)
        starts = [t for t, _ in traj.topology_epochs]
        states.extend(traj.state_at_index(traj.times.index(t)) for t in starts)
    return states


# --- Power iteration: how spectral_radius and left_perron_vector worked
# before they became direct linear algebra, kept as oracles. --------------


def power_iteration_spectral_radius(
    block: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6
) -> float:
    """Dominant eigenvalue magnitude of a nonnegative primitive matrix.

    Power iteration with a uniform start vector; for the blocks arising
    here the positive diagonal guarantees primitivity and convergence.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError("block must be square")
    if np.any(block < 0):
        raise ValueError("block must be nonnegative")
    n = block.shape[0]
    if n == 1:
        return float(block[0, 0])
    v = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(max_iter):
        w = block @ v
        total = w.sum()
        if total == 0.0:
            return 0.0
        lam_new = total  # v is normalized to sum 1
        v = w / total
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return float(lam_new)
        lam = lam_new
    raise RuntimeError(
        f"spectral radius did not converge in {max_iter} iterations"
    )


def power_iteration_left_perron_vector(
    block: np.ndarray, tol: float = 1e-13, max_iter: int = 10**6
) -> np.ndarray:
    """Left eigenvector for the Perron root, normalized to sum 1."""
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    nu = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w = block.T @ nu
        total = w.sum()
        if total == 0.0:
            raise RuntimeError("left eigenvector iteration degenerated")
        w /= total
        if np.max(np.abs(w - nu)) <= tol:
            return w
        nu = w
    raise RuntimeError(
        f"left eigenvector did not converge in {max_iter} iterations"
    )


def matrix_power_radius(block, squarings=60):
    """Spectral radius of a primitive nonnegative block from a high power:
    B^(2^k), rescaled after each squaring, tends to a multiple of the
    rank-one Perron projector P, and B P = rho P."""
    p = np.asarray(block, dtype=float)
    for _ in range(squarings):
        p = p @ p
        p /= p.sum()
    return float((block @ p).sum() / p.sum())


# --- Reference kernels: the stepping loops as they were before simulate
# became the single kernel, kept to pin its outputs. ---------------------


MASK64 = (1 << 64) - 1


def reference_splitmix64(j):
    """The first output of a SplitMix64 generator seeded with ``j``, in
    Python ints (Steele, Lea & Flood, OOPSLA 2014)."""
    z = (j + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_digraph_hash(g):
    """The label edge by edge in Python ints: sha256 over n as 8
    little-endian bytes, then per node i the sum of splitmix64(j) over its
    edges (i, j) mod 2**64 as 8 little-endian bytes; 16 hex digits."""
    import hashlib

    h = hashlib.sha256(g.n.to_bytes(8, "little"))
    for row in g.mask.tolist():
        total = sum(reference_splitmix64(j) for j, edge in enumerate(row) if edge)
        h.update((total & MASK64).to_bytes(8, "little"))
    return h.hexdigest()[:16]


def reference_simulate(state, max_steps, fixed_tol=0.0, record_every=1, limit_tol=1e-12):
    """Rebuilds and hashes the digraph every step and at the final state;
    checks the tolerance (against the fvct of the epoch's second state)
    before stepping, and reports fixed_at only for a fixed-state stop."""
    from opinion_lab import Termination, Trajectory, adjacency_matrix, build_digraph, classify
    from opinion_lab.matrix import canonical_decomposition, fvct_canonical

    def record_final(traj, t, x):
        h = reference_digraph_hash(build_digraph(state.with_opinions(x)))
        if h != traj.topology_epochs[-1][1]:
            traj.topology_epochs.append((t, h))
        if not traj.times or traj.times[-1] != t:
            traj.times.append(t)
            traj.states.append(np.array(x, dtype=float))
        traj.states = np.array(traj.states)

    x = np.array(state.opinions, dtype=float)
    traj = Trajectory(bounds=state.bounds, kind=state.kind, times=[], states=[])
    current_hash = cached_fvct = None
    for t in range(max_steps):
        g = build_digraph(state.with_opinions(x))
        h = reference_digraph_hash(g)
        if h != current_hash:
            traj.topology_epochs.append((t, h))
            current_hash = h
            cached_fvct = None
        if t % record_every == 0:
            traj.times.append(t)
            traj.states.append(x.copy())
        if limit_tol > 0.0 and t > traj.topology_epochs[-1][0]:
            if cached_fvct is None:
                decomp = canonical_decomposition(adjacency_matrix(g), classify(g))
                cached_fvct = fvct_canonical(decomp, x)
            if np.max(np.abs(x - cached_fvct)) < limit_tol:
                traj.termination = Termination.TOLERANCE_REACHED
                record_final(traj, t, x)
                return traj
        x_next = adjacency_matrix(g) @ x
        if fixed_tol > 0.0:
            fixed = bool(np.max(np.abs(x_next - x)) <= fixed_tol)
        else:
            fixed = bool(np.array_equal(x_next, x))
        if fixed:
            traj.fixed_at = t + 1
            traj.termination = Termination.FIXED_STATE
            record_final(traj, t + 1, x_next)
            return traj
        x = x_next
    traj.termination = Termination.MAX_STEPS
    record_final(traj, max_steps, x)
    return traj


def reference_run_single(model, n, run, cfg):
    """Mask-compared epochs with an eager per-epoch limit and delta radii;
    the fixed check comes before the tolerance check at every step, and the
    state after the last step takes the limit of its own epoch."""
    from opinion_lab import (
        RunRecord,
        adjacency_matrix,
        build_digraph,
        classify,
        draw_state,
        equi_topology_distance,
        in_neighborhood,
        invariant_equi_topology_distance,
        run_seed,
    )
    from opinion_lab.graph import proximity_mask
    from opinion_lab.matrix import canonical_decomposition, fvct_canonical

    state = draw_state(model, n, run, cfg.seed, cfg.opinion_range, cfg.bounds_range)
    x = np.array(state.opinions, dtype=float)
    tau = fixed_at = None
    converged = False
    current_mask = a = f = f_state = delta_f = None
    for t in range(cfg.max_steps):
        mask = proximity_mask(state.with_opinions(x))
        if current_mask is None or not np.array_equal(mask, current_mask):
            current_mask = mask
            g = build_digraph(state.with_opinions(x))
            a = adjacency_matrix(g)
            f = fvct_canonical(canonical_decomposition(a, classify(g)), x)
            f_state = state.with_opinions(f)
            delta_f = invariant_equi_topology_distance(f_state)
        if tau is None and t % cfg.check_every == 0 and in_neighborhood(x, f_state, delta_f):
            tau = t
        x_next = a @ x
        if np.array_equal(x_next, x):
            fixed_at = t + 1
            converged = True
            break
        if np.max(np.abs(x - f)) < cfg.limit_tol:
            converged = True
            break
        x = x_next
    else:
        if not np.array_equal(proximity_mask(state.with_opinions(x)), current_mask):
            g = build_digraph(state.with_opinions(x))
            f = fvct_canonical(canonical_decomposition(adjacency_matrix(g), classify(g)), x)
    return RunRecord(
        model=Model(model),
        n=n,
        run=run,
        seed=run_seed(cfg.seed, model, n, run),
        tau_condition=tau,
        fixed_at=fixed_at,
        converged=converged,
        final_residual=float(np.max(np.abs(x - f))),
    )


# --- The analyses as they ran before they became array code, kept as
# oracles. ----------------------------------------------------------------


def digraph_json_oracle(g):
    """The edge-list JSON text as ``json.dumps`` prints the dict export."""
    import json

    return json.dumps({"n": g.n, "edges": np.argwhere(g.mask).tolist()})


def report_json_oracle(report):
    """The stability report's dict as ``dataclasses.asdict`` and a per-value
    pass over ε and δ built it."""
    import math
    from dataclasses import asdict

    def value(v):
        return "inf" if math.isinf(v) else float(v)

    agreement = report.agreement_condition
    return {
        **vars(report),
        "epsilon": [value(v) for v in report.epsilon],
        "delta": [value(v) for v in report.delta],
        "agreement_condition": {**asdict(agreement), "predicted_finite_time": agreement.predicted_finite_time},
    }


def loop_pseudo_stable_check(traj, limit, fixed_tol=0.0):
    """Agent by agent, step by step: the pseudo-stability scan in Python."""
    from opinion_lab.dynamics import PseudoStableVerdict

    if len(traj.times) < 2:
        raise ValueError("need at least 2 recorded steps")
    if not traj.is_dense():
        raise ValueError("trajectory must be recorded densely (record_every=1)")
    limit = np.asarray(limit, dtype=float)
    states = traj.states
    n = traj.n
    npairs = len(states) - 1

    holds = 0
    fixed: set = set()
    converging: set = set()
    for i in range(n):
        li = limit[i]
        fixed_from = 0
        conv_from = 0
        # Earliest pair index from which each clause holds through the end.
        for k in range(npairs - 1, -1, -1):
            a, b = states[k][i], states[k + 1][i]
            if not (abs(a - li) <= fixed_tol and abs(b - li) <= fixed_tol):
                fixed_from = k + 1
                break
        for k in range(npairs - 1, -1, -1):
            a, b = states[k][i], states[k + 1][i]
            if not (a < b < li or a > b > li):
                conv_from = k + 1
                break
        if fixed_from == npairs and abs(states[-1][i] - li) > fixed_tol:
            # Not even the final state sits at the limit.
            fixed_from = npairs + 1
        # The converging clause needs at least one verifiable pair.
        if conv_from >= npairs:
            conv_from = npairs + 1
        best = min(fixed_from, conv_from)
        if best > npairs:
            return PseudoStableVerdict(None, frozenset(), frozenset())
        best = min(best, npairs)
        holds = max(holds, best)
        if fixed_from <= conv_from:
            fixed.add(i)
        else:
            converging.add(i)
    return PseudoStableVerdict(
        traj.times[holds], frozenset(fixed), frozenset(converging)
    )


def reference_analyze_final_topology(traj):
    """Classifies the final state's digraph afresh, whatever the trajectory
    already knows about its final epoch: the digraph, classification,
    decomposition, fvct and leaders, the last from a fresh ``Epoch``."""
    from opinion_lab import adjacency_matrix, build_digraph, classify
    from opinion_lab.dynamics import Epoch
    from opinion_lab.leader import leader_assignment
    from opinion_lab.matrix import canonical_decomposition, fvct_canonical

    final = traj.final_state()
    g = build_digraph(final)
    c = classify(g)
    d = canonical_decomposition(adjacency_matrix(g), c)
    f = fvct_canonical(d, final.opinions)
    la = leader_assignment(Epoch(0, final))
    return g, c, d, f, la


def loop_per_step_factor(x_t, x_next, f, tiny=1e-13):
    """Agent by agent: the residual ratio, or None at the limit."""
    x_t = np.asarray(x_t, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    f = np.asarray(f, dtype=float)
    if not (len(x_t) == len(x_next) == len(f)):
        raise ValueError("vectors must share a length")
    out = []
    for a, b, fi in zip(x_t, x_next, f):
        denom = a - fi
        out.append((b - fi) / denom if abs(denom) > tiny else None)
    return out


def loop_verify_direction_prediction(traj, c, f, la):
    """Every candidate start, rescanning the tail from it: the direction
    check as a Python loop over recorded states."""
    from opinion_lab.leader import DirectionVerdict

    if not traj.is_dense():
        raise ValueError("direction analysis needs densely recorded trajectories")
    tail_start = traj.topology_epochs[-1][0]
    start_idx = next(
        k for k, t in enumerate(traj.times) if t >= tail_start
    )

    out = []
    for k in la.open_sccs:
        lead = la.leaders[k]
        if lead == k:
            continue
        if la.radii[k] == la.radii[lead]:
            out.append(DirectionVerdict(k, lead, False, None))
            continue
        leader_nodes = list(c.sccs[lead])
        follower_nodes = list(c.sccs[k])
        matches_from = None
        # Earliest t1 such that the implication pair holds for all t >= t1.
        for k0 in range(start_idx, len(traj.times)):
            sign = _uniform_sign(traj.states[k0], f, leader_nodes)
            if sign is None:
                continue
            ok = all(
                _follows(traj.states[kk], f, follower_nodes, sign)
                for kk in range(k0, len(traj.times))
            )
            if ok:
                matches_from = traj.times[k0]
                break
        out.append(DirectionVerdict(k, lead, True, matches_from))
    return out


def _uniform_sign(x, f, nodes):
    signs = {int(np.sign(x[i] - f[i])) for i in nodes}
    signs.discard(0)
    if len(signs) != 1:
        return None
    return signs.pop()


def _follows(x, f, nodes, sign):
    if sign < 0:
        return all(x[i] <= f[i] for i in nodes)
    return all(x[i] >= f[i] for i in nodes)


def loop_topology_matches_tail(traj, inf_mask):
    """Every recorded state from the final epoch's start on has the mask."""
    from opinion_lab.graph import proximity_mask

    tail_start = traj.topology_epochs[-1][0]
    return all(
        np.array_equal(proximity_mask(traj.state_at_index(k)), inf_mask)
        for k, t in enumerate(traj.times)
        if t >= tail_start
    )


# --- The one-shot analysis path before the SCC bookkeeping moved to Python
# ints and the decomposition to a `take` gather, kept as oracles. ----------


def packed_bit_rows(mask):
    """``graph._bit_rows`` read row by row from the packed array."""
    return [int.from_bytes(row, "little") for row in np.packbits(mask, axis=1, bitorder="little")]


def mask_weak_components(mask):
    """WCCs of the digraph with boolean adjacency ``mask`` by bitset flood
    fill over its symmetrised rows, each sorted ascending, in order of
    smallest member."""
    from opinion_lab.graph import _bit_matrix

    n = len(mask)
    rows = packed_bit_rows(mask | mask.T)
    unseen = (1 << n) - 1
    out = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            fresh = rows[low.bit_length() - 1] & ~comp
            comp |= fresh
            frontier |= fresh
        unseen ^= comp
        out.append(comp)
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in _bit_matrix(out, n))


def numpy_classify(g):
    """``classify`` with a numpy ``scc_of`` and condensation, and the WCCs
    from two ``mask_weak_components`` floods of ``np.ix_`` sub-matrices."""
    import functools

    from opinion_lab import SccClass, strongly_connected_components
    from opinion_lab.graph import Classification, _bit_matrix

    sccs = strongly_connected_components(g)
    scc_of = np.empty(g.n, dtype=np.intp)
    for k, members in enumerate(sccs):
        scc_of[members] = k
    rows = g.bit_rows
    out = [functools.reduce(int.__or__, [rows[v] for v in members]) for members in sccs]
    ks, cols = np.nonzero(_bit_matrix(out, g.n))
    cond = np.zeros((len(sccs), len(sccs)), dtype=bool)
    cond[ks, scc_of[cols]] = True
    np.fill_diagonal(cond, False)
    is_open = cond.any(axis=1)
    classes = tuple(
        SccClass.OPEN if is_open[k]
        else SccClass.CLOSED if all(rows[v].bit_count() == len(members) for v in members)
        else SccClass.MODERATE
        for k, members in enumerate(sccs)
    )

    def members(ids):
        groups = mask_weak_components(cond[np.ix_(ids, ids)])
        return tuple(sorted(tuple(sorted(v for k in w for v in sccs[ids[k]])) for w in groups))

    return Classification(
        sccs=tuple(tuple(m) for m in sccs),
        classes=classes,
        condensation=tuple(tuple(np.flatnonzero(row).tolist()) for row in cond),
        open_wccs=members(np.flatnonzero(is_open)),
        scc_of=tuple(scc_of.tolist()),
        wccs=members(np.arange(len(sccs))),
    )


def ix_canonical_decomposition(a, c):
    """``canonical_decomposition`` gathering with ``a[np.ix_(perm, perm)]``."""
    import dataclasses

    from opinion_lab import canonical_decomposition

    d = canonical_decomposition(a, c)
    abar = a[np.ix_(d.permutation, d.permutation)]
    nc, no = d.n_closed, d.n - d.n_open
    return dataclasses.replace(
        d,
        matrix=abar,
        C=abar[:nc, :nc],
        M=abar[nc:no, nc:no],
        Theta=abar[no:, no:],
        ThetaC=abar[no:, :nc],
        ThetaM=abar[no:, nc:no],
    )


def eye_left_perron_vector(block):
    """``left_perron_vector`` with its system built as ``np.eye(n) - block.T``."""
    n = len(block)
    system = np.eye(n) - block.T
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def eye_fvct_canonical(d, y):
    """``fvct_canonical`` with ``np.eye`` in both solves and a running
    offset over the moderate blocks."""
    perm = d.permutation
    yp = np.asarray(y, dtype=float)[perm]
    nc, nm = d.n_closed, d.n_moderate
    f = np.empty_like(yp)
    f[:nc] = d.C @ yp[:nc]
    offset = 0
    for size in d.moderate_sizes:
        sl = slice(offset, offset + size)
        block = slice(nc + offset, nc + offset + size)
        f[block] = eye_left_perron_vector(d.M[sl, sl]) @ yp[block]
        offset += size
    if d.n_open:
        rhs = d.ThetaC @ f[:nc] + d.ThetaM @ f[nc : nc + nm]
        f[nc + nm :] = np.linalg.solve(np.eye(d.n_open) - d.Theta, rhs)
    out = np.empty_like(f)
    out[perm] = f
    return out


# --- ``in_neighborhood``'s body before it became one expression, kept as an
# oracle. ------------------------------------------------------------------


def two_clause_in_neighborhood(y, z, radii):
    """A coordinate with a positive radius is inside when its distance is
    below the radius; any other must equal z exactly."""
    diff = np.abs(np.asarray(y, dtype=float) - np.asarray(z, dtype=float))
    radii = np.asarray(radii, dtype=float)
    positive = radii > 0.0
    if not np.all(diff[positive] < radii[positive]):
        return False
    return bool(np.all(diff[~positive] == 0.0))
