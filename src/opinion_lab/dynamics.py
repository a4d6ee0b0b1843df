"""Synchronous averaging dynamics: stepping, simulation, and trajectory
diagnostics (topology epochs, fixed states, per-step factors,
pseudo-stability)."""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import Optional

import numpy as np

from opinion_lab.graph import ProximityDigraph, _epsilon, _equi_topology_radius, build_digraph
from opinion_lab.matrix import adjacency_matrix, canonical_decomposition, fvct_canonical
from opinion_lab.state import Model, OpinionState


@cache
def _label_keys(n: int) -> np.ndarray:
    z = np.arange(n, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def digraph_hash(g: ProximityDigraph) -> str:
    """Label of the mask alone: the first 16 hex digits of sha256 over n and
    S_0 .. S_{n-1}, each as 8 little-endian bytes, where S_i is the sum mod
    2**64 of h(j) = splitmix64(j), the first output of SplitMix64 seeded with
    j, over the edges (i, j).  A sum ignores order, so prefix sums over sorted
    neighbour ranges give every S_i in O(n).  It replaced a sha256 of the edge list."""
    sums = g.key_sums(_label_keys(g.n))
    return hashlib.sha256(g.n.to_bytes(8, "little") + sums.astype("<u8").tobytes()).hexdigest()[:16]


class Termination(str, Enum):
    FIXED_STATE = "fixed_state"
    TOLERANCE_REACHED = "tolerance_reached"
    MAX_STEPS = "max_steps"

    def __str__(self) -> str:
        return self.value


@dataclass
class Trajectory:
    """Recorded opinion vectors with topology-change and fixed-point events.

    ``states`` is one ``(T, n)`` float array: ``states[k]`` was recorded at
    step ``times[k]`` (Python ints); recording is dense when
    ``record_every=1``.  ``topology_epochs`` holds ``(start_time, hash)``
    for every digraph change, recorded exactly even when states are
    downsampled, so every recorded state lies in a recorded epoch.
    ``final_epoch`` is the ``Epoch`` of the final state and ``limit`` the
    final state's fvct, from that epoch's decomposition; neither is
    serialised.
    """

    bounds: np.ndarray
    kind: Model
    times: list
    states: np.ndarray
    topology_epochs: list = field(default_factory=list)
    fixed_at: Optional[int] = None
    termination: Termination = Termination.MAX_STEPS
    final_epoch: Optional[Epoch] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.bounds)

    @cached_property
    def limit(self) -> np.ndarray:
        return fvct_canonical(self.final_epoch.decomposition, self.states[-1])

    def final_state(self) -> OpinionState:
        return OpinionState(self.states[-1], self.bounds, self.kind)

    def state_at_index(self, k: int) -> OpinionState:
        return OpinionState(self.states[k], self.bounds, self.kind)

    def tail_index(self) -> int:
        """Index of the first recorded state in the final topology epoch:
        ``states[tail_index():]`` is the constant-topology tail."""
        return bisect_left(self.times, self.topology_epochs[-1][0])

    def is_dense(self) -> bool:
        return bool((np.diff(self.times) == 1).all())

    def to_csv(self, path) -> None:
        row = "%d" + ",%.17g" * self.n + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["t"] + [f"x_{i}" for i in range(self.n)]) + "\n")
            fh.writelines(row % (t, *x) for t, x in zip(self.times, self.states.tolist()))

    def events_json(self) -> dict:
        return {
            "epochs": [{"t": t, "hash": h} for t, h in self.topology_epochs],
            "fixed_at": self.fixed_at,
            "termination": str(self.termination),
        }

    def events_to_json_file(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.events_json(), fh, indent=2)
            fh.write("\n")


@dataclass(eq=False)
class Epoch:
    """One topology epoch: from step ``start`` the opinions keep the
    proximity mask of ``state``, the epoch's first state.  The digraph, its
    label, the averaging matrix, ε and the rest are computed on first use;
    the classification is the digraph's, shared by every epoch holding it."""

    start: int
    state: OpinionState
    _digraph: Optional[ProximityDigraph] = field(default=None, repr=False)  # state's, if known
    _limit: Optional[np.ndarray] = field(default=None, repr=False)
    # A state of the epoch and the box around it that keeps its mask.
    _anchor: Optional[np.ndarray] = field(default=None, repr=False)
    _radius: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def epsilon(self) -> np.ndarray:
        return _epsilon(self.state.opinions, self.state.bounds)

    @cached_property
    def digraph(self) -> ProximityDigraph:
        return build_digraph(self.state) if self._digraph is None else self._digraph

    @cached_property
    def label(self) -> str:
        return digraph_hash(self.digraph)

    @cached_property
    def matrix(self) -> np.ndarray:
        return adjacency_matrix(self.digraph)

    @cached_property
    def decomposition(self):
        return canonical_decomposition(self.matrix, self.digraph.classification)

    def fvct(self) -> np.ndarray:
        """Final value at constant topology of the epoch's first state (the
        same for every state of the epoch), computed once."""
        if self._limit is None:
            self._limit = fvct_canonical(self.decomposition, self.state.opinions)
        return self._limit

    def _step(self, x: np.ndarray) -> np.ndarray:
        """The averaging map of the epoch's topology applied to ``x``: the
        one stepping kernel."""
        return self.matrix @ x

    def at(self, opinions) -> Epoch:
        """The epoch of ``opinions`` under this epoch's bounds and model, from
        the same step, with its digraph and ε read from one distance matrix.
        If the digraph is this epoch's, the new one holds the same digraph
        object and with it the same classification.  This epoch's anchor
        stays where it is."""
        state = self.state.with_opinions(opinions)
        g, dist = self.digraph.at(state.opinions, state.bounds, state.kind)
        at = Epoch(self.start, state, g)
        at.epsilon = _equi_topology_radius(dist, state.bounds)
        return at


# The box |x_i - a_i| < rho_i around an anchor a keeps a's proximity mask.
# Exactly, a pair's distance moves by at most |x_i - a_i| + |x_j - a_j|,
# less than eps_i + eps_j <= its slack to the bound (eps is the paper's
# equi-topology distance at a), so it stays on its side of the bound.  In
# floating point the distances at a and at x, the slack and the box test
# each round with relative error at most u = 2**-53, and a distance below
# 2 max|a| errs by at most 2u max|a|; with rho = eps (1 - 8u) - 8u max|a|
# the computed distance still moves by less than (1 - 3u) slack + 2**-1073,
# below the slack itself while eps >= 2**-1020.  Below that floor, or once
# max|a| >= 2**1000 (where a distance could overflow), rho is 0: no box.
_U = 2.0**-53
_RADIUS_FLOOR = 2.0**-1020
_ANCHOR_CEILING = 2.0**1000


def _anchor_radius(dist: np.ndarray, a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The radii rho of the box around anchor ``a`` with distance matrix
    ``dist`` and bounds ``r``."""
    eps = _equi_topology_radius(dist, r)
    size = float(np.abs(a).max())
    rho = eps * (1.0 - 8 * _U) - 8 * _U * size
    return np.where((eps >= _RADIUS_FLOOR) & (size < _ANCHOR_CEILING), rho, 0.0)


def _epoch_at(epoch: Optional[Epoch], t: int, x: np.ndarray, state: OpinionState, log: list):
    """The epoch of opinions ``x`` at step ``t``: ``epoch`` while ``x`` keeps
    its proximity mask, else a new epoch from ``t``, logged as ``(t, label)``
    in ``log``.  ``state`` supplies the bounds and the model.

    Inside the box of the epoch's anchor the mask is known to be kept;
    elsewhere it is compared exactly, and a state that keeps it becomes the
    new anchor.  A new epoch gets its anchor at its first kept state, so a
    run in which every compared state changes the mask builds no box.
    """
    g = None
    if epoch is not None:
        if epoch._anchor is not None and (np.abs(x - epoch._anchor) < epoch._radius).all():
            return epoch
        g, dist = epoch.digraph.at(x, state.bounds, state.kind)
        if g is epoch.digraph:
            epoch._anchor, epoch._radius = x, _anchor_radius(dist, x, state.bounds)
            return epoch
    epoch = Epoch(t, state.with_opinions(x), g)
    log.append((t, epoch.label))
    return epoch


# |x - f| < tol implies |Ax - x| < 2 tol (A is row-stochastic and Af = f), so
# the epoch's fvct is only needed once a step moves less than this many times
# tol plus the rounding of a step, n u max|x| (no state outgrows the first);
# the margin above 2 absorbs the rest of the rounding and the error of the
# computed fvct.
_LIMIT_MARGIN = 1e3


def simulate(
    state: OpinionState,
    max_steps: int = 100_000,
    fixed_tol: float = 0.0,
    record_every: int = 1,
    limit_tol: float = 1e-12,
) -> Trajectory:
    """Iterate the averaging rule, tracking topology epochs and termination.

    A new epoch starts whenever the proximity mask differs from the current
    epoch's, at every step and at the final state; the last one is left on
    the trajectory as ``final_epoch``.  At step t, with ``x' = A x``:

    - ``fixed_at`` is set to t+1 when ``x'`` equals ``x`` bitwise (or
      within ``fixed_tol`` if set above zero);
    - past the epoch's first step, the run stops at t with
      ``TOLERANCE_REACHED`` when ``x`` is within ``limit_tol`` of the
      epoch's final value at constant topology (``limit_tol=0`` disables
      this check);
    - otherwise a fixed step stops the run at t+1 with ``FIXED_STATE``.

    After ``max_steps`` steps the run stops with ``MAX_STEPS``.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    for name, tol in (("fixed_tol", fixed_tol), ("limit_tol", limit_tol)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {tol}")

    x = np.array(state.opinions, dtype=float)
    limit_gate = _LIMIT_MARGIN * (limit_tol + state.n * _U * float(np.max(np.abs(x))))
    times, rows, epochs = [], [], []
    epoch = fixed_at = None
    termination = Termination.MAX_STEPS

    for t in range(max_steps):
        epoch = _epoch_at(epoch, t, x, state, epochs)

        # x is rebound each step, never written in place, so a row may hold it.
        if t % record_every == 0:
            times.append(t)
            rows.append(x)

        x_next = epoch._step(x)
        moved = float(np.abs(x_next - x).max())
        # Distinct finite doubles never subtract to 0, so moved == 0 iff x' == x.
        fixed = moved <= fixed_tol
        if fixed:
            fixed_at = t + 1
        if (
            limit_tol > 0.0
            and t > epoch.start
            and moved < limit_gate
            and np.abs(x - epoch.fvct()).max() < limit_tol
        ):
            termination = Termination.TOLERANCE_REACHED
            break
        if fixed:
            termination = Termination.FIXED_STATE
            t, x = t + 1, x_next
            break
        x = x_next
    else:
        t = max_steps

    # A fixed or max_steps stop ends on a state no step has compared.
    epoch = _epoch_at(epoch, t, x, state, epochs)
    if times[-1] != t:
        times.append(t)
        rows.append(x)
    return Trajectory(
        bounds=state.bounds,
        kind=state.kind,
        times=times,
        states=np.stack(rows),
        topology_epochs=epochs,
        fixed_at=fixed_at,
        termination=termination,
        final_epoch=epoch,
    )


def per_step_factor(
    x_t: np.ndarray,
    x_next: np.ndarray,
    f: np.ndarray,
    tiny: float = 1e-13,
) -> list:
    """Ratio of successive residuals to the constant-topology limit.

    Entry i is ``(x_next_i - f_i) / (x_t_i - f_i)`` when the denominator
    exceeds ``tiny`` in magnitude, else None (the factor is undefined for
    agents already at their limit).
    """
    x_t = np.asarray(x_t, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    f = np.asarray(f, dtype=float)
    if not (len(x_t) == len(x_next) == len(f)):
        raise ValueError("vectors must share a length")
    denom = x_t - f
    defined = np.abs(denom) > tiny
    ratio = np.divide(x_next - f, denom, out=np.zeros_like(denom), where=defined)
    return [q if ok else None for q, ok in zip(ratio.tolist(), defined.tolist())]


@dataclass(frozen=True)
class PseudoStableVerdict:
    """Earliest recorded time from which every agent is either exactly at
    the limit or strictly monotonically approaching it."""

    holds_from: Optional[int]
    fixed_set: frozenset
    converging_set: frozenset


def _true_suffix(ok: np.ndarray) -> np.ndarray:
    """Per column of ``ok``, the length of its all-true final run."""
    failed = ~ok[::-1]
    first = failed.argmax(axis=0)
    return np.where(failed[first, np.arange(ok.shape[1])], first, len(ok))


def pseudo_stable_check(
    traj: Trajectory, limit: np.ndarray, fixed_tol: float = 0.0
) -> PseudoStableVerdict:
    """Check the two-clause stationarity/monotonicity pattern on a densely
    recorded trajectory against the supplied limit vector.

    ``fixed_tol`` relaxes the fixed clause's equality check; the default is
    exact, but a tolerance around 1e-12 absorbs the one-ulp difference
    between the trajectory's own averaging and a separately computed limit.
    """
    if len(traj.times) < 2:
        raise ValueError("need at least 2 recorded steps")
    if not traj.is_dense():
        raise ValueError("trajectory must be recorded densely (record_every=1)")
    limit = np.asarray(limit, dtype=float)
    if limit.shape != (traj.n,):
        raise ValueError(f"limit must have shape ({traj.n},), got {limit.shape}")
    x = traj.states
    a, b = x[:-1], x[1:]
    npairs = len(a)

    # On finite states |x - limit| <= 0 exactly where x == limit, which
    # needs no float temporary.
    at_limit = x == limit if fixed_tol == 0.0 else np.abs(x - limit) <= fixed_tol
    converging = ((a < b) & (b < limit)) | ((a > b) & (b > limit))
    # Per clause and agent, the earliest pair index from which the clause
    # holds through the end.  A fixed pair needs both its states at the
    # limit, so with L final states there the fixed clause holds from pair
    # len(x) - L: past the last pair (npairs + 1) when not even the final
    # state sits at the limit.
    fixed_from = len(x) - _true_suffix(at_limit)
    conv_from = npairs - _true_suffix(converging)
    # The converging clause needs at least one verifiable pair.
    conv_from[conv_from == npairs] = npairs + 1
    best = np.minimum(fixed_from, conv_from)
    if (best > npairs).any():
        return PseudoStableVerdict(None, frozenset(), frozenset())
    is_fixed = fixed_from <= conv_from
    return PseudoStableVerdict(
        traj.times[int(best.max())],
        frozenset(np.flatnonzero(is_fixed).tolist()),
        frozenset(np.flatnonzero(~is_fixed).tolist()),
    )
