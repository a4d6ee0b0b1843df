"""Synchronous averaging dynamics: stepping, simulation, and trajectory
diagnostics (topology epochs, fixed states, per-step factors,
pseudo-stability)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from opinion_lab.graph import ProximityDigraph, _neighbor_mask, build_digraph, classify
from opinion_lab.matrix import adjacency_matrix, canonical_decomposition, fvct_canonical
from opinion_lab.state import Model, OpinionState


def digraph_hash(g: ProximityDigraph) -> str:
    """Stable 64-bit hash of the sorted edge list, as hex: sha256 over n as
    8 little-endian bytes, then every edge (i, j) as two little-endian
    uint32, in ascending order."""
    h = hashlib.sha256(g.n.to_bytes(8, "little"))
    h.update(np.stack(np.nonzero(g.mask), axis=1, dtype="<u4", casting="unsafe"))
    return h.hexdigest()[:16]


class Termination(str, Enum):
    FIXED_STATE = "fixed_state"
    TOLERANCE_REACHED = "tolerance_reached"
    MAX_STEPS = "max_steps"

    def __str__(self) -> str:
        return self.value


@dataclass
class Trajectory:
    """Recorded opinion vectors with topology-change and fixed-point events.

    ``times[k]`` is the step at which ``states[k]`` was recorded; recording
    is dense when ``record_every=1``.  ``topology_epochs`` holds
    ``(start_time, hash)`` for every digraph change, recorded exactly even
    when states are downsampled.  ``final_epoch`` is the last ``Epoch``
    simulated; it is not serialised (``None`` for a loaded trajectory).
    """

    bounds: np.ndarray
    kind: Model
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    topology_epochs: list = field(default_factory=list)
    fixed_at: Optional[int] = None
    termination: Termination = Termination.MAX_STEPS
    final_epoch: Optional[Epoch] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.bounds)

    def final_state(self) -> OpinionState:
        return OpinionState(self.states[-1], self.bounds, self.kind)

    def state_at_index(self, k: int) -> OpinionState:
        return OpinionState(self.states[k], self.bounds, self.kind)

    def is_dense(self) -> bool:
        times = self.times
        return all(b - a == 1 for a, b in zip(times, times[1:]))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            header = ",".join(["t"] + [f"x_{i}" for i in range(self.n)])
            fh.write(header + "\n")
            for t, x in zip(self.times, self.states):
                row = ",".join([str(t)] + [format(v, ".17g") for v in x])
                fh.write(row + "\n")

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
    """One topology epoch: the digraph, its label and its averaging matrix,
    fixed from step ``start`` until the proximity mask changes."""

    start: int
    first_state: np.ndarray
    digraph: ProximityDigraph
    label: str
    matrix: np.ndarray
    _limit: Optional[np.ndarray] = field(default=None, repr=False)

    def fvct(self) -> np.ndarray:
        """Final value at constant topology of the epoch's first state (the
        same for every state of the epoch), computed once."""
        if self._limit is None:
            decomp = canonical_decomposition(self.matrix, classify(self.digraph))
            self._limit = fvct_canonical(decomp, self.first_state)
        return self._limit


# |x - f| < tol implies |Ax - x| < 2 tol (A is row-stochastic and Af = f), so
# the epoch's fvct is only needed once a step moves less than this many tols;
# the margin above 2 absorbs rounding and the error of the computed fvct.
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
    epoch's; the last one is left on the trajectory as ``final_epoch``.  At
    step t, with ``x' = A x``:

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

    x = np.array(state.opinions, dtype=float)
    traj = Trajectory(bounds=state.bounds, kind=state.kind)
    epoch = None

    for t in range(max_steps):
        if epoch is None or (
            _neighbor_mask(x, state.bounds, state.kind) != epoch.digraph.mask
        ).any():
            now = state.with_opinions(x)
            g = build_digraph(now)
            epoch = Epoch(t, now.opinions, g, digraph_hash(g), adjacency_matrix(g))
            traj.topology_epochs.append((t, epoch.label))
            traj.final_epoch = epoch

        if t % record_every == 0:
            traj.times.append(t)
            traj.states.append(x.copy())

        x_next = epoch.matrix @ x
        moved = float(np.max(np.abs(x_next - x)))
        fixed = moved <= fixed_tol if fixed_tol > 0.0 else not (x_next != x).any()
        if fixed:
            traj.fixed_at = t + 1
        if (
            limit_tol > 0.0
            and t > epoch.start
            and moved < _LIMIT_MARGIN * limit_tol
            and np.max(np.abs(x - epoch.fvct())) < limit_tol
        ):
            traj.termination = Termination.TOLERANCE_REACHED
            _record_final(traj, t, x)
            return traj
        if fixed:
            traj.termination = Termination.FIXED_STATE
            _record_final(traj, t + 1, x_next)
            return traj
        x = x_next

    traj.termination = Termination.MAX_STEPS
    _record_final(traj, max_steps, x)
    return traj


def _record_final(traj: Trajectory, t: int, x: np.ndarray) -> None:
    if traj.times and traj.times[-1] == t:
        return
    traj.times.append(t)
    traj.states.append(np.array(x, dtype=float))


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
    out = []
    for a, b, fi in zip(x_t, x_next, f):
        denom = a - fi
        out.append((b - fi) / denom if abs(denom) > tiny else None)
    return out


@dataclass(frozen=True)
class PseudoStableVerdict:
    """Earliest recorded time from which every agent is either exactly at
    the limit or strictly monotonically approaching it."""

    holds_from: Optional[int]
    fixed_set: frozenset
    converging_set: frozenset


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
