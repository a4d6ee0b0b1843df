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
from functools import cached_property
from typing import Optional

import numpy as np

from opinion_lab.graph import ProximityDigraph, _epsilon, _equi_topology_radius, build_digraph
from opinion_lab.matrix import adjacency_matrix, canonical_decomposition, fvct_canonical
from opinion_lab.state import Model, OpinionState


def digraph_hash(g: ProximityDigraph) -> str:
    """Label of the mask alone: the first 16 hex digits of sha256 over n and
    the digraph's ``key_sums`` S_0 .. S_{n-1}, each as 8 little-endian
    bytes.  S_i sums the keys splitmix64(j) of i's out-neighbours j mod
    2**64, so it ignores the order of the edges."""
    sums = g.key_sums()
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
    ``final_epoch`` is the ``Epoch`` of the final state and ``limit`` its
    fvct, solved once from the epoch's first state (every state of the
    epoch has the same one); neither is serialised.
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

    @property
    def limit(self) -> np.ndarray:
        return self.final_epoch.fvct()

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


class Epoch:
    """One topology epoch: from step ``start`` the opinions keep the
    proximity mask of ``state``, the epoch's first state.  The digraph, its
    label, the averaging matrix, ε and the rest are computed on first use;
    the classification is the digraph's, shared by every epoch holding it.

    An epoch that ``simulate`` opens keeps its first opinions and the run's
    state, and builds ``state`` from them when it is read."""

    def __init__(
        self,
        start: int,
        state: OpinionState,
        _digraph: Optional[ProximityDigraph] = None,  # state's, if known
        _first: Optional[np.ndarray] = None,  # the first opinions, if not state's
    ):
        self.start, self._run, self._digraph, self._fvct = start, state, _digraph, None
        # A state of the epoch and the box around it that keeps its mask.
        self._anchor: Optional[np.ndarray] = None
        self._radius: Optional[np.ndarray] = None
        self._first = state.opinions if _first is None else _first
        if _first is None:
            self.state = state

    @cached_property
    def state(self) -> OpinionState:
        return self._run.with_opinions(self._first)

    @cached_property
    def epsilon(self) -> np.ndarray:
        return _epsilon(self._first, self._run.bounds)

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
        if self._fvct is None:
            self._fvct = fvct_canonical(self.decomposition, self._first)
        return self._fvct

    @cached_property
    def limit(self) -> Epoch:
        """The epoch of ``fvct()``: its digraph and ε from one distance matrix."""
        return self.at(self.fvct())

    def _step(self, x: np.ndarray) -> np.ndarray:
        """The averaging map of the epoch's topology applied to ``x``: the
        one stepping kernel."""
        return self.matrix @ x

    def _steps(self, x: np.ndarray, k: int) -> np.ndarray:
        """States 0..k from ``x`` as the rows of one ``(k + 1, n)`` array:
        row i + 1 is ``_step`` of row i, bit for bit, written in place."""
        xs = np.empty((k + 1, len(x)))
        xs[0] = x
        for i in range(k):
            np.matmul(self.matrix, xs[i], out=xs[i + 1])
        return xs

    def at(self, opinions) -> Epoch:
        """The epoch of ``opinions`` under this epoch's bounds and model, from
        the same step, with its digraph and ε read from one distance matrix.
        If the digraph is this epoch's, the new one holds the same digraph
        object and with it the same classification.  This epoch's anchor
        stays where it is."""
        state = self._run.with_opinions(opinions)
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


def _anchor_radius(dist: np.ndarray, r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The radii rho of the box around anchor ``a`` under bounds ``r``, from
    a's distance matrix ``dist``, which it overwrites."""
    eps = _equi_topology_radius(dist, r)
    size = float(np.abs(a).max())
    rho = eps * (1.0 - 8 * _U) - 8 * _U * size
    return np.where((eps >= _RADIUS_FLOOR) & (size < _ANCHOR_CEILING), rho, 0.0)


def _epoch_at(epoch: Optional[Epoch], t: int, x: np.ndarray, state: OpinionState, log: list):
    """The epoch of opinions ``x`` at step ``t``: ``epoch`` while ``x`` keeps
    its proximity mask, else a new epoch from ``t``, logged as ``(t, label)``
    in ``log``.  ``state`` supplies the bounds and the model; the epochs keep
    ``x``, which the caller does not write after the call.

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
            epoch._anchor, epoch._radius = x, _anchor_radius(dist, state.bounds, x)
            return epoch
    epoch = Epoch(t, state, g, x)
    log.append((t, epoch.label))
    return epoch


# |x - f| < tol implies |Ax - x| < 2 tol (A is row-stochastic and Af = f), so
# the epoch's fvct is only needed once a step moves less than this many times
# tol plus the rounding of a step, n u max|x| (no state outgrows the first);
# the margin above 2 absorbs the rest of the rounding and the error of the
# computed fvct.
_LIMIT_MARGIN = 1e3

# Once the anchor's box has held for _BLOCK_AFTER steps, simulate steps blocks
# of states, _BLOCK_MIN at first and twice as many after each block that
# stays quiet, up to _BLOCK_MAX steps and _BLOCK_FLOATS floats per block.
_BLOCK_AFTER = 4
_BLOCK_MIN = 8
_BLOCK_MAX = 128
_BLOCK_FLOATS = 2**20


def _quiet_steps(
    epoch: Epoch, xs: np.ndarray, fixed_tol: float, limit_tol: float, limit_gate: float
) -> int:
    """How many leading rows of ``xs`` (states of ``epoch``, each row the
    step of the one before) are quiet: their state lies in the anchor's box,
    their step moves it by more than ``fixed_tol``, and the tolerance stop
    does not fire.  At a quiet step ``simulate`` only records and steps.

    Every block follows box-accepted steps of the epoch, so it lies past the
    epoch's first step; the fvct is read only if some quiet row passes the
    limit gate, where the per-step loop would read it too."""
    moved = np.abs(xs[1:] - xs[:-1]).max(axis=1)
    quiet = (np.abs(xs[:-1] - epoch._anchor) < epoch._radius).all(axis=1) & (moved > fixed_tol)
    loud = np.flatnonzero(~quiet)
    j = int(loud[0]) if len(loud) else len(quiet)
    if limit_tol > 0.0:
        gated = np.flatnonzero(moved[:j] < limit_gate)
        if len(gated):
            near = np.flatnonzero(np.abs(xs[gated] - epoch.fvct()).max(axis=1) < limit_tol)
            if len(near):
                j = int(gated[near[0]])
    return j


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

    Once the anchor's box has held for a few steps, the states ahead are
    stepped in a block and the steps at which nothing of the above happens
    are recorded together; the first other step goes through the per-step
    loop, so every output is the same bits as stepping one state at a time.
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
    t = boxed = 0
    size = _BLOCK_MIN

    while t < max_steps:
        k = min(size, max_steps - t, _BLOCK_FLOATS // state.n - 1)
        if boxed >= _BLOCK_AFTER and k > 0:
            xs = epoch._steps(x, k)
            j = _quiet_steps(epoch, xs, fixed_tol, limit_tol, limit_gate)
            first = -t % record_every
            times.extend(range(t + first, t + j, record_every))
            rows.extend(xs[first:j:record_every].copy())
            t, x = t + j, xs[j].copy()
            if j == k:
                size = min(2 * size, _BLOCK_MAX)
                continue
            boxed, size = 0, _BLOCK_MIN

        prev = epoch
        epoch = _epoch_at(epoch, t, x, state, epochs)
        # Kept by the box test: the same epoch, not re-anchored at x.
        boxed = boxed + 1 if epoch is prev and epoch._anchor is not x else 0

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
        t, x = t + 1, x_next

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
    exact, but an agent that the averaging fixes may sit an ulp off the
    solved fvct, and a tolerance around 1e-12 absorbs that.
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
