"""Equi-topology distances and neighborhoods, equilibrium and agreement
checks, and the topology-freeze / finite-time sufficient conditions."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from opinion_lab.dynamics import Epoch, Termination, Trajectory
from opinion_lab.state import Model, OpinionState

EQUILIBRIUM_TOL = 1e-10  # the largest max|Ay - y| of a state the checks call an equilibrium


def _as_epoch(state: OpinionState | Epoch) -> Epoch:
    """``state`` itself when it is an ``Epoch``, else the ``OpinionState``'s epoch."""
    return state if isinstance(state, Epoch) else Epoch(0, state)


def equi_topology_distance(state: OpinionState | Epoch) -> np.ndarray:
    """ε: half the smallest slack between any pairwise distance and either
    agent's bound, as measured once by the ``Epoch`` of ``state``.

    With a single agent the minimum runs over an empty set; +inf is
    returned as a sentinel.  A slack against an infinite bound is +inf,
    also where the distance overflowed to inf.
    """
    return _as_epoch(state).epsilon


def invariant_equi_topology_distance(state: OpinionState | Epoch) -> np.ndarray:
    """δ: per agent, the minimum of ε over its digraph predecessors (self
    included), both read from the ``Epoch`` of ``state`` (an
    ``OpinionState`` or its ``Epoch``), in one pass over the condensation
    of its classification.  The SCCs are in reverse topological order, so
    walking them from the last pushes each SCC's exact minimum to its
    successors after all of its predecessors have pushed theirs."""
    epoch = _as_epoch(state)
    c = epoch.digraph.classification
    scc_of = np.array(c.scc_of)
    best = np.full(len(c.sccs), math.inf)
    np.minimum.at(best, scc_of, epoch.epsilon)
    best = best.tolist()
    for k in range(len(best) - 1, -1, -1):
        for m in c.condensation[k]:
            best[m] = min(best[m], best[k])
    return np.array(best)[scc_of]


def in_neighborhood(y: np.ndarray, z_state: OpinionState, radii: np.ndarray) -> bool:
    """Strict per-coordinate box membership; zero radius forces equality.

    Coordinates with a positive radius must satisfy |y_i - z_i| < radius;
    coordinates with radius zero must match exactly.
    """
    y = np.asarray(y, dtype=float)
    z = z_state.opinions
    radii = np.asarray(radii, dtype=float)
    if not (len(y) == len(z) == len(radii)):
        raise ValueError("vectors must share a length")
    diff = np.abs(y - z)
    positive = radii > 0.0
    if not np.all(diff[positive] < radii[positive]):
        return False
    return bool(np.all(diff[~positive] == 0.0))


def check_equal_topology(y: np.ndarray, z_state: OpinionState) -> bool:
    """Exact comparison of the proximity masks at y and at z."""
    z = Epoch(0, z_state)
    return z.at(y).digraph is z.digraph


def is_equilibrium(state: OpinionState | Epoch, tol: float = 0.0) -> bool:
    """Fixed point of the averaging map within tol (inf-norm), read from the
    averaging matrix of ``state``, an ``OpinionState`` or its ``Epoch``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    epoch = _as_epoch(state)
    y = epoch.state.opinions
    return bool(np.max(np.abs(epoch._step(y) - y)) <= tol)


def is_agreement_vector(state: OpinionState | Epoch) -> bool:
    """Every pair of agents of ``state``, an ``OpinionState`` or its
    ``Epoch``, is either disconnected or in consensus: the opinions are
    constant on every WCC of its digraph."""
    epoch = _as_epoch(state)
    wccs = epoch.digraph.classification.wccs
    y = epoch.state.opinions[np.concatenate(wccs)]
    starts = np.cumsum([0] + [len(w) for w in wccs[:-1]])
    return bool((np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)).all())


@dataclass(frozen=True)
class WccVerdict:
    members: tuple
    interval: tuple
    separated: bool
    bound_condition: bool


@dataclass(frozen=True)
class AgreementSufficiency:
    """Per-WCC verdicts for the finite-time agreement sufficient condition."""

    per_wcc: tuple
    separation_ok: bool
    bounds_ok: bool

    @property
    def predicted_finite_time(self) -> bool:
        return self.separation_ok and self.bounds_ok

    def to_json(self) -> dict:
        return {**asdict(self), "predicted_finite_time": self.predicted_finite_time}


def check_agreement_sufficient(state: OpinionState | Epoch) -> AgreementSufficiency:
    """Evaluate both finite-time agreement conditions per WCC of ``state``,
    an ``OpinionState`` or its ``Epoch``.

    (i) opinion intervals of any two WCCs are separated by strictly more
    than the largest bound among their agents; (ii) SBC needs m-1 of the m
    agents in a WCC to have bounds larger than the WCC's interval length,
    SBI needs just one such agent.
    """
    epoch = _as_epoch(state)
    y, r = epoch.state.opinions, epoch.state.bounds
    wccs = epoch.digraph.classification.wccs
    intervals = [(float(y[m].min()), float(y[m].max())) for m in (np.array(w) for w in wccs)]
    max_bound = [float(r[np.array(w)].max()) for w in wccs]

    separated = [True] * len(wccs)
    for a in range(len(wccs)):
        for b in range(a + 1, len(wccs)):
            (lo_a, hi_a), (lo_b, hi_b) = intervals[a], intervals[b]
            if max(lo_b - hi_a, lo_a - hi_b) <= max(max_bound[a], max_bound[b]):
                separated[a] = separated[b] = False

    verdicts = []
    for w, (lo, hi), sep in zip(wccs, intervals, separated):
        big = sum(1 for i in w if r[i] > hi - lo)
        needed = len(w) - 1 if epoch.state.kind is Model.SBC else 1
        verdicts.append(WccVerdict(tuple(w), (lo, hi), sep, big >= needed))
    return AgreementSufficiency(
        per_wcc=tuple(verdicts),
        separation_ok=all(v.separated for v in verdicts),
        bounds_ok=all(v.bound_condition for v in verdicts),
    )


@dataclass(frozen=True)
class LimitEquilibriumVerdict:
    """Outcome of checking the limit of a converged trajectory."""

    x_infinity: np.ndarray
    min_epsilon: float
    premise_holds: bool
    topology_matches_tail: Optional[bool]
    limit_is_equilibrium: Optional[bool]


def check_limit_equilibrium(
    traj: Trajectory,
    residual_tol: float = 1e-8,
) -> LimitEquilibriumVerdict:
    """Take the final state's fvct, ``traj.limit``, as the limit and, when
    its minimum equi-topology distance is positive, confirm the tail
    topology matches and the limit is an equilibrium within
    ``EQUILIBRIUM_TOL``."""
    epoch, x_inf = traj.final_epoch, traj.limit
    if traj.termination is Termination.MAX_STEPS:
        residual = float(np.max(np.abs(traj.states[-1] - x_inf)))
        if residual > residual_tol:
            raise ValueError(
                f"trajectory not converged: residual {residual:.3e} "
                f"exceeds {residual_tol:.3e}"
            )
    limit = epoch.at(x_inf)
    min_eps = float(equi_topology_distance(limit).min())
    if min_eps <= 0.0:
        return LimitEquilibriumVerdict(x_inf, min_eps, False, None, None)

    # Every recorded state of the final epoch has the epoch's mask.
    topo_ok = limit.digraph is epoch.digraph
    eq_ok = is_equilibrium(limit, tol=EQUILIBRIUM_TOL)
    return LimitEquilibriumVerdict(x_inf, min_eps, True, topo_ok, eq_ok)


@dataclass(frozen=True)
class StabilityReport:
    """Distances, neighborhood memberships, and condition verdicts for one
    state."""

    epsilon: np.ndarray
    delta: np.ndarray
    is_equilibrium: bool
    is_agreement: bool
    in_et_of_fvct: bool
    in_iet_of_fvct: bool
    agreement_condition: AgreementSufficiency

    def to_json(self) -> dict:
        return {
            **vars(self),
            "epsilon": [_json_float(v) for v in self.epsilon],
            "delta": [_json_float(v) for v in self.delta],
            "agreement_condition": self.agreement_condition.to_json(),
        }


def _json_float(v: float):
    return "inf" if math.isinf(v) else float(v)


def stability_report(state: OpinionState) -> StabilityReport:
    """Full condition evaluation for one opinion state.  The state's epoch
    and its fvct's (which shares the state's digraph, and so its
    classification, when it keeps the mask) hold ε, the digraphs and
    classifications, and every check reads one of the two."""
    topology = Epoch(0, state)
    limit = topology.at(topology.fvct())
    eps_f = equi_topology_distance(limit)
    delta_f = invariant_equi_topology_distance(limit)
    return StabilityReport(
        epsilon=equi_topology_distance(topology),
        delta=invariant_equi_topology_distance(topology),
        is_equilibrium=is_equilibrium(topology, EQUILIBRIUM_TOL),
        is_agreement=is_agreement_vector(topology),
        in_et_of_fvct=in_neighborhood(state.opinions, limit.state, eps_f),
        in_iet_of_fvct=in_neighborhood(state.opinions, limit.state, delta_f),
        agreement_condition=check_agreement_sufficient(topology),
    )
