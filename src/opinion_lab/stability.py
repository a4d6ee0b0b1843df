"""Equi-topology distances and neighborhoods, equilibrium and agreement
checks, and the topology-freeze / finite-time sufficient conditions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from opinion_lab.dynamics import Epoch, Termination, Trajectory
from opinion_lab.graph import _distances, _equi_topology_radius, weak_components
from opinion_lab.matrix import fvct_canonical
from opinion_lab.state import Model, OpinionState


def _as_epoch(state: OpinionState | Epoch) -> Epoch:
    """``state`` itself when it is an ``Epoch``, else the ``OpinionState``'s epoch."""
    return state if isinstance(state, Epoch) else Epoch(0, state)


def equi_topology_distance(state: OpinionState) -> np.ndarray:
    """Half the smallest slack between any pairwise distance and either
    agent's bound.

    With a single agent the minimum runs over an empty set; +inf is
    returned as a sentinel.  A slack against an infinite bound is +inf,
    also where the distance overflowed to inf.
    """
    return _equi_topology_radius(_distances(state.opinions), state.bounds)


def invariant_equi_topology_distance(state: OpinionState | Epoch, eps: np.ndarray) -> np.ndarray:
    """Per-agent minimum of eps over its digraph predecessors (self
    included), in one pass over the condensation of the classification of
    ``state``, an ``OpinionState`` or its ``Epoch``.  The SCCs are in
    reverse topological order, so walking them from the last pushes each
    SCC's exact minimum to its successors after all of its predecessors
    have pushed theirs."""
    c = _as_epoch(state).classification
    scc_of = np.array(c.scc_of)
    best = np.full(len(c.sccs), math.inf)
    np.minimum.at(best, scc_of, np.asarray(eps, dtype=float))
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
    return bool(np.max(np.abs(epoch.matrix @ y - y)) <= tol)


def is_agreement_vector(state: OpinionState | Epoch) -> bool:
    """Every pair of agents of ``state``, an ``OpinionState`` or its
    ``Epoch``, is either disconnected or in consensus."""
    epoch = _as_epoch(state)
    y = epoch.state.opinions
    return not np.any(epoch.digraph.mask & (y[:, None] != y[None, :]))


def _weak_components(state: OpinionState | Epoch) -> list:
    """WCCs of the full proximity digraph of ``state``, an ``OpinionState``
    or its ``Epoch``, by smallest member."""
    return [list(w) for w in weak_components(_as_epoch(state).digraph.mask)]


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
        return {
            "per_wcc": [
                {
                    "members": list(v.members),
                    "interval": list(v.interval),
                    "separated": v.separated,
                    "bound_condition": v.bound_condition,
                }
                for v in self.per_wcc
            ],
            "separation_ok": self.separation_ok,
            "bounds_ok": self.bounds_ok,
            "predicted_finite_time": self.predicted_finite_time,
        }


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
    wccs = _weak_components(epoch)
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
    equilibrium_tol: float = 1e-10,
) -> LimitEquilibriumVerdict:
    """Take the final state's fvct as the limit and, when its minimum
    equi-topology distance is positive, confirm the tail topology matches
    and the limit is an equilibrium."""
    final, epoch = traj.final_state(), traj.final_epoch
    x_inf = fvct_canonical(epoch.decomposition, final.opinions)
    if traj.termination is Termination.MAX_STEPS:
        residual = float(np.max(np.abs(final.opinions - x_inf)))
        if residual > residual_tol:
            raise ValueError(
                f"trajectory not converged: residual {residual:.3e} "
                f"exceeds {residual_tol:.3e}"
            )
    limit = epoch.at(x_inf)
    min_eps = float(equi_topology_distance(limit.state).min())
    if min_eps <= 0.0:
        return LimitEquilibriumVerdict(x_inf, min_eps, False, None, None)

    # Every recorded state of the final epoch has the epoch's mask.
    topo_ok = limit.digraph is epoch.digraph
    eq_ok = is_equilibrium(limit, tol=equilibrium_tol)
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
            "epsilon": [_json_float(v) for v in self.epsilon],
            "delta": [_json_float(v) for v in self.delta],
            "is_equilibrium": self.is_equilibrium,
            "is_agreement": self.is_agreement,
            "in_et_of_fvct": self.in_et_of_fvct,
            "in_iet_of_fvct": self.in_iet_of_fvct,
            "agreement_condition": self.agreement_condition.to_json(),
        }


def _json_float(v: float):
    return "inf" if math.isinf(v) else float(v)


def stability_report(state: OpinionState, equilibrium_tol: float = 1e-10) -> StabilityReport:
    """Full condition evaluation for one opinion state.  The state's epoch
    and its fvct's (which shares the state's topology when it keeps the
    mask) hold the digraphs, classifications and averaging matrices, and
    every check reads one of the two."""
    topology = Epoch(0, state)
    limit = topology.at(topology.fvct())
    eps = equi_topology_distance(state)
    eps_f = equi_topology_distance(limit.state)
    delta_f = invariant_equi_topology_distance(limit, eps_f)
    return StabilityReport(
        epsilon=eps,
        delta=invariant_equi_topology_distance(topology, eps),
        is_equilibrium=is_equilibrium(topology, equilibrium_tol),
        is_agreement=is_agreement_vector(topology),
        in_et_of_fvct=in_neighborhood(state.opinions, limit.state, eps_f),
        in_iet_of_fvct=in_neighborhood(state.opinions, limit.state, delta_f),
        agreement_condition=check_agreement_sufficient(topology),
    )
