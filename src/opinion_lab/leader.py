"""Leader SCC identification and rate/direction-of-convergence checks for
constant-topology tails."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from opinion_lab.dynamics import Epoch, Trajectory, per_step_factor
from opinion_lab.graph import Classification
from opinion_lab.matrix import spectral_radius

RESIDUAL_FLOOR = 1e-13
RATE_MIN_STATES = 10


@dataclass(frozen=True)
class LeaderAssignment:
    """Per open SCC: its open successor set, spectral radius, and leader.

    All SCC ids index the SCC list of ``classification``, the one the
    assignment was computed from, and ``open_sccs`` ascends.  The successor
    set includes the SCC itself; the leader is the member with the largest
    spectral radius, ties resolved toward the SCC itself when it attains the
    maximum, else toward the SCC with the smallest member index.
    """

    classification: Classification
    open_sccs: tuple
    successor_sets: dict
    radii: dict
    leaders: dict

    def leader_radius(self, scc_id: int) -> float:
        return self.radii[self.leaders[scc_id]]

    def to_json(self) -> dict:
        return {
            "open_sccs": [
                {
                    "id": k,
                    "members": list(self.classification.sccs[k]),
                    "radius": self.radii[k],
                    "successors": sorted(self.successor_sets[k]),
                    "leader_id": self.leaders[k],
                    "leader_radius": self.leader_radius(k),
                }
                for k in self.open_sccs
            ]
        }


def leader_assignment(epoch: Epoch) -> LeaderAssignment:
    """Compute open-successor sets by condensation reachability in one pass
    and pick each SCC's leader by largest spectral radius, reading the
    classification and the decomposition from ``epoch``."""
    c, d = epoch.digraph.classification, epoch.decomposition
    radii = {}
    for k, sl in d.open_block_slices():
        radii[k] = spectral_radius(d.Theta[sl, sl])

    # Open SCCs come in ascending id, the reverse topological order, so every
    # successor m of k has m < k: an open m's set is complete before k's,
    # and a closed or moderate m has no set and adds nothing.
    successor_sets = {}
    for k in d.open_sccs:
        reach = {k}
        for m in c.condensation[k]:
            reach.update(successor_sets.get(m, ()))
        successor_sets[k] = reach

    leaders = {}
    for k in d.open_sccs:
        best = max(radii[m] for m in successor_sets[k])
        if radii[k] == best:
            leaders[k] = k
        else:
            candidates = [m for m in successor_sets[k] if radii[m] == best]
            leaders[k] = min(candidates, key=lambda m: c.sccs[m][0])
    return LeaderAssignment(
        classification=c,
        open_sccs=d.open_sccs,
        successor_sets=successor_sets,
        radii=radii,
        leaders=leaders,
    )


def analyze_final_topology(traj: Trajectory) -> LeaderAssignment:
    """The leaders at the final state's topology, which is its final epoch's."""
    return leader_assignment(traj.final_epoch)


@dataclass(frozen=True)
class RateVerdict:
    agent: int
    scc_id: int
    leader_id: int
    leader_radius: float
    factor: Optional[float]
    deviation: Optional[float]
    excluded: bool


def verify_rate_prediction(traj: Trajectory, la: LeaderAssignment) -> list:
    """Compare the last recorded per-step factors of open-minded agents
    against their leader's spectral radius, with the leaders ``la`` of the
    final topology and the residuals taken to ``traj.limit``.  The final
    topology epoch must hold at least ``RATE_MIN_STATES`` recorded states.

    Agents whose residual to the constant-topology limit has fallen below
    the tracking floor are flagged excluded rather than scored.
    """
    if not traj.is_dense():
        raise ValueError("rate analysis needs densely recorded trajectories")
    if (recorded := len(traj.times) - traj.tail_index()) < RATE_MIN_STATES:
        raise ValueError(f"final topology epoch has {recorded} recorded states, needs {RATE_MIN_STATES}")

    factors = per_step_factor(traj.states[-2], traj.states[-1], traj.limit, tiny=RESIDUAL_FLOOR)

    out = []
    for k in la.open_sccs:
        lead = la.leaders[k]
        lam = la.radii[lead]
        for i in la.classification.sccs[k]:
            fac = factors[i]
            if fac is None:
                out.append(RateVerdict(i, k, lead, lam, None, None, True))
            else:
                out.append(
                    RateVerdict(i, k, lead, lam, fac, abs(fac - lam), False)
                )
    return out


@dataclass(frozen=True)
class DirectionVerdict:
    follower_id: int
    leader_id: int
    applicable: bool
    matches_from: Optional[int]


def verify_direction_prediction(traj: Trajectory, la: LeaderAssignment) -> list:
    """For followers with strictly smaller radius than their leader, find
    the earliest recorded time after which the followers' residual signs
    agree with the leader's (``la`` and the limit as for the rate check).

    Pairs with equal spectral radii are reported as not applicable.
    """
    if not traj.is_dense():
        raise ValueError("direction analysis needs densely recorded trajectories")
    k0 = traj.tail_index()
    tail, f, c = traj.states[k0:], traj.limit, la.classification

    out = []
    for k in la.open_sccs:
        lead = la.leaders[k]
        if lead == k:
            continue
        if la.radii[k] == la.radii[lead]:
            out.append(DirectionVerdict(k, lead, False, None))
            continue
        # Per recorded tail state: the leader's residuals share one nonzero
        # sign, and the follower's stay on that side of the limit from
        # there to the end (all-true suffixes of reverse scans).
        lead_nodes, foll_nodes = list(c.sccs[lead]), list(c.sccs[k])
        lead_r = tail[:, lead_nodes] - f[lead_nodes]
        above, below = (lead_r > 0).any(axis=1), (lead_r < 0).any(axis=1)
        foll_r = tail[:, foll_nodes] - f[foll_nodes]
        stays_above, stays_below = (
            np.logical_and.accumulate(side.all(axis=1)[::-1])[::-1]
            for side in (foll_r >= 0, foll_r <= 0)
        )
        match = (above & ~below & stays_above) | (below & ~above & stays_below)
        first = int(match.argmax())
        out.append(
            DirectionVerdict(k, lead, True, traj.times[k0 + first] if match[first] else None)
        )
    return out
