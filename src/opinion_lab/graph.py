"""State-dependent proximity digraph and the three-way agent classification.

The digraph has one node per agent and always carries self-loops.  An SCC is
closed-minded if it is a condensation sink and complete, moderate-minded if
it is a sink but not complete, and open-minded otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from opinion_lab.state import Model, OpinionState


@dataclass(frozen=True)
class ProximityDigraph:
    """Per-node ordered out-neighbor sets (ascending, self-loop included)."""

    n: int
    out_neighbors: tuple

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("digraph needs at least one node")
        if len(self.out_neighbors) != self.n:
            raise ValueError("out_neighbors length must equal n")
        for i, nbrs in enumerate(self.out_neighbors):
            if i not in nbrs:
                raise ValueError(f"node {i} is missing its self-loop")

    def to_json(self) -> dict:
        """Adjacency-list export, 0-based indices."""
        edges = sorted((i, j) for i in range(self.n) for j in self.out_neighbors[i])
        return {"n": self.n, "edges": [[i, j] for i, j in edges]}


class SccClass(str, Enum):
    CLOSED = "closed_minded"
    MODERATE = "moderate_minded"
    OPEN = "open_minded"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Classification:
    """SCC partition with class tags, condensation DAG, and open WCCs.

    ``sccs`` is in reverse topological order (every edge between distinct
    SCCs goes from a later entry to an earlier one).  ``condensation`` holds
    the out-edges of each SCC as indices into ``sccs``.
    """

    sccs: tuple
    classes: tuple
    condensation: tuple
    open_wccs: tuple
    scc_of: tuple

    def nodes_of_class(self, cls: SccClass) -> list:
        out = []
        for members, tag in zip(self.sccs, self.classes):
            if tag is cls:
                out.extend(members)
        return sorted(out)

    def to_json(self) -> dict:
        return {
            "sccs": [
                {"members": list(members), "class": str(tag)}
                for members, tag in zip(self.sccs, self.classes)
            ],
            "condensation_edges": [
                [k, m] for k, succs in enumerate(self.condensation) for m in succs
            ],
            "open_wccs": [list(w) for w in self.open_wccs],
        }


def proximity_mask(state: OpinionState, tol: float = 0.0) -> np.ndarray:
    """Boolean edge matrix of the neighbor inequality, without building the
    tuple representation (cheap enough for per-step change detection)."""
    y = state.opinions
    r = state.bounds
    dist = np.abs(y[:, None] - y[None, :])
    if state.kind is Model.SBC:
        return dist <= (r[:, None] + tol)
    return dist <= (r[None, :] + tol)


def build_digraph(state: OpinionState, tol: float = 0.0) -> ProximityDigraph:
    """Out-neighbor sets from the bounded-confidence/influence inequality.

    SBC: j is an out-neighbor of i iff |y_i - y_j| <= r_i (+ tol).
    SBI: j is an out-neighbor of i iff |y_i - y_j| <= r_j (+ tol).
    The comparison is exact by default; boundary semantics matter downstream.
    """
    mask = proximity_mask(state, tol)
    neighbors = tuple(
        tuple(int(j) for j in np.flatnonzero(row)) for row in mask
    )
    return ProximityDigraph(state.n, neighbors)


def strongly_connected_components(g: ProximityDigraph) -> list:
    """Tarjan's algorithm, iterative and deterministic.

    Roots are tried in ascending node order and neighbor lists are already
    sorted, so the output order is reproducible: SCCs appear in reverse
    topological order (a component is emitted before any of its
    predecessors), members sorted ascending.
    """
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
            nbrs = g.out_neighbors[v]
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


def classify(g: ProximityDigraph) -> Classification:
    """Tag every SCC and compute condensation plus open-minded WCCs."""
    sccs = strongly_connected_components(g)
    scc_of = [0] * g.n
    for k, members in enumerate(sccs):
        for v in members:
            scc_of[v] = k

    cond_edges = [set() for _ in sccs]
    for i in range(g.n):
        ki = scc_of[i]
        for j in g.out_neighbors[i]:
            kj = scc_of[j]
            if ki != kj:
                cond_edges[ki].add(kj)

    classes = []
    for k, members in enumerate(sccs):
        if cond_edges[k]:
            classes.append(SccClass.OPEN)
        else:
            member_set = set(members)
            complete = all(
                member_set <= set(g.out_neighbors[i]) for i in members
            )
            classes.append(SccClass.CLOSED if complete else SccClass.MODERATE)

    # Open WCCs group the open SCCs joined by condensation edges.
    open_ids = [k for k, tag in enumerate(classes) if tag is SccClass.OPEN]
    groups = weak_components(cond_edges, open_ids)
    open_wccs = tuple(sorted(tuple(sorted(v for k in w for v in sccs[k])) for w in groups))
    return Classification(
        sccs=tuple(tuple(m) for m in sccs),
        classes=tuple(classes),
        condensation=tuple(tuple(sorted(e)) for e in cond_edges),
        open_wccs=open_wccs,
        scc_of=tuple(scc_of),
    )


def weak_components(out_neighbors, nodes) -> tuple:
    """WCCs of the subgraph induced on ``nodes`` (``out_neighbors[v]`` lists
    v's out-neighbors), each sorted ascending, in order of smallest member."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in parent:
        for j in out_neighbors[i]:
            if j in parent:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict = {}
    for v in sorted(parent):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(m) for _, m in sorted(groups.items()))


def predecessors(g: ProximityDigraph, i: int) -> set:
    """All nodes with a directed path to i, including i itself."""
    if not 0 <= i < g.n:
        raise IndexError(f"node {i} out of range for n={g.n}")
    incoming = [[] for _ in range(g.n)]
    for u in range(g.n):
        for v in g.out_neighbors[u]:
            incoming[v].append(u)
    seen = {i}
    frontier = [i]
    while frontier:
        v = frontier.pop()
        for u in incoming[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen
