"""State-dependent proximity digraph and the three-way agent classification.

The digraph has one node per agent and always carries self-loops.  An SCC is
closed-minded if it is a condensation sink and complete, moderate-minded if
it is a sink but not complete, and open-minded otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from opinion_lab.state import Model, OpinionState


@dataclass(frozen=True)
class ProximityDigraph:
    """The proximity relation as its boolean matrix: ``mask[i, j]`` iff j is
    an out-neighbor of i.  ``out_neighbors`` lists every row's columns
    (ascending, self-loop included) and alone decides equality and hashing."""

    mask: np.ndarray = field(compare=False, repr=False)
    out_neighbors: tuple = field(init=False)

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("mask must be a square matrix")
        if mask.shape[0] < 1:
            raise ValueError("digraph needs at least one node")
        missing = np.flatnonzero(~mask.diagonal())
        if missing.size:
            raise ValueError(f"node {missing[0]} is missing its self-loop")
        cols = np.nonzero(mask)[1].tolist()
        ends = np.cumsum(mask.sum(axis=1)).tolist()
        rows = tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "out_neighbors", rows)

    @property
    def n(self) -> int:
        return len(self.out_neighbors)

    def to_json(self) -> dict:
        """Adjacency-list export, 0-based indices."""
        return {"n": self.n, "edges": np.argwhere(self.mask).tolist()}


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
    return _neighbor_mask(state.opinions, state.bounds, state.kind, tol)


def _neighbor_mask(y: np.ndarray, r: np.ndarray, kind: Model, tol: float = 0.0) -> np.ndarray:
    """``proximity_mask`` on bare vectors, for loops that step opinions under
    fixed, already validated bounds."""
    dist = np.abs(y[:, None] - y[None, :])
    if kind is Model.SBC:
        return dist <= (r[:, None] + tol)
    return dist <= (r[None, :] + tol)


def build_digraph(state: OpinionState, tol: float = 0.0) -> ProximityDigraph:
    """Out-neighbor sets from the bounded-confidence/influence inequality.

    SBC: j is an out-neighbor of i iff |y_i - y_j| <= r_i (+ tol).
    SBI: j is an out-neighbor of i iff |y_i - y_j| <= r_j (+ tol).
    The comparison is exact by default; boundary semantics matter downstream.
    """
    return ProximityDigraph(proximity_mask(state, tol))


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
    scc_of = np.empty(g.n, dtype=np.intp)
    for k, members in enumerate(sccs):
        scc_of[members] = k

    rows, cols = np.nonzero(g.mask)
    cond = np.zeros((len(sccs), len(sccs)), dtype=bool)
    cond[scc_of[rows], scc_of[cols]] = True
    np.fill_diagonal(cond, False)

    is_open = cond.any(axis=1)
    classes = tuple(
        SccClass.OPEN if is_open[k]
        else SccClass.CLOSED if g.mask[np.ix_(members, members)].all()
        else SccClass.MODERATE
        for k, members in enumerate(sccs)
    )

    # Open WCCs group the open SCCs joined by condensation edges.
    open_ids = np.flatnonzero(is_open)
    groups = weak_components(cond[np.ix_(open_ids, open_ids)])
    open_wccs = tuple(sorted(
        tuple(sorted(v for k in w for v in sccs[open_ids[k]])) for w in groups
    ))
    return Classification(
        sccs=tuple(tuple(m) for m in sccs),
        classes=classes,
        condensation=tuple(tuple(np.flatnonzero(row).tolist()) for row in cond),
        open_wccs=open_wccs,
        scc_of=tuple(scc_of.tolist()),
    )


def reachability(mask: np.ndarray) -> np.ndarray:
    """Transitive closure of a reflexive boolean adjacency matrix by repeated
    squaring: entry (i, j) is true iff there is a path from i to j."""
    reach = mask
    for _ in range(len(reach).bit_length() + 1):
        closed = reach | (reach @ reach)
        if np.array_equal(closed, reach):
            break
        reach = closed
    return reach


def weak_components(mask: np.ndarray) -> tuple:
    """WCCs of the digraph with boolean adjacency ``mask``, each sorted
    ascending, in order of smallest member."""
    n = len(mask)
    if n == 0:
        return ()
    reach = reachability(mask | mask.T | np.eye(n, dtype=bool))
    # Row i marks i's component; its first true column is the smallest member.
    firsts = np.flatnonzero(reach.argmax(axis=1) == np.arange(n))
    return tuple(tuple(np.flatnonzero(reach[v]).tolist()) for v in firsts)

