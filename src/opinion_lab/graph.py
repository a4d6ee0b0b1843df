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


@dataclass(frozen=True, eq=False)
class ProximityDigraph:
    """The proximity relation as its validated boolean matrix: ``mask[i, j]``
    iff j is an out-neighbor of i, self-loops included.  Two digraphs are
    equal when their masks are."""

    mask: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("mask must be a square matrix")
        if mask.shape[0] < 1:
            raise ValueError("digraph needs at least one node")
        missing = np.flatnonzero(~mask.diagonal())
        if missing.size:
            raise ValueError(f"node {missing[0]} is missing its self-loop")
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return len(self.mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProximityDigraph):
            return NotImplemented
        return np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash((self.n, np.packbits(self.mask).tobytes()))

    def to_json(self) -> str:
        """JSON text of ``{"n": n, "edges": [[i, j], ...]}``, edges ascending, joined
        from row tokens; no row is empty, since every node holds its self-loop."""
        tail = np.array([f"{j}]" for j in range(self.n)], dtype=object)
        rows = (f"[{i}, " + f", [{i}, ".join(tail[row]) for i, row in enumerate(self.mask))
        return f'{{"n": {self.n}, "edges": [{", ".join(rows)}]}}'


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


def proximity_mask(state: OpinionState) -> np.ndarray:
    """Boolean edge matrix of the neighbor inequality, unvalidated (cheap
    enough for per-step change detection)."""
    return _neighbor_mask(state.opinions, state.bounds, state.kind)


def _neighbor_mask(y: np.ndarray, r: np.ndarray, kind: Model) -> np.ndarray:
    """``proximity_mask`` on bare vectors, for loops that step opinions under
    fixed, already validated bounds."""
    dist = np.abs(y[:, None] - y[None, :])
    if kind is Model.SBC:
        return dist <= r[:, None]
    return dist <= r[None, :]


def build_digraph(state: OpinionState) -> ProximityDigraph:
    """Out-neighbor sets from the bounded-confidence/influence inequality.

    SBC: j is an out-neighbor of i iff |y_i - y_j| <= r_i.
    SBI: j is an out-neighbor of i iff |y_i - y_j| <= r_j.
    The comparison is exact; boundary semantics matter downstream.
    """
    return ProximityDigraph(proximity_mask(state))


def strongly_connected_components(g: ProximityDigraph) -> list:
    """Tarjan's algorithm, iterative and deterministic, over mask rows.

    Roots are tried in ascending node order and each node's next child is
    its smallest unvisited out-neighbor, so the output order is
    reproducible: SCCs appear in reverse topological order (a component is
    emitted before any of its predecessors), members sorted ascending.
    A finished node takes its lowlink over its on-stack out-neighbors at
    once: those below it on the stack are still there, and any above it
    cannot lower the minimum.
    """
    mask = g.mask
    index = np.full(g.n, -1)
    lowlink = [0] * g.n
    unvisited = np.ones(g.n, dtype=bool)
    on_stack = np.zeros(g.n, dtype=bool)
    stack: list = []
    sccs: list = []
    counter = 0

    for root in range(g.n):
        if not unvisited[root]:
            continue
        work = [root]
        while work:
            v = work[-1]
            if unvisited[v]:
                index[v] = lowlink[v] = counter
                counter += 1
                unvisited[v] = False
                on_stack[v] = True
                stack.append(v)
            fresh = mask[v] & unvisited
            w = int(fresh.argmax())
            if fresh[w]:
                work.append(w)
                continue
            work.pop()
            lowlink[v] = min(lowlink[v], int(index[mask[v] & on_stack].min()))
            if lowlink[v] == index[v]:
                k = stack.index(v)
                on_stack[stack[k:]] = False
                sccs.append(sorted(stack[k:]))
                del stack[k:]
            if work:
                parent = work[-1]
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
    squaring: entry (i, j) is true iff there is a path from i to j.

    Each square is a float32 product, which runs on BLAS where a boolean
    one does not.  It is exact: an entry counts the paths through one
    midpoint, an integer of at most n, and sums of 0/1 products cannot
    cancel, so it is positive exactly where the boolean product is true.
    """
    reach = mask
    for _ in range(len(reach).bit_length() + 1):
        f = reach.astype(np.float32)
        closed = (f @ f) > 0
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

