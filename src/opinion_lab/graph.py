"""State-dependent proximity digraph and the three-way agent classification.

The digraph has one node per agent and always carries self-loops.  An SCC is
closed-minded if it is a condensation sink and complete, moderate-minded if
it is a sink but not complete, and open-minded otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from opinion_lab.state import Model, OpinionState


@dataclass(frozen=True, eq=False)
class ProximityDigraph:
    """The proximity relation as its validated boolean matrix: ``mask[i, j]``
    iff j is an out-neighbor of i, self-loops included.  Two digraphs are
    equal when their masks are.  The bitset rows and the classification are
    computed on first use, once per digraph object."""

    mask: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("mask must be a square matrix")
        if mask.shape[0] < 1:
            raise ValueError("digraph needs at least one node")
        if not mask.diagonal().all():
            raise ValueError(f"node {mask.diagonal().argmin()} is missing its self-loop")
        object.__setattr__(self, "mask", mask)

    @functools.cached_property
    def bit_rows(self) -> list:
        """``_bit_rows`` of the mask, shared by the SCC search and ``classify``."""
        return _bit_rows(self.mask)

    @functools.cached_property
    def classification(self) -> Classification:
        return classify(self)

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
        rows = (f"[{i}, " + f", [{i}, ".join(tail[row].tolist()) for i, row in enumerate(self.mask))
        return f'{{"n": {self.n}, "edges": [{", ".join(rows)}]}}'

    def at(self, y: np.ndarray, r: np.ndarray, kind: Model) -> tuple:
        """The digraph of opinions ``y`` under validated bounds ``r`` and
        model ``kind``, decided exactly: this same object iff y has exactly
        this digraph's edges, else a new digraph.  Second, the pairwise
        distances of y, from which ``_equi_topology_radius`` reads ε."""
        dist = _distances(y)
        mask = _neighbor_mask(dist, r, kind)
        return (self if not (mask != self.mask).any() else ProximityDigraph(mask)), dist

    def key_sums(self, keys: np.ndarray) -> np.ndarray:
        """Per node i, the sum mod 2**64 of the uint64 ``keys[j]`` over its
        out-neighbours j.  A sum ignores order, so the rows are summed in
        blocks of at most 2**16 terms (one row if n is larger) and the
        temporary stays that small however many edges there are."""
        rows = max(1, 2**16 // self.n)
        return np.concatenate(
            [self.mask[k : k + rows].astype(np.uint64) @ keys for k in range(0, self.n, rows)]
        )

    def dense(self) -> np.ndarray:
        """The adjacency as a dense n×n boolean array, not to be written."""
        return self.mask


class SccClass(str, Enum):
    CLOSED = "closed_minded"
    MODERATE = "moderate_minded"
    OPEN = "open_minded"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Classification:
    """SCC partition with class tags, condensation DAG, and the WCCs of the
    digraph and of its open subgraph.

    ``sccs`` is in reverse topological order (every edge between distinct
    SCCs goes from a later entry to an earlier one).  ``condensation`` holds
    the out-edges of each SCC as indices into ``sccs``.  Each WCC is sorted
    ascending, and the WCCs come in order of smallest member.
    """

    sccs: tuple
    classes: tuple
    condensation: tuple
    open_wccs: tuple
    scc_of: tuple
    wccs: tuple

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
    return _neighbor_mask(_distances(state.opinions), state.bounds, state.kind)


def _distances(y: np.ndarray) -> np.ndarray:
    """All pairwise distances ``|y_i - y_j|``."""
    dist = y[:, None] - y[None, :]
    return np.abs(dist, out=dist)


def _neighbor_mask(dist: np.ndarray, r: np.ndarray, kind: Model) -> np.ndarray:
    """``proximity_mask`` on the distance matrix and bare bounds, for loops
    that step opinions under fixed, already validated bounds."""
    if kind is Model.SBC:
        return dist <= r[:, None]
    return dist <= r[None, :]


def _equi_topology_radius(dist: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per agent, half the smallest slack ``|dist_ij - r|`` between its
    distance to another agent and either agent's bound, from the distance
    matrix: the same for both models, as each takes both bounds.

    Row i of ``|dist - r_i|`` holds the slacks against i's own bound and
    column i those against the others'.  A single agent has none and gets
    +inf.  A slack against an infinite bound is +inf, also where the
    distance overflowed to inf: inf - inf is NaN, which fmin skips.
    """
    with np.errstate(invalid="ignore"):
        slack = dist - r[:, None]
    np.abs(slack, out=slack)
    np.fill_diagonal(slack, math.inf)
    return 0.5 * np.fmin(np.fmin.reduce(slack, axis=0), np.fmin.reduce(slack, axis=1))


def _epsilon(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``_equi_topology_radius`` of opinions ``y`` under bounds ``r``."""
    return _equi_topology_radius(_distances(y), r)


def build_digraph(state: OpinionState) -> ProximityDigraph:
    """Out-neighbor sets from the bounded-confidence/influence inequality.

    SBC: j is an out-neighbor of i iff |y_i - y_j| <= r_i.
    SBI: j is an out-neighbor of i iff |y_i - y_j| <= r_j.
    The comparison is exact; boundary semantics matter downstream.
    """
    return ProximityDigraph(proximity_mask(state))


def _bit_rows(mask: np.ndarray) -> list:
    """Row i of a boolean matrix as a Python int with bit j set iff
    ``mask[i, j]``: the one connectivity primitive, with no closure."""
    return [int.from_bytes(row, "little") for row in np.packbits(mask, axis=1, bitorder="little")]


def _bit_matrix(bitsets: list, n: int) -> np.ndarray:
    """The inverse of ``_bit_rows``: one 0/1 row of width n per int."""
    width = (n + 7) // 8
    data = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bitsets), np.uint8)
    return np.unpackbits(data.reshape(len(bitsets), width), axis=1, count=n, bitorder="little")


def strongly_connected_components(g: ProximityDigraph) -> list:
    """Path-based SCCs (Gabow, IPL 2000) over bitset rows, iterative and
    deterministic.  Roots are tried in ascending node order and each node's
    next child is its smallest unvisited out-neighbor, as in Tarjan's
    search, so the output order is reproducible: SCCs appear in reverse
    topological order (a component is emitted before any of its
    predecessors), members sorted ascending.  Each boundary of the path
    stack keeps the bitset of the nodes below its segment; a finished node
    merges the segments above any node it reaches there, and a node still
    at the top boundary closes its component.
    """
    rows = g.bit_rows
    unvisited = (1 << g.n) - 1
    on_stack = 0
    stack: list = []
    boundaries: list = []  # (node, its stack position, on_stack below it)
    sccs: list = []
    while unvisited:
        work = [(unvisited & -unvisited).bit_length() - 1]
        while work:
            v = work[-1]
            bit = 1 << v
            if unvisited & bit:
                unvisited ^= bit
                boundaries.append((v, len(stack), on_stack))
                stack.append(v)
                on_stack |= bit
            fresh = rows[v] & unvisited
            if fresh:
                work.append((fresh & -fresh).bit_length() - 1)
                continue
            work.pop()
            while rows[v] & boundaries[-1][2]:
                boundaries.pop()
            if boundaries[-1][0] == v:
                _, k, on_stack = boundaries.pop()
                sccs.append(sorted(stack[k:]))
                del stack[k:]
    return sccs


def classify(g: ProximityDigraph) -> Classification:
    """Tag every SCC and compute the condensation, the WCCs and the
    open-minded WCCs; ``g.classification`` caches it."""
    sccs = strongly_connected_components(g)
    scc_of = np.empty(g.n, dtype=np.intp)
    for k, members in enumerate(sccs):
        scc_of[members] = k

    # An SCC's out-neighbors are the union of its members' rows; a sink is
    # complete iff each member's row holds the whole SCC.
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

    # WCCs group the SCCs joined by condensation edges, open WCCs the open
    # SCCs joined by edges between open SCCs.
    def members(ids):
        groups = weak_components(cond[np.ix_(ids, ids)])
        return tuple(sorted(tuple(sorted(v for k in w for v in sccs[ids[k]])) for w in groups))

    return Classification(
        sccs=tuple(tuple(m) for m in sccs),
        classes=classes,
        condensation=tuple(tuple(np.flatnonzero(row).tolist()) for row in cond),
        open_wccs=members(np.flatnonzero(is_open)),
        scc_of=tuple(scc_of.tolist()),
        wccs=members(np.arange(len(sccs))),
    )


def weak_components(mask: np.ndarray) -> tuple:
    """WCCs of the digraph with boolean adjacency ``mask`` by bitset flood
    fill, each sorted ascending, in order of smallest member.  ``classify``
    runs it on the condensation, never on a node-level mask."""
    n = len(mask)
    rows = _bit_rows(mask | mask.T)
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
