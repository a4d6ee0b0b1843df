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


# A key's value from its two 32-bit limbs, mod 2**64 as uint64 products wrap.
_LIMB_WEIGHTS = np.array([1, 2**32], dtype=np.uint64)
# The most mask entries that key_sums casts at once: 512 KB as float64.
_CAST_BLOCK = 2**16


@functools.cache
def _label_keys(n: int) -> np.ndarray:
    """The keys splitmix64(j), SplitMix64's first output seeded with j, for
    j < n, as the ``(n, 2)`` float64 limbs (k mod 2**32, k >> 32)."""
    z = np.arange(n, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.stack([z & np.uint64(2**32 - 1), z >> np.uint64(32)], axis=1).astype(float)


@dataclass(frozen=True, eq=False)
class ProximityDigraph:
    """The proximity relation as its validated boolean matrix: ``mask[i, j]``
    iff j is an out-neighbor of i, self-loops included.  Two digraphs are
    equal when their masks are.  The bitset rows and the classification are
    computed on first use, once per digraph object."""

    mask: np.ndarray = field(repr=False)
    # Not a field, as the mask alone is the digraph: the float cast of a
    # mask of at most _CAST_BLOCK entries, from key_sums until float_mask.
    _cast = None

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
        mask = _near(dist := _distances(y), r, kind)
        return (self if not (mask != self.mask).any() else ProximityDigraph(mask)), dist

    def key_sums(self) -> np.ndarray:
        """Per node i, the sum mod 2**64 of the keys splitmix64(j) over its
        out-neighbours j, in any order.  A BLAS product of the mask's 0/1
        float cast with ``_label_keys`` sums each limb exactly while
        n < 2**21, as every partial sum is an integer below 2**53.

        The mask is cast in blocks of rows of at most ``_CAST_BLOCK``
        entries (one row if n is larger), so the temporary stays that small
        however many edges there are.  A mask that fits in one block keeps
        its cast for ``float_mask``, so the averaging matrix scales it."""
        limbs = _label_keys(self.n)
        if self.n * self.n <= _CAST_BLOCK:
            object.__setattr__(self, "_cast", self.mask.astype(float))
            sums = self._cast @ limbs
        else:
            rows = max(1, _CAST_BLOCK // self.n)
            sums = np.concatenate(
                [self.mask[k : k + rows].astype(float) @ limbs for k in range(0, self.n, rows)]
            )
        return sums.astype(np.uint64) @ _LIMB_WEIGHTS

    def float_mask(self) -> np.ndarray:
        """The mask as a 0/1 float64 array the caller may write: the cast
        that ``key_sums`` kept, handed over once, else a new one."""
        cast = self._cast
        object.__setattr__(self, "_cast", None)
        return self.mask.astype(float) if cast is None else cast


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
        chosen = (members for members, tag in zip(self.sccs, self.classes) if tag is cls)
        return sorted(v for members in chosen for v in members)

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
    """Boolean edge matrix of the neighbor rule ``_near``, unvalidated
    (cheap enough for per-step change detection)."""
    return _near(_distances(state.opinions), state.bounds, state.kind)


def _distances(y: np.ndarray) -> np.ndarray:
    """All pairwise distances ``|y_i - y_j|``."""
    dist = y[:, None] - y[None, :]
    return np.abs(dist, out=dist)


def _near(dist: np.ndarray, r: np.ndarray, kind: Model) -> np.ndarray:
    """The neighbor rule: per pair (i, j), C-contiguous like ``dist``,
    whether j is an out-neighbor of i, i.e. ``|y_i - y_j| <= r_i`` under SBC
    (the listener's confidence) and ``<= r_j`` under SBI (the speaker's
    influence).  The comparison is exact; boundary semantics matter."""
    return dist <= (r if kind is Model.SBI else r[:, None])


def _equi_topology_radius(dist: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per agent, half the smallest slack ``|dist_ij - r|`` between its
    distance to another agent and either agent's bound (both models take
    both), from the distance matrix, which it overwrites with the slacks.

    Row i of ``|dist - r_i|`` holds the slacks against i's own bound and
    column i those against the others'.  A single agent has none and gets
    +inf.  A slack against an infinite bound is +inf, also where the
    distance overflowed to inf: inf - inf is NaN, which fmin skips.
    """
    with np.errstate(invalid="ignore"):
        slack = np.subtract(dist, r[:, None], out=dist)
    np.abs(slack, out=slack)
    np.fill_diagonal(slack, math.inf)
    return 0.5 * np.fmin(np.fmin.reduce(slack, axis=0), np.fmin.reduce(slack, axis=1))


def _epsilon(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``_equi_topology_radius`` of opinions ``y`` under bounds ``r``."""
    return _equi_topology_radius(_distances(y), r)


def build_digraph(state: OpinionState) -> ProximityDigraph:
    """The validated digraph of ``proximity_mask(state)``."""
    return ProximityDigraph(proximity_mask(state))


def _bit_rows(mask: np.ndarray) -> list:
    """Row i of a boolean matrix as a Python int with bit j set iff ``mask[i, j]``,
    sliced from one packed buffer: the one connectivity primitive, no closure."""
    w, buf = (mask.shape[1] + 7) // 8, np.packbits(mask, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(buf[i : i + w], "little") for i in range(0, len(buf), w)]


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
    scc_of = [0] * g.n
    for k, members in enumerate(sccs):
        for v in members:
            scc_of[v] = k

    # An SCC's out-neighbors are the union of its members' rows; a sink is
    # complete iff each member's row holds the whole SCC.
    rows = g.bit_rows
    out = [functools.reduce(int.__or__, [rows[v] for v in members]) for members in sccs]
    ks, cols = np.nonzero(_bit_matrix(out, g.n))
    cond = np.zeros((len(sccs), len(sccs)), dtype=bool)
    cond[ks, np.fromiter(scc_of, np.intp, g.n)[cols]] = True
    np.fill_diagonal(cond, False)
    condensation = tuple(tuple(np.flatnonzero(row).tolist()) for row in cond)

    classes = tuple(
        SccClass.OPEN if succ
        else SccClass.CLOSED if all(rows[v].bit_count() == len(members) for v in members)
        else SccClass.MODERATE
        for succ, members in zip(condensation, sccs)
    )

    sym = _bit_rows(cond | cond.T)

    # WCCs group the SCCs joined by condensation edges, open WCCs the open
    # SCCs joined by edges between open SCCs: two floods of one bitset.
    def members(nodes):
        groups = weak_components(sym, nodes)
        return tuple(sorted(tuple(sorted(v for k in w for v in sccs[k])) for w in groups))

    return Classification(
        sccs=tuple(map(tuple, sccs)),
        classes=classes,
        condensation=condensation,
        open_wccs=members(sum(1 << k for k, succ in enumerate(condensation) if succ)),
        scc_of=tuple(scc_of),
        wccs=members((1 << len(sccs)) - 1),
    )


def weak_components(rows: list, nodes: int) -> list:
    """Components of the bitset ``nodes`` under the symmetric bit rows
    ``rows`` by flood fill within ``nodes``, in order of smallest member,
    each a list of node ids.  ``classify`` floods the condensation only."""
    out = []
    while nodes:
        frontier = nodes & -nodes
        nodes ^= frontier
        comp = []
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            comp.append(low.bit_length() - 1)
            fresh = rows[comp[-1]] & nodes
            nodes ^= fresh
            frontier |= fresh
        out.append(comp)
    return out
