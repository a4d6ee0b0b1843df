"""Row-stochastic adjacency matrix, canonical block form, and limit values.

Canonical order is closed-minded blocks, then moderate, then open-minded
SCCs arranged so the open block is block lower triangular.  Ties break on
the smallest original node index at every level, so decompositions are
bit-reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from opinion_lab.graph import Classification, ProximityDigraph, SccClass, classify, build_digraph
from opinion_lab.state import OpinionState


def adjacency_matrix(g: ProximityDigraph) -> np.ndarray:
    """Row-stochastic averaging matrix: row i is uniform on N_i."""
    return g.mask / g.mask.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Permuted matrix P A P^T = [[C,0,0],[0,M,0],[ThetaC,ThetaM,Theta]],
    with its blocks as views.

    ``permutation[k]`` is the original node at canonical position k.
    ``closed_sccs`` / ``moderate_sccs`` / ``open_sccs`` list SCC indices (into
    the classification) in canonical block order; sizes follow the same
    order.
    """

    permutation: np.ndarray
    matrix: np.ndarray
    C: np.ndarray
    M: np.ndarray
    Theta: np.ndarray
    ThetaC: np.ndarray
    ThetaM: np.ndarray
    closed_sccs: tuple
    moderate_sccs: tuple
    open_sccs: tuple
    closed_sizes: tuple
    moderate_sizes: tuple
    open_sizes: tuple

    @property
    def n(self) -> int:
        return len(self.permutation)

    @property
    def n_closed(self) -> int:
        return sum(self.closed_sizes)

    @property
    def n_moderate(self) -> int:
        return sum(self.moderate_sizes)

    @property
    def n_open(self) -> int:
        return sum(self.open_sizes)

    def open_block_slices(self) -> list:
        """(scc_index, slice into Theta) per open SCC in block order."""
        out = []
        offset = 0
        for k, size in zip(self.open_sccs, self.open_sizes):
            out.append((k, slice(offset, offset + size)))
            offset += size
        return out


def _open_block_order(c: Classification) -> list:
    """Open SCCs, successors first, so Theta comes out lower triangular.

    Kahn's algorithm over the condensation restricted to open SCCs; among
    the ready components the one with the smallest member index is emitted
    first.
    """
    open_ids = [k for k, cls in enumerate(c.classes) if cls is SccClass.OPEN]
    open_set = set(open_ids)
    pending = {
        k: sum(1 for m in c.condensation[k] if m in open_set) for k in open_ids
    }
    rev = {k: [] for k in open_ids}
    for k in open_ids:
        for m in c.condensation[k]:
            if m in open_set:
                rev[m].append(k)
    ready = [(c.sccs[k][0], k) for k in open_ids if pending[k] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, k = heapq.heappop(ready)
        order.append(k)
        for p in rev[k]:
            pending[p] -= 1
            if pending[p] == 0:
                heapq.heappush(ready, (c.sccs[p][0], p))
    if len(order) != len(open_ids):  # pragma: no cover - condensation is a DAG
        raise RuntimeError("cycle detected in condensation")
    return order


def canonical_decomposition(
    a: np.ndarray, c: Classification
) -> CanonicalDecomposition:
    """Permute the adjacency matrix into its canonical block layout."""
    by_class = {
        SccClass.CLOSED: [],
        SccClass.MODERATE: [],
        SccClass.OPEN: [],
    }
    for k, cls in enumerate(c.classes):
        if cls is not SccClass.OPEN:
            by_class[cls].append(k)
    for cls in (SccClass.CLOSED, SccClass.MODERATE):
        by_class[cls].sort(key=lambda k: c.sccs[k][0])
    by_class[SccClass.OPEN] = _open_block_order(c)

    perm = []
    for cls in (SccClass.CLOSED, SccClass.MODERATE, SccClass.OPEN):
        for k in by_class[cls]:
            perm.extend(c.sccs[k])
    perm = np.array(perm, dtype=int)

    abar = a[np.ix_(perm, perm)]
    nc = sum(len(c.sccs[k]) for k in by_class[SccClass.CLOSED])
    nm = sum(len(c.sccs[k]) for k in by_class[SccClass.MODERATE])
    return CanonicalDecomposition(
        permutation=perm,
        matrix=abar,
        C=abar[:nc, :nc],
        M=abar[nc : nc + nm, nc : nc + nm],
        Theta=abar[nc + nm :, nc + nm :],
        ThetaC=abar[nc + nm :, :nc],
        ThetaM=abar[nc + nm :, nc : nc + nm],
        closed_sccs=tuple(by_class[SccClass.CLOSED]),
        moderate_sccs=tuple(by_class[SccClass.MODERATE]),
        open_sccs=tuple(by_class[SccClass.OPEN]),
        closed_sizes=tuple(len(c.sccs[k]) for k in by_class[SccClass.CLOSED]),
        moderate_sizes=tuple(len(c.sccs[k]) for k in by_class[SccClass.MODERATE]),
        open_sizes=tuple(len(c.sccs[k]) for k in by_class[SccClass.OPEN]),
    )


def spectral_radius(block: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square nonnegative matrix, from
    ``numpy.linalg.eigvals``; a 1x1 block's radius is its entry."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError("block must be square")
    if np.any(block < 0):
        raise ValueError("block must be nonnegative")
    if block.shape[0] == 1:
        return float(block[0, 0])
    return float(np.max(np.abs(np.linalg.eigvals(block))))


def left_perron_vector(block: np.ndarray) -> np.ndarray:
    """Left eigenvector for eigenvalue 1 of an irreducible row-stochastic
    block, normalized to sum 1.

    One linear solve of ``nu^T (I - M) = 0`` with its last equation replaced
    by ``sum(nu) = 1``.  On that domain ``I - M`` has rank n - 1 and its
    left null space is spanned by the positive Perron vector, whose sum is
    nonzero, so the bordered system is nonsingular.
    """
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    system = np.eye(n) - block.T
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def m_star(m_block: np.ndarray) -> np.ndarray:
    """Limit of powers of one irreducible row-stochastic primitive block.

    Rank one: every row equals the left Perron vector normalized to sum 1.
    """
    nu = left_perron_vector(m_block)
    return np.tile(nu, (len(nu), 1))


def fvct_canonical(decomp: CanonicalDecomposition, y: np.ndarray) -> np.ndarray:
    """Final value at constant topology, given a decomposition of A(y)."""
    perm = decomp.permutation
    yp = np.asarray(y, dtype=float)[perm]
    nc, nm = decomp.n_closed, decomp.n_moderate

    f = np.empty_like(yp)
    f[:nc] = decomp.C @ yp[:nc]
    # A moderate block settles at the consensus nu . y of its left Perron
    # vector nu (the rows of its rank-one limit M*).
    offset = 0
    for size in decomp.moderate_sizes:
        sl = slice(offset, offset + size)
        block = slice(nc + offset, nc + offset + size)
        f[block] = left_perron_vector(decomp.M[sl, sl]) @ yp[block]
        offset += size
    if decomp.n_open:
        rhs = decomp.ThetaC @ f[:nc] + decomp.ThetaM @ f[nc : nc + nm]
        eye = np.eye(decomp.n_open)
        f[nc + nm :] = np.linalg.solve(eye - decomp.Theta, rhs)

    out = np.empty_like(f)
    out[perm] = f
    return out


def fvct(state: OpinionState) -> np.ndarray:
    """Limit of A(y)^t y: where the system would settle if the current
    topology froze."""
    g = build_digraph(state)
    c = classify(g)
    a = adjacency_matrix(g)
    decomp = canonical_decomposition(a, c)
    return fvct_canonical(decomp, state.opinions)
