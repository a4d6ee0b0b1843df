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


class PowerIterationError(RuntimeError):
    """Dominant-eigenpair iteration failed to converge."""


def adjacency_matrix(g: ProximityDigraph) -> np.ndarray:
    """Row-stochastic averaging matrix: row i is uniform on N_i."""
    return g.mask / g.mask.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Permuted block view P A P^T = [[C,0,0],[0,M,0],[ThetaC,ThetaM,Theta]].

    ``permutation[k]`` is the original node at canonical position k.
    ``closed_sccs`` / ``moderate_sccs`` / ``open_sccs`` list SCC indices (into
    the classification) in canonical block order; sizes follow the same
    order.
    """

    permutation: np.ndarray
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

    def canonical_matrix(self) -> np.ndarray:
        """Reassemble the full permuted matrix from the stored blocks."""
        n = self.n
        nc, nm = self.n_closed, self.n_moderate
        abar = np.zeros((n, n))
        abar[:nc, :nc] = self.C
        abar[nc : nc + nm, nc : nc + nm] = self.M
        abar[nc + nm :, :nc] = self.ThetaC
        abar[nc + nm :, nc : nc + nm] = self.ThetaM
        abar[nc + nm :, nc + nm :] = self.Theta
        return abar

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
        C=abar[:nc, :nc].copy(),
        M=abar[nc : nc + nm, nc : nc + nm].copy(),
        Theta=abar[nc + nm :, nc + nm :].copy(),
        ThetaC=abar[nc + nm :, :nc].copy(),
        ThetaM=abar[nc + nm :, nc : nc + nm].copy(),
        closed_sccs=tuple(by_class[SccClass.CLOSED]),
        moderate_sccs=tuple(by_class[SccClass.MODERATE]),
        open_sccs=tuple(by_class[SccClass.OPEN]),
        closed_sizes=tuple(len(c.sccs[k]) for k in by_class[SccClass.CLOSED]),
        moderate_sizes=tuple(len(c.sccs[k]) for k in by_class[SccClass.MODERATE]),
        open_sizes=tuple(len(c.sccs[k]) for k in by_class[SccClass.OPEN]),
    )


def spectral_radius(
    block: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6
) -> float:
    """Dominant eigenvalue magnitude of a nonnegative primitive matrix.

    Power iteration with a uniform start vector; for the blocks arising
    here the positive diagonal guarantees primitivity and convergence.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError("block must be square")
    if np.any(block < 0):
        raise ValueError("block must be nonnegative")
    n = block.shape[0]
    if n == 1:
        return float(block[0, 0])
    v = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(max_iter):
        w = block @ v
        total = w.sum()
        if total == 0.0:
            return 0.0
        lam_new = total  # v is normalized to sum 1
        v = w / total
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return float(lam_new)
        lam = lam_new
    raise PowerIterationError(
        f"spectral radius did not converge in {max_iter} iterations"
    )


def left_perron_vector(
    block: np.ndarray, tol: float = 1e-13, max_iter: int = 10**6
) -> np.ndarray:
    """Left eigenvector for the Perron root, normalized to sum 1."""
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    nu = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w = block.T @ nu
        total = w.sum()
        if total == 0.0:
            raise PowerIterationError("left eigenvector iteration degenerated")
        w /= total
        if np.max(np.abs(w - nu)) <= tol:
            return w
        nu = w
    raise PowerIterationError(
        f"left eigenvector did not converge in {max_iter} iterations"
    )


def m_star(m_block: np.ndarray) -> np.ndarray:
    """Limit of powers of one row-stochastic primitive SCC block.

    Rank one: every row equals the left Perron eigenvector normalized to
    sum 1.
    """
    m_block = np.asarray(m_block, dtype=float)
    nu = left_perron_vector(m_block)
    return np.tile(nu, (m_block.shape[0], 1))


def _block_diag_limit(decomp: CanonicalDecomposition) -> np.ndarray:
    """M* assembled block-diagonally over the moderate-minded SCCs."""
    nm = decomp.n_moderate
    out = np.zeros((nm, nm))
    offset = 0
    for size in decomp.moderate_sizes:
        sl = slice(offset, offset + size)
        out[sl, sl] = m_star(decomp.M[sl, sl])
        offset += size
    return out


def fvct_canonical(decomp: CanonicalDecomposition, y: np.ndarray) -> np.ndarray:
    """Final value at constant topology, given a decomposition of A(y)."""
    perm = decomp.permutation
    yp = np.asarray(y, dtype=float)[perm]
    nc, nm = decomp.n_closed, decomp.n_moderate
    y_c, y_m = yp[:nc], yp[nc : nc + nm]

    f = np.empty_like(yp)
    f[:nc] = decomp.C @ y_c
    mstar = _block_diag_limit(decomp)
    f[nc : nc + nm] = mstar @ y_m
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
