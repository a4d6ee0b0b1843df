"""Row-stochastic adjacency matrix, canonical block form, and limit values.

Canonical order is closed-minded blocks, then moderate, then open-minded
SCCs.  The closed and moderate blocks are sinks with no edges between them
and come in order of their smallest original node index.  The open SCCs come
in ascending SCC id, the reverse topological order in which the SCC search
emits them: every condensation edge goes from a later SCC to an earlier one,
so Theta is block lower triangular.  Decompositions are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opinion_lab.graph import Classification, ProximityDigraph, SccClass
from opinion_lab.state import OpinionState


def adjacency_matrix(g: ProximityDigraph) -> np.ndarray:
    """Row-stochastic averaging matrix: row i is uniform on N_i.  Row i is
    scaled by fl(1/|N_i|), which is what 1/|N_i| rounds to, so one float
    cast of the 0/1 adjacency and one product give the bits of a division.
    The cast is the one the digraph's label kept, if it kept one."""
    a = g.float_mask()
    a *= (1.0 / a.sum(axis=1))[:, None]
    return a


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Permuted matrix P A P^T = [[C,0,0],[0,M,0],[ThetaC,ThetaM,Theta]],
    with its blocks as views.

    ``permutation[k]`` is the original node at canonical position k.
    ``open_sccs`` lists the open SCC indices (into the classification) in
    block order, which is ascending; ``closed_sizes`` / ``moderate_sizes`` /
    ``open_sizes`` give the block sizes in canonical order.
    """

    permutation: np.ndarray
    matrix: np.ndarray
    C: np.ndarray
    M: np.ndarray
    Theta: np.ndarray
    ThetaC: np.ndarray
    ThetaM: np.ndarray
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
        ends = np.cumsum(self.open_sizes, dtype=int).tolist()
        return [(k, slice(a, b)) for k, a, b in zip(self.open_sccs, [0] + ends, ends)]


def canonical_decomposition(
    a: np.ndarray, c: Classification
) -> CanonicalDecomposition:
    """Permute the adjacency matrix into its canonical block layout.

    Closed and moderate blocks come in order of smallest member; open SCCs
    come in ascending SCC id, the search's reverse topological order.
    """
    blocks = {cls: [k for k, tag in enumerate(c.classes) if tag is cls] for cls in SccClass}
    for cls in (SccClass.CLOSED, SccClass.MODERATE):
        blocks[cls].sort(key=lambda k: c.sccs[k][0])
    closed, moderate, open_ = (tuple(len(c.sccs[k]) for k in blocks[cls]) for cls in SccClass)
    perm = np.array([v for cls in SccClass for k in blocks[cls] for v in c.sccs[k]], dtype=int)

    abar = a.take(perm, 0).take(perm, 1)
    nc, nm = sum(closed), sum(moderate)
    return CanonicalDecomposition(
        permutation=perm,
        matrix=abar,
        C=abar[:nc, :nc],
        M=abar[nc : nc + nm, nc : nc + nm],
        Theta=abar[nc + nm :, nc + nm :],
        ThetaC=abar[nc + nm :, :nc],
        ThetaM=abar[nc + nm :, nc : nc + nm],
        open_sccs=tuple(blocks[SccClass.OPEN]),
        closed_sizes=closed,
        moderate_sizes=moderate,
        open_sizes=open_,
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
    system = np.subtract(0.0, block.T)  # 0 - m, not -m: +0.0 where np.eye(n) - M^T has it
    system.flat[:: n + 1] += 1.0  # fl(-m + 1) is fl(1 - m)
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
    ends = np.cumsum(decomp.moderate_sizes, dtype=int).tolist()
    for a, b in zip([0] + ends, ends):
        f[nc + a : nc + b] = left_perron_vector(decomp.M[a:b, a:b]) @ yp[nc + a : nc + b]
    if decomp.n_open:
        rhs = decomp.ThetaC @ f[:nc] + decomp.ThetaM @ f[nc : nc + nm]
        system = np.subtract(0.0, decomp.Theta)  # I - Theta as in left_perron_vector
        system.flat[:: decomp.n_open + 1] += 1.0
        f[nc + nm :] = np.linalg.solve(system, rhs)

    out = np.empty_like(f)
    out[perm] = f
    return out


def fvct(state: OpinionState) -> np.ndarray:
    """Limit of A(y)^t y: where the system would settle if the current
    topology froze, from the state's ``Epoch``."""
    from opinion_lab.dynamics import Epoch  # dynamics imports this module

    return Epoch(0, state).fvct()
