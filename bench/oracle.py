"""Dense numpy reference for the averaging dynamics.

Nothing here imports opinion_lab: these functions are the benchmark's own
model of the neighbor rule (mask -> row-normalise -> matvec), used to
generate inputs and to check the library's outputs independently of the
code under test.
"""

from __future__ import annotations

import numpy as np


def neighbor_mask(y: np.ndarray, r: np.ndarray, kind: str) -> np.ndarray:
    """Row i marks the out-neighbors of agent i (self included).

    SBC uses the listener's bound r_i, SBI the speaker's bound r_j; the
    boundary |y_i - y_j| = r counts as an edge.
    """
    dist = np.abs(y[:, None] - y[None, :])
    if kind == "sbc":
        return dist <= r[:, None]
    if kind == "sbi":
        return dist <= r[None, :]
    raise ValueError(f"unknown model kind {kind!r}")


def averaging_matrix(mask: np.ndarray) -> np.ndarray:
    """Row-stochastic matrix that is uniform on each row's neighbors."""
    return mask / mask.sum(axis=1)[:, None]


def walk(y0, r, kind: str, max_steps: int, limit_tol: float = 0.0):
    """Step from ``y0`` for at most ``max_steps`` steps.

    Stops after a step that leaves the opinions bitwise unchanged and, when
    ``limit_tol`` is positive, once the opinions are within ``limit_tol`` of
    the limit of their current digraph (the library's tolerance rule).
    Returns ``(states, epochs)``: ``states[t]`` is the opinion vector after
    t steps and ``epochs[t]`` the number of distinct consecutive digraphs
    among the masks at steps 0..t.
    """
    y = np.array(y0, dtype=float)
    r = np.asarray(r, dtype=float)
    states = [y]
    epochs = []
    prev = limit = None
    count = 0
    moved = np.inf
    for _ in range(max_steps):
        mask = neighbor_mask(y, r, kind)
        if prev is None or not np.array_equal(mask, prev):
            count += 1
            prev = mask
            limit = None
        epochs.append(count)
        if limit is None and limit_tol > 0.0 and moved < 1e3 * limit_tol:
            # |y - limit| < tol implies a step moved y by less than 2 tol,
            # so the limit is only needed once the steps are that small.
            limit = limit_matrix(averaging_matrix(mask)) @ y
        if limit is not None and np.max(np.abs(y - limit)) < limit_tol:
            break
        y_next = averaging_matrix(mask) @ y
        states.append(y_next)
        moved = np.max(np.abs(y_next - y))
        if moved == 0.0:
            break
        y = y_next
    return states, epochs


def limit_matrix(a: np.ndarray, tol: float = 1e-14, max_squarings: int = 80) -> np.ndarray:
    """lim_k A^k by repeated squaring, for a row-stochastic A with a
    positive diagonal (aperiodic, so the limit exists)."""
    p = np.array(a, dtype=float)
    for _ in range(max_squarings):
        q = p @ p
        # Rounding drifts the row sums; left alone, squaring amplifies it.
        q /= q.sum(axis=1)[:, None]
        if np.max(np.abs(q - p)) <= tol:
            return q
        p = q
    return p


def frozen_limit(y, r, kind: str) -> np.ndarray:
    """Where the opinions settle if the current digraph never changes."""
    y = np.asarray(y, dtype=float)
    return limit_matrix(averaging_matrix(neighbor_mask(y, r, kind))) @ y
