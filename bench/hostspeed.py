"""How fast the machine runs right now, from a fixed reference computation.

On a shared host the speed of one core drifts by half or more over
minutes, as other tenants load the cores and caches it shares.  The
benchmark times ``reference()`` just before and just after every input and
scales the library's times for that input by the median of those samples
(``normalise``), so that a figure from a slow minute and one from a fast
minute compare.  The
reference does the kind of work the library does: a depth-first search over
adjacency lists in Python, an all-pairs distance mask and a matrix product
in numpy.  Nothing here imports opinion_lab, so a change to the library
cannot change the reference.
"""

from __future__ import annotations

import time

import numpy as np

# The reference takes about this long on a 2-vCPU VM with nothing else
# running; normalised times read as ms on such a machine.
NOMINAL_MS = 10.0
SAMPLES_PER_SIDE = 3

_rng = np.random.default_rng(20110314)
_NODES = 10_000
_ADJ = [list(map(int, _rng.integers(0, _NODES, 6))) for _ in range(_NODES)]
_Y = _rng.random(600)
_R = _rng.uniform(0.05, 0.2, 600)
_M = _rng.random((200, 200))


def _work() -> int:
    seen = [False] * _NODES
    order = []
    for root in range(_NODES):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in _ADJ[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    mask = np.abs(_Y[:, None] - _Y[None, :]) <= _R[:, None]
    a = mask / mask.sum(axis=1)[:, None]
    return len(order) + int(mask.sum()) + int((a[:200, :200] @ _M).sum() > 0)


def reference() -> float:
    """Milliseconds one run of the reference computation takes."""
    start = time.perf_counter()
    _work()
    return 1e3 * (time.perf_counter() - start)


def normalise(outcome):
    """The outcome with its times scaled to a machine on which the
    reference takes NOMINAL_MS, from the reference time recorded with it."""
    return outcome.scaled(NOMINAL_MS / outcome.data["reference_ms"])
