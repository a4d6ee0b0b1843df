"""System state: opinion vector, bounds vector, and the neighbor rule."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Model(str, Enum):
    """Neighbor rule: SBC uses the listener's bound, SBI the speaker's."""

    SBC = "sbc"
    SBI = "sbi"

    def __str__(self) -> str:
        return self.value


def _as_readonly_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _opinion_vector(values, n: int) -> np.ndarray:
    opinions = _as_readonly_vector(values, "opinions")
    if len(opinions) != n:
        raise ValueError(f"opinions and bounds must have equal length, got {len(opinions)} and {n}")
    if not np.all(np.isfinite(opinions)):
        raise ValueError("opinions must be finite")
    return opinions


@dataclass(frozen=True)
class OpinionState:
    """Opinion vector, strictly positive bounds vector, and model kind."""

    opinions: np.ndarray
    bounds: np.ndarray
    kind: Model = Model.SBC

    def __post_init__(self) -> None:
        bounds = _as_readonly_vector(self.bounds, "bounds")
        object.__setattr__(self, "opinions", _opinion_vector(self.opinions, len(bounds)))
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "kind", Model(self.kind))
        if len(bounds) < 1:
            raise ValueError("at least one agent is required")
        if not np.all(bounds > 0.0):
            raise ValueError("every bound must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.opinions)

    def with_opinions(self, opinions) -> "OpinionState":
        """Same bounds and model, new opinions: only these are copied and checked."""
        state = object.__new__(type(self))
        state.__dict__.update(self.__dict__, opinions=_opinion_vector(opinions, self.n))
        return state
