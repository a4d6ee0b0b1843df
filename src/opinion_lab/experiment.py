"""Seeded Monte Carlo campaigns over random SBC/SBI systems.

Each run draws an initial opinion and bounds vector from a per-run seed,
simulates, and records when the trajectory first enters the invariant
equi-topology neighborhood of its own final value at constant topology,
together with finite-time fixation outcomes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import numbers
import operator
import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from opinion_lab.dynamics import Termination, simulate
from opinion_lab.stability import (
    equi_topology_distance,
    in_neighborhood,
    invariant_equi_topology_distance,
)
from opinion_lab.state import Model, OpinionState

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


def _integer(name: str, value) -> int:
    """``value`` as a Python int; bools and non-integral numbers are
    rejected, numpy integers accepted."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value):
    """``value`` unchanged if it is a real number; bools and non-numbers are
    rejected, numpy floats and integers accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    agent_counts: tuple
    models: tuple = (Model.SBC, Model.SBI)
    runs: int = 20
    opinion_range: tuple = (0.0, 1.0)
    bounds_range: tuple = (0.0, 0.3)
    seed: int = 0
    max_steps: int = 20_000
    limit_tol: float = 1e-12
    check_every: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "models", tuple(Model(m) for m in self.models)
        )
        for name in ("runs", "max_steps", "check_every", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(
            self, "agent_counts", tuple(_integer("agent_counts", n) for n in self.agent_counts)
        )
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.agent_counts or any(n < 1 for n in self.agent_counts):
            raise ValueError("agent_counts must be positive")
        for name in ("opinion_range", "bounds_range"):
            if not all(math.isfinite(_real(name, end)) for end in getattr(self, name)):
                raise ValueError(f"{name} must have finite ends")
        lo, hi = self.opinion_range
        if not lo < hi:
            raise ValueError("opinion_range must be non-degenerate")
        blo, bhi = self.bounds_range
        if blo < 0 or not blo < bhi:
            raise ValueError("bounds_range must be non-degenerate with lo >= 0")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0.0 <= _real("limit_tol", self.limit_tol) < math.inf:
            raise ValueError(f"limit_tol must be finite and >= 0, got {self.limit_tol}")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("opinion_range", "bounds_range"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)


@dataclass(frozen=True)
class RunRecord:
    model: Model
    n: int
    run: int
    seed: int
    tau_condition: Optional[int]
    fixed_at: Optional[int]
    converged: bool
    final_residual: float

    @property
    def coordinates(self) -> tuple:
        return (str(self.model), self.n, self.run)


def run_seed(base_seed: int, model: Model, n: int, run: int) -> int:
    """Splittable per-run seed: base xor a stable hash of the coordinates."""
    digest = hashlib.sha256(f"{Model(model).value}:{n}:{run}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "little")) & _MASK64


def draw_state(
    model: Model,
    n: int,
    run: int,
    seed: int,
    opinion_range: tuple = (0.0, 1.0),
    bounds_range: tuple = (0.0, 0.3),
) -> OpinionState:
    """Uniform draw of opinions and strictly positive bounds.

    States sitting exactly on a neighbor-rule boundary (minimum
    equi-topology distance zero) occur with probability zero; they are
    logged and redrawn.
    """
    rng = np.random.default_rng(run_seed(seed, model, n, run))
    lo, hi = opinion_range
    blo, bhi = bounds_range
    for attempt in range(100):
        y = rng.uniform(lo, hi, n)
        r = rng.uniform(blo, bhi, n)
        while np.any(r <= 0.0):
            r[r <= 0.0] = rng.uniform(blo, bhi, int(np.sum(r <= 0.0)))
        state = OpinionState(y, r, model)
        if equi_topology_distance(state).min() > 0.0:
            return state
        log.warning(
            "boundary draw (min equi-topology distance = 0) for %s n=%d run=%d; redrawing",
            model,
            n,
            run,
        )
    raise RuntimeError("could not draw a non-boundary state in 100 attempts")


def run_single(
    model: Model,
    n: int,
    run: int,
    cfg: ExperimentConfig,
) -> RunRecord:
    """Simulate one random system and find τ, the first checked step
    (``t % check_every == 0``) whose state lies in the invariant
    equi-topology neighborhood of its epoch's final value at constant
    topology.  That neighborhood is positively invariant, so τ can only fall
    in the final epoch, which is replayed with its own matrix (the simulated
    states, bit for bit) up to the last step whose checks ran."""
    seed = run_seed(cfg.seed, model, n, run)
    state = draw_state(
        model, n, run, cfg.seed, cfg.opinion_range, cfg.bounds_range
    )
    # Recording every max_steps steps keeps just the first and final states.
    traj = simulate(
        state,
        max_steps=cfg.max_steps,
        record_every=cfg.max_steps,
        limit_tol=cfg.limit_tol,
    )
    epoch = traj.final_epoch
    # The limit usually keeps the final epoch's digraph and classification.
    limit = epoch.at(epoch.fvct())
    delta = invariant_equi_topology_distance(limit, equi_topology_distance(limit.state))
    # A tolerance stop checks its final step; a fixed or max_steps stop
    # records one step past its last check.
    stop = traj.times[-1] + (traj.termination is Termination.TOLERANCE_REACHED)
    tau = None
    x = epoch.state.opinions
    for t in range(epoch.start, stop):
        if t % cfg.check_every == 0 and in_neighborhood(x, limit.state, delta):
            tau = t
            break
        x = epoch.matrix @ x
    return RunRecord(
        model=Model(model),
        n=n,
        run=run,
        seed=seed,
        tau_condition=tau,
        fixed_at=traj.fixed_at,
        converged=traj.termination is not Termination.MAX_STEPS,
        final_residual=float(np.max(np.abs(traj.states[-1] - epoch.fvct()))),
    )


def run_campaign(cfg: ExperimentConfig) -> list:
    """All (model, n, run) work items, run in order and reproducible.

    Individual run failures are recorded as non-converged records rather
    than raised.
    """
    records = []
    for model in cfg.models:
        for n in cfg.agent_counts:
            for run in range(cfg.runs):
                try:
                    records.append(run_single(model, n, run, cfg))
                except Exception:
                    log.exception("run failed: model=%s n=%d run=%d", model, n, run)
                    records.append(
                        RunRecord(
                            model=Model(model),
                            n=n,
                            run=run,
                            seed=run_seed(cfg.seed, model, n, run),
                            tau_condition=None,
                            fixed_at=None,
                            converged=False,
                            final_residual=float("nan"),
                        )
                    )
    records.sort(key=lambda rec: rec.coordinates)
    return records


def emit_results(records, out_dir) -> tuple:
    """Write per-run and per-(model, n) aggregate CSVs; returns both paths."""
    if not records:
        raise ValueError("no records to emit")
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    aggregate_path = os.path.join(out_dir, "aggregate.csv")

    try:
        with open(results_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "model",
                    "n",
                    "run",
                    "seed",
                    "tau_condition",
                    "fixed_at",
                    "converged",
                    "residual",
                ]
            )
            for rec in sorted(records, key=lambda r: r.coordinates):
                writer.writerow(
                    [
                        rec.model.value,
                        rec.n,
                        rec.run,
                        rec.seed,
                        "" if rec.tau_condition is None else rec.tau_condition,
                        "" if rec.fixed_at is None else rec.fixed_at,
                        int(rec.converged),
                        format(rec.final_residual, ".17g"),
                    ]
                )

        groups: dict = {}
        for rec in records:
            groups.setdefault((rec.model.value, rec.n), []).append(rec)
        with open(aggregate_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "n", "runs", "pct_finite", "mean_tau"])
            for (model, n), recs in sorted(groups.items()):
                finite = sum(1 for r in recs if r.fixed_at is not None)
                taus = [r.tau_condition for r in recs if r.tau_condition is not None]
                mean_tau = sum(taus) / len(taus) if taus else float("nan")
                writer.writerow(
                    [
                        model,
                        n,
                        len(recs),
                        format(100.0 * finite / len(recs), ".17g"),
                        format(mean_tau, ".17g"),
                    ]
                )
    except OSError as exc:
        raise OSError(f"failed writing campaign results under {out_dir}: {exc}") from exc
    return results_path, aggregate_path
