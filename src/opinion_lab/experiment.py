"""Seeded Monte Carlo campaigns over random SBC/SBI systems.

Each run draws an initial opinion and bounds vector from a per-run seed,
simulates, and records when the trajectory first enters the invariant
equi-topology neighborhood of its own final value at constant topology,
together with finite-time fixation outcomes.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import math
import numbers
import os
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

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


def _integer(name: str, value, least: float) -> int:
    """``value`` as a Python int of at least ``least``; bools and
    non-integral numbers are rejected, numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


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
        for name in ("models", "agent_counts"):
            given = getattr(self, name)
            if isinstance(given, (str, dict)) or not np.iterable(given) or not (items := tuple(given)):
                raise ValueError(f"{name} must be a non-empty list, got {given!r}")
            object.__setattr__(self, name, items)
        valid = [m.value for m in Model]
        if any(m not in valid for m in self.models):
            raise ValueError(f"models must each be one of {valid}, got {list(self.models)!r}")
        object.__setattr__(self, "models", tuple(Model(m) for m in self.models))
        integers = (("runs", 1), ("max_steps", 1), ("check_every", 1), ("seed", -math.inf))
        for name, least in integers:
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        counts = tuple(_integer("agent_counts", n, 1) for n in self.agent_counts)
        object.__setattr__(self, "agent_counts", counts)
        for name in ("models", "agent_counts"):
            if len(set(items := getattr(self, name))) < len(items):
                raise ValueError(f"{name} must not repeat an entry, got [{', '.join(map(str, items))}]")
        for name, least in (("opinion_range", -math.inf), ("bounds_range", 0.0)):
            given = getattr(self, name)
            ends = tuple(given) if np.iterable(given) else (given,)
            if len(ends) != 2 or not all(math.isfinite(_real(name, end)) for end in ends):
                raise ValueError(f"{name} must be two finite numbers, got {given!r}")
            if not least <= ends[0] < ends[1]:
                raise ValueError(f"{name} must have {least} <= lo < hi, got {given!r}")
            object.__setattr__(self, name, ends)
        if not 0.0 <= _real("limit_tol", self.limit_tol) < math.inf:
            raise ValueError(f"limit_tol must be finite and >= 0, got {self.limit_tol}")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object of fields, got {raw!r}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class RunRecord:
    """One campaign run and its ``results.csv`` row, written by ``row()``
    in ``HEADER`` order: an empty cell where there is no τ or fixed step,
    ``converged`` as 0/1 and the residual to the final epoch's fvct as
    ``%.17g``.  A failed run keeps the defaults: no τ, not fixed, not
    converged, NaN residual."""

    HEADER: ClassVar[tuple] = (
        "model", "n", "run", "seed", "tau_condition", "fixed_at", "converged", "residual",
    )

    model: Model
    n: int
    run: int
    seed: int
    tau_condition: Optional[int] = None
    fixed_at: Optional[int] = None
    converged: bool = False
    final_residual: float = math.nan

    @property
    def coordinates(self) -> tuple:
        return (str(self.model), self.n, self.run)

    def row(self) -> list:
        return [
            self.model.value,
            self.n,
            self.run,
            self.seed,
            "" if self.tau_condition is None else self.tau_condition,
            "" if self.fixed_at is None else self.fixed_at,
            int(self.converged),
            format(self.final_residual, ".17g"),
        ]


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
    delta = invariant_equi_topology_distance(epoch.limit)
    # A tolerance stop checks its final step; a fixed or max_steps stop
    # records one step past its last check.
    stop = traj.times[-1] + (traj.termination is Termination.TOLERANCE_REACHED)
    tau = None
    x = epoch.state.opinions
    for t in range(epoch.start, stop):
        if t % cfg.check_every == 0 and in_neighborhood(x, epoch.limit.state, delta):
            tau = t
            break
        x = epoch._step(x)
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
                    seed = run_seed(cfg.seed, model, n, run)
                    records.append(RunRecord(Model(model), n, run, seed))
    records.sort(key=lambda rec: rec.coordinates)
    return records


def emit_results(records, out_dir) -> tuple:
    """Write per-run and per-(model, n) aggregate CSVs; returns both paths."""
    if not records:
        raise ValueError("no records to emit")
    results_path = os.path.join(out_dir, "results.csv")
    aggregate_path = os.path.join(out_dir, "aggregate.csv")

    records = sorted(records, key=lambda r: r.coordinates)
    os.makedirs(out_dir, exist_ok=True)
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RunRecord.HEADER)
        writer.writerows(rec.row() for rec in records)
    with open(aggregate_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "n", "runs", "pct_finite", "mean_tau"])
        for (model, n), group in itertools.groupby(records, key=lambda r: (r.model.value, r.n)):
            recs = list(group)
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
    return results_path, aggregate_path
