"""Command-line interface.

Subcommands: simulate, classify, fvct, check, analyze, experiment.
Exit codes: 0 success, 1 input error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from functools import cache

import numpy as np

from opinion_lab.dynamics import Trajectory, _epoch_at, pseudo_stable_check, simulate
from opinion_lab.experiment import ExperimentConfig, emit_results, run_campaign
from opinion_lab.graph import build_digraph
from opinion_lab.leader import (
    RATE_MIN_STATES,
    analyze_final_topology,
    verify_direction_prediction,
    verify_rate_prediction,
)
from opinion_lab.matrix import fvct
from opinion_lab.state import Model, OpinionState
from opinion_lab.stability import stability_report

log = logging.getLogger(__name__)


class InputError(Exception):
    """Malformed user input (file contents, flags)."""


def load_state(path, model) -> OpinionState:
    """Read a state file: JSON {"opinions": [...], "bounds": [...]} or a
    two-column CSV (opinion, bound) whose first non-empty row may be a
    header starting ``opinion``, ``x`` or ``y``."""
    try:
        text = open(path).read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if path.endswith(".csv"):
        opinions, bounds = [], []
        rows = [(n, row) for n, row in enumerate(csv.reader(text.splitlines()), start=1) if row]
        # Only the first non-empty row may be a header.
        if rows and rows[0][1][0].strip().lower() in ("opinion", "x", "y"):
            del rows[0]
        for lineno, row in rows:
            if len(row) != 2:
                raise InputError(
                    f"{path}:{lineno}: expected 2 columns, got {len(row)}"
                )
            try:
                opinions.append(float(row[0]))
                bounds.append(float(row[1]))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict) or "opinions" not in raw or "bounds" not in raw:
            raise InputError(
                f'{path}: expected fields "opinions" and "bounds"'
            )
        opinions, bounds = raw["opinions"], raw["bounds"]
    try:
        return OpinionState(opinions, bounds, Model(model))
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_trajectory_csv(path, state: OpinionState) -> Trajectory:
    """Rehydrate a trajectory from the CSV written by `simulate`."""
    times, rows = [], []
    try:
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "t":
                raise InputError(f"{path}: missing trajectory header")
            for lineno, row in enumerate(reader, start=2):
                try:
                    times.append(int(row[0]))
                    rows.append([float(v) for v in row[1:]])
                except (ValueError, IndexError) as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty trajectory")
    if any(len(x) != state.n for x in rows):
        raise InputError(f"{path}: row width does not match state size")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InputError(f"{path}: times must strictly increase")
    states = np.array(rows)
    if not np.isfinite(states).all():
        raise InputError(f"{path}: opinions must be finite")
    # Rebuild topology epochs from the recorded states.  The epochs keep
    # rows of them and read their opinions later, so they are not writable.
    states.flags.writeable = False
    epochs, epoch = [], None
    for t, x in zip(times, states):
        epoch = _epoch_at(epoch, t, x, state, epochs)
    return Trajectory(
        state.bounds, state.kind, times, states, topology_epochs=epochs, final_epoch=epoch
    )


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_simulate(args) -> int:
    state = load_state(args.state, args.model)
    traj = simulate(
        state,
        max_steps=args.max_steps,
        fixed_tol=args.fixed_tol,
        record_every=args.record_every,
        limit_tol=args.limit_tol,
    )
    if args.out_prefix:
        traj.to_csv(args.out_prefix + "_trajectory.csv")
        traj.events_to_json_file(args.out_prefix + "_events.json")
    _emit(
        {
            "steps": traj.times[-1],
            "termination": str(traj.termination),
            "final": traj.states[-1].tolist(),
            **traj.events_json(),
        }
    )
    return 0


def cmd_classify(args) -> int:
    state = load_state(args.state, args.model)
    g = build_digraph(state)
    c = g.classification
    print(f'{{"digraph": {g.to_json()}, "classification": {json.dumps(c.to_json())}}}')
    return 0


def cmd_fvct(args) -> int:
    state = load_state(args.state, args.model)
    _emit(fvct(state).tolist())
    return 0


def cmd_check(args) -> int:
    state = load_state(args.state, args.model)
    _emit(stability_report(state).to_json())
    return 0


def cmd_analyze(args) -> int:
    state = load_state(args.state, args.model)
    if args.trajectory:
        traj = load_trajectory_csv(args.trajectory, state)
        if not traj.is_dense():
            raise InputError(f"{args.trajectory}: not dense; record it with --record-every 1")
    else:
        traj = simulate(state, max_steps=args.max_steps)
    la = analyze_final_topology(traj)
    report = {"leaders": la.to_json()}
    if len(traj.times) - traj.tail_index() >= RATE_MIN_STATES:
        report["rates"] = [vars(v) for v in verify_rate_prediction(traj, la)]
    report["directions"] = [vars(v) for v in verify_direction_prediction(traj, la)]
    if len(traj.times) >= 2:
        verdict = pseudo_stable_check(traj, traj.limit)
        report["pseudo_stable"] = {
            "holds_from": verdict.holds_from,
            "fixed_set": sorted(verdict.fixed_set),
            "converging_set": sorted(verdict.converging_set),
        }
    _emit(report)
    return 0


def cmd_experiment(args) -> int:
    try:
        cfg = ExperimentConfig.from_json_file(args.config)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InputError(f"--out {args.out}: {exc}") from exc
    records = run_campaign(cfg)
    results_path, aggregate_path = emit_results(records, args.out)
    _emit({"runs": len(records), "results": results_path, "aggregate": aggregate_path})
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="opinion-lab",
        description="Bounded-confidence/influence opinion dynamics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p):
        p.add_argument("--state", required=True, help="state file (JSON or CSV)")
        p.add_argument(
            "--model", default="sbc", choices=[m.value for m in Model]
        )

    p = sub.add_parser("simulate", help="run the dynamics from a state file")
    add_state_flags(p)
    p.add_argument("--max-steps", dest="max_steps", type=positive_int, default=100_000)
    p.add_argument("--fixed-tol", dest="fixed_tol", type=tolerance, default=0.0)
    p.add_argument("--record-every", dest="record_every", type=positive_int, default=1)
    p.add_argument("--limit-tol", dest="limit_tol", type=tolerance, default=1e-12)
    p.add_argument("--out-prefix", dest="out_prefix", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="digraph and agent classification")
    add_state_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fvct", help="final value at constant topology")
    add_state_flags(p)
    p.set_defaults(func=cmd_fvct)

    p = sub.add_parser("check", help="stability report for a state")
    add_state_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="leader/rate/direction analysis")
    add_state_flags(p)
    # A saved trajectory is never stepped.
    source = p.add_mutually_exclusive_group()
    source.add_argument("--trajectory", default=None, help="trajectory CSV (optional)")
    source.add_argument("--max-steps", dest="max_steps", type=positive_int, default=10_000)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("experiment", help="seeded Monte Carlo campaign")
    p.add_argument("--config", required=True, help="campaign config JSON")
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("runtime failure")
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
