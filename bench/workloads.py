"""The three benchmark workloads: inputs, timed library calls, checks.

Each workload is a ``Workload`` with four parts:

- ``items(seed, scratch)`` returns the inputs, a fixed number of them,
  generated from the seed alone;
- ``execute(item, scratch)`` makes the timed library calls for one input
  and returns an ``Outcome``;
- ``check(item, outcome)`` returns the problems found by checks that do not
  use the code under test (an empty list when the outputs are right);
- ``summarize(items, runs)`` turns the outcomes into named metrics;
  ``runs[i]`` holds the outcomes of every repeat of input i.

A call's time is the median over its repeats.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *parts) -> int:
    """Independent 64-bit seed for one input, from the benchmark seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") & MASK64


@dataclass
class Outcome:
    ms: float
    attempted: int
    failed: int
    data: dict = field(default_factory=dict)

    def scaled(self, factor: float) -> "Outcome":
        """A copy with every time (the total and each call's) times ``factor``."""
        data = dict(self.data)
        if "runs" in data:
            data["runs"] = [{**call, "ms": call["ms"] * factor} for call in data["runs"]]
        return dataclasses.replace(self, ms=self.ms * factor, data=data)


@dataclass(frozen=True)
class Workload:
    items: object
    execute: object
    check: object
    summarize: object


def _p50(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def _typical_ms(outcomes) -> float:
    return float(statistics.median(o.ms for o in outcomes))


# --- campaign: reduced criterion-7 campaign ---------------------------------

CAMPAIGN_COUNTS = (20, 50, 100)
CAMPAIGN_RUNS = 2
CAMPAIGN_BATCHES = 12
CAMPAIGN_MAX_STEPS = 20_000
CAMPAIGN_LIMIT_TOL = 1e-12


def campaign_items(seed: int, scratch: str) -> list:
    return [{"batch": b, "seed": derive_seed(seed, "campaign", b)} for b in range(CAMPAIGN_BATCHES)]


def campaign_config(item):
    from opinion_lab.experiment import ExperimentConfig

    return ExperimentConfig(
        agent_counts=CAMPAIGN_COUNTS,
        runs=CAMPAIGN_RUNS,
        seed=item["seed"],
        max_steps=CAMPAIGN_MAX_STEPS,
        limit_tol=CAMPAIGN_LIMIT_TOL,
    )


def campaign_execute(item, scratch) -> Outcome:
    from opinion_lab import experiment

    cfg = campaign_config(item)
    out_dir = tempfile.mkdtemp(prefix=f"campaign-{item['batch']}-", dir=scratch)
    start = time.perf_counter()
    records = experiment.run_campaign(cfg)
    paths = experiment.emit_results(records, out_dir)
    ms = 1e3 * (time.perf_counter() - start)
    failed = sum(1 for rec in records if not _record_ok(rec, cfg.limit_tol))
    return Outcome(ms, len(records), failed, {"records": records, "paths": paths})


def _record_ok(rec, limit_tol: float) -> bool:
    if rec.fixed_at is not None:
        return True
    return math.isfinite(rec.final_residual) and rec.final_residual < limit_tol


def _csv_cell(text: str):
    return None if text == "" else int(text)


def campaign_check(item, outcome: Outcome) -> list:
    cfg = campaign_config(item)
    records = outcome.data["records"]
    problems = []
    want = len(cfg.models) * len(cfg.agent_counts) * cfg.runs
    if len(records) != want:
        problems.append(f"batch {item['batch']}: {len(records)} records, expected {want}")
    for rec in records:
        if not _record_ok(rec, cfg.limit_tol):
            problems.append(
                f"batch {item['batch']} {rec.coordinates}: neither fixed nor residual "
                f"{rec.final_residual!r} < {cfg.limit_tol}"
            )
    results_path, aggregate_path = outcome.data["paths"]
    with open(results_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = sorted(records, key=lambda r: r.coordinates)
    if len(rows) != len(expected):
        problems.append(f"batch {item['batch']}: results.csv has {len(rows)} rows for {len(expected)} records")
    for row, rec in zip(rows, expected):
        parsed = (
            row["model"], int(row["n"]), int(row["run"]), int(row["seed"]),
            _csv_cell(row["tau_condition"]), _csv_cell(row["fixed_at"]),
            bool(int(row["converged"])), float(row["residual"]),
        )
        original = (
            rec.model.value, rec.n, rec.run, rec.seed, rec.tau_condition,
            rec.fixed_at, rec.converged, rec.final_residual,
        )
        same_residual = parsed[7] == original[7] or (math.isnan(parsed[7]) and math.isnan(original[7]))
        if parsed[:7] != original[:7] or not same_residual:
            problems.append(f"batch {item['batch']}: results.csv row {parsed} != record {original}")
    with open(aggregate_path, newline="") as fh:
        groups = sum(1 for _ in csv.DictReader(fh))
    if groups != len(cfg.models) * len(cfg.agent_counts):
        problems.append(f"batch {item['batch']}: aggregate.csv has {groups} groups")
    return problems


def campaign_work(item) -> tuple:
    """(steps, epochs, agent-epochs) of the batch by the dense reference,
    stepped until the library's stopping rule holds.  An agent-epoch is one
    agent in one topology epoch: the per-epoch work grows with n, so this
    deterministic measure of the batch's size tracks its cost."""
    from opinion_lab.experiment import draw_state

    cfg = campaign_config(item)
    steps = epochs = agent_epochs = 0
    for model in cfg.models:
        for n in cfg.agent_counts:
            for run in range(cfg.runs):
                s = draw_state(model, n, run, cfg.seed, cfg.opinion_range, cfg.bounds_range)
                _, run_epochs = oracle.walk(s.opinions, s.bounds, model.value, cfg.max_steps, cfg.limit_tol)
                steps += len(run_epochs)
                epochs += run_epochs[-1]
                agent_epochs += n * run_epochs[-1]
    return steps, epochs, agent_epochs


def campaign_summarize(items, runs) -> dict:
    """``unit_ms`` is the time of the whole input set, each batch at its
    median repeat, per agent-epoch."""
    total_s = sum(_typical_ms(outcomes) for outcomes in runs) / 1e3
    count = sum(outcomes[0].attempted for outcomes in runs)
    # A run is summarised twice (raw and scaled times); walk once.
    for item in items:
        if "work" not in item:
            item["work"] = campaign_work(item)
    work = [item["work"] for item in items]
    steps, epochs, agent_epochs = (sum(w[k] for w in work) for k in range(3))
    return {
        "unit_ms": (1e3 * total_s / agent_epochs, "ms", sum(map(len, runs))),
        "batch_ms_p50": (_p50([_typical_ms(outcomes) for outcomes in runs]), "ms", len(runs)),
        "runs_per_s": (count / total_s, "1/s", count),
        "epochs_per_s": (epochs / total_s, "1/s", epochs),
        "agent_epochs_per_s": (agent_epochs / total_s, "1/s", agent_epochs),
        "dynamics.steps": (steps, "count", len(items)),
        "dynamics.epochs": (epochs, "count", len(items)),
        "dynamics.epochs_per_step": (epochs / steps, "ratio", steps),
    }


# --- large_n: simulate to termination at n = 1000 ---------------------------

LARGE_N = 1000
LARGE_N_STATES = 5
LARGE_N_TOL = 1e-9


def large_n_items(seed: int, scratch: str) -> list:
    from opinion_lab import Model
    from opinion_lab.experiment import draw_state

    return [{"run": run, "state": draw_state(Model.SBI, LARGE_N, run, seed)} for run in range(LARGE_N_STATES)]


def large_n_execute(item, scratch) -> Outcome:
    from opinion_lab import dynamics

    start = time.perf_counter()
    traj = dynamics.simulate(item["state"])
    ms = 1e3 * (time.perf_counter() - start)
    data = {
        "termination": str(traj.termination),
        "steps": traj.times[-1],
        "epochs": len(traj.topology_epochs),
        "final": np.array(traj.states[-1]),
    }
    return Outcome(ms, 1, 0, data)


def digraphs_built(outcome: Outcome) -> int:
    """A fixed state is reported one step after the last digraph was built."""
    d = outcome.data
    return d["steps"] if d["termination"] == "fixed_state" else d["steps"] + 1


def reference(item, masks: int):
    """The dense reference run over ``masks`` digraphs, kept in the item."""
    if item.get("reference", (None,))[0] != masks:
        s = item["state"]
        item["reference"] = (masks, oracle.walk(s.opinions, s.bounds, "sbi", masks))
    return item["reference"][1]


def large_n_edges(item, outcome: Outcome) -> int:
    """Edges of the digraphs built, counted on the reference states; the
    per-step rebuild's cost grows with them as the opinions cluster."""
    masks = digraphs_built(outcome)
    states, _ = reference(item, masks)
    r = np.asarray(item["state"].bounds)
    return sum(int(oracle.neighbor_mask(y, r, "sbi").sum()) for y in states[:masks])


def large_n_check(item, outcome: Outcome) -> list:
    """The final state and epoch count must match the dense reference run
    for the same number of steps; a run that hit max_steps fails."""
    d = outcome.data
    run = item["run"]
    if d["termination"] == "max_steps":
        return [f"run {run}: stopped at max_steps"]
    masks = digraphs_built(outcome)
    states, epochs = reference(item, masks)
    problems = []
    if len(states) <= d["steps"] or len(epochs) < masks:
        return [f"run {run}: reference settled before step {d['steps']}"]
    if epochs[masks - 1] != d["epochs"]:
        problems.append(f"run {run}: {d['epochs']} epochs, reference {epochs[masks - 1]}")
    err = float(np.max(np.abs(d["final"] - states[d["steps"]])))
    if not err <= LARGE_N_TOL:
        problems.append(f"run {run}: final state differs from reference by {err:.3e}")
    return problems


def large_n_summarize(items, runs) -> dict:
    """``unit_ms`` is the time of the whole input set, each state at its
    median repeat, per thousand digraph edges built.  The states' step
    counts and densities differ a lot; the time per edge does not."""
    typical = [_typical_ms(outcomes) for outcomes in runs]
    steps = sum(outcomes[0].data["steps"] for outcomes in runs)
    epochs = sum(outcomes[0].data["epochs"] for outcomes in runs)
    edges = sum(large_n_edges(item, outcomes[0]) for item, outcomes in zip(items, runs))
    return {
        "unit_ms": (1e3 * sum(typical) / edges, "ms", sum(map(len, runs))),
        "step_ms": (sum(typical) / steps, "ms", steps),
        "edges_per_step": (edges / steps, "count", steps),
        "solve_s": (_p50(typical) / 1e3, "s", len(runs)),
        "steps_per_s": (1e3 * steps / sum(typical), "1/s", steps),
        "dynamics.steps": (steps, "count", len(runs)),
        "dynamics.epochs": (epochs, "count", len(runs)),
        "dynamics.epochs_per_step": (epochs / steps, "ratio", steps),
    }


# --- cli: the subcommands on clustered late-epoch states ---------------------

CLI_FAMILIES = (("sbc", 100), ("sbi", 300))
# classify, fvct and check run on every input, analyze (which costs about
# as much as the other three together, and varies less from input to input
# once taken per edge) on the first CLI_ANALYZE_INPUTS.
CLI_INPUTS = 24
CLI_ANALYZE_INPUTS = 12
CLI_COMMANDS = ("classify", "fvct", "check", "analyze")
# A state this many steps before the reference trajectory meets the
# library's stopping rule (or halfway, if that is later) is clustered and
# sits in a late epoch.
CLI_LATE_STEPS = 150
# Late SBC states often lie within 1e-11 of the limit of their digraph, where
# a wrong fvct (the input returned, say) would pass the fvct check.  The
# state is moved back along the trajectory until it lies at least this far
# from that limit.
CLI_MIN_GAP = 1e-4
# The library's fvct takes moderate blocks' limits from power iteration,
# whose error grows with the mixing time; it stayed below 6e-8 on 240 of
# these inputs.  The largest error seen is reported as ``fvct_err_max``.
CLI_FVCT_TOL = 1e-6
# The analyze exit that the library is known to make on ordinary states
# (exit code 2 with this message); it is counted as failed, not hidden.
CLI_KNOWN_FAILURE = "topology changed inside the analysis window"


def late_state(walk, epochs, r, kind):
    """(index, frozen limit) of the input state taken from a reference
    trajectory: CLI_LATE_STEPS steps before it settles (or halfway, if that
    is later), moved back until it lies CLI_MIN_GAP from its limit."""
    settled = len(walk) - 1
    start = max(settled // 2, settled - CLI_LATE_STEPS)
    epoch = limit = None
    for t in range(start, -1, -1):
        if epochs[t] != epoch:
            epoch = epochs[t]
            limit = oracle.limit_matrix(oracle.averaging_matrix(oracle.neighbor_mask(walk[t], r, kind)))
        if np.max(np.abs(walk[t] - limit @ walk[t])) >= CLI_MIN_GAP:
            break
    return t, limit @ walk[t]


def cli_items(seed: int, scratch: str) -> list:
    """Input j holds one late-epoch state of each family, taken from the
    dense reference trajectory of draw j and written to a JSON file."""
    return [cli_item(seed, j, scratch) for j in range(CLI_INPUTS)]


def cli_commands(item) -> tuple:
    return CLI_COMMANDS if item["j"] < CLI_ANALYZE_INPUTS else CLI_COMMANDS[:-1]


def cli_item(seed: int, j: int, scratch: str) -> dict:
    from opinion_lab import Model
    from opinion_lab.experiment import draw_state

    states = []
    for kind, n in CLI_FAMILIES:
        s = draw_state(Model(kind), n, j, seed)
        r = np.array(s.bounds)
        walk, epochs = oracle.walk(s.opinions, r, kind, CAMPAIGN_MAX_STEPS, CAMPAIGN_LIMIT_TOL)
        t, limit = late_state(walk, epochs, r, kind)
        y = walk[t]
        path = os.path.join(scratch, f"cli-{j}-{kind}{n}.json")
        with open(path, "w") as fh:
            json.dump({"opinions": [float(v) for v in y], "bounds": [float(v) for v in r]}, fh)
        # analyze simulates from y until the stopping rule holds, building
        # one digraph per step, as the reference did from step t on.
        ahead = sum(int(oracle.neighbor_mask(x, r, kind).sum()) for x in walk[t:])
        states.append({"family": f"{kind}{n}", "kind": kind, "path": path, "y": y, "r": r, "limit": limit,
                       "edges_ahead": ahead})
    return {"j": j, "states": states}


def cli_execute(item, scratch) -> Outcome:
    from opinion_lab import cli

    runs = []
    total = 0.0
    for state in item["states"]:
        for cmd in cli_commands(item):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([cmd, "--state", state["path"], "--model", state["kind"]])
            ms = 1e3 * (time.perf_counter() - start)
            total += ms
            runs.append({"family": state["family"], "cmd": cmd, "ms": ms, "code": code,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    failed = sum(1 for r in runs if r["code"] != 0)
    return Outcome(total, len(runs), failed, {"runs": runs})


def known_failure(run) -> bool:
    return run["cmd"] == "analyze" and run["code"] == 2 and CLI_KNOWN_FAILURE in run["stderr"]


def cli_check(item, outcome: Outcome) -> list:
    """Every command exits 0, except analyze's known failure; every
    successful command prints JSON; fvct matches the limit of powers of the
    reference averaging matrix; classify's digraph matches the reference
    neighbor rule."""
    problems = []
    outcome.data["fvct_err"] = 0.0
    states = {s["family"]: s for s in item["states"]}
    for run in outcome.data["runs"]:
        where = f"input {item['j']} {run['family']} {run['cmd']}"
        if run["code"] != 0:
            if not known_failure(run):
                problems.append(f"{where}: exit {run['code']}: {run['stderr'].strip()[-300:]}")
            continue
        try:
            printed = json.loads(run["stdout"])
        except json.JSONDecodeError as exc:
            problems.append(f"{where}: invalid JSON: {exc}")
            continue
        state = states[run["family"]]
        y, r, kind, limit = state["y"], state["r"], state["kind"], state["limit"]
        if run["cmd"] == "fvct":
            values = np.asarray(printed, dtype=float)
            err = float(np.max(np.abs(values - limit))) if values.shape == limit.shape else math.inf
            outcome.data["fvct_err"] = max(outcome.data["fvct_err"], err)
            if not err <= CLI_FVCT_TOL:
                problems.append(f"{where}: differs from the reference limit by {err:.3e}")
        elif run["cmd"] == "classify":
            mask = oracle.neighbor_mask(y, r, kind)
            edges = [[int(i), int(j)] for i, j in zip(*np.nonzero(mask))]
            if not isinstance(printed, dict) or printed.get("digraph", {}).get("edges") != edges:
                problems.append(f"{where}: digraph differs from the reference neighbor rule")
    return problems


def cli_summarize(items, runs) -> dict:
    """Each command's median per family over the inputs, each call at its
    median repeat.  ``unit_ms`` is the geometric mean of the eight medians,
    with analyze's taken per thousand digraph edges that the reference
    stepping builds from the input until it settles: analyze's time follows
    how far its input is from settling, which the other commands do not
    see.  Each command weighs the same, so the one with the most variable
    inputs does not set the figure's spread."""
    calls = []
    for item, outcomes in zip(items, runs):
        ahead = {state["family"]: state["edges_ahead"] for state in item["states"]}
        for k, call in enumerate(outcomes[0].data["runs"]):
            ms = statistics.median(o.data["runs"][k]["ms"] for o in outcomes)
            calls.append({**call, "ms": ms, "ms_per_kedge": 1e3 * ms / ahead[call["family"]]})
    out = {}
    for cmd in CLI_COMMANDS:
        times = [call["ms"] for call in calls if call["cmd"] == cmd]
        out[f"{cmd}_ms_p50"] = (_p50(times), "ms", len(times))
        for kind, n in CLI_FAMILIES:
            fam = [call["ms"] for call in calls if call["cmd"] == cmd and call["family"] == f"{kind}{n}"]
            out[f"{cmd}_ms_p50.{kind}{n}"] = (_p50(fam), "ms", len(fam))
    per_family = []
    for cmd in CLI_COMMANDS:
        for kind, n in CLI_FAMILIES:
            mine = [call for call in calls if call["cmd"] == cmd and call["family"] == f"{kind}{n}"]
            if cmd == "analyze":
                per_kedge = _p50([call["ms_per_kedge"] for call in mine])
                out[f"analyze_ms_per_kedge_p50.{kind}{n}"] = (per_kedge, "ms", len(mine))
                per_family.append(per_kedge)
            else:
                per_family.append(_p50([call["ms"] for call in mine]))
    typical = math.exp(statistics.fmean(math.log(v) for v in per_family))
    out = {"unit_ms": (typical, "ms", sum(map(len, runs))), **out}
    out["commands_per_s"] = (1e3 * len(calls) / sum(call["ms"] for call in calls), "1/s", len(calls))
    outcomes = [o for outcomes in runs for o in outcomes]
    out["fvct_err_max"] = (max(o.data.get("fvct_err", 0.0) for o in outcomes), "abs", len(outcomes))
    gaps = [float(np.max(np.abs(s["y"] - s["limit"]))) for item in items for s in item["states"]]
    out["fvct_gap_min"] = (min(gaps), "abs", len(gaps))
    return out


WORKLOADS = {
    "campaign": Workload(campaign_items, campaign_execute, campaign_check, campaign_summarize),
    "large_n": Workload(large_n_items, large_n_execute, large_n_check, large_n_summarize),
    "cli": Workload(cli_items, cli_execute, cli_check, cli_summarize),
}
