"""Tests of the benchmark itself: span arithmetic, the correctness checks
and the seed.  They use small inputs so that they run in seconds."""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from opinion_lab import Model, OpinionState, dynamics  # noqa: E402


def load_runner():
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- spans -------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0.0, 1.0, None, 1, 0.0, 0.5],
        ["inner", 0.1, 0.3, 0, 1, 0.1, 0.2],
        ["leaf", 0.15, 0.2, 1, 1, 0.12, 0.13],
        ["inner", 0.5, 0.9, 0, 1, 0.3, 0.4],
    ]
    layers = tracing.layer_times(spans)
    assert layers["outer"]["calls"] == 1
    assert layers["outer"]["total_ms"] == pytest.approx(1000.0)
    assert layers["outer"]["self_ms"] == pytest.approx(1000.0 - 200.0 - 400.0)
    assert layers["inner"]["calls"] == 2
    assert layers["inner"]["total_ms"] == pytest.approx(600.0)
    assert layers["inner"]["self_ms"] == pytest.approx(600.0 - 50.0)
    assert layers["leaf"]["self_ms"] == pytest.approx(50.0)
    assert layers["outer"]["self_cpu_ms"] == pytest.approx(500.0 - 100.0 - 100.0)
    assert layers["inner"]["self_cpu_ms"] == pytest.approx(200.0 - 10.0)
    assert tracing.top_level_ms(spans, 1) == pytest.approx(1000.0)


def test_wrapped_calls_nest_and_account_for_the_outer_call():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: sum(range(x)))
    outer = tracer.wrap("outer", lambda: inner(10_000) + inner(20_000))
    assert outer() == sum(range(10_000)) + sum(range(20_000))
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [None, 0, 0]
    layers = tracing.layer_times(tracer.spans)
    child_ms = layers["inner"]["total_ms"]
    assert layers["outer"]["self_ms"] == pytest.approx(layers["outer"]["total_ms"] - child_ms)
    assert 0.0 <= layers["outer"]["self_ms"] <= layers["outer"]["total_ms"]


def test_instrument_rebinds_names_imported_by_name_and_restores_them():
    from opinion_lab import cli, graph

    original = graph.build_digraph
    tracer = tracing.Tracer()
    state = OpinionState([0.0, 0.1, 0.5], [0.2, 0.2, 0.2], Model.SBC)
    with tracing.instrument(tracer):
        assert cli.build_digraph is graph.build_digraph is not original
        dynamics.simulate(state)
    assert graph.build_digraph is original and cli.build_digraph is original
    layers = tracing.layer_times(tracer.spans)
    assert layers["dynamics.simulate"]["calls"] == 1
    assert layers["graph.build_digraph"]["calls"] == layers["dynamics.digraph_hash"]["calls"] >= 1
    assert layers["state.OpinionState.with_opinions"]["calls"] >= 1


# --- correctness checks --------------------------------------------------------


@pytest.fixture
def small_campaign(monkeypatch):
    monkeypatch.setattr(workloads, "CAMPAIGN_COUNTS", (6, 9))
    monkeypatch.setattr(workloads, "CAMPAIGN_RUNS", 1)


def test_campaign_check_rejects_bad_records_and_csv(tmp_path, small_campaign):
    item = workloads.campaign_items(3, str(tmp_path))[0]
    outcome = workloads.campaign_execute(item, str(tmp_path))
    assert workloads.campaign_check(item, outcome) == []

    records = outcome.data["records"]
    bad = dataclasses.replace(records[0], fixed_at=None, final_residual=1e-3)
    broken = dataclasses.replace(outcome, data={**outcome.data, "records": [bad] + records[1:]})
    assert workloads.campaign_check(item, broken)

    results_path = outcome.data["paths"][0]
    with open(results_path) as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[2] = str(int(fields[2]) + 7)
    lines[1] = ",".join(fields)
    with open(results_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("results.csv" in p for p in workloads.campaign_check(item, outcome))


def test_large_n_check_rejects_wrong_state_epochs_and_max_steps():
    state = OpinionState(np.linspace(0.0, 1.0, 12), np.full(12, 0.15), Model.SBI)
    item = {"run": 0, "state": state}
    outcome = workloads.large_n_execute(item, None)
    assert outcome.data["termination"] != "max_steps"
    assert workloads.large_n_check(item, outcome) == []

    def perturbed(**change):
        return dataclasses.replace(outcome, data={**outcome.data, **change})

    final = outcome.data["final"].copy()
    final[3] += 1e-6
    assert workloads.large_n_check(item, perturbed(final=final))
    assert workloads.large_n_check(item, perturbed(epochs=outcome.data["epochs"] + 1))
    assert workloads.large_n_check(item, perturbed(termination="max_steps"))


def small_cli_item(tmp_path):
    states = []
    for kind, n in (("sbc", 8), ("sbi", 10)):
        rng = np.random.default_rng(n)
        y, r = rng.uniform(0.0, 1.0, n), rng.uniform(0.05, 0.3, n)
        path = os.path.join(str(tmp_path), f"{kind}.json")
        with open(path, "w") as fh:
            json.dump({"opinions": y.tolist(), "bounds": r.tolist()}, fh)
        limit = oracle.frozen_limit(y, r, kind)
        states.append({"family": f"{kind}{n}", "kind": kind, "path": path, "y": y, "r": r, "limit": limit})
    return {"j": 0, "states": states}


def test_cli_check_rejects_wrong_fvct_digraph_and_json(tmp_path):
    item = small_cli_item(tmp_path)
    outcome = workloads.cli_execute(item, str(tmp_path))
    assert workloads.cli_check(item, outcome) == []

    def perturbed(cmd, edit):
        runs = [dict(run) for run in outcome.data["runs"]]
        for run in runs:
            if run["cmd"] == cmd and run["code"] == 0:
                run["stdout"] = edit(run["stdout"])
                break
        return dataclasses.replace(outcome, data={"runs": runs})

    def shift_fvct(text):
        values = json.loads(text)
        values[0] += 1e-3
        return json.dumps(values)

    def drop_edge(text):
        printed = json.loads(text)
        printed["digraph"]["edges"].pop()
        return json.dumps(printed)

    assert workloads.cli_check(item, perturbed("fvct", shift_fvct))
    assert workloads.cli_check(item, perturbed("classify", drop_edge))
    assert workloads.cli_check(item, perturbed("check", lambda text: text[:-2]))


def failing_cli(monkeypatch, cmd, message):
    """Make ``cli.main`` exit 2 with ``message`` for ``cmd``."""
    from opinion_lab import cli

    real = cli.main

    def main(argv):
        if argv[0] == cmd:
            print(f"error: {message}", file=sys.stderr)
            return 2
        return real(argv)

    monkeypatch.setattr(cli, "main", main)


@pytest.mark.parametrize("cmd", ["classify", "fvct", "check", "analyze"])
def test_cli_check_rejects_a_crashing_command(tmp_path, monkeypatch, cmd):
    item = small_cli_item(tmp_path)
    failing_cli(monkeypatch, cmd, "boom")
    outcome = workloads.cli_execute(item, str(tmp_path))
    assert outcome.failed == len(item["states"])
    problems = workloads.cli_check(item, outcome)
    assert len(problems) == len(item["states"]) and all(f"{cmd}: exit 2" in p for p in problems)


def test_cli_check_counts_the_known_analyze_failure(tmp_path, monkeypatch):
    item = small_cli_item(tmp_path)
    failing_cli(monkeypatch, "analyze", workloads.CLI_KNOWN_FAILURE)
    outcome = workloads.cli_execute(item, str(tmp_path))
    assert outcome.failed == len(item["states"])
    assert workloads.cli_check(item, outcome) == []


def test_cli_inputs_are_far_enough_from_their_limit(tmp_path, monkeypatch):
    """On generated inputs, an fvct that returns its input fails the check."""
    monkeypatch.setattr(workloads, "CLI_FAMILIES", (("sbc", 30), ("sbi", 40)))
    item = first_item("cli", 4, tmp_path)
    outcome = workloads.cli_execute(item, str(tmp_path))
    assert workloads.cli_check(item, outcome) == []
    for state in item["states"]:
        assert np.max(np.abs(state["y"] - state["limit"])) >= workloads.CLI_MIN_GAP
        assert np.allclose(state["limit"], oracle.frozen_limit(state["y"], state["r"], state["kind"]), atol=1e-12)
    runs = [dict(run) for run in outcome.data["runs"]]
    y = {state["family"]: state["y"] for state in item["states"]}
    for run in runs:
        if run["cmd"] == "fvct":
            run["stdout"] = json.dumps(y[run["family"]].tolist())
    problems = workloads.cli_check(item, dataclasses.replace(outcome, data={"runs": runs}))
    assert len(problems) == len(item["states"]) and all("reference limit" in p for p in problems)


def test_oracle_limit_matches_long_iteration():
    rng = np.random.default_rng(5)
    y, r = rng.uniform(0.0, 1.0, 30), rng.uniform(0.05, 0.4, 30)
    a = oracle.averaging_matrix(oracle.neighbor_mask(y, r, "sbi"))
    x = y.copy()
    for _ in range(20_000):
        x = a @ x
    assert np.max(np.abs(oracle.frozen_limit(y, r, "sbi") - x)) < 1e-12


# --- the seed ----------------------------------------------------------------


def first_item(name, seed, scratch):
    return workloads.WORKLOADS[name].items(seed, str(scratch))[0]


def test_seed_changes_campaign_inputs_only(tmp_path):
    a = workloads.campaign_config(first_item("campaign", 1, tmp_path))
    b = workloads.campaign_config(first_item("campaign", 2, tmp_path))
    again = workloads.campaign_config(first_item("campaign", 1, tmp_path))
    assert a == again
    assert a.seed != b.seed
    assert dataclasses.replace(a, seed=b.seed) == b


def test_seed_changes_large_n_inputs_only(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LARGE_N", 40)
    a = first_item("large_n", 1, tmp_path)["state"]
    b = first_item("large_n", 2, tmp_path)["state"]
    again = first_item("large_n", 1, tmp_path)["state"]
    assert np.array_equal(a.opinions, again.opinions) and np.array_equal(a.bounds, again.bounds)
    assert not np.array_equal(a.opinions, b.opinions)
    assert (a.n, a.kind) == (b.n, b.kind) == (40, Model.SBI)


def test_seed_changes_cli_inputs_only(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CLI_FAMILIES", (("sbc", 12), ("sbi", 15)))
    for sub in "abc":
        os.makedirs(tmp_path / sub)
    a = first_item("cli", 1, tmp_path / "a")
    b = first_item("cli", 2, tmp_path / "b")
    again = first_item("cli", 1, tmp_path / "c")
    for sa, sb, sc in zip(a["states"], b["states"], again["states"]):
        assert np.array_equal(sa["y"], sc["y"]) and np.array_equal(sa["r"], sc["r"])
        with open(sa["path"]) as fa, open(sc["path"]) as fc:
            assert fa.read() == fc.read()
        assert not np.array_equal(sa["y"], sb["y"])
        assert (sa["family"], sa["kind"], len(sa["y"])) == (sb["family"], sb["kind"], len(sb["y"]))


# --- passes and counts ------------------------------------------------------------


def fake_workload(failures):
    """Inputs 0..3; input i fails ``failures(i, repeat)`` of its 2 operations."""
    seen = {}

    def execute(item, scratch):
        repeat = seen[item] = seen.get(item, -1) + 1
        time.sleep(0.002)
        return workloads.Outcome(1.0 + item, 2, failures(item, repeat))

    def summarize(items, runs):
        return {"unit_ms": (min(o.ms for o in runs[0]), "ms", len(runs))}

    return workloads.Workload(lambda seed, scratch: [0, 1, 2, 3], execute, lambda item, outcome: [], summarize)


def run_fake(workload, seconds, tmp_path, monkeypatch):
    import hostspeed

    monkeypatch.setattr(hostspeed, "reference", lambda: hostspeed.NOMINAL_MS)
    runner = load_runner()
    args = argparse.Namespace(workload="fake", seed=0, seconds=seconds, trace=0)
    return runner.measure(workload, args, str(tmp_path), 0.1)


def test_first_pass_runs_every_input_even_past_the_time():
    runner = load_runner()
    runs = runner.run_passes([0, 1, 2], 1e-9, lambda index, item: item)
    assert runs == [[0], [1], [2]]
    runs = runner.run_passes([0, 1, 2], 0.05, lambda index, item: time.sleep(0.001) or item)
    assert all(len(outcomes) > 1 and set(outcomes) == {item} for item, outcomes in enumerate(runs))


def test_counts_depend_on_the_inputs_not_on_the_run_length(tmp_path, monkeypatch):
    short = run_fake(fake_workload(lambda item, repeat: item % 2), 1e-9, tmp_path, monkeypatch)
    long = run_fake(fake_workload(lambda item, repeat: item % 2), 0.5, tmp_path, monkeypatch)
    assert short["detail"]["passes"][0] == 1 < long["detail"]["passes"][0]
    for record in (short, long):
        assert record["result"]["correct"]
        assert (record["result"]["attempted"], record["result"]["failed"]) == (8, 2)


def test_a_repeat_that_fails_differently_is_a_problem(tmp_path, monkeypatch):
    record = run_fake(fake_workload(lambda item, repeat: int(item == 2 and repeat == 1)), 0.5, tmp_path, monkeypatch)
    assert record["result"]["failed"] == 0
    assert not record["result"]["correct"]
    assert any("repeat 1" in p for p in record["problems"])


# --- the contract ----------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    runner = load_runner()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
