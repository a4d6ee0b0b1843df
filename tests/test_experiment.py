import csv
import json
import math

import numpy as np
import pytest

from opinion_lab import (
    ExperimentConfig,
    Model,
    OpinionState,
    draw_state,
    emit_results,
    run_campaign,
    run_seed,
    run_single,
)
from opinion_lab import experiment
from opinion_lab.experiment import RunRecord
from opinion_lab.stability import (
    equi_topology_distance,
    in_neighborhood,
    invariant_equi_topology_distance,
)

from conftest import count_calls, reference_run_single


def small_config(**overrides):
    base = dict(
        agent_counts=(1, 4, 7),
        runs=4,
        seed=11,
        max_steps=2000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(agent_counts=(5,))
        assert cfg.models == (Model.SBC, Model.SBI)
        assert cfg.runs == 20
        assert cfg.bounds_range == (0.0, 0.3)

    def test_model_strings_coerced(self):
        cfg = ExperimentConfig(agent_counts=(5,), models=("sbi",))
        assert cfg.models == (Model.SBI,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(agent_counts=())
        with pytest.raises(ValueError):
            ExperimentConfig(agent_counts=(5,), runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(agent_counts=(5,), opinion_range=(1.0, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(agent_counts=(5,), bounds_range=(-0.1, 0.3))
        with pytest.raises(ValueError):
            ExperimentConfig(agent_counts=(0,))
        with pytest.raises(ValueError):
            ExperimentConfig(agent_counts=(5,), max_steps=0)
        for limit_tol in (math.nan, -1e-12, math.inf):
            with pytest.raises(ValueError, match="limit_tol"):
                ExperimentConfig(agent_counts=(5,), limit_tol=limit_tol)
        # Counts and the seed are integers: no bools, no fractions, no floats.
        for name in ("runs", "max_steps", "check_every", "seed"):
            for bad in (2.5, 3.0, True, np.float64(2.0), "3"):
                with pytest.raises(ValueError, match=name):
                    ExperimentConfig(agent_counts=(5,), **{name: bad})
        for bad in (2.7, 4.0, False, np.bool_(True)):
            with pytest.raises(ValueError, match="agent_counts"):
                ExperimentConfig(agent_counts=(5, bad))
        # The models and the agent counts are non-empty lists.
        for name, bad in (
            ("agent_counts", 5), ("agent_counts", "5"), ("models", "sbc"), ("models", Model.SBC),
            ("models", []), ("models", ()), ("models", 5),
        ):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(**{"agent_counts": (5,), name: bad})
        # Each model and each count appears once, compared after coercion.
        for name, bad, named in (
            ("agent_counts", (5, 5), "5, 5"), ("agent_counts", (5, np.int64(5), 3), "5, 5, 3"),
            ("models", ("sbc", "sbc"), "sbc, sbc"), ("models", ("sbi", Model.SBC, "sbc"), "sbi, sbc, sbc"),
        ):
            with pytest.raises(ValueError, match=fr"{name} must not repeat an entry, got \[{named}\]"):
                ExperimentConfig(**{"agent_counts": (5,), name: bad})
        # Each model is one of the model values.
        for bad in (["xyz"], ["sbc", "SBI"], [1], [None]):
            with pytest.raises(ValueError, match=r"models must each be one of \['sbc', 'sbi'\]"):
                ExperimentConfig(agent_counts=(5,), models=bad)
        for name in ("opinion_range", "bounds_range"):
            for bad in (
                (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
                (False, True), (0, True), (np.bool_(False), 1.0), (0.0, "1"), (None, 1.0),
                # A range is exactly two ends.
                (0.5,), (0.0, 0.5, 1.0), [0.1], 0.3,
            ):
                with pytest.raises(ValueError, match=name):
                    ExperimentConfig(agent_counts=(5,), **{name: bad})
        # The tolerance and the range ends are real numbers: no bools, no strings.
        for bad in (True, False, np.bool_(True), "1e-12", None):
            with pytest.raises(ValueError, match="limit_tol"):
                ExperimentConfig(agent_counts=(5,), limit_tol=bad)
        cfg = ExperimentConfig(
            agent_counts=(5,), limit_tol=np.float64(1e-9),
            opinion_range=(np.float32(-1.0), np.int64(1)), bounds_range=(0, np.float64(0.5)),
        )
        assert cfg.limit_tol == 1e-9 and cfg.opinion_range == (-1.0, 1.0)

    def test_numpy_integers_pass_as_python_ints(self):
        cfg = ExperimentConfig(
            agent_counts=np.array([3, 6]), runs=np.int32(2), max_steps=np.int64(50),
            check_every=np.uint8(3), seed=np.int64(-7),
        )
        assert (cfg.agent_counts, cfg.runs, cfg.max_steps, cfg.check_every, cfg.seed) == (
            (3, 6), 2, 50, 3, -7
        )
        assert all(type(v) is int for v in (*cfg.agent_counts, cfg.runs, cfg.seed))

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"agent_counts": [3, 6], "runs": 2, "seed": 9, "models": ["sbc"]}
            )
        )
        cfg = ExperimentConfig.from_json_file(path)
        assert cfg.agent_counts == (3, 6)
        assert cfg.models == (Model.SBC,)

    def test_from_json_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"agent_counts": [3], "typo_field": 1}))
        with pytest.raises(ValueError, match="typo_field"):
            ExperimentConfig.from_json_file(path)


class TestSeedsAndDraws:
    def test_run_seed_is_stable(self):
        a = run_seed(0, Model.SBC, 10, 3)
        assert a == run_seed(0, Model.SBC, 10, 3)
        assert a != run_seed(0, Model.SBI, 10, 3)
        assert a != run_seed(0, Model.SBC, 11, 3)
        assert a != run_seed(0, Model.SBC, 10, 4)
        assert a != run_seed(1, Model.SBC, 10, 3)
        assert 0 <= a < 2**64

    def test_draw_state_reproducible(self):
        s1 = draw_state(Model.SBC, 8, 2, 42)
        s2 = draw_state(Model.SBC, 8, 2, 42)
        assert np.array_equal(s1.opinions, s2.opinions)
        assert np.array_equal(s1.bounds, s2.bounds)
        assert s1.kind is Model.SBC

    def test_draw_state_positive_bounds_and_interior(self):
        for run in range(30):
            state = draw_state(Model.SBI, 6, run, 7)
            assert np.all(state.bounds > 0.0)
            assert equi_topology_distance(state).min() > 0.0

    def test_boundary_draws_are_redrawn(self, monkeypatch, caplog):
        # Pretend the first draw sits on a neighbor-rule boundary.
        calls = []

        def first_on_boundary(state):
            calls.append(state)
            eps = equi_topology_distance(state)
            return np.zeros_like(eps) if len(calls) == 1 else eps

        monkeypatch.setattr(experiment, "equi_topology_distance", first_on_boundary)
        state = draw_state(Model.SBC, 6, 2, 42)
        assert len(calls) == 2 and not np.array_equal(state.opinions, calls[0].opinions)
        assert caplog.messages == [
            "boundary draw (min equi-topology distance = 0) for sbc n=6 run=2; redrawing"
        ]

    def test_boundary_draws_give_up_after_100_attempts(self, monkeypatch, caplog):
        monkeypatch.setattr(experiment, "equi_topology_distance", lambda state: np.zeros(state.n))
        with pytest.raises(RuntimeError, match="could not draw a non-boundary state in 100 attempts"):
            draw_state(Model.SBI, 4, 0, 1)
        assert len(caplog.messages) == 100
        assert set(caplog.messages) == {
            "boundary draw (min equi-topology distance = 0) for sbi n=4 run=0; redrawing"
        }


EDGE_NS = dict(agent_counts=(1, 4, 7, 30))


class TestRunSingle:
    def test_single_agent_trivial_record(self):
        cfg = small_config()
        rec = run_single(Model.SBC, 1, 0, cfg)
        assert rec.fixed_at == 1
        assert rec.tau_condition == 0
        assert rec.converged

    def test_record_coordinates(self):
        cfg = small_config()
        rec = run_single(Model.SBI, 4, 2, cfg)
        assert rec.coordinates == ("sbi", 4, 2)
        assert rec.seed == run_seed(cfg.seed, Model.SBI, 4, 2)

    def test_tau_marks_neighborhood_entry(self):
        # Replay the recorded run and confirm the reported entry time.
        from opinion_lab import fvct, simulate

        cfg = small_config()
        for run in range(4):
            rec = run_single(Model.SBC, 6, run, cfg)
            if rec.tau_condition is None or rec.tau_condition == 0:
                continue
            state = draw_state(
                Model.SBC, 6, run, cfg.seed, cfg.opinion_range, cfg.bounds_range
            )
            traj = simulate(state, max_steps=cfg.max_steps, limit_tol=cfg.limit_tol)
            k = traj.times.index(rec.tau_condition)
            x = traj.states[k]
            f = fvct(state.with_opinions(x))
            f_state = state.with_opinions(f)
            delta_f = invariant_equi_topology_distance(f_state)
            assert in_neighborhood(x, f_state, delta_f)

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(check_every=1), id="1"),
            pytest.param(dict(check_every=3), id="3"),
            # Stop-rule edges: max_steps stops before and between checks,
            # no tolerance stop, and a loose one.
            pytest.param(dict(EDGE_NS, max_steps=3), id="max_steps_3"),
            pytest.param(dict(EDGE_NS, max_steps=17, check_every=4), id="max_steps_17_check_4"),
            pytest.param(dict(EDGE_NS, limit_tol=0.0), id="limit_tol_0"),
            pytest.param(dict(EDGE_NS, limit_tol=0.0, check_every=3), id="limit_tol_0_check_3"),
            pytest.param(dict(EDGE_NS, limit_tol=1e-6), id="limit_tol_1e-6"),
        ],
    )
    def test_records_match_reference_loop(self, overrides):
        cfg = small_config(**overrides)
        for model in cfg.models:
            for n in cfg.agent_counts:
                for run in range(cfg.runs):
                    want = reference_run_single(model, n, run, cfg)
                    assert run_single(model, n, run, cfg) == want

    def test_delta_radii_computed_once_per_run(self, monkeypatch):
        from opinion_lab import experiment

        calls = []

        def counted(state):
            calls.append(state)
            return invariant_equi_topology_distance(state)

        monkeypatch.setattr(experiment, "invariant_equi_topology_distance", counted)
        cfg = small_config(agent_counts=(30,), runs=2)
        for model in cfg.models:
            for run in range(cfg.runs):
                calls.clear()
                run_single(model, 30, run, cfg)
                assert len(calls) == 1

    def test_limit_measured_once_per_run(self, monkeypatch):
        # After the simulation, the limit's mask and eps come from one
        # distance matrix.
        from opinion_lab import experiment, graph

        counts = count_calls(monkeypatch, graph._distances)

        def simulated(*args, _simulate=experiment.simulate, **kwargs):
            traj = _simulate(*args, **kwargs)
            counts["_distances"] = 0
            return traj

        monkeypatch.setattr(experiment, "simulate", simulated)
        cfg = small_config(agent_counts=(1, 30), runs=2)
        for model in cfg.models:
            for n in cfg.agent_counts:
                for run in range(cfg.runs):
                    run_single(model, n, run, cfg)
                    assert counts["_distances"] == 1

    def test_simulate_reports_the_same_fixed_step(self):
        from opinion_lab import simulate

        cfg = small_config()
        for model in cfg.models:
            for n in cfg.agent_counts:
                for run in range(cfg.runs):
                    state = draw_state(model, n, run, cfg.seed)
                    traj = simulate(state, max_steps=cfg.max_steps, limit_tol=cfg.limit_tol)
                    assert traj.fixed_at == run_single(model, n, run, cfg).fixed_at

    def test_most_small_runs_converge(self):
        cfg = small_config()
        recs = [run_single(Model.SBC, 4, run, cfg) for run in range(10)]
        assert sum(r.converged for r in recs) >= 8


class TestCampaign:
    def test_record_count_and_order(self):
        cfg = small_config()
        records = run_campaign(cfg)
        assert len(records) == 2 * 3 * 4
        coords = [r.coordinates for r in records]
        assert coords == sorted(coords)

    def test_campaign_deterministic(self):
        cfg = small_config()
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a == b

    def test_records_independent_of_config_order(self):
        # Seeds derive from the run coordinates and the records are sorted.
        cfg = small_config()
        reordered = small_config(models=cfg.models[::-1], agent_counts=cfg.agent_counts[::-1])
        assert run_campaign(cfg) == run_campaign(reordered)

    def test_failed_run_is_recorded(self, tmp_path, monkeypatch):
        from opinion_lab import experiment

        cfg = small_config(agent_counts=(1, 5), runs=3, seed=0)
        want = run_campaign(cfg)

        def failing(model, n, run, cfg):
            if (model, n, run) == (Model.SBC, 5, 1):
                raise RuntimeError("forced failure")
            return run_single(model, n, run, cfg)

        monkeypatch.setattr(experiment, "run_single", failing)
        got = run_campaign(cfg)
        failed = [i for i, rec in enumerate(got) if rec.coordinates == ("sbc", 5, 1)]
        assert len(failed) == 1 and len(got) == len(want)
        i = failed[0]
        assert got[:i] + got[i + 1:] == want[:i] + want[i + 1:]
        # The run had a τ and a fixed step, so dropping it moves the aggregate.
        assert want[i].tau_condition is not None and want[i].fixed_at is not None

        results_path, aggregate_path = emit_results(got, tmp_path)
        with open(results_path) as fh:
            lines = fh.read().splitlines()
        assert lines[1 + i] == f"sbc,5,1,{run_seed(cfg.seed, Model.SBC, 5, 1)},,,0,nan"
        with open(aggregate_path) as fh:
            row = next(r for r in csv.DictReader(fh) if (r["model"], r["n"]) == ("sbc", "5"))
        others = [rec for rec in want if rec.coordinates in {("sbc", 5, 0), ("sbc", 5, 2)}]
        taus = [rec.tau_condition for rec in others if rec.tau_condition is not None]
        assert row["runs"] == "3"
        finite = sum(rec.fixed_at is not None for rec in others)
        assert float(row["pct_finite"]) == 100.0 * finite / 3
        assert float(row["mean_tau"]) == sum(taus) / len(taus)


class TestEmitResults:
    def make_records(self):
        def rec(model, n, run, tau, fixed):
            return RunRecord(
                model=model,
                n=n,
                run=run,
                seed=run_seed(0, model, n, run),
                tau_condition=tau,
                fixed_at=fixed,
                converged=fixed is not None,
                final_residual=0.0,
            )

        return [
            rec(Model.SBC, 3, 0, 4, 10),
            rec(Model.SBC, 3, 1, 2, None),
            rec(Model.SBC, 3, 2, None, None),
            rec(Model.SBC, 3, 3, 6, 8),
        ]

    def test_aggregate_arithmetic(self, tmp_path):
        _, agg_path = emit_results(self.make_records(), tmp_path)
        with open(agg_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["model"] == "sbc"
        assert row["runs"] == "4"
        assert float(row["pct_finite"]) == 50.0
        assert float(row["mean_tau"]) == (4 + 2 + 6) / 3

    def test_results_rows(self, tmp_path):
        results_path, _ = emit_results(self.make_records(), tmp_path)
        with open(results_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["tau_condition"] == "4"
        assert rows[2]["tau_condition"] == ""
        assert rows[1]["fixed_at"] == ""
        assert rows[0]["converged"] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(agent_counts=(1, 5), runs=3)
        p1, a1 = emit_results(run_campaign(cfg), tmp_path / "one")
        p2, a2 = emit_results(run_campaign(cfg), tmp_path / "two")
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(a1, "rb").read() == open(a2, "rb").read()

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path)

    def test_unusable_out_dir_is_named(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(FileExistsError) as err:
            emit_results(self.make_records(), taken)
        assert str(err.value) == f"[Errno 17] File exists: {str(taken)!r}"
