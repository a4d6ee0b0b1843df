import json

import numpy as np
import pytest

from opinion_lab.cli import InputError, build_parser, load_state, load_trajectory_csv, main
from opinion_lab.dynamics import Termination, simulate
from opinion_lab.experiment import draw_state
from opinion_lab.graph import ProximityDigraph
from opinion_lab.leader import RATE_MIN_STATES, analyze_final_topology, verify_rate_prediction
from opinion_lab.state import Model, OpinionState

from conftest import count_calls, grid_state, random_state


@pytest.fixture
def three_agent_json(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(
        json.dumps({"opinions": [0.0, 0.6, 1.0], "bounds": [0.25, 1.0, 0.25]})
    )
    return str(path)


@pytest.fixture
def agreement_json(tmp_path):
    path = tmp_path / "agree.json"
    path.write_text(
        json.dumps({"opinions": [0.0, 0.0, 1.0], "bounds": [0.1, 0.1, 0.1]})
    )
    return str(path)


class TestLoadState:
    def test_json_round_trip(self, three_agent_json):
        state = load_state(three_agent_json, "sbc")
        assert np.array_equal(state.opinions, [0.0, 0.6, 1.0])
        assert state.kind is Model.SBC

    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("opinion,bound\n0.0,0.25\n0.6,1.0\n1.0,0.25\n")
        state = load_state(str(path), "sbi")
        assert np.array_equal(state.bounds, [0.25, 1.0, 0.25])
        assert state.kind is Model.SBI

    def test_csv_bad_width(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("0.0,0.25,9\n")
        with pytest.raises(InputError, match="2 columns"):
            load_state(str(path), "sbc")

    def test_csv_bad_number(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("0.0,nope\n")
        with pytest.raises(InputError, match=":1:"):
            load_state(str(path), "sbc")

    @pytest.mark.parametrize("header", ["opinion,bound", "x,r", " Y ,bound"])
    def test_csv_header_is_the_first_non_empty_row(self, tmp_path, header):
        path = tmp_path / "state.csv"
        path.write_text(f"\n{header}\n\n0.1,0.2\n0.3,0.2\n")
        state = load_state(str(path), "sbc")
        assert np.array_equal(state.opinions, [0.1, 0.3])
        assert np.array_equal(state.bounds, [0.2, 0.2])

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("0.1,0.2\nx,0.5\n0.3,0.2\n", 2),
            ("opinion,bound\n0.1,0.2\nopinion,bound\n", 3),
            ("x,r\ny,r\n0.1,0.2\n", 2),
            ("\n0.1,0.2\n\ny,0.5\n", 4),
        ],
    )
    def test_csv_header_after_the_first_row_is_input_error(self, tmp_path, capsys, text, lineno):
        # Such a row used to be skipped as a header, silently dropping an agent.
        path = tmp_path / "state.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=f"^{path}:{lineno}: could not convert"):
            load_state(str(path), "sbc")
        assert main(["fvct", "--state", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {path}:{lineno}: ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_state(str(tmp_path / "nope.json"), "sbc")

    def test_json_missing_fields(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"opinions": [0.1]}))
        with pytest.raises(InputError, match="bounds"):
            load_state(str(path), "sbc")

    def test_invalid_bounds_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"opinions": [0.1], "bounds": [0.0]}))
        with pytest.raises(InputError):
            load_state(str(path), "sbc")

    @pytest.mark.parametrize("name", ["state.json", "state.csv"])
    def test_undecodable_state_is_input_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe0.1,0.2\n")
        assert main(["fvct", "--state", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"input error: {path}: ") and "can't decode byte 0xff" in captured.err

    @pytest.mark.parametrize("field", ["opinions", "bounds"])
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_state_value_that_is_not_a_number_is_input_error(self, tmp_path, capsys, field, value):
        # numpy alone would read true as 1.0 and "0.5" as 0.5.
        raw = {"opinions": [0.0, 0.6, 1.0], "bounds": [0.25, 1.0, 0.25]}
        raw[field][1] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(raw))
        assert main(["fvct", "--state", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f'input error: {path}: "{field}" must be a list of numbers\n'

    @pytest.mark.parametrize(
        "opinions, message",
        [
            (0.5, "opinions must be a 1-D vector, got shape ()"),
            ("0.5", "opinions must be a 1-D vector, got shape ()"),
            ([["0.5"]], "opinions must be a 1-D vector, got shape (1, 1)"),
            ([None], "opinions must be finite"),
            ({"a": 1}, "float() argument must be a string or a real number, not 'dict'"),
            ([10**400], "int too large to convert to float"),
        ],
    )
    def test_malformed_opinions_are_input_errors(self, tmp_path, capsys, opinions, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"opinions": opinions, "bounds": [0.25]}))
        assert main(["fvct", "--state", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: {path}: {message}\n"


class TestSimulateCommand:
    def test_converges_and_reports(self, three_agent_json, capsys):
        rc = main(["simulate", "--state", three_agent_json])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["termination"] == "tolerance_reached"
        assert out["final"] == pytest.approx([0.0, 0.5, 1.0], abs=1e-10)
        assert out["epochs"][0]["t"] == 0

    def test_agreement_fixes_at_one(self, agreement_json, capsys):
        rc = main(["simulate", "--state", agreement_json])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fixed_at"] == 1
        assert out["termination"] == "fixed_state"

    def test_writes_output_files(self, three_agent_json, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        rc = main(
            ["simulate", "--state", three_agent_json, "--out-prefix", prefix]
        )
        assert rc == 0
        lines = (tmp_path / "run_trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x_0,x_1,x_2"
        events = json.loads((tmp_path / "run_events.json").read_text())
        assert events["termination"] == "tolerance_reached"

    def test_out_prefix_without_a_directory_fails_before_the_run(
        self, three_agent_json, tmp_path, capsys, monkeypatch
    ):
        from opinion_lab import cli

        runs = []
        monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: runs.append(args))
        taken = tmp_path / "taken"
        taken.write_text("keep")
        for prefix in (tmp_path / "missing" / "run", taken / "run"):
            assert main(["simulate", "--state", three_agent_json, "--out-prefix", str(prefix)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert captured.err.startswith(f"input error: --out-prefix {prefix}: ")
        assert runs == [] and taken.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "taken"]

    def test_unwritable_out_prefix_is_input_error(self, three_agent_json, tmp_path, capsys):
        prefix = tmp_path / "run"
        (tmp_path / "run_trajectory.csv").mkdir()
        assert main(["simulate", "--state", three_agent_json, "--out-prefix", str(prefix)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"input error: --out-prefix {prefix}: ")
        assert f"{prefix}_trajectory.csv" in captured.err
        assert not (tmp_path / "run_events.json").exists()

    def test_a_fault_inside_a_writer_exits_2(self, three_agent_json, tmp_path, capsys, monkeypatch):
        from opinion_lab.dynamics import Trajectory

        def fail(self, path):
            raise ValueError("writer fault")

        monkeypatch.setattr(Trajectory, "to_csv", fail)
        argv = ["simulate", "--state", three_agent_json, "--out-prefix", str(tmp_path / "run")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("error: writer fault\n")
        assert "input error" not in captured.err


class TestOtherCommands:
    def test_fvct_prints_limit(self, three_agent_json, capsys):
        rc = main(["fvct", "--state", three_agent_json])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)

    def test_classify_structure(self, three_agent_json, capsys):
        rc = main(["classify", "--state", three_agent_json])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["digraph"]["n"] == 3
        kinds = {
            tuple(s["members"]): s["class"]
            for s in out["classification"]["sccs"]
        }
        assert kinds[(0,)] == "closed_minded"
        assert kinds[(1,)] == "open_minded"

    def test_classify_prints_the_dict_export(self, tmp_path, capsys):
        from opinion_lab import build_digraph, classify, simulate
        from opinion_lab.experiment import draw_state

        rng = np.random.default_rng(157)
        states = [OpinionState([0.5], [0.1]), OpinionState([0.0, 0.6, 1.0], [0.25, 1.0, 0.25])]
        states += [random_state(rng, max_n=60, bounds_hi=0.2) for _ in range(10)]
        states += [grid_state(rng) for _ in range(10)]
        traj = simulate(draw_state(Model.SBI, 300, 0, 0))
        states.append(traj.state_at_index(len(traj.times) - 2))
        for k, state in enumerate(states):
            path = tmp_path / f"state{k}.json"
            path.write_text(json.dumps(
                {"opinions": state.opinions.tolist(), "bounds": state.bounds.tolist()}
            ))
            rc = main(["classify", "--state", str(path), "--model", state.kind.value])
            assert rc == 0
            g = build_digraph(state)
            digraph = {"n": g.n, "edges": np.argwhere(g.mask).tolist()}
            want = json.dumps({"digraph": digraph, "classification": classify(g).to_json()})
            assert capsys.readouterr().out == want + "\n"

    def test_check_reports_distances(self, three_agent_json, capsys):
        rc = main(["check", "--state", three_agent_json])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_equilibrium"] is False
        assert out["epsilon"] == pytest.approx([0.175, 0.075, 0.075])

    def test_analyze_reports_leaders_and_pseudo_stability(
        self, three_agent_json, capsys
    ):
        rc = main(["analyze", "--state", three_agent_json])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["leaders"]["open_sccs"]) == 1
        entry = out["leaders"]["open_sccs"][0]
        assert entry["members"] == [1]
        assert entry["leader_radius"] == pytest.approx(1 / 3)
        assert out["pseudo_stable"]["holds_from"] == 0
        assert out["pseudo_stable"]["converging_set"] == [1]

    def test_analyze_builds_the_final_topology_once(
        self, three_agent_json, monkeypatch, capsys
    ):
        from opinion_lab import cli, leader
        from opinion_lab.matrix import fvct_canonical

        original = leader.analyze_final_topology
        calls = []

        def counted(traj):
            calls.append(traj)
            return original(traj)

        monkeypatch.setattr(cli, "analyze_final_topology", counted)
        monkeypatch.setattr(leader, "analyze_final_topology", counted)
        solves = count_calls(monkeypatch, fvct_canonical)
        rc = main(["analyze", "--state", three_agent_json])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "rates" in out and "directions" in out
        assert len(calls) == 1
        # The tolerance stop's fvct of its epoch is the trajectory's limit.
        assert solves["fvct_canonical"] == 1

    def test_analyze_reads_the_final_epochs_fvct(self, tmp_path, capsys):
        # A state whose final state's own fvct differs from its final
        # epoch's in the last bits, which decide the pseudo-stability
        # verdict and move the factors.
        from opinion_lab.dynamics import per_step_factor, pseudo_stable_check
        from opinion_lab.leader import RESIDUAL_FLOOR
        from opinion_lab.matrix import fvct_canonical

        opinions = [0.484, 0.78, 0.79, 0.859, 0.28, 0.313, 0.724, 0.657]
        bounds = [0.363, 0.071, 0.058, 0.399, 0.121, 0.332, 0.084, 0.344]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"opinions": opinions, "bounds": bounds}))
        assert main(["analyze", "--state", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)

        traj = simulate(OpinionState(opinions, bounds, Model.SBC), max_steps=10_000)
        f = traj.final_epoch.fvct()
        other = fvct_canonical(traj.final_epoch.decomposition, traj.states[-1])
        verdict = pseudo_stable_check(traj, f)
        assert verdict != pseudo_stable_check(traj, other)
        assert out["pseudo_stable"] == {
            "holds_from": verdict.holds_from,
            "fixed_set": sorted(verdict.fixed_set),
            "converging_set": sorted(verdict.converging_set),
        }
        factors = per_step_factor(traj.states[-2], traj.states[-1], f, tiny=RESIDUAL_FLOOR)
        assert out["rates"] and [v["factor"] for v in out["rates"]] == [
            factors[v["agent"]] for v in out["rates"]
        ]

    def test_analyze_classifies_the_final_topology_once(
        self, three_agent_json, monkeypatch, capsys
    ):
        import opinion_lab
        from opinion_lab import graph

        traj = opinion_lab.simulate(load_state(three_agent_json, "sbc"), max_steps=10_000)
        assert traj.termination is opinion_lab.Termination.TOLERANCE_REACHED
        original = graph.classify
        calls = []

        def counted(g):
            calls.append(g)
            return original(g)

        for name in ("cli", "dynamics", "graph", "leader", "matrix", "stability"):
            module = getattr(opinion_lab, name)
            if getattr(module, "classify", None) is original:
                monkeypatch.setattr(module, "classify", counted)
        rc = main(["analyze", "--state", three_agent_json])
        assert rc == 0
        assert "pseudo_stable" in json.loads(capsys.readouterr().out)
        assert len(calls) == 1

    def test_analyze_from_saved_trajectory(
        self, three_agent_json, tmp_path, capsys
    ):
        prefix = str(tmp_path / "run")
        main(["simulate", "--state", three_agent_json, "--out-prefix", prefix])
        capsys.readouterr()
        rc = main(
            [
                "analyze",
                "--state",
                three_agent_json,
                "--trajectory",
                prefix + "_trajectory.csv",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["leaders"]["open_sccs"]) == 1

    def test_analyze_short_final_epoch_omits_rates(self, tmp_path, capsys):
        # The run takes 11 steps, but its last topology change comes one
        # step before the end: too few states for the rate window.
        path = tmp_path / "late_change.json"
        path.write_text(
            json.dumps({"opinions": [0.03, 0.45, 0.81], "bounds": [0.31, 0.07, 0.45]})
        )
        rc = main(["analyze", "--state", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "rates" not in out
        assert out["pseudo_stable"]["holds_from"] is not None

    def test_analyze_window_below_ten_is_input_error(self, tmp_path, capsys):
        # analyze takes no rate window, and a saved trajectory no step limit.
        path = tmp_path / "four.json"
        path.write_text(json.dumps({"opinions": [0.0, 0.6, 1.0, 3.0], "bounds": [0.25, 1.0, 0.25, 0.5]}))
        for window in ("0", "5", "9", "10", "50"):
            assert main(["analyze", "--state", str(path), "--window", window]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: --window {window}" in captured.err
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--state", str(path), "--out-prefix", prefix]) == 0
        capsys.readouterr()
        saved = ["--trajectory", prefix + "_trajectory.csv"]
        for flags in (saved + ["--max-steps", "5"], ["--max-steps", "5"] + saved):
            assert main(["analyze", "--state", str(path), *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert "not allowed with argument" in captured.err
        assert main(["analyze", "--state", str(path)]) == 0
        assert "rates" in json.loads(capsys.readouterr().out)

    def test_rate_check_needs_ten_states_in_the_final_epoch(self, tmp_path, capsys):
        # Three topology changes, the last at t = 9, then a constant tail.
        path = tmp_path / "late_tail.json"
        path.write_text(json.dumps({"opinions": [0.62, 0.25, 0.4, 0.95], "bounds": [0.41, 0.37, 0.09, 0.08]}))
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--state", str(path), "--out-prefix", prefix]) == 0
        capsys.readouterr()
        lines = open(prefix + "_trajectory.csv").read().splitlines(keepends=True)
        state = load_state(str(path), "sbc")
        for recorded in (9, 10, 11):
            cut = tmp_path / f"cut{recorded}.csv"
            # The header, then the states at t = 0 .. 8 + recorded.
            cut.write_text("".join(lines[: 10 + recorded]))
            traj = load_trajectory_csv(str(cut), state)
            assert traj.topology_epochs[-1][0] == 9 and len(traj.times) - traj.tail_index() == recorded
            la = analyze_final_topology(traj)
            assert main(["analyze", "--state", str(path), "--trajectory", str(cut)]) == 0
            out = json.loads(capsys.readouterr().out)
            if recorded < RATE_MIN_STATES:
                with pytest.raises(ValueError, match="final topology epoch has 9 recorded states, needs 10"):
                    verify_rate_prediction(traj, la)
                assert "rates" not in out
            else:
                verdicts = [vars(v) for v in verify_rate_prediction(traj, la)]
                assert verdicts and out["rates"] == verdicts

    def test_analyze_prints_the_verdicts_as_asdict_would(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        from opinion_lab import cli

        states = [
            ([0.0, 0.6, 1.0, 3.0], [0.25, 1.0, 0.25, 0.5]),
            ([0.0, 1.5, 3.5, 5.0, 1.0, 1.0, 4.0, 2.1], [0.01, 0.01, 0.01, 0.01, 1.0, 1.0, 1.0, 3.0]),
        ]
        for kind, n, run in (("sbc", 20, 0), ("sbi", 20, 1), ("sbc", 50, 2)):
            s = draw_state(Model(kind), n, run, 0)
            states.append((s.opinions.tolist(), s.bounds.tolist()))
        path = tmp_path / "state.json"
        for opinions, bounds in states:
            path.write_text(json.dumps({"opinions": opinions, "bounds": bounds}))
            assert main(["analyze", "--state", str(path)]) == 0
            shallow = capsys.readouterr().out
            # A module global named vars shadows the builtin inside cmd_analyze.
            monkeypatch.setattr(cli, "vars", dataclasses.asdict, raising=False)
            assert main(["analyze", "--state", str(path)]) == 0
            assert capsys.readouterr().out == shallow and '"directions"' in shallow
            monkeypatch.delattr(cli, "vars")

    def test_loaded_trajectory_keeps_epochs(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "late_change.json"
        path.write_text(
            json.dumps({"opinions": [0.03, 0.45, 0.81], "bounds": [0.31, 0.07, 0.45]})
        )
        prefix = str(tmp_path / "run")
        main(["simulate", "--state", str(path), "--out-prefix", prefix])
        events = json.loads(capsys.readouterr().out)
        state = load_state(str(path), "sbc")
        # Rows are compared as bare vectors; a digraph is built per epoch,
        # and a state only for an epoch whose state is read, once: here the
        # first epoch's, for its digraph.
        built, digraphs = [], []
        with_opinions, post_init = OpinionState.with_opinions, ProximityDigraph.__post_init__

        def counted_state(self, opinions):
            built.append(opinions)
            return with_opinions(self, opinions)

        def counted_digraph(self):
            digraphs.append(self)
            post_init(self)

        monkeypatch.setattr(OpinionState, "with_opinions", counted_state)
        monkeypatch.setattr(ProximityDigraph, "__post_init__", counted_digraph)
        loaded = load_trajectory_csv(prefix + "_trajectory.csv", state)
        assert len(events["epochs"]) > 1
        assert [{"t": t, "hash": h} for t, h in loaded.topology_epochs] == events["epochs"]
        assert len(digraphs) == len(events["epochs"]) < len(loaded.times)
        assert len(built) == 1
        assert (loaded.final_epoch.start, loaded.final_epoch.label) == loaded.topology_epochs[-1]
        final = loaded.final_epoch
        assert final.state is final.state and len(built) == 2
        first = loaded.states[loaded.times.index(final.start)]
        assert final.state.opinions.tobytes() == first.tobytes()
        # The epochs hold rows of the states, which no caller can write.
        with pytest.raises(ValueError, match="read-only"):
            loaded.states[-1, 0] = 9.0

    def test_trajectory_loader_validates(self, three_agent_json, tmp_path):
        state = load_state(three_agent_json, "sbc")
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trajectory\n")
        with pytest.raises(InputError):
            load_trajectory_csv(str(bad), state)
        empty = tmp_path / "empty.csv"
        empty.write_text("t,x_0,x_1,x_2\n")
        with pytest.raises(InputError, match="empty"):
            load_trajectory_csv(str(empty), state)
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text("t,x_0,x_1,x_2\n0,0.0,0.6,1.0\n1,0.0,nan,1.0\n")
        with pytest.raises(InputError, match="finite"):
            load_trajectory_csv(str(nonfinite), state)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("t,x_0,x_1,x_2\n0,0.0,0.6,1.0\n1,0.0,0.5\n")
        with pytest.raises(InputError, match="row width"):
            load_trajectory_csv(str(ragged), state)

    def test_trajectory_loader_rejects_unordered_times(self, three_agent_json, tmp_path):
        state = load_state(three_agent_json, "sbc")
        for times in ((0, 1, 1), (0, 2, 1)):
            path = tmp_path / "unordered.csv"
            path.write_text("t,x_0,x_1,x_2\n" + "".join(f"{t},0.0,0.6,1.0\n" for t in times))
            with pytest.raises(InputError, match="strictly increase"):
                load_trajectory_csv(str(path), state)

    def test_analyze_rejects_a_sparse_or_unordered_trajectory(self, three_agent_json, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        main(["simulate", "--state", three_agent_json, "--out-prefix", prefix, "--record-every", "5"])
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("t,x_0,x_1,x_2\n0,0.0,0.6,1.0\n0,0.0,0.6,1.0\n")
        capsys.readouterr()
        for path, message in ((prefix + "_trajectory.csv", "--record-every 1"), (str(repeated), "increase")):
            rc = main(["analyze", "--state", three_agent_json, "--trajectory", path])
            err = capsys.readouterr().err
            assert rc == 1
            assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("record_every", [1, 5])
    def test_loaded_states_are_one_float_array(self, three_agent_json, tmp_path, capsys, record_every):
        prefix = str(tmp_path / "run")
        argv = ["simulate", "--state", three_agent_json, "--out-prefix", prefix]
        main(argv + ["--record-every", str(record_every), "--limit-tol", "0", "--max-steps", "23"])
        capsys.readouterr()
        loaded = load_trajectory_csv(prefix + "_trajectory.csv", load_state(three_agent_json, "sbc"))
        assert loaded.states.shape == (len(loaded.times), 3)
        assert loaded.states.dtype == np.float64
        assert all(type(t) is int for t in loaded.times)
        assert loaded.times[-1] == 23


class TestTrajectoryRoundTrip:
    """A dense trajectory written by ``to_csv`` loads with the epochs that
    ``simulate`` recorded, its final epoch included."""

    @staticmethod
    def assert_round_trip(traj, state, path):
        traj.to_csv(path)
        loaded = load_trajectory_csv(str(path), state)
        assert loaded.topology_epochs == traj.topology_epochs
        got, want = loaded.final_epoch, traj.final_epoch
        assert (got.start, got.label) == (want.start, want.label) == traj.topology_epochs[-1]
        assert np.array_equal(got.digraph.mask, want.digraph.mask)

    def test_every_stop_kind(self, tmp_path):
        rng = np.random.default_rng(181)
        stops = set()
        for k in range(80):
            state = random_state(rng, max_n=10)
            traj = simulate(
                state,
                max_steps=int(rng.integers(1, 200)),
                fixed_tol=(0.0, 1e-3)[k % 2],
                limit_tol=(0.0, 1e-12)[k // 2 % 2],
            )
            stops.add(traj.termination)
            self.assert_round_trip(traj, state, tmp_path / "traj.csv")
        assert stops == set(Termination)

    @pytest.mark.parametrize("fixed_tol", [0.0, 1e-3])
    def test_max_steps_at_epoch_starts(self, tmp_path, fixed_tol):
        # The state recorded at max_steps opens an epoch of its own.
        rng = np.random.default_rng(191)
        checked = 0
        for _ in range(20):
            state = random_state(rng, max_n=10)
            for t, _ in simulate(state, max_steps=300, fixed_tol=fixed_tol).topology_epochs[1:]:
                traj = simulate(state, max_steps=t, fixed_tol=fixed_tol)
                assert traj.final_epoch.start == t
                self.assert_round_trip(traj, state, tmp_path / "traj.csv")
                checked += 1
        assert checked >= 20

    def test_loose_fixed_stop_on_a_topology_change(self, tmp_path):
        # The step that falls within fixed_tol crosses a neighbour bound.
        state = OpinionState(
            [0.31, 0.345, 0.985, 0.896, 0.745, 0.608, 0.849, 0.027, 0.099, 0.442, 0.987, 0.741],
            [0.16, 0.415, 0.01, 0.026, 0.15, 0.385, 0.179, 0.029, 0.25, 0.243, 0.061, 0.397],
            Model.SBC,
        )
        traj = simulate(state, fixed_tol=1e-3)
        assert traj.termination is Termination.FIXED_STATE
        assert traj.final_epoch.start == traj.times[-1] == traj.fixed_at
        self.assert_round_trip(traj, state, tmp_path / "traj.csv")

    def test_analyze_agrees_with_its_saved_trajectory(self, tmp_path, capsys):
        # Each run stops at its last epoch start, so the final state is the
        # only one recorded in the final topology.
        for run in range(40):
            state = draw_state(Model.SBC, 20, run, 5)
            t = simulate(state).topology_epochs[-1][0]
            path = tmp_path / f"state{run}.json"
            path.write_text(json.dumps({"opinions": state.opinions.tolist(), "bounds": state.bounds.tolist()}))
            prefix = str(tmp_path / f"run{run}")
            assert main(["simulate", "--state", str(path), "--max-steps", str(t), "--out-prefix", prefix]) == 0
            capsys.readouterr()
            assert main(["analyze", "--state", str(path), "--max-steps", str(t)]) == 0
            direct = capsys.readouterr().out
            assert main(["analyze", "--state", str(path), "--trajectory", prefix + "_trajectory.csv"]) == 0
            assert capsys.readouterr().out == direct


class TestEdgeInputs:
    @pytest.mark.parametrize("command", ["classify", "fvct", "check", "analyze", "simulate"])
    def test_output_is_one_json_line(self, three_agent_json, command, capsys):
        assert main([command, "--state", three_agent_json]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        json.loads(lines[0])

    @pytest.mark.parametrize("model", ["sbc", "sbi"])
    @pytest.mark.parametrize(
        "opinions, bounds",
        [([0.0, 0.4, 1.0], [float("inf"), 0.1, 0.1]), ([0.3], [0.2])],
        ids=["infinite-bound", "one-agent"],
    )
    @pytest.mark.parametrize("command", ["classify", "fvct", "check", "analyze"])
    def test_commands_accept(self, tmp_path, capsys, command, opinions, bounds, model):
        # An infinite bound is accepted and puts every agent in range.
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"opinions": opinions, "bounds": bounds}))
        assert main([command, "--state", str(path), "--model", model]) == 0
        out = json.loads(capsys.readouterr().out)
        if command == "classify" and len(opinions) == 3:
            edges = {tuple(e) for e in out["digraph"]["edges"]}
            reached = {(0, j) if model == "sbc" else (j, 0) for j in range(3)}
            assert reached <= edges
        if command == "fvct" and len(opinions) == 3:
            expected = [0.7, 0.4, 1.0] if model == "sbc" else [0.0, 0.0, 0.0]
            assert out == pytest.approx(expected, abs=1e-12)


    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("model", ["sbc", "sbi"])
    def test_check_on_overflowing_distances(self, tmp_path, capsys, model):
        path = tmp_path / "state.json"
        path.write_text('{"opinions": [-1e308, 1e308, 0], "bounds": [Infinity, 0.1, 0.1]}')
        assert main(["check", "--state", str(path), "--model", model]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["epsilon"] == out["delta"] == [5e307] * 3


class TestExperimentCommand:
    def write_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "agent_counts": [1, 4],
                    "runs": 3,
                    "seed": 5,
                    "max_steps": 2000,
                }
            )
        )
        return str(cfg)

    def test_campaign_outputs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_dir = str(tmp_path / "out")
        rc = main(["experiment", "--config", cfg, "--out", out_dir])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["runs"] == 2 * 2 * 3
        results = open(out["results"]).read()
        assert results.startswith("model,n,run,seed,")
        assert len(results.splitlines()) == 1 + 12

    def test_campaign_rerun_identical(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "a")])
        assert rc == 0
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "b")])
        assert rc == 0
        capsys.readouterr()
        for name in ("results.csv", "aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_bad_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for config, named in (({"agent_counts": [3], "typo": 1}, "typo"), ([1, 2], "JSON object")):
            cfg.write_text(json.dumps(config))
            rc = main(
                ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("input error") and named in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field",
        [
            {"runs": 2.5},
            {"seed": 1.5},
            {"max_steps": 10.5},
            {"check_every": True},
            {"agent_counts": [2.7]},
            {"opinion_range": [0, 1e309]},
            {"limit_tol": True},
            {"limit_tol": "1e-12"},
            {"opinion_range": [False, True]},
            {"bounds_range": [0, True]},
            {"opinion_range": [0, 0.5, 1]},
            {"bounds_range": [0.1]},
            {"bounds_range": 0.3},
            {"agent_counts": 5},
            {"models": "sbc"},
            {"models": []},
            {"models": ["xyz"]},
            {"agent_counts": [3, 4, 3]},
            {"models": ["sbi", "sbi"]},
        ],
    )
    def test_malformed_config_is_input_error(self, tmp_path, capsys, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"agent_counts": [3], "runs": 2, **field}))
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and "Traceback" not in err
        assert next(iter(field)) in err
        assert not (tmp_path / "o").exists()

    def test_unknown_model_names_the_field_and_its_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"agent_counts": [3], "models": ["xyz"]}))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"input error: {cfg}: models must each be one of ['sbc', 'sbi'], got ['xyz']\n"
        assert not (tmp_path / "o").exists()

    def test_unusable_out_fails_before_the_campaign(self, tmp_path, capsys, monkeypatch):
        from opinion_lab import cli

        campaigns = []
        monkeypatch.setattr(cli, "run_campaign", campaigns.append)
        cfg = self.write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        for out in (taken, taken / "sub"):
            assert main(["experiment", "--config", cfg, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert captured.err.startswith(f"input error: --out {out}: ")
        assert campaigns == [] and taken.read_text() == "keep"

    def test_unwritable_results_is_input_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        (out / "results.csv").mkdir(parents=True)
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        # The path is named once, by the error of the failed open.
        results = str(out / "results.csv")
        assert captured.err == f"input error: --out {out}: [Errno 21] Is a directory: {results!r}\n"

    def test_overflowing_config_value_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"agent_counts": [3], "opinion_range": [0, 10**400]}))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"input error: {cfg}: int too large to convert to float\n"
        assert not (tmp_path / "o").exists()


class TestExitCodes:
    def test_missing_state_file(self, tmp_path, capsys):
        rc = main(["fvct", "--state", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "input error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text("{not json")
        rc = main(["simulate", "--state", str(path)])
        assert rc == 1

    def test_parser_is_built_once(self, three_agent_json, capsys):
        build_parser.cache_clear()
        outs = []
        for cmd in ("analyze", "analyze", "fvct"):
            assert main([cmd, "--state", three_agent_json]) == 0
            outs.append(capsys.readouterr().out)
        assert build_parser.cache_info().misses == 1
        assert outs[0] == outs[1] == (
            '{"leaders": {"open_sccs": [{"id": 2, "members": [1], "radius": 0.3333333333333333, '
            '"successors": [2], "leader_id": 2, "leader_radius": 0.3333333333333333}]}, '
            '"rates": [{"agent": 1, "scc_id": 2, "leader_id": 2, "leader_radius": 0.3333333333333333, '
            '"factor": 0.3333681735040502, "deviation": 3.4840170716865515e-05, "excluded": false}], '
            '"directions": [], "pseudo_stable": {"holds_from": 0, "fixed_set": [0, 2], "converging_set": [1]}}\n'
        )
        assert outs[2] == "[0.0, 0.49999999999999994, 1.0]\n"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_runtime_failure_exits_2(self, three_agent_json, capsys, caplog, monkeypatch):
        from opinion_lab import cli

        def fail(state):
            raise RuntimeError("no report")

        monkeypatch.setattr(cli, "stability_report", fail)
        assert main(["check", "--state", three_agent_json]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("error: no report\n")
        assert "input error" not in captured.err
        (record,) = caplog.records
        assert record.getMessage() == "runtime failure" and record.exc_info[0] is RuntimeError

    def test_unreadable_trajectory_is_input_error(self, three_agent_json, tmp_path, capsys):
        cell = tmp_path / "cell.csv"
        cell.write_text("t,x_0,x_1,x_2\n0,0.0,0.6,1.0\n1,0.0,abc,1.0\n")
        blank = tmp_path / "blank.csv"
        blank.write_text("t,x_0,x_1,x_2\n0,0.0,0.6,1.0\n\n")
        missing = tmp_path / "missing.csv"
        for path, message in (
            (cell, f"{cell}:3: could not convert string to float: 'abc'"),
            (blank, f"{blank}:3: list index out of range"),
            (missing, f"{missing}: [Errno 2] No such file or directory: '{missing}'"),
        ):
            assert main(["analyze", "--state", three_agent_json, "--trajectory", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"input error: {message}\n"

    def test_undecodable_trajectory_is_input_error(self, three_agent_json, tmp_path, capsys):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"t,x_0,x_1,x_2\n0,0.0,\xff,1.0\n")
        assert main(["analyze", "--state", three_agent_json, "--trajectory", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"input error: {path}: ") and "can't decode byte 0xff" in captured.err

    def test_trajectory_with_a_blank_first_line_is_input_error(self, three_agent_json, tmp_path, capsys):
        # The blank line parses as an empty row, which has no first cell.
        path = tmp_path / "blank.csv"
        path.write_text("\nt,x_0,x_1,x_2\n0,0.0,0.6,1.0\n")
        assert main(["analyze", "--state", three_agent_json, "--trajectory", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: {path}: missing trajectory header\n"

    def test_bad_flag_value(self, three_agent_json, capsys):
        for cmd, flag in (
            ("simulate", "--max-steps"),
            ("simulate", "--record-every"),
            ("analyze", "--max-steps"),
        ):
            rc = main([cmd, "--state", three_agent_json, flag, "0"])
            assert rc == 1
            err = capsys.readouterr().err
            assert f"argument {flag}: must be >= 1, got 0" in err
            assert "Traceback" not in err
        # analyze has no --window flag.
        assert main(["analyze", "--state", three_agent_json, "--window", "0"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --window 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--fixed-tol", "--limit-tol"])
    @pytest.mark.parametrize("value", ["nan", "-1e-12", "inf", "-inf", "x"])
    def test_bad_tolerance(self, three_agent_json, capsys, flag, value):
        rc = main(["simulate", "--state", three_agent_json, f"{flag}={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err
