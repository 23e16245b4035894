import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmsentry as ss
from swarmsentry import conic, serialize
from swarmsentry.cli import main
from swarmsentry.sdp import assemble, check_feasibility

from conftest import make_scenario

DATA = Path(__file__).parent / "data"


class TestRoundTrips:
    def test_scenario_roundtrip(self):
        scen = make_scenario("mixed", 4, seed=6, n=15)
        data = serialize.scenario_to_dict(scen)
        back = serialize.scenario_from_dict(json.loads(json.dumps(data)))
        assert back.swarm.n == scen.swarm.n
        assert np.array_equal(back.swarm.reported_positions(), scen.swarm.reported_positions())
        assert np.array_equal(back.swarm.true_positions(), scen.swarm.true_positions())
        assert back.measurements.entries == scen.measurements.entries
        assert back.plan == scen.plan
        assert back.truth() == scen.truth()

    def test_problem_roundtrip(self):
        scen = make_scenario("distributed", 2, seed=6, n=10)
        problem = assemble(range(10), scen)
        back = serialize.problem_from_dict(json.loads(json.dumps(serialize.problem_to_dict(problem))))
        assert back.node_order == problem.node_order
        assert back.constraint_pairs == problem.constraint_pairs
        assert back.epsilon == problem.epsilon
        a, b = check_feasibility(problem), check_feasibility(back)
        assert (a.status, a.phase1_slack) == (b.status, b.phase1_slack)

    def test_problem_dump_structure(self):
        scen = make_scenario("distributed", 1, seed=2, n=6)
        problem = assemble(range(6), scen)
        dump = serialize.problem_dump(problem)
        p = len(problem.constraint_pairs)
        assert dump["dimension"] == 9
        assert len(dump["functionals"]) == p + 6
        kinds = [c[0] for c in dump["constraints"]]
        assert kinds.count("range_upper") == p
        assert kinds.count("window_upper") == p
        assert kinds.count("window_lower") == p
        assert kinds.count("self_upper") == 6
        assert kinds.count("identity_block") == 1
        mat = np.array(dump["functionals"][0]["matrix_row_major"]).reshape(9, 9)
        assert np.allclose(mat, mat.T)

    def test_dump_trace_identity(self):
        # The dumped dense matrices evaluate claims exactly like the solver.
        scen = make_scenario("distributed", 1, seed=3, n=5)
        problem = assemble(range(5), scen)
        dump = serialize.problem_dump(problem)
        X = np.array([problem.reported_positions[uid] for uid in problem.node_order])
        Z = conic.complete_lift(X)
        local = {uid: k for k, uid in enumerate(problem.node_order)}
        for fn in dump["functionals"]:
            mat = np.array(fn["matrix_row_major"]).reshape(8, 8)
            i, j = fn["i"], fn["j"]
            expected = float(np.sum((X[local[i]] - problem.reported_positions[j]) ** 2))
            assert float(np.sum(mat * Z)) == pytest.approx(expected, abs=1e-12)


def run_cli(*args):
    return main(list(args))


class TestDumps:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_floats(self, bad):
        with pytest.raises(ss.InvalidParameterError):
            serialize.dumps({"phase1_slack": bad})

    def test_finite_floats_round_trip(self):
        data = {"a": 0.1, "b": [1e-300, -2.5]}
        assert json.loads(serialize.dumps(data)) == data


def set_in(data, path, value):
    """``data`` with the item at ``path`` (a tuple of keys and indices) set to ``value``."""
    *parents, last = path
    for key in parents:
        data = data[key]
    data[last] = value


class TestDecoderTypes:
    """The scenario decoders take JSON values as parsed: a flag must be a
    JSON boolean, a count or seed a JSON integer and a distance, position
    or length a JSON number.  ``bool``, ``int`` or ``float`` would read a
    string, a bool or a fraction as some other value without a word."""

    @pytest.mark.parametrize("path, value", [
        (("swarm", "uavs", 4, "malicious"), "false"),
        (("swarm", "uavs", 4, "malicious"), 0),
        (("swarm", "uavs", 4, "malicious"), None),
        (("measurements", "n"), 6.7),
        (("measurements", "n"), 30.0),
        (("measurements", "n"), True),
        (("swarm", "rng_seed"), 1.5),
        (("swarm", "rng_seed"), "3"),
        (("swarm", "comm_range"), "0.3"),
        (("swarm", "comm_range"), True),
        (("swarm", "cube_half_width"), "0.5"),
        (("measurements", "entries", 7, 2), "0.1"),
        (("measurements", "entries", 7, 2), True),
        (("measurements", "entries", 7, 2), None),
        (("swarm", "uavs", 2, "true_pos", 1), "0.1"),
        (("swarm", "uavs", 2, "reported_pos", 0), "0.1"),
        (("swarm", "uavs", 2, "reported_pos", 2), False),
        (("plan", "seed"), 3.5),
        (("plan", "fake_offset_min"), "0.3"),
        # The swarm's n, when present, is a JSON integer equal to its UAV count.
        (("swarm", "n"), 99),
        (("swarm", "n"), "30"),
        (("swarm", "n"), 30.0),
        (("swarm", "n"), True),
    ])
    def test_mistyped_value_refused(self, path, value):
        data = serialize.load_path(str(DATA / "scenario_n30_distributed.json"))
        set_in(data, path, value)
        with pytest.raises(ss.InvalidParameterError, match=f"got {value!r}"):
            serialize.scenario_from_dict(data)

    def test_string_flag_not_read_as_malicious(self, tmp_path):
        # Without a plan, "false" used to flag a UAV malicious and put it in truth().
        data = serialize.load_path(str(DATA / "scenario_n30_distributed.json"))
        data["plan"] = None
        honest = next(u for u in data["swarm"]["uavs"] if not u["malicious"])
        honest["malicious"] = "false"
        with pytest.raises(ss.InvalidParameterError, match="malicious must be a JSON boolean"):
            serialize.scenario_from_dict(data)
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(data))
        assert run_cli("detect", str(scen_path)) == 2

    def test_json_values_still_read(self):
        # An absent flag is honest, and a JSON integer distance or length reads as a float.
        data = serialize.load_path(str(DATA / "scenario_n30_distributed.json"))
        data["plan"] = None
        del data["swarm"]["uavs"][0]["malicious"]
        data["swarm"]["comm_range"] = 1
        i, j, _ = data["measurements"]["entries"][0]
        data["measurements"]["entries"][0][2] = 2
        scenario = serialize.scenario_from_dict(data)
        assert scenario.swarm.uavs[0].ground_truth_malicious is False
        assert scenario.swarm.comm_range == 1.0 and type(scenario.swarm.comm_range) is float
        assert scenario.measurements.get(i, j) == 2.0 and type(scenario.measurements.get(i, j)) is float


class TestProblemDecoderTypes:
    """The problem decoder holds a problem file's numbers to the scenario
    decoders' rule: ``float`` would read "0.3" and true as numbers, and
    ``oracle-check`` would decide a problem the file does not state."""

    @pytest.mark.parametrize("path, value", [
        (("comm_range",), "0.3"),
        (("comm_range",), True),
        (("epsilon",), True),
        (("epsilon",), "1e-5"),
        (("strictness_margin",), None),
        (("window_sq",), "0.0225"),
        (("constraint_pairs", 0, 2), "0.1"),
        (("constraint_pairs", 0, 2), False),
        (("reported_positions", "1", 2), "0.1"),
        (("reported_positions", "1", 0), True),
        (("reported_positions", "1", 1), None),
    ])
    def test_mistyped_value_refused(self, path, value):
        data = serialize.load_path(str(DATA / "problem_n30_distributed.json"))
        set_in(data, path, value)
        with pytest.raises(ss.InvalidParameterError, match=f"got {value!r}"):
            serialize.problem_from_dict(data)

    def test_oracle_check_refuses_string_range(self, tmp_path, capsys):
        data = serialize.load_path(str(DATA / "problem_n30_distributed.json"))
        data["comm_range"] = "0.3"
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps(data))
        assert run_cli("oracle-check", str(prob_path)) == 2
        assert "must be JSON numbers" in capsys.readouterr().err

    def test_json_numbers_still_read(self):
        # A JSON integer setting, distance or coordinate reads as a float.
        data = serialize.load_path(str(DATA / "problem_n30_distributed.json"))
        data["comm_range"], data["epsilon"] = 1, 0
        data["constraint_pairs"][0][2] = 2
        data["reported_positions"]["1"][0] = 0
        problem = serialize.problem_from_dict(data)
        assert type(problem.comm_range) is float and problem.comm_range == 1.0
        assert type(problem.epsilon) is float and problem.epsilon == 0.0
        assert type(problem.constraint_pairs[0][2]) is float and problem.constraint_pairs[0][2] == 2.0
        assert problem.reported_positions[1].dtype == float and problem.reported_positions[1][0] == 0.0


class TestCli:
    def test_pipeline(self, tmp_path):
        swarm_path = tmp_path / "swarm.json"
        scen_path = tmp_path / "scen.json"
        det_path = tmp_path / "det.json"
        assert run_cli("generate", "--n", "15", "--seed", "3", "--out", str(swarm_path)) == 0
        assert run_cli("attack", str(swarm_path), "--kind", "collusion",
                       "--malicious-count", "2", "--seed", "3", "--out", str(scen_path)) == 0
        assert run_cli("detect", str(scen_path), "--algo", "ecdi", "--out", str(det_path)) == 0
        result = json.loads(det_path.read_text())
        assert "predicted_malicious" in result and "initial" in result
        assert result["algorithm"] == "ecdi"

    def test_detect_baseline_requires_count(self, tmp_path, capsys):
        swarm_path = tmp_path / "swarm.json"
        scen_path = tmp_path / "scen.json"
        run_cli("generate", "--n", "12", "--seed", "1", "--out", str(swarm_path))
        run_cli("attack", str(swarm_path), "--seed", "1", "--out", str(scen_path))
        assert run_cli("detect", str(scen_path), "--algo", "nlos") == 2

    @pytest.mark.parametrize("algo", ["nlos", "random"])
    def test_detect_baseline_refuses_negative_count(self, tmp_path, capsys, algo):
        scen_path = str(DATA / "scenario_n30_distributed.json")
        assert run_cli("detect", scen_path, "--algo", algo, "--malicious-count", "-2") == 2
        assert "attacker count must be a nonnegative integer" in capsys.readouterr().err
        out_path = tmp_path / "detection.json"
        assert run_cli("detect", scen_path, "--algo", algo, "--malicious-count", "0", "--out", str(out_path)) == 0
        assert json.loads(out_path.read_text())["predicted_malicious"] == []

    def test_oracle_check_with_dump(self, tmp_path):
        scen = make_scenario("distributed", 2, seed=4, n=8)
        problem = assemble(range(8), scen)
        prob_path = tmp_path / "problem.json"
        out_path = tmp_path / "oracle.json"
        dump_path = tmp_path / "dump.json"
        serialize.dump_path(str(prob_path), serialize.problem_to_dict(problem))
        assert run_cli("oracle-check", str(prob_path), "--out", str(out_path),
                       "--dump", str(dump_path)) == 0
        verdict = json.loads(out_path.read_text())
        assert verdict["status"] in ("feasible", "infeasible", "unknown")
        assert json.loads(dump_path.read_text())["dimension"] == 11

    @pytest.mark.parametrize("spoil", [
        lambda d: d.update(epsilon=float("nan")),
        lambda d: d.update(window_sq=float("inf")),
        lambda d: d["reported_positions"]["0"].__setitem__(1, float("nan")),
        lambda d: d["constraint_pairs"][0].__setitem__(2, float("nan")),
    ])
    def test_oracle_check_rejects_non_finite(self, tmp_path, spoil):
        data = serialize.problem_to_dict(assemble(range(6), make_scenario("distributed", 1, seed=2, n=6)))
        spoil(data)
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps(data))  # writes NaN / Infinity literals
        assert run_cli("oracle-check", str(prob_path)) == 2

    @pytest.mark.parametrize("setting,value,message", [
        ("epsilon", -1.0, "need epsilon >= 0"),
        ("epsilon", float("nan"), "must be finite"),
        ("strictness_margin", 0.0, "margin > 0"),
        ("window_sq", float("inf"), "must be finite"),
    ], ids=["epsilon-negative", "epsilon-nan", "margin-zero", "window-inf"])
    def test_oracle_check_rejects_bad_settings(self, tmp_path, capsys, setting, value, message):
        # A problem file carries its own budget, margin and window; the
        # oracle never runs on a bad one.
        data = serialize.problem_to_dict(assemble(range(6), make_scenario("distributed", 1, seed=2, n=6)))
        data[setting] = value
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps(data))
        assert run_cli("oracle-check", str(prob_path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spoil", [
        lambda d: d.pop("swarm"),
        lambda d: d["measurements"].pop("n"),
        lambda d: d["swarm"].update(uavs="none"),
        lambda d: d["measurements"].update(entries=[[0, 1]]),
        lambda d: d["measurements"]["entries"][0].__setitem__(0, 0.5),
        lambda d: d["swarm"]["uavs"][1].update(id="1"),
    ])
    def test_detect_rejects_malformed_scenario(self, tmp_path, spoil):
        data = serialize.scenario_to_dict(make_scenario("distributed", 1, seed=2, n=6))
        spoil(data)
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(data))
        assert run_cli("detect", str(scen_path)) == 2

    @pytest.mark.parametrize("spoil", [
        lambda d: d["node_order"].__setitem__(0, 0.5),
        lambda d: d["node_order"].__setitem__(1, 1.0),
        lambda d: d["node_order"].__setitem__(1, True),
        lambda d: d["constraint_pairs"][0].__setitem__(0, 1.0),
        lambda d: d["constraint_pairs"][0].__setitem__(1, "2"),
    ])
    def test_oracle_check_rejects_non_integer_ids(self, tmp_path, spoil):
        # ``int()`` would turn 0.5 into 0 and decide another sub-network.
        data = serialize.load_path(str(DATA / "problem_n30_distributed.json"))
        spoil(data)
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps(data))
        assert run_cli("oracle-check", str(prob_path)) == 2

    @pytest.mark.parametrize("old,new", [("1", "0_1"), ("3", " 3"), ("3", "3 "), ("2", "02"), ("0", "-0"),
                                         ("4", "+4"), ("5", "five")])
    def test_oracle_check_rejects_non_canonical_position_keys(self, tmp_path, old, new):
        # ``int()`` alone reads "0_1" as 1 and " 3" as 3, so a renamed key
        # would still name a UAV of the sub-network.
        data = serialize.load_path(str(DATA / "problem_n30_distributed.json"))
        positions = data["reported_positions"]
        positions[new] = positions.pop(old)
        with pytest.raises(ss.InvalidParameterError):
            serialize.problem_from_dict(data)
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps(data))
        assert run_cli("oracle-check", str(prob_path)) == 2

    @pytest.mark.parametrize("repeat", [[0], [5], [2, 2]])
    def test_oracle_check_rejects_repeated_node_ids(self, tmp_path, capsys, repeat):
        # A repeated id would give one UAV two columns of the lifted matrix
        # (and two self rows in the dump).
        data = serialize.load_path(str(DATA / "problem_n30_distributed.json"))
        data["node_order"] += repeat
        with pytest.raises(ss.InvalidParameterError, match="distinct"):
            serialize.problem_from_dict(data)
        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps(data))
        assert run_cli("oracle-check", str(prob_path), "--dump", str(tmp_path / "dump.json")) == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "dump.json").exists()

    @pytest.mark.parametrize("kind,spoil", [
        ("collusion", lambda p: p.update(malicious_ids=[str(i) for i in p["malicious_ids"]])),
        ("collusion", lambda p: p.update(malicious_ids=[float(i) for i in p["malicious_ids"]])),
        ("collusion", lambda p: p.update(target=str(p["target"]))),
        ("mixed", lambda p: p.update(collusion_ids=[str(i) for i in p["collusion_ids"]])),
        ("distributed", lambda p: p.update(malicious_ids=p["malicious_ids"][1:])),
        ("distributed", lambda p: p.update(malicious_ids=p["malicious_ids"] + [1])),
    ])
    def test_detect_rejects_plan_that_misses_the_swarm(self, tmp_path, kind, spoil):
        # The plan's ids must be integers and name exactly the UAVs the
        # swarm flags malicious, which ``scenario.truth()`` reads.
        data = serialize.load_path(str(DATA / f"scenario_n30_{kind}.json"))
        spoil(data["plan"])
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(data))
        assert run_cli("detect", str(scen_path)) == 2

    @pytest.mark.parametrize("at", [1, -1])
    def test_detect_rejects_repeated_measurement_pair(self, tmp_path, capsys, at):
        # A repeated pair used to decode silently, keeping only its last claim.
        data = serialize.load_path(str(DATA / "scenario_n30_mixed.json"))
        entries = data["measurements"]["entries"]
        i, j, r = entries[0]
        entries.insert(len(entries) if at < 0 else at, [i, j, r * 1.25])
        with pytest.raises(ss.InvalidParameterError, match=rf"^repeated measurement pair \({i}, {j}\)$"):
            serialize.scenario_from_dict(data)
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(data))
        assert run_cli("detect", str(scen_path)) == 2
        assert f"repeated measurement pair ({i}, {j})" in capsys.readouterr().err

    def test_repeated_pair_named_in_entry_order(self):
        with pytest.raises(ss.InvalidParameterError, match=r"^repeated measurement pair \(2, 0\)$"):
            ss.MeasurementSet.from_arrays(3, [2, 0, 1, 2, 0], [0, 1, 2, 0, 1], [0.1, 0.2, 0.3, 0.4, 0.5])
        with pytest.raises(ss.InvalidParameterError, match=r"^bad measurement pair \(1, 1\)$"):
            ss.MeasurementSet.from_arrays(3, [2, 1, 2], [0, 1, 0], [0.1, 0.2, 0.3])

    def test_attack_rejects_measurements_of_another_swarm(self, tmp_path):
        small, large = tmp_path / "n10.json", tmp_path / "n12.json"
        assert run_cli("generate", "--n", "10", "--seed", "1", "--out", str(small)) == 0
        assert run_cli("generate", "--n", "12", "--seed", "1", "--out", str(large)) == 0
        data = json.loads(small.read_text())
        data["measurements"] = json.loads(large.read_text())["measurements"]
        small.write_text(json.dumps(data))
        assert run_cli("attack", str(small), "--out", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spoil", [
        {"comm_range": float("nan")},
        {"cube_half_width": float("inf")},
        {"pos_var": -1e-6},
        {"dist_var": float("nan")},
        {"fake_offset_min": -0.1},
        {"n_uavs": 2.5},
        {"trials_per_point": 2.5},
        {"sweep_values": [2.5]},
        {"base_seed": -1},
        # A flag must be a JSON boolean, and a count or scalar never one.
        {"paper_replication": "false"},
        {"timing": "no"},
        {"trials_per_point": True},
        {"comm_range": True},
    ])
    def test_sweep_rejects_bad_config_scalars(self, tmp_path, spoil):
        config = {"sweep_param": "malicious_count", "sweep_values": [1], "n_uavs": 12,
                  "trials_per_point": 1, "algorithms": ["random"], **spoil}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))  # writes NaN / Infinity literals
        assert run_cli("sweep", "--config", str(config_path)) == 2

    @pytest.mark.parametrize("command", [
        ("generate", "--cube-half-width", "nan"),
        ("generate", "--cube-half-width", "inf"),
        ("attack", "{swarm}", "--dist-var", "nan"),
        ("attack", "{swarm}", "--dist-var=-1e-6"),
        ("attack", "{swarm}", "--fake-offset-min", "nan"),
        ("sweep", "--preset", "attacker_count", "--trials", "1", "--seed", "-1"),
    ])
    def test_rejects_bad_scalar_flags(self, tmp_path, command):
        swarm_path = tmp_path / "swarm.json"
        assert run_cli("generate", "--n", "8", "--seed", "1", "--out", str(swarm_path)) == 0
        args = [a.format(swarm=swarm_path) for a in command]
        assert run_cli(*args, "--out", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()

    def test_sweep_with_config(self, tmp_path):
        config = {
            "sweep_param": "malicious_count",
            "sweep_values": [1, 2],
            "attack": "distributed",
            "n_uavs": 12,
            "trials_per_point": 1,
            "base_seed": 2,
            "algorithms": ["nlos", "random"],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_path = tmp_path / "sweep.csv"
        plot_path = tmp_path / "sweep.dat"
        assert run_cli("sweep", "--config", str(config_path), "--out", str(out_path),
                       "--plot-data", str(plot_path)) == 0
        assert out_path.read_text().startswith("sweep_param,value,algorithm")
        assert "# algorithm: nlos" in plot_path.read_text()

    def test_missing_input_is_io_error(self, tmp_path):
        assert run_cli("attack", str(tmp_path / "nope.json")) == 3

    def test_byte_determinism(self, tmp_path):
        # Criterion-7 shape at unit scale: identical invocations, identical bytes.
        outs = []
        for tag in ("a", "b"):
            swarm_path = tmp_path / f"swarm_{tag}.json"
            scen_path = tmp_path / f"scen_{tag}.json"
            det_path = tmp_path / f"det_{tag}.json"
            csv_path = tmp_path / f"sweep_{tag}.csv"
            run_cli("generate", "--n", "14", "--seed", "9", "--out", str(swarm_path))
            run_cli("attack", str(swarm_path), "--kind", "mixed", "--malicious-count", "3",
                    "--seed", "9", "--out", str(scen_path))
            run_cli("detect", str(scen_path), "--algo", "cdi", "--out", str(det_path))
            config = tmp_path / f"cfg_{tag}.json"
            config.write_text(json.dumps({
                "sweep_param": "malicious_count", "sweep_values": [2],
                "n_uavs": 12, "trials_per_point": 2, "base_seed": 4,
                "algorithms": ["random"],
            }))
            run_cli("sweep", "--config", str(config), "--out", str(csv_path))
            outs.append(tuple(p.read_bytes() for p in (swarm_path, scen_path, det_path, csv_path)))
        assert outs[0] == outs[1]

    def test_console_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swarmsentry", "generate", "--n", "5", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["swarm"]["n"] == 5
