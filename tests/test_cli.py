"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import os
from pathlib import Path
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

import uavsched
from uavsched.cli import main
from uavsched import errors, experiment, netgen, ordering
from uavsched.experiment import CSV_COLUMNS, MAX_ITERATIONS, ExperimentConfig, read_csv
from uavsched.model import DEFAULT_TIMINGS, Schedule, compute_energy, instance_from_parts, instance_to_json, timings_to_json
from uavsched.netgen import MAX_FLOWS, MAX_UAVS, HoverParams, NetworkParams, RadioParams
from uavsched.sched import METHODS, exact_schedule_dp

from helpers import dyadic_time, no_free_flows, reference_instance


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


@pytest.fixture
def reference_file(tmp_path):
    return write_json(tmp_path / "reference.json", instance_to_json(reference_instance()))


class TestGenNetwork:
    def test_defaults_give_forty_uavs(self, tmp_path):
        out = tmp_path / "net.json"
        assert main(["gen-network", "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["uavs"]) == 40
        assert doc["params"]["num_uavs"] == 40

    def test_single_uav_params_rejected(self, tmp_path):
        params = write_json(tmp_path / "p.json", {"num_uavs": 1})
        out = tmp_path / "net.json"
        assert main(["gen-network", "--params", params, "--seed", "1", "--out", str(out)]) == 2

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen-network", "--seed", "5", "--out", str(a)]) == 0
        assert main(["gen-network", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_params_file(self, tmp_path):
        out = tmp_path / "net.json"
        assert main(["gen-network", "--params", str(tmp_path / "nope.json"), "--seed", "1", "--out", str(out)]) == 3


def gen_toy_files(tmp_path, num_uavs=8, area=120.0, seed=3, flows=4, retired=3):
    params = write_json(tmp_path / "params.json", {"num_uavs": num_uavs, "area_side": area})
    net = tmp_path / "net.json"
    assert main(["gen-network", "--params", params, "--seed", str(seed), "--out", str(net)]) == 0
    inst = tmp_path / "inst.json"
    scen = tmp_path / "scen.json"
    code = main(
        [
            "gen-instance",
            "--network", str(net),
            "--flows", str(flows),
            "--retired", str(retired),
            "--seed", str(seed),
            "--out", str(inst),
            "--scenario-out", str(scen),
        ]
    )
    assert code == 0
    return net, inst, scen


class TestGenInstance:
    def test_sampling_produces_a_valid_instance(self, tmp_path):
        _, inst, scen = gen_toy_files(tmp_path)
        doc = json.loads(inst.read_text())
        assert set(doc) == {"timings", "flows", "uavs"}
        scenario = json.loads(scen.read_text())
        assert len(scenario["retired"]) == 3
        assert len(scenario["flows"]) == 4

    def test_deterministic(self, tmp_path):
        first = tmp_path / "x"
        second = tmp_path / "y"
        first.mkdir()
        second.mkdir()
        _, a, _ = gen_toy_files(first)
        _, b, _ = gen_toy_files(second)
        assert a.read_bytes() == b.read_bytes()

    def test_converts_a_scenario_file_without_sampling_flags(self, tmp_path):
        _, inst, scen = gen_toy_files(tmp_path)
        converted = tmp_path / "converted.json"
        assert main(["gen-instance", "--network", str(scen), "--out", str(converted)]) == 0
        assert json.loads(converted.read_text()) == json.loads(inst.read_text())

    def test_plain_network_needs_sampling_flags(self, tmp_path):
        net, _, _ = gen_toy_files(tmp_path)
        assert main(["gen-instance", "--network", str(net), "--out", str(tmp_path / "o.json")]) == 2

    def test_scenario_file_rejects_sampling_flags(self, tmp_path):
        _, _, scen = gen_toy_files(tmp_path)
        code = main(
            ["gen-instance", "--network", str(scen), "--flows", "4", "--retired", "2",
             "--seed", "1", "--out", str(tmp_path / "o.json")]
        )
        assert code == 2

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"params": [,]}')
        assert main(["gen-instance", "--network", str(bad), "--out", str(tmp_path / "o.json")]) == 2
        message = capsys.readouterr().err
        assert "line 1" in message and "column" in message

    def test_a_handover_time_past_the_largest_float_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # 1e308 ms per deleted and per inserted rule: a flow's t_ms overflows
        # to inf, which the JSON writer refuses
        net = tmp_path / "net.json"
        assert main(["gen-network", "--seed", "1", "--out", str(net)]) == 0
        assert len(json.loads(net.read_text())["uavs"]) == 40
        out = tmp_path / "inst.json"
        sample = ["--flows", "20", "--retired", "5", "--seed", "1", "--tau-del-ms", "1e308", "--tau-ins-ms", "1e308"]
        capsys.readouterr()
        assert main(["gen-instance", "--network", str(net), *sample, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: not writing {out}: Out of range float values")
        assert [p.name for p in tmp_path.iterdir()] == ["net.json"]


class TestSchedule:
    def test_exact_on_reference_instance(self, tmp_path, reference_file):
        out = tmp_path / "res.json"
        assert main(["schedule", "--instance", reference_file, "--method", "exact", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["energy_j"] == pytest.approx(46.0, rel=1e-9)
        assert doc["method"] == "exact_dp"
        assert doc["schedule"] == [3, 0, 2, 1]
        assert doc["wall_time_s"] >= 0.0

    def test_exact_on_more_flows_than_uavs_uses_the_uav_side(self, tmp_path):
        # six flows over three UAVs: the UAV-subset DP answers, at the optimum
        inst = instance_from_parts(
            (0.03125, 0.0146484375, 0.02734375, 0.0400390625, 0.009765625, 0.05859375),
            ({0}, {1, 2}, {0, 2}, {1}, {2}, {0, 1}),
            (120.0, 45.0, 300.0),
        )
        path = write_json(tmp_path / "inst.json", instance_to_json(inst))
        out = tmp_path / "res.json"
        assert main(["schedule", "--instance", path, "--method", "exact", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "exact_uav"
        assert doc["energy_j"] == exact_schedule_dp(inst).energy

    def test_exact_past_the_flow_cap_solves_on_the_uav_side(self, tmp_path):
        rng = random.Random(7)
        doc = {
            "flows": [{"id": i, "t_ms": dyadic_time(rng) * 1000.0, "delta": sorted(rng.sample(range(6), 2))}
                      for i in range(30)],
            "uavs": [{"id": j, "p_watts": float(rng.randint(20, 310))} for j in range(6)],
        }
        inst = write_json(tmp_path / "big.json", doc)
        out = tmp_path / "res.json"
        assert main(["schedule", "--instance", inst, "--method", "exact", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["method"] == "exact_uav"
        assert sorted(result["schedule"]) == list(range(30))

    def test_heuristic_on_reference_instance(self, tmp_path, reference_file):
        out = tmp_path / "res.json"
        assert main(["schedule", "--instance", reference_file, "--method", "heuristic", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["energy_j"] == pytest.approx(47.0, rel=1e-9)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_table_method_schedules_the_worked_example(self, tmp_path, reference_file, method):
        out = tmp_path / "res.json"
        seed = ["--seed", "3"] if METHODS[method].seeded else []
        assert main(["schedule", "--instance", reference_file, "--method", method, *seed, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["schedule"]) == [0, 1, 2, 3]
        assert doc["energy_j"] == compute_energy(reference_instance(), Schedule(tuple(doc["schedule"]))).total_energy
        assert doc["energy_j"] >= 46.0 - 1e-9  # the optimum

    def test_random_requires_seed(self, tmp_path, reference_file):
        out = tmp_path / "res.json"
        assert main(["schedule", "--instance", reference_file, "--method", "random", "--out", str(out)]) == 2
        assert main(["schedule", "--instance", reference_file, "--method", "random", "--seed", "3", "--out", str(out)]) == 0

    def test_bruteforce_cap_gives_exit_4(self, tmp_path):
        doc = {
            "flows": [{"id": i, "t_ms": 10, "delta": [0]} for i in range(9)],
            "uavs": [{"id": 0, "p_watts": 10.0}],
        }
        inst = write_json(tmp_path / "big.json", doc)
        assert main(["schedule", "--instance", inst, "--method", "bruteforce", "--out", str(tmp_path / "o.json")]) == 4

    def test_an_exact_dp_walk_back_fault_is_not_reported_as_bad_input(self, tmp_path, reference_file, monkeypatch):
        # an internal fault, which must not end as exit 2 ("bad input")
        monkeypatch.setattr(uavsched.sched, "_blocks", no_free_flows)
        with pytest.raises(RuntimeError, match="walk-back"):
            main(["schedule", "--instance", reference_file, "--method", "exact_dp", "--out", str(tmp_path / "o.json")])

    def test_exact_past_both_caps_drops_the_uavs_no_flow_crosses(self, tmp_path):
        # 23 flows over 26 retiring UAVs, 10 of them crossed
        net, inst, out = (str(tmp_path / name) for name in ("net.json", "inst.json", "opt.json"))
        params = write_json(tmp_path / "params.json", {"num_uavs": 60, "area_side": 180.0})
        assert main(["gen-network", "--params", params, "--seed", "3", "--out", net]) == 0
        sample = ["--flows", "30", "--retired", "26", "--seed", "3"]
        assert main(["gen-instance", "--network", net, *sample, "--out", inst]) == 0
        assert main(["schedule", "--instance", inst, "--method", "exact", "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert (doc["method"], doc["energy_j"]) == ("exact_uav", 432.10086484975943)

    def test_malformed_instance_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"flows": [}')
        assert main(["schedule", "--instance", str(bad), "--method", "heuristic", "--out", str(tmp_path / "o.json")]) == 2
        assert re.search(r"line \d+, column \d+", capsys.readouterr().err)

    def test_missing_instance_file(self, tmp_path):
        assert main(["schedule", "--instance", str(tmp_path / "nope.json"), "--method", "heuristic", "--out", str(tmp_path / "o.json")]) == 3


class TestMalformedFields:
    """Missing or mistyped fields end in exit 2 with a message, not a traceback."""

    def test_schedule_rule_counts_without_r_ins(self, tmp_path, capsys):
        doc = {
            "flows": [{"id": 0, "rule_counts": {"r_del": 1, "r_mod": 1}, "delta": [0]}],
            "uavs": [{"id": 0, "p_watts": 10.0}],
        }
        inst = write_json(tmp_path / "inst.json", doc)
        assert main(["schedule", "--instance", inst, "--method", "heuristic", "--out", str(tmp_path / "o.json")]) == 2
        assert "r_ins" in capsys.readouterr().err

    def test_gen_instance_uav_without_y(self, tmp_path, capsys):
        net, _, _ = gen_toy_files(tmp_path)
        doc = json.loads(net.read_text())
        del doc["uavs"][2]["y"]
        bad = write_json(tmp_path / "bad.json", doc)
        code = main(
            ["gen-instance", "--network", bad, "--flows", "2", "--retired", "1", "--seed", "1", "--out", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "'y'" in capsys.readouterr().err

    def test_schedule_flow_with_null_t_ms(self, tmp_path, capsys):
        doc = {"flows": [{"id": 0, "t_ms": None, "delta": [0]}], "uavs": [{"id": 0, "p_watts": 10.0}]}
        inst = write_json(tmp_path / "inst.json", doc)
        assert main(["schedule", "--instance", inst, "--method", "heuristic", "--out", str(tmp_path / "o.json")]) == 2
        assert "flow #0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [{"timings": None}, {"n_flows_list": None}, {"methods": 5}, {"iterations": None}, {"svg_energy_path": 5}],
        ids=["timings-null", "n_flows_list-null", "methods-int", "iterations-null", "svg-path-int"],
    )
    def test_experiment_config_with_mistyped_value(self, tmp_path, capsys, config):
        cfg = write_json(tmp_path / "cfg.json", config)
        csv_path = tmp_path / "out.csv"
        assert main(["experiment", "--config", cfg, "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "field",
        [
            {"resample_retired_per_iteration": "false"},
            {"m_list": [2.7]},
            {"n_flows_list": [True]},
            {"iterations": 3.9},
        ],
        ids=["bool-from-string", "m-fraction", "n_flows-bool", "iterations-fraction"],
    )
    def test_experiment_config_value_is_not_coerced(self, tmp_path, capsys, field):
        # a lenient reader would run these as True, (2,), (1,) and 3
        config = {"network": {"num_uavs": 20, "area_side": 140.0}, "n_flows_list": [8], "m_list": [3],
                  "iterations": 2, **field}
        cfg = write_json(tmp_path / "cfg.json", config)
        csv_path = tmp_path / "out.csv"
        assert main(["experiment", "--config", cfg, "--csv", str(csv_path)]) == 2
        assert next(iter(field)) in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "flow,uav,timings",
        [
            ({"id": 0, "t_ms": True, "delta": [0]}, {"id": 0, "p_watts": 10.0}, {}),
            ({"id": 0, "t_ms": 10, "delta": [0]}, {"id": 0, "p_watts": True}, {}),
            ({"id": 0, "t_ms": 10, "delta": [0]}, {"id": 0, "p_watts": 10.0}, {"tau_del_ms": True}),
        ],
        ids=["t_ms-bool", "p_watts-bool", "tau_del_ms-bool"],
    )
    def test_schedule_bool_is_not_a_number(self, tmp_path, capsys, flow, uav, timings):
        doc = {"timings": timings, "flows": [flow], "uavs": [uav]}
        inst = write_json(tmp_path / "inst.json", doc)
        assert main(["schedule", "--instance", inst, "--method", "heuristic", "--out", str(tmp_path / "o.json")]) == 2
        assert "expected float, got True" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params", [{"num_uavs": 12.7}, {"area_side": True}, {"hover": {"num_props": "4"}}],
        ids=["num_uavs-fraction", "area_side-bool", "num_props-string"],
    )
    def test_gen_network_params_are_not_coerced(self, tmp_path, capsys, params):
        # a lenient reader would run these as 12 UAVs, a 1 m area and 4 propellers
        path = write_json(tmp_path / "p.json", params)
        out = tmp_path / "net.json"
        assert main(["gen-network", "--params", path, "--seed", "1", "--out", str(out)]) == 2
        assert "network params" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "params",
        [{"area_side": float("inf")}, {"mass_choices": [float("nan")]}, {"common_altitude": float("inf")}],
        ids=["area_side-infinity", "mass_choices-nan", "common_altitude-infinity"],
    )
    def test_gen_network_params_must_be_finite(self, tmp_path, capsys, params):
        # Python's JSON reader accepts Infinity and NaN; they used to end in a
        # traceback, a network file full of NaN tokens, and a silent success
        path = write_json(tmp_path / "p.json", params)
        out = tmp_path / "net.json"
        assert main(["gen-network", "--params", path, "--seed", "1", "--out", str(out)]) == 2
        assert f"{next(iter(params))}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "params,where",
        [({"num_uav": 5}, "network params"), ({"hover": {"bogus": 1}}, "network params hover")],
        ids=["top-level", "hover"],
    )
    def test_gen_network_unknown_params_key_rejected(self, tmp_path, capsys, params, where):
        path = write_json(tmp_path / "p.json", params)
        out = tmp_path / "net.json"
        assert main(["gen-network", "--params", path, "--seed", "1", "--out", str(out)]) == 2
        assert f"{where}: unknown fields" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_config_unknown_network_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"network": {"num_uavs": 20, "area_sides": 140.0}})
        csv_path = tmp_path / "out.csv"
        assert main(["experiment", "--config", cfg, "--csv", str(csv_path)]) == 2
        assert "unknown fields ['area_sides']" in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize("key,value", [("id", 2.5), ("x", True), ("mass_kg", "1.0")])
    def test_gen_instance_network_uav_is_not_coerced(self, tmp_path, capsys, key, value):
        net, _, _ = gen_toy_files(tmp_path)
        doc = json.loads(net.read_text())
        doc["uavs"][2][key] = value
        bad = write_json(tmp_path / "bad.json", doc)
        out = tmp_path / "o.json"
        code = main(["gen-instance", "--network", bad, "--flows", "2", "--retired", "1", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert f"uav #2 {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "route,code", [([0, 1, 2], 0), ([0, 1, 999], 2), ([0, 2], 2)], ids=["path", "unknown-uav", "no-link"]
    )
    def test_gen_instance_scenario_route_must_be_a_network_path(self, tmp_path, capsys, route, code):
        # three UAVs on a line 30 m apart: 0-1 and 1-2 are linked, 0-2 (60 m) is not
        doc = {
            "params": {"num_uavs": 3, "area_side": 90.0},
            "uavs": [{"id": u, "x": 30.0 * u, "y": 0.0, "mass_kg": 1.0} for u in range(3)],
            "retired": [1],
            "flows": [{"id": 0, "route": route}],
        }
        scen = write_json(tmp_path / "scen.json", doc)
        assert main(["gen-instance", "--network", scen, "--out", str(tmp_path / "o.json")]) == code
        if code:
            assert "flow #0" in capsys.readouterr().err

    def test_gen_instance_two_uavs_at_one_point(self, tmp_path, capsys):
        # the link graph needs a positive distance between every pair of UAVs
        doc = {
            "params": {"num_uavs": 3},
            "uavs": [{"id": u, "x": 30.0 * min(u, 1), "y": 0.0, "mass_kg": 1.0} for u in range(3)],
        }
        net = write_json(tmp_path / "net.json", doc)
        out = tmp_path / "o.json"
        code = main(["gen-instance", "--network", net, "--flows", "1", "--retired", "1", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "distance must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_t_ms_contradicting_rule_counts(self, tmp_path, capsys):
        doc = {
            "flows": [{"id": 0, "t_ms": 25, "rule_counts": {"r_del": 1, "r_ins": 1, "r_mod": 1}, "delta": [0]}],
            "uavs": [{"id": 0, "p_watts": 10.0}],
        }
        inst = write_json(tmp_path / "inst.json", doc)
        assert main(["schedule", "--instance", inst, "--method", "heuristic", "--out", str(tmp_path / "o.json")]) == 2
        assert "does not match its rule counts" in capsys.readouterr().err

    def test_schedule_rule_count_too_large_for_a_float(self, tmp_path, capsys):
        doc = {
            "flows": [{"id": 0, "rule_counts": {"r_del": 10**400, "r_ins": 1, "r_mod": 1}, "delta": [0]}],
            "uavs": [{"id": 0, "p_watts": 10.0}],
        }
        inst = write_json(tmp_path / "inst.json", doc)
        assert main(["schedule", "--instance", inst, "--method", "heuristic", "--out", str(tmp_path / "o.json")]) == 2
        assert "flow #0: number out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params", [{"mass_choices": [1e300]}, {"hover": {"prop_radius": 1e-200}}], ids=["huge-mass", "tiny-propeller"]
    )
    def test_gen_network_hover_power_must_be_finite(self, tmp_path, capsys, params):
        path = write_json(tmp_path / "p.json", params)
        out = tmp_path / "net.json"
        assert main(["gen-network", "--params", path, "--seed", "1", "--out", str(out)]) == 2
        assert "hover power" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"m_list": "34"},
            {"methods": "heuristic"},
            {"methods": ["heuristic", 5]},
            {"radio": {}},
            {"network": {"radio": {"bogus": 1}}},
        ],
        ids=["m_list-string", "methods-string", "methods-int-entry", "top-level-unknown", "radio-unknown"],
    )
    def test_experiment_config_lists_are_arrays_and_keys_known(self, tmp_path, capsys, config):
        cfg = write_json(tmp_path / "cfg.json", dict(DESK_CONFIG, **config))
        csv_path = tmp_path / "out.csv"
        assert main(["experiment", "--config", cfg, "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith("error: experiment config")
        assert not csv_path.exists()

    @pytest.mark.parametrize("method", ["heuristic", "random"])
    def test_schedule_of_handover_times_summing_past_the_largest_float(self, tmp_path, capsys, method):
        # the 0 W UAV would cost 0.0 * inf = NaN, which JSON cannot hold either
        inst = write_json(tmp_path / "inst.json", OVERFLOWING_TIMES)
        out = tmp_path / "o.json"
        assert main(["schedule", "--instance", inst, "--method", method, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: the flows' handover times sum to inf s, past the largest float\n"
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".*.tmp"))

    def test_schedule_energy_too_large_for_json(self, tmp_path, capsys):
        # each handover time and their sum are finite, but the energy overflows to inf
        doc = {
            "flows": [{"id": 0, "t_ms": 1.7e308, "delta": [0]}, {"id": 1, "t_ms": 1.7e308, "delta": [0]}],
            "uavs": [{"id": 0, "p_watts": 1e10}],
        }
        inst = write_json(tmp_path / "inst.json", doc)
        out = tmp_path / "o.json"
        assert main(["schedule", "--instance", inst, "--method", "heuristic", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: the schedule's hovering energy sums to inf J, past the largest float\n"
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".*.tmp"))

    def test_experiment_statistics_too_large_for_a_float(self, tmp_path, capsys):
        config = {"network": {"num_uavs": 12, "area_side": 100.0}, "n_flows_list": [5], "m_list": [2],
                  "iterations": 2, "timings": {"tau_del_ms": 1e308, "tau_ins_ms": 1e308}}
        cfg = write_json(tmp_path / "cfg.json", config)
        csv_path = tmp_path / "out.csv"
        assert main(["experiment", "--config", cfg, "--csv", str(csv_path)]) == 2
        assert "error: cell n_f=5, m=2, method heuristic:" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_experiment_exact_cap_above_the_dp_limit(self, tmp_path, capsys):
        # refused when the config is read, before any instance is built or solved
        cfg = write_json(tmp_path / "cfg.json", dict(DESK_CONFIG, exact_cap=23))
        csv_path = tmp_path / "out.csv"
        assert main(["experiment", "--config", cfg, "--csv", str(csv_path)]) == 2
        assert "exact_cap must be in [0, 22], got 23" in capsys.readouterr().err
        assert not csv_path.exists()


class TestSizeLimits:
    """Each documented size limit, at limit + 1, exits 2 before anything is generated or sampled."""

    @pytest.fixture(autouse=True)
    def nothing_generated(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("generated or sampled past a size limit")

        for module in (netgen, experiment):
            monkeypatch.setattr(module, "generate_network", refuse)
        monkeypatch.setattr(netgen, "sample_flow_routes", refuse)

    @pytest.mark.parametrize("num_uavs", [MAX_UAVS + 1, 2.0397015179986224e16])
    def test_gen_network_num_uavs(self, tmp_path, capsys, num_uavs):
        params = write_json(tmp_path / "p.json", {"num_uavs": num_uavs})
        assert main(["gen-network", "--params", params, "--seed", "1", "--out", str(tmp_path / "net.json")]) == 2
        assert f"num_uavs must be in [2, {MAX_UAVS}]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--flows", MAX_FLOWS + 1, f"flow count must be in [0, {MAX_FLOWS}]"),
        ("--flows", -1, f"flow count must be in [0, {MAX_FLOWS}]"),
        ("--retired", 12, "retiring count must be in [0, 12)"),
    ])
    def test_gen_instance_flows_and_retired(self, tmp_path, capsys, flag, value, message):
        doc = {"params": {"num_uavs": 12, "area_side": 100.0},
               "uavs": [{"id": u, "x": 10.0 * u, "y": 0.0, "mass_kg": 1.0} for u in range(12)]}
        net = write_json(tmp_path / "net.json", doc)
        sizes = {"--flows": 4, "--retired": 2, flag: value}
        argv = ["gen-instance", "--network", net, *(str(a) for item in sizes.items() for a in item)]
        assert main([*argv, "--seed", "1", "--out", str(tmp_path / "inst.json")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("iterations", MAX_ITERATIONS + 1, f"iterations must be in [2, {MAX_ITERATIONS}]"),
        ("n_flows_list", [8, MAX_FLOWS + 1], f"must be in [1, {MAX_FLOWS}]"),
        ("network", {"num_uavs": MAX_UAVS + 1}, f"num_uavs must be in [2, {MAX_UAVS}]"),
        # 19 of 20 UAVs retired leaves one in service, too few to draw a flow:
        # refused before the m = 3 cell runs
        ("m_list", [3, 19], "m=19 must be in [0, num_uavs - 2 = 18]"),
    ])
    def test_experiment(self, tmp_path, capsys, field, value, message):
        cfg = write_json(tmp_path / "cfg.json", dict(DESK_CONFIG, **{field: value}))
        assert main(["experiment", "--config", cfg, "--csv", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err


ONE_FLOW = {"flows": [{"id": 0, "t_ms": 10.0, "delta": [0]}], "uavs": [{"id": 0, "p_watts": 5.0}]}


def line_network(num_uavs: int, spacing: float, **extra) -> dict:
    """A network document of 1 kg UAVs on a line ``spacing`` metres apart, plus ``extra`` top-level keys."""
    uavs = [{"id": u, "x": spacing * u, "y": 0.0, "mass_kg": 1.0} for u in range(num_uavs)]
    return {"params": {"num_uavs": num_uavs, "area_side": max(spacing * num_uavs, 1.0)}, "uavs": uavs, **extra}


def sampled(network: dict, flows: int, retired: int) -> list:
    return ["gen-instance", "--network", network, "--flows", str(flows), "--retired", str(retired), "--seed", "1"]


REPEATED_UAV_ID = line_network(3, 5.0)
REPEATED_UAV_ID["uavs"][2]["id"] = 1

# 3000 flows of 1e305 s each, over two UAVs: the total overflows to inf
OVERFLOWING_TIMES = {
    "flows": [{"id": i, "t_ms": 1e308, "delta": [[0], [0, 1], [1]][i % 3]} for i in range(3000)],
    "uavs": [{"id": 0, "p_watts": 0.0}, {"id": 1, "p_watts": 5.0}],
}


class TestBadValueMessages:
    """Each kind of bad value the library reports, reached from the command line.

    A dict in ``argv`` is written to a file and replaced by its path.  The
    stderr line is pinned byte for byte, so no traceback is printed.
    """

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["schedule", "--instance", dict(ONE_FLOW, timings={"tau_del_ms": -1}), "--method", "heuristic"],
                "tau_del must be a positive finite duration, got -0.001",
            ),
            (
                [*sampled(line_network(3, 5.0), 1, 1), "--tau-ins-ms", "-2"],
                "tau_ins must be a positive finite duration, got -0.002",
            ),
            (
                ["schedule", "--instance", dict(ONE_FLOW, uavs=[]), "--method", "heuristic"],
                "flow 0 references unknown UAV ids [0]",
            ),
            (
                ["schedule", "--instance", {"flows": [{"id": 0, "rule_counts": {"r_del": -1, "r_ins": 1, "r_mod": 1},
                                                        "delta": [0]}], "uavs": ONE_FLOW["uavs"]},
                 "--method", "heuristic"],
                "r_del must be a non-negative integer, got -1",
            ),
            (
                ["gen-instance", "--network", line_network(3, 5.0, retired=[2], flows=[{"id": 0, "route": [0, 1, 2]}])],
                "flow 0: route endpoints 0/2 may not be retiring UAVs",
            ),
            (sampled(line_network(2, 0.0), 1, 0), "distance must be positive, got 0.0"),
            (sampled(line_network(3, 5e5), 1, 0), "could not route flow 0 after 1000 attempts; network too sparse"),
            (sampled(line_network(2, 5.0), 1, 1), "fewer than two UAVs remain in service"),
            (["experiment", "--config", {"iterations": 1}], "iterations must be in [2, 100000], got 1"),
            (sampled(line_network(3, 5.0), 0, 0), "no flows and no retiring UAVs given"),
            (["gen-instance", "--network", line_network(3, 5.0, retired=[], flows=[])],
             "no flows and no retiring UAVs given"),
            (
                ["export-ilp", "--instance", {"flows": [], "uavs": ONE_FLOW["uavs"]}],
                "ordering model needs at least two elements, got n+m = 1",
            ),
            (["experiment", "--config", {"n_flows_list": []}], "n_flows_list and m_list must not be empty"),
            (["schedule", "--instance", dict(ONE_FLOW, flows=[5]), "--method", "heuristic"], "flow #0 must be an object"),
            (
                ["schedule", "--instance", dict(ONE_FLOW, uavs=[{"id": 0}]), "--method", "heuristic"],
                "uav #0 must be an object with 'p_watts'",
            ),
            (
                ["gen-network", "--seed", "1", "--params", {"radio": {"snr_threshold_db": 0}}],
                "snr_threshold_db must be positive, got 0.0",
            ),
            (["gen-network", "--seed", "1", "--params", {"mass_choices": []}], "mass_choices must not be empty"),
            (sampled(REPEATED_UAV_ID, 1, 1), "UAV ids must be dense 0..num_uavs-1"),
            (
                ["gen-instance", "--network", line_network(3, 5.0, retired=[7], flows=[])],
                "'retired' references unknown UAV ids",
            ),
            (
                ["schedule", "--instance", OVERFLOWING_TIMES, "--method", "exact"],
                "the flows' handover times sum to inf s, past the largest float",
            ),
        ],
        ids=[
            "negative-tau-in-instance", "negative-tau-flag", "flow-crosses-no-uav", "negative-rule-count",
            "route-ends-at-retiring-uav", "two-uavs-at-one-point", "too-sparse-to-route", "one-uav-in-service",
            "one-iteration", "no-flows-no-retiring-uavs", "empty-scenario-file", "lp-of-one-element",
            "empty-n-flows-list", "flow-not-an-object", "uav-without-p-watts", "zero-snr-threshold",
            "no-mass-choices", "repeated-uav-id", "retired-names-an-unknown-uav", "handover-times-overflow",
        ],
    )
    def test_exits_2_with_the_message(self, tmp_path, capsys, argv, message):
        args = [write_json(tmp_path / f"{i}.json", a) if isinstance(a, dict) else a for i, a in enumerate(argv)]
        out = tmp_path / "out"
        destination = "--csv" if argv[0] == "experiment" else "--out"
        assert main([*args, destination, str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["gen-network", "--seed", "1", "--params"],
            ["gen-instance", "--network"],
            ["schedule", "--method", "heuristic", "--instance"],
            ["export-ilp", "--instance"],
            ["experiment", "--config"],
        ],
        ids=["gen-network", "gen-instance", "schedule", "export-ilp", "experiment"],
    )
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, command):
        # Python's JSON reader recurses once per level
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "out"
        destination = "--csv" if command[0] == "experiment" else "--out"
        assert main([*command, str(deep), destination, str(out)]) == 2
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"
        assert not out.exists()


class TestExportIlp:
    def test_reference_instance_has_72_binaries(self, tmp_path, reference_file):
        out = tmp_path / "model.lp"
        assert main(["export-ilp", "--instance", reference_file, "--out", str(out)]) == 0
        text = out.read_text()
        assert len(re.findall(r"^ x_\d+_\d+$", text, flags=re.M)) == 72

    def test_tiny_instance_has_two_binaries(self, tmp_path):
        doc = {"flows": [{"id": 0, "t_ms": 20, "delta": [0]}], "uavs": [{"id": 0, "p_watts": 100.0}]}
        inst = write_json(tmp_path / "tiny.json", doc)
        out = tmp_path / "tiny.lp"
        assert main(["export-ilp", "--instance", inst, "--out", str(out)]) == 0
        text = out.read_text()
        assert len(re.findall(r"^ x_\d+_\d+$", text, flags=re.M)) == 2
        assert "dep_1_2: x_1_2 = 1" in text

    @pytest.mark.parametrize("flows,code", [(ordering.LP_SIZE_CAP - 1, 0), (ordering.LP_SIZE_CAP, 4)], ids=["at-cap", "past-cap"])
    def test_size_cap_is_checked_before_the_text_is_rendered(self, tmp_path, capsys, monkeypatch, flows, code):
        # flows over one UAV, so n+m = flows + 1; the text is never rendered at this size
        rendered = []
        monkeypatch.setattr(ordering, "lp_chunks", lambda model: rendered.append(model.size) or [b"stub\n"])
        doc = {"flows": [{"id": i, "t_ms": 1.0, "delta": [0]} for i in range(flows)], "uavs": ONE_FLOW["uavs"]}
        out = tmp_path / "model.lp"
        assert main(["export-ilp", "--instance", write_json(tmp_path / "i.json", doc), "--out", str(out)]) == code
        if code:
            message = f"LP export capped at n+m = {ordering.LP_SIZE_CAP}, instance has {flows} flows and 1 UAVs"
            assert capsys.readouterr().err == f"error: {message}\n"
            assert rendered == [] and not out.exists()
        else:
            assert rendered == [ordering.LP_SIZE_CAP]

    def test_an_overflowing_coefficient_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # T * P = 1e297 s * 1e300 W overflows to inf, which no LP file can hold
        doc = {"flows": [{"id": 0, "t_ms": 1e300, "delta": [0]}], "uavs": [{"id": 0, "p_watts": 1e300}]}
        inst = write_json(tmp_path / "overflow.json", doc)
        out = tmp_path / "overflow.lp"
        assert main(["export-ilp", "--instance", inst, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: pair (1, 2) has objective coefficient inf, which an LP file cannot hold\n"
        assert [p.name for p in tmp_path.iterdir()] == ["overflow.json"]

    def test_export_renders_through_the_module_level_lp_chunks(self, tmp_path, monkeypatch, reference_file):
        calls = []

        def recorded(model):
            calls.append(model)
            return [b"stub\n"]

        monkeypatch.setattr(ordering, "lp_chunks", recorded)
        out = tmp_path / "stub.lp"
        assert main(["export-ilp", "--instance", reference_file, "--out", str(out)]) == 0
        assert [(model.n, model.m) for model in calls] == [(4, 5)]
        assert out.read_bytes() == b"stub\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak from /proc/self/status")
    def test_export_memory_stays_below_the_size_of_the_file(self, tmp_path):
        # n+m = 120: the file is about 83 MB, and the pieces are written as they are rendered
        doc = {
            "flows": [{"id": i, "t_ms": 1.0, "delta": [i % 10]} for i in range(110)],
            "uavs": [{"id": j, "p_watts": 20.0 + j} for j in range(10)],
        }
        out = tmp_path / "model.lp"
        # the child reports the peak resident size of its own address space;
        # its ru_maxrss would also count the pages of the test process that
        # started it, which by then may exceed the file
        child = (
            "import re, sys\n"
            "from uavsched.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as status:\n"
            "    print(code, int(re.search(r'VmHWM:\\s+(\\d+) kB', status.read())[1]) * 1024)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(uavsched.__file__).resolve().parents[1])}
        argv = ["export-ilp", "--instance", write_json(tmp_path / "i.json", doc), "--out", str(out)]
        run = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True, timeout=120)
        code, peak = map(int, run.stdout.split())
        size = out.stat().st_size
        out.unlink()
        assert code == 0, run.stderr
        assert size > 80_000_000
        assert peak < size

    def test_repeat_export_is_byte_identical(self, tmp_path, reference_file):
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        assert main(["export-ilp", "--instance", reference_file, "--out", str(a)]) == 0
        assert main(["export-ilp", "--instance", reference_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


DESK_CONFIG = {
    "network": {"num_uavs": 20, "area_side": 140.0},
    "n_flows_list": [8],
    "m_list": [3, 4],
    "iterations": 4,
    "methods": ["heuristic", "random", "exact_dp"],
    "exact_cap": 8,
    "master_seed": 1,
}


class TestExperimentAndPlot:
    def test_bundled_desk_config_respects_the_row_budget(self, tmp_path, monkeypatch):
        from pathlib import Path

        bundled = Path(__file__).resolve().parent.parent / "scripts" / "desk.json"
        config = json.loads(bundled.read_text())
        monkeypatch.chdir(tmp_path)  # the config's output paths are relative
        assert main(["experiment", "--config", str(bundled)]) == 0
        rows = (tmp_path / config["csv_path"]).read_text().splitlines()[1:]
        budget = len(config["m_list"]) * len(config["n_flows_list"]) * len(config["methods"])
        assert 0 < len(rows) <= budget
        assert (tmp_path / config["svg_energy_path"]).exists()

    def test_experiment_row_budget_and_plot(self, tmp_path):
        config = dict(DESK_CONFIG, csv_path=str(tmp_path / "out.csv"), svg_energy_path=str(tmp_path / "e.svg"))
        cfg = write_json(tmp_path / "cfg.json", config)
        assert main(["experiment", "--config", cfg]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0].startswith("m,n_f,method")
        assert len(lines) - 1 <= len(config["m_list"]) * len(config["n_flows_list"]) * len(config["methods"])
        assert (tmp_path / "e.svg").read_text().startswith("<svg")
        out_svg = tmp_path / "runtime.svg"
        assert main(["plot", "--csv", str(tmp_path / "out.csv"), "--metric", "runtime", "--out", str(out_svg)]) == 0
        assert out_svg.read_text().endswith("</svg>\n")

    def test_every_table_method_through_experiment_and_plot(self, tmp_path):
        # exact_cap 8 holds every desk instance, so no method skips an iteration
        config = dict(DESK_CONFIG, methods=sorted(METHODS), csv_path=str(tmp_path / "out.csv"))
        assert main(["experiment", "--config", write_json(tmp_path / "cfg.json", config)]) == 0
        cells = read_csv(tmp_path / "out.csv")
        assert {(c.m, c.method) for c in cells} == {(m, method) for m in (3, 4) for method in METHODS}
        assert {c.count for c in cells} == {4}
        out = tmp_path / "e.svg"
        assert main(["plot", "--csv", str(tmp_path / "out.csv"), "--metric", "energy", "--out", str(out)]) == 0

    def test_csv_override_flag(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", DESK_CONFIG)
        target = tmp_path / "override.csv"
        assert main(["experiment", "--config", cfg, "--csv", str(target)]) == 0
        assert target.exists()

    def test_config_for_a_network_of_at_most_ten_uavs(self, tmp_path):
        # the default m_list (5..10) does not fit such a network; the config's own m_list does
        config = {"network": {"num_uavs": 8}, "n_flows_list": [3], "m_list": [2], "iterations": 2,
                  "methods": ["heuristic"], "csv_path": str(tmp_path / "out.csv")}
        assert main(["experiment", "--config", write_json(tmp_path / "cfg.json", config)]) == 0
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("svg", [False, True], ids=["csv-only", "with-energy-svg"])
    def test_experiment_with_no_completed_cell_writes_nothing(self, tmp_path, capsys, svg):
        # every instance keeps more than 2 of its 30 flows, so exact_dp skips every iteration
        config = {"network": {"num_uavs": 20, "area_side": 140.0}, "n_flows_list": [30], "m_list": [3],
                  "iterations": 2, "methods": ["exact_dp"], "exact_cap": 2, "csv_path": str(tmp_path / "out.csv")}
        if svg:
            config["svg_energy_path"] = str(tmp_path / "e.svg")
        assert main(["experiment", "--config", write_json(tmp_path / "cfg.json", config)]) == 2
        message = "no cell completed: none had 2 iterations within exact_cap = 2"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_experiment_without_destination_fails(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", DESK_CONFIG)
        assert main(["experiment", "--config", cfg]) == 2

    def test_plot_empty_csv_fails(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("m,n_f,method,k,mean_energy_j,se_j,ci_lo_j,ci_hi_j,mean_runtime_s\n")
        assert main(["plot", "--csv", str(empty), "--metric", "energy", "--out", str(tmp_path / "o.svg")]) == 2

    def test_plot_missing_csv_gives_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["plot", "--csv", str(missing), "--metric", "energy", "--out", str(tmp_path / "o.svg")]) == 3
        message = f"could not read CSV {missing}: [Errno 2] No such file or directory: '{missing}'"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_interruption_flushes_partial_cells_marked_incomplete(self, tmp_path, monkeypatch):
        from uavsched import experiment as exp_module

        real = exp_module.run_experiment

        def interrupt_after_two_cells(config, progress=None):
            seen = 0

            def wrapped(cell):
                nonlocal seen
                progress(cell)
                seen += 1
                if seen == 2:
                    raise KeyboardInterrupt

            return real(config, progress=wrapped)

        monkeypatch.setattr(exp_module, "run_experiment", interrupt_after_two_cells)
        cfg = write_json(tmp_path / "cfg.json", DESK_CONFIG)
        target = tmp_path / "partial.csv"
        assert main(["experiment", "--config", cfg, "--csv", str(target)]) == 130
        lines = target.read_text().splitlines()
        assert lines[0] == "# incomplete"
        assert lines[1].startswith("m,n_f,method")
        assert len(lines) == 4  # marker + header + the two completed cells
        svg = tmp_path / "partial.svg"
        assert main(["plot", "--csv", str(target), "--metric", "energy", "--out", str(svg)]) == 0
        assert svg.read_text().count("<circle") == 2

    def test_sigterm_flushes_partial_cells_marked_incomplete(self, tmp_path):
        # the child reports each completed cell on stdout and then waits, so
        # the signal lands after the first of the config's two cells
        child = (
            "import sys, time\n"
            "from uavsched import experiment\n"
            "from uavsched.cli import main\n"
            "real = experiment.run_experiment\n"
            "def wait_after_each_cell(config, progress):\n"
            "    def report(cell):\n"
            "        progress(cell)\n"
            "        print('cell', flush=True)\n"
            "        time.sleep(60)\n"
            "    return real(config, progress=report)\n"
            "experiment.run_experiment = wait_after_each_cell\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(uavsched.__file__).resolve().parents[1])}
        target = tmp_path / "partial.csv"
        argv = ["experiment", "--config", write_json(tmp_path / "cfg.json", DESK_CONFIG), "--csv", str(target)]
        with subprocess.Popen(
            [sys.executable, "-c", child, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            try:
                assert proc.stdout.readline() == "cell\n"
                proc.send_signal(signal.SIGTERM)
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert proc.returncode == 130, err
        assert err == "interrupted; 1 completed cells flushed as incomplete\n"
        assert target.read_text().splitlines()[0] == "# incomplete"
        assert [(cell.n_f, cell.m, cell.method) for cell in read_csv(target)] == [(8, 3, "heuristic")]

    def test_an_experiment_restores_the_sigterm_handler_and_runs_off_the_main_thread(self, tmp_path, monkeypatch):
        before = signal.getsignal(signal.SIGTERM)
        cfg = write_json(tmp_path / "cfg.json", DESK_CONFIG)
        assert main(["experiment", "--config", cfg, "--csv", str(tmp_path / "a.csv")]) == 0
        assert signal.getsignal(signal.SIGTERM) is before
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(["experiment", "--config", cfg, "--csv", str(tmp_path / "b.csv")])))
        worker.start()
        worker.join()
        assert codes == [0]
        assert len(read_csv(tmp_path / "b.csv")) == len(read_csv(tmp_path / "a.csv")) > 0

        def interrupted(config, progress=None):
            assert signal.getsignal(signal.SIGTERM) is not before
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "run_experiment", interrupted)
        assert main(["experiment", "--config", cfg, "--csv", str(tmp_path / "c.csv")]) == 130
        assert signal.getsignal(signal.SIGTERM) is before

    def test_plot_keeps_rejecting_foreign_columns_after_the_marker(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# incomplete\na,b\n1,2\n")
        assert main(["plot", "--csv", str(bad), "--metric", "energy", "--out", str(tmp_path / "o.svg")]) == 2

    def test_plot_twice_is_byte_identical(self, tmp_path):
        config = dict(DESK_CONFIG, csv_path=str(tmp_path / "out.csv"))
        cfg = write_json(tmp_path / "cfg.json", config)
        assert main(["experiment", "--config", cfg]) == 0
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", "--csv", str(tmp_path / "out.csv"), "--metric", "energy", "--out", str(a)]) == 0
        assert main(["plot", "--csv", str(tmp_path / "out.csv"), "--metric", "energy", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "row",
        [
            "5,70,heuristic,200",  # 4 of the 9 fields
            "5,70,heuristic,200,10.5,0.1,10.3,10.7,0.001,extra",
            "5,70,heuristic,200,nan,0.1,10.3,10.7,0.001",
            "5,70,heuristic,200,10.5,0.1,10.3,inf,0.001",
            "5.5,70,heuristic,200,10.5,0.1,10.3,10.7,0.001",
            "5,70,heuristic,two,10.5,0.1,10.3,10.7,0.001",
            "5,70,<b>x,200,10.5,0.1,10.3,10.7,0.001",  # would be written into the SVG as markup
            "5,70,random,200,20.5,0.1,20.3,20.7,0.001",  # the first row again
            "5,70,heuristic,-3,10.5,0.1,10.3,10.7,0.001",
            "5,70,heuristic,200,10.5,-0.1,10.3,10.7,0.001",
        ],
        ids=[
            "short", "extra-field", "nan-mean", "inf-ci-hi", "fractional-m", "text-k",
            "markup-method", "repeated-cell", "negative-k", "negative-se",
        ],
    )
    def test_plot_rejects_a_malformed_row(self, tmp_path, capsys, row):
        good = "5,70,random,200,20.5,0.1,20.3,20.7,0.001"
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# incomplete\n{','.join(CSV_COLUMNS)}\n{good}\n{row}\n")
        out = tmp_path / "o.svg"
        assert main(["plot", "--csv", str(bad), "--metric", "energy", "--out", str(out)]) == 2
        assert "CSV data row 2" in capsys.readouterr().err
        assert not out.exists()


def fail_replace_onto(monkeypatch, destination):
    """Make os.replace onto ``destination`` fail, as a full disk or a vanished directory would."""
    real = os.replace

    def replace(src, dst):
        if Path(dst) == destination:
            raise OSError(28, "No space left on device")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


class TestAtomicWrites:
    @pytest.mark.parametrize("command", ["gen-network", "export-ilp", "experiment-csv", "experiment-svg", "plot"])
    def test_failed_write_leaves_the_destination_and_no_temporary_file(
        self, tmp_path, monkeypatch, capsys, reference_file, command
    ):
        results = tmp_path / "results.csv"
        results.write_text(f"{','.join(CSV_COLUMNS)}\n5,70,random,200,20.5,0.1,20.3,20.7,0.001\n")
        cfg = write_json(tmp_path / "cfg.json", DESK_CONFIG)
        out = tmp_path / "out.file"
        args = {
            "gen-network": ["gen-network", "--seed", "1", "--out", str(out)],
            "export-ilp": ["export-ilp", "--instance", reference_file, "--out", str(out)],
            "experiment-csv": ["experiment", "--config", cfg, "--csv", str(out)],
            "experiment-svg": ["experiment", "--config", cfg, "--csv", str(results), "--svg-energy", str(out)],
            "plot": ["plot", "--csv", str(results), "--metric", "energy", "--out", str(out)],
        }[command]
        out.write_text("previous contents\n")
        before = sorted(tmp_path.iterdir())
        fail_replace_onto(monkeypatch, out)
        assert main(args) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_text() == "previous contents\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_missing_directory_gives_exit_3(self, tmp_path):
        assert main(["gen-network", "--seed", "1", "--out", str(tmp_path / "missing" / "net.json")]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_removes_its_temporary_file(self, tmp_path, monkeypatch):
        out = tmp_path / "net.json"
        out.write_text("previous contents\n")

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["gen-network", "--seed", "1", "--out", str(out)])
        assert out.read_text() == "previous contents\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_an_interrupted_piece_stream_keeps_the_previous_file(self, tmp_path):
        out = tmp_path / "model.lp"
        out.write_bytes(b"previous contents\n")
        written = []

        def pieces():
            yield b"x" * 100_000
            written.extend(p.stat().st_size for p in tmp_path.iterdir() if p != out)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            errors.write_text(out, pieces(), "LP file")
        assert written == [100_000]  # the first piece reached the temporary file before the second was asked for
        assert out.read_bytes() == b"previous contents\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_a_non_ascii_string_raises_and_keeps_the_previous_file(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_bytes(b"previous contents\n")
        with pytest.raises(UnicodeEncodeError):  # a ValueError, so the command line exits 2
            errors.write_text(out, "caf\u00e9\n", "text")
        assert out.read_bytes() == b"previous contents\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_a_stream_of_byte_pieces_writes_their_concatenation(self, tmp_path):
        out = tmp_path / "out.txt"
        pieces = [b"first\n", b"", b"second ", b"line\n" * 3]
        errors.write_text(out, iter(pieces), "text")
        assert out.read_bytes() == b"".join(pieces)
        assert list(tmp_path.iterdir()) == [out]

    def test_line_ends_are_written_unchanged(self, tmp_path):
        out = tmp_path / "out.txt"
        errors.write_text(out, "a\nb\r\n", "text")
        assert out.read_bytes() == b"a\nb\r\n"

    def test_a_stale_temporary_file_neither_blocks_the_write_nor_is_removed(self, tmp_path):
        # the name a run killed mid-write left behind before temporary names carried a random token
        out = tmp_path / "out.txt"
        stale = tmp_path / f".out.txt.{os.getpid()}.tmp"
        stale.write_text("left by a killed run\n")
        errors.write_text(out, "new contents\n", "text")
        assert out.read_text() == "new contents\n"
        assert stale.read_text() == "left by a killed run\n"
        assert sorted(tmp_path.iterdir()) == sorted([out, stale])

    def test_a_temporary_name_taken_by_another_writer_fails_and_is_left_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(errors.secrets, "token_hex", lambda nbytes: "feed")
        other = tmp_path / f".out.txt.{os.getpid()}.feed.tmp"
        other.write_text("another writer's text\n")
        with pytest.raises(errors.IoFailure, match="File exists"):
            errors.write_text(tmp_path / "out.txt", "new contents\n", "text")
        assert other.read_text() == "another writer's text\n"
        assert list(tmp_path.iterdir()) == [other]

    def test_a_destination_name_of_255_bytes_is_written(self, tmp_path):
        out = tmp_path / ("n" * 250 + ".json")
        errors.write_text(out, "text\n", "text")
        assert out.read_text() == "text\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_written_file_permissions_follow_the_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            errors.write_text(tmp_path / "out.txt", "text\n", "text")
        finally:
            os.umask(umask)
        assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o640

    def test_failed_flush_after_interruption_keeps_the_previous_csv(self, tmp_path, monkeypatch):
        from uavsched import experiment as exp_module

        def interrupt(config, progress=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(exp_module, "run_experiment", interrupt)
        cfg = write_json(tmp_path / "cfg.json", DESK_CONFIG)
        target = tmp_path / "partial.csv"
        target.write_text("previous contents\n")
        fail_replace_onto(monkeypatch, target)
        assert main(["experiment", "--config", cfg, "--csv", str(target)]) == 130
        assert target.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "partial.csv"]


class TestRoundTrip:
    def test_exact_equals_bruteforce_on_generated_files(self, tmp_path):
        _, inst, _ = gen_toy_files(tmp_path)
        exact_out = tmp_path / "exact.json"
        brute_out = tmp_path / "brute.json"
        assert main(["schedule", "--instance", str(inst), "--method", "exact", "--out", str(exact_out)]) == 0
        assert main(["schedule", "--instance", str(inst), "--method", "bruteforce", "--out", str(brute_out)]) == 0
        exact = json.loads(exact_out.read_text())
        brute = json.loads(brute_out.read_text())
        assert exact["energy_j"] == brute["energy_j"]


class TestOneProcessManyCalls:
    """main keeps no state between calls: a sequence in one process matches fresh processes."""

    COMMANDS = (
        (2, ["schedule", "--instance", "{instance}"]),  # argparse rejects it: --method and --out are missing
        (0, ["schedule", "--instance", "{instance}", "--method", "heuristic", "--out", "{out}/h.json"]),
        (0, ["export-ilp", "--instance", "{instance}", "--out", "{out}/model.lp"]),
        (2, ["schedule", "--instance", "{instance}", "--method", "random", "--out", "{out}/r.json"]),  # no --seed
    )

    @staticmethod
    def written(directory):
        """Files by name; a schedule's measured wall time is masked."""
        files = {}
        for path in sorted(directory.iterdir()):
            text = path.read_text()
            if path.suffix == ".json":
                text = re.sub(r'"wall_time_s": [^,}\n]+', '"wall_time_s": null', text)
            files[path.name] = text
        return files

    def test_each_call_matches_a_fresh_process(self, tmp_path, reference_file, capsys):
        env = {**os.environ, "PYTHONPATH": str(Path(uavsched.__file__).resolve().parents[1])}
        same, fresh = tmp_path / "same", tmp_path / "fresh"
        same.mkdir()
        fresh.mkdir()
        for expected, template in self.COMMANDS:
            capsys.readouterr()
            code = main([arg.format(instance=reference_file, out=same) for arg in template])
            err = capsys.readouterr().err
            argv = [arg.format(instance=reference_file, out=fresh) for arg in template]
            run = subprocess.run(
                [sys.executable, "-m", "uavsched.cli", *argv], env=env, capture_output=True, text=True
            )
            assert (code, run.returncode) == (expected, expected), template
            if expected:
                assert err.replace(str(same), str(fresh)) == run.stderr
        assert self.written(same) == self.written(fresh)
        assert sorted(self.written(same)) == ["h.json", "model.lp"]


def strict_json(path):
    """The document in ``path``; NaN and Infinity, which are not JSON, fail the test."""

    def refuse(constant):
        pytest.fail(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


FUZZ_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 14)
    | st.integers()
    | st.floats()
    | st.floats(0.01, 500.0)
    | st.sampled_from([1e308, -1e308, 5e-324, 1e-200, 10**400])
    | st.text(max_size=3)
    | st.sampled_from(sorted(METHODS)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def keyed(names, nested=None):
    """Objects keyed by some of ``names``: each value is any JSON value or, for a key of ``nested``, its object."""
    nested = nested or {}
    return st.fixed_dictionaries(
        {}, optional={name: FUZZ_VALUES | nested[name] if name in nested else FUZZ_VALUES for name in names}
    )


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


PARAMS_DOCS = keyed(
    field_names(NetworkParams), {"radio": keyed(field_names(RadioParams)), "hover": keyed(field_names(HoverParams))}
)
CONFIG_DOCS = keyed(
    field_names(ExperimentConfig),
    {"network": PARAMS_DOCS, "timings": keyed(timings_to_json(DEFAULT_TIMINGS))},
)


def small(doc: dict, key: str, limit: int, keep_above=None):
    """Lower a number at ``doc[key]``, or each one in a list there, to ``limit``, but not one past ``keep_above``.

    Floats count too: the loaders read an integral float such as 2e16 as a
    count, and a network of that many UAVs would fill the memory.
    """

    def lowered(value):
        if type(value) in (int, float) and limit < value and (keep_above is None or value <= keep_above):
            return limit
        return value

    if key in doc:
        value = doc[key]
        doc[key] = [lowered(v) for v in value] if isinstance(value, list) else lowered(value)


EXITS = (0, 2, 3, 4)


class TestSubcommandFuzz:
    """Documents with the real field names and arbitrary values: a documented exit, valid JSON out, no traceback.

    Networks keep at most 12 UAVs, sweeps 2 iterations and 8 flows per
    instance, and exact_cap at most 8, unless a value is past its documented
    limit and so is refused before anything is built; every example runs in
    milliseconds.
    """

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        params=PARAMS_DOCS,
        seed=st.integers(0, 2**32),
        flows=st.integers(0, 8) | st.integers(min_value=MAX_FLOWS + 1),
        retired=st.integers(0, 12) | st.integers(min_value=MAX_UAVS),
        taus=st.lists(st.none() | st.floats() | st.sampled_from([1e308, 1.7e308]), min_size=3, max_size=3),
    )
    # the handover times of these instances are finite; the first one's t_ms
    # are not, and the second one's energy is not
    @example(params={}, seed=1, flows=5, retired=2, taus=[1e308, None, None])
    @example(params={"mass_choices": [50.0]}, seed=1, flows=5, retired=2, taus=[None, None, 1e308])
    # past the size limits: refused with exit 2, nothing allocated
    @example(params={"num_uavs": 2.0397015179986224e16}, seed=1, flows=5, retired=2, taus=[None, None, None])
    @example(params={}, seed=1, flows=MAX_FLOWS + 1, retired=2, taus=[None, None, None])
    def test_gen_network_gen_instance_schedule(self, params, seed, flows, retired, taus):
        params = {"num_uavs": 12, "area_side": 100.0, **params}
        small(params, "num_uavs", 12, keep_above=MAX_UAVS)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            net, inst, scen, out = (tmp / name for name in ("net.json", "inst.json", "scen.json", "out.json"))
            argv = ["gen-network", "--params", write_json(tmp / "params.json", params), "--seed", str(seed)]
            code = main([*argv, "--out", str(net)])
            assert code in EXITS
            if code:
                return
            strict_json(net)
            argv = ["gen-instance", "--network", str(net), "--flows", str(flows), "--retired", str(retired)]
            argv += ["--seed", str(seed), "--out", str(inst), "--scenario-out", str(scen)]
            for flag, tau in zip(("--tau-del-ms", "--tau-ins-ms", "--tau-mod-ms"), taus):
                if tau is not None:
                    argv.append(f"{flag}={tau!r}")
            code = main(argv)
            assert code in EXITS
            if code:
                return
            strict_json(inst)
            strict_json(scen)
            for method in ("heuristic", "exact"):
                code = main(["schedule", "--instance", str(inst), "--method", method, "--out", str(out)])
                assert code in EXITS
                if code == 0:
                    strict_json(out)
            assert main(["export-ilp", "--instance", str(inst), "--out", str(tmp / "model.lp")]) in EXITS

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(config=CONFIG_DOCS)
    # energies of about 1e307 J: a finite mean whose spread overflows
    @example(config={"timings": {"tau_del_ms": 1e308, "tau_ins_ms": 1e308}})
    @example(config={"iterations": 10**10, "n_flows_list": [10**10], "network": {"num_uavs": 2e16}})
    def test_experiment(self, config):
        base = {"network": {"num_uavs": 12, "area_side": 100.0}, "n_flows_list": [5], "m_list": [2],
                "iterations": 2, "methods": ["heuristic", "random", "exact_dp"], "exact_cap": 8}
        config = {**base, **config}
        if isinstance(config["network"], dict):
            config["network"] = {**base["network"], **config["network"]}
            small(config["network"], "num_uavs", 12, keep_above=MAX_UAVS)
        small(config, "iterations", 2, keep_above=MAX_ITERATIONS)
        small(config, "n_flows_list", 8, keep_above=MAX_FLOWS)
        small(config, "exact_cap", 8, keep_above=22)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for key in ("csv_path", "svg_energy_path", "svg_runtime_path"):
                if isinstance(config.get(key), str):  # any path text, kept inside the temporary directory
                    config[key] = str(tmp / f"{key}-{len(config[key])}")
            csv_path = tmp / "out.csv"
            code = main(["experiment", "--config", write_json(tmp / "cfg.json", config), "--csv", str(csv_path)])
            assert code in EXITS
            if code == 0:
                read_csv(csv_path)  # every statistic finite
