"""Tests for the Monte Carlo harness: statistics, pairing, CSV and SVG output."""

import dataclasses
from functools import cached_property
import hashlib
import importlib.util
import json
import math
from pathlib import Path
import re

import pytest

import uavsched
import uavsched.cli
from uavsched import experiment, model, sched
from uavsched.errors import write_text
from uavsched.experiment import (
    MAX_ITERATIONS,
    CellStats,
    ExperimentConfig,
    config_from_json,
    csv_text,
    read_csv,
    run_experiment,
    summarize,
    svg_text,
)
from uavsched.netgen import MAX_FLOWS, NetworkParams
from uavsched.sched import METHODS

from helpers import energy_reference, heuristic_reference


ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def script_config(name: str, **overrides) -> ExperimentConfig:
    return dataclasses.replace(config_from_json(json.loads((SCRIPTS / name).read_text())), **overrides)


def desk_config(**overrides) -> ExperimentConfig:
    # seed picked so that every iteration's instance has 1 <= n <= 8 flows
    base = dict(
        network=NetworkParams(num_uavs=20, area_side=140.0),
        n_flows_list=(8,),
        m_list=(3, 4),
        iterations=4,
        methods=("heuristic", "random", "exact_dp"),
        exact_cap=8,
        master_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSummarize:
    def test_hand_computed_case(self):
        mean, se, lo, hi = summarize([40.0, 50.0, 60.0])
        assert mean == pytest.approx(50.0, abs=1e-3)
        assert se == pytest.approx(5.7735, abs=1e-3)
        assert lo == pytest.approx(38.683, abs=1e-3)
        assert hi == pytest.approx(61.317, abs=1e-3)

    def test_constant_samples_have_zero_spread(self):
        mean, se, lo, hi = summarize([7.5] * 6)
        assert (mean, se) == (7.5, 0.0)
        assert lo == hi == 7.5

    def test_scaling_is_linear(self):
        samples = [12.0, 19.0, 33.0, 41.0]
        base = summarize(samples)
        scaled = summarize([2.5 * e for e in samples])
        for got, expected in zip(scaled, base):
            assert got == pytest.approx(2.5 * expected, rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="need at least 2 samples, got 1"):
            summarize([4.0])

    @pytest.mark.parametrize(
        "samples",
        [[1.0, math.inf], [math.nan, 2.0], [1e308, 1.7e308], [-1e308, 1e308], [1e308, -1e308, 1e308]],
        ids=["inf-sample", "nan-sample", "sum-overflows", "square-overflows", "spread-overflows"],
    )
    def test_non_finite_samples_or_statistics_rejected(self, samples):
        with pytest.raises(ValueError, match="finite|overflow"):
            summarize(samples)


class TestConfigValidation:
    def test_needs_two_iterations(self):
        with pytest.raises(ValueError, match=re.escape("iterations must be in [2, 100000], got 1")):
            desk_config(iterations=1)

    def test_needs_methods(self):
        with pytest.raises(ValueError, match="methods must not be empty"):
            desk_config(methods=())
        with pytest.raises(ValueError, match="unknown method 'gurobi'; choose from"):
            desk_config(methods=("heuristic", "gurobi"))
        with pytest.raises(ValueError, match="methods must not repeat"):
            desk_config(methods=("random", "random"))

    def test_cell_lists_must_not_repeat(self):
        # a repeated cell was run twice and written as two CSV rows that read_csv refuses
        with pytest.raises(ValueError, match="must not repeat"):
            desk_config(n_flows_list=(8, 8))
        with pytest.raises(ValueError, match="must not repeat"):
            desk_config(m_list=(3, 4, 3))

    def test_exact_cap_at_most_the_dp_limit(self):
        assert desk_config(exact_cap=22).exact_cap == 22
        with pytest.raises(ValueError, match="exact_cap"):
            desk_config(exact_cap=23)
        with pytest.raises(ValueError, match="exact_cap"):
            desk_config(exact_cap=-1)

    def test_size_limits(self):
        # checked in the config, before a network is generated or a flow sampled
        assert desk_config(iterations=MAX_ITERATIONS).iterations == MAX_ITERATIONS
        assert desk_config(n_flows_list=(MAX_FLOWS,)).n_flows_list == (MAX_FLOWS,)
        with pytest.raises(ValueError, match="iterations"):
            desk_config(iterations=MAX_ITERATIONS + 1)
        with pytest.raises(ValueError, match="n_flows"):
            desk_config(n_flows_list=(8, MAX_FLOWS + 1))

    def test_m_must_fit_the_network(self):
        # flows are drawn between two UAVs in service, so at most num_uavs - 2 retire
        assert desk_config(m_list=(0, 18)).m_list == (0, 18)
        for m in (19, 20, -1):
            with pytest.raises(ValueError, match=re.escape(f"m={m} must be in [0, num_uavs - 2 = 18]")):
                desk_config(m_list=(3, m))

    def test_json_round_trip_and_unknown_keys(self):
        config = config_from_json(
            {
                "network": {"num_uavs": 12, "area_side": 70.0},
                "n_flows_list": [5],
                "m_list": [2, 3],
                "iterations": 4,
                "methods": ["heuristic", "random"],
                "master_seed": 99,
            }
        )
        assert config.n_flows_list == (5,)
        assert config.network.num_uavs == 12
        with pytest.raises(ValueError, match=re.escape("experiment config: unknown fields ['mlist']")):
            config_from_json({"iterations": 4, "mlist": [2]})
        with pytest.raises(ValueError, match="experiment config must be a JSON object"):
            config_from_json("not an object")

    def test_workers_is_an_unknown_field(self):
        with pytest.raises(ValueError, match="workers"):
            config_from_json({"workers": 4})


class TestRunExperiment:
    def test_statistics_recomputable_from_samples(self):
        result = run_experiment(desk_config(iterations=3))
        assert result.cells
        for cell in result.cells:
            mean, se, lo, hi = summarize(cell.samples)
            assert (cell.mean, cell.se, cell.ci_lo, cell.ci_hi) == (mean, se, lo, hi)
            assert cell.count == 3

    def test_every_method_contributes_a_cell_per_configuration(self):
        # exact_cap 8 holds every desk instance, so each method runs on every iteration
        result = run_experiment(desk_config(methods=tuple(METHODS)))
        cells = {(c.n_f, c.m, c.method): c for c in result.cells}
        assert set(cells) == {(8, m, method) for m in (3, 4) for method in METHODS}
        assert {c.count for c in result.cells} == {4}
        for m in (3, 4):
            optimum = cells[(8, m, "exact_dp")].samples
            for method in ("exact", "bruteforce"):
                assert cells[(8, m, method)].samples == pytest.approx(optimum, rel=1e-12)

    def test_deterministic_across_runs(self):
        a = run_experiment(desk_config())
        b = run_experiment(desk_config())
        assert a.cells == tuple(
            dataclasses.replace(c, mean_runtime_s=a.cells[i].mean_runtime_s) for i, c in enumerate(b.cells)
        )
        assert a.instance_digests == b.instance_digests
        assert csv_text(a.cells).splitlines()[0] == csv_text(b.cells).splitlines()[0]

    def test_methods_are_paired_on_identical_instances(self):
        # dropping a method must not perturb the instances the others see
        full = run_experiment(desk_config())
        partial = run_experiment(desk_config(methods=("heuristic",)))
        assert full.instance_digests == partial.instance_digests
        full_heuristic = {
            (c.n_f, c.m): c.samples for c in full.cells if c.method == "heuristic"
        }
        partial_heuristic = {
            (c.n_f, c.m): c.samples for c in partial.cells if c.method == "heuristic"
        }
        assert full_heuristic == partial_heuristic

    def test_exact_skipped_beyond_cap(self):
        # every desk iteration has n >= 1 and m >= 1, so a zero cap starves
        # every capped solver entirely: its cells are absent and its CSV rows omitted
        result = run_experiment(desk_config(exact_cap=0, methods=tuple(METHODS)))
        methods = {c.method for c in result.cells}
        assert methods == {"heuristic", "random"}
        assert "exact" not in csv_text(result.cells)

    def test_exact_energy_never_above_heuristic(self):
        result = run_experiment(desk_config())
        by_key = {(c.n_f, c.m, c.method): c for c in result.cells}
        for (n_f, m, method), cell in by_key.items():
            if method != "heuristic":
                continue
            exact = by_key.get((n_f, m, "exact_dp"))
            if exact is None:
                continue
            for h, e in zip(cell.samples, exact.samples):
                assert h >= e - 1e-12

    def test_retired_resampling_changes_instances(self):
        fixed = run_experiment(desk_config())
        resampled = run_experiment(desk_config(resample_retired_per_iteration=True))
        assert fixed.instance_digests != resampled.instance_digests


class TestCsv:
    def test_header_and_sorting(self, tmp_path):
        result = run_experiment(desk_config())
        path = tmp_path / "out.csv"
        write_text(path, csv_text(result.cells), "CSV")
        lines = path.read_text().splitlines()
        assert lines[0] == "m,n_f,method,k,mean_energy_j,se_j,ci_lo_j,ci_hi_j,mean_runtime_s"
        keys = []
        for line in lines[1:]:
            m, n_f, method = line.split(",")[:3]
            keys.append((int(n_f), int(m), method))
        assert keys == sorted(keys)

    def test_two_writes_are_byte_identical(self, tmp_path):
        result = run_experiment(desk_config(iterations=2))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_text(a, csv_text(result.cells), "CSV")
        write_text(b, csv_text(result.cells), "CSV")
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_preserves_the_printed_statistics(self, tmp_path):
        result = run_experiment(desk_config(iterations=3))
        path = tmp_path / "out.csv"
        first = csv_text(result.cells)
        write_text(path, first, "CSV")
        cells = read_csv(path)
        assert csv_text(cells) == first

    def test_reading_foreign_columns_fails(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_csv(path)


def cell(n_f, m, method, mean, se, runtime=0.001):
    return CellStats(
        n_f=n_f,
        m=m,
        method=method,
        count=2,
        samples=(),
        mean=mean,
        se=se,
        ci_lo=mean - 1.96 * se,
        ci_hi=mean + 1.96 * se,
        mean_runtime_s=runtime,
    )


class TestSvg:
    def test_single_cell_has_one_marker_and_one_error_bar(self):
        text = svg_text([cell(5, 3, "heuristic", 50.0, 5.0)], "energy")
        assert text.count("<circle") == 1
        assert text.count('class="errbar"') == 1
        assert "</svg>" in text

    def test_runtime_chart_has_no_error_bars(self):
        text = svg_text([cell(5, 3, "heuristic", 50.0, 5.0)], "runtime")
        assert text.count("<circle") == 1
        assert 'class="errbar"' not in text

    def test_deterministic_bytes(self, tmp_path):
        result = run_experiment(desk_config(iterations=2))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_text(a, svg_text(result.cells, "energy"), "SVG")
        write_text(b, svg_text(result.cells, "energy"), "SVG")
        assert a.read_bytes() == b.read_bytes()

    def test_error_bar_height_tracks_the_confidence_interval(self):
        cells = [cell(5, 3, "heuristic", 50.0, 5.0), cell(5, 4, "heuristic", 50.0, 2.5)]
        text = svg_text(cells, "energy")
        bars = re.findall(r'class="errbar" x1="[\d.]+" y1="([\d.]+)" x2="[\d.]+" y2="([\d.]+)"', text)
        heights = [abs(float(y2) - float(y1)) for y1, y2 in bars]
        assert len(heights) == 2
        assert heights[0] / heights[1] == pytest.approx(2.0, rel=1e-3)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            svg_text([], "energy")
        with pytest.raises(ValueError):
            svg_text([cell(5, 3, "heuristic", 1.0, 0.1)], "latency")


class TestPaperScaleTrends:
    def test_energy_grows_with_flows_and_retirements(self):
        # qualitative claim at reference scale: more flows and more
        # retirements both push the mean energy up, for every method
        config = ExperimentConfig(
            network=NetworkParams(),
            n_flows_list=(70, 100),
            m_list=(5, 10),
            iterations=200,
            methods=("heuristic", "random"),
            master_seed=7,
        )
        result = run_experiment(config)
        means = {(c.method, c.n_f, c.m): c.mean for c in result.cells}
        for method in ("heuristic", "random"):
            for n_f in (70, 100):
                assert means[(method, n_f, 10)] > means[(method, n_f, 5)]
            for m in (5, 10):
                assert means[(method, 100, m)] > means[(method, 70, m)]


class TestPaperScaleOptimum:
    def test_exact_runs_every_iteration_of_the_paper_sweep(self):
        result = run_experiment(script_config("full_sweep.json", methods=("heuristic", "exact")))
        assert len(result.cells) == 2 * 12
        assert {c.count for c in result.cells} == {200}

    def test_exact_equals_the_flow_dp_and_never_exceeds_the_heuristic(self, monkeypatch):
        # one cell of the paper sweep, paired per iteration: exact runs on all
        # of them (m = 10), the flow DP on those with at most 12 flows
        outcomes = []
        run_iteration = experiment._run_iteration

        def record(*args):
            digest, found = run_iteration(*args)
            outcomes.append(found)
            return digest, found

        monkeypatch.setattr(experiment, "_run_iteration", record)
        methods = ("heuristic", "exact", "exact_dp")
        run_experiment(script_config("full_sweep.json", n_flows_list=(70,), m_list=(10,), methods=methods, exact_cap=12))
        assert len(outcomes) == 200 and all(found["exact"] for found in outcomes)
        both = [found for found in outcomes if found["exact_dp"]]
        assert len(both) >= 20
        for found in both:
            assert found["exact"][0] == pytest.approx(found["exact_dp"][0], rel=1e-12)
        for found in outcomes:  # equal energies may differ in the last bit
            assert found["exact"][0] <= found["heuristic"][0] * (1 + 1e-12)

    def test_heuristic_orders_of_a_paper_scale_cell_equal_the_plain_loop(self, monkeypatch):
        # one cell of the paper sweep at its largest (n_f = 100, m = 10): the
        # kept flows share FlowSpec objects and delta sets, and each
        # iteration's heuristic order must be the plain per-flow loop's
        heuristic = sched.heuristic_schedule
        shared = []

        def checked(instance):
            result = heuristic(instance)
            assert result.schedule.order == heuristic_reference(instance)[1]
            shared.append(len(set(map(id, instance.flows))) < instance.n)
            return result

        monkeypatch.setattr(sched, "heuristic_schedule", checked)
        config = script_config("full_sweep.json", n_flows_list=(100,), m_list=(10,))
        assert config.iterations == 200
        run_experiment(config)
        assert len(shared) == 200
        assert sum(shared) > 100

    def test_energies_of_a_paper_scale_cell_equal_the_uav_side_loop(self, monkeypatch):
        # every schedule of the largest paper-scale cell (n_f = 100, m = 10),
        # re-evaluated as _result does, against the plain UAV-side loop
        compute = sched.compute_energy
        checked = []

        def compared(instance, schedule):
            report = compute(instance, schedule)
            finish, completions, total = energy_reference(instance, schedule.order)
            assert list(map(float.hex, report.flow_finish_times)) == list(map(float.hex, finish))
            assert list(map(float.hex, report.completion_times)) == list(map(float.hex, completions))
            assert report.total_energy.hex() == model.evaluate_order(instance, schedule.order).hex() == total.hex()
            checked.append(instance)
            return report

        monkeypatch.setattr(sched, "compute_energy", compared)
        run_experiment(script_config("full_sweep.json", n_flows_list=(100,), m_list=(10,)))
        assert len(checked) == 2 * 200
        assert any(0.0 in energy_reference(i, range(i.n))[1] for i in checked)  # a UAV no flow crosses

    def test_a_heuristic_and_random_cell_never_builds_the_uav_side_view(self, monkeypatch):
        # neither the scores, the energies nor the digest text need the
        # flows of each UAV or the tuple of handover times, so no instance
        # of the cell derives them
        instances = []
        build = experiment.build_instance

        def recorded(*args, **kwargs):
            result = build(*args, **kwargs)
            instances.append(result.instance)
            return result

        monkeypatch.setattr(experiment, "build_instance", recorded)
        config = script_config("full_sweep.json", n_flows_list=(100,), m_list=(10,))
        assert config.methods == ("heuristic", "random")
        run_experiment(config)
        assert len(instances) == 200
        assert not any({"flow_sets", "times"} & instance.__dict__.keys() for instance in instances)
        assert instances[0].flow_sets and "flow_sets" in instances[0].__dict__


class TestBenchmarkHooks:
    def test_the_tracer_sees_exact_dp_calls_through_the_method_table(self):
        # perfbench/spans.py rebinds names in uavsched's modules; a method
        # table entry that captured its solver would hide every call from it
        spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        original = uavsched.sched.exact_schedule_dp
        tracer = spans.Tracer()
        with tracer.installed(uavsched):
            run_experiment(desk_config(m_list=(3,), iterations=2, methods=("heuristic", "exact_dp")))
        assert tracer.counters["exact_dp_calls"] > 0
        assert uavsched.sched.exact_schedule_dp is original and experiment.exact_schedule_dp is original


def sweep_fingerprint(config: ExperimentConfig) -> tuple[str, str]:
    """SHA-256 of the results CSV with the runtime column cut, and of every instance digest in order."""
    result = run_experiment(config)
    masked = "\n".join(line.rpartition(",")[0] for line in csv_text(result.cells).splitlines())
    digests = "\n".join(
        f"{n_f},{m}:{digest}" for (n_f, m), cell in sorted(result.instance_digests.items()) for digest in cell
    )
    return hashlib.sha256(masked.encode("ascii")).hexdigest(), hashlib.sha256(digests.encode("ascii")).hexdigest()


def samples_fingerprint(config: ExperimentConfig) -> str:
    """SHA-256 of every cell's samples as float.hex, cells in (n_f, m, method) order."""
    cells = sorted(run_experiment(config).cells, key=lambda c: (c.n_f, c.m, c.method))
    lines = "\n".join(f"{c.n_f},{c.m},{c.method}:" + " ".join(map(float.hex, c.samples)) for c in cells)
    return hashlib.sha256(lines.encode("ascii")).hexdigest()


@pytest.mark.parametrize(
    "name,overrides,sha256",
    [
        ("desk.json", {}, "ab6a45c8f8c467d35c9e644ff5b993eb5384e49196ef54d2f52d0a1785629802"),
        ("full_sweep.json", {"iterations": 3}, "cc137b147ab11f4db2f08c77fbc9c3814bef9bb2ae7e73fea660ddfcd644fe62"),
        (
            "full_sweep.json",
            {"iterations": 3, "resample_retired_per_iteration": True},
            "e158c4e6fc8d80c6ce7c21c398772188178cf6d418ce1016f421d3f899f55c35",
        ),
    ],
    ids=["desk", "full_sweep-3-iterations", "full_sweep-3-iterations-resampled"],
)
def test_every_sample_has_the_bits_recorded_before_the_flow_side_energy(name, overrides, sha256):
    # the CSV's 9 digits cannot see a change in the last bit of an energy;
    # recorded on the code that took each C_j as the maximum over the UAV's
    # flows, and the resampled row, where every build starts an empty route
    # cache, on the code that made a FlowSpec per new route and checked
    # every instance in ReplacementInstance.__post_init__
    assert samples_fingerprint(script_config(name, **overrides)) == sha256


def derive_seed_reference(master_seed, *parts) -> int:
    """The seed formula as one blake2b over the joined key: the oracle of the seed prefixes."""
    key = "|".join([str(master_seed), *map(str, parts)]).encode("ascii")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


class TestSeeds:
    @pytest.mark.parametrize("master_seed", [0, 1, -1, -987654321, 12345678901234567890, -98765432109876543210])
    def test_prefixes_give_the_seeds_of_the_joined_key(self, master_seed):
        for n_f, m in [(8, 3), (100, 10), (1, 0)]:
            for key in ("flows", "retired", *METHODS):
                prefix = experiment._seed_prefix(master_seed, key, n_f, m)
                for k in (0, 1, 9, 10, 199, MAX_ITERATIONS - 1):
                    assert experiment._seed(prefix, k) == derive_seed_reference(master_seed, key, n_f, m, k)
                    assert experiment._derive_seed(master_seed, key, n_f, m, k) == derive_seed_reference(master_seed, key, n_f, m, k)
                assert experiment._derive_seed(master_seed, key, n_f, m) == derive_seed_reference(master_seed, key, n_f, m)
        assert experiment._derive_seed(master_seed, "network") == derive_seed_reference(master_seed, "network")

    def test_a_prefix_is_hashed_once_per_cell(self, monkeypatch):
        # the network's key and, per cell, the fixed retiring set's (each
        # hashed whole, its prefix being all but the last part), and the
        # prefixes of the flows, the resampled retiring sets and the random
        # method; no iteration hashes a prefix
        made = []
        prefix = experiment._seed_prefix

        def counted(*parts):
            made.append(parts[1:])
            return prefix(*parts)

        monkeypatch.setattr(experiment, "_seed_prefix", counted)
        for resample in (False, True):
            made.clear()
            config = desk_config(resample_retired_per_iteration=resample)
            run_experiment(config)
            fixed = [] if resample else [("retired", 8)] * len(config.m_list)
            keys = ("flows", "retired", "random")
            assert sorted(made) == sorted([()] + fixed + [(key, 8, m) for m in config.m_list for key in keys])


def test_criterion_5_sweep_matches_the_values_recorded_before_the_free_flow_kernel():
    # the acceptance suite's criterion-5 sweep: exact_dp on 100 instances of
    # up to 11 flows; recorded on the plain loop over every flow of every state
    config = ExperimentConfig(
        network=NetworkParams(area_side=260.0),
        n_flows_list=(14,),
        m_list=(5,),
        iterations=100,
        methods=("heuristic", "exact_dp"),
        exact_cap=14,
        master_seed=31,
    )
    assert sweep_fingerprint(config) == (
        "8eb165e218b2fcf4ead93a28d76e0ec5030ecbbf7246a92fc8832c1763b4b7c4",
        "a60ab7f684c2dc75b088226a4c325aed5f1d2d08aa847718121c6e4bb4b3c4c2",
    )


@pytest.mark.parametrize(
    "resample,csv_sha256,digests_sha256",
    [
        (
            False,
            "567563a47dbc2a8d48e276c8dd3d262e1a5f11102bf2c7c1bedb809eec0c5baf",
            "6191f41d2076eb549773c83b65afb81275e7e19ac0acc493e412a6e8c8c967eb",
        ),
        (
            True,
            "83598fd8cb262c21067245b48aed13aa8979a066172e9765095e5ea8bfff964c",
            "f2398debd77da5294f3682dc087c8d8d9427c85e6729f9a1e1280edd4c69e893",
        ),
    ],
    ids=["fixed-retiring-set", "resampled-retiring-sets"],
)
def test_m0_sweep_matches_the_values_recorded_before_its_pair_table(resample, csv_sha256, digests_sha256):
    # recorded when an m = 0 cell drew without a pair table and passed every
    # flow to build_instance; every method runs on its empty instances
    config = desk_config(m_list=(0, 3), resample_retired_per_iteration=resample)
    assert sweep_fingerprint(config) == (csv_sha256, digests_sha256)


class TestCellMemo:
    def test_a_cell_without_retiring_uavs_builds_from_no_flows(self, monkeypatch):
        # its pair table drops every flow, as none crosses the empty retiring set
        seen = []
        build = experiment.build_instance

        def recorded(routes, uavs, timings, cache):
            seen.append((list(routes), uavs))
            return build(routes, uavs, timings, cache=cache)

        monkeypatch.setattr(experiment, "build_instance", recorded)
        config = desk_config(m_list=(0,))
        result = run_experiment(config)
        assert seen == [([], ())] * config.iterations
        assert {(c.count, c.mean) for c in result.cells} == {(config.iterations, 0.0)}
        assert len(result.cells) == len(config.methods)

    @pytest.mark.parametrize("resample", [False, True], ids=["fixed-retiring-set", "resampled-retiring-sets"])
    def test_fragment_text_equals_the_plain_json_on_every_iteration(self, monkeypatch, resample):
        # the digest text joined from each flow's json_parts must be the
        # very bytes of json.dumps(instance_to_json(instance), sort_keys=True)
        assembled = experiment._CellMemo.instance_text
        seen = []

        def checked(memo, instance):
            text = assembled(memo, instance)
            assert text == json.dumps(experiment.instance_to_json(instance), sort_keys=True)
            seen.append(instance.n)
            return text

        monkeypatch.setattr(experiment._CellMemo, "instance_text", checked)
        config = script_config("full_sweep.json", iterations=3, resample_retired_per_iteration=resample)
        run_experiment(config)
        assert len(seen) == 3 * len(config.n_flows_list) * len(config.m_list)
        assert min(seen) > 0

    def test_each_flow_value_is_rendered_once_per_cell(self, monkeypatch):
        # the route cache interns equal FlowSpecs, so a paper-scale cell
        # renders one flow text per distinct FlowSpec value, however many
        # routes and iterations derive it
        rendered = []
        render = model.FlowSpec.json_parts.func

        def counted(flow):
            rendered.append(flow)
            return render(flow)

        parts = cached_property(counted)
        parts.__set_name__(model.FlowSpec, "json_parts")
        monkeypatch.setattr(model.FlowSpec, "json_parts", parts)
        flows = set()
        build = experiment.build_instance

        def recorded(*args, **kwargs):
            result = build(*args, **kwargs)
            flows.update(result.instance.flows)
            return result

        monkeypatch.setattr(experiment, "build_instance", recorded)
        run_experiment(script_config("full_sweep.json", n_flows_list=(70,), m_list=(10,)))
        assert len(rendered) == len(flows) > 1
        assert set(rendered) == flows

    @pytest.mark.parametrize("resample", [False, True], ids=["fixed-retiring-set", "resampled-retiring-sets"])
    def test_each_flow_type_and_the_powers_are_checked_once_per_cache(self, monkeypatch, resample):
        # a paper-scale cell builds its instances without __post_init__:
        # each distinct FlowSpec is checked when its type is stored, the
        # powers when the cache's snapshot is
        checked = {"_check_flow": [], "_check_powers": []}
        for name, seen in checked.items():

            def counted(*args, check=getattr(model, name), seen=seen):
                seen.append(args)
                return check(*args)

            monkeypatch.setattr(model, name, counted)
        builds = []
        build = experiment.build_instance

        def recorded(routes, uavs, timings, cache):
            result = build(routes, uavs, timings, cache=cache)
            builds.append((cache, result.instance))
            return result

        monkeypatch.setattr(experiment, "build_instance", recorded)
        config = script_config("full_sweep.json", n_flows_list=(100,), m_list=(10,), resample_retired_per_iteration=resample)
        run_experiment(config)
        caches = {id(cache) for cache, _ in builds}
        types = {(id(cache), flow) for cache, instance in builds for flow in instance.flows}
        assert len(caches) == (config.iterations if resample else 1)
        assert len(types) > len(caches)
        assert len(checked["_check_powers"]) == len(caches)
        assert sorted(map(id, (flow for _, flow, _, _ in checked["_check_flow"]))) == sorted(id(flow) for _, flow in types)

    @pytest.mark.parametrize("resample", [False, True], ids=["fixed-retiring-set", "resampled-retiring-sets"])
    def test_route_cache_lives_as_long_as_the_retiring_set(self, monkeypatch, resample):
        # one cache per cell when the retiring set is fixed, a fresh one per
        # iteration when it is resampled
        caches = []
        build = experiment.build_instance

        def recorded(routes, uavs, timings, cache):
            caches.append((cache, len(cache)))
            return build(routes, uavs, timings, cache=cache)

        monkeypatch.setattr(experiment, "build_instance", recorded)
        config = desk_config(resample_retired_per_iteration=resample)
        run_experiment(config)
        cells = len(config.n_flows_list) * len(config.m_list)
        assert len(caches) == cells * config.iterations
        distinct = {id(cache) for cache, _ in caches}
        if resample:
            assert len(distinct) == len(caches)
            assert all(size == 0 for _, size in caches)
        else:
            assert len(distinct) == cells
            assert [size == 0 for _, size in caches] == [k == 0 for _ in range(cells) for k in range(config.iterations)]

    @pytest.mark.parametrize("resample", [False, True], ids=["fixed-retiring-set", "resampled-retiring-sets"])
    def test_one_pair_table_per_retiring_set(self, monkeypatch, resample):
        # a fixed retiring set is drawn and tabled once per cell, a resampled
        # one once per iteration, and never both
        made = []
        table = experiment.PairTable

        def counted(net, retired):
            made.append(retired)
            return table(net, retired)

        monkeypatch.setattr(experiment, "PairTable", counted)
        config = desk_config(resample_retired_per_iteration=resample)
        run_experiment(config)
        cells = len(config.n_flows_list) * len(config.m_list)
        assert len(made) == cells * (config.iterations if resample else 1)

    @pytest.mark.parametrize(
        "name,overrides,csv_sha256,digests_sha256",
        [
            (
                "desk.json",
                {},
                "c6fbb0d481f489cbe218d506a998926344778203032e3976810a290fd810862c",
                "4a59505592f319227c04539b111b262961514f191009e3f9d7ec2f881e5a2e00",
            ),
            (
                "full_sweep.json",
                {"iterations": 3},
                "c90dc301210dac47a0dca3c1e369fab09b13f8700edafedefdf5bb739d212f5d",
                "e7f4331ec9b9221dff0d99d51ebd80f8e5f2a1273f55c3a512f346c3d8ff1ed0",
            ),
        ],
        ids=["desk", "full_sweep-3-iterations"],
    )
    def test_outputs_match_the_values_recorded_before_the_memo(self, name, overrides, csv_sha256, digests_sha256):
        # recorded on the code that built every instance and its digest text from scratch
        assert sweep_fingerprint(script_config(name, **overrides)) == (csv_sha256, digests_sha256)
