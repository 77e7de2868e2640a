"""Tests for the total-order formulation: model build, export, validation,
and the order/schedule conversions."""

import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavsched
from uavsched import ordering
from uavsched.cli import main
from uavsched.errors import InstanceTooLarge, write_text
from uavsched.model import Schedule, compute_energy, instance_from_json, instance_from_parts, instance_to_json
from uavsched.netgen import NetworkParams
from uavsched.ordering import (
    LP_SIZE_CAP,
    IlpModel,
    TotalOrderMatrix,
    build_ilp,
    ilp_objective,
    lp_chunks,
    lp_text,
    order_to_schedule,
    schedule_to_canonical_order,
    validate_total_order,
)
from uavsched.sched import exact_schedule, exact_schedule_dp

from helpers import PAST_BOTH_CAPS, feasible_sequences, reference_instance, random_instance, sampled_instance

# the reference optimal hierarchy: F4, U5, F1, U2, F3, U3, F2, U4, U1
OPTIMAL_HIERARCHY = (4, 9, 1, 6, 3, 7, 2, 8, 5)


def singleton_instance():
    return instance_from_parts((0.020,), ({0},), (100.0,))


def seed_lp_text(model: IlpModel) -> str:
    """The original row-by-row LP renderer, kept as the byte-identity oracle."""
    lines = ["Minimize", " obj:"]
    first = True
    for (i, j), coeff in model.objective:
        prefix = "   " if first else "   + "
        lines.append(f"{prefix}{coeff!r} x_{i}_{j}")
        first = False
    if first:
        lines.append("   0 x_1_2")
    lines.append("Subject To")
    for i, j in model.fixed:
        lines.append(f" dep_{i}_{j}: x_{i}_{j} = 1")
    indices = range(1, model.size + 1)
    for i in indices:
        for j in indices:
            if i < j:
                lines.append(f" pair_{i}_{j}: x_{i}_{j} + x_{j}_{i} = 1")
    for i in indices:
        for j in indices:
            for k in indices:
                if len({i, j, k}) == 3:
                    lines.append(f" tri_{i}_{j}_{k}: x_{i}_{j} + x_{j}_{k} - x_{i}_{k} <= 1")
    lines.append("Binary")
    for i in indices:
        for j in indices:
            if i != j:
                lines.append(f" x_{i}_{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# a transitivity row with three-digit indices is 57 characters, and one
# piece holds the (n+m-1)(n+m-2) rows of one leading index
PIECE_FACTOR = 60


def assert_same_text(model: IlpModel):
    """Compare lp_text and the decoded join of the lp_chunks pieces, each of
    them bytes, with the oracle, naming the first differing row on failure;
    no piece may be longer than PIECE_FACTOR (n+m)^2 bytes."""
    pieces = list(lp_chunks(model))
    assert all(type(piece) is bytes for piece in pieces), {type(piece) for piece in pieces}
    longest = max(map(len, pieces))
    assert longest <= PIECE_FACTOR * model.size**2, f"a piece of {longest} bytes at n+m = {model.size}"
    text, expected = lp_text(model), seed_lp_text(model)
    assert b"".join(pieces).decode("ascii") == text
    if text != expected:
        rows, expected_rows = text.splitlines(), expected.splitlines()
        pairs = enumerate(zip(rows, expected_rows))
        r = next((r for r, (a, b) in pairs if a != b), min(len(rows), len(expected_rows)))
        got = rows[r] if r < len(rows) else "<end>"
        want = expected_rows[r] if r < len(expected_rows) else "<end>"
        pytest.fail(f"LP text differs at row {r}: {got!r} != {want!r}")


def milp_optimum(text: str, time_limit: float = 60.0) -> tuple[float, dict[str, float]]:
    """Solve LP text as written by lp_text with the HiGHS MILP solver.

    The constraint matrix is sparse (each row holds 1 to 4 terms), so it
    fits at paper scale; a solve still running after ``time_limit``
    seconds fails.  The relative MIP gap is 0, so HiGHS reports optimal
    only once its bound meets the incumbent (its default gap let it stop
    4.8e-5 above the optimum at m = 60).  Returns the optimum and the
    solution, each binary's value by name.
    """
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    head, rest = text.split("Subject To\n")
    rows, binaries = rest.split("Binary\n")
    names = binaries.split()
    assert names.pop() == "End"
    column = {name: c for c, name in enumerate(names)}
    cost = np.zeros(len(names))
    for coeff, name in re.findall(r"(\S+) (x_\d+_\d+)", head.split(" obj:\n")[1]):
        cost[column[name]] += float(coeff)
    lines = rows.splitlines()
    row_ids, column_ids, signs = [], [], []  # one (row, column, +-1) triple per term
    lower, upper = np.empty(len(lines)), np.empty(len(lines))
    for r, line in enumerate(lines):
        lhs, sense, rhs = line.split(": ", 1)[1].rsplit(" ", 2)
        sign = 1.0
        for token in lhs.split():
            if token in ("+", "-"):
                sign = -1.0 if token == "-" else 1.0
            else:
                row_ids.append(r)
                column_ids.append(column[token])
                signs.append(sign)
                sign = 1.0
        assert sense in ("=", "<=")
        lower[r] = float(rhs) if sense == "=" else -np.inf
        upper[r] = float(rhs)
    # a repeated (row, column) pair sums, as the terms of one row do
    matrix = sparse.csr_array((signs, (row_ids, column_ids)), shape=(len(lines), len(names)))
    result = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=np.ones(len(names)),
        bounds=optimize.Bounds(0, 1),
        options={"time_limit": time_limit, "mip_rel_gap": 0.0},
    )
    assert result.success, result.message
    return result.fun, dict(zip(names, result.x))


def solution_order(n: int, m: int, x: dict[str, float]) -> TotalOrderMatrix:
    """Round a MILP solution into the precedence matrix it encodes."""
    size = n + m
    rows = tuple(
        tuple(round(x[f"x_{i}_{j}"]) if i != j else 0 for j in range(1, size + 1))
        for i in range(1, size + 1)
    )
    return TotalOrderMatrix(n=n, m=m, rows=rows)


def paper_like_instance(n: int, m: int, seed: int):
    """An instance with paper-like times and powers, each flow crossing 1-3 UAVs."""
    rng = random.Random(seed)
    return instance_from_parts(
        tuple(rng.uniform(0.005, 0.060) for _ in range(n)),
        tuple(frozenset(rng.sample(range(m), rng.randint(1, min(3, m)))) for _ in range(n)),
        tuple(rng.uniform(20.0, 310.0) for _ in range(m)),
    )


def random_model(n: int, m: int, seed: int) -> IlpModel:
    """Model of a paper-like instance."""
    return build_ilp(paper_like_instance(n, m, seed))


class TestDependency:
    def test_reference_instance_has_nine_pairs(self):
        fixed = build_ilp(reference_instance()).fixed
        assert len(fixed) == 9
        assert {(1, 5), (1, 6), (1, 7)} <= set(fixed)

    def test_singleton(self):
        assert build_ilp(singleton_instance()).fixed == ((1, 2),)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_pair_count_equals_total_pinning(self, seed):
        inst = random_instance(random.Random(seed))
        fixed = build_ilp(inst).fixed
        assert len(fixed) == sum(len(f.retired_set) for f in inst.flows)
        assert len(fixed) == sum(len(u.flow_set) for u in inst.uavs)


class TestBuildIlp:
    def test_reference_model_counts(self):
        ilp = build_ilp(reference_instance())
        assert ilp.variable_count == 72
        assert len(ilp.objective) == 4 * 5
        assert len(ilp.fixed) == 9

    def test_singleton_objective_is_one_product(self):
        ilp = build_ilp(singleton_instance())
        assert ilp.fixed == ((1, 2),)
        assert ilp.objective == (((1, 2), 0.020 * 100.0),)

    def test_scaling_powers_scales_coefficients(self):
        inst = reference_instance()
        scaled = instance_from_parts(
            inst.times, tuple(f.retired_set for f in inst.flows), tuple(p * 4.0 for p in inst.powers)
        )
        base = dict(build_ilp(inst).objective)
        bumped = dict(build_ilp(scaled).objective)
        for key, coeff in base.items():
            assert bumped[key] == coeff * 4.0
        assert build_ilp(inst).fixed == build_ilp(scaled).fixed

    @pytest.mark.parametrize(
        "n, m, objective, fixed, message",
        [
            (1, 1, (), ((0, 2),), "pair (0, 2) is not a flow index in 1..1 before a UAV index in 2..2"),
            (1, 1, (), ((1, 3),), "pair (1, 3) is not a flow index in 1..1 before a UAV index in 2..2"),
            (1, 1, (((1, 5), 1.0),), (), "pair (1, 5) is not a flow index in 1..1 before a UAV index in 2..2"),
            (1, 1, (((2, 1), 1.0),), (), "pair (2, 1) is not a flow index"),
            (2, 1, (), ((1, 2),), "pair (1, 2) is not a flow index in 1..2 before a UAV index in 3..3"),
            (1, 1, (((True, 2), 1.0),), (), "pair (True, 2) is not a flow index"),
            (2, 2, (), ((2, 3), (1, 3)), "fixed pairs must be sorted and distinct, but (1, 3) follows (2, 3)"),
            (2, 2, (), ((1, 3), (1, 3)), "fixed pairs must be sorted and distinct, but (1, 3) follows (1, 3)"),
            (1, 2, (((1, 2), 1.0), ((1, 3), math.inf)), (), "pair (1, 3) has objective coefficient inf"),
            (1, 1, (((1, 2), math.nan),), (), "pair (1, 2) has objective coefficient nan"),
        ],
        ids=[
            "flow-index-0",
            "uav-index-past-m",
            "objective-key-past-m",
            "uav-before-flow",
            "flow-before-flow",
            "bool-index",
            "unsorted",
            "repeated",
            "infinite-coefficient",
            "nan-coefficient",
        ],
    )
    def test_malformed_model_rejected(self, n, m, objective, fixed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            IlpModel(n=n, m=m, objective=objective, fixed=fixed)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError, match="ordering model needs at least two elements, got n\\+m = 0"):
            build_ilp(instance_from_parts((), (), ()))


class TestExportLp:
    def test_singleton_file_content(self, tmp_path):
        path = tmp_path / "tiny.lp"
        text = lp_text(build_ilp(singleton_instance()))
        write_text(path, text, "LP file")
        assert path.read_text() == text
        binaries = re.findall(r"^ (x_\d+_\d+)$", text, flags=re.M)
        assert binaries == ["x_1_2", "x_2_1"]
        assert " dep_1_2: x_1_2 = 1" in text
        assert " pair_1_2: x_1_2 + x_2_1 = 1" in text

    def test_reference_model_counts_round_trip(self, tmp_path):
        path = tmp_path / "ref.lp"
        write_text(path, lp_text(build_ilp(reference_instance())), "LP file")
        text = path.read_text()
        assert len(re.findall(r"^ x_\d+_\d+$", text, flags=re.M)) == 72
        assert len(re.findall(r"^ dep_", text, flags=re.M)) == 9
        assert len(re.findall(r"^ pair_", text, flags=re.M)) == 36
        assert len(re.findall(r"^ tri_", text, flags=re.M)) == 504

    @pytest.mark.parametrize(
        "model",
        [
            build_ilp(singleton_instance()),
            build_ilp(reference_instance()),
            build_ilp(instance_from_parts((), (), (50.0, 60.0))),  # empty objective: 0 x_1_2
            IlpModel(n=3, m=0, objective=(), fixed=()),
        ],
        ids=["singleton", "worked-example", "no-flows", "no-uavs"],
    )
    def test_text_matches_the_row_by_row_renderer(self, model):
        assert_same_text(model)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_text_matches_the_row_by_row_renderer_on_random_instances(self, seed):
        inst = random_instance(random.Random(seed), max_n=7, max_m=7, dyadic=False)
        assert_same_text(build_ilp(inst))

    def test_text_matches_the_row_by_row_renderer_at_paper_scale(self):
        model = random_model(59, 10, seed=59)
        assert model.size == 69
        assert_same_text(model)

    @pytest.mark.parametrize(
        "n, m", [(6, 3), (7, 3), (8, 3), (92, 9)], ids=["size-9", "size-10", "size-11", "size-101"]
    )
    def test_text_matches_the_row_by_row_renderer_where_index_widths_change(self, n, m):
        assert_same_text(random_model(n, m, seed=n + m))

    def test_export_ilp_file_is_the_row_by_row_text_at_size_101(self, tmp_path):
        doc = instance_to_json(paper_like_instance(92, 9, seed=101))
        source = tmp_path / "instance.json"
        source.write_text(json.dumps(doc))
        out = tmp_path / "model.lp"
        assert main(["export-ilp", "--instance", str(source), "--out", str(out)]) == 0
        assert out.read_bytes() == seed_lp_text(build_ilp(instance_from_json(doc))).encode("ascii")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_dependency_rows_are_the_sorted_crossings(self, seed):
        inst = random_instance(random.Random(seed))
        rows = re.findall(r"^ dep_(\d+)_(\d+): x_\1_\2 = 1$", lp_text(build_ilp(inst)), flags=re.M)
        expected = sorted((i + 1, inst.n + 1 + j) for i, flow in enumerate(inst.flows) for j in flow.retired_set)
        assert [(int(i), int(j)) for i, j in rows] == expected

    def test_byte_identical_across_exports(self, tmp_path):
        ilp = build_ilp(reference_instance())
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        write_text(a, lp_text(ilp), "LP file")
        write_text(b, lp_text(ilp), "LP file")
        assert a.read_bytes() == b.read_bytes()


TEMPLATES = (ordering._pair_template, ordering._binary_template, ordering._tri_template)


def clear_templates():
    """Empty the template caches, so what follows starts as a fresh process would."""
    for template in TEMPLATES:
        template.cache_clear()


def model_of_size(size: int) -> IlpModel:
    """A paper-like model of n+m = size, with m = 1 to 9 UAVs."""
    m = min(9, size - 1)
    return random_model(size - m, m, seed=size)


def assert_templates_hold(size: int):
    """The caches hold the pair and binary templates and the transitivity
    templates of j = 1..size, each formatted once and each over the rows
    k = 1..LP_SIZE_CAP."""
    assert [template.cache_info().misses for template in TEMPLATES] == [1, 1, size]
    assert ordering._tri_template.cache_info().currsize == size
    templates = [ordering._pair_template(), ordering._binary_template(), *map(ordering._tri_template, range(1, size + 1))]
    assert all(len(text) == at[-1] and len(at) == LP_SIZE_CAP + 1 for text, at in templates)
    assert ordering._binary_template()[0].endswith(f" x_\x01_{LP_SIZE_CAP}\n".encode("ascii"))


class TestTemplateStore:
    """The cached row templates of ``lp_chunks``: each formatted once per
    process, and read by each model only up to its own size."""

    def test_sizes_that_shrink_and_grow_across_digit_widths_match_the_oracle(self):
        sizes = (14, 3, 101, 9, 10, 99, 100, 2)
        clear_templates()
        for size in sizes:
            assert_same_text(model_of_size(size))
        assert_templates_hold(max(sizes))

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(2, 14), min_size=1, max_size=6))
    def test_random_size_sequences_match_the_oracle(self, sizes):
        clear_templates()
        for size in sizes:
            assert_same_text(model_of_size(size))
        assert_templates_hold(max(sizes))

    def test_each_template_is_formatted_once(self):
        clear_templates()
        lp_text(model_of_size(10))
        assert ordering._tri_template.cache_info().misses == 10
        lp_text(model_of_size(20))
        lp_text(model_of_size(10))
        lp_text(model_of_size(20))
        assert ordering._tri_template.cache_info().misses == 20

    def test_importing_the_package_formats_no_template(self):
        child = (
            "import uavsched, uavsched.cli; from uavsched import ordering; "
            "print([t.cache_info().currsize for t in (ordering._pair_template, ordering._binary_template, ordering._tri_template)])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(uavsched.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
        assert run.stdout == "[0, 0, 0]\n", run.stderr

    def test_threads_rendering_different_sizes_at_once_each_get_their_text(self):
        # more threads than cores, switching often: each must read whole
        # templates, whichever thread formats them
        sizes = (23, 47, 9, 68, 31, 60)
        expected = {size: seed_lp_text(model_of_size(size)) for size in sizes}
        texts = {}

        def render(size, start):
            start.wait(timeout=60)
            texts[size] = lp_text(model_of_size(size))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                texts.clear()
                start = threading.Barrier(len(sizes))
                clear_templates()
                threads = [threading.Thread(target=render, args=(size, start)) for size in sizes]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert ordering._tri_template.cache_info().currsize == max(sizes)
                assert texts == expected
        finally:
            sys.setswitchinterval(interval)

    def test_a_model_past_the_cap_is_refused_before_any_piece_with_the_message_of_build_ilp(self):
        n = LP_SIZE_CAP
        with pytest.raises(InstanceTooLarge) as built:
            build_ilp(instance_from_parts((0.01,) * n, (frozenset({0}),) * n, (1.0,)))
        pieces = lp_chunks(IlpModel(n=n, m=1, objective=(), fixed=()))
        with pytest.raises(InstanceTooLarge) as rendered:
            next(pieces)
        assert str(rendered.value) == str(built.value) == (
            f"LP export capped at n+m = {LP_SIZE_CAP}, instance has {n} flows and 1 UAVs"
        )
        with pytest.raises(InstanceTooLarge, match=re.escape(str(built.value))):
            lp_text(IlpModel(n=n, m=1, objective=(), fixed=()))


class TestTotalOrderMatrix:
    @pytest.mark.parametrize("sequence", [(1, 2), (1, 2, 2), (0, 1, 2), (1, 2, 4)])
    def test_from_sequence_needs_a_permutation(self, sequence):
        with pytest.raises(ValueError, match=re.escape(f"sequence must be a permutation of 1..3, got {sequence!r}")):
            TotalOrderMatrix.from_sequence(2, 1, sequence)


class TestValidateTotalOrder:
    def test_reference_optimal_order_is_clean(self):
        inst = reference_instance()
        x = TotalOrderMatrix.from_sequence(4, 5, OPTIMAL_HIERARCHY)
        assert validate_total_order(x, build_ilp(inst)) == []

    def test_symmetric_pair_flagged(self):
        x = TotalOrderMatrix.from_sequence(1, 1, (1, 2))
        rows = [list(r) for r in x.rows]
        rows[1][0] = 1  # now x_12 = x_21 = 1
        bad = TotalOrderMatrix(n=1, m=1, rows=tuple(tuple(r) for r in rows))
        families = {v.family for v in validate_total_order(bad, build_ilp(singleton_instance()))}
        assert "totality" in families

    def test_three_cycle_flagged_as_intransitive(self):
        # a<b, b<c, c<a: comparability holds pairwise but transitivity fails
        rows = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        bad = TotalOrderMatrix(n=3, m=0, rows=rows)
        model = IlpModel(n=3, m=0, objective=(), fixed=())
        families = {v.family for v in validate_total_order(bad, model)}
        assert families == {"transitivity"}

    def test_missing_dependency_flagged(self):
        inst = singleton_instance()
        x = TotalOrderMatrix.from_sequence(1, 1, (2, 1))  # UAV before its flow
        violations = validate_total_order(x, build_ilp(inst))
        assert [v.family for v in violations] == ["dependency"]
        assert violations[0].indices == (1, 2)

    def test_reflexive_entry_flagged(self):
        rows = ((1, 1), (0, 0))
        bad = TotalOrderMatrix(n=1, m=1, rows=rows)
        families = {v.family for v in validate_total_order(bad, build_ilp(singleton_instance()))}
        assert "irreflexive" in families

    def test_dimension_mismatch(self):
        x = TotalOrderMatrix.from_sequence(1, 1, (1, 2))
        with pytest.raises(ValueError, match="model is for n=4, m=5 but matrix is for n=1, m=1"):
            validate_total_order(x, build_ilp(reference_instance()))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_clean_exactly_on_the_feasible_arrangements(self, seed):
        inst = random_instance(random.Random(seed), max_n=3, max_m=3)
        model = build_ilp(inst)
        clean = {
            seq
            for seq in permutations(range(1, inst.n + inst.m + 1))
            if validate_total_order(TotalOrderMatrix.from_sequence(inst.n, inst.m, seq), model) == []
        }
        assert clean == set(feasible_sequences(inst))


class TestOrderToSchedule:
    def test_reference_hierarchy(self):
        x = TotalOrderMatrix.from_sequence(4, 5, OPTIMAL_HIERARCHY)
        schedule, uav_positions = order_to_schedule(x)
        assert schedule.order == (3, 0, 2, 1)
        assert uav_positions == (8, 3, 5, 7, 1)

    def test_two_elements(self):
        x = TotalOrderMatrix.from_sequence(1, 1, (1, 2))
        schedule, uav_positions = order_to_schedule(x)
        assert schedule.order == (0,)
        assert uav_positions == (1,)

    def test_invalid_order_rejected(self):
        rows = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        with pytest.raises(ValueError, match="successor counts are not a permutation; not a strict total order"):
            order_to_schedule(TotalOrderMatrix(n=3, m=0, rows=rows))

    def test_reflexive_non_total_matrix_with_distinct_successor_counts_rejected(self):
        # successor counts 2, 1, 0 are a permutation, yet x_11 = 1 and 1, 2 and 2, 3 are incomparable
        x = TotalOrderMatrix(n=2, m=1, rows=((1, 1, 0), (0, 0, 1), (0, 0, 0)))
        assert len(validate_total_order(x, IlpModel(n=2, m=1, objective=(), fixed=()))) == 3
        with pytest.raises(ValueError, match="index 1 breaks irreflexivity or totality; not a strict total order"):
            order_to_schedule(x)

    @pytest.mark.parametrize(
        "rows",
        [((0, 1, 1), (0, 0, 1)), ((0, 1, 1), (0, 0), (0, 1, 0)), ((0, 2, 1), (0, 0, 1), (0, 0, 0))],
        ids=["too-few-rows", "short-row", "entry-not-binary"],
    )
    def test_malformed_matrix_rejected(self, rows):
        with pytest.raises(ValueError):
            TotalOrderMatrix(n=2, m=1, rows=rows)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_successor_counts_of_any_sequence_are_a_permutation(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        seq = list(range(1, n + m + 1))
        rng.shuffle(seq)
        x = TotalOrderMatrix.from_sequence(n, m, seq)
        succ = sorted(sum(row) for row in x.rows)
        assert succ == list(range(n + m))


class TestCanonicalOrder:
    def test_reference_schedule_reaches_the_optimum_objective(self):
        inst = reference_instance()
        x = schedule_to_canonical_order(inst, Schedule((3, 0, 2, 1)))
        assert validate_total_order(x, build_ilp(inst)) == []
        assert ilp_objective(build_ilp(inst), x) == pytest.approx(46.0, rel=1e-9)

    def test_singleton_objective(self):
        inst = singleton_instance()
        x = schedule_to_canonical_order(inst, Schedule((0,)))
        assert ilp_objective(build_ilp(inst), x) == pytest.approx(2.0, rel=1e-12)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError, match=re.escape("schedule (0, 1) is not a permutation of 0..3")):
            schedule_to_canonical_order(reference_instance(), Schedule((0, 1)))

    def test_unpinned_uavs_go_first(self):
        inst = instance_from_parts((0.02,), ({1},), (50.0, 60.0))
        x = schedule_to_canonical_order(inst, Schedule((0,)))
        # UAV 0 carries no flows: it precedes the flow, so no objective term fires for it
        assert x.rows[1][0] == 1  # x_21: UAV 0 (index 2) before flow 0 (index 1)
        assert ilp_objective(build_ilp(inst), x) == pytest.approx(0.02 * 60.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_objective_equals_energy_exactly(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=6, max_m=5)
        order = tuple(rng.sample(range(inst.n), inst.n))
        x = schedule_to_canonical_order(inst, Schedule(order))
        energy = compute_energy(inst, Schedule(order)).total_energy
        assert ilp_objective(build_ilp(inst), x) == energy

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_linearization_inverts_canonical_completion(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=6, max_m=5)
        order = tuple(rng.sample(range(inst.n), inst.n))
        x = schedule_to_canonical_order(inst, Schedule(order))
        schedule, _ = order_to_schedule(x)
        assert schedule.order == order


class TestIlpObjective:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="model is for n=4, m=5 but matrix is for n=1, m=1"):
            ilp_objective(build_ilp(reference_instance()), TotalOrderMatrix.from_sequence(1, 1, (1, 2)))

    def test_feasible_orders_never_beat_their_induced_schedule(self):
        rng = random.Random(4)
        for _ in range(8):
            inst = random_instance(rng, max_n=3, max_m=3)
            if inst.n + inst.m > 6:
                continue
            ilp = build_ilp(inst)
            for seq in feasible_sequences(inst):
                x = TotalOrderMatrix.from_sequence(inst.n, inst.m, seq)
                schedule, _ = order_to_schedule(x)
                assert ilp_objective(ilp, x) >= compute_energy(inst, schedule).total_energy - 1e-12

    def test_optimum_over_feasible_orders_matches_exact_dp(self):
        rng = random.Random(5)
        for _ in range(8):
            inst = random_instance(rng, max_n=3, max_m=3)
            if inst.n + inst.m > 6:
                continue
            ilp = build_ilp(inst)
            best = min(
                ilp_objective(ilp, TotalOrderMatrix.from_sequence(inst.n, inst.m, seq))
                for seq in feasible_sequences(inst)
            )
            assert best == exact_schedule_dp(inst).energy

    def test_lp_text_has_deterministic_objective_order(self):
        text = lp_text(build_ilp(reference_instance()))
        terms = re.findall(r"x_(\d+)_(\d+)", text.split("Subject To")[0])
        assert terms == [(str(i), str(j)) for i in range(1, 5) for j in range(5, 10)]


class TestMilpSolver:
    """HiGHS solves the exported text: a third optimiser beside brute force and the DPs."""

    @staticmethod
    def solve(inst) -> float:
        """Solve the exported text; check that the solution is an order whose schedule reaches the optimum."""
        optimum, x = milp_optimum(lp_text(build_ilp(inst)))
        order = solution_order(inst.n, inst.m, x)
        assert validate_total_order(order, build_ilp(inst)) == []
        schedule, _ = order_to_schedule(order)
        assert compute_energy(inst, schedule).total_energy == pytest.approx(optimum, rel=1e-9)
        return optimum

    def test_worked_example(self):
        assert self.solve(reference_instance()) == pytest.approx(46.0, rel=1e-9)

    def test_random_instances_match_exact_dp(self):
        rng = random.Random(8)
        for _ in range(10):
            inst = random_instance(rng, max_n=8)
            assert self.solve(inst) == pytest.approx(exact_schedule_dp(inst).energy, rel=1e-9)

    @pytest.mark.parametrize("network_seed,m", [(1, 5), (1, 10), (2, 8), (4, 8), (5, 5)])
    def test_paper_scale_instances_match_the_exact_solvers(self, network_seed, m):
        # the paper-scale sweep's kind of instance: 100 sampled flows on a
        # 40-UAV network, n+m from 11 to 29
        params = NetworkParams(num_uavs=40, area_side=150.0)
        inst = sampled_instance(params, network_seed, 100, m, 100 * network_seed + m)
        optimum = self.solve(inst)
        assert optimum == pytest.approx(exact_schedule(inst).energy, rel=1e-9)
        if inst.n <= 16:
            assert optimum == pytest.approx(exact_schedule_dp(inst).energy, rel=1e-9)

    def test_an_instance_past_both_caps_matches_exact_schedule(self):
        inst = sampled_instance(*PAST_BOTH_CAPS)
        assert (inst.n, inst.m) == (23, 26)  # n+m = 49
        result = exact_schedule(inst)
        assert result.method == "exact_uav"
        assert self.solve(inst) == pytest.approx(result.energy, rel=1e-9)

    def test_uav_side_instances_match_exact_schedule(self):
        rng = random.Random(9)
        for _ in range(5):
            inst = random_instance(rng, max_n=8, max_m=3, min_n=4)
            result = exact_schedule(inst)
            assert result.method == "exact_uav"
            assert self.solve(inst) == pytest.approx(result.energy, rel=1e-9)
