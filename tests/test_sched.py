"""Tests for the schedulers: heuristic, random baseline, exact DP, brute force."""

import random
import re
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavsched import sched
from uavsched.errors import InstanceTooLarge
from uavsched.model import FlowSpec, ReplacementInstance, Schedule, compute_energy, evaluate_order, instance_from_parts
from uavsched.netgen import NetworkParams
from uavsched.sched import (
    EXACT_CAP_DEFAULT,
    GENERAL,
    brute_force_schedule,
    exact_schedule,
    exact_schedule_dp,
    heuristic_schedule,
    random_schedule,
    score_table,
)

from helpers import (
    PAST_BOTH_CAPS,
    dyadic_time,
    exact_dp_reference,
    heuristic_reference,
    no_free_flows,
    reference_instance,
    random_instance,
    sampled_instance,
)


class TestScoreTable:
    def test_reference_scores(self):
        table = score_table(reference_instance())
        assert table.h == pytest.approx((0.07, 0.04, 0.07, 0.09, 0.03), rel=1e-12)
        assert table.s[0] == pytest.approx(5357.142857142857, rel=1e-9)
        assert table.s[3] == pytest.approx(4444.444444444444, rel=1e-9)
        assert table.s[1] == pytest.approx(2539.6825396825398, rel=1e-9)
        assert table.s[1] == table.s[2]

    def test_unpinned_uav_gets_zero_drain_time(self):
        inst = instance_from_parts((0.02,), ({0},), (10.0, 20.0))
        assert score_table(inst).h == (0.02, 0.0)


class TestHeuristic:
    def test_reference_energy_is_47(self):
        result = heuristic_schedule(reference_instance())
        assert result.energy == pytest.approx(47.0, rel=1e-9)
        assert result.method == "heuristic"

    def test_identical_flows_keep_identity_order(self):
        inst = instance_from_parts((0.02,) * 5, ({0, 1},) * 5, (30.0, 40.0))
        assert heuristic_schedule(inst).schedule.order == (0, 1, 2, 3, 4)

    def test_empty_instance(self):
        inst = instance_from_parts((), (), (10.0,))
        result = heuristic_schedule(inst)
        assert result.schedule.order == ()
        assert result.energy == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), shift=st.integers(-3, 6))
    def test_order_invariant_under_common_power_of_two_scaling(self, seed, shift):
        # power-of-two factors rescale every score exactly, so the argsort
        # (including ties) cannot move
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=7, max_m=5)
        factor = 2.0**shift
        scaled_powers = instance_from_parts(
            inst.times, tuple(f.retired_set for f in inst.flows), tuple(p * factor for p in inst.powers)
        )
        scaled_times = instance_from_parts(
            tuple(t * factor for t in inst.times),
            tuple(f.retired_set for f in inst.flows),
            inst.powers,
        )
        base = heuristic_schedule(inst).schedule.order
        assert heuristic_schedule(scaled_powers).schedule.order == base
        assert heuristic_schedule(scaled_times).schedule.order == base

    def test_order_invariant_under_generic_scaling_when_scores_are_separated(self):
        inst = reference_instance()
        base = heuristic_schedule(inst).schedule.order
        for factor in (3.7, 0.013, 211.0):
            scaled = instance_from_parts(
                inst.times,
                tuple(f.retired_set for f in inst.flows),
                tuple(p * factor for p in inst.powers),
            )
            assert heuristic_schedule(scaled).schedule.order == base


@st.composite
def shared_flow_instances(draw):
    """Instances whose flows share FlowSpec objects and delta sets, with tied scores and zero powers.

    Two objects, each with its own copy of the set, are made per drawn
    delta, so equal delta sets come from distinct objects; the first object
    is placed twice, and the rest are drawn from the pool with repeats.  Times are dyadic and powers come
    from three values, one of them 0.0 and placed at least once, so
    scores tie across distinct delta sets too.
    """
    m = draw(st.integers(1, 5))
    powers = [0.0] + draw(st.lists(st.sampled_from((0.0, 96.0, 160.0)), min_size=m - 1, max_size=m - 1))
    powers = draw(st.permutations(powers))
    deltas = draw(st.lists(st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=3))
    times = st.sampled_from((8 / 1024, 16 / 1024, 24 / 1024))
    pool = [FlowSpec(draw(times), frozenset(list(delta))) for delta in deltas for _ in range(2)]
    flows = pool[:2] + pool[:1] + draw(st.lists(st.sampled_from(pool), max_size=20))
    return ReplacementInstance(flows=tuple(draw(st.permutations(flows))), powers=tuple(powers))


class TestHeuristicKernel:
    """score_table sums once per distinct delta object and heuristic_schedule
    sorts with reverse=True; both must equal the plain per-flow loop exactly."""

    @settings(max_examples=200, deadline=None)
    @given(inst=shared_flow_instances())
    # flows 1 and 2 cross different UAVs of equal power and drain time, so
    # their scores are the same float; flow 0 scores 0.0
    @example(inst=instance_from_parts((0.02, 0.02, 0.02), ({2}, {0}, {1}), (50.0, 50.0, 0.0)))
    # a hand-built flow may hold its UAVs in a plain, unhashable set
    @example(inst=ReplacementInstance(flows=(FlowSpec(0.02, {0, 1}), FlowSpec(0.03, {1})), powers=(10.0, 20.0)))
    def test_scores_and_order_equal_the_plain_loop(self, inst):
        table, order = heuristic_reference(inst)
        assert score_table(inst) == table
        assert heuristic_schedule(inst).schedule.order == order

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), zero_powers=st.booleans())
    def test_random_instances_equal_the_plain_loop(self, seed, zero_powers):
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=12, max_m=6, dyadic=rng.random() < 0.5)
        if zero_powers:
            inst = with_some_powers_zeroed(rng, inst)
        table, order = heuristic_reference(inst)
        assert score_table(inst) == table
        assert heuristic_schedule(inst).schedule.order == order


class TestRandomSchedule:
    def test_single_flow(self):
        inst = instance_from_parts((0.02,), ({0},), (10.0,))
        assert random_schedule(inst, seed=0).schedule.order == (0,)

    def test_deterministic_given_seed(self):
        inst = reference_instance()
        assert random_schedule(inst, seed=9).schedule.order == random_schedule(inst, seed=9).schedule.order

    def test_order_is_the_one_random_shuffle_gives(self):
        # the swaps are drawn from getrandbits as Random.shuffle draws them;
        # the sweep's seeds are 64-bit blake2b digests, so large ones are included
        draw = random.Random(7).getrandbits
        seeds = [*range(60), *(draw(64) for _ in range(60))]
        for n in range(65):
            inst = instance_from_parts((0.02,) * n, ({0},) * n, (10.0,))
            for seed in seeds:
                expected = list(range(n))
                random.Random(seed).shuffle(expected)
                assert random_schedule(inst, seed).schedule.order == tuple(expected), (n, seed)

    def test_roughly_uniform_over_three_flows(self):
        inst = instance_from_parts((0.02, 0.03, 0.04), ({0}, {0}, {0}), (10.0,))
        counts = {}
        for seed in range(10_000):
            order = random_schedule(inst, seed=seed).schedule.order
            counts[order] = counts.get(order, 0) + 1
        assert len(counts) == 6
        for hits in counts.values():
            assert abs(hits / 10_000 - 1 / 6) < 0.02


class TestExactDp:
    def test_reference_optimum_and_schedule(self):
        result = exact_schedule_dp(reference_instance())
        assert result.energy == pytest.approx(46.0, rel=1e-9)
        assert result.schedule.order == (3, 0, 2, 1)

    def test_single_flow(self):
        inst = instance_from_parts((0.025,), ({0, 1},), (100.0, 60.0))
        result = exact_schedule_dp(inst)
        assert result.schedule.order == (0,)
        assert result.energy == pytest.approx(0.025 * 160.0, rel=1e-12)

    def test_cap_enforced(self):
        inst = instance_from_parts((0.02,) * 3, ({0},) * 3, (10.0,))
        with pytest.raises(InstanceTooLarge):
            exact_schedule_dp(inst, max_flows=2)

    def test_matches_brute_force_exactly_on_random_instances(self):
        rng = random.Random(20240607)
        for _ in range(60):
            inst = random_instance(rng, max_n=6, max_m=5)
            assert exact_schedule_dp(inst).energy == brute_force_schedule(inst).energy

    def test_matches_brute_force_on_continuous_times_too(self):
        # arbitrary float times: equal-cost ties may round apart across
        # different schedules, so compare with a tight relative tolerance
        rng = random.Random(20240608)
        for _ in range(40):
            inst = random_instance(rng, max_n=6, max_m=5, dyadic=False)
            dp = exact_schedule_dp(inst).energy
            oracle = brute_force_schedule(inst).energy
            assert dp == pytest.approx(oracle, rel=1e-12)


def with_some_powers_zeroed(rng: random.Random, inst):
    powers = tuple(0.0 if rng.random() < 0.4 else p for p in inst.powers)
    return instance_from_parts(inst.times, tuple(f.retired_set for f in inst.flows), powers)


def crossing_instance(rng: random.Random, n: int, m: int, dyadic: bool):
    """n flows on m UAVs, each flow crossing 1 to 3 of them; powers with a fractional part."""
    times = tuple(dyadic_time(rng) if dyadic else rng.uniform(0.005, 0.060) for _ in range(n))
    deltas = tuple(frozenset(rng.sample(range(m), rng.randint(1, min(3, m)))) for _ in range(n))
    powers = tuple(rng.uniform(20.0, 310.0) for _ in range(m))
    return instance_from_parts(times, deltas, powers)


def gain_kinds(inst):
    return {"constant" if required == 0 else "general" if required == GENERAL else "single"
            for _, required, _ in sched._gain_rules(inst)}


class TestExactDpKernel:
    """exact_schedule_dp against the plain loop over every flow of every state (helpers.exact_dp_reference)."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(0, 12),
        m=st.integers(1, 9),
        dyadic=st.booleans(),
        zero_powers=st.booleans(),
    )
    @example(seed=0, n=0, m=1, dyadic=False, zero_powers=False)
    @example(seed=1, n=1, m=3, dyadic=False, zero_powers=False)
    @example(seed=2, n=11, m=9, dyadic=False, zero_powers=True)
    @example(seed=3, n=12, m=5, dyadic=False, zero_powers=False)
    def test_order_and_energy_equal_the_plain_loop(self, seed, n, m, dyadic, zero_powers):
        rng = random.Random(seed)
        inst = crossing_instance(rng, n, m, dyadic)
        if zero_powers:
            inst = with_some_powers_zeroed(rng, inst)
        result = exact_schedule_dp(inst)
        assert (result.schedule.order, result.energy) == exact_dp_reference(inst)

    def test_every_gain_kind_against_the_plain_loop(self):
        # constant: flows 0 and 8 pin UAVs no other flow pins; single: flows
        # 1, 2, 4, 5 and 7 each cross one shared UAV; general: flow 3 crosses
        # UAVs 2, 3 and 4, and flow 6 UAV 5 (shared) and 6 (its own).  Odd
        # n, so the high half of the state has one bit more than the low
        deltas = ({0, 1}, {2}, {2}, {2, 3, 4}, {3}, {4}, {5, 6}, {5}, {7})
        for seed in range(20):
            rng = random.Random(seed)
            times = tuple(rng.uniform(0.005, 0.060) for _ in deltas)
            powers = tuple(rng.uniform(20.0, 310.0) for _ in range(8))
            inst = instance_from_parts(times, deltas, powers)
            assert gain_kinds(inst) == {"constant", "single", "general"}
            result = exact_schedule_dp(inst)
            assert (result.schedule.order, result.energy) == exact_dp_reference(inst)

    def test_constant_gain_is_summed_in_ascending_uav_order(self):
        # flow 0 alone pins UAVs 0..2: (0.1 + 0.2) + 0.3 = 0.6000000000000001 > 0.6,
        # flow 1's gain, so flow 0 goes first; a sum in another order would
        # give 0.6, a tie, and the tie rule would put flow 1 first
        inst = instance_from_parts((0.03125, 0.03125), ({0, 1, 2}, {3}), (0.1, 0.2, 0.3, 0.6))
        assert exact_schedule_dp(inst).schedule.order == (0, 1) == exact_dp_reference(inst)[0]

    def test_gain_lists_past_the_kept_bound_are_worked_out_again(self, monkeypatch):
        monkeypatch.setattr(sched, "_GAIN_LISTS_KEPT", 0)
        for seed in range(20):
            rng = random.Random(seed)
            inst = crossing_instance(rng, rng.randint(1, 11), rng.randint(1, 9), dyadic=False)
            result = exact_schedule_dp(inst)
            assert (result.schedule.order, result.energy) == exact_dp_reference(inst)

    def test_a_gain_that_depends_on_every_high_flow_against_the_plain_loop(self):
        # low flow j and high flow j + 6 pin UAV j alone, and flow 0 also
        # crosses every other UAV: each block meets a different set of rules
        deltas = [{0, 1, 2, 3, 4, 5}] + [{j} for j in range(1, 6)] + [{j} for j in range(6)]
        for seed in range(5):
            rng = random.Random(seed)
            times = tuple(rng.uniform(0.005, 0.060) for _ in deltas)
            powers = tuple(rng.uniform(20.0, 310.0) for _ in range(6))
            inst = instance_from_parts(times, deltas, powers)
            result = exact_schedule_dp(inst)
            assert (result.schedule.order, result.energy) == exact_dp_reference(inst)

    def test_handover_times_summing_past_the_largest_float_are_a_bad_value(self):
        # 3e308 s overflows to inf, and inf - inf or inf * 0.0 would be NaN
        inst = instance_from_parts((1e308,) * 3, ({0}, {0, 1}, {1}), (0.0, 5.0))
        for solve in (exact_schedule_dp, exact_schedule, exact_dp_reference):
            with pytest.raises(ValueError, match="handover times sum to inf s"):
                solve(inst)

    def test_every_energy_evaluation_refuses_handover_times_summing_past_the_largest_float(self):
        # the 0 W UAV would cost 0.0 * inf = NaN, and the total would be NaN or inf
        inst = instance_from_parts((1e308,) * 3, ({0}, {0, 1}, {1}), (0.0, 5.0))
        evaluations = (
            lambda: compute_energy(inst, Schedule(order=(0, 1, 2))),
            lambda: evaluate_order(inst, (2, 1, 0)),
            lambda: heuristic_schedule(inst),
            lambda: random_schedule(inst, seed=1),
            lambda: brute_force_schedule(inst),
        )
        for evaluate in evaluations:
            with pytest.raises(ValueError, match=r"^the flows' handover times sum to inf s, past the largest float$"):
                evaluate()

    def test_a_walk_back_without_a_match_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(sched, "_blocks", no_free_flows)
        inst = instance_from_parts((0.02,), ({0},), (10.0,))
        with pytest.raises(RuntimeError, match="state 0x0"):
            exact_schedule_dp(inst)


def netgen_instance(flows: int, seed: int):
    return sampled_instance(NetworkParams(), 1, flows, 6, seed)


class TestExactDpPinned:
    @pytest.mark.parametrize(
        "seed,order",
        [
            (18, (7, 10, 4, 13, 12, 11, 9, 8, 6, 5, 3, 2, 1, 0)),
            (99, (13, 8, 3, 11, 0, 4, 2, 9, 7, 5, 1, 14, 12, 10, 6)),
            (8, (15, 4, 14, 12, 10, 9, 8, 13, 11, 7, 2, 0, 6, 5, 3, 1)),
        ],
        ids=["n14", "n15", "n16"],
    )
    def test_netgen_orders_recorded_on_the_plain_loop(self, seed, order):
        # 40 sampled flows over 6 retiring UAVs of the default network (seed 1)
        inst = netgen_instance(40, seed)
        assert (inst.n, inst.m) == (len(order), 6)
        assert exact_schedule_dp(inst).schedule.order == order


class TestExactSchedule:
    """The smaller-side DP against the flow-subset DP and brute force."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), zero_powers=st.booleans())
    def test_energy_equals_flow_dp_and_brute_force(self, seed, zero_powers):
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=8, max_m=6)
        if zero_powers:
            inst = with_some_powers_zeroed(rng, inst)
        result = exact_schedule(inst)
        assert result.method == ("exact_dp" if inst.n <= inst.m else "exact_uav")
        assert result.energy == exact_schedule_dp(inst).energy == brute_force_schedule(inst).energy
        assert result.energy == compute_energy(inst, result.schedule).total_energy

    def test_uav_side_equals_flow_dp_beyond_brute_force(self):
        rng = random.Random(20240610)
        for k in range(40):
            inst = random_instance(rng, max_n=14, max_m=5, min_n=6)
            if k % 2:
                inst = with_some_powers_zeroed(rng, inst)
            result = exact_schedule(inst)
            assert result.method == "exact_uav"
            assert result.energy == exact_schedule_dp(inst).energy

    def test_flow_side_is_exact_schedule_dp_verbatim(self):
        rng = random.Random(20240611)
        for inst in [reference_instance()] + [random_instance(rng, max_n=6, max_m=6) for _ in range(40)]:
            if inst.n > inst.m:
                continue
            result, reference = exact_schedule(inst), exact_schedule_dp(inst)
            assert (result.schedule, result.method) == (reference.schedule, "exact_dp")

    def test_tie_rule_lowest_uav_finishes_last_blocks_ascending(self):
        # freeing either UAV first costs 5t x 100 W: UAV 0 (lower id) finishes
        # last, so UAV 1's block (flows 1, 2) goes first, then flow 0
        inst = instance_from_parts((0.03125,) * 3, ({0}, {1}, {0, 1}), (100.0, 100.0))
        result = exact_schedule(inst)
        assert result.schedule.order == (1, 2, 0)
        assert result.energy == 100.0 * 5 * 0.03125

    def test_continuous_times_match_flow_dp(self):
        rng = random.Random(20240612)
        for _ in range(30):
            inst = random_instance(rng, max_n=10, max_m=4, min_n=5, dyadic=False)
            assert exact_schedule(inst).energy == pytest.approx(exact_schedule_dp(inst).energy, rel=1e-12)

    def test_thirty_flows_on_five_uavs_solve(self):
        inst = synthetic_big_instance(30, 5, 3)
        result = exact_schedule(inst)
        assert result.method == "exact_uav"
        assert sorted(result.schedule.order) == list(range(30))
        assert result.energy <= heuristic_schedule(inst).energy

    def test_cap_applies_only_when_both_sides_exceed_it(self):
        # every UAV crossed, so none can be dropped
        for n, m in ((EXACT_CAP_DEFAULT + 2, EXACT_CAP_DEFAULT + 1), (EXACT_CAP_DEFAULT + 1, EXACT_CAP_DEFAULT + 2)):
            inst = instance_from_parts(
                (0.03125,) * n, [{i % m} | {j for j in range(m) if j % n == i} for i in range(n)], (100.0,) * m
            )
            assert all(inst.flow_sets)
            message = f"capped at {EXACT_CAP_DEFAULT} flows or crossed UAVs, instance has {n} flows and {m} crossed UAVs of {m}"
            with pytest.raises(InstanceTooLarge, match=re.escape(message)):
                exact_schedule(inst)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), pad=st.integers(1, 4), zero_powers=st.booleans())
    def test_inactive_uavs_past_the_cap_change_no_energy(self, seed, pad, zero_powers):
        # more flows than UAVs, with pad UAVs that no flow crosses spread among
        # them: past the cap on both sides, the UAVs no flow crosses are dropped
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=9, max_m=4, min_n=5)
        if zero_powers:
            inst = with_some_powers_zeroed(rng, inst)
        m = inst.m

        def padded_with(pad, draw_power):
            slots = sorted(rng.sample(range(m + pad), m))  # the new ids of the UAVs of inst
            powers = [draw_power() for _ in range(m + pad)]
            for j, k in enumerate(slots):
                powers[k] = inst.powers[j]
            return instance_from_parts(inst.times, [{slots[j] for j in f.retired_set} for f in inst.flows], powers)

        padded = padded_with(pad, lambda: float(rng.randint(20, 310)))
        assert min(padded.n, padded.m) > m
        result, reference = exact_schedule(padded, m), exact_schedule(inst, m)
        assert result.method == reference.method == "exact_uav"
        assert (result.schedule, result.energy) == (reference.schedule, reference.energy)
        assert result.energy == compute_energy(padded, result.schedule).total_energy
        # within the default cap: few enough pad UAVs that n > m still holds,
        # each at 0 W or not
        padded = padded_with(min(pad, inst.n - m - 1), lambda: rng.choice((0.0, float(rng.randint(20, 310)))))
        assert padded.n > padded.m <= EXACT_CAP_DEFAULT
        result, reference = exact_schedule(padded), exact_schedule(inst)
        assert (result.schedule, result.method, result.energy) == (reference.schedule, "exact_uav", reference.energy)
        assert result.energy == compute_energy(padded, result.schedule).total_energy

    def test_an_instance_past_the_cap_with_few_crossed_uavs_is_solved(self):
        # the flow DP alone refuses it; HiGHS on the full ILP finds 432.1008648497594
        inst = sampled_instance(*PAST_BOTH_CAPS)
        assert (inst.n, inst.m, sum(map(bool, inst.flow_sets))) == (23, 26, 10)
        with pytest.raises(InstanceTooLarge):
            exact_schedule_dp(inst)
        result = exact_schedule(inst)
        assert (result.method, result.energy) == ("exact_uav", 432.10086484975943)
        assert result.energy == compute_energy(inst, result.schedule).total_energy

    def test_paper_scale_instance_recorded_before_the_contraction(self):
        # 37 kept flows over 20 retiring UAVs of an 80-UAV network, 9 of them
        # crossed; recorded when the UAV DP still walked all 2^20 UAV sets
        inst = sampled_instance(NetworkParams(num_uavs=80, area_side=210.0), 1, 100, 20, 120)
        assert (inst.n, inst.m, sum(map(bool, inst.flow_sets))) == (37, 20, 9)
        result = exact_schedule(inst)
        assert result.method == "exact_uav"
        assert result.schedule.order == (
            9, 7, 22, 23, 26, 4, 8, 19, 25, 27, 28, 0, 12, 15, 18, 21, 30, 31, 2,
            10, 11, 14, 34, 5, 6, 1, 3, 13, 16, 20, 24, 29, 32, 36, 17, 35, 33,
        )
        assert result.energy.hex() == "0x1.d2e7689680af9p+8"

    def test_uav_side_cost_does_not_grow_with_the_flow_count(self):
        # 20k flows on 16 UAVs: a DP that walked the flows once per UAV
        # subset would take ~10^9 steps; T(U) from the subset sum takes none
        inst = synthetic_big_instance(20_000, 16, 6)
        result = exact_schedule(inst)
        assert result.method == "exact_uav"
        assert sorted(result.schedule.order) == list(range(20_000))
        assert result.energy <= heuristic_schedule(inst).energy


class TestBruteForce:
    def test_reference_optimum(self):
        result = brute_force_schedule(reference_instance())
        assert result.energy == pytest.approx(46.0, rel=1e-9)
        assert result.schedule.order == (3, 0, 1, 2)  # lexicographically smallest of the two optima

    def test_empty_instance(self):
        inst = instance_from_parts((), (), (10.0,))
        result = brute_force_schedule(inst)
        assert result.schedule.order == ()
        assert result.energy == 0.0

    def test_heavier_uav_freed_first(self):
        # two equal-time flows pinning disjoint UAVs: freeing the hungrier
        # hover first is strictly cheaper
        inst = instance_from_parts((0.02, 0.02), ({0}, {1}), (10.0, 200.0))
        assert brute_force_schedule(inst).schedule.order == (1, 0)

    def test_cap_enforced(self):
        inst = instance_from_parts((0.02,) * 9, ({0},) * 9, (10.0,))
        with pytest.raises(InstanceTooLarge):
            brute_force_schedule(inst)


class TestSolverResultContracts:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_stored_energy_matches_independent_reevaluation(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=6, max_m=5)
        for result in (
            heuristic_schedule(inst),
            random_schedule(inst, seed),
            exact_schedule_dp(inst),
            brute_force_schedule(inst),
        ):
            assert result.energy == compute_energy(inst, result.schedule).total_energy

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_heuristic_never_beats_the_optimum(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=6, max_m=5)
        exact = exact_schedule_dp(inst).energy
        assert heuristic_schedule(inst).energy >= exact >= 0.0
        assert random_schedule(inst, seed).energy >= exact


def synthetic_big_instance(n: int, m: int, seed: int):
    rng = random.Random(seed)
    times = tuple(dyadic_time(rng) for _ in range(n))
    deltas = tuple(frozenset(rng.sample(range(m), rng.randint(1, min(3, m)))) for _ in range(n))
    powers = tuple(float(rng.randint(20, 310)) for _ in range(m))
    return instance_from_parts(times, deltas, powers)


class TestHeuristicScaling:
    def test_doubling_n_scales_near_linearly(self):
        # near-linearithmic cost: doubling the flow count should not much
        # more than double the wall time
        small = synthetic_big_instance(10_000, 50, 1)
        large = synthetic_big_instance(20_000, 50, 2)
        heuristic_schedule(small)  # warm-up
        # each sample times four calls back to back, and every large sample
        # directly follows a small one, so a stretch of host slowdown hits
        # both sides of a pair; the median drops pairs that straddle one
        ratios = []
        for _ in range(7):
            t_small = sum(heuristic_schedule(small).wall_time for _ in range(4))
            t_large = sum(heuristic_schedule(large).wall_time for _ in range(4))
            ratios.append(t_large / t_small)
        assert statistics.median(ratios) <= 2.5
