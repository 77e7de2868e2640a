"""Tests for the instance model, rule timing, and energy evaluation."""

import dataclasses
from itertools import permutations
import json
import math
import random
import re
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched.model import (
    DEFAULT_TIMINGS,
    FlowSpec,
    ReplacementInstance,
    RuleCounts,
    RuleTimings,
    Schedule,
    build_instance,
    compute_energy,
    evaluate_order,
    handover_time,
    instance_from_json,
    instance_from_parts,
    instance_to_json,
    rule_counts_from_route,
)
from uavsched import model, netgen
from uavsched.netgen import NetworkParams, generate_network, sample_flow_routes, sample_retired_set
from uavsched.sched import brute_force_schedule

from helpers import (
    ROUTED_EXAMPLE_ROUTES,
    ROUTED_EXAMPLE_RETIRED,
    energy_reference,
    reference_instance,
    random_instance,
    sampling_exhausted,
)


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestHandoverTime:
    def test_single_relay_replacement_takes_20_ms(self):
        assert rel_close(handover_time(RuleCounts(1, 1, 1), DEFAULT_TIMINGS), 0.020)

    def test_three_relay_run_takes_40_ms(self):
        assert rel_close(handover_time(RuleCounts(3, 3, 1), DEFAULT_TIMINGS), 0.040)

    def test_no_rule_changes_is_free(self):
        assert handover_time(RuleCounts(0, 0, 0), DEFAULT_TIMINGS) == 0.0

    def test_counts_must_be_non_negative_integers(self):
        with pytest.raises(ValueError, match="r_del must be a non-negative integer, got -1"):
            RuleCounts(-1, 0, 0)
        with pytest.raises(ValueError, match="r_del must be a non-negative integer, got 1.0"):
            RuleCounts(1.0, 0, 0)

    def test_timings_must_be_positive(self):
        with pytest.raises(ValueError, match="tau_del must be a positive finite duration, got 0.0"):
            RuleTimings(tau_del=0.0)
        with pytest.raises(ValueError, match="tau_mod must be a positive finite duration, got inf"):
            RuleTimings(tau_mod=float("inf"))


class TestRuleCountsFromRoute:
    def test_run_of_three_retired(self):
        assert rule_counts_from_route([10, 1, 2, 3, 11], {1, 2, 3}) == RuleCounts(3, 3, 1)

    def test_single_retired_relay(self):
        assert rule_counts_from_route(["a", "b", "c"], {"b"}) == RuleCounts(1, 1, 1)

    def test_two_separate_runs(self):
        assert rule_counts_from_route(["a", "b", "c", "d", "e"], {"b", "d"}) == RuleCounts(2, 2, 2)

    def test_retired_endpoint_rejected(self):
        with pytest.raises(ValueError, match="route endpoints 1/3 may not be retiring UAVs"):
            rule_counts_from_route([1, 2, 3], {1})
        with pytest.raises(ValueError, match="route endpoints 1/3 may not be retiring UAVs"):
            rule_counts_from_route([1, 2, 3], {3})

    def test_degenerate_routes_rejected(self):
        with pytest.raises(ValueError):
            rule_counts_from_route([1], {2})
        with pytest.raises(ValueError):
            rule_counts_from_route([1, 2, 1], {2})


class TestBuildInstance:
    def test_reference_network_keeps_four_of_six_flows(self):
        # powers name the UAVs: UAV j of the instance is the j-th retiring id in ascending order
        build = build_instance(ROUTED_EXAMPLE_ROUTES, [(u, 100.0 + u) for u in reversed(ROUTED_EXAMPLE_RETIRED)])
        inst = build.instance
        assert (inst.n, inst.m) == (4, 5)
        assert inst.powers == (100.0, 101.0, 102.0, 103.0, 104.0)
        assert inst.times == (0.040, 0.030, 0.030, 0.030)
        assert [set(f.retired_set) for f in inst.flows] == [{0, 1, 2}, {0, 3}, {2, 3}, {3, 4}]
        assert [set(u.flow_set) for u in inst.uavs] == [{0, 1}, {0}, {0, 2}, {1, 2, 3}, {3}]

    def test_no_flow_touches_retired_set(self):
        build = build_instance([(0, (5, 6)), (1, (7, 8, 9))], [(1, 50.0), (2, 75.0)])
        assert build.instance.n == 0
        assert build.instance.m == 2
        report = compute_energy(build.instance, Schedule(()))
        assert report.completion_times == (0.0, 0.0)
        assert report.total_energy == 0.0

    def test_singleton(self):
        build = build_instance([(7, (10, 3, 11))], [(3, 120.0)])
        inst = build.instance
        assert (inst.n, inst.m) == (1, 1)
        assert inst.flows[0].retired_set == frozenset({0})
        assert inst.uavs[0].flow_set == frozenset({0})
        assert inst.powers == (120.0,)

    def test_powers_follow_ascending_original_id(self):
        build = build_instance([(0, (10, 3, 7, 11)), (1, (12, 9, 13))], [(9, 90.0), (3, 30.0), (7, 70.0)])
        assert build.instance.powers == (30.0, 70.0, 90.0)
        assert [sorted(f.retired_set) for f in build.instance.flows] == [[0, 1], [2]]

    def test_empty_input_gives_the_empty_instance(self):
        build = build_instance([], [])
        assert build.instance == build_instance([(0, (5, 6, 7))], []).instance
        assert (build.instance.n, build.instance.m) == (0, 0)

    def test_zero_retired_drops_everything(self):
        build = build_instance([(0, (5, 6, 7))], [])
        assert build.instance.n == 0 and build.instance.m == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build_instance([(0, (5, 1, 6)), (0, (7, 1, 8))], [(1, 10.0)])
        with pytest.raises(ValueError):
            build_instance([(0, (5, 1, 6))], [(1, 10.0), (1, 20.0)])

    def test_endpoint_retired_propagates(self):
        with pytest.raises(ValueError, match="route endpoints 1/6 may not be retiring UAVs"):
            build_instance([(0, (1, 5, 6))], [(1, 10.0)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_duality_holds_for_random_routes(self, data):
        node_count = data.draw(st.integers(6, 14))
        retired = data.draw(st.sets(st.integers(0, node_count - 1), min_size=1, max_size=4))
        in_service = sorted(set(range(node_count)) - retired)
        if len(in_service) < 2:
            return
        routes = []
        for fid in range(data.draw(st.integers(1, 6))):
            ends = data.draw(st.permutations(in_service)).copy()[:2]
            middle = data.draw(
                st.lists(
                    st.sampled_from(sorted(set(range(node_count)) - set(ends))),
                    max_size=4,
                    unique=True,
                )
            )
            routes.append((fid, tuple([ends[0], *middle, ends[1]])))
        build = build_instance(routes, [(u, 10.0 * (u + 1)) for u in sorted(retired)])
        inst = build.instance
        for i, flow in enumerate(inst.flows):
            for j in flow.retired_set:
                assert i in inst.uavs[j].flow_set
        for uav in inst.uavs:
            for i in uav.flow_set:
                assert uav.id in inst.flows[i].retired_set


def stored_routes(cache) -> set:
    """The routes a build_instance cache holds, over its (id order, dense id map, routes, types) entries."""
    return {route for _, _, routes, _ in cache.values() for route in routes}


# at 5e307 s per rule one retiring relay takes 1.5e308 s, and two in one
# run (such as 1, 2) take 2.5e308 s, which is inf
HUGE_TIMINGS = RuleTimings(5e307, 5e307, 5e307)
TWO_UAVS = [(1, 10.0), (2, 20.0)]


class TestRouteCache:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_uavs=st.integers(8, 30), data=st.data())
    def test_one_cache_across_retiring_sets_and_timings_gives_the_uncached_builds(self, seed, num_uavs, data):
        # one list of [id, power] items, changed in place for every call,
        # holds one of three sets in ascending or descending id, its powers
        # as ints or as equal floats (10 and 10.0 print apart)
        rng = random.Random(seed)
        net = generate_network(NetworkParams(num_uavs=num_uavs, area_side=150.0), seed=seed)
        sets = [sorted(sample_retired_set(net, rng.randint(0, 6), rng)) for _ in range(3)]
        uavs, cache, first = [], {}, {}
        for _ in range(6):
            retired = data.draw(st.sampled_from(sets))
            timings = data.draw(st.sampled_from([DEFAULT_TIMINGS, RuleTimings(0.003, 0.007, 0.011)]))
            as_int = data.draw(st.booleans())
            items = [[u, round(net.hover_powers[u]) if as_int else float(round(net.hover_powers[u]))] for u in retired]
            if data.draw(st.booleans()):
                items.reverse()
            del uavs[len(items):]
            for k, item in enumerate(items):
                if k < len(uavs):
                    uavs[k][:] = item
                else:
                    uavs.append(item)
            try:
                with patch.object(netgen, "MAX_ROUTE_ATTEMPTS", 50):
                    routes = sample_flow_routes(net, frozenset(retired), rng.randint(1, 40), rng)
            except ValueError as exc:
                if not sampling_exhausted(exc):
                    raise
                return
            # a route given as a list shares its entry with the same route as a tuple
            routes = [(fid, list(route) if fid % 3 == 0 else route) for fid, route in routes]
            cached = build_instance(routes, uavs, timings, cache=cache).instance
            fresh = build_instance(routes, uavs, timings).instance
            assert cached == fresh
            assert json.dumps(instance_to_json(cached)) == json.dumps(instance_to_json(fresh))
            entry = (tuple(map(tuple, uavs)), timings)
            for flow in cached.flows:  # within an entry, flows of one type are one object
                assert first.setdefault((entry, flow), flow) is flow

    @pytest.mark.parametrize(
        "flows,uavs,message",
        [
            ([(0, (5, 1, 6))], [(1, 10.0), (2, -3.0)], "UAV 1: hover_power must be non-negative, got -3.0"),
            ([(0, (5, 1, 6))], [(2, 20.0), (1, math.nan)], "UAV 0: hover_power must be non-negative, got nan"),
            ([(0, (5, 1, 6))], [(2, 20.0), (1, 10.0), (2, 20.0)], "retiring UAV ids must be unique, got [1, 2, 2]"),
            (
                [(0, (5, 1, 6)), (1, (7, 2, 7))],
                TWO_UAVS,
                "flow 1: route must contain at least two distinct nodes, got [7, 2, 7]",
            ),
            (
                [(0, (5, 1, 6)), (1, (7, 8, 7))],
                TWO_UAVS,
                "flow 1: route must contain at least two distinct nodes, got [7, 8, 7]",
            ),
            ([(0, (5, 1, 6)), (1, (2, 7, 8))], TWO_UAVS, "flow 1: route endpoints 2/8 may not be retiring UAVs"),
            ([(0, (5, 1, 6)), (1, (7, 1, 2, 8))], TWO_UAVS, "flow 1 needs a positive handover time, got inf"),
            ([(0, (5, 1, 6)), (0, (5, 1, 6))], TWO_UAVS, "duplicate flow id 0"),
        ],
        ids=[
            "negative-power", "nan-power", "repeated-uav-id", "repeated-node", "repeated-node-missing-the-set",
            "retired-endpoint", "type-whose-time-is-inf", "duplicate-flow-id",
        ],
    )
    def test_a_refused_call_leaves_a_cache_that_builds_as_a_fresh_one(self, flows, uavs, message):
        # refused twice, so nothing the first refusal stored lets it pass; a
        # good call on the same ids comes first, so a bad power is checked
        # although its ids have an entry
        good = [(0, (7, 2, 8)), (1, (5, 1, 6)), (2, (5, 6)), (3, [9, 2, 4])]
        cache = {}
        build_instance(good, TWO_UAVS, HUGE_TIMINGS, cache=cache)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build_instance(flows, uavs, HUGE_TIMINGS, cache=cache)
        built = build_instance(good, TWO_UAVS, HUGE_TIMINGS, cache=cache).instance
        assert built == build_instance(good, TWO_UAVS, HUGE_TIMINGS, cache={}).instance
        assert built.times == (handover_time(RuleCounts(1, 1, 1), HUGE_TIMINGS),) * 3
        assert (7, 2, 7) not in stored_routes(cache) and (7, 8, 7) not in stored_routes(cache)

    @pytest.mark.parametrize("item", [(1,), (1, 10.0, 3)], ids=["one-value", "three-values"])
    def test_an_item_that_is_no_id_power_pair_is_refused(self, item):
        cache = {}
        for _ in range(2):
            with pytest.raises(ValueError, match="values to unpack"):
                build_instance([(0, (5, 1, 6))], [(2, 20.0), item], cache=cache)

    def test_each_call_keeps_its_own_powers(self):
        # 10 == 10.0, so both find one cache entry, but the instance JSON
        # prints them apart; a cached build must print as the uncached one
        routes = [(0, (5, 1, 6))]
        cache = {}
        for uavs in ([(1, 10)], [(1, 10.0)], ((1, 10),), [[1, 10.0]]):
            cached = build_instance(routes, uavs, cache=cache).instance
            fresh = build_instance(routes, uavs).instance
            assert json.dumps(instance_to_json(cached)) == json.dumps(instance_to_json(fresh))

    def test_routes_that_derive_equal_flows_share_one_flow_spec(self):
        # each route crosses UAV 1 alone, as one run of one relay
        cache = {}
        first = build_instance([(0, (5, 1, 6)), (1, (7, 1, 8)), (2, (7, 2, 8))], TWO_UAVS, cache=cache).instance
        assert first.flows[1] is first.flows[0]
        assert first.flows[2] is not first.flows[0]
        second = build_instance([(3, (9, 1, 4)), (4, (5, 1, 6))], TWO_UAVS, cache=cache).instance
        assert second.flows[0] is first.flows[0]
        assert second.flows[1] is first.flows[0]

    def test_a_repeated_route_shares_one_flow_spec(self):
        cache = {}
        first = build_instance([(0, (5, 1, 6)), (1, (7, 2, 1, 8))], TWO_UAVS, cache=cache).instance
        second = build_instance([(4, (7, 2, 1, 8)), (9, (5, 6)), (3, [5, 1, 6])], TWO_UAVS, cache=cache).instance
        assert second.flows[0] is first.flows[1]
        assert second.flows[1] is first.flows[0]

    def test_an_equal_set_in_another_order_or_under_other_timings_has_its_own_flow_specs(self):
        routes = [(0, (5, 1, 6)), (1, (7, 2, 8)), (2, (7, 2, 1, 8))]
        cache = {}
        first = build_instance(routes, TWO_UAVS, cache=cache).instance
        for uavs, timings in [(TWO_UAVS[::-1], DEFAULT_TIMINGS), (TWO_UAVS, RuleTimings(tau_del=0.004))]:
            other = build_instance(routes, uavs, timings, cache=cache).instance
            assert other == build_instance(routes, uavs, timings).instance
            assert not any(a is b for a, b in zip(other.flows, first.flows))
        again = build_instance(routes, [list(item) for item in TWO_UAVS], cache=cache).instance
        assert all(a is b for a, b in zip(again.flows, first.flows))

    def test_a_route_that_misses_the_retiring_set_is_never_stored(self):
        cache = {}
        # first sight and repeats in one call, then in a later call
        for flows, kept in [([(0, (5, 6)), (1, (5, 1, 6)), (2, (5, 6)), (3, [5, 6])], 1), ([(0, (5, 6)), (1, (7, 8, 9))], 0)]:
            assert build_instance(flows, TWO_UAVS, cache=cache).instance.n == kept
        assert stored_routes(cache) == {(5, 1, 6)}

    @pytest.mark.parametrize(
        "flows,uavs,message",
        [
            ([(0, (7, 1, 2, 8)), (0, (5, 5))], [(1, -1.0), (2, 20.0)], "UAV 0: hover_power must be non-negative"),
            ([(0, (5, 1, 6)), (1, (7, 1, 2, 8)), (1, (5, 5))], TWO_UAVS, "flow 1 needs a positive handover time"),
            ([(0, (5, 1, 6)), (0, (7, 1, 2, 8)), (2, (5, 5))], TWO_UAVS, "duplicate flow id 0"),
            ([(0, (5, 1, 6)), (1, (5, 5)), (1, (7, 1, 2, 8))], TWO_UAVS, "flow 1: route must contain"),
            ([(0, (5, 6)), (7, (1, 5)), (8, (7, 1, 2, 8))], TWO_UAVS, "flow 7: route endpoints 1/5"),
            ([(0, (5, 6)), (7, (7, 1, 2, 8)), (7, (5, 5))], TWO_UAVS, "flow 0 needs a positive handover time"),
        ],
        ids=["power", "type-before-a-later-id", "id-before-a-later-type", "route-before-a-later-type",
             "endpoint-before-a-later-type", "type-at-its-kept-index"],
    )
    def test_the_first_fault_in_replacement_instance_order_is_named(self, flows, uavs, message):
        # the powers, then flow by flow its id, its route and its new type,
        # named at the flow's kept index; (7, 1, 2, 8)'s handover time is inf
        shared = {}
        for cache in (None, shared, shared):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                build_instance(flows, uavs, HUGE_TIMINGS, cache=cache)


class TestInstanceInvariants:
    def test_empty_delta_rejected(self):
        with pytest.raises(ValueError, match="flow 0 crosses no retiring UAV and does not belong in an instance"):
            instance_from_parts((0.02,), (set(),), (10.0,))

    def test_non_positive_time_rejected(self):
        with pytest.raises(ValueError, match="flow 0 needs a positive handover time, got 0.0"):
            instance_from_parts((0.0,), ({0},), (10.0,))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="UAV 0: hover_power must be non-negative, got -1.0"):
            instance_from_parts((0.02,), ({0},), (-1.0,))

    # each distinct FlowSpec object is checked once; these pin that a
    # repeated object is still checked, and named at its first index

    def test_a_repeated_bad_object_is_named_at_its_first_index(self):
        good = FlowSpec(0.02, frozenset({0}))
        bad = FlowSpec(0.02, frozenset({0, 5}))
        with pytest.raises(ValueError, match=re.escape("flow 1 references unknown UAV ids [0, 5]")):
            ReplacementInstance(flows=(good, bad, good, bad), powers=(10.0, 20.0))

    def test_a_repeated_object_is_checked_against_the_instance_timings(self):
        # valid under the default timings, 20 ms off under doubled ones
        flow = FlowSpec(0.02, frozenset({0}), RuleCounts(1, 1, 1))
        assert ReplacementInstance(flows=(flow, flow), powers=(10.0,)).n == 2
        doubled = RuleTimings(0.010, 0.010, 0.020)
        with pytest.raises(ValueError, match=re.escape("flow 0: handover_time 0.02 does not match its rule counts")):
            ReplacementInstance(flows=(flow, flow), powers=(10.0,), timings=doubled)

    @settings(max_examples=150, deadline=None)
    @given(
        pool=st.lists(
            st.builds(
                FlowSpec,
                st.sampled_from((0.02, 0.04, 0.0, -0.01, math.inf)),
                st.frozensets(st.integers(-1, 3), max_size=3),
                st.one_of(st.none(), st.builds(RuleCounts, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))),
            ),
            min_size=1,
            max_size=4,
        ),
        picks=st.lists(st.integers(0, 3), max_size=10),
        m=st.integers(0, 3),
    )
    def test_repeated_objects_build_as_fresh_copies_do(self, pool, picks, m):
        # the same instance, or the same error message, either way
        shared = tuple(pool[k % len(pool)] for k in picks)
        fresh = tuple(dataclasses.replace(flow) for flow in shared)
        outcomes = []
        for flows in (shared, fresh):
            try:
                outcomes.append(ReplacementInstance(flows=flows, powers=(10.0,) * m))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestComputeEnergy:
    def test_reference_schedule_energies(self):
        inst = reference_instance()
        assert rel_close(compute_energy(inst, Schedule((1, 0, 2, 3))).total_energy, 50.0)
        assert rel_close(compute_energy(inst, Schedule((2, 1, 3, 0))).total_energy, 57.0)

    def test_single_flow_is_one_product(self):
        inst = instance_from_parts((0.020,), ({0},), (100.0,))
        assert rel_close(compute_energy(inst, Schedule((0,))).total_energy, 2.0)

    def test_finish_and_completion_times(self):
        inst = reference_instance()
        report = compute_energy(inst, Schedule((1, 0, 2, 3)))
        assert report.flow_finish_times == pytest.approx((0.07, 0.03, 0.10, 0.13))
        assert report.completion_times == pytest.approx((0.07, 0.07, 0.10, 0.13, 0.13))

    def test_rejects_non_permutations(self):
        inst = reference_instance()
        for bad in ((0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 4), (0, 1, 2, 3, 3)):
            with pytest.raises(ValueError, match=re.escape(f"schedule {bad!r} is not a permutation of 0..3")):
                compute_energy(inst, Schedule(bad))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_energy_depends_only_on_completion_sets(self, seed):
        # permuting flows between the completion points of the pinned UAVs
        # leaves every completion set, hence the energy, unchanged
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=7, max_m=5)
        order = list(range(inst.n))
        rng.shuffle(order)
        position = {f: p for p, f in enumerate(order)}
        boundaries = sorted(
            {max(members, key=position.__getitem__) for members in inst.flow_sets if members},
            key=position.__getitem__,
        )
        boundary_positions = [position[f] for f in boundaries]
        shuffled = list(order)
        start = 0
        for bp in boundary_positions:
            segment = shuffled[start:bp]
            rng.shuffle(segment)
            shuffled[start:bp] = segment
            start = bp + 1
        e1 = compute_energy(inst, Schedule(tuple(order))).total_energy
        e2 = compute_energy(inst, Schedule(tuple(shuffled))).total_energy
        assert rel_close(e1, e2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), bump=st.floats(0.001, 0.2))
    def test_energy_monotone_in_handover_times(self, seed, bump):
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=6, max_m=5)
        order = tuple(rng.sample(range(inst.n), inst.n))
        target = rng.randrange(inst.n)
        bumped = instance_from_parts(
            tuple(t + bump if i == target else t for i, t in enumerate(inst.times)),
            tuple(f.retired_set for f in inst.flows),
            inst.powers,
        )
        before = compute_energy(inst, Schedule(order)).total_energy
        after = compute_energy(bumped, Schedule(order)).total_energy
        assert after >= before - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_zero_powers_mean_zero_energy(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, max_n=6, max_m=5)
        zeroed = instance_from_parts(
            inst.times, tuple(f.retired_set for f in inst.flows), (0.0,) * inst.m
        )
        order = tuple(rng.sample(range(inst.n), inst.n))
        assert compute_energy(zeroed, Schedule(order)).total_energy == 0.0

    def test_an_energy_past_the_largest_float_is_refused_where_other_orders_stay_finite(self):
        # flow 0: 1e305 s over a 1000 W UAV; flow 1: 1.7e308 s over a 0 W UAV.
        # Both finish times stay finite in either order, but flow 0 last
        # finishes at 1.701e308 s, and 1000 W times that is inf
        inst = instance_from_parts((1e305, 1.7e308), ({0}, {1}), (1000.0, 0.0))
        assert evaluate_order(inst, (1, 0)) == math.inf
        with pytest.raises(ValueError, match=re.escape("the schedule's hovering energy sums to inf J, past the largest float")):
            compute_energy(inst, Schedule((1, 0)))
        result = brute_force_schedule(inst)
        assert result.schedule.order == (0, 1)
        assert result.energy == compute_energy(inst, Schedule((0, 1))).total_energy == 1000.0 * 1e305

    def test_evaluate_order_matches_report(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = random_instance(rng)
            order = tuple(rng.sample(range(inst.n), inst.n))
            assert evaluate_order(inst, order) == compute_energy(inst, Schedule(order)).total_energy

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_the_flow_side_pass_gives_the_bits_of_the_uav_side_loop(self, data):
        # 0 W UAVs, UAVs no flow crosses, equal times, and times absorbed
        # by an earlier 1e16 s (1e16 + 1.0 == 1e16), so that finish times
        # tie along the order; inexact products make the summing order show
        m = data.draw(st.integers(1, 6), label="m")
        crossed = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1), label="crossed"))
        n = data.draw(st.integers(1, 8), label="n")
        times = data.draw(st.lists(st.sampled_from([1e16, 1.0, 0.02, 0.005, 3.0, 0.013, 0.0071]), min_size=n, max_size=n), label="times")
        deltas = data.draw(st.lists(st.sets(st.sampled_from(crossed), min_size=1), min_size=n, max_size=n), label="deltas")
        powers = data.draw(st.lists(st.sampled_from([0.0, 0.1, 37.3, 100.0, 310.0]), min_size=m, max_size=m), label="powers")
        inst = instance_from_parts(times, deltas, powers)
        order = tuple(data.draw(st.permutations(range(n)), label="order"))
        finish, completions, total = energy_reference(inst, order)
        report = compute_energy(inst, Schedule(order))
        assert list(map(float.hex, report.flow_finish_times)) == list(map(float.hex, finish))
        assert list(map(float.hex, report.completion_times)) == list(map(float.hex, completions))
        assert report.total_energy.hex() == evaluate_order(inst, order).hex() == total.hex()
        assert "flow_sets" not in inst.__dict__

    def test_the_flow_side_pass_still_refuses_times_summing_past_the_largest_float(self):
        # the sum reaches inf at the second flow and stays there
        inst = instance_from_parts((1.7e308, 1.7e308, 1.0), ({0}, {0, 1}, {1}), (0.0, 5.0))
        message = r"^the flows' handover times sum to inf s, past the largest float$"
        for order in permutations(range(3)):
            with pytest.raises(ValueError, match=message):
                compute_energy(inst, Schedule(order))
            with pytest.raises(ValueError, match=message):
                evaluate_order(inst, order)


class TestInstanceJson:
    def test_round_trip_preserves_everything(self):
        build = build_instance(ROUTED_EXAMPLE_ROUTES, [(u, 100.0) for u in ROUTED_EXAMPLE_RETIRED])
        doc = instance_to_json(build.instance)
        again = instance_from_json(doc)
        assert again == build.instance

    def test_time_only_form(self):
        doc = {
            "timings": {"tau_del_ms": 5, "tau_ins_ms": 5, "tau_mod_ms": 10},
            "flows": [{"id": 0, "t_ms": 40, "delta": [0, 1, 2]}, {"id": 1, "t_ms": 30, "delta": [0]}],
            "uavs": [{"id": 0, "p_watts": 100.0}, {"id": 1, "p_watts": 50.0}, {"id": 2, "p_watts": 25.0}],
        }
        inst = instance_from_json(doc)
        assert inst.times == (0.040, 0.030)
        assert inst.uavs[1].flow_set == frozenset({0})

    def test_rule_counts_form(self):
        doc = {
            "flows": [{"id": 0, "rule_counts": {"r_del": 1, "r_ins": 1, "r_mod": 1}, "delta": [0]}],
            "uavs": [{"id": 0, "p_watts": 10.0}],
        }
        assert instance_from_json(doc).times == (0.020,)

    def test_entry_order_in_the_file_does_not_matter(self):
        doc = {
            "flows": [{"id": 1, "t_ms": 30, "delta": [1]}, {"id": 0, "t_ms": 40, "delta": [0]}],
            "uavs": [{"id": 1, "p_watts": 20.0}, {"id": 0, "p_watts": 10.0}],
        }
        inst = instance_from_json(doc)
        assert inst.times == (0.040, 0.030)
        assert inst.powers == (10.0, 20.0)

    def test_contradictory_time_and_counts_rejected(self):
        doc = {
            "flows": [
                {"id": 0, "t_ms": 25, "rule_counts": {"r_del": 1, "r_ins": 1, "r_mod": 1}, "delta": [0]}
            ],
            "uavs": [{"id": 0, "p_watts": 10.0}],
        }
        with pytest.raises(ValueError):
            instance_from_json(doc)

    def test_missing_pieces_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"flows": [{"id": 0, "delta": [0]}], "uavs": [{"id": 0, "p_watts": 1.0}]})
        with pytest.raises(ValueError):
            instance_from_json({"flows": [{"id": 0, "t_ms": 10, "delta": []}], "uavs": []})
        with pytest.raises(ValueError):
            instance_from_json([1, 2, 3])

    @pytest.mark.parametrize(
        "flow,uav",
        [
            ({"id": 0, "rule_counts": {"r_del": 1, "r_mod": 1}, "delta": [0]}, {"id": 0, "p_watts": 1.0}),
            ({"id": 0, "rule_counts": [1, 1, 1], "delta": [0]}, {"id": 0, "p_watts": 1.0}),
            ({"id": 0, "t_ms": None, "delta": [0]}, {"id": 0, "p_watts": 1.0}),
            ({"id": None, "t_ms": 10, "delta": [0]}, {"id": 0, "p_watts": 1.0}),
            ({"id": 0, "t_ms": 10, "delta": [[0]]}, {"id": 0, "p_watts": 1.0}),
            ({"id": 0, "t_ms": 10, "delta": [0]}, {"id": 0, "p_watts": None}),
        ],
    )
    def test_missing_or_mistyped_fields_raise_value_error(self, flow, uav):
        with pytest.raises(ValueError, match=r"#0"):
            instance_from_json({"flows": [flow], "uavs": [uav]})

    @pytest.mark.parametrize(
        "flows,uavs,message",
        [
            ([{"id": 0, "t_ms": 10, "delta": [0]}], [{"id": 0, "p_watts": 1.0}, {"id": 0, "p_watts": 2.0}], "duplicate uav id"),
            ([{"id": 0, "t_ms": 10, "delta": [0]}], [{"id": 0, "p_watts": 1.0}, {"id": 2, "p_watts": 2.0}], "out of range"),
            (
                [{"id": 0, "t_ms": 10, "delta": [0]}, {"id": 0, "t_ms": 20, "delta": [0]}],
                [{"id": 0, "p_watts": 1.0}],
                r"flow ids must be dense 0\.\.1, found 0 at index 1",
            ),
            (
                [{"id": 2, "t_ms": 10, "delta": [0]}, {"id": 0, "t_ms": 20, "delta": [0]}],
                [{"id": 0, "p_watts": 1.0}],
                r"flow ids must be dense 0\.\.1, found 2 at index 1",
            ),
            ([{"id": 0, "t_ms": 10, "delta": [0, 1]}], [{"id": 0, "p_watts": 1.0}], "unknown UAV ids"),
        ],
        ids=["duplicate-uav", "uav-gap", "duplicate-flow", "flow-gap", "delta-beyond-m"],
    )
    def test_ids_must_be_unique_dense_and_known(self, flows, uavs, message):
        with pytest.raises(ValueError, match=message):
            instance_from_json({"flows": flows, "uavs": uavs})

    SHARED_ENTRY = {"t_ms": 20, "rule_counts": {"r_del": 1, "r_ins": 1, "r_mod": 1}, "delta": [1, 0]}

    def shared_doc(self, *tail, shared=SHARED_ENTRY):
        """Three flow entries equal to ``shared``, then the entries of ``tail``."""
        flows = [{"id": i, **shared} for i in range(3)]
        flows += [{"id": 3 + k, **entry} for k, entry in enumerate(tail)]
        return {"flows": flows, "uavs": [{"id": 0, "p_watts": 1.0}, {"id": 1, "p_watts": 2.0}]}

    def test_identical_flow_entries_share_one_flow_checked_once(self):
        checked = []
        check = model._check_flow
        with patch.object(model, "_check_flow", lambda i, *rest: checked.append(i) or check(i, *rest)):
            inst = instance_from_json(self.shared_doc({**self.SHARED_ENTRY, "t_ms": 20.0}, {"t_ms": 20, "delta": [0, 1]}))
        assert inst.flows[0] is inst.flows[1] is inst.flows[2] is inst.flows[3]
        assert inst.flows[4] is not inst.flows[0] and inst.flows[4].rule_counts is None
        assert checked == [0, 4]
        assert inst.times == (0.020,) * 5 and inst.uavs[0].flow_set == frozenset(range(5))

    @pytest.mark.parametrize(
        "shared, change, message",
        [
            # True == 1, so each of the first three would share the flow of the entries before it
            ({"t_ms": 20, "delta": [1, 0]}, {"delta": [True, 0]}, r"flow #3 delta: expected int, got True"),
            ({"t_ms": 1, "delta": [0]}, {"t_ms": True}, r"flow #3 t_ms: expected float, got True"),
            (SHARED_ENTRY, {"rule_counts": {"r_del": True, "r_ins": 1, "r_mod": 1}}, r"flow #3 r_del: expected int, got True"),
            (SHARED_ENTRY, {"rule_counts": {"r_del": 1, "r_ins": 1, "r_mod": 3}}, r"flow 3: handover_time 0\.02 does not match"),
            (SHARED_ENTRY, {"rule_counts": {"r_del": 1, "r_ins": 1}}, r"flow #3: missing field 'r_mod'"),
            (SHARED_ENTRY, {"t_ms": math.inf}, r"flow #3 t_ms: expected a finite number, got inf"),
            (SHARED_ENTRY, {"t_ms": None}, r"flow #3 t_ms: expected float, got None"),
            (SHARED_ENTRY, {"delta": [1, 0, 2]}, r"flow 3 references unknown UAV ids \[0, 1, 2\]"),
        ],
        ids=["delta-true", "t_ms-true", "count-true", "count-contradicts-t_ms", "count-missing", "t_ms-inf", "t_ms-null", "delta-unknown"],
    )
    def test_a_bad_entry_after_identical_good_ones_raises_its_own_message(self, shared, change, message):
        with pytest.raises(ValueError, match=message):
            instance_from_json(self.shared_doc({**shared, **change}, shared=shared))

    def test_a_zero_t_ms_is_refused_with_its_own_sign(self):
        # 0 and -0.0 are equal, but flow 0, which comes second in the file, is refused first
        flows = [{"id": 1, "t_ms": 0, "delta": [0]}, {"id": 0, "t_ms": -0.0, "delta": [0]}]
        with pytest.raises(ValueError, match=r"flow 0 needs a positive handover time, got -0\.0$"):
            instance_from_json({"flows": flows, "uavs": [{"id": 0, "p_watts": 1.0}]})

    @pytest.mark.parametrize(
        "change",
        [{"delta": [1.0, 0]}, {"rule_counts": {"r_del": 1.0, "r_ins": 1, "r_mod": 1}}, {"id": 3.0}],
        ids=["delta-float", "count-float", "id-float"],
    )
    def test_an_integral_float_after_identical_ints_is_read_as_the_int(self, change):
        inst = instance_from_json(self.shared_doc({**self.SHARED_ENTRY, **change}))
        assert inst.flows[3] == inst.flows[0]
        assert inst == instance_from_json(self.shared_doc(self.SHARED_ENTRY))

    def test_mistyped_timing_raises_value_error(self):
        doc = {"timings": {"tau_ins_ms": None}, "flows": [{"id": 0, "t_ms": 10, "delta": [0]}], "uavs": [{"p_watts": 1.0}]}
        with pytest.raises(ValueError, match="timings"):
            instance_from_json(doc)
