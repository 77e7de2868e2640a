"""Tests for network generation: radio model, hover power, routing, sampling."""

from collections import deque
from functools import partial
import hashlib
import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsched import netgen
from uavsched.errors import Unreachable
from uavsched.netgen import (
    MAX_FLOWS,
    MAX_UAVS,
    HoverParams,
    NetworkParams,
    PairTable,
    RadioParams,
    generate_network,
    hover_power,
    network_from_json,
    network_from_layout,
    network_to_json,
    params_from_json,
    path_loss,
    sample_flow_routes,
    sample_scenario,
    scenario_from_json,
    scenario_to_json,
    shortest_route,
    snr_at_distance,
)

from helpers import sampling_exhausted

RADIO = RadioParams()
HOVER = HoverParams()

# distance where the default-parameter SNR meets the 85 dB threshold:
# 10^(75/20) / (40*pi), frozen from an independent hand inversion
LINK_RADIUS = 44.74970080444551


class TestPathLoss:
    def test_unit_argument_gives_zero(self):
        d = RADIO.light_speed / (4 * math.pi * RADIO.carrier_freq)
        assert abs(path_loss(d, RADIO)) < 1e-9

    def test_at_50_m(self):
        assert path_loss(50.0, RADIO) == pytest.approx(75.9635973671623, rel=1e-9)

    def test_near_threshold_distance(self):
        assert path_loss(44.75, RADIO) == pytest.approx(75.0, abs=1e-3)

    def test_non_positive_distance_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"distance must be positive, got {bad!r}"):
                path_loss(bad, RADIO)


class TestSnr:
    def test_at_40_m_link_exists(self):
        gamma = snr_at_distance(40.0, RADIO)
        assert gamma == pytest.approx(85.97460289299883, rel=1e-9)
        assert gamma >= RADIO.snr_threshold_db

    def test_at_50_m_no_link(self):
        gamma = snr_at_distance(50.0, RADIO)
        assert gamma == pytest.approx(84.0364026328377, rel=1e-9)
        assert gamma < RADIO.snr_threshold_db

    def test_power_times_ten_adds_ten_db(self):
        boosted = RadioParams(tx_power=RADIO.tx_power * 10.0)
        assert snr_at_distance(37.0, boosted) - snr_at_distance(37.0, RADIO) == pytest.approx(
            10.0, abs=1e-9
        )


class TestHoverPower:
    def test_one_kilogram(self):
        assert hover_power(1.0, HOVER) == pytest.approx(27.645289593840058, rel=1e-9)

    def test_five_kilograms(self):
        assert hover_power(5.0, HOVER) == pytest.approx(309.08373394746957, rel=1e-9)

    def test_zero_mass(self):
        assert hover_power(0.0, HOVER) == 0.0

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            hover_power(-0.1, HOVER)

    @given(mass=st.floats(0.05, 50.0))
    def test_quadrupled_mass_costs_eight_times_the_power(self, mass):
        assert hover_power(4.0 * mass, HOVER) == pytest.approx(8.0 * hover_power(mass, HOVER), rel=1e-12)

    def test_strictly_increasing_in_mass(self):
        masses = [0.5 * k for k in range(1, 12)]
        powers = [hover_power(m, HOVER) for m in masses]
        assert all(a < b for a, b in zip(powers, powers[1:]))


class TestGenerateNetwork:
    def test_deterministic_given_seed(self):
        params = NetworkParams()
        assert generate_network(params, seed=42) == generate_network(params, seed=42)
        assert generate_network(params, seed=42) != generate_network(params, seed=43)

    def test_infinite_threshold_kills_all_links(self):
        params = NetworkParams(radio=RadioParams(snr_threshold_db=math.inf))
        net = generate_network(params, seed=3)
        assert all(not nb for nb in net.links)

    def test_links_follow_the_threshold_radius(self):
        net = generate_network(NetworkParams(), seed=9)
        for u in range(net.num_uavs):
            for v in range(u + 1, net.num_uavs):
                d = math.dist(net.positions[u], net.positions[v])
                if abs(d - LINK_RADIUS) < 1e-6:
                    continue
                assert net.has_link(u, v) == (d <= LINK_RADIUS)

    def test_adjacency_symmetric_irreflexive(self):
        net = generate_network(NetworkParams(num_uavs=25), seed=5)
        for u in range(net.num_uavs):
            assert u not in net.links[u]
            for v in net.links[u]:
                assert u in net.links[v]

    def test_masses_come_from_choices(self):
        params = NetworkParams(mass_choices=(2.0, 4.0))
        net = generate_network(params, seed=8)
        assert set(net.masses) <= {2.0, 4.0}

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(num_uavs=1)
        with pytest.raises(ValueError):
            NetworkParams(area_side=0.0)
        with pytest.raises(ValueError):
            RadioParams(noise_power=0.0)
        with pytest.raises(ValueError):
            HoverParams(prop_radius=-1.0)

    def test_num_uavs_limit(self):
        # checked in the params, before any UAV is placed
        assert NetworkParams(num_uavs=MAX_UAVS).num_uavs == MAX_UAVS
        for count in (MAX_UAVS + 1, 2 * 10**16):
            with pytest.raises(ValueError, match="num_uavs"):
                NetworkParams(num_uavs=count)


def grid_network(rows, cols, spacing=30.0):
    positions = [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]
    params = NetworkParams(num_uavs=rows * cols, area_side=max(rows, cols) * spacing)
    return network_from_layout(params, positions, [1.0] * (rows * cols))


class TestShortestRoute:
    def test_adjacent_pair(self):
        net = grid_network(1, 2)
        assert shortest_route(net, 0, 1) == (0, 1)

    def test_unreachable(self):
        params = NetworkParams(num_uavs=2, area_side=1000.0)
        net = network_from_layout(params, [(0.0, 0.0), (900.0, 900.0)], [1.0, 1.0])
        with pytest.raises(Unreachable):
            shortest_route(net, 0, 1)

    def test_same_endpoints_rejected(self):
        net = grid_network(1, 2)
        with pytest.raises(ValueError):
            shortest_route(net, 0, 0)

    def test_diamond_prefers_lower_id_intermediate(self):
        # 0 and 3 sit 60 m apart (no direct link); both 1 and 2 bridge them
        params = NetworkParams(num_uavs=4, area_side=100.0)
        net = network_from_layout(
            params, [(0.0, 0.0), (30.0, 10.0), (30.0, -10.0), (60.0, 0.0)], [1.0] * 4
        )
        assert not net.has_link(0, 3)
        assert shortest_route(net, 0, 3) == (0, 1, 3)

    def test_route_has_minimal_hops_on_a_line(self):
        net = grid_network(1, 5, spacing=40.0)
        assert shortest_route(net, 0, 4) == (0, 1, 2, 3, 4)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_routes_are_valid_paths_with_distinct_nodes(self, seed):
        net = generate_network(NetworkParams(num_uavs=20), seed=seed)
        rng = random.Random(seed)
        for _ in range(10):
            src, dst = rng.sample(range(net.num_uavs), 2)
            try:
                route = shortest_route(net, src, dst)
            except Unreachable:
                continue
            assert route[0] == src and route[-1] == dst
            assert len(set(route)) == len(route)
            for a, b in zip(route, route[1:]):
                assert net.has_link(a, b)


def early_exit_route(net, src, dst):
    """Reference router: the per-call BFS that stops at dst, kept verbatim as an oracle."""
    if src == dst:
        raise ValueError("route endpoints must differ")
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            break
        du = dist[u]
        for v in net.links[u]:
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    if dst not in dist:
        raise Unreachable(f"no path from {src} to {dst}")
    path = [dst]
    node = dst
    while node != src:
        node = min(v for v in net.links[node] if dist.get(v, -1) == dist[path[-1]] - 1)
        path.append(node)
    path.reverse()
    return tuple(path)


DENSE = NetworkParams(num_uavs=40, area_side=150.0)
SPARSE = NetworkParams(num_uavs=20, area_side=140.0)


class TestRouteTable:
    @pytest.mark.parametrize("params", [DENSE, SPARSE], ids=["dense", "sparse"])
    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_matches_early_exit_bfs_on_every_pair(self, params, seed):
        net = generate_network(params, seed=seed)
        unreachable = []
        for src in range(net.num_uavs):
            for dst in range(net.num_uavs):
                if src == dst:
                    continue
                try:
                    expected = early_exit_route(net, src, dst)
                except Unreachable:
                    unreachable.append((src, dst))
                    with pytest.raises(Unreachable):
                        shortest_route(net, src, dst)
                    continue
                assert shortest_route(net, src, dst) == expected
        for src, dst in unreachable:  # answered from the filled table
            with pytest.raises(Unreachable):
                shortest_route(net, src, dst)
        if params is SPARSE:
            assert unreachable

    def test_repeated_requests_return_the_memoised_route(self):
        net = generate_network(DENSE, seed=1)
        assert shortest_route(net, 0, 5) is shortest_route(net, 0, 5)

    def test_unknown_source_rejected(self):
        net = grid_network(1, 3)
        for src in (-1, 3):
            with pytest.raises(ValueError):
                shortest_route(net, src, 1)

    def test_filled_table_leaves_equality_hash_and_json_alone(self):
        net = generate_network(DENSE, seed=2)
        for src in range(net.num_uavs):
            for dst in range(net.num_uavs):
                if src != dst:
                    try:
                        shortest_route(net, src, dst)
                    except Unreachable:
                        pass
        fresh = generate_network(DENSE, seed=2)
        _, loaded = network_from_json(network_to_json(DENSE, net))
        for other in (fresh, loaded):
            assert net == other and other == net
            assert hash(net) == hash(other)
            assert repr(net) == repr(other)
        assert network_to_json(DENSE, net) == network_to_json(DENSE, fresh)


# (network params, network seed, flows, retiring, scenario seed) -> SHA-256 of
# repr((routes, sorted(retired))), recorded with the per-call early-exit BFS
SCENARIO_DIGESTS = [
    (DENSE, 1, 70, 10, 2, "95048ab9f2ac147847b349f7bc9f3d1e49eaf9f2d4329f984412688fccc51c56"),
    (DENSE, 7, 100, 5, 3, "56ff6c00575e6d38d85b17bd13bf24b4a3f4bea539b2810536fcf3ddb77c9af8"),
    (SPARSE, 4, 24, 6, 9, "dd5787183019c633260617a7c9fd3741e1bc33a9a348cca475435e1e11b7fa72"),
]


class TestSampleScenario:
    @pytest.mark.parametrize(
        "params,net_seed,n_f,m,seed,digest", SCENARIO_DIGESTS, ids=["dense-1", "dense-7", "sparse-4"]
    )
    def test_matches_recorded_scenarios(self, params, net_seed, n_f, m, seed, digest):
        net = generate_network(params, seed=net_seed)
        routes, retired = sample_scenario(net, n_f, m, seed=seed)
        assert hashlib.sha256(repr((routes, sorted(retired))).encode()).hexdigest() == digest

    def test_matches_recorded_small_scenario(self):
        net = generate_network(SPARSE, seed=4)
        routes, retired = sample_scenario(net, 4, 3, seed=1)
        assert routes == ((0, (17, 14)), (1, (17, 1, 0)), (2, (14, 15)), (3, (5, 4, 12)))
        assert retired == frozenset({2, 4, 18})

    def test_deterministic(self):
        net = generate_network(NetworkParams(), seed=1)
        assert sample_scenario(net, 10, 4, seed=5) == sample_scenario(net, 10, 4, seed=5)

    def test_reference_scale_scenario_is_structurally_valid(self):
        # 70 flows over a default 40-UAV network with 10 retirements
        net = generate_network(NetworkParams(), seed=1)
        routes, retired = sample_scenario(net, 70, 10, seed=2)
        assert len(retired) == 10
        assert len(routes) == 70
        for _, route in routes:
            assert route[0] not in retired and route[-1] not in retired
            assert len(set(route)) == len(route)

    def test_zero_retired(self):
        net = generate_network(NetworkParams(num_uavs=10, area_side=60.0), seed=4)
        routes, retired = sample_scenario(net, 3, 0, seed=4)
        assert retired == frozenset()
        assert len(routes) == 3

    def test_sparse_network_exhausts_sampling(self):
        params = NetworkParams(num_uavs=6, area_side=5000.0)
        net = generate_network(params, seed=11)
        assert all(not nb for nb in net.links)
        with pytest.raises(ValueError, match="could not route flow 0 after 1000 attempts; network too sparse"):
            sample_scenario(net, 2, 1, seed=11)
        # the limit is read when the sampler is called
        with patch.object(netgen, "MAX_ROUTE_ATTEMPTS", 7), pytest.raises(ValueError, match="after 7 attempts"):
            sample_scenario(net, 2, 1, seed=11)

    def test_retired_count_bounds(self):
        net = generate_network(NetworkParams(num_uavs=10, area_side=60.0), seed=4)
        with pytest.raises(ValueError):
            sample_scenario(net, 2, 10, seed=1)

    def test_flow_count_limit(self, monkeypatch):
        net = generate_network(NetworkParams(num_uavs=10, area_side=60.0), seed=4)
        assert len(sample_scenario(net, 3, 2, seed=1)[0]) == 3

        def refuse(*args, **kwargs):
            pytest.fail("a flow was sampled past the limit")

        monkeypatch.setattr(netgen, "sample_flow_routes", refuse)
        with pytest.raises(ValueError, match="flow count"):
            sample_scenario(net, MAX_FLOWS + 1, 2, seed=1)


def seed_sample_flow_routes(net, retired, n_flows: int, rng: random.Random, max_attempts: int = 1000):
    """The original sampler, one rng.sample per draw, kept verbatim as the draw oracle."""
    candidates = sorted(set(range(net.num_uavs)) - set(retired))
    if len(candidates) < 2:
        raise ValueError("fewer than two UAVs remain in service")
    routes = []
    for fid in range(n_flows):
        for _ in range(max_attempts):
            src, dst = rng.sample(candidates, 2)
            try:
                route = shortest_route(net, src, dst)
            except Unreachable:
                continue
            routes.append((fid, route))
            break
        else:
            raise ValueError(
                f"could not route flow {fid} after {max_attempts} attempts; network too sparse"
            )
    return tuple(routes)


def limited_sample_flow_routes(net, retired, n_flows: int, rng: random.Random, max_attempts: int, table=None):
    """sample_flow_routes with netgen.MAX_ROUTE_ATTEMPTS patched to ``max_attempts``, called as the oracle is."""
    with patch.object(netgen, "MAX_ROUTE_ATTEMPTS", max_attempts):
        return sample_flow_routes(net, retired, n_flows, rng, table=table)


def sampling_outcome(sampler, net, retired, n_flows, seed, max_attempts):
    """The routes or the message of sampling giving up, and the generator's next random()."""
    rng = random.Random(seed)
    try:
        outcome = sampler(net, retired, n_flows, rng, max_attempts)
    except ValueError as exc:
        if not sampling_exhausted(exc):
            raise
        outcome = str(exc)
    return outcome, rng.random()


class TestFlowRouteDraw:
    # random.sample switches from its pool branch to its set branch past 21
    # candidates; 2 is the smallest pool
    @settings(max_examples=150, deadline=None)
    @given(
        candidates=st.integers(2, 45),
        extra=st.integers(0, 4),
        area_side=st.sampled_from([60.0, 150.0, 400.0, 3000.0]),
        net_seed=st.integers(0, 10**6),
        seed=st.integers(0, 2**32),
        n_flows=st.integers(1, 40),
        max_attempts=st.sampled_from([1, 2, 5, 1000]),
    )
    def test_draws_equal_random_sample(self, candidates, extra, area_side, net_seed, seed, n_flows, max_attempts):
        net = generate_network(NetworkParams(num_uavs=candidates + extra, area_side=area_side), seed=net_seed)
        retired = frozenset(random.Random(net_seed).sample(range(net.num_uavs), extra))
        assert sampling_outcome(
            limited_sample_flow_routes, net, retired, n_flows, seed, max_attempts
        ) == sampling_outcome(seed_sample_flow_routes, net, retired, n_flows, seed, max_attempts)

    @pytest.mark.parametrize("candidates", [2, 3, 21, 22, 45])
    def test_rejections_and_exhaustion_equal_random_sample(self, candidates):
        # 6 rows 60 m apart: the first 3 UAVs of a row are linked, the other 5
        # isolated; the candidates alternate between the two, so draws are rejected
        net = network_from_layout(
            NetworkParams(num_uavs=48, area_side=500.0),
            [(col * (40.0 if col < 3 else 60.0), row * 60.0) for row in range(6) for col in range(8)],
            [1.0] * 48,
        )
        linked = [u for u in range(48) if u % 8 < 3]
        isolated = [u for u in range(48) if u % 8 >= 3]
        alternating = [u for pair in zip(linked, isolated) for u in pair] + isolated[len(linked):]
        retired = frozenset(alternating[candidates:])
        for seed in range(20):
            for max_attempts in (1, 3, 1000):
                got = sampling_outcome(limited_sample_flow_routes, net, retired, 30, seed, max_attempts)
                assert got == sampling_outcome(seed_sample_flow_routes, net, retired, 30, seed, max_attempts)

    def test_one_route_lookup_per_draw(self, monkeypatch):
        net = generate_network(SPARSE, seed=4)
        retired = frozenset({2, 4, 18})
        calls = []

        def counted(net_, src, dst):
            try:
                route = shortest_route(net_, src, dst)
            except Unreachable:
                calls.append(((src, dst), False))
                raise
            calls.append(((src, dst), True))
            return route

        monkeypatch.setattr(netgen, "shortest_route", counted)
        routes = sample_flow_routes(net, retired, 40, random.Random(3))
        rng = random.Random(3)
        candidates = sorted(set(range(net.num_uavs)) - retired)
        assert [pair for pair, _ in calls] == [tuple(rng.sample(candidates, 2)) for _ in calls]
        assert sum(routed for _, routed in calls) == len(routes) == 40
        assert any(not routed for _, routed in calls)


def crossing_outcome(net, retired, n_flows, seed, max_attempts, table=None):
    """sampling_outcome of the flows that cross the retiring set: drawn through ``table``, or by the oracle."""
    if table is None:
        outcome, after = sampling_outcome(seed_sample_flow_routes, net, retired, n_flows, seed, max_attempts)
        if not isinstance(outcome, str):
            outcome = tuple((fid, route) for fid, route in outcome if not retired.isdisjoint(route))
        return outcome, after
    through_table = partial(limited_sample_flow_routes, table=table)
    return sampling_outcome(through_table, net, retired, n_flows, seed, max_attempts)


class TestPairTable:
    @settings(max_examples=100, deadline=None)
    @given(
        candidates=st.integers(2, 45),
        extra=st.integers(0, 5),  # an m = 0 sweep cell draws through a table of the empty set
        area_side=st.sampled_from([60.0, 150.0, 400.0, 3000.0]),
        net_seed=st.integers(0, 10**6),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
        n_flows=st.integers(1, 40),
        max_attempts=st.sampled_from([1, 2, 5, 1000]),
    )
    def test_draws_through_one_table_equal_random_sample(
        self, candidates, extra, area_side, net_seed, seeds, n_flows, max_attempts
    ):
        # one table serves every draw of a cell: later calls find it partly filled
        net = generate_network(NetworkParams(num_uavs=candidates + extra, area_side=area_side), seed=net_seed)
        retired = frozenset(random.Random(net_seed).sample(range(net.num_uavs), extra))
        table = PairTable(net, retired)
        for seed in seeds:
            assert crossing_outcome(net, retired, n_flows, seed, max_attempts, table) == crossing_outcome(
                net, retired, n_flows, seed, max_attempts
            )

    @pytest.mark.parametrize("candidates", [2, 3, 21, 22, 45, 48])
    def test_rejections_and_exhaustion_equal_random_sample(self, candidates):
        # the layout of TestFlowRouteDraw's test: a quarter to a half of the draws are
        # unreachable; with 48 candidates the retiring set is empty
        net = network_from_layout(
            NetworkParams(num_uavs=48, area_side=500.0),
            [(col * (40.0 if col < 3 else 60.0), row * 60.0) for row in range(6) for col in range(8)],
            [1.0] * 48,
        )
        linked = [u for u in range(48) if u % 8 < 3]
        isolated = [u for u in range(48) if u % 8 >= 3]
        alternating = [u for pair in zip(linked, isolated) for u in pair] + isolated[len(linked):]
        retired = frozenset(alternating[candidates:])
        for max_attempts in (1, 3, 1000):
            table = PairTable(net, retired)
            for seed in range(20):
                got = crossing_outcome(net, retired, 30, seed, max_attempts, table)
                assert got == crossing_outcome(net, retired, 30, seed, max_attempts)

    def test_one_route_lookup_per_pair(self, monkeypatch):
        net = generate_network(SPARSE, seed=4)
        retired = frozenset({2, 4, 18})
        calls = []

        def recorded(net_, src, dst):
            calls.append((src, dst))
            return shortest_route(net_, src, dst)

        monkeypatch.setattr(netgen, "shortest_route", recorded)
        # without a table every draw is looked up (test_one_route_lookup_per_draw), in draw order
        plain = [sample_flow_routes(net, retired, 40, random.Random(seed)) for seed in range(30)]
        draws = calls[:]
        calls.clear()
        table = PairTable(net, retired)
        kept = [sample_flow_routes(net, retired, 40, random.Random(seed), table=table) for seed in range(30)]
        assert calls == list(dict.fromkeys(draws))
        assert len(calls) < len(draws) / 5
        assert sum(entry is not None for entry in table.slots) == len(calls)
        assert kept == [tuple((fid, route) for fid, route in flows if not retired.isdisjoint(route)) for flows in plain]
        # a slot holds routing alone: False for an unreachable pair, the route
        # of a crossing pair, () for one that misses the retiring set
        c = len(table.candidates)
        for slot, entry in enumerate(table.slots):
            if entry is not None:
                try:
                    route = shortest_route(net, table.candidates[slot // c], table.candidates[slot % c])
                except Unreachable:
                    assert entry is False
                else:
                    assert entry == (() if retired.isdisjoint(route) else route)
        assert False in table.slots

    def test_a_table_of_another_retiring_set_is_refused(self):
        net = generate_network(SPARSE, seed=4)
        table = PairTable(net, {2, 4})
        with pytest.raises(ValueError, match="another network or retiring set"):
            sample_flow_routes(net, {2, 5}, 3, random.Random(1), table=table)
        with pytest.raises(ValueError, match="another network or retiring set"):
            sample_flow_routes(generate_network(SPARSE, seed=5), {2, 4}, 3, random.Random(1), table=table)


class TestNetworkJson:
    def test_round_trip(self):
        params = NetworkParams(num_uavs=15, area_side=120.0)
        net = generate_network(params, seed=6)
        doc = network_to_json(params, net)
        params2, net2 = network_from_json(doc)
        assert params2 == params
        assert net2 == net

    def test_scenario_round_trip(self):
        params = NetworkParams(num_uavs=15, area_side=100.0)
        net = generate_network(params, seed=6)
        routes, retired = sample_scenario(net, 4, 3, seed=6)
        doc = scenario_to_json(params, net, retired, routes)
        params2, net2, retired2, routes2 = scenario_from_json(doc)
        assert (params2, net2, retired2, routes2) == (params, net, retired, routes)

    def test_partial_params_filled_with_defaults(self):
        params = params_from_json({"num_uavs": 12})
        assert params.num_uavs == 12
        assert params.area_side == 150.0
        assert params.radio.snr_threshold_db == 85.0

    def test_bad_documents_rejected(self):
        with pytest.raises(ValueError):
            network_from_json({"params": {}})
        with pytest.raises(ValueError):
            network_from_json({"params": {"num_uavs": 3}, "uavs": [{"id": 0, "x": 0, "y": 0, "mass_kg": 1}]})

    @pytest.mark.parametrize(
        "bad_uav",
        [{"id": 1, "x": 5.0, "mass_kg": 1.0}, {"id": 1, "x": None, "y": 5.0, "mass_kg": 1.0}, "uav", None],
    )
    def test_missing_or_mistyped_uav_fields_raise_value_error(self, bad_uav):
        doc = network_to_json(NetworkParams(num_uavs=2), grid_network(1, 2))
        doc["uavs"][1] = bad_uav
        with pytest.raises(ValueError, match="uav #1"):
            network_from_json(doc)

    @pytest.mark.parametrize(
        "params", [{"radio": []}, {"hover": None}, {"num_uavs": None}, {"mass_choices": 3}]
    )
    def test_mistyped_params_raise_value_error(self, params):
        with pytest.raises(ValueError):
            params_from_json(params)

    @pytest.mark.parametrize(
        "field,value",
        [("retired", None), ("retired", [None]), ("flows", {}), ("flows", [{"id": 0}]), ("flows", [{"id": 0, "route": 5}])],
    )
    def test_mistyped_scenario_fields_raise_value_error(self, field, value):
        params = NetworkParams(num_uavs=2)
        doc = scenario_to_json(params, grid_network(1, 2), [], [(0, (0, 1))])
        doc[field] = value
        with pytest.raises(ValueError):
            scenario_from_json(doc)

    @pytest.mark.parametrize("missing", ["retired", "flows"])
    def test_scenario_without_retired_or_flows_rejected(self, missing):
        doc = scenario_to_json(NetworkParams(num_uavs=2), grid_network(1, 2), [], [(0, (0, 1))])
        del doc[missing]
        with pytest.raises(ValueError, match="scenario JSON needs 'retired' and 'flows'"):
            scenario_from_json(doc)

    @pytest.mark.parametrize("positions,masses", [([(0.0, 0.0)], [1.0, 1.0]), ([(0.0, 0.0), (5.0, 0.0)], [1.0])])
    def test_layout_of_the_wrong_length_rejected(self, positions, masses):
        with pytest.raises(ValueError, match="positions and masses must match params.num_uavs"):
            network_from_layout(NetworkParams(num_uavs=2), positions, masses)

    @pytest.mark.parametrize("route", [(0, 1, 999), (-1, 0, 1), (0, 2), (0, 1, 1)])
    def test_scenario_routes_off_the_network_rejected(self, route):
        net = grid_network(1, 3)  # 0-1 and 1-2 linked; 0 and 2 sit 60 m apart, unlinked
        assert not net.has_link(0, 2)
        doc = scenario_to_json(NetworkParams(num_uavs=3, area_side=90.0), net, [1], [(0, route)])
        with pytest.raises(ValueError, match="flow #0"):
            scenario_from_json(doc)
