"""Random software-defined UAV network generation.

UAVs hover at a common altitude over a square area, so inter-UAV distances
are planar.  Links follow a free-space path-loss model: two UAVs are
connected when the SNR of their line-of-sight channel clears a threshold.
Flow routes are minimum-hop paths between random non-retiring endpoints.
"""

from dataclasses import asdict, dataclass, field
from functools import cached_property
import math
import random

from .errors import Unreachable, dataclass_from_json, json_scalar, schema_errors

# Input size limits, checked before anything is built: the link graph tests
# every pair of UAVs, a sweep cell keeps a slot per ordered pair of them, and
# each flow is drawn and routed in turn
MAX_UAVS = 1000
MAX_FLOWS = 100_000
MAX_ROUTE_ATTEMPTS = 1000  # endpoint pairs drawn for one flow before sampling gives up


@dataclass(frozen=True)
class RadioParams:
    """Carrier, transmit power, noise floor, and the link SNR threshold."""

    carrier_freq: float = 3.0e9
    light_speed: float = 3.0e8
    tx_power: float = 1.0
    noise_power: float = 1.0e-16
    snr_threshold_db: float = 85.0

    def __post_init__(self):
        for name in ("carrier_freq", "light_speed", "tx_power", "noise_power"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if math.isnan(self.snr_threshold_db) or self.snr_threshold_db <= 0:
            raise ValueError(f"snr_threshold_db must be positive, got {self.snr_threshold_db!r}")


@dataclass(frozen=True)
class HoverParams:
    """Constants of the hover-power model."""

    gravity: float = 9.8
    prop_radius: float = 0.2
    num_props: int = 4
    air_density: float = 1.225

    def __post_init__(self):
        for name in ("gravity", "prop_radius", "num_props", "air_density"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class NetworkParams:
    num_uavs: int = 40
    area_side: float = 150.0
    common_altitude: float = 70.0
    mass_choices: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    radio: RadioParams = field(default_factory=RadioParams)
    hover: HoverParams = field(default_factory=HoverParams)

    def __post_init__(self):
        if not 2 <= self.num_uavs <= MAX_UAVS:
            raise ValueError(f"num_uavs must be in [2, {MAX_UAVS}], got {self.num_uavs}")
        if not self.area_side > 0:
            raise ValueError(f"area_side must be positive, got {self.area_side!r}")
        if not self.mass_choices:
            raise ValueError("mass_choices must not be empty")


@dataclass(frozen=True)
class UavNetwork:
    """Placed UAVs with masses, hover powers, and the SNR-derived link graph.

    ``links[u]`` is the ascending tuple of u's neighbours; the adjacency is
    symmetric, irreflexive, and recomputable from positions.
    """

    positions: tuple[tuple[float, float], ...]
    masses: tuple[float, ...]
    hover_powers: tuple[float, ...]
    links: tuple[tuple[int, ...], ...]

    @property
    def num_uavs(self) -> int:
        return len(self.positions)

    def has_link(self, u: int, v: int) -> bool:
        return v in self.links[u]

    @cached_property
    def _route_table(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """Routes filled in by shortest_route: source -> destination -> route.

        Kept in the instance dict rather than as a field, so equality,
        hashing, repr and serialization see the network alone.
        """
        return {}


def path_loss(distance: float, radio: RadioParams) -> float:
    """Free-space path loss in dB over a line-of-sight link of given length."""
    if not distance > 0:
        raise ValueError(f"distance must be positive, got {distance!r}")
    return 20.0 * math.log10(4.0 * math.pi * radio.carrier_freq * distance / radio.light_speed)


def snr_at_distance(distance: float, radio: RadioParams) -> float:
    """Link SNR in dB at a given separation."""
    return (
        10.0 * math.log10(radio.tx_power)
        - path_loss(distance, radio)
        - 10.0 * math.log10(radio.noise_power)
    )


def hover_power(mass: float, hover: HoverParams) -> float:
    """Hover power in watts of a UAV of the given mass."""
    if mass < 0:
        raise ValueError(f"mass must be non-negative, got {mass!r}")
    weight = mass * hover.gravity
    try:
        power = math.sqrt(weight**3 / (2.0 * math.pi * hover.prop_radius**2 * hover.num_props * hover.air_density))
    except ArithmeticError:  # an overflow, or a propeller disc area that underflows to zero
        power = math.inf
    if not power < math.inf:
        raise ValueError(f"hover power of a {mass!r} kg UAV is not finite under {hover}")
    return power


def network_from_layout(params: NetworkParams, positions, masses) -> UavNetwork:
    """Assemble a network from explicit positions and masses.

    Hover powers and the link graph are recomputed, so a network round-trips
    through serialization without storing derived data.
    """
    positions = tuple((float(x), float(y)) for x, y in positions)
    masses = tuple(float(m) for m in masses)
    if len(positions) != params.num_uavs or len(masses) != params.num_uavs:
        raise ValueError("positions and masses must match params.num_uavs")
    powers = tuple(hover_power(m, params.hover) for m in masses)
    n = len(positions)
    neighbours: list[list[int]] = [[] for _ in range(n)]
    threshold = params.radio.snr_threshold_db
    for u in range(n):
        for v in range(u + 1, n):
            if snr_at_distance(
                math.hypot(positions[u][0] - positions[v][0], positions[u][1] - positions[v][1]),
                params.radio,
            ) >= threshold:
                neighbours[u].append(v)
                neighbours[v].append(u)
    return UavNetwork(
        positions=positions,
        masses=masses,
        hover_powers=powers,
        links=tuple(tuple(sorted(nb)) for nb in neighbours),
    )


def generate_network(params: NetworkParams, seed: int) -> UavNetwork:
    """Sample a network: uniform positions over the square, uniform masses."""
    rng = random.Random(seed)
    positions = [(rng.uniform(0.0, params.area_side), rng.uniform(0.0, params.area_side)) for _ in range(params.num_uavs)]
    masses = [rng.choice(params.mass_choices) for _ in range(params.num_uavs)]
    return network_from_layout(params, positions, masses)


def _routes_from(net: UavNetwork, src: int) -> dict[int, tuple[int, ...]]:
    """Minimum-hop routes from src to every UAV it reaches.

    Each hop back toward src goes to the smallest-id neighbour one hop
    closer, the rule an early-exit BFS to a single destination also applies:
    by the time it reaches dst every node closer to src has its final
    distance, so both pick the same predecessors.
    """
    if not 0 <= src < net.num_uavs:
        raise ValueError(f"unknown source UAV {src!r}")
    dist = {src: 0}
    order = [src]
    for u in order:  # BFS; order grows while it is walked
        du = dist[u] + 1
        for v in net.links[u]:
            if v not in dist:
                dist[v] = du
                order.append(v)
    routes = {src: (src,)}
    for v in order[1:]:
        closer = dist[v] - 1
        routes[v] = routes[min(u for u in net.links[v] if dist.get(u) == closer)] + (v,)
    return routes


def shortest_route(net: UavNetwork, src: int, dst: int) -> tuple[int, ...]:
    """Minimum-hop route from src to dst; ties broken by smallest-id predecessor.

    The first request from a source routes it to every UAV at once; the
    routes are kept on the network, so later requests are lookups.
    """
    if src == dst:
        raise ValueError("route endpoints must differ")
    table = net._route_table
    routes = table.get(src)
    if routes is None:
        routes = table[src] = _routes_from(net, src)
    try:
        return routes[dst]
    except KeyError:
        raise Unreachable(f"no path from {src} to {dst}") from None


def sample_retired_set(net: UavNetwork, count: int, rng: random.Random) -> frozenset[int]:
    """Pick the retiring UAVs uniformly without replacement."""
    if not 0 <= count < net.num_uavs:
        raise ValueError(f"retiring count must be in [0, {net.num_uavs}), got {count}")
    return frozenset(rng.sample(range(net.num_uavs), count))


class PairTable:
    """What each ordered endpoint pair routes to, for one network and retiring set.

    ``candidates`` are the c in-service UAVs in ascending order, and
    ``slots[a * c + b]`` belongs to the pair (candidates[a], candidates[b]).
    sample_flow_routes fills a slot the first time it draws the pair: with
    False when no path joins the pair, with ``()`` when the pair's route
    crosses no retiring UAV, and with the route itself when it crosses one.
    Slots never drawn stay None.  An empty retiring set is allowed: every
    reachable pair then holds ``()``.
    """

    def __init__(self, net: UavNetwork, retired):
        self.net = net
        self.retired = frozenset(retired)
        self.candidates = _in_service(net, self.retired)
        self.slots = [None] * len(self.candidates) ** 2

    def fill(self, a: int, b: int):
        """Route the pair of candidate indexes (a, b) and record its entry."""
        try:
            route = shortest_route(self.net, self.candidates[a], self.candidates[b])
        except Unreachable:
            entry = False
        else:
            entry = () if self.retired.isdisjoint(route) else route
        self.slots[a * len(self.candidates) + b] = entry
        return entry


def _in_service(net: UavNetwork, retired) -> list[int]:
    return sorted(set(range(net.num_uavs)) - set(retired))


def sample_flow_routes(net, retired, n_flows: int, rng: random.Random, table=None):
    """Sample flow routes between random non-retiring endpoints.

    ``rng`` is a ``random.Random``.  Each endpoint pair is the one
    ``rng.sample(candidates, 2)`` returns on CPython 3.10-3.13, drawn from
    the same ``rng.getrandbits`` calls without that method's per-call
    overhead, so the draws and the generator's state after them are
    unchanged.  Endpoint pairs that turn out unreachable are rejected and
    redrawn, up to MAX_ROUTE_ATTEMPTS times per flow.

    Flows come back as (fid, route).  Without ``table`` (sample_scenario)
    every draw asks shortest_route for its route, and every flow comes
    back.  With ``table``, a PairTable of this network and retiring set (a
    sweep cell's), a pair is routed only on its first draw from the table,
    and only the flows whose routes cross the retiring set come back.
    """
    if table is None:
        candidates = _in_service(net, retired)
        slots = None
    else:
        if table.net is not net or table.retired != retired:
            raise ValueError("pair table was made for another network or retiring set")
        candidates, slots = table.candidates, table.slots
    c = len(candidates)
    if c < 2:
        raise ValueError("fewer than two UAVs remain in service")
    getrandbits = rng.getrandbits
    k = c.bit_length()
    # random.sample draws two from a pool list when it holds at most 21 items,
    # the size of a small set, and tracks the picks in a set otherwise
    pool = c <= 21
    k2 = (c - 1).bit_length()
    flows = []
    for fid in range(n_flows):
        attempts = MAX_ROUTE_ATTEMPTS  # a countdown: no range iterator per flow
        while attempts:
            attempts -= 1
            a = getrandbits(k)
            while a >= c:
                a = getrandbits(k)
            if pool:  # b indexes the pool after the last candidate moved into a's place
                b = getrandbits(k2)
                while b >= c - 1:
                    b = getrandbits(k2)
                if b == a:
                    b = c - 1
            else:  # b is redrawn while it is out of range or already picked
                b = getrandbits(k)
                while b >= c or b == a:
                    b = getrandbits(k)
            if slots is None:
                try:
                    entry = shortest_route(net, candidates[a], candidates[b])
                except Unreachable:
                    continue
                break
            entry = slots[a * c + b]
            if entry is None:
                entry = table.fill(a, b)
            if entry is not False:  # False: no path, so the pair is redrawn
                break
        else:
            raise ValueError(f"could not route flow {fid} after {MAX_ROUTE_ATTEMPTS} attempts; network too sparse")
        if entry:  # a route; a table's () marks one that misses the retiring set
            flows.append((fid, entry))
    return tuple(flows)


def sample_scenario(net: UavNetwork, n_flows: int, n_retired: int, seed: int):
    """Sample a replacement scenario: the retiring set first, then the flows."""
    if not 0 <= n_flows <= MAX_FLOWS:
        raise ValueError(f"flow count must be in [0, {MAX_FLOWS}], got {n_flows}")
    rng = random.Random(seed)
    retired = sample_retired_set(net, n_retired, rng)
    routes = sample_flow_routes(net, retired, n_flows, rng)
    return routes, retired


def params_from_json(data: dict) -> NetworkParams:
    """Parse network parameters, filling omitted fields with defaults."""
    return dataclass_from_json(NetworkParams, data, "network params")


def network_to_json(params: NetworkParams, net: UavNetwork) -> dict:
    return {
        "params": asdict(params),
        "uavs": [
            {"id": u, "x": net.positions[u][0], "y": net.positions[u][1], "mass_kg": net.masses[u]}
            for u in range(net.num_uavs)
        ],
    }


def network_from_json(data: dict) -> tuple[NetworkParams, UavNetwork]:
    if not isinstance(data, dict) or "params" not in data or "uavs" not in data:
        raise ValueError("network JSON needs 'params' and 'uavs'")
    params = params_from_json(data["params"])
    uavs = data["uavs"]
    if not isinstance(uavs, list) or len(uavs) != params.num_uavs:
        raise ValueError("'uavs' must list exactly params.num_uavs entries")
    by_id = {}
    for position, entry in enumerate(uavs):
        where = f"uav #{position}"
        with schema_errors(where):
            x, y, mass = (json_scalar(entry[key], float, f"{where} {key}") for key in ("x", "y", "mass_kg"))
            by_id[json_scalar(entry["id"], int, f"{where} id")] = ((x, y), mass)
    if sorted(by_id) != list(range(params.num_uavs)):
        raise ValueError("UAV ids must be dense 0..num_uavs-1")
    positions, masses = zip(*(by_id[u] for u in range(params.num_uavs)))
    return params, network_from_layout(params, positions, masses)


def scenario_to_json(params: NetworkParams, net: UavNetwork, retired, routes) -> dict:
    """Network JSON extended with a retiring set and routed flows."""
    doc = network_to_json(params, net)
    doc["retired"] = sorted(retired)
    doc["flows"] = [{"id": fid, "route": list(route)} for fid, route in routes]
    return doc


def scenario_from_json(data: dict):
    """Parse an extended network JSON into (params, net, retired, routes)."""
    params, net = network_from_json(data)
    if "retired" not in data or "flows" not in data:
        raise ValueError("scenario JSON needs 'retired' and 'flows'")
    with schema_errors("'retired'"):
        retired = frozenset(json_scalar(u, int, "'retired'") for u in data["retired"])
    if not retired <= set(range(net.num_uavs)):
        raise ValueError("'retired' references unknown UAV ids")
    if not isinstance(data["flows"], list):
        raise ValueError("'flows' must be a list")
    routes = []
    for position, entry in enumerate(data["flows"]):
        where = f"flow #{position}"
        with schema_errors(where):
            fid = json_scalar(entry["id"], int, f"{where} id")
            route = tuple(json_scalar(u, int, f"{where} route") for u in entry["route"])
        if not all(0 <= u < net.num_uavs for u in route):
            raise ValueError(f"flow #{position}: route {list(route)} references unknown UAV ids")
        if not all(net.has_link(u, v) for u, v in zip(route, route[1:])):
            raise ValueError(f"flow #{position}: route {list(route)} takes a hop with no link")
        routes.append((fid, route))
    return params, net, retired, tuple(routes)
