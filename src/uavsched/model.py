"""Replacement instances, rule-timing model, and hovering-energy evaluation.

An instance couples data flows that must be re-routed with the relays that
are waiting to power down.  Handing over flow i costs time T_i (a weighted
count of forwarding-rule deletions, insertions, and modifications); relay j
keeps hovering at power P_j until the last flow crossing it has been moved.
The energy of a handover order is therefore sum_j P_j * C_j, where C_j is
the cumulative finish time of the last flow of relay j.
"""

from dataclasses import dataclass
from functools import cached_property
import json
import math

from .errors import json_scalar, schema_errors


@dataclass(frozen=True)
class RuleTimings:
    """Per-rule update delays of the SDN controller, in seconds."""

    tau_del: float = 0.005
    tau_ins: float = 0.005
    tau_mod: float = 0.010

    def __post_init__(self):
        for name in ("tau_del", "tau_ins", "tau_mod"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite duration, got {value!r}")

    @classmethod
    def from_milliseconds(cls, tau_del_ms: float, tau_ins_ms: float, tau_mod_ms: float) -> "RuleTimings":
        return cls(tau_del_ms / 1000.0, tau_ins_ms / 1000.0, tau_mod_ms / 1000.0)


DEFAULT_TIMINGS = RuleTimings()


def timings_to_json(timings: RuleTimings) -> dict:
    """The timings in milliseconds, keyed as in instance and config files."""
    return {f"{name}_ms": getattr(timings, name) * 1000.0 for name in ("tau_del", "tau_ins", "tau_mod")}


def timings_from_json(data) -> RuleTimings:
    """Parse timings in milliseconds; a missing key keeps its DEFAULT_TIMINGS value."""
    if not isinstance(data, dict):
        raise ValueError("'timings' must be an object")
    defaults = timings_to_json(DEFAULT_TIMINGS)
    return RuleTimings.from_milliseconds(
        *(json_scalar(data.get(key, default), float, f"'timings' {key}") for key, default in defaults.items())
    )


@dataclass(frozen=True)
class RuleCounts:
    """Number of forwarding rules to delete, insert, and modify for one handover."""

    r_del: int
    r_ins: int
    r_mod: int

    def __post_init__(self):
        for name in ("r_del", "r_ins", "r_mod"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class FlowSpec:
    """One flow that crosses the retiring set; its id is its index in the instance.

    ``retired_set`` holds the dense ids of the retiring UAVs this flow
    traverses; ``rule_counts`` is kept when the flow was derived from a
    concrete route and is None for instances given directly in time form.
    """

    handover_time: float
    retired_set: frozenset[int]
    rule_counts: RuleCounts | None = None

    @cached_property
    def json_parts(self) -> tuple[str, str]:
        """The flow's compact sorted-key flow_to_json text, split where its id goes.

        Rendered once per object and kept outside the fields, so equality,
        hashing and repr see the flow alone.
        """
        head, id_key, rest = json.dumps(flow_to_json(0, self), sort_keys=True).partition('"id": ')
        return head + id_key, rest[1:]


@dataclass(frozen=True)
class RetiredUav:
    """One UAV scheduled to leave service, with the flows that pin it down."""

    id: int
    hover_power: float
    flow_set: frozenset[int]


def handover_time(counts: RuleCounts, timings: RuleTimings) -> float:
    """Time to hand over one flow: weighted sum of its rule-change counts."""
    return counts.r_del * timings.tau_del + counts.r_ins * timings.tau_ins + counts.r_mod * timings.tau_mod


def _runs(nodes, retired, where: str = "") -> int:
    """Maximal runs of retiring relays on a route of distinct nodes.

    ValueError, its message led by ``where``, when an endpoint retires.
    """
    if nodes[0] in retired or nodes[-1] in retired:
        raise ValueError(f"{where}route endpoints {nodes[0]!r}/{nodes[-1]!r} may not be retiring UAVs")
    runs, previous = 0, False
    for node in nodes:
        here = node in retired
        runs += here and not previous  # a run starts at a retiring relay after one in service
        previous = here
    return runs


def rule_counts_from_route(route, retired) -> RuleCounts:
    """Rule changes needed to detour a route around its retiring relays.

    Every retiring relay on the route needs its two adjacent rules replaced
    (one delete at the old relay, one insert at its substitute); each maximal
    run of consecutive retiring relays additionally needs the predecessor's
    forwarding rule modified once.
    """
    nodes = list(route)
    if len(nodes) < 2 or len(set(nodes)) != len(nodes):
        raise ValueError(f"route must contain at least two distinct nodes, got {nodes!r}")
    retired = set(retired)
    hits = len(retired.intersection(nodes))
    return RuleCounts(r_del=hits, r_ins=hits, r_mod=_runs(nodes, retired))


def _check_powers(powers) -> None:
    """ValueError unless every hover power is finite and non-negative."""
    for j, power in enumerate(powers):
        if not (math.isfinite(power) and power >= 0):
            raise ValueError(f"UAV {j}: hover_power must be non-negative, got {power!r}")


def _check_flow(i: int, flow: FlowSpec, m: int, timings: RuleTimings) -> None:
    """ValueError, naming flow ``i``, unless the flow fits an instance of m UAVs under ``timings``."""
    if not flow.retired_set:
        raise ValueError(f"flow {i} crosses no retiring UAV and does not belong in an instance")
    for j in flow.retired_set:
        if not (isinstance(j, int) and 0 <= j < m):
            raise ValueError(f"flow {i} references unknown UAV ids {sorted(flow.retired_set)}")
    t = flow.handover_time
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"flow {i} needs a positive handover time, got {t!r}")
    counts = flow.rule_counts
    if counts is not None:
        expected = handover_time(counts, timings)
        if abs(t - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError(
                f"flow {i}: handover_time {t} does not match its rule counts under the instance timings ({expected})"
            )


@dataclass(frozen=True)
class ReplacementInstance:
    """Flows, the hover powers of the retiring UAVs, and the rule timings.

    Identifiers are positions (flow i is flows[i], UAV j has power powers[j]).
    Each flow lists the retiring UAVs it crosses; the dual view, the flows
    pinning each UAV, is derived from those lists.  __post_init__ checks the
    powers, then each flow in index order; build_instance checks them with
    the same helpers and in the same order, once per cache entry and flow
    type, and skips it.
    """

    flows: tuple[FlowSpec, ...]
    powers: tuple[float, ...]
    timings: RuleTimings = DEFAULT_TIMINGS

    def __post_init__(self):
        _check_powers(self.powers)
        checked = set()  # a FlowSpec is frozen and m and timings are fixed: each object is checked once
        for i, flow in enumerate(self.flows):
            if id(flow) not in checked:
                checked.add(id(flow))
                _check_flow(i, flow, len(self.powers), self.timings)

    @property
    def n(self) -> int:
        return len(self.flows)

    @property
    def m(self) -> int:
        return len(self.powers)

    @cached_property
    def times(self) -> tuple[float, ...]:
        return tuple(flow.handover_time for flow in self.flows)

    @cached_property
    def flow_sets(self) -> tuple[tuple[int, ...], ...]:
        """For each UAV, the ascending ids of the flows that cross it."""
        members: list[list[int]] = [[] for _ in self.powers]
        for i, flow in enumerate(self.flows):
            for j in flow.retired_set:
                members[j].append(i)
        return tuple(map(tuple, members))

    @cached_property
    def uavs(self) -> tuple[RetiredUav, ...]:
        """One record per retiring UAV: its id, hover power, and the flows pinning it."""
        return tuple(
            RetiredUav(id=j, hover_power=power, flow_set=frozenset(members))
            for j, (power, members) in enumerate(zip(self.powers, self.flow_sets))
        )


def _checked_instance(flows, powers, timings: RuleTimings) -> ReplacementInstance:
    """The instance of powers and flow objects that passed their checks under ``timings``, without __post_init__."""
    instance = object.__new__(ReplacementInstance)
    instance.__dict__.update(flows=flows, powers=powers, timings=timings)
    return instance


def instance_from_parts(times, deltas, powers, timings: RuleTimings = DEFAULT_TIMINGS) -> ReplacementInstance:
    """Build an instance from handover times, per-flow UAV sets, and powers."""
    flows = tuple(FlowSpec(handover_time=t, retired_set=frozenset(delta)) for t, delta in zip(times, deltas))
    return ReplacementInstance(flows=flows, powers=tuple(powers), timings=timings)


@dataclass(frozen=True)
class Schedule:
    """A handover order: the flow identifiers in processing sequence."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class EnergyReport:
    """Energy bill of one schedule: per-UAV out-of-service times and the total."""

    completion_times: tuple[float, ...]
    total_energy: float
    flow_finish_times: tuple[float, ...]


def ensure_valid_schedule(instance: ReplacementInstance, schedule: Schedule) -> None:
    """Raise ValueError unless the order is a permutation of the flow ids."""
    order = schedule.order
    n = instance.n
    if len(order) != n or set(order) != set(range(n)):
        raise ValueError(f"schedule {order!r} is not a permutation of 0..{n - 1}")


def _energy(instance: ReplacementInstance, order) -> tuple[list[float], list[float], float]:
    """Flow finish times, per-UAV completion times, and total energy of a flow
    order.  ValueError when the handover times sum past the largest float.

    One pass over the order, from the flow side: each flow's finish time is
    written as the completion time of every UAV it crosses.  Finish times
    never decrease along the order, so the last flow of UAV j writes the
    very float that the maximum over its flows gives; a UAV no flow crosses
    stays at 0.0.  The total is summed from 0.0 in ascending UAV id.
    """
    flows = instance.flows
    finish = [0.0] * instance.n
    completions = [0.0] * instance.m
    t = 0.0
    for f in order:
        flow = flows[f]
        t += flow.handover_time
        finish[f] = t
        for j in flow.retired_set:
            completions[j] = t
    if not t < math.inf:  # past it, a 0 W UAV would cost 0.0 * inf = NaN
        raise ValueError(f"the flows' handover times sum to {t} s, past the largest float")
    total = 0.0
    for power, c in zip(instance.powers, completions):
        total += power * c
    return finish, completions, total


def evaluate_order(instance: ReplacementInstance, order) -> float:
    """Total hovering energy of a flow order; assumes a valid permutation."""
    return _energy(instance, order)[2]


def compute_energy(instance: ReplacementInstance, schedule: Schedule) -> EnergyReport:
    """Evaluate a schedule: flow finish times, per-UAV completions, total energy.

    ValueError when the total energy overflows past the largest float.
    """
    ensure_valid_schedule(instance, schedule)
    finish, completions, total = _energy(instance, schedule.order)
    if not total < math.inf:
        raise ValueError(f"the schedule's hovering energy sums to {total} J, past the largest float")
    return EnergyReport(
        completion_times=tuple(completions),
        total_energy=total,
        flow_finish_times=tuple(finish),
    )


@dataclass(frozen=True)
class InstanceBuild:
    """The instance build_instance derived from routed flows."""

    instance: ReplacementInstance


def build_instance(flows, retired_uavs, timings: RuleTimings = DEFAULT_TIMINGS, cache=None) -> InstanceBuild:
    """Derive a replacement instance from routed flows and a retiring set.

    ``flows`` is a sequence of (flow_id, route) pairs, ``retired_uavs`` a
    sequence of (uav_id, hover_power) pairs.  Flows that do not cross any
    retiring UAV are dropped; the kept flows are re-densified in input
    order, and UAV j is the j-th retiring UAV in ascending id order.  With
    no retiring UAV the instance is empty, also when no flow is given.

    A crossing route's type (its dense set of retiring UAVs and number of
    runs of them) fixes its FlowSpec.  Checks run in ReplacementInstance's
    order, by __post_init__'s helpers, in one pass: unique UAV ids and the
    powers, then flow by flow its id, its route and, for a new type, its
    FlowSpec at the flow's kept index; the instance then skips __post_init__.

    ``cache``, a dict the caller may pass to many calls, holds one entry per
    retiring set (by value, in the call's order) and timings: the set's id
    order and dense id map, each route that crosses the set and each type,
    mapped to its FlowSpec, so routes of one type share one FlowSpec object
    in every build.  An entry, route or type is stored once its own checks
    pass; a route that misses the set is never stored.  The powers are
    always the call's own: an equal 10 and 10.0 print apart.
    """
    given = tuple(map(tuple, retired_uavs))
    cache = {} if cache is None else cache
    entry = cache.get((given, timings))
    if entry is None:
        ids = [uid for uid, _ in given]  # unpacked, so an item that is no (id, power) pair is refused
        order = sorted(range(len(ids)), key=ids.__getitem__)
        dense = {ids[k]: j for j, k in enumerate(order)}
        if len(dense) != len(ids):
            raise ValueError(f"retiring UAV ids must be unique, got {sorted(ids)!r}")
        _check_powers(given[k][1] for k in order)
        entry = cache[given, timings] = (order, dense, {}, {})
    order, dense, routes, types = entry
    powers = tuple(given[k][1] for k in order)
    seen_fids = set()
    specs = []
    for fid, route in flows:
        if fid in seen_fids:
            raise ValueError(f"duplicate flow id {fid!r}")
        seen_fids.add(fid)
        nodes = tuple(route)
        spec = routes.get(nodes)
        if spec is None:
            if len(nodes) < 2 or len(set(nodes)) != len(nodes):
                raise ValueError(f"flow {fid}: route must contain at least two distinct nodes, got {list(nodes)!r}")
            delta = frozenset(dense[node] for node in nodes if node in dense)
            if not delta:
                continue
            key = (delta, _runs(nodes, dense, f"flow {fid}: "))
            spec = types.get(key)
            if spec is None:
                counts = RuleCounts(len(delta), len(delta), key[1])
                spec = FlowSpec(handover_time(counts, timings), delta, counts)
                _check_flow(len(specs), spec, len(powers), timings)
                types[key] = spec
            routes[nodes] = spec
        specs.append(spec)
    return InstanceBuild(instance=_checked_instance(tuple(specs), powers, timings))


def flow_to_json(fid: int, flow: FlowSpec) -> dict:
    """Flow ``fid``'s entry in the abstract-instance JSON form."""
    entry = {
        "id": fid,
        "t_ms": flow.handover_time * 1000.0,
        "delta": sorted(flow.retired_set),
    }
    if flow.rule_counts is not None:
        counts = flow.rule_counts
        entry["rule_counts"] = {"r_del": counts.r_del, "r_ins": counts.r_ins, "r_mod": counts.r_mod}
    return entry


def instance_to_json(instance: ReplacementInstance) -> dict:
    """Abstract-instance JSON form (times in milliseconds)."""
    return {
        "timings": timings_to_json(instance.timings),
        "flows": [flow_to_json(fid, flow) for fid, flow in enumerate(instance.flows)],
        "uavs": [{"id": j, "p_watts": power} for j, power in enumerate(instance.powers)],
    }


def _flow_key(entry: dict):
    """A flow entry's values but its id, or None unless each has its exact
    JSON type (int UAV ids and rule counts, never a bool; a nonzero int or
    float ``t_ms``, as a zero prints its sign), so that entries with equal
    keys parse alike and fail alike."""
    delta, t, counts = entry.get("delta"), entry.get("t_ms"), entry.get("rule_counts")
    if "rule_counts" in entry:
        counts = (counts.get("r_del"), counts.get("r_ins"), counts.get("r_mod")) if type(counts) is dict else (None,)
    if type(delta) is list and all(type(v) is int for v in (*delta, *(counts or ()))):
        if "t_ms" not in entry or type(t) in (int, float) and t:
            return tuple(delta), t, counts
    return None


def instance_from_json(data: dict) -> ReplacementInstance:
    """Parse the abstract-instance JSON form.

    Any malformed document, bad timings, rule counts and instance invariants
    included, is a ValueError.  Flow entries with equal ``_flow_key`` share
    one FlowSpec, so each distinct flow is parsed and checked once.
    """
    if not isinstance(data, dict):
        raise ValueError("instance JSON must be an object")
    timings = timings_from_json(data.get("timings", {}))
    raw_flows = data.get("flows")
    raw_uavs = data.get("uavs")
    if not isinstance(raw_flows, list) or not isinstance(raw_uavs, list):
        raise ValueError("instance JSON needs 'flows' and 'uavs' arrays")

    flows, specs = [], {}  # specs: _flow_key -> the FlowSpec of the first entry with that key
    for position, entry in enumerate(raw_flows):
        fid = entry.get("id", position) if type(entry) is dict else None
        flow_key = _flow_key(entry) if type(fid) is int else None
        if flow_key in specs:
            flows.append((fid, specs[flow_key]))
            continue
        where = f"flow #{position}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        with schema_errors(where):
            fid = json_scalar(entry.get("id", position), int, f"{where} id")
            delta = entry.get("delta")
            if not isinstance(delta, list) or not delta:
                raise ValueError(f"flow {fid}: 'delta' must be a non-empty list of UAV ids")
            delta_set = frozenset(json_scalar(j, int, f"{where} delta") for j in delta)
            counts = None
            if "rule_counts" in entry:
                rc = entry["rule_counts"]
                counts = RuleCounts(
                    *(json_scalar(rc[key], int, f"{where} {key}") for key in ("r_del", "r_ins", "r_mod"))
                )
                t = handover_time(counts, timings)  # ReplacementInstance checks a given t_ms against it
            if "t_ms" in entry:
                t = json_scalar(entry["t_ms"], float, f"{where} t_ms") / 1000.0
            elif counts is None:
                raise ValueError(f"flow {fid}: needs 't_ms' or 'rule_counts'")
        flows.append((fid, FlowSpec(t, delta_set, counts)))
        if flow_key is not None:
            specs[flow_key] = flows[-1][1]

    m = len(raw_uavs)
    powers: list[float | None] = [None] * m
    for position, entry in enumerate(raw_uavs):
        where = f"uav #{position}"
        if not isinstance(entry, dict) or "p_watts" not in entry:
            raise ValueError(f"{where} must be an object with 'p_watts'")
        uid = json_scalar(entry.get("id", position), int, f"{where} id")
        if not 0 <= uid < m:
            raise ValueError(f"uav id {uid} out of range")
        if powers[uid] is not None:
            raise ValueError(f"duplicate uav id {uid}")
        powers[uid] = json_scalar(entry["p_watts"], float, f"{where} p_watts")

    # flows may appear in any order in the file; ids must still be dense
    flows.sort(key=lambda item: item[0])
    for i, (fid, _) in enumerate(flows):
        if fid != i:
            raise ValueError(f"flow ids must be dense 0..{len(flows) - 1}, found {fid} at index {i}")
    return ReplacementInstance(flows=tuple(flow for _, flow in flows), powers=tuple(powers), timings=timings)
