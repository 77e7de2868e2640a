"""Shared fixtures-free helpers: reference instances and random generators."""

from itertools import permutations
import random
import re

from uavsched.model import (
    DEFAULT_TIMINGS,
    ReplacementInstance,
    RuleTimings,
    Schedule,
    build_instance,
    compute_energy,
    instance_from_parts,
)
from uavsched.netgen import NetworkParams, generate_network, sample_scenario
from uavsched.sched import ScoreTable


def sampling_exhausted(exc: ValueError) -> bool:
    """Whether ``exc`` is route sampling giving up on a network too sparse, rather than some other bad value."""
    return re.fullmatch(
        r"could not route flow \d+ after \d+ attempts; network too sparse|fewer than two UAVs remain in service", str(exc)
    ) is not None


def sampled_instance(params: NetworkParams, network_seed: int, flows: int, m: int, seed: int) -> ReplacementInstance:
    """The instance of ``flows`` sampled flows over m retiring UAVs of a generated network."""
    net = generate_network(params, network_seed)
    routes, retired = sample_scenario(net, flows, m, seed=seed)
    return build_instance(routes, [(u, net.hover_powers[u]) for u in sorted(retired)]).instance


# 23 flows over 26 retiring UAVs, of which 10 are crossed
PAST_BOTH_CAPS = (NetworkParams(num_uavs=60, area_side=180.0), 3, 30, 26, 3)


# Reference four-flow/five-UAV worked example: T in seconds, all hover
# powers 100 W.  Flow 0 crosses UAVs 0,1,2; flows 1..3 cross two UAVs each.
REF_TIMES = (0.040, 0.030, 0.030, 0.030)
REF_DELTAS = (frozenset({0, 1, 2}), frozenset({0, 3}), frozenset({2, 3}), frozenset({3, 4}))
REF_POWERS = (100.0,) * 5


def reference_instance() -> ReplacementInstance:
    return instance_from_parts(REF_TIMES, REF_DELTAS, REF_POWERS)


# Routed reconstruction of the same example over a 14-node network:
# nodes 0..4 are the retiring UAVs, 5..13 stay in service.  Six flows, two
# of which avoid the retiring set entirely.
ROUTED_EXAMPLE_RETIRED = (0, 1, 2, 3, 4)
ROUTED_EXAMPLE_ROUTES = (
    (0, (5, 0, 1, 2, 6)),   # crosses a run of three retiring relays -> 40 ms
    (1, (7, 0, 3, 8)),      # two consecutive retiring relays -> 30 ms
    (2, (9, 2, 3, 10)),
    (3, (11, 3, 4, 12)),
    (4, (5, 6)),            # stays clear of the retiring set
    (5, (13, 7, 9)),
)


def dyadic_time(rng: random.Random) -> float:
    # multiples of 2^-10 s inside [5, 60] ms keep every downstream float
    # operation exact, so solver cross-checks can assert == on energies
    return rng.randint(6, 61) / 1024.0


def random_instance(
    rng: random.Random,
    max_n: int = 7,
    max_m: int = 6,
    min_n: int = 1,
    dyadic: bool = True,
    timings: RuleTimings = DEFAULT_TIMINGS,
) -> ReplacementInstance:
    n = rng.randint(min_n, max_n)
    m = rng.randint(1, max_m)
    times = tuple(dyadic_time(rng) if dyadic else rng.uniform(0.005, 0.060) for _ in range(n))
    deltas = tuple(frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(n))
    powers = tuple(float(rng.randint(20, 310)) for _ in range(m))
    return instance_from_parts(times, deltas, powers, timings=timings)


def feasible_sequences(instance):
    """Yield every linear arrangement of combined indices that respects the
    flow-before-its-UAV dependencies (the independent oracle for the ILP)."""
    n, m = instance.n, instance.m
    required = []
    for i, flow in enumerate(instance.flows):
        for j in flow.retired_set:
            required.append((i + 1, n + 1 + j))
    for seq in permutations(range(1, n + m + 1)):
        pos = {k: p for p, k in enumerate(seq)}
        if all(pos[a] < pos[b] for a, b in required):
            yield seq


def heuristic_reference(instance):
    """The heuristic as a plain loop: H_j summed over the flows crossing UAV j
    in ascending id, each flow's score summed from 0.0 over its own sorted
    UAV set, and the flows sorted by (-score, id).  The oracle for
    ``score_table`` and ``heuristic_schedule``; returns (ScoreTable, order)."""
    h = []
    for j in range(instance.m):
        total = 0.0
        for flow in instance.flows:
            if j in flow.retired_set:
                total += flow.handover_time
        h.append(total)
    s = []
    for flow in instance.flows:
        score = 0.0
        for j in sorted(flow.retired_set):
            score += instance.powers[j] / h[j]
        s.append(score)
    order = tuple(sorted(range(instance.n), key=lambda i: (-s[i], i)))
    return ScoreTable(h=tuple(h), s=tuple(s)), order


def energy_reference(instance, order):
    """The energy of a flow order from the UAV side, as a plain loop: each
    flow's finish time is the running sum of the times along the order,
    C_j is the largest finish time of the flows crossing UAV j (0.0 for a
    UAV no flow crosses), and the total sums P_j * C_j from 0.0 in
    ascending j.  The oracle for ``compute_energy`` and ``evaluate_order``;
    returns (finish times, completion times, total), each a float or a tuple
    of floats."""
    finish = [0.0] * instance.n
    t = 0.0
    for f in order:
        t += instance.flows[f].handover_time
        finish[f] = t
    completions = []
    total = 0.0
    for j, power in enumerate(instance.powers):
        c = 0.0
        for i, flow in enumerate(instance.flows):
            if j in flow.retired_set and finish[i] > c:
                c = finish[i]
        completions.append(c)
        total += power * c
    return tuple(finish), tuple(completions), total


def exact_dp_reference(instance):
    """The flow-subset DP as a plain loop over every flow of every state, with
    each gain summed entry by entry: the oracle for ``exact_schedule_dp``.
    Returns (order, energy), the tie rule included."""
    n = instance.n
    times = instance.times
    powers = instance.powers

    # completing[f]: (power, mask of the other flows of that UAV) for each
    # UAV whose pin set contains f; the UAV finishes when those flows and f
    # are all in the handed-over set.
    flow_masks = [0] * instance.m
    for j, members in enumerate(instance.flow_sets):
        mask = 0
        for i in members:
            mask |= 1 << i
        flow_masks[j] = mask
    completing: list[tuple[tuple[float, int], ...]] = [() for _ in range(n)]
    for f in range(n):
        entries = []
        for j in sorted(instance.flows[f].retired_set):
            entries.append((powers[j], flow_masks[j] & ~(1 << f)))
        completing[f] = tuple(entries)

    size = 1 << n
    elapsed = [0.0] * size
    for mask in range(1, size):
        low = mask & -mask
        elapsed[mask] = elapsed[mask ^ low] + times[low.bit_length() - 1]
    if not elapsed[size - 1] < float("inf"):
        raise ValueError(f"the flows' handover times sum to {elapsed[size - 1]} s, past the largest float")

    inf = float("inf")
    g = [0.0] * size
    for state in range(size - 2, -1, -1):
        best = inf
        for f in range(n):
            if state >> f & 1:
                continue
            succ = state | (1 << f)
            gain = 0.0
            for power, required in completing[f]:
                if state & required == required:
                    gain += power
            cand = elapsed[succ] * gain + g[succ]
            if cand < best:
                best = cand
        g[state] = best

    order = []
    state = 0
    while state != size - 1:
        target = g[state]
        chosen = -1
        for f in range(n - 1, -1, -1):
            if state >> f & 1:
                continue
            succ = state | (1 << f)
            gain = 0.0
            for power, required in completing[f]:
                if state & required == required:
                    gain += power
            if elapsed[succ] * gain + g[succ] == target:
                chosen = f
                break
        order.append(chosen)
        state |= 1 << chosen
    order = tuple(order)
    return order, compute_energy(instance, Schedule(order=order)).total_energy


def no_free_flows(rules, low_bits):
    """Stand-in for ``sched._blocks`` whose blocks list no free flow at all:
    g stays infinite below the full set, so the walk-back finds no step."""
    width = 1 << low_bits
    for base in range((1 << len(rules)) - width, -1, -width):
        yield base, [], [([], [])] * width, []
