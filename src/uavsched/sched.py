"""Handover schedulers: score heuristic, random baseline, and exact solvers.

The exact optimum is found with a subset dynamic program over flow sets
when n <= min(m, cap), and otherwise over the sets of the UAVs some flow
crosses (a UAV no flow crosses costs P * 0.0), so an instance fits when
min(n, crossed UAVs) <= cap.  Over flow sets: because handover times add
up the same way in any order, the elapsed time after a set of flows is
order-free, and a retiring UAV's cost is charged at the step that completes
the last of its flows; the states are scored a block of 2^(n/2) at a time.
Over UAV sets: once the UAVs finish in a fixed order, handing each UAV's
remaining flows over as one block just before it finishes is optimal.  A
brute-force permutation enumerator serves as an independent oracle at
small sizes.
METHODS names every scheduler the CLI and experiments run.
"""

from collections.abc import Callable
from dataclasses import dataclass
from itertools import permutations
from operator import add
import random
import time

from .errors import InstanceTooLarge
from .model import ReplacementInstance, Schedule, compute_energy, evaluate_order

EXACT_CAP_DEFAULT = 22
BRUTE_FORCE_CAP = 8


@dataclass(frozen=True)
class ScoreTable:
    """Per-UAV drain-out times H_j and per-flow urgency scores S_i (J/s^2)."""

    h: tuple[float, ...]
    s: tuple[float, ...]


@dataclass(frozen=True)
class SolverResult:
    schedule: Schedule
    energy: float
    method: str
    wall_time: float


def _result(instance: ReplacementInstance, order, method: str, start: float) -> SolverResult:
    # the solver's clock, started at ``start``, stops here; energy is always
    # the compute_energy re-evaluation of the schedule
    wall_time = time.perf_counter() - start
    schedule = Schedule(order=tuple(order))
    energy = compute_energy(instance, schedule).total_energy
    return SolverResult(schedule=schedule, energy=energy, method=method, wall_time=wall_time)


def score_table(instance: ReplacementInstance) -> ScoreTable:
    """Compute H_j (total handover time pinned on UAV j) and S_i = sum P_j/H_j.

    H_j is summed from the flow side: walking the flows in ascending id, each
    adds its time to the H of every UAV it crosses, so each H_j adds its own
    flows in ascending id from 0.0.  Each distinct delta object's score is
    summed once, over sorted(delta) from 0.0.
    """
    h = [0.0] * instance.m
    for flow in instance.flows:
        t = flow.handover_time
        for j in flow.retired_set:
            h[j] += t
    powers = instance.powers
    by_delta = {}  # one sum per delta object, keyed by id: a delta need not be hashable
    s = []
    for flow in instance.flows:
        delta = flow.retired_set
        score = by_delta.get(id(delta))
        if score is None:
            score = 0.0
            for j in sorted(delta):
                score += powers[j] / h[j]
            by_delta[id(delta)] = score
        s.append(score)
    return ScoreTable(h=tuple(h), s=tuple(s))


def heuristic_schedule(instance: ReplacementInstance) -> SolverResult:
    """Hand over flows in descending score order; ties go to the lower flow id."""
    start = time.perf_counter()
    table = score_table(instance)
    scores = table.s
    # a stable sort stays stable under reverse=True, so ties keep ascending flow ids
    order = sorted(range(instance.n), key=scores.__getitem__, reverse=True)
    return _result(instance, order, "heuristic", start)


def random_schedule(instance: ReplacementInstance, seed: int) -> SolverResult:
    """Uniformly random handover order, the one ``random.Random(seed).shuffle`` gives on CPython 3.10-3.13."""
    start = time.perf_counter()
    getrandbits = random.Random(seed).getrandbits
    order = list(range(instance.n))
    for i in reversed(range(1, instance.n)):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return _result(instance, order, "random", start)


GENERAL = -1  # the ``required`` slot of a flow whose gain rule is a list of entries


def _gain_rules(instance: ReplacementInstance) -> list[tuple]:
    """One gain rule per flow f: the hover power its handover switches off.

    A UAV whose pin set contains f finishes with f once its other flows are
    all in the handed-over set ``state``.  Flow f's rule is ``(1 << f,
    required, gain)`` of one of two kinds, each giving the very float the
    entry-by-entry sum from 0.0 in ascending UAV id gives:

    - fixed: f pins one UAV, or no other flow pins any of f's UAVs;
      ``required`` ORs the other flows pinning them (0 when there are
      none), and ``gain``, their powers summed from 0.0 in ascending UAV
      id, counts when ``state & required == required`` and is 0.0
      otherwise;
    - general: ``required`` is GENERAL and ``gain`` the (power, required)
      entries, summed over the UAVs that complete.
    """
    powers = instance.powers
    flow_masks = [0] * instance.m
    for j, members in enumerate(instance.flow_sets):
        mask = 0
        for i in members:
            mask |= 1 << i
        flow_masks[j] = mask
    rules = []
    for f, flow in enumerate(instance.flows):
        bit = 1 << f
        entries = tuple((powers[j], flow_masks[j] & ~bit) for j in sorted(flow.retired_set))
        if len(entries) == 1 or not any(need for _, need in entries):
            required = 0
            gain = 0.0
            for power, need in entries:
                required |= need
                gain += power
            rules.append((bit, required, gain))
        else:
            rules.append((bit, GENERAL, entries))
    return rules


# a DP keeps at most this many gain lists of 2^(n/2) floats (16 MB at n = 22)
_GAIN_LISTS_KEPT = 256


def _blocks(rules: list[tuple], low_bits: int):
    """The DP's blocks from the top down, each with its free flows and their gains.

    Block ``base`` holds the states ``base | lo``, lo < 2^low_bits.  Yields
    (base, high, table, rows): ``high`` pairs each high flow clear in
    ``base`` with its gain list, and ``rows[f]`` is low flow f's gain list;
    ``table[lo]``, the same in every block, holds the low flows clear in
    ``lo`` as the successors ``lo | bit`` where they gain 0.0 in every
    block and as (``lo | bit``, f) pairs where they may gain.
    """
    width = 1 << low_bits
    kept = {}

    def gains(f, met):
        # f's gain at each state of a block whose high bits meet ``met`` (a
        # bool for a fixed rule, one per entry for a general one); None when
        # all are 0.0.  Each is the float the rule gives at that state
        found = kept.get((f, met), kept)
        if found is not kept:
            return found
        _, required, gain = rules[f]
        found = None
        if required != GENERAL:
            if met and gain:
                # doubling per low bit k: the upper half of each step has bit k set
                found = [gain]
                for k in range(low_bits):
                    found = [0.0] * len(found) + found if required >> k & 1 else found + found
        else:
            entries = [(power, need & (width - 1)) for (power, need), ok in zip(gain, met) if ok]
            sums = []
            for lo in range(width):
                total = 0.0
                for power, need in entries:
                    if lo & need == need:
                        total += power
                sums.append(total)
            if any(sums):
                found = sums
        if len(kept) < _GAIN_LISTS_KEPT:
            kept[f, met] = found
        return found

    # a low flow may gain at lo in some block if it gains there with all its requirements met
    most = [
        gains(f, tuple(True for _ in gain) if required == GENERAL else True)
        for f, (_, required, gain) in enumerate(rules[:low_bits])
    ]
    table = [
        (
            [lo | 1 << f for f, gs in enumerate(most) if not lo >> f & 1 and not (gs and gs[lo])],
            [(lo | 1 << f, f) for f, gs in enumerate(most) if not lo >> f & 1 and gs and gs[lo]],
        )
        for lo in range(width)
    ]
    for base in range((1 << len(rules)) - width, -1, -width):
        top = base | (width - 1)
        met = [
            tuple(top | need == top for _, need in gain) if required == GENERAL else top | required == top
            for _, required, gain in rules
        ]
        high = [(1 << f, gains(f, met[f])) for f in range(low_bits, len(rules)) if not base >> f & 1]
        yield base, high, table, [gains(f, met[f]) for f in range(low_bits)]


def _candidate(rule: tuple, state: int, elapsed: list[float], g: list[float]) -> float:
    """Energy still to come if the rule's flow is handed over next from ``state``.

    This is the DP's step, inlined in its loop; where nothing completes it
    is g of the successor, which ``elapsed * 0.0 + g`` equals exactly.
    """
    bit, required, gain = rule
    if required == GENERAL:
        total = 0.0
        for power, need in gain:
            if state & need == need:
                total += power
        gain = total
    elif state & required != required:
        gain = 0.0
    succ = state | bit
    return elapsed[succ] * gain + g[succ] if gain else g[succ]


def exact_schedule_dp(instance: ReplacementInstance, max_flows: int = EXACT_CAP_DEFAULT) -> SolverResult:
    """Globally optimal schedule via dynamic programming over flow subsets.

    State g(S) is the minimum remaining energy once the flow set S has been
    handed over; adding flow f charges elapsed(S | {f}) times the total power
    of the UAVs whose last flow is f.  Among co-optimal schedules the
    lexicographically greatest is returned, deliberately opposite to the
    brute-force tie rule so that equivalence checks cannot pass by tie luck.

    Each flow's gain is one of two kinds worked out once (``_gain_rules``:
    fixed, general).  States are split into n//2 low bits and the rest, and
    visited a block of 2^(n/2) states (one value of the high bits) at a
    time, from the top down (``_blocks``).  Each high flow free in a block
    is scored over the whole block in one pass over its successor block,
    its gain at each state read from a list that holds 0.0 where nothing
    completes.  The low flows are then scored state by state from one table
    that lists, per low half, the free ones that gain nothing there in any
    block apart from those that may, whose gain the block's list gives.
    Every g is the float the plain loop over all flows with an
    entry-by-entry gain gives: the same expressions on the same operands,
    ``elapsed * 0.0 + g`` equals g while the elapsed times are finite, and
    a min over non-NaN floats does not depend on the visiting order.  The
    walk-back reads the same rules.
    ValueError when the handover times sum past the largest float.
    """
    n = instance.n
    if n > max_flows:
        raise InstanceTooLarge(f"exact solver capped at {max_flows} flows, instance has {n}")
    start = time.perf_counter()
    times = instance.times
    rules = _gain_rules(instance)

    size = 1 << n
    full = size - 1
    inf = float("inf")
    # elapsed[S] = elapsed[S minus its lowest flow] + that flow's time, filled
    # one lowest flow f at a time from the highest down (stride 2^(f+1))
    elapsed = [0.0] * size
    for f in range(n - 1, -1, -1):
        t = times[f]
        elapsed[1 << f::2 << f] = [e + t for e in elapsed[::2 << f]]

    if not elapsed[full] < inf:
        raise ValueError(f"the flows' handover times sum to {elapsed[full]} s, past the largest float")

    low_bits = n // 2
    width = 1 << low_bits
    low_mask = width - 1
    g = [0.0] * size
    for base, high, table, rows in _blocks(rules, low_bits):
        # each free high flow's candidates over the whole block at once: its
        # successor block starts at base | bit
        block = None
        for bit, gains in high:
            s = base | bit
            if gains is None:
                if block is None:
                    block = g[s:s + width]
                else:
                    block = [x if x < y else y for x, y in zip(block, g[s:s + width])]
            elif block is None:
                block = [e * w + y for e, w, y in zip(elapsed[s:s + width], gains, g[s:s + width])]
            else:
                block = [
                    x if x < (c := e * w + y) else c
                    for x, e, w, y in zip(block, elapsed[s:s + width], gains, g[s:s + width])
                ]
        if block is None:
            block = [inf] * width
        # then the low flows state by state, from the top of the block down,
        # each reading the block's g where its successor's is already final
        top = low_mask
        if base | low_mask == full:
            block[top] = 0.0  # the full set has nothing left to hand over
            top -= 1
        spent = elapsed[base:base + width]
        for lo in range(top, -1, -1):
            value = block[lo]
            plain, gaining = table[lo]
            for succ in plain:
                cand = block[succ]
                if cand < value:
                    value = cand
            for succ, f in gaining:
                gains = rows[f]
                cand = block[succ] if gains is None else spent[succ] * gains[lo] + block[succ]
                if cand < value:
                    value = cand
            block[lo] = value
        g[base:base + width] = block

    order = []
    state = 0
    while state != full:
        target = g[state]
        for f in range(n - 1, -1, -1):
            rule = rules[f]
            if not state & rule[0] and _candidate(rule, state, elapsed, g) == target:
                break
        else:
            raise RuntimeError(f"exact_dp walk-back: no free flow attains g at state {state:#x}")
        order.append(f)
        state |= rule[0]
    return _result(instance, order, "exact_dp", start)


def exact_schedule(instance: ReplacementInstance, cap: int = EXACT_CAP_DEFAULT) -> SolverResult:
    """Globally optimal schedule via a subset DP over the smaller side.

    With n <= min(m, cap) this is ``exact_schedule_dp(instance, cap)``, method
    label and tie rule included.  Otherwise the DP runs over the subsets U of
    the crossed UAVs, those some flow crosses: best(U) = min over j in U of
    best(U - j) + P_j * T(U), where T(U) is the total handover time of the
    flows crossing any UAV of U, read from a subset sum over the crossed UAV
    sets so that neither time nor memory grows with n.  A UAV no flow
    crosses would add P * 0.0 to every state, so leaving it out changes no
    order and no energy.  Tie rule: working back from the full set, the
    lowest UAV id attaining the minimum finishes last; the flows are then
    handed over block by block in that UAV order, each block (the UAV's
    flows not yet handed over) in ascending flow id.  InstanceTooLarge
    unless min(n, crossed UAVs) <= cap.  ValueError when the handover times
    sum past the largest float.
    """
    n, m = instance.n, instance.m
    if n <= min(m, cap):
        return exact_schedule_dp(instance, cap)
    start = time.perf_counter()
    flow_sets = instance.flow_sets
    active = [j for j, members in enumerate(flow_sets) if members]
    if len(active) > cap:
        message = f"instance has {n} flows and {len(active)} crossed UAVs of {m}"
        raise InstanceTooLarge(f"exact solver capped at {cap} flows or crossed UAVs, {message}")
    index = {j: k for k, j in enumerate(active)}
    powers = [instance.powers[j] for j in active]
    size = 1 << len(active)
    full = size - 1

    # inside[S]: total handover time of the flows whose UAVs all lie in S,
    # so the flows crossing U take T(U) = inside[full] - inside[full ^ U]
    inside = [0.0] * size
    for flow, t in zip(instance.flows, instance.times):
        inside[sum(1 << index[j] for j in flow.retired_set)] += t
    for k in range(len(active)):
        half = 1 << k
        for base in range(half, size, 2 * half):
            inside[base:base + half] = map(add, inside[base:base + half], inside[base - half:base])
    total = inside[full]
    inf = float("inf")
    if not total < inf:
        raise ValueError(f"the flows' handover times sum to {total} s, past the largest float")

    best = [0.0] * size
    for state in range(1, size):
        t = total - inside[full ^ state]
        value = inf
        bits = state
        while bits:
            bit = bits & -bits
            cand = best[state ^ bit] + powers[bit.bit_length() - 1] * t
            if cand < value:
                value = cand
            bits ^= bit
        best[state] = value

    uav_order = []
    state = full
    while state:
        t = total - inside[full ^ state]
        last = next(k for k, p in enumerate(powers) if state >> k & 1 and best[state ^ (1 << k)] + p * t == best[state])
        uav_order.append(active[last])
        state ^= 1 << last
    # each flow is handed over in the block of the first UAV it crosses
    order = list(dict.fromkeys(i for j in reversed(uav_order) for i in flow_sets[j]))
    return _result(instance, order, "exact_uav", start)


def brute_force_schedule(instance: ReplacementInstance, max_flows: int = BRUTE_FORCE_CAP) -> SolverResult:
    """Enumerate every permutation; return the lexicographically smallest minimizer."""
    n = instance.n
    if n > max_flows:
        raise InstanceTooLarge(f"brute force capped at {max_flows} flows, instance has {n}")
    start = time.perf_counter()
    best_order = tuple(range(n))
    best_energy = evaluate_order(instance, best_order)
    for order in permutations(range(n)):
        energy = evaluate_order(instance, order)
        if energy < best_energy:
            best_energy = energy
            best_order = order
    return _result(instance, best_order, "brute_force", start)


@dataclass(frozen=True)
class Method:
    """A named scheduler: ``solve(instance, seed, cap)``, and whether it needs a seed."""

    solve: Callable[[ReplacementInstance, int | None, int], SolverResult]
    seeded: bool = False


# Each entry raises InstanceTooLarge past its cap and looks its solver up when called (tracers rebind them)
METHODS = {
    "heuristic": Method(lambda instance, seed, cap: heuristic_schedule(instance)),
    "random": Method(lambda instance, seed, cap: random_schedule(instance, seed), seeded=True),
    "exact": Method(lambda instance, seed, cap: exact_schedule(instance, cap)),
    "exact_dp": Method(lambda instance, seed, cap: exact_schedule_dp(instance, cap)),
    "bruteforce": Method(lambda instance, seed, cap: brute_force_schedule(instance, min(cap, BRUTE_FORCE_CAP))),
}
