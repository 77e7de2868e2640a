"""Host speed gauge: times in reference-speed seconds.

The benchmark shares a few cores of a host with other tenants, and the
host slows everything on them by up to 1.6x, for stretches that last from
a second to minutes.  A run's own repeats cannot filter out a stretch that
outlasts the run, so every timed unit is scaled by the host's speed at the
time it ran.  The speed comes from a fixed calibration kernel, run between
units, made of the same kind of pure-Python work as the program (BFS over
adjacency lists, float arithmetic, string formatting).  A unit that took t
seconds while the kernel took c seconds counts as t * REFERENCE_S / c:
the time it would take on a host where the kernel takes REFERENCE_S, the
kernel's time on the reference host (2-vCPU Intel Xeon KVM guest, Python
3.11.7) when nothing else ran.  A change to the program does not change the
kernel, so it moves the scaled times as it moves the raw ones.
"""

import bisect
import random
import time

# fastest calibration (best of KERNEL_REPEATS) on the reference host, seconds
REFERENCE_S = 0.00100
KERNEL_REPEATS = 3
# least time between calibrations that are not forced
GAP_S = 0.1

_rng = random.Random(20250410)
_GRAPH = [[_rng.randrange(400) for _ in range(5)] for _ in range(400)]
_WEIGHTS = [_rng.uniform(0.5, 2.0) for _ in range(400)]


def _kernel() -> int:
    hops = 0
    for src in range(10):
        seen = {src}
        frontier = [src]
        while frontier:
            following = []
            for u in frontier:
                for v in _GRAPH[u]:
                    if v not in seen:
                        seen.add(v)
                        following.append(v)
            frontier = following
            hops += 1
    energy = sum(w * (i % 7 + 1.5) for i, w in enumerate(_WEIGHTS))
    text = "".join(f" + {w:.6g} x{i}" for i, w in enumerate(_WEIGHTS[:120]))
    return hops + int(energy) + len(text)


def calibrate() -> float:
    """Seconds of the fastest of KERNEL_REPEATS runs of the kernel."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedGauge:
    """Calibrations taken between units, and the scaling of unit times by them.

    ``boundary()`` is called between units: it calibrates when GAP_S
    has passed since the last calibration, or when forced (at the start and
    end of a round), so the kernel costs a few percent of a run.  A unit
    [start, end] is scaled by the mean of the last calibration before it and
    the first after it.  A disabled gauge never calibrates.  Given a
    ``tracer`` (spans.Tracer), each calibration is recorded as a
    ``bench.calibrate`` span, so it counts in no layer's self time.
    """

    def __init__(self, enabled: bool = True, tracer=None):
        self.enabled = enabled
        self.tracer = tracer
        self.stamps: list[float] = []  # end of each calibration
        self.values: list[float] = []

    def boundary(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        if force or not self.stamps or now - self.stamps[-1] >= GAP_S:
            span = self.tracer.begin("bench.calibrate") if self.tracer else None
            value = calibrate()
            if span is not None:
                self.tracer.end(span)
            self.stamps.append(time.perf_counter())
            self.values.append(value)

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds of a unit that ran from ``start`` to ``end``."""
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        around = [self.values[i] for i in (before, after) if 0 <= i < len(self.values)]
        return (end - start) * REFERENCE_S / (sum(around) / len(around))

    def speed(self) -> float:
        """Median host speed over the run, as REFERENCE_S / calibration."""
        ordered = sorted(self.values)
        return REFERENCE_S / ordered[len(ordered) // 2]
