"""In-memory span recorder and the wrappers that feed it.

Only names that callers look up at call time are wrapped: the functions
``uavsched.experiment`` imported into its namespace, the module attributes
that ``uavsched.cli`` and the benchmark reach (``model.instance_from_json``,
``sched.heuristic_schedule``, ``ordering.build_ilp`` ...), and the globals
that ``netgen.sample_flow_routes``, ``sched`` and ``ordering.export_lp``
resolve (``shortest_route``, ``compute_energy``, ``lp_text``).  Nothing in
the package is edited; ``Tracer.installed`` swaps the names in and restores
them on exit, so untraced rounds run the original functions.

A span is (name, start, end, parent) with the parent given as the index of
the enclosing span, or -1.  Spans live in flat arrays so that a traced
sweep's quarter-million route calls stay within a few megabytes.
"""

from array import array
from collections import Counter
from contextlib import contextmanager
import gzip
import json
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack = [-1]
        self.phases: list[tuple[str, int, int, Counter]] = []
        self.counters: Counter = Counter()
        self._seen_routes: set = set()
        self._nets: list = []
        # (instance, energy) of the latest heuristic call, paired with an
        # exact call on the same instance object by the experiment loop
        self.last_heuristic = None

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, label: str):
        """Group the spans and counters of one setup or round under a root span."""
        self.counters = Counter()
        self._seen_routes = set()
        self._nets = []
        first = len(self.starts)
        root = self.begin(f"bench.{label.split(':')[0]}")
        try:
            yield self.counters
        finally:
            self.end(root)
            self.phases.append((label, first, len(self.starts), self.counters))

    def note_route(self, net, src, dst) -> None:
        key = (id(net), src, dst)
        if key in self._seen_routes:
            self.counters["route_repeats"] += 1
        else:
            if not self._nets or self._nets[-1] is not net:
                self._nets.append(net)  # keeps id(net) from being reused
            self._seen_routes.add(key)

    def totals(self, first: int, stop: int) -> tuple[dict, dict]:
        """Inclusive and self time per span name over a range of spans."""
        child = [0.0] * (stop - first)
        for i in range(first, stop):
            parent = self.parents[i]
            if parent >= first:
                child[parent - first] += self.ends[i] - self.starts[i]
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for i in range(first, stop):
            name = self.names[self.name_ids[i]]
            duration = self.ends[i] - self.starts[i]
            inclusive[name] = inclusive.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration - child[i - first]
        return inclusive, own

    def write(self, destination, header: dict) -> None:
        """Write every span as gzipped CSV: index, name, start and end (s), parent."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(destination, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("# " + json.dumps(header, sort_keys=True) + "\n")
            out.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{i},{self.names[self.name_ids[i]]},{self.starts[i] - origin:.9f},"
                    f"{self.ends[i] - origin:.9f},{self.parents[i]}\n"
                )

    @contextmanager
    def installed(self, pkg):
        """Swap traced wrappers into the package namespaces for the block's duration."""
        saved = []
        for module, attr, wrapper in self._wrappers(pkg):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrappers(self, pkg):
        netgen, model, sched, ordering, experiment, cli = (
            pkg.netgen, pkg.model, pkg.sched, pkg.ordering, pkg.experiment, pkg.cli
        )
        tracer = self
        unreachable = pkg.errors.Unreachable

        def plain(name, fn):
            def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(index)

            return wrapper

        def shortest_route(fn):
            def wrapper(net, src, dst):
                tracer.counters["route_calls"] += 1
                tracer.note_route(net, src, dst)
                index = tracer.begin("netgen.shortest_route")
                try:
                    return fn(net, src, dst)
                except unreachable:
                    tracer.counters["route_rejections"] += 1
                    raise
                finally:
                    tracer.end(index)

            return wrapper

        def build_instance(fn):
            inner = plain("model.build_instance", fn)

            def wrapper(*args, **kwargs):
                build = inner(*args, **kwargs)
                instance = build.instance
                counts = tracer.counters
                counts["instances"] += 1
                counts["flows_kept"] += instance.n
                counts["flows_kept_max"] = max(counts["flows_kept_max"], instance.n)
                counts["uavs_pinned"] += sum(1 for uav in instance.uavs if uav.flow_set)
                return build

            return wrapper

        def heuristic(fn):
            inner = plain("sched.heuristic", fn)

            def wrapper(instance):
                result = inner(instance)
                tracer.last_heuristic = (instance, result.energy)
                return result

            return wrapper

        def exact(fn):
            inner = plain("sched.exact_dp", fn)

            def wrapper(instance, *args, **kwargs):
                result = inner(instance, *args, **kwargs)
                counts = tracer.counters
                counts["exact_dp_calls"] += 1
                counts["exact_dp_states"] += 1 << instance.n
                last = tracer.last_heuristic
                if last is not None and last[0] is instance:
                    note_ratio(counts, last[1], result.energy)
                return result

            return wrapper

        def lp_text(fn):
            inner = plain("ordering.lp_text", fn)

            def wrapper(model_):
                text = inner(model_)
                tracer.counters["lp_bytes"] += len(text)
                return text

            return wrapper

        def cli_main(fn):
            inner = plain("cli.main", fn)

            def wrapper(argv=None):
                code = inner(argv)
                if code != 0:
                    tracer.counters["cli_nonzero_exits"] += 1
                return code

            return wrapper

        wrapped_heuristic = heuristic(sched.heuristic_schedule)
        wrapped_exact = exact(sched.exact_schedule_dp)
        wrapped_build = build_instance(model.build_instance)
        wrapped_generate = plain("netgen.generate_network", netgen.generate_network)
        wrapped_sample = plain("netgen.sample_flow_routes", netgen.sample_flow_routes)
        wrapped_to_json = plain("model.instance_to_json", model.instance_to_json)
        wrapped_random = plain("sched.random", sched.random_schedule)
        return [
            (netgen, "shortest_route", shortest_route(netgen.shortest_route)),
            (netgen, "sample_flow_routes", wrapped_sample),
            (netgen, "generate_network", wrapped_generate),
            (model, "build_instance", wrapped_build),
            (model, "instance_to_json", wrapped_to_json),
            (model, "instance_from_json", plain("model.instance_from_json", model.instance_from_json)),
            (sched, "compute_energy", plain("model.compute_energy", sched.compute_energy)),
            (sched, "heuristic_schedule", wrapped_heuristic),
            (sched, "exact_schedule_dp", wrapped_exact),
            (sched, "random_schedule", wrapped_random),
            (ordering, "build_ilp", plain("ordering.build_ilp", ordering.build_ilp)),
            (ordering, "lp_text", lp_text(ordering.lp_text)),
            (experiment, "generate_network", wrapped_generate),
            (experiment, "sample_flow_routes", wrapped_sample),
            (experiment, "build_instance", wrapped_build),
            (experiment, "instance_to_json", wrapped_to_json),
            (experiment, "heuristic_schedule", wrapped_heuristic),
            (experiment, "random_schedule", wrapped_random),
            (experiment, "exact_schedule_dp", wrapped_exact),
            (experiment, "run_experiment", plain("experiment.run_experiment", experiment.run_experiment)),
            (experiment, "csv_text", plain("experiment.csv_text", experiment.csv_text)),
            (experiment, "svg_text", plain("experiment.svg_text", experiment.svg_text)),
            (cli, "main", cli_main(cli.main)),
        ]


def note_ratio(counters: Counter, heuristic_energy: float, exact_energy: float) -> None:
    """Record one heuristic/exact energy pair; empty instances (0 J) carry no ratio."""
    if exact_energy > 0:
        counters["ratio_pairs"] += 1
        counters["ratio_sum"] += heuristic_energy / exact_energy
