"""Monte Carlo evaluation of the schedulers over random networks.

One network is generated per run; for every (flow count, retiring count)
cell the retiring set is fixed (or optionally resampled per iteration) and
fresh flows are drawn each iteration.  Every enabled method schedules the
same instance, so method comparisons are paired.  Per-cell statistics are
the sample mean, its standard error, and the 1.96-sigma confidence
interval.  All randomness derives from the master seed, so results are
independent of execution order.
"""

from dataclasses import dataclass, field
import csv
import hashlib
import io
import json
import math
from pathlib import Path

from .errors import InstanceTooLarge, IoFailure, dataclass_from_json
from .model import DEFAULT_TIMINGS, RuleTimings, build_instance, instance_to_json, timings_from_json
from .netgen import MAX_FLOWS, NetworkParams, PairTable, generate_network, sample_flow_routes, sample_retired_set
from .sched import EXACT_CAP_DEFAULT, METHODS
# perfbench/spans.py rebinds these names in this module; the experiment reaches them through METHODS
from .sched import exact_schedule_dp, heuristic_schedule, random_schedule  # noqa: F401
import random

MAX_ITERATIONS = 100_000

CSV_COLUMNS = ("m", "n_f", "method", "k", "mean_energy_j", "se_j", "ci_lo_j", "ci_hi_j", "mean_runtime_s")

# first line of a CSV flushed by an interrupted run; read_csv skips it
INCOMPLETE_MARKER = "# incomplete\n"


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkParams = field(default_factory=NetworkParams)
    n_flows_list: tuple[int, ...] = (70, 100)
    m_list: tuple[int, ...] = (5, 6, 7, 8, 9, 10)
    iterations: int = 200
    methods: tuple[str, ...] = ("heuristic", "random")
    exact_cap: int = EXACT_CAP_DEFAULT
    master_seed: int = 0
    resample_retired_per_iteration: bool = False
    timings: RuleTimings = DEFAULT_TIMINGS
    csv_path: str | None = None
    svg_energy_path: str | None = None
    svg_runtime_path: str | None = None

    def __post_init__(self):
        if not 2 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must be in [2, {MAX_ITERATIONS}], got {self.iterations}")
        if not self.methods:
            raise ValueError("methods must not be empty")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; choose from {tuple(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat")
        if not self.n_flows_list or not self.m_list:
            raise ValueError("n_flows_list and m_list must not be empty")
        if len(set(self.n_flows_list)) != len(self.n_flows_list) or len(set(self.m_list)) != len(self.m_list):
            raise ValueError("n_flows_list and m_list must not repeat: a cell would be run and written twice")
        for m in self.m_list:
            if not 0 <= m <= self.network.num_uavs - 2:  # flows need two endpoints in service
                raise ValueError(f"m={m} must be in [0, num_uavs - 2 = {self.network.num_uavs - 2}]")
        for n_f in self.n_flows_list:
            if not 1 <= n_f <= MAX_FLOWS:
                raise ValueError(f"n_flows={n_f} must be in [1, {MAX_FLOWS}]")
        if not 0 <= self.exact_cap <= EXACT_CAP_DEFAULT:
            # exact_dp keeps two tables of 2^n entries per instance
            raise ValueError(f"exact_cap must be in [0, {EXACT_CAP_DEFAULT}], got {self.exact_cap}")


@dataclass(frozen=True)
class CellStats:
    """Monte Carlo summary of one (n_f, m, method) cell.

    ``samples`` carries the raw observations when the cell was produced by
    run_experiment; cells parsed back from CSV keep only the statistics.
    """

    n_f: int
    m: int
    method: str
    count: int
    samples: tuple[float, ...]
    mean: float
    se: float
    ci_lo: float
    ci_hi: float
    mean_runtime_s: float


@dataclass(frozen=True)
class ExperimentResult:
    cells: tuple[CellStats, ...]
    instance_digests: dict[tuple[int, int], tuple[str, ...]]


def summarize(samples) -> tuple[float, float, float, float]:
    """Sample mean, standard error, and 95% confidence interval bounds.

    A sample or statistic that is not finite is a ValueError.
    """
    samples = list(samples)
    k = len(samples)
    if k < 2:
        raise ValueError(f"need at least 2 samples, got {k}")
    if not all(map(math.isfinite, samples)):
        raise ValueError(f"samples must be finite, got {next(e for e in samples if not math.isfinite(e))!r}")
    mean = sum(samples) / k
    try:
        variance = sum((e - mean) ** 2 for e in samples) / (k - 1)
    except OverflowError:
        variance = math.inf
    se = math.sqrt(variance) / math.sqrt(k)
    stats = (mean, se, mean - 1.96 * se, mean + 1.96 * se)
    if not all(map(math.isfinite, stats)):
        raise ValueError(f"the mean and standard error of {k} samples overflow: {mean!r}, {se!r}")
    return stats


def _seed_prefix(master_seed: int, *parts):
    """The blake2b state of a seed key up to its last part: "<master>|<part>|...|"."""
    return hashlib.blake2b("|".join(map(str, (master_seed, *parts, ""))).encode("ascii"), digest_size=8)


def _seed(prefix, last) -> int:
    """The seed of the key ``prefix`` holds up to its last part, ``last``: its blake2b digest as an integer."""
    state = prefix.copy()
    state.update(str(last).encode("ascii"))
    return int.from_bytes(state.digest(), "big")


def _derive_seed(master_seed: int, *parts) -> int:
    """The seed of the key "<master>|<part>|...|<last part>"."""
    return _seed(_seed_prefix(master_seed, *parts[:-1]), parts[-1])


class _CellMemo:
    """What one sweep cell derives once, while its retiring set stays fixed.

    ``table`` is the cell's PairTable, the empty retiring set's included:
    each endpoint pair is routed once, and only the flows that cross the
    retiring set reach build_instance (none when it is empty).  ``cache`` is
    build_instance's route cache, which maps each crossing route to its
    FlowSpec and keeps one FlowSpec object per value, so each flow's JSON text
    (FlowSpec.json_parts) is rendered once per cell.  ``uavs`` is the
    retiring set, sorted by id, that every call passes: with the timings it
    keys one cache entry, whose id order and dense id map build_instance
    derives and checks on the first call only.  ``tail``, the text after
    the flows, is the same for every instance of the cell.  The seed
    prefixes are per cell, not per retiring set, so they are kept apart
    from the memo.
    """

    def __init__(self, net, retired):
        self.table = PairTable(net, retired)
        self.uavs = tuple((u, net.hover_powers[u]) for u in sorted(retired))
        self.cache = {}
        self.tail = None

    def instance_text(self, instance) -> str:
        """``json.dumps(instance_to_json(instance), sort_keys=True)``, joined from each flow's json_parts."""
        if self.tail is None:
            doc = instance_to_json(instance)
            del doc["flows"]
            self.tail = json.dumps(doc, sort_keys=True)[1:]
        parts = [f"{head}{fid}{rest}" for fid, (head, rest) in enumerate(flow.json_parts for flow in instance.flows)]
        return '{"flows": [' + ", ".join(parts) + "], " + self.tail


def _memo(net, m: int, seed: int) -> _CellMemo:
    """The memo of the retiring set of m UAVs drawn under ``seed``."""
    return _CellMemo(net, sample_retired_set(net, m, random.Random(seed)))


def _run_iteration(config: ExperimentConfig, net, n_f: int, k: int, memo: _CellMemo, seeds: dict):
    """One iteration's instance digest and method outcomes under the memo's retiring set.

    ``seeds`` maps "flows", "retired" and each seeded method to its seed
    key's prefix in the cell; iteration k's seed is ``_seed(seeds[key], k)``.
    """
    flow_rng = random.Random(_seed(seeds["flows"], k))
    flows = sample_flow_routes(net, memo.table.retired, n_f, flow_rng, table=memo.table)
    instance = build_instance(flows, memo.uavs, config.timings, cache=memo.cache).instance
    text = memo.instance_text(instance)
    outcomes = {}
    for method in config.methods:
        seed = _seed(seeds[method], k) if METHODS[method].seeded else None
        try:
            result = METHODS[method].solve(instance, seed, config.exact_cap)
            outcomes[method] = (result.energy, result.wall_time)
        except InstanceTooLarge:  # past the method's cap: the iteration is skipped
            outcomes[method] = None
    return hashlib.blake2b(text.encode("ascii"), digest_size=8).hexdigest(), outcomes


def run_experiment(config: ExperimentConfig, progress=None) -> ExperimentResult:
    """Run every configured cell; deterministic in everything but wall times.

    ``progress``, when given, is called with each CellStats as soon as its
    cell completes, so callers can flush partial results on interruption.
    """
    net = generate_network(config.network, seed=_derive_seed(config.master_seed, "network"))
    cells = []
    digests: dict[tuple[int, int], tuple[str, ...]] = {}
    for n_f in config.n_flows_list:
        for m in config.m_list:
            seeded = (method for method in config.methods if METHODS[method].seeded)
            seeds = {key: _seed_prefix(config.master_seed, key, n_f, m) for key in ("flows", "retired", *seeded)}
            if config.resample_retired_per_iteration:  # drawn lazily: one memo lives at a time
                memos = (_memo(net, m, _seed(seeds["retired"], k)) for k in range(config.iterations))
            else:
                memos = [_memo(net, m, _derive_seed(config.master_seed, "retired", n_f, m))] * config.iterations
            iterations = [_run_iteration(config, net, n_f, k, memo, seeds) for k, memo in enumerate(memos)]
            digests[(n_f, m)] = tuple(digest for digest, _ in iterations)
            for method in config.methods:
                ran = [outcomes[method] for _, outcomes in iterations if outcomes[method] is not None]
                samples = [energy for energy, _ in ran]
                runtimes = [runtime for _, runtime in ran]
                if len(samples) < 2:
                    continue  # skipped cell: too few samples to summarize
                try:
                    mean, se, ci_lo, ci_hi = summarize(samples)
                except ValueError as exc:
                    raise ValueError(f"cell n_f={n_f}, m={m}, method {method}: {exc}") from None
                cell = CellStats(
                    n_f=n_f,
                    m=m,
                    method=method,
                    count=len(samples),
                    samples=tuple(samples),
                    mean=mean,
                    se=se,
                    ci_lo=ci_lo,
                    ci_hi=ci_hi,
                    mean_runtime_s=sum(runtimes) / len(runtimes),
                )
                cells.append(cell)
                if progress is not None:
                    progress(cell)
    return ExperimentResult(cells=tuple(cells), instance_digests=digests)


def _fmt(value: float) -> str:
    return format(value, ".9g")


def csv_text(cells) -> str:
    """Render cells as CSV, sorted by (n_f, m, method), 9 significant digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cell in sorted(cells, key=lambda c: (c.n_f, c.m, c.method)):
        writer.writerow(
            [
                cell.m,
                cell.n_f,
                cell.method,
                cell.count,
                _fmt(cell.mean),
                _fmt(cell.se),
                _fmt(cell.ci_lo),
                _fmt(cell.ci_hi),
                _fmt(cell.mean_runtime_s),
            ]
        )
    return buffer.getvalue()


def _csv_number(row: dict, column: str, kind: type, where: str):
    """One CSV field read as an int or as a finite float."""
    text = row[column]
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{where} {column}: expected {kind.__name__}, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where} {column}: expected a finite number, got {text!r}")
    return value


def read_csv(source) -> tuple[CellStats, ...]:
    """Parse a results CSV back into cells (samples are not stored in CSV).

    Every row needs all the columns and no more, integral ``m``, ``n_f``
    and ``k``, a method of METHODS, ``k`` of at least 2, a non-negative
    ``se_j`` and finite statistics, and no two rows share (n_f, m, method);
    anything else is a ValueError.  A CSV flushed by an interrupted run
    reads as the cells it completed.
    """
    try:
        text = Path(source).read_text(encoding="ascii")
    except OSError as exc:
        raise IoFailure(f"could not read CSV {source}: {exc}") from exc
    rows = csv.reader(io.StringIO(text.removeprefix(INCOMPLETE_MARKER)))
    if tuple(next(rows, ())) != CSV_COLUMNS:
        raise ValueError(f"CSV columns must be {','.join(CSV_COLUMNS)}")
    cells = {}
    for number, values in enumerate(filter(None, rows), start=1):  # blank lines skipped
        where = f"CSV data row {number}"
        if len(values) != len(CSV_COLUMNS):
            raise ValueError(f"{where}: expected {len(CSV_COLUMNS)} fields, got {len(values)}")
        row = dict(zip(CSV_COLUMNS, values))
        if row["method"] not in METHODS:
            raise ValueError(f"{where} method: expected one of {tuple(METHODS)}, got {row['method']!r}")
        cell = CellStats(
            n_f=_csv_number(row, "n_f", int, where),
            m=_csv_number(row, "m", int, where),
            method=row["method"],
            count=_csv_number(row, "k", int, where),
            samples=(),
            mean=_csv_number(row, "mean_energy_j", float, where),
            se=_csv_number(row, "se_j", float, where),
            ci_lo=_csv_number(row, "ci_lo_j", float, where),
            ci_hi=_csv_number(row, "ci_hi_j", float, where),
            mean_runtime_s=_csv_number(row, "mean_runtime_s", float, where),
        )
        if cell.count < 2 or cell.se < 0:
            raise ValueError(f"{where}: expected k >= 2 and se_j >= 0, got {cell.count} and {cell.se!r}")
        if cells.setdefault((cell.n_f, cell.m, cell.method), cell) is not cell:
            raise ValueError(f"{where}: repeats the cell n_f={cell.n_f}, m={cell.m}, method={cell.method}")
    return tuple(cells.values())


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_SVG_W, _SVG_H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 170, 24, 46


def svg_text(cells, metric: str) -> str:
    """Self-contained line chart: x = retiring count, one series per method/flow count.

    Energy charts carry vertical error bars spanning the confidence interval.
    """
    if metric not in ("energy", "runtime"):
        raise ValueError(f"metric must be 'energy' or 'runtime', got {metric!r}")
    cells = list(cells)
    if not cells:
        raise ValueError("no cells to plot")
    series_keys = sorted({(c.method, c.n_f) for c in cells})
    ms = sorted({c.m for c in cells})
    if metric == "energy":
        y_top = max(c.ci_hi for c in cells)
        y_label = "mean hovering energy [J]"
    else:
        y_top = max(c.mean_runtime_s for c in cells)
        y_label = "mean scheduling time [s]"
    y_top = y_top * 1.08 if y_top > 0 else 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def x_of(m: int) -> float:
        if len(ms) == 1:
            return _MARGIN_L + plot_w / 2
        return _MARGIN_L + plot_w * (m - ms[0]) / (ms[-1] - ms[0])

    def y_of(value: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - value / y_top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_MARGIN_L + plot_w}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{_MARGIN_T + plot_h}" stroke="black"/>',
    ]
    for m in ms:
        x = x_of(m)
        parts.append(
            f'<text x="{x:.3f}" y="{_MARGIN_T + plot_h + 16}" text-anchor="middle">{m}</text>'
        )
    for tick in range(5):
        value = y_top * tick / 4
        y = y_of(value)
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.3f}" x2="{_MARGIN_L}" y2="{y:.3f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.3f}" text-anchor="end">{format(value, ".4g")}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.3f}" y="{_SVG_H - 10}" text-anchor="middle">'
        "UAVs taken out of service</text>"
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_T + plot_h / 2:.3f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_T + plot_h / 2:.3f})">{y_label}</text>'
    )
    for index, (method, n_f) in enumerate(series_keys):
        color = _PALETTE[index % len(_PALETTE)]
        points = sorted(
            ((c.m, c) for c in cells if c.method == method and c.n_f == n_f), key=lambda t: t[0]
        )
        coords = " ".join(
            f"{x_of(m):.3f},{y_of(c.mean if metric == 'energy' else c.mean_runtime_s):.3f}"
            for m, c in points
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        for m, c in points:
            x = x_of(m)
            value = c.mean if metric == "energy" else c.mean_runtime_s
            if metric == "energy":
                y_lo, y_hi = y_of(max(c.ci_lo, 0.0)), y_of(c.ci_hi)
                parts.append(
                    f'<line class="errbar" x1="{x:.3f}" y1="{y_hi:.3f}" x2="{x:.3f}" y2="{y_lo:.3f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
            parts.append(f'<circle cx="{x:.3f}" cy="{y_of(value):.3f}" r="3" fill="{color}"/>')
        legend_y = _MARGIN_T + 14 + 16 * index
        parts.append(
            f'<line x1="{_SVG_W - _MARGIN_R + 10}" y1="{legend_y - 4}" x2="{_SVG_W - _MARGIN_R + 30}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_SVG_W - _MARGIN_R + 35}" y="{legend_y}">{method}, {n_f} flows</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def config_from_json(data: dict) -> ExperimentConfig:
    """Parse an experiment config; field names mirror ExperimentConfig, timings are in ms.

    Any malformed document, bad timings and field values included, is a ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("experiment config must be a JSON object")
    timings = timings_from_json(data.get("timings", {}))
    return dataclass_from_json(ExperimentConfig, data, "experiment config", timings=timings)
