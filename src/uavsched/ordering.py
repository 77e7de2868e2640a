"""Strict-total-order formulation of the handover problem.

Flows and retiring UAVs share one index set: flow i takes combined index i
(1-based), UAV j takes index n+j.  A feasible solution is a strict total
order on that set that contains every flow-before-its-UAV dependency pair;
its cost counts T_i * P_j for every flow ordered before a UAV.  The module
builds the binary model, renders it as LP text for external solvers,
validates candidate orders against it, and converts between orders and
schedules.  The LP rows are cut from cached row templates, one per row
family, over the rows up to LP_SIZE_CAP, so its Python-level work is
O((n+m)^2) per model and each row is formatted at most once per process.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
import math

from .errors import InstanceTooLarge
from .model import ReplacementInstance, Schedule, ensure_valid_schedule

# Largest n+m the LP is built for: its file grows as about 50 (n+m)^3 bytes,
# about 400 MB here.  It is rendered in pieces of O((n+m)^2) characters that
# go to the file one at a time, so the cap bounds the file, not the memory
LP_SIZE_CAP = 200


@dataclass(frozen=True)
class TotalOrderMatrix:
    """Binary precedence matrix over combined indices: rows[i - 1][j - 1] = x_ij = 1 iff i before j."""

    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size = self.n + self.m
        if len(self.rows) != size or any(len(row) != size for row in self.rows):
            raise ValueError(f"matrix must be {size} x {size} for n={self.n}, m={self.m}")
        if not {entry for row in self.rows for entry in row} <= {0, 1}:
            raise ValueError("matrix entries must be 0 or 1")

    @property
    def size(self) -> int:
        return self.n + self.m

    @classmethod
    def from_sequence(cls, n: int, m: int, sequence) -> "TotalOrderMatrix":
        """Total order of a linear arrangement of all combined indices."""
        seq = tuple(sequence)
        size = n + m
        if sorted(seq) != list(range(1, size + 1)):
            raise ValueError(f"sequence must be a permutation of 1..{size}, got {seq!r}")
        position = {k: p for p, k in enumerate(seq)}
        rows = tuple(
            tuple(1 if i != j and position[i] < position[j] else 0 for j in range(1, size + 1))
            for i in range(1, size + 1)
        )
        return cls(n=n, m=m, rows=rows)


@dataclass(frozen=True)
class Violation:
    """One broken total-order property, naming the offending indices."""

    family: str  # irreflexive | totality | transitivity | dependency
    indices: tuple[int, ...]


@dataclass(frozen=True)
class IlpModel:
    """The binary ordering program of an instance.

    Only the objective and the dependency fixings carry instance data; the
    comparability equalities and transitivity inequalities range over all
    index pairs/triples, and ``lp_chunks`` writes them out.  ``fixed`` is the
    one dependency relation: the sorted flow-before-UAV pairs (i, j) whose
    x_ij is fixed to 1, which ``validate_total_order`` checks too.  Every
    objective key and fixed pair must put a flow index (1..n) before a UAV
    index (n+1..n+m), every objective coefficient must be finite (an LP
    file has no infinite coefficient), and ``fixed`` must be sorted without
    repeats; anything else is a ValueError naming the pair.
    """

    n: int
    m: int
    objective: tuple[tuple[tuple[int, int], float], ...]
    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, size = self.n, self.n + self.m
        for pair in (*(key for key, _ in self.objective), *self.fixed):
            i, j = pair
            if not (type(i) is int and type(j) is int and 1 <= i <= n < j <= size):
                raise ValueError(f"pair {pair!r} is not a flow index in 1..{n} before a UAV index in {n + 1}..{size}")
        for pair, coeff in self.objective:
            if not math.isfinite(coeff):
                raise ValueError(f"pair {pair!r} has objective coefficient {coeff!r}, which an LP file cannot hold")
        for before, pair in zip(self.fixed, self.fixed[1:]):
            if not before < pair:
                raise ValueError(f"fixed pairs must be sorted and distinct, but {pair!r} follows {before!r}")

    @property
    def size(self) -> int:
        return self.n + self.m

    @property
    def variable_count(self) -> int:
        return self.size * (self.size - 1)


def _check_size(n: int, m: int):
    """InstanceTooLarge past LP_SIZE_CAP elements, which the LP is not built or rendered for."""
    if n + m > LP_SIZE_CAP:
        raise InstanceTooLarge(f"LP export capped at n+m = {LP_SIZE_CAP}, instance has {n} flows and {m} UAVs")


def build_ilp(instance: ReplacementInstance) -> IlpModel:
    """Binary program: minimize sum T_i P_j x_ij over flow-before-UAV pairs.

    Past LP_SIZE_CAP elements it raises InstanceTooLarge before anything is built.
    """
    n, m = instance.n, instance.m
    if n + m < 2:
        raise ValueError(f"ordering model needs at least two elements, got n+m = {n + m}")
    _check_size(n, m)
    times = instance.times
    powers = instance.powers
    objective = tuple(
        ((i + 1, n + 1 + j), times[i] * powers[j]) for i in range(n) for j in range(m)
    )
    # every flow precedes each retiring UAV it crosses
    fixed = tuple(
        sorted((i + 1, n + 1 + j) for i, flow in enumerate(instance.flows) for j in flow.retired_set)
    )
    return IlpModel(n=n, m=m, objective=objective, fixed=fixed)


def _template(row) -> tuple[bytes, tuple[int, ...]]:
    """The rows row(k) for k = 1..LP_SIZE_CAP as ASCII bytes, one byte per
    character, and their offsets: row k spans text[at[k - 1]:at[k]]."""
    rows = [row(k) for k in range(1, LP_SIZE_CAP + 1)]
    return "".join(rows).encode("ascii"), tuple(accumulate(map(len, rows), initial=0))


# The row templates of each family, formatted on first use and kept for the
# process; i is the placeholder \x01, and a model reads each up to its row n+m
@cache
def _pair_template() -> tuple[bytes, tuple[int, ...]]:
    return _template(lambda k: f" pair_\x01_{k}: x_\x01_{k} + x_{k}_\x01 = 1\n")


@cache
def _binary_template() -> tuple[bytes, tuple[int, ...]]:
    return _template(lambda k: f" x_\x01_{k}\n")


@cache
def _tri_template(j: int) -> tuple[bytes, tuple[int, ...]]:
    """The transitivity rows (i, j, k); the k = j row is empty."""
    return _template(lambda k: f" tri_\x01_{j}_{k}: x_\x01_{j} + x_{j}_{k} - x_\x01_{k} <= 1\n" if k != j else "")


def lp_chunks(model: IlpModel) -> Iterator[bytes]:
    """Render the model in LP file format as ASCII bytes, rows in
    lexicographic index order.

    Yields the file in pieces of O((n+m)^2) bytes, in file order: the
    objective, the dependency rows, the pair rows, the transitivity rows of
    each leading index i, the binary section and ``End``.  A writer that
    takes one piece at a time never holds the (n+m)^3-byte whole.

    The pair, transitivity and binary rows are cut from the cached
    templates of their family (the transitivity family has one per j),
    which hold the placeholder ``\x01`` where the leading index i goes,
    cover the rows up to LP_SIZE_CAP and are read up to row n+m.  Past the
    cap it raises InstanceTooLarge before yielding anything.  Transitivity
    block (i, j) is the template of j with its k = i row left out, as two
    ``memoryview`` slices; each i joins its blocks and writes i in with one
    ``bytes.replace``.  Python-level work per model is O((n+m)^2), each row
    is formatted at most once per process, and the (n+m)^3 bytes are copied
    by the join and the replace alone, with no text decoded or encoded.
    """
    _check_size(model.n, model.m)
    size = model.size
    (pair, pair_at), (binary, binary_at) = _pair_template(), _binary_template()
    names = [str(k).encode("ascii") for k in range(size + 1)]
    terms = [f"{coeff!r} x_{i}_{j}" for (i, j), coeff in model.objective] or ["0 x_1_2"]
    tri = [(memoryview(text)[: at[size]], at) for text, at in map(_tri_template, range(1, size + 1))]
    yield ("Minimize\n obj:\n   " + "\n   + ".join(terms) + "\nSubject To\n").encode("ascii")
    yield "".join([f" dep_{i}_{j}: x_{i}_{j} = 1\n" for i, j in model.fixed]).encode("ascii")
    pair, binary = pair[: pair_at[size]], binary[: binary_at[size]]
    yield b"".join([pair[pair_at[i] :].replace(b"\x01", names[i]) for i in range(1, size + 1)])
    for i in range(1, size + 1):
        parts = []
        for j, (text, at) in enumerate(tri, 1):
            if j != i:
                parts.append(text[: at[i - 1]])
                parts.append(text[at[i] :])
        yield b"".join(parts).replace(b"\x01", names[i])
    yield b"Binary\n" + b"".join(
        [(binary[: binary_at[i - 1]] + binary[binary_at[i] :]).replace(b"\x01", names[i]) for i in range(1, size + 1)]
    )
    yield b"End\n"


def lp_text(model: IlpModel) -> str:
    """The whole LP file of the model as one string: the ASCII join of ``lp_chunks``.

    It holds the (n+m)^3-character whole; ``export-ilp`` streams the pieces instead.
    """
    return b"".join(lp_chunks(model)).decode("ascii")


def validate_total_order(x: TotalOrderMatrix, model: IlpModel) -> list[Violation]:
    """Check x against the model: the three strict-total-order properties and
    the dependency fixings. Report every violation."""
    if (model.n, model.m) != (x.n, x.m):
        raise ValueError(f"model is for n={model.n}, m={model.m} but matrix is for n={x.n}, m={x.m}")
    size = x.size
    rows = x.rows
    violations = []
    for i in range(size):
        if rows[i][i] != 0:
            violations.append(Violation("irreflexive", (i + 1,)))
    for i in range(size):
        for j in range(i + 1, size):
            if rows[i][j] + rows[j][i] != 1:
                violations.append(Violation("totality", (i + 1, j + 1)))
    for i in range(size):
        for j in range(size):
            if j == i:
                continue
            for k in range(size):
                if k == i or k == j:
                    continue
                if rows[i][j] + rows[j][k] > 1 + rows[i][k]:
                    violations.append(Violation("transitivity", (i + 1, j + 1, k + 1)))
    for i, j in model.fixed:
        if rows[i - 1][j - 1] != 1:
            violations.append(Violation("dependency", (i, j)))
    return violations


def order_to_schedule(x: TotalOrderMatrix) -> tuple[Schedule, tuple[int, ...]]:
    """Linearize a total order; return the flow schedule and each UAV's position.

    An irreflexive, total relation (a tournament) whose successor counts
    are a permutation of 0..size-1 is transitive, so these O(size^2) checks
    establish a strict total order; sorting by descending successor count
    is then its unique linear extension.
    """
    size = x.size
    for i, (row, column) in enumerate(zip(x.rows, zip(*x.rows))):
        if row[i] or any(a + b != 1 for a, b in zip(row[i + 1 :], column[i + 1 :])):
            raise ValueError(f"index {i + 1} breaks irreflexivity or totality; not a strict total order")
    succ = [sum(row) for row in x.rows]
    if sorted(succ) != list(range(size)):
        raise ValueError("successor counts are not a permutation; not a strict total order")
    sequence = sorted(range(1, size + 1), key=lambda k: -succ[k - 1])
    order = tuple(k - 1 for k in sequence if k <= x.n)
    positions = [0] * x.m
    for pos, k in enumerate(sequence):
        if k > x.n:
            positions[k - x.n - 1] = pos
    return Schedule(order=order), tuple(positions)


def schedule_to_canonical_order(instance: ReplacementInstance, schedule: Schedule) -> TotalOrderMatrix:
    """Complete a schedule into a total order with minimal cost.

    Each UAV is inserted immediately after the last of its flows (ascending
    UAV id on ties); UAVs pinned by no flow go first.  The resulting order
    is feasible and its objective equals the schedule's energy.
    """
    ensure_valid_schedule(instance, schedule)
    n = instance.n
    position = {f: p for p, f in enumerate(schedule.order)}
    released_after: dict[int, list[int]] = {}
    leading = []
    for j, members in enumerate(instance.flow_sets):
        if not members:
            leading.append(n + 1 + j)
            continue
        last = max(members, key=position.__getitem__)
        released_after.setdefault(last, []).append(n + 1 + j)
    sequence = list(leading)
    for f in schedule.order:
        sequence.append(f + 1)
        sequence.extend(sorted(released_after.get(f, ())))
    return TotalOrderMatrix.from_sequence(n, instance.m, sequence)


def ilp_objective(model: IlpModel, x: TotalOrderMatrix) -> float:
    """Objective value of an assignment: sum of coefficients of set variables."""
    if (model.n, model.m) != (x.n, x.m):
        raise ValueError(f"model is for n={model.n}, m={model.m} but matrix is for n={x.n}, m={x.m}")
    total = 0.0
    for (i, j), coeff in model.objective:
        if x.rows[i - 1][j - 1]:
            total += coeff
    return total
