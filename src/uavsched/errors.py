"""Exception types raised across the package, and the file and JSON
boundary helpers that raise them."""

from contextlib import contextmanager, suppress
from dataclasses import fields, is_dataclass
import os
from pathlib import Path
import sys
from types import UnionType
from typing import get_args, get_origin


class UavschedError(Exception):
    """Base class for all package-specific errors."""


class InvalidInstance(UavschedError):
    """A replacement instance violates a structural invariant."""


class EmptyInstance(UavschedError):
    """Nothing to schedule: no flows and no retiring UAVs."""


class EndpointRetired(UavschedError):
    """A flow starts or ends at a retiring UAV (unsupported handover topology)."""


class InvalidSchedule(UavschedError):
    """A schedule is not a permutation of the instance's flow identifiers."""


class NonPositiveDistance(UavschedError):
    """Radio computations need a strictly positive distance."""


class Unreachable(UavschedError):
    """No path exists between the requested endpoints."""


class SamplingExhausted(UavschedError):
    """Scenario sampling gave up (network too sparse for the request)."""


class InstanceTooLarge(UavschedError):
    """Instance exceeds the size cap of an exhaustive solver."""


class DimensionMismatch(UavschedError):
    """Objects built for different instance sizes were combined."""


class InvalidOrder(UavschedError):
    """A relation matrix is not a strict total order."""


class IoFailure(UavschedError):
    """Writing or reading an artifact file failed."""


class TooFewSamples(UavschedError):
    """Sample statistics need at least two observations."""


class ConfigInvalid(UavschedError):
    """An experiment configuration is malformed."""


@contextmanager
def schema_errors(where: str):
    """Report a missing key, a mistyped value or an out-of-range number in a JSON document as ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{where}: value of the wrong type ({exc})") from exc
    except OverflowError as exc:
        raise ValueError(f"{where}: number out of range ({exc})") from exc


def json_scalar(value, kind: type, where: str):
    """Read a JSON value as ``kind`` (bool, int or float) without coercion.

    A bool is never read as a number nor a number as a bool, an int only
    from a number whose value is integral, and a float only from a finite
    number (Python's JSON reader accepts NaN and Infinity).
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool:
        valid = isinstance(value, bool)
    elif kind is int:
        valid = number and (isinstance(value, int) or value.is_integer())
    else:
        valid = number
        if number and not abs(value) <= sys.float_info.max:  # NaN fails the comparison too
            raise ValueError(f"{where}: expected a finite number, got {value!r}")
    if not valid:
        raise ValueError(f"{where}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def dataclass_from_json(cls, data, where: str, **given):
    """Build dataclass ``cls`` from a JSON object, reading each field as its annotated type.

    ``given`` holds fields the caller has already read.  An omitted field
    keeps its default and a key that names no field is rejected, at every
    level.  ``cls`` is constructed once, so its __post_init__ checks the
    final values.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"{where}: unknown fields {sorted(unknown)}")
    read = {
        f.name: _json_value(data[f.name], f.type, f"{where} {f.name}")
        for f in fields(cls)
        if f.name in data and f.name not in given
    }
    return cls(**read, **given)


def _json_value(value, kind, where: str):
    """Read ``value`` as ``kind``: a dataclass, ``tuple[X, ...]``, ``X | None``, str, or as json_scalar."""
    if isinstance(kind, UnionType):  # X | None
        if value is None:
            return None
        kind, _ = get_args(kind)
    if is_dataclass(kind):
        return dataclass_from_json(kind, value, where)
    if get_origin(kind) is tuple:  # tuple[X, ...], from a JSON array or a tuple of asdict()
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected an array, got {value!r}")
        return tuple(_json_value(item, get_args(kind)[0], where) for item in value)
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{where}: expected a string, got {value!r}")
        return value
    return json_scalar(value, kind, where)


def write_text(destination, text: str, what: str) -> None:
    """Write ``text`` to ``destination`` as ASCII, all at once or not at all.

    The text goes to a temporary file in the destination's directory, which
    then replaces the destination, so an existing file is never left half
    written.  An OSError becomes IoFailure; the temporary file is removed on
    any failure.
    """
    path = Path(destination)
    temporary = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(temporary, "x", encoding="ascii") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(temporary)
        if isinstance(exc, OSError):
            raise IoFailure(f"could not write {what} {destination}: {exc}") from exc
        raise
