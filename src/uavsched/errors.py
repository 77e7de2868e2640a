"""The package's exception types, and the file and JSON boundary helpers.

A bad value anywhere, in a file, a parameter or a call, is a ValueError
(CLI exit 2).  The classes here are only the errors that code acts on by
kind: IoFailure (exit 3), InstanceTooLarge (exit 4; an experiment skips the
iteration) and Unreachable (route sampling redraws the endpoint pair).
"""

from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import fields, is_dataclass
import os
from pathlib import Path
import secrets
import sys
from types import UnionType
from typing import get_args, get_origin


class UavschedError(Exception):
    """Base class of the package errors that callers act on by kind."""


class IoFailure(UavschedError):
    """Writing or reading an artifact file failed (CLI exit 3)."""


class InstanceTooLarge(UavschedError):
    """An instance exceeds a solver's or the LP export's size cap (CLI exit 4)."""


class Unreachable(UavschedError):
    """No path joins the requested endpoints; route sampling redraws the pair."""


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


def write_text(destination, text: str | Iterable[bytes], what: str) -> None:
    """Write ``text`` to ``destination`` as ASCII, all at once or not at all.

    ``text`` is a string, encoded as ASCII once (a non-ASCII character is a
    UnicodeEncodeError, a ValueError, raised before any file is made), or
    an iterable of ASCII ``bytes`` pieces, which are written in order as
    they come, so the whole text is never held at once.  Nothing is
    translated: a line ends in ``\n`` on every platform.  The text goes to
    a temporary file in the destination's directory, which then replaces
    the destination, so an existing file is never left half written.  Its
    name holds the process id and a random token, so no file of another
    writer or of a killed run is touched, and at most 40 characters of the
    destination's name, so it stays within the file system's 255-byte
    limit.  An OSError becomes IoFailure; a temporary file this call made
    is removed on any failure.
    """
    pieces = [text.encode("ascii")] if isinstance(text, str) else text
    path = Path(destination)
    temporary = path.parent / f".{path.name[:40]}.{os.getpid()}.{secrets.token_hex(8)}.tmp"
    created = False
    try:
        with open(temporary, "xb") as handle:  # not mkstemp, whose files are 0600
            created = True
            handle.writelines(pieces)
        os.replace(temporary, path)
    except BaseException as exc:
        if created:
            with suppress(OSError):
                os.unlink(temporary)
        if isinstance(exc, OSError):
            raise IoFailure(f"could not write {what} {destination}: {exc}") from exc
        raise
