"""One strict codec for the JSON records the program stores and posts.

Every record that reaches the program as JSON — a spec, a run header,
a trial record, a queued job, a shard and its dispatch body, a fault
plan — declares a *field table*: a tuple of :class:`Field`\\ s, each a
key, the JSON kind it holds (a :class:`Kind`, a nested record or a
list), the value a missing key reads as (none: the key is required)
and an optional validator.  :func:`decode` reads one JSON object
against a table and refuses, with a :class:`ReproError` naming the
record and the key, a value that is not an object, a missing or
unknown key, an inexact type (a bool for an int, a float for an int, a
string for a number, a NaN or an infinity), a value its validator
rejects and a constant (``kind``, ``schema``) other than the table's —
so a misspelled key never runs on its default.  :func:`encode` writes
a record back in table order.  The module depends on :mod:`.errors`
alone, so every layer may declare its records here.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

from .errors import ReproError

__all__ = ["Field", "Kind", "decode", "encode", "many", "nested", "record"]

_REQUIRED = object()
_NULL = type(None)


class _Mismatch(Exception):
    """A value of the wrong kind; :func:`decode` names the key."""


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


class Kind:
    """What one JSON value may be, and how it maps to the program's.

    ``types`` are the exact types :mod:`json` reads it as (``type(value)
    in types``, so a bool is no int), ``desc`` names them in errors;
    ``read`` and ``write`` convert an accepted value in and out (none:
    as is; ``null`` passes through both).  ``what`` names a nested
    record, which refuses a value in its own name.
    """

    __slots__ = ("types", "desc", "read", "write", "what")

    def __init__(
        self,
        types: tuple,
        desc: str,
        read: Optional[Callable[[Any], Any]] = None,
        write: Optional[Callable[[Any], Any]] = None,
        what: Optional[str] = None,
    ) -> None:
        self.types, self.desc, self.what = types, desc, what
        self.read, self.write = read, write

    def decode(self, value: Any) -> Any:
        if type(value) not in self.types:
            if self.what is None:
                raise _Mismatch(f"is not {self.desc}")
            raise ReproError(
                f"bad {self.what} {_short(value)}: is not {self.desc}"
            )
        if value is None or self.read is None:
            return value
        return self.read(value)

    def encode(self, value: Any) -> Any:
        if value is None or self.write is None:
            return value
        return self.write(value)


def _finite(value: Any) -> float:
    try:
        number = float(value)
    except OverflowError:
        raise _Mismatch("is not a finite number") from None
    if number - number != 0.0:  # NaN or an infinity
        raise _Mismatch("is not a finite number")
    return number


_KINDS = {
    int: Kind((int,), "an integer"),
    float: Kind((float, int), "a finite number", _finite),
    str: Kind((str,), "a string"),
    bool: Kind((bool,), "a boolean"),
    dict: Kind((dict,), "an object"),
}


def _kind(spec: Any) -> Kind:
    """A :class:`Kind`, one of ``int``, ``float`` (an int reads as a
    float), ``str``, ``bool`` and ``dict``, or ``(spec, None)``: that
    kind or ``null``."""
    if isinstance(spec, Kind):
        return spec
    if isinstance(spec, tuple):
        inner = _kind(spec[0])
        return Kind(inner.types + (_NULL,), f"{inner.desc} or null",
                    inner.read, inner.write, inner.what)
    return _KINDS[spec]


def many(item: Any, size: Optional[int] = None) -> Kind:
    """A JSON list of ``item`` (exactly ``size`` of them, if given),
    read as a tuple."""
    item = _kind(item)
    count = "" if size is None else f" of {size}"
    desc = f"a list{count} (each {item.desc})"

    def read(values: list) -> tuple:
        try:
            if size is not None and len(values) != size:
                raise _Mismatch
            return tuple([item.decode(value) for value in values])
        except _Mismatch:
            raise _Mismatch(f"is not {desc}") from None

    def write(values: Sequence) -> list:
        return [item.encode(value) for value in values]

    return Kind(
        (list,), desc, read, list if item.write is None else write,
        None if item.what is None else f"{item.what} list",
    )


def record(
    what: str,
    fields: Sequence[Field],
    make: Callable[..., Any],
    parts: Callable[[Any], Mapping[str, Any]] = vars,
) -> Kind:
    """A nested record: an object decoded against ``fields`` and built
    by ``make(**values)``; ``parts(value)`` gives the values to
    encode."""
    return Kind(
        (dict,), f"a {what} object",
        lambda data: make(**decode(what, fields, data)),
        lambda value: encode(fields, parts(value)),
        what,
    )


def nested(cls: type) -> Kind:
    """An object read and written by ``cls``'s own ``from_json_dict``
    and ``to_json_dict``."""
    return Kind((dict,), f"a {cls.__name__} object",
                cls.from_json_dict, cls.to_json_dict)


class Field:
    """One key of a record's table: its :class:`Kind` (or ``int``,
    ``float``, ``str``, ``bool``, ``dict``, ``(kind, None)``), the
    value a missing key reads as, and a validator of decoded non-null
    values.  ``omit`` leaves the key out of :func:`encode` while it
    holds the default; a ``const`` key always holds that exact value
    and is no part of the decoded values."""

    __slots__ = ("name", "kind", "default", "check", "omit", "const")

    def __init__(
        self,
        name: str,
        kind: Any = None,
        default: Any = _REQUIRED,
        *,
        check: Optional[Callable[[Any], bool]] = None,
        omit: bool = False,
        const: Any = _REQUIRED,
    ) -> None:
        self.name, self.default, self.const = name, default, const
        self.check, self.omit = check, omit
        self.kind = _kind(kind if const is _REQUIRED else type(const))

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def decode(
    what: str, fields: Sequence[Field], data: Any
) -> dict[str, Any]:
    """``data``'s values by key, read against ``fields``: defaults
    filled in, constants checked and left out, and every refusal a
    :class:`ReproError` naming ``what`` and the key."""
    if type(data) is not dict:
        raise ReproError(f"{what} must be an object, not {_short(data)}")
    values: dict[str, Any] = {}
    missing = []
    found = 0
    for field in fields:
        name = field.name
        const = field.const
        if const is not _REQUIRED:
            raw = data.get(name)
            if type(raw) is not type(const) or raw != const:
                if name == "kind":
                    raise ReproError(f"not a {const} {what}: kind {raw!r}")
                raise ReproError(
                    f"{what} {name} {raw!r} is not {name} {const!r}"
                )
            found += 1
        elif name in data:
            found += 1
            raw = data[name]
            kind = field.kind
            try:
                if type(raw) in kind.types and (
                    kind.read is None or raw is None
                ):
                    value = raw  # the common case, without a call
                else:
                    value = kind.decode(raw)
                if field.check is not None and value is not None and (
                    not field.check(value)
                ):
                    raise _Mismatch("is out of range")
            except _Mismatch as exc:
                raise ReproError(
                    f"bad {what} value: {name}={_short(raw)} {exc}"
                ) from None
            except (ReproError, ValueError) as exc:
                raise ReproError(
                    f"bad {what} value: {name}: {exc}"
                ) from None
            values[name] = value
        elif field.default is _REQUIRED:
            missing.append(name)
        else:
            values[name] = field.default
    if found != len(data):
        names = {field.name for field in fields}
        unknown = sorted(str(key) for key in data if key not in names)
        raise ReproError(f"{what} has unknown keys {unknown}")
    if missing:
        raise ReproError(f"{what} missing keys {missing}")
    return values


def encode(fields: Sequence[Field], values: Mapping[str, Any]) -> dict:
    """The JSON object of a record's ``values``, keys in table order."""
    data = {}
    for field in fields:
        name = field.name
        if field.const is not _REQUIRED:
            data[name] = field.const
            continue
        value = values[name]
        if field.omit and value == field.default:
            continue
        write = field.kind.write
        data[name] = value if write is None or value is None else write(value)
    return data
