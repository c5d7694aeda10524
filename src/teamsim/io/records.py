"""Records to and from plain YAML values, driven by their declarations.

A record is a dataclass or a ``NamedTuple``.  ``read_record`` builds one
from a mapping: every key must name a field, every field without a
default must be given, and each value is read by the field's declared
type: ``float``, ``int``, ``str``, an ``Enum`` with ``from_label``,
``list[X]``, ``tuple[X, ...]`` (``tuple[X, X, X]`` alike; its length is for
``validate`` to check), ``X | None``, or a record.  A record-typed field is
flattened into its parent's mapping, as an engineer's skill is.  Numeric
strings are numbers (PyYAML reads ``1e17`` as a string), an ``int`` takes
an integral float but no bool, and a ``str`` takes any scalar.  Any other
value raises ``ConfigurationError`` naming its key path, as in
``des.base_error_prob: expected float, got 'abc'``.  ``read_yaml`` reads
the mapping a file holds.
"""
from __future__ import annotations

import dataclasses
import types
import typing
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, Mapping

import yaml

from ..errors import ConfigurationError


def read_yaml(path: str | Path) -> dict:
    """The mapping a YAML file holds.

    Invalid YAML, an empty file or a document that is not a mapping raises
    ``ConfigurationError`` naming the file; ``open``'s errors pass through.
    """
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigurationError(f"{path}: invalid YAML: {e}") from None
    if doc is None:
        raise ConfigurationError(f"{path}: empty file")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {type(doc).__name__}")
    return doc


@cache
def _is_record(tp: Any) -> bool:
    return dataclasses.is_dataclass(tp) or (
        isinstance(tp, type) and issubclass(tp, tuple) and hasattr(tp, "_fields")
    )


@cache
def _fields(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, declared type, required) of each field, hints resolved once per class."""
    hints = typing.get_type_hints(cls)
    if dataclasses.is_dataclass(cls):
        missing = dataclasses.MISSING
        return tuple(
            (f.name, hints[f.name], f.default is missing and f.default_factory is missing)
            for f in dataclasses.fields(cls)
        )
    return tuple((name, hints[name], name not in cls._field_defaults) for name in cls._fields)


@cache
def _optional(tp: Any) -> tuple[Any, bool]:
    """``(X, True)`` for a declared ``X | None``, else ``(tp, False)``."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return tp, False


def _at(path: str) -> str:
    return f"{path}: " if path else ""


def _scalar(value: Any, tp: type) -> Any:
    """``value`` as the scalar or enum type ``tp``.

    Raises ``TypeError`` or ``ValueError`` where it is not one.
    """
    if value is None or isinstance(value, (list, tuple, set, dict)):
        raise TypeError
    if issubclass(tp, Enum):
        return tp.from_label(str(value))
    if tp is str:
        return str(value)
    if tp not in (int, float) or isinstance(value, bool):
        raise TypeError
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError
    return tp(value)


def read_value(value: Any, tp: Any, path: str) -> Any:
    """``value`` converted to the declared type ``tp``; ``path`` names it in errors."""
    tp, nullable = _optional(tp)
    if value is None and nullable:
        return None
    origin = typing.get_origin(tp)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{path}: expected a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return origin(read_value(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if _is_record(tp):
        return read_record(tp, value, path)
    try:
        return _scalar(value, tp)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{path}: expected {tp.__name__}, got {value!r}") from None
    except ConfigurationError as e:
        raise ConfigurationError(f"{path}: {e}") from None


def read_record(cls: type, doc: Any, path: str = "", **given: Any) -> Any:
    """Build the record ``cls`` from the mapping ``doc``.

    Fields named in ``given`` take the given values and are not keys of
    ``doc``.  ``path`` is the key path of ``doc`` in its document.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError(f"{_at(path)}expected a mapping, got {doc!r}")
    used: set[str] = set()
    record = _build(cls, doc, path, given, used)
    unknown = set(doc) - used
    if unknown:
        raise ConfigurationError(f"{_at(path)}unknown keys: {', '.join(sorted(map(str, unknown)))}")
    return record


def _build(cls: type, doc: Mapping, path: str, given: dict, used: set[str]) -> Any:
    kwargs = dict(given)
    for name, tp, required in _fields(cls):
        if name in given:
            continue
        if _is_record(tp):
            kwargs[name] = _build(tp, doc, path, {}, used)
        elif name in doc:
            used.add(name)
            kwargs[name] = read_value(doc[name], tp, f"{path}.{name}" if path else name)
        elif required:
            raise ConfigurationError(f"{_at(path)}missing key {name!r}")
    return cls(**kwargs)


def write_record(record: Any, *skip: str) -> dict:
    """The plain YAML mapping of a record's fields, less those named in ``skip``.

    Lists and tuples become lists, and enums their ``value``.
    """
    doc: dict = {}
    for name, tp, _ in _fields(type(record)):
        if name in skip:
            continue
        value = getattr(record, name)
        if _is_record(tp):
            doc.update(write_record(value))
        else:
            doc[name] = _plain(value, tp)
    return doc


def _plain(value: Any, tp: Any) -> Any:
    tp, _ = _optional(tp)
    if value is None:
        return None
    if typing.get_origin(tp) in (list, tuple):
        item = typing.get_args(tp)[0]
        return [_plain(v, item) for v in value]
    if _is_record(tp):
        # a plain tuple may stand for a NamedTuple, as a (skill, p) pair does
        return write_record(tp._make(value) if issubclass(tp, tuple) else value)
    return value.value if isinstance(value, Enum) else value
