"""The JSON layout of domsplit's result records, decided in one place.

A record is a dataclass that inherits ``JsonRecord``; its
``to_json_dict``/``from_json_dict`` follow these rules:

- A field is written under its name, or under the ``key`` its field
  metadata gives (``lam`` as ``"lambda"``, for instance), in field order.
- Tuples become lists, a ``Plane`` becomes its frame as nested lists, and
  any value with its own ``to_json_dict`` is written by it.
- JSON holds no inf or NaN.  A field whose metadata sets ``null_as`` (to
  ``math.inf`` or ``math.nan``) writes that value as ``null`` and reads
  ``null`` back as it.
- Decoding follows the field annotations: ``X | None``, ``tuple[T, ...]``,
  fixed-length tuples, ``Plane``, nested records (anything with
  ``from_json_dict``) and ``int``/``float``/``bool``/``str`` coercion.
- Keys the record does not declare are ignored; a missing key leaves the
  field at its default.

Only ``ConeSample``, whose layout is not field by field, keeps short
methods of its own built from ``encode``; ``GapReport`` only adds its
witness's member labels to the codec's output.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

import numpy as np

from .grassmann import Plane


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


# read once per record class: ``dataclasses.fields`` builds a new tuple,
# and ``get_type_hints`` evaluates every annotation, on each call
_fields = functools.cache(dataclasses.fields)
_hints = functools.cache(typing.get_type_hints)


def encode(value):
    """JSON form of one field value (records, tuples, planes, scalars)."""
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    if isinstance(value, Plane):
        return value.frame.tolist()
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    return value


def decode(tp, value):
    """Value of annotated type ``tp`` from its JSON form."""
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if origin in (types.UnionType, typing.Union):
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return decode(inner, value)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode(args[0], v) for v in value)
        return tuple(decode(a, v) for a, v in zip(args, value))
    if tp is Plane:
        return Plane(np.asarray(value, dtype=float))
    if hasattr(tp, "from_json_dict"):
        return tp.from_json_dict(value)
    return tp(value)


class JsonRecord:
    """Mixin giving a dataclass its JSON layout under the module rules."""

    def to_json_dict(self) -> dict:
        out = {}
        for f in _fields(type(self)):
            value = getattr(self, f.name)
            null_as = f.metadata.get("null_as")
            null = null_as is not None and (value == null_as or math.isnan(null_as) and math.isnan(value))
            out[_key(f)] = None if null else encode(value)
        return out

    @classmethod
    def from_json_dict(cls, data: dict):
        hints = _hints(cls)
        kwargs = {}
        for f in _fields(cls):
            if _key(f) not in data:
                continue
            value = data[_key(f)]
            if value is None and "null_as" in f.metadata:
                kwargs[f.name] = f.metadata["null_as"]
            else:
                kwargs[f.name] = decode(hints[f.name], value)
        return cls(**kwargs)
