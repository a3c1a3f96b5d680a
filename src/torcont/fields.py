"""One field checker for every file torcont reads.

A table maps the dotted path of each field, relative to the object it
checks, to a :class:`Field`: the field's kind and range.  A parent comes
before its fields.  :meth:`Reader.check` refuses a missing field (unless it
is optional), a field that no entry lists inside a checked object, and a
value of the wrong kind or out of range.  The error is :class:`ConfigError`
for a config and :class:`FormatError` for a file torcont wrote; its message
names the file and the field.  :func:`load` parses a JSON file: a ``NaN``,
``Infinity`` or ``-Infinity`` token, which JSON does not have, becomes a
:class:`Token`, and no number field takes one.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, FormatError


class Token(float):
    """A ``NaN``, ``Infinity`` or ``-Infinity`` token: a float that is not
    finite, whose repr is the token."""

    def __repr__(self):
        return {math.inf: "Infinity", -math.inf: "-Infinity"}.get(self, "NaN")


def load(path: str, error=FormatError):
    """The JSON document of the file ``path``; text that is not JSON raises ``error``."""
    with open(path) as fh:
        try:
            return json.loads(fh.read(), parse_constant=Token)
        except ValueError as exc:  # a JSONDecodeError has a position, a UnicodeDecodeError not
            at = f":{exc.lineno}:{exc.colno}" if isinstance(exc, json.JSONDecodeError) else ""
            raise error(f"{path}{at}: invalid JSON ({getattr(exc, 'msg', exc)})") from None


@dataclass(frozen=True)
class Field:
    """The kind and range of a field.

    Kinds: ``number`` (finite), ``integer``, ``bool``, ``string``, ``object``
    (its fields are table entries), ``list``, ``map`` (names to finite
    numbers), ``names`` (a list of strings), ``vector`` (a list of
    ``shape[0]`` finite numbers), ``interval`` ([lo, hi], numbers or null,
    lo <= hi), ``label`` (:func:`is_label_spec`), ``grid`` (nested lists of
    numbers of ``shape``), ``array`` (an encoded ``<f8`` array of ``shape``;
    a None in a shape is any length) and ``version`` (a file format's
    version, ``lo``).  A number or integer lies in [lo, hi], not 0 with
    ``nonzero``, odd with ``odd``.  A string is one of ``among``, and a list
    of names names only parameters in ``among``.
    """

    kind: str
    lo: float = -math.inf
    hi: float = math.inf
    nonzero: bool = False
    odd: bool = False
    among: tuple = None
    shape: tuple = None
    null: bool = False
    optional: bool = False


def optional(field: Field) -> Field:
    return replace(field, optional=True)


NUMBER = Field("number")
POSITIVE = Field("number", lo=0, nonzero=True)
COUNT = Field("integer", lo=1)
BOOL = Field("bool")
STRING = Field("string")
OBJECT = Field("object")
NAMES = Field("names")
DEGREE = Field("integer", lo=1, hi=7)  # colloc.build_mesh's degrees
_TYPES = {"bool": bool, "string": str, "object": dict, "list": list}


def format_version(fmt: str, version: int) -> dict:
    """The first fields of a file torcont writes: its format and version."""
    return {"format": Field("string", among=(fmt,)), "version": Field("version", lo=version)}


def is_label_spec(spec) -> bool:
    """Whether ``spec`` names a stored point: a label (an int >= 1), or
    {"type": <point type>, "pick": "first" (the default), "last" or an
    index into the labels of that type}."""
    def index(val):
        return isinstance(val, (int, np.integer)) and not isinstance(val, bool)

    if isinstance(spec, dict) and isinstance(spec.get("type"), str):
        return spec.get("pick", "first") in ("first", "last") or index(spec.get("pick"))
    return index(spec) and spec >= 1


def _finite(v) -> bool:
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):  # not a number; an int beyond a float's range
        return False


def _need(f: Field) -> str:
    """What a value of ``f`` must be, for messages."""
    if f.kind == "number":
        need = ("a positive number" if f.nonzero and f.lo == 0 else "a nonzero number"
                if f.nonzero else f"a number >= {f.lo:g}" if f.lo > -math.inf else "a number")
    elif f.kind == "integer":
        need = ("a positive integer" if (f.lo, f.hi) == (1, math.inf) else f"an integer in "
                f"[{f.lo}, {f.hi}]" if f.hi < math.inf else f"an {'odd ' * f.odd}integer >= {f.lo}")
    elif f.kind == "vector":
        need = f"a list of {f.shape[0]} numbers"
    else:
        need = "one of " + ", ".join(map(repr, f.among)) if f.among else {
            "bool": "true or false", "string": "a string", "object": "an object", "list": "a list",
            "names": "a list of names", "interval": "[lo, hi] with lo <= hi, null for an open end",
            "label": 'a label >= 1 or {"type": ..., "pick": "first", "last" or an index}'}[f.kind]
    return need + " or null" * f.null


class _Refused(Exception):
    """A value that its field does not take; the message says why."""


def _value(f: Field, v):
    """``v`` if ``f`` takes it (an array field: the decoded array); else raises _Refused."""
    kind = f.kind
    if v is None and f.null:
        return None
    if kind in ("number", "integer"):
        ok = (_finite(v) and (kind == "number" or isinstance(v, int)) and f.lo <= v <= f.hi
              and not (f.nonzero and v == 0) and not (f.odd and v % 2 == 0))
    elif kind in _TYPES:
        ok = isinstance(v, _TYPES[kind]) and (f.among is None or v in f.among)
    elif kind == "names":
        ok = isinstance(v, list) and all(isinstance(x, str) for x in v)
        for name in v if ok and f.among is not None else ():
            if name not in f.among:
                raise _Refused(f"names unknown parameter {name!r}")
    elif kind == "map":
        ok = isinstance(v, dict) and all(map(_finite, v.values()))
        if not ok:
            raise _Refused(f"must map names to numbers, got {v!r}")
    elif kind == "vector":
        ok = isinstance(v, list) and len(v) == f.shape[0] and all(map(_finite, v))
    elif kind == "interval":
        ok = (isinstance(v, list) and len(v) == 2 and all(x is None or _finite(x) for x in v)
              and (None in v or v[0] <= v[1]))
    elif kind == "label":
        ok = is_label_spec(v)
    elif kind == "version":
        if type(v) is not int or v != f.lo:  # not true, not 1.0
            raise _Refused(f"is {v!r}: format version {v!r} not supported "
                           f"(this build reads version {f.lo})")
        return v
    else:
        return {"grid": _grid, "array": _array}[kind](f, v)
    if not ok:
        raise _Refused(f"must be {_need(f)}, got {v!r}")
    return v


def _grid(f: Field, v) -> np.ndarray:
    """Nested lists of numbers as a float array of ``f.shape``."""
    try:
        a = np.asarray(v)
    except ValueError:  # ragged
        a = None
    if a is None or a.dtype.kind not in "if" or a.ndim != len(f.shape):
        raise _Refused(f"is not a {len(f.shape)}-dimensional array of numbers")
    return _shaped(f, a.astype(float))


def _array(f: Field, v) -> np.ndarray:
    """An encoded array ({"dtype": "<f8", "shape", "data": base64}) as a
    writable float array of ``f.shape``."""
    if not isinstance(v, dict) or v.get("dtype") != "<f8":
        raise _Refused("is not an encoded <f8 array")
    try:
        shape = tuple(int(k) for k in v["shape"])
        raw = base64.b64decode(v["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise _Refused(f"is a malformed array ({exc})") from None
    if min(shape, default=0) < 0 or len(raw) != 8 * math.prod(shape):
        raise _Refused(f"has {len(raw)} data bytes, not 8 per entry of shape {list(shape)}")
    return _shaped(f, np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float))


def _shaped(f: Field, a: np.ndarray) -> np.ndarray:
    """``a`` if it has the shape of ``f``."""
    if f.shape is not None and (a.ndim != len(f.shape) or any(
            want is not None and got != want for got, want in zip(a.shape, f.shape))):
        raise _Refused(f"has shape {list(a.shape)}, not {list(f.shape)}")
    return a


class Reader:
    """Checks the fields of the file ``path``, of the object at ``prefix`` in
    it; a fault raises ``error`` naming the file and the field."""

    def __init__(self, path: str, error=FormatError, prefix: str = ""):
        self.path, self.error, self.prefix = path, error, prefix

    def fail(self, where: str, phrase: str = None):
        """Raise the error for the field ``where``: ``phrase`` says what is
        wrong with it, no phrase that it is missing."""
        where = ".".join(filter(None, (self.prefix, where)))
        if self.error is ConfigError or not where:  # not where: the document itself
            raise self.error(f"{self.path}: {where or 'the document'}: "
                             f"{phrase or 'missing required field'}")
        raise FormatError(f"{self.path}: field {where!r} {phrase}" if phrase
                          else f"{self.path}: missing field {where!r}")

    def value(self, v, where: str, field: Field):
        """``v`` checked as the field ``where`` (an array field: decoded)."""
        try:
            return _value(field, v)
        except _Refused as exc:
            self.fail(where, str(exc))

    def cell(self, text: str, where: str, row: str, field: Field):
        """The text cell ``text`` of the column ``where`` in the table row
        ``row``, as a value of ``field``."""
        try:
            return _value(field, {"integer": int, "number": float}.get(field.kind, str)(text))
        except (ValueError, _Refused):
            self.fail(where, f"of row {row!r} does not parse as {_need(field)}")

    def check(self, obj: dict, table: dict, reader: str = None) -> dict:
        """The values of ``obj``'s fields by path, each checked against its
        ``table`` entry (a Field, or a tuple of Fields checked in turn).  With
        a ``reader`` (what reads ``obj``), a field that no entry lists is
        refused."""
        got = {"": self.value(obj, "", OBJECT)}
        for path, entry in table.items():
            parent, _, key = path.rpartition(".")
            fields = entry if isinstance(entry, tuple) else (entry,)
            if not isinstance(got.get(parent), dict):  # an optional object that is missing
                continue
            if key not in got[parent]:
                if not fields[0].optional:
                    self.fail(path)
                continue
            for field in fields:
                got[path] = self.value(got[parent][key], path, field)
        for path, v in list(got.items()) if reader else ():
            if path == "" or isinstance(table[path], Field) and table[path].kind == "object":
                for key in v:
                    if ".".join(filter(None, (path, key))) not in table:
                        self.fail(".".join(filter(None, (path, key))),
                                  f"a {reader} takes no {key}" if self.error is ConfigError
                                  else f"is not read by a {reader}")
        return got
