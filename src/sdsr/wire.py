"""The JSON boundary: parse text, decode it into frozen dataclasses, encode them back, render text.

:func:`parse` is the package's one reader from JSON text to a value, and
:func:`dumps` its one writer of JSON text.  :func:`decode` and
:func:`encode` take both directions from one type grammar: each type's
codec is built once and holds its decoder and its encoder.  A field is
required unless its class gives it a default, and a field whose wire key
differs from its name says so in ``field(metadata={"key": ...})``;
reader and writer both take the key from there.  Unknown keys are
ignored and nothing is coerced: ``"3"`` is no integer and ``true`` is no
number.
"""

from __future__ import annotations

import functools
import json
import re
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from json.encoder import encode_basestring as _escape

from .errors import MalformedFile

_SCALARS = frozenset({str, int, float, bool, type(None)})
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a number", bool: "a boolean", type(None): "null"}


# An escape that json.loads may turn into a lone surrogate, which no writer can encode.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F][0-9a-fA-F]{2}")


def parse(text: str | bytes, where: str) -> object:
    """Parse JSON *text*, bytes as strict UTF-8; MalformedFile, prefixed by a non-empty
    *where*, if it is not UTF-8 or not JSON, nests too deeply or escapes a lone surrogate."""
    prefix = f"{where}: " if where else ""
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        data = json.loads(text)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{prefix}not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{prefix}invalid JSON: {exc}") from None
    except RecursionError:
        raise MalformedFile(f"{prefix}nested too deeply to decode") from None
    # A lone-surrogate escape needs a backslash, which most files never hold.
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        # A pair of escapes decodes to one character; a lone one stays a surrogate.
        try:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedFile(
                f"{prefix}a string holds the lone surrogate {exc.object[exc.start]!r}") from None
    return data


class _Invalid(Exception):
    def __init__(self, problem: str) -> None:
        self.problem = problem
        self.path: list[str | int] = []  # innermost step first


def decode(cls, obj: object, *root: str):
    """Decode *obj*, a parsed JSON value, as *cls*.

    *cls* is a dataclass or a type such as ``dict[str, str]``.  A shape
    or type error, or a ``ValueError`` from ``__post_init__``, raises
    MalformedFile naming the key path after the *root* keys of *obj*,
    e.g. ``distractors[0].skills[0].skill_name``.
    """
    keep, convert, _ = _codec(cls)
    try:
        return obj if type(obj) in keep else convert(obj)
    except _Invalid as exc:
        where = ""
        for step in [*root, *reversed(exc.path)]:
            where += f"[{step}]" if type(step) is int else f".{step}" if where else step
        raise MalformedFile(f"{where}: {exc.problem}" if where else exc.problem) from None


def _fail(value, *expected: type):
    wanted = " or ".join(_KINDS[t] for t in expected)
    raise _Invalid(f"expected {wanted}, got {_KINDS.get(type(value), type(value).__name__)}")


@functools.cache  # built once per type; a key path is built only on failure
def _codec(tp) -> tuple[tuple[type, ...], typing.Callable[[object], object],
                        typing.Callable[[object], object] | None]:
    # (the value types decoded as parsed, the decoder for every other value,
    #  the encoder, or None where a value is written as it is)
    if tp is float:
        return (float,), lambda value: (
            float(value) if type(value) is int else _fail(value, float)), None
    if tp in _SCALARS:
        return (tp,), lambda value: _fail(value, tp), None
    if tp is object:  # a parsed value, kept and written as it is
        return (), lambda value: value, None
    if is_dataclass(tp):
        return (), *_record(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        members = [_codec(a) for a in args if a is not type(None)]
        keep = sum((k for k, _, _ in members), ()) + tuple(a for a in args if a is type(None))
        if len(members) == 1:
            _, convert, encoder = members[0]
            return keep, convert, None if encoder is None else (
                lambda value: None if value is None else encoder(value))
        if all(k for k, _, _ in members):  # scalars only, e.g. str | int
            return keep, lambda value: _fail(value, *keep), None
    if origin is tuple and (args[-1] is Ellipsis or len(set(args)) == 1):  # one item type
        keep, convert, encoder = _codec(args[0])
        return ((), _items(keep, convert, None if args[-1] is Ellipsis else len(args)),
                list if encoder is None else lambda value: list(map(encoder, value)))
    if origin is dict and args[0] is str:
        keep, convert, encoder = _codec(args[1])
        return ((), _mapping(keep, convert), dict if encoder is None else (
            lambda value: {key: encoder(v) for key, v in value.items()}))
    raise TypeError(f"no wire codec for {tp!r}")


def _items(keep, convert, count: int | None):
    def decode_items(value):
        if type(value) is not list:
            _fail(value, list)
        if count is not None and len(value) != count:
            raise _Invalid(f"expected {count} items, got {len(value)}")
        out = []
        try:
            for element in value:
                out.append(element if type(element) in keep else convert(element))
        except _Invalid as exc:
            exc.path.append(len(out))
            raise
        return tuple(out)
    return decode_items


def _mapping(keep, convert):
    def decode_values(value):
        if type(value) is not dict:
            _fail(value, dict)
        out = {}
        try:
            for key, element in value.items():
                out[key] = element if type(element) in keep else convert(element)
        except _Invalid as exc:
            exc.path.append(key)
            raise
        return out
    return decode_values


def _record(cls):
    # (the decoder and the encoder of a record, both from its fields' codecs)
    hints = typing.get_type_hints(cls)
    codecs = {f.name: _codec(hints[f.name]) for f in fields(cls)}
    plan = tuple(
        (f.name, f.metadata.get("key", f.name), *codecs[f.name][:2],
         f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls) if f.init)

    def decode_record(value):
        if type(value) is not dict:
            _fail(value, dict)
        kwargs = {}
        try:
            for name, key, keep, convert, required in plan:
                element = value.get(key, MISSING)
                if element is not MISSING:
                    kwargs[name] = element if type(element) in keep else convert(element)
                elif required:
                    raise _Invalid("missing required key")
        except _Invalid as exc:
            exc.path.append(key)
            raise
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise _Invalid(str(exc)) from None

    # One generated dict display per type, as dataclasses builds __init__:
    # it runs in half the time of a loop over the fields.
    scope, items = {}, []
    for f in fields(cls):
        value = f"value.{f.name}"
        if (encoder := codecs[f.name][2]) is not None:
            scope[f"convert_{f.name}"] = encoder
            value = f"convert_{f.name}({value})"
        items.append(f"{f.metadata.get('key', f.name)!r}: {value}")
    exec(f"def encode_record(value):\n    return {{{', '.join(items)}}}\n", scope)
    return decode_record, scope["encode_record"]


def encode(obj: object) -> object:
    """The inverse of :func:`decode`: *obj* as a value ``json.dumps`` takes.

    *obj* is a dataclass instance, a scalar, or a tuple, list or dict of
    them.  A record becomes a dict keyed by ``metadata["key"]`` or the
    field name, in field order; a tuple becomes a list and ``None`` stays
    ``None``, written as ``null``.
    """
    if type(obj) in (tuple, list):
        return [encode(item) for item in obj]
    if type(obj) is dict:
        return {key: encode(value) for key, value in obj.items()}
    convert = _codec(type(obj))[2]
    return obj if convert is None else convert(obj)


class Text:
    """JSON text that :func:`dumps` rendered before, for :func:`dumps` to insert as it is.

    :func:`dumps` re-indents it to its depth by prefixing each line after
    the first, which is safe because an encoded JSON string never holds a
    raw line break.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def dumps(value: object) -> str:
    """*value*, as :func:`encode` returns it, as JSON text: indented by two, non-ASCII kept.

    The text is ``json.dumps(value, ensure_ascii=False, indent=2)``, byte
    for byte; a :class:`Text` in *value* is written as the value it renders.
    With an indent, ``json.dumps`` runs its pure-Python encoder; this one
    appends to one list and escapes strings with the same C function.
    """
    parts: list[str] = []
    _render(value, "\n", parts)
    return "".join(parts)


def _render(value, newline: str, parts: list[str]) -> None:
    # *newline* is a line break and the indent of value's own depth.
    kind = type(value)
    if kind is str:
        parts.append(_escape(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        start, inner = len(parts), newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if type(key) is not str:  # json.dumps converts int, float, bool and None keys
                del parts[start:]
                parts.append(_json_text(value, newline))
                return
            if type(item) is str:  # most leaves: no call
                parts.append(f"{separator}{_escape(key)}: {_escape(item)}")
            else:
                parts.append(f"{separator}{_escape(key)}: ")
                _render(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _render(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif kind is Text:
        parts.append(value.text.replace("\n", newline))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif kind is int:
        parts.append(int.__repr__(value))
    else:  # a float, a subclass, or no JSON value: json.dumps writes it or raises TypeError
        parts.append(_json_text(value, newline))


def _json_text(value, newline: str) -> str:
    return json.dumps(value, ensure_ascii=False, indent=2).replace("\n", newline)
