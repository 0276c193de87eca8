"""The JSON boundary: parse text, decode it into frozen dataclasses, encode them back, render text.

:func:`parse` is the package's one reader from JSON text to a value, and
:func:`dumps` its one writer of JSON text.  :func:`decode` and
:func:`encode` take both directions from one type grammar: each type's
codec is built once and holds its decoder and its encoder.  Both record
directions are generated code, built once per dataclass with ``exec`` as
``dataclasses`` builds ``__init__``: the decoder reads each field into a
local and ends in one positional call of the class, so ``__post_init__``
runs, and the encoder is one dict display.  A field is
required unless its class gives it a default, and a field whose wire key
differs from its name says so in ``field(metadata={"key": ...})``;
reader and writer both take the key from there.  Unknown keys are
ignored and nothing is coerced: ``"3"`` is no integer and ``true`` is no
number.
"""

from __future__ import annotations

import functools
import inspect
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
# json.loads raises a bare ValueError, with no position, for an integer literal
# int() refuses; both JSON readers report it in these words.
LONG_INTEGER = "an integer literal has more digits than sys.get_int_max_str_digits() allows"


def parse(text: str | bytes, where: str) -> object:
    """Parse JSON *text*, bytes as strict UTF-8 less a leading BOM; MalformedFile, prefixed by
    a non-empty *where*, if it is not UTF-8 or not JSON, nests too deeply, escapes a lone
    surrogate or spells an integer too long for ``int``."""
    prefix = f"{where}: " if where else ""
    try:
        text = text.decode("utf-8-sig") if isinstance(text, bytes) else text
        data = json.loads(text)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{prefix}not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{prefix}invalid JSON: {exc}") from None
    except ValueError:
        raise MalformedFile(f"{prefix}{LONG_INTEGER}") from None
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


def _to_float(value) -> float:
    if type(value) is not int:
        _fail(value, float)
    try:
        return float(value)
    except OverflowError:
        raise _Invalid("expected a number, got an integer too large to convert") from None


@functools.cache  # built once per type; a key path is built only on failure
def _codec(tp) -> tuple[tuple[type, ...], typing.Callable[[object], object],
                        typing.Callable[[object], object] | None]:
    # (the value types decoded as parsed, the decoder for every other value,
    #  the encoder, or None where a value is written as it is)
    if tp is float:
        return (float,), _to_float, None
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
        try:
            return tuple([element if type(element) in keep else convert(element)
                          for element in value])
        except _Invalid:
            # Decoding is pure, so a second walk fails at the same element: it names the index.
            for index, element in enumerate(value):
                try:
                    if type(element) not in keep:
                        convert(element)
                except _Invalid as exc:
                    exc.path.append(index)
                    raise
            raise
    return decode_items


def _mapping(keep, convert):
    # A loop, not a comprehension as in _items: on the few keys a record's
    # mapping holds, the comprehension measured 3-8 % slower.
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
    # (the decoder and the encoder of a record, both generated once from its
    #  fields' codecs, as dataclasses generates __init__: straight-line code
    #  is cheaper in both directions than a loop over the fields)
    hints = typing.get_type_hints(cls)
    codecs = {f.name: _codec(hints[f.name]) for f in fields(cls)}
    init = [f for f in fields(cls) if f.init]
    # The decoder passes every field by position, so __init__ must take exactly these, in order.
    if [(p.name, p.kind) for p in inspect.signature(cls).parameters.values()] != [
            (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for f in init]:
        raise TypeError(f"no wire codec for {cls!r}: __init__ does not take its fields by position")

    scope = {"cls": cls, "MISSING": MISSING, "_Invalid": _Invalid, "_fail": _fail}
    lines = ["def decode_record(value):",
             "    if type(value) is not dict:",
             "        _fail(value, dict)"]
    for i, f in enumerate(init):
        keep, scope[f"convert_{i}"], _ = codecs[f.name]
        if f.default is not MISSING:
            scope[f"default_{i}"] = f.default
            fill = f"v{i} = default_{i}"
        elif f.default_factory is not MISSING:
            scope[f"factory_{i}"] = f.default_factory
            fill = f"v{i} = factory_{i}()"
        else:
            fill = 'raise _Invalid("missing required key")'
        read = [f"if v{i} is MISSING:", f"    {fill}", "else:", f"    v{i} = convert_{i}(v{i})"]
        if keep:  # a value of a kept type is taken as parsed, with no call
            scope[f"keep_{i}"] = keep[0] if len(keep) == 1 else keep
            check = "is not" if len(keep) == 1 else "not in"
            read = [f"if type(v{i}) {check} keep_{i}:", *("    " + line for line in read)]
        key = f.metadata.get("key", f.name)
        lines += ["    try:",
                  f"        v{i} = value.get({key!r}, MISSING)",
                  *("        " + line for line in read),
                  "    except _Invalid as exc:",
                  f"        exc.path.append({key!r})",
                  "        raise"]
    # One positional call: cheaper than keywords, and __post_init__ still runs.
    lines += ["    try:",
              f"        return cls({', '.join(f'v{i}' for i in range(len(init)))})",
              "    except ValueError as exc:",
              "        raise _Invalid(str(exc)) from None"]

    items = []
    for i, f in enumerate(fields(cls)):
        value = f"value.{f.name}"
        if (encoder := codecs[f.name][2]) is not None:
            scope[f"encode_{i}"] = encoder
            value = f"encode_{i}({value})"
        items.append(f"{f.metadata.get('key', f.name)!r}: {value}")
    lines += ["def encode_record(value):", f"    return {{{', '.join(items)}}}"]
    exec("\n".join(lines), scope)
    return scope["decode_record"], scope["encode_record"]


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
