"""Bounded-prefix extraction of summary blocks and token estimation.

The point of the summary block is that a reader never has to load the
body.  This module reads a file in fixed-size blocks and decodes its
top-level object member by member with ``json.JSONDecoder.raw_decode``,
stopping as soon as the summary value is complete; nothing past the
summary is validated.  For a file whose summary ends at byte offset
``o`` read with block size ``b``, at most ``o + b`` bytes are ever read.

Each summary is decoded once, one way: an object at the top level is
walked member by member and built from its members' values, and every
other value, each member included, takes one ``raw_decode`` once the
text holds its closing character.  So where block edges fall changes
only ``bytes_read``, never a value or an error message.  The summary
span's UTF-8 check and byte length come from one strict encode.
The token estimate is a quarter of ``SummaryBlock.compact_length``: fixed
punctuation, counted once from ``encode`` of empty records, plus one
``json.encoder.encode_basestring`` pass over the summary's texts joined,
so no JSON is built or dumped.
"""

from __future__ import annotations

import codecs
import errno
import fnmatch
import json
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NoReturn

from .errors import IoFailure, MalformedFile, NoSummary, SummaryNotFirst
from .library import SUMMARY_KEY, Finding, SEVERITY_WARNING, SummaryBlock
from .wire import LONG_INTEGER, decode

DEFAULT_BLOCK_SIZE = 4096

# The design target for a well-hinted summary block; overruns are
# reported, never clamped.
DEFAULT_TOKEN_BUDGET = 200


def estimate_tokens(text: str) -> int:
    """Deterministic token proxy: ceil(scalar values / 4)."""
    return (len(text) + 3) // 4


def summary_token_estimate(summary: SummaryBlock) -> int:
    """estimate_tokens of the summary's compact serialized form."""
    return (summary.compact_length + 3) // 4


@dataclass(frozen=True)
class RegistryEntry:
    file_id: str
    path: str
    byte_size: int


@dataclass(frozen=True)
class FileRegistry:
    entries: tuple[RegistryEntry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PrefixReadResult:
    summary: SummaryBlock
    bytes_read: int
    summary_end_offset: int


# What Path.is_file() reads as "not a file" rather than as a failure.
_NOT_A_FILE = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


def scan_registry(directory: str | Path, extension: str = ".json") -> FileRegistry:
    """List every file under *directory* matching *extension*, sorted by path.

    File ids are the paths relative to *directory* in POSIX form, which
    keeps them unique and makes registry order deterministic.  One
    ``os.walk`` and one ``stat`` per match list what sorted
    ``Path(directory).rglob(f"*{extension}")`` lists with ``is_file()``:
    dot-files and links to files are listed, broken links and links to
    directories are not followed, unreadable subdirectories are skipped.
    """
    root = Path(directory)
    if not root.is_dir():
        raise IoFailure(f"not a readable directory: {root}")

    def fail(exc: OSError) -> NoReturn:
        raise IoFailure(f"cannot scan {root}: {exc}") from exc

    def skip_unreadable(exc: OSError) -> None:
        if not isinstance(exc, PermissionError):
            fail(exc)

    top = str(root)
    cut = len(os.path.join(top, ""))
    entries = []
    for dirpath, _, names in os.walk(top, onerror=skip_unreadable):
        for name in fnmatch.filter(names, f"*{extension}"):
            path = os.path.join(dirpath, name)
            try:
                info = os.stat(path)
            except OSError as exc:
                if exc.errno in _NOT_A_FILE:
                    continue
                fail(exc)
            if stat.S_ISREG(info.st_mode):
                file_id = path[cut:].replace(os.sep, "/")
                # Path(".") joins "a.json" as "a.json", not "./a.json".
                entries.append(RegistryEntry(
                    file_id=file_id, path=file_id if top == "." else path,
                    byte_size=info.st_size))
    # sorted Paths compare part by part: "a/b.json" < "a-b.json".
    entries.sort(key=lambda entry: entry.file_id.split("/"))
    return FileRegistry(entries=tuple(entries))


_DECODER = json.JSONDecoder()
_WS = re.compile(r"[ \t\n\r]*")
# A bare number or literal is complete only once one of these follows it:
# a block edge can cut "-1.5e3" to "-1.", which decodes as -1.
_DELIMITERS = frozenset(" \t\n\r,}")
_CLOSERS = {"{": "}", "[": "]", '"': '"'}
# The characters a cut number literal can end in.
_NUMBER_TAIL = frozenset("0123456789+-.eE")
# A decode error this close to the end of the text may be a token cut
# by a block edge; the longest such token is "-Infinity".
_CUT_TOKEN_MAX = 9


class _BlockText:
    """The decoded text of a file's leading blocks, extended on demand."""

    def __init__(self, handle, path, block_size: int) -> None:
        self._handle = handle
        self._block_size = block_size
        self._decoder = codecs.getincrementaldecoder("utf-8")("surrogateescape")
        self.path = path
        self.text = ""
        self.bytes_read = 0
        self.eof = False
        self.end = 0

    def error(self, message: str) -> MalformedFile:
        return MalformedFile(f"{self.path}: {message}")

    def read_until(self, closer: str | None) -> None:
        """Append blocks up to the first holding *closer* (any block if None)."""
        if self.eof:
            raise self.error("empty file" if self.bytes_read == 0
                             else "truncated before the summary completed")
        blocks = []
        while not self.eof:
            chunk = self._handle.read(self._block_size)
            self.bytes_read += len(chunk)
            self.eof = not chunk
            blocks.append(self._decoder.decode(chunk, final=self.eof))
            if closer is None or closer in blocks[-1]:
                break
        self.text += "".join(blocks)

    def next_char(self, pos: int, allowed: str | None = None) -> tuple[str, int]:
        """Skip whitespace from *pos*; return the next character, one of *allowed* if given."""
        while (pos := _WS.match(self.text, pos).end()) == len(self.text):
            self.read_until(None)
        char = self.text[pos]
        if allowed is not None and char not in allowed:
            raise self.error(f"expected one of {list(allowed)} at character {pos}, found {char!r}")
        return char, pos

    def decode(self, start: int) -> tuple[object, int]:
        """Decode the JSON value at *start* whole; return it and the index past it.

        A value is decoded once the text holds its closing character, and
        again only after a block holding another, so small blocks do not
        cost a decode each.
        """
        closer = _CLOSERS.get(self.text[start])
        # Without its closer the value cannot be complete: read, then decode.
        if closer and self.text.find(closer, start + 1) < 0:
            self.read_until(closer)
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, start)
            except json.JSONDecodeError as exc:
                message, pos = exc.msg, exc.pos
            except ValueError:
                # A block edge may have cut a float's digits down to an integer's.
                if self.eof or self.text[-1] not in _NUMBER_TAIL:
                    raise self.error(LONG_INTEGER) from None
                self.read_until(closer)
                continue
            else:
                if closer or self.text[end:end + 1] in _DELIMITERS:
                    self.end = end
                    return value, end
                message, pos = "Expecting ',' or '}' after a value", end
            if not (message.startswith("Unterminated string")
                    or len(self.text) - pos <= _CUT_TOKEN_MAX):
                raise self.error(f"{message} at character {pos}")
            self.read_until(closer)

    def top_value(self, start: int) -> object:
        """Decode the top-level value at *start*: an object by its members, anything else whole.

        An object is built from its members' values, each decoded once,
        so its own punctuation is checked by the walk whatever the block
        size.  ``self.end`` is then the index past the value.
        """
        if self.text[start] != "{":
            return self.decode(start)[0]
        return {key: self.decode(value_start)[0] for key, value_start in self.members(start)}

    def members(self, pos: int) -> Iterator[tuple[str, int]]:
        """Walk the object whose "{" is at *pos*, yielding (key, value start).

        The caller decodes each value before the walk resumes from
        ``self.end``, the index past the last value decoded; once the walk
        is done, ``self.end`` is the index past the object.
        """
        char, pos = self.next_char(pos + 1, '"}')
        while char != "}":
            key, pos = self.decode(pos)
            pos = self.next_char(pos, ":")[1]
            yield key, self.next_char(pos + 1)[1]
            char, pos = self.next_char(self.end, ",}")
            if char == ",":
                char, pos = self.next_char(pos + 1, '"')
        self.end = pos + 1


def extract_summary(path: str | Path, block_size: int = DEFAULT_BLOCK_SIZE) -> PrefixReadResult:
    """Read just enough of *path* to return its summary block.

    The summary must be the file's first key: any other key first raises
    SummaryNotFirst before its value is read, and an empty object raises
    NoSummary.  The returned block is identical to what a full-file parse
    would produce regardless of ``block_size``; only ``bytes_read`` varies.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot open {path}: {exc}") from exc

    with handle:
        src = _BlockText(handle, path, block_size)
        try:
            pos = 1 if src.next_char(0) == ("\ufeff", 0) else 0
            for key, start in src.members(src.next_char(pos, "{")[1]):
                if key != SUMMARY_KEY:
                    raise SummaryNotFirst(
                        f"{path}: first top-level key is {key!r}, not {SUMMARY_KEY!r}")
                value, end = src.top_value(start), src.end
                # Undecodable bytes became lone surrogates, which a strict encode rejects.
                try:
                    span = src.text[start:end].encode("utf-8")
                except UnicodeEncodeError:
                    raise src.error("summary value is not valid UTF-8") from None
                return PrefixReadResult(
                    summary=decode(SummaryBlock, value, f"{path}: {SUMMARY_KEY}"),
                    bytes_read=src.bytes_read,
                    # Before the value: a BOM, "{", whitespace and the key, all valid UTF-8.
                    summary_end_offset=len(src.text[:start].encode("utf-8")) + len(span),
                )
        except RecursionError:
            raise src.error("nested too deeply to decode") from None
    raise NoSummary(f"{path}: no {SUMMARY_KEY!r} key in top-level object")


def read_registry_summaries(
    registry: FileRegistry,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> tuple[list[tuple[str, PrefixReadResult]], list[Finding]]:
    """Extract every registry entry's summary, in registry order.

    Returns the per-file results plus findings: a warning for every
    summary whose token estimate exceeds DEFAULT_TOKEN_BUDGET (the estimate
    is reported, never clamped).
    """
    results: list[tuple[str, PrefixReadResult]] = []
    findings: list[Finding] = []
    for entry in registry.entries:
        result = extract_summary(entry.path, block_size=block_size)
        results.append((entry.file_id, result))
        estimate = summary_token_estimate(result.summary)
        if estimate > DEFAULT_TOKEN_BUDGET:
            findings.append(Finding(
                SEVERITY_WARNING, "TOKEN_BUDGET_OVERRUN",
                f"{entry.file_id}: summary estimates {estimate} tokens "
                f"(budget {DEFAULT_TOKEN_BUDGET})"))
    return results, findings
