"""Bounded-prefix extraction of summary blocks and token estimation.

The point of the summary block is that a reader never has to load the
body.  This module reads a file in fixed-size blocks and decodes its
top-level object member by member with ``json.JSONDecoder.raw_decode``,
stopping as soon as the summary value is complete; nothing past the
summary is validated.  For a file whose summary ends at byte offset
``o`` read with block size ``b``, at most ``o + b`` bytes are ever read.
The summary span's UTF-8 check and byte length come from one strict encode.
"""

from __future__ import annotations

import codecs
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import IoFailure, MalformedFile, NoSummary, SummaryNotFirst
from .library import SUMMARY_KEY, Finding, SEVERITY_WARNING, SummaryBlock
from .wire import decode

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
    warning: str | None = None


def scan_registry(directory: str | Path, extension: str = ".json") -> FileRegistry:
    """List every file under *directory* matching *extension*, sorted by path.

    File ids are the paths relative to *directory* in POSIX form, which
    keeps them unique and makes registry order deterministic.
    """
    root = Path(directory)
    if not root.is_dir():
        raise IoFailure(f"not a readable directory: {root}")
    try:
        paths = sorted(p for p in root.rglob(f"*{extension}") if p.is_file())
    except OSError as exc:
        raise IoFailure(f"cannot scan {root}: {exc}") from exc
    entries = []
    for p in paths:
        try:
            size = p.stat().st_size
        except OSError as exc:
            raise IoFailure(f"cannot stat {p}: {exc}") from exc
        entries.append(RegistryEntry(
            file_id=p.relative_to(root).as_posix(), path=str(p), byte_size=size))
    return FileRegistry(entries=tuple(entries))


_DECODER = json.JSONDecoder()
_WS = re.compile(r"[ \t\n\r]*")
# A bare number or literal is complete only once one of these follows it:
# a block edge can cut "-1.5e3" to "-1.", which decodes as -1.
_DELIMITERS = frozenset(" \t\n\r,}")
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

    def decode(self, start: int, walk: bool = False) -> tuple[object, int]:
        """Decode the JSON value at *start*; return it and the index past it.

        With *walk*, an incomplete object is walked member by member.  Any
        other incomplete value is decoded again only after a block holding
        its closing character, so small blocks do not cost a decode each.
        """
        closer = {"{": "}", "[": "]", '"': '"'}.get(self.text[start])
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, start)
            except json.JSONDecodeError as exc:
                message, pos = exc.msg, exc.pos
            else:
                if closer or self.text[end:end + 1] in _DELIMITERS:
                    return value, end
                message, pos = "Expecting ',' or '}' after a value", end
            if not (message.startswith("Unterminated string")
                    or len(self.text) - pos <= _CUT_TOKEN_MAX):
                raise self.error(f"{message} at character {pos}")
            if closer == "}" and walk:
                for _ in self.members(start):
                    pass
            else:
                self.read_until(closer)

    def members(self, pos: int, walk: bool = False) -> Iterator[tuple[str, int]]:
        """Walk the object whose "{" is at *pos*, yielding (key, value start).

        Each value is decoded, with *walk*, only when the walk resumes past it.
        """
        char, pos = self.next_char(pos + 1, '"}')
        while char != "}":
            key, pos = self.decode(pos)
            pos = self.next_char(pos, ":")[1]
            start = self.next_char(pos + 1)[1]
            yield key, start
            char, pos = self.next_char(self.decode(start, walk)[1], ",}")
            if char == ",":
                char, pos = self.next_char(pos + 1, '"')


def extract_summary(
    path: str | Path,
    block_size: int = DEFAULT_BLOCK_SIZE,
    strict: bool = True,
) -> PrefixReadResult:
    """Read just enough of *path* to return its summary block.

    In strict mode the summary must be the file's first key; finding
    any other key first raises SummaryNotFirst before its value is read.
    In lenient mode the reader decodes each earlier top-level value and
    returns the summary with a warning recording its actual position; a
    file with no summary key at all raises NoSummary.  The returned
    block is identical to what a full-file parse would produce
    regardless of ``block_size``; only ``bytes_read`` varies.
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
            # Walk top-level values only, so deep nesting never recurses here.
            top = src.next_char(pos, "{")[1]
            for index, (key, start) in enumerate(src.members(top, walk=True)):
                if key == SUMMARY_KEY:
                    value, end = src.decode(start, walk=True)
                    # Undecodable bytes became lone surrogates, which a strict encode rejects.
                    try:
                        span = src.text[start:end].encode("utf-8")
                    except UnicodeEncodeError:
                        raise src.error("summary value is not valid UTF-8") from None
                    head = src.text[:start].encode("utf-8", "surrogateescape")
                    return PrefixReadResult(
                        summary=decode(SummaryBlock, value, f"{path}: {SUMMARY_KEY}"),
                        bytes_read=src.bytes_read,
                        summary_end_offset=len(head) + len(span),
                        warning=(f"summary block is key #{index + 1} of the file, "
                                 "not the first key" if index else None),
                    )
                if strict:
                    raise SummaryNotFirst(
                        f"{path}: first top-level key is {key!r}, not {SUMMARY_KEY!r}")
        except RecursionError:
            raise src.error("nested too deeply to decode") from None
    raise NoSummary(f"{path}: no {SUMMARY_KEY!r} key in top-level object")


def read_registry_summaries(
    registry: FileRegistry,
    block_size: int = DEFAULT_BLOCK_SIZE,
    strict: bool = True,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> tuple[list[tuple[str, PrefixReadResult]], list[Finding]]:
    """Extract every registry entry's summary, in registry order.

    Returns the per-file results plus findings: a warning for every
    summary whose token estimate exceeds *token_budget* (the estimate
    is reported, never clamped) and for every lenient-mode position
    warning.
    """
    results: list[tuple[str, PrefixReadResult]] = []
    findings: list[Finding] = []
    for entry in registry.entries:
        result = extract_summary(entry.path, block_size=block_size, strict=strict)
        results.append((entry.file_id, result))
        estimate = summary_token_estimate(result.summary)
        if estimate > token_budget:
            findings.append(Finding(
                SEVERITY_WARNING, "TOKEN_BUDGET_OVERRUN",
                f"{entry.file_id}: summary estimates {estimate} tokens "
                f"(budget {token_budget})"))
        if result.warning:
            findings.append(Finding(
                SEVERITY_WARNING, "SUMMARY_POSITION", f"{entry.file_id}: {result.warning}"))
    return results, findings
