"""Torn-tail-tolerant JSONL journals: one append path and one reader rule.

Five on-disk artifacts share one failure mode: an append-only ``*.jsonl``
file whose final line may be torn because the writing process was killed
mid-append (SIGKILL, OOM, power loss).  They are the run store's
``records.jsonl``, the serve daemon's ``leases.jsonl``, the observability
plane's ``metrics.jsonl`` and ``compactions.jsonl``, and the falsify
``counterexamples.jsonl``.

:func:`parse_jsonl_tolerant` is the reader rule: a malformed chunk after the
last newline is tolerated, while malformed content anywhere else, a
complete newline-terminated last line included, is real corruption and
raises.  It also does the byte
accounting (``valid_bytes``) the run store needs to truncate a torn file
back to its well-formed prefix.

:func:`append` is the one writer.  Before it writes, it repairs the tail by
the same rule, so the next line never lands on the torn bytes of the last.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import BinaryIO, Callable, List, Optional, Tuple

__all__ = ["append", "parse_jsonl_tolerant"]

#: Bytes read per step while looking back for the last newline of a torn
#: file.
_TAIL_BLOCK = 65536


def parse_jsonl_tolerant(
    text: str,
    source: str = "jsonl",
    parse: Optional[Callable[[object], object]] = None,
    intolerant: Tuple[type, ...] = (),
    label: str = "line",
) -> Tuple[List, int, bool]:
    """Parse a JSONL body into ``(items, valid_bytes, torn)``.

    ``items`` holds one parsed value per non-blank line (each passed through
    ``parse`` when given); ``valid_bytes`` is the byte length of the
    well-formed prefix.  A line that fails to decode — or whose ``parse``
    raises ``ValueError`` — is tolerated only when no newline follows it
    (``torn=True``): a torn append never ends in one.  Anywhere else it
    raises ``ValueError`` with the source and line number.

    ``intolerant`` lists exception types that must *never* be swallowed by
    the torn-tail rule (e.g. the run store's ``SchemaVersionError`` — a whole
    store of old-version records must surface the migrate hint, not quietly
    load as empty).  They are re-raised with location context prepended.
    """
    items: List = []
    valid_bytes = 0
    consumed = 0
    lines = text.split("\n")
    for line_number, line in enumerate(lines, start=1):
        consumed += len(line.encode("utf-8")) + 1  # the split "\n"
        stripped = line.strip()
        if stripped:
            try:
                item = json.loads(stripped)
                if parse is not None:
                    item = parse(item)
            except intolerant as exc:
                raise type(exc)(f"{source}:{line_number}: {exc}") from exc
            except (json.JSONDecodeError, ValueError) as exc:
                if line_number == len(lines):
                    return items, valid_bytes, True  # torn tail of an append
                raise ValueError(
                    f"{source}:{line_number}: invalid {label}: {exc}") from exc
            items.append(item)
        valid_bytes = min(consumed, len(text.encode("utf-8")))
    return items, valid_bytes, False


def append(path: str | Path, line: str, *, fsync: bool) -> None:
    """Append ``line`` (without its newline) to the JSONL file at ``path``.

    The line is written, flushed, and fsynced when ``fsync`` is true.  When
    the file does not end in a newline, its tail is repaired first: if the
    bytes after the last newline parse as one JSON value they are a complete
    line and get the missing newline; otherwise they are a torn append and
    are cut away.  A file that ends in a newline costs one one-byte read.
    """
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                _repair_tail(handle, end)
        handle.write(line.encode("utf-8") + b"\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def _repair_tail(handle: BinaryIO, end: int) -> None:
    """End the file open in ``handle`` (``end`` bytes long, no final
    newline) on a newline: keep a tail that parses as JSON, cut one that
    does not."""
    start = end
    while start > 0:
        block_start = max(0, start - _TAIL_BLOCK)
        handle.seek(block_start)
        newline = handle.read(start - block_start).rfind(b"\n")
        if newline >= 0:
            start = block_start + newline + 1
            break
        start = block_start
    handle.seek(start)
    try:
        json.loads(handle.read())
    except ValueError:
        handle.truncate(start)
    else:
        handle.write(b"\n")
