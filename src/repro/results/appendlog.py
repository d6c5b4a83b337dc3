"""The append-only line log under run files and the job queue.

One format and one crash rule, in one place.  A log is a file of
canonical JSON lines — sorted keys, no whitespace, one ``\\n`` each —
so the same record is always the same bytes.  A writer killed
mid-append leaves at most one unterminated tail; :func:`scan` never
returns it and both ways of opening cut it before the next append, so
a new line can never fuse with half of an old one.  A log with one
writer is continued with :func:`open_at`, from wherever that writer's
durable unit ends; a log several processes append to is continued
with :func:`open_shared`, which never cuts a complete line, and a
read-then-append step on such a log runs under :func:`lock`.

What a line *means* — header checks, which corruption is tolerated,
what the durable unit is — stays with the consumers
(:mod:`repro.results.sinks`: a run file recovers to a whole trial;
:mod:`repro.jobs.store`: the queue refuses any corrupt complete line).
Durability is the caller's choice per append: the queue fsyncs every
event, a run file flushes every record and fsyncs when it finishes.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path
from typing import BinaryIO, List, Tuple

__all__ = [
    "append", "encode_line", "lock", "open_at", "open_shared", "scan",
    "sync",
]


def encode_line(data: dict) -> bytes:
    """``data`` as one canonical, newline-terminated log line."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def scan(path: Path) -> Tuple[List[bytes], int, bool]:
    """The log's complete lines, the offset just past the last one,
    and whether an unterminated tail follows it.

    Lines come back without their terminators.  A missing or empty
    file is ``([], 0, False)``; an unterminated tail is not a line.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0, False
    end = data.rfind(b"\n") + 1
    return data[:end].split(b"\n")[:-1], end, len(data) > end


def open_at(path: Path, offset: int) -> BinaryIO:
    """Open a single-writer log for appending at ``offset`` (one
    :func:`scan` gave).

    Whatever lies past ``offset`` — a torn tail, or complete lines the
    caller's durable unit does not cover — is cut first.  A file that
    already ends at ``offset`` is not touched; offset 0 starts the log
    afresh, creating its directory if need be.
    """
    if offset == 0:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "wb")
    handle = open(path, "r+b")
    if handle.seek(0, os.SEEK_END) > offset:
        handle.truncate(offset)
        handle.seek(offset)
    return handle


def open_shared(path: Path) -> BinaryIO:
    """Open a log that other processes may be appending to as well.

    The handle is ``O_APPEND``: each write lands after whatever is in
    the file by then, a peer's latest line included.  Only an
    unterminated tail is ever cut, never a complete line.  The handle
    comes back positioned at the log's end, so ``tell() == 0`` means
    the log is new (or held only half a first line); its directory is
    created if need be.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "a+b")
    size = handle.seek(0, os.SEEK_END)
    if size:
        handle.seek(size - 1)
        if handle.read(1) != b"\n":
            handle.seek(0)
            handle.truncate(handle.read().rfind(b"\n") + 1)
            handle.seek(0, os.SEEK_END)
    return handle


def lock(handle: BinaryIO) -> None:
    """Hold a shared log's writer lock until ``handle`` closes.

    For an append whose content depends on what the log already holds
    (the queue numbers a job by counting those before it).  Advisory
    (``flock``): only peers that take it too wait.  The handle is
    re-positioned at the log's end as it is *now*, so ``tell() == 0``
    still means the log is new.
    """
    fcntl.flock(handle, fcntl.LOCK_EX)
    handle.seek(0, os.SEEK_END)


def append(handle: BinaryIO, line: bytes, *, fsync: bool = False) -> None:
    """Write one encoded line and flush it to the OS (``fsync=True``:
    to stable storage)."""
    handle.write(line)
    if fsync:
        sync(handle)
    else:
        handle.flush()


def sync(handle: BinaryIO) -> None:
    """Force everything appended so far to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())
