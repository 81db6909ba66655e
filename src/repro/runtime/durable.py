"""The one way this package makes a file survive a crash.

Assumed persistence model: file data reaches the disk in issue order and
an fsync makes every earlier write durable; a creation or rename is
durable only once its directory is fsynced.  One process writes each
file.  See "Durable files" in ``docs/robustness.md`` for the consumers.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Callable, List, Tuple

__all__ = ["append_line", "atomic_write", "read_clean_prefix", "repair_to"]

# mkstemp creates 0600 files; rewritten files get a plain open()'s mode.
_UMASK = os.umask(0)
os.umask(_UMASK)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: "str | os.PathLike[str]", text: str) -> Path:
    """Replace ``path`` by ``text`` via a fsynced temp file: a crash
    leaves the old file or the new one, and the new one once this
    returns."""
    out = Path(path)
    fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=f".{out.name}.tmp.")
    try:
        try:
            os.fchmod(fd, 0o666 & ~_UMASK)
            _write_all(fd, text.encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise
    _fsync_dir(out.parent)
    return out


def append_line(path: "str | os.PathLike[str]", line: str) -> None:
    """Append ``line`` and a newline: a crash leaves at worst one torn
    final line, and the whole line once this returns."""
    created = not os.path.exists(path)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        _write_all(fd, (line + "\n").encode())
        os.fsync(fd)
    finally:
        os.close(fd)
    if created:
        _fsync_dir(Path(path).parent)


def read_clean_prefix(
    path: "str | os.PathLike[str]", parse: Callable[[bytes], Any]
) -> Tuple[List[Any], int, int]:
    """``(rows, clean_bytes, dropped)``: ``parse`` of each line (bytes)
    up to an unterminated one or one it rejects with ``ValueError``,
    ``KeyError`` or ``TypeError``; the prefix's size; the lines after it."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0, 0
    *lines, fragment = data.split(b"\n")
    rows: List[Any] = []
    clean = 0
    for line in lines:
        try:
            rows.append(parse(line))
        except (ValueError, KeyError, TypeError):
            break
        clean += len(line) + 1
    return rows, clean, len(lines) - len(rows) + (1 if fragment else 0)


def repair_to(path: "str | os.PathLike[str]", length: int) -> None:
    """Truncate ``path`` to ``length`` bytes, durably."""
    fd = os.open(path, os.O_WRONLY)
    try:
        os.ftruncate(fd, length)
        os.fsync(fd)
    finally:
        os.close(fd)
