"""The one write path for every file the package keeps.

`write` replaces a file whole: it stages the bytes beside the file and renames
them over it, so a crash mid-write leaves the previous file, or none, never a
cut one. `append` adds bytes to the end of a file, and `truncate` cuts bytes
off it. `write` and `append` create files with mode 0600 whatever the umask,
since a reader database and a tag key file hold secrets. `lock` keeps a
second process off a file for as long as one holds it.

Nothing calls `fsync` yet: a write survives a process crash but not a power
loss. That policy, when it is set, is set here.
"""

from __future__ import annotations

import fcntl
import os

from rfpop.errors import RfpopError

_MODE = 0o600


def write(path: str, data: bytes) -> bytes:
    """Replace `path` with `data`, through `<path>.tmp`; returns `data`. The
    staged file is set to 0600 even if a crash left it behind with another
    mode."""
    staged = path + ".tmp"
    with open(os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, _MODE), "wb") as handle:
        os.fchmod(handle.fileno(), _MODE)
        handle.write(data)
    os.replace(staged, path)
    return data


def append(path: str, data: bytes):
    """Append `data` to `path` in one unbuffered write, creating the file
    with mode 0600."""
    with open(os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, _MODE), "ab", 0) as handle:
        handle.write(data)


def truncate(path: str, size: int):
    """Cut `path` to its first `size` bytes, in place."""
    os.truncate(path, size)


def lock(path: str):
    """The existing file `path`, open and exclusively locked until it is
    closed; use it as `with lock(path):`. A lock is on the file, not the
    name, so `path` must be one that nothing replaces or removes while it is
    held: an append-only file, which `append` and truncation change in place.
    A `path` that another process (or another open of it) holds is an
    RfpopError naming it, at once: nothing waits for a lock."""
    handle = open(path, "rb", 0)
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise RfpopError(f"{path} is in use by another process") from None
    return handle
