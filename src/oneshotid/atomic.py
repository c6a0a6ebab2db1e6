"""Artifact files that are either the old bytes or the complete new ones.

Checkpoints, reports, manifests, PGM images, matrix files and augmentation
sidecars are written through ``atomic_open``: the bytes go to a temporary
file next to the target, which then replaces the target in one
``os.replace``.  A run that fails or is interrupted while writing leaves
the previous file as it was and no temporary file behind.  Run summaries,
manifests and sidecars share one ``key=value`` line format, written by
``write_key_values``.  The readers of checkpoints, PGM images and matrix
files take their payloads through ``read_exactly``, which checks a size
that a header claims against the file before reading.
"""

import os
import secrets
from contextlib import contextmanager


def read_exactly(f, nbytes):
    """The next ``nbytes`` bytes of the binary file ``f``, or None if it
    holds fewer.  The size is checked before reading, so a header that
    claims more than the file holds never allocates the claimed size."""
    if nbytes > os.fstat(f.fileno()).st_size - f.tell():
        return None
    data = f.read(nbytes)
    return data if len(data) == nbytes else None


@contextmanager
def atomic_open(path, mode, **kwargs):
    """``open(path, mode, **kwargs)`` for writing, made atomic.

    The file object writes to ``<path>.<random>.tmp`` in the same
    directory, created with the permissions a plain ``open`` would give.
    When the ``with`` block ends normally the temporary file replaces
    ``path``; when it raises, the temporary file is removed and the
    exception propagates.
    """
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_key_values(path, items):
    """Write ``(key, value)`` pairs as ``key=value`` lines, in the given
    order, atomically, as UTF-8 with LF line endings."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        for key, value in items:
            f.write(f"{key}={value}\n")
