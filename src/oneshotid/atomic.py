"""Artifact files that are either the old bytes or the complete new ones.

Checkpoints, reports, manifests, PGM images, matrix files and augmentation
sidecars are written through ``atomic_open``: the bytes go to a temporary
file next to the target, which then replaces the target in one
``os.replace``.  A run that fails or is interrupted while writing leaves
the previous file as it was and no temporary file behind.  Run summaries,
manifests and sidecars share one ``key=value`` line format, written by
``write_key_values``.  Every binary payload (checkpoint manifest and
parameters, matrix payload, PGM raster) enters memory through
``read_array``, once, into the array the caller keeps.
"""

import math
import os
import secrets
from contextlib import contextmanager

import numpy as np

from .errors import FormatError


def read_array(f, dtype, shape, what):
    """A new writable ``dtype`` array of ``shape`` read from the binary file
    ``f``.  Fewer bytes left in ``f`` is a FormatError naming the file,
    ``what`` was cut short and the byte count.  That is checked before
    anything is allocated, so a header cannot make it allocate the size."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes <= os.fstat(f.fileno()).st_size - f.tell():
        arr = np.empty(shape, dtype)
        if f.readinto(arr) == nbytes:
            return arr
    raise FormatError(f"{f.name}: truncated {what}, expected {nbytes} bytes")


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
