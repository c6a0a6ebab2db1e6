"""One-shot visual identification: pairwise same/different decisions from
a single reference view, with merged-input CNNs, siamese towers, and
capsule variants.

On glibc, importing the package keeps freed memory in the process: malloc
serves every block from the heap instead of ``mmap``, and gives the heap
back to the OS only once 2 GiB at its top are free.  A training step
allocates and frees the same large temporaries every time (im2col
columns, activations, gradients); without this, each step maps them
afresh and pays a page fault per 4 KiB page.  So the process keeps its
high-water mark until it exits.  There is nothing to configure, and on
any other libc nothing changes.
"""

__version__ = "0.1.0"


def _keep_freed_memory():
    """Turn off glibc's mmap for large blocks and its heap trimming; do
    nothing on another libc or if a call fails."""
    import os
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes
    M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_MAX, 0)
    mallopt(M_TRIM_THRESHOLD, 2**31 - 1)


_keep_freed_memory()

from .errors import (ConfigError, DataError, FormatError, NumericError,  # noqa: E402
                     ShapeError, StateError, TapeError)
from .tensor import Tape, Tensor, backward  # noqa: E402

__all__ = [
    "__version__",
    "ConfigError", "DataError", "FormatError", "NumericError",
    "ShapeError", "StateError", "TapeError",
    "Tape", "Tensor", "backward",
]
