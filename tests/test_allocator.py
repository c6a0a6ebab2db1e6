"""The allocator policy that ``import oneshotid`` sets on glibc: large
blocks come from the heap, not ``mmap``, and freed memory stays in the
process.  On any other libc the helper does nothing."""

import ctypes
import os

import numpy as np
import pytest

import oneshotid


def _mallinfo2():
    """glibc's ``mallinfo2`` (2.33 and later), returning its struct, or None."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        fn = ctypes.CDLL(None).mallinfo2
    except (AttributeError, ValueError, OSError):
        return None
    names = ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
             "fsmblks", "uordblks", "fordblks", "keepcost")

    class Info(ctypes.Structure):
        _fields_ = [(n, ctypes.c_size_t) for n in names]

    fn.argtypes, fn.restype = (), Info
    return fn


@pytest.mark.skipif(_mallinfo2() is None,
                    reason="not glibc (the policy is a no-op) or glibc without mallinfo2")
def test_large_blocks_come_from_the_heap_and_stay_there():
    info = _mallinfo2()
    before = info()
    block = np.ones(64 << 20, dtype=np.uint8)
    during = info()
    del block
    after = info()
    assert during.hblkhd <= before.hblkhd  # no new mmapped bytes
    assert after.arena >= during.arena  # not trimmed after the free


def test_not_glibc_is_a_no_op(monkeypatch):
    def not_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def forbidden(*args, **kwargs):
        raise AssertionError("ctypes touched on a libc that is not glibc")

    monkeypatch.setattr(os, "confstr", not_glibc)
    monkeypatch.setattr(ctypes, "CDLL", forbidden)
    assert oneshotid._keep_freed_memory() is None


def test_a_failing_libc_call_does_not_raise(monkeypatch):
    def no_libc(*args, **kwargs):
        raise OSError("no libc handle")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert oneshotid._keep_freed_memory() is None
