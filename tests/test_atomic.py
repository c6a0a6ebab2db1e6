import errno
import json
import os

import numpy as np
import pytest

from oneshotid import atomic
from oneshotid import checkpoint as ckpt
from oneshotid import datasets
from oneshotid import trainer as tr
from oneshotid.atomic import atomic_open
from oneshotid.errors import FormatError


class _DiskFull:
    """File wrapper whose first write puts down half of its bytes, then
    fails the way a full disk does."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()
        return False


def _report():
    return tr.RunReport(train_loss=[0.5, 0.25], train_acc=[0.5, 0.75], val_loss=[0.5, 0.5],
                        val_acc=[0.5, 0.5], wall_time=1.0, config={"lr": 0.001, "seed": 3})


WRITERS = {
    "checkpoint": lambda p: ckpt.write_checkpoint(p, {"model": "x"}, [("w", np.ones((3, 2)))]),
    "csv": lambda p: _report().write_csv(p),
    "summary": lambda p: _report().write_summary(p),
    "manifest": lambda p: atomic.write_key_values(p, [("a", 1), ("b", 2)]),
    "pgm": lambda p: datasets.write_pgm(p, np.full((4, 3), 0.5)),
    "matrix": lambda p: datasets.write_matrix(p, np.arange(6, dtype=np.int32).reshape(2, 3)),
    "sidecar": lambda p: atomic.write_key_values(p, sorted({"seed": 7, "angle": 12.5}.items())),
}


# The binary readers, each returning the arrays it read from a WRITERS file.
READERS = {
    "checkpoint": lambda p: [arr for _, arr in ckpt.read_checkpoint(p)[1]],
    "pgm": lambda p: [datasets.read_pgm(p)],
    "matrix": lambda p: [datasets.read_matrix(p)],
}


@pytest.mark.parametrize("name", list(READERS))
def test_binary_reader_returns_writable_arrays(tmp_path, name):
    path = tmp_path / "artifact"
    WRITERS[name](path)
    arrays = READERS[name](path)
    assert arrays and all(arr.flags.writeable for arr in arrays)


# What each reader names when the last byte of its WRITERS file is cut off.
TRUNCATED = {
    "checkpoint": "buffer for w, expected 48 bytes",
    "pgm": "raster, expected 12 bytes",
    "matrix": "payload, expected 24 bytes",
}


@pytest.mark.parametrize("name", list(TRUNCATED))
def test_truncated_payload_names_the_file_the_part_and_its_size(tmp_path, name):
    path = tmp_path / "artifact"
    WRITERS[name](path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(FormatError) as info:
        READERS[name](path)
    assert str(info.value) == f"{path}: truncated {TRUNCATED[name]}"


def test_truncated_checkpoint_manifest_names_its_size(tmp_path):
    path = tmp_path / "artifact"
    WRITERS["checkpoint"](path)
    manifest = {"model": "x", "params": [{"dtype": "<f8", "name": "w", "shape": [3, 2]}]}
    size = len(json.dumps(manifest, sort_keys=True))
    path.write_bytes(path.read_bytes()[:30])
    with pytest.raises(FormatError) as info:
        READERS["checkpoint"](path)
    assert str(info.value) == f"{path}: truncated manifest, expected {size} bytes"


# (WRITERS file, bytes of it kept, what its reader names): cuts inside the
# checkpoint header, the matrix header and the matrix extent list.
TRUNCATED_HEADERS = {
    "checkpoint-header": ("checkpoint", 10, "header, expected 12 bytes"),
    "matrix-header": ("matrix", 5, "header, expected 8 bytes"),
    "matrix-extent-list": ("matrix", 12, "extent list, expected 12 bytes"),
}


@pytest.mark.parametrize("case", list(TRUNCATED_HEADERS))
def test_truncated_header_names_the_file_the_part_and_its_size(tmp_path, case):
    name, kept, what = TRUNCATED_HEADERS[case]
    path = tmp_path / "artifact"
    WRITERS[name](path)
    path.write_bytes(path.read_bytes()[:kept])
    with pytest.raises(FormatError) as info:
        READERS[name](path)
    assert str(info.value) == f"{path}: truncated {what}"


@pytest.mark.parametrize("name", list(WRITERS))
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, name):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous artifact\n")
    real_open = open
    monkeypatch.setattr(atomic, "open",
                        lambda *a, **k: _DiskFull(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError) as info:
        WRITERS[name](path)
    assert info.value.errno == errno.ENOSPC
    assert path.read_bytes() == b"previous artifact\n"
    assert os.listdir(tmp_path) == ["artifact"]


@pytest.mark.parametrize("name", list(WRITERS))
def test_successful_write_replaces_file_and_leaves_no_temp(tmp_path, name):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous artifact\n")
    WRITERS[name](path)
    assert path.read_bytes() != b"previous artifact\n"
    assert os.listdir(tmp_path) == ["artifact"]


def test_interrupt_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous")
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(path, "wb") as f:
            f.write(b"half of the new")
            raise KeyboardInterrupt
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["artifact"]


def test_new_file_gets_plain_open_permissions(tmp_path):
    plain, atomic_path = tmp_path / "plain", tmp_path / "atomic"
    with open(plain, "w") as f:
        f.write("x")
    with atomic_open(atomic_path, "w") as f:
        f.write("x")
    assert os.stat(atomic_path).st_mode == os.stat(plain).st_mode
    assert atomic_path.read_text() == "x"


def test_key_values_are_utf8_lf_lines_in_given_order(tmp_path):
    path = tmp_path / "artifact"
    atomic.write_key_values(path, [("b", "caf\u00e9"), ("a", 1)])
    assert path.read_bytes() == "b=caf\u00e9\na=1\n".encode("utf-8")
