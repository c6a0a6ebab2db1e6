"""Every attribute the benchmark's tracer patches exists in the package.

``perfbench/tracing.py`` wraps package functions by name (``cli.read_pgm``,
``checkpoint.save_model``, ``recipes.apply_params`` ...) and skips a name
that is missing, so a refactor that renames one would silently report its
per-layer metric as zero.  Only the points in ``DEAD``, missing already,
may be missing; a benchmark change may delete them without editing this
test.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEAD = {"cli.load_model", "tensor.div", "tensor.neg", "tensor.sqrt", "tensor.texp",
        "tensor.tlog"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_but_the_dead_ones_exists(monkeypatch):
    tracing = load_tracing()
    live, missing = [], []
    patch = tracing.Tracer.patch

    def recording_patch(self, owner, attr, make):
        if hasattr(owner, attr):
            live.append((owner, attr, getattr(owner, attr)))
        else:
            missing.append(f"{owner.__name__.rpartition('.')[2]}.{attr}")
        patch(self, owner, attr, make)

    monkeypatch.setattr(tracing.Tracer, "patch", recording_patch)
    tracer = tracing.Tracer("step")
    tracer.install()
    tracer.uninstall()
    assert set(missing) <= DEAD
    assert live and all(getattr(owner, attr) is original for owner, attr, original in live)
