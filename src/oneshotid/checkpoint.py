"""Model checkpoints: a little-endian container with a JSON manifest.

Layout: 8-byte magic, the 12-byte ``_HEADER`` (uint32 format version,
uint64 manifest length), the manifest as UTF-8 JSON, then each parameter's raw bytes in manifest
order.  The manifest records enough layer configuration to rebuild the
architecture without touching initializer seeds, so a load is exact.

A checkpoint holds one layer stack: a merged pair model's classifier or
a siamese model's tower.  The pair wrapper's settings sit in the
manifest's ``extra`` object, which only ``save_pair_model`` and
``pair_model_from_checkpoint`` write and read; a siamese model's
``threshold`` (its tau, null while none was chosen) is one of them.

A layer's spec is its ``kind`` plus the attributes its ``spec_fields``
names (see ``layers.Layer``), so loading calls the class registered for
that kind with them and no ``rng``: its parameters are zeros until the
stored ones replace them, so a load draws no random numbers.  A load reads
each parameter once, into the array the layer then keeps.  A spec
whose kind is unknown, or whose keys differ from ``spec_fields``, is a
FormatError; so is a NaN or infinite number anywhere in the manifest, a
parameter whose dtype is not ``'<f4'`` or ``'<f8'`` or not the first's, and
layers whose shapes do not chain from the stack's ``input_shape``.  Every
manifest value is read through ``_field``.
"""

import json
import math

import numpy as np

from . import capsules as caps
from . import layers as L
from .atomic import atomic_open, read_array
from .errors import ConfigError, FormatError, ShapeError
from .pairing import MERGE_MODES
from .trainer import DistancePairModel, MergedPairModel

APPROACHES = ("merged", "siamese-cnn", "siamese-capsnet")

_MAGIC = b"OSIDCKPT"
_VERSION = 1
_HEADER = np.dtype([("version", "<u4"), ("manifest_bytes", "<u8")])
# The parameter dtypes write_checkpoint writes for float32 and float64.
_DTYPES = ("<f4", "<f8")

_LAYER_CLASSES = {cls.kind: cls for cls in (
    L.Conv2d, L.MaxPool2d, L.Dense, L.Activation, L.Flatten,
    caps.PrimaryCapsuleLayer, caps.HighLevelCapsuleLayer,
)}


def _build_layer(spec, where):
    kind = _field(spec, "kind", where, lambda k: isinstance(k, str) and k in _LAYER_CLASSES,
                  "a layer kind", None)
    cls = _LAYER_CLASSES[kind]
    fields = {k: v for k, v in spec.items() if k != "kind"}
    if set(fields) != set(cls.spec_fields):
        raise FormatError(
            f"{cls.__name__} spec has fields {sorted(fields)}, "
            f"expected {sorted(cls.spec_fields)}"
        )
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{cls.__name__} spec {fields}: {exc}") from exc


def _stack_manifest(stack):
    return {
        "layers": [{"kind": l.kind, **{f: getattr(l, f) for f in l.spec_fields}}
                   for l in stack.layers],
        "input_shape": list(stack.input_shape),
    }


_REQUIRED = object()


def _field(mapping, key, where, ok, what, default=_REQUIRED):
    """``mapping[key]`` from the manifest, or ``default`` when the key is
    absent.  A ``mapping`` that is not a JSON object, a missing key with no
    default, or a value for which ``ok`` is false is a FormatError naming
    ``where`` and the key."""
    if not isinstance(mapping, dict):
        raise FormatError(f"checkpoint {where} is not an object")
    value = mapping.get(key, default)
    if value is _REQUIRED:
        raise FormatError(f"checkpoint {where} has no {key!r}")
    if not ok(value):
        raise FormatError(f"checkpoint {where} has {key} {value!r}, not {what}")
    return value


def _is_object(value):
    return isinstance(value, dict)


def _is_list(value):
    return isinstance(value, list)


def _is_sizes(value):
    return _is_list(value) and all(type(v) is int and v >= 0 for v in value)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_object(pairs):
    """JSON object hook: ``json.loads`` reads ``NaN``, ``Infinity`` and an
    overflowing literal such as ``1e400`` as floats that are not finite; each,
    as a value or a list item, is a ValueError naming its key."""
    for key, value in pairs:
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{key!r} holds a non-finite number: {value!r}")
    return dict(pairs)


def write_checkpoint(path, manifest, named_arrays):
    """Low-level writer; ``named_arrays`` is a list of (name, ndarray)."""
    named_arrays = [(name, arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False))
                    for name, arr in named_arrays]
    manifest = dict(manifest)
    manifest["params"] = [
        {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
        for name, arr in named_arrays
    ]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(np.array((_VERSION, len(blob)), _HEADER))
        f.write(blob)
        for _, arr in named_arrays:
            f.write(arr)


def read_checkpoint(path):
    """Inverse of write_checkpoint: returns (manifest, list of (name, array)).

    A model built from the result keeps these arrays as its parameters, so
    two built from one read share them: safe, as nothing updates a
    parameter in place (``RMSprop`` and the training loop rebind ``p.data``).
    """
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != _MAGIC:
            raise FormatError(f"{path}: not a checkpoint (magic {magic!r})")
        version, mlen = read_array(f, _HEADER, (), "header").item()
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        blob = read_array(f, "u1", (mlen,), "manifest")
        try:
            manifest = json.loads(str(blob, "utf-8"), object_pairs_hook=_finite_object)
        except ValueError as exc:
            raise FormatError(f"{path}: bad manifest: {exc}") from exc
        params = _field(manifest, "params", f"{path} manifest", _is_list, "a list")
        arrays = []
        for k, spec in enumerate(params):
            where = f"{path} params[{k}]"
            name = _field(spec, "name", where, lambda v: isinstance(v, str), "a string")
            shape = _field(spec, "shape", where, _is_sizes, "a list of sizes")
            dtype = np.dtype(_field(spec, "dtype", where, _DTYPES.__contains__,
                                    f"one of {_DTYPES}"))
            if arrays and dtype != arrays[0][1].dtype:
                raise FormatError(f"checkpoint {where} ({name!r}) has dtype {dtype}, "
                                  f"params[0] {arrays[0][1].dtype}; they must share one")
            arrays.append((name, read_array(f, dtype, shape, f"buffer for {name}")))
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after parameter buffers")
    return manifest, arrays


def _load_into(stack, named_arrays):
    expected = {name: p for name, p in stack.named_params()}
    for name, arr in named_arrays:
        if name not in expected:
            raise FormatError(f"checkpoint parameter {name!r} has no home in the model")
        p = expected.pop(name)
        if tuple(arr.shape) != tuple(p.data.shape):
            raise FormatError(
                f"parameter {name!r} shape {arr.shape} does not match model {p.data.shape}"
            )
        p.data = arr
    if expected:
        raise FormatError(f"checkpoint missing parameters: {sorted(expected)}")


def save_model(path, stack, extra):
    """Serialize a LayerStack with its architecture.

    ``extra`` is a JSON-compatible dict stored verbatim in the manifest;
    ``save_pair_model`` fills it with a pair model's settings.
    """
    if not isinstance(stack, L.LayerStack):
        raise FormatError(f"cannot checkpoint a {type(stack).__name__}")
    manifest = {"model": "stack", "stack": _stack_manifest(stack), "extra": dict(extra)}
    write_checkpoint(path, manifest, [(n, p.data) for n, p in stack.named_params()])


def load_model(path):
    """Rebuild the LayerStack saved by save_model, parameters included."""
    return _stack_from_checkpoint(*read_checkpoint(path))


def _stack_from_checkpoint(manifest, arrays):
    kind = manifest.get("model")
    if kind != "stack":
        raise FormatError(f"checkpoint has unknown model kind {kind!r}")
    spec = _field(manifest, "stack", "manifest", _is_object, "an object")
    layers = _field(spec, "layers", "stack", _is_list, "a list")
    shape = _field(spec, "input_shape", "stack", _is_sizes, "a list of sizes")
    try:
        stack = L.LayerStack([_build_layer(s, f"stack layers[{k}]")
                              for k, s in enumerate(layers)], tuple(shape))
    except ShapeError as exc:
        raise FormatError(f"checkpoint stack does not chain from input_shape "
                          f"{shape}: {exc}") from exc
    _load_into(stack, arrays)
    return stack


def save_pair_model(path, model, approach):
    """Save a trained pair model under ``approach``.

    A MergedPairModel is saved as its stack with ``extra`` =
    {approach, merge_mode}; a DistancePairModel as its tower with
    {approach, margin, threshold}, where ``threshold`` is the model's tau
    (None while none was chosen).
    """
    if approach == "merged":
        save_model(path, model.stack,
                   extra={"approach": approach, "merge_mode": model.merge_mode})
    else:
        save_model(path, model.tower, extra={"approach": approach, "margin": model.margin,
                                             "threshold": model.threshold})


def pair_model_from_checkpoint(manifest, arrays):
    """Rebuild what save_pair_model wrote from what read_checkpoint returned.

    Returns the pair model.  A siamese model's ``threshold`` is the stored
    tau, None when none was stored; a merged model's is its fixed 0.0.  A
    missing merge_mode is "stacked" and a missing margin 1.0.  No
    ``approach`` is a ConfigError; an unknown approach or merge mode, or a
    value of the wrong JSON type, is a FormatError naming the key.
    """
    extra = _field(manifest, "extra", "manifest", _is_object, "an object", {})
    if "approach" not in extra:
        raise ConfigError("checkpoint carries no experiment metadata; "
                          "expected one written by the train command")
    approach = _field(extra, "approach", "extra", APPROACHES.__contains__,
                      f"one of {APPROACHES}")
    if approach == "merged":
        merge_mode = _field(extra, "merge_mode", "extra", MERGE_MODES.__contains__,
                            f"one of {MERGE_MODES}", "stacked")
        return MergedPairModel(_stack_from_checkpoint(manifest, arrays), merge_mode)
    margin = _field(extra, "margin", "extra", _is_number, "a number", 1.0)
    tau = _field(extra, "threshold", "extra", lambda v: v is None or _is_number(v),
                 "a number or null", None)
    return DistancePairModel(_stack_from_checkpoint(manifest, arrays), margin, tau)
