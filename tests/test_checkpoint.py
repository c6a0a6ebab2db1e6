import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from oneshotid import checkpoint as ckpt
from oneshotid import cli
from oneshotid import layers as L
from oneshotid.capsules import build_capsnet
from oneshotid.errors import FormatError
from oneshotid.pairing import PairSample
from oneshotid.rng import derive_rng
from oneshotid.tensor import Tensor
from oneshotid.trainer import DistancePairModel, MergedPairModel, evaluate_pairs


def small_stack(seed=3):
    layers = [
        L.Conv2d(2, 4, kernel=3, rng=derive_rng(seed, "c1")),
        L.Activation("relu"),
        L.MaxPool2d(2),
        L.Flatten(),
        L.Dense(4 * 3 * 3, 5, rng=derive_rng(seed, "d1")),
        L.Activation("leaky_relu", alpha=0.05),
        L.Dense(5, 2, rng=derive_rng(seed, "d2")),
    ]
    return L.LayerStack(layers, (2, 8, 8))


def capsule_tower():
    return build_capsnet((12, 12, 1), n_classes=3, d_out=4, conv_channels=(8, 8),
                         kernels=(3, 3), strides=(1, 2), n_p=4, routing_iters=2, seed=7)


def arange_filled(model):
    for _, p in model.named_params():
        p.data = np.arange(p.data.size, dtype=np.float64).reshape(p.data.shape) / 7.0
    return model


def golden_stack():
    """Every stack layer kind, with non-default strides, padding and alpha."""
    layers = [
        L.Conv2d(2, 4, kernel=3, stride=(1, 2), padding=1),
        L.Activation("relu"),
        L.MaxPool2d(2, stride=1),
        L.Flatten(),
        L.Dense(4 * 7 * 3, 5),
        L.Activation("leaky_relu", alpha=0.05),
        L.Dense(5, 2),
        L.Activation("sigmoid"),
    ]
    return arange_filled(L.LayerStack(layers, (2, 8, 8)))


# (pair model, approach, threshold, SHA-256 of what save_pair_model writes).
# The digests are those of save_model(inner, extra={...}) as train wrote it
# before save_pair_model existed, so the file format is unchanged.
GOLDEN_PAIRS = {
    "merged": (lambda: MergedPairModel(golden_stack(), merge_mode="h-join"), "merged", 0.0,
               "10b2d75be79a2565ef3a80a93660b57efc3b120f4e0ee40bfdab9ce007091bdc"),
    "siamese-capsnet": (lambda: DistancePairModel(arange_filled(capsule_tower()), margin=0.75),
                        "siamese-capsnet", 0.3125,
                        "c960869b2e38355c8b176d303686d006bb8a05ce0ad386effe7297c2d5dae9fe"),
}


def test_save_model_load_model_save_model_keeps_the_bytes(tmp_path):
    # With the extra save_pair_model writes for a merged model, save_model
    # gives the golden merged bytes; a reload saves them again unchanged.
    extra = {"approach": "merged", "merge_mode": "h-join"}
    path = tmp_path / "golden.ckpt"
    ckpt.save_model(path, golden_stack(), extra=extra)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_PAIRS["merged"][3]
    ckpt.save_model(tmp_path / "again.ckpt", ckpt.load_model(path), extra=extra)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("case", list(GOLDEN_PAIRS))
def test_save_pair_model_bytes_match_golden_digest(tmp_path, case):
    build, approach, threshold, digest = GOLDEN_PAIRS[case]
    path = tmp_path / "golden.ckpt"
    model = build()
    model.threshold = threshold
    ckpt.save_pair_model(path, model, approach)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    loaded = ckpt.pair_model_from_checkpoint(*ckpt.read_checkpoint(path))
    assert type(loaded) is type(model) and loaded.threshold == threshold
    ckpt.save_pair_model(tmp_path / "again.ckpt", loaded, approach)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_pair_model_defaults_for_missing_extra_keys(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, small_stack(), extra={"approach": "merged"})
    merged = ckpt.pair_model_from_checkpoint(*ckpt.read_checkpoint(path))
    assert (merged.merge_mode, merged.threshold) == ("stacked", 0.0)
    ckpt.save_model(path, small_stack(), extra={"approach": "siamese-cnn"})
    siamese = ckpt.pair_model_from_checkpoint(*ckpt.read_checkpoint(path))
    assert (siamese.margin, siamese.threshold) == (1.0, None)


def test_evaluate_pairs_uses_the_threshold_a_checkpoint_stores(tmp_path):
    # Identity embeddings put the same pair at distance 0 and the different
    # pair at 2: a sweep over them scores 1.0, the stored tau 100 only 0.5.
    tower = L.LayerStack([L.Flatten(), L.Dense(4, 4)], (1, 2, 2))
    tower.layers[1].weights.data = np.eye(4)
    path = tmp_path / "model.ckpt"
    ckpt.save_pair_model(path, DistancePairModel(tower, threshold=100.0), "siamese-cnn")
    loaded = ckpt.pair_model_from_checkpoint(*ckpt.read_checkpoint(path))
    zero, one = np.zeros((2, 2)), np.ones((2, 2))
    pairs = [PairSample(zero, zero, 1), PairSample(zero, one, 0)]
    assert loaded.threshold == 100.0
    assert evaluate_pairs(loaded, pairs) == 0.5
    loaded.threshold = None
    assert evaluate_pairs(loaded, pairs) == 1.0


BAD_SPECS = {
    "missing-field": (small_stack, lambda m: m["stack"]["layers"][0].pop("padding"),
                      "padding"),
    "extra-field": (small_stack, lambda m: m["stack"]["layers"][2].update(dilation=1),
                    "dilation"),
    "unknown-kind": (small_stack, lambda m: m["stack"]["layers"][1].update(kind="gelu"),
                     "gelu"),
    "no-kind": (small_stack, lambda m: m["stack"]["layers"][3].pop("kind"), "None"),
    "list-kind": (small_stack, lambda m: m["stack"]["layers"][3].update(kind=["flatten"]),
                  r"kind \['flatten'\]"),
    "bad-value": (small_stack, lambda m: m["stack"]["layers"][1].update(name="tanh"),
                  "tanh"),
    "encoder-layer": (capsule_tower, lambda m: m["stack"]["layers"][-1].pop("n_out"),
                      "n_out"),
}


@pytest.mark.parametrize("case", list(BAD_SPECS))
def test_layer_spec_mismatch_is_format_error(tmp_path, case):
    build, edit, needle = BAD_SPECS[case]
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, build(), extra={})
    manifest, arrays = ckpt.read_checkpoint(path)
    edit(manifest)
    ckpt.write_checkpoint(path, manifest, arrays)
    with pytest.raises(FormatError, match=needle):
        ckpt.load_model(path)


MISSING_KEYS = [
    (small_stack, ("stack",)),
    (small_stack, ("stack", "layers")),
    (small_stack, ("stack", "input_shape")),
]


@pytest.mark.parametrize("build,keys", MISSING_KEYS,
                         ids=[".".join(keys) for _, keys in MISSING_KEYS])
def test_missing_manifest_key_is_format_error_and_eval_exits_two(tmp_path, capsys,
                                                                 build, keys):
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, build(), extra={"approach": "siamese-cnn", "margin": 1.0})
    manifest, arrays = ckpt.read_checkpoint(path)
    *outer, last = keys
    section = manifest
    for key in outer:
        section = section[key]
    del section[last]
    ckpt.write_checkpoint(path, manifest, arrays)
    with pytest.raises(FormatError, match=repr(last)):
        ckpt.load_model(path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert repr(last) in capsys.readouterr().err


def rewrite_manifest(path, edit, literal=None):
    """Replace the manifest of the checkpoint at ``path`` with
    ``edit(manifest)``, keeping its parameter bytes (write_checkpoint would
    rebuild ``params``).  With ``literal``, each JSON string ``"@"`` in the
    edited manifest becomes that raw text, such as ``1e400``."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[12:20])
    text = json.dumps(edit(json.loads(raw[20:20 + mlen])))
    blob = (text if literal is None else text.replace('"@"', literal)).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + mlen:])


BAD_PARAMS = {
    "no-name": (lambda p: p.pop("name"), "'name'"),
    "no-shape": (lambda p: p.pop("shape"), "'shape'"),
    "no-dtype": (lambda p: p.pop("dtype"), "'dtype'"),
    "shape-not-list": (lambda p: p.update(shape=12), "shape 12"),
    "negative-size": (lambda p: p.update(shape=[-1, 2]), "not a list of sizes"),
    "unknown-dtype": (lambda p: p.update(dtype="<q9"), "dtype '<q9'"),
    "object-dtype": (lambda p: p.update(dtype="O"), "dtype 'O'"),
    # Same byte count as <f8, so only the dtype check can catch these.
    "int-dtype": (lambda p: p.update(dtype="<i8"), "dtype '<i8'"),
    "big-endian-dtype": (lambda p: p.update(dtype=">f8"), "dtype '>f8'"),
    "dtype-not-shared": (lambda p: p.update(dtype="<f4", shape=[8]),
                         "dtype float32, params[0] float64"),
    "name-not-string": (lambda p: p.update(name=3), "not a string"),
}


@pytest.mark.parametrize("case", list(BAD_PARAMS))
def test_bad_params_entry_is_format_error_and_eval_exits_two(tmp_path, capsys, case):
    edit, needle = BAD_PARAMS[case]
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, small_stack(), extra={"approach": "siamese-cnn", "margin": 1.0})

    def edit_second_entry(manifest):
        edit(manifest["params"][1])
        return manifest

    rewrite_manifest(path, edit_second_entry)
    with pytest.raises(FormatError, match=r"params\[1\]") as info:
        ckpt.read_checkpoint(path)
    assert needle in str(info.value)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert "params[1]" in capsys.readouterr().err


def _with_stack_key(key, value):
    return lambda m: {**m, "stack": {**m["stack"], key: value}}


def _with_extra_key(key, value):
    return lambda m: {**m, "extra": {**m["extra"], key: value}}


# Each replaces the manifest, or one value in it, with a value of the wrong
# JSON type or outside the key's choices.
MALFORMED_KEYS = {
    "manifest-list": (lambda m: [m], "manifest is not an object"),
    "params-int": (lambda m: {**m, "params": 5}, "params 5"),
    "extra-str": (lambda m: {**m, "extra": "x"}, "extra 'x'"),
    "stack-layers-int": (_with_stack_key("layers", 3), "layers 3"),
    "stack-input-shape-int": (_with_stack_key("input_shape", 7), "input_shape 7"),
    "extra-margin-str": (_with_extra_key("margin", "x"), "margin 'x'"),
    "extra-threshold-str": (_with_extra_key("threshold", "x"), "threshold 'x'"),
    "extra-approach-int": (_with_extra_key("approach", 5), "approach 5"),
    "extra-margin-bool": (_with_extra_key("margin", True), "margin True"),
    "extra-merge-mode-unknown": (
        lambda m: {**m, "extra": {"approach": "merged", "merge_mode": "v-join"}},
        "merge_mode 'v-join'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_KEYS))
def test_malformed_manifest_key_is_format_error_and_eval_exits_two(tmp_path, capsys, case):
    edit, needle = MALFORMED_KEYS[case]
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, small_stack(), extra={"approach": "siamese-cnn", "margin": 1.0})
    rewrite_manifest(path, edit)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert needle in capsys.readouterr().err


def _with_layer_key(index, key, value):
    def edit(m):
        m["stack"]["layers"][index][key] = value
        return m
    return edit


# (edit putting the marker "@" where the number goes, the number's JSON
# text, the key the error names).  json.loads reads every one of these.
NON_FINITE = {
    "threshold-nan": (_with_extra_key("threshold", "@"), "NaN", "threshold"),
    "threshold-infinity": (_with_extra_key("threshold", "@"), "Infinity", "threshold"),
    "threshold-overflow": (_with_extra_key("threshold", "@"), "1e400", "threshold"),
    "margin-nan": (_with_extra_key("margin", "@"), "NaN", "margin"),
    "margin-minus-infinity": (_with_extra_key("margin", "@"), "-Infinity", "margin"),
    "act-alpha-nan": (_with_layer_key(5, "alpha", "@"), "NaN", "alpha"),
    "conv-stride-overflow": (_with_layer_key(0, "stride", [1, "@"]), "-1e400", "stride"),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_manifest_number_is_format_error_and_eval_exits_two(tmp_path, capsys,
                                                                       case):
    edit, literal, key = NON_FINITE[case]
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, small_stack(), extra={"approach": "siamese-cnn", "margin": 1.0,
                                                "threshold": 0.5})
    rewrite_manifest(path, edit, literal)
    needle = f"{key!r} holds a non-finite number"
    with pytest.raises(FormatError, match=needle):
        ckpt.read_checkpoint(path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert needle in capsys.readouterr().err


# Each makes the layer specs no longer chain from the stack's input_shape.
UNCHAINED = {
    "input-too-small": (_with_stack_key("input_shape", [2, 2, 2]),
                        "conv window 3x3 does not fit input 2x2"),
    "input-channels": (_with_stack_key("input_shape", [3, 8, 8]),
                       "conv expects 2 channels, got 3"),
    "input-rank": (_with_stack_key("input_shape", [2, 8]),
                   "conv expects (C,H,W) input, got (2, 8)"),
    "dense-in-features": (_with_layer_key(4, "in_features", 37),
                          "dense expects (37,) input, got (36,)"),
}


@pytest.mark.parametrize("case", list(UNCHAINED))
def test_unchained_stack_is_format_error_and_eval_exits_two(tmp_path, capsys, case):
    edit, needle = UNCHAINED[case]
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, small_stack(), extra={"approach": "siamese-cnn", "margin": 1.0})
    rewrite_manifest(path, edit)
    with pytest.raises(FormatError, match="does not chain from input_shape") as info:
        ckpt.load_model(path)
    assert needle in str(info.value)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert needle in capsys.readouterr().err


def test_stack_round_trip_params_and_outputs(tmp_path):
    stack = small_stack()
    path = tmp_path / "stack.ckpt"
    ckpt.save_model(path, stack, extra={})
    loaded = ckpt.load_model(path)

    assert isinstance(loaded, L.LayerStack)
    assert loaded.input_shape == stack.input_shape
    for (n1, p1), (n2, p2) in zip(stack.named_params(), loaded.named_params()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)

    x = Tensor(derive_rng(0, "x").normal(size=(3, 2, 8, 8)))
    assert np.array_equal(stack(x).data, loaded(x).data)


def test_load_draws_no_random_numbers(tmp_path, monkeypatch):
    tower = capsule_tower()
    path = tmp_path / "caps.ckpt"
    ckpt.save_model(path, tower, extra={"approach": "siamese-capsnet", "margin": 1.0})

    def no_generator(*args):
        raise AssertionError("a checkpoint load made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = ckpt.load_model(path)
    saved = tower.named_params()
    assert [n for n, _ in loaded.named_params()] == [n for n, _ in saved]
    for (_, a), (_, b) in zip(loaded.named_params(), saved):
        assert np.array_equal(a.data, b.data)


def wide_stack():
    """A float64 stack of 8.4 MB whose parameters are nearly all one array."""
    return L.LayerStack([L.Flatten(), L.Dense(1024, 1024, rng=derive_rng(0, "wide"))],
                        (1, 32, 32))


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_each_parameter_once_beside_its_placeholder(tmp_path):
    stack = wide_stack()
    path = tmp_path / "wide.ckpt"
    ckpt.save_model(path, stack, extra={})
    held = sum(p.data.nbytes for _, p in stack.named_params())
    assert traced_peak(ckpt.load_model, path) <= 2.2 * held


def test_save_copies_no_parameter(tmp_path):
    stack = wide_stack()
    held = sum(p.data.nbytes for _, p in stack.named_params())
    assert traced_peak(ckpt.save_model, tmp_path / "wide.ckpt", stack, {}) < 0.1 * held


def test_stack_round_trip_preserves_layer_config(tmp_path):
    stack = small_stack()
    path = tmp_path / "stack.ckpt"
    ckpt.save_model(path, stack, extra={})
    loaded = ckpt.load_model(path)
    kinds = [l.kind for l in loaded.layers]
    assert kinds == [l.kind for l in stack.layers]
    assert loaded.layers[0].kernel == (3, 3)
    assert loaded.layers[5].alpha == 0.05


def test_capsnet_model_kind_is_format_error_and_eval_exits_two(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, small_stack(), extra={"approach": "siamese-cnn", "margin": 1.0})
    rewrite_manifest(path, lambda m: {**m, "model": "capsnet"})
    with pytest.raises(FormatError, match="model kind 'capsnet'"):
        ckpt.load_model(path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert "'capsnet'" in capsys.readouterr().err


def test_empty_high_caps_spec_is_format_error_and_eval_exits_two(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, capsule_tower(), extra={"approach": "siamese-capsnet",
                                                  "margin": 1.0})

    def zero_d_out(manifest):
        manifest["stack"]["layers"][-1]["d_out"] = 0
        return manifest

    rewrite_manifest(path, zero_d_out)
    with pytest.raises(FormatError,
                       match="HighLevelCapsuleLayer spec .*d_out must be at least 1, got 0"):
        ckpt.load_model(path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert "HighLevelCapsuleLayer spec" in capsys.readouterr().err


# Layer 0 of a siamese tower is a conv, layer 2 a max pool, the last a dense.
DEGENERATE_WINDOWS = {
    "conv-stride-zero": (0, {"stride": [0, 0]}, "conv stride must be at least 1, got 0"),
    "conv-kernel-zero": (0, {"kernel": [0, 0]}, "conv kernel must be at least 1, got 0"),
    "conv-stride-negative": (0, {"stride": [-1, -1]}, "conv stride must be at least 1"),
    "conv-padding-negative": (0, {"padding": -1}, "conv padding must be at least 0, got -1"),
    "pool-window-zero": (2, {"window": [0, 2]}, "pool window must be at least 1, got 0"),
    "pool-stride-zero": (2, {"stride": [2, 0]}, "pool stride must be at least 1, got 0"),
    "conv-in-channels-zero": (0, {"in_channels": 0},
                              "conv in_channels must be at least 1, got 0"),
    "conv-out-channels-zero": (0, {"out_channels": 0},
                               "conv out_channels must be at least 1, got 0"),
    "dense-in-features-zero": (-1, {"in_features": 0},
                               "dense in_features must be at least 1, got 0"),
    "dense-out-features-zero": (-1, {"out_features": 0},
                                "dense out_features must be at least 1, got 0"),
}


@pytest.mark.parametrize("case", list(DEGENERATE_WINDOWS))
def test_degenerate_window_spec_is_format_error_and_eval_exits_two(tmp_path, capsys, case):
    index, fields, message = DEGENERATE_WINDOWS[case]
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, L.build_siamese_tower((20, 20, 1), seed=3),
                    extra={"approach": "siamese-cnn", "margin": 1.0})

    def degenerate(manifest):
        manifest["stack"]["layers"][index].update(fields)
        return manifest

    rewrite_manifest(path, degenerate)
    with pytest.raises(FormatError, match=message):
        ckpt.load_model(path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert message in capsys.readouterr().err


# (tower, layer index, spec fields, message): a size that is not a whole
# number, or an alpha that is not a real number.  Layer 0 of either tower is
# a conv, layer 2 of the siamese tower a max pool; the capsule tower ends in
# a leaky ReLU at 3, the primary capsules and the high-level capsules.
NOT_WHOLE = {
    "conv-stride-fractional": ("siamese", 0, {"stride": [1.9, 1.9]},
                               "conv stride must be a whole number, got 1.9"),
    "conv-kernel-bool": ("siamese", 0, {"kernel": [True, 3]},
                         "conv kernel must be a whole number, got True"),
    "conv-padding-fractional": ("siamese", 0, {"padding": 0.5},
                                "conv padding must be a whole number, got 0.5"),
    "conv-channels-bool": ("siamese", 0, {"in_channels": True},
                           "conv in_channels must be a whole number, got True"),
    "pool-window-fractional": ("siamese", 2, {"window": [2.5, 2.5]},
                               "pool window must be a whole number, got 2.5"),
    "primary-caps-fractional": ("capsule", 4, {"n_p": 4.5},
                                "capsule length n_p must be a whole number, got 4.5"),
    "high-caps-routing-fractional": ("capsule", 5, {"routing_iters": 2.5},
                                     "routing_iters must be a whole number, got 2.5"),
    "high-caps-n-out-bool": ("capsule", 5, {"n_out": True},
                             "n_out must be a whole number, got True"),
    "act-alpha-string": ("capsule", 3, {"alpha": "x"},
                         "activation alpha must be a real number, got 'x'"),
    "act-alpha-bool": ("capsule", 3, {"alpha": True},
                       "activation alpha must be a real number, got True"),
}


@pytest.mark.parametrize("case", list(NOT_WHOLE))
def test_fractional_or_boolean_spec_is_format_error_and_eval_exits_two(tmp_path, capsys,
                                                                       case):
    tower, index, fields, message = NOT_WHOLE[case]
    path = tmp_path / "model.ckpt"
    if tower == "siamese":
        ckpt.save_model(path, L.build_siamese_tower((20, 20, 1), seed=3),
                        extra={"approach": "siamese-cnn", "margin": 1.0})
    else:
        ckpt.save_model(path, capsule_tower(),
                        extra={"approach": "siamese-capsnet", "margin": 1.0})

    def edit(manifest):
        manifest["stack"]["layers"][index].update(fields)
        return manifest

    rewrite_manifest(path, edit)
    with pytest.raises(FormatError, match=message):
        ckpt.load_model(path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert message in capsys.readouterr().err


def test_high_caps_routing_iters_survive(tmp_path):
    enc = build_capsnet((12, 12, 1), n_classes=2, d_out=3, conv_channels=(4, 4),
                        kernels=(3, 3), strides=(1, 2), n_p=2, routing_iters=5, seed=0)
    path = tmp_path / "enc.ckpt"
    ckpt.save_model(path, enc, extra={})
    loaded = ckpt.load_model(path)
    assert loaded.layers[-1].routing_iters == 5


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(FormatError):
        ckpt.read_checkpoint(path)


def test_truncated_buffer_rejected(tmp_path):
    stack = small_stack()
    path = tmp_path / "stack.ckpt"
    ckpt.save_model(path, stack, extra={})
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(FormatError):
        ckpt.read_checkpoint(path)


def test_shape_claiming_more_than_the_file_holds_exits_two(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, small_stack(), extra={"approach": "siamese-cnn", "margin": 1.0})

    def claim_32_tib(manifest):
        manifest["params"][0]["shape"] = [2**21, 2**21]
        return manifest

    rewrite_manifest(path, claim_32_tib)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a.pgm\tb.pgm\t1\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--pairs", str(pairs)]) == 2
    assert "truncated buffer" in capsys.readouterr().err


def test_trailing_bytes_rejected(tmp_path):
    stack = small_stack()
    path = tmp_path / "stack.ckpt"
    ckpt.save_model(path, stack, extra={})
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError):
        ckpt.read_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    stack = small_stack()
    path = tmp_path / "stack.ckpt"
    ckpt.save_model(path, stack, extra={})
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        ckpt.read_checkpoint(path)


def test_float32_params_round_trip(tmp_path):
    stack = small_stack()
    for _, p in stack.named_params():
        p.data = p.data.astype(np.float32)
    path = tmp_path / "stack32.ckpt"
    ckpt.save_model(path, stack, extra={})
    loaded = ckpt.load_model(path)
    for (_, p1), (_, p2) in zip(stack.named_params(), loaded.named_params()):
        assert p2.data.dtype == np.float32
        assert np.array_equal(p1.data, p2.data)
