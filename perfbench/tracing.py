"""Outside-in tracing of the oneshotid package.

The benchmark measures each module from outside: it replaces the function
a caller looks up (``trainer.backward``, ``layers.conv2d``, ``cli.read_pgm``,
``tensor.from_op`` ...) with a wrapper that opens a span, calls the
original and closes the span.  Nothing inside ``src/`` changes; every
patch is undone by ``Tracer.uninstall``.

A span is ``[name, start, end, parent, unit, owner]``.  ``unit`` is the id
of the training step or scoring pass the span ran in (None outside one);
``owner`` is set on backward-closure spans only and names the innermost
non-tensor span that was open when the tape entry was recorded, so that
routing's generic ``mul``/``sum``/``softmax`` entries roll up to
``capsules.dynamic_route``.  Spans stay in memory and are written once,
when the run ends.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter

# Tensor ops timed on the forward side: module attribute -> op name.
TENSOR_OPS = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div", "neg": "neg",
    "square": "square", "sqrt": "sqrt", "texp": "exp", "tlog": "log",
    "relu": "relu", "leaky_relu": "leaky_relu", "sigmoid": "sigmoid",
    "matmul": "matmul", "reshape": "reshape", "transpose": "transpose",
    "tsum": "sum", "tmean": "mean", "softmax": "softmax", "l2norm": "l2norm",
    "logsumexp": "logsumexp",
}


class Tracer:
    """In-memory span recorder plus the set of patches that feed it.

    ``unit_kind`` picks what one per-layer sample is: ``"step"`` (a
    training step, from the first taped forward to the optimizer update)
    or ``"eval"`` (the benchmark marks the scoring call itself).
    """

    def __init__(self, unit_kind):
        self.unit_kind = unit_kind
        self.spans = []
        self.stack = []
        self.unit = None
        self.units = 0
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.read_paths = set()
        self._step_span = None
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name, owner=None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.unit, owner])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = _now()
        # An exception can leave inner spans open; close them with this one.
        while self.stack:
            top = self.stack.pop()
            if top == idx:
                break
            self.spans[top][2] = self.spans[idx][2]

    def owner(self):
        for idx in reversed(self.stack):
            name = self.spans[idx][0]
            if not name.startswith("tensor."):
                return name
        return None

    @property
    def installed(self):
        return bool(self._patches)

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def count(self, name, value=1.0):
        if self.unit is not None:
            self.counts[name] += value

    def begin_unit(self, name):
        self.units += 1
        self.unit = self.units
        return self.begin(name)

    def end_unit(self, idx):
        self.end(idx)
        self.unit = None

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def timed(self, owner, attr, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
            return wrapper
        self.patch(owner, attr, make)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Patch every module attribute the benchmark times."""
        from oneshotid import capsules, checkpoint, cli, layers, recipes, tensor, trainer

        for attr, op in TENSOR_OPS.items():
            self.timed(tensor, attr, "tensor." + op)
        self.patch(tensor, "from_op", self._wrap_from_op)
        self.timed(trainer, "backward", "tensor.backward")

        self.patch(layers, "conv2d", self._wrap_conv2d)
        self.timed(layers, "maxpool2d", "layers.maxpool2d")
        self.timed(layers.Dense, "forward", "layers.dense")
        # LayerStack.__call__ was bound to the original forward at class
        # creation, so both names need the wrapper.
        self.timed(layers.LayerStack, "forward", "layers.stack")
        self.timed(layers.LayerStack, "__call__", "layers.stack")

        self.timed(capsules, "capsule_predict", "capsules.capsule_predict")
        self.patch(capsules, "dynamic_route", self._wrap_dynamic_route)
        self.timed(capsules, "squash", "capsules.squash")

        self.timed(trainer, "cross_entropy", "losses.cross_entropy")
        self.timed(trainer, "contrastive_loss", "losses.contrastive")
        self.timed(trainer, "merge", "pairing.merge")
        self.timed(trainer, "choose_threshold", "trainer.choose_threshold")
        self.patch(trainer.MergedPairModel, "batch_stats", self._wrap_batch_stats)
        self.patch(trainer.DistancePairModel, "batch_stats", self._wrap_batch_stats)
        self.patch(trainer.DistancePairModel, "embed", self._wrap_embed)
        self.patch(trainer.RMSprop, "step", self._wrap_optimizer)

        self.timed(recipes, "generate_synthetic_anodes", "datasets.generate")
        self.patch(recipes, "apply_params", self._wrap_apply_params)

        self.patch(cli, "read_pgm", self._wrap_read_pgm)
        self.timed(cli, "read_pair_manifest", "pairing.read_pair_manifest")
        self.timed(cli, "read_checkpoint", "checkpoint.load")
        self.timed(cli, "load_model", "checkpoint.load")
        self.timed(cli, "choose_threshold", "trainer.choose_threshold")
        self.timed(checkpoint, "save_model", "checkpoint.save")

    # -- wrappers with counters --------------------------------------------

    def _wrap_from_op(self, fn):
        def from_op(op_name, data, inputs, backward_fn):
            owner = self.owner()
            name = "tensor.bwd." + op_name

            def timed_backward(g):
                idx = self.begin(name, owner=owner)
                try:
                    return backward_fn(g)
                finally:
                    self.end(idx)

            out = fn(op_name, data, inputs, timed_backward)
            if out._tape is not None:
                self.count("tensor.tape_entries")
            return out
        return from_op

    def _wrap_conv2d(self, fn):
        def conv2d(x, weights, bias, stride=1, padding=0):
            n, c, h, w = x.shape
            o, _, kh, kw = weights.shape
            sh, sw = stride if isinstance(stride, (tuple, list)) else (stride, stride)
            oh = (h + 2 * padding - kh) // sh + 1
            ow = (w + 2 * padding - kw) // sw + 1
            cols = n * oh * ow * c * kh * kw
            self.count("layers.conv2d.gflop", 2.0 * cols * o / 1e9)
            self.maxima["layers.conv2d.cols_mb"] = max(
                self.maxima["layers.conv2d.cols_mb"], cols * x.data.itemsize / 1e6)
            return self.call("layers.conv2d", fn, x, weights, bias, stride, padding)
        return conv2d

    def _wrap_dynamic_route(self, fn):
        def dynamic_route(u_hat, iterations=3):
            self.maxima["capsules.dynamic_route.tmp_mb"] = max(
                self.maxima["capsules.dynamic_route.tmp_mb"],
                u_hat.data.nbytes / 1e6)
            return self.call("capsules.dynamic_route", fn, u_hat, iterations)
        return dynamic_route

    def _wrap_batch_stats(self, fn):
        from oneshotid import tensor

        def batch_stats(model, pairs, dtype):
            taped = tensor.active_tape() is not None
            if taped and self._step_span is None and self.unit_kind == "step":
                self._step_span = self.begin_unit("trainer.step")
            elif taped and self._step_span is None:
                self._step_span = self.begin("trainer.step")
            name = "trainer.forward" if taped else "trainer.score_chunk"
            return self.call(name, fn, model, pairs, dtype)
        return batch_stats

    def _wrap_optimizer(self, fn):
        def step(opt):
            try:
                return self.call("trainer.optimizer", fn, opt)
            finally:
                if self._step_span is not None:
                    if self.unit_kind == "step":
                        self.end_unit(self._step_span)
                    else:
                        self.end(self._step_span)
                    self._step_span = None
        return step

    def _wrap_embed(self, fn):
        def embed(model, images):
            if self.unit_kind == "eval":
                self.count("cli.embed_rows", len(images))
                self.count("trainer.embed_calls")
            return self.call("trainer.embed", fn, model, images)
        return embed

    def _wrap_apply_params(self, fn):
        def apply_params(img, params, config):
            self.counts["augment.images"] += 1
            return self.call("augment.apply_params", fn, img, params, config)
        return apply_params

    def _wrap_read_pgm(self, fn):
        def read_pgm(path):
            self.count("datasets.read_pgm.calls")
            if self.unit is not None:
                self.read_paths.add(path)
            return self.call("datasets.read_pgm", fn, path)
        return read_pgm

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "unit", "owner"],
                       "spans": self.spans}, f)


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def module_of(span):
    """Module a span's time is charged to; backward closures go to their owner."""
    name, owner = span[0], span[5]
    if name.startswith("tensor.bwd."):
        return (owner or "tensor").split(".")[0]
    return name.split(".")[0]


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def summarize(tracer, rounds, setup_reps):
    """Per-layer metrics, the two tables and step coverage of a traced run.

    Layer times are self times in ms per unit (training step, or scoring
    chunk on the eval workload); set-up spans are per set-up repetition and
    round-level spans per traced round.
    """
    spans = tracer.spans
    own = self_times(spans)
    unit_self = defaultdict(float)
    unit_incl = defaultdict(float)
    bwd_op = defaultdict(float)
    bwd_calls = defaultdict(int)
    bwd_owner = defaultdict(float)
    module = defaultdict(float)
    total = defaultdict(float)
    steps, val, eval_chunks = [], [], []
    unit_spans = []
    for i, s in enumerate(spans):
        name, start, end, parent, unit, owner = s
        dur = end - start
        total[name] += dur
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "trainer.step":
            steps.append(dur)
        elif name == "trainer.score_chunk" and parent_name == "trainer.train":
            val.append(dur)
        elif name == "trainer.score_chunk" and parent_name == "trainer.evaluate_pairs":
            eval_chunks.append(dur)
        if unit is None:
            continue
        if name in ("trainer.step", "cli.eval"):
            unit_spans.append((dur, own[i]))
        unit_self[name] += own[i]
        unit_incl[name] += dur
        module[module_of(s)] += own[i]
        if name.startswith("tensor.bwd."):
            op = name[len("tensor.bwd."):]
            bwd_op[op] += dur
            bwd_calls[op] += 1
            bwd_owner[owner] += dur

    gallery = tracer.unit_kind == "eval"
    n_units = tracer.units
    chunks = tracer.counts["trainer.embed_calls"] / 2.0 if gallery else n_units
    per = 1e3 / chunks if chunks else 0.0
    per_round = 1e3 / rounds if rounds else 0.0
    per_setup = 1e3 / setup_reps if setup_reps else 0.0
    per_eval = 1.0 / n_units if gallery and n_units else 0.0

    m = {
        "tensor.tape_entries": tracer.counts["tensor.tape_entries"] / chunks if chunks else 0.0,
        "tensor.backward_ms": unit_incl["tensor.backward"] * per,
    }
    for op in ("mul", "add", "sum", "div", "softmax", "l2norm", "matmul", "reshape",
               "transpose", "relu", "leaky_relu", "logsumexp"):
        m[f"tensor.fwd_ms.{op}"] = unit_self["tensor." + op] * per
        m[f"tensor.bwd_ms.{op}"] = bwd_op[op] * per
    for layer in ("layers.conv2d", "layers.maxpool2d", "layers.dense",
                  "capsules.capsule_predict", "capsules.dynamic_route", "capsules.squash",
                  "losses.cross_entropy", "losses.contrastive"):
        m[f"{layer}.fwd_ms"] = unit_self[layer] * per
        m[f"{layer}.bwd_ms"] = bwd_owner[layer] * per
    m["layers.conv2d.gflop"] = tracer.counts["layers.conv2d.gflop"] / chunks if chunks else 0.0
    m["layers.conv2d.cols_mb"] = tracer.maxima["layers.conv2d.cols_mb"]
    m["layers.stack.fwd_ms"] = unit_self["layers.stack"] * per
    m["capsules.dynamic_route.tmp_mb"] = tracer.maxima["capsules.dynamic_route.tmp_mb"]
    n_steps = len(steps)
    m.update({
        "trainer.step_ms_p50": _percentile(steps, 50) * 1e3,
        "trainer.step_ms_p75": _percentile(steps, 75) * 1e3,
        "trainer.forward_ms": total["trainer.forward"] * 1e3 / n_steps if n_steps else 0.0,
        "trainer.optimizer_ms": total["trainer.optimizer"] * 1e3 / n_steps if n_steps else 0.0,
        "trainer.val_ms": sum(val) * per_round,
        "trainer.eval_chunk_ms": (unit_incl["trainer.embed"] * per if gallery
                                  else sum(eval_chunks) * 1e3 / max(len(eval_chunks), 1)),
        "trainer.choose_threshold_ms": total["trainer.choose_threshold"] * per_round,
        "pairing.merge_ms": unit_self["pairing.merge"] * per,
        "pairing.sample_pairs_ms": total["pairing.sample_pairs"] * per_setup,
        "datasets.generate_ms": total["datasets.generate"] * per_setup,
        "datasets.downscale_ms": total["datasets.downscale"] * per_setup,
        "datasets.export_pgm_ms": total["datasets.export_pgm"] * per_setup,
        "datasets.read_pgm_ms": unit_self["datasets.read_pgm"] * per,
        "augment.apply_params_ms": total["augment.apply_params"] * per_setup,
        "augment.images": tracer.counts["augment.images"] / setup_reps if setup_reps else 0.0,
        "recipes.load_recipe_dataset_ms": total["recipes.load_recipe_dataset"] * per_setup,
        "recipes.augment_dataset_ms": total["recipes.augment_dataset"] * per_setup,
        "recipes.build_model_ms": total["recipes.build_model"] * per_setup,
        "checkpoint.save_ms": total["checkpoint.save"] * per_round,
        "checkpoint.load_ms": total["checkpoint.load"] * per_round,
        "cli.eval_ms": unit_incl["cli.eval"] * 1e3 * per_eval,
    })
    calls = tracer.counts["datasets.read_pgm.calls"]
    rows = tracer.counts["cli.embed_rows"]
    unique = len(tracer.read_paths)
    m["datasets.read_pgm.calls"] = calls * per_eval
    m["datasets.read_pgm.unique_ratio"] = unique * n_units / calls if calls else 0.0
    m["cli.embed_rows"] = rows * per_eval
    m["cli.embed_unique_ratio"] = unique * n_units / rows if rows else 0.0

    covered = sum(d for d, _ in unit_spans)
    uncovered = sum(s for _, s in unit_spans)
    coverage = 1.0 - uncovered / covered if covered else 0.0

    unit_name = "scoring chunk" if gallery else "training step"
    lines = [f"self time per {unit_name} by module ({chunks:g} {unit_name}s traced)",
             f"{'module':<12} {'ms':>10}"]
    for mod, t in sorted(module.items(), key=lambda kv: -kv[1]):
        lines.append(f"{mod:<12} {t * per:>10.3f}")
    lines.append(f"backward by tape op per {unit_name}")
    lines.append(f"{'op':<16} {'ms':>10} {'entries':>8}")
    for op, t in sorted(bwd_op.items(), key=lambda kv: -kv[1]):
        if not bwd_calls[op]:
            continue
        lines.append(f"{op:<16} {t * per:>10.3f} {bwd_calls[op] / chunks:>8.1f}")
    lines.append(f"span coverage of {unit_name} wall time: {coverage:.4f}")
    return m, lines, coverage
