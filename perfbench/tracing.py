"""Outside-in span recorder for the traced benchmark run.

The recorder swaps public functions and methods of the tempseg modules for
timing wrappers while one operation runs, then puts the originals back;
nothing under src/ changes. A function is wrapped where its caller looks it
up (``network.conv1d_dilated`` for the TCN blocks, ``cli.load_checkpoint``
for the CLI), because ``from x import y`` copies the name into the caller.
Spans stay in memory; per-layer metrics are derived from them when the run
ends.

Work counts (MACs, attended pairs, tape size) are computed from the config
and from the masks and graphs the run built; they are not measured.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from tempseg import attention, cli, losses, network, pipeline, seqcore

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "seqcore.backward.s": "s",
    "seqcore.adam.s": "s",
    "seqcore.conv1d.s": "s",
    "seqcore.conv1d.calls": "count",
    "seqcore.layer_norm.s": "s",
    "seqcore.tape_nodes": "count",
    "seqcore.tape_mb": "MB",
    "attention.dswa.s": "s",
    "attention.dswa.gmacs_per_s": "GMAC/s",
    "attention.hta.s": "s",
    "attention.hta.gmacs_per_s": "GMAC/s",
    "attention.band_fill": "ratio",
    "attention.mask_build.s": "s",
    "attention.mask_build.calls": "count",
    "attention.mask_cache_hit": "ratio",
    "network.forward_train.s": "s",
    "network.forward_eval.s": "s",
    "network.forward.gmacs_per_s": "GMAC/s",
    "network.encoder.s": "s",
    "network.decoder.s": "s",
    "network.enc_tcn.s": "s",
    "network.dec_tcn.s": "s",
    "network.load_checkpoint.s": "s",
    "network.save_checkpoint.s": "s",
    "losses.total.s": "s",
    "losses.focal.s": "s",
    "losses.dice.s": "s",
    "losses.sim.s": "s",
    "losses.boundary.s": "s",
    "segments.detect.s": "s",
    "segments.refine.s": "s",
    "segments.boundaries": "count",
    "metrics.evaluate.s": "s",
    "pipeline.infer.s": "s",
    "pipeline.train_epoch_s": "s",
    "pipeline.load_features.s": "s",
    "pipeline.load_features.mb_per_s": "MB/s",
    "cli.infer.s": "s",
    "cli.eval.s": "s",
    "trace.frames_per_s": "frames/s",
    "trace.overhead_frames_per_s": "frames/s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


def tape_size(roots) -> tuple[int, int]:
    """Interior nodes (those holding a backward closure) reachable from
    `roots`, and the bytes of the buffers their values live in, each buffer
    counted once (reshapes and transposes are views). Reads the private
    ``_prev`` links: the graph has no public accessor."""
    seen, stack = set(), list(roots)
    nodes = 0
    buffers = {}
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._prev:
            nodes += 1
            buf = t.data
            while isinstance(buf.base, np.ndarray):
                buf = buf.base
            buffers[id(buf)] = buf.nbytes
            stack.extend(t._prev)
    return nodes, sum(buffers.values())


def _output_tensors(output):
    for stage in output.stages:
        yield from (stage.action_logits, stage.boundary_scores, stage.features)


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "network.forward_train" if training else "network.forward_eval"


def _attention_macs(x, params, pairs: int) -> int:
    """Projections plus scores and weighted values, in the convention of
    ``network.count_params_flops``: every attended pair costs 2 * attn_dim."""
    t, d = x.shape
    a = params.attn_dim
    return 4 * t * d * a + 2 * pairs * a


def hta_pairs(scales: attention.ScaleSet) -> int:
    """Size of HTA's frame-level union neighbourhood: the coarsest scale's
    window of pooled frames, clipped to the sequence."""
    f = 1 << max(scales.scales)
    i_pool = np.arange(scales.T) // f
    lo = np.maximum((i_pool - scales.window) * f, 0)
    hi = np.minimum((i_pool + scales.window + 1) * f - 1, scales.T - 1)
    return int((hi - lo + 1).sum())


def _dswa_info(args, kwargs, out):
    x, expanding, shrinking, params = args[:4]
    pairs = int(expanding.valid.sum()) + int(shrinking.valid.sum())
    return _attention_macs(x, params, pairs)


def _hta_info(args, kwargs, out):
    x, scales, params = args[:3]
    return _attention_macs(x, params, hta_pairs(scales))


def _mask_info(args, kwargs, mask):
    T, spec = args[:2]
    return (T, spec, int(mask.valid.sum()), int(mask.valid.size))


def _forward_info(args, kwargs, out):
    model, x = args[:2]
    return (model.cfg, x.shape[0])


class Recorder:
    """Spans of the calls made while installed, for one traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tape: list[tuple[int, int]] = []  # (nodes, bytes) per walk
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, owner, attr, name, info=None, before=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = Span(name(args, kwargs) if callable(name) else name,
                        stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _walk(self, roots):
        self.tape.append(tape_size(roots))

    def install(self):
        w = self._wrap
        w(seqcore.Tensor, "backward", "seqcore.backward", before=lambda a: self._walk([a[0]]))
        w(seqcore.Adam, "step", "seqcore.adam")
        w(network, "conv1d_dilated", "seqcore.conv1d")
        w(network, "layer_norm", "seqcore.layer_norm")
        w(attention, "dswa_forward", "attention.dswa", info=_dswa_info)
        w(attention, "hta_forward", "attention.hta", info=_hta_info)
        w(attention, "build_sparse_mask", "attention.mask_build", info=_mask_info)
        model = network.SegmentationModel
        w(model, "forward", _forward_name, info=_forward_info)
        w(model, "encoder_forward", "network.encoder")
        w(model, "decoder_forward", "network.decoder")
        w(model, "masks_for", "network.masks_for")
        w(network, "tcn_block_forward", "network.tcn_block")
        w(cli, "load_checkpoint", "network.load_checkpoint")
        w(pipeline, "save_checkpoint", "network.save_checkpoint")
        w(pipeline, "combined_temporal_loss", "losses.total")
        w(losses, "focal_loss", "losses.focal")
        w(losses, "dice_loss", "losses.dice")
        w(losses, "gaussian_cosine_similarity_loss", "losses.sim")
        w(losses, "gaussian_truncated_boundary_loss", "losses.boundary")
        w(pipeline, "detect_boundaries", "segments.detect", info=lambda a, k, out: len(out))
        w(pipeline, "refine_prediction", "segments.refine")
        w(cli, "evaluate_all", "metrics.evaluate")
        w(pipeline, "infer", "pipeline.infer",
          info=lambda a, k, out: self._walk(_output_tensors(out.output)))
        w(pipeline, "train", "pipeline.train", info=lambda a, k, out: len(out.epoch_losses))
        w(pipeline, "load_features", "pipeline.load_features",
          info=lambda a, k, out: os.path.getsize(a[0]))
        w(pipeline, "load_labels", "pipeline.load_labels")
        w(pipeline, "save_labels", "pipeline.save_labels")
        w(cli, "main", lambda a, k: "cli." + a[0][0])

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the
        span minus the part its direct children cover)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for i, s in enumerate(self.spans):
            row = out[s.name]
            row["calls"] += 1
            row["inclusive_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child[i]
        return dict(out)

    def layer_metrics(self, n_ops: int) -> tuple[dict, dict]:
        """Per-layer metrics, as values per operation where they are times
        or counts, plus the record of the MAC cross-check."""
        spans = self.spans
        tot = self.totals()

        def per_op(name, key="inclusive_s"):
            return tot[name][key] / n_ops if name in tot else 0.0

        def named(name):
            return [s for s in spans if s.name == name]

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        def dur(ss):
            return sum(s.end - s.start for s in ss)

        m = {
            "seqcore.backward.s": per_op("seqcore.backward"),
            "seqcore.adam.s": per_op("seqcore.adam"),
            "seqcore.conv1d.s": per_op("seqcore.conv1d"),
            "seqcore.conv1d.calls": len(named("seqcore.conv1d")) / n_ops,
            "seqcore.layer_norm.s": per_op("seqcore.layer_norm"),
        }
        nodes = [n for n, _ in self.tape]
        m["seqcore.tape_nodes"] = float(np.mean(nodes)) if nodes else 0.0
        m["seqcore.tape_mb"] = float(np.mean([b for _, b in self.tape])) / 1e6 if nodes else 0.0

        dswa, hta = named("attention.dswa"), named("attention.hta")
        builds = named("attention.mask_build")
        m["attention.dswa.s"] = per_op("attention.dswa")
        m["attention.dswa.gmacs_per_s"] = rate(sum(s.info for s in dswa) / 1e9, dur(dswa))
        m["attention.hta.s"] = per_op("attention.hta")
        m["attention.hta.gmacs_per_s"] = rate(sum(s.info for s in hta) / 1e9, dur(hta))
        m["attention.band_fill"] = rate(sum(s.info[2] for s in builds),
                                        sum(s.info[3] for s in builds))
        m["attention.mask_build.s"] = per_op("attention.mask_build")
        m["attention.mask_build.calls"] = len(builds) / n_ops
        built = {s.parent for s in builds}
        lookups = [i for i, s in enumerate(spans) if s.name == "network.masks_for"]
        m["attention.mask_cache_hit"] = rate(sum(i not in built for i in lookups), len(lookups))

        forwards = [s for s in spans if s.name.startswith("network.forward_")]
        check = _macs_check(spans)
        m["network.forward_train.s"] = per_op("network.forward_train")
        m["network.forward_eval.s"] = per_op("network.forward_eval")
        m["network.forward.gmacs_per_s"] = rate(check["forward_macs"] / 1e9, dur(forwards))
        m["network.encoder.s"] = per_op("network.encoder")
        m["network.decoder.s"] = per_op("network.decoder")
        tcn = named("network.tcn_block")
        for stage, parent in (("enc", "network.encoder"), ("dec", "network.decoder")):
            m[f"network.{stage}_tcn.s"] = dur(
                s for s in tcn if s.parent >= 0 and spans[s.parent].name == parent) / n_ops
        m["network.load_checkpoint.s"] = per_op("network.load_checkpoint")
        m["network.save_checkpoint.s"] = per_op("network.save_checkpoint")

        for part in ("total", "focal", "dice", "sim", "boundary"):
            m[f"losses.{part}.s"] = per_op(f"losses.{part}")
        m["segments.detect.s"] = per_op("segments.detect")
        m["segments.refine.s"] = per_op("segments.refine")
        m["segments.boundaries"] = sum(s.info for s in named("segments.detect")) / n_ops
        m["metrics.evaluate.s"] = per_op("metrics.evaluate")

        m["pipeline.infer.s"] = per_op("pipeline.infer")
        trains = named("pipeline.train")
        m["pipeline.train_epoch_s"] = rate(dur(trains), sum(s.info for s in trains))
        loads = named("pipeline.load_features")
        m["pipeline.load_features.s"] = per_op("pipeline.load_features")
        m["pipeline.load_features.mb_per_s"] = rate(sum(s.info for s in loads) / 1e6, dur(loads))
        m["cli.infer.s"] = per_op("cli.infer", "self_s")
        m["cli.eval.s"] = per_op("cli.eval", "self_s")
        return m, check


def _dense_macs(cfg: network.ModelConfig, T: int) -> int:
    """The terms of ``count_params_flops`` that do not depend on masks."""
    t = -(-T // cfg.stride)
    d, k, c = cfg.d_model, cfg.kernel_size, cfg.n_classes
    macs = T * cfg.d_in * d + cfg.n_blocks * (t * d * d * k + t * d * d)
    macs += cfg.n_blocks * 2 * t * d * cfg.mlp_hidden + t * d * (c + 1)
    macs += cfg.n_decoders * (T * (c + d) * d + cfg.n_blocks * (T * d * d * k + T * d * d)
                              + T * d * (c + 1))
    return macs


def _macs_check(spans: list[Span]) -> dict:
    """Cross-check the computed work against the package's own counters:
    per forward pass, the MACs of its attention calls plus the
    mask-independent terms against ``count_params_flops``, and the pair
    count of every distinct mask built against ``attended_pairs_count``."""
    forward = [-1] * len(spans)  # index of the enclosing forward span
    for i, s in enumerate(spans):
        if s.name.startswith("network.forward_"):
            forward[i] = i
        elif s.parent >= 0:
            forward[i] = forward[s.parent]
    attn_macs = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name in ("attention.dswa", "attention.hta"):
            attn_macs[forward[i]] += s.info
    counted: dict = {}
    forward_macs = 0
    mismatches = []
    for i, s in enumerate(spans):
        if forward[i] != i:
            continue
        cfg, T = s.info
        key = (tuple(cfg.to_dict().items()), T)
        if key not in counted:
            counted[key] = network.count_params_flops(cfg, T)[1]
        forward_macs += counted[key]
        computed = _dense_macs(cfg, T) + attn_macs[i]
        if computed != counted[key]:
            mismatches.append({"T": T, "computed": computed, "count_params_flops": counted[key]})
    pairs = {s.info[:2]: s.info[2] for s in spans if s.name == "attention.mask_build"}
    for (T, spec), valid in pairs.items():
        exact = attention.attended_pairs_count(attention.build_sparse_mask(T, spec))
        if exact != valid:
            mismatches.append({"T": T, "spec": repr(spec), "valid": valid, "pairs": exact})
    return {"forward_macs": forward_macs, "mismatches": mismatches}
