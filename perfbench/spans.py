"""In-memory spans around the public functions of each fusiondepth module.

The tracer patches names where the program looks them up (for example
`training.total_loss`, `cli.load_checkpoint`, `autodiff.conv2d`), so the
program itself stays unmodified. A span is [name, start, end, parent, attrs];
spans live in a list until `dump` writes them out. Ops that record a tape
entry (conv2d, grid_sample) also get their VJP closure wrapped, which times
the backward pass per op and per `Conv` layer.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter


def tape_nodes(roots):
    """Number of distinct tensors reachable from `roots` through `_parents`."""
    seen = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _time_vjp(self, tensor, name):
        vjp = tensor._vjp
        if vjp is None:
            return
        tracer = self

        def timed(g):
            index = tracer.open(name)
            try:
                return vjp(g)
            finally:
                tracer.close(index)

        tensor._vjp = timed

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a spanned call. `name` is a string or a
        function of the call's first argument (the instance, for methods);
        `after(span_index, args, result)` runs once the span is closed."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name if isinstance(name, str) else name(args[0]))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(index, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, fd):
        """Patch the public entry points of every fusiondepth layer; `fd` is
        the imported package."""
        ad, network, training = fd.autodiff, fd.network, fd.training

        def conv2d_after(index, args, out):
            o, c, k, _ = args[1].shape
            n, _, ho, wo = out.shape
            self.spans[index][4] = {
                "gflop": 2.0 * n * o * ho * wo * c * k * k / 1e9,
                "im2col_mb": 8.0 * n * ho * wo * c * k * k / 2**20,
            }
            self._time_vjp(out, "autodiff.conv2d.vjp")

        def conv_layer_after(index, args, out):
            self._time_vjp(out, self.spans[index][0] + ".vjp")

        def tape_after(index, args, out):
            roots = out.maps if hasattr(out, "maps") else [out]
            self.spans[index][4] = {"tape_nodes": tape_nodes(roots)}

        def size_after(index, args, out):
            self.spans[index][4] = {"checkpoint_mb": os.path.getsize(args[0]) / 2**20}

        self.wrap(ad, "backward", "autodiff.backward")
        self.wrap(ad, "conv2d", "autodiff.conv2d", conv2d_after)
        self.wrap(ad, "grid_sample_bilinear", "autodiff.grid_sample",
                  lambda i, a, out: self._time_vjp(out, "autodiff.grid_sample.vjp"))
        self.wrap(network.Conv, "__call__", lambda conv: "network.conv." + conv.name, conv_layer_after)
        self.wrap(network.DepthNet, "forward", "network.forward", tape_after)
        self.wrap(network, "read_checkpoint", "network.read_checkpoint")
        self.wrap(network, "save_checkpoint", "network.save_checkpoint")
        self.wrap(training, "save_checkpoint", "network.save_checkpoint")
        self.wrap(fd.cli, "load_checkpoint", "network.load_checkpoint", size_after)
        self.wrap(training, "total_loss", "losses.total_loss", tape_after)
        self.wrap(training.Adam, "step", "training.adam_step")
        for attr in ("postprocess", "compute_metrics", "compute_d1", "format_report"):
            self.wrap(fd.metrics, attr, "metrics." + attr)
        for attr in ("load_dataset", "write_dataset", "render_stereo", "read_manifest"):
            self.wrap(fd.scenes, attr, "scenes." + attr)
        for attr in ("read_ppm", "write_ppm", "read_pgm16", "write_pgm16"):
            self.wrap(fd.netpbm, attr, "netpbm." + attr)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"], "spans": self.spans}, f)


# ---------------------------------------------------------------------------
# analysis


def _median(values):
    return statistics.median(values) if values else float("nan")


class Analysis:
    """Durations, self times and per-step sums derived from a span list."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        self.root = list(range(n))
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
                self.root[i] = self.root[s[3]]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.by_name = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)
        self.steps = self._segment_steps()

    def _segment_steps(self):
        """Training steps: spans under a `training.run_schedule` root, cut
        after each `training.adam_step` span (the last call of a step). The
        first step of a schedule also loads the data and builds the net, so
        like the spans after its last step it is left out."""
        steps, current, schedule, first = [], [], None, False
        for i, s in enumerate(self.spans):
            if self.spans[self.root[i]][0] != "training.run_schedule" or self.root[i] == i:
                continue
            if self.root[i] != schedule:
                schedule, current, first = self.root[i], [], True
            current.append(i)
            if s[0] == "training.adam_step":
                if not first:
                    steps.append(current)
                current, first = [], False
        return steps

    def calls(self, name):
        return self.by_name.get(name, [])

    def per_call_ms(self, name, self_time=False):
        times = self.self_time if self_time else self.dur
        return 1e3 * _median([times[i] for i in self.calls(name)])

    def per_step_ms(self, name):
        return 1e3 * _median([sum(self.dur[i] for i in step if self.spans[i][0] == name)
                              for step in self.steps])

    def step_counts(self):
        """Per training step: (conv2d calls, grid_sample calls, conv2d GFLOP,
        im2col MiB, loss tape nodes, spans)."""
        rows = []
        for step in self.steps:
            names = [self.spans[i][0] for i in step]
            convs = [self.spans[i][4] for i in step if self.spans[i][0] == "autodiff.conv2d"]
            loss = [self.spans[i][4]["tape_nodes"] for i in step if self.spans[i][0] == "losses.total_loss"]
            rows.append((
                len(convs),
                names.count("autodiff.grid_sample"),
                sum(c["gflop"] for c in convs),
                sum(c["im2col_mb"] for c in convs),
                sum(loss),
                len(step),
            ))
        return rows

    def attr_values(self, name, key):
        return [self.spans[i][4][key] for i in self.calls(name)]
